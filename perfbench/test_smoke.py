"""Smoke test of the benchmark itself (about 2.5 min on 2 cores).

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload once at the shortest run length, the traced
profile once, and a run with corrupted reference values, which must
fail.  Not part of the library's test suite: ``tests/`` is.
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYERS = json.loads((HERE / "layers.json").read_text())["per_layer"]


def run(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(HERE.relative_to(ROOT) / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def result_of(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def assert_metrics(result: dict, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], float) and math.isfinite(got["value"]), m["name"]
    assert set(result["metrics"]) == {m["name"] for m in declared}


# Every workload run.py offers, not only the ones BENCHMARK.json declares.
@pytest.mark.parametrize("workload", ["sweep-channel", "sweep-states", "envelope", "cli-cold"])
def test_workload_reports_every_end_to_end_metric(workload):
    proc = run("--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", "0")
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = result_of(proc)
    assert result["correct"] and result["failed"] == 0
    assert_metrics(result, BENCH["end_to_end"])
    for m in result["metrics"].values():
        assert m["value"] > 0.0
    if workload == "envelope":
        # The known log-power bisection failure stays visible.
        assert "refused: spectrum=logpower" in proc.stdout


def test_traced_run_reports_every_layer_metric():
    proc = run("--workload", "sweep-channel", "--seed", "3", "--seconds", "0.1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = result_of(proc)
    assert_metrics(result, BENCH["per_layer"])
    # Two eigvalsh calls per channel_mi on the 256x256 joint state, and
    # two channel_mi calls per row.
    assert result["metrics"]["operators.eig_calls_per_row.channel.d256"]["value"] == 4.0


def test_wrong_reference_fails_the_run():
    proc = run("--workload", "sweep-states", "--seed", "3", "--seconds", "0.1", "--trace", "0",
               "--corrupt-reference")
    assert proc.returncode != 0
    result = result_of(proc)
    assert not result["correct"] and result["failed"] > 0
    assert "CHECK FAILED two-level-lambda" in proc.stdout


def test_stinespring_reference_detects_a_wrong_value():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import checks
    from entrobound import channels
    from entrobound.operators import DensityMatrix
    import numpy as np

    rng = np.random.default_rng(5)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = DensityMatrix(g @ g.conj().T / np.trace(g @ g.conj().T).real)
    calls = [((ch, rho), channels.channel_mi(ch, rho)) for ch in channels.channel_zoo(4)]
    good, bad = checks.Checks(), checks.Checks()
    checks.check_channel_mi(good, calls, corrupt=False)
    checks.check_channel_mi(bad, calls, corrupt=True)
    assert good.failed == 0 and good.performed == 5
    assert bad.failed == 5


def test_layers_json_matches_benchmark_json():
    assert [{k: e[k] for k in ("name", "unit", "better")} for e in LAYERS] == BENCH["per_layer"]
    for e in LAYERS:
        assert e["name"].split(".")[0] == e["layer"]


def test_refuses_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run("--workload", "envelope", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
