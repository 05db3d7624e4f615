"""Import path: scipy loads only where a computation needs it.

Each case runs in a fresh interpreter and reports the scipy modules
loaded when it finishes.  The ensemble transport LP is the only user
of scipy; log-power quadrature is numpy's.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import entrobound

SRC = str(Path(entrobound.__file__).resolve().parent.parent)

REPORT = ("import json, sys; print(json.dumps(sorted(m for m in sys.modules "
          "if m == 'scipy' or m.startswith('scipy.'))))")


def _scipy_modules_after(code: str) -> list:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run([sys.executable, "-c", f"{code}\n{REPORT}"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _cli(argv) -> str:
    return f"from entrobound.cli import main\nassert main({list(argv)!r}) == 0"


@pytest.mark.parametrize("code", [
    "import entrobound",
    "import entrobound.cli",
    _cli(["gibbs", "--levels", "0,1", "--energy", "0.25"]),
    _cli(["bound", "--oscillator", "1.0", "--preset", "entropy", "--epsilon", "0.08",
          "--energy", "1.5"]),
    _cli(["verify", "--family", "channel-mi", "--trials", "1", "--epsilons", "0.01",
          "--channel", "identity"]),
    _cli(["verify", "--family", "channel-mi", "--channel", "depolarizing:0.25", "--trials",
          "1", "--epsilons", "0.01"]),
    "from entrobound.gibbs import SpectrumModel, max_entropy\n"
    "max_entropy(SpectrumModel.log_power(3.0), 2.0)",
    _cli(["bound", "--logpower", "3", "--preset", "entropy", "--epsilon", "0.08",
          "--energy", "1"]),
], ids=["import", "import-cli", "gibbs", "bound", "verify-channel-mi",
        "verify-channel-mi-depolarizing", "logpower-envelope", "bound-logpower"])
def test_loads_no_scipy(code):
    assert _scipy_modules_after(code) == []


def test_transport_distance_loads_scipy_optimize():
    loaded = _scipy_modules_after(
        "import numpy as np\n"
        "from entrobound.ensembles import Ensemble, transport_distance\n"
        "from entrobound.operators import DensityMatrix\n"
        "a = Ensemble((1.0,), (DensityMatrix(np.diag([1.0, 0.0])),))\n"
        "b = Ensemble((1.0,), (DensityMatrix(np.diag([0.0, 1.0])),))\n"
        "assert transport_distance(a, b) == 1.0")
    assert "scipy.optimize" in loaded
