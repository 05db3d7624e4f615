#!/usr/bin/env python3
"""entrobound benchmark: one command, every metric by name with its unit.

    python3 perfbench/run.py --workload sweep-channel --seed 1 --seconds 10 --trace 0

Run from the repository root (any directory works; paths are resolved
from this file).  The library is imported from ``src/`` as checked out;
nothing is installed.  One single-threaded, closed-loop caller drives
it; BLAS is pinned to one thread and ENTROBOUND_THREADS is removed.

``--trace 0`` prints the end-to-end metrics of the named workload;
``--trace 1`` prints the per-layer profile instead (see tracing.py).
The last line of stdout is the JSON result; the lines before it are a
readable summary.  A fuller report, and the spans of a traced run, go
to ``perfbench/out/``.  The exit code is 0 only when every output check
passed.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("sweep-channel", "sweep-states", "envelope", "cli-cold")
# BLAS threads: one.  With two, d=64 eigvalsh ran about 16x slower for
# a whole process in some processes; one thread is as fast at d=256.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--corrupt-reference", action="store_true",
                   help="shift every reference value; the checks must then fail (for tests)")
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def configure_environment() -> str | None:
    """Pin BLAS threads and drop ENTROBOUND_THREADS before numpy loads."""
    for name in BLAS_ENV:
        os.environ[name] = BLAS_THREADS
    dropped = os.environ.pop("ENTROBOUND_THREADS", None)
    sys.path.insert(0, str(SRC))
    return dropped


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def blas_info() -> dict:
    import ctypes
    import glob

    import numpy as np

    cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": cfg.get("name"), "version": cfg.get("version"), "threads_in_effect": None}
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "libscipy_openblas*"))
    for path in libs:
        try:
            getter = ctypes.CDLL(path).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        getter.restype = ctypes.c_int
        info["threads_in_effect"] = int(getter())
    return info


def environment(args, started: str, dropped) -> dict:
    import numpy
    import scipy

    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
        "ENTROBOUND_THREADS": os.environ.get("ENTROBOUND_THREADS"),
        "ENTROBOUND_THREADS_removed": dropped,
        "started_utc": started,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "entrobound" / "__init__.py").is_file():
        print(f"perfbench: no library sources at {SRC / 'entrobound'}", file=sys.stderr)
        return 2
    started = datetime.now(timezone.utc).isoformat()
    dropped = configure_environment()
    import workloads

    env = environment(args, started, dropped)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    t0 = time.perf_counter()
    if args.trace:
        import tracing

        layer, details, attempted = tracing.profile(args.seed, OUT / f"spans-{stem}.jsonl")
        metrics = {k: {"value": float(v), "unit": u} for k, (v, u) in layer.items()}
        differing = [k for k, same in details["csv_identical"].items() if not same]
        correct = not differing
        result = {"correct": correct, "attempted": attempted, "failed": len(differing),
                  "metrics": metrics}
        report = {"environment": env, "result": result, "details": details}
    else:
        out = workloads.run(args.workload, args.seed, args.seconds, args.corrupt_reference)
        correct = out.checks.failed == 0
        result = {"correct": correct, "attempted": out.attempted,
                  "failed": out.checks.failed, "metrics": out.metrics}
        report = {"environment": env, "result": result,
                  "details": out.details, "units": out.units,
                  "refused": out.refused, "checks": out.checks.summary()}
        for r in out.refused:
            print(f"refused: spectrum={r['spectrum']} q={r['q']} E={r['E']!r} "
                  f"epsilon={r['epsilon']!r} pure={r['pure']} preset={r['preset']}")
        for name, examples in out.checks.examples.items():
            for ex in examples:
                print(f"CHECK FAILED {name}: {ex}")
    report["wall_s"] = time.perf_counter() - t0
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, default=str)
    print("environment: " + json.dumps(env, default=str))
    for name, m in sorted(result["metrics"].items()):
        print(f"{name:52s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
