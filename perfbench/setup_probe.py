"""Child process that times one workload's set-up from a cold interpreter.

Set-up is the import of the library plus everything a workload builds
before its timed loop: sweep configs and their wiring (channel Kraus
operators included), the first block of the query stream, or the CLI
parser.  Prints {"setup_s": seconds} on one line.

    python3 perfbench/setup_probe.py WORKLOAD SEED
"""
import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402  (imports numpy and entrobound)


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    workloads.build(workload, seed)
    print(json.dumps({"setup_s": time.perf_counter() - START}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
