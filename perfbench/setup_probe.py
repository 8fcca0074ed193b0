"""One benchmark set-up in a fresh interpreter, timed from inside it.

    python3 perfbench/setup_probe.py <workload> <seed> <tmpdir>

Set-up is importing ``posmine``, generating the workload's inputs and one
small warm-up op.  Prints one JSON object: ``setup_s`` and the warm-up op's
oracle ``error`` (null when it passed).
"""

import json
import sys
import time

t0 = time.perf_counter()

from pathlib import Path  # noqa: E402

import workloads  # noqa: E402


def main() -> None:
    name, seed, tmpdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    pm = workloads.load_package()
    wl = workloads.Workload(pm, name, seed, tmpdir)
    op = wl.warmup_op()
    outcome = wl.check(op, wl.execute(op))
    print(json.dumps({"setup_s": time.perf_counter() - t0, "error": outcome.error}))


if __name__ == "__main__":
    main()
