"""Pipeline benchmark command.

    python3 bench/run.py --workload capture-long --seed 1 --seconds 10 --trace 0

Run from the root of a checkout: the program is imported from `src/` next to
this directory, never from an installed copy. The last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics` (the end-to-end metrics, or with `--trace 1` the per-layer ones).
Transient files (corpora, trace dumps) go under `.bench_out/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# one compute thread in all, BLAS included; must be set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "moric" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import moric

    if Path(moric.__file__).resolve().parent != SRC / "moric":
        print(f"error: imported moric from {moric.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS, run_workload

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    result, failures = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), OUT)
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
