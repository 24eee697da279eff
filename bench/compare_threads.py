"""One-off comparison of `harness.build_feature_table` at threads=1 and 2.

    python3 bench/compare_threads.py --seed 1 --repeats 3

Builds one corpus per capture shape of the capture workloads and times the
feature table on it at each thread count, alternating which runs first.
Prints seconds per capture (median over the repeats). BLAS is pinned to one
thread, so the pool's workers are the only parallelism.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from moric import harness  # noqa: E402

from corpus import CaptureShape, write_corpus  # noqa: E402
from workloads import PIPELINE, WORKLOADS  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    for name in ("capture-long", "capture-wide"):
        shape: CaptureShape = WORKLOADS[name].shape
        with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as tmp:
            manifest = write_corpus(Path(tmp), shape, [("s0", 2), ("s1", 2)], args.seed)
            per_capture = {1: [], 2: []}
            for rep in range(args.repeats):
                for threads in ((1, 2) if rep % 2 == 0 else (2, 1)):
                    t0 = time.perf_counter()
                    harness.build_feature_table(manifest, PIPELINE, threads=threads)
                    per_capture[threads].append((time.perf_counter() - t0) / len(manifest.entries))
        print(
            f"{name} ({shape.n_streams}x{shape.n_subcarriers}x{shape.n_frames}, "
            f"{len(manifest.entries)} captures): "
            + ", ".join(f"threads={t}: {statistics.median(v):.3f} s/capture" for t, v in per_capture.items())
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
