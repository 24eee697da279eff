"""Run the benchmark on several seeds and report each metric's spread.

    python3 bench/spread.py --workload capture-wide --seeds 1-10 --seconds 10

For every metric it prints the median over the runs and the distance between
the first and third quartiles (`statistics.quantiles(values, n=4)`) as a share
of the median, next to the bound in BENCHMARK.json. It also prints each run's
wall time and its failed/attempted share. Results are written to
`.bench_out/spread-<workload>[-trace].json`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range such as 1-10")
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    runs = []
    for seed in parse_seeds(args.seeds):
        cmd = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(args.trace),
        ]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result.update(seed=seed, wall_s=wall)
        runs.append(result)
        share = result["failed"] / result["attempted"]
        print(
            f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
            f"failed share={share} wall {wall:.1f} s",
            flush=True,
        )
        if proc.stderr.strip():
            print(proc.stderr.strip(), file=sys.stderr)

    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        spread = float("nan")
        if len(values) >= 2 and median:
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
        summary[name] = {"median": median, "spread": spread, "bound": bounds.get(name)}
        bound = bounds.get(name)
        flag = ""
        if bound is not None and spread > bound / 3 and name != "setup_s":
            flag = "  <-- above a third of the bound"
        print(f"{name:42s} median {median:12.4f}  spread {spread:7.4f}  bound {bound}{flag}")
    out = ROOT / ".bench_out" / f"spread-{args.workload}{'-trace' if args.trace else ''}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"runs": runs, "summary": summary}, indent=1))
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
