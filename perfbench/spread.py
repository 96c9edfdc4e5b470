"""Run one workload on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload query --seeds 1-10 --seconds 30

For every end-to-end metric this prints the median of the runs and the
distance between the first and third quartile as a share of it (the
spread), beside the metric's bound from BENCHMARK.json.  Runs are
sequential, one process each.  ``--json PATH`` saves the raw values.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def run_once(workload: str, seed: int, seconds: float,
             slowdown: Optional[str] = None) -> Dict[str, float]:
    """End-to-end metrics of one untraced run.py process."""
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    if slowdown:
        command += ["--slowdown", slowdown]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit("run failed (seed %d, exit %d):\n%s"
                         % (seed, done.returncode, done.stderr[-2000:]))
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def bounds() -> Dict[str, float]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--json", help="write the raw values here")
    args = parser.parse_args(argv)

    runs = []
    for seed in parse_seeds(args.seeds):
        runs.append(run_once(args.workload, seed, args.seconds))
        print("seed %d: %s" % (seed, json.dumps({k: round(v, 4) for k, v in runs[-1].items()})),
              flush=True)
    limits = bounds()
    print("%-22s %14s %8s %8s %8s" % ("metric", "median", "spread", "bound", "bound/3"))
    summary = {}
    for name in runs[0]:
        values = [run[name] for run in runs]
        limit = limits.get(name, float("nan"))
        summary[name] = {"values": values, "median": statistics.median(values),
                         "spread": spread(values) if len(values) > 1 else 0.0}
        print("%-22s %14.4f %8.4f %8.3f %8.3f" % (
            name, summary[name]["median"], summary[name]["spread"], limit, limit / 3))
    if args.json:
        with open(args.json, "w") as handle:
            json.dump({"workload": args.workload, "seeds": parse_seeds(args.seeds),
                       "seconds": args.seconds, "metrics": summary},
                      handle, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
