"""Check that a deliberate ~20% slowdown moves the benchmark's metrics.

    python3 perfbench/sensitivity.py --seed 7 --seconds 30

For each case, one heavy public function of the program is wrapped with
a busy-wait proportional to its own duration (run.py ``--slowdown``).
The ratio is calibrated in-process from the function's share of round
time, so that the added time is about 20% of the workload's wall time.
Then baseline and slowed runs alternate (``PAIRS`` of each, same
seed) and the median change of every end-to-end metric is compared with
its bound.  Each slowdown must fail the gate, that is, move at least one
metric beyond its bound; the metric the layer map predicts is reported
beside it:

- ``SpatialModel.contains`` on ingest (predicted: ``throughput_per_s``);
- ``Datastore.query`` on query (predicted: ``op_us_tail``: only the
  ``room_occupancy`` share of the queries scans the datastore);
- ``MessageBus.call`` on campus (predicted: ``onboard_ms_p50``);
- ``MessageBus.call`` on ingest, which never calls the bus, must pass
  the gate: no metric may move beyond its bound.

Results are printed and written to perfbench/out/sensitivity.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
from time import perf_counter
from typing import Dict, List, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import layers  # noqa: E402
import spread  # noqa: E402
import workloads  # noqa: E402

#: (workload, function slowed, metric the layer map predicts will move).
CASES: Tuple[Tuple[str, str, str], ...] = (
    ("ingest", "SpatialModel.contains", "throughput_per_s"),
    ("query", "Datastore.query", "op_us_tail"),
    ("campus", "MessageBus.call", "onboard_ms_p50"),
)
CONTROL = ("ingest", "MessageBus.call")
TARGET = 0.20
PAIRS = 2
BETTER = {"throughput_per_s": "higher"}


def _rounds(workload: str, seed: int, rounds: int) -> workloads.Recorder:
    scratch = os.path.join(HERE, "out", "sensitivity-%d" % os.getpid())
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    try:
        rec = workloads.Recorder(scratch)
        workloads.run_rounds(workload, rec, seed, 0.0, rounds)
        return rec
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def calibrate(workload: str, function: str, seed: int) -> Tuple[float, float]:
    """The slowdown ratio adding ~TARGET of round wall time, and what it added.

    The ratio comes from the function's measured share of round time;
    the added share is then measured by alternating plain and slowed
    rounds in this process, and the ratio corrected once if it missed.
    """
    spent = [0.0]

    def make(original):
        def timed_call(*args, **kwargs):
            start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                spent[0] += perf_counter() - start
        return timed_call

    patches = layers.Patches()
    patches.apply(*layers.SLOWDOWN_TARGETS[function], make)
    try:
        rec = _rounds(workload, seed, 4)
    finally:
        patches.undo()
    ratio = TARGET * sum(rec.per_round["round"]) / spent[0]
    for attempt in range(2):
        plain, slowed = [], []
        for _ in range(3):
            plain += _rounds(workload, seed, 2).per_round["round"]
            patches = layers.install_slowdown(function, ratio)
            try:
                slowed += _rounds(workload, seed, 2).per_round["round"]
            finally:
                patches.undo()
        added = statistics.median(slowed) / statistics.median(plain) - 1.0
        if attempt or abs(added - TARGET) < 0.04:
            return ratio, added
        # The wrapper's own cost per call also adds time: correct once.
        ratio *= TARGET / max(added, 0.01)
    raise AssertionError("unreachable")


def worse_by(name: str, base: float, slowed: float) -> float:
    """Relative change, positive when the slowed run is worse."""
    change = (slowed - base) / base
    return -change if BETTER.get(name) == "higher" else change


def compare(workload: str, function: str, ratio: float, seed: int,
            seconds: float) -> Dict[str, Dict[str, float]]:
    base: List[Dict[str, float]] = []
    slowed: List[Dict[str, float]] = []
    for index in range(PAIRS):
        order = [(base, None), (slowed, "%s=%r" % (function, ratio))]
        if index % 2:
            order.reverse()
        for sink, slowdown in order:
            sink.append(spread.run_once(workload, seed, seconds, slowdown))
    bounds = spread.bounds()
    table = {}
    for name in base[0]:
        b = statistics.median(run[name] for run in base)
        s = statistics.median(run[name] for run in slowed)
        table[name] = {"base": b, "slowed": s, "worse_by": worse_by(name, b, s),
                       "bound": bounds[name]}
    return table


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30)
    args = parser.parse_args(argv)

    results = []
    ratios = {}
    for workload, function, metric in CASES + (CONTROL + ("",),):
        if (workload, function) == CONTROL:
            ratio, added = ratios[function], 0.0
        else:
            ratio, added = calibrate(workload, function, args.seed)
            ratios[function] = ratio
        started = perf_counter()
        table = compare(workload, function, ratio, args.seed, args.seconds)
        moved = [n for n, row in table.items()
                 if n != "setup_s" and row["worse_by"] > row["bound"]]
        # A slowdown must fail the gate; the control must pass it.
        ok = bool(moved) if metric else not moved
        results.append({"workload": workload, "function": function, "ratio": ratio,
                        "added_wall_share": added, "predicted": metric, "moved": moved,
                        "predicted_moved": metric in moved, "ok": ok, "metrics": table})
        print("%s with %s x%.3f (added %.0f%% of round wall time, %.0f s):"
              % (workload, function, ratio, 100 * added, perf_counter() - started))
        for name, row in table.items():
            print("  %-22s %14.4f -> %14.4f  worse by %+7.1f%%  bound %4.0f%%%s" % (
                name, row["base"], row["slowed"], 100 * row["worse_by"],
                100 * row["bound"], "  MOVED" if name in moved else ""))
        if metric:
            print("  predicted metric %s %s" % (
                metric, "moved beyond its bound" if metric in moved else "stayed within"))
        print("  %s: the gate %s" % ("PASS" if ok else "FAIL",
                                     "fails" if moved else "passes"), flush=True)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "sensitivity.json"), "w") as handle:
        json.dump(results, handle, indent=1, sort_keys=True)
    return 0 if all(r["ok"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
