"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 20 --trace 0

Run from the repository root.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end metrics of an untraced run;
with ``--trace 1`` the run is split into an untraced and a traced half
and the metrics are the per-layer numbers of the traced half.  A failed
correctness check prints the violation to standard error and exits 1
without a result; a missing package exits 2.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from typing import Dict, List, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: workload -> headline operation.
HEADLINE: Dict[str, str] = {"ingest": "tick", "query": "query", "campus": "campus_query"}
#: Percentile of ``op_us_tail``, which is the median of the rounds' own
#: p90s; a run always holds enough samples for ten to lie beyond it.
#: Not a p99: on campus the p99 is set by WAL segment rotation (8 KiB
#: segments create files), on query by the host's short slow spells,
#: and both moved by up to a third between runs of one seed.
#: ``query_us_p99`` and ``campus_query_us_p99`` are still printed in
#: the text lines.
TAIL = 90
MIN_ROUNDS = 4
#: String hashing is randomised per process, and on the query path the
#: hash secret alone moved the median query by up to 20% between runs
#: of one seed.  The run re-executes itself with this fixed secret.
HASH_SEED = "0"


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile of raw samples (0 < q < 100)."""
    ordered = sorted(samples)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_is_resolved(workload: str):
    """Whether at least ten headline samples lie beyond the tail percentile."""
    op = HEADLINE[workload]
    return lambda rec: len(rec.samples[op]) * (100 - TAIL) >= 1000


def end_to_end(workload: str, rec) -> Dict[str, Tuple[float, str, int]]:
    """metric -> (value, unit, sample count), from raw samples only.

    Times and rates are scaled round by round to the nominal host speed
    (``workloads.reference_s``).  Per-round values are summarised by
    their median, the tail too: a short slow spell of the host moves
    the median of the rounds' p90s less than a pooled percentile.
    """
    op = HEADLINE[workload]
    rounds = rec.per_round

    def median(key: str, scale: float, unit: str) -> Tuple[float, str, int]:
        return statistics.median(rounds[key]) * scale, unit, len(rounds[key])

    return {
        "setup_s": median("ref:setup", 1.0, "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB", 1
        ),
        "throughput_per_s": median("ref:throughput", 1.0, "1/s"),
        "op_us_p50": median("median:" + op, 1e6, "us"),
        "op_us_tail": median("p%d:%s" % (TAIL, op), 1e6, "us"),
        "onboard_ms_p50": median("median:onboard", 1e3, "ms"),
        "compact_ms_per_round": median("total:compact", 1e3, "ms"),
        "recover_ms_per_round": median("total:recover", 1e3, "ms"),
    }


#: Per-operation names, printed with unit and sample count in the text lines.
NAMED: Dict[str, List[Tuple[str, str, float, float]]] = {
    # workload -> [(name, operation, percentile, scale)]
    "ingest": [
        ("tick_ms_p50", "tick", 50, 1e3), ("tick_ms_p90", "tick", 90, 1e3),
        ("retention_ms_p50", "retention", 50, 1e3),
        ("compact_ms_p50", "compact", 50, 1e3), ("recover_s", "recover", 50, 1),
        ("onboard_ms_p50", "onboard", 50, 1e3),
    ],
    "query": [
        ("query_us_p50", "query", 50, 1e6), ("query_us_p99", "query", 99, 1e6),
        ("onboard_ms_p50", "onboard", 50, 1e3),
        ("compact_ms_p50", "compact", 50, 1e3), ("recover_s", "recover", 50, 1),
    ],
    "campus": [
        ("onboard_ms_p50", "onboard", 50, 1e3), ("onboard_ms_p90", "onboard", 90, 1e3),
        ("handoff_ms_p50", "handoff", 50, 1e3),
        ("campus_query_us_p50", "campus_query", 50, 1e6),
        ("campus_query_us_p99", "campus_query", 99, 1e6),
        ("pref_update_us_p50", "pref_update", 50, 1e6),
        ("campus_tick_ms_p50", "campus_tick", 50, 1e3),
        ("migrate_ms_p50", "migrate", 50, 1e3), ("dsar_ms_p50", "dsar", 50, 1e3),
        ("compact_ms_p50", "compact", 50, 1e3), ("recover_ms_p50", "recover", 50, 1e3),
    ],
}
RATE_NAMES = {"ingest": "ingest_obs_per_s", "query": "query_per_s", "campus": "campus_ops_per_s"}


def print_named(workload: str, rec, rounds: int) -> None:
    print("workload %s: %d measured rounds, %d operations, %d failed"
          % (workload, rounds, rec.attempted, rec.failed))
    rate = rec.per_round["throughput"]
    print("  %-22s %14.4f %-6s n=%d rounds" % (
        RATE_NAMES[workload], statistics.median(rate), "1/s", len(rate)))
    for name, op, q, scale in NAMED[workload]:
        samples = rec.samples[op]
        if not samples:
            continue
        value = statistics.median(samples) if q == 50 else percentile(samples, q)
        unit = {1e6: "us", 1e3: "ms", 1: "s"}[scale]
        print("  %-22s %14.4f %-6s n=%d" % (name, value * scale, unit, len(samples)))
    print("  %-22s %14.6f %-6s n=%d" % (
        "failed_ratio", rec.failed / max(rec.attempted, 1), "ratio", rec.attempted))
    print("  %-22s %14.4f %-6s n=%d rounds" % (
        "host_speed", statistics.median(rec.per_round["speed"]), "x", rounds))
    for name, count in sorted(rec.counts.items()):
        print("  %-22s %14d %-6s" % (name, count, "count"))


def source_fingerprint() -> str:
    """A hash of the package source: answers may change with the code."""
    digest = hashlib.sha256()
    for folder, dirs, files in sorted(os.walk(SRC)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def check_cross_run(workload: str, seed: int, rec) -> None:
    """Digests must also match earlier runs of the same seed and source."""
    os.makedirs(os.path.join(OUT, "digests"), exist_ok=True)
    path = os.path.join(
        OUT, "digests", "%s-%d-%s.json" % (workload, seed, source_fingerprint()))
    current = {str(k): v for k, v in rec.digests.items()}
    if os.path.exists(path):
        with open(path) as handle:
            earlier = json.load(handle)
        for variant, digest in current.items():
            rec.check(earlier.get(variant, digest) == digest,
                      "variant %s of seed %d answered differently than in an earlier run"
                      % (variant, seed))
        current = dict(earlier, **current)
    tmp = path + ".tmp%d" % os.getpid()
    with open(tmp, "w") as handle:
        json.dump(current, handle, sort_keys=True)
    os.replace(tmp, path)


def main(argv: Sequence[str]) -> int:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, os.path.abspath(__file__)] + list(argv))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(HEADLINE))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--slowdown", metavar="FUNCTION=RATIO",
        help="busy-wait RATIO x each call's own duration after FUNCTION "
        "(a name in layers.SLOWDOWN_TARGETS); for the sensitivity check only")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("perfbench: no package at %s; run from a repository checkout" % SRC,
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import layers
    import workloads

    scratch = os.path.join(OUT, "run-%d" % os.getpid())
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    try:
        if args.slowdown:
            name, _, ratio = args.slowdown.partition("=")
            layers.install_slowdown(name, float(ratio))
        return _run(args, workloads, layers, scratch)
    except workloads.Violation as exc:
        print("perfbench: correctness check failed: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _run(args, workloads, layers, scratch: str) -> int:
    warm = workloads.Recorder(scratch)
    workloads.run_rounds(args.workload, warm, args.seed, 0.0, min_rounds=1)

    if not args.trace:
        workloads.fresh_registry()
        rec = workloads.Recorder(scratch)
        rec.digests = dict(warm.digests)
        rounds = workloads.run_rounds(
            args.workload, rec, args.seed, args.seconds, MIN_ROUNDS, first_round=1,
            enough=tail_is_resolved(args.workload))
        check_cross_run(args.workload, args.seed, rec)
        metrics = end_to_end(args.workload, rec)
        print_named(args.workload, rec, rounds)
        for name, (value, unit, count) in metrics.items():
            print("  %-22s %14.4f %-6s n=%d" % (name, value, unit, count))
        result_metrics = {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}
    else:
        half = args.seconds / 2.0
        workloads.fresh_registry()
        plain = workloads.Recorder(scratch)
        plain.digests = dict(warm.digests)
        plain_rounds = workloads.run_rounds(
            args.workload, plain, args.seed, half, MIN_ROUNDS, first_round=1)
        registry = workloads.fresh_registry()
        tracer = layers.LayerTracer()
        rec = workloads.Recorder(scratch, on_op=tracer.begin_op)
        rec.digests = dict(plain.digests)
        start = time.perf_counter()
        with tracer.installed():
            rounds = workloads.run_rounds(
                args.workload, rec, args.seed, half, MIN_ROUNDS, first_round=1)
        wall = time.perf_counter() - start - rec.reference_time
        check_cross_run(args.workload, args.seed, rec)
        table = tracer.layer_table(wall, args.workload, rec.spent)
        print(table.render(args.workload))
        rec.check(not table.mismatched(),
                  "outermost spans of %s disagree with the recorder's timing"
                  % ", ".join(table.mismatched()))
        metrics = layers.per_layer_metrics(tracer, table, registry, rec, plain)
        print_named(args.workload, plain, plain_rounds)
        print("traced half: %d rounds, %d operations" % (rounds, rec.attempted))
        path = tracer.write_spans(OUT, args.workload, args.seed)
        print("spans: %d recorded, %d over the in-memory cap, written to %s"
              % (tracer.recorded, tracer.overflow, os.path.relpath(path, ROOT)))
        result_metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    print(json.dumps({
        "correct": True,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": result_metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
