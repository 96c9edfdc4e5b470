"""Per-layer spans recorded from outside the program.

Every layer is measured by wrapping its public functions, never by
editing the package: a wrapper records a span (name, start, end, parent,
operation id) around each call and accumulates the call count and self
time (duration minus child spans) of its group.  Module-level functions
are also re-bound wherever a caller imported them by name (the bus binds
``encode_message``, for example), so every call site is seen.

Spans are kept in memory, up to a cap, and written to one file when the
run ends.  The same patching machinery installs the deliberate slowdowns
used by the sensitivity check.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import os
import statistics
import sys
from array import array
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: (group, module, qualified name) of every wrapped public function.
#: The group names a layer's metrics; a group may span several functions.
FUNCTIONS: Tuple[Tuple[str, str, str], ...] = (
    ("net.codec", "repro.net.codec", "encode_message"),
    ("net.codec", "repro.net.codec", "decode_message"),
    ("net.bus", "repro.net.bus", "MessageBus.call"),
    ("net.admission", "repro.net.admission", "AdmissionController.admit"),
    ("enforcement.decide", "repro.core.enforcement.engine", "EnforcementEngine.decide"),
    ("enforcement.decide", "repro.core.enforcement.compiled", "CompiledEnforcementEngine.decide"),
    ("enforcement.decide", "repro.core.enforcement.cache", "CachingEnforcementEngine.decide"),
    ("enforcement.capture", "repro.core.enforcement.engine",
     "EnforcementEngine.enforce_observation"),
    ("reasoner.resolve", "repro.core.reasoner.resolution", "resolve"),
    ("spatial.contains", "repro.spatial.model", "SpatialModel.contains"),
    ("sensor_manager.tick", "repro.tippers.sensor_manager", "SensorManager.tick"),
    ("datastore.insert", "repro.tippers.datastore", "Datastore.insert"),
    ("datastore.query", "repro.tippers.datastore", "Datastore.query"),
    ("datastore.query", "repro.tippers.datastore", "Datastore.latest"),
    ("inference", "repro.tippers.inference", "InferenceEngine.locate"),
    ("inference", "repro.tippers.inference", "InferenceEngine.is_occupied"),
    ("inference", "repro.tippers.inference", "InferenceEngine.occupant_count"),
    ("request_manager", "repro.tippers.request_manager", "RequestManager.locate_user"),
    ("request_manager", "repro.tippers.request_manager", "RequestManager.room_occupancy"),
    ("preference_manager.submit", "repro.tippers.preference_manager",
     "PreferenceManager.submit"),
    ("preference_manager.submit", "repro.tippers.preference_manager",
     "PreferenceManager.apply_selection"),
    ("storage.wal", "repro.storage.wal", "WriteAheadLog.append"),
    ("storage.compact", "repro.storage.durable", "StorageEngine.compact"),
    ("storage.recover", "repro.storage.recovery", "recover"),
    ("irr.discover", "repro.irr.registry", "IoTResourceRegistry.discover"),
    ("iota.discover", "repro.iota.assistant", "IoTAssistant.discover"),
    ("iota.configure", "repro.iota.assistant", "IoTAssistant.configure_building_settings"),
    ("iota.roam", "repro.iota.assistant", "IoTAssistant.roam_to"),
    ("iota.notify", "repro.iota.notifications", "NotificationManager.offer"),
    ("language.parse", "repro.core.language.document", "ResourcePolicyDocument.from_dict"),
    ("language.parse", "repro.core.language.document", "ResourcePolicyDocument.to_dict"),
    ("language.parse", "repro.core.language.document", "ServicePolicyDocument.from_dict"),
    ("language.parse", "repro.core.language.document", "ServicePolicyDocument.to_dict"),
    ("language.parse", "repro.core.language.document", "SettingsDocument.from_dict"),
    ("language.parse", "repro.core.language.document", "SettingsDocument.to_dict"),
    ("federation.router", "repro.federation.router", "FederationRouter.call_home"),
    ("federation.router", "repro.federation.router", "FederationRouter.call_building"),
    ("federation.migrate", "repro.federation.rebalance", "RebalanceCoordinator.migrate"),
    ("federation.dsar", "repro.federation.dsar", "campus_erase_subject"),
)
GROUPS: Tuple[str, ...] = tuple(dict.fromkeys(group for group, _, _ in FUNCTIONS))

#: Functions the sensitivity check may slow down, by short name.
SLOWDOWN_TARGETS: Dict[str, Tuple[str, str]] = {
    "SpatialModel.contains": ("repro.spatial.model", "SpatialModel.contains"),
    "Datastore.query": ("repro.tippers.datastore", "Datastore.query"),
    "MessageBus.call": ("repro.net.bus", "MessageBus.call"),
}

SPAN_CAP = 2_000_000

#: workload -> group -> the recorder's operations that call the group's
#: function directly.  They are its only top-level callers, so the
#: group's outermost spans must add up to what the recorder timed for
#: them with its own clock.
TOP_LEVEL: Dict[str, Dict[str, Tuple[str, ...]]] = {
    "ingest": {"storage.compact": ("compact",)},
    "query": {"net.bus": ("query",), "storage.compact": ("compact",)},
    "campus": {
        "federation.router": ("campus_query", "pref_update"),
        "federation.migrate": ("migrate",),
        "federation.dsar": ("dsar",),
        "iota.roam": ("handoff",),
        "storage.compact": ("compact",),
    },
}
#: How far the two may differ, as a share of the recorder's time: the
#: recorder's window also holds the outermost wrapper's own cost.
TOP_LEVEL_TOLERANCE = 0.05


def _bindings(module_name: str, qualname: str) -> List[Tuple[Any, str, Any]]:
    """Every (owner, attribute, raw value) that binds the function.

    A method has one binding, on its class.  A module-level function is
    bound in its own module and in every loaded module that imported
    it by name.
    """
    module = importlib.import_module(module_name)
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        owner = getattr(module, cls_name)
        return [(owner, attr, inspect.getattr_static(owner, attr))]
    function = getattr(module, qualname)
    found = []
    for name, loaded in sorted(sys.modules.items()):
        if loaded is None or not (name.startswith("repro") or name == "workloads"):
            continue
        if loaded.__dict__.get(qualname) is function:
            found.append((loaded, qualname, function))
    return found


def _rebind(raw: Any, make: Callable[[Callable[..., Any]], Callable[..., Any]]) -> Any:
    """``raw`` with its function replaced by ``make(function)``."""
    if isinstance(raw, classmethod):
        return classmethod(make(raw.__func__))
    if isinstance(raw, staticmethod):
        return staticmethod(make(raw.__func__))
    return make(raw)


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def apply(self, module_name: str, qualname: str,
              make: Callable[[Callable[..., Any]], Callable[..., Any]]) -> None:
        for owner, attr, raw in _bindings(module_name, qualname):
            self._undo.append((owner, attr, raw))
            setattr(owner, attr, _rebind(raw, make))

    def undo(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)


def install_slowdown(name: str, ratio: float) -> "Patches":
    """Busy-wait ``ratio`` x each call's own duration after ``name``.

    Returns the patches, whose ``undo()`` removes the slowdown.
    """
    if name not in SLOWDOWN_TARGETS or ratio <= 0:
        raise SystemExit("unknown slowdown %r (choose from %s)"
                         % (name, ", ".join(sorted(SLOWDOWN_TARGETS))))

    def make(function: Callable[..., Any]) -> Callable[..., Any]:
        def slowed(*args: Any, **kwargs: Any) -> Any:
            start = perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                until = perf_counter() + (perf_counter() - start) * ratio
                while perf_counter() < until:
                    pass
        return slowed

    patches = Patches()
    patches.apply(*SLOWDOWN_TARGETS[name], make)
    return patches


@dataclass
class LayerTable:
    """Self time per group plus the unattributed remainder.

    ``other_s`` is the wall time minus every group's self time, so the
    rows and ``other`` sum to the wall time by construction.  What is
    checked is ``top_level``: per group, its outermost spans against the
    recorder's independent timing of the operations that call it.
    """

    wall_s: float
    rows: List[Tuple[str, int, float]]
    other_s: float
    #: (group, seconds in its outermost spans, seconds the recorder timed)
    top_level: List[Tuple[str, float, float]]

    def mismatched(self) -> List[str]:
        """Groups whose outermost spans disagree with the recorder."""
        return [group for group, spans_s, timed_s in self.top_level
                if abs(spans_s - timed_s) > TOP_LEVEL_TOLERANCE * timed_s
                or (timed_s == 0.0) != (spans_s == 0.0)]

    def share(self, seconds: float) -> float:
        return 100.0 * seconds / self.wall_s

    def render(self, workload: str) -> str:
        lines = ["layer accounting (%s, traced wall %.3f s):" % (workload, self.wall_s),
                 "  %-28s %10s %12s %8s" % ("layer", "calls", "self_s", "share")]
        for group, calls, self_s in self.rows:
            if calls:
                lines.append("  %-28s %10d %12.6f %7.2f%%"
                             % (group, calls, self_s, self.share(self_s)))
        lines.append("  %-28s %10s %12.6f %7.2f%%"
                     % ("other", "", self.other_s, self.share(self.other_s)))
        total = sum(s for _, _, s in self.rows) + self.other_s
        lines.append("  %-28s %10s %12.6f %7.2f%%" % ("sum", "", total, self.share(total)))
        lines.append("  outermost spans vs the recorder's timing of their callers:")
        for group, spans_s, timed_s in self.top_level:
            lines.append("  %-28s %10.6f s vs %10.6f s (%+.2f%%)" % (
                group, spans_s, timed_s,
                100.0 * (spans_s / timed_s - 1.0) if timed_s else 0.0))
        return "\n".join(lines)


class LayerTracer:
    """Wraps every function in :data:`FUNCTIONS` while installed."""

    def __init__(self) -> None:
        self.calls = [0] * len(GROUPS)
        self.self_s = [0.0] * len(GROUPS)
        #: Seconds in each group's outermost spans (no open span around).
        self.top_s = [0.0] * len(GROUPS)
        self._depth = [0] * len(GROUPS)
        self._child: List[float] = []
        self._open: List[int] = []
        self.names = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.ops = array("I")
        self.op = 0
        self.overflow = 0
        #: Counts taken from wrapped functions' results.
        self.results: Dict[str, float] = dict.fromkeys(
            ("sampled", "stored", "rows", "conflicts", "offered", "shown", "frames"), 0.0)

    def begin_op(self) -> None:
        """Start a new top-level operation; its spans share this id."""
        self.op += 1

    @property
    def recorded(self) -> int:
        return len(self.names)

    def _on_result(self, qualname: str) -> Optional[Callable[[Any], None]]:
        results = self.results

        def capture(stats: Any) -> None:
            results["sampled"] += stats.sampled
            results["stored"] += stats.stored

        def rows(found: Any) -> None:
            results["rows"] += len(found)

        def latest(found: Any) -> None:
            results["rows"] += found is not None

        def conflicts(found: Any) -> None:
            results["conflicts"] += len(found)

        def offer(notification: Any) -> None:
            results["offered"] += 1
            results["shown"] += notification is not None

        def frames(state: Any) -> None:
            results["frames"] += state.report.frames_replayed

        return {
            "SensorManager.tick": capture,
            "Datastore.query": rows,
            "Datastore.latest": latest,
            "PreferenceManager.submit": conflicts,
            "PreferenceManager.apply_selection": conflicts,
            "NotificationManager.offer": offer,
            "recover": frames,
        }.get(qualname)

    def _make(self, gid: int, on_result: Optional[Callable[[Any], None]]):
        tracer = self
        names, starts, ends = self.names, self.starts, self.ends
        parents, ops = self.parents, self.ops
        calls, self_s, top_s, depth = self.calls, self.self_s, self.top_s, self._depth
        child, open_spans = self._child, self._open

        def make(function: Callable[..., Any]) -> Callable[..., Any]:
            def traced(*args: Any, **kwargs: Any) -> Any:
                index = len(names)
                if index < SPAN_CAP:
                    names.append(gid)
                    starts.append(0.0)
                    ends.append(0.0)
                    parents.append(open_spans[-1] if open_spans else -1)
                    ops.append(tracer.op)
                else:
                    index = -1
                    tracer.overflow += 1
                open_spans.append(index)
                child.append(0.0)
                depth[gid] += 1
                start = perf_counter()
                try:
                    result = function(*args, **kwargs)
                finally:
                    end = perf_counter()
                    duration = end - start
                    depth[gid] -= 1
                    if not depth[gid]:
                        calls[gid] += 1
                    self_s[gid] += duration - child.pop()
                    open_spans.pop()
                    if child:
                        child[-1] += duration
                    else:
                        top_s[gid] += duration
                    if index >= 0:
                        starts[index] = start
                        ends[index] = end
                if on_result is not None:
                    on_result(result)
                return result
            return traced
        return make

    @contextlib.contextmanager
    def installed(self) -> Iterator["LayerTracer"]:
        patches = Patches()
        try:
            for group, module_name, qualname in FUNCTIONS:
                make = self._make(GROUPS.index(group), self._on_result(qualname))
                patches.apply(module_name, qualname, make)
            yield self
        finally:
            patches.undo()

    def count(self, group: str) -> int:
        return self.calls[GROUPS.index(group)]

    def layer_table(self, wall_s: float, workload: str, spent: Dict[str, float]) -> LayerTable:
        """The table for ``workload``; ``spent`` is the recorder's seconds per op."""
        rows = [(group, self.calls[i], self.self_s[i]) for i, group in enumerate(GROUPS)]
        top_level = [(group, self.top_s[GROUPS.index(group)], sum(spent[op] for op in ops))
                     for group, ops in TOP_LEVEL[workload].items()]
        return LayerTable(wall_s, rows, wall_s - sum(self.self_s), top_level)

    def write_spans(self, directory: str, workload: str, seed: int) -> str:
        """One file: a JSON header line, then the span arrays back to back."""
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, "spans-%s-%d.bin" % (workload, seed))
        header = {
            "groups": list(GROUPS),
            "count": self.recorded,
            "overflow": self.overflow,
            "arrays": [["group", "H"], ["start_s", "d"], ["end_s", "d"],
                       ["parent", "i"], ["op", "I"]],
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for column in (self.names, self.starts, self.ends, self.parents, self.ops):
                column.tofile(handle)
        return path


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(tracer: LayerTracer, table: LayerTable, registry: Any,
                      traced: Any, plain: Any) -> Dict[str, Tuple[float, str]]:
    """metric -> (value, unit) for the traced half of a run.

    Self time is reported as a percentage of the traced wall time: runs
    have a fixed length, so it carries the same information as seconds.
    """
    metrics: Dict[str, Tuple[float, str]] = {}
    for group, calls, self_s in table.rows:
        metrics[group + ".calls"] = (float(calls), "count")
        metrics[group + ".self_pct"] = (table.share(self_s), "%")
    metrics["other.self_pct"] = (table.share(table.other_s), "%")
    results = tracer.results
    checked = registry.total("admission_checked_total")
    admitted = registry.total("admission_admitted_total")
    rules = registry.merged_histogram("enforcement_rules_evaluated")
    wal_bytes = registry.total("storage_wal_bytes_total")
    metrics.update({
        "net.bus.retries": (registry.total("bus_retries_total"), "count"),
        "net.bus.failed": (registry.total("bus_errors_total")
                           + registry.total("bus_admission_shed_total")
                           + registry.total("bus_breaker_rejected_total"), "count"),
        "net.admission.shed_ratio": (
            _ratio(registry.total("admission_shed_total"), checked), "ratio"),
        "net.admission.brownout_ratio": (
            _ratio(registry.total("brownout_responses_total"), admitted), "ratio"),
        "enforcement.failclosed": (registry.total("enforcement_failclosed_total"), "count"),
        "enforcement.rules_per_decide": (
            _ratio(rules.sum, rules.count) if rules is not None else 0.0, "ratio"),
        "spatial.contains_per_decide": (
            _ratio(tracer.count("spatial.contains"), tracer.count("enforcement.decide")),
            "ratio"),
        "sensor_manager.sampled": (results["sampled"], "count"),
        "sensor_manager.stored_ratio": (_ratio(results["stored"], results["sampled"]), "ratio"),
        "datastore.rows_per_query": (
            _ratio(results["rows"], tracer.count("datastore.query")), "ratio"),
        "preference_manager.conflicts": (results["conflicts"], "count"),
        "storage.wal.bytes": (wal_bytes, "bytes"),
        "storage.wal.bytes_per_obs": (
            _ratio(wal_bytes, tracer.count("datastore.insert")), "bytes"),
        "storage.recover.frames": (results["frames"], "count"),
        "iota.notify_ratio": (_ratio(results["shown"], results["offered"]), "ratio"),
        "federation.forwarded": (registry.total("federation_forwarded_calls_total"), "count"),
        "tracing.overhead_pct": (100.0 * (
            statistics.median(traced.per_round["round"])
            / statistics.median(plain.per_round["round"]) - 1.0), "%"),
    })
    return metrics
