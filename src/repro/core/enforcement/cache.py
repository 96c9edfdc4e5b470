"""Decision caching: the second Section V-C optimization.

Most requests in a building are repetitive -- the same service asking
for the same user's location with the same purpose, tick after tick.
:class:`CachingEnforcementEngine` memoizes resolutions keyed on every
request field except the timestamp, and remains *exact*:

- an entry is only written when no candidate rule for the request has a
  time-sensitive condition (``MatchResult.time_stable``: the timestamp
  provably cannot change the outcome), and
- the whole cache is invalidated whenever the rule store's version
  changes (a submitted preference takes effect immediately).

Every decision -- cached or not -- is still written to the audit log,
preserving the "every decision audited" invariant.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import Hashable, Tuple

from repro.core.enforcement.engine import Decision, EnforcementEngine
from repro.core.policy.base import DataRequest
from repro.core.reasoner.resolution import Resolution, resolve
from repro.errors import ReproError


class CachingEnforcementEngine(EnforcementEngine):
    """An enforcement engine with an exact decision cache."""

    def __init__(self, *args: object, cache_capacity: int = 50_000, **kwargs: object) -> None:
        super().__init__(*args, **kwargs)  # type: ignore[arg-type]
        if cache_capacity < 1:
            raise ValueError("cache_capacity must be positive")
        self._cache: "OrderedDict[Hashable, Resolution]" = OrderedDict()
        self._cache_capacity = cache_capacity
        self._cached_version = self.store.version
        self.hits = 0
        self.misses = 0
        self.uncacheable = 0
        self._m_hits = self.metrics.counter(
            "enforcement_cache_total", {"result": "hit"}
        )
        self._m_misses = self.metrics.counter(
            "enforcement_cache_total", {"result": "miss"}
        )
        self._m_uncacheable = self.metrics.counter(
            "enforcement_cache_total", {"result": "uncacheable"}
        )
        self._m_size = self.metrics.gauge("enforcement_cache_size")
        self._m_invalidations = self.metrics.counter(
            "enforcement_cache_invalidations_total"
        )

    # ------------------------------------------------------------------
    # Keying
    # ------------------------------------------------------------------
    @staticmethod
    def _key(request: DataRequest) -> Hashable:
        """Every request field except the timestamp (and attributes,
        which no rule consults)."""
        return (
            request.requester_id,
            request.requester_kind,
            request.phase,
            request.category,
            request.subject_id,
            request.space_id,
            request.purpose,
            request.granularity,
            request.sensor_type,
        )

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------
    def decide(
        self, request: DataRequest, notes: Tuple[str, ...] = ()
    ) -> Decision:
        # Noted decisions (brownout-degraded responses) bypass the cache
        # in both directions: a cached resolution must not shed its
        # degradation marker, and a marked resolution must not be served
        # later to an un-degraded request.
        if notes:
            return super().decide(request, notes)
        start = time.perf_counter()
        store = self.store
        # The fault planes are consulted before the cache probe, so a
        # policy-fetch outage fails cached entries closed too.
        if store.fault_planes:
            try:
                store.check_fetch()
            except ReproError as exc:
                return self._fail_closed(request, exc, start)
        if store.version != self._cached_version:
            self._cache.clear()
            self._cached_version = store.version
            self._m_invalidations.inc()
            self._m_size.set(0)

        key = self._key(request)
        cached = self._cache.get(key)
        if cached is not None:
            self.hits += 1
            self._m_hits.inc()
            self._cache.move_to_end(key)
            self._record(request, cached)
            # A hit evaluates zero rules; that shows up honestly in the
            # rules-evaluated histogram.
            self._note_decision(cached, 0, time.perf_counter() - start)
            return Decision(request=request, resolution=cached)

        try:
            match = self._matcher.match(request)
        except ReproError as exc:
            # Fail-closed denials are transient by construction; they
            # are never written to the cache.
            return self._fail_closed(request, exc, start)
        resolution = resolve(match, self.strategy)
        self._record(request, resolution)
        if match.time_stable:
            self.misses += 1
            self._m_misses.inc()
            self._cache[key] = resolution
            if len(self._cache) > self._cache_capacity:
                self._cache.popitem(last=False)
            self._m_size.set(len(self._cache))
        else:
            self.uncacheable += 1
            self._m_uncacheable.inc()
        self._note_decision(
            resolution,
            len(match.policies) + len(match.preferences),
            time.perf_counter() - start,
        )
        return Decision(request=request, resolution=resolution)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def cache_size(self) -> int:
        return len(self._cache)

    def cache_stats(self) -> dict:
        total = self.hits + self.misses + self.uncacheable
        return {
            "hits": self.hits,
            "misses": self.misses,
            "uncacheable": self.uncacheable,
            "hit_rate": self.hits / total if total else 0.0,
            "size": len(self._cache),
        }
