"""The federation-level retry ladder (docs/multiring.md).

Both federations retry a failed query the same way, whether its ring
shares the federation clock (:class:`~repro.multiring.federation.
RingFederation`) or runs on its own (:class:`~repro.multiring.partition.
RingPartition`): count the attempts, wait a capped exponential backoff,
re-dispatch the query to a live node of the same ring, and publish
``QueryRetried`` -- or ``QueryAbandoned`` once the attempt budget
(``retry_max_attempts``) is spent.

A node counts as dead when that is known without injector knowledge:
its crash was *announced* (``NodeCrashed`` on the ring bus, until
``NodeRejoined``), or the ring's failure detector confirmed or suspects
it.  A silent ``fail_node`` death is only learned through the detector.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Set

from repro.core.query import QuerySpec
from repro.events import types as ev

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.ring import DataCyclotron
    from repro.events.bus import Bus
    from repro.multiring.config import MultiRingConfig
    from repro.sim.engine import Simulator

__all__ = ["RetryLadder"]


class RetryLadder:
    """Attempt counting, backoff, live-node choice and retry events.

    ``redispatch(ring_id, spec)`` starts one more attempt; the owning
    facade supplies it, together with whatever it does besides
    retrying when an attempt ends.
    """

    def __init__(
        self,
        sim: "Simulator",
        bus: "Bus",
        config: "MultiRingConfig",
        redispatch: Callable[[int, QuerySpec], Any],
    ):
        self.sim = sim
        self.bus = bus
        self.config = config
        self.redispatch = redispatch
        # logical query id -> "ok" | the final error
        self.outcomes: Dict[int, str] = {}
        # query id -> [ring id, spec of the latest attempt, attempt number],
        # while the query is not terminal
        self._pending: Dict[int, List[Any]] = {}
        self._rings: Dict[int, "DataCyclotron"] = {}
        self._announced_down: Dict[int, Set[int]] = {}

    def watch(self, ring_id: int, ring: "DataCyclotron") -> None:
        """Track the ring's announced crashes for the retry-node choice."""
        self._rings[ring_id] = ring
        down = self._announced_down.setdefault(ring_id, set())
        ring.bus.subscribe(ev.NodeCrashed, lambda e: down.add(e.node))
        ring.bus.subscribe(ev.NodeRejoined, lambda e: down.discard(e.node))

    def begin(self, ring_id: int, spec: QuerySpec) -> None:
        """A query's first attempt is about to be dispatched on ``ring_id``."""
        self._pending[spec.query_id] = [ring_id, spec, 1]

    @property
    def failed_queries(self) -> int:
        return sum(1 for outcome in self.outcomes.values() if outcome != "ok")

    def settle(self, spec: QuerySpec, failed: Optional[str]) -> Optional[float]:
        """Record how an attempt ended.

        A failure with attempts left schedules the retry and returns its
        backoff; anything else makes the query terminal and returns None.
        """
        query_id = spec.query_id
        if failed is None:
            self.outcomes[query_id] = "ok"
            del self._pending[query_id]
            return None
        base = self.config.base
        entry = self._pending[query_id]
        attempt = entry[2]
        if base.resilience and attempt < base.retry_max_attempts:
            entry[2] = attempt + 1
            backoff = min(
                base.retry_backoff_cap,
                base.retry_backoff_initial * base.retry_backoff_base ** (attempt - 1),
            )
            self.sim.post(backoff, self._retry, query_id, failed)
            return backoff
        self.outcomes[query_id] = failed
        del self._pending[query_id]
        if base.resilience and self.bus.active:
            self.bus.publish(ev.QueryAbandoned(self.sim.now, query_id, attempt, failed))
        return None

    def _retry(self, query_id: int, error: str) -> None:
        entry = self._pending[query_id]
        ring_id, spec, attempt = entry
        ring = self._rings[ring_id]
        avoid = set(self._announced_down[ring_id])
        if ring.resilience is not None:
            avoid |= ring.resilience.known_down | ring.resilience.suspected_targets
        n = ring.config.n_nodes
        node = next(
            (c for c in ((spec.node + step) % n for step in range(n)) if c not in avoid),
            spec.node,
        )
        retry_spec = replace(spec, node=node, arrival=self.sim.now)
        entry[1] = retry_spec
        if self.bus.active:
            self.bus.publish(ev.QueryRetried(
                self.sim.now, query_id, attempt,
                ring_id * self.config.nodes_per_ring + node, error,
            ))
        self.redispatch(ring_id, retry_spec)
