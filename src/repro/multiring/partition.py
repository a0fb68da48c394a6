"""Per-ring partitions for the parallel kernel (docs/parallel.md).

A :class:`RingPartition` is one classic :class:`~repro.core.ring.
DataCyclotron` on its **own** simulator clock, plus the minimum
federation surface the partitioned kernel supports: the gateway
fetch/serve protocol of :mod:`repro.multiring.router`, re-expressed as
timestamped cross-partition messages.  Queries run the classic
:func:`~repro.core.query.query_process` and retry through the shared
:class:`~repro.multiring.retry.RetryLadder`.

Scope (docs/parallel.md): the partitioned kernel covers **static data
placement with cross-ring fetches** -- the workload the federation
benchmarks measure.  The placement manager, split/merge controller and
nomadic query shipping all move state *between* rings mid-run; they stay
exclusive to the shared-clock :class:`~repro.multiring.federation.
RingFederation`.

The cross-ring link is split at the propagation boundary: queueing and
serialisation of the outbound gateway link are simulated inside the
sending partition (a zero-delay :class:`~repro.net.channel.Channel`
whose receiver is the outbox), while the propagation delay is *never*
simulated -- it is added to the message timestamp.  That split is what
gives the kernel its lookahead: a message emitted at time ``s`` arrives
at ``s + link_delay``, so a partition that has not yet emitted anything
by the window edge provably cannot deliver below ``edge + link_delay``.
"""

from __future__ import annotations

import hashlib
import heapq
from typing import Any, Dict, List, Optional

from repro.core.query import QuerySpec, query_process
from repro.core.ring import DataCyclotron
from repro.core.runtime import DATA_UNAVAILABLE, NodeRuntime, PinResult
from repro.events import types as ev
from repro.multiring.config import MultiRingConfig
from repro.multiring.messages import FetchReply, FetchRequest
from repro.multiring.retry import RetryLadder
from repro.multiring.router import (
    SERVICE_ID_BASE,
    _Fetch,
    reply_wire_size,
    serve_fetch,
)
from repro.net.channel import Channel
from repro.sim.parallel import CrossPartitionMessage
from repro.sim.process import Future, Process

__all__ = [
    "PartitionRouter",
    "RingPartition",
    "StreamDigest",
    "attach_stream_digest",
]

INFINITY = float("inf")


# ----------------------------------------------------------------------
# event-stream digests (the equivalence suite's currency)
# ----------------------------------------------------------------------
class StreamDigest:
    """sha256 over the ``repr`` of every recorded event, in publish order.

    The same repr-hash contract as tests/qpu_harness.py: two runs are
    *equivalent* when their typed event streams hash identically.
    """

    __slots__ = ("_sha", "count")

    def __init__(self) -> None:
        self._sha = hashlib.sha256()
        self.count = 0

    def record(self, event: Any) -> None:
        self._sha.update(repr(event).encode())
        self._sha.update(b"\n")
        self.count += 1

    def hexdigest(self) -> str:
        return self._sha.hexdigest()


# Kernel bookkeeping events are excluded so a partitioned ring-local run
# hashes identically to a classic DataCyclotron run; SimEventFired is
# excluded because subscribing to it changes engine behaviour.
_DIGEST_SKIP = frozenset({"SimEventFired", "TimeGrantIssued", "PartitionSynced"})


def attach_stream_digest(bus) -> StreamDigest:
    """Subscribe a :class:`StreamDigest` to every protocol event type."""
    digest = StreamDigest()
    types = [
        obj
        for name in ev.__all__
        if name not in _DIGEST_SKIP and isinstance(obj := getattr(ev, name), type)
    ]
    bus.subscribe_many(types, digest.record)
    return digest


# ----------------------------------------------------------------------
# the per-partition fetch/serve protocol
# ----------------------------------------------------------------------
class PartitionRouter:
    """One partition's half of the cross-ring fetch/serve protocol.

    The requester side mirrors :class:`~repro.multiring.router.
    CrossRingRouter` -- absorption of concurrent fetches for the same
    BAT, the resend-timer discipline, ``DATA_UNAVAILABLE`` after the
    resend budget -- minus everything that assumes a shared clock or a
    mutable catalog.  The serving side runs the shared serve body
    (:func:`~repro.multiring.router.serve_fetch`) inside the home ring,
    on a round-robin gateway.
    """

    def __init__(self, part: "RingPartition"):
        self.part = part
        self.sim = part.sim
        self.bus = part.bus
        self.config = part.config
        # bat_id -> in-flight fetch (requester ring is fixed: this one)
        self._fetches: Dict[int, _Fetch] = {}
        self._by_req: Dict[int, _Fetch] = {}
        self._req_seq = 0
        self._service_seq = SERVICE_ID_BASE
        self._rr = 0
        self.fetches_dispatched = 0
        self.fetches_served = 0
        self.fetches_failed = 0
        self.fetch_latencies: List[float] = []

    # -- requester side ------------------------------------------------
    def fetch(self, bat_id: int) -> Future:
        """A pin-shaped future for a BAT homed on another partition."""
        fut = Future(self.sim)
        fetch = self._fetches.get(bat_id)
        if fetch is not None:
            # absorption, one level up: concurrent queries on this ring
            # share one in-flight cross-ring fetch (section 4.2.2)
            fetch.waiters.append(fut)
            return fut
        self._req_seq += 1
        fetch = _Fetch(
            self._req_seq, bat_id, self.part.ring_id,
            self.part.home[bat_id], self.sim.now,
        )
        fetch.waiters.append(fut)
        self._fetches[bat_id] = fetch
        self._by_req[fetch.req_id] = fetch
        self.fetches_dispatched += 1
        self._send_fetch(fetch, resend=False)
        return fut

    def _send_fetch(self, fetch: _Fetch, resend: bool) -> None:
        home = fetch.home_ring
        if self.bus.active:
            self.bus.publish(ev.CrossRingRequest(
                self.sim.now, fetch.bat_id, fetch.requester_ring, home, resend
            ))
        self.part.send_cross(
            home,
            FetchRequest(fetch.req_id, fetch.bat_id, fetch.requester_ring, home),
            self.config.base.request_message_size,
        )
        fetch.timer = self.sim.schedule(
            self.part.fetch_timeout, self._fetch_timeout, fetch.req_id, fetch.resends
        )

    def _fetch_timeout(self, req_id: int, resends_at_arm: int) -> None:
        fetch = self._by_req.get(req_id)
        if fetch is None or fetch.resends != resends_at_arm:
            return
        fetch.resends += 1
        if fetch.resends > self.config.fetch_max_resends:
            self._resolve(fetch, PinResult(
                ok=False, bat_id=fetch.bat_id, error=DATA_UNAVAILABLE
            ))
            return
        self._send_fetch(fetch, resend=True)

    def _resolve(self, fetch: _Fetch, result: PinResult) -> None:
        self._fetches.pop(fetch.bat_id, None)
        self._by_req.pop(fetch.req_id, None)
        if fetch.timer is not None:
            fetch.timer.cancel()
            fetch.timer = None
        if result.ok:
            latency = self.sim.now - fetch.started
            self.fetches_served += 1
            self.fetch_latencies.append(latency)
            if self.bus.active:
                self.bus.publish(ev.CrossRingTransfer(
                    self.sim.now, fetch.bat_id, fetch.home_ring,
                    fetch.requester_ring, self.part.sizes.get(fetch.bat_id, 0),
                    latency,
                ))
        else:
            self.fetches_failed += 1
        for fut in fetch.waiters:
            fut.resolve(result)

    def on_reply(self, reply: FetchReply) -> None:
        fetch = self._by_req.get(reply.req_id)
        if fetch is None:
            return  # late duplicate after resolution
        self._resolve(fetch, PinResult(
            ok=reply.ok, bat_id=reply.bat_id, payload=reply.payload,
            version=reply.version, error=reply.error or None,
        ))

    # -- serving side --------------------------------------------------
    def serve(self, req: FetchRequest) -> None:
        """Answer a fetch by running the request/pin protocol locally."""
        part = self.part
        gateways = part.gateways
        gateway = gateways[self._rr % len(gateways)]
        self._rr = (self._rr + 1) % len(gateways)
        runtime = part.dc.nodes[gateway]
        self._service_seq -= 1
        service_id = self._service_seq
        part._xserves += 1

        def serve_proc():
            if not runtime.crashed:  # a dead gateway answers nobody
                reply = yield from serve_fetch(
                    runtime, service_id, req, part.sizes.get(req.bat_id, 0)
                )
                if reply.ok or not runtime.crashed:
                    part.send_cross(
                        req.from_ring, reply, reply_wire_size(reply, self.config.base)
                    )
            part._xserves -= 1

        Process(self.sim, serve_proc())

    def stats(self) -> dict:
        latencies = self.fetch_latencies
        mean = sum(latencies) / len(latencies) if latencies else 0.0
        return {
            "fetches_dispatched": self.fetches_dispatched,
            "fetches_served": self.fetches_served,
            "fetches_failed": self.fetches_failed,
            "fetch_mean_latency": round(mean, 6),
            "fetch_max_latency": round(max(latencies), 6) if latencies else 0.0,
        }


class _OutboundLink:
    """The in-partition half of one directed inter-ring link."""

    __slots__ = ("channel", "inflight")

    def __init__(self, channel: Channel):
        self.channel = channel
        self.inflight = 0


# ----------------------------------------------------------------------
# the partition itself
# ----------------------------------------------------------------------
class RingPartition:
    """One ring of a federation, on its own clock, kernel-schedulable.

    Implements the duck interface of :class:`~repro.sim.parallel.
    ParallelKernel`: ``start``/``finish``, ``end_of_timestep``,
    ``deliver``/``collect_outbox``, ``completed``/``summary``/
    ``digest_hex``.
    """

    def __init__(
        self,
        ring_id: int,
        config: MultiRingConfig,
        home: Dict[int, int],
        sizes: Dict[int, int],
        collect_digest: bool = False,
    ):
        self.ring_id = ring_id
        self.config = config
        self.home = home      # bat_id -> home ring, frozen at build
        self.sizes = sizes    # bat_id -> size in bytes
        self.dc = DataCyclotron(config=config.ring_config(ring_id))
        self.sim = self.dc.sim
        self.bus = self.dc.bus
        self.digest: Optional[StreamDigest] = (
            attach_stream_digest(self.bus) if collect_digest else None
        )
        count = min(config.gateways_per_ring, config.nodes_per_ring)
        self.gateways = list(range(max(1, count)))
        self.fetch_timeout = 1.0  # overwritten by the federation at start
        self.router = PartitionRouter(self)
        self._out: Dict[int, _OutboundLink] = {}
        self._outbox: List[CrossPartitionMessage] = []
        self._emit_seq = 0
        # --- the EOT bound's inputs (docs/parallel.md) ---
        # arrival times of dispatched-but-not-started remote-touching
        # queries; popped (smallest first == start order) at start
        self._xarrivals: List[float] = []
        self._xactive = 0   # remote-touching queries currently running
        self._xserves = 0   # serves between request arrival and reply send
        self._xinbound = 0  # delivered cross messages not yet fired
        self.retries = RetryLadder(
            self.sim, self.bus, config, lambda _ring_id, spec: self._dispatch(spec)
        )
        self.retries.watch(ring_id, self.dc)
        self._submitted = 0
        self._started = False

    # ------------------------------------------------------------------
    # build-time API
    # ------------------------------------------------------------------
    def add_bat(
        self, bat_id: int, size: int, payload: Any = None, tag: Optional[str] = None
    ) -> int:
        """Register a locally-homed BAT; returns the local owner node."""
        owner = self.dc.add_bat(bat_id, size, payload=payload, tag=tag)
        self.home[bat_id] = self.ring_id
        self.sizes[bat_id] = size
        return owner

    def submit(self, spec: QuerySpec) -> Process:
        """Submit one query addressed to a *local* node index."""
        self._submitted += 1
        self.retries.begin(self.ring_id, spec)
        if self._is_remote(spec):
            heapq.heappush(self._xarrivals, spec.arrival)
        return self._dispatch(spec)

    def _is_local(self, bat_id: int) -> bool:
        return self.home.get(bat_id, self.ring_id) == self.ring_id

    def _is_remote(self, spec: QuerySpec) -> bool:
        return not all(self._is_local(b) for b in spec.bat_ids)

    def _dispatch(self, spec: QuerySpec) -> Process:
        runtime = self.dc.nodes[spec.node]
        self.dc._submitted += 1
        delay = max(0.0, spec.arrival - self.sim.now)
        return Process(
            self.sim,
            self._query(runtime, spec, self._is_remote(spec)),
            start_delay=delay,
        )

    def _query(self, runtime: NodeRuntime, spec: QuerySpec, remote: bool):
        """One attempt of a query, with the EOT bound's bookkeeping.

        The catalog is frozen at build time (no migration), so an
        all-local spec emits a stream bit-identical to the classic ring.
        """
        if remote:
            # starts happen in time order, so the started query always
            # owns the smallest queued arrival (ties carry equal values)
            heapq.heappop(self._xarrivals)
            self._xactive += 1
        failed = yield from query_process(
            runtime, spec, is_local=self._is_local, fetch=self.router.fetch
        )
        if remote:
            self._xactive -= 1
        backoff = self.retries.settle(spec, failed)
        if remote and backoff is not None:
            # the retry will touch remote data again: keep the EOT bound
            # honest across the backoff gap
            heapq.heappush(self._xarrivals, self.sim.now + backoff)
        return failed

    # ------------------------------------------------------------------
    # cross-partition plumbing
    # ------------------------------------------------------------------
    def send_cross(self, dst_ring: int, payload: Any, size: int) -> None:
        """Queue a message on the outbound gateway link to ``dst_ring``.

        Queueing and serialisation are simulated here; the propagation
        delay is added to the timestamp at emission (:meth:`_emit`).
        """
        out = self._out.get(dst_ring)
        if out is None:
            channel = Channel(
                self.sim,
                bandwidth=self.config.link_bandwidth(),
                delay=0.0,
                queue_capacity=None,
                name=f"xpart-{self.ring_id}->{dst_ring}",
                bus=self.bus,
            )
            channel.set_receiver(
                lambda msg, sz, _dst=dst_ring: self._emit(_dst, msg, sz)
            )
            out = self._out[dst_ring] = _OutboundLink(channel)
        out.inflight += 1
        out.channel.send(payload, size)

    def _emit(self, dst_ring: int, payload: Any, size: int) -> None:
        self._out[dst_ring].inflight -= 1
        self._emit_seq += 1
        self._outbox.append(CrossPartitionMessage(
            self.sim.now + self.config.link_delay(),
            self.ring_id, self._emit_seq, dst_ring, payload, size,
        ))

    def collect_outbox(self) -> List[CrossPartitionMessage]:
        out = self._outbox
        self._outbox = []
        return out

    def deliver(self, msg: CrossPartitionMessage) -> None:
        """Schedule one inbound cross-partition message (kernel-called)."""
        self._xinbound += 1
        self.sim.post_at(msg.deliver_at, self._on_cross, msg.payload)

    def _on_cross(self, payload: Any) -> None:
        self._xinbound -= 1
        if isinstance(payload, FetchRequest):
            self.router.serve(payload)
        else:
            self.router.on_reply(payload)

    # ------------------------------------------------------------------
    # the conservative bound
    # ------------------------------------------------------------------
    def end_of_timestep(self, lookahead: float) -> float:
        """Earliest instant a peer could still receive a message from us.

        The bound walks the partition's cross-ring activity sources from
        most to least imminent; each also names the
        :class:`~repro.events.types.TimeGrantIssued` bound label:

        * ``inbound`` -- a delivered request/reply has not fired yet; it
          may trigger a serve (and a reply emission) any moment,
        * ``inflight`` -- a serve is running, or the outbound link still
          holds unemitted messages,
        * ``query`` -- a remote-touching query is running (it may fetch
          at any moment), or one is dispatched for a future arrival,
        * ``idle`` -- no cross-ring work exists or is scheduled: the
          partition grants unbounded time.
        """
        now = self.sim.now
        if self._xinbound:
            bound, base = "inbound", now
        elif self._xserves or any(o.inflight for o in self._out.values()):
            bound, base = "inflight", now
        elif self._xactive:
            bound, base = "query", now
        elif self._xarrivals:
            bound, base = "query", self._xarrivals[0]
        else:
            bound, base = "idle", INFINITY
        eot = base + lookahead if base != INFINITY else INFINITY
        if self.bus.wants(ev.TimeGrantIssued):
            self.bus.publish(ev.TimeGrantIssued(now, self.ring_id, eot, bound))
        return eot

    # ------------------------------------------------------------------
    # lifecycle / reporting (the kernel's duck interface)
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self.dc._start_ticks()

    def finish(self) -> None:
        self.dc.ff.flush_all()

    @property
    def completed(self) -> int:
        return len(self.retries.outcomes)

    @property
    def submitted(self) -> int:
        return self._submitted

    def summary(self) -> dict:
        out = {
            "ring": self.ring_id,
            "nodes": self.dc.config.n_nodes,
            "submitted": self._submitted,
            "completed": len(self.retries.outcomes),
            "failed": self.retries.failed_queries,
            "queries_finished": sum(n.queries_finished for n in self.dc.nodes),
            "events_processed": self.sim.processed,
            "events_dispatched": self.sim.dispatched,
        }
        out.update(self.router.stats())
        return out

    def digest_hex(self) -> Optional[str]:
        return self.digest.hexdigest() if self.digest is not None else None
