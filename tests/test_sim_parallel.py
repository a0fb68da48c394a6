"""Unit tests for the conservative-lookahead kernel (docs/parallel.md).

The window protocol is exercised against minimal duck-typed partitions
so every guarantee is visible in isolation: strict window boundaries,
no-overtake past a peer's time grant, canonical delivery order, and the
grant/sync events.  The engine-level primitives the kernel rests on --
``run(inclusive=False)`` and the backdated scheduling lane -- are pinned
here too.
"""

import pytest

from repro.events.bus import Bus
from repro.events import types as ev
from repro.sim.engine import SimulationError, Simulator
from repro.sim.parallel import CrossPartitionMessage, ParallelKernel

LOOKAHEAD = 0.5


# ----------------------------------------------------------------------
# engine primitives
# ----------------------------------------------------------------------
class TestEngineWindowBoundary:
    def test_inclusive_default_fires_events_at_until(self):
        sim = Simulator()
        hits = []
        sim.post_at(1.0, hits.append, "edge")
        sim.run(until=1.0)
        assert hits == ["edge"]

    def test_strict_boundary_defers_events_at_until(self):
        sim = Simulator()
        hits = []
        sim.post_at(1.0, hits.append, "edge")
        sim.run(until=1.0, inclusive=False)
        assert hits == []
        assert sim.now == 1.0  # clock still advances to the edge
        # the deferred event fires in the next (inclusive) window
        sim.run(until=1.0)
        assert hits == ["edge"]

    def test_strict_boundary_fires_everything_below_until(self):
        sim = Simulator()
        hits = []
        sim.post_at(0.25, hits.append, "a")
        sim.post_at(0.999999, hits.append, "b")
        sim.post_at(1.0, hits.append, "edge")
        sim.run(until=1.0, inclusive=False)
        assert hits == ["a", "b"]


class TestBackdatedLane:
    def test_backdated_entries_order_by_scheduling_time(self):
        # Three same-instant entries: scheduled at origins 0.3 / 0.1 /
        # 0.2; dispatch order must follow origin, not push order.
        sim = Simulator()
        hits = []
        sim.post_backdated(1.0, 0.3, hits.append, "late")
        sim.post_backdated(1.0, 0.1, hits.append, "early")
        sim.schedule_backdated_at(1.0, 0.2, hits.append, "middle")
        sim.run()
        assert hits == ["early", "middle", "late"]

    def test_backdated_interleaves_with_normal_entries(self):
        sim = Simulator()
        hits = []

        def at_half():
            # now == 0.5: a normal push records sched=0.5
            sim.post_at(1.0, hits.append, "normal@0.5")

        sim.post(0.5, at_half)
        sim.post_backdated(1.0, 0.25, hits.append, "backdated@0.25")
        sim.post_backdated(1.0, 0.75, hits.append, "backdated@0.75")
        sim.run()
        assert hits == ["backdated@0.25", "normal@0.5", "backdated@0.75"]

    def test_dispatch_origin_reports_scheduling_time(self):
        sim = Simulator()
        seen = []

        def probe():
            seen.append(sim.dispatch_origin)

        sim.post_backdated(1.0, 0.125, probe)
        sim.post_at(1.0, probe)  # normal: origin == push-time == 0.0
        sim.run()
        assert seen == [0.0, 0.125]  # origin order == dispatch order

    def test_backdated_cannot_target_the_past(self):
        sim = Simulator()
        sim.post(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.post_backdated(0.5, 0.0, lambda: None)


# ----------------------------------------------------------------------
# kernel protocol, against minimal partitions
# ----------------------------------------------------------------------
class FakePartition:
    """A duck partition: emits scripted messages, logs every delivery.

    ``sends`` is a list of ``(emit_time, dst)``; each send emits one
    message stamped ``emit_time + LOOKAHEAD``, honouring the kernel's
    lookahead contract.  Deliveries are logged as
    ``(fire_time, deliver_at, src, seq)`` so tests can assert both the
    causal placement and the canonical order.
    """

    def __init__(self, index, sends=()):
        self.index = index
        self.sim = Simulator()
        self.bus = Bus()
        self.log = []
        self.completed = 0
        self._outbox = []
        self._sends = sorted(sends)
        self._emitted = 0
        for t, dst in self._sends:
            self.sim.post_at(t, self._emit, t, dst)

    def _emit(self, t, dst):
        self._emitted += 1
        self._outbox.append(CrossPartitionMessage(
            t + LOOKAHEAD, self.index, self._emitted, dst, f"msg@{t}", 0
        ))

    def local_event(self, t, label):
        self.sim.post_at(t, self.log.append, (t, label))

    # --- kernel duck interface ---
    def start(self):
        pass

    def finish(self):
        pass

    def end_of_timestep(self, lookahead):
        pending = self._sends[self._emitted:]
        return pending[0][0] + lookahead if pending else float("inf")

    def deliver(self, msg):
        self.sim.post_at(
            msg.deliver_at,
            lambda m=msg: self.log.append((self.sim.now, m.deliver_at, m.src, m.seq)),
        )

    def collect_outbox(self):
        out = self._outbox
        self._outbox = []
        return out

    def summary(self):
        return {"log": list(self.log)}

    def digest_hex(self):
        return None


class BulkPartition(FakePartition):
    """A fake partition whose messages carry a 2 KB payload each."""

    def _emit(self, t, dst):
        super()._emit(t, dst)
        self._outbox[-1].payload = f"{self._emitted}:" + "x" * 2048


def _run_kernel(parts, workers, stops):
    """Run ``parts`` through ``stops``; returns the delivery logs, the
    kernel's round and message counts, and the synced windows."""
    bus = Bus()
    synced = []
    bus.subscribe(ev.PartitionSynced, synced.append)
    kernel = ParallelKernel(parts, lookahead=LOOKAHEAD, workers=workers, bus=bus)
    for until in stops:
        kernel.run(until)
    results = kernel.finish()
    logs = [results[i][0]["log"] for i in sorted(results)]
    windows = [(s.window, s.messages) for s in synced]
    return logs, kernel.rounds, kernel.messages_exchanged, windows


class TestKernelProtocol:
    def test_validation(self):
        with pytest.raises(ValueError):
            ParallelKernel([], lookahead=1.0)
        with pytest.raises(ValueError):
            ParallelKernel([FakePartition(0)], lookahead=0.0)
        kernel = ParallelKernel([FakePartition(0)], lookahead=1.0)
        kernel.run(5.0)
        with pytest.raises(ValueError):
            kernel.run(1.0)  # backwards

    def test_idle_partitions_take_one_window(self):
        parts = [FakePartition(0), FakePartition(1)]
        kernel = ParallelKernel(parts, lookahead=LOOKAHEAD)
        kernel.run(10.0)
        assert kernel.rounds == 1  # both grant infinity: single window
        assert all(p.sim.now == 10.0 for p in parts)

    def test_no_overtake_past_a_peer_grant(self):
        # A emits at t=1.0 toward B (delivery 1.5).  B is otherwise
        # idle; without the grant protocol B's clock would reach 10.0
        # before the exchange and the delivery could not be scheduled.
        sender = FakePartition(0, sends=[(1.0, 1)])
        receiver = FakePartition(1)
        kernel = ParallelKernel([sender, receiver], lookahead=LOOKAHEAD)
        kernel.run(10.0)  # raises SimulationError if causality broke
        assert receiver.log == [(1.5, 1.5, 0, 1)]  # fired exactly at deliver_at
        assert kernel.messages_exchanged == 1

    def test_strict_window_defers_edge_events_until_delivery(self):
        # B has a local event at exactly the first window edge (1.5);
        # A's message is also stamped 1.5.  The strict boundary defers
        # B's local event past the exchange, so both fire in one heap in
        # scheduling order -- local first (pushed at build time).
        sender = FakePartition(0, sends=[(1.0, 1)])
        receiver = FakePartition(1)
        receiver.local_event(1.5, "edge-local")
        kernel = ParallelKernel([sender, receiver], lookahead=LOOKAHEAD)
        kernel.run(10.0)
        assert receiver.log == [(1.5, "edge-local"), (1.5, 1.5, 0, 1)]

    def test_deliveries_follow_canonical_order(self):
        # Two senders emit same-instant messages to one receiver; the
        # (deliver_at, src, seq) order decides scheduling order.
        a = FakePartition(0, sends=[(1.0, 2), (1.0, 2)])
        b = FakePartition(1, sends=[(1.0, 2)])
        sink = FakePartition(2)
        kernel = ParallelKernel([a, b, sink], lookahead=LOOKAHEAD)
        kernel.run(5.0)
        assert sink.log == [(1.5, 1.5, 0, 1), (1.5, 1.5, 0, 2), (1.5, 1.5, 1, 1)]

    def test_sequential_and_pool_runs_are_identical(self):
        def build():
            a = FakePartition(0, sends=[(0.2, 1), (1.7, 2)])
            b = FakePartition(1, sends=[(0.9, 0), (0.9, 2)])
            c = FakePartition(2, sends=[(2.4, 0)])
            return [a, b, c]

        runs = {workers: _run_kernel(build(), workers, (2.0, 5.0))
                for workers in (1, 2, 3)}
        assert runs[1] == runs[2] == runs[3]
        logs, rounds, messages, windows = runs[1]
        assert messages == 5 and rounds == len(windows)

    def test_uneven_slices_match_the_inline_run(self):
        # 5 partitions on 3 workers: slices of 2, 2 and 1
        def build():
            return [
                FakePartition(i, sends=[(0.3 * (i + 1), (i + 1) % 5),
                                        (1.1 + 0.2 * i, (i + 3) % 5)])
                for i in range(5)
            ]

        inline = _run_kernel(build(), 1, (1.0, 4.0))
        assert inline[2] == 10
        assert _run_kernel(build(), 3, (1.0, 4.0)) == inline

    def test_a_window_that_moves_many_messages_does_not_block_the_pool(self):
        # each worker sends its peers far more than a socket buffer holds
        # in one window
        def build():
            return [BulkPartition(i, [(1.0, (i + 1) % 4)] * 150) for i in range(4)]

        inline = _run_kernel(build(), 1, (3.0,))
        assert inline[2] == 600
        assert _run_kernel(build(), 2, (3.0,)) == inline
        assert _run_kernel(build(), 3, (3.0,)) == inline

    def test_next_edge_is_clamped_after_a_window_with_messages(self):
        # The sender's only emission is at 1.0, so every partition grants
        # infinity after the first window; the message that crossed in it
        # still clamps the next edge to edge + lookahead.
        for workers in (1, 2):
            parts = [FakePartition(0, sends=[(1.0, 1)]), FakePartition(1)]
            _logs, rounds, messages, windows = _run_kernel(parts, workers, (10.0,))
            assert windows == [(1.5, 0), (1.5 + LOOKAHEAD, 1), (10.0, 0)]
            assert (rounds, messages) == (3, 1)

    def test_partition_synced_published_per_round(self):
        bus = Bus()
        synced = []
        bus.subscribe(ev.PartitionSynced, synced.append)
        parts = [FakePartition(0, sends=[(1.0, 1)]), FakePartition(1)]
        kernel = ParallelKernel(parts, lookahead=LOOKAHEAD, bus=bus)
        kernel.run(4.0)
        assert len(synced) == kernel.rounds
        windows = [s.window for s in synced]
        assert windows == sorted(windows)
        assert windows[-1] == 4.0
        assert all(s.partitions == 2 for s in synced)
        assert sum(s.messages for s in synced) == kernel.messages_exchanged

    def test_finish_is_idempotent_and_blocks_further_runs(self):
        parts = [FakePartition(0)]
        kernel = ParallelKernel(parts, lookahead=LOOKAHEAD)
        kernel.run(1.0)
        first = kernel.finish()
        assert kernel.finish() is first
        with pytest.raises(RuntimeError):
            kernel.run(2.0)


class TestRingPartitionGrants:
    """The real partition's time grants, observed through a tiny run."""

    def _build(self):
        from repro.core.config import DataCyclotronConfig
        from repro.core.query import QuerySpec
        from repro.multiring import MultiRingConfig, PartitionedFederation

        cfg = MultiRingConfig(
            base=DataCyclotronConfig(seed=11), n_rings=2, nodes_per_ring=3
        )
        fed = PartitionedFederation(cfg, workers=1)
        for bat_id in range(4):
            fed.add_bat(bat_id, size=1 << 20)
        # one ring-local query, one cross-ring query (bat 1 lives on ring 1)
        fed.submit(QuerySpec.simple(
            0, node=0, arrival=0.05, bat_ids=[0], processing_times=[0.001]
        ))
        fed.submit(QuerySpec.simple(
            1, node=1, arrival=0.10, bat_ids=[1], processing_times=[0.001]
        ))
        return fed

    def test_grant_labels_and_lower_bounds(self):
        fed = self._build()
        grants = []
        for part in fed.partitions:
            part.bus.subscribe(ev.TimeGrantIssued, grants.append)
        assert fed.run_until_done(max_time=20.0)
        assert grants, "no time grants were issued"
        lookahead = fed.kernel.lookahead
        labels = {g.bound for g in grants}
        assert labels <= {"idle", "inflight", "query", "inbound"}
        assert "idle" in labels and "query" in labels
        for g in grants:
            assert g.eot == float("inf") or g.eot >= g.t + lookahead

    def test_one_grant_per_partition_per_window(self):
        # the first window's grant at t=0, then one after each window's run
        fed = self._build()
        grant_times = {part.ring_id: [] for part in fed.partitions}
        for part in fed.partitions:
            part.bus.subscribe(
                ev.TimeGrantIssued, lambda g: grant_times[g.partition].append(g.t)
            )
        synced = []
        fed.bus.subscribe(ev.PartitionSynced, synced.append)
        assert fed.run_until_done(max_time=20.0)
        edges = [0.0] + [s.window for s in synced]
        assert len(edges) == fed.kernel.rounds + 1
        assert all(times == edges for times in grant_times.values())

    def test_cross_ring_fetch_served(self):
        fed = self._build()
        assert fed.run_until_done(max_time=20.0)
        summary = fed.summary()
        assert summary["completed"] == 2
        assert summary["failed"] == 0
        assert summary["fetches_served"] == 1
        assert summary["kernel_messages"] >= 2  # request + reply


class TestDeadWorker:
    """A pool worker killed mid-run fails the run loudly, never hangs."""

    WORKERS = 3

    def _build(self):
        import random

        from repro.core.config import DataCyclotronConfig
        from repro.core.query import QuerySpec
        from repro.multiring import MultiRingConfig, PartitionedFederation

        cfg = MultiRingConfig(
            base=DataCyclotronConfig(n_nodes=4, seed=5, fast_forward=True),
            n_rings=8, nodes_per_ring=4, splitmerge_interval=0.0,
            inter_ring_delay=0.002,
        )
        fed = PartitionedFederation(cfg, workers=self.WORKERS)
        for bat_id in range(16):
            fed.add_bat(bat_id, size=1 << 20)
        rng = random.Random(5)
        specs = []
        for qid in range(2000):
            node = rng.randrange(fed.total_nodes)
            bats = [rng.randrange(16), rng.randrange(16)]
            specs.append(QuerySpec.simple(
                qid, node, arrival=qid * 0.05, bat_ids=bats,
                processing_times=[0.002, 0.002],
            ))
        fed.submit_all(specs)
        return fed

    @pytest.mark.parametrize("victim", range(WORKERS))
    def test_killed_worker_fails_the_run_and_close_reaps_the_pool(self, victim):
        import os
        import signal
        import threading
        import time

        fed = self._build()
        fed.run(0.1)  # fork the pool before the timer threads exist
        procs = [proc for proc, _conn in fed.kernel._pool]

        def kill_all():  # a hung run fails the test instead of hanging it
            for proc in procs:
                if proc.is_alive():
                    os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(0.5, os.kill, (procs[victim].pid, signal.SIGKILL))
        watchdog = threading.Timer(10.0, kill_all)
        timer.start()
        watchdog.start()
        started = time.monotonic()
        try:
            with pytest.raises(RuntimeError, match="pool worker"):
                fed.run(100.0)  # runs for seconds unless a worker dies
            assert time.monotonic() - started < 10.0
        finally:
            timer.cancel()
            watchdog.cancel()
            fed.close()
        assert len(procs) == self.WORKERS
        assert not any(proc.is_alive() for proc in procs)
        # the survivors noticed the dead peer and left on their own; none
        # was still blocked on it when close() ran out of patience
        assert [proc.exitcode for proc in procs] == [
            -signal.SIGKILL if w == victim else 0 for w in range(self.WORKERS)
        ]
