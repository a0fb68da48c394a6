"""Conservative-lookahead parallel simulation kernel (docs/parallel.md).

The classic deployment runs every ring on one :class:`~repro.sim.engine.
Simulator`.  This module shards a federation into **partitions** -- one
ring, one simulator each -- and advances them in lockstep *windows*
bounded by a conservative lookahead: no partition may execute past the
earliest instant at which any peer could still send it a message.

The protocol is the classic null-message scheme (Chandy/Misra/Bryant)
specialised to the Data Cyclotron topology, where the only inter-ring
traffic is the gateway fetch/serve exchange.  One loop runs every
window:

1. **Deliver** -- cross-partition messages emitted in the previous
   window are handed to their destination partitions, in the canonical
   ``(deliver_at, source, seq)`` order; each is scheduled at its
   (pre-stamped) delivery time.
2. **Run** -- every partition executes the events strictly below the
   window edge ``W`` (``Simulator.run(until=W, inclusive=False)``).
   Events *at* the edge are deferred until edge-stamped messages have
   been delivered, which is what makes the merged trace independent of
   worker scheduling.
3. **Grant** -- every partition collects its outbox and reports its
   *earliest output time* (EOT): a lower bound on the delivery time of
   anything it could still emit (emission time plus the link
   lookahead, the inter-ring propagation delay, which is never
   simulated inside a partition).  Each grant is published as a
   :class:`~repro.events.types.TimeGrantIssued` event.
4. **Exchange** -- the window's messages, message count and minimum EOT
   are swapped between the processes running the partitions (a no-op
   when one process runs them all).  The next edge is the minimum EOT,
   clamped to ``W + lookahead`` when any message crossed: a delivered
   message fires at or after ``W`` and so cannot cause a delivery below
   ``W + lookahead``.

Because every step is deterministic -- the window schedule depends only
on partition states, and deliveries are canonically ordered -- the event
stream of every partition is **bit-identical** whether the kernel runs
inline (``workers=1``) or on a process pool (``workers=N``).
tests/test_parallel_equivalence.py pins this with repr-hash digests.

The process pool uses the ``fork`` start method: partitions are built
(and workloads submitted) in the parent, then inherited by the workers.
Each worker runs the same window loop over its own slice of partitions
and swaps messages directly with every peer over a pairwise pipe; the
parent sends one command per :meth:`ParallelKernel.run` call and waits.
"""

from __future__ import annotations

import pickle
import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.events.types import PartitionSynced

__all__ = ["CrossPartitionMessage", "ParallelKernel"]

INFINITY = float("inf")

# A worker sends each peer one message per window before it receives, and
# a peer reads it within the next window, so at most two such messages sit
# in a socket buffer at once.  Larger messages go out from a thread, so a
# window that moves many messages cannot block two senders on each other.
_INLINE_SEND = 1 << 14  # bytes


class CrossPartitionMessage:
    """The envelope of one timestamped inter-partition message.

    ``deliver_at`` is stamped by the *sender* as emission time plus the
    link propagation delay; the kernel guarantees it is never below the
    window edge at which the message is exchanged, so the destination
    can always still schedule it.  ``(deliver_at, src, seq)`` is the
    canonical total order every delivery follows, in both kernel modes.
    """

    __slots__ = ("deliver_at", "src", "seq", "dst", "payload", "size")

    def __init__(
        self,
        deliver_at: float,
        src: int,
        seq: int,
        dst: int,
        payload: Any,
        size: int,
    ):
        self.deliver_at = deliver_at
        self.src = src
        self.seq = seq
        self.dst = dst
        self.payload = payload
        self.size = size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CrossPartitionMessage(t={self.deliver_at:.6f}, "
            f"{self.src}->{self.dst}, #{self.seq}, {self.payload!r})"
        )


def _msg_key(msg: CrossPartitionMessage) -> Tuple[float, int, int]:
    return (msg.deliver_at, msg.src, msg.seq)


def _worker_main(conn, indices, partitions, lookahead) -> None:
    """One pool worker: runs the window loop over a fixed slice for life.

    Commands from the parent (tuples, first element the opcode), each
    answered with exactly one send:

    * ``("run", until)`` -- run windows up to ``until``, swapping
      messages with the peers once per window; reply ``(completed,
      windows)``, the slice's finished queries and the ``(edge,
      delivered)`` list of the windows run.
    * ``("finish",)`` -- flush fast-forward state, reply ``{index:
      (summary, digest)}``.
    * ``("stop",)`` -- exit.

    A lost peer or parent ends the worker quietly; the parent notices
    through the worker's sentinel.  The peer pipes ride on the process
    object (``links``: this worker's ``(conn, peer slice)`` pairs and the
    pipe ends it must close), so the entry point keeps its signature.
    """
    import multiprocessing as mp

    peers, foreign = mp.current_process().links
    for end in foreign:
        end.close()
    kernel = ParallelKernel(partitions, lookahead)
    kernel._started = True  # the parent started the partitions before the fork
    kernel._own(indices, peers)
    try:
        while True:
            cmd = conn.recv()
            op = cmd[0]
            if op == "run":
                kernel.run(cmd[1])
                done = sum(p.completed for p in kernel._owned)
                conn.send((done, kernel._windows))
            elif op == "finish":
                result = {}
                for i in indices:
                    partitions[i].finish()
                    result[i] = (partitions[i].summary(), partitions[i].digest_hex())
                conn.send(result)
            elif op == "stop":
                return
    except (EOFError, OSError):
        return
    finally:
        conn.close()
        for peer_conn, _slice in peers:
            peer_conn.close()


class ParallelKernel:
    """Advance N partition simulators through lookahead windows.

    Partitions are duck-typed; the kernel needs:

    * ``sim`` -- the partition's :class:`~repro.sim.engine.Simulator`,
    * ``start()`` / ``finish()`` -- lifecycle hooks,
    * ``end_of_timestep(lookahead) -> float`` -- the EOT bound,
    * ``deliver(msg)`` / ``collect_outbox()`` -- message plumbing,
    * ``completed`` / ``summary()`` / ``digest_hex()`` -- reporting.

    Message ``dst`` fields index into the ``partitions`` sequence.
    ``workers=1`` runs the window loop inline -- the reference mode
    every pool run is bit-compared against.  Queries must be submitted
    before the first :meth:`run`: the next window edge is computed at
    the end of the previous window.
    """

    def __init__(
        self,
        partitions: Sequence[Any],
        lookahead: float,
        workers: int = 1,
        bus: Optional[Any] = None,
    ):
        if not partitions:
            raise ValueError("ParallelKernel needs at least one partition")
        if not lookahead > 0:
            raise ValueError("lookahead must be positive (got %r)" % lookahead)
        self.partitions = list(partitions)
        self.lookahead = lookahead
        self.workers = max(1, min(int(workers), len(self.partitions)))
        self.bus = bus
        self.now = 0.0
        self.rounds = 0
        self.messages_exchanged = 0
        # --- the window loop's state (this process's slice) ---
        self._owned: List[Any] = self.partitions
        self._peers: List[Any] = []       # one connection per peer worker
        self._route: Dict[int, int] = {}  # dst index -> slot in _peers
        self._inbox: List[CrossPartitionMessage] = []
        self._crossed = 0     # messages emitted anywhere in the last window
        self._edge: Optional[float] = None  # the next window's edge
        self._windows: List[Tuple[float, int]] = []  # (edge, delivered)
        # --- the pool, as seen from the parent ---
        self._pool: Optional[List[tuple]] = None  # (proc, conn)
        self._pool_completed = 0
        self._started = False
        self._results: Optional[Dict[int, tuple]] = None

    def _own(self, indices: Sequence[int], peers: List[tuple]) -> None:
        """Restrict the window loop to a slice; ``peers`` are ``(conn,
        the peer's partition indices)``."""
        self._owned = [self.partitions[i] for i in indices]
        self._peers = [conn for conn, _slice in peers]
        self._route = {i: slot for slot, (_c, part) in enumerate(peers) for i in part}

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, until: float) -> None:
        """Advance every partition to simulated time ``until``."""
        if self._results is not None:
            raise RuntimeError("kernel already finished")
        if until < self.now:
            raise ValueError(f"cannot run backwards to {until} (now {self.now})")
        if not self._started:
            self._started = True
            for part in self.partitions:
                part.start()
        if self.workers == 1:
            self._windows = self._advance(until)
        else:
            self._windows = self._run_pool(until)
        bus = self.bus
        publish = bus is not None and bus.active
        n = len(self.partitions)
        for edge, delivered in self._windows:
            self.rounds += 1
            self.messages_exchanged += delivered
            if publish:
                bus.publish(PartitionSynced(edge, edge, n, delivered))
        self.now = until

    def _advance(self, until: float) -> List[Tuple[float, int]]:
        """The window loop over the owned partitions, up to ``until``;
        returns each window's ``(edge, messages delivered)``."""
        parts = self.partitions
        owned = self._owned
        lookahead = self.lookahead
        if self._edge is None:  # the first window's grants
            eot = min(p.end_of_timestep(lookahead) for p in owned)
            self._inbox, self._crossed, self._edge = self._swap([], eot)
        windows: List[Tuple[float, int]] = []
        while True:
            horizon = self._edge
            edge = min(horizon, until)
            final = until <= horizon
            for msg in self._inbox:
                parts[msg.dst].deliver(msg)
            windows.append((edge, self._crossed))
            for p in owned:
                p.sim.run(until=edge, inclusive=final)
            out: List[CrossPartitionMessage] = []
            for p in owned:
                out.extend(p.collect_outbox())
            eot = min(p.end_of_timestep(lookahead) for p in owned)
            self._inbox, self._crossed, eot = self._swap(out, eot)
            self._edge = min(eot, edge + lookahead) if self._crossed else eot
            if final:
                return windows

    def _swap(
        self, out: List[CrossPartitionMessage], eot: float
    ) -> Tuple[List[CrossPartitionMessage], int, float]:
        """Trade one window's messages with the peers.

        Returns the messages addressed to the owned partitions in
        canonical order, the number emitted by all processes, and the
        minimum EOT over all partitions.  Every worker sends to all its
        peers first and then receives, so a worker that finishes its
        window last finds its peers' messages already waiting.
        """
        emitted = crossed = len(out)
        peers = self._peers
        if peers:
            inbox: List[CrossPartitionMessage] = []
            outgoing: List[list] = [[] for _ in peers]
            route = self._route
            for msg in out:
                slot = route.get(msg.dst)
                (inbox if slot is None else outgoing[slot]).append(msg)
            senders = []
            for conn, msgs in zip(peers, outgoing):
                data = pickle.dumps((msgs, emitted, eot), pickle.HIGHEST_PROTOCOL)
                if len(data) <= _INLINE_SEND:
                    conn.send_bytes(data)
                else:
                    sender = threading.Thread(
                        target=conn.send_bytes, args=(data,), daemon=True
                    )
                    sender.start()
                    senders.append(sender)
            for conn in peers:
                got, count, peer_eot = conn.recv()
                inbox.extend(got)
                crossed += count
                if peer_eot < eot:
                    eot = peer_eot
            for sender in senders:
                sender.join()
            out = inbox
        out.sort(key=_msg_key)
        return out, crossed, eot

    # ------------------------------------------------------------------
    # process-pool mode
    # ------------------------------------------------------------------
    def _ensure_pool(self) -> None:
        if self._pool is not None:
            return
        # imported here: deployments without a pool never load multiprocessing
        import multiprocessing as mp

        ctx = mp.get_context("fork")
        n = self.workers
        slices = [list(range(w, len(self.partitions), n)) for w in range(n)]
        control = [ctx.Pipe() for _ in range(n)]  # (parent end, worker end)
        links = {(a, b): ctx.Pipe() for a in range(n) for b in range(a + 1, n)}
        every = [end for pair in control for end in pair]
        every += [end for pair in links.values() for end in pair]
        pool = []
        try:
            for w in range(n):
                peers = [
                    (links[min(w, v), max(w, v)][0 if w < v else 1], slices[v])
                    for v in range(n) if v != w
                ]
                kept = {id(control[w][1])} | {id(conn) for conn, _slice in peers}
                proc = ctx.Process(
                    target=_worker_main,
                    args=(control[w][1], slices[w], self.partitions, self.lookahead),
                    daemon=True,
                )
                proc.links = (peers, [e for e in every if id(e) not in kept])
                proc.start()
                pool.append((proc, control[w][0]))
        finally:
            parent_ends = {id(c[0]) for c in control}
            for end in every:
                if id(end) not in parent_ends:
                    end.close()
        self._pool = pool

    def _command(self, cmd: tuple) -> List[Any]:
        """Send ``cmd`` to every worker and gather the replies in worker
        order; raises if a worker dies before answering."""
        from multiprocessing.connection import wait

        for w, (_proc, conn) in enumerate(self._pool):
            try:
                conn.send(cmd)
            except OSError as exc:
                raise self._dead(w) from exc
        replies: List[Any] = [None] * len(self._pool)
        pending = dict(enumerate(self._pool))
        while pending:
            ready = set(wait(
                [conn for _proc, conn in pending.values()]
                + [proc.sentinel for proc, _conn in pending.values()]
            ))
            for w, (proc, conn) in list(pending.items()):
                if conn in ready or (proc.sentinel in ready and conn.poll()):
                    try:
                        replies[w] = conn.recv()
                    except EOFError as exc:
                        raise self._dead(w) from exc
                    del pending[w]
                elif proc.sentinel in ready:
                    raise self._dead(w)
        return replies

    def _dead(self, w: int) -> RuntimeError:
        proc = self._pool[w][0]
        proc.join(timeout=1)
        return RuntimeError(
            f"pool worker {w} (pid {proc.pid}) died (exit code {proc.exitcode})"
        )

    def _run_pool(self, until: float) -> List[Tuple[float, int]]:
        self._ensure_pool()
        replies = self._command(("run", until))
        self._pool_completed = sum(done for done, _windows in replies)
        return replies[0][1]

    # ------------------------------------------------------------------
    # reporting / teardown
    # ------------------------------------------------------------------
    @property
    def completed(self) -> int:
        """Queries finished across all partitions (pool mode: as of the
        end of the last run)."""
        if self.workers > 1:
            return self._pool_completed
        return sum(p.completed for p in self.partitions)

    def finish(self) -> Dict[int, tuple]:
        """Flush every partition and collect ``{index: (summary, digest)}``.

        Idempotent; in pool mode this also drains and joins the workers
        (the partition objects in the parent are stale after the first
        pooled run -- the workers own the truth, so their final state
        is collected here and cached).
        """
        if self._results is not None:
            return self._results
        results: Dict[int, tuple] = {}
        if self._pool is not None:
            for reply in self._command(("finish",)):
                results.update(reply)
            self.close()
        else:
            for i, part in enumerate(self.partitions):
                part.finish()
                results[i] = (part.summary(), part.digest_hex())
        self._results = results
        return results

    def close(self) -> None:
        """Stop the pool and reap every worker, dead or alive."""
        if self._pool is None:
            return
        for _proc, conn in self._pool:
            try:
                conn.send(("stop",))
            except OSError:
                pass
            conn.close()
        for proc, _conn in self._pool:
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - a wedged worker
                proc.kill()
                proc.join()
        self._pool = None
