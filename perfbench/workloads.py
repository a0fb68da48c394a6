"""The four named benchmark workloads.

Each workload is a batch job over a fixed simulated input: ``setup()``
builds the deployment, loads its data and generates and submits the
whole workload from the seed; ``run()`` simulates it to completion.
Inside the simulation arrivals follow the workload's own open-loop
schedule in simulated time.  ``outcome()`` reads back what a user sees
(query lifetimes, terminal states) plus the program's own per-layer
counters, and ``result_problems()`` checks the answers the queries
returned.

Two scales exist: ``bench`` (what the benchmark measures) and ``tiny``
(what the smoke tests run).  Both are pure functions of the seed.
"""

from __future__ import annotations

import hashlib
import os
import random
from typing import Dict, List, Optional

import numpy as np

from repro.core import MB, DataCyclotron, DataCyclotronConfig
from repro.core.query import QuerySpec
from repro.dbms import Database, KvLookup, RingDatabase, StreamAggregate
from repro.frontdoor import FrontDoor, FrontDoorPolicy
from repro.multiring import MultiRingConfig, PartitionedFederation, RingFederation
from repro.multiring.partition import attach_stream_digest
from repro.workloads.base import UniformDataset, populate_ring
from repro.workloads.frontdoor import FrontDoorWorkload
from repro.workloads.scenarios import LocalityShiftWorkload
from repro.workloads.uniform import UniformWorkload

MAX_TIME = 3600.0

# relative tolerance for floating-point folds: the streaming engine sums
# partitions in ring-arrival order, numpy sums the whole column at once
FOLD_RTOL = 1e-9


def hardware_cores() -> int:
    """CPUs this process may run on (``nproc``)."""
    return len(os.sched_getaffinity(0))


def combine_digests(digests: List[Optional[str]]) -> str:
    """One sha256 over per-bus (or per-ring) stream digests, in order."""
    sha = hashlib.sha256()
    for digest in digests:
        sha.update(str(digest).encode())
        sha.update(b"\n")
    return sha.hexdigest()


def _lifetime_summary(metrics_list) -> Dict:
    """Lifetimes and finish times of the finished queries, in simulated
    seconds."""
    lifetimes: List[float] = []
    finish_times: List[float] = []
    for metrics in metrics_list:
        for rec in metrics.queries.values():
            if rec.finished_at is None or rec.failed:
                continue
            lifetimes.append(rec.finished_at - rec.registered_at)
            finish_times.append(rec.finished_at)
    return {"lifetimes": lifetimes, "finish_times": finish_times}


def _ring_counters(rings) -> Dict:
    """Core and fast-forward counters summed over classic rings."""
    out = {"loads": 0, "resends": 0, "flights": 0, "hops_coalesced": 0,
           "flushes": 0}
    for dc in rings:
        dc.ff.flush_all()
        out["loads"] += sum(s.loads for s in dc.metrics.bats.values())
        out["resends"] += dc.metrics.resends
        ff = dc.ff.stats()
        out["flights"] += ff["flights"]
        out["hops_coalesced"] += ff["hops_coalesced"]
        out["flushes"] += ff["flushes"]
    return out


class BenchWorkload:
    """Shared shape of a workload; subclasses fill in the deployment."""

    name = ""

    def __init__(self, seed: int, scale: str = "bench", workers: Optional[int] = None):
        self.params = self.make_params(seed, scale)
        self.workers = workers
        self.offered = 0
        self._digests: list = []

    @staticmethod
    def make_params(seed: int, scale: str) -> Dict:
        raise NotImplementedError

    def setup(self, digest: bool = False) -> None:
        raise NotImplementedError

    def run(self, max_time: float = MAX_TIME) -> bool:
        raise NotImplementedError

    def outcome(self) -> Dict:
        """Terminal-state tallies (``failed`` counts failed and shed
        queries, ``rejected`` the ones an admission door refused),
        lifetimes, sim events and counters."""
        raise NotImplementedError

    def uses_pool(self) -> bool:
        """Whether the run spreads over worker processes."""
        return False

    def result_problems(self) -> List[str]:
        """Wrong answers; only workloads that return data have any."""
        return []

    def digest(self) -> str:
        return combine_digests([d.hexdigest() for d in self._digests])

    def _attach_digests(self, buses) -> None:
        self._digests = [attach_stream_digest(bus) for bus in buses]


# ----------------------------------------------------------------------
class PaperRing(BenchWorkload):
    """The paper's section 5.1 uniform workload on one classic ring."""

    name = "paper-ring"

    @staticmethod
    def make_params(seed: int, scale: str) -> Dict:
        if scale == "tiny":
            return dict(
                n_nodes=4, n_bats=40, min_size=MB, max_size=2 * MB,
                bandwidth=40 * MB, link_delay=350e-6,
                queue_capacity=15 * MB, queries_per_second=10.0,
                duration=1.0, min_bats=1, max_bats=3,
                min_proc=0.010, max_proc=0.020, seed=seed,
            )
        return dict(
            n_nodes=10, n_bats=1000, min_size=MB, max_size=10 * MB,
            bandwidth=10 * 1e9 / 8, link_delay=350e-6,
            queue_capacity=200 * MB, queries_per_second=80.0,
            duration=4.0, min_bats=1, max_bats=5,
            min_proc=0.100, max_proc=0.200, seed=seed,
        )

    def setup(self, digest: bool = False) -> None:
        p = self.params
        dataset = UniformDataset(
            n_bats=p["n_bats"], min_size=p["min_size"], max_size=p["max_size"],
            seed=p["seed"],
        )
        self.dc = DataCyclotron(DataCyclotronConfig(
            n_nodes=p["n_nodes"], bandwidth=p["bandwidth"],
            link_delay=p["link_delay"], bat_queue_capacity=p["queue_capacity"],
            seed=p["seed"],
        ))
        if digest:
            self._attach_digests([self.dc.bus])
        populate_ring(self.dc, dataset)
        workload = UniformWorkload(
            dataset, n_nodes=p["n_nodes"],
            queries_per_second=p["queries_per_second"], duration=p["duration"],
            min_bats=p["min_bats"], max_bats=p["max_bats"],
            min_proc_time=p["min_proc"], max_proc_time=p["max_proc"],
            seed=p["seed"],
        )
        self.offered = workload.submit_to(self.dc)

    def run(self, max_time: float = MAX_TIME) -> bool:
        return self.dc.run_until_done(max_time=max_time)

    def outcome(self) -> Dict:
        dc = self.dc
        counters = _ring_counters([dc])  # lands open flights first
        records = dc.metrics.queries.values()
        out = _lifetime_summary([dc.metrics])
        out.update(
            offered=self.offered,
            finished=sum(1 for r in records if r.finished_at is not None and not r.failed),
            failed=sum(1 for r in records if r.failed),
            rejected=0,
            sim_events=dc.sim.processed,
            counters=counters,
        )
        return out


# ----------------------------------------------------------------------
class SqlFrontDoor(BenchWorkload):
    """Front-door traffic (KV, SQL scans, folds, a wide burst) on 4 nodes."""

    name = "sql-frontdoor"

    # predicted-bytes tier boundaries: probes ride the protected top
    # tier, single-column scans and folds the middle, wide scans tier 0
    TIERS = (16 * 1024, 120 * 1024)

    @staticmethod
    def make_params(seed: int, scale: str) -> Dict:
        if scale == "tiny":
            rows, duration, bandwidth, budget = 2000, 4.0, 3 * MB, int(1.5 * MB)
        else:
            rows, duration, bandwidth, budget = 12000, 60.0, 6 * MB, 3 * MB
        return dict(
            n_nodes=4, bandwidth=bandwidth, byte_budget=budget,
            # refuse any single request binding more than three of the six
            # columns: the burst's SELECT * is always refused.  Without the
            # cap one slips in whenever it arrives at an empty valve (an
            # empty valve always admits), which happens in about one of
            # four 12 s scenario runs and multiplies the run's work 2.4x,
            # so host time would be bimodal across seeds.
            reject_above_bytes=3 * rows * 8,
            n_rows=rows, rows_per_partition=500, kv_rate=40.0, mal_rate=15.0,
            stream_rate=3.0, burst_rate=30.0, burst_start=duration / 6,
            burst_end=5 * duration / 6, duration=duration, seed=seed,
        )

    def setup(self, digest: bool = False) -> None:
        p = self.params
        self.wl = FrontDoorWorkload(
            n_rows=p["n_rows"], rows_per_partition=p["rows_per_partition"],
            n_nodes=p["n_nodes"], kv_rate=p["kv_rate"], mal_rate=p["mal_rate"],
            stream_rate=p["stream_rate"], burst_rate=p["burst_rate"],
            burst_start=p["burst_start"], burst_end=p["burst_end"],
            duration=p["duration"], seed=p["seed"],
        )
        # a deliberately thin ring: the front door, not the pipe, must
        # absorb the burst; fast-forward is off as in the scenario suite
        self.rdb = RingDatabase(
            DataCyclotronConfig(
                n_nodes=p["n_nodes"], seed=p["seed"],
                bandwidth=p["bandwidth"], fast_forward=False,
            ),
            lifecycle_events=True,
        )
        if digest:
            self._attach_digests([self.rdb.dc.bus])
        self.wl.load_into(self.rdb)
        self.door = FrontDoor(self.rdb, policy=FrontDoorPolicy(
            tier_boundaries=self.TIERS, byte_budget=p["byte_budget"],
            reject_above_bytes=p["reject_above_bytes"],
            admission="estimate", tag_tiers=True,
        ))
        self.offered = self.wl.offer_to(self.door)

    def run(self, max_time: float = MAX_TIME) -> bool:
        return self.rdb.run_until_done(max_time=max_time)

    def outcome(self) -> Dict:
        door = self.door
        counters = dict(
            _ring_counters([self.rdb.dc]),
            admitted=door.admitted,
            rejected=door.rejected,
            live_tickets=len(door.tickets),
            live_handles=len(self.rdb.handles),
        )
        outcomes = [t.outcome for t in door.tickets.values()]
        out = _lifetime_summary([self.rdb.dc.metrics])
        out.update(
            offered=door.offered,
            finished=outcomes.count("finished"),
            failed=outcomes.count("failed") + outcomes.count("shed"),
            # refused at the door: the admission policy's intended answer
            rejected=door.rejected,
            sim_events=self.rdb.dc.sim.processed,
            counters=counters,
        )
        return out

    def result_problems(self) -> List[str]:
        """Every finished answer against a local database and numpy."""
        data = self.wl.table_data()
        local = Database()
        local.load_table(self.wl.table, data,
                         rows_per_partition=self.params["rows_per_partition"])
        expected_sql: Dict[str, list] = {}
        problems = []
        for qid, ticket in sorted(self.door.tickets.items()):
            if ticket.outcome != "finished":
                continue
            request = ticket.handle.request
            got = ticket.handle.result
            if isinstance(request, str):
                if request not in expected_sql:
                    expected_sql[request] = local.query(request).rows()
                ok = got is not None and got.rows() == expected_sql[request]
            elif isinstance(request, KvLookup):
                ok = got == data[request.column][request.key].item()
            elif isinstance(request, StreamAggregate):
                ok = _fold_matches(got, _numpy_fold(data, request))
            else:
                ok = False
            if not ok:
                problems.append(f"query {qid}: wrong result for {request!r}")
        return problems


def _numpy_fold(data: Dict[str, np.ndarray], request: StreamAggregate):
    values = data[request.value_column]
    funcs = {"sum": np.sum, "avg": np.mean, "count": len, "max": np.max,
             "min": np.min}
    fold = funcs[request.func]
    if request.group_column is None:
        return _native(fold(values))
    groups = data[request.group_column]
    return {
        key.item(): _native(fold(values[groups == key]))
        for key in np.unique(groups)
    }


def _native(value):
    return value.item() if hasattr(value, "item") else value


def _fold_matches(got, expected) -> bool:
    if isinstance(expected, dict):
        return (
            isinstance(got, dict)
            and sorted(got) == sorted(expected)
            and all(_fold_matches(got[k], expected[k]) for k in expected)
        )
    if got is None:
        return False
    return bool(np.isclose(got, expected, rtol=FOLD_RTOL, atol=0.0))


# ----------------------------------------------------------------------
class FederationShift(BenchWorkload):
    """Gaussian interest drifting across a 3x3 block-placed federation."""

    name = "federation-shift"

    @staticmethod
    def make_params(seed: int, scale: str) -> Dict:
        return dict(
            n_rings=3, nodes_per_ring=3, n_bats=120, min_size=MB,
            max_size=2 * MB, rate=40.0,
            duration=8.0 if scale == "tiny" else 240.0,
            placement_interval=0.25, migration_patience=2, seed=seed,
        )

    def setup(self, digest: bool = False) -> None:
        p = self.params
        dataset = UniformDataset(
            n_bats=p["n_bats"], min_size=p["min_size"], max_size=p["max_size"],
            seed=p["seed"],
        )
        base = DataCyclotronConfig(
            n_nodes=p["nodes_per_ring"], seed=p["seed"], bandwidth=40 * MB,
            bat_queue_capacity=15 * MB, disk_latency=1e-4,
            load_all_interval=0.02, resend_timeout=0.5,
            resend_backoff_base=2.0, max_resends=6,
        )
        self.fed = RingFederation(MultiRingConfig(
            base=base, n_rings=p["n_rings"], nodes_per_ring=p["nodes_per_ring"],
            gateways_per_ring=1, splitmerge_interval=0.0,
            placement_interval=p["placement_interval"],
            migration_patience=p["migration_patience"],
            ship_threshold=0.0,  # fetch, don't ship: migrations carry the load
        ))
        if digest:
            self._attach_digests([self.fed.bus] + [r.bus for r in self.fed.rings])
        # contiguous block placement: the drifting interest centre walks
        # from ring 0's block into rings 1 and 2
        n = dataset.n_bats
        for bat_id, size in sorted(dataset.sizes.items()):
            self.fed.add_bat(bat_id, size, ring=bat_id * p["n_rings"] // n)
        workload = LocalityShiftWorkload(
            dataset, n_nodes=self.fed.config.total_nodes,
            nodes=list(range(p["nodes_per_ring"])),  # all clients on ring 0
            rate=p["rate"], duration=p["duration"], seed=p["seed"],
        )
        self.offered = workload.submit_to(self.fed)

    def run(self, max_time: float = MAX_TIME) -> bool:
        return self.fed.run_until_done(max_time=max_time)

    def outcome(self) -> Dict:
        fed = self.fed
        counters = _ring_counters(fed.rings)  # lands open flights first
        summary = fed.summary()
        out = _lifetime_summary([r.metrics for r in fed.rings])
        counters.update(
            fetches=summary.get("fetches_dispatched", 0),
            migrations=summary.get("migrations_started", 0),
        )
        out.update(
            offered=self.offered,
            finished=fed.completed_queries - fed.failed_queries,
            failed=fed.failed_queries,
            rejected=0,
            sim_events=fed.sim.processed,
            counters=counters,
        )
        return out


# ----------------------------------------------------------------------
def _partition_summary(part):
    """A partition summary that also carries lifetimes and core/ff counters.

    Installed per instance so pool workers ship them back at ``finish``;
    ``RingPartition.summary`` alone has no latencies.
    """
    base = type(part).summary

    def summary() -> dict:
        out = base(part)
        dc = part.dc
        out["bench"] = dict(
            _lifetime_summary([dc.metrics]), counters=_ring_counters([dc])
        )
        return out

    return summary


class FederationParallel(BenchWorkload):
    """8 rings x 8 nodes on the partitioned kernel and its worker pool."""

    name = "federation-parallel"

    @staticmethod
    def make_params(seed: int, scale: str) -> Dict:
        if scale == "tiny":
            return dict(n_rings=2, nodes_per_ring=3, bats_per_ring=4,
                        rate_per_ring=20.0, horizon=2.0, seed=seed)
        return dict(n_rings=8, nodes_per_ring=8, bats_per_ring=8,
                    rate_per_ring=30.0, horizon=20.0, seed=seed)

    def uses_pool(self) -> bool:
        return self._workers() > 1

    def _workers(self) -> int:
        return self.workers if self.workers is not None else hardware_cores()

    def setup(self, digest: bool = False) -> None:
        p = self.params
        n_rings, nodes = p["n_rings"], p["nodes_per_ring"]
        self.fed = PartitionedFederation(MultiRingConfig(
            base=DataCyclotronConfig(n_nodes=nodes, seed=p["seed"], fast_forward=True),
            n_rings=n_rings, nodes_per_ring=nodes, splitmerge_interval=0.0,
            inter_ring_delay=0.002,  # the kernel's lookahead window
        ), workers=self._workers(), collect_digests=digest)
        for part in self.fed.partitions:
            part.summary = _partition_summary(part)
        n_bats = p["bats_per_ring"] * n_rings
        for bat_id in range(n_bats):
            self.fed.add_bat(bat_id, MB)  # round-robin: BAT b on ring b % n_rings
        rng = random.Random(p["seed"])
        specs = []
        qid = 0
        for ring in range(n_rings):
            ring_bats = [b for b in range(n_bats) if b % n_rings == ring]
            other_bats = [b for b in range(n_bats) if b % n_rings != ring]
            t = 0.0
            while True:
                t += rng.expovariate(p["rate_per_ring"])
                if t >= p["horizon"]:
                    break
                qid += 1
                bats = [rng.choice(ring_bats)]
                if other_bats and qid % 8 == 0:
                    bats.append(rng.choice(other_bats))
                node = self.fed.global_node(ring, rng.randrange(nodes))
                specs.append(QuerySpec.simple(qid, node, t, bats, [0.002] * len(bats)))
        specs.sort(key=lambda s: (s.arrival, s.query_id))
        self.offered = self.fed.submit_all(specs)

    def run(self, max_time: float = MAX_TIME) -> bool:
        try:
            done = self.fed.run_until_done(max_time=max_time)
            self.summary = self.fed.summary()  # joins the worker pool
        finally:
            self.fed.close()
        return done

    def outcome(self) -> Dict:
        s = self.summary
        lifetimes: List[float] = []
        finish_times: List[float] = []
        counters: Dict[str, int] = {}
        for ring in s["rings"]:
            bench = ring["bench"]
            lifetimes.extend(bench["lifetimes"])
            finish_times.extend(bench["finish_times"])
            for key, value in bench["counters"].items():
                counters[key] = counters.get(key, 0) + value
        counters.update(
            fetches=s["fetches_dispatched"],
            migrations=0,
            rounds=s["kernel_rounds"],
            messages=s["kernel_messages"],
        )
        return dict(
            lifetimes=lifetimes,
            finish_times=finish_times,
            offered=self.offered,
            finished=s["completed"] - s["failed"],
            failed=s["failed"],
            rejected=0,
            sim_events=s["events_processed"],
            counters=counters,
        )

    def digest(self) -> str:
        return combine_digests(self.fed.ring_digests())


WORKLOADS = {
    cls.name: cls
    for cls in (PaperRing, SqlFrontDoor, FederationShift, FederationParallel)
}
