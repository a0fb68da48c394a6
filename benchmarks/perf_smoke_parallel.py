"""CI perf-smoke gate for the partitioned kernel (docs/parallel.md).

Two checks, both hard failures:

1. **Determinism** -- a quick 4-ring partitioned run with live
   cross-ring fetch traffic must produce bit-identical per-ring event
   digests and the same ``kernel_rounds`` with ``workers=2`` and
   ``workers=3`` as with ``workers=1``.  This is the same contract
   tests/test_parallel_equivalence.py pins at 2 rings; running it here
   at 4 rings keeps the pool path exercised on every push with even
   slices of two partitions, uneven slices (2/1/1) and three pairwise
   peer pipes.
2. **Fast-forward regression** (``--bench PATH``) -- the committed
   ``BENCH_core.json`` must record a federation fast-forward speedup
   >= 1.0.  The 0.9x era is over; a change that makes the fast path a
   net loss on federated deployments fails CI instead of landing as a
   documented regret.

Exit status 0 only if every requested check passes.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from repro.core.config import DataCyclotronConfig
from repro.core.query import QuerySpec
from repro.multiring import MultiRingConfig, PartitionedFederation

MB = 1 << 20
N_RINGS = 4
NODES = 4
HORIZON = 1.0
RATE_PER_RING = 20.0
SEED = 7


def _build(workers: int) -> tuple:
    cfg = MultiRingConfig(
        base=DataCyclotronConfig(n_nodes=NODES, seed=SEED, fast_forward=True),
        n_rings=N_RINGS,
        nodes_per_ring=NODES,
        splitmerge_interval=0.0,
        inter_ring_delay=0.002,
    )
    fed = PartitionedFederation(cfg, workers=workers, collect_digests=True)
    n_bats = 4 * N_RINGS
    for bat_id in range(n_bats):
        fed.add_bat(bat_id, MB)
    rng = random.Random(SEED)
    qid = 0
    specs = []
    for ring in range(N_RINGS):
        ring_bats = [b for b in range(n_bats) if b % N_RINGS == ring]
        other_bats = [b for b in range(n_bats) if b % N_RINGS != ring]
        t = 0.0
        while True:
            t += rng.expovariate(RATE_PER_RING)
            if t >= HORIZON:
                break
            qid += 1
            bats = [rng.choice(ring_bats)]
            if qid % 3 == 0:
                bats.append(rng.choice(other_bats))
            node = fed.global_node(ring, rng.randrange(NODES))
            specs.append(QuerySpec.simple(qid, node, t, bats, [0.002] * len(bats)))
    specs.sort(key=lambda s: (s.arrival, s.query_id))
    fed.submit_all(specs)
    return fed, len(specs)


def _run(workers: int) -> tuple:
    fed, total = _build(workers)
    done = fed.run_until_done(max_time=120.0)
    digests = fed.ring_digests()
    summary = fed.summary()
    fed.close()
    return done, total, digests, summary


def check_determinism() -> bool:
    done1, total, d1, s1 = _run(workers=1)
    if not done1:
        print(f"FAIL determinism: run did not complete ({total} queries)")
        return False
    if s1["fetches_served"] == 0:
        print("FAIL determinism: workload produced no cross-ring traffic")
        return False
    for workers in (2, 3):
        done, _, d, s = _run(workers=workers)
        if not done:
            print(f"FAIL determinism: workers={workers} run did not complete")
            return False
        if d != d1:
            for i, (a, b) in enumerate(zip(d1, d)):
                marker = "==" if a == b else "!="
                print(f"  ring {i}: {a[:16]} {marker} {b[:16]}")
            print(f"FAIL determinism: workers={workers} trace diverged from workers=1")
            return False
        if s["kernel_rounds"] != s1["kernel_rounds"]:
            print(
                f"FAIL determinism: workers={workers} ran {s['kernel_rounds']} "
                f"windows, workers=1 ran {s1['kernel_rounds']}"
            )
            return False
    print(
        f"OK determinism: {N_RINGS} rings, {total} queries, "
        f"{s1['fetches_served']} cross-ring serves, "
        f"{s1['kernel_rounds']} rounds -- workers=2 and workers=3 "
        f"digests and rounds == workers=1"
    )
    return True


def check_bench(path: str) -> bool:
    with open(path) as f:
        report = json.load(f)
    speedup = report["federation"]["speedup"]
    if speedup < 1.0:
        print(f"FAIL bench gate: federation fast-forward speedup {speedup} < 1.0")
        return False
    print(f"OK bench gate: federation fast-forward speedup {speedup} >= 1.0")
    return True


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--bench",
        metavar="PATH",
        help="also gate the committed benchmark report's federation speedup",
    )
    args = parser.parse_args()
    ok = check_determinism()
    if args.bench:
        ok = check_bench(args.bench) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
