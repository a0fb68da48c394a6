"""One benchmark repetition in a fresh interpreter.

Run as ``python perfbench/child.py '<json spec>'`` with ``src`` on
``PYTHONPATH``; prints one JSON object as its last stdout line.  The
spec names the workload, seed, scale and mode:

* ``timed`` -- the program as a user runs it: default metrics
  collector attached, GC on, nothing else on the bus;
* ``traced`` -- the same run with every layer entry point wrapped
  (tracer.py), for the per-layer numbers;
* ``verify`` -- an untimed run with event-stream digests attached and
  every answer checked.

A fresh interpreter per repetition keeps allocator state from one run
out of the next: in-process repeats drift by up to +-25 %.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time

from gates import terminal_problems
from tracer import Tracer, fold_pool_windows, install_pool_tracing
from workloads import WORKLOADS


# The calibration kernels' times at the reference host speed (the 2-core
# Xeon container this benchmark was built on, in its fast regime).  Host
# times are reported at that speed: raw seconds / host_speed, where
# host_speed is the kernel's time around the repetition over its
# reference.  A pooled run is calibrated with the two-process kernel,
# which also sees the second core and the cost of waking a peer; set-up
# always runs in one process and uses the single-process kernel.
REF_CALIBRATION_S = 0.040
REF_POOL_CALIBRATION_S = 0.080


def quantile(ordered, q: float) -> float:
    """Nearest-rank quantile of an ascending list."""
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * q // 1))
    return ordered[int(rank) - 1]


def sim_metrics(outcome: dict) -> dict:
    """The simulated end-to-end metrics (deterministic for a seed).

    Latency is reported as the mean and p95 lifetime.  The median and
    p99 are kept for reference only: each sits on a cliff of some
    workload's lifetime distribution, so a different seed moves it a lot
    (the KV hit/miss mixture straddles the median in sql-frontdoor, a
    cluster of ~0.11 s lifetimes holding 0.8-1.5 % of the queries
    straddles p99 in federation-parallel).  Throughput is the completion
    rate between the 10th and 90th percentile completion times, which
    leaves out the ramp-up and the drain tail.
    """
    ordered = sorted(outcome["lifetimes"])
    p95 = quantile(ordered, 0.95)
    done_at = sorted(outcome["finish_times"])
    t10, t90 = quantile(done_at, 0.10), quantile(done_at, 0.90)
    between = sum(1 for t in done_at if t10 < t <= t90)
    return {
        "sim_latency_mean_s": sum(ordered) / len(ordered) if ordered else 0.0,
        "sim_latency_p95_s": p95,
        "sim_throughput_qps": between / (t90 - t10) if t90 > t10 else 0.0,
        "completed_share": (
            outcome["finished"] / outcome["offered"] if outcome["offered"] else 0.0
        ),
        "beyond_p95": sum(1 for x in ordered if x > p95),
        "p50_for_reference": quantile(ordered, 0.50),
        "p99_for_reference": quantile(ordered, 0.99),
    }


def calibrate(samples: int = 2) -> list:
    """Time a fixed pure-Python kernel that does not touch the program
    under test.

    The host's speed drifts by up to ~45 % over minutes (other tenants
    of the machine); the kernel, run right before and right after the
    timed run in the same interpreter, sees the same drift, so host
    times can be normalised by it.
    """
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        table: dict = {}
        for i in range(300000):
            table[i % 1000] = table.get(i % 1000, 0) + i
        times.append(time.perf_counter() - start)
    return times


def _pong(conn, iterations: int) -> None:
    while conn.recv():
        table: dict = {}
        for i in range(iterations):
            table[i % 1000] = table.get(i % 1000, 0) + i
        conn.send(True)


def calibrate_pool(rounds: int = 1000, iterations: int = 300) -> float:
    """Time lockstep rounds between this process and a forked peer: each
    round is a pipe round trip with a slice of the calibration loop on
    both sides, the shape of the partitioned kernel's window protocol.
    It sees what a pooled run sees and the single-core kernel does not:
    the second core's speed and the cost of waking a peer."""
    import multiprocessing as mp

    ctx = mp.get_context("fork")
    parent, child = ctx.Pipe()
    peer = ctx.Process(target=_pong, args=(child, iterations), daemon=True)
    peer.start()
    child.close()
    try:
        start = time.perf_counter()
        for _ in range(rounds):
            parent.send(True)
            table: dict = {}
            for i in range(iterations):
                table[i % 1000] = table.get(i % 1000, 0) + i
            parent.recv()
        return time.perf_counter() - start
    finally:
        parent.send(False)
        peer.join(timeout=10)
        parent.close()


def peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # Linux reports KiB


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_timed(spec: dict, traced: bool) -> dict:
    workload = WORKLOADS[spec["workload"]](
        spec["seed"], spec["scale"], workers=spec.get("workers")
    )
    tracer = None
    if traced:
        tracer = Tracer()
        tracer.install()
        worker_traces = install_pool_tracing(tracer)
    start = time.perf_counter()
    workload.setup()
    setup_s = time.perf_counter() - start
    calibration = calibrate()
    pooled = [calibrate_pool()] if workload.uses_pool() else []
    if tracer is not None:
        tracer.reset()
    cpu0, child0 = time.process_time(), children_cpu()
    start = time.perf_counter()
    done = workload.run()
    wall_s = time.perf_counter() - start
    cpu_s = time.process_time() - cpu0 + children_cpu() - child0
    trace = None
    if tracer is not None:
        trace = fold_pool_windows(tracer.export(), worker_traces)
    calibration += calibrate()
    setup_speed = statistics.median(calibration) / REF_CALIBRATION_S
    if workload.uses_pool():
        pooled.append(calibrate_pool())
        host_speed = statistics.median(pooled) / REF_POOL_CALIBRATION_S
    else:
        host_speed = setup_speed
    outcome = workload.outcome()
    return {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb(),
        "calibration_s": calibration + pooled,
        "host_speed": host_speed,
        "setup_speed": setup_speed,
        "done": done,
        "offered": outcome["offered"],
        "finished": outcome["finished"],
        "failed": outcome["failed"],
        "rejected": outcome["rejected"],
        "sim_events": outcome["sim_events"],
        "sim": sim_metrics(outcome),
        "counters": outcome["counters"],
        "problems": terminal_problems(outcome, done),
        "trace": trace,
    }


def run_verify(spec: dict) -> dict:
    workload = WORKLOADS[spec["workload"]](
        spec["seed"], spec["scale"], workers=spec.get("workers")
    )
    workload.setup(digest=True)
    done = workload.run()
    outcome = workload.outcome()
    problems = terminal_problems(outcome, done) + workload.result_problems()
    return {
        "digest": workload.digest(),
        "sim_events": outcome["sim_events"],
        "sim": sim_metrics(outcome),
        "offered": outcome["offered"],
        "finished": outcome["finished"],
        "failed": outcome["failed"],
        "rejected": outcome["rejected"],
        "problems": problems,
        "params": workload.params,
    }


def main(argv) -> int:
    spec = json.loads(argv[1])
    if spec["mode"] == "verify":
        result = run_verify(spec)
    else:
        result = run_timed(spec, traced=spec["mode"] == "traced")
    result["pid"] = os.getpid()
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
