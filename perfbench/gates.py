"""The correctness and determinism gates.

Pure functions over the records the child runs return, so the smoke
tests can feed them a deliberately broken record.
"""

from __future__ import annotations

from typing import Dict, List

# simulated outputs that must repeat bit for bit across runs of a seed
DETERMINISTIC = ("sim_latency_mean_s", "sim_latency_p95_s",
                 "sim_throughput_qps", "completed_share")


def terminal_problems(outcome: Dict, done: bool) -> List[str]:
    """Every offered query ends finished, failed, shed or rejected, and
    ``run_until_done`` reported completion."""
    problems = []
    if not done:
        problems.append("run_until_done returned False")
    pending = (outcome["offered"] - outcome["finished"] - outcome["failed"]
               - outcome["rejected"])
    if pending:
        problems.append(f"{pending} offered queries never reached a terminal state")
    return problems


def determinism_problems(verify_runs: List[Dict], timed_runs: List[Dict]) -> List[str]:
    """Digests agree across verification runs (one of them on the worker
    pool where the workload has one); ``sim.events`` and the simulated
    metrics agree across every run of the seed."""
    problems = []
    digests = {run["digest"] for run in verify_runs}
    if len(digests) != 1:
        problems.append(f"event-stream digests differ between runs: {sorted(digests)}")
    runs = verify_runs + timed_runs
    events = {run["sim_events"] for run in runs}
    if len(events) != 1:
        problems.append(f"sim.events differs between runs: {sorted(events)}")
    for key in DETERMINISTIC:
        values = {run["sim"][key] for run in runs}
        if len(values) != 1:
            problems.append(f"{key} differs between runs: {sorted(values)}")
    return problems
