"""The benchmark command: one named workload, timed, traced and checked.

    python3 perfbench/run.py --workload paper-ring --seed 1 --seconds 15 --trace 0

Run from the repository root (it imports the simulator from ``src``).
Each invocation

1. repeats the workload in fresh interpreters for ``--seconds`` seconds
   (at least ``MIN_REPS`` times) and reports the median of each host
   metric, normalised to the reference host speed (child.py).  With
   ``--trace 1`` half of the time goes to plain repetitions and half to
   traced ones, and the per-layer metrics are reported instead, with
   the tracing overhead;
2. runs the workload twice more, concurrently and untimed, with
   event-stream digests attached (for ``federation-parallel`` once with
   ``workers=1`` and once on the worker pool), and checks every answer;
3. applies the correctness and determinism gates (gates.py).

The last stdout line is the result object the benchmark contract asks
for; the line before it is the full record with its run manifest.  The
command exits 1 when a gate fails and 2 when it cannot run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from gates import determinism_problems

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("paper-ring", "sql-frontdoor", "federation-shift",
                  "federation-parallel")
MIN_REPS = 3
MIN_TRACED_REPS = 2
CHILD_TIMEOUT = 150.0
# hard limit on one invocation; the benchmark contract allows 180 s
BUDGET_S = 170.0

# name -> unit; host metrics are medians over the timed repetitions,
# simulated ones are identical in every run of a seed
END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "queries_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_latency_mean_s": "sim_s",
    "sim_latency_p95_s": "sim_s",
    "sim_throughput_qps": "1/sim_s",
    "completed_share": "fraction",
}

PER_LAYER = {
    "sim.events": "count",
    "sim.self_s": "s",
    "net.sends": "count",
    "net.droptail_drops": "count",
    "net.self_s": "s",
    "core.bat_hops": "count",
    "core.loads": "count",
    "core.resends": "count",
    "core.load_all_s": "s",
    "core.self_s": "s",
    "ff.flights": "count",
    "ff.hops_coalesced": "count",
    "ff.flush_ratio": "fraction",
    "ff.self_s": "s",
    "dbms.parse.calls": "count",
    "dbms.parse_per_compile": "ratio",
    "dbms.parse.self_s": "s",
    "dbms.compile.calls": "count",
    "dbms.compile.repeat_share": "fraction",
    "dbms.compile.shape_repeat_share": "fraction",
    "dbms.compile.self_s": "s",
    "dbms.estimate.calls": "count",
    "dbms.estimate.self_s": "s",
    "dbms.execute.queries": "count",
    "dbms.execute.self_s": "s",
    "dbms.dispatch.calls": "count",
    "dbms.dispatch.live_handles": "count",
    "dbms.dispatch.self_s": "s",
    "frontdoor.admitted": "count",
    "frontdoor.rejected": "count",
    "frontdoor.live_tickets": "count",
    "frontdoor.self_s": "s",
    "events.published": "count",
    "events.self_s": "s",
    "multiring.fetches": "count",
    "multiring.migrations": "count",
    "multiring.placement_s": "s",
    "multiring.router_self_s": "s",
    "sync.rounds": "count",
    "sync.messages_per_round": "ratio",
    "sync.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}

# layer self times that partition the traced wall time
SELF_TIME_METRICS = (
    "sim.self_s", "net.self_s", "core.self_s", "ff.self_s", "dbms.parse.self_s",
    "dbms.compile.self_s", "dbms.estimate.self_s", "dbms.execute.self_s",
    "dbms.dispatch.self_s", "frontdoor.self_s", "events.self_s",
    "multiring.placement_s", "multiring.router_self_s", "sync.self_s",
)


class ChildError(RuntimeError):
    pass


def _child_cmd(spec: Dict) -> List[str]:
    return [sys.executable, str(HERE / "child.py"), json.dumps(spec)]


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def _parse_child(proc_out: str, proc_err: str, code: int) -> Dict:
    lines = proc_out.strip().splitlines()
    if code != 0 or not lines:
        raise ChildError(f"child exited {code}: {proc_err.strip()[-2000:]}")
    return json.loads(lines[-1])


def run_child(spec: Dict, timeout: float) -> Dict:
    proc = subprocess.run(
        _child_cmd(spec), env=_child_env(), capture_output=True, text=True,
        timeout=timeout, cwd=str(ROOT),
    )
    return _parse_child(proc.stdout, proc.stderr, proc.returncode)


def run_children_concurrently(specs: List[Dict], timeout: float) -> List[Dict]:
    procs = [
        subprocess.Popen(
            _child_cmd(spec), env=_child_env(), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, cwd=str(ROOT),
        )
        for spec in specs
    ]
    deadline = time.monotonic() + timeout
    outputs = []
    try:
        for proc in procs:
            out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
            outputs.append((out, err, proc.returncode))
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    return [_parse_child(*o) for o in outputs]


# ----------------------------------------------------------------------
# the run manifest
# ----------------------------------------------------------------------
def git_sha() -> Optional[str]:
    """HEAD of the checkout, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_sha256() -> str:
    """sha256 over the simulator's sources (path and content, sorted)."""
    sha = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        sha.update(str(path.relative_to(SRC)).encode())
        sha.update(path.read_bytes())
    return sha.hexdigest()


def manifest(args, params: Dict, verify: Dict, reps: int, traced_reps: int) -> Dict:
    import numpy

    encoded = json.dumps(params, sort_keys=True).encode()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "params": params,
        "params_sha256": hashlib.sha256(encoded).hexdigest(),
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "hardware_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "sim.events": verify["sim_events"],
        "digest": verify["digest"],
        "timed_reps": reps,
        "traced_reps": traced_reps,
        "method": (
            "each repetition in a fresh interpreter; host metrics are "
            "medians over the repetitions; simulated metrics repeat exactly"
        ),
    }


# ----------------------------------------------------------------------
def normalised(rep: Dict, key: str) -> float:
    """A host time at the reference speed (see child.REF_CALIBRATION_S)."""
    speed = rep["setup_speed"] if key == "setup_s" else rep["host_speed"]
    return rep[key] / speed


def end_to_end_metrics(timed: List[Dict]) -> Dict[str, float]:
    sim = timed[0]["sim"]
    return {
        "wall_s": statistics.median([normalised(r, "wall_s") for r in timed]),
        "cpu_s": statistics.median([normalised(r, "cpu_s") for r in timed]),
        "queries_per_s": statistics.median([r["finished"] / normalised(r, "wall_s") for r in timed]),
        "setup_s": statistics.median([normalised(r, "setup_s") for r in timed]),
        "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in timed]),
        "sim_latency_mean_s": sim["sim_latency_mean_s"],
        "sim_latency_p95_s": sim["sim_latency_p95_s"],
        "sim_throughput_qps": sim["sim_throughput_qps"],
        "completed_share": sim["completed_share"],
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rep: Dict) -> Dict[str, float]:
    """The per-layer metrics of one traced repetition."""
    trace = rep["trace"]
    own = trace["self_s"]
    calls = trace["calls"]
    counts = trace["counts"]
    counters = rep["counters"]
    compiles = calls.get("dbms.compile", 0)
    out = {
        "sim.events": rep["sim_events"],
        "sim.self_s": own.get("sim", 0.0),
        "net.sends": calls.get("net.send", 0),
        "net.droptail_drops": counts.get("net.droptail_drops", 0),
        "net.self_s": own.get("net", 0.0),
        "core.bat_hops": calls.get("core.bat_message", 0),
        "core.loads": counters["loads"],
        "core.resends": counters["resends"],
        "core.load_all_s": trace["inclusive_s"].get("core.load_all", 0.0),
        "core.self_s": own.get("core", 0.0),
        "ff.flights": counters["flights"],
        "ff.hops_coalesced": counters["hops_coalesced"],
        "ff.flush_ratio": _ratio(counters["flushes"], counters["flights"]),
        "ff.self_s": own.get("ff", 0.0),
        "dbms.parse.calls": calls.get("dbms.parse", 0),
        "dbms.parse_per_compile": _ratio(calls.get("dbms.parse", 0),
                                         counts.get("compile.sql", 0)),
        "dbms.parse.self_s": own.get("dbms.parse", 0.0),
        "dbms.compile.calls": compiles,
        "dbms.compile.repeat_share": _ratio(counts.get("compile.repeats", 0), compiles),
        "dbms.compile.shape_repeat_share": _ratio(
            counts.get("compile.shape_repeats", 0), compiles),
        "dbms.compile.self_s": own.get("dbms.compile", 0.0),
        "dbms.estimate.calls": calls.get("dbms.estimate", 0),
        "dbms.estimate.self_s": own.get("dbms.estimate", 0.0),
        "dbms.execute.queries": calls.get("dbms.execute.started", 0),
        "dbms.execute.self_s": own.get("dbms.execute", 0.0),
        "dbms.dispatch.calls": calls.get("dbms.dispatch", 0),
        "dbms.dispatch.live_handles": counters.get("live_handles", 0),
        "dbms.dispatch.self_s": own.get("dbms.dispatch", 0.0),
        "frontdoor.admitted": counters.get("admitted", 0),
        "frontdoor.rejected": counters.get("rejected", 0),
        "frontdoor.live_tickets": counters.get("live_tickets", 0),
        "frontdoor.self_s": own.get("frontdoor", 0.0),
        "events.published": calls.get("events.publish", 0),
        "events.self_s": own.get("events", 0.0),
        "multiring.fetches": counters.get("fetches", 0),
        "multiring.migrations": counters.get("migrations", 0),
        "multiring.placement_s": own.get("multiring.placement", 0.0),
        "multiring.router_self_s": own.get("multiring", 0.0),
        "sync.rounds": counters.get("rounds", 0),
        "sync.messages_per_round": _ratio(counters.get("messages", 0),
                                          counters.get("rounds", 0)),
        "sync.self_s": own.get("sync", 0.0),
        "trace.wall_s": rep["wall_s"],
    }
    out["trace.unattributed_s"] = rep["wall_s"] - sum(out[k] for k in SELF_TIME_METRICS)
    return out


def per_layer_metrics(plain: List[Dict], traced: List[Dict]) -> Dict[str, float]:
    per_rep = [layer_metrics(rep) for rep in traced]
    out = {name: statistics.median_low([m[name] for m in per_rep]) for name in per_rep[0]}
    out["trace.overhead_s"] = out["trace.wall_s"] - statistics.median([r["wall_s"] for r in plain])
    return out


# ----------------------------------------------------------------------
def repeat(spec: Dict, seconds: float, min_reps: int, deadline: float) -> List[Dict]:
    """Fresh-interpreter repetitions until ``seconds`` have passed."""
    reps: List[Dict] = []
    start = time.monotonic()
    while len(reps) < min_reps or time.monotonic() - start < seconds:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise ChildError("time budget exhausted during the timed phase")
        reps.append(run_child(spec, timeout=min(CHILD_TIMEOUT, remaining)))
    return reps


def verification_specs(args) -> List[Dict]:
    base = {"workload": args.workload, "seed": args.seed, "scale": args.scale,
            "mode": "verify"}
    if args.workload == "federation-parallel":
        # the pool must reproduce the inline kernel's trace bit for bit
        pool = max(2, len(os.sched_getaffinity(0)))
        return [dict(base, workers=1), dict(base, workers=pool)]
    return [dict(base), dict(base)]


def run_benchmark(args) -> Dict:
    started = time.monotonic()
    deadline = started + BUDGET_S
    spec = {"workload": args.workload, "seed": args.seed, "scale": args.scale,
            "mode": "timed"}
    traced: List[Dict] = []
    if args.trace:
        plain = repeat(spec, args.seconds / 2, MIN_TRACED_REPS, deadline)
        traced = repeat(dict(spec, mode="traced"), args.seconds / 2,
                        MIN_TRACED_REPS, deadline)
    else:
        plain = repeat(spec, args.seconds, MIN_REPS, deadline)
    verify = run_children_concurrently(
        verification_specs(args), timeout=max(1.0, deadline - time.monotonic())
    )

    problems: List[str] = []
    for rep in plain + traced + verify:
        problems.extend(f"pid {rep['pid']}: {p}" for p in rep["problems"])
    problems.extend(determinism_problems(verify, plain + traced))
    for rep in traced:
        layers = layer_metrics(rep)
        if layers["trace.unattributed_s"] < 0:
            problems.append("layer self times exceed the traced wall time")
    sim = verify[0]["sim"]
    if args.scale == "bench" and sim["beyond_p95"] < 10:
        problems.append(f"only {sim['beyond_p95']} completed queries beyond p95")

    if args.trace:
        values = per_layer_metrics(plain, traced)
        units = PER_LAYER
    else:
        values = end_to_end_metrics(plain)
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    record = {
        "manifest": manifest(args, verify[0]["params"], verify[0], len(plain), len(traced)),
        "correct": not problems,
        "problems": problems,
        "attempted": sum(r["offered"] for r in plain + traced),
        "failed": sum(r["failed"] for r in plain + traced),
        "metrics": metrics,
        "reps": [
            {k: r[k] for k in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb", "host_speed",
                               "setup_speed")}
            for r in plain
        ],
        "traced_reps": [layer_metrics(r) for r in traced],
        "sim": sim,
        # terminal states of one run of the seed
        "run_outcome": {k: verify[0][k] for k in ("offered", "finished", "failed", "rejected")},
        "elapsed_s": time.monotonic() - started,
    }
    return record


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("bench", "tiny"), default="bench",
                        help="input size; 'tiny' is for the smoke tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the simulator sources are missing ({SRC / 'repro'})",
              file=sys.stderr)
        return 2
    try:
        record = run_benchmark(args)
    except (ChildError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(record, sort_keys=True))
    for problem in record["problems"]:
        print(f"gate failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
