"""Smoke tests for the benchmark at tiny scale.

Run from the repository root: ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from gates import determinism_problems, terminal_problems  # noqa: E402
from workloads import WORKLOADS, PaperRing, SqlFrontDoor  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        capture_output=True, text=True, cwd=str(cwd), timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in CONTRACT["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0.5",
                "--trace", str(trace), "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = CONTRACT["per_layer"] if trace else CONTRACT["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    record = json.loads(proc.stdout.strip().splitlines()[-2])
    for key in ("seed", "params_sha256", "hardware_cores", "python", "numpy",
                "sim.events", "digest", "git_sha", "source_sha256"):
        assert key in record["manifest"]


def test_workload_names_match_the_contract():
    from run import WORKLOAD_NAMES

    named = sorted(w["name"] for w in CONTRACT["workloads"])
    assert sorted(WORKLOADS) == named == sorted(WORKLOAD_NAMES)


def test_gate_catches_a_wrong_result():
    workload = SqlFrontDoor(seed=1, scale="tiny")
    workload.setup()
    assert workload.run()
    assert workload.result_problems() == []
    ticket = next(
        t for t in workload.door.tickets.values()
        if t.outcome == "finished" and t.handle.engine == "kv"
    )
    ticket.handle.process._result = ticket.handle.result + 1.0
    problems = workload.result_problems()
    assert len(problems) == 1
    assert f"query {ticket.query_id}" in problems[0]


def test_gate_catches_a_query_that_never_finishes():
    workload = PaperRing(seed=1, scale="tiny")
    workload.setup()
    done = workload.run(max_time=0.05)
    problems = terminal_problems(workload.outcome(), done)
    assert not done
    assert any("never reached a terminal state" in p for p in problems)
    assert "run_until_done returned False" in problems


def test_door_refusals_are_terminal():
    outcome = {"offered": 4, "finished": 2, "failed": 1, "rejected": 1}
    assert terminal_problems(outcome, True) == []
    problems = terminal_problems(dict(outcome, rejected=0), True)
    assert problems == ["1 offered queries never reached a terminal state"]


def test_determinism_gate_catches_a_diverging_run():
    sim = {"sim_latency_mean_s": 1.0, "sim_latency_p95_s": 2.0,
           "sim_throughput_qps": 3.0, "completed_share": 1.0}
    same = {"digest": "a", "sim_events": 10, "sim": sim}
    assert determinism_problems([same, dict(same)], [dict(same)]) == []
    other = dict(same, digest="b", sim_events=11)
    problems = determinism_problems([same, other], [])
    assert any("digests differ" in p for p in problems)
    assert any("sim.events differs" in p for p in problems)


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "paper-ring", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
