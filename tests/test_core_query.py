"""Unit tests for query specs and the query process."""

import pytest

from repro.core import PinStep, QuerySpec
from repro.core.messages import BATMessage, RequestMessage

from helpers import MB, build_dc


# ----------------------------------------------------------------------
# QuerySpec
# ----------------------------------------------------------------------
def test_simple_spec_shape():
    spec = QuerySpec.simple(1, node=0, arrival=2.0, bat_ids=[7, 8],
                            processing_times=[0.1, 0.2])
    assert spec.steps == [PinStep(7, 0.0), PinStep(8, 0.1)]
    assert spec.tail_time == 0.2
    assert spec.net_execution_time == pytest.approx(0.3)
    assert spec.bat_ids == [7, 8]


def test_bat_ids_deduplicate_in_order():
    spec = QuerySpec(
        query_id=1, node=0, arrival=0.0,
        steps=[PinStep(5), PinStep(3), PinStep(5)],
    )
    assert spec.bat_ids == [5, 3]


def test_spec_validation():
    with pytest.raises(ValueError):
        QuerySpec(query_id=1, node=0, arrival=-1.0, steps=[PinStep(1)])
    with pytest.raises(ValueError):
        QuerySpec(query_id=1, node=0, arrival=0.0, steps=[], tail_time=-1)
    with pytest.raises(ValueError):
        QuerySpec.simple(1, 0, 0.0, [1], [0.1, 0.2])
    with pytest.raises(ValueError):
        QuerySpec.simple(1, 0, 0.0, [], [])


# ----------------------------------------------------------------------
# message sanity
# ----------------------------------------------------------------------
def test_bat_message_wire_size():
    msg = BATMessage(owner=0, bat_id=1, size=1000, loi=1.0)
    assert msg.wire_size(64) == 1064


def test_request_message_fields():
    msg = RequestMessage(origin=3, bat_id=9)
    assert msg.hops == 0
    assert msg.min_version == 0


# ----------------------------------------------------------------------
# the query process
# ----------------------------------------------------------------------
def test_pin_order_follows_steps():
    """Pins are issued sequentially: the second pin only after the first
    BAT arrived plus its operator time."""
    dc = build_dc(n_nodes=3, bats={1: MB, 2: MB}, owners={1: 1, 2: 1})
    spec = QuerySpec(
        query_id=0, node=0, arrival=0.0,
        steps=[PinStep(1, 0.0), PinStep(2, 0.5)],
        tail_time=0.1,
    )
    dc.submit(spec)
    assert dc.run_until_done(max_time=30.0)
    rec = dc.metrics.queries[0]
    # the 0.5 s operator burst plus the 0.1 s tail bound the lifetime
    assert rec.lifetime >= 0.6


def test_repeated_bat_second_pin_hits_cache():
    """A plan pinning the same BAT twice gets the second pin from the
    local cache (it is still pinned)."""
    dc = build_dc(n_nodes=3, bats={1: MB}, owners={1: 1})
    spec = QuerySpec(
        query_id=0, node=0, arrival=0.0,
        steps=[PinStep(1, 0.0), PinStep(1, 0.05)],
        tail_time=0.05,
    )
    dc.submit(spec)
    assert dc.run_until_done(max_time=30.0)
    assert dc.metrics.finished_count() == 1
    assert dc.metrics.bats[1].pins == 2


def test_query_failure_cleans_up():
    dc = build_dc(n_nodes=3, bats={1: MB}, owners={1: 1})
    node = dc.nodes[0]
    spec = QuerySpec(
        query_id=0, node=0, arrival=0.0,
        steps=[PinStep(1, 0.0), PinStep(999, 0.0)],  # 999 does not exist
    )
    # bypass facade validation to exercise the failure path
    from repro.core.query import query_process
    from repro.sim.process import Process

    dc._submitted += 1
    Process(dc.sim, query_process(node, spec))
    assert dc.run_until_done(max_time=30.0)
    rec = dc.metrics.queries[0]
    assert rec.failed
    assert len(node.s2) == 0
    assert len(node.s3) == 0
    assert node.pinned_bytes == 0  # pinned BAT 1 was released


def test_zero_op_times_allowed():
    dc = build_dc(n_nodes=2, bats={1: MB}, owners={1: 1})
    spec = QuerySpec(query_id=0, node=0, arrival=0.0, steps=[PinStep(1)],
                     tail_time=0.0)
    dc.submit(spec)
    assert dc.run_until_done(max_time=30.0)
    assert dc.metrics.finished_count() == 1


def test_crash_during_tail_fails_the_query():
    from repro.events import types as ev

    dc = build_dc(n_nodes=3, bats={1: MB}, owners={1: 0})
    outcomes = []
    dc.bus.subscribe_many([ev.QueryFinished, ev.QueryFailed], outcomes.append)
    dc.submit(QuerySpec(query_id=0, node=0, arrival=0.0, steps=[PinStep(1)],
                        tail_time=1.0))
    dc.sim.schedule(0.5, dc.nodes[0].crash)  # mid-tail: the BAT is local
    assert dc.run_until_done(max_time=30.0)
    assert len(outcomes) == 1
    assert isinstance(outcomes[0], ev.QueryFailed)
    assert outcomes[0].error == "NODE_CRASHED"
