"""Tests for distributed query execution over the simulated ring.

The headline property: a :class:`RingDatabase` answers every query
*identically* to the local :class:`Database`, while the data travelled
the storage ring (queries on non-owner nodes trigger loads).
"""

import numpy as np
import pytest

from repro.core import DataCyclotronConfig
from repro.dbms import Database
from repro.dbms.bat import BAT
from repro.dbms.executor import OperatorCostModel, RingDatabase


def make_data(seed=3, n=400):
    rng = np.random.default_rng(seed)
    items = {
        "id": np.arange(n),
        "price": np.round(rng.random(n) * 100, 2),
        "qty": rng.integers(1, 10, n),
    }
    orders = {
        "item_id": rng.integers(0, n, n // 2),
        "amount": np.round(rng.random(n // 2) * 10, 2),
    }
    return items, orders


QUERIES = [
    "SELECT count(*) n FROM items WHERE price > 50",
    "SELECT sum(price * qty) s FROM items WHERE qty >= 5",
    "SELECT id, price FROM items WHERE price BETWEEN 10 AND 20 ORDER BY price LIMIT 5",
    "SELECT items.id, amount FROM items, orders "
    "WHERE orders.item_id = items.id AND price > 80 ORDER BY amount DESC LIMIT 4",
    "SELECT item_id, sum(amount) s, count(*) n FROM orders "
    "GROUP BY item_id ORDER BY s DESC LIMIT 5",
]


@pytest.fixture(scope="module")
def rings():
    items, orders = make_data()
    local = Database()
    local.load_table("items", items)
    local.load_table("orders", orders)
    ring = RingDatabase(DataCyclotronConfig(n_nodes=4, seed=2))
    ring.load_table("items", items, rows_per_partition=100)
    ring.load_table("orders", orders, rows_per_partition=50)
    return local, ring


@pytest.mark.parametrize("sql", QUERIES)
def test_distributed_matches_local(rings, sql):
    local, ring = rings
    handle = ring.submit(sql, node=1, arrival=ring.dc.sim.now)
    assert ring.run_until_done(max_time=600.0)
    assert handle.result is not None, "query failed on the ring"
    assert handle.result.rows() == local.query(sql).rows()


def test_concurrent_queries_from_all_nodes():
    items, orders = make_data(seed=9)
    ring = RingDatabase(DataCyclotronConfig(n_nodes=4, seed=5))
    ring.load_table("items", items, rows_per_partition=100)
    ring.load_table("orders", orders, rows_per_partition=100)
    handles = [
        ring.submit(QUERIES[i % len(QUERIES)], node=i % 4, arrival=0.002 * i)
        for i in range(8)
    ]
    assert ring.run_until_done(max_time=600.0)
    assert all(h.done and h.result is not None for h in handles)
    # at least one partition actually travelled the ring
    assert any(s.loads > 0 for s in ring.metrics.bats.values())


def test_remote_query_takes_longer_than_net_time():
    items, orders = make_data()
    ring = RingDatabase(DataCyclotronConfig(n_nodes=4, seed=1))
    ring.load_table("items", items)
    handle = ring.submit("SELECT count(*) n FROM items WHERE price > 1", node=2)
    assert ring.run_until_done(max_time=600.0)
    lifetime = ring.metrics.queries[handle.query_id].lifetime
    assert lifetime > 0


def test_query_on_owner_node_is_local():
    items, _ = make_data()
    ring = RingDatabase(DataCyclotronConfig(n_nodes=2, seed=1))
    ring.load_table("items", items)  # single partitions, round-robin owners
    owner_of_first = ring.dc.bat_owner(0)
    handle = ring.submit("SELECT count(*) n FROM items", node=owner_of_first)
    assert ring.run_until_done(max_time=600.0)
    assert handle.result is not None


def test_cost_model_charges_for_bytes():
    model = OperatorCostModel(throughput=1e6, fixed=0.0)
    b = BAT.dense(np.zeros(1000, dtype=np.float64))  # 8000 bytes
    assert model.cost((b,), None) == pytest.approx(8000 / 1e6)
    assert model.cost((b, b), b) == pytest.approx(24000 / 1e6)
    assert model.cost(("literal", 3), None) == 0.0


def test_cost_model_counts_tuple_results():
    model = OperatorCostModel(throughput=1e6, fixed=0.0)
    b = BAT.dense(np.zeros(10, dtype=np.float64))
    assert model.cost((), (b, b)) == pytest.approx(160 / 1e6)


def test_cost_model_validation():
    with pytest.raises(ValueError):
        OperatorCostModel(throughput=0)


def test_submit_validation():
    ring = RingDatabase(DataCyclotronConfig(n_nodes=2))
    ring.load_table("t", {"x": [1]})
    with pytest.raises(ValueError):
        ring.submit("SELECT x FROM t", node=7)


def test_submit_bad_sql_raises_synchronously():
    from repro.dbms.sql import SqlError

    ring = RingDatabase(DataCyclotronConfig(n_nodes=2))
    ring.load_table("t", {"x": [1]})
    with pytest.raises(SqlError):
        ring.submit("SELECT nope FROM nowhere", node=0)
    with pytest.raises(SqlError):
        ring.submit("THIS IS NOT SQL", node=0)


def test_handles_record_submissions():
    ring = RingDatabase(DataCyclotronConfig(n_nodes=2, seed=1))
    ring.load_table("t", {"x": [1, 2, 3]})
    h1 = ring.submit("SELECT x FROM t", node=0)
    h2 = ring.submit("SELECT count(*) n FROM t", node=1, arrival=0.1)
    assert ring.handles == {h1.query_id: h1, h2.query_id: h2}
    assert not h1.done
    assert h1.result is None  # not finished yet
    assert ring.run_until_done(max_time=60.0)
    assert h1.done and h2.done
    assert h2.result.rows() == [(3,)]
    assert ring.handles == {}
