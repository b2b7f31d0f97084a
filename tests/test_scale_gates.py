"""Round-5 scale-debt fixes, pinned.

1. The measured broadcast size gate (`stages/shuffle.attach_lookup` /
   `broadcast_or_bucketed`): forcing gate_bytes=1 routes every
   orders-sized side through `bucketed_join` instead of a ray.put dict,
   and the gated queries stay bit-exact against their DuckDB oracles
   through that path (strategy invariance).
2. Bucket-count invariance: the explicit shuffles are pure parallelism
   knobs — B=3 and B=17 produce identical frames.

Hot-key salting is `joins.salted_group_agg` (pinned with an 80%-hot key
in `tests/test_joins.py::test_salted_group_agg_matches_plain_sum`).
"""
from __future__ import annotations

import sys
from pathlib import Path

import pandas as pd
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

SF = "/root/testdata/sf0.001"


def _oracle(name: str):
    import __ray_entry__ as E
    return E.oracle_sql()[name]


@pytest.mark.parametrize("name,fn_path", [
    ("returned_item_customers",
     "vbpl_web_crawl_ray.pipelines.relational4:q_returned_item_customers"),
    ("late_ship_orders",
     "vbpl_web_crawl_ray.pipelines.relational5:q_late_ship_orders"),
    ("linestatus_priority_counts",
     "vbpl_web_crawl_ray.pipelines.relational5:q_linestatus_priority_counts"),
    ("nation_pair_trade",
     "vbpl_web_crawl_ray.pipelines.relational5:q_nation_pair_trade"),
    ("nation_share_of_region",
     "vbpl_web_crawl_ray.pipelines.relational5:q_nation_share_of_region"),
    ("q3_shipping_priority",
     "vbpl_web_crawl_ray.pipelines.relational3:q_q3_shipping_priority"),
])
def test_forced_bucketed_path_bit_exact(ray_session, name, fn_path):
    """gate_bytes=1 forces the bucketed_join fallback for every gated
    attach; output must still hash-match the DuckDB oracle."""
    from util_compare import assert_match
    mod_name, fn_name = fn_path.split(":")
    import importlib
    fn = getattr(importlib.import_module(mod_name), fn_name)
    assert_match(fn(SF, gate_bytes=1), _oracle(name), SF, name)


def test_broadcast_or_bucketed_modes(ray_session):
    import ray.data as rd
    from vbpl_web_crawl_ray.stages.shuffle import broadcast_or_bucketed
    side = rd.read_parquet(f"{SF}/nation.parquet")
    mode, small = broadcast_or_bucketed(side)
    assert mode == "broadcast" and isinstance(small, pd.DataFrame)
    mode, ds = broadcast_or_bucketed(side, gate_bytes=1)
    assert mode == "bucketed"
    pd.testing.assert_frame_equal(ds.to_pandas(), small)


@pytest.mark.parametrize("gate_bytes", [None, 1])
def test_gate_executes_derived_side_once(ray_session, monkeypatch,
                                         gate_bytes):
    """A derived side (map_batches over a read) runs one Ray Data
    execution per gate, whichever path the gate picks; the bucketed
    side comes back materialized, so consuming it executes nothing."""
    import ray.data as rd
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor)
    from vbpl_web_crawl_ray.stages.shuffle import broadcast_or_bucketed
    runs = []
    execute = StreamingExecutor.execute

    def counted(self, *a, **kw):
        runs.append(1)
        return execute(self, *a, **kw)

    monkeypatch.setattr(StreamingExecutor, "execute", counted)
    side = rd.read_parquet(f"{SF}/nation.parquet").map_batches(
        lambda df: df[["n_nationkey", "n_regionkey"]], batch_format="pandas")
    mode, got = broadcast_or_bucketed(side, gate_bytes=gate_bytes)
    assert len(runs) == 1
    if mode == "bucketed":
        got = got.to_pandas()
        assert len(runs) == 1
    assert mode == ("broadcast" if gate_bytes is None else "bucketed")
    assert sorted(got["n_nationkey"]) == list(range(25))


def test_bucket_count_invariance(ray_session, monkeypatch):
    """B is a parallelism knob only: identical frames at B=3 and B=17."""
    from vbpl_web_crawl_ray.pipelines.relational4 import (
        q_above_customer_avg_orders)
    frames = []
    for b in ("3", "17"):
        monkeypatch.setenv("GRAFT_NUM_BUCKETS", b)
        frames.append(q_above_customer_avg_orders(SF))
    monkeypatch.delenv("GRAFT_NUM_BUCKETS")
    pd.testing.assert_frame_equal(frames[0], frames[1])


def test_resolve_num_buckets_precedence(monkeypatch):
    from vbpl_web_crawl_ray.stages.shuffle import resolve_num_buckets
    assert resolve_num_buckets(5) == 5
    monkeypatch.setenv("GRAFT_NUM_BUCKETS", "12")
    assert resolve_num_buckets() == 12
    monkeypatch.delenv("GRAFT_NUM_BUCKETS")
    b = resolve_num_buckets()
    assert 8 <= b <= 256
