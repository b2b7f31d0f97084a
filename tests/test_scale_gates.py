"""Round-5 scale-debt fixes, pinned.

1. The measured broadcast size gate (`stages/shuffle.attach_lookup` /
   `broadcast_or_bucketed`): forcing gate_bytes=1 routes every
   orders-sized side through `bucketed_join` instead of a ray.put dict,
   and the gated queries stay bit-exact against their DuckDB oracles
   through that path (strategy invariance).
2. Bucket-count invariance: the explicit shuffles are pure parallelism
   knobs — B=3 and B=17 produce identical frames.
3. Hot-key salting: `salted_bucket_of` spreads a key holding 50% of the
   rows across sub-buckets while a mergeable partial keeps the result
   exact.
"""
from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
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
    assert mode == "bucketed" and ds is side


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


def test_salted_hot_key(ray_session):
    """A key holding 50% of rows splits across sub-buckets under
    salted_bucket_of; the two-stage mergeable sum stays exact."""
    import ray.data as rd
    from vbpl_web_crawl_ray.stages.shuffle import (
        bucketed_group_apply, salted_bucket_of, bucket_of)

    n = 20_000
    rng = np.random.default_rng(7)
    keys = np.where(rng.random(n) < 0.5, 0,
                    rng.integers(1, 1000, n)).astype(np.int64)
    vals = rng.integers(0, 100, n).astype(np.int64)
    df = pd.DataFrame({"k": keys, "v": vals})

    bucketer = salted_bucket_of(
        hot_keys=[0],
        salt_of=lambda d: d["v"].to_numpy(np.int64),
        num_salts=8)

    # the hot key's rows land in >1 bucket under the salted bucketer,
    # while the plain bucketer puts them all in one
    hot = df[df["k"] == 0]
    plain = np.unique(bucket_of(hot["k"].to_numpy(), 16))
    salted = np.unique(bucketer(hot, "k", 16))
    assert len(plain) == 1 and len(salted) > 1

    def partial(d: pd.DataFrame) -> pd.DataFrame:
        return d.groupby("k", as_index=False)["v"].sum()

    out = (bucketed_group_apply(
        rd.from_pandas(df), "k", partial, num_buckets=16,
        partial_fn=partial, bucketer=bucketer)
        .to_pandas().groupby("k", as_index=False)["v"].sum()
        .sort_values("k").reset_index(drop=True))
    expected = (df.groupby("k", as_index=False)["v"].sum()
                  .sort_values("k").reset_index(drop=True))
    pd.testing.assert_frame_equal(out, expected)
