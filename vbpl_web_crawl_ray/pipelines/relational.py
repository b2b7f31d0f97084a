"""Relational / analytical conformance queries (driver contract, FIXTURES.md F8).

Each function maps one operator family from SURVEY.md §2 onto the driver's
TPC-H-ish parquet tables and has a DuckDB oracle twin in ``ORACLE_SQL``.
Pruned-column base-table reads feed vectorized ``map_batches`` bodies.
Grouped rollups go through ``shuffle.reduce_partials`` (one row per key
per block, regrouped on the driver); per-key logic that needs a group's
rows, and the one large-large join, run over the task exchange
(``shuffle.bucketed_group_apply`` / ``bucketed_join``); small sides ship
as broadcasts. No query here runs a Ray Data all-to-all except the O1
global sort of ``q_filter_sort_limit``.

Column names of every computed column match the oracle SQL exactly; float
aggregates are rounded to 4 decimals on both sides so value-hash comparison
is stable across summation orders.
"""

from __future__ import annotations

import pandas as pd
import ray
import ray.data as rd

from ..functions.numeric import round_half_away
from ..stages.shuffle import (broadcast_get, bucketed_group_apply,
                              bucketed_join, reduce_partials)
from ..stages.upsert import last_write_wins
from ..sources.tablecache import base_dataset, base_pandas


def _read(sf_dir: str, table: str, columns: list[str] | None = None) -> rd.Dataset:
    """Pruned-column base-table read, decode shared across the suite
    (sources/tablecache); with the cache off, only requested columns
    leave storage."""
    return base_dataset(sf_dir, table, columns=columns)


def _round4(df: pd.DataFrame, cols: list[str]) -> pd.DataFrame:
    for c in cols:
        df[c] = round_half_away(df[c].to_numpy(), 4)
    return df


# ---------------------------------------------------------------------------
# A-family: aggregations (SURVEY.md §2.5) — partial-aggregate combiner pattern
# ---------------------------------------------------------------------------

def q_pricing_summary(sf_dir: str):
    """Grouped numeric rollup (pattern of A7's per-key merges at scale).

    Pre-aggregates per block (one row per key per block), then a small
    driver merge — O(keys x blocks) rows move, not O(rows).
    """
    ds = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice",
                "l_discount", "l_tax", "l_shipdate"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["l_shipdate"] <= pd.Timestamp("1998-09-02")]
        df = df.assign(
            disc_price=df["l_extendedprice"] * (1 - df["l_discount"]),
            charge=df["l_extendedprice"] * (1 - df["l_discount"]) * (1 + df["l_tax"]),
        )
        g = df.groupby(["l_returnflag", "l_linestatus"], as_index=False).agg(
            sum_qty=("l_quantity", "sum"),
            sum_base_price=("l_extendedprice", "sum"),
            sum_disc_price=("disc_price", "sum"),
            sum_charge=("charge", "sum"),
            count_order=("l_quantity", "size"),
        )
        return g

    out = reduce_partials(ds, ["l_returnflag", "l_linestatus"], partial)
    out["avg_qty"] = out["sum_qty"] / out["count_order"]
    out["avg_price"] = out["sum_base_price"] / out["count_order"]
    return _round4(out, ["sum_qty", "sum_base_price", "sum_disc_price",
                         "sum_charge", "avg_qty", "avg_price"])


def q_count_per_source(sf_dir: str):
    """A1/A3-style counts: docs + chars per source."""
    ds = _read(sf_dir, "documents", ["source", "n_chars"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("source", as_index=False).agg(
            n_docs=("n_chars", "size"), total_chars=("n_chars", "sum"))

    return reduce_partials(ds, "source", partial)


def q_tumbling_window(sf_dir: str):
    """Streaming-shaped tumbling 1h window aggregate (SURVEY.md §2.8):
    events as an ordered log, window = floor(epoch/3600)."""
    ds = _read(sf_dir, "events", ["user_id", "ts", "value"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        win = (df["ts"].astype("datetime64[s]").astype("int64") // 3600).astype("int64")
        df = df.assign(window_id=win)
        return df.groupby(["user_id", "window_id"], as_index=False).agg(
            sum_value=("value", "sum"), n_events=("value", "size"))

    def final(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby(["user_id", "window_id"], as_index=False).agg(
            sum_value=("sum_value", "sum"), n_events=("n_events", "sum"))
        return _round4(out, ["sum_value"])

    return bucketed_group_apply(ds, "user_id", final,
                                partial_fn=partial)


# ---------------------------------------------------------------------------
# O-family: sort / limit / top-k (SURVEY.md §2.6)
# ---------------------------------------------------------------------------

def q_filter_sort_limit(sf_dir: str):
    """O1: filter -> global sort desc -> limit k (reference preview query,
    app/service/vbpl.py:1145-1147). The predicate pushes down to the
    parquet read (row-group pruning); tie-broken by key for determinism."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    path = f"{sf_dir}/orders.parquet"
    cols = ["o_orderkey", "o_custkey", "o_totalprice", "o_orderdate"]
    # The read schema drops the file's pandas metadata (Ray Data cannot
    # hash such a schema, so the sort would skip schema de-duplication).
    # Ray Data wants it to name exactly the columns read, and the scan
    # wants the filter column in it, so that column is read and dropped.
    read = cols + ["o_orderstatus"]
    file_schema = pq.read_schema(path)
    ds = rd.read_parquet(
        path, columns=read,
        schema=pa.schema([file_schema.field(c) for c in read]),
        filter=pc.field("o_orderstatus") == "O").select_columns(cols)
    return ds.sort(["o_totalprice", "o_orderkey"], descending=[True, False]).limit(10)


def q_latest_event_per_user(sf_dir: str):
    """A6/O2: per-key argmax by (ts, event_id) — the engine form of the
    reference's order_by(updated_at.desc()).first() latest-version pick
    (app/service/vbpl.py:1091)."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "event_type", "value"])
    return last_write_wins(ds, ["user_id"], ["ts", "event_id"]) \
        .map_batches(lambda df: df[["user_id", "ts", "event_type", "value"]],
                     batch_format="pandas")


def q_lww_upsert(sf_dir: str):
    """A7: last-write-wins per composite key (user_id, event_type) — the
    upsert-merge semantics of push_vbpl_to_db (app/service/vbpl.py:186-252)."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "event_type", "value"])
    return last_write_wins(ds, ["user_id", "event_type"], ["ts", "event_id"]) \
        .map_batches(lambda df: df[["user_id", "event_type", "value"]]
                     .rename(columns={"value": "last_value"}),
                     batch_format="pandas")


def q_topk_per_group(sf_dir: str):
    """Top-2 orders per customer by price: per-group top-k inside each
    customer-hash bucket, with the same top-2 as a per-block combiner."""
    ds = _read(sf_dir, "orders", ["o_custkey", "o_orderkey", "o_totalprice"])

    def top2(g: pd.DataFrame) -> pd.DataFrame:
        return (g.sort_values(["o_totalprice", "o_orderkey"],
                              ascending=[False, True])
                 .groupby("o_custkey", as_index=False).head(2))

    # top2 is also a valid per-batch combiner (top-k is mergeable)
    return bucketed_group_apply(ds, "o_custkey", top2,
                                partial_fn=top2)


# ---------------------------------------------------------------------------
# J-family: joins / lookups (SURVEY.md §2.4)
# ---------------------------------------------------------------------------

def q_join_revenue_by_priority(sf_dir: str):
    """J2: large-large hash join lineitem x orders, then grouped rollup.

    One ``bucketed_join`` (a hash exchange of both sides over plain Ray
    tasks) and a two-phase rollup. At sf0.1, 4 Ray CPUs on one host core,
    a call took 0.35-0.42 s against 2.07-2.33 s for Ray Data's actor-pool
    hash join on the same shape."""
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"])
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
    joined = bucketed_join(li, orders, on="l_orderkey", right_on="o_orderkey")

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df.assign(revenue=df["l_extendedprice"] * (1 - df["l_discount"]))
        return df.groupby("o_orderpriority", as_index=False).agg(
            revenue=("revenue", "sum"), n_items=("revenue", "size"))

    return _round4(reduce_partials(joined, "o_orderpriority", partial),
                   ["revenue"])


def q_broadcast_dim_join(sf_dir: str):
    """Broadcast map-join: customer x nation x region with the dims shipped
    once via ray.put — no shuffle (the J3 lookup-join pattern)."""
    nation = base_pandas(sf_dir, "nation")
    region = base_pandas(sf_dir, "region")
    nk_to_rname = dict(zip(
        nation["n_nationkey"],
        nation["n_regionkey"].map(dict(zip(region["r_regionkey"], region["r_name"])))))
    ref = ray.put(nk_to_rname)

    cust = _read(sf_dir, "customer", ["c_nationkey", "c_acctbal"])

    def broadcast_join(df: pd.DataFrame) -> pd.DataFrame:
        df = df.assign(r_name=df["c_nationkey"].map(broadcast_get(ref)))
        return df.groupby("r_name", as_index=False).agg(
            n_customers=("c_acctbal", "size"), total_acctbal=("c_acctbal", "sum"))

    return _round4(reduce_partials(cust, "r_name", broadcast_join),
                   ["total_acctbal"])


def q_anti_join(sf_dir: str):
    """J1 insert-branch: left-anti join via broadcast key set — customers
    with no 'P'-status order (the engine form of the PK-miss probe)."""
    o = base_pandas(sf_dir, "orders", columns=["o_custkey", "o_orderstatus"])
    keys = set(o.loc[o["o_orderstatus"] == "P", "o_custkey"].unique().tolist())
    ref = ray.put(keys)
    cust = _read(sf_dir, "customer", ["c_custkey", "c_name"])

    def anti(df: pd.DataFrame) -> pd.DataFrame:
        seen = broadcast_get(ref)
        return df[~df["c_custkey"].isin(seen)]

    return cust.map_batches(anti, batch_format="pandas")


def q_semi_join(sf_dir: str):
    """J1 update-branch: semi join via broadcast key set — parts that appear
    in lineitem."""
    keys = set(base_pandas(sf_dir, "lineitem", columns=["l_partkey"])["l_partkey"].unique().tolist())
    ref = ray.put(keys)
    part = _read(sf_dir, "part", ["p_partkey", "p_name"])

    def semi(df: pd.DataFrame) -> pd.DataFrame:
        seen = broadcast_get(ref)
        return df[df["p_partkey"].isin(seen)]

    return part.map_batches(semi, batch_format="pandas")


def q_string_agg_per_nation(sf_dir: str):
    """A5: per-group ordered string concat (' - ' join of sectors,
    app/service/vbpl.py:1253) — customers per nation."""
    nation = base_pandas(sf_dir, "nation", columns=["n_nationkey", "n_name"])
    lookup = ray.put(dict(zip(nation["n_nationkey"], nation["n_name"])))
    cust = _read(sf_dir, "customer", ["c_nationkey", "c_name"])

    def add_nation(df: pd.DataFrame) -> pd.DataFrame:
        return df.assign(n_name=df["c_nationkey"].map(broadcast_get(lookup)))

    def agg(g: pd.DataFrame) -> pd.DataFrame:
        return (g.sort_values("c_name")
                 .groupby("n_name", as_index=False)
                 .agg(customers=("c_name", " - ".join), n=("c_name", "size")))

    return bucketed_group_apply(cust, "n_name", agg, partial_fn=add_nation)


# ---------------------------------------------------------------------------
# M-family: projections / extraction (SURVEY.md §2.2)
# ---------------------------------------------------------------------------

def q_props_extract(sf_dir: str):
    """M15-style vectorized regex extraction from a semi-structured column
    ('(?<=ItemID=)\\d+' analogue, app/service/vbpl.py:140) + rollup."""
    ds = _read(sf_dir, "events", ["event_type", "props"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        k = df["props"].str.extract(r'"k": (\d+)', expand=False).astype("int64")
        df = df.assign(k=k)
        return df.groupby("event_type", as_index=False).agg(
            sum_k=("k", "sum"), n=("k", "size"))

    out = reduce_partials(ds, "event_type", partial)
    out["avg_k"] = round_half_away((out["sum_k"] / out["n"]).to_numpy(), 4)
    return out[["event_type", "avg_k", "n"]]


def q_sessionize(sf_dir: str):
    """Session windows (30-min inactivity gap) per user — the stateful
    streaming-shaped operator (SURVEY.md §2.8) as sort-within-group."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def sessions_bucket(g: pd.DataFrame) -> pd.DataFrame:
        # vectorized across the whole bucket: session breaks computed over
        # user-sorted rows with a per-user reset — no per-user Python loop
        g = g.sort_values(["user_id", "ts", "event_id"])
        same_user = g["user_id"].eq(g["user_id"].shift())
        gap = g["ts"].diff() > pd.Timedelta(minutes=30)
        new_sess = (~same_user) | gap
        sess_raw = new_sess.cumsum()
        g = g.assign(session_id=(sess_raw - sess_raw.groupby(g["user_id"])
                                 .transform("min") + 1).astype("int64"))
        out = g.groupby(["user_id", "session_id"], as_index=False).agg(
            n_events=("value", "size"), sum_value=("value", "sum"),
            session_start=("ts", "min"))
        out["sum_value"] = round_half_away(out["sum_value"].to_numpy(), 4)
        return out

    return bucketed_group_apply(ds, "user_id", sessions_bucket)
