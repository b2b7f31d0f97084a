"""Session-4 relational operators — the three remaining classic TPC-H
query SHAPES the surface did not yet exercise, each with a DuckDB oracle
twin and a stated 100-TB plan:

- q_returned_item_customers (Q10 shape): fact-side revenue rollup keyed
  by a dimension reached THROUGH another fact (lineitem -> orders ->
  customer) with names attached only for the k winners;
- q_promo_revenue_share (Q14 shape): a percentage-of-total per calendar
  bucket where the classifier is a broadcast dimension attribute;
- q_idle_balance_by_nation (Q22 shape): a global-aggregate-derived
  filter (balance above the positive mean) composed with an anti-join
  (customers with no orders) — the mean comparison cross-multiplies into
  exact integers so no engine-ordered float sum can move the boundary.

All money stays integer (cents, or 1e-4-dollar units for the
price x (1 - discount) product: 2-decimal price cents x integer
(100 - discount-pct) is exact int64) until the single stated division,
so every aggregate is order-free and bit-exact across engines.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray
import ray.data as rd

from ..functions.numeric import round_half_away
from ..sources.tablecache import base_dataset, base_pandas
from ..stages.shuffle import broadcast_get, group_cells, reduce_partials


def _read(sf_dir: str, table: str, columns: list[str] | None = None) -> rd.Dataset:
    return base_dataset(sf_dir, table, columns=columns)


def q_returned_item_customers(sf_dir: str, k: int = 20,
                              gate_bytes: int | None = None) -> pd.DataFrame:
    """TPC-H Q10's shape: which customers returned the most revenue.
    lineitem (returnflag = 'R') is the only big scan, collapsed per batch
    to per-orderkey integer revenue partials (cents x (100 - disc_pct),
    exact int64). The orderkey -> custkey hop goes through the measured
    size gate (``attach_lookup``): under it the orders key pair rides as
    ONE ray.put broadcast, past it the attach is a bucketed join on the
    orderkey — orders is fact-proportional, so at 100 TB the gate picks
    the join. Per-customer totals then close INSIDE custkey-hash buckets
    (a custkey never straddles buckets) and each bucket emits only its
    top-k candidates, so the driver merges B x k rows — never a
    per-customer table. Names/nations attach via a winner-key pruned
    read. Ties break on the customer key in both engines."""
    from ..stages.shuffle import attach_lookup, bucketed_group_apply

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_returnflag", "l_extendedprice",
                "l_discount"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["l_returnflag"] == "R"]
        ep = np.round(df["l_extendedprice"].to_numpy() * 100.0) \
            .astype(np.int64)
        d = np.round(df["l_discount"].to_numpy() * 100.0).astype(np.int64)
        return (pd.DataFrame({"l_orderkey": df["l_orderkey"].to_numpy(),
                              "revenue_u4": ep * (100 - d)})
                .groupby("l_orderkey", as_index=False).sum())

    parts = li.map_batches(partial, batch_format="pandas")
    side = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    withc = attach_lookup(parts, "l_orderkey", side, "o_orderkey",
                          ["o_custkey"], gate_bytes=gate_bytes)

    def topk_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        t = (pd.DataFrame({"c_custkey": g["o_custkey"].to_numpy(np.int64),
                           "revenue_u4": g["revenue_u4"].to_numpy(np.int64)})
             .groupby("c_custkey", as_index=False).sum())
        return (t.sort_values(["revenue_u4", "c_custkey"],
                              ascending=[False, True], kind="mergesort")
                 .head(k))

    cands = bucketed_group_apply(withc, "o_custkey",
                                 topk_in_bucket).to_pandas()
    agg = (cands.sort_values(["revenue_u4", "c_custkey"],
                             ascending=[False, True], kind="mergesort")
                .head(k))
    import pyarrow.dataset as pads
    cust = pads.dataset(f"{sf_dir}/customer.parquet").to_table(
        columns=["c_custkey", "c_name", "c_nationkey"],
        filter=pads.field("c_custkey").isin(
            agg["c_custkey"].tolist())).to_pandas()
    nation = base_pandas(sf_dir, "nation", columns=["n_nationkey", "n_name"])
    nmap = dict(zip(nation["n_nationkey"], nation["n_name"]))
    out = agg.merge(cust, on="c_custkey", how="left")
    return (pd.DataFrame({"c_custkey": out["c_custkey"].astype("int64"),
                          "c_name": out["c_name"],
                          "nation": out["c_nationkey"].map(nmap),
                          "revenue_u4": out["revenue_u4"].astype("int64")})
            .reset_index(drop=True))


def q_promo_revenue_share(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q14's shape: the monthly share of revenue coming from PROMO
    parts. The partkey -> is-promo key set broadcasts once, ungated
    (bounded by |part|, which is read to the driver to build it),
    lineitem is touched once emitting per-month (promo, total)
    integer-unit partials, and the close is ONE stated float chain per
    month — ROUND(100.0 * promo / total, 6), identical IEEE ops in both
    engines (the u4 sums stay < 2^53, so the int -> double casts are
    exact)."""
    part = _read(sf_dir, "part", ["p_partkey", "p_type"]).to_pandas()
    promo = ray.put(
        set(part.loc[part["p_type"] == "PROMO", "p_partkey"].tolist()))

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        ep = np.round(df["l_extendedprice"].to_numpy() * 100.0) \
            .astype(np.int64)
        d = np.round(df["l_discount"].to_numpy() * 100.0) \
            .astype(np.int64)
        u4 = ep * (100 - d)
        is_promo = df["l_partkey"].isin(broadcast_get(promo)).to_numpy()
        month = df["l_shipdate"].dt.to_period("M").dt.to_timestamp()
        return pd.DataFrame({"month": month,
                             "promo_u4": np.where(is_promo, u4, 0),
                             "total_u4": u4})

    out = reduce_partials(_read(sf_dir, "lineitem",
                                ["l_partkey", "l_shipdate",
                                 "l_extendedprice", "l_discount"]),
                          "month", partial)
    out["promo_share_pct"] = round_half_away(
        (100.0 * out["promo_u4"].to_numpy(np.float64))
        / out["total_u4"].to_numpy(np.float64), 6)
    return out


def q_idle_balance_by_nation(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q22's shape: per nation, the count and balance of
    above-average-balance customers who never placed an URGENT order
    (the synth gives every customer orders, so the lapsed segment is
    "no 1-URGENT order" — the anti-join is unchanged in shape). The
    "above the positive mean" gate cross-multiplies into exact integers
    (cents x n_pos > sum_pos_cents), so no float mean exists anywhere;
    the anti-join probes a broadcast set of urgent-order custkeys
    (bounded by |customer|; past the gate this is exactly
    q_bloom_anti_users' distributed-filter shape). Customer is scanned
    twice (tiny global partials, then the gated filter); per-nation
    integer-cents partials close on the driver."""
    cust = _read(sf_dir, "customer",
                 ["c_custkey", "c_nationkey", "c_acctbal"])

    def pos_partial(df: pd.DataFrame) -> pd.DataFrame:
        cents = np.round(df["c_acctbal"].to_numpy() * 100.0) \
            .astype(np.int64)
        pos = cents[cents > 0]
        return pd.DataFrame({"n_pos": [np.int64(len(pos))],
                             "sum_pos": [pos.sum(dtype=np.int64)]})

    pos = cust.map_batches(pos_partial, batch_format="pandas").to_pandas()
    n_pos = int(pos["n_pos"].sum())
    sum_pos = int(pos["sum_pos"].sum())

    def key_partial(df: pd.DataFrame) -> pd.DataFrame:
        urgent = df.loc[df["o_orderpriority"] == "1-URGENT", "o_custkey"]
        return pd.DataFrame({"k": urgent.unique()})

    has_urgent = set(_read(sf_dir, "orders",
                           ["o_custkey", "o_orderpriority"])
                     .map_batches(key_partial, batch_format="pandas")
                     .to_pandas()["k"])
    href = ray.put(has_urgent)

    def idle(df: pd.DataFrame) -> pd.DataFrame:
        cents = np.round(df["c_acctbal"].to_numpy() * 100.0) \
            .astype(np.int64)
        keep = (cents * n_pos > sum_pos) \
            & ~df["c_custkey"].isin(broadcast_get(href)).to_numpy()
        return pd.DataFrame({"c_nationkey": df["c_nationkey"].to_numpy()[keep],
                             "cents": cents[keep], "n": np.int64(1)})

    agg = reduce_partials(cust, "c_nationkey", idle)
    nation = base_pandas(sf_dir, "nation", columns=["n_nationkey", "n_name"])
    nmap = dict(zip(nation["n_nationkey"], nation["n_name"]))
    return (pd.DataFrame({"nation": agg["c_nationkey"].map(nmap),
                          "n_customers": agg["n"].astype("int64"),
                          "total_cents": agg["cents"].astype("int64")})
            .sort_values("nation").reset_index(drop=True))


def q_rfm_segments(sf_dir: str) -> pd.DataFrame:
    """RFM customer segmentation — the marketing cut behind curated
    audience tables: per-customer (recency = latest order, frequency =
    order count, monetary = integer cents) partials merge from one fact
    scan; each dimension then gets an exact NTILE(3) score over its
    stated total order (metric DESC, custkey — the standard first-(n%k)-
    buckets-take-ceil(n/k) fill, identical in both engines), and the 27
    (r,f,m) segment cells aggregate counts + cents. The per-customer
    close is dim-bounded (one row per customer); at store scale the
    tercile boundaries come from the count-of-counts histogram selection
    (key_skew_stats' path) instead of a driver sort."""
    o = _read(sf_dir, "orders",
              ["o_custkey", "o_totalprice", "o_orderdate"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        cents = np.round(df["o_totalprice"].to_numpy() * 100.0) \
            .astype(np.int64)
        return pd.DataFrame({"c_custkey": df["o_custkey"].to_numpy(),
                             "f": np.int64(1), "m": cents,
                             "r": df["o_orderdate"].to_numpy()})

    c = reduce_partials(o, "c_custkey", partial, agg={"r": "max"})

    def ntile3(order_key: np.ndarray, custkey: np.ndarray) -> np.ndarray:
        n = len(order_key)
        idx = np.lexsort((custkey, order_key))   # key asc, custkey asc
        base, rem = divmod(n, 3)
        bounds = np.cumsum([base + (i < rem) for i in range(3)])
        score = np.empty(n, dtype=np.int64)
        score[idx] = np.searchsorted(bounds, np.arange(n), side="right") + 1
        return score

    ck = c["c_custkey"].to_numpy()
    # DESC metric order == ASC on the negated key
    r_s = ntile3(-c["r"].to_numpy().astype("datetime64[us]").astype(np.int64),
                 ck)
    f_s = ntile3(-c["f"].to_numpy(np.int64), ck)
    m_s = ntile3(-c["m"].to_numpy(np.int64), ck)
    seg = pd.DataFrame({"r_score": r_s, "f_score": f_s, "m_score": m_s,
                        "n": np.int64(1), "cents": c["m"].to_numpy()})
    out = seg.groupby(["r_score", "f_score", "m_score"],
                      as_index=False).agg(n_customers=("n", "sum"),
                                          total_cents=("cents", "sum"))
    return (out.astype({c_: "int64" for c_ in out.columns})
               .sort_values(["r_score", "f_score", "m_score"])
               .reset_index(drop=True))


def q_yoy_growth(sf_dir: str) -> pd.DataFrame:
    """Year-over-year monthly revenue growth: per-month integer-cents
    partials merge from one fact scan (the calendar is bounded, so the
    month -> cents map is driver-tiny at any store size); each month
    pairs with the month exactly 12 back via the integer index
    y*12 + m (no interval arithmetic, no window), and the growth ratio
    is ONE division of exact int64 cents — identical IEEE both sides,
    unrounded. Months without a prior year drop (inner pairing)."""
    o = _read(sf_dir, "orders", ["o_orderdate", "o_totalprice"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        cents = np.round(df["o_totalprice"].to_numpy() * 100.0) \
            .astype(np.int64)
        month = df["o_orderdate"].dt.to_period("M").dt.to_timestamp()
        return pd.DataFrame({"month": month, "cents": cents})

    m = reduce_partials(o, "month", partial)
    idx = (m["month"].dt.year * 12 + m["month"].dt.month).to_numpy(np.int64)
    cents = dict(zip(idx, m["cents"].to_numpy(np.int64)))
    keep = np.array([i - 12 in cents for i in idx])
    cur = m.loc[keep].reset_index(drop=True)
    prev = np.array([cents[i - 12] for i in idx[keep]], dtype=np.int64)
    return (pd.DataFrame({
        "month": cur["month"],
        "cents": cur["cents"].astype("int64"),
        "prev_cents": prev,
        "yoy_ratio": cur["cents"].to_numpy(np.float64)
        / prev.astype(np.float64)})
        .sort_values("month").reset_index(drop=True))


def q_cume_dist_prices(sf_dir: str) -> pd.DataFrame:
    """CUME_DIST() per order within its priority — the remaining member
    of the rank-function family (rank/dense_rank/percent_rank/ntile are
    covered elsewhere): priorities co-locate whole in hash buckets, the
    numerator is one np.searchsorted(side='right') over the bucket's
    sorted price array (an exact integer — rows at or below mine), and
    the value is ONE division of exact integers — identical IEEE both
    sides, unrounded."""
    from ..stages.shuffle import bucketed_group_apply

    o = _read(sf_dir, "orders",
              ["o_orderkey", "o_orderpriority", "o_totalprice"])

    def dist(g: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for _, gg in g.groupby("o_orderpriority", sort=False):
            p = np.sort(gg["o_totalprice"].to_numpy())
            le = np.searchsorted(p, gg["o_totalprice"].to_numpy(),
                                 side="right").astype(np.int64)
            outs.append(pd.DataFrame({
                "o_orderkey": gg["o_orderkey"].to_numpy(),
                "o_orderpriority": gg["o_orderpriority"].to_numpy(),
                "cume_dist": le.astype(np.float64) / np.float64(len(gg))}))
        return pd.concat(outs, ignore_index=True)

    out = bucketed_group_apply(o, "o_orderpriority", dist).to_pandas()
    return out.sort_values("o_orderkey").reset_index(drop=True)


def q_fingerprint_hamming_histogram(sf_dir: str) -> pd.DataFrame:
    """Hamming-distance histogram between each document's 64-bit md5
    fingerprint and its successor in fingerprint order — the dedup-health
    diagnostic (a corpus of unrelated docs concentrates at ~32 bits;
    mass at small distances exposes near-identical fingerprint families).
    Fingerprints are per-batch md5 integer partials; the successor scan
    is the contrastive_pairs md5-ring shape (driver holds ONE uint64 per
    doc; at store scale the order is range-partitioned by fingerprint
    prefix and buckets stitch at their boundaries); popcount vectorizes
    as unpackbits over the xor'd byte view. Output: 65-row-bounded
    integer histogram."""
    import hashlib

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        fp = np.array([int(hashlib.md5(t.encode()).hexdigest()[:16], 16)
                       for t in df["text"]], dtype=np.uint64)
        return pd.DataFrame({"doc_id": df["doc_id"].to_numpy(), "fp": fp})

    f = (_read(sf_dir, "documents", ["doc_id", "text"])
         .map_batches(partial, batch_format="pandas").to_pandas())
    f = f.sort_values(["fp", "doc_id"], kind="mergesort")
    fp = f["fp"].to_numpy(np.uint64)
    x = fp[:-1] ^ fp[1:]
    ham = (np.unpackbits(x.view(np.uint8).reshape(-1, 8), axis=1)
           .sum(axis=1).astype(np.int64))
    out = (pd.DataFrame({"hamming": ham, "n": np.int64(1)})
           .groupby("hamming", as_index=False)["n"].sum()
           .rename(columns={"n": "n_pairs"}))
    return (out.astype({"hamming": "int64", "n_pairs": "int64"})
               .sort_values("hamming").reset_index(drop=True))


def q_above_customer_avg_orders(sf_dir: str) -> pd.DataFrame:
    """The classic correlated-subquery shape, decorrelated: per priority,
    how many orders are STRICTLY above their own customer's mean price.
    ONE bucketed shuffle of (custkey, priority, cents) rows: a customer's
    orders co-locate whole in their custkey-hash bucket, so the exact
    per-customer (n, sum_cents) closes IN-BUCKET and gates the same rows
    in place — no per-customer partial ever reaches the driver (only
    B x |priorities| integer cells do), and the mean comparison
    cross-multiplies into exact integers (cents * n_c > sum_c) — no
    float mean exists anywhere, so the boundary is unperturbable by sum
    order."""
    from ..stages.shuffle import bucketed_group_apply

    o = _read(sf_dir, "orders",
              ["o_custkey", "o_orderpriority", "o_totalprice"])

    def pre(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "o_custkey": df["o_custkey"].to_numpy(),
            "o_orderpriority": df["o_orderpriority"].to_numpy(),
            "cents": np.round(df["o_totalprice"].to_numpy() * 100.0)
            .astype(np.int64)})

    def gate(g: pd.DataFrame) -> pd.DataFrame:
        st = g.groupby("o_custkey")["cents"].agg(["size", "sum"])
        nn = g["o_custkey"].map(st["size"]).to_numpy(np.int64)
        ss = g["o_custkey"].map(st["sum"]).to_numpy(np.int64)
        above = g["cents"].to_numpy(np.int64) * nn > ss
        cells = pd.DataFrame({
            "o_orderpriority": g["o_orderpriority"].to_numpy(),
            "n_above": above.astype(np.int64), "n_orders": np.int64(1)})
        return group_cells(cells, "o_orderpriority")

    return reduce_partials(bucketed_group_apply(
        o.map_batches(pre, batch_format="pandas"), "o_custkey", gate),
        "o_orderpriority")


def q_supplier_part_breadth(sf_dir: str, min_parts: int = 5) -> pd.DataFrame:
    """Suppliers shipping at least ``min_parts`` DISTINCT parts, counted
    per nation — the two-level distinct rollup (dedup -> count -> gate ->
    dim rollup): per-batch (suppkey, partkey) dedup shrinks the wire,
    suppliers co-locate whole in hash buckets so the in-bucket distinct
    count is exact, the gate keeps only qualifying suppliers, and the
    nation name attaches from a broadcast dim. All integers."""
    from ..stages.shuffle import bucketed_group_apply

    li = _read(sf_dir, "lineitem", ["l_suppkey", "l_partkey"])

    def pre(df: pd.DataFrame) -> pd.DataFrame:
        return df.drop_duplicates(["l_suppkey", "l_partkey"])

    def breadth(g: pd.DataFrame) -> pd.DataFrame:
        d = g.drop_duplicates(["l_suppkey", "l_partkey"])
        c = (d.groupby("l_suppkey", as_index=False).size()
              .rename(columns={"size": "n_parts"}))
        return c[c["n_parts"] >= min_parts]

    sup = base_pandas(sf_dir, "supplier", columns=["s_suppkey", "s_nationkey"])
    nation = base_pandas(sf_dir, "nation", columns=["n_nationkey", "n_name"])
    ref = ray.put((dict(zip(sup["s_suppkey"], sup["s_nationkey"])),
                   dict(zip(nation["n_nationkey"], nation["n_name"]))))

    def per_nation(df: pd.DataFrame) -> pd.DataFrame:
        s2n, nmap = broadcast_get(ref)
        return pd.DataFrame({"nation": df["l_suppkey"].map(s2n).map(nmap),
                             "n_suppliers": np.int64(1),
                             "total_parts": df["n_parts"]})

    qual = bucketed_group_apply(li.map_batches(pre, batch_format="pandas"),
                                "l_suppkey", breadth)
    return reduce_partials(qual, "nation", per_nation)
