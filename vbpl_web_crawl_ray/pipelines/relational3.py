"""Session-3 relational operators: ties-preserving ranks, value-RANGE
window frames, and the classic multi-join analytics composition — each
with a DuckDB oracle twin and a stated 100-TB shape.

- q_rank_topk_with_ties: RANK() <= k keeps ALL peers of the boundary
  value (DENSE_RANK/ROW_NUMBER drop them) — integer ranks close inside
  whole-group buckets, outputs are raw-value pass-throughs;
- q_range_frame_sum: the RANGE window frame (value distance, not row
  count) resolves as two np.searchsorted bounds over the sorted group +
  one int64 prefix-sum — values aggregate as exact integer cents so the
  windowed sums are order-free and bit-exact;
- q_q3_shipping_priority: TPC-H Q3's shape (selective dim filter ->
  semi-join -> fact filter -> partial aggregate -> global top-k): the
  segment's customers and their qualifying orders reach the lineitem
  scan through two ``attach_lookup`` hops (a ray.put lookup under the
  measured size gate, a bucketed join past it), so the big fact table
  is touched exactly once and, under the gate, with no all-to-all."""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray
import ray.data as rd

from ..functions.numeric import round_half_away
from ..stages.shuffle import (broadcast_get, bucketed_group_apply, group_cells,
                              reduce_partials)
from ..sources.tablecache import base_dataset, base_pandas


def _read(sf_dir: str, table: str, columns: list[str] | None = None) -> rd.Dataset:
    return base_dataset(sf_dir, table, columns=columns)


def q_rank_topk_with_ties(sf_dir: str, k: int = 3) -> pd.DataFrame:
    """Top-k order prices per priority KEEPING TIES (RANK() <= k): the
    boundary value's peers all stay, so the result size is data-driven —
    the semantics dense_rank_top_orders cannot give. Priorities co-locate
    whole in hash buckets; ranks are exact integers from one vectorized
    pd.rank, prices pass through raw."""
    o = _read(sf_dir, "orders",
              ["o_orderkey", "o_orderpriority", "o_totalprice"])

    def ranks(g: pd.DataFrame) -> pd.DataFrame:
        rk = (g.groupby("o_orderpriority")["o_totalprice"]
               .rank(method="min", ascending=False).astype(np.int64))
        out = g.assign(rk=rk)
        return out[out["rk"] <= k]

    out = bucketed_group_apply(o, "o_orderpriority", ranks).to_pandas()
    return (out.astype({"rk": "int64"})
               .sort_values(["o_orderpriority", "rk", "o_orderkey"])
               .reset_index(drop=True)
               [["o_orderpriority", "o_orderkey", "o_totalprice", "rk"]])


def q_range_frame_sum(sf_dir: str, radius: float = 5000.0) -> pd.DataFrame:
    """RANGE window frame: for every order, the count and cents-sum of
    same-priority orders whose price lies within +-radius of its own —
    the value-distance frame ROWS cannot express. Inside whole-priority
    buckets the frame is two np.searchsorted bounds over the sorted
    price array plus an int64 prefix-sum of integer cents (the synth's
    2-decimal prices recover exactly), so every windowed sum is
    order-free integer arithmetic; the +-radius boundaries are the same
    IEEE double ops in both engines."""
    o = _read(sf_dir, "orders",
              ["o_orderkey", "o_orderpriority", "o_totalprice"])

    def frame(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["o_orderpriority", "o_totalprice"],
                          kind="mergesort")
        outs = []
        for _, gg in g.groupby("o_orderpriority", sort=False):
            p = gg["o_totalprice"].to_numpy()
            cents = np.round(p * 100.0).astype(np.int64)
            pre = np.concatenate(([0], np.cumsum(cents)))
            lo = np.searchsorted(p, p - radius, side="left")
            hi = np.searchsorted(p, p + radius, side="right")
            outs.append(pd.DataFrame({
                "o_orderkey": gg["o_orderkey"].to_numpy(),
                "n_near": (hi - lo).astype(np.int64),
                "cents_near": pre[hi] - pre[lo]}))
        return pd.concat(outs, ignore_index=True)

    out = bucketed_group_apply(o, "o_orderpriority", frame).to_pandas()
    return (out.astype({"n_near": "int64", "cents_near": "int64"})
               .sort_values("o_orderkey").reset_index(drop=True))


def q_q3_shipping_priority(sf_dir: str, segment: str = "BUILDING",
                           cutoff: str = "1995-03-15", limit: int = 10,
                           gate_bytes: int | None = None) -> pd.DataFrame:
    """TPC-H Q3's shape — the classic 3-table analytics join: revenue of
    the top unshipped orders for one market segment. The selective dim
    side collapses BEFORE touching the fact table, and both hops attach
    through ``attach_lookup``'s measured size gate: the segment's
    custkeys attach onto one orders scan, the qualifying (orderkey ->
    orderdate) rows attach onto ONE lineitem scan, and that scan emits
    per-order revenue partials. Under the gate each hop is one ray.put
    dict and there is no all-to-all; past it (orders and customer are
    fact-proportional) each hop becomes a bucketed join on the same
    keys. The driver merges per-order partials and takes the global
    top-k. Revenue rounds to 4 decimals in both engines before the
    ordering, making the compare and the cutoff deterministic."""
    from ..stages.shuffle import attach_lookup

    cut = np.datetime64(cutoff, "us")
    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])

    def seg_keys(df: pd.DataFrame) -> pd.DataFrame:
        k = df.loc[df["c_mktsegment"] == segment, "c_custkey"].to_numpy()
        return pd.DataFrame({"c_custkey": k,
                             "in_seg": np.ones(len(k), np.int64)})

    raw_orders = _read(sf_dir, "orders",
                       ["o_orderkey", "o_custkey", "o_orderdate"])
    orders = attach_lookup(raw_orders, "o_custkey",
                           cust.map_batches(seg_keys, batch_format="pandas"),
                           "c_custkey", ["in_seg"], gate_bytes=gate_bytes)

    def order_side(df: pd.DataFrame) -> pd.DataFrame:
        m = (df["o_orderdate"].to_numpy() < cut) \
            & df["in_seg"].notna().to_numpy()
        return df.loc[m, ["o_orderkey", "o_orderdate"]]

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"])
    dated = attach_lookup(li, "l_orderkey",
                          orders.map_batches(order_side, batch_format="pandas"),
                          "o_orderkey", ["o_orderdate"],
                          gate_bytes=gate_bytes)

    def revenue(df: pd.DataFrame) -> pd.DataFrame:
        m = (df["l_shipdate"].to_numpy() > cut) \
            & df["o_orderdate"].notna().to_numpy()
        d = df.loc[m]
        rev = (d["l_extendedprice"].to_numpy()
               * (1.0 - d["l_discount"].to_numpy()))
        return pd.DataFrame({"l_orderkey": d["l_orderkey"].to_numpy(),
                             "o_orderdate": d["o_orderdate"].to_numpy(),
                             "rev": rev})

    agg = reduce_partials(dated, ["l_orderkey", "o_orderdate"], revenue)
    out = pd.DataFrame({
        "l_orderkey": agg["l_orderkey"].astype("int64"),
        "revenue": round_half_away(agg["rev"].to_numpy(), 4),
        "o_orderdate": agg["o_orderdate"].astype("datetime64[us]")})
    return (out.sort_values(["revenue", "o_orderdate", "l_orderkey"],
                            ascending=[False, True, True])
               .head(limit).reset_index(drop=True))


def q_scd2_history(sf_dir: str) -> pd.DataFrame:
    """Slowly-changing-dimension TYPE 2 history build: each user's event
    stream becomes versioned rows with [valid_from, valid_to) intervals
    (valid_to = the next change's timestamp; the current row keeps a NULL
    end and is_current = 1) — the warehouse-merge shape every dimension
    load runs. Users co-locate whole in hash buckets; one vectorized
    shift closes every interval; every output is a raw pass-through
    (timestamps and values untouched), so the compare is exact."""
    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def history(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        nxt = g["ts"].shift(-1)
        same = g["user_id"].eq(g["user_id"].shift(-1))
        return pd.DataFrame({
            "user_id": g["user_id"].to_numpy(),
            "version": g.groupby("user_id", sort=False).cumcount()
                        .to_numpy(np.int64) + 1,
            "value": g["value"].to_numpy(),
            "valid_from": g["ts"].to_numpy(),
            "valid_to": nxt.where(same).to_numpy(),
            "is_current": np.where(same.to_numpy(), 0, 1).astype(np.int64)})

    out = bucketed_group_apply(ev, "user_id", history).to_pandas()
    return (out.astype({"version": "int64", "is_current": "int64"})
               .sort_values(["user_id", "version"]).reset_index(drop=True))


def q_conversion_time_stats(sf_dir: str) -> pd.DataFrame:
    """Signup-to-purchase conversion-time distribution: first signup and
    first purchase per user are mergeable conditional-argmin partials
    (int64 microseconds with a +inf sentinel for 'never', so partial
    merges stay plain MIN); users holding both events yield an exact
    integer duration, and p50/p90 resolve by the integer rank rule
    (smallest duration with 100*rank >= q*n) stated identically in the
    oracle. Nothing float anywhere."""
    _NEVER = np.int64(2**62)
    ev = _read(sf_dir, "events", ["user_id", "event_type", "ts"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        t = df["ts"].astype("datetime64[us]").astype("int64").to_numpy()
        s = np.where(df["event_type"].to_numpy() == "signup", t, _NEVER)
        p = np.where(df["event_type"].to_numpy() == "purchase", t, _NEVER)
        return pd.DataFrame({"user_id": df["user_id"].to_numpy(),
                             "s": s, "p": p})

    f = reduce_partials(ev, "user_id", partial, agg={"s": "min", "p": "min"})
    d = f[(f["s"] < _NEVER) & (f["p"] < _NEVER)]
    dur = np.sort((d["p"] - d["s"]).to_numpy(np.int64))
    m = len(dur)

    def rank_at(q: int) -> np.int64:
        return dur[int(np.argmax(100 * (np.arange(m) + 1) >= q * m))]

    return pd.DataFrame({
        "n_users": [np.int64(m)],
        "min_dur_us": [dur[0]],
        "max_dur_us": [dur[-1]],
        "p50_dur_us": [rank_at(50)],
        "p90_dur_us": [rank_at(90)]})


def q_clamped_balance(sf_dir: str) -> pd.DataFrame:
    """Clamped-at-zero running balance per user (purchases credit, errors
    debit, the balance never goes negative) — the inventory/credit
    simulation whose recurrence b_i = max(0, b_{i-1} + d_i) looks
    inherently sequential, but closes as b_i = S_i - min(0, running
    min(S_i)): one segmented cumsum + cummin inside whole-user buckets,
    fully vectorized, and the identical window closed form is stated in
    the oracle. Deltas are exact int64 cents, so everything compares as
    BIGINTs."""
    ev = _read(sf_dir, "events",
               ["event_id", "user_id", "event_type", "ts", "value"])

    def pre(df: pd.DataFrame) -> pd.DataFrame:
        return df[df["event_type"].isin(("purchase", "error"))]

    def balance(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        cents = np.round(g["value"].to_numpy() * 100.0).astype(np.int64)
        delta = np.where(g["event_type"].to_numpy() == "purchase",
                         cents, -cents)
        s = pd.Series(delta).groupby(g["user_id"].to_numpy()).cumsum() \
            .to_numpy()
        rmin = pd.Series(s).groupby(g["user_id"].to_numpy()).cummin() \
            .to_numpy()
        bal = s - np.minimum(0, rmin)
        return pd.DataFrame({"event_id": g["event_id"].to_numpy(),
                             "balance_cents": bal.astype(np.int64)})

    out = bucketed_group_apply(ev, "user_id", balance,
                               partial_fn=pre).to_pandas()
    return (out.astype({"balance_cents": "int64"})
               .sort_values("event_id").reset_index(drop=True))


def q_pareto_revenue_share(sf_dir: str) -> pd.DataFrame:
    """Revenue concentration (the 80/20 audit): what fraction of total
    order value do the top 20% of customers hold? Per-customer revenue
    sums as EXACT integer cents (mergeable partials), customers rank by
    (cents desc, custkey) — a stated total order, so the boundary of the
    top-20% set is identical in both engines — and the share is ONE
    division of two exact int64 sums. The rank cut (smallest k with
    5k >= customers) stays integer."""
    o = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        cents = np.round(df["o_totalprice"].to_numpy() * 100.0) \
            .astype(np.int64)
        return pd.DataFrame({"o_custkey": df["o_custkey"].to_numpy(),
                             "cents": cents})

    rev = (reduce_partials(o, "o_custkey", partial)
           .sort_values(["cents", "o_custkey"], ascending=[False, True],
                        kind="mergesort"))
    m = len(rev)
    k = int(np.argmax(5 * (np.arange(m) + 1) >= m)) + 1   # ceil(m/5)
    cents = rev["cents"].to_numpy(np.int64)
    top = np.int64(cents[:k].sum())
    total = np.int64(cents.sum())
    return pd.DataFrame({
        "n_customers": [np.int64(m)],
        "top20_customers": [np.int64(k)],
        "top20_cents": [top],
        "total_cents": [total],
        "top20_share": [np.float64(top) / np.float64(total)]})


def q_lorenz_curve(sf_dir: str) -> pd.DataFrame:
    """Lorenz concentration curve at deciles: for k = 1..10, the share of
    total order value held by the top k*10% of customers — the full curve
    behind the 80/20 point. Per-customer revenue is exact integer cents;
    ranks come from the stated (cents desc, custkey) total order; each
    decile cut is the integer rule (smallest rank with 10*rank >= k*m);
    every share is one exact-int64 division. The driver holds one row
    per customer (at a scale where that breaks, the ranks resolve from a
    count-of-cents histogram — the selection pattern)."""
    o = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        cents = np.round(df["o_totalprice"].to_numpy() * 100.0) \
            .astype(np.int64)
        return pd.DataFrame({"o_custkey": df["o_custkey"].to_numpy(),
                             "cents": cents})

    rev = (reduce_partials(o, "o_custkey", partial)
           .sort_values(["cents", "o_custkey"], ascending=[False, True],
                        kind="mergesort"))
    cents = rev["cents"].to_numpy(np.int64)
    m = len(cents)
    cum = np.cumsum(cents)
    total = np.int64(cum[-1])
    ranks = np.arange(1, m + 1)
    rows = []
    for k in range(1, 11):
        cut = int(np.argmax(10 * ranks >= k * m))      # first qualifying
        rows.append((np.int64(k * 10), np.int64(cut + 1),
                     np.int64(cum[cut]),
                     np.float64(cum[cut]) / np.float64(total)))
    return pd.DataFrame(rows, columns=["top_pct", "n_customers",
                                       "cum_cents", "share"])


def q_referential_integrity(sf_dir: str) -> pd.DataFrame:
    """Referential-integrity audit between fact and dimension — the
    consistency check a store runs after every ingest: how many lineitem
    rows reference a missing order (orphans), and how many orders have
    no lineitem at all (childless)? One tagged-union bucketed shuffle of
    per-key count partials resolves both directions at once (the
    full-outer membership shape): each bucket ORs the side bits per key
    and emits three integers. No joined rows materialize."""
    o = _read(sf_dir, "orders", ["o_orderkey"])
    li = _read(sf_dir, "lineitem", ["l_orderkey"])

    def cnt(col, side):
        def f(df: pd.DataFrame) -> pd.DataFrame:
            c = df[col].value_counts()
            return pd.DataFrame({"key": c.index.to_numpy(),
                                 "n": c.to_numpy(np.int64),
                                 "side": np.int8(side)})
        return f

    tagged = (o.map_batches(cnt("o_orderkey", 0), batch_format="pandas")
               .union(li.map_batches(cnt("l_orderkey", 1),
                                     batch_format="pandas")))

    def audit(g: pd.DataFrame) -> pd.DataFrame:
        a = (g[g["side"] == 0].groupby("key")["n"].sum())
        b = (g[g["side"] == 1].groupby("key")["n"].sum())
        orphan_keys = b.index.difference(a.index)
        return pd.DataFrame({
            "orphan_lineitems": [np.int64(int(b[orphan_keys].sum()))],
            "childless_orders": [np.int64(len(a.index.difference(b.index)))],
            "linked_orders": [np.int64(len(a.index.intersection(b.index)))]})

    parts = bucketed_group_apply(tagged, "key", audit).to_pandas()
    return pd.DataFrame({c: [np.int64(parts[c].sum())]
                         for c in ("orphan_lineitems", "childless_orders",
                                   "linked_orders")})


def q_revenue_by_nation(sf_dir: str) -> pd.DataFrame:
    """Revenue rollup through the THREE-hop dimension chain (region ->
    nation -> customer -> orders): the star-schema traversal where every
    dimension is broadcast-sized — nation/region ride as one composed
    lookup dict, customers map to nations in a pruned scan, and the fact
    table is touched once emitting per-nation integer-cents partials.
    Zero all-to-alls; everything integer until no division at all."""
    import ray

    nation = base_pandas(sf_dir, "nation", columns=["n_nationkey", "n_name"])
    nmap = dict(zip(nation["n_nationkey"], nation["n_name"]))
    nref = ray.put(nmap)

    def cust_nation(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "c_custkey": df["c_custkey"].to_numpy(),
            "nation": df["c_nationkey"].map(broadcast_get(nref)).to_numpy()})

    cust = (_read(sf_dir, "customer", ["c_custkey", "c_nationkey"])
            .map_batches(cust_nation, batch_format="pandas").to_pandas())
    cref = ray.put(dict(zip(cust["c_custkey"], cust["nation"])))

    def rollup(df: pd.DataFrame) -> pd.DataFrame:
        cents = np.round(df["o_totalprice"].to_numpy() * 100.0) \
            .astype(np.int64)
        return pd.DataFrame({
            "nation": df["o_custkey"].map(broadcast_get(cref)).to_numpy(),
            "revenue_cents": cents, "n_orders": np.int64(1)})

    return reduce_partials(
        _read(sf_dir, "orders", ["o_custkey", "o_totalprice"]), "nation",
        rollup)


def q_running_distinct_types(sf_dir: str) -> pd.DataFrame:
    """Running COUNT(DISTINCT event_type) per user over event time — the
    cumulative-novelty window no engine's frames express directly: a
    row's value is the number of distinct types the user has seen so
    far, which decomposes as a cumulative sum of FIRST-OCCURRENCE flags
    (one sorted dedup + cumsum inside whole-user buckets, all integer).
    The oracle states the same decomposition with ROW_NUMBER = 1."""
    ev = _read(sf_dir, "events", ["event_id", "user_id", "event_type", "ts"])

    def running(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        first = ~g.duplicated(["user_id", "event_type"])
        run = (first.astype(np.int64)
               .groupby(g["user_id"].to_numpy()).cumsum())
        return pd.DataFrame({"event_id": g["event_id"].to_numpy(),
                             "n_types_seen": run.to_numpy(np.int64)})

    out = bucketed_group_apply(ev, "user_id", running).to_pandas()
    return (out.astype({"n_types_seen": "int64"})
               .sort_values("event_id").reset_index(drop=True))


def q_keyset_page(sf_dir: str, after_price: float = 50000.0,
                  after_key: int = 0, page: int = 25) -> pd.DataFrame:
    """Keyset (cursor) pagination — the stable paging API a store exposes
    instead of OFFSET: the next page is the first ``page`` rows with
    (o_totalprice, o_orderkey) strictly beyond the cursor tuple, in that
    order. Each batch pre-filters by the tuple comparison and keeps its
    local head (mergeable top-k partials), so the driver merges at most
    batches x page rows however large the table. Raw pass-throughs."""
    o = _read(sf_dir, "orders",
              ["o_orderkey", "o_totalprice", "o_orderpriority"])

    def local(df: pd.DataFrame) -> pd.DataFrame:
        keep = (df["o_totalprice"] > after_price) \
            | ((df["o_totalprice"] == after_price)
               & (df["o_orderkey"] > after_key))
        return (df[keep]
                .sort_values(["o_totalprice", "o_orderkey"],
                             kind="mergesort")
                .head(page))

    parts = o.map_batches(local, batch_format="pandas").to_pandas()
    return (parts.sort_values(["o_totalprice", "o_orderkey"],
                              kind="mergesort")
                 .head(page).reset_index(drop=True))


def q_supplier_balance_by_region(sf_dir: str) -> pd.DataFrame:
    """Supplier account-balance rollup through nation -> region (closes
    full 10-table coverage): both dims ride as one composed broadcast
    lookup, the supplier table is touched once emitting per-region
    integer-cents partials (acctbal is 2-decimal), max is order-free."""
    import ray

    nation = base_pandas(sf_dir, "nation", columns=["n_nationkey", "n_regionkey"])
    region = base_pandas(sf_dir, "region", columns=["r_regionkey", "r_name"])
    rmap = dict(zip(region["r_regionkey"], region["r_name"]))
    n2r = {k: rmap[v] for k, v in zip(nation["n_nationkey"],
                                      nation["n_regionkey"])}
    ref = ray.put(n2r)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        cents = np.round(df["s_acctbal"].to_numpy() * 100.0) \
            .astype(np.int64)
        return pd.DataFrame({
            "region": df["s_nationkey"].map(broadcast_get(ref)).to_numpy(),
            "total_cents": cents, "n_suppliers": np.int64(1),
            "max_cents": cents})

    return reduce_partials(
        _read(sf_dir, "supplier", ["s_nationkey", "s_acctbal"]), "region",
        partial, agg={"max_cents": "max"})


def q_top_suppliers_by_volume(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """Top-k suppliers by shipped quantity — the fact-side supplier
    rollup: per-supplier integer quantity partials merge, names attach
    from the broadcast supplier dim only for the k winners, ties break
    on the supplier key. All integers."""

    li = _read(sf_dir, "lineitem", ["l_suppkey", "l_quantity"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        q = df["l_quantity"].to_numpy(np.int64)
        return pd.DataFrame({"s_suppkey": df["l_suppkey"].to_numpy(),
                             "qty": q, "n": np.int64(1)})

    agg = (reduce_partials(li, "s_suppkey", partial)
           .sort_values(["qty", "s_suppkey"], ascending=[False, True],
                        kind="mergesort")
           .head(k))
    names = base_pandas(sf_dir, "supplier", columns=["s_suppkey", "s_name"])
    out = agg.merge(names, on="s_suppkey", how="left")
    return (pd.DataFrame({"s_suppkey": out["s_suppkey"].astype("int64"),
                          "s_name": out["s_name"],
                          "total_qty": out["qty"].astype("int64"),
                          "n_items": out["n"].astype("int64")})
            .reset_index(drop=True))


def q_discount_revenue_levels(sf_dir: str) -> pd.DataFrame:
    """Revenue and volume by discount level — the pricing-elasticity
    table: l_discount is a bounded discrete domain (the synth writes
    2-decimal levels), so per-level integer-cents partials merge over a
    handful of keys; everything integer."""
    li = _read(sf_dir, "lineitem",
               ["l_discount", "l_extendedprice", "l_quantity"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        cents = np.round(df["l_extendedprice"].to_numpy() * 100.0) \
            .astype(np.int64)
        lvl = np.round(df["l_discount"].to_numpy() * 100.0) \
            .astype(np.int64)
        return pd.DataFrame({"discount_pct": lvl, "revenue_cents": cents,
                             "total_qty": df["l_quantity"].to_numpy(np.int64),
                             "n_items": np.int64(1)})

    return reduce_partials(li, "discount_pct", partial)


def q_peak_minute_per_type(sf_dir: str) -> pd.DataFrame:
    """Busiest minute per event type (argmax over the per-minute count,
    ties to the EARLIEST minute — stated in both engines): per-(type,
    minute) count partials merge, the argmax closes inside whole-type
    buckets; all integers and raw timestamps."""
    ev = _read(sf_dir, "events", ["event_type", "ts"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return (pd.DataFrame({"event_type": df["event_type"].to_numpy(),
                              "minute": df["ts"].dt.floor("min")})
                .groupby(["event_type", "minute"], as_index=False)
                .size().rename(columns={"size": "n"}))

    def peak(g: pd.DataFrame) -> pd.DataFrame:
        c = (g.groupby(["event_type", "minute"], as_index=False)["n"].sum()
              .sort_values(["event_type", "n", "minute"],
                           ascending=[True, False, True],
                           kind="mergesort"))
        return c.groupby("event_type", as_index=False).first()

    out = bucketed_group_apply(ev, "event_type", peak,
                               partial_fn=partial).to_pandas()
    return (out.rename(columns={"minute": "peak_minute",
                                "n": "n_events"})
               .astype({"n_events": "int64"})
               [["event_type", "peak_minute", "n_events"]]
               .sort_values("event_type").reset_index(drop=True))


def q_scd2_asof_lookup(sf_dir: str) -> pd.DataFrame:
    """Point-in-time TEMPORAL JOIN against the SCD2 dimension: every
    click resolves the purchase-version of its user that was valid AT
    the click's timestamp (the last purchase at-or-before it), reported
    as clicks-served-per-version. The naive form is an interval theta
    join; here both event types co-locate in whole-user buckets and the
    lookup closes as TWO global ``np.searchsorted`` calls over a
    composite (user-code x global-time-rank) int64 key — a click at
    exactly a purchase's timestamp takes that version, and duplicate
    purchase timestamps collapse to the last duplicate (its interval is
    the non-empty one), both stated identically by the oracle's
    [valid_from, valid_to) join. All integers; versions are counts, so
    the output is a bounded histogram."""
    ev = _read(sf_dir, "events", ["event_id", "user_id", "event_type", "ts"])

    def pre(df: pd.DataFrame) -> pd.DataFrame:
        return df[df["event_type"].isin(("click", "purchase"))]

    def lookup(g: pd.DataFrame) -> pd.DataFrame:
        uidx, _ = pd.factorize(g["user_id"], sort=False)
        t = g["ts"].astype("datetime64[us]").astype("int64").to_numpy()
        is_p = (g["event_type"] == "purchase").to_numpy()
        is_c = (g["event_type"] == "click").to_numpy()
        pu, pt = uidx[is_p], t[is_p]
        cu, ct = uidx[is_c], t[is_c]
        if not len(pt) or not len(ct):
            return pd.DataFrame({"version": pd.Series(dtype="int64"),
                                 "n_clicks": pd.Series(dtype="int64")})
        pts = np.sort(pt)
        big = np.int64(len(pts) + 2)
        key_p = np.sort(pu.astype(np.int64) * big
                        + np.searchsorted(pts, pt, side="right"))
        key_c = cu.astype(np.int64) * big \
            + np.searchsorted(pts, ct, side="right")
        upto = np.searchsorted(key_p, key_c, side="right")
        start = np.searchsorted(key_p, cu.astype(np.int64) * big,
                                side="left")
        ver = (upto - start).astype(np.int64)
        ver = ver[ver > 0]          # clicks before any purchase drop
        cells = pd.DataFrame({"version": ver, "n_clicks": np.int64(1)})
        return group_cells(cells, "version")

    return reduce_partials(bucketed_group_apply(
        ev.map_batches(pre, batch_format="pandas"), "user_id", lookup),
        "version")
