"""Session-4 wave-2 relational operators — four classic shapes the
surface did not yet exercise, each with a DuckDB oracle twin and a
stated 100-TB plan:

- q_late_ship_orders (TPC-H Q4 shape): an EXISTS semi-join where the
  probe predicate needs a column from BOTH sides (shipdate vs its own
  order's orderdate + 60 days) — per-orderkey max-shipdate partials
  collapse the fact side before the one bucketed join;
- q_large_volume_orders (TPC-H Q18 shape): HAVING SUM(qty) > t over the
  fact, then winners re-attach order + customer attributes — the
  gate shrinks the set to ~1/5 before any wide row exists;
- q_order_interarrival_stats: per-customer LAG day-gaps rolled up per
  market segment — customers co-locate whole in hash buckets so the
  in-bucket sort + diff is exact, and only (segment, gap) partials
  leave the bucket;
- q_benford_price_digits: leading-digit distribution of price cents —
  digit extraction on the INTEGER cents text in both engines, so no
  float formatting is ever compared.

All date math is int64 microseconds (timestamps are midnight-aligned,
so day diffs divide exactly); quantities are integer-valued and sum to
int64; the single avg division is one exact int/int float op, stated in
the same order in both engines.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray
import ray.data as rd
from ..functions.numeric import round_half_away
from ..sources.tablecache import base_dataset, base_pandas
from ..stages.shuffle import broadcast_get, group_cells, reduce_partials

_US_PER_DAY = 86_400_000_000


def _read(sf_dir: str, table: str, columns: list[str] | None = None) -> rd.Dataset:
    return base_dataset(sf_dir, table, columns=columns)


def q_late_ship_orders(sf_dir: str, grace_days: int = 60,
                       gate_bytes: int | None = None) -> pd.DataFrame:
    """TPC-H Q4's shape: per order priority, how many orders have at
    least one lineitem shipped more than ``grace_days`` after the order
    date. Per-batch per-orderkey max-shipdate partials collapse the
    fact side to ~one row per order, the exact max closes inside
    orderkey buckets (one shuffle), and the (orderdate, priority)
    attributes attach through the measured size gate
    (``attach_lookup``): a ray.put broadcast under it, a bucketed join
    on the per-order rows past it — orders is fact-proportional, so at
    100 TB the gate picks the join. Only (priority, n_late, n_orders)
    cells reach the driver. All date math is int64 microseconds."""
    from ..stages.shuffle import attach_lookup, bucketed_group_apply

    grace_us = grace_days * _US_PER_DAY
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return (pd.DataFrame({
            "l_orderkey": df["l_orderkey"].to_numpy(),
            "max_ship_us": df["l_shipdate"].astype("int64")})
            .groupby("l_orderkey", as_index=False).max())

    def close_max(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("l_orderkey", as_index=False)["max_ship_us"].max()

    closed = bucketed_group_apply(
        li.map_batches(partial, batch_format="pandas"),
        "l_orderkey", close_max)

    raw_orders = _read(sf_dir, "orders",
                       ["o_orderkey", "o_orderdate", "o_orderpriority"])
    side = raw_orders.map_batches(
        lambda df: pd.DataFrame({
            "o_orderkey": df["o_orderkey"].to_numpy(),
            "o_date_us": df["o_orderdate"].astype("int64"),
            "o_orderpriority": df["o_orderpriority"].to_numpy()}),
        batch_format="pandas")
    withattr = attach_lookup(closed, "l_orderkey", side, "o_orderkey",
                             ["o_date_us", "o_orderpriority"],
                             gate_bytes=gate_bytes)

    def cells(df: pd.DataFrame) -> pd.DataFrame:
        late = df["max_ship_us"].to_numpy(np.int64) \
            > df["o_date_us"].to_numpy(np.int64) + grace_us
        return pd.DataFrame({
            "o_orderpriority": df["o_orderpriority"].to_numpy(),
            "n_late": late.astype(np.int64), "n_orders": np.int64(1)})

    return reduce_partials(withattr, "o_orderpriority", cells)


def q_large_volume_orders(sf_dir: str, min_qty: int = 150,
                          k: int = 100) -> pd.DataFrame:
    """TPC-H Q18's shape: orders whose total quantity exceeds
    ``min_qty``, re-attached to order and customer attributes and ranked
    by price. Quantities are integer-valued doubles, so the per-order
    sum is an exact int64; the HAVING gate runs inside the orderkey
    buckets (suppressing ~4/5 of orders before any wide row exists) and
    only the ~k survivors' customer names resolve from a broadcast map
    (customer keys for the winners only — past the gate this attach
    becomes one more bucketed join). o_totalprice passes through
    untouched, so the float column is bit-identical by construction."""
    from ..stages.shuffle import bucketed_group_apply

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_quantity"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return (pd.DataFrame({
            "l_orderkey": df["l_orderkey"].to_numpy(),
            "sum_qty": np.round(df["l_quantity"].to_numpy())
            .astype(np.int64)})
            .groupby("l_orderkey", as_index=False).sum())

    def gate(g: pd.DataFrame) -> pd.DataFrame:
        s = g.groupby("l_orderkey", as_index=False)["sum_qty"].sum()
        return s[s["sum_qty"] > min_qty]

    big = bucketed_group_apply(
        li.map_batches(partial, batch_format="pandas"),
        "l_orderkey", gate).to_pandas()

    orders = base_pandas(sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"])
    out = big.merge(orders, left_on="l_orderkey", right_on="o_orderkey")
    cust = base_pandas(sf_dir, "customer", columns=["c_custkey", "c_name"])
    out["c_name"] = out["o_custkey"].map(
        dict(zip(cust["c_custkey"], cust["c_name"])))
    out = (out.sort_values(["o_totalprice", "o_orderkey"],
                           ascending=[False, True]).head(k))
    return pd.DataFrame({
        "c_name": out["c_name"].to_numpy(),
        "c_custkey": out["o_custkey"].to_numpy(),
        "o_orderkey": out["o_orderkey"].to_numpy(),
        "o_orderdate": out["o_orderdate"].dt.strftime("%Y-%m-%d").to_numpy(),
        "o_totalprice": out["o_totalprice"].to_numpy(),
        "sum_qty": out["sum_qty"].to_numpy(np.int64),
    }).reset_index(drop=True)


def q_order_interarrival_stats(sf_dir: str) -> pd.DataFrame:
    """Per-market-segment order inter-arrival statistics: each
    customer's orders sort by date inside their hash bucket (whole
    customers co-locate, so the LAG is exact), consecutive day-gaps are
    int64 (midnight-aligned µs divide exactly by 86400e6), and only
    (segment, n/sum/min/max) partials leave the bucket. The one avg
    division is a single exact int/int float op, stated last in both
    engines."""
    from ..stages.shuffle import bucketed_group_apply

    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderdate"])
    cust = base_pandas(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"])
    segref = ray.put(dict(zip(cust["c_custkey"], cust["c_mktsegment"])))
    minmax = {"min_gap_days": "min", "max_gap_days": "max"}

    def gaps(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["o_custkey", "o_orderdate"])
        us = g["o_orderdate"].astype("int64").to_numpy()
        ck = g["o_custkey"].to_numpy()
        same = ck[1:] == ck[:-1]
        gap_days = (us[1:] - us[:-1])[same] // _US_PER_DAY
        cks = ck[1:][same]
        seg = pd.Series(cks).map(broadcast_get(segref)).to_numpy()
        cells = pd.DataFrame({"segment": seg, "n_gaps": np.int64(1),
                              "sum_gap_days": gap_days,
                              "min_gap_days": gap_days,
                              "max_gap_days": gap_days})
        return group_cells(cells, "segment", minmax)

    out = reduce_partials(bucketed_group_apply(orders, "o_custkey", gaps),
                          "segment", agg=minmax)
    out["avg_gap_days"] = (out["sum_gap_days"].to_numpy(np.float64)
                           / out["n_gaps"].to_numpy(np.float64))
    return out


def q_benford_price_digits(sf_dir: str) -> pd.DataFrame:
    """Benford audit: leading-digit distribution of order price CENTS.
    The digit is the leading decimal digit of the int64 cents value —
    repeated integer division here, a decimal-text prefix in SQL, never
    float formatting — so the classifier is exact; per-batch (digit, n)
    partials mean nine tiny rows leave each block. The share division is
    one exact int/int float op."""
    o = _read(sf_dir, "orders", ["o_totalprice"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        digit = np.round(df["o_totalprice"].to_numpy() * 100.0) \
            .astype(np.int64)
        while (digit >= 10).any():  # <=12 vectorized passes, no float log
            digit = np.where(digit >= 10, digit // 10, digit)
        return pd.DataFrame({"digit": digit, "n_orders": np.int64(1)})

    out = reduce_partials(o, "digit", partial)
    total = int(out["n_orders"].sum())
    out["share"] = out["n_orders"].to_numpy(np.float64) / np.float64(total)
    return out


def q_rolling_median_value(sf_dir: str, window: int = 4) -> pd.DataFrame:
    """Rolling MEDIAN over a 4-row window per event type — the robust
    smoother beside rolling_avg's mean. Whole types co-locate in hash
    buckets and sort once by (ts, event_id); the window median is
    computed VECTORIZED from 4 shifted columns (np.sort rowwise, NaNs
    pad the warm-up rows to the end), and the even-window interpolation
    is stated as (lo + hi) * 0.5 — measured to be DuckDB's DOUBLE MEDIAN
    formula bitwise (sum-then-halve, NOT the QUANTILE_CONT lerp) — so
    the only float op matches the oracle. Values pass through
    untouched; odd windows reduce to (x + x) * 0.5 = x exactly."""
    from ..stages.shuffle import bucketed_group_apply

    ev = _read(sf_dir, "events", ["event_id", "ts", "event_type", "value"])

    def med(g: pd.DataFrame) -> pd.DataFrame:
        out = []
        for _, t in g.groupby("event_type", sort=False):
            t = t.sort_values(["ts", "event_id"])
            v = t["value"].to_numpy(np.float64)
            n = len(v)
            cols = [v]
            for lag in range(1, window):
                sh = np.full(n, np.nan)
                sh[lag:] = v[:-lag]
                cols.append(sh)
            m = np.sort(np.column_stack(cols), axis=1)  # NaNs sort last
            k = np.minimum(np.arange(n) + 1, window)
            rows = np.arange(n)
            lo = m[rows, (k - 1) // 2]
            hi = m[rows, k // 2]
            out.append(pd.DataFrame({
                "event_id": t["event_id"].to_numpy(),
                "median_w4": (lo + hi) * 0.5}))
        return pd.concat(out, ignore_index=True)

    out = bucketed_group_apply(ev, "event_type", med).to_pandas()
    return out.sort_values("event_id").reset_index(drop=True)


def q_topk_types_with_other(sf_dir: str, k: int = 3) -> pd.DataFrame:
    """Top-k-with-OTHER taxonomy capping — the cardinality clamp every
    dashboard rollup applies: the k globally-busiest event types keep
    their names per month, everything else folds into 'OTHER'. Two
    passes: per-batch (type, n) partials pick the winners (ties break on
    the type name in both engines), the winner set broadcasts, and the
    monthly rollup relabels inside map_batches — the second pass
    shuffles k+1 labels per month, never the raw type cardinality."""
    ev = _read(sf_dir, "events", ["ts", "event_type"])

    totals = reduce_partials(ev, "event_type", lambda df: pd.DataFrame(
        {"event_type": df["event_type"], "n": np.int64(1)}))
    top = set(totals.sort_values(["n", "event_type"],
                                 ascending=[False, True])
              .head(k)["event_type"])
    topref = ray.put(top)

    def relabel(df: pd.DataFrame) -> pd.DataFrame:
        month = df["ts"].dt.strftime("%Y-%m")
        label = df["event_type"].where(
            df["event_type"].isin(broadcast_get(topref)), "OTHER")
        return pd.DataFrame({"month": month, "event_type": label,
                             "n_events": np.int64(1)})

    return reduce_partials(ev, ["month", "event_type"], relabel)


def q_discount_tax_grid(sf_dir: str) -> pd.DataFrame:
    """Two-factor pricing grid: lineitem counts and charged revenue per
    (discount-pct, tax-pct) cell. The charge price x (1-d) x (1+t)
    compounds as INTEGER u6 units — 2-decimal cents x (100-d_pct) x
    (100+t_pct) is exact int64 — so the grid's sums are order-free and
    the single display division by 1e6 is one exact op per cell.
    Per-batch grid partials (at most 11x9 cells) leave each block."""
    li = _read(sf_dir, "lineitem",
               ["l_extendedprice", "l_discount", "l_tax"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        cents = np.round(df["l_extendedprice"].to_numpy() * 100.0) \
            .astype(np.int64)
        d = np.round(df["l_discount"].to_numpy() * 100.0).astype(np.int64)
        t = np.round(df["l_tax"].to_numpy() * 100.0).astype(np.int64)
        return pd.DataFrame({"discount_pct": d, "tax_pct": t,
                             "n_items": np.int64(1),
                             "revenue_u6": cents * (100 - d) * (100 + t)})

    out = reduce_partials(li, ["discount_pct", "tax_pct"], partial)
    out["revenue"] = out["revenue_u6"].to_numpy(np.float64) / 1e6
    return out.drop(columns=["revenue_u6"])


def _orders_cust_nation_side(sf_dir: str, gate_bytes: int | None):
    """(o_orderkey, c_nationkey) side table with the customer hop behind
    its own size gate: customer is fact-proportional too, so past the
    gate BOTH hops (customer -> orders, orders -> lineitem) run as
    bucketed joins; under it each is one ray.put dict."""
    from ..stages.shuffle import attach_lookup

    raw_orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    withn = attach_lookup(raw_orders, "o_custkey", cust, "c_custkey",
                          ["c_nationkey"], gate_bytes=gate_bytes)
    side = withn.map_batches(
        lambda df: pd.DataFrame({
            "o_orderkey": df["o_orderkey"].to_numpy(),
            "c_nationkey": df["c_nationkey"].to_numpy(np.int64)}),
        batch_format="pandas")
    return side


def q_nation_pair_trade(sf_dir: str,
                        gate_bytes: int | None = None) -> pd.DataFrame:
    """TPC-H Q7's shape: trade volume between (supplier nation, customer
    nation) pairs per ship year. ONE lineitem scan emits per-batch
    (orderkey, supp_nation, year) integer partials (the supplier ->
    nation map is a true broadcast dim); the customer-nation hop
    attaches through the measured size gate (``attach_lookup`` over the
    (orderkey, nationkey) side — ray.put dict under it, bucketed joins
    past it, both the customer hop and the orders hop gated since both
    tables are fact-proportional). Revenue compounds as exact int64 u4
    units (cents x (100 - disc_pct)); the display division by 1e4 is
    one exact op per cell."""
    from ..stages.shuffle import attach_lookup

    sup = base_pandas(sf_dir, "supplier", columns=["s_suppkey", "s_nationkey"])
    nat = base_pandas(sf_dir, "nation", columns=["n_nationkey", "n_name"])
    nmap = dict(zip(nat["n_nationkey"], nat["n_name"]))
    s2n = {k: nmap[v] for k, v in zip(sup["s_suppkey"], sup["s_nationkey"])}
    sref = ray.put(s2n)

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_suppkey", "l_extendedprice",
                "l_discount", "l_shipdate"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        cents = np.round(df["l_extendedprice"].to_numpy() * 100.0) \
            .astype(np.int64)
        d = np.round(df["l_discount"].to_numpy() * 100.0) \
            .astype(np.int64)
        return (pd.DataFrame({
            "l_orderkey": df["l_orderkey"].to_numpy(),
            "supp_nation": df["l_suppkey"].map(broadcast_get(sref)).to_numpy(),
            "ship_year": df["l_shipdate"].dt.year.to_numpy(np.int64),
            "n_items": np.int64(1),
            "rev_u4": cents * (100 - d)})
            .groupby(["l_orderkey", "supp_nation", "ship_year"],
                     as_index=False).sum())

    parts = li.map_batches(partial, batch_format="pandas")
    side = _orders_cust_nation_side(sf_dir, gate_bytes)
    withn = attach_lookup(parts, "l_orderkey", side, "o_orderkey",
                          ["c_nationkey"], gate_bytes=gate_bytes)

    def cells(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "supp_nation": df["supp_nation"].to_numpy(),
            "cust_nation": df["c_nationkey"].to_numpy(np.int64),
            "ship_year": df["ship_year"].to_numpy(np.int64),
            "n_items": df["n_items"].to_numpy(np.int64),
            "rev_u4": df["rev_u4"].to_numpy(np.int64)})

    out = reduce_partials(withn, ["supp_nation", "cust_nation", "ship_year"],
                          cells)
    out["cust_nation"] = out["cust_nation"].map(nmap)
    out["revenue"] = out["rev_u4"].to_numpy(np.float64) / 1e4
    return (out.drop(columns=["rev_u4"])
               .sort_values(["supp_nation", "cust_nation", "ship_year"])
               .reset_index(drop=True))


def q_top_supplier_quarter(sf_dir: str, start: str = "1996-01-01",
                           end: str = "1996-04-01") -> pd.DataFrame:
    """TPC-H Q15's shape: the supplier(s) with the MAXIMUM revenue in a
    date window — an argmax that must keep ALL ties, so no LIMIT can
    stand in for it. The date filter prunes at the scan, per-supplier
    u4-integer partials merge (order-free), the global max is exact, and
    every max-holder re-attaches its name from the broadcast supplier
    dim. Revenue displays via one exact /1e4 division."""
    li = _read(sf_dir, "lineitem",
               ["l_suppkey", "l_extendedprice", "l_discount", "l_shipdate"])
    lo = np.datetime64(start, "us").astype(np.int64)
    hi = np.datetime64(end, "us").astype(np.int64)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        us = df["l_shipdate"].astype("int64").to_numpy()
        df = df[(us >= lo) & (us < hi)]
        cents = np.round(df["l_extendedprice"].to_numpy() * 100.0) \
            .astype(np.int64)
        d = np.round(df["l_discount"].to_numpy() * 100.0).astype(np.int64)
        return pd.DataFrame({"l_suppkey": df["l_suppkey"].to_numpy(),
                             "rev_u4": cents * (100 - d)})

    per_supp = reduce_partials(li, "l_suppkey", partial)
    best = int(per_supp["rev_u4"].max())
    win = per_supp[per_supp["rev_u4"] == best].copy()
    sup = base_pandas(sf_dir, "supplier", columns=["s_suppkey", "s_name"])
    win["s_name"] = win["l_suppkey"].map(
        dict(zip(sup["s_suppkey"], sup["s_name"])))
    return pd.DataFrame({
        "s_suppkey": win["l_suppkey"].to_numpy(np.int64),
        "s_name": win["s_name"].to_numpy(),
        "total_revenue": win["rev_u4"].to_numpy(np.float64) / 1e4,
    }).sort_values("s_suppkey").reset_index(drop=True)


def q_order_priority_migration(sf_dir: str) -> pd.DataFrame:
    """Priority migration matrix: for each customer's consecutive orders
    (by date, orderkey breaking ties — a total order both engines
    state), count prev-priority -> next-priority transitions. Whole
    customers co-locate in hash buckets, the LAG is a vectorized
    shift-compare inside the bucket, and only the bounded 5x5 matrix of
    integer counts leaves it."""
    from ..stages.shuffle import bucketed_group_apply

    orders = _read(sf_dir, "orders",
                   ["o_custkey", "o_orderdate", "o_orderkey",
                    "o_orderpriority"])

    def trans(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["o_custkey", "o_orderdate", "o_orderkey"])
        ck = g["o_custkey"].to_numpy()
        pr = g["o_orderpriority"].to_numpy()
        same = ck[1:] == ck[:-1]
        cells = pd.DataFrame({"prev_priority": pr[:-1][same],
                              "next_priority": pr[1:][same],
                              "n_transitions": np.int64(1)})
        return group_cells(cells, ["prev_priority", "next_priority"])

    return reduce_partials(bucketed_group_apply(orders, "o_custkey", trans),
                           ["prev_priority", "next_priority"])


def q_repeat_purchase_rate(sf_dir: str) -> pd.DataFrame:
    """Repeat-purchase rate per market segment — the funnel KPI behind
    every retention dashboard: of the customers who ordered at all, how
    many ordered twice or more? Per-batch per-customer count partials
    merge exactly inside custkey buckets, the >=2 gate reduces each
    customer to one bit, and only (segment, n, n_repeat) integers leave
    the bucket (segment attaches from the broadcast customer dim). The
    share is one exact int/int division."""
    from ..stages.shuffle import bucketed_group_apply

    orders = _read(sf_dir, "orders", ["o_custkey"])
    cust = base_pandas(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"])
    segref = ray.put(dict(zip(cust["c_custkey"], cust["c_mktsegment"])))

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return (df.groupby("o_custkey", as_index=False).size()
                  .rename(columns={"size": "n"}))

    def gate(g: pd.DataFrame) -> pd.DataFrame:
        c = g.groupby("o_custkey", as_index=False)["n"].sum()
        seg = c["o_custkey"].map(broadcast_get(segref)).to_numpy()
        cells = pd.DataFrame({
            "segment": seg, "n_customers": np.int64(1),
            "n_repeat": (c["n"].to_numpy() >= 2).astype(np.int64)})
        return group_cells(cells, "segment")

    out = reduce_partials(bucketed_group_apply(
        orders.map_batches(partial, batch_format="pandas"),
        "o_custkey", gate), "segment")
    out["repeat_share"] = (out["n_repeat"].to_numpy(np.float64)
                           / out["n_customers"].to_numpy(np.float64))
    return out


def q_linestatus_priority_counts(sf_dir: str,
                                 gate_bytes: int | None = None
                                 ) -> pd.DataFrame:
    """TPC-H Q12's shape: a fact-side classifier counted against an
    order attribute reached through the key — per linestatus, how many
    items belong to urgent/high-priority orders vs the rest. The
    high/low bit is computed once on the orders side, then the
    orderkey -> bit hop goes through the measured size gate
    (``attach_lookup``): one ray.put broadcast under it, a bucketed
    join over per-batch (orderkey, status, n) partials past it — orders
    is fact-proportional, so at 100 TB the gate picks the join. Only
    (status, high, low) integer cells reach the driver."""
    from ..stages.shuffle import attach_lookup

    raw_orders = _read(sf_dir, "orders",
                       ["o_orderkey", "o_orderpriority"])
    side = raw_orders.map_batches(
        lambda df: pd.DataFrame({
            "o_orderkey": df["o_orderkey"].to_numpy(),
            "o_high": df["o_orderpriority"]
            .isin(["1-URGENT", "2-HIGH"]).to_numpy().astype(np.int64)}),
        batch_format="pandas")

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_linestatus"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return (pd.DataFrame({"l_orderkey": df["l_orderkey"].to_numpy(),
                              "l_linestatus": df["l_linestatus"].to_numpy(),
                              "n": np.int64(1)})
                .groupby(["l_orderkey", "l_linestatus"], as_index=False)
                .sum())

    parts = li.map_batches(partial, batch_format="pandas")
    withh = attach_lookup(parts, "l_orderkey", side, "o_orderkey",
                          ["o_high"], gate_bytes=gate_bytes)

    def cells(df: pd.DataFrame) -> pd.DataFrame:
        hi = df["o_high"].to_numpy(np.int64)
        n = df["n"].to_numpy(np.int64)
        return pd.DataFrame({
            "l_linestatus": df["l_linestatus"].to_numpy(),
            "n_high": n * hi, "n_low": n * (1 - hi)})

    return reduce_partials(withh, "l_linestatus", cells)


_Q19_BRANCHES = (
    ("A", "PROMO", 1, 20, 1, 15),       # (name, p_type, qty lo/hi, size lo/hi)
    ("B", "ECONOMY", 10, 30, 5, 30),
    ("C", "LARGE", 20, 50, 10, 50),
)


def q_disjunctive_revenue(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q19's shape: revenue under an OR of attribute-conjunction
    branches spanning BOTH the fact (quantity) and a dimension (part
    type/size). The part attributes broadcast ONCE as two ray.put
    arrays indexed by partkey (6 bytes/part; past ~64 MB the classifier
    becomes a bucketed join stamping a branch id), every branch
    evaluates VECTORIZED over the batch, and a row landing in several
    branches counts in each (the report is per-branch, so the OR is an
    explicit union of branch cells, not a lost disjunction). Money is
    exact u4 integers."""
    part = base_pandas(sf_dir, "part", columns=["p_partkey", "p_type", "p_size"])
    tref = ray.put(dict(zip(part["p_partkey"], part["p_type"])))
    sref = ray.put(dict(zip(part["p_partkey"], part["p_size"])))

    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_quantity", "l_extendedprice", "l_discount"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        qty = np.round(df["l_quantity"].to_numpy()).astype(np.int64)
        cents = np.round(df["l_extendedprice"].to_numpy() * 100.0) \
            .astype(np.int64)
        d = np.round(df["l_discount"].to_numpy() * 100.0) \
            .astype(np.int64)
        u4 = cents * (100 - d)
        ptype = df["l_partkey"].map(broadcast_get(tref)).to_numpy()
        psize = df["l_partkey"].map(broadcast_get(sref)).to_numpy(np.int64)
        rows = []
        for name, typ, qlo, qhi, slo, shi in _Q19_BRANCHES:
            m = ((ptype == typ) & (qty >= qlo) & (qty <= qhi)
                 & (psize >= slo) & (psize <= shi))
            rows.append({"branch": name,
                         "n_items": np.int64(int(m.sum())),
                         "rev_u4": np.int64(int(u4[m].sum()))})
        return pd.DataFrame(rows)

    out = reduce_partials(li, "branch", partial)
    out["revenue"] = out["rev_u4"].to_numpy(np.float64) / 1e4
    return out.drop(columns=["rev_u4"])


def q_sole_late_supplier(sf_dir: str, k: int = 20) -> pd.DataFrame:
    """TPC-H Q21's shape: in multi-supplier orders, which supplier ALONE
    owns the strictly-latest ship date (the one everyone else waited
    on)? Whole orders co-locate in orderkey hash buckets; inside each
    bucket the per-order max ship date, the supplier-distinct count and
    the sole-argmax test are vectorized groupby reductions, and only
    (suppkey, n) integer partials leave. Date ties where two suppliers
    share the max blame NOBODY — the tie rule is stated identically in
    the oracle (distinct suppliers at the max must equal 1). Top-k
    winners attach names from the broadcast supplier dim; ties past k
    break on suppkey in both engines."""
    from ..stages.shuffle import bucketed_group_apply

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_suppkey", "l_shipdate"])

    def blame(g: pd.DataFrame) -> pd.DataFrame:
        g = g.assign(us=g["l_shipdate"].astype("int64"))
        agg = g.groupby("l_orderkey").agg(
            mx=("us", "max"), ns=("l_suppkey", "nunique"))
        multi = agg[agg["ns"] >= 2]
        if multi.empty:
            return pd.DataFrame({"l_suppkey": pd.Series(dtype="int64"),
                                 "n_blamed": pd.Series(dtype="int64")})
        m = g.merge(multi, left_on="l_orderkey", right_index=True)
        atmax = m[m["us"] == m["mx"]]
        per = atmax.groupby("l_orderkey")["l_suppkey"].agg(["nunique", "min"])
        sole = per[per["nunique"] == 1]["min"]
        cells = pd.DataFrame({"l_suppkey": sole.to_numpy(np.int64),
                              "n_blamed": np.int64(1)})
        return group_cells(cells, "l_suppkey")

    per_supp = reduce_partials(bucketed_group_apply(li, "l_orderkey", blame),
                               "l_suppkey")
    top = (per_supp.sort_values(["n_blamed", "l_suppkey"],
                                ascending=[False, True]).head(k))
    sup = base_pandas(sf_dir, "supplier", columns=["s_suppkey", "s_name"])
    top["s_name"] = top["l_suppkey"].map(
        dict(zip(sup["s_suppkey"], sup["s_name"])))
    return pd.DataFrame({
        "s_suppkey": top["l_suppkey"].to_numpy(np.int64),
        "s_name": top["s_name"].to_numpy(),
        "n_blamed": top["n_blamed"].to_numpy(np.int64),
    }).reset_index(drop=True)


def q_zorder_clustering_audit(sf_dir: str, bits: int = 16,
                              shard_shift: int = 22) -> pd.DataFrame:
    """Z-order (Morton) clustering audit — the locality report a
    layout optimizer publishes before re-clustering a table on two keys:
    every order maps to the interleaved 32-bit z-value of
    (custkey, orderkey) low 16 bits, shards are the z-space's top
    1024 ranges, and the per-shard row count + z-extent show how evenly
    a z-sort would spread load. Pure vectorized bit arithmetic per
    batch (the oracle states the identical interleave as a list
    comprehension); only 1024 integer cells leave each block."""
    o = _read(sf_dir, "orders", ["o_custkey", "o_orderkey"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        x = df["o_custkey"].to_numpy(np.int64) & 0xFFFF
        y = df["o_orderkey"].to_numpy(np.int64) & 0xFFFF
        z = np.zeros(len(df), dtype=np.int64)
        for i in range(bits):
            z |= ((x >> i) & 1) << (2 * i)
            z |= ((y >> i) & 1) << (2 * i + 1)
        return pd.DataFrame({"shard": z >> shard_shift,
                             "n_orders": np.int64(1), "min_z": z, "max_z": z})

    return reduce_partials(o, "shard", partial,
                           agg={"min_z": "min", "max_z": "max"})


def q_priority_month_bitmap(sf_dir: str) -> pd.DataFrame:
    """Bitmap-index summary: per order priority, the OR-merged bitmask
    of calendar months that ever saw such an order, plus its popcount.
    BIT_OR partials merge in any order on any topology (the XOR-checksum
    family's OR sibling); the mask and its bit count are pure integers
    in both engines."""
    o = _read(sf_dir, "orders", ["o_orderpriority", "o_orderdate"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        month = df["o_orderdate"].dt.month.to_numpy(np.int64)
        return (pd.DataFrame({"o_orderpriority": df["o_orderpriority"],
                              "mask": np.int64(1) << month})
                .groupby("o_orderpriority", as_index=False)
                .agg(mask=("mask", lambda v: np.bitwise_or.reduce(
                    v.to_numpy(np.int64)))))

    parts = o.map_batches(partial, batch_format="pandas").to_pandas()
    out = parts.groupby("o_orderpriority", as_index=False).agg(
        mask=("mask", lambda v: np.bitwise_or.reduce(
            v.to_numpy(np.int64))))
    out["month_mask"] = out["mask"].astype("int64")
    out["n_months"] = out["mask"].map(
        lambda v: int(bin(int(v)).count("1"))).astype("int64")
    return (out.drop(columns=["mask"])
               .sort_values("o_orderpriority").reset_index(drop=True))


def q_forecast_revenue_change(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q6's shape: the what-if aggregate — revenue that would have
    been retained by dropping discounts in a (year, discount-band,
    small-quantity) slice. Pure scan-side predicate (no join, no
    shuffle): every filter column prunes in the same map_batches pass,
    and the forgone revenue sums as exact u4 integers (cents x
    disc_pct). One row out; one exact display division."""
    li = _read(sf_dir, "lineitem",
               ["l_extendedprice", "l_discount", "l_quantity",
                "l_shipdate"])
    lo = np.datetime64("1997-01-01", "us").astype(np.int64)
    hi = np.datetime64("1998-01-01", "us").astype(np.int64)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        us = df["l_shipdate"].astype("int64").to_numpy()
        d = np.round(df["l_discount"].to_numpy() * 100.0).astype(np.int64)
        qty = np.round(df["l_quantity"].to_numpy()).astype(np.int64)
        m = ((us >= lo) & (us < hi) & (d >= 5) & (d <= 7) & (qty < 24))
        cents = np.round(df["l_extendedprice"].to_numpy()[m] * 100.0) \
            .astype(np.int64)
        return pd.DataFrame({"n_items": [np.int64(int(m.sum()))],
                             "u4": [np.int64(int((cents * d[m]).sum()))]})

    parts = li.map_batches(partial, batch_format="pandas").to_pandas()
    n = np.int64(parts["n_items"].sum())
    u4 = np.int64(parts["u4"].sum())
    return pd.DataFrame({"n_items": [n],
                         "forgone_revenue": [np.float64(u4) / 1e4]})


def q_customer_order_distribution(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q13's shape: the customer-by-order-count distribution
    INCLUDING the zero-order customers a plain fact groupby silently
    drops. Per-customer counts merge inside custkey buckets and collapse
    to a bounded count-of-counts there (one row per distinct order
    count); the zero bucket is total customers minus customers seen in
    the fact — two scalar counts, no anti-join materializes."""
    from ..stages.shuffle import bucketed_group_apply

    orders = _read(sf_dir, "orders", ["o_custkey"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return (df.groupby("o_custkey", as_index=False).size()
                  .rename(columns={"size": "n"}))

    def coc(g: pd.DataFrame) -> pd.DataFrame:
        c = g.groupby("o_custkey", as_index=False)["n"].sum()
        cells = pd.DataFrame({"n_orders": c["n"].to_numpy(),
                              "n_customers": np.int64(1)})
        return group_cells(cells, "n_orders")

    out = reduce_partials(bucketed_group_apply(
        orders.map_batches(partial, batch_format="pandas"),
        "o_custkey", coc), "n_orders")
    n_total = len(base_pandas(sf_dir, "customer", columns=["c_custkey"]))
    n_zero = n_total - int(out["n_customers"].sum())
    if n_zero > 0:
        out = pd.concat([pd.DataFrame({"n_orders": [0],
                                       "n_customers": [n_zero]}), out],
                        ignore_index=True)
    return out


def q_small_order_revenue(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q17's shape: revenue locked in 'small' lineitems — those
    with quantity strictly below 20% of their own part's mean quantity.
    The per-part mean never exists as a float: the gate cross-multiplies
    to 5 * qty * n_p < sum_p in exact int64 (the above-customer-avg
    precedent), per-part (n, sum) partials come from one fact scan and
    ride back as a broadcast lookup (part-bounded; past the gate the
    second pass becomes a bucketed join on l_partkey), and the one
    display division closes over exact integer cents."""
    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_quantity", "l_extendedprice"])

    def qty_partial(df: pd.DataFrame) -> pd.DataFrame:
        qty = np.round(df["l_quantity"].to_numpy()).astype(np.int64)
        return pd.DataFrame({"p": df["l_partkey"].to_numpy(),
                             "n": np.int64(1), "s": qty})

    parts = reduce_partials(li, "p", qty_partial)
    nref = ray.put(dict(zip(parts["p"], parts["n"])))
    sref = ray.put(dict(zip(parts["p"], parts["s"])))

    def gate(df: pd.DataFrame) -> pd.DataFrame:
        qty = np.round(df["l_quantity"].to_numpy()).astype(np.int64)
        nn = df["l_partkey"].map(broadcast_get(nref)).to_numpy(np.int64)
        ss = df["l_partkey"].map(broadcast_get(sref)).to_numpy(np.int64)
        m = 5 * qty * nn < ss
        cents = np.round(df["l_extendedprice"].to_numpy()[m] * 100.0) \
            .astype(np.int64)
        return pd.DataFrame({"n_items": [np.int64(int(m.sum()))],
                             "cents": [np.int64(int(cents.sum()))]})

    out = (li.map_batches(gate, batch_format="pandas").to_pandas().sum())
    return pd.DataFrame({
        "n_items": [np.int64(out["n_items"])],
        "small_revenue": [np.float64(np.int64(out["cents"])) / 100.0]})


def q_nation_share_of_region(sf_dir: str,
                             gate_bytes: int | None = None) -> pd.DataFrame:
    """TPC-H Q8's percent-of-parent shape: each nation's share of its
    REGION's revenue. One fact scan produces per-batch per-orderkey
    exact u4 integer partials; the customer-nation hop attaches through
    the measured size gate (``attach_lookup`` — ray.put dict under it,
    bucketed joins past it, both the customer and orders hops gated
    since both tables are fact-proportional). The region totals close
    on the bounded nation table, and each share is one exact int/int
    division — no float revenue ever aggregates."""
    from ..stages.shuffle import attach_lookup

    nat = base_pandas(sf_dir, "nation", columns=["n_nationkey", "n_name", "n_regionkey"])
    reg = base_pandas(sf_dir, "region", columns=["r_regionkey", "r_name"])

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_extendedprice", "l_discount"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        cents = np.round(df["l_extendedprice"].to_numpy() * 100.0) \
            .astype(np.int64)
        d = np.round(df["l_discount"].to_numpy() * 100.0).astype(np.int64)
        return (pd.DataFrame({
            "l_orderkey": df["l_orderkey"].to_numpy(),
            "u4": cents * (100 - d)})
            .groupby("l_orderkey", as_index=False).sum())

    parts = li.map_batches(partial, batch_format="pandas")
    side = _orders_cust_nation_side(sf_dir, gate_bytes)
    withn = attach_lookup(parts, "l_orderkey", side, "o_orderkey",
                          ["c_nationkey"], gate_bytes=gate_bytes)

    def cells(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"nk": df["c_nationkey"].to_numpy(np.int64),
                             "u4": df["u4"].to_numpy(np.int64)})

    per_nation = reduce_partials(withn, "nk", cells)
    per_nation["nation"] = per_nation["nk"].map(
        dict(zip(nat["n_nationkey"], nat["n_name"])))
    rk = per_nation["nk"].map(
        dict(zip(nat["n_nationkey"], nat["n_regionkey"])))
    per_nation["region"] = rk.map(
        dict(zip(reg["r_regionkey"], reg["r_name"])))
    tot = per_nation.groupby("region")["u4"].transform("sum")
    out = pd.DataFrame({
        "region": per_nation["region"],
        "nation": per_nation["nation"],
        "revenue": per_nation["u4"].to_numpy(np.float64) / 1e4,
        "region_share": (per_nation["u4"].to_numpy(np.float64)
                         / tot.to_numpy(np.float64))})
    return (out.sort_values(["region", "nation"])
               .reset_index(drop=True))


def q_except_all_counts(sf_dir: str) -> pd.DataFrame:
    """MULTISET set-op semantics beside the _distinct family: clicks
    EXCEPT ALL purchases by user — each user survives with multiplicity
    max(clicks - purchases, 0), the bag difference DISTINCT can't
    express. Both multiplicities come from ONE scan as (user, +1/+1)
    integer partials merged in user buckets; the clip is one vectorized
    max. Only survivors emit (EXCEPT ALL yields no zero rows)."""
    from ..stages.shuffle import bucketed_group_apply

    ev = _read(sf_dir, "events", ["user_id", "event_type"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["event_type"].isin(("click", "purchase"))]
        t = df["event_type"].to_numpy()
        return (pd.DataFrame({"user_id": df["user_id"].to_numpy(),
                              "n_click": (t == "click").astype(np.int64),
                              "n_purchase": (t == "purchase")
                              .astype(np.int64)})
                .groupby("user_id", as_index=False).sum())

    def clip(g: pd.DataFrame) -> pd.DataFrame:
        c = g.groupby("user_id", as_index=False).sum()
        mult = np.maximum(c["n_click"].to_numpy(np.int64)
                          - c["n_purchase"].to_numpy(np.int64), 0)
        keep = mult > 0
        return pd.DataFrame({"user_id": c["user_id"].to_numpy()[keep],
                             "multiplicity": mult[keep]})

    out = bucketed_group_apply(
        ev.map_batches(partial, batch_format="pandas"),
        "user_id", clip).to_pandas()
    return (out.astype({"user_id": "int64", "multiplicity": "int64"})
               .sort_values("user_id").reset_index(drop=True))


def q_cheapest_supplier_per_part(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q2's shape without a partsupp table: the cheapest observed
    supplier per part from lineitem history. Unit price is the FIXED-
    POINT integer (cents * 1e6) // qty — stated identically in both
    engines, so the argmin never compares two float divisions whose last
    ulps could disagree about a tie; ties break on suppkey. Per-batch
    per-(part, supplier) min partials collapse the fact side, whole
    parts co-locate in part-hash buckets for the exact argmin, and one
    row per part leaves."""
    from ..stages.shuffle import bucketed_group_apply

    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_suppkey", "l_extendedprice", "l_quantity"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        cents = np.round(df["l_extendedprice"].to_numpy() * 100.0) \
            .astype(np.int64)
        qty = np.round(df["l_quantity"].to_numpy()).astype(np.int64)
        unit_u = (cents * 1_000_000) // qty
        return (pd.DataFrame({"l_partkey": df["l_partkey"].to_numpy(),
                              "l_suppkey": df["l_suppkey"].to_numpy(),
                              "unit_u": unit_u})
                .groupby(["l_partkey", "l_suppkey"], as_index=False)
                .min())

    def argmin(g: pd.DataFrame) -> pd.DataFrame:
        m = g.groupby(["l_partkey", "l_suppkey"], as_index=False).min()
        m = m.sort_values(["l_partkey", "unit_u", "l_suppkey"])
        return m.drop_duplicates("l_partkey", keep="first")

    out = bucketed_group_apply(
        li.map_batches(partial, batch_format="pandas"),
        "l_partkey", argmin).to_pandas()
    out["unit_price"] = out["unit_u"].to_numpy(np.float64) / 1e8
    return (out.drop(columns=["unit_u"])
               .astype({"l_partkey": "int64", "l_suppkey": "int64"})
               .rename(columns={"l_partkey": "p_partkey",
                                "l_suppkey": "s_suppkey"})
               .sort_values("p_partkey").reset_index(drop=True))


def _orders_cust_nation_side_window(sf_dir: str, lo: str, hi: str,
                                    gate_bytes: int | None):
    """(o_orderkey, c_nationkey) side restricted to an orderdate window —
    the Q5 variant of `_orders_cust_nation_side`: the date filter prunes
    orders BEFORE the (gated) customer hop, and lineitems of out-of-window
    orders later drop via the attach's null-fill (the semi-join effect)."""
    from ..stages.shuffle import attach_lookup

    lo_us = np.datetime64(lo, "us").astype(np.int64)
    hi_us = np.datetime64(hi, "us").astype(np.int64)
    raw = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"])

    def window(df: pd.DataFrame) -> pd.DataFrame:
        us = df["o_orderdate"].astype("int64").to_numpy()
        return df.loc[(us >= lo_us) & (us < hi_us),
                      ["o_orderkey", "o_custkey"]]

    orders = raw.map_batches(window, batch_format="pandas")
    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    withn = attach_lookup(orders, "o_custkey", cust, "c_custkey",
                          ["c_nationkey"], gate_bytes=gate_bytes)
    return withn.map_batches(
        lambda df: pd.DataFrame({
            "o_orderkey": df["o_orderkey"].to_numpy(),
            "c_nationkey": df["c_nationkey"].to_numpy(np.int64)}),
        batch_format="pandas")


def q_local_supplier_volume(sf_dir: str, region: str = "ASIA",
                            year_lo: str = "1996-01-01",
                            year_hi: str = "1997-01-01",
                            gate_bytes: int | None = None) -> pd.DataFrame:
    """TPC-H Q5's shape: revenue per nation from lineitems whose
    SUPPLIER and CUSTOMER sit in the same nation of one region, for one
    order year. Supplier->nation and nation->region are true broadcast
    dims; the customer hop rides the measured size gate through the
    date-windowed side (out-of-window lineitems drop at the attach's
    null-fill); revenue compounds as exact int64 u4 units with the one
    display division per nation."""
    from ..stages.shuffle import attach_lookup

    sup = base_pandas(sf_dir, "supplier", columns=["s_suppkey", "s_nationkey"])
    nat = base_pandas(sf_dir, "nation",
                      columns=["n_nationkey", "n_name", "n_regionkey"])
    reg = base_pandas(sf_dir, "region", columns=["r_regionkey", "r_name"])
    rkey = int(reg.loc[reg["r_name"] == region, "r_regionkey"].iloc[0])
    in_region = set(nat.loc[nat["n_regionkey"] == rkey,
                            "n_nationkey"].tolist())
    s2n = dict(zip(sup["s_suppkey"], sup["s_nationkey"]))
    sref = ray.put((s2n, in_region))

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        s2n, region_nations = broadcast_get(sref)
        snat = df["l_suppkey"].map(s2n).to_numpy(np.int64)
        keep = np.isin(snat, list(region_nations))
        df, snat = df[keep], snat[keep]
        cents = np.round(df["l_extendedprice"].to_numpy() * 100.0) \
            .astype(np.int64)
        d = np.round(df["l_discount"].to_numpy() * 100.0).astype(np.int64)
        return (pd.DataFrame({"l_orderkey": df["l_orderkey"].to_numpy(),
                              "supp_nation": snat,
                              "rev_u4": cents * (100 - d)})
                .groupby(["l_orderkey", "supp_nation"],
                         as_index=False).sum())

    parts = li.map_batches(partial, batch_format="pandas")
    side = _orders_cust_nation_side_window(sf_dir, year_lo, year_hi,
                                           gate_bytes)
    withn = attach_lookup(parts, "l_orderkey", side, "o_orderkey",
                          ["c_nationkey"], gate_bytes=gate_bytes)

    def local_cells(df: pd.DataFrame) -> pd.DataFrame:
        df = df.dropna(subset=["c_nationkey"])
        df = df[df["c_nationkey"].to_numpy(np.int64)
                == df["supp_nation"].to_numpy(np.int64)]
        return pd.DataFrame({"n_nationkey": df["supp_nation"]
                             .to_numpy(np.int64),
                             "rev_u4": df["rev_u4"].to_numpy(np.int64)})

    out = reduce_partials(withn, "n_nationkey", local_cells)
    nmap = dict(zip(nat["n_nationkey"], nat["n_name"]))
    out["n_name"] = out["n_nationkey"].map(nmap)
    out["revenue"] = out["rev_u4"].to_numpy(np.float64) / 1e4
    return (out[["n_name", "revenue"]]
            .sort_values("n_name").reset_index(drop=True))


def q_promo_revenue_share(sf_dir: str, lo: str = "1996-03-01",
                          hi: str = "1996-04-01") -> pd.DataFrame:
    """TPC-H Q14's shape: the PROMO share of one month's revenue. The
    part->is_promo map is a true broadcast dim; ONE pruned lineitem scan
    emits two int64 u4 partial sums; the share closes as
    100 * promo/total in the stated order (two exact int sums, one
    float division, one *100)."""
    part = base_pandas(sf_dir, "part", columns=["p_partkey", "p_type"])
    promo = set(part.loc[part["p_type"] == "PROMO", "p_partkey"].tolist())
    pref = ray.put(promo)
    lo_us = np.datetime64(lo, "us").astype(np.int64)
    hi_us = np.datetime64(hi, "us").astype(np.int64)

    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_extendedprice", "l_discount", "l_shipdate"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        us = df["l_shipdate"].astype("int64").to_numpy()
        df = df[(us >= lo_us) & (us < hi_us)]
        cents = np.round(df["l_extendedprice"].to_numpy() * 100.0) \
            .astype(np.int64)
        d = np.round(df["l_discount"].to_numpy() * 100.0).astype(np.int64)
        u4 = cents * (100 - d)
        is_promo = df["l_partkey"].isin(broadcast_get(pref)).to_numpy()
        return pd.DataFrame({"promo_u4": [int(u4[is_promo].sum())],
                             "total_u4": [int(u4.sum())]})

    s = li.map_batches(partial, batch_format="pandas").to_pandas().sum()
    share = 100.0 * (float(int(s["promo_u4"])) / float(int(s["total_u4"])))
    return pd.DataFrame({"promo_u4": [int(s["promo_u4"])],
                         "total_u4": [int(s["total_u4"])],
                         "promo_share": [round_half_away(
                             np.float64(share), 6)]})


def q_idle_rich_customers(sf_dir: str, recent: str = "1999-01-01",
                          gate_bytes: int | None = None) -> pd.DataFrame:
    """TPC-H Q22's shape adapted to this schema (no phone column —
    grouped by NATION): customers whose account balance exceeds the
    average positive balance and who have placed no order SINCE the
    ``recent`` cutoff (Q22's seven-idle-years test; every fixture
    customer has SOME order, so the cutoff is what makes the anti-join
    live), counted per nation with their total balance. The global
    (sum, count) of positive balances is two int64 cells; the
    above-average test cross-multiplies (cents * n > sum_cents) so no
    per-row division exists; the "no recent order" test attaches a flag
    from the date-filtered DISTINCT o_custkey side through the measured
    size gate (orders is fact-proportional) and keeps the null-filled
    rows — a gated ANTI join. Balance totals display via one /100
    division per nation."""
    from ..stages.shuffle import attach_lookup

    recent_us = np.datetime64(recent, "us").astype(np.int64)
    cust = _read(sf_dir, "customer",
                 ["c_custkey", "c_nationkey", "c_acctbal"])

    def bal_partial(df: pd.DataFrame) -> pd.DataFrame:
        cents = np.round(df["c_acctbal"].to_numpy() * 100.0) \
            .astype(np.int64)
        pos = cents > 0
        return pd.DataFrame({"s": [int(cents[pos].sum())],
                             "n": [int(pos.sum())]})

    tot = cust.map_batches(bal_partial, batch_format="pandas") \
        .to_pandas().sum()
    s_cents, n_pos = int(tot["s"]), int(tot["n"])

    raw_orders = _read(sf_dir, "orders", ["o_custkey", "o_orderdate"])

    def recent_custkeys(df: pd.DataFrame) -> pd.DataFrame:
        us = df["o_orderdate"].astype("int64").to_numpy()
        return pd.DataFrame({
            "o_custkey": pd.unique(df["o_custkey"].to_numpy()[us >= recent_us]),
            "has_order": np.int64(1)})

    seen = raw_orders.map_batches(recent_custkeys, batch_format="pandas")

    def rich(df: pd.DataFrame) -> pd.DataFrame:
        cents = np.round(df["c_acctbal"].to_numpy() * 100.0) \
            .astype(np.int64)
        keep = cents * n_pos > s_cents
        out = df[keep].copy()
        out["bal_cents"] = cents[keep]
        return out[["c_custkey", "c_nationkey", "bal_cents"]]

    flagged = attach_lookup(cust.map_batches(rich, batch_format="pandas"),
                            "c_custkey", seen, "o_custkey", ["has_order"],
                            gate_bytes=gate_bytes)

    def idle_cells(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["has_order"].isna()]
        return pd.DataFrame({"c_nationkey": df["c_nationkey"]
                             .to_numpy(np.int64),
                             "numcust": np.int64(1),
                             "bal_cents": df["bal_cents"].to_numpy(np.int64)})

    out = reduce_partials(flagged, "c_nationkey", idle_cells)
    nat = base_pandas(sf_dir, "nation", columns=["n_nationkey", "n_name"])
    out["n_name"] = out["c_nationkey"].map(
        dict(zip(nat["n_nationkey"], nat["n_name"])))
    out["totacctbal"] = out["bal_cents"].to_numpy(np.float64) / 100.0
    return (out[["n_name", "numcust", "totacctbal"]]
            .sort_values("n_name").reset_index(drop=True))
