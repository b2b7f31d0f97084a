"""Sequence / co-occurrence / order-statistic analytics, each shaped for
the 100-TB path and each with a DuckDB oracle twin.

New scale patterns exercised here (beyond the partial-aggregate and
whole-group-bucket shapes in relational*.py):

- ragged vectorized SELF-JOIN pair explosion inside key buckets
  (q_brand_pair_counts) — the market-basket co-occurrence query whose
  naive form is an O(n^2) self-join; here the explosion happens only
  within an order's handful of rows and only count partials leave;
- per-entity SEQUENTIAL pattern over event time (q_event_transitions) —
  the Markov-transition matrix, resolved by one vectorized shift inside
  whole-user buckets;
- information-theoretic aggregates with libm float parity
  (q_user_entropy, q_geomean_per_group): DuckDB's LN/EXP are libm calls
  (``math.log``/``math.exp`` match them BITWISE; ``np.log``/``np.exp``
  differ in the last ulp on ~25% of inputs — measured), so the closed
  forms evaluate through libm and state the oracle SQL with the exact
  same operand order;
- window-function ranks without a global sort (q_percent_rank_orders):
  PERCENT_RANK/CUME_DIST close over (rank, group size), both exact
  integers, so the division is bit-identical in either engine;
- monotone-filter + tiny-merge (q_skyline_parts): the 2-D Pareto
  frontier; each block's local skyline is a superset of its contribution
  to the global one, so blocks reduce independently and only O(frontier)
  candidate rows ever reach the driver.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import ray
import ray.data as rd

from ..functions.numeric import round_half_away
from ..stages.shuffle import (broadcast_get, bucketed_group_apply, group_cells,
                              reduce_partials)
from ..sources.tablecache import base_dataset, base_pandas

EVENT_TYPES = ["click", "error", "purchase", "signup", "view"]

# libm-parity elementwise log/exp (see module docstring); only ever
# applied to per-batch single columns or tiny final frames (plain
# functions, not module-level frompyfunc ufuncs — those don't pickle
# into Ray tasks)
def _ln(arr) -> np.ndarray:
    a = np.asarray(arr, dtype=np.float64)
    return np.fromiter((math.log(v) for v in a.ravel()),
                       dtype=np.float64, count=a.size).reshape(a.shape)


def _exp(arr) -> np.ndarray:
    a = np.asarray(arr, dtype=np.float64)
    return np.fromiter((math.exp(v) for v in a.ravel()),
                       dtype=np.float64, count=a.size).reshape(a.shape)


def _read(sf_dir: str, table: str, columns: list[str] | None = None) -> rd.Dataset:
    return base_dataset(sf_dir, table, columns=columns)


def q_event_transitions(sf_dir: str) -> pd.DataFrame:
    """Markov transition counts over per-user event sequences: for every
    user's events ordered by (ts, event_id), count (prev_type ->
    next_type) adjacencies. Users co-locate whole in hash buckets; inside
    a bucket ONE vectorized sort + shift resolves every user's sequence
    at once (a row pairs with its predecessor iff the user_id matches
    after the shift), and only the <= |types|^2 count partials leave each
    bucket. The 100-TB cost is one all-to-all of (user, type, ts) triples."""
    ev = _read(sf_dir, "events", ["event_id", "user_id", "event_type", "ts"])

    def trans(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        same = g["user_id"].eq(g["user_id"].shift(1))
        cells = pd.DataFrame({
            "prev_type": g["event_type"].shift(1)[same].to_numpy(),
            "next_type": g.loc[same, "event_type"].to_numpy(),
            "n": np.int64(1)})
        return group_cells(cells, ["prev_type", "next_type"])

    return reduce_partials(bucketed_group_apply(ev, "user_id", trans),
                           ["prev_type", "next_type"])


def q_brand_pair_counts(sf_dir: str) -> pd.DataFrame:
    """Market-basket co-occurrence: for each unordered pair of part
    brands, in how many orders do both appear? The naive form is a
    fact-table SELF-JOIN on l_orderkey — quadratic in order size and an
    extra all-to-all. Here: the brand dim rides in once via ray.put (the
    J3 broadcast-lookup pattern), each batch pre-dedups (order, brand) so
    the shuffle moves distinct memberships only, orders co-locate whole
    in hash buckets, and the pair explosion is a RAGGED VECTORIZED
    arange (no per-order Python loop) bounded by the largest single
    order — never by the table. Only <=C(|brands|,2) count partials
    leave each bucket. (Scale note: the partkey->brand map broadcasts
    because brands are a bounded vocabulary over a dim table; were the
    dim to outgrow ray.put, the lookup becomes one bucketed_join on
    partkey BEFORE the okey shuffle — same downstream shape.)"""
    part = base_pandas(sf_dir, "part", columns=["p_partkey", "p_brand"])
    ref = ray.put(dict(zip(part["p_partkey"], part["p_brand"])))

    def to_brand(df: pd.DataFrame) -> pd.DataFrame:
        return (pd.DataFrame({"okey": df["l_orderkey"].to_numpy(),
                              "brand": df["l_partkey"].map(broadcast_get(ref))})
                .drop_duplicates())

    li = (_read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])
          .map_batches(to_brand, batch_format="pandas"))

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        d = (g.drop_duplicates(["okey", "brand"])
              .sort_values(["okey", "brand"], kind="mergesort"))
        m = d.groupby("okey", sort=False)["brand"].transform("size").to_numpy()
        pos = d.groupby("okey", sort=False).cumcount().to_numpy()
        cnt = m - pos - 1                       # pairs this row leads
        a_idx = np.repeat(np.arange(len(d)), cnt)
        starts = np.cumsum(cnt) - cnt           # ragged-arange trick
        b_idx = (np.arange(int(cnt.sum())) - np.repeat(starts, cnt)
                 + np.repeat(np.arange(len(d)) + 1, cnt))
        brands = d["brand"].to_numpy()
        cells = pd.DataFrame({"brand_a": brands[a_idx],
                              "brand_b": brands[b_idx], "n": np.int64(1)})
        return group_cells(cells, ["brand_a", "brand_b"])

    return reduce_partials(
        bucketed_group_apply(li, "okey", pairs,
                             partial_fn=lambda df: df.drop_duplicates()),
        ["brand_a", "brand_b"])


def q_user_entropy(sf_dir: str) -> pd.DataFrame:
    """Shannon entropy of each user's event-type mix, from mergeable
    per-(user, type) count partials — H = ln(n) - sum(c*ln(c))/n closes
    over exact integer counts, so nothing float crosses the wire. The
    event-type vocabulary is FIXED (5 values), so the oracle SQL pivots
    the counts into five named columns and adds the five entropy terms in
    a stated order; this side evaluates the identical expression through
    libm (math.log == DuckDB LN bitwise) for a bit-exact compare."""
    ev = _read(sf_dir, "events", ["user_id", "event_type"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return (df.groupby(["user_id", "event_type"], as_index=False)
                  .size().rename(columns={"size": "n"}))

    def ent(g: pd.DataFrame) -> pd.DataFrame:
        c = (g.groupby(["user_id", "event_type"])["n"].sum()
              .unstack(fill_value=0)
              .reindex(columns=EVENT_TYPES, fill_value=0)
              .astype(np.float64))
        cols = [c[t].to_numpy() for t in EVENT_TYPES]
        n = cols[0] + cols[1] + cols[2] + cols[3] + cols[4]
        terms = [np.where(v > 0, v * _ln(np.where(v > 0, v, 1.0)).astype(np.float64), 0.0)
                 for v in cols]
        t = terms[0] + terms[1] + terms[2] + terms[3] + terms[4]
        h = _ln(n).astype(np.float64) - t / n
        return pd.DataFrame({"user_id": c.index.to_numpy(),
                             "n_events": n.astype(np.int64),
                             "entropy": round_half_away(h, 4)})

    out = bucketed_group_apply(ev, "user_id", ent,
                               partial_fn=partial).to_pandas()
    return out.sort_values("user_id").reset_index(drop=True)


def q_geomean_per_group(sf_dir: str) -> pd.DataFrame:
    """Geometric mean order price per priority: exp(sum(ln x)/n) from
    mergeable (sum-of-logs, count) partials — the multiplicative mean a
    plain SUM cannot give, at the same two-float-per-group wire cost.
    Logs evaluate through libm per batch (bitwise DuckDB LN parity);
    only the final 5-row exp runs on the driver."""
    ds = _read(sf_dir, "orders", ["o_orderpriority", "o_totalprice"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        lx = _ln(df["o_totalprice"].to_numpy()).astype(np.float64)
        return pd.DataFrame({"o_orderpriority": df["o_orderpriority"],
                             "s": lx, "n": np.int64(1)})

    a = reduce_partials(ds, "o_orderpriority", partial)
    g = _exp((a["s"] / a["n"]).to_numpy()).astype(np.float64)
    return pd.DataFrame({"o_orderpriority": a["o_orderpriority"],
                         "geomean_price": round_half_away(g, 4),
                         "n_orders": a["n"]})


def q_percent_rank_orders(sf_dir: str) -> pd.DataFrame:
    """PERCENT_RANK and CUME_DIST of every order's price within its
    priority — window ranks without a global sort: priorities are few
    and bounded, so each co-locates whole in a hash bucket (the
    dense-rank/median pattern) and both statistics close over (min-rank,
    max-rank, group size), all exact integers — the single division is
    bit-identical in either engine, no rounding needed."""
    o = _read(sf_dir, "orders",
              ["o_orderkey", "o_orderpriority", "o_totalprice"])

    def ranks(g: pd.DataFrame) -> pd.DataFrame:
        grp = g.groupby("o_orderpriority")["o_totalprice"]
        r_min = grp.rank(method="min").to_numpy()
        r_max = grp.rank(method="max").to_numpy()
        n = grp.transform("size").to_numpy().astype(np.float64)
        pct = np.where(n > 1, (r_min - 1.0) / (n - 1.0), 0.0)
        return pd.DataFrame({"o_orderkey": g["o_orderkey"].to_numpy(),
                             "pct_rank": pct,
                             "cume_d": r_max / n})

    out = bucketed_group_apply(o, "o_orderpriority", ranks).to_pandas()
    return out.sort_values("o_orderkey").reset_index(drop=True)


def q_skyline_parts(sf_dir: str) -> pd.DataFrame:
    """2-D skyline (Pareto frontier) of parts minimizing (p_size,
    p_retailprice): a part survives iff no other part is <= on both axes
    and < on at least one. Local skylines are a MONOTONE filter — a
    block's skyline is a superset of its rows' contribution to the
    global skyline — so every block reduces independently (one vectorized
    sort + per-size min + prefix cummin, no pairwise loop) and only
    O(frontier) candidates reach the driver, where the same kernel runs
    once more over their union. Random 2-D data keeps frontiers ~O(log
    block); the all-pairs NOT EXISTS the oracle runs would be quadratic."""
    pt = _read(sf_dir, "part", ["p_partkey", "p_size", "p_retailprice"])

    def local_skyline(df: pd.DataFrame) -> pd.DataFrame:
        d = df.sort_values(["p_size", "p_retailprice"], kind="mergesort")
        # same-size: only min-price rows (ties all survive: no strict edge)
        gmin = d.groupby("p_size")["p_retailprice"].transform("min")
        d = d[d["p_retailprice"] == gmin]
        # smaller-size: dominated iff prefix min price <= own price
        u = d.drop_duplicates("p_size")
        prefix = u["p_retailprice"].cummin().shift(1)
        alive = u.loc[prefix.isna() | (u["p_retailprice"] < prefix), "p_size"]
        return d[d["p_size"].isin(alive)]

    cand = (pt.map_batches(local_skyline, batch_format="pandas")
              .to_pandas())                      # O(frontier) rows
    out = local_skyline(cand)
    return out.sort_values("p_partkey").reset_index(drop=True)


def q_interval_union_per_user(sf_dir: str) -> pd.DataFrame:
    """Gaps-and-islands with EXACT integer time math: give every event a
    [ts, ts+300s) activity interval, merge overlaps per user, report
    island count and total covered time. All arithmetic stays in int64
    MICROSECONDS end to end (the event_gap lesson: a float seconds
    division differs from SQL in the last ulp; integers cannot), so the
    oracle compares BIGINTs. Users co-locate whole by hash bucket; inside
    a bucket the island assignment is one segmented cummax + shift + 
    cumsum (all cython groupby kernels, no per-user Python)."""
    span_us = 300 * 1_000_000
    ev = _read(sf_dir, "events", ["user_id", "ts"])

    def islands(g: pd.DataFrame) -> pd.DataFrame:
        g = g.assign(s=g["ts"].astype("int64"))
        g = g.sort_values(["user_id", "s"], kind="mergesort")
        g["e"] = g["s"] + span_us
        seg = (g["user_id"] != g["user_id"].shift(1)).cumsum()
        prev_e = g.groupby(seg)["e"].cummax().groupby(seg).shift(1)
        new_isl = prev_e.isna() | (g["s"] > prev_e)
        isl = new_isl.cumsum()                  # global ids: per-(user,isl)
        per = g.groupby(["user_id", isl]).agg(lo=("s", "min"),
                                              hi=("e", "max"))
        cov = per["hi"] - per["lo"]
        out = cov.groupby(level=0).agg(["size", "sum"])
        return pd.DataFrame({"user_id": out.index.to_numpy(),
                             "n_islands": out["size"].to_numpy(np.int64),
                             "covered_us": out["sum"].to_numpy(np.int64)})

    out = bucketed_group_apply(ev, "user_id", islands).to_pandas()
    return (out.astype({"n_islands": "int64", "covered_us": "int64"})
               .sort_values("user_id").reset_index(drop=True))


def q_cumulative_new_users(sf_dir: str) -> pd.DataFrame:
    """Daily new-user curve: first-seen timestamp per user is a MERGEABLE
    argmin partial (each batch ships at most one row per user it saw),
    the per-day counts and the running cumulative then run over the tiny
    (users -> days) frame on the driver — the cumulative COUNT(DISTINCT)
    no engine can window directly, decomposed into two cheap passes."""
    ev = _read(sf_dir, "events", ["user_id", "ts"])

    f = reduce_partials(ev, "user_id",
                        lambda df: df.rename(columns={"ts": "first_ts"}),
                        agg={"first_ts": "min"})
    day = f["first_ts"].dt.floor("D")
    d = (pd.DataFrame({"day": day})
           .groupby("day", as_index=False).size()
           .rename(columns={"size": "n_new"})
           .sort_values("day").reset_index(drop=True))
    d["n_new"] = d["n_new"].astype("int64")
    d["cum_users"] = d["n_new"].cumsum().astype("int64")
    return d


def q_mutual_information(sf_dir: str) -> pd.DataFrame:
    """Mutual information between event_type and ISO day-of-week — the
    feature-relevance screen run before training on a categorical: MI
    closes over the (type, dow) CONTINGENCY COUNTS, all exact integers
    from mergeable partials, so the only float work is 35 terms of
    (c/N)*ln(cN/(r*k)) on the driver, evaluated through libm with the
    oracle stating the identical expression. Nothing but the 5x7 count
    grid ever leaves the cluster."""
    ev = _read(sf_dir, "events", ["event_type", "ts"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        d = df["ts"].dt.dayofweek.to_numpy() + 1      # == SQL ISODOW
        return pd.DataFrame({"t": df["event_type"].to_numpy(), "d": d,
                             "c": np.int64(1)})

    c = reduce_partials(ev, ["t", "d"], partial)
    cc = c["c"].to_numpy(np.float64)
    n = cc.sum()                                      # integer-exact
    r = c.groupby("t")["c"].transform("sum").to_numpy(np.float64)
    k = c.groupby("d")["c"].transform("sum").to_numpy(np.float64)
    terms = (cc / n) * _ln((cc * n) / (r * k))
    return pd.DataFrame({
        "mutual_information": [round_half_away(float(terms.sum()), 6)],
        "n_events": [np.int64(n)]})


def q_embedding_dim_stats(sf_dir: str) -> pd.DataFrame:
    """Per-dimension normalization statistics over the embedding column —
    the feature-scaling pass a trainer runs before standardizing inputs.
    Each batch stacks its list<float> rows into one (n, 64) matrix and
    emits 64 rows of (n, sum, sum-of-squares, min, max) partials — five
    numbers per dimension per batch, fully mergeable, so the 100-TB wire
    cost is O(batches x dims). Values cast float32->float64 BEFORE any
    arithmetic (exactly the oracle's ::DOUBLE), mean/std close over the
    merged sums with the SQL's stated operand order."""
    emb = _read(sf_dir, "embeddings", ["embedding"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        m = np.stack(df["embedding"].to_numpy()).astype(np.float64)
        return pd.DataFrame({
            "dim": np.arange(1, m.shape[1] + 1, dtype=np.int64),
            "n": np.int64(m.shape[0]),
            "s": m.sum(axis=0),
            "ss": (m * m).sum(axis=0),
            "mn": m.min(axis=0),
            "mx": m.max(axis=0)})

    a = reduce_partials(emb, "dim", partial, agg={"mn": "min", "mx": "max"})
    mean = a["s"] / a["n"]
    std = np.sqrt(a["ss"] / a["n"] - mean * mean)
    return pd.DataFrame({
        "dim": a["dim"], "n": a["n"],
        "mean_v": round_half_away(mean.to_numpy(), 4),
        "std_v": round_half_away(std.to_numpy(), 4),
        "min_v": round_half_away(a["mn"].to_numpy(), 4),
        "max_v": round_half_away(a["mx"].to_numpy(), 4)})


def q_ohlc_bars(sf_dir: str) -> pd.DataFrame:
    """Per-(event_type, minute) OHLC bars — the time-series downsampling
    pass (open = value at first (ts, event_id), close = at last, high/low
    = extremes, n = count). Every output is a PASS-THROUGH of raw parquet
    doubles — no arithmetic touches a value, so the oracle compare is
    exact with no rounding anywhere. Partials are mergeable because
    first/last close over the (ts, event_id) lexicographic key: each
    batch ships one candidate row per bar it saw, buckets re-reduce the
    candidates the same way."""
    ev = _read(sf_dir, "events",
               ["event_id", "event_type", "ts", "value"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        d = df.assign(minute=df["ts"].dt.floor("min"))
        d = d.sort_values(["ts", "event_id"], kind="mergesort")
        g = d.groupby(["event_type", "minute"], as_index=False)
        out = g.agg(open_v=("value", "first"), close_v=("value", "last"),
                    high_v=("value", "max"), low_v=("value", "min"),
                    n=("value", "size"),
                    min_ts=("ts", "min"), max_ts=("ts", "max"))
        # lexicographic tiebreak keys for the merge
        first = g.agg(min_eid=("event_id", "first"))
        last = g.agg(max_eid=("event_id", "last"))
        return out.assign(min_eid=first["min_eid"], max_eid=last["max_eid"])

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        a = g.sort_values(["min_ts", "min_eid"], kind="mergesort") \
             .groupby(["event_type", "minute"], as_index=False) \
             .agg(open_v=("open_v", "first"))
        z = g.sort_values(["max_ts", "max_eid"], kind="mergesort") \
             .groupby(["event_type", "minute"], as_index=False) \
             .agg(close_v=("close_v", "last"))
        m = g.groupby(["event_type", "minute"], as_index=False).agg(
            high_v=("high_v", "max"), low_v=("low_v", "min"), n=("n", "sum"))
        out = a.merge(z, on=["event_type", "minute"]) \
               .merge(m, on=["event_type", "minute"])
        return out[["event_type", "minute", "open_v", "high_v",
                    "low_v", "close_v", "n"]]

    out = bucketed_group_apply(ev, "event_type", merge,
                               partial_fn=partial).to_pandas()
    return (out.astype({"n": "int64"})
               .sort_values(["event_type", "minute"])
               .reset_index(drop=True))


def q_hopping_window(sf_dir: str, size_s: int = 3600,
                     hop_s: int = 900) -> pd.DataFrame:
    """Hopping (sliding) event-time windows: every event lands in
    size/hop overlapping windows, aggregated per (event_type, window
    start). The expansion is the same RAGGED vectorized arange as the
    pair explosion — each row's window count is (size/hop) exactly, no
    per-row loop — and it happens INSIDE the partial combiner, so the
    shuffle moves per-(type, window) partials, never the expanded rows.
    All window math in int64 microseconds; epoch timestamps are positive
    so integer division == floor on both engines."""
    size = size_s * 1_000_000
    hop = hop_s * 1_000_000
    ev = _read(sf_dir, "events", ["event_type", "ts", "value"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        t = df["ts"].astype("datetime64[us]").astype("int64").to_numpy()
        k_min = (t - size) // hop + 1
        k_max = t // hop
        cnt = (k_max - k_min + 1).astype(np.int64)   # == size//hop
        rows = np.repeat(np.arange(len(t)), cnt)
        starts = np.cumsum(cnt) - cnt
        k = (np.arange(int(cnt.sum())) - np.repeat(starts, cnt)
             + np.repeat(k_min, cnt))
        return pd.DataFrame({"event_type": df["event_type"].to_numpy()[rows],
                             "win_start": k * hop, "n": np.int64(1),
                             "s": df["value"].to_numpy()[rows]})

    a = reduce_partials(ev, ["event_type", "win_start"], partial)
    return pd.DataFrame({
        "event_type": a["event_type"],
        "win_start": a["win_start"] // 1_000_000, "n": a["n"],
        "sum_value": round_half_away(a["s"].to_numpy(), 4)})


def q_rolling_avg_rows(sf_dir: str) -> pd.DataFrame:
    """ROWS-frame moving average (last 3 rows per user by (ts, event_id))
    — the physical-row frame the time-based sliding window cannot
    express. Users co-locate whole in hash buckets; the frame resolves as
    two vectorized shifts, and the average is the STATED left-to-right
    sum ((v2 + v1) + v0) / k evaluated identically in the oracle SQL, so
    the compare is bit-exact without rounding tricks."""
    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def roll(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        v0 = g["value"].to_numpy()
        same1 = g["user_id"].eq(g["user_id"].shift(1)).to_numpy()
        same2 = g["user_id"].eq(g["user_id"].shift(2)).to_numpy()
        v1 = np.where(same1, g["value"].shift(1).to_numpy(), np.nan)
        v2 = np.where(same2, g["value"].shift(2).to_numpy(), np.nan)
        k = 1.0 + same1 + same2
        s = np.where(same2, (v2 + v1) + v0,
                     np.where(same1, v1 + v0, v0))
        return pd.DataFrame({"event_id": g["event_id"].to_numpy(),
                             "mov_avg": s / k})

    out = bucketed_group_apply(ev, "user_id", roll).to_pandas()
    return out.sort_values("event_id").reset_index(drop=True)


def q_brand_pair_lift(sf_dir: str) -> pd.DataFrame:
    """Market-basket LIFT per unordered brand pair — the association
    strength behind q_brand_pair_counts' raw co-occurrence:
    lift = (n_both * n_orders) / (n_a * n_b). One okey-bucketed pass
    emits all three count families as integer partials (pair rows, the
    diagonal as per-brand basket counts, and a sentinel row counting the
    bucket's distinct orders — buckets own disjoint orders, so all three
    merge as sums); the close is one division of exact int64 products
    (< 2^53, so the int -> double casts and the division are identical
    IEEE in both engines — unrounded). Output is bounded by the brand
    vocabulary, never the fact table."""
    part = base_pandas(sf_dir, "part", columns=["p_partkey", "p_brand"])
    ref = ray.put(dict(zip(part["p_partkey"], part["p_brand"])))

    def to_brand(df: pd.DataFrame) -> pd.DataFrame:
        return (pd.DataFrame({"okey": df["l_orderkey"].to_numpy(),
                              "brand": df["l_partkey"].map(broadcast_get(ref))})
                .drop_duplicates())

    li = (_read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])
          .map_batches(to_brand, batch_format="pandas"))

    def stats(g: pd.DataFrame) -> pd.DataFrame:
        d = (g.drop_duplicates(["okey", "brand"])
              .sort_values(["okey", "brand"], kind="mergesort"))
        m = d.groupby("okey", sort=False)["brand"].transform("size").to_numpy()
        pos = d.groupby("okey", sort=False).cumcount().to_numpy()
        cnt = m - pos - 1
        a_idx = np.repeat(np.arange(len(d)), cnt)
        starts = np.cumsum(cnt) - cnt
        b_idx = (np.arange(int(cnt.sum())) - np.repeat(starts, cnt)
                 + np.repeat(np.arange(len(d)) + 1, cnt))
        brands = d["brand"].to_numpy()
        p = pd.DataFrame({"brand_a": brands[a_idx], "brand_b": brands[b_idx],
                          "n": np.int64(1)})
        singles = pd.DataFrame({"brand_a": brands, "brand_b": brands,
                                "n": np.int64(1)})
        sentinel = pd.DataFrame({"brand_a": [""], "brand_b": [""],
                                 "n": [d["okey"].nunique()]})
        cells = pd.concat([p, singles, sentinel], ignore_index=True)
        return group_cells(cells, ["brand_a", "brand_b"])

    agg = reduce_partials(bucketed_group_apply(li, "okey", stats),
                          ["brand_a", "brand_b"])
    n_orders = int(agg.loc[(agg["brand_a"] == "")
                           & (agg["brand_b"] == ""), "n"].iloc[0])
    diag = agg["brand_a"] == agg["brand_b"]
    singles = dict(zip(agg.loc[diag & (agg["brand_a"] != ""), "brand_a"],
                       agg.loc[diag & (agg["brand_a"] != ""), "n"]))
    pairs = agg[~diag].copy()
    n_both = pairs["n"].to_numpy(np.int64)
    na = pairs["brand_a"].map(singles).to_numpy(np.int64)
    nb = pairs["brand_b"].map(singles).to_numpy(np.int64)
    lift = (n_both * np.int64(n_orders)).astype(np.float64) \
        / (na * nb).astype(np.float64)
    return (pd.DataFrame({"brand_a": pairs["brand_a"],
                          "brand_b": pairs["brand_b"],
                          "n_both": n_both, "lift": lift})
            .sort_values(["brand_a", "brand_b"]).reset_index(drop=True))


def q_embedding_sparsity_by_label(sf_dir: str,
                                  eps: float = 0.1) -> pd.DataFrame:
    """Near-zero sparsity audit per label — the quantization-readiness
    check a compression pass runs: what fraction of each label's
    embedding mass sits inside (-eps, eps)? Comparisons happen on
    float32 values upcast to float64 (exactly the oracle's cast), so the
    boundary is a deterministic predicate, and everything that moves is
    an integer (n_vecs, n_dims, n_near_zero partials per batch). The one
    share division is a single exact int/int float op."""
    emb = _read(sf_dir, "embeddings", ["label", "embedding"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        m = np.stack(df["embedding"].to_numpy()).astype(np.float64)
        nz = (np.abs(m) < eps).sum(axis=1).astype(np.int64)
        return pd.DataFrame({"label": df["label"].to_numpy(np.int64),
                             "n_vecs": np.int64(1),
                             "n_dims": np.int64(m.shape[1]),
                             "n_near_zero": nz})

    out = reduce_partials(emb, "label", partial)
    out["near_zero_share"] = (out["n_near_zero"].to_numpy(np.float64)
                              / out["n_dims"].to_numpy(np.float64))
    return out


def q_knn_label_agreement(sf_dir: str) -> pd.DataFrame:
    """Embedding-quality evaluation: does each vector's nearest
    neighbour (cosine, self excluded) share its label? Per label:
    vectors, agreeing neighbours, agreement share. Each batch scores
    against a ray.put broadcast of the full matrix (one matmul per
    batch — the brute-force baseline; the IVF/LSH stages are the stated
    scale path, trading exactness for candidate lists). Rows-only: the
    64-float dot order differs between engines, so argmax parity is
    pinned by a brute-force pytest instead of SQL."""
    import ray as _ray

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding", "label"])
    all_df = emb.to_pandas()
    m = np.stack(all_df["embedding"].to_numpy()).astype(np.float64)
    m = m / np.linalg.norm(m, axis=1, keepdims=True)
    ids = all_df["vec_id"].to_numpy(np.int64)
    labels = all_df["label"].to_numpy(np.int64)
    pos = {int(v): i for i, v in enumerate(ids)}
    mref = _ray.put((m, labels, pos))

    def nn_agree(df: pd.DataFrame) -> pd.DataFrame:
        m, labels, pos = broadcast_get(mref)
        q = np.stack(df["embedding"].to_numpy()).astype(np.float64)
        q = q / np.linalg.norm(q, axis=1, keepdims=True)
        sims = q @ m.T
        rows = np.array([pos[int(v)] for v in df["vec_id"]])
        sims[np.arange(len(q)), rows] = -np.inf   # exclude self
        nn = sims.argmax(axis=1)
        agree = (labels[nn]
                 == df["label"].to_numpy(np.int64)).astype(np.int64)
        return pd.DataFrame({"label": df["label"].to_numpy(np.int64),
                             "n_vecs": np.int64(1), "n_agree": agree})

    out = reduce_partials(emb, "label", nn_agree)
    out["agreement"] = (out["n_agree"].to_numpy(np.float64)
                        / out["n_vecs"].to_numpy(np.float64))
    return out
