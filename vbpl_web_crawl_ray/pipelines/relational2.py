"""Second batch of oracle-backed operators: set ops, statistical
aggregates, calendar grouping, distinct counts, running totals, sliding
windows, conditional aggregation — plus the HyperLogLog approximate
distinct sketch (mergeable partials, the at-scale path for A4-style
dedup counting)."""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray.data as rd

from ..functions.hashing import hash64
from ..functions.numeric import round_half_away
from ..stages.shuffle import (broadcast_get, bucketed_group_apply, group_cells,
                              reduce_partials)
from ..sources.tablecache import base_dataset, base_pandas


def _read(sf_dir: str, table: str, columns=None) -> rd.Dataset:
    return base_dataset(sf_dir, table, columns=columns)


def q_union_distinct(sf_dir: str):
    """Set op (§2.7): UNION (distinct) of two filtered customer sets —
    union + bucketed exact-distinct."""
    cust = _read(sf_dir, "customer", ["c_custkey", "c_name", "c_mktsegment",
                                      "c_acctbal"])
    a = cust.map_batches(lambda df: df[df["c_mktsegment"] == "BUILDING"]
                         [["c_custkey", "c_name"]], batch_format="pandas")
    b = cust.map_batches(lambda df: df[df["c_acctbal"] > 5000]
                         [["c_custkey", "c_name"]], batch_format="pandas")
    return bucketed_group_apply(
        a.union(b), "c_custkey",
        lambda g: g.drop_duplicates(["c_custkey"]),
        partial_fn=lambda df: df.drop_duplicates(["c_custkey"]))


def q_intersect_distinct(sf_dir: str):
    """INTERSECT: customers in the BUILDING segment AND with acctbal>5000 —
    semi-join via broadcast key set of the smaller side."""
    import ray
    cust = _read(sf_dir, "customer", ["c_custkey", "c_name", "c_mktsegment",
                                      "c_acctbal"])
    rich = set(base_pandas(sf_dir, "customer", columns=["c_custkey", "c_acctbal"]).query("c_acctbal > 5000")
        ["c_custkey"].tolist())
    ref = ray.put(rich)

    def f(df: pd.DataFrame) -> pd.DataFrame:
        keys = broadcast_get(ref)
        out = df[(df["c_mktsegment"] == "BUILDING")
                 & df["c_custkey"].isin(keys)]
        return out[["c_custkey", "c_name"]].drop_duplicates()

    return cust.map_batches(f, batch_format="pandas")


def q_except_distinct(sf_dir: str):
    """EXCEPT: BUILDING-segment customers WITHOUT acctbal>5000 — anti-join
    via broadcast key set."""
    import ray
    cust = _read(sf_dir, "customer", ["c_custkey", "c_name", "c_mktsegment",
                                      "c_acctbal"])
    rich = set(base_pandas(sf_dir, "customer", columns=["c_custkey", "c_acctbal"]).query("c_acctbal > 5000")
        ["c_custkey"].tolist())
    ref = ray.put(rich)

    def f(df: pd.DataFrame) -> pd.DataFrame:
        keys = broadcast_get(ref)
        out = df[(df["c_mktsegment"] == "BUILDING")
                 & ~df["c_custkey"].isin(keys)]
        return out[["c_custkey", "c_name"]].drop_duplicates()

    return cust.map_batches(f, batch_format="pandas")


def q_stats_per_group(sf_dir: str):
    """Min/max/stddev rollup via mergeable moment partials
    (n, sum, sumsq per batch -> exact sample stddev at the combine)."""
    ds = _read(sf_dir, "lineitem", ["l_returnflag", "l_discount"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("l_returnflag", as_index=False).agg(
            n=("l_discount", "size"), s=("l_discount", "sum"),
            sq=("l_discount", lambda x: float((x.to_numpy() ** 2).sum())),
            mn=("l_discount", "min"), mx=("l_discount", "max"))
        return g

    def final(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby("l_returnflag", as_index=False).agg(
            n=("n", "sum"), s=("s", "sum"), sq=("sq", "sum"),
            mn=("mn", "min"), mx=("mx", "max"))
        var = (agg["sq"] - agg["s"] ** 2 / agg["n"]) / (agg["n"] - 1)
        return pd.DataFrame({
            "l_returnflag": agg["l_returnflag"],
            "n": agg["n"].astype("int64"),
            "min_disc": round_half_away(agg["mn"].to_numpy(), 6),
            "max_disc": round_half_away(agg["mx"].to_numpy(), 6),
            "std_disc": round_half_away(np.sqrt(var).to_numpy(), 6),
        })

    return bucketed_group_apply(ds, "l_returnflag", final, partial_fn=partial)


def q_median_per_group(sf_dir: str):
    """Per-group median (quantile_cont 0.5 = pandas linear interpolation)."""
    ds = _read(sf_dir, "orders", ["o_orderpriority", "o_totalprice"])

    def final(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("o_orderpriority", as_index=False)["o_totalprice"] \
               .quantile(0.5, interpolation="linear")
        return pd.DataFrame({
            "o_orderpriority": out["o_orderpriority"],
            "median_price": round_half_away(out["o_totalprice"].to_numpy(), 4),
        })

    # medians are not mergeable -> no combiner; groups are few and the
    # bucketed shuffle still moves only (priority, price) pairs
    return bucketed_group_apply(ds, "o_orderpriority", final)


def q_orders_per_month(sf_dir: str):
    """Calendar grouping: orders + revenue per month."""
    ds = _read(sf_dir, "orders", ["o_orderdate", "o_totalprice"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        month = df["o_orderdate"].dt.to_period("M").dt.to_timestamp()
        df = df.assign(month=month)
        return df.groupby("month", as_index=False).agg(
            n=("o_totalprice", "size"), total=("o_totalprice", "sum"))

    def final(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("month", as_index=False).agg(
            n=("n", "sum"), total=("total", "sum"))
        out["total"] = round_half_away(out["total"].to_numpy(), 4)
        return out

    return bucketed_group_apply(ds, "month", final, partial_fn=partial)


def q_conditional_agg(sf_dir: str):
    """Conditional (FILTER) aggregation: status counts per priority."""
    ds = _read(sf_dir, "orders", ["o_orderpriority", "o_orderstatus"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        x = pd.crosstab(df["o_orderpriority"], df["o_orderstatus"])
        x = x.reindex(columns=["F", "O", "P"], fill_value=0).reset_index()
        return x.rename(columns={"F": "n_f", "O": "n_o", "P": "n_p"})

    def final(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("o_orderpriority", as_index=False)[
            ["n_f", "n_o", "n_p"]].sum()
        for c in ("n_f", "n_o", "n_p"):
            out[c] = out[c].astype("int64")
        return out

    return bucketed_group_apply(ds, "o_orderpriority", final, partial_fn=partial)


def q_distinct_users_per_type(sf_dir: str):
    """Exact COUNT(DISTINCT) via per-batch pair dedup then bucketed final
    distinct — the shuffle carries unique (type, user) pairs only."""
    ds = _read(sf_dir, "events", ["event_type", "user_id"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return df.drop_duplicates(["event_type", "user_id"])

    def final(g: pd.DataFrame) -> pd.DataFrame:
        out = (g.drop_duplicates(["event_type", "user_id"])
                .groupby("event_type", as_index=False)
                .agg(n_users=("user_id", "size")))
        out["n_users"] = out["n_users"].astype("int64")
        return out

    return bucketed_group_apply(ds, "event_type", final, partial_fn=partial)


def q_running_total(sf_dir: str):
    """Running cumulative sum per user ordered by (ts, event_id) — the
    ordered-log stateful shape (§2.8); bit-deterministic because the
    addition order is a total order."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def final(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"])
        run = g.groupby("user_id")["value"].cumsum()
        return pd.DataFrame({
            "event_id": g["event_id"].to_numpy(),
            "user_id": g["user_id"].to_numpy(),
            "running_value": round_half_away(run.to_numpy(), 4),
        })

    return bucketed_group_apply(ds, "user_id", final)


def q_sliding_window(sf_dir: str):
    """Sliding 1h window hopping every 30min: each event lands in two
    windows (flat-map duplication -> bucketed aggregate)."""
    ds = _read(sf_dir, "events", ["user_id", "ts", "value"])

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        slot = (df["ts"].astype("datetime64[s]").astype("int64") // 1800) \
            .astype("int64")
        a = pd.DataFrame({"user_id": df["user_id"], "win_start_slot": slot,
                          "value": df["value"]})
        b = a.assign(win_start_slot=slot - 1)
        both = pd.concat([a, b], ignore_index=True)
        return both.groupby(["user_id", "win_start_slot"], as_index=False) \
                   .agg(n_events=("value", "size"), sum_value=("value", "sum"))

    def final(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby(["user_id", "win_start_slot"], as_index=False).agg(
            n_events=("n_events", "sum"), sum_value=("sum_value", "sum"))
        out["n_events"] = out["n_events"].astype("int64")
        out["sum_value"] = round_half_away(out["sum_value"].to_numpy(), 4)
        return out

    return bucketed_group_apply(ds, "user_id", final,
                                partial_fn=explode)


def q_asof_join(sf_dir: str):
    """As-of join — an operator Ray Data lacks natively (SURVEY.md custom-op
    path (a)): for each event, the user's most recent order date at event
    time. Bucketed by user, pd.merge_asof within each bucket over
    time-sorted frames; the output keys on the matched DATE (deterministic
    even when several orders share it)."""
    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts"])
    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderdate"]) \
        .map_batches(lambda df: df.rename(columns={"o_custkey": "user_id"})
                     .drop_duplicates(), batch_format="pandas")

    def tag(side):
        def f(df: pd.DataFrame) -> pd.DataFrame:
            df = df.copy()
            df["__side"] = side
            return df
        return f

    both = ev.map_batches(tag(0), batch_format="pandas").union(
        orders.map_batches(tag(1), batch_format="pandas"))

    def asof(g: pd.DataFrame) -> pd.DataFrame:
        left = g[g["__side"] == 0][["event_id", "user_id", "ts"]] \
            .dropna(subset=["ts"]).sort_values("ts")
        right = g[g["__side"] == 1][["user_id", "o_orderdate"]] \
            .dropna(subset=["o_orderdate"]).sort_values("o_orderdate")
        left["event_id"] = left["event_id"].astype("int64")
        if left.empty or right.empty:
            return pd.DataFrame({"event_id": pd.Series(dtype="int64"),
                                 "user_id": pd.Series(dtype="int64"),
                                 "last_orderdate": pd.Series(
                                     dtype="datetime64[us]")})
        out = pd.merge_asof(left, right, left_on="ts", right_on="o_orderdate",
                            by="user_id", direction="backward")
        out = out.dropna(subset=["o_orderdate"])
        return pd.DataFrame({"event_id": out["event_id"].astype("int64"),
                             "user_id": out["user_id"].astype("int64"),
                             "last_orderdate": out["o_orderdate"]})

    return bucketed_group_apply(both, "user_id", asof)


# ---------------------------------------------------------------------------
# HyperLogLog — mergeable approximate distinct (the 10^10-scale path)
# ---------------------------------------------------------------------------

class HyperLogLog:
    """Classic HLL (Flajolet et al. 2007, public algorithm), numpy
    registers; per-batch partial sketches merge by elementwise max."""

    def __init__(self, p: int = 12):
        self.p = p
        self.m = 1 << p
        self.registers = np.zeros(self.m, dtype=np.uint8)

    def add_hashes(self, h: np.ndarray) -> None:
        h = np.asarray(h, dtype=np.uint64)
        idx = (h >> np.uint64(64 - self.p)).astype(np.int64)
        rest = h << np.uint64(self.p)
        # rank = leading zeros of the remaining 64-p bits + 1
        lz = np.full(len(h), 64 - self.p + 1, dtype=np.uint8)
        nz = rest != 0
        if nz.any():
            bits = 63 - np.floor(np.log2(rest[nz].astype(np.float64))).astype(np.int64)
            lz[nz] = (bits + 1).astype(np.uint8)
        np.maximum.at(self.registers, idx, lz)

    def merge(self, other: "HyperLogLog") -> "HyperLogLog":
        self.registers = np.maximum(self.registers, other.registers)
        return self

    def estimate(self) -> float:
        m = self.m
        alpha = 0.7213 / (1 + 1.079 / m)
        est = alpha * m * m / np.sum(2.0 ** -self.registers.astype(np.float64))
        zeros = int((self.registers == 0).sum())
        if est <= 2.5 * m and zeros:
            est = m * np.log(m / zeros)  # small-range correction
        return float(est)


def approx_distinct(ds: rd.Dataset, col: str, p: int = 12) -> float:
    """Distributed approximate COUNT DISTINCT: one serialized sketch per
    batch, merged in a tiny driver-side reduce (sketches are ~4 KB)."""
    def partial(df: pd.DataFrame) -> pd.DataFrame:
        hll = HyperLogLog(p)
        hll.add_hashes(hash64(df[col].astype(str).to_numpy()))
        return pd.DataFrame({"sketch": [hll.registers.tobytes()]})

    merged = HyperLogLog(p)
    for row in ds.map_batches(partial, batch_format="pandas").iter_rows():
        other = HyperLogLog(p)
        other.registers = np.frombuffer(row["sketch"], dtype=np.uint8).copy()
        merged.merge(other)
    return merged.estimate()


def q_approx_distinct_users(sf_dir: str):
    est = approx_distinct(_read(sf_dir, "events", ["user_id"]), "user_id")
    return pd.DataFrame({"approx_users": [round(est)]})


def _clz_rank(h: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(register index, rank) for HLL from uint64 hashes with the rank
    derived by INTEGER bit math — no float log2, so the DuckDB twin
    (``64 - length(bin(rest)) + 1``) states the identical function and a
    near-2^64 ``rest`` can never round the wrong side of a power of two."""
    idx = (h >> np.uint64(64 - p)).astype(np.int64)
    with np.errstate(over="ignore"):
        rest = h << np.uint64(p)
    bl = np.zeros(len(rest), dtype=np.int64)
    x = rest.copy()
    for s in (32, 16, 8, 4, 2, 1):
        t = x >> np.uint64(s)
        m_ = t > 0
        bl[m_] += s
        x[m_] = t[m_]
    bl += (x > 0).astype(np.int64)
    rank = np.where(rest == 0, 64 - p + 1, 64 - bl + 1)
    return idx, rank


def q_hll_distinct_md5(sf_dir: str, p: int = 12) -> pd.DataFrame:
    """Oracle-backed HyperLogLog distinct-user estimate (md5 contract).

    The sketch family's external twin: hashes are the shared md5-64
    contract, ranks come from :func:`_clz_rank` (integer bit math), and
    the estimator closes in a form both engines state identically —
    ``sum(2^-M_j)`` is carried as the EXACT integer ``S = sum(2^(53-M_j))``
    (fits HUGEINT/Python int; summation order cannot round), then
    ``alpha * 2^24 * 2^53 / float(S)`` costs one rounding at the final
    division (power-of-two multiplies are exact), with the small-range
    correction ``m * ln(m/zeros)`` on the proven libm-parity rule.
    Distributed shape is the same as :func:`approx_distinct`: ~4 KB
    register partials per batch, elementwise-max merge (order-free), the
    events table never gathers. Each batch hashes only its DISTINCT
    values — register max is idempotent, so the sketch is unchanged and
    the md5 cost drops to the per-batch cardinality."""
    import hashlib
    import math

    m = 1 << p

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        vals = pd.unique(df["user_id"].astype(str))
        h = np.fromiter(
            (int(hashlib.md5(v.encode()).hexdigest()[:16], 16) for v in vals),
            dtype=np.uint64, count=len(vals))
        idx, rank = _clz_rank(h, p)
        regs = np.zeros(m, dtype=np.int64)
        np.maximum.at(regs, idx, rank)
        return pd.DataFrame({"sketch": [regs.astype(np.uint8).tobytes()]})

    ds = base_dataset(sf_dir, "events", columns=["user_id"])
    regs = np.zeros(m, dtype=np.int64)
    for row in ds.map_batches(partial, batch_format="pandas").iter_rows():
        regs = np.maximum(regs,
                          np.frombuffer(row["sketch"], dtype=np.uint8)
                          .astype(np.int64))
    s_exact = sum(1 << (53 - int(r)) for r in regs)     # exact Python int
    zeros = int((regs == 0).sum())
    alpha = 0.7213 / (1 + 1.079 / m)
    est = alpha * float(m * m) * 9007199254740992.0 / float(s_exact)
    if est <= 2.5 * m and zeros:
        est = float(m) * math.log(float(m) / zeros)
    return pd.DataFrame({"approx_users": [int(math.floor(est))]})


def q_range_join_counts(sf_dir: str, window_days: int = 7):
    """Range join — the second custom temporal-join shape Ray Data lacks
    (SURVEY.md custom-op path (a), alongside the as-of join): per event,
    the number of the same customer's orders with
    o_orderdate in [ts - window, ts]. Both sides hash-bucket by the key
    so a bucket holds each user's full slice; inside a bucket the range
    probe is two vectorized searchsorted calls over the user's
    date-sorted orders — no per-pair expansion anywhere."""
    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts"])
    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderdate"]) \
        .map_batches(lambda df: df.rename(columns={"o_custkey": "user_id"}),
                     batch_format="pandas")

    def tag(side):
        def f(df: pd.DataFrame) -> pd.DataFrame:
            df = df.copy()
            df["__side"] = side
            return df
        return f

    both = ev.map_batches(tag(0), batch_format="pandas").union(
        orders.map_batches(tag(1), batch_format="pandas"))
    delta = pd.Timedelta(days=window_days)

    def count_in_window(g: pd.DataFrame) -> pd.DataFrame:
        left = g[g["__side"] == 0][["event_id", "user_id", "ts"]]
        right = g[g["__side"] == 1][["user_id", "o_orderdate"]]
        out = []
        dates_by_user = {u: np.sort(sub["o_orderdate"].to_numpy())
                         for u, sub in right.groupby("user_id")}
        for u, sub in left.groupby("user_id"):
            ts = sub["ts"].to_numpy()
            dates = dates_by_user.get(u)
            if dates is None or not len(dates):
                n = np.zeros(len(sub), dtype=np.int64)
            else:
                lo = np.searchsorted(dates, ts - delta, side="left")
                hi = np.searchsorted(dates, ts, side="right")
                n = (hi - lo).astype(np.int64)
            out.append(pd.DataFrame({
                "event_id": sub["event_id"].to_numpy().astype(np.int64),
                "n_orders": n}))
        if not out:
            return pd.DataFrame({"event_id": pd.Series(dtype=np.int64),
                                 "n_orders": pd.Series(dtype=np.int64)})
        return pd.concat(out, ignore_index=True)

    return (bucketed_group_apply(both, "user_id", count_in_window)
            .to_pandas().sort_values("event_id").reset_index(drop=True))


def q_event_gap(sf_dir: str):
    """LAG window: per event, seconds since the user's previous event
    (NULL for the first). Bucketed by user; the lag is one vectorized
    shift over the user's (ts, event_id)-sorted slice."""
    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts"])

    def lag_per_user(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        prev = g.groupby("user_id")["ts"].shift(1)
        # replicate DuckDB's EPOCH(interval) float path exactly: a
        # timestamp difference is stored as (days, micros<day) and epoch
        # is days*86400.0 + micros/1e6 summed in doubles — one total
        # division (ns/1e9 or us/1e6) lands 1 ulp away on rounding
        # boundaries and flips the 4th decimal (2 rows at sf0.01)
        us = ((g["ts"] - prev) / pd.Timedelta(microseconds=1)).to_numpy()
        days = np.floor_divide(us, 86400e6, where=~np.isnan(us),
                               out=np.full(len(us), np.nan))
        rem = us - days * 86400e6
        gap = days * 86400.0 + rem / 1e6
        return pd.DataFrame({
            "event_id": g["event_id"].to_numpy().astype(np.int64),
            "gap_seconds": round_half_away(gap, 4)})

    return (bucketed_group_apply(ev, "user_id", lag_per_user)
            .to_pandas().sort_values("event_id").reset_index(drop=True))


def q_p95_per_type(sf_dir: str):
    """Per-group continuous 95th percentile (linear interpolation — the
    same estimator as SQL quantile_cont). Groups land whole in one hash
    bucket; the quantile is one vectorized np.quantile per group."""
    ev = _read(sf_dir, "events", ["event_type", "value"])

    def q95(g: pd.DataFrame) -> pd.DataFrame:
        out = (g.groupby("event_type")["value"]
                .quantile(0.95, interpolation="linear")
                .reset_index(name="p95"))
        out["p95"] = round_half_away(out["p95"].to_numpy(), 4)
        return out

    return (bucketed_group_apply(ev, "event_type", q95)
            .to_pandas().sort_values("event_type").reset_index(drop=True))


def q_value_histogram(sf_dir: str, lo: float = 0.0, hi: float = 100.0,
                      n_bins: int = 10):
    """Fixed-width histogram of event values: per-batch vectorized
    bincount partials, tiny driver reduce — the classic mergeable
    aggregate (no shuffle at all)."""
    ev = _read(sf_dir, "events", ["value"])
    width = (hi - lo) / n_bins

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        v = df["value"].to_numpy(dtype=np.float64)
        # width_bucket semantics: bin 0 = below lo, bin n_bins+1 = >= hi
        idx = np.clip(np.floor((v - lo) / width).astype(np.int64) + 1,
                      0, n_bins + 1)
        idx[v < lo] = 0
        idx[v >= hi] = n_bins + 1
        c = np.bincount(idx, minlength=n_bins + 2)
        return pd.DataFrame({"bin": np.arange(n_bins + 2, dtype=np.int64),
                             "n": c.astype(np.int64)})

    out = reduce_partials(ev, "bin", partial)
    return out[out["n"] > 0].reset_index(drop=True)


def q_corr_per_group(sf_dir: str):
    """Per-group Pearson correlation from mergeable raw-moment partials
    (n, sum x, sum y, sum x2, sum y2, sum xy per batch): the bivariate
    member of the moment-partials family (stats_per_group is univariate).
    Six floats per (batch, group) move through the shuffle."""
    ds = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_quantity", "l_extendedprice"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        x = df["l_quantity"].astype(float)
        y = df["l_extendedprice"].astype(float)
        return (df.assign(x=x, y=y, xx=x * x, yy=y * y, xy=x * y)
                  .groupby("l_returnflag", as_index=False)
                  .agg(n=("x", "size"), sx=("x", "sum"), sy=("y", "sum"),
                       sxx=("xx", "sum"), syy=("yy", "sum"),
                       sxy=("xy", "sum")))

    def final(g: pd.DataFrame) -> pd.DataFrame:
        a = g.groupby("l_returnflag", as_index=False).agg(
            n=("n", "sum"), sx=("sx", "sum"), sy=("sy", "sum"),
            sxx=("sxx", "sum"), syy=("syy", "sum"), sxy=("sxy", "sum"))
        num = a["sxy"] - a["sx"] * a["sy"] / a["n"]
        den = np.sqrt((a["sxx"] - a["sx"] ** 2 / a["n"])
                      * (a["syy"] - a["sy"] ** 2 / a["n"]))
        return pd.DataFrame({
            "l_returnflag": a["l_returnflag"],
            "corr_qty_price": round_half_away((num / den).to_numpy(), 4),
            "n": a["n"].astype("int64")})

    return bucketed_group_apply(ds, "l_returnflag", final, partial_fn=partial)


def q_pivot_orders(sf_dir: str):
    """PIVOT: order counts per priority x order-year, wide layout. A
    pivot over a KNOWN small column domain is a grouped conditional
    aggregation — one partial pass, no shuffle of fact rows."""
    ds = _read(sf_dir, "orders", ["o_orderpriority", "o_orderdate"])
    years = (1995, 1996, 1997)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        y = df["o_orderdate"].astype("datetime64[us]").dt.year
        return pd.DataFrame({"o_orderpriority": df["o_orderpriority"]}).assign(
            **{f"y{yy}": (y == yy).astype(np.int64) for yy in years})

    return reduce_partials(ds, "o_orderpriority", partial)


def q_mode_per_group(sf_dir: str):
    """Deterministic per-group mode (most frequent o_orderstatus per
    priority; ties -> lexicographically smallest): counts are partial-
    aggregated per batch, the tiny (group x value) table merges and
    argmaxes on the driver."""
    ds = _read(sf_dir, "orders", ["o_orderpriority", "o_orderstatus"])

    c = reduce_partials(ds, ["o_orderpriority", "o_orderstatus"],
                        lambda df: df.assign(n=np.int64(1)))
    c = c.sort_values(["o_orderpriority", "n", "o_orderstatus"],
                      ascending=[True, False, True], kind="mergesort")
    out = c.groupby("o_orderpriority", as_index=False).head(1)
    return (out.rename(columns={"o_orderstatus": "mode_status"})
               .reset_index(drop=True))


def q_ntile_quartiles(sf_dir: str):
    """Global NTILE(4) over (o_totalprice, o_orderkey) order WITHOUT a
    global sort: a fixed-bin histogram pass gives each value-bin's
    global offset (the distributed rank pattern — same prefix-scan shape
    as pack_sequences, keyed by value range instead of id range), then
    each bin computes its rows' exact global positions locally. Output:
    per-quartile count + revenue — compact, verifiable."""
    ds = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
    ds = ds.materialize()

    mm = ds.map_batches(
        lambda df: pd.DataFrame({"lo": [df["o_totalprice"].min()],
                                 "hi": [df["o_totalprice"].max()]}),
        batch_format="pandas").to_pandas()
    lo, hi = float(mm["lo"].min()), float(mm["hi"].max())
    nbins = 256
    width = (hi - lo) / nbins or 1.0

    def binned(df: pd.DataFrame) -> pd.DataFrame:
        b = np.minimum(((df["o_totalprice"] - lo) / width).astype(np.int64),
                       nbins - 1)
        return df.assign(bin=b)

    counts = reduce_partials(ds, "bin", lambda df: pd.DataFrame(
        {"bin": binned(df)["bin"], "c": np.int64(1)})).set_index("bin")["c"]
    offsets = np.zeros(nbins, dtype=np.int64)
    cum = 0
    for b in range(nbins):
        offsets[b] = cum
        cum += int(counts.get(b, 0))
    total = cum
    import ray
    oref = ray.put(offsets)

    from ..stages.shuffle import bucketed_group_apply

    def rank_in_bin(g: pd.DataFrame) -> pd.DataFrame:
        # all rows of a value-bin arrive together (bucketed by bin): sort
        # within, add the bin's global offset
        out = []
        for b, sub in g.groupby("bin"):
            sub = sub.sort_values(["o_totalprice", "o_orderkey"],
                                  kind="mergesort")
            pos = broadcast_get(oref)[int(b)] + np.arange(len(sub))
            # exact SQL NTILE(4): first (total%4) tiles get one extra row
            base, rem = divmod(total, 4)
            cut = rem * (base + 1)
            q = np.where(pos < cut, pos // (base + 1),
                         rem + (pos - cut) // max(base, 1)) + 1
            out.append(pd.DataFrame({
                "quartile": q.astype(np.int64), "n": np.int64(1),
                "sum_price": sub["o_totalprice"].to_numpy()}))
        return group_cells(pd.concat(out, ignore_index=True), "quartile")

    out = reduce_partials(bucketed_group_apply(
        ds.map_batches(binned, batch_format="pandas"), "bin", rank_in_bin),
        "quartile")
    out["sum_price"] = round_half_away(out["sum_price"].to_numpy(), 4)
    return out


def q_dense_rank_top_orders(sf_dir: str, k: int = 3):
    """DENSE_RANK per group without a global sort: each priority's rows
    co-locate whole in a hash bucket (the p95/median pattern — groups are
    few and bounded; a group that outgrew a machine would switch to the
    NTILE histogram-offset trick), rank is one vectorized pandas
    dense-rank inside the bucket, and only rows with rank <= k leave the
    shuffle. Prices pass through untouched, so the oracle compare is
    bit-exact on the raw parquet doubles."""
    o = _read(sf_dir, "orders",
              ["o_orderkey", "o_orderpriority", "o_totalprice"])

    def topr(g: pd.DataFrame) -> pd.DataFrame:
        r = (g.groupby("o_orderpriority")["o_totalprice"]
              .rank(method="dense", ascending=False).astype(np.int64))
        sel = g[r <= k].copy()
        sel["rnk"] = r[r <= k]
        return sel

    out = bucketed_group_apply(o, "o_orderpriority", topr).to_pandas()
    return (out.astype({"rnk": "int64"})
               .sort_values(["o_orderpriority", "rnk", "o_orderkey"])
               .reset_index(drop=True))


def q_exact_k_sample(sf_dir: str, k: int = 100):
    """EXACT-size deterministic sample per group — k rows per
    event_type, not Bernoulli-expected-k (q_stratified_sample's
    contract): keep the k smallest md5 hashes per group. The hash order
    makes 'k smallest' a MERGEABLE top-k, wired through
    bucketed_group_apply's combiner hook: every batch ships at most k
    rows per group it saw, buckets merge partials and keep k — the full
    table never shuffles and no RNG state exists anywhere; the same rows
    win at any parallelism, on resume, and in the SQL oracle."""
    from ..functions.hashing import md5_hex_prefix

    ev = _read(sf_dir, "events", ["event_id", "event_type"])

    def topk(g: pd.DataFrame) -> pd.DataFrame:
        return (g.sort_values(["h", "event_id"])
                 .groupby("event_type", as_index=False).head(k))

    def local_topk(df: pd.DataFrame) -> pd.DataFrame:
        keys = ("ek:" + df["event_type"].astype(str) + ":"
                + df["event_id"].astype(str))
        return topk(df.assign(h=md5_hex_prefix(keys, 16)))

    out = bucketed_group_apply(ev, "event_type", topk,
                               partial_fn=local_topk).to_pandas()
    return (out[["event_id", "event_type"]]
            .sort_values("event_id").reset_index(drop=True))


def q_funnel_counts(sf_dir: str):
    """Ordered funnel (view -> click AFTER the first view -> purchase
    AFTER that click): per-user sequential pattern matching. Users
    co-locate whole by hash bucket; inside a bucket the three step
    timestamps resolve as three vectorized groupby-mins (first view;
    first click strictly later via a merged filter; first purchase
    strictly later than that) — no per-user Python loop; only three
    per-bucket counters leave the shuffle."""
    ev = _read(sf_dir, "events", ["user_id", "event_type", "ts"])

    def funnel(g: pd.DataFrame) -> pd.DataFrame:
        t1 = (g.loc[g["event_type"] == "view"]
               .groupby("user_id")["ts"].min().rename("t1"))
        c = g.loc[g["event_type"] == "click"].merge(
            t1, left_on="user_id", right_index=True)
        t2 = (c.loc[c["ts"] > c["t1"]]
               .groupby("user_id")["ts"].min().rename("t2"))
        p = g.loc[g["event_type"] == "purchase"].merge(
            t2, left_on="user_id", right_index=True)
        t3 = p.loc[p["ts"] > p["t2"]].groupby("user_id")["ts"].min()
        return pd.DataFrame({"n_view": [len(t1)], "n_view_click": [len(t2)],
                             "n_full_funnel": [len(t3)]})

    parts = bucketed_group_apply(ev, "user_id", funnel).to_pandas()
    out = parts.sum()
    return pd.DataFrame({"n_view": [int(out["n_view"])],
                         "n_view_click": [int(out["n_view_click"])],
                         "n_full_funnel": [int(out["n_full_funnel"])]})


def q_regr_per_group(sf_dir: str):
    """Per-group simple linear regression (extendedprice ~ quantity) from
    the SAME mergeable raw-moment partials as q_corr_per_group — slope,
    intercept and R^2 all close over {n, sx, sy, sxx, syy, sxy}, so one
    six-float-per-(batch,group) partial pass feeds all three statistics.
    At 100 TB nothing but those six floats per group crosses the wire."""
    ds = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_quantity", "l_extendedprice"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        x = df["l_quantity"].astype(float)
        y = df["l_extendedprice"].astype(float)
        return (df.assign(x=x, y=y, xx=x * x, yy=y * y, xy=x * y)
                  .groupby("l_returnflag", as_index=False)
                  .agg(n=("x", "size"), sx=("x", "sum"), sy=("y", "sum"),
                       sxx=("xx", "sum"), syy=("yy", "sum"),
                       sxy=("xy", "sum")))

    def final(g: pd.DataFrame) -> pd.DataFrame:
        a = g.groupby("l_returnflag", as_index=False).agg(
            n=("n", "sum"), sx=("sx", "sum"), sy=("sy", "sum"),
            sxx=("sxx", "sum"), syy=("syy", "sum"), sxy=("sxy", "sum"))
        # the oracle SQL states the IDENTICAL closed forms over SUM()s so
        # both engines perform the same float ops on the same aggregates
        sxy_c = a["sxy"] - a["sx"] * a["sy"] / a["n"]
        sxx_c = a["sxx"] - a["sx"] ** 2 / a["n"]
        syy_c = a["syy"] - a["sy"] ** 2 / a["n"]
        slope = sxy_c / sxx_c
        intercept = a["sy"] / a["n"] - slope * a["sx"] / a["n"]
        r2 = (sxy_c * sxy_c) / (sxx_c * syy_c)
        return pd.DataFrame({
            "l_returnflag": a["l_returnflag"],
            "slope": round_half_away(slope.to_numpy(), 4),
            "intercept": round_half_away(intercept.to_numpy(), 4),
            "r2": round_half_away(r2.to_numpy(), 4),
            "n": a["n"].astype("int64")})

    return bucketed_group_apply(ds, "l_returnflag", final, partial_fn=partial)


def q_mad_per_group(sf_dir: str):
    """Per-group median absolute deviation: order statistics are not
    mergeable, so (like q_median_per_group) groups co-locate whole via
    the bucketed shuffle and both medians resolve in-bucket vectorized.
    Only (event_type, value) pairs move; the result is 5 rows."""
    ds = _read(sf_dir, "events", ["event_type", "value"])

    def final(g: pd.DataFrame) -> pd.DataFrame:
        med = g.groupby("event_type")["value"].median()
        dev = (g["value"] - g["event_type"].map(med)).abs()
        mad = dev.groupby(g["event_type"]).median()
        return pd.DataFrame({
            "event_type": mad.index.to_numpy(),
            "mad_value": round_half_away(mad.to_numpy(), 4),
            "median_value": round_half_away(
                med.loc[mad.index].to_numpy(), 4)})

    return bucketed_group_apply(ds, "event_type", final)


def q_month_over_month(sf_dir: str):
    """Month-over-month revenue change: the monthly rollup comes from
    mergeable partials (months are few — the LAG runs on the driver over
    the tiny aggregate, never over fact rows)."""
    ds = _read(sf_dir, "orders", ["o_orderdate", "o_totalprice"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        month = df["o_orderdate"].dt.to_period("M").dt.to_timestamp()
        return pd.DataFrame({"month": month,
                             "revenue": df["o_totalprice"]})

    out = reduce_partials(ds, "month", partial)
    prev = out["revenue"].shift(1)
    pct = (out["revenue"] - prev) / prev * 100.0
    return pd.DataFrame({
        "month": out["month"],
        "revenue": round_half_away(out["revenue"].to_numpy(), 4),
        "pct_change": round_half_away(pct.to_numpy(), 4)})
