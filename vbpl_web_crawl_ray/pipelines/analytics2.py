"""Session-2 analytics: cohort/retention, streaks, event-interval joins
and time-weighted aggregates — the user-behaviour family, each shaped for
the 100-TB path and each with a DuckDB oracle twin.

Scale patterns exercised here (beyond analytics.py):

- cohort decomposition of a cumulative COUNT(DISTINCT) matrix
  (q_cohort_retention): per-user distinct (cohort, offset) pairs resolve
  entirely inside whole-user buckets, so the all-to-all moves one row per
  user-week, never per event;
- gaps-and-islands over DISTINCT days (q_longest_streak): the classic
  "longest run of consecutive active days", one segmented cumcount inside
  whole-user buckets;
- per-key RANGE JOIN without a join (q_purchase_click_attribution):
  count events of one type inside a trailing time window of another —
  the naive form is a per-user theta self-join; here three global
  ``np.searchsorted`` calls over a (user-rank, time-rank) composite key
  resolve every purchase's window count in one vectorized pass per
  bucket;
- exact-integer time-weighted averages (q_time_weighted_avg): the TWAP
  integral sums cents x microseconds in int64, so the float work is two
  stated-order divisions on the final per-user scalars — bit-exact
  against SQL with no rounding anywhere;
- chi-square independence over exact contingency counts
  (q_chi2_independence): the categorical-feature screen, closing over the
  same mergeable count grid as mutual information.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray.data as rd

from ..functions.numeric import round_half_away
from ..stages.shuffle import (broadcast_get, bucketed_group_apply, group_cells,
                              reduce_partials)
from ..sources.tablecache import base_dataset

_DAY_US = 86_400 * 1_000_000
_WEEK_US = 7 * _DAY_US


def _read(sf_dir: str, table: str, columns: list[str] | None = None) -> rd.Dataset:
    return base_dataset(sf_dir, table, columns=columns)


def _week_start_day(day_idx: np.ndarray) -> np.ndarray:
    """ISO week start (Monday) as a day index. Epoch day 0 (1970-01-01)
    was a Thursday, so shifting by +3 aligns the modulus to Mondays —
    integer math, identical to SQL date_trunc('week', ts)."""
    return day_idx - ((day_idx + 3) % 7)


def q_cohort_retention(sf_dir: str) -> pd.DataFrame:
    """Weekly cohort retention matrix: users grouped by first-active week
    (the cohort), counted in every later week they were active, keyed by
    the week offset. The cumulative-COUNT(DISTINCT) matrix no window
    function gives directly decomposes inside whole-user buckets: each
    user contributes exactly one row per (cohort, offset) week it was
    active in, so the wire carries user-week rows (already distinct),
    then per-(cohort, offset) count partials. All week math is integer
    days on int64 microseconds — nothing float anywhere."""
    ev = _read(sf_dir, "events", ["user_id", "ts"])

    def retention(g: pd.DataFrame) -> pd.DataFrame:
        t = g["ts"].astype("datetime64[us]").astype("int64").to_numpy()
        wk = _week_start_day(t // _DAY_US)
        d = (pd.DataFrame({"user_id": g["user_id"].to_numpy(), "wk": wk})
             .drop_duplicates())
        cohort = d.groupby("user_id")["wk"].transform("min")
        cells = pd.DataFrame({"cohort": cohort,
                              "week_offset": (d["wk"] - cohort) // 7,
                              "n_users": np.int64(1)})
        return group_cells(cells, ["cohort", "week_offset"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        # pre-dedup (user, week) per batch: the shuffle moves user-weeks
        t = df["ts"].astype("datetime64[us]").astype("int64").to_numpy()
        wk = _week_start_day(t // _DAY_US)
        d = (pd.DataFrame({"user_id": df["user_id"].to_numpy(), "wk": wk})
             .drop_duplicates())
        return d.assign(ts=pd.to_datetime(d.pop("wk") * _DAY_US, unit="us"))

    out = reduce_partials(bucketed_group_apply(ev, "user_id", retention,
                                               partial_fn=partial),
                          ["cohort", "week_offset"])
    return pd.DataFrame({
        "cohort_week": pd.to_datetime(out["cohort"] * _DAY_US, unit="us"),
        "week_offset": out["week_offset"], "n_users": out["n_users"]})


def q_longest_streak(sf_dir: str) -> pd.DataFrame:
    """Longest run of CONSECUTIVE active days per user — gaps-and-islands
    over the distinct (user, day) set: after one in-bucket sort, islands
    are (day_index - per-user running count), a constant within each
    consecutive run, and the answer is the max island size. Batches
    pre-dedup (user, day) so the shuffle moves user-days, not events."""
    ev = _read(sf_dir, "events", ["user_id", "ts"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        t = df["ts"].astype("datetime64[us]").astype("int64").to_numpy()
        d = (pd.DataFrame({"user_id": df["user_id"].to_numpy(),
                           "day": t // _DAY_US})
             .drop_duplicates())
        return d.assign(ts=pd.to_datetime(d.pop("day") * _DAY_US, unit="us"))

    def streaks(g: pd.DataFrame) -> pd.DataFrame:
        t = g["ts"].astype("datetime64[us]").astype("int64").to_numpy()
        d = (pd.DataFrame({"user_id": g["user_id"].to_numpy(),
                           "day": t // _DAY_US})
             .drop_duplicates()
             .sort_values(["user_id", "day"], kind="mergesort"))
        seq = d.groupby("user_id", sort=False).cumcount()
        isl = d["day"].to_numpy() - seq.to_numpy()          # run-constant
        runs = (d.assign(isl=isl)
                 .groupby(["user_id", "isl"], as_index=False)
                 .size())
        return (runs.groupby("user_id", as_index=False)
                    .agg(longest_streak=("size", "max"),
                         n_active_days=("size", "sum")))

    out = bucketed_group_apply(ev, "user_id", streaks,
                               partial_fn=partial).to_pandas()
    return (out.astype({"longest_streak": "int64", "n_active_days": "int64"})
               .sort_values("user_id").reset_index(drop=True))


def q_purchase_click_attribution(sf_dir: str,
                                 window_s: int = 1800) -> pd.DataFrame:
    """For every purchase, how many clicks did that user make in the
    trailing ``window_s`` seconds (inclusive both ends)? The naive form is
    a per-user theta self-join (quadratic in user activity). Here both
    event types co-locate in whole-user hash buckets (batches pre-filter
    to the two types, so the shuffle moves only relevant rows) and the
    window count closes as THREE global ``np.searchsorted`` calls per
    bucket over a composite (user-rank x click-time-rank) int64 key:
    clicks sort once by (user, ts); a purchase's count is the key-space
    interval [user*M + rank(ts-window), user*M + rank(ts)) — cross-user
    terms cancel exactly. No per-user loop, no joined rows materialize.
    All time math in int64 microseconds."""
    win_us = window_s * 1_000_000
    ev = _read(sf_dir, "events", ["event_id", "user_id", "event_type", "ts"])

    def pre(df: pd.DataFrame) -> pd.DataFrame:
        return df[df["event_type"].isin(("click", "purchase"))]

    def attribute(g: pd.DataFrame) -> pd.DataFrame:
        uidx, _ = pd.factorize(g["user_id"], sort=False)
        t = g["ts"].astype("datetime64[us]").astype("int64").to_numpy()
        is_c = (g["event_type"] == "click").to_numpy()
        is_p = (g["event_type"] == "purchase").to_numpy()
        cu, ct = uidx[is_c], t[is_c]
        order = np.lexsort((ct, cu))
        cu, ct = cu[order], ct[order]
        dist = np.unique(ct)                     # global click-time ranks
        m = np.int64(len(dist) + 1)
        # overflow guard: users-per-bucket x distinct-times-per-bucket
        # must fit int64; at cluster scale num_buckets grows with data,
        # keeping both factors bucket-bounded
        assert (len(dist) + 1) * max(int(uidx.max(initial=0)) + 1, 1) < 2**62
        key = cu.astype(np.int64) * m + np.searchsorted(dist, ct, side="left")
        pu, pt = uidx[is_p].astype(np.int64), t[is_p]
        hi = pu * m + np.searchsorted(dist, pt, side="right")
        lo = pu * m + np.searchsorted(dist, pt - win_us, side="left")
        n = (np.searchsorted(key, hi, side="left")
             - np.searchsorted(key, lo, side="left"))
        return pd.DataFrame({"event_id": g.loc[is_p, "event_id"].to_numpy(),
                             "n_clicks": n.astype(np.int64)})

    out = bucketed_group_apply(ev, "user_id", attribute,
                               partial_fn=pre).to_pandas()
    return (out.astype({"n_clicks": "int64"})
               .sort_values("event_id").reset_index(drop=True))


def q_time_weighted_avg(sf_dir: str) -> pd.DataFrame:
    """Time-weighted average value per user (the TWAP integral): each
    event's value holds until the user's next event; the average weights
    values by that holding time. The integral stays EXACT — values become
    int64 cents (the synth writes 2-decimal values; ROUND(v*100) recovers
    the integer on both engines), durations are int64 microseconds, and
    the numerator sums cents x us in int64, so summation order cannot
    matter. The only float work is two stated-order divisions on the
    final per-user scalars — bit-exact, unrounded. Users with a single
    event have no holding time and are excluded (dur 0). Resolves with
    one vectorized shift inside whole-user buckets."""
    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def twap(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        t = g["ts"].astype("datetime64[us]").astype("int64").to_numpy()
        cents = np.round(g["value"].to_numpy() * 100.0).astype(np.int64)
        nxt_t = np.roll(t, -1)
        same = g["user_id"].eq(g["user_id"].shift(-1)).to_numpy()
        dt = np.where(same, nxt_t - t, 0)
        a = (pd.DataFrame({"user_id": g["user_id"].to_numpy(),
                           "num": cents * dt, "dur_us": dt})
             .groupby("user_id", as_index=False).sum())
        a = a[a["dur_us"] > 0]
        return pd.DataFrame({
            "user_id": a["user_id"].to_numpy(),
            "twap": (a["num"].to_numpy(np.float64) / 100.0)
                    / a["dur_us"].to_numpy(np.float64),
            "dur_us": a["dur_us"].to_numpy(np.int64)})

    out = bucketed_group_apply(ev, "user_id", twap).to_pandas()
    return (out.astype({"dur_us": "int64"})
               .sort_values("user_id").reset_index(drop=True))


def q_chi2_independence(sf_dir: str) -> pd.DataFrame:
    """Pearson chi-square statistic for independence of event_type and
    ISO day-of-week — the categorical-feature screen beside mutual
    information: closes over the exact 5x7 contingency counts from
    mergeable partials; the only float work is 35 terms of
    ((o - e) * (o - e)) / e with e = (row*col)/n on the driver, the
    oracle stating the identical expression. Degrees of freedom are
    integers from the observed margins."""
    ev = _read(sf_dir, "events", ["event_type", "ts"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        d = df["ts"].dt.dayofweek.to_numpy() + 1       # == SQL ISODOW
        return pd.DataFrame({"t": df["event_type"].to_numpy(), "d": d,
                             "c": np.int64(1)})

    c = reduce_partials(ev, ["t", "d"], partial)
    cc = c["c"].to_numpy(np.float64)
    n = cc.sum()                                       # integer-exact
    r = c.groupby("t")["c"].transform("sum").to_numpy(np.float64)
    k = c.groupby("d")["c"].transform("sum").to_numpy(np.float64)
    e = (r * k) / n
    terms = ((cc - e) * (cc - e)) / e
    dof = (c["t"].nunique() - 1) * (c["d"].nunique() - 1)
    return pd.DataFrame({
        "chi2": [round_half_away(float(terms.sum()), 6)],
        "dof": [np.int64(dof)],
        "n_events": [np.int64(n)]})


def q_weighted_median(sf_dir: str) -> pd.DataFrame:
    """Per-group WEIGHTED median (l_extendedprice weighted by integer
    l_quantity): the smallest value whose cumulative weight reaches half
    the group total — the deterministic rule both engines can state
    exactly, because weights are int64 end to end (2*cum >= total avoids
    the /2 float). Batches pre-aggregate weight per (group, value) so the
    shuffle moves distinct (group, value) partials; groups are few and
    bounded, co-locating whole in hash buckets (the median_per_group
    shape). The output value is a raw parquet double pass-through — no
    float arithmetic anywhere."""
    li = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_extendedprice", "l_quantity"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return (df.assign(w=df["l_quantity"].to_numpy(np.int64))
                  .groupby(["l_returnflag", "l_extendedprice"],
                           as_index=False)["w"].sum())

    def wmedian(g: pd.DataFrame) -> pd.DataFrame:
        a = (g.groupby(["l_returnflag", "l_extendedprice"],
                       as_index=False)["w"].sum()
              .sort_values(["l_returnflag", "l_extendedprice"],
                           kind="mergesort"))
        cw = a.groupby("l_returnflag", sort=False)["w"].cumsum()
        tw = a.groupby("l_returnflag", sort=False)["w"].transform("sum")
        hit = a.assign(tw=tw)[2 * cw >= tw]
        return (hit.groupby("l_returnflag", as_index=False)
                   .agg(wmedian=("l_extendedprice", "first"),
                        total_qty=("tw", "first")))

    out = bucketed_group_apply(li, "l_returnflag", wmedian,
                               partial_fn=partial).to_pandas()
    return (out.astype({"total_qty": "int64"})
               .sort_values("l_returnflag").reset_index(drop=True))


def q_rolling_distinct_users(sf_dir: str, window_days: int = 7) -> pd.DataFrame:
    """Rolling 7-day DISTINCT user count per day — the windowed
    COUNT(DISTINCT) no engine can decompose into plain sums. It factors
    through set membership instead: a user counts toward day d iff d is
    within [active_day, active_day + 6] for some active day — so inside
    whole-user buckets each user's distinct active days expand by a
    ragged vectorized arange into the window-days they cover, dedup per
    (user, window_day), and only per-day count partials leave the bucket.
    Wire cost is bounded by window x user-days, never by events; the
    final restriction to days that exist in the data joins against the
    tiny distinct-day table on the driver. Integer day math only."""
    ev = _read(sf_dir, "events", ["user_id", "ts"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        t = df["ts"].astype("datetime64[us]").astype("int64").to_numpy()
        d = (pd.DataFrame({"user_id": df["user_id"].to_numpy(),
                           "day": t // _DAY_US})
             .drop_duplicates())
        return d.assign(ts=pd.to_datetime(d.pop("day") * _DAY_US, unit="us"))

    def cover(g: pd.DataFrame) -> pd.DataFrame:
        t = g["ts"].astype("datetime64[us]").astype("int64").to_numpy()
        d = (pd.DataFrame({"user_id": g["user_id"].to_numpy(),
                           "day": t // _DAY_US})
             .drop_duplicates())
        day = d["day"].to_numpy()
        n = len(d)
        rows = np.repeat(np.arange(n), window_days)
        off = np.tile(np.arange(window_days, dtype=np.int64), n)
        w = (pd.DataFrame({"user_id": d["user_id"].to_numpy()[rows],
                           "wday": day[rows] + off})
             .drop_duplicates())
        cells = pd.DataFrame({"wday": w["wday"], "n_users": np.int64(1)})
        return group_cells(cells, "wday")

    cnt = reduce_partials(bucketed_group_apply(ev, "user_id", cover,
                                               partial_fn=partial), "wday")

    # the day domain: only days that actually occur in the data
    def days_partial(df: pd.DataFrame) -> pd.DataFrame:
        t = df["ts"].astype("datetime64[us]").astype("int64").to_numpy()
        return pd.DataFrame({"day": np.unique(t // _DAY_US)})

    cal = (_read(sf_dir, "events", ["ts"])
           .map_batches(days_partial, batch_format="pandas")
           .to_pandas()["day"].drop_duplicates())
    out = cnt[cnt["wday"].isin(set(cal))].reset_index(drop=True)
    return pd.DataFrame({
        "day": pd.to_datetime(out["wday"] * _DAY_US, unit="us"),
        "n_users": out["n_users"]})


def q_last_touch_attribution(sf_dir: str) -> pd.DataFrame:
    """LAST-TOUCH attribution: each purchase resolves to the most recent
    click by the same user at-or-before it (ties on the microsecond pick
    the larger event_id — stated identically in the oracle's ROW_NUMBER
    ordering). This is the per-key AS-OF pick, resolved like the window
    count: clicks sort once by (user, ts, event_id) inside whole-user
    buckets; the composite (user-rank x time-rank) searchsorted bound
    minus one IS the as-of row, valid iff it stays inside the user's key
    segment. No join, no per-user loop; purchases with no prior click
    drop (inner-join semantics)."""
    ev = _read(sf_dir, "events", ["event_id", "user_id", "event_type", "ts"])

    def pre(df: pd.DataFrame) -> pd.DataFrame:
        return df[df["event_type"].isin(("click", "purchase"))]

    def attribute(g: pd.DataFrame) -> pd.DataFrame:
        uidx, _ = pd.factorize(g["user_id"], sort=False)
        t = g["ts"].astype("datetime64[us]").astype("int64").to_numpy()
        ids = g["event_id"].to_numpy()
        is_c = (g["event_type"] == "click").to_numpy()
        is_p = (g["event_type"] == "purchase").to_numpy()
        cu, ct, cid = uidx[is_c], t[is_c], ids[is_c]
        order = np.lexsort((cid, ct, cu))      # ties end on max event_id
        cu, ct, cid = cu[order], ct[order], cid[order]
        dist = np.unique(ct)
        m = np.int64(len(dist) + 1)
        key = cu.astype(np.int64) * m + np.searchsorted(dist, ct, side="left")
        pu, pt = uidx[is_p].astype(np.int64), t[is_p]
        hi = pu * m + np.searchsorted(dist, pt, side="right")
        pos = np.searchsorted(key, hi, side="left") - 1
        base = np.searchsorted(key, pu * m, side="left")
        ok = pos >= base
        return pd.DataFrame({
            "event_id": ids[is_p][ok],
            "click_id": cid[np.maximum(pos[ok], 0)]})

    out = bucketed_group_apply(ev, "user_id", attribute,
                               partial_fn=pre).to_pandas()
    return (out.astype({"click_id": "int64"})
               .sort_values("event_id").reset_index(drop=True))


def q_embedding_quantization(sf_dir: str) -> pd.DataFrame:
    """INT8 symmetric quantization error audit over the embedding column
    — the compression pre-check an ANN/serving stack runs before
    shipping int8 vectors: pass 1 merges per-dimension max-abs (order-
    free), the 64 scales broadcast as plain floats, pass 2 computes every
    element's round-trip error and merges per-dimension MAX (order-free
    again) — so despite being float math end to end, nothing depends on
    summation order and the compare is bit-exact with no rounding. The
    element expression (floor(v/scale + 0.5)*scale, on float64 upcast
    BEFORE any arithmetic) is stated identically in the oracle."""
    emb = _read(sf_dir, "embeddings", ["embedding"])

    def maxabs(df: pd.DataFrame) -> pd.DataFrame:
        m = np.abs(np.stack(df["embedding"].to_numpy()).astype(np.float64))
        return pd.DataFrame({"dim": np.arange(1, m.shape[1] + 1,
                                              dtype=np.int64),
                             "mx": m.max(axis=0)})

    mx = reduce_partials(emb, "dim", maxabs, agg={"mx": "max"})
    scale = (mx["mx"].to_numpy(np.float64) / 127.0)

    def err(df: pd.DataFrame) -> pd.DataFrame:
        v = np.stack(df["embedding"].to_numpy()).astype(np.float64)
        e = np.abs(v - np.floor(v / scale + 0.5) * scale)
        return pd.DataFrame({"dim": np.arange(1, v.shape[1] + 1,
                                              dtype=np.int64),
                             "err": e.max(axis=0)})

    mxe = reduce_partials(emb, "dim", err, agg={"err": "max"})
    return pd.DataFrame({"dim": mx["dim"].to_numpy(), "scale": scale,
                         "max_abs_err": mxe["err"].to_numpy()})


def q_topk_frequent_paths(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """Most frequent 3-step event paths (sequential pattern mining's
    bread-and-butter): every user's ordered stream yields its length-3
    subsequences of ADJACENT events via two vectorized shifts inside
    whole-user buckets (a window is valid iff the user_id survives both
    shifts); path-count partials leave the bucket, the driver merges the
    <=|types|^3 rows and takes top-k with the (count desc, path) tie
    break. All integers."""
    ev = _read(sf_dir, "events", ["event_id", "user_id", "event_type", "ts"])

    def paths(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        e0 = g["event_type"].to_numpy()
        e1 = g["event_type"].shift(-1).to_numpy()
        e2 = g["event_type"].shift(-2).to_numpy()
        same = (g["user_id"].eq(g["user_id"].shift(-1))
                & g["user_id"].eq(g["user_id"].shift(-2))).to_numpy()
        p = pd.Series(e0[same], dtype=object) + ">" + e1[same] + ">" + e2[same]
        return group_cells(pd.DataFrame({"path": p, "n": np.int64(1)}), "path")

    out = reduce_partials(bucketed_group_apply(ev, "user_id", paths), "path")
    return (out.sort_values(["n", "path"], ascending=[False, True])
               .head(k).reset_index(drop=True))


def q_wau_mau_stickiness(sf_dir: str) -> pd.DataFrame:
    """DAU/MAU-style stickiness: per day, the 7-day distinct users over
    the 28-day distinct users — TWO windowed COUNT(DISTINCT)s at once,
    both factored through window membership inside whole-user buckets
    (each user-day expands into its tagged 7- and 28-day coverage, dedup
    per (user, tag, window-day), only per-(tag, day) count partials
    leave). The ratio is ONE division of two exact integers — identical
    IEEE both sides, no rounding."""
    ev = _read(sf_dir, "events", ["user_id", "ts"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        t = df["ts"].astype("datetime64[us]").astype("int64").to_numpy()
        d = (pd.DataFrame({"user_id": df["user_id"].to_numpy(),
                           "day": t // _DAY_US})
             .drop_duplicates())
        return d.assign(ts=pd.to_datetime(d.pop("day") * _DAY_US, unit="us"))

    def cover(g: pd.DataFrame) -> pd.DataFrame:
        t = g["ts"].astype("datetime64[us]").astype("int64").to_numpy()
        d = (pd.DataFrame({"user_id": g["user_id"].to_numpy(),
                           "day": t // _DAY_US})
             .drop_duplicates())
        frames = []
        for tag, win in (("w", 7), ("m", 28)):
            day = d["day"].to_numpy()
            rows = np.repeat(np.arange(len(d)), win)
            off = np.tile(np.arange(win, dtype=np.int64), len(d))
            w = (pd.DataFrame({"user_id": d["user_id"].to_numpy()[rows],
                               "wday": day[rows] + off})
                 .drop_duplicates().assign(tag=tag, n=np.int64(1)))
            frames.append(w[["tag", "wday", "n"]])
        cells = pd.concat(frames, ignore_index=True)
        return group_cells(cells, ["tag", "wday"])

    cnt = reduce_partials(bucketed_group_apply(ev, "user_id", cover,
                                               partial_fn=partial),
                          ["tag", "wday"]).pivot(index="wday", columns="tag",
                                                 values="n")

    def days_partial(df: pd.DataFrame) -> pd.DataFrame:
        t = df["ts"].astype("datetime64[us]").astype("int64").to_numpy()
        return pd.DataFrame({"day": np.unique(t // _DAY_US)})

    cal = (_read(sf_dir, "events", ["ts"])
           .map_batches(days_partial, batch_format="pandas")
           .to_pandas()["day"].drop_duplicates())
    cnt = cnt.loc[cnt.index.isin(set(cal))]
    wau = cnt["w"].to_numpy(np.int64)
    mau = cnt["m"].to_numpy(np.int64)
    return pd.DataFrame({
        "day": pd.to_datetime(cnt.index.to_numpy() * _DAY_US, unit="us"),
        "wau": wau, "mau": mau,
        "stickiness": wau.astype(np.float64) / mau.astype(np.float64)})


def q_gap_filled_daily_counts(sf_dir: str) -> pd.DataFrame:
    """Calendar DENSIFICATION: per (event_type, day) counts with explicit
    ZERO rows for days a type never fired — the gap-filling pass
    time-series models need before windowing. Count partials merge as
    usual; the calendar (min..max day x the bounded type vocabulary) is
    tiny however large the table, so the fill is a driver-side cross of
    two broadcast-sized sets against the merged counts. Integer day math
    only."""
    ev = _read(sf_dir, "events", ["event_type", "ts"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        t = df["ts"].astype("datetime64[us]").astype("int64").to_numpy()
        return pd.DataFrame({"event_type": df["event_type"].to_numpy(),
                             "day": t // _DAY_US, "n": np.int64(1)})

    cnt = reduce_partials(ev, ["event_type", "day"], partial)
    days = np.arange(cnt["day"].min(), cnt["day"].max() + 1)
    types = np.sort(cnt["event_type"].unique())
    cal = pd.DataFrame({
        "event_type": np.repeat(types, len(days)),
        "day": np.tile(days, len(types))})
    out = cal.merge(cnt, on=["event_type", "day"], how="left").fillna(0)
    return (pd.DataFrame({
        "event_type": out["event_type"],
        "day": pd.to_datetime(out["day"] * _DAY_US, unit="us"),
        "n": out["n"].astype("int64")})
        .sort_values(["event_type", "day"]).reset_index(drop=True))


def q_daily_series_correlation(sf_dir: str) -> pd.DataFrame:
    """Pearson correlation between the DAILY click and purchase count
    series — the cross-metric screen run over aggregate telemetry: daily
    counts are exact integer partials; the correlation closes on the
    driver over the ~|days| pairs with every raw sum kept integer and
    the final expression ((n*sxy - sx*sy) / (sqrt(n*sxx - sx*sx) *
    sqrt(n*syy - sy*sy))) stated in the oracle operand for operand —
    bit-exact with no rounding, because the only float ops are that one
    stated chain."""
    ev = _read(sf_dir, "events", ["event_type", "ts"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        d = df[df["event_type"].isin(("click", "purchase"))]
        t = d["ts"].astype("datetime64[us]").astype("int64").to_numpy()
        return pd.DataFrame({"event_type": d["event_type"].to_numpy(),
                             "day": t // _DAY_US, "n": np.int64(1)})

    cnt = (reduce_partials(ev, ["event_type", "day"], partial)
           .pivot(index="day", columns="event_type", values="n")
           .fillna(0).astype(np.int64))
    x = cnt.get("click", pd.Series(dtype=np.int64)).to_numpy(np.int64)
    y = cnt.get("purchase", pd.Series(dtype=np.int64)).to_numpy(np.int64)
    n = np.int64(len(x))
    sx, sy = x.sum(), y.sum()
    sxx, syy, sxy = (x * x).sum(), (y * y).sum(), (x * y).sum()
    corr = (np.float64(n * sxy - sx * sy)
            / (np.sqrt(np.float64(n * sxx - sx * sx))
               * np.sqrt(np.float64(n * syy - sy * sy))))
    return pd.DataFrame({"n_days": [n], "corr_click_purchase": [corr]})


def q_join_size_estimate(sf_dir: str) -> pd.DataFrame:
    """EXACT join cardinality WITHOUT running the join — the planner
    statistic that decides broadcast vs shuffle vs salt: |orders ⋈
    lineitem on orderkey| = sum over keys of n_orders(k) * n_lineitem(k).
    Both sides reduce to per-key count partials (each batch ships one row
    per key it saw), keys co-locate in hash buckets, and only per-bucket
    int64 products-of-counts reach the driver. The heaviest key rides
    along for the skew report. All integers."""
    o = _read(sf_dir, "orders", ["o_orderkey"])
    li = _read(sf_dir, "lineitem", ["l_orderkey"])

    def cnt(col):
        def f(df: pd.DataFrame) -> pd.DataFrame:
            c = df[col].value_counts()
            return pd.DataFrame({"key": c.index.to_numpy(),
                                 "n": c.to_numpy(np.int64)})
        return f

    tagged = (o.map_batches(cnt("o_orderkey"), batch_format="pandas")
               .map_batches(lambda d: d.assign(side=np.int8(0)),
                            batch_format="pandas")
              .union(li.map_batches(cnt("l_orderkey"), batch_format="pandas")
                       .map_batches(lambda d: d.assign(side=np.int8(1)),
                                    batch_format="pandas")))

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        a = (g[g["side"] == 0].groupby("key", as_index=False)["n"].sum()
             .rename(columns={"n": "na"}))
        b = (g[g["side"] == 1].groupby("key", as_index=False)["n"].sum()
             .rename(columns={"n": "nb"}))
        j = a.merge(b, on="key")
        prod = j["na"].to_numpy(np.int64) * j["nb"].to_numpy(np.int64)
        if not len(prod):
            return pd.DataFrame({"rows": [np.int64(0)],
                                 "max_key_rows": [np.int64(0)]})
        return pd.DataFrame({"rows": [np.int64(prod.sum())],
                             "max_key_rows": [np.int64(prod.max())]})

    parts = bucketed_group_apply(tagged, "key", combine).to_pandas()
    return pd.DataFrame({
        "join_rows": [np.int64(parts["rows"].sum())],
        "max_single_key_rows": [np.int64(parts["max_key_rows"].max())]})


def q_locf_daily_values(sf_dir: str) -> pd.DataFrame:
    """LOCF (last-observation-carried-forward) densification: one row per
    user per calendar day of their active span, carrying the user's most
    recent event value at-or-before that day — the forward-fill a
    feature-store materialization runs over sparse signals. Inside
    whole-user buckets: per (user, day) the last observation resolves by
    one sort (ties end on the larger event_id, stated in the oracle),
    the span expands with the ragged vectorized arange, and the fill is
    one np.searchsorted of span-days into observed-days per bucket.
    Values are raw pass-throughs — nothing float is computed."""
    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def fill(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        t = g["ts"].astype("datetime64[us]").astype("int64").to_numpy()
        obs = (pd.DataFrame({"user_id": g["user_id"].to_numpy(),
                             "day": t // _DAY_US,
                             "value": g["value"].to_numpy()})
               .groupby(["user_id", "day"], as_index=False)
               .last())                       # last obs of the day
        span = obs.groupby("user_id", as_index=False).agg(
            lo=("day", "min"), hi=("day", "max"))
        n_days = (span["hi"] - span["lo"] + 1).to_numpy(np.int64)
        rows = np.repeat(np.arange(len(span)), n_days)
        starts = np.cumsum(n_days) - n_days
        day = (np.arange(int(n_days.sum())) - np.repeat(starts, n_days)
               + np.repeat(span["lo"].to_numpy(), n_days))
        uid = span["user_id"].to_numpy()[rows]
        # composite searchsorted: user-major (obs and span both sorted)
        uidx_obs, uniq = pd.factorize(obs["user_id"], sort=True)
        uidx_q = np.searchsorted(uniq, uid)
        m = np.int64(obs["day"].max() - obs["day"].min() + 2)
        base = np.int64(obs["day"].min())
        key = uidx_obs.astype(np.int64) * m + (obs["day"].to_numpy() - base)
        q = uidx_q.astype(np.int64) * m + (day - base)
        pos = np.searchsorted(key, q, side="right") - 1
        return pd.DataFrame({
            "user_id": uid,
            "day": pd.to_datetime(day * _DAY_US, unit="us"),
            "value": obs["value"].to_numpy()[pos]})

    out = bucketed_group_apply(ev, "user_id", fill).to_pandas()
    return out.sort_values(["user_id", "day"]).reset_index(drop=True)


def q_revenue_contribution(sf_dir: str) -> pd.DataFrame:
    """Percent-of-total contribution analysis: each (priority, status)
    cell's share of its priority's revenue — integer-cents partials, and
    every share is ONE division of two exact int64 sums (identical IEEE
    both sides, unrounded). The within-group percent a reporting rollup
    always needs, at partial-aggregate wire cost."""
    o = _read(sf_dir, "orders",
              ["o_orderpriority", "o_orderstatus", "o_totalprice"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        cents = np.round(df["o_totalprice"].to_numpy() * 100.0) \
            .astype(np.int64)
        return df[["o_orderpriority", "o_orderstatus"]].assign(cents=cents)

    c = reduce_partials(o, ["o_orderpriority", "o_orderstatus"], partial)
    tot = c.groupby("o_orderpriority")["cents"].transform("sum")
    c["share"] = c["cents"].to_numpy(np.float64) / tot.to_numpy(np.float64)
    return c


def q_bounce_rate(sf_dir: str, gap_s: int = 1800) -> pd.DataFrame:
    """Session bounce rate: the share of 30-minute-gap sessions containing
    exactly one event — gaps-and-islands inside whole-user buckets (one
    shift + cumsum), per-bucket (sessions, bounces) partials, and the
    rate is ONE division of two exact int64 counts."""
    gap_us = gap_s * 1_000_000
    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts"])

    def sessions(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        t = g["ts"].astype("datetime64[us]").astype("int64").to_numpy()
        new = (~g["user_id"].eq(g["user_id"].shift(1)).to_numpy()) \
            | (t - np.roll(t, 1) > gap_us)
        sid = np.cumsum(new)
        size = pd.Series(sid).value_counts()
        return pd.DataFrame({
            "n_sessions": [np.int64(len(size))],
            "n_bounce": [np.int64(int((size == 1).sum()))]})

    parts = bucketed_group_apply(ev, "user_id", sessions).to_pandas()
    ns = np.int64(parts["n_sessions"].sum())
    nb = np.int64(parts["n_bounce"].sum())
    return pd.DataFrame({"n_sessions": [ns], "n_bounce": [nb],
                         "bounce_rate": [np.float64(nb) / np.float64(ns)]})


def q_user_simpson_diversity(sf_dir: str) -> pd.DataFrame:
    """Simpson diversity of each user's event mix (1 - sum p_i^2) — the
    collision-probability complement to Shannon entropy, and the one
    diversity index that needs NO logarithm: it closes over exact
    integer counts as 1 - sum(c^2)/n^2, so the only float work is one
    stated division — bit-exact unrounded. Mergeable (user, type) count
    partials, closed inside whole-user buckets."""
    ev = _read(sf_dir, "events", ["user_id", "event_type"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return (df.groupby(["user_id", "event_type"], as_index=False)
                  .size().rename(columns={"size": "n"}))

    def simpson(g: pd.DataFrame) -> pd.DataFrame:
        c = g.groupby(["user_id", "event_type"], as_index=False)["n"].sum()
        c["sq"] = c["n"].to_numpy(np.int64) ** 2
        a = c.groupby("user_id", as_index=False).agg(
            n=("n", "sum"), sq=("sq", "sum"))
        n = a["n"].to_numpy(np.int64)
        return pd.DataFrame({
            "user_id": a["user_id"].to_numpy(),
            "n_events": n,
            "simpson": 1.0 - (a["sq"].to_numpy(np.float64)
                              / (n * n).astype(np.float64))})

    out = bucketed_group_apply(ev, "user_id", simpson,
                               partial_fn=partial).to_pandas()
    return (out.astype({"n_events": "int64"})
               .sort_values("user_id").reset_index(drop=True))


def q_weighted_avg_price(sf_dir: str) -> pd.DataFrame:
    """Quantity-weighted average price per return flag: integer
    cents x integer quantities sum exactly (order-free), and the
    weighted mean is the stated two-step division at the close —
    bit-exact unrounded at partial-aggregate wire cost."""
    li = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_extendedprice", "l_quantity"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        cents = np.round(df["l_extendedprice"].to_numpy() * 100.0) \
            .astype(np.int64)
        q = df["l_quantity"].to_numpy(np.int64)
        return pd.DataFrame({"l_returnflag": df["l_returnflag"],
                             "wc": cents * q, "w": q})

    a = reduce_partials(li, "l_returnflag", partial)
    return pd.DataFrame({
        "l_returnflag": a["l_returnflag"],
        "w_avg_price": (a["wc"].to_numpy(np.float64) / 100.0)
                       / a["w"].to_numpy(np.float64),
        "total_qty": a["w"]})


def q_label_centroids(sf_dir: str) -> pd.DataFrame:
    """Per-label embedding centroid (the one-step k-means / class-mean
    statistic) in LONG form (label, dim, n, mean_v): each batch stacks
    its vectors once, splits by the label column, and emits
    per-(label, dim) (count, float64 sum) partials — |labels| x 64 dims
    of mergeable rows per batch, no join and no shuffle. Means round to
    4 (dim sums are thousands of |v|<=1 terms; order noise ~1e-13
    cannot reach the 4th decimal); float32 -> float64 upcast happens
    BEFORE any arithmetic, matching the oracle's ::DOUBLE."""
    from ..functions.numeric import round_half_away

    emb = _read(sf_dir, "embeddings", ["label", "embedding"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        m = np.stack(df["embedding"].to_numpy()).astype(np.float64)
        labels = df["label"].to_numpy()
        frames = []
        for name in pd.unique(labels):
            sub = m[labels == name]
            frames.append(pd.DataFrame({
                "label": np.int64(name),
                "dim": np.arange(1, m.shape[1] + 1, dtype=np.int64),
                "n": np.int64(len(sub)),
                "s": sub.sum(axis=0)}))
        return pd.concat(frames, ignore_index=True)

    a = reduce_partials(emb, ["label", "dim"], partial)
    return pd.DataFrame({
        "label": a["label"], "dim": a["dim"], "n": a["n"],
        "mean_v": round_half_away((a["s"] / a["n"]).to_numpy(), 4)})


def q_outlier_counts(sf_dir: str) -> pd.DataFrame:
    """3-sigma outlier counts per event type WITHOUT a float mean/std:
    the test |v - mean| > 3*sigma cross-multiplies by n^2 into
    (n*c - s)^2 > 9*(n*ss - s^2) over integer cents and their exact
    int64 sums — the left side is an exact int64 difference cast once to
    double, the right side a stated double expression of the exact sums
    (n*ss overflows int64, so BOTH engines state the cast-then-multiply
    order) — no engine-ordered float summation anywhere, so the count
    compares exactly. Two streaming passes: moments, then the gate."""
    import ray

    ev = _read(sf_dir, "events", ["event_type", "value"])

    def moments(df: pd.DataFrame) -> pd.DataFrame:
        c = np.round(df["value"].to_numpy() * 100.0).astype(np.int64)
        return pd.DataFrame({"event_type": df["event_type"].to_numpy(),
                             "n": np.int64(1), "s": c, "ss": c * c})

    m = reduce_partials(ev, "event_type", moments)
    mref = ray.put({r.event_type: (int(r.n), int(r.s), int(r.ss))
                    for r in m.itertuples()})

    def gate(df: pd.DataFrame) -> pd.DataFrame:
        c = np.round(df["value"].to_numpy() * 100.0).astype(np.int64)
        t = df["event_type"].to_numpy()
        out = []
        for name, (n, s, ss) in broadcast_get(mref).items():
            sub = c[t == name]
            lhs = (n * sub - s).astype(np.float64)
            rhs = 9.0 * (np.float64(n) * np.float64(ss)
                         - np.float64(s) * np.float64(s))
            out.append(pd.DataFrame({
                "event_type": [name],
                "n_outliers": [np.int64(int((lhs * lhs > rhs).sum()))]}))
        return pd.concat(out, ignore_index=True)

    return reduce_partials(ev, "event_type", gate)


def q_centroid_assignment(sf_dir: str) -> pd.DataFrame:
    """Nearest-centroid assignment (the k-means E-step) over the label
    centroids: the (|labels| x 64) centroid matrix broadcasts once, each
    batch computes all distances in ONE matmul (||x-c||^2 = ||x||^2 -
    2x.c + ||c||^2, the ||x||^2 term dropped as argmin-invariant) and
    emits (true label, assigned label) confusion counts. Rows-only: the
    assignment parity vs an independent brute-force distance loop and
    run-to-run determinism are pytest-pinned."""
    import ray

    cent = q_label_centroids(sf_dir)
    k = int(cent["label"].nunique())
    c = (cent.sort_values(["label", "dim"])  # (k, 64) row-major
             ["mean_v"].to_numpy(np.float64).reshape(k, -1))
    labels_sorted = np.sort(cent["label"].unique())
    cref = ray.put((c, 0.5 * (c * c).sum(axis=1), labels_sorted))

    def assign(df: pd.DataFrame) -> pd.DataFrame:
        cm, half_c2, labels = broadcast_get(cref)
        x = np.stack(df["embedding"].to_numpy()).astype(np.float64)
        score = x @ cm.T - half_c2    # argmax == nearest
        a = labels[np.argmax(score, axis=1)]
        return pd.DataFrame({"label": df["label"].to_numpy(np.int64),
                             "assigned": a, "n": np.int64(1)})

    return reduce_partials(_read(sf_dir, "embeddings", ["label", "embedding"]),
                           ["label", "assigned"], assign)


def q_activity_gini(sf_dir: str) -> pd.DataFrame:
    """Gini coefficient of per-user activity — the inequality scalar
    beside the Lorenz curve: per-user event counts are mergeable
    partials; over counts sorted ascending with the stated (count,
    user_id) order, G = (2 * sum(i * c_i)) / (n * sum(c)) - (n + 1) / n
    closes over exact int64 sums with a stated three-operation float
    chain — bit-exact unrounded. Driver holds one row per user (the
    count-of-counts histogram is the stated selection-scale path)."""
    ev = _read(sf_dir, "events", ["user_id"])

    c = (reduce_partials(ev, "user_id", lambda df: df.assign(n=np.int64(1)))
         .sort_values(["n", "user_id"], kind="mergesort"))
    counts = c["n"].to_numpy(np.int64)
    n = np.int64(len(counts))
    i = np.arange(1, n + 1, dtype=np.int64)
    num = np.int64((i * counts).sum())
    tot = np.int64(counts.sum())
    gini = (np.float64(2 * num) / np.float64(n * tot)
            - np.float64(n + 1) / np.float64(n))
    return pd.DataFrame({"n_users": [n], "total_events": [tot],
                         "gini": [gini]})


def q_hour_dow_heatmap(sf_dir: str) -> pd.DataFrame:
    """Activity heatmap over (ISO weekday x hour) — the seasonality grid
    behind load forecasting: pure mergeable count partials over a
    bounded 7x24 key space, everything integer."""
    ev = _read(sf_dir, "events", ["ts"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        dow = df["ts"].dt.dayofweek.to_numpy(np.int64) + 1  # == SQL ISODOW
        hr = df["ts"].dt.hour.to_numpy(np.int64)
        return pd.DataFrame({"dow": dow, "hour": hr, "n": np.int64(1)})

    return reduce_partials(ev, ["dow", "hour"], partial)


def q_type_deciles(sf_dir: str) -> pd.DataFrame:
    """Per-type decile boundaries of the value column in LONG form
    (event_type, decile, value) — the per-key multi-quantile: types are
    few and bounded, so each co-locates whole in a hash bucket and all
    nine order statistics resolve from ONE in-bucket sort, interpolating
    as DuckDB's quantile_cont (rn = q*(n-1); v_lo +
    (rn-floor(rn))*(v_hi-v_lo)); the engine's internal lerp differs in
    the last ulp, so both sides round to 4 — the decile_boundaries
    precedent."""
    ev = _read(sf_dir, "events", ["event_type", "value"])

    def deciles(g: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for name, gg in g.groupby("event_type", sort=False):
            v = np.sort(gg["value"].to_numpy())
            n = len(v)
            for k in range(1, 10):
                rn = (k / 10) * (n - 1)
                f = int(np.floor(rn))
                c = int(np.ceil(rn))
                x = v[f] if c == f else v[f] + (rn - f) * (v[c] - v[f])
                outs.append((name, np.int64(k),
                             round_half_away(float(x), 4)))
        return pd.DataFrame(outs, columns=["event_type", "decile",
                                           "value"])

    out = bucketed_group_apply(ev, "event_type", deciles).to_pandas()
    return (out.astype({"decile": "int64"})
               .sort_values(["event_type", "decile"])
               .reset_index(drop=True))


def q_session_entry_exit(sf_dir: str, gap_s: int = 1800) -> pd.DataFrame:
    """Session entry/exit analysis: which event type OPENS a session and
    which CLOSES it, counted over all 30-minute-gap sessions — the
    landing/abandon matrix product analytics reads. Gaps-and-islands in
    whole-user buckets; each island's first/last rows resolve from the
    same sort (ties on the microsecond break on event_id, stated in the
    oracle); per-(entry, exit) count partials merge as integers."""
    gap_us = gap_s * 1_000_000
    ev = _read(sf_dir, "events",
               ["event_id", "user_id", "event_type", "ts"])

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        t = g["ts"].astype("datetime64[us]").astype("int64").to_numpy()
        new = (~g["user_id"].eq(g["user_id"].shift(1)).to_numpy()) \
            | (t - np.roll(t, 1) > gap_us)
        sid = np.cumsum(new)
        d = pd.DataFrame({"sid": sid,
                          "event_type": g["event_type"].to_numpy()})
        f = d.groupby("sid")["event_type"].first()
        z = d.groupby("sid")["event_type"].last()
        cells = pd.DataFrame({"entry_type": f.to_numpy(),
                              "exit_type": z.to_numpy(),
                              "n_sessions": np.int64(1)})
        return group_cells(cells, ["entry_type", "exit_type"])

    return reduce_partials(bucketed_group_apply(ev, "user_id", pairs),
                           ["entry_type", "exit_type"])


def q_user_activity_span_stats(sf_dir: str) -> pd.DataFrame:
    """User lifetime-span histogram: each user's activity extent
    (last event minus first, whole weeks) bucketed into a bounded
    count-of-users-per-span table. MIN/MAX merge order-free inside
    user-hash buckets (exact int64 µs), the span is one integer
    floor-division chain (µs -> days -> weeks), and only (span_weeks,
    n_users) cells leave the bucket."""
    ev = base_dataset(sf_dir, "events", columns=["user_id", "ts"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        us = df["ts"].astype("int64")
        return (pd.DataFrame({"user_id": df["user_id"].to_numpy(),
                              "mn": us, "mx": us})
                .groupby("user_id", as_index=False)
                .agg(mn=("mn", "min"), mx=("mx", "max")))

    def spans(g: pd.DataFrame) -> pd.DataFrame:
        a = g.groupby("user_id", as_index=False).agg(
            mn=("mn", "min"), mx=("mx", "max"))
        weeks = ((a["mx"].to_numpy(np.int64) - a["mn"].to_numpy(np.int64))
                 // 86_400_000_000) // 7
        cells = pd.DataFrame({"span_weeks": weeks, "n_users": np.int64(1)})
        return group_cells(cells, "span_weeks")

    return reduce_partials(bucketed_group_apply(
        ev.map_batches(partial, batch_format="pandas"), "user_id", spans),
        "span_weeks")


def q_event_type_cooccurrence(sf_dir: str) -> pd.DataFrame:
    """Type co-occurrence — for every pair of event types, how many
    users did BOTH. The distributed trick is the BOUNDED BITMASK
    HISTOGRAM: each user's type set collapses to one small-int bitmask
    (BIT_OR merges order-free inside user hash buckets), the masks
    collapse to a <=2^k-row (mask, n_users) histogram, and every pair
    count closes on the driver by summing histogram cells whose mask
    contains both bits — pair counting never touches users again. All
    integers; the oracle states the same pair semantics via a distinct
    self-join."""
    ev = base_dataset(sf_dir, "events", columns=["user_id", "event_type"])
    types = sorted(ev.map_batches(
        lambda df: df[["event_type"]].drop_duplicates(),
        batch_format="pandas").to_pandas()["event_type"].unique())
    idx = {t: i for i, t in enumerate(types)}
    import ray as _ray
    idxref = _ray.put(idx)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        m = df["event_type"].map(broadcast_get(idxref)).to_numpy(np.int64)
        return (pd.DataFrame({"user_id": df["user_id"].to_numpy(),
                              "mask": np.int64(1) << m})
                .groupby("user_id", as_index=False)
                .agg(mask=("mask", lambda v: int(np.bitwise_or.reduce(
                    v.to_numpy(np.int64))))))

    def mask_hist(g: pd.DataFrame) -> pd.DataFrame:
        u = g.groupby("user_id", as_index=False).agg(
            mask=("mask", lambda v: int(np.bitwise_or.reduce(
                v.to_numpy(np.int64)))))
        cells = pd.DataFrame({"mask": u["mask"].to_numpy(np.int64),
                              "n_users": np.int64(1)})
        return group_cells(cells, "mask")

    hist = reduce_partials(bucketed_group_apply(
        ev.map_batches(partial, batch_format="pandas"), "user_id", mask_hist),
        "mask")
    masks = hist["mask"].to_numpy(np.int64)
    counts = hist["n_users"].to_numpy(np.int64)
    rows = []
    for i, a in enumerate(types):
        for j in range(i + 1, len(types)):
            need = (1 << i) | (1 << j)
            n = int(counts[(masks & need) == need].sum())
            if n > 0:   # the oracle's inner join emits no zero pairs
                rows.append({"type_a": a, "type_b": types[j], "n_users": n})
    return (pd.DataFrame(rows).astype({"n_users": "int64"})
            .sort_values(["type_a", "type_b"]).reset_index(drop=True))


def q_embedding_gram_pca(sf_dir: str, iters: int = 2000) -> pd.DataFrame:
    """Distributed PCA, the scale-right way: ONE streaming pass
    accumulates the d x d Gram matrix (per-batch X^T X partials — d=64,
    so each block contributes a 32 KB cell regardless of row count) and
    the driver power-iterates on that bounded matrix for the top
    component. Rows never revisit; adding components = deflating the
    same Gram. Rows-only (the Gram partial merge order can drift a
    float ulp): top eigenvalue + leading loadings are pytest-pinned to
    numpy's eigh within 1e-6."""
    emb = base_dataset(sf_dir, "embeddings", columns=["embedding"])

    def gram(df: pd.DataFrame) -> pd.DataFrame:
        m = np.stack(df["embedding"].to_numpy()).astype(np.float64)
        g = m.T @ m
        return pd.DataFrame({"i": np.repeat(np.arange(g.shape[0]),
                                            g.shape[1]),
                             "j": np.tile(np.arange(g.shape[1]),
                                          g.shape[0]),
                             "v": g.ravel(), "n": np.int64(len(m))})

    parts = emb.map_batches(gram, batch_format="pandas").to_pandas()
    d = int(parts["i"].max()) + 1
    G = np.zeros((d, d))
    np.add.at(G, (parts["i"].to_numpy(), parts["j"].to_numpy()),
              parts["v"].to_numpy())
    n = int(parts[(parts["i"] == 0) & (parts["j"] == 0)]["n"].sum())
    v = np.ones(d) / np.sqrt(d)
    for _ in range(iters):
        w = G @ v
        v = w / np.linalg.norm(w)
    eig = float(v @ (G @ v))
    sign = 1.0 if v[int(np.argmax(np.abs(v)))] >= 0 else -1.0
    v = v * sign
    return pd.DataFrame({"component": np.arange(d, dtype=np.int64),
                         "loading": np.round(v, 6),
                         "eigenvalue": np.round(eig, 4),
                         "n_rows": np.int64(n)})


def q_user_load_fairness(sf_dir: str) -> pd.DataFrame:
    """Jain's fairness index over per-user event loads — the one-number
    answer to 'is traffic spread or concentrated': (sum x)^2 / (n * sum
    x^2), 1.0 when perfectly even, 1/n when one user owns everything.
    Per-user counts merge in buckets, the three moments (n, sum, sum of
    squares) are exact int64 partials, and the index is ONE division of
    two exactly-represented products (magnitudes < 2^53 here; past
    that the moments ride as float128-free split hi/lo int64 pairs).
    The oracle states the identical expression."""
    ev = base_dataset(sf_dir, "events", columns=["user_id"])

    d = reduce_partials(ev, "user_id", lambda df: df.assign(c=np.int64(1)))
    c = d["c"].to_numpy(np.int64)
    n = np.int64(len(c))
    s = np.int64(c.sum())
    ss = np.int64((c * c).sum())
    return pd.DataFrame({
        "n_users": [n], "sum_events": [s], "sum_sq": [ss],
        "jain_index": [np.float64(s * s) / np.float64(n * ss)]})


def q_event_burstiness(sf_dir: str) -> pd.DataFrame:
    """Burstiness (Fano factor) of per-minute arrivals per event type:
    variance-to-mean of the minute-bucket counts OVER THE TYPE'S WHOLE
    ACTIVE SPAN — silent minutes count as zeros, which the span length
    supplies as an integer (no zero rows materialize anywhere). With
    n = span minutes, s = events, ss = sum of squared minute counts, the
    population Fano factor is (n*ss - s*s) / (n*s) — exact int64
    products under one stated division, the outlier-counts
    cross-multiplication precedent. Poisson arrivals give ~1; bursty
    traffic gives >1."""
    ev = base_dataset(sf_dir, "events", columns=["event_type", "ts"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        minute = df["ts"].astype("int64") // 60_000_000
        return pd.DataFrame({"event_type": df["event_type"].to_numpy(),
                             "minute": minute, "c": np.int64(1)})

    per_min = reduce_partials(ev, ["event_type", "minute"], partial)
    agg = per_min.groupby("event_type", as_index=False).agg(
        mn=("minute", "min"), mx=("minute", "max"),
        s=("c", "sum"), ss_obs=("c", lambda v: int(
            (v.to_numpy(np.int64) ** 2).sum())))
    n = (agg["mx"] - agg["mn"] + 1).to_numpy(np.int64)
    s = agg["s"].to_numpy(np.int64)
    ss = agg["ss_obs"].to_numpy(np.int64)
    return pd.DataFrame({
        "event_type": agg["event_type"].to_numpy(),
        "span_minutes": n, "n_events": s, "sum_sq": ss,
        "fano": (n * ss - s * s).astype(np.float64)
        / (n * s).astype(np.float64),
    }).sort_values("event_type").reset_index(drop=True)
