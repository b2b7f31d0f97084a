"""Round-5 session-3 batch 4: reciprocal-rank fusion, Gini activity
concentration, time-windowed funnel.

- ``rrf_fusion``: the retrieval-fusion standard (Cormack et al.) —
  combine two deterministic document rankings via
  ``1/(60+r1) + 1/(60+r2)`` and keep the top 20. The interesting
  distributed piece is exact global ROW_NUMBER ranking WITHOUT a
  global sort-and-collect: per-key counts are small (key cardinality
  is bounded), so rank = prefix-sum offset of strictly-better keys +
  the in-bucket position among key ties — one bucket shuffle per
  ranking, the driver only ever holds the per-key histogram.
- ``gini_user_activity``: inequality of per-user event counts — the
  mixture-design skew audit. The classic sorted-rank form
  ``sum((2i-n-1) x_(i)) / (n sum x)`` collapses per tie-block to the
  closed form ``x * f * (2o + f - n)`` (f users at count x, o users
  below), so the engine needs only the count-of-counts histogram:
  exact integers end to end, ONE stated double division at the end.
- ``funnel_windowed``: the realistic funnel — each stage must convert
  within 72 hours of the previous stage's entry (strict lower bound,
  inclusive upper), so stalled journeys stop counting as conversions.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..sources.tablecache import base_dataset
from ..stages.shuffle import bucketed_group_apply, group_cells, reduce_partials

RRF_K = 60
RRF_TOP = 20
FUNNEL_WINDOW_US = 72 * 3600 * 1_000_000


def _ranked(ds, key_col: str, id_col: str):
    """(id, rank) with rank = 1-based ROW_NUMBER ordered by
    (key_col DESC, id_col ASC), computed without a global sort:

    1. per-key counts close as map_batches partials; the driver merges
       a |distinct keys|-bounded histogram and prefix-sums the offsets
       in descending key order;
    2. one key-hash bucket shuffle; ties of one key land in one bucket
       and take offset + in-bucket argsort(id) positions.

    Driver memory is the key histogram, never the rows — the stated
    assumption is bounded key cardinality (here: n_chars / token
    counts / event counts), the usual case for fused rank keys."""

    hist = reduce_partials(ds, key_col, lambda df: pd.DataFrame(
        {key_col: df[key_col].to_numpy(np.int64), "n": np.int64(1)})
    ).sort_values(key_col, ascending=False)
    offs = dict(zip(hist[key_col].to_numpy(np.int64),
                    np.concatenate([[0], np.cumsum(
                        hist["n"].to_numpy(np.int64))[:-1]])))

    def rank_bucket(g: pd.DataFrame) -> pd.DataFrame:
        out_id, out_rank = [], []
        for key, grp in g.groupby(key_col, sort=False):
            ids = np.sort(grp[id_col].to_numpy(np.int64))
            out_id.append(ids)
            out_rank.append(offs[int(key)] + 1
                            + np.arange(len(ids), dtype=np.int64))
        return pd.DataFrame({id_col: np.concatenate(out_id),
                             "rank": np.concatenate(out_rank)})

    return bucketed_group_apply(ds, key_col, rank_bucket)


def q_rrf_fusion(sf_dir: str) -> pd.DataFrame:
    """Top-20 documents by reciprocal-rank fusion of two rankings:
    by n_chars (DESC) and by distinct-token count (DESC), doc_id ASC
    breaking ties in both. ``rrf_score = 1.0/(60+r1) + 1.0/(60+r2)``
    — two divisions and one add in the same stated order in both
    engines (IEEE-identical); symmetric rank pairs tie exactly and
    fall to the doc_id tie-break.

    100-TB shape: two bucketed rankings (see :func:`_ranked`), ranks
    re-attach through one doc-hash bucket, and the global top-20
    closes from per-bucket top-20 partials — the driver never holds
    more than buckets x 20 rows."""
    docs = base_dataset(sf_dir, "documents",
                        columns=["doc_id", "text", "n_chars"])

    keyed = docs.map_batches(
        lambda df: pd.DataFrame({
            "doc_id": df["doc_id"].to_numpy(np.int64),
            "n_chars": df["n_chars"].to_numpy(np.int64),
            "n_toks": df["text"].str.split(" ").map(
                lambda t: len(set(t))).to_numpy(np.int64)}),
        batch_format="pandas").materialize()

    r1 = _ranked(keyed, "n_chars", "doc_id").map_batches(
        lambda df: df.assign(src=np.int8(0)), batch_format="pandas")
    r2 = _ranked(keyed, "n_toks", "doc_id").map_batches(
        lambda df: df.assign(src=np.int8(1)), batch_format="pandas")

    def fuse(g: pd.DataFrame) -> pd.DataFrame:
        w = g.pivot_table(index="doc_id", columns="src", values="rank",
                          aggfunc="first").reset_index()
        rc = w[0].to_numpy(np.int64)
        rt = w[1].to_numpy(np.int64)
        score = 1.0 / (RRF_K + rc) + 1.0 / (RRF_K + rt)
        out = pd.DataFrame({"doc_id": w["doc_id"].to_numpy(np.int64),
                            "rank_chars": rc, "rank_toks": rt,
                            "rrf_score": score})
        # per-bucket top-k partial: only candidates for the global top
        return out.sort_values(["rrf_score", "doc_id"],
                               ascending=[False, True]).head(RRF_TOP)

    both = r1.union(r2)
    cand = bucketed_group_apply(both, "doc_id", fuse).to_pandas()
    out = (cand.sort_values(["rrf_score", "doc_id"],
                            ascending=[False, True])
           .head(RRF_TOP).reset_index(drop=True))
    return out.astype({"doc_id": "int64", "rank_chars": "int64",
                       "rank_toks": "int64"})


def q_gini_user_activity(sf_dir: str) -> pd.DataFrame:
    """Gini coefficient of per-user event counts. Numerator exact:
    per distinct activity level x with f users and o users at lower
    levels, the tie-block contribution is ``x * f * (2o + f - n)``
    (the per-user ``(2i-n-1)x`` summed in closed form — which order
    tied users take is provably irrelevant). One double division at
    the end: ``gini = numer / (n * total)``.

    100-TB shape: per-user counts close in user-hash buckets; each
    bucket emits a count-of-counts histogram partial; the driver folds
    histograms (|distinct activity levels| cells) and runs the integer
    closed form — users never gather."""
    ev = base_dataset(sf_dir, "events", columns=["user_id"])

    def per_user(g: pd.DataFrame) -> pd.DataFrame:
        vc = g["user_id"].value_counts()          # whole-user in-bucket
        cells = pd.DataFrame({"x": vc.to_numpy(np.int64), "f": np.int64(1)})
        return group_cells(cells, "x")

    hist = reduce_partials(bucketed_group_apply(ev, "user_id", per_user), "x")
    x = hist["x"].to_numpy(np.int64)
    f = hist["f"].to_numpy(np.int64)
    n = int(f.sum())
    total = int((x * f).sum())
    o = np.concatenate([[0], np.cumsum(f)[:-1]])
    numer = int((x * f * (2 * o + f - n)).sum())
    gini = numer / (n * total)
    return pd.DataFrame({"n_users": [n], "total_events": [total],
                         "gini_numer": [numer], "gini": [gini]}).astype(
        {"n_users": "int64", "total_events": "int64",
         "gini_numer": "int64"})


def q_funnel_windowed(sf_dir: str) -> pd.DataFrame:
    """The 72-hour-window funnel: stage 2 counts only clicks with
    ``t1 < ts <= t1 + 72h`` (strict lower, inclusive upper), stage 3
    likewise from t2 — conversions that stall past the window stop
    counting, which is what a growth report actually wants. Same
    bucket shape as the unwindowed funnel (one user-hash shuffle,
    3-cell partials per bucket)."""
    ev = base_dataset(sf_dir, "events",
                      columns=["user_id", "ts", "event_type"])

    def stages(g: pd.DataFrame) -> pd.DataFrame:
        d = pd.DataFrame({"u": g["user_id"].to_numpy(np.int64),
                          "t": g["ts"].astype("int64").to_numpy(),
                          "e": g["event_type"].to_numpy(object)})
        t1 = (d[d["e"] == "view"].groupby("u")["t"].min()
              .rename("t1").reset_index())
        c = d[d["e"] == "click"].merge(t1, on="u")
        c = c[(c["t"] > c["t1"]) & (c["t"] <= c["t1"] + FUNNEL_WINDOW_US)]
        t2 = c.groupby("u")["t"].min().rename("t2").reset_index()
        p = d[d["e"] == "purchase"].merge(t2, on="u")
        p = p[(p["t"] > p["t2"]) & (p["t"] <= p["t2"] + FUNNEL_WINDOW_US)]
        t3 = p.groupby("u")["t"].min().rename("t3").reset_index()
        cells = pd.DataFrame({
            "stage": ["1_view", "2_click_72h", "3_purchase_72h"],
            "n_users": [len(t1), len(t2), len(t3)]})
        return group_cells(cells, "stage")

    return reduce_partials(bucketed_group_apply(ev, "user_id", stages),
                           "stage")
