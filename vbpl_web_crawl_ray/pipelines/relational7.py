"""Round-5 session-3 batch 2: funnel conversion, conjunctive token
search, Z-order layout stats, session path analysis.

Four more operator families the surface did not yet have:

- ``funnel_conversion``: the ordered multi-stage funnel (view -> click
  -> purchase) every product-analytics store ships — per user, each
  stage's entry time is the MIN event time strictly after the previous
  stage's; the output is the per-stage reached-user count.
- ``conjunctive_token_search``: docs containing ALL query terms as
  whole tokens — the retrieval primitive behind boolean search. The
  scale design is deliberately scan-side (the query side is tiny, so
  broadcasting terms into one vectorized scan beats building postings
  for a single query); the docstring states when a materialized
  term-partitioned inverted index wins instead.
- ``zorder_layout_stats``: Morton (Z-order) interleaving of two part
  attributes into a space-filling-curve tile, reporting per-tile counts
  and per-dimension bounding boxes — the layout-clustering audit behind
  multi-dimensional data skipping (each tile's tight bbox is exactly
  what lets a reader prune row groups on BOTH dims at once).
- ``session_paths``: 30-minute-gap sessionization (gaps-and-islands)
  followed by the first-5-events path string per session, counted per
  distinct path — the clickstream path-analysis shape.

All four oracle-backed; the Morton bit arithmetic is generated from ONE
helper (:func:`morton_sql_expr` / :func:`morton_interleave`) so the two
engines can never drift on the interleave.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..sources.tablecache import base_dataset
from ..stages.shuffle import bucketed_group_apply, group_cells, reduce_partials

GAP_US = 1800 * 1_000_000            # 30-minute session gap, int64 micros
SEARCH_TERMS = ("spark", "window", "merge")
Z_BITS = 6                           # 6 bits per dim -> 4096 cells
Z_TILE_SHIFT = 6                     # tile = z >> 6 -> 64 tiles


# ---------------------------------------------------------------------------
# Funnel conversion


def q_funnel_conversion(sf_dir: str) -> pd.DataFrame:
    """Ordered 3-stage funnel over events: per user, stage 1 is the
    first 'view'; stage 2 the first 'click' STRICTLY after it; stage 3
    the first 'purchase' strictly after that. Output: one row per stage
    with the count of users that reached it (monotonically
    non-increasing by construction).

    The strict-> rule (not >=) is the stated tie contract both engines
    share; event times compare as raw int64 microseconds, no epoch
    floats (the event_gap lesson).

    100-TB shape: one user-hash bucket shuffle; each bucket closes its
    users entirely locally (three masked groupby-mins + two merges over
    in-bucket frames) and emits ONE 3-cell count partial, so the driver
    merges O(buckets) cells. Stage predicates are evaluated vectorized;
    no per-user Python loop.
    """
    ev = base_dataset(sf_dir, "events",
                      columns=["user_id", "ts", "event_type"])

    def stages(g: pd.DataFrame) -> pd.DataFrame:
        ts = g["ts"].astype("int64")
        d = pd.DataFrame({"u": g["user_id"].to_numpy(np.int64),
                          "t": ts.to_numpy(np.int64),
                          "e": g["event_type"].to_numpy(object)})
        t1 = (d[d["e"] == "view"].groupby("u")["t"].min()
              .rename("t1").reset_index())
        c = d[d["e"] == "click"].merge(t1, on="u")
        t2 = (c[c["t"] > c["t1"]].groupby("u")["t"].min()
              .rename("t2").reset_index())
        p = d[d["e"] == "purchase"].merge(t2, on="u")
        t3 = (p[p["t"] > p["t2"]].groupby("u")["t"].min()
              .rename("t3").reset_index())
        cells = pd.DataFrame({
            "stage": ["1_view", "2_click", "3_purchase"],
            "n_users": [len(t1), len(t2), len(t3)]})
        return group_cells(cells, "stage")

    return reduce_partials(bucketed_group_apply(ev, "user_id", stages),
                           "stage")


# ---------------------------------------------------------------------------
# Conjunctive token search


def q_conjunctive_token_search(sf_dir: str) -> pd.DataFrame:
    """Documents containing ALL of :data:`SEARCH_TERMS` as whole tokens
    (token = space-delimited word, the corpus's own contract).

    Scale design: the query side is three terms, so the right 100-TB
    shape is a broadcast-terms single scan — each batch ANDs three
    vectorized token-boundary regex matches and emits only the matching
    rows; zero shuffle, zero index build. A materialized inverted index
    (term-partitioned postings parquet) wins only when MANY queries
    amortize its one all-to-all build — that variant is the flat_map
    (term, doc_id) -> semi-join -> HAVING count == |terms| composition
    of pieces this repo already has (`bucketed_group_apply` +
    broadcast semi-join), deliberately not spent on a single query.
    """
    docs = base_dataset(sf_dir, "documents",
                        columns=["doc_id", "source", "text", "n_chars"])

    def match(df: pd.DataFrame) -> pd.DataFrame:
        keep = np.ones(len(df), dtype=bool)
        for term in SEARCH_TERMS:
            # token boundary = string edge or the single-space separator
            keep &= df["text"].str.contains(
                rf"(?:^| ){term}(?: |$)", regex=True).to_numpy()
        return df.loc[keep, ["doc_id", "source", "n_chars"]]

    out = docs.map_batches(match, batch_format="pandas").to_pandas()
    return (out.astype({"doc_id": "int64", "n_chars": "int64"})
               .sort_values("doc_id").reset_index(drop=True))


# ---------------------------------------------------------------------------
# Z-order layout stats


def morton_interleave(x: np.ndarray, y: np.ndarray,
                      bits: int = Z_BITS) -> np.ndarray:
    """Bit-interleave two ``bits``-wide non-negative int arrays into the
    Morton code: x's bit i lands at position 2i, y's at 2i+1."""
    z = np.zeros(len(x), dtype=np.int64)
    for i in range(bits):
        z |= ((x >> i) & 1) << (2 * i)
        z |= ((y >> i) & 1) << (2 * i + 1)
    return z


def morton_sql_expr(xcol: str, ycol: str, bits: int = Z_BITS) -> str:
    """The SAME interleave as :func:`morton_interleave`, stated as a
    DuckDB integer expression — generated here so the two engines share
    one definition and cannot drift."""
    terms = []
    for i in range(bits):
        terms.append(f"((({xcol} >> {i}) & 1) << {2 * i})")
        terms.append(f"((({ycol} >> {i}) & 1) << {2 * i + 1})")
    return " | ".join(terms)


def q_zorder_layout_stats(sf_dir: str) -> pd.DataFrame:
    """Z-order clustering audit over part: x = p_size - 1 (1..50 fits
    6 bits), y = the min-max-normalized retail-price cents bucket
    ``(cents - min) * 64 // (max - min + 1)``; tile = the top 6 bits of
    the 12-bit Morton code. Output per tile: row count plus the tight
    per-dimension bounding box — the exhibit that a Z-ordered layout
    gives every tile a small rectangle in BOTH dims (what lets a reader
    prune row groups on either predicate).

    100-TB shape: the min/max normalizers are one two-phase aggregate
    over a constant key (no driver column pull, no all-to-all); the scan
    emits per-tile partials (<= 64 x n_batches cells) merged driver-side
    with min/max/sum — the parts themselves never gather. On a real
    store the follow-up is ``sort(z)`` + ``write_parquet`` (the layout
    rewrite itself); the stats here are the before/after measurement
    that justifies it.
    """
    parts = base_dataset(sf_dir, "part",
                         columns=["p_size", "p_retailprice"])
    cents_of = lambda df: np.round(  # noqa: E731 — shared idiom
        df["p_retailprice"].to_numpy(np.float64) * 100).astype(np.int64)

    def bounds(df: pd.DataFrame) -> pd.DataFrame:
        c = cents_of(df)
        return pd.DataFrame({"k": np.int64(0), "lo": c, "hi": c})

    mm = reduce_partials(parts, "k", bounds, agg={"lo": "min", "hi": "max"})
    lo, hi = int(mm["lo"].iloc[0]), int(mm["hi"].iloc[0])
    span = hi - lo + 1

    def tile_stats(df: pd.DataFrame) -> pd.DataFrame:
        x = df["p_size"].to_numpy(np.int64) - 1
        cents = cents_of(df)
        y = (cents - lo) * 64 // span
        z = morton_interleave(x, y)
        return pd.DataFrame({"tile": z >> Z_TILE_SHIFT,
                             "n_parts": np.int64(1), "x_min": x, "x_max": x,
                             "y_min": y, "y_max": y})

    return reduce_partials(parts, "tile", tile_stats,
                           agg={"x_min": "min", "x_max": "max",
                                "y_min": "min", "y_max": "max"})


# ---------------------------------------------------------------------------
# Session path analysis


def q_session_paths(sf_dir: str) -> pd.DataFrame:
    """Clickstream path analysis: 30-minute-gap sessions per user
    (gaps-and-islands — a new session starts when the strict gap to the
    previous event exceeds :data:`GAP_US`), each session described by
    the '>'-joined event types of its FIRST 5 events in (ts, event_id)
    order; output: per distinct path, the session count.

    All gap arithmetic is int64 microseconds; (ts, event_id) is a total
    order (event_id unique) so the path string is deterministic.

    100-TB shape: one user-hash bucket shuffle; sessions close entirely
    in-bucket (a user's events never straddle buckets) via vectorized
    diff/cumsum — no per-session Python loop except the final
    head-5 join over the already-grouped frame; each bucket emits
    (path, n) partials bounded by its distinct-path count, and the
    driver merge is bounded by |event_types|^5, independent of rows.
    """
    ev = base_dataset(sf_dir, "events",
                      columns=["user_id", "ts", "event_id", "event_type"])

    def paths(g: pd.DataFrame) -> pd.DataFrame:
        d = g.sort_values(["user_id", "ts", "event_id"])
        t = d["ts"].astype("int64").to_numpy()
        u = d["user_id"].to_numpy(np.int64)
        new = np.ones(len(d), dtype=bool)
        if len(d) > 1:
            new[1:] = (u[1:] != u[:-1]) | (t[1:] - t[:-1] > GAP_US)
        sid = np.cumsum(new)
        d = pd.DataFrame({"sid": sid,
                          "e": d["event_type"].to_numpy(object)})
        rank = d.groupby("sid").cumcount()
        head = d[rank < 5]
        p = head.groupby("sid")["e"].agg(">".join)
        cells = pd.DataFrame({"path": p.to_numpy(object),
                              "n_sessions": np.int64(1)})
        return group_cells(cells, "path")

    return reduce_partials(bucketed_group_apply(ev, "user_id", paths), "path")
