"""Incremental aggregate maintenance over an append-only corpus.

At 100 TB, recomputing corpus statistics after every ingest increment
(a crawl round, a new shard) is a full scan. This module maintains a
STORE of mergeable partial aggregates instead: each increment appends
one small parquet of per-group raw moments (n, sum, sumsq, min, max),
and reads merge the partials — update cost O(increment), read cost
O(increments x groups), the full corpus is never re-scanned.

The same additive-moments algebra the partial-aggregate queries use
in-flight (corr/regr/stats_per_group), persisted: the reference has no
analogue (it recomputes via SQL over MySQL each time), so this is the
engine-native replacement for that pattern.
"""

from __future__ import annotations

import glob
import os

import numpy as np
import pandas as pd
import ray.data as rd

from ..functions.numeric import round_half_away
from ..sources.tablecache import base_dataset
from ..stages.shuffle import reduce_partials

GROUP_COLS = ["source", "lang"]
MOMENT_COLS = ["n", "s", "ss", "mn", "mx"]


def _partial(df: pd.DataFrame) -> pd.DataFrame:
    x = df["n_chars"].astype(float)
    return pd.DataFrame({"source": df["source"], "lang": df["lang"],
                         "n": np.int64(1), "s": x, "ss": x * x,
                         "mn": x, "mx": x})


def update_stats(store_dir: str, increment: rd.Dataset,
                 version: int) -> str:
    """Fold one increment into the store: partial-aggregate it (streaming,
    combiner-style) and append the tiny moment frame as v=<version>.
    Idempotent per version: re-running an increment overwrites its own
    partial, never double-counts (the crawl's rounds-as-versions rule)."""
    merged = reduce_partials(increment, GROUP_COLS, _partial,
                             agg={"mn": "min", "mx": "max"})
    d = os.path.join(store_dir, f"v={version}")
    os.makedirs(d, exist_ok=True)
    for stale in glob.glob(os.path.join(d, "*.parquet")):
        os.remove(stale)
    path = os.path.join(d, "part-0.parquet")
    merged.to_parquet(path, index=False)
    return path


def read_stats(store_dir: str) -> pd.DataFrame:
    """Merge every increment's moments into final per-group statistics
    (count / sum / mean / population std / min / max). Reads only the
    store — O(increments x groups) rows — never the corpus."""
    files = sorted(glob.glob(os.path.join(store_dir, "v=*", "*.parquet")))
    if not files:
        return pd.DataFrame(columns=GROUP_COLS
                            + ["n_docs", "sum_chars", "mean_chars",
                               "std_chars", "min_chars", "max_chars"])
    parts = pd.concat([pd.read_parquet(f) for f in files],
                      ignore_index=True)
    a = parts.groupby(GROUP_COLS, as_index=False).agg(
        n=("n", "sum"), s=("s", "sum"), ss=("ss", "sum"),
        mn=("mn", "min"), mx=("mx", "max"))
    # identical closed forms as the oracle SQL (over the same SUM()s)
    mean = a["s"] / a["n"]
    var = (a["ss"] - a["s"] * a["s"] / a["n"]) / a["n"]
    return pd.DataFrame({
        "source": a["source"], "lang": a["lang"],
        "n_docs": a["n"].astype("int64"),
        "sum_chars": round_half_away(a["s"].to_numpy(), 4),
        "mean_chars": round_half_away(mean.to_numpy(), 4),
        "std_chars": round_half_away(np.sqrt(var.to_numpy()), 4),
        "min_chars": a["mn"].astype("int64"),
        "max_chars": a["mx"].astype("int64")})


def q_incremental_stats(sf_dir: str) -> pd.DataFrame:
    """Driver query: ingest the documents table as three deterministic
    increments (doc_id % 3), folding each into a fresh store, then read
    the merged statistics — which must equal a direct one-shot SQL over
    the whole table (the oracle). Exercises update idempotence too: the
    last increment is applied twice."""
    import tempfile

    store = tempfile.mkdtemp(prefix="vbpl_stats_store_")
    docs = base_dataset(sf_dir, "documents", columns=["doc_id", "source", "lang", "n_chars"])
    for k in range(3):
        inc = docs.map_batches(
            lambda df, _k=k: df[df["doc_id"] % 3 == _k],
            batch_format="pandas")
        update_stats(store, inc, version=k)
    # idempotence: re-apply the final increment (must not double-count)
    inc2 = docs.map_batches(lambda df: df[df["doc_id"] % 3 == 2],
                            batch_format="pandas")
    update_stats(store, inc2, version=2)
    out = read_stats(store)
    return out.sort_values(GROUP_COLS).reset_index(drop=True)
