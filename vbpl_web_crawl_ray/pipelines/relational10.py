"""Round-5 session-3 batch 5: weighted reservoir sampling, exact
time-decayed aggregation.

- ``weighted_reservoir_sample``: the distributed weighted
  without-replacement sampler (the Efraimidis–Spirakis / A-Res shape):
  every row gets priority ``hash / weight`` and the global k smallest
  priorities win. With the md5-64 contract supplying the hash, the
  priority is ONE double division per row — deterministic, identical
  in both engines, tie-free (md5 values are distinct at fixture scale)
  — and the sample is reproducible across re-runs, resumes and cluster
  sizes, which is what makes hash-priority sampling the production
  form (a PRNG-based reservoir resamples differently every run).
- ``time_decayed_value``: per event type, the half-life-decayed value
  sum ``sum(value * 2^-age_days)`` — the freshness-weighted rollup
  behind trending/decay scores. Closed EXACTLY: cents are integers,
  ``2^(MAX_AGE - age)`` is an integer weight, so the weighted sum is
  one big int (order-free — float summation order can never drift it)
  and the final ``/ 2^MAX_AGE`` is a single exact power-of-two double
  division.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..functions.hashing import md5_hash64
from ..sources.tablecache import base_dataset
from ..stages.shuffle import reduce_partials

SAMPLE_K = 25
DECAY_MAX_AGE_DAYS = 40        # fixture spans ~30 days; cap the shift
DECAY_ANCHOR = "2024-02-01"    # ages measure back from this date


def q_weighted_reservoir_sample(sf_dir: str) -> pd.DataFrame:
    """The 25 documents sampled with probability proportional to
    n_chars, deterministically: priority = md5_64(str(doc_id)) /
    n_chars, global k smallest win (heavier docs draw proportionally
    smaller priorities, the A-Res argument with the uniform replaced by
    the hash contract).

    100-TB shape: one scan; each batch emits only its local k smallest
    (the global k-th smallest ranks within k in any batch holding it,
    the same merge containment as the KMV sketch), so the driver merges
    k x n_batches candidate rows — never the corpus."""
    docs = base_dataset(sf_dir, "documents",
                        columns=["doc_id", "source", "n_chars"])

    def local_k(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].to_numpy(np.int64)
        h = md5_hash64([str(i) for i in ids]).astype(np.float64)
        prio = h / df["n_chars"].to_numpy(np.int64)
        idx = np.lexsort((ids, prio))[:SAMPLE_K]   # doc_id breaks ties
        return pd.DataFrame({
            "doc_id": ids[idx],
            "source": df["source"].to_numpy(object)[idx],
            "n_chars": df["n_chars"].to_numpy(np.int64)[idx],
            "priority": prio[idx]})

    cand = docs.map_batches(local_k, batch_format="pandas").to_pandas()
    out = (cand.sort_values(["priority", "doc_id"]).head(SAMPLE_K)
           .reset_index(drop=True))
    return out.astype({"doc_id": "int64", "n_chars": "int64"})


def q_time_decayed_value(sf_dir: str) -> pd.DataFrame:
    """Per event type: freshness-decayed value sum with a 1-day
    half-life, ``sum(value * 2^-age)`` for age = whole days before
    2024-02-01 — exact: cents x 2^(40-age) sums as one big integer
    (order-free), then ONE division by 2^40 (a power of two: the
    double conversion of the integer rounds once, the division is
    exact). Ages >= 40 days contribute weight 2^0 x cents at the
    floor — the fixture spans ~30 days so the clamp never engages,
    but the stated rule keeps the shift bounded on any input.

    100-TB shape: scan-side integer partials per (type), no shuffle;
    the driver merges |types| cells."""
    ev = base_dataset(sf_dir, "events",
                      columns=["event_type", "ts", "value"])
    anchor_us = pd.Timestamp(DECAY_ANCHOR).value // 1000
    day_us = 86_400_000_000

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        # vectorized per-(type, age) int64 cents sums — the bigint
        # 2^(40-age) weighting happens driver-side over |types| x 41
        # cells, never per row
        t = df["ts"].astype("int64").to_numpy()
        age = np.minimum((anchor_us - t) // day_us,
                         DECAY_MAX_AGE_DAYS).astype(np.int64)
        cents = np.round(df["value"].to_numpy(np.float64)
                         * 100).astype(np.int64)
        return pd.DataFrame({"event_type": df["event_type"]
                             .to_numpy(object), "age": age, "cents": cents})

    parts = reduce_partials(ev, ["event_type", "age"], partial)
    rows = []
    for t, g in parts.groupby("event_type", sort=True):
        num = sum(int(c) << int(DECAY_MAX_AGE_DAYS - a)
                  for a, c in zip(g["age"], g["cents"]))
        # cents * 2^-age summed exactly, then /100 for currency units:
        # state the double ops in one fixed order
        decayed = float(num) / float(1 << DECAY_MAX_AGE_DAYS) / 100.0
        rows.append((t, str(num), decayed))
    out = pd.DataFrame(rows, columns=["event_type", "decay_numer",
                                      "decayed_value"])
    return out.reset_index(drop=True)
