"""Round-5 session-3 batch 10: exact global-p99 outlier flags, range
partition planning — two consumers of ONE scale trick: when the value
domain is bounded integers (cents), the exact k-th order statistic
comes from a value HISTOGRAM (per-batch value_counts partials, driver
cumsum), not a distributed sort — the histogram is bounded by the
DOMAIN (10^4-10^7 cells), never by the row count.

- ``p99_outlier_counts``: per event type, how many values sit above
  the exact global 99th percentile (k = ceil(0.99 n), threshold = the
  k-th smallest cents) — the anomaly-flagging shape, with the
  threshold derived once and broadcast into a second counting scan.
- ``range_partition_plan``: the boundary planner for a range-
  partitioned write of lineitem by extended price — split points at
  ranks ``(i*n)//8``, rows landing in partition ``#{boundaries <
  cents}`` — reporting per-partition row counts and cents bounds (the
  near-equal sizes are what make range-partitioned output files
  skew-free to read back).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..sources.tablecache import base_dataset
from ..stages.shuffle import reduce_partials

N_PARTS = 8


def _cents_hist(ds, col: str) -> pd.Series:
    """Exact cents histogram: per-batch value_counts partials, driver
    merge — bounded by the cents domain, independent of rows."""

    def part(df: pd.DataFrame) -> pd.DataFrame:
        cents = np.round(df[col].to_numpy(np.float64)
                         * 100).astype(np.int64)
        return pd.DataFrame({"c": cents, "n": np.int64(1)})

    return reduce_partials(ds, "c", part).set_index("c")["n"]


def _kth_smallest(hist: pd.Series, k: int) -> int:
    """1-based k-th order statistic from the histogram cumsum."""
    cum = hist.cumsum()
    return int(cum.index[np.searchsorted(cum.to_numpy(), k)])


def q_p99_outlier_counts(sf_dir: str) -> pd.DataFrame:
    """Per event type: total rows and rows strictly above the exact
    global p99 (k = ceil(0.99 n) = (99n+99)//100, threshold = k-th
    smallest cents). Two scans: histogram, then broadcast-threshold
    counting partials."""
    ev = base_dataset(sf_dir, "events", columns=["event_type", "value"])
    hist = _cents_hist(ev, "value")
    n = int(hist.sum())
    thr = _kth_smallest(hist, (99 * n + 99) // 100)

    def count_above(df: pd.DataFrame) -> pd.DataFrame:
        cents = np.round(df["value"].to_numpy(np.float64)
                         * 100).astype(np.int64)
        return pd.DataFrame({"event_type": df["event_type"]
                             .to_numpy(object), "n_events": np.int64(1),
                             "n_above": (cents > thr).astype(np.int64)})

    out = reduce_partials(ev, "event_type", count_above)
    out["threshold_cents"] = np.int64(thr)
    return out


def q_range_partition_plan(sf_dir: str) -> pd.DataFrame:
    """Range-partition lineitem by extended-price cents into 8 parts:
    boundaries at 1-based ranks ``(i*n)//8`` (i = 1..7), each row in
    partition ``#{boundaries strictly below its cents}``; report per
    partition the row count and cents bounds. Equal-to-boundary rows
    go LEFT (the stated tie rule both engines share)."""
    li = base_dataset(sf_dir, "lineitem", columns=["l_extendedprice"])
    hist = _cents_hist(li, "l_extendedprice")
    n = int(hist.sum())
    bounds = np.array(sorted(
        _kth_smallest(hist, (i * n) // N_PARTS)
        for i in range(1, N_PARTS)), dtype=np.int64)

    def part(df: pd.DataFrame) -> pd.DataFrame:
        cents = np.round(df["l_extendedprice"].to_numpy(np.float64)
                         * 100).astype(np.int64)
        # #{b < c} == index of first boundary >= c
        p = np.searchsorted(bounds, cents, side="left").astype(np.int64)
        return pd.DataFrame({"partition": p, "n_rows": np.int64(1),
                             "c_min": cents, "c_max": cents})

    return reduce_partials(li, "partition", part,
                           agg={"c_min": "min", "c_max": "max"})
