"""Round-5 session-3 batch 9: lag-1 autocorrelation, distribution
drift.

- ``daily_autocorr``: per event type, the lag-1 autocorrelation of the
  daily event-count series — the seasonality/burstiness screen a
  monitoring pipeline runs before alerting on volume. All five
  raw moments (n, Sx, Sy, Sxy, Sxx, Syy over consecutive-day pairs)
  close as EXACT integers; the Pearson r is one stated double
  expression ``num / sqrt(float(d1 * d2))`` — the d1*d2 product stays
  integer until a single correctly-rounded float conversion, so both
  engines compute the identical double.
- ``type_mix_drift``: L1 (total-variation x2) distance between the
  event-type mix of the first and second half of the time range —
  the data-drift audit between two periods. With N1/N2 the period
  totals, ``L1 = sum_i |c1_i*N2 - c2_i*N1| / (N1*N2)`` keeps the
  numerator an exact integer (common denominator instead of two float
  normalizations), so the only float op is the final stated division.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd

from ..sources.tablecache import base_dataset
from ..stages.shuffle import reduce_partials

SPLIT_TS = "2024-01-16"        # halves the fixture's ~30-day range


def q_daily_autocorr(sf_dir: str) -> pd.DataFrame:
    """Per event type: n_pairs and the exact-integer Pearson moments of
    (day t count, day t+1 count) over consecutive calendar days, plus
    lag1_r. Days with zero events contribute count 0 only if they sit
    between observed days — the series is the DENSE day range from the
    type's first to last active day (the stated contract; both engines
    generate the same range).

    100-TB shape: per-(type, day) counts close as scan partials
    (|types| x |days| cells); the dense-series moments close on the
    driver over that tiny frame — row count never matters."""
    ev = base_dataset(sf_dir, "events", columns=["event_type", "ts"])
    day_us = 86_400_000_000

    def part(df: pd.DataFrame) -> pd.DataFrame:
        day = (df["ts"].astype("int64").to_numpy() // day_us) \
            .astype(np.int64)
        return pd.DataFrame({"event_type": df["event_type"]
                             .to_numpy(object), "day": day,
                             "n": np.int64(1)})

    daily = reduce_partials(ev, ["event_type", "day"], part)
    rows = []
    for t, g in daily.groupby("event_type", sort=True):
        lo, hi = int(g["day"].min()), int(g["day"].max())
        dense = np.zeros(hi - lo + 1, dtype=np.int64)
        dense[g["day"].to_numpy(np.int64) - lo] = g["n"] \
            .to_numpy(np.int64)
        x, y = dense[:-1], dense[1:]
        n = len(x)
        sx, sy = int(x.sum()), int(y.sum())
        sxy = int((x * y).sum())
        sxx = int((x * x).sum())
        syy = int((y * y).sum())
        num = n * sxy - sx * sy
        d1 = n * sxx - sx * sx
        d2 = n * syy - sy * sy
        r = (float(num) / math.sqrt(float(d1 * d2))
             if d1 > 0 and d2 > 0 else 0.0)
        rows.append((t, n, num, d1, d2, r))
    out = pd.DataFrame(rows, columns=["event_type", "n_pairs",
                                      "cov_num", "var1_num", "var2_num",
                                      "lag1_r"])
    return out.astype({c: "int64" for c in
                       ("n_pairs", "cov_num", "var1_num", "var2_num")})


def q_type_mix_drift(sf_dir: str) -> pd.DataFrame:
    """One row: the L1 distance between the event-type mixes of the
    two halves of the time range (split at 2024-01-16), with the exact
    integer numerator ``sum_i |c1_i*N2 - c2_i*N1|`` and denominator
    N1*N2 — a drift of 0 means identical mixes, 2 means disjoint.

    100-TB shape: one scan emitting per-(type, half) count partials
    (2 x |types| cells); the L1 closes on the driver."""
    ev = base_dataset(sf_dir, "events", columns=["event_type", "ts"])
    split_us = pd.Timestamp(SPLIT_TS).value // 1000

    def part(df: pd.DataFrame) -> pd.DataFrame:
        half = (df["ts"].astype("int64").to_numpy()
                >= split_us).astype(np.int64)
        return pd.DataFrame({"event_type": df["event_type"]
                             .to_numpy(object), "half": half,
                             "n": np.int64(1)})

    c = reduce_partials(ev, ["event_type", "half"], part)
    w = c.pivot_table(index="event_type", columns="half", values="n",
                      aggfunc="sum").fillna(0).astype(np.int64)
    c1 = w[0] if 0 in w.columns else 0
    c2 = w[1] if 1 in w.columns else 0
    n1, n2 = int(c1.sum()), int(c2.sum())
    numer = int(np.abs(c1.to_numpy(object) * n2
                       - c2.to_numpy(object) * n1).sum())
    out = pd.DataFrame({
        "n_first": [n1], "n_second": [n2], "l1_numer": [numer],
        "l1_drift": [numer / (n1 * n2)]})
    return out.astype({"n_first": "int64", "n_second": "int64",
                       "l1_numer": "int64"})
