"""Round-5 session-3 batch 7: HDR-style log histogram, functional
dependency audit.

- ``value_log_histogram``: per event type, the power-of-two (HDR /
  telemetry-latency) histogram of value cents — bucket =
  ``floor(log2(cents))`` computed EXACTLY from the float64 exponent
  (``np.frexp``; no ``log2`` call whose rounding could misplace
  ``2^k - 1`` / ``2^k`` boundaries), with zero-cent values in the
  stated bucket -1. The oracle derives the same exponent as
  ``length(bin(cents)) - 1`` — integer bit math on both sides.
- ``fd_audit``: metanome-style functional-dependency profiling over
  stated candidates: does LHS determine RHS? Reports per candidate the
  LHS group count and how many groups witness >1 distinct RHS
  (violations). Candidates: ``n_nationkey -> n_regionkey`` (holds by
  schema), ``o_custkey -> o_orderpriority`` (violates: customers
  reorder at different priorities), and the planted
  ``o_orderkey % 100 -> o_orderpriority`` (violates by construction).
  The deequ-style uniqueness/referential checks live in
  relational8.q_dq_constraint_audit; this is the discovery-side
  profiling those constraints come from.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..sources.tablecache import base_dataset
from ..stages.shuffle import bucketed_group_apply, reduce_partials


def q_value_log_histogram(sf_dir: str) -> pd.DataFrame:
    """Per (event_type, log2 bucket): row count plus min/max cents —
    the HDR-histogram shape that gives telemetry percentile estimates
    with bounded relative error at any scale.

    100-TB shape: pure scan-side integer partials (|types| x ~15
    cells per batch), no shuffle."""
    ev = base_dataset(sf_dir, "events", columns=["event_type", "value"])

    def part(df: pd.DataFrame) -> pd.DataFrame:
        cents = np.round(df["value"].to_numpy(np.float64)
                         * 100).astype(np.int64)
        # exact floor(log2): float64 represents these ints exactly
        # (cents < 2^53), frexp returns the true exponent
        _, e = np.frexp(cents.astype(np.float64))
        bucket = np.where(cents > 0, e - 1, -1).astype(np.int64)
        return pd.DataFrame({"event_type": df["event_type"]
                             .to_numpy(object), "bucket": bucket,
                             "n_rows": np.int64(1), "c_min": cents,
                             "c_max": cents})

    return reduce_partials(ev, ["event_type", "bucket"], part,
                           agg={"c_min": "min", "c_max": "max"})


def q_fd_audit(sf_dir: str) -> pd.DataFrame:
    """Functional-dependency audit: per stated candidate, the count of
    LHS groups and of groups with more than one distinct RHS (0
    violating groups means the FD holds on this data).

    100-TB shape: each candidate is one LHS-hash bucket shuffle of a
    two-column projection; buckets emit (n_groups, n_violating)
    integer partials (LHS keys never straddle buckets, so per-group
    distinct counts close locally)."""

    def fd_counts(ds, lhs: str, rhs: str, name: str) -> tuple:
        def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
            nun = g.groupby(lhs)[rhs].nunique()
            return pd.DataFrame({"n_groups": [len(nun)],
                                 "n_violating": [int((nun > 1).sum())]})

        p = bucketed_group_apply(ds, lhs, per_bucket).to_pandas()
        return (name, int(p["n_groups"].sum()),
                int(p["n_violating"].sum()))

    nation = base_dataset(sf_dir, "nation",
                          columns=["n_nationkey", "n_regionkey"])
    orders = base_dataset(sf_dir, "orders",
                          columns=["o_orderkey", "o_custkey",
                                   "o_orderpriority"])
    keymod = orders.map_batches(
        lambda df: pd.DataFrame({
            "k100": df["o_orderkey"].to_numpy(np.int64) % 100,
            "o_orderpriority": df["o_orderpriority"]
            .to_numpy(object)}),
        batch_format="pandas")

    rows = [
        fd_counts(nation, "n_nationkey", "n_regionkey",
                  "nationkey_determines_regionkey"),
        fd_counts(orders, "o_custkey", "o_orderpriority",
                  "custkey_determines_priority"),
        fd_counts(keymod, "k100", "o_orderpriority",
                  "orderkey_mod100_determines_priority"),
    ]
    out = pd.DataFrame(rows, columns=["fd_name", "n_groups",
                                      "n_violating"])
    return (out.astype({"n_groups": "int64", "n_violating": "int64"})
            .sort_values("fd_name").reset_index(drop=True))
