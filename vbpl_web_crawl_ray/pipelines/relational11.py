"""Round-5 session-3 batch 6: Lorenz decile shares, session
co-occurrence lift.

- ``lorenz_decile_shares``: the Lorenz-curve companion to the Gini
  coefficient — users sorted ascending by activity, cut into ten
  equal-rank deciles, each reporting its user count, event count and
  event share. Ranks come from the same histogram-offset machinery as
  the RRF ranking (per-count histogram -> prefix-sum offsets ->
  in-bucket positions), so no global sort-and-collect; all counts
  integer, each share ONE stated double division.
- ``session_cooccurrence_lift``: market-basket association over
  30-minute sessions — for each unordered pair of event types that
  ever co-occur in a session, ``lift = (n_ab * S) / (n_a * n_b)``
  (S = total sessions, n_x = sessions containing x). Numerator and
  denominator close as exact integers; the lift is one double
  division. Session contract identical to relational7.session_paths
  (strict 30-min gaps, int64 microseconds).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..sources.tablecache import base_dataset
from ..stages.shuffle import bucketed_group_apply, group_cells, reduce_partials
from .relational7 import GAP_US


def q_lorenz_decile_shares(sf_dir: str) -> pd.DataFrame:
    """Per activity decile (0 = least active tenth of users by rank):
    n_users, n_events, and event_share = n_events / total. Rank is the
    1-based ROW_NUMBER over (count ASC, user_id ASC); decile =
    (rank-1)*10 // n_users — exact integer cuts, no quantile
    interpolation to disagree on.

    100-TB shape: per-user counts close in user-hash buckets; a
    count-histogram (bounded by distinct activity levels) gives the
    driver the rank offsets; deciles and their event sums then close
    in-bucket and emit <= 10-cell partials."""
    ev = base_dataset(sf_dir, "events", columns=["user_id"])

    def per_user(g: pd.DataFrame) -> pd.DataFrame:
        vc = g["user_id"].value_counts()
        return pd.DataFrame({"user_id": vc.index.to_numpy(np.int64),
                             "x": vc.to_numpy(np.int64)})

    users = bucketed_group_apply(ev, "user_id", per_user)

    hist = reduce_partials(users, "x", lambda df: pd.DataFrame(
        {"x": df["x"], "f": np.int64(1)}))
    xs = hist["x"].to_numpy(np.int64)
    fs = hist["f"].to_numpy(np.int64)
    n = int(fs.sum())
    offs = dict(zip(xs, np.concatenate([[0], np.cumsum(fs)[:-1]])))

    def deciles(g: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for x, grp in g.groupby("x", sort=False):
            ids = np.sort(grp["user_id"].to_numpy(np.int64))
            rank = offs[int(x)] + 1 + np.arange(len(ids), dtype=np.int64)
            dec = (rank - 1) * 10 // n
            rows.append(pd.DataFrame({"decile": dec, "n_users": 1,
                                      "n_events": int(x)}))
        return group_cells(pd.concat(rows, ignore_index=True), "decile")

    parts = reduce_partials(bucketed_group_apply(users, "x", deciles),
                            "decile")
    total = int(parts["n_events"].sum())
    parts["event_share"] = parts["n_events"].astype(np.float64) / total
    return parts


def q_session_cooccurrence_lift(sf_dir: str) -> pd.DataFrame:
    """For each unordered pair of DISTINCT event types co-occurring in
    at least one 30-minute session: the co-session count and
    ``lift = (n_ab * S) / (n_a * n_b)`` — >1 means the types cluster in
    sessions beyond what their base rates predict (the association
    signal market-basket analysis exists for).

    100-TB shape: one user-hash bucket shuffle; sessions close
    in-bucket (a user's events never straddle buckets); each bucket
    emits (pair, n) and (type, n) count partials plus its session
    count — all bounded by |types|^2, independent of rows."""
    ev = base_dataset(sf_dir, "events",
                      columns=["user_id", "ts", "event_id", "event_type"])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        d = g.sort_values(["user_id", "ts", "event_id"])
        t = d["ts"].astype("int64").to_numpy()
        u = d["user_id"].to_numpy(np.int64)
        new = np.ones(len(d), dtype=bool)
        if len(d) > 1:
            new[1:] = (u[1:] != u[:-1]) | (t[1:] - t[:-1] > GAP_US)
        st = pd.DataFrame({"sid": np.cumsum(new),
                           "e": d["event_type"].to_numpy(object)}) \
            .drop_duplicates()
        singles = pd.DataFrame({"kind": "t", "key": st["e"],
                                "n": np.int64(1)})
        pairs = st.merge(st, on="sid")
        pairs = pairs[pairs["e_x"] < pairs["e_y"]]
        pc = pd.DataFrame({"kind": "p",
                           "key": pairs["e_x"] + "|" + pairs["e_y"],
                           "n": np.int64(1)})
        total = pd.DataFrame({"kind": ["s"], "key": ["_sessions"],
                              "n": [int(new.sum())]})
        cells = pd.concat([singles, pc, total], ignore_index=True)
        return group_cells(cells, ["kind", "key"])

    parts = reduce_partials(bucketed_group_apply(ev, "user_id", per_bucket),
                            ["kind", "key"])
    s_total = int(parts.loc[parts["kind"] == "s", "n"].sum())
    singles = dict(zip(parts.loc[parts["kind"] == "t", "key"],
                       parts.loc[parts["kind"] == "t", "n"]))
    p = parts[parts["kind"] == "p"].copy()
    ab = p["key"].str.split("|", expand=True)
    p["type_a"], p["type_b"] = ab[0], ab[1]
    n_ab = p["n"].to_numpy(np.int64)
    n_a = np.array([singles[a] for a in p["type_a"]], dtype=np.int64)
    n_b = np.array([singles[b] for b in p["type_b"]], dtype=np.int64)
    out = pd.DataFrame({
        "type_a": p["type_a"].to_numpy(object),
        "type_b": p["type_b"].to_numpy(object),
        "n_co": n_ab, "n_a": n_a, "n_b": n_b,
        "lift": (n_ab * s_total).astype(np.float64) / (n_a * n_b)})
    return out.sort_values(["type_a", "type_b"]).reset_index(drop=True)
