"""Round-5 session-3 batch 3: debounce, Merkle partition tree, BFS hop
distribution, data-quality constraint audit.

- ``debounce_events``: telemetry de-noising — drop an event when the
  same user's previous RAW event (by (ts, event_id) order) is within
  the debounce window; report kept/dropped per event type. The
  LAG-against-raw-predecessor rule (not chained-against-last-kept) is
  the stated contract precisely because it is what both a SQL LAG and a
  vectorized shifted-diff can state identically.
- ``merkle_partition_tree``: the anti-entropy digest tree replicated
  stores compare to find diverging key ranges without shipping rows —
  64 leaves keyed by ``o_orderkey % 64``, each leaf the md5 of its
  rows' ordered md5 checksums, folded 4-ary up to the root. Two stores
  exchange 85 digests; a mismatch walks down to the one leaf (key
  range) that needs repair.
- ``bfs_hop_counts``: multi-source-free BFS over a deterministic graph
  derived from the customer key space (``u -> 2u mod N`` and
  ``u -> u+1 mod N``): per hop count of newly reached nodes, max 8
  hops. The oracle is a recursive CTE; the engine is the iterative
  frontier-join every distributed graph engine runs.
- ``dq_constraint_audit``: a deequ-style declarative data-quality pass
  — referential integrity, domain validity, range, uniqueness and
  cross-field consistency, each reported as (constraint, n_checked,
  n_violations). The domain check runs against the CDC-derived "new"
  snapshot (relational6.q_cdc_snapshot_diff's synth override), which
  plants real violations; the raw fixture audits clean, and a clean
  audit is exactly what the operator must be able to say.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd

from ..functions.hashing import md5_hex_prefix
from ..sources.tablecache import base_dataset
from ..stages.shuffle import (broadcast_get, bucketed_group_apply, group_cells,
                              reduce_partials)

DEBOUNCE_US = 4 * 3600 * 1_000_000     # 4-hour debounce window
MERKLE_LEAVES = 64                     # 4-ary tree: 64 -> 16 -> 4 -> 1
BFS_MAX_HOPS = 8


# ---------------------------------------------------------------------------
# Debounce


def q_debounce_events(sf_dir: str) -> pd.DataFrame:
    """Per event type, how many events survive a 4-hour per-user
    debounce (drop when the user's previous raw event is <= 4h back;
    int64-microsecond strict arithmetic, (ts, event_id) total order).

    100-TB shape: one user-hash bucket shuffle, the shift/diff closes
    in-bucket, each bucket emits per-type (kept, dropped) partials."""
    ev = base_dataset(sf_dir, "events",
                      columns=["user_id", "ts", "event_id", "event_type"])

    def debounce(g: pd.DataFrame) -> pd.DataFrame:
        d = g.sort_values(["user_id", "ts", "event_id"])
        t = d["ts"].astype("int64").to_numpy()
        u = d["user_id"].to_numpy(np.int64)
        keep = np.ones(len(d), dtype=bool)
        if len(d) > 1:
            keep[1:] = (u[1:] != u[:-1]) | (t[1:] - t[:-1] > DEBOUNCE_US)
        cells = pd.DataFrame({"event_type": d["event_type"].to_numpy(object),
                              "n_kept": keep.astype(np.int64),
                              "n_total": np.int64(1)})
        return group_cells(cells, "event_type")

    out = reduce_partials(bucketed_group_apply(ev, "user_id", debounce),
                          "event_type")
    out["n_dropped"] = out["n_total"] - out["n_kept"]
    return out[["event_type", "n_kept", "n_dropped"]]


# ---------------------------------------------------------------------------
# Merkle partition tree


def q_merkle_partition_tree(sf_dir: str) -> pd.DataFrame:
    """The 85-node digest tree over orders: leaf ``i`` (of 64, keyed by
    ``o_orderkey % 64``) is ``md5(concat of its rows' 16-hex md5 row
    checksums in o_orderkey order)``; each parent is the md5 of its <=4
    children's digests in index order; output every (level, idx,
    digest) with level 0 = leaves, 3 = root. Row checksum is the
    relational6 CDC contract string ``key|custkey|priority``.

    100-TB shape: the one shuffle is the leaf-id bucket hash; each leaf
    sorts and digests ONLY its own key range and emits one 16-hex cell,
    so the driver folds 64 -> 16 -> 4 -> 1 strings no matter the row
    count (a real deployment raises MERKLE_LEAVES so a leaf stays
    row-group-sized; the fold cost is leaves/3 hashes). Comparing two
    stores costs 85 digests + one subtree walk per diverging leaf."""
    orders = base_dataset(
        sf_dir, "orders",
        columns=["o_orderkey", "o_custkey", "o_orderpriority"])

    def leaf_digest(g: pd.DataFrame) -> pd.DataFrame:
        d = g.sort_values("o_orderkey")
        ck = md5_hex_prefix(
            [f"{a}|{b}|{c}" for a, b, c in
             zip(d["o_orderkey"].to_numpy(np.int64),
                 d["o_custkey"].to_numpy(np.int64),
                 d["o_orderpriority"].to_numpy(object))], 16)
        rows = []
        for leaf, grp in pd.DataFrame(
                {"leaf": d["o_orderkey"].to_numpy(np.int64) % MERKLE_LEAVES,
                 "ck": ck}).groupby("leaf", sort=True):
            digest = hashlib.md5(
                "".join(grp["ck"]).encode()).hexdigest()[:16]
            rows.append((int(leaf), digest))
        return pd.DataFrame(rows, columns=["idx", "digest"])

    ds = orders.map_batches(
        lambda df: df.assign(leaf=df["o_orderkey"] % MERKLE_LEAVES),
        batch_format="pandas")
    leaves = (bucketed_group_apply(ds, "leaf", leaf_digest)
              .to_pandas().sort_values("idx").reset_index(drop=True))
    levels = [leaves.assign(level=0)]
    cur = leaves
    lvl = 0
    while len(cur) > 1:
        lvl += 1
        parent = cur.assign(pidx=cur["idx"] // 4).groupby(
            "pidx", sort=True)["digest"].agg(
            lambda s: hashlib.md5("".join(s).encode()).hexdigest()[:16])
        cur = parent.rename_axis("idx").reset_index()
        levels.append(cur.assign(level=lvl))
    out = pd.concat(levels, ignore_index=True)[["level", "idx", "digest"]]
    return (out.astype({"level": "int64", "idx": "int64"})
               .sort_values(["level", "idx"]).reset_index(drop=True))


# ---------------------------------------------------------------------------
# BFS hop distribution


def q_bfs_hop_counts(sf_dir: str) -> pd.DataFrame:
    """BFS from node 0 over the deterministic doubling graph on the
    customer key space (nodes 0..N-1; edges ``u -> 2u mod N`` and
    ``u -> u+1 mod N``): per hop 0..8, how many nodes are FIRST reached
    at that hop.

    Engine shape: frontier-broadcast BFS — the standard compromise for
    sparse reachability. The edge table (derived on the fly from the
    key scan, materialized ONCE) is scanned each round with the current
    frontier as a broadcast numpy membership mask (`ray.put` once per
    round, read per batch); each batch emits only the distinct targets
    it reaches, and the driver keeps a visited BITMAP of N bits (a
    10^9-node graph is a 125 MB bitmap — driver-fine far past this
    fixture; beyond that, the per-bucket-visited variant of this loop
    keeps state partitioned, same round structure). 8 rounds x 1
    distributed scan, ZERO shuffles — an earlier Dataset-union variant
    (one bucketed join + anti-join per round) re-shuffled the visited
    set every hop and lost 30x wall to it. The oracle states identical
    reachability as a recursive CTE (path fan-out <= 2^hops rows before
    the MIN-per-node collapse)."""
    import ray

    cust = base_dataset(sf_dir, "customer", columns=["c_custkey"])
    n_nodes = cust.count()

    def edges_of(df: pd.DataFrame) -> pd.DataFrame:
        u = df["c_custkey"].to_numpy(np.int64)
        return pd.DataFrame({
            "u": np.concatenate([u, u]),
            "v": np.concatenate([(2 * u) % n_nodes, (u + 1) % n_nodes])})

    edges = cust.map_batches(edges_of, batch_format="pandas").materialize()

    visited = np.zeros(n_nodes, dtype=bool)
    visited[0] = True
    frontier = np.zeros(n_nodes, dtype=bool)
    frontier[0] = True
    rows = [(0, 1)]
    for hop in range(1, BFS_MAX_HOPS + 1):
        f_ref = ray.put(frontier)

        def reach(df: pd.DataFrame) -> pd.DataFrame:
            fmask = broadcast_get(f_ref)
            v = df["v"].to_numpy(np.int64)[
                fmask[df["u"].to_numpy(np.int64)]]
            return pd.DataFrame({"node": np.unique(v)})

        reached = (edges.map_batches(reach, batch_format="pandas")
                   .to_pandas()["node"].to_numpy(np.int64))
        new = np.zeros(n_nodes, dtype=bool)
        new[reached] = True
        new &= ~visited
        n_new = int(new.sum())
        if n_new == 0:
            break
        rows.append((hop, n_new))
        visited |= new
        frontier = new
    out = pd.DataFrame(rows, columns=["hop", "n_nodes"])
    return out.astype({"hop": "int64", "n_nodes": "int64"})


# ---------------------------------------------------------------------------
# Data-quality constraint audit


def q_dq_constraint_audit(sf_dir: str,
                          ref_gate_bytes: int | None = None
                          ) -> pd.DataFrame:
    """Declarative data-quality audit (the deequ shape): each constraint
    one row of (check_name, n_checked, n_violations), alphabetical.

    - ``orders_custkey_referential``: every o_custkey exists in
      customer (violations via the gated broadcast key-set probe).
    - ``orders_priority_domain_synth``: o_orderpriority of the
      CDC-derived NEW snapshot (relational6: '9-SYNTH' where
      key % 5 == 0, snapshot membership key % 4 != 2) within the
      'N-NAME' legal domain — the planted-violation branch.
    - ``lineitem_qty_range``: 1 <= l_quantity <= 50.
    - ``orders_orderkey_unique``: duplicate-key rows beyond the first
      (closed per key-hash bucket — keys never straddle buckets).
    - ``documents_nchars_consistent``: n_chars == LENGTH(text).

    100-TB shape: every check is a scan-side count partial except
    uniqueness (one bucket shuffle) and referential, which routes
    through the standing size gate (:func:`..stages.shuffle.
    attach_lookup`): a broadcast marker map below ~64 MB, ONE bucketed
    left-join above it — both emit identical null-fills, so the
    violation count is strategy-invariant (pinned by the forced-gate
    test)."""
    legal = {"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}

    from ..stages.shuffle import attach_lookup

    orders = base_dataset(
        sf_dir, "orders", columns=["o_orderkey", "o_custkey",
                                   "o_orderpriority"])

    cust = base_dataset(sf_dir, "customer", columns=["c_custkey"]) \
        .map_batches(lambda df: df.assign(_ref=np.int8(1)),
                     batch_format="pandas")
    marked = attach_lookup(
        orders.map_batches(lambda df: df[["o_custkey"]],
                           batch_format="pandas"),
        "o_custkey", cust, "c_custkey", ["_ref"],
        gate_bytes=ref_gate_bytes)

    def ref_partial(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "check_name": ["orders_custkey_referential"],
            "n_checked": [len(df)],
            "n_violations": [int(df["_ref"].isna().sum())]})

    def orders_checks(df: pd.DataFrame) -> pd.DataFrame:
        k = df["o_orderkey"].to_numpy(np.int64)
        new_mask = k % 4 != 2
        p_new = np.where(k % 5 == 0, "9-SYNTH",
                         df["o_orderpriority"].to_numpy(object))
        dom_bad = int((~pd.Series(p_new[new_mask]).isin(legal)).sum())
        return pd.DataFrame({
            "check_name": ["orders_priority_domain_synth"],
            "n_checked": [int(new_mask.sum())],
            "n_violations": [dom_bad]})

    def qty_checks(df: pd.DataFrame) -> pd.DataFrame:
        q = df["l_quantity"].to_numpy(np.float64)
        bad = int(((q < 1.0) | (q > 50.0)).sum())
        return pd.DataFrame({"check_name": ["lineitem_qty_range"],
                             "n_checked": [len(df)],
                             "n_violations": [bad]})

    def doc_checks(df: pd.DataFrame) -> pd.DataFrame:
        bad = int((df["n_chars"].to_numpy(np.int64)
                   != df["text"].str.len().to_numpy(np.int64)).sum())
        return pd.DataFrame({"check_name": ["documents_nchars_consistent"],
                             "n_checked": [len(df)],
                             "n_violations": [bad]})

    def uniq(g: pd.DataFrame) -> pd.DataFrame:
        vc = g["o_orderkey"].value_counts()
        return pd.DataFrame({
            "check_name": ["orders_orderkey_unique"],
            "n_checked": [int(vc.sum())],
            "n_violations": [int((vc - 1).sum())]})

    li = base_dataset(sf_dir, "lineitem", columns=["l_quantity"])
    docs = base_dataset(sf_dir, "documents", columns=["text", "n_chars"])

    parts = pd.concat([
        marked.map_batches(ref_partial, batch_format="pandas")
              .to_pandas(),
        orders.map_batches(orders_checks, batch_format="pandas")
              .to_pandas(),
        li.map_batches(qty_checks, batch_format="pandas").to_pandas(),
        docs.map_batches(doc_checks, batch_format="pandas").to_pandas(),
        bucketed_group_apply(orders, "o_orderkey", uniq).to_pandas(),
    ], ignore_index=True)
    out = parts.groupby("check_name", as_index=False).sum()
    return (out.astype({"n_checked": "int64", "n_violations": "int64"})
               .sort_values("check_name").reset_index(drop=True))
