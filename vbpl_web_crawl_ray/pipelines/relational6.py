"""Round-5 session-3 operator families: FastSS edit-distance join,
KMV distinct sketch, CDC snapshot diff.

Three operator shapes the surface did not yet have:

- ``edit_distance_pairs``: a scalable fuzzy self-join (Levenshtein <= 1)
  via FastSS deletion-neighborhood blocking — the classic alternative to
  the all-pairs similarity scan the reference's TVPL fuzzy lookup
  implies (``app/service/tvpl.py``-style ratio matching, re-expressed
  as candidate-generation + in-bucket verify so no O(n^2) comparison
  ever happens).
- ``kmv_distinct_md5``: the K-Minimum-Values / theta-sketch distinct
  estimator (Bar-Yossef et al.) on the shared md5-64 hash contract —
  the third sketch family (after HLL and Count-Min) under the external
  oracle gate, with the estimate closed in EXACT integer math
  (``(k-1) * 2^64 // h_k``) so both engines agree bitwise with zero
  float rounding anywhere.
- ``cdc_snapshot_diff``: keyed snapshot reconciliation (added / deleted
  / changed / unchanged) between two table versions using md5 row
  checksums — the change-data-capture audit every incremental-refresh
  store needs, shaped as one key-bucketed shuffle emitting only
  per-bucket change-type count partials.

Scale notes inline per operator; the shared theme matches the rest of
the repo: rows shuffle at most once, buckets emit bounded partials, and
the driver only ever merges frames whose size is independent of the
input row count (or bounded by |types| x k x n_batches for the sketch).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..functions.hashing import md5_hash64, md5_hex_prefix
from ..sources.tablecache import base_dataset
from ..stages.shuffle import bucketed_group_apply, group_cells, reduce_partials


# ---------------------------------------------------------------------------
# FastSS edit-distance join


def _lev_le1(a: str, b: str) -> bool:
    """Exact Levenshtein <= 1 for two distinct strings (the in-bucket
    verifier — candidates from the deletion-1 neighborhood are lev <= 2,
    so a cheap exact check closes the gap without a DP table):
    equal length  -> lev 1 iff Hamming distance 1 (an insert+delete pair
    costs 2, so substitution is the only distance-1 edit);
    length diff 1 -> lev 1 iff the longer equals the shorter with one
    char inserted (first-mismatch split)."""
    la, lb = len(a), len(b)
    if la == lb:
        return sum(1 for x, y in zip(a, b) if x != y) == 1
    if abs(la - lb) != 1:
        return False
    if la > lb:
        a, b, la = b, a, lb
    i = 0
    while i < la and a[i] == b[i]:
        i += 1
    return a[i:] == b[i + 1:]


def q_edit_distance_pairs(sf_dir: str) -> pd.DataFrame:
    """All unordered customer-name pairs with Levenshtein distance
    exactly 1, via FastSS deletion-neighborhood blocking (Bocek et al.,
    "Fast Similarity Search in Large Dictionaries").

    Candidate generation: every name of length L emits L+1 blocking
    keys — itself plus each single-char deletion. Two names at edit
    distance 1 necessarily share a key (substitution: delete the
    differing position from both; insertion: the shorter name IS one of
    the longer's deletions), so blocking loses nothing; sharing a key
    only bounds the distance by 2, so each candidate pair is verified
    with the exact :func:`_lev_le1` check in-bucket. A pair can meet
    under several keys (and keys hash to different buckets), so
    verified pairs pass through one final distinct — bounded by the
    OUTPUT size, not the corpus.

    100-TB shape: the variant explosion is O(rows x L) emitted from
    ``map_batches``; the one shuffle is the variant-key bucket hash;
    verify cost is sum of per-key-group squares (group size here is the
    number of names agreeing outside one char — tens, not thousands; a
    pathological hot variant would be salted via the ``bucketer`` hook
    like every other hot key in this repo). Nothing all-pairs, and the
    driver only sees verified pairs.
    """
    cust = base_dataset(sf_dir, "customer", columns=["c_name"])

    def variants(df: pd.DataFrame) -> pd.DataFrame:
        names = pd.unique(df["c_name"])
        vs, ns = [], []
        for name in names:
            # the deletion-0 key (the string itself) catches insertions
            vs.append(name)
            ns.append(name)
            for i in range(len(name)):
                vs.append(name[:i] + name[i + 1:])
                ns.append(name)
        return pd.DataFrame({"variant": vs, "name": ns}).drop_duplicates()

    def verify(g: pd.DataFrame) -> pd.DataFrame:
        out_a, out_b = [], []
        for _, grp in g.groupby("variant", sort=False):
            names = pd.unique(grp["name"])
            if len(names) < 2:
                continue
            names.sort()
            for i in range(len(names) - 1):
                for j in range(i + 1, len(names)):
                    if _lev_le1(names[i], names[j]):
                        out_a.append(names[i])
                        out_b.append(names[j])
        return pd.DataFrame({"name_a": out_a, "name_b": out_b})

    pairs = (bucketed_group_apply(
        cust.map_batches(variants, batch_format="pandas"),
        "variant", verify)
        .to_pandas()                      # verified pairs only (output-sized)
        .drop_duplicates()
        .sort_values(["name_a", "name_b"])
        .reset_index(drop=True))
    return pairs


# ---------------------------------------------------------------------------
# KMV distinct sketch


def q_kmv_distinct_md5(sf_dir: str, k: int = 16) -> pd.DataFrame:
    """K-Minimum-Values distinct-user estimate per event type on the
    md5-64 hash contract — the theta-sketch base case, and the third
    sketch family under the external oracle gate (HLL and Count-Min are
    the other two; ``stages/sketches.py`` holds the siphash throughput
    siblings).

    Estimator: with h_1 < ... < h_k the k smallest distinct hashes,
    ``est = (k-1) * 2^64 // h_k`` — EXACT integer arithmetic in both
    engines (Python bigint ``//`` vs DuckDB HUGEINT division, both
    truncating on positives), so unlike HLL's alpha/m^2 closing there is
    NO float anywhere. Types with fewer than k distinct users report
    the exact count (the sketch is lossless below k); the fixture
    exercises the under-k branch at sf0.001 and the estimator branch at
    sf0.01.

    Distributed shape: each batch hashes only its DISTINCT
    (type, user) rows and emits at most |types| x k partial rows — the
    union of per-batch k-minima contains the global k minima (the
    global k-th smallest ranks within k in any batch holding it), so
    the merge is dedupe + take-k over a driver frame bounded by
    |types| x k x n_batches, independent of the row count. The events
    table itself never gathers anywhere.
    """
    ev = base_dataset(sf_dir, "events", columns=["event_type", "user_id"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        d = df.drop_duplicates(["event_type", "user_id"])
        out = pd.DataFrame({
            "event_type": d["event_type"].to_numpy(),
            "h": md5_hash64(d["user_id"].astype(str).tolist())})
        return (out.sort_values("h")
                   .groupby("event_type", sort=False).head(k))

    parts = ev.map_batches(partial, batch_format="pandas").to_pandas()
    rows = []
    for t, g in parts.groupby("event_type", sort=True):
        hs = np.unique(g["h"].to_numpy(np.uint64))    # sorted distinct
        n = len(hs)
        kth = int(hs[min(n, k) - 1])
        est = ((k - 1) << 64) // kth if n >= k else n
        rows.append((t, kth, est))
    out = pd.DataFrame(rows, columns=["event_type", "kth_hash", "kmv_est"])
    return (out.astype({"kth_hash": "uint64", "kmv_est": "int64"})
               .reset_index(drop=True))


# ---------------------------------------------------------------------------
# CDC snapshot diff


def q_cdc_snapshot_diff(sf_dir: str) -> pd.DataFrame:
    """Change-data-capture reconciliation between two snapshots of the
    orders table: per change type (added / deleted / changed /
    unchanged), the row count and the key checksum-sum.

    The two snapshots derive deterministically from the one fixture
    table (no external data): v_old = keys with ``k % 4 != 1``,
    v_new = keys with ``k % 4 != 2``, and v_new overrides
    ``o_orderpriority`` to ``'9-SYNTH'`` where ``k % 5 == 0`` — so all
    four change classes are populated. Row identity is an md5-16hex
    checksum over the stated ``key|custkey|priority`` string (the
    shared row-hash contract, ``functions/hashing.md5_hex_prefix``) —
    integers and strings only, so no float-formatting divergence
    between engines can enter the checksum.

    100-TB shape: both sides explode from the SAME scan (one read, two
    tagged rows max per input row), the only shuffle is the key-hash
    bucket, and each bucket emits a <=4-row (change_type, n, key_sum)
    partial — the driver merges O(buckets) cells, never rows. This is
    the incremental-refresh audit shape: on a real store the two sides
    are two manifest versions read with column pruning, and the same
    bucket layout lets a resumed run skip finished key ranges.
    """
    orders = base_dataset(
        sf_dir, "orders",
        columns=["o_orderkey", "o_custkey", "o_orderpriority"])

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        key = df["o_orderkey"].to_numpy(np.int64)
        cust = df["o_custkey"].to_numpy(np.int64)
        p_old = df["o_orderpriority"].to_numpy(object)
        p_new = np.where(key % 5 == 0, "9-SYNTH", p_old)
        frames = []
        for side, mask, prio in ((0, key % 4 != 1, p_old),
                                 (1, key % 4 != 2, p_new)):
            ck = md5_hex_prefix(
                [f"{a}|{b}|{c}" for a, b, c in
                 zip(key[mask], cust[mask], prio[mask])], 16)
            frames.append(pd.DataFrame({
                "o_orderkey": key[mask], "side": side, "ck": ck}))
        return pd.concat(frames, ignore_index=True)

    def classify(g: pd.DataFrame) -> pd.DataFrame:
        w = g.pivot_table(index="o_orderkey", columns="side", values="ck",
                          aggfunc="first")
        old = w[0] if 0 in w.columns else pd.Series(index=w.index,
                                                    dtype=object)
        new = w[1] if 1 in w.columns else pd.Series(index=w.index,
                                                    dtype=object)
        ct = np.where(old.isna(), "added",
                      np.where(new.isna(), "deleted",
                               np.where(old == new, "unchanged",
                                        "changed")))
        cells = pd.DataFrame({"change_type": ct, "n_rows": np.int64(1),
                              "key_sum": w.index.to_numpy(np.int64)})
        return group_cells(cells, "change_type")

    return reduce_partials(bucketed_group_apply(
        orders.map_batches(explode, batch_format="pandas"),
        "o_orderkey", classify), "change_type")
