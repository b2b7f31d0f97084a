"""Mergeable heavy-hitter sketches (Misra-Gries) with exact verification.

Public algorithms only: Misra & Gries, "Finding repeated elements"
(Sci. Comp. Prog. 1982); mergeability per Agarwal et al., "Mergeable
Summaries" (PODS 2012): two MG(k) summaries merge by summing counters
and re-compressing (subtract the (k+1)-th largest counter, drop
non-positive), with total undercount error <= N/(k+1).

The 100-TB shape: the corpus vocabulary never shuffles. Each batch
compresses its exact item counts to <= k counters (one streaming
map_batches pass); only those tiny (item, weight) partials cross a small
groupby; the driver compresses the merged counters once more to k and
holds O(k) — never O(vocabulary). Because MG has no false negatives
above the error bound, choosing k >= 2/phi guarantees every item with
true frequency >= phi*N is a candidate; a second streaming pass counts
ONLY the broadcast candidates exactly (vectorized isin) and filters on
the true threshold, so the final answer is EXACT heavy hitters,
sketch-guided. (The reference engine has no sketch analogue — this is
part of the training-data toolkit the brief adds on top; cf. the HLL
distinct counter in relational2.py.)
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import pandas as pd
import ray
import ray.data as rd

from .shuffle import broadcast_get, reduce_partials

# sentinel item carrying each batch's total item count through the same
# (item, n) partial stream in the verify pass; "\x00" sorts before any
# token and cannot appear in whitespace-split text
_TOTAL = "\x00__total__"


def mg_compress(counts: pd.Series, k: int) -> pd.Series:
    """Compress exact (item -> weight) counters to at most k Misra-Gries
    counters: subtract the (k+1)-th largest weight from every counter and
    drop the non-positive ones. Each surviving weight underestimates the
    input weight by at most that threshold."""
    if len(counts) <= k:
        return counts
    vals = np.partition(counts.to_numpy(), len(counts) - k - 1)
    thresh = vals[len(counts) - k - 1]          # (k+1)-th largest
    out = counts - thresh
    return out[out > 0]


def mg_heavy_hitters(ds: rd.Dataset,
                     extract: Callable[[pd.DataFrame], pd.Series],
                     phi: float, k: int | None = None,
                     item_col: str = "item",
                     count_col: str = "n_occ") -> pd.DataFrame:
    """Exact phi-heavy-hitters (items with true frequency >= phi * N)
    over ``extract``'s items, guided by a mergeable Misra-Gries sketch.

    ``extract`` maps a pandas batch to a Series of exact item counts for
    that batch (index = item). Three stages, two streaming passes:

    1. per-batch MG(k) partials (<= k rows each, k defaults to
       ceil(2/phi) so the sketch error N/(k+1) < phi*N/2);
    2. small groupby-sum of the partials + one driver-side re-compress
       -> candidate set, provably a superset of the true heavy hitters;
    3. exact counting pass restricted to the broadcast candidates, plus
       per-batch totals for N; filter true count >= phi * N.
    """
    from .shuffle import bucketed_group_apply

    k = int(k if k is not None else np.ceil(2.0 / phi))

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        comp = mg_compress(extract(df), k)
        return pd.DataFrame({"item": comp.index.astype(str),
                             "w": comp.to_numpy(np.int64)})

    parts = ds.map_batches(partial, batch_format="pandas")
    merged = bucketed_group_apply(
        parts, "item",
        lambda g: g.groupby("item", as_index=False)["w"].sum()).to_pandas()
    if not len(merged):
        return pd.DataFrame({item_col: pd.Series(dtype=str),
                             count_col: pd.Series(dtype=np.int64)})
    cand = mg_compress(merged.set_index("item")["w"], k)
    cand_ref = ray.put(frozenset(cand.index))

    def exact(df: pd.DataFrame) -> pd.DataFrame:
        vc = extract(df)
        total = int(vc.sum())
        # candidates were stringified in the sketch pass — probe the same
        # representation so non-string extracts (int keys) still match
        sub = vc[vc.index.astype(str).isin(broadcast_get(cand_ref))]
        return pd.DataFrame({
            "item": list(sub.index.astype(str)) + [_TOTAL],
            "n": np.concatenate([sub.to_numpy(np.int64),
                                 np.array([total], np.int64)])})

    counts = reduce_partials(ds, "item", exact)   # <= (k+1) rows per batch
    n_total = int(counts.loc[counts["item"] == _TOTAL, "n"].iloc[0])
    out = counts[(counts["item"] != _TOTAL)
                 & (counts["n"] >= phi * n_total)]
    out = (out.sort_values(["n", "item"], ascending=[False, True])
              .reset_index(drop=True))
    return out.rename(columns={"item": item_col, "n": count_col})


# ---------------------------------------------------------------------------
# mergeable quantile summary (deterministic Munro-Paterson / MRL collapse)
# ---------------------------------------------------------------------------

class QuantileSketch:
    """Deterministic mergeable quantile summary.

    Public algorithm family: Munro & Paterson (1980) / Manku,
    Rajagopalan & Lindsay (SIGMOD'98) collapsing buffers, in the lazy
    single-buffer-per-level form: level i holds a sorted array whose
    items each represent 2^i originals; when a level reaches 2k items it
    collapses — keep every other element (offset alternates per collapse,
    deterministically), push the k survivors to level i+1. No RNG, so a
    fixed stream in a fixed batch order always yields the same summary
    (the repo's determinism requirement; the classic analysis randomizes
    the offset, the alternating offset keeps the same per-collapse rank
    damage bound of 2^i per survivor gap).

    Size is O(k log(N/k)); rank error of quantile() is bounded by
    ~N * log2(N/k) / (2k) (asserted empirically in tests). merge() makes
    it a distributed aggregate: per-batch sketches reduce level-wise,
    the driver holds summaries, never values.
    """

    def __init__(self, k: int = 256):
        self.k = int(k)
        self.count = 0
        self.levels: list[np.ndarray] = []      # level i: sorted, weight 2^i
        self._flip: list[int] = []              # per-level alternating offset

    def add(self, values: np.ndarray) -> "QuantileSketch":
        v = np.asarray(values, dtype=np.float64)
        if len(v):
            self.count += len(v)
            self._insert(0, np.sort(v))
        return self

    def _insert(self, lvl: int, sorted_vals: np.ndarray) -> None:
        while len(self.levels) <= lvl:
            self.levels.append(np.empty(0))
            self._flip.append(0)
        merged = np.empty(len(self.levels[lvl]) + len(sorted_vals))
        np.concatenate([self.levels[lvl], sorted_vals], out=merged)
        merged.sort(kind="stable")    # two sorted runs: timsort is linear
        while len(merged) >= 2 * self.k:
            take, merged = merged[:2 * self.k], merged[2 * self.k:]
            off = self._flip[lvl]
            self._flip[lvl] ^= 1
            self._insert(lvl + 1, take[off::2])
        self.levels[lvl] = merged

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        assert other.k == self.k
        self.count += other.count
        for lvl, vals in enumerate(other.levels):
            if len(vals):
                self._insert(lvl, vals)
        return self

    def quantile(self, q: float) -> float:
        """Smallest stored value whose cumulative weight reaches
        ceil(q * N) (inverted-CDF estimator over the weighted summary)."""
        if self.count == 0:
            return float("nan")
        vals = np.concatenate([v for v in self.levels if len(v)])
        wts = np.concatenate(
            [np.full(len(v), 1 << i, dtype=np.int64)
             for i, v in enumerate(self.levels) if len(v)])
        order = np.argsort(vals, kind="stable")
        cum = np.cumsum(wts[order])
        target = max(1, int(np.ceil(q * cum[-1])))
        return float(vals[order][np.searchsorted(cum, target)])

    # ---- transport between workers and the driver ----

    def to_bytes(self) -> bytes:
        import pickle
        return pickle.dumps((self.k, self.count,
                             [v for v in self.levels], self._flip))

    @classmethod
    def from_bytes(cls, blob: bytes) -> "QuantileSketch":
        import pickle
        k, count, levels, flip = pickle.loads(blob)
        sk = cls(k)
        sk.count, sk.levels, sk._flip = count, list(levels), list(flip)
        return sk


def sketch_quantile_per_group(ds: rd.Dataset, key_col: str, value_col: str,
                              q: float, k: int = 256) -> pd.DataFrame:
    """Per-group approximate quantile as a MERGEABLE aggregate: each
    batch emits one (group, sketch-blob) row per group it saw — bounded
    size whatever the batch holds — and the driver merges summaries, so
    raw values never shuffle AND never reach the driver. This is the
    shape exact per-group quantiles (q_p95_per_type's whole-group
    buckets) cannot keep when a single group outgrows one machine."""
    def partial(df: pd.DataFrame) -> pd.DataFrame:
        rows = [(g, QuantileSketch(k).add(sub[value_col].to_numpy()).to_bytes())
                for g, sub in df.groupby(key_col)]
        return pd.DataFrame(rows, columns=[key_col, "sketch"])

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    out = []
    for g, sub in parts.groupby(key_col):
        sk = QuantileSketch.from_bytes(sub["sketch"].iloc[0])
        for blob in sub["sketch"].iloc[1:]:
            sk.merge(QuantileSketch.from_bytes(blob))
        out.append((g, sk.quantile(q), sk.count))
    return (pd.DataFrame(out, columns=[key_col, f"q{int(q*100)}", "n"])
            .sort_values(key_col).reset_index(drop=True))


class CountMin:
    """Count-Min sketch: a (depth x width) counter grid where every key
    increments one counter per row (seeded hash) — estimates are the MIN
    across rows, always >= the true count and <= true + eps*N with
    probability 1 - (1/2)^depth for width = 2/eps. Grids are plain int64
    matrices, so per-batch partials merge by elementwise ADDITION on any
    topology — the frequency-sketch complement to Misra-Gries (which
    keeps candidates exactly but forgets the tail entirely)."""

    SEEDS = (0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F,
             0x165667B19E3779F9, 0x27D4EB2F165667C5)

    def __init__(self, width: int = 2048, depth: int = 4):
        self.width = width
        self.depth = depth
        self.grid = np.zeros((depth, width), dtype=np.int64)

    def _rows(self, hashes: np.ndarray) -> np.ndarray:
        out = np.empty((self.depth, len(hashes)), dtype=np.int64)
        for d in range(self.depth):
            h = hashes * np.uint64(self.SEEDS[d])
            h ^= h >> np.uint64(29)
            out[d] = (h % np.uint64(self.width)).astype(np.int64)
        return out

    def add_hashes(self, hashes: np.ndarray, counts: np.ndarray) -> None:
        idx = self._rows(hashes.astype(np.uint64))
        for d in range(self.depth):
            np.add.at(self.grid[d], idx[d], counts)

    def merge(self, other: "CountMin") -> "CountMin":
        self.grid += other.grid
        return self

    def estimate_hashes(self, hashes: np.ndarray) -> np.ndarray:
        idx = self._rows(hashes.astype(np.uint64))
        return np.min(np.stack([self.grid[d][idx[d]]
                                for d in range(self.depth)]), axis=0)


def cm_sketch_counts(ds, col: str, probe_values: list,
                     width: int = 2048, depth: int = 4, hash_fn=None):
    """Distributed Count-Min build: one serialized grid per batch (a few
    KB), merged by elementwise sum on the driver; probes estimate the
    given values' frequencies. Deterministic — seeded hashes, additive
    merges. ``hash_fn`` defaults to the C-vectorized siphash
    (:func:`hash64`); the oracle-backed twin passes
    :func:`~..functions.hashing.md5_hash64` so DuckDB can restate the
    row derivation (wrap-multiply, xor-shift, mod width — all exact
    integer ops in both engines)."""
    import pandas as pd

    from ..pipelines.relational2 import hash64
    if hash_fn is None:
        hash_fn = hash64

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        cm = CountMin(width, depth)
        c = df[col].astype(str).value_counts()
        cm.add_hashes(hash_fn(c.index.to_numpy()),
                      c.to_numpy(np.int64))
        return pd.DataFrame({"grid": [cm.grid.tobytes()]})

    merged = CountMin(width, depth)
    for row in ds.map_batches(partial, batch_format="pandas").iter_rows():
        other = CountMin(width, depth)
        other.grid = np.frombuffer(row["grid"], dtype=np.int64) \
            .reshape(depth, width).copy()
        merged.merge(other)
    est = merged.estimate_hashes(
        hash_fn(np.array([str(v) for v in probe_values], dtype=object)))
    return pd.DataFrame({"value": [str(v) for v in probe_values],
                         "est_count": est.astype(np.int64)})
