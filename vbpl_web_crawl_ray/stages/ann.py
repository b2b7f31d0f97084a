"""Approximate-nearest-neighbor search over an embedding column.

Baseline: exact brute-force cosine top-k — one numpy matmul per batch
against a broadcast query vector (zero-copy Arrow list<float> -> numpy).
Scale paths: random-hyperplane LSH (Charikar'02) and IVF-Flat (Jégou et
al.) — both with DISTRIBUTED index builds:

- k-means runs as broadcast-centroids map_batches passes emitting tiny
  per-batch partial sums (n_cells x dim) that reduce on the driver —
  the corpus never leaves the object store;
- IVF posting lists are written as a cell-partitioned parquet directory,
  so a query is a TARGETED read of its ``nprobe`` cells, not a scan;
- LSH candidate verification and the near-dup verify are hash joins of
  the embedding blobs onto the candidate pairs (no full-matrix broadcast).

Recall is measured against the exact baseline in tests.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import ray
import ray.data as rd

from ..functions.numeric import blob_matrix, round_half_away
from ..sources.tablecache import base_dataset
from .shuffle import broadcast_get


def _normalize(mat: np.ndarray) -> np.ndarray:
    return mat / np.linalg.norm(mat, axis=1, keepdims=True)


def _emb_blob_ds(sf_dir: str) -> rd.Dataset:
    """(vec_id, emb) with the embedding as a unit-normalized float64 blob —
    binary transports through Arrow joins, list<float> does not (Acero
    rejects list-typed non-key join fields)."""
    ds = base_dataset(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def blob(df: pd.DataFrame) -> pd.DataFrame:
        m = _normalize(np.stack(df["embedding"].to_numpy()).astype(np.float64))
        return pd.DataFrame({"vec_id": df["vec_id"].to_numpy(),
                             "emb": [r.tobytes() for r in m]})

    return ds.map_batches(blob, batch_format="pandas")


def _query_vec(sf_dir: str, vec_id: int) -> np.ndarray:
    """Point lookup of one embedding — predicate pushdown prunes the read
    to the matching row group (S9 point-lookup pattern)."""
    t = pq.read_table(f"{sf_dir}/embeddings.parquet",
                      columns=["vec_id", "embedding"],
                      filters=[("vec_id", "==", vec_id)])
    v = np.asarray(t["embedding"][0].as_py(), dtype=np.float64)
    return v / np.linalg.norm(v)


def brute_force_topk(sf_dir: str, query_vec_id: int = 0, k: int = 10) -> pd.DataFrame:
    """Exact top-k by cosine vs one stored query vector.

    The corpus streams through map_batches; each batch computes its local
    scores against the broadcast query then its local top-k; the driver
    merges the tiny per-batch top-k results (tournament reduction) — no
    full-corpus materialization.
    """
    q = _query_vec(sf_dir, query_vec_id)
    qref = ray.put(q)

    ds = base_dataset(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def local_topk(df: pd.DataFrame) -> pd.DataFrame:
        qv = broadcast_get(qref)
        mat = _normalize(np.stack(df["embedding"].to_numpy()).astype(np.float64))
        sims = mat @ qv
        ids = df["vec_id"].to_numpy()
        mask = ids != query_vec_id
        sims, ids = sims[mask], ids[mask]
        idx = np.argsort(-round_half_away(sims, 4), kind="stable")[:k]
        return pd.DataFrame({"vec_id": ids[idx].astype(np.int64),
                             "cos_sim": round_half_away(sims[idx], 4)})

    merged = ds.map_batches(local_topk, batch_format="pandas").to_pandas()
    return (merged.sort_values(["cos_sim", "vec_id"], ascending=[False, True])
                  .head(k).reset_index(drop=True))


def fixedpoint_topk(sf_dir: str, query_vec_id: int = 0, k: int = 10,
                    scale: int = 1 << 20) -> pd.DataFrame:
    """Exact top-k by FIXED-POINT dot product — the ANN family's
    oracle-backed twin.

    Every float32 component quantizes as ``floor(float64(x) * scale)``
    into int64 — one IEEE float64 multiply + floor, identical in numpy
    and DuckDB (FLOOR, unlike ROUND, has no half-tie convention to
    disagree on) — so scores are exact integer dot products and the
    (dot_fx DESC, vec_id ASC) total order leaves no last-ulp tie
    ambiguity for the LIMIT to cut differently. Same streaming shape as
    :func:`brute_force_topk`: per-batch local top-k against the ray.put
    query vector, driver merges only the tiny per-batch winners.
    """
    t = pq.read_table(f"{sf_dir}/embeddings.parquet",
                      columns=["vec_id", "embedding"],
                      filters=[("vec_id", "==", query_vec_id)])
    fscale = float(scale)
    q = np.floor(np.asarray(t["embedding"][0].as_py(), dtype=np.float64)
                 * fscale).astype(np.int64)
    qref = ray.put(q)

    ds = base_dataset(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def local_topk(df: pd.DataFrame) -> pd.DataFrame:
        qv = broadcast_get(qref)
        mat = np.floor(np.stack(df["embedding"].to_numpy())
                       .astype(np.float64) * fscale).astype(np.int64)
        ids = df["vec_id"].to_numpy().astype(np.int64)
        mask = ids != query_vec_id
        dots, ids = mat[mask] @ qv, ids[mask]
        idx = np.lexsort((ids, -dots))[:k]
        return pd.DataFrame({"vec_id": ids[idx], "dot_fx": dots[idx]})

    merged = ds.map_batches(local_topk, batch_format="pandas").to_pandas()
    return (merged.sort_values(["dot_fx", "vec_id"], ascending=[False, True])
                  .head(k).reset_index(drop=True))


# ---------------------------------------------------------------------------
# distributed k-means + IVF
# ---------------------------------------------------------------------------

def _distributed_kmeans(embds: rd.Dataset, dim: int, n_cells: int,
                        iters: int, seed: int) -> np.ndarray:
    """Lloyd iterations with the corpus distributed: centroids broadcast
    per pass, each batch emits (cell, partial_sum, count) rows — n_cells
    rows per batch — and the driver reduces only those tiny partials."""
    n = embds.count()
    n_cells = min(n_cells, n)
    rng = np.random.default_rng(seed)
    # deterministic init: sample vec_ids (the driver tables key 0..n-1)
    init_order = rng.choice(n, size=n_cells, replace=False).tolist()
    init_set = set(init_order)
    init_rows = (embds.map_batches(
        lambda df: df[df["vec_id"].isin(init_set)], batch_format="pandas")
        .to_pandas())          # n_cells rows — control data
    by_id = dict(zip(init_rows["vec_id"], init_rows["emb"]))
    cents = np.stack([np.frombuffer(by_id[i], dtype=np.float64)
                      for i in init_order])

    for _ in range(iters):
        cref = ray.put(cents)

        def partials(df: pd.DataFrame) -> pd.DataFrame:
            c = broadcast_get(cref)
            m = blob_matrix(df["emb"], np.float64)
            a = np.argmax(m @ c.T, axis=1)
            sums = np.zeros((len(c), m.shape[1]))
            np.add.at(sums, a, m)
            counts = np.bincount(a, minlength=len(c))
            return pd.DataFrame({
                "cell": np.arange(len(c), dtype=np.int64),
                "psum": [row.tobytes() for row in sums],
                "cnt": counts.astype(np.int64)})

        parts = embds.map_batches(partials, batch_format="pandas").to_pandas()
        new = cents.copy()
        for cell, sub in parts.groupby("cell"):
            cnt = int(sub["cnt"].sum())
            if cnt:
                s = np.sum([np.frombuffer(b, dtype=np.float64)
                            for b in sub["psum"]], axis=0)
                m = s / cnt
                new[cell] = m / np.linalg.norm(m)
        shift = float(np.abs(new - cents).max())
        cents = new
        if shift < 1e-9:       # converged: assignments can no longer change
            break
    return cents


def _sample_kmeans(embds: rd.Dataset, dim: int, n_cells: int,
                   iters: int, seed: int,
                   sample_cap: int | None = None) -> np.ndarray:
    """Train centroids on a BOUNDED deterministic sample, locally.

    The faiss-style build: k-means quality needs only a few hundred
    training points per cell, so the training set is a fixed-size
    modulus sample of the corpus (size <= ~cap regardless of corpus
    size — the driver holds O(cap x dim), never O(corpus)). Lloyd
    iterations then run in-process on that tiny matrix instead of
    paying a full distributed pass per iteration; the corpus itself is
    only streamed once, by the assignment pass in build_ivf_index.
    Deterministic: modulus sampling + seeded init, no RNG state shared
    across workers."""
    cap = sample_cap or max(256 * n_cells, 2048)
    n = embds.count()
    m = max(1, n // cap)
    sample = (embds.map_batches(
        lambda df: df[df["vec_id"].to_numpy() % m == 0],
        batch_format="pandas").to_pandas())
    x = blob_matrix(sample["emb"], np.float64)
    n_cells = min(n_cells, len(x))
    rng = np.random.default_rng(seed)
    # k-means++ seeding (Arthur & Vassilvitskii, SODA'07): local training
    # makes the better init and extra Lloyd rounds essentially free
    cents = np.empty((n_cells, x.shape[1]))
    cents[0] = x[rng.integers(len(x))]
    d2 = np.full(len(x), np.inf)
    for i in range(1, n_cells):
        d2 = np.minimum(d2, np.sum((x - cents[i - 1]) ** 2, axis=1))
        p = d2 / d2.sum() if d2.sum() > 0 else None
        cents[i] = x[rng.choice(len(x), p=p)]
    for _ in range(iters):
        a = np.argmax(x @ cents.T, axis=1)
        sums = np.zeros_like(cents)
        np.add.at(sums, a, x)
        counts = np.bincount(a, minlength=n_cells)
        new = cents.copy()
        nz = counts > 0
        new[nz] = sums[nz] / counts[nz, None]
        norms = np.linalg.norm(new, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        new = new / norms
        shift = float(np.abs(new - cents).max())
        cents = new
        if shift < 1e-9:
            break
    return cents


# An IVF index is a build-once artifact (the expensive k-means + posting
# layout); queries reuse it. Keyed by every build parameter, so a changed
# config rebuilds — same memo rationale as the sim-crawl config cache.
_IVF_CACHE: dict[tuple, tuple[np.ndarray, str]] = {}


def build_ivf_index(sf_dir: str, out_dir: str | None = None,
                    n_cells: int = 16, iters: int = 25,
                    seed: int = 5, train: str = "sample") -> tuple[np.ndarray, str]:
    """Distributed IVF build: k-means (``train="sample"``: local Lloyd on
    a bounded modulus sample, one corpus stream total; ``train="full"``:
    broadcast-centroid partial-sum passes over the whole corpus), then
    the assignment pass writes posting lists as a cell-partitioned
    parquet directory. Returns (centroids, posting_dir): a query reads
    ONLY its probed cells' partitions. The default ``iters=25`` prices
    Lloyd rounds for the sample path, where they are in-process and
    nearly free; ``train="full"`` pays a distributed pass per round, so
    callers choosing it should lower ``iters``."""
    key = (os.path.abspath(sf_dir), n_cells, iters, seed, train)
    if out_dir is None:
        hit = _IVF_CACHE.get(key)
        if hit is not None and os.path.isdir(hit[1]):
            return hit
    embds = _emb_blob_ds(sf_dir).materialize()
    dim = len(np.frombuffer(embds.take(1)[0]["emb"], dtype=np.float64))
    kmeans = _sample_kmeans if train == "sample" else _distributed_kmeans
    cents = kmeans(embds, dim, n_cells, iters, seed)
    cref = ray.put(cents)

    def assign(df: pd.DataFrame) -> pd.DataFrame:
        c = broadcast_get(cref)
        m = blob_matrix(df["emb"], np.float64)
        return df.assign(cell=np.argmax(m @ c.T, axis=1).astype(np.int64))

    cache = out_dir is None
    out_dir = out_dir or tempfile.mkdtemp(prefix="ivf_index_")
    (embds.map_batches(assign, batch_format="pandas")
          .write_parquet(out_dir, partition_cols=["cell"]))
    if cache:
        _IVF_CACHE[key] = (cents, out_dir)
    return cents, out_dir


def ivf_query(cents: np.ndarray, posting_dir: str, q: np.ndarray,
              k: int = 10, nprobe: int = 4) -> pd.DataFrame:
    """Targeted read of the ``nprobe`` best cells' posting-list partitions,
    local top-k per batch, tiny driver merge."""
    q = q / np.linalg.norm(q)
    order = np.argsort(-(cents @ q))[:nprobe]
    import glob
    dirs = [os.path.join(posting_dir, f"cell={c}") for c in order
            if os.path.isdir(os.path.join(posting_dir, f"cell={c}"))]
    files = [f for d in dirs
             for f in sorted(glob.glob(os.path.join(d, "*.parquet")))]
    if not files:
        return pd.DataFrame({"vec_id": pd.Series(dtype=np.int64),
                             "cos_sim": pd.Series(dtype=np.float64)})
    qref = ray.put(q)

    def local_topk(df: pd.DataFrame) -> pd.DataFrame:
        qv = broadcast_get(qref)
        m = blob_matrix(df["emb"], np.float64)
        sims = m @ qv
        idx = np.argsort(-sims, kind="stable")[:k]
        return pd.DataFrame({"vec_id": df["vec_id"].to_numpy()[idx].astype(np.int64),
                             "cos_sim": round_half_away(sims[idx], 4)})

    merged = (rd.read_parquet(files, columns=["vec_id", "emb"])
                .map_batches(local_topk, batch_format="pandas").to_pandas())
    return (merged.sort_values(["cos_sim", "vec_id"], ascending=[False, True])
                  .reset_index(drop=True))


def ivf_topk(sf_dir: str, query_vec_id: int = 0, k: int = 10,
             nprobe: int = 4, n_cells: int = 16, iters: int = 25,
             seed: int = 5) -> pd.DataFrame:
    """ANN top-k via the distributed IVF index (build + one query)."""
    cents, posting_dir = build_ivf_index(sf_dir, n_cells=n_cells,
                                         iters=iters, seed=seed)
    q = _query_vec(sf_dir, query_vec_id)
    out = ivf_query(cents, posting_dir, q, k=k + 1, nprobe=nprobe)
    return (out[out["vec_id"] != query_vec_id].head(k)
            .reset_index(drop=True))


# ---------------------------------------------------------------------------
# random-hyperplane LSH
# ---------------------------------------------------------------------------

def _codes(vecs: np.ndarray, planes_t: np.ndarray) -> np.ndarray:
    bits = (vecs @ planes_t.T) > 0
    return (bits @ (1 << np.arange(bits.shape[1]))).astype(np.int64)


def lsh_topk(sf_dir: str, query_vec_id: int = 0, k: int = 10,
             n_planes: int = 6, n_tables: int = 8,
             seed: int = 11) -> pd.DataFrame:
    """ANN top-k via hyperplane LSH with a distributed probe: hyperplanes
    are seed-derived (no data needed), each batch keeps only rows whose
    code matches the query's code in ANY table, scores those candidates
    and emits its local top-k. At cluster scale the signature pass is the
    index build (bucket-partitioned layout, as the IVF path demonstrates);
    probing touches ~corpus/2^n_planes x n_tables rows."""
    embds = _emb_blob_ds(sf_dir)
    q = _query_vec(sf_dir, query_vec_id)
    dim = len(q)
    rng = np.random.default_rng(seed)
    planes = rng.standard_normal((n_tables, n_planes, dim))
    qcodes = np.array([_codes(q[None, :], planes[t])[0]
                       for t in range(n_tables)])
    pref = ray.put((planes, qcodes, q))

    def probe(df: pd.DataFrame) -> pd.DataFrame:
        planes_, qcodes_, qv = broadcast_get(pref)
        m = blob_matrix(df["emb"], np.float64)
        match = np.zeros(len(m), dtype=bool)
        for t in range(len(planes_)):
            match |= _codes(m, planes_[t]) == qcodes_[t]
        if not match.any():
            return pd.DataFrame({"vec_id": pd.Series(dtype=np.int64),
                                 "cos_sim": pd.Series(dtype=np.float64)})
        sims = m[match] @ qv
        ids = df["vec_id"].to_numpy()[match]
        idx = np.argsort(-sims, kind="stable")[:k + 1]
        return pd.DataFrame({"vec_id": ids[idx].astype(np.int64),
                             "cos_sim": round_half_away(sims[idx], 4)})

    merged = embds.map_batches(probe, batch_format="pandas").to_pandas()
    merged = (merged.sort_values(["cos_sim", "vec_id"],
                                 ascending=[False, True])
                    .reset_index(drop=True))
    return (merged[merged["vec_id"] != query_vec_id].head(k)
            .reset_index(drop=True))


def lsh_near_dup_pairs(embds: rd.Dataset, threshold: float,
                       n_planes: int = 4, n_tables: int = 10,
                       seed: int = 13, id_col: str = "vec_id",
                       with_sim: bool = False,
                       chunk_rows: int = 1024) -> pd.DataFrame:
    """Cosine near-dup pairs over ANY (id, emb-blob) dataset:
    random-hyperplane signatures → (table, bucket) shuffle WITH the
    blobs riding along → exact pairwise cosine verify INSIDE each
    bucket, emitting only the pairs that pass.

    The data that crosses the shuffle is O(n_rows × n_tables × dim) —
    each vector ships once per table — never O(candidate_pairs × dim):
    when the corpus is self-similar (every doc near every other, the
    worst case for hyperplane buckets) candidate pairs explode
    quadratically while this shuffle volume stays fixed, and the
    explosion is absorbed as vectorized matmul FLOPs in-bucket instead
    of blob movement (measured at sf0.1: 13.4M candidates = ~4 GB of
    pair-attach traffic under the old pair-halves verify vs ~30 MB of
    signature rows here; identical output). Per-bucket work is
    O(|bucket|² · dim) — the plane count is the knob that bounds bucket
    sizes. The verify is chunked (``chunk_rows`` × |bucket| similarity
    slabs) so bucket size bounds memory only linearly. The full matrix
    is never built anywhere, driver included — the driver sees passing
    pairs only. ``with_sim`` adds a ``cos_sim`` column (rounded
    half-away, 4 dp) and applies the threshold to the ROUNDED value
    (oracle-comparable semantics)."""
    from .dedup import _EMPTY_PAIRS
    from .shuffle import bucketed_group_apply

    embds = embds.materialize()
    dim = len(np.frombuffer(embds.take(1)[0]["emb"], dtype=np.float64))
    rng = np.random.default_rng(seed)
    planes = rng.standard_normal((n_tables, n_planes, dim))
    planes_ref = ray.put(planes)

    def empty() -> pd.DataFrame:
        cols = dict(_EMPTY_PAIRS)
        if with_sim:
            cols["cos_sim"] = pd.Series(dtype=np.float64)
        return pd.DataFrame(cols)

    def signatures(df: pd.DataFrame) -> pd.DataFrame:
        planes_ = broadcast_get(planes_ref)
        v = blob_matrix(df["emb"], np.float64)
        out_key, out_id, out_emb = [], [], []
        for t in range(len(planes_)):
            codes = _codes(v, planes_[t])
            out_key.append(t * (1 << n_planes) + codes)
            out_id.append(df[id_col].to_numpy())
            out_emb.append(df["emb"].to_numpy())
        return pd.DataFrame({"bucket_key": np.concatenate(out_key),
                             id_col: np.concatenate(out_id),
                             "emb": np.concatenate(out_emb)})

    sigs = embds.map_batches(signatures, batch_format="pandas")

    def verify_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        out_a, out_b, out_s = [], [], []
        for _, sub in g.groupby("bucket_key"):
            sub = sub.drop_duplicates(id_col)   # each id once per bucket:
            n = len(sub)                        # duplicate-id input must
            if n < 2:                           # not create self-pairs
                continue
            ids = sub[id_col].to_numpy()
            order = np.argsort(ids)
            ids = ids[order]
            m = blob_matrix(sub["emb"], np.float64)[order]
            col = np.arange(n)[None, :]
            for i0 in range(0, n, chunk_rows):
                i1 = min(i0 + chunk_rows, n)
                sims = m[i0:i1] @ m.T
                r = round_half_away(sims, 4) if with_sim else sims
                keep = (r >= threshold) & (col > np.arange(i0, i1)[:, None])
                ai, bj = np.nonzero(keep)
                out_a.append(ids[ai + i0])
                out_b.append(ids[bj])
                if with_sim:
                    out_s.append(r[ai, bj])
        if not out_a:
            return empty()
        out = pd.DataFrame({"id_a": np.concatenate(out_a).astype(np.int64),
                            "id_b": np.concatenate(out_b).astype(np.int64)})
        if with_sim:
            out["cos_sim"] = np.concatenate(out_s)
        return out

    hits = bucketed_group_apply(sigs, "bucket_key", verify_in_bucket).to_pandas()
    if not len(hits):
        return empty()
    # a pair passing in several tables appears once per table; keep the
    # max cos deterministically (same floats up to dgemm blocking ulps)
    sort_cols = ["id_a", "id_b"] + (["cos_sim"] if with_sim else [])
    hits = (hits.sort_values(sort_cols)
                .drop_duplicates(["id_a", "id_b"], keep="last"))
    return hits.sort_values(["id_a", "id_b"]).reset_index(drop=True)


def embedding_near_dup_lsh(sf_dir: str, threshold: float = 0.45,
                           n_planes: int = 4, n_tables: int = 10,
                           seed: int = 13) -> pd.DataFrame:
    """Scale path for cosine near-dup pairs over the embeddings table.
    Recall vs the exact baseline is asserted in tests — LSH trades a
    bounded miss rate for candidate-set sparsity."""
    return lsh_near_dup_pairs(_emb_blob_ds(sf_dir), threshold,
                              n_planes=n_planes, n_tables=n_tables,
                              seed=seed, id_col="vec_id")


def multi_query_topk(sf_dir: str, query_vec_ids: tuple[int, ...] = (0, 1, 2, 3),
                     k: int = 5) -> pd.DataFrame:
    """Batched exact ANN: top-k for a SET of queries in one corpus pass.

    The query matrix broadcasts once via ray.put; each batch computes one
    (batch x dim) @ (dim x Q) matmul and emits its local per-query top-k,
    so the corpus streams exactly once however many queries ride along —
    the amortization that makes brute-force the right baseline for
    moderate Q at any corpus size. Driver merge is O(Q x k x batches).
    """
    t = pq.read_table(f"{sf_dir}/embeddings.parquet",
                      columns=["vec_id", "embedding"],
                      filters=[("vec_id", "in", list(query_vec_ids))])
    order = {v: i for i, v in enumerate(t["vec_id"].to_pylist())}
    qm = _normalize(np.stack(t["embedding"].to_pylist()).astype(np.float64))
    qids = np.array(t["vec_id"].to_pylist(), dtype=np.int64)
    qref = ray.put((qids, qm))

    ds = base_dataset(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def local_topk(df: pd.DataFrame) -> pd.DataFrame:
        qids_, qm_ = broadcast_get(qref)
        mat = _normalize(np.stack(df["embedding"].to_numpy()).astype(np.float64))
        sims = round_half_away(mat @ qm_.T, 4)          # n x Q
        ids = df["vec_id"].to_numpy()
        out = []
        for j, qid in enumerate(qids_):
            mask = ids != qid
            s, i = sims[mask, j], ids[mask]
            idx = np.lexsort((i, -s))[:k]
            out.append(pd.DataFrame({
                "query_id": np.full(len(idx), qid, dtype=np.int64),
                "vec_id": i[idx].astype(np.int64),
                "cos_sim": s[idx]}))
        return pd.concat(out, ignore_index=True)

    merged = ds.map_batches(local_topk, batch_format="pandas").to_pandas()
    return (merged.sort_values(["query_id", "cos_sim", "vec_id"],
                               ascending=[True, False, True],
                               kind="mergesort")
                  .groupby("query_id", as_index=False).head(k)
                  .reset_index(drop=True))


def projected_topk(sf_dir: str, query_vec_id: int = 0, k: int = 10,
                   out_dim: int = 48, candidates: int = 256) -> pd.DataFrame:
    """Two-stage retrieval through a JL-REDUCED space — the standard
    coarse-to-fine ANN pipeline: (1) project the corpus 64->out_dim with
    the deterministic seeded matrix (embed.ProjectEmbeddings — the
    pre-index dimensionality-reduction stage) and stream a cheap
    top-``candidates`` scan at half the FLOPs/bytes; (2) EXACT-rescore
    only those candidates in the full dimension, so the final ranking
    uses true cosines and the reduced space only has to put the real
    top-k somewhere in its top-100 (the JL guarantee that survives weak
    neighbor separation; raw reduced-space top-k does not — measured
    recall 2/10 at out_dim 32 vs 10/10 after rescoring at the 48/256
    defaults). The rescore pass streams the
    corpus against a broadcast candidate-id set; only |candidates| full
    vectors ever gather."""
    import ray

    from .embed import project_embeddings, projection_matrix

    ds = base_dataset(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    red = project_embeddings(ds, out_dim=out_dim)

    q = _query_vec(sf_dir, query_vec_id)
    proj = projection_matrix(len(q), out_dim)
    qv = q @ proj
    n = np.linalg.norm(qv)
    qv = qv / (n if n else 1.0)
    qref = ray.put(qv.astype(np.float64))

    def local_cands(df: pd.DataFrame) -> pd.DataFrame:
        qq = broadcast_get(qref)
        mat = np.stack(df["embedding"].to_numpy()).astype(np.float64)
        sims = mat @ qq
        ids = df["vec_id"].to_numpy()
        mask = ids != query_vec_id
        sims, ids = sims[mask], ids[mask]
        idx = np.argsort(-sims, kind="stable")[:candidates]
        return pd.DataFrame({"vec_id": ids[idx].astype(np.int64),
                             "red_sim": sims[idx]})

    merged = red.map_batches(local_cands, batch_format="pandas").to_pandas()
    cand = (merged.sort_values(["red_sim", "vec_id"],
                               ascending=[False, True])
                  .head(candidates))
    cset = ray.put(np.sort(cand["vec_id"].to_numpy()))

    def rescore(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["vec_id"].to_numpy()
        m = np.isin(ids, broadcast_get(cset))
        if not m.any():
            return pd.DataFrame({"vec_id": pd.Series(dtype=np.int64),
                                 "cos_sim": pd.Series(dtype=np.float64)})
        mat = _normalize(np.stack(df["embedding"].to_numpy()[m])
                         .astype(np.float64))
        sims = mat @ q
        return pd.DataFrame({"vec_id": ids[m].astype(np.int64),
                             "cos_sim": round_half_away(sims, 4)})

    full = base_dataset(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    scored = full.map_batches(rescore, batch_format="pandas").to_pandas()
    return (scored.sort_values(["cos_sim", "vec_id"],
                               ascending=[False, True])
                  .head(k).reset_index(drop=True))
