"""Training-data curation operators over the documents table.

The selection/cleaning steps between dedup and training that every
large-scale pretraining pipeline runs:

- deterministic hash-based sampling (the only sampling that is
  reproducible across re-runs, resumes and cluster sizes — reference has
  no sampling at all, SURVEY.md §2.6, so this is engine-added),
- within-document repetition accounting (Gopher-style quality signal:
  duplicate n-gram mass inside one doc),
- benchmark decontamination (flag training docs sharing word n-grams
  with a held-out eval set — the standard pre-training hygiene join),
- token-budget sequence packing (concatenate-and-chunk GPT-style
  packing: a distributed prefix scan assigning every doc its sequence
  id + offset),
- source mixture weights (uniform-target reweighting factors),
- a deterministic weighted-resampling plan executing those weights
  (floor + md5-Bernoulli fractional repeats per doc).

Scale notes per operator are inline; the common theme: documents never
gather on the driver — only fixed-size partials (bucket sums, the
eval-gram set, per-source counts) move through `ray.put` / tiny merges.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray
import ray.data as rd

from ..functions.hashing import md5_hex_prefix
from ..functions.numeric import round_half_away
from ..sources.tablecache import base_dataset
from ..stages.shuffle import (broadcast_get, bucketed_group_apply, group_cells,
                              reduce_partials)

# Bernoulli keep-threshold: first 8 md5 hex chars < this <=> u < 0.1 for
# the uniform u = int(hex8,16)/2^32.  Hex strings of equal length compare
# lexicographically exactly like their numeric values, so the threshold
# is a plain string compare in both engines (Python and the DuckDB
# oracle use the same md5 of the same salt string).
SAMPLE_RATE_HEX = "1999999a"      # floor(0.1 * 2^32) = 0x1999999A
EVAL_MOD = 97                     # doc_id % 97 == 0 => held-out eval doc
DECON_NGRAM = 4                   # decontamination word-n-gram width
PACK_BUDGET = 512                 # tokens per packed training sequence
PACK_RANGE = 4096                 # doc_ids per prefix-scan range bucket


def _docs(sf_dir: str, cols=("doc_id", "source", "text")) -> rd.Dataset:
    return base_dataset(sf_dir, "documents", columns=list(cols))


def q_hash_sample(sf_dir: str) -> pd.DataFrame:
    """Deterministic stratified Bernoulli sample: keep a doc iff
    md5("{source}:{doc_id}") < rate.  Salting the key with the stratum
    makes per-source inclusion independent, and the decision is a pure
    function of the row — no RNG state, no seed coordination across
    nodes, identical at any parallelism (the property random.sample
    cannot give a distributed pipeline).  Embarrassingly parallel:
    one map_batches, no shuffle."""
    def keep(df: pd.DataFrame) -> pd.DataFrame:
        key = df["source"].astype(str) + ":" + df["doc_id"].astype(str)
        mask = md5_hex_prefix(key) < SAMPLE_RATE_HEX
        return df.loc[mask, ["doc_id", "source"]]

    out = (_docs(sf_dir, ("doc_id", "source")).map_batches(
               keep, batch_format="pandas").to_pandas())
    return out.sort_values("doc_id").reset_index(drop=True)


def q_dup_ngram_fraction(sf_dir: str) -> pd.DataFrame:
    """Per-document duplicate-bigram accounting (the within-doc
    repetition signal from Gopher's quality filters): total vs distinct
    word bigrams.  Integer outputs only, so the oracle hash-match is
    exact.  Per-doc work is independent -> one map_batches pass."""
    def f(df: pd.DataFrame) -> pd.DataFrame:
        n_grams = np.zeros(len(df), dtype=np.int64)
        n_distinct = np.zeros(len(df), dtype=np.int64)
        for i, t in enumerate(df["text"]):
            w = t.split(" ")
            n_grams[i] = max(len(w) - 1, 0)
            n_distinct[i] = len(set(zip(w, w[1:])))
        return pd.DataFrame({"doc_id": df["doc_id"].to_numpy(),
                             "n_grams": n_grams, "n_distinct": n_distinct})

    out = _docs(sf_dir, ("doc_id", "text")).map_batches(
        f, batch_format="pandas").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def _gram_hashes(df: pd.DataFrame) -> tuple[np.ndarray, np.ndarray]:
    """(doc_id per gram, uint64 gram hash) for every word DECON_NGRAM in
    the batch — vectorized: explode the token lists once, shift-
    concatenate k aligned views, mask grams that straddle row boundaries,
    and hash with the pinned-key siphash. No per-gram Python loop."""
    from ..functions.hashing import hash64

    df = df.reset_index(drop=True)
    ex = df["text"].str.split(" ").explode()
    vals = ex.to_numpy(dtype=object)
    k = DECON_NGRAM
    if len(vals) < k:
        return (np.array([], dtype=np.int64), np.array([], dtype=np.uint64))
    pos = ex.index.to_numpy()          # positional row label per token
    n = len(vals) - k + 1
    same_row = pos[:n] == pos[k - 1:]
    parts = pd.Series(vals[:n])
    for j in range(1, k):
        parts = parts + " " + pd.Series(vals[j:n + j])
    grams = parts.to_numpy(dtype=object)[same_row]
    doc_ids = df["doc_id"].to_numpy()[pos[:n][same_row]]
    return doc_ids, hash64(grams)


def q_decontaminate(sf_dir: str) -> pd.DataFrame:
    """Benchmark decontamination: flag every training doc that shares a
    word 4-gram with the held-out eval slice (doc_id % 97 == 0).

    Scale shape: the eval set is a benchmark — thousands of docs, MBs —
    so its distinct grams broadcast once via ray.put AS A SORTED uint64
    HASH ARRAY (8 B/gram, ~4x smaller than the raw strings, and probed
    by searchsorted instead of Python set lookups); the 100 TB training
    side streams through one map_batches. An eval set too big to
    broadcast would fall back to the bucketed gram-hash semi-join in
    stages/joins.py (bloom_semi_join)."""
    def eval_grams(df: pd.DataFrame) -> pd.DataFrame:
        sel = df[df["doc_id"] % EVAL_MOD == 0]
        _, gh = _gram_hashes(sel)
        return pd.DataFrame({"g": np.unique(gh)})

    ev = (_docs(sf_dir, ("doc_id", "text"))
          .map_batches(eval_grams, batch_format="pandas").to_pandas())
    eval_hashes = np.unique(ev["g"].to_numpy().astype(np.uint64))
    ref = ray.put(eval_hashes)

    def probe(df: pd.DataFrame) -> pd.DataFrame:
        train = df[df["doc_id"] % EVAL_MOD != 0]
        doc_ids, gh = _gram_hashes(train)
        evh = broadcast_get(ref)
        ix = np.searchsorted(evh, gh)
        hit = np.zeros(len(gh), dtype=bool)
        in_range = ix < len(evh)
        hit[in_range] = evh[ix[in_range]] == gh[in_range]
        if not hit.any():
            return pd.DataFrame({"doc_id": pd.Series(dtype="int64"),
                                 "n_hits": pd.Series(dtype="int64")})
        counts = pd.Series(doc_ids[hit]).value_counts().sort_index()
        return pd.DataFrame({"doc_id": counts.index.to_numpy("int64"),
                             "n_hits": counts.to_numpy("int64")})

    out = _docs(sf_dir, ("doc_id", "text")).map_batches(
        probe, batch_format="pandas").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def q_pack_sequences(sf_dir: str) -> pd.DataFrame:
    """GPT-style sequence packing: concatenate all docs in doc_id order
    and chunk the token stream into PACK_BUDGET-token sequences; each
    doc gets (seq_start, seq_end, offset_in_seq).  This is a global
    prefix sum — the one genuinely order-coupled operator here — done as
    a two-pass range-partitioned scan:

      pass 1: per-range token sums (reduce_partials on doc_id//PACK_RANGE;
              one tiny row per range to the driver),
      pass 2: driver cumsums the range sums (O(n_docs/4096) work — a
              tree scan generalizes beyond ~1e8 ranges), broadcasts the
              per-range start offsets, and each range-hash bucket finishes
              its ranges' local cumsums in parallel.

    No full-data sort and no driver materialization of doc rows."""
    return pack_dataset(_docs(sf_dir, ("doc_id", "text")))


def pack_dataset(docs: rd.Dataset) -> pd.DataFrame:
    """The packing core of q_pack_sequences, over ANY (doc_id, text)
    dataset — composable after upstream curation stages."""
    ds = docs.map_batches(
        lambda df: pd.DataFrame({
            "doc_id": df["doc_id"].to_numpy(),
            "rb": (df["doc_id"].to_numpy() // PACK_RANGE).astype("int64"),
            "n_tokens": (df["text"].str.count(" ") + 1).astype("int64")}),
        batch_format="pandas").materialize()  # both passes; per-doc ints

    sums = reduce_partials(ds, "rb", lambda df: df[["rb", "n_tokens"]])
    starts = sums["n_tokens"].cumsum().shift(fill_value=0)
    ref = ray.put(dict(zip(sums["rb"].astype(int), starts.astype(int))))

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("doc_id")
        n = g["n_tokens"].to_numpy()
        cum = (g["rb"].map(broadcast_get(ref)).to_numpy()
               + g.groupby("rb")["n_tokens"].cumsum().to_numpy() - n)
        return pd.DataFrame({
            "doc_id": g["doc_id"].to_numpy(),
            "n_tokens": n,
            "seq_start": cum // PACK_BUDGET,
            "seq_end": (cum + n - 1) // PACK_BUDGET,
            "offset_in_seq": cum % PACK_BUDGET})

    out = bucketed_group_apply(ds, "rb", finish).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True) \
              .astype({c: "int64" for c in
                       ("n_tokens", "seq_start", "seq_end", "offset_in_seq")})


def q_mixture_weights(sf_dir: str) -> pd.DataFrame:
    """Per-source uniform-target mixture weights: weight = max_count /
    count, the factor a sampler would apply to flatten the source
    distribution.  Partial counts per batch, tiny groupby merge."""
    out = reduce_partials(
        _docs(sf_dir, ("doc_id", "source")), "source",
        lambda df: pd.DataFrame({"source": df["source"], "n": np.int64(1)}))
    out["weight"] = round_half_away(out["n"].max() / out["n"].to_numpy(), 6)
    return out


def q_resample_plan(sf_dir: str) -> pd.DataFrame:
    """Deterministic weighted-resampling plan toward a uniform language
    mixture: each doc gets n_repeats = floor(w) + Bernoulli(frac(w))
    where w = max_lang_count / lang_count and the Bernoulli draw is the
    same md5-hash trick as q_hash_sample (salted "rs:{lang}:{doc_id}") —
    so the expected per-language token mass flattens, every node computes
    the identical plan with no RNG state, and re-runs agree row-for-row.
    Two passes: tiny per-lang counts, then one embarrassingly-parallel
    map with the weight table broadcast."""
    counts = reduce_partials(
        _docs(sf_dir, ("doc_id", "lang")), "lang",
        lambda df: pd.DataFrame({"lang": df["lang"], "n": np.int64(1)}))
    weights = dict(zip(counts["lang"], counts["n"].max() / counts["n"]))
    ref = ray.put(weights)

    def plan(df: pd.DataFrame) -> pd.DataFrame:
        w = broadcast_get(ref)
        base = {l: int(np.floor(wt)) for l, wt in w.items()}
        thr = {l: format(int(np.floor((wt - np.floor(wt)) * 4294967296)),
                         "08x") for l, wt in w.items()}
        h = md5_hex_prefix("rs:" + df["lang"].astype(str) + ":"
                           + df["doc_id"].astype(str))
        reps = (df["lang"].map(base).to_numpy(np.int64)
                + (h < df["lang"].map(thr).to_numpy()).astype(np.int64))
        return pd.DataFrame({"doc_id": df["doc_id"].to_numpy(),
                             "lang": df["lang"].to_numpy(),
                             "n_repeats": reps})

    out = (_docs(sf_dir, ("doc_id", "lang"))
           .map_batches(plan, batch_format="pandas").to_pandas())
    return out.sort_values("doc_id").reset_index(drop=True)


def q_stratified_sample(sf_dir: str, cap: int = 300) -> pd.DataFrame:
    """Deterministic per-stratum downsampling of events to an EXPECTED
    ``cap`` rows per event_type: rate_g = min(1, cap / n_g), realized as
    the exact integer hex threshold (cap * 2^32 // n_g) compared against
    the md5 of the salted row key — integer division on both engines, so
    no float-boundary drift. Like q_hash_sample, the keep decision is a
    pure row function given the broadcast stratum sizes: identical at
    any parallelism, across resumes, and across engines. Two streaming
    passes — a tiny per-type count aggregate (G rows cross the wire),
    then the embarrassingly-parallel filter; the per-group rate is what
    q_hash_sample's single global rate cannot express when stratum sizes
    are skewed (downsample the giant web slice, keep all of the rare
    curated slice)."""
    ev = base_dataset(sf_dir, "events", columns=["event_id", "event_type"])
    sizes = reduce_partials(ev, "event_type", lambda df: pd.DataFrame(
        {"event_type": df["event_type"], "n": np.int64(1)})
    ).set_index("event_type")["n"].to_dict()
    # 'g' sorts above every hex digit => keep-all sentinel for small strata
    thresh = {t: ("g" if n <= cap else format((cap << 32) // int(n), "08x"))
              for t, n in sizes.items()}
    ref = ray.put(thresh)

    def keep(df: pd.DataFrame) -> pd.DataFrame:
        th = broadcast_get(ref)
        keys = ("strat:" + df["event_type"].astype(str) + ":"
                + df["event_id"].astype(str))
        h = md5_hex_prefix(keys)
        lim = df["event_type"].map(th).to_numpy()
        return df.loc[h < lim, ["event_id", "event_type"]]

    out = ev.map_batches(keep, batch_format="pandas").to_pandas()
    return out.sort_values("event_id").reset_index(drop=True)


def q_curated_pack(sf_dir: str, min_tokens: int = 20, min_stop_hits: int = 3,
                   rate_hex: str = "80000000") -> pd.DataFrame:
    """End-to-end curation COMPOSITION — the full selection chain a
    pretraining run executes, as ONE pipeline: quality gate (length +
    stopword density) -> exact dedup (min-doc_id representative per
    distinct text) -> deterministic md5 half-rate sample -> GPT-style
    sequence packing of the survivors. Every stage is the same
    distributed shape as its standalone query (vectorized batch filter;
    (content_hash, doc_id) bucketed shuffle; pure-row-function sample;
    range-partitioned prefix scan), and the dataset flows stage to stage
    through the object store — the driver first sees per-doc rows in the
    final packed result. The single SQL oracle chains the identical CTEs,
    so what is verified is the COMPOSITION, not just each stage alone."""
    from ..functions.hashing import hash64
    from ..stages.textstats import EN_STOPWORDS

    stop = EN_STOPWORDS

    def admit(df: pd.DataFrame) -> pd.DataFrame:
        toks = df["text"].map(lambda t: t.split(" "))
        n_tok = toks.str.len()
        hits = toks.map(lambda ts: sum(1 for w in ts if w in stop))
        out = df[(n_tok >= min_tokens) & (hits >= min_stop_hits)]
        return pd.DataFrame({
            "content_hash": hash64(out["text"].to_numpy()).astype(np.int64),
            "doc_id": out["doc_id"].to_numpy(),
            "source": out["source"].to_numpy(),
            "text": out["text"].to_numpy()})

    def first_per_text(g: pd.DataFrame) -> pd.DataFrame:
        idx = g.groupby("text")["doc_id"].idxmin()
        return g.loc[idx, ["doc_id", "source", "text"]]

    reps = bucketed_group_apply(
        _docs(sf_dir).map_batches(admit, batch_format="pandas"),
        "content_hash", first_per_text)

    def sample(df: pd.DataFrame) -> pd.DataFrame:
        keys = ("cur:" + df["source"].astype(str) + ":"
                + df["doc_id"].astype(str))
        return df.loc[md5_hex_prefix(keys) < rate_hex, ["doc_id", "text"]]

    return pack_dataset(reps.map_batches(sample, batch_format="pandas"))


def q_weighted_sample(sf_dir: str, k: int = 200) -> pd.DataFrame:
    """Deterministic weight-proportional priority sample: priority =
    md5_32(doc key) / weight, keep the k smallest — heavier docs draw
    proportionally smaller priorities, so the sample tilts toward them
    while staying a pure function of the row (no RNG, no seed
    coordination; the A-ES idea with the hash as the uniform draw).

    Mergeable top-k: every batch emits only ITS k best candidates, the
    tiny (parallelism x k) pool resolves on the driver — no shuffle, no
    global sort. The 32-bit hash and int64 weight divide exactly the
    same in both engines' doubles, so the oracle is bit-exact."""
    def local_topk(df: pd.DataFrame) -> pd.DataFrame:
        h = np.array([int(x, 16) for x in
                      md5_hex_prefix("ws:" + df["doc_id"].astype(str))],
                     dtype=np.int64)
        pr = h / df["n_chars"].to_numpy().astype(np.float64)
        out = pd.DataFrame({"doc_id": df["doc_id"].to_numpy(),
                            "n_chars": df["n_chars"].to_numpy(),
                            "priority": pr})
        return out.sort_values(["priority", "doc_id"]).head(k)

    pool = (_docs(sf_dir, ("doc_id", "n_chars"))
            .map_batches(local_topk, batch_format="pandas").to_pandas())
    out = pool.sort_values(["priority", "doc_id"]).head(k)
    out["priority"] = round_half_away(out["priority"].to_numpy(), 6)
    return out.reset_index(drop=True)


def q_dedup_savings(sf_dir: str) -> pd.DataFrame:
    """Dedup impact report — the accounting a curation run publishes:
    over exact text-duplicate families (keeper = min doc_id), how many
    documents and how many characters would dropping the duplicates
    save? Families resolve by the (hash, id)-only shuffle shape of exact
    dedup (text rides for the collision guard); per-bucket (docs, dup
    docs, dup chars) partials merge as integer sums."""

    docs = base_dataset(sf_dir, "documents", columns=["doc_id", "text", "n_chars"])

    def savings(g: pd.DataFrame) -> pd.DataFrame:
        keep = g.groupby("text")["doc_id"].transform("min")
        dup = g["doc_id"].to_numpy() != keep.to_numpy()
        return pd.DataFrame({
            "n_docs": [np.int64(len(g))],
            "dup_docs": [np.int64(int(dup.sum()))],
            "chars_saved": [np.int64(int(g.loc[dup, "n_chars"].sum()))]})

    parts = bucketed_group_apply(docs, "text", savings).to_pandas()
    return pd.DataFrame({
        "n_docs": [np.int64(parts["n_docs"].sum())],
        "dup_docs": [np.int64(parts["dup_docs"].sum())],
        "chars_saved": [np.int64(parts["chars_saved"].sum())]})


def q_contrastive_pairs(sf_dir: str) -> pd.DataFrame:
    """Contrastive negative assignment — the deterministic pairing a
    CLIP-style trainer materializes: every document takes as its
    negative the NEXT document on the md5-hash ring (hash order is a
    reproducible shuffle with no RNG state; the ring wraps the last back
    to the first). Hashes compute per batch; the ring closes with ONE
    tiny driver sort over (hash, id) pairs — at a scale past that, the
    ring closes per hash-range bucket with boundary stitching. The
    oracle states the identical LEAD-over-md5 window."""
    import hashlib

    docs = base_dataset(sf_dir, "documents", columns=["doc_id"])

    def hashes(df: pd.DataFrame) -> pd.DataFrame:
        h = [hashlib.md5(str(i).encode()).hexdigest()
             for i in df["doc_id"]]
        return pd.DataFrame({"doc_id": df["doc_id"].to_numpy(), "h": h})

    ring = (docs.map_batches(hashes, batch_format="pandas").to_pandas()
                .sort_values(["h", "doc_id"], kind="mergesort")
                .reset_index(drop=True))
    neg = np.roll(ring["doc_id"].to_numpy(), -1)
    return (pd.DataFrame({"doc_id": ring["doc_id"].to_numpy(),
                          "neg_doc_id": neg})
            .astype({"neg_doc_id": "int64"})
            .sort_values("doc_id").reset_index(drop=True))


def q_dup_family_histogram(sf_dir: str) -> pd.DataFrame:
    """Histogram of exact-duplicate family sizes — the dedup diagnostic
    (how much of the corpus sits in 2x families vs 50x blobs?): family
    sizes resolve inside text-hash buckets, the COUNT-OF-COUNTS rows
    (one per distinct family size) merge as integer sums — the same
    wire-frugal shape as the key-skew histogram."""
    docs = base_dataset(sf_dir, "documents", columns=["doc_id", "text"])

    def sizes(g: pd.DataFrame) -> pd.DataFrame:
        fam = g.groupby("text").size()
        cells = pd.DataFrame({"family_size": fam.to_numpy(np.int64),
                              "n_families": np.int64(1)})
        return group_cells(cells, "family_size")

    return reduce_partials(bucketed_group_apply(docs, "text", sizes),
                           "family_size")


def q_canonical_token_dedup(sf_dir: str) -> pd.DataFrame:
    """Bag-of-words canonical dedup — the canonicalization that catches
    token-REORDERED near-copies exact dedup misses: each doc fingerprints
    as md5 of its space-joined SORTED token list, so any permutation of
    the same token multiset collapses to one family. Every 10th doc gets
    a rotated twin planted (tokens shifted by one — a different exact
    hash, the same bag), and the report counts, per source, raw docs vs
    distinct exact-text families vs distinct bag families. Each distinct
    count is its own hash-bucketed shuffle (a canonical key IS a
    partitioning key: dedup under a new canonicalization costs one new
    shuffle, never a driver set) moving only (source, 16-byte hash)
    pairs; the per-row md5+sort is the fingerprint codec's inherent
    per-doc unit, run batched inside map_batches."""
    import hashlib


    docs = _docs(sf_dir)

    def plant(df: pd.DataFrame) -> pd.DataFrame:
        extra = df[df["doc_id"] % 10 == 0].copy()
        toks = extra["text"].str.split(" ")
        extra["text"] = [" ".join(t[1:] + t[:1]) for t in toks]
        extra["doc_id"] = extra["doc_id"] + 10_000_000
        return pd.concat([df, extra], ignore_index=True)

    def fingerprints(df: pd.DataFrame) -> pd.DataFrame:
        ex, bag = [], []
        for t in df["text"]:
            ex.append(hashlib.md5(t.encode()).hexdigest())
            bag.append(hashlib.md5(
                " ".join(sorted(t.split(" "))).encode()).hexdigest())
        return pd.DataFrame({"source": df["source"].to_numpy(),
                             "ex": ex, "bag": bag})

    # three consumers (n_docs, n_exact, n_bags) read this dataset; without
    # materialize() each consumption re-executes the md5+sort lineage.
    # The fingerprint table is (source, 2x32-hex) per doc — tiny relative
    # to the text it replaces — so pinning it in the object store is the
    # right trade at any scale.
    fp = docs.map_batches(plant, batch_format="pandas") \
             .map_batches(fingerprints, batch_format="pandas") \
             .materialize()

    def distinct_per_source(col: str, name: str) -> pd.DataFrame:
        def inner(g: pd.DataFrame) -> pd.DataFrame:
            d = g.drop_duplicates(["source", col])
            cells = pd.DataFrame({"source": d["source"], name: np.int64(1)})
            return group_cells(cells, "source")
        return reduce_partials(bucketed_group_apply(
            fp.map_batches(lambda df: df.drop_duplicates(["source", col]),
                           batch_format="pandas"), col, inner), "source")

    n_docs = reduce_partials(fp, "source", lambda df: pd.DataFrame(
        {"source": df["source"], "n_docs": np.int64(1)}))
    return (n_docs.merge(distinct_per_source("ex", "n_exact"), on="source")
                  .merge(distinct_per_source("bag", "n_bags"), on="source"))


def q_cross_source_leakage(sf_dir: str) -> pd.DataFrame:
    """Cross-source duplicate leakage — the contamination audit a
    mixture-weighted corpus needs: which SOURCE PAIRS share identical
    documents (so reweighting one source silently reweights the other)?
    The corpus itself has no cross-source copies, so every 7th doc gets
    a MIRROR twin planted (same text, source + '_mirror', shifted id —
    the re-hosted-corpus case; the oracle re-derives the plant). Exact-
    text families resolve inside text-hash buckets; each family with >1
    distinct source emits its sorted source pairs (fan-out bounded by
    the source count, not the corpus), and pair counts merge as integer
    sums."""

    docs = _docs(sf_dir, ("doc_id", "source", "text"))

    def plant(df: pd.DataFrame) -> pd.DataFrame:
        extra = df[df["doc_id"] % 7 == 0].copy()
        extra["source"] = extra["source"] + "_mirror"
        extra["doc_id"] = extra["doc_id"] + 20_000_000
        return pd.concat([df, extra], ignore_index=True)

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        d = g.drop_duplicates(["text", "source"])
        rows = []
        for _, fam in d.groupby("text", sort=False):
            if len(fam) < 2:
                continue
            srcs = sorted(fam["source"])
            for i in range(len(srcs)):
                for j in range(i + 1, len(srcs)):
                    rows.append((srcs[i], srcs[j]))
        if not rows:
            return pd.DataFrame({"source_a": pd.Series(dtype="object"),
                                 "source_b": pd.Series(dtype="object"),
                                 "n_shared_texts": pd.Series(dtype="int64")})
        cells = (pd.DataFrame(rows, columns=["source_a", "source_b"])
                 .assign(n_shared_texts=np.int64(1)))
        return group_cells(cells, ["source_a", "source_b"])

    return reduce_partials(bucketed_group_apply(
        docs.map_batches(plant, batch_format="pandas"), "text", pairs),
        ["source_a", "source_b"])


def q_dedup_token_savings(sf_dir: str) -> pd.DataFrame:
    """Dedup accounting in the unit that bills: TOKENS. Per source,
    the token volume before exact dedup vs after (one copy per distinct
    text) — dedup_savings' character ledger restated in the budget a
    trainer actually spends. Raw token partials come straight off each
    batch; the after-side dedups (source, text) pairs inside text-hash
    buckets and only (source, tokens) integers leave. One exact int/int
    division closes the savings share."""

    docs = _docs(sf_dir, ("source", "text"))

    def raw(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "source": df["source"].to_numpy(),
            "tokens_raw": df["text"].str.split(" ").str.len()
            .to_numpy(np.int64)})

    def dedup_tokens(g: pd.DataFrame) -> pd.DataFrame:
        d = g.drop_duplicates(["source", "text"])
        cells = pd.DataFrame({
            "source": d["source"].to_numpy(),
            "tokens_dedup": d["text"].str.split(" ").str.len()
            .to_numpy(np.int64)})
        return group_cells(cells, "source")

    before = reduce_partials(docs, "source", raw)
    after = reduce_partials(bucketed_group_apply(
        docs.map_batches(
            lambda df: df.drop_duplicates(["source", "text"]),
            batch_format="pandas"),
        "text", dedup_tokens), "source")

    out = before.merge(after, on="source")
    out["savings_share"] = (
        (out["tokens_raw"] - out["tokens_dedup"]).to_numpy(np.float64)
        / out["tokens_raw"].to_numpy(np.float64))
    return out


def q_dedup_prefix_curve(sf_dir: str) -> pd.DataFrame:
    """Cumulative distinct-text fraction at each corpus decile — the
    curation-planning curve ("how fast does novelty decay as I ingest
    more of this corpus?"). A doc is FIRST-SEEN if it holds the minimum
    doc_id of its exact-text family; deciles cut the dense doc_id range
    as ``doc_id * 10 // (max_id + 1)`` (stated identically in the
    oracle). Per-decile row counts stream as 10-cell bincount partials;
    first-occurrences resolve inside text-hash buckets (the exact-dedup
    shape — each bucket emits only its 10-cell decile histogram), so
    nothing per-doc ever reaches the driver. Integer counts end to end;
    the fraction closes as ONE stated double division per decile."""

    docs = _docs(sf_dir, ("doc_id", "text"))
    # streaming max — one row per block reaches the driver
    denom = int(reduce_partials(
        docs, "k", lambda df: df[["doc_id"]].assign(k=np.int64(0)),
        agg={"doc_id": "max"})["doc_id"].iloc[0]) + 1

    def rows_partial(df: pd.DataFrame) -> pd.DataFrame:
        dec = (df["doc_id"].to_numpy(np.int64) * 10) // denom
        return pd.DataFrame({"decile": np.arange(10, dtype=np.int64),
                             "n": np.bincount(dec, minlength=10)
                             .astype(np.int64)})

    n_rows = reduce_partials(docs, "decile", rows_partial) \
        .set_index("decile")["n"]

    def firsts(g: pd.DataFrame) -> pd.DataFrame:
        fid = g.groupby("text")["doc_id"].min().to_numpy(np.int64)
        dec = (fid * 10) // denom
        cells = pd.DataFrame({"decile": np.arange(10, dtype=np.int64),
                              "nf": np.bincount(dec, minlength=10)
                              .astype(np.int64)})
        return group_cells(cells, "decile")

    n_first = reduce_partials(bucketed_group_apply(docs, "text", firsts),
                              "decile").set_index("decile")["nf"]

    out = pd.DataFrame({"decile": np.arange(10, dtype=np.int64)})
    out["n_rows"] = n_rows.reindex(out["decile"], fill_value=0).to_numpy(np.int64)
    out["n_first_seen"] = n_first.reindex(out["decile"],
                                          fill_value=0).to_numpy(np.int64)
    out["cum_rows"] = out["n_rows"].cumsum().astype(np.int64)
    out["cum_distinct"] = out["n_first_seen"].cumsum().astype(np.int64)
    out["distinct_frac"] = round_half_away(
        out["cum_distinct"].to_numpy(np.float64)
        / out["cum_rows"].to_numpy(np.float64), 6)
    return out


def q_leakage_safe_split(sf_dir: str) -> pd.DataFrame:
    """Dup-family-aware train/val/test split — the leakage guard every
    eval-honest pretraining pipeline needs: if two docs share the exact
    same text, they must land in the SAME split (else the val/test sets
    leak training examples verbatim). The naive per-doc hash split
    fails this whenever duplicates exist; this operator splits by
    FAMILY instead.

    Family = the exact-text group; its representative = the minimum
    doc_id (resolved inside text-hash buckets like the rest of the
    exact-dedup family — docs of one family never straddle buckets).
    The split decision is the shared md5-64 contract on the rep id:
    ``md5_64(str(rep)) % 10`` -> 0-7 train, 8 val, 9 test — a pure
    function of the family, so re-runs, resumes and cluster sizes all
    reproduce it. Output: per (split, source) doc count plus the count
    of families whose representative doc sits in that cell; by
    construction zero families span splits (the property the oracle
    re-derives from scratch).

    100-TB shape: one text-keyed bucket shuffle; each bucket emits only
    its (split, source) count partial (<= 3 x |sources| cells), the
    driver merges cells, documents never gather."""
    from ..functions.hashing import md5_hash64

    docs = _docs(sf_dir, ("doc_id", "source", "text"))

    def split_counts(g: pd.DataFrame) -> pd.DataFrame:
        rep = g.groupby("text")["doc_id"].transform("min") \
               .to_numpy(np.int64)
        b = md5_hash64([str(r) for r in rep]) % np.uint64(10)
        split = np.where(b < 8, "train", np.where(b == 8, "val", "test"))
        cells = pd.DataFrame({"split": split,
                              "source": g["source"].to_numpy(object),
                              "n_docs": np.int64(1),
                              "n_families": (g["doc_id"].to_numpy(np.int64)
                                             == rep).astype(np.int64)})
        return group_cells(cells, ["split", "source"])

    return reduce_partials(bucketed_group_apply(docs, "text", split_counts),
                           ["split", "source"])


def q_ngram_novelty_by_source(sf_dir: str, n: int = 8) -> pd.DataFrame:
    """Per-source 8-gram novelty — the contamination-adjacent audit a
    mixture designer reads before upweighting a source: of the distinct
    word 8-grams a source contains, what fraction appears in NO other
    source? Docs shorter than ``n`` tokens are excluded (stated in the
    oracle). Grams transport as md5-64 fingerprints (the shared hash
    contract; a 64-bit collision would merge two grams — ~1e-9 at this
    vocabulary, the repo's standing banding assumption) and resolve
    inside gram-hash buckets: each bucket emits per-source (n_grams,
    n_exclusive) integer partials bounded by the source count, so the
    exploded gram table shuffles once and never gathers."""
    from ..functions.hashing import md5_hash64

    docs = _docs(sf_dir, ("source", "text"))

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        srcs, grams = [], []
        for s, t in zip(df["source"], df["text"]):
            toks = t.split(" ")
            if len(toks) < n:
                continue
            gs = {" ".join(toks[j:j + n]) for j in range(len(toks) - n + 1)}
            srcs.extend([s] * len(gs))
            grams.extend(gs)
        if not grams:
            return pd.DataFrame({"source": pd.Series(dtype="object"),
                                 "h": pd.Series(dtype=np.uint64)})
        return (pd.DataFrame({"source": srcs, "h": md5_hash64(grams)})
                .drop_duplicates())

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        d = g.drop_duplicates(["h", "source"])
        ns = d.groupby("h")["source"].transform("size")
        cells = pd.DataFrame({"source": d["source"], "n_grams": np.int64(1),
                              "n_exclusive": (ns == 1).astype(np.int64)})
        return group_cells(cells, "source")

    out = reduce_partials(bucketed_group_apply(
        docs.map_batches(explode, batch_format="pandas"), "h", per_bucket),
        "source")
    out["novelty"] = round_half_away(
        out["n_exclusive"].to_numpy(np.float64)
        / out["n_grams"].to_numpy(np.float64), 6)
    return out
