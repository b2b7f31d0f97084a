"""Corpus-level training-data operators over the documents table.

The operations a 100 TB pretraining pipeline runs between crawling and
training: global corpus accounting, deterministic train/val/test
splitting, vocabulary statistics, and the quality+dedup admission filter.
Every operator is a partial-aggregate (per-batch combiner) followed by a
tiny merge — the documents never gather anywhere; only fixed-size
aggregate rows move.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray.data as rd

from ..functions.numeric import round_half_away
from ..stages.shuffle import (broadcast_get, bucketed_group_apply, group_cells,
                              reduce_partials)
from ..stages.textstats import EN_STOPWORDS
from ..sources.tablecache import base_dataset


def _docs(sf_dir: str, cols=("doc_id", "source", "text")) -> rd.Dataset:
    return base_dataset(sf_dir, "documents", columns=list(cols))


def q_corpus_stats(sf_dir: str) -> pd.DataFrame:
    """One-row global rollup: doc count, token count, average char length,
    distinct sources. Per-batch partials are 1-row frames plus a tiny
    distinct-source set (source cardinality is bounded); the driver merge
    touches O(batches) rows, never O(docs)."""
    def partial(df: pd.DataFrame) -> pd.DataFrame:
        toks = df["text"].str.count(" ") + 1
        return pd.DataFrame({
            "n_docs": [np.int64(len(df))],
            "total_tokens": [np.int64(toks.sum())],
            "total_chars": [np.int64(df["text"].str.len().sum())],
            "sources": [",".join(sorted(set(df["source"])))]})

    parts = (_docs(sf_dir).map_batches(partial, batch_format="pandas")
             .to_pandas())
    srcs = set()
    for s in parts["sources"]:
        srcs.update(s.split(","))
    n_docs = int(parts["n_docs"].sum())
    return pd.DataFrame({
        "n_docs": [np.int64(n_docs)],
        "total_tokens": [np.int64(parts["total_tokens"].sum())],
        "avg_chars": [round(float(parts["total_chars"].sum()) / n_docs, 4)],
        "n_sources": [np.int64(len(srcs))]})


def q_split_counts(sf_dir: str) -> pd.DataFrame:
    """Deterministic 80/10/10 train/val/test split keyed on doc_id (the
    split must be a pure function of the key so re-runs and multi-node
    runs agree), accounted per (source, split). Classic stratification
    check before training."""
    def partial(df: pd.DataFrame) -> pd.DataFrame:
        m = df["doc_id"].to_numpy() % 10
        split = np.where(m < 8, "train", np.where(m < 9, "val", "test"))
        return pd.DataFrame({"source": df["source"].to_numpy(),
                             "split": split, "n": np.int64(1)})

    return reduce_partials(_docs(sf_dir, ("doc_id", "source")),
                           ["source", "split"], partial)


def q_bigram_topk(sf_dir: str, k: int = 20) -> pd.DataFrame:
    """Global top-k bigrams by count (vocabulary statistics for tokenizer /
    LM work). Per-batch Counter combiner -> bucketed sum -> per-bucket
    top-k -> tiny driver merge of num_buckets x k rows. Ties break on the
    bigram string so the result is deterministic."""
    def partial(df: pd.DataFrame) -> pd.DataFrame:
        counts: dict[str, int] = {}
        for t in df["text"]:
            toks = t.split(" ")
            for i in range(len(toks) - 1):
                b = toks[i] + " " + toks[i + 1]
                counts[b] = counts.get(b, 0) + 1
        return pd.DataFrame({"bigram": list(counts),
                             "n": np.fromiter(counts.values(), np.int64,
                                              len(counts))})

    def bucket_topk(g: pd.DataFrame) -> pd.DataFrame:
        s = g.groupby("bigram", as_index=False)["n"].sum()
        return (s.sort_values(["n", "bigram"], ascending=[False, True])
                 .head(k))

    merged = bucketed_group_apply(
        _docs(sf_dir, ("doc_id", "text")).map_batches(
            partial, batch_format="pandas"),
        "bigram", bucket_topk,
        partial_fn=lambda df: df.groupby("bigram", as_index=False)["n"].sum()).to_pandas()
    return (merged.sort_values(["n", "bigram"], ascending=[False, True])
                  .head(k).astype({"n": "int64"}).reset_index(drop=True))


def q_tfidf_topk(sf_dir: str, k: int = 3) -> pd.DataFrame:
    """Per-document top-k terms by tf-idf (tf * ln(N/df)) — tokenizer /
    feature work. Term frequencies are exact per batch (a document never
    straddles rows); document frequencies are a bucketed distributed sum;
    the tf rows meet their df via the native hash join; ranking happens
    per-doc inside the bucketed shuffle. Ties break on the ROUNDED score
    then the term, so the ranking is reproducible across engines."""
    docs = _docs(sf_dir, ("doc_id", "text"))
    n_docs = docs.count()

    def tf_rows(df: pd.DataFrame) -> pd.DataFrame:
        ids, ws, tfs = [], [], []
        for did, t in zip(df["doc_id"], df["text"]):
            counts: dict[str, int] = {}
            for w in t.split(" "):
                counts[w] = counts.get(w, 0) + 1
            ids.extend([did] * len(counts))
            ws.extend(counts)
            tfs.extend(counts.values())
        return pd.DataFrame({"doc_id": np.array(ids, np.int64), "w": ws,
                             "tf": np.array(tfs, np.int64)})

    tf = docs.map_batches(tf_rows, batch_format="pandas")
    # document frequency computed in-bucket and attached in place: every
    # (doc, w) row of a word shares its bucket, so no counts pass and no
    # join-back (same one-shuffle DF pattern as the ngram SSJoin)
    joined = bucketed_group_apply(
        tf, "w",
        bucket_fn=lambda g: g.assign(
            df=g.groupby("w")["w"].transform("size").astype(np.int64)))

    def per_doc_topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.assign(tfidf=round_half_away(
            g["tf"].to_numpy() * np.log(n_docs / g["df"].to_numpy()), 4))
        return (g.sort_values(["doc_id", "tfidf", "w"],
                              ascending=[True, False, True], kind="mergesort")
                 .groupby("doc_id", as_index=False)
                 .head(k)[["doc_id", "w", "tfidf"]])

    out = bucketed_group_apply(joined, "doc_id", per_doc_topk).to_pandas()
    return (out.sort_values(["doc_id", "tfidf", "w"],
                            ascending=[True, False, True])
               .reset_index(drop=True))


def _revenue(df: pd.DataFrame) -> pd.DataFrame:
    """(flag, status, revenue, n) rows: the rollup and cube cells."""
    return pd.DataFrame({
        "l_returnflag": df["l_returnflag"], "l_linestatus": df["l_linestatus"],
        "revenue": df["l_extendedprice"] * (1 - df["l_discount"]),
        "n": np.int64(1)})


def q_rollup_revenue(sf_dir: str) -> pd.DataFrame:
    """GROUP BY ROLLUP (l_returnflag, l_linestatus) over lineitem revenue:
    ONE partial-aggregation pass over the fact table feeds all three
    rollup levels — the subtotals re-aggregate the (tiny) detail partials,
    never the input."""
    li = base_dataset(sf_dir, "lineitem", columns=["l_returnflag", "l_linestatus", "l_extendedprice", "l_discount"])

    detail = reduce_partials(li, ["l_returnflag", "l_linestatus"], _revenue)
    lvl1 = (detail.groupby("l_returnflag", as_index=False)
                  .agg(revenue=("revenue", "sum"), n=("n", "sum")))
    lvl1["l_linestatus"] = None
    total = pd.DataFrame({"l_returnflag": [None], "l_linestatus": [None],
                          "revenue": [detail["revenue"].sum()],
                          "n": [detail["n"].sum()]})
    out = pd.concat([detail, lvl1, total], ignore_index=True)
    out["revenue"] = round_half_away(out["revenue"].to_numpy(), 4)
    out["n"] = out["n"].astype("int64")
    return out[["l_returnflag", "l_linestatus", "revenue", "n"]]


def q_cube_revenue(sf_dir: str) -> pd.DataFrame:
    """GROUP BY CUBE (l_returnflag, l_linestatus): all four grouping sets
    from the SAME single partial pass as the rollup — the cube only adds
    the (linestatus) margin, re-aggregated from the tiny detail frame."""
    li = base_dataset(sf_dir, "lineitem", columns=["l_returnflag", "l_linestatus", "l_extendedprice", "l_discount"])

    detail = reduce_partials(li, ["l_returnflag", "l_linestatus"], _revenue)
    by_flag = (detail.groupby("l_returnflag", as_index=False)
                     .agg(revenue=("revenue", "sum"), n=("n", "sum")))
    by_flag["l_linestatus"] = None
    by_status = (detail.groupby("l_linestatus", as_index=False)
                       .agg(revenue=("revenue", "sum"), n=("n", "sum")))
    by_status["l_returnflag"] = None
    total = pd.DataFrame({"l_returnflag": [None], "l_linestatus": [None],
                          "revenue": [detail["revenue"].sum()],
                          "n": [detail["n"].sum()]})
    out = pd.concat([detail, by_flag, by_status, total], ignore_index=True)
    out["revenue"] = round_half_away(out["revenue"].to_numpy(), 4)
    out["n"] = out["n"].astype("int64")
    return out[["l_returnflag", "l_linestatus", "revenue", "n"]]


def q_quality_filter_counts(sf_dir: str, min_tokens: int = 20,
                            min_stop_hits: int = 3) -> pd.DataFrame:
    """The training-data admission chain: exact dedup (min-doc_id
    representative per distinct text) -> quality gate (length + stopword
    density) -> per-source survivor counts. Dedup shuffles only
    (content_hash, doc_id); the quality gate is a vectorized per-batch
    filter; counting is a partial-aggregate."""
    from ..functions.hashing import hash64

    stop = EN_STOPWORDS

    def admit(df: pd.DataFrame) -> pd.DataFrame:
        toks = df["text"].map(lambda t: t.split(" "))
        n_tok = toks.str.len()
        hits = toks.map(lambda ts: sum(1 for w in ts if w in stop))
        keep = (n_tok >= min_tokens) & (hits >= min_stop_hits)
        out = df[keep]
        return pd.DataFrame({
            "content_hash": hash64(out["text"].to_numpy()).astype(np.int64),
            "doc_id": out["doc_id"].to_numpy(),
            "source": out["source"].to_numpy(),
            "text": out["text"].to_numpy()})

    def first_per_text(g: pd.DataFrame) -> pd.DataFrame:
        # min-doc_id representative, re-keyed by full text within the
        # bucket (collision guard, same as exact_dedup)
        idx = g.groupby("text")["doc_id"].idxmin()
        return g.loc[idx, ["source", "doc_id"]]

    survivors = bucketed_group_apply(
        _docs(sf_dir).map_batches(admit, batch_format="pandas"),
        "content_hash", first_per_text)

    return reduce_partials(survivors, "source", lambda df: pd.DataFrame(
        {"source": df["source"], "n": np.int64(1)}))


def _bigram_counts(df: pd.DataFrame) -> pd.Series:
    """Exact bigram counts for one batch (same ``toks[i] + ' ' +
    toks[i+1]`` convention as q_bigram_topk / the oracle SQL)."""
    counts: dict[str, int] = {}
    for t in df["text"]:
        toks = t.split(" ")
        for i in range(len(toks) - 1):
            b = toks[i] + " " + toks[i + 1]
            counts[b] = counts.get(b, 0) + 1
    return pd.Series(counts, dtype=np.int64)


def q_heavy_hitter_bigrams(sf_dir: str, phi: float = 0.0011) -> pd.DataFrame:
    """Exact phi-heavy-hitter bigrams via the mergeable Misra-Gries
    sketch (stages/sketches.py): per-batch MG partials -> small merge ->
    candidate set -> one exact counting pass over broadcast candidates.
    Unlike q_bigram_topk (fixed top-k), this answers the threshold form
    — "every n-gram covering >= 0.11% of the corpus" — with the corpus
    vocabulary never shuffling and the driver holding O(1/phi)."""
    from ..stages.sketches import mg_heavy_hitters

    return mg_heavy_hitters(_docs(sf_dir, ("text",)), _bigram_counts,
                            phi=phi, item_col="bigram")


def q_bm25_topk(sf_dir: str, terms: tuple[str, ...] = ("join", "hash", "vector"),
                k1: float = 1.2, b: float = 0.75,
                limit: int = 20) -> pd.DataFrame:
    """BM25 retrieval (Robertson-Sparck Jones probabilistic ranking, the
    public Okapi BM25 form) for a fixed term query over the corpus:
    top-``limit`` documents by score.

    Two streaming passes, O(limit x batches) driver state: pass 1
    reduces the collection statistics (N, total length, per-term
    document frequency) as tiny per-batch partials; pass 2 broadcasts
    the idf/avglen constants, scores every batch vectorized, and emits
    only each batch's local top-``limit`` — a corpus-size-independent
    driver merge. Score arithmetic is ordered to match the oracle SQL
    expression exactly (same association, ties broken on the ROUNDED
    score then doc_id)."""
    docs = _docs(sf_dir, ("doc_id", "text"))

    def stats(df: pd.DataFrame) -> pd.DataFrame:
        toks = df["text"].str.split(" ")
        row = {"n_docs": [len(df)],
               "sum_len": [int(toks.str.len().sum())]}
        ex = toks.explode()
        for i, t in enumerate(terms):
            m = ex[ex == t]
            row[f"df_{i}"] = [int(m.groupby(level=0).size().astype(bool).sum())]
        return pd.DataFrame(row)

    st = docs.map_batches(stats, batch_format="pandas").to_pandas().sum()
    n_docs = float(st["n_docs"])
    avglen = float(st["sum_len"]) / n_docs          # exact int / exact int
    idfs = [np.log((n_docs - float(st[f"df_{i}"]) + 0.5)
                   / (float(st[f"df_{i}"]) + 0.5) + 1)
            for i in range(len(terms))]

    def score(df: pd.DataFrame) -> pd.DataFrame:
        toks = df["text"].str.split(" ")
        L = toks.str.len().to_numpy(np.float64)
        ex = toks.explode()
        s = np.zeros(len(df), np.float64)
        for t, idf in zip(terms, idfs):
            tf = ((ex == t).groupby(level=0).sum()
                  .reindex(df.index, fill_value=0).to_numpy(np.float64))
            s = s + idf * tf * (k1 + 1) / (tf + k1 * (1 - b + b * L / avglen))
        out = pd.DataFrame({"doc_id": df["doc_id"].to_numpy(),
                            "bm25": round_half_away(s, 4)})
        return (out.sort_values(["bm25", "doc_id"], ascending=[False, True])
                   .head(limit))

    merged = docs.map_batches(score, batch_format="pandas").to_pandas()
    return (merged.sort_values(["bm25", "doc_id"], ascending=[False, True])
                  .head(limit).reset_index(drop=True))


def q_bigram_lm_scores(sf_dir: str) -> pd.DataFrame:
    """N-gram LM familiarity scoring — the CCNet/KenLM-style quality pass
    that scores each document against a language model trained on the
    corpus itself, reduced to exact integers: pass 1 trains the "model"
    (global bigram counts — a vocabulary-bounded table, broadcast via
    ray.put exactly once, the same contract as tf-idf's idf side), pass 2
    streams the corpus once more and scores every document by the SUM of
    the global counts of its bigram OCCURRENCES (multiplicity kept).
    Familiar wording scores high; rare wording low. Everything is int64,
    so the oracle compare is exact with no float anywhere.

    Bigrams build vectorized: one flatten per batch, shifted views for
    the pairs, document boundaries masked by index arithmetic — no
    per-token Python. A document never straddles batch rows, so per-doc
    scores close inside the batch and the output needs no shuffle.
    (Unbounded vocabularies would swap the broadcast for the
    Misra-Gries heavy-hitter + bucketed-join path beside it.)"""
    import ray

    def _pairs(df: pd.DataFrame):
        toks = df["text"].str.split(" ")
        lens = toks.str.len().to_numpy(np.int64)
        flat = np.concatenate(toks.to_numpy())
        if len(flat) < 2:
            return None
        keep = np.ones(len(flat) - 1, dtype=bool)
        last = np.cumsum(lens) - 1            # last-token positions
        keep[last[:-1]] = False               # pairs may not cross docs
        big = (pd.Series(flat[:-1], dtype=object)
               + " " + pd.Series(flat[1:], dtype=object))[keep]
        docs = np.repeat(df["doc_id"].to_numpy(), lens)[:-1][keep]
        return docs, big

    def train(df: pd.DataFrame) -> pd.DataFrame:
        p = _pairs(df)
        if p is None:
            return pd.DataFrame({"bigram": pd.Series(dtype=object),
                                 "n": pd.Series(dtype=np.int64)})
        return pd.DataFrame({"bigram": p[1], "n": np.int64(1)})

    model = reduce_partials(_docs(sf_dir, ("doc_id", "text")), "bigram",
                            train).set_index("bigram")["n"]
    ref = ray.put(model.to_dict())

    def score(df: pd.DataFrame) -> pd.DataFrame:
        p = _pairs(df)
        if p is None:
            return pd.DataFrame({"doc_id": pd.Series(dtype=np.int64),
                                 "n_bigrams": pd.Series(dtype=np.int64),
                                 "familiarity": pd.Series(dtype=np.int64)})
        docs, big = p
        cnt = big.map(broadcast_get(ref)).to_numpy(np.int64)
        return (pd.DataFrame({"doc_id": docs, "c": cnt})
                .groupby("doc_id", as_index=False)
                .agg(n_bigrams=("c", "size"), familiarity=("c", "sum")))

    out = (_docs(sf_dir, ("doc_id", "text"))
           .map_batches(score, batch_format="pandas").to_pandas())
    return (out.astype({"n_bigrams": "int64", "familiarity": "int64"})
               .sort_values("doc_id").reset_index(drop=True))


def q_vocab_coverage(sf_dir: str, pct: int = 95) -> pd.DataFrame:
    """Vocabulary coverage curve closed at one point — the tokenizer-prep
    question "how many word types cover 95% of all tokens?". Word counts
    come from per-batch combiners merged through a bucketed shuffle
    (counts by word — works unbounded; only the final word table, one row
    per TYPE, reaches the driver for the rank/cumsum close, and at a
    vocabulary too large even for that the close becomes a distributed
    sort + running-total scan). The coverage test stays in integers
    (100*cum >= pct*total) — no float crosses anywhere."""
    def partial(df: pd.DataFrame) -> pd.DataFrame:
        c = df["text"].str.split(" ").explode().value_counts()
        return pd.DataFrame({"w": c.index.to_numpy(),
                             "n": c.to_numpy(np.int64)})

    words = bucketed_group_apply(
        _docs(sf_dir, ("doc_id", "text")).map_batches(
            partial, batch_format="pandas"),
        "w", lambda g: g.groupby("w", as_index=False)["n"].sum()).to_pandas()
    words = words.sort_values(["n", "w"], ascending=[False, True],
                              kind="mergesort").reset_index(drop=True)
    cum = words["n"].cumsum().to_numpy()
    total = int(cum[-1])
    hit = int(np.argmax(100 * cum >= pct * total))   # first qualifying rank
    return pd.DataFrame({
        "total_tokens": [np.int64(total)],
        "vocab_size": [np.int64(len(words))],
        "vocab_95": [np.int64(hit + 1)],
        "covered_tokens": [np.int64(cum[hit])]})


def q_lm_logprob_scores(sf_dir: str) -> pd.DataFrame:
    """Bigram LM LOG-PROBABILITY scoring (the proper perplexity filter
    beside the integer familiarity score): the model is the corpus's MLE
    conditional P(b|a) = c(a,b) / c(a,·); each document scores its mean
    log-probability over its bigram occurrences. Counts stay exact
    integers in the broadcast model; per-occurrence terms evaluate
    LN(c::DOUBLE / mc::DOUBLE) through libm (math.log — bitwise DuckDB LN
    parity; np.log drifts), and the per-doc mean rounds to 4 decimals —
    sums are a few hundred terms of magnitude <= ~8, so summation-order
    noise (~1e-13) cannot reach the 4th decimal. Two streaming passes,
    O(vocab^2) driver state, per-doc scores close in-batch."""
    import math

    import ray

    from ..functions.numeric import round_half_away

    def _pairs(df: pd.DataFrame):
        toks = df["text"].str.split(" ")
        lens = toks.str.len().to_numpy(np.int64)
        flat = np.concatenate(toks.to_numpy())
        if len(flat) < 2:
            return None
        keep = np.ones(len(flat) - 1, dtype=bool)
        last = np.cumsum(lens) - 1
        keep[last[:-1]] = False
        big = (pd.Series(flat[:-1], dtype=object)
               + " " + pd.Series(flat[1:], dtype=object))[keep]
        docs = np.repeat(df["doc_id"].to_numpy(), lens)[:-1][keep]
        return docs, big

    def train(df: pd.DataFrame) -> pd.DataFrame:
        p = _pairs(df)
        if p is None:
            return pd.DataFrame({"bigram": pd.Series(dtype=object),
                                 "n": pd.Series(dtype=np.int64)})
        return pd.DataFrame({"bigram": p[1], "n": np.int64(1)})

    model = reduce_partials(_docs(sf_dir, ("doc_id", "text")), "bigram",
                            train).set_index("bigram")["n"]
    first = model.index.str.split(" ").str[0]
    marginal = model.groupby(first.to_numpy()).sum()   # c(a, ·)
    mref = ray.put((model.to_dict(), marginal.to_dict()))

    def score(df: pd.DataFrame) -> pd.DataFrame:
        p = _pairs(df)
        if p is None:
            return pd.DataFrame({
                "doc_id": pd.Series(dtype=np.int64),
                "n_bigrams": pd.Series(dtype=np.int64),
                "avg_logprob": pd.Series(dtype=np.float64)})
        model, marginal = broadcast_get(mref)
        docs, big = p
        c = big.map(model).to_numpy(np.float64)
        mc = (big.str.split(" ").str[0].map(marginal)
              .to_numpy(np.float64))
        lp = np.fromiter((math.log(v) for v in c / mc),
                         dtype=np.float64, count=len(c))
        g = (pd.DataFrame({"doc_id": docs, "lp": lp})
             .groupby("doc_id", as_index=False)
             .agg(n_bigrams=("lp", "size"), s=("lp", "sum")))
        return pd.DataFrame({
            "doc_id": g["doc_id"],
            "n_bigrams": g["n_bigrams"].astype(np.int64),
            "avg_logprob": round_half_away(
                (g["s"] / g["n_bigrams"]).to_numpy(), 4)})

    out = (_docs(sf_dir, ("doc_id", "text"))
           .map_batches(score, batch_format="pandas").to_pandas())
    return (out.astype({"n_bigrams": "int64"})
               .sort_values("doc_id").reset_index(drop=True))


def q_source_kl_divergence(sf_dir: str) -> pd.DataFrame:
    """KL divergence of each source's word distribution from the corpus
    distribution — the mixture-audit a curation pipeline runs to spot
    off-distribution slices: (source, word) counts are mergeable integer
    partials over a bounded vocabulary; the closed form
    sum_w (c_sw/n_s) * ln((c_sw/n_s) / (c_w/n)) evaluates on the driver
    through libm with the oracle stating the identical per-term
    expression, rounded to 6 (the ~vocab-sized sum keeps order noise
    ~1e-15). Wire cost: one row per (source, word TYPE)."""
    import math

    from ..functions.numeric import round_half_away

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        e = df[["source", "text"]].copy()
        e["w"] = e.pop("text").str.split(" ")
        return e.explode("w").assign(c=np.int64(1))

    c = reduce_partials(_docs(sf_dir, ("source", "text")), ["source", "w"],
                        partial)
    ns = c.groupby("source")["c"].transform("sum").to_numpy(np.float64)
    cw = c.groupby("w")["c"].transform("sum").to_numpy(np.float64)
    n = np.float64(c["c"].sum())
    cc = c["c"].to_numpy(np.float64)
    terms = (cc / ns) * np.fromiter(
        (math.log(v) for v in (cc / ns) / (cw / n)),
        dtype=np.float64, count=len(cc))
    out = (c.assign(t=terms).groupby("source", as_index=False)["t"].sum())
    return pd.DataFrame({
        "source": out["source"],
        "kl_divergence": round_half_away(out["t"].to_numpy(), 6)}) \
        .sort_values("source").reset_index(drop=True)


def q_token_pmi_topk(sf_dir: str, k: int = 20) -> pd.DataFrame:
    """Top-k word pairs by pointwise mutual information over
    DOCUMENT-level co-occurrence — the collocation-mining pass behind
    phrase induction: each batch dedups (doc, word), explodes each doc's
    sorted distinct words into unordered pairs with the ragged
    vectorized arange (bounded by the largest doc's vocabulary, never
    the corpus), and pair/doc-frequency count partials merge as integers
    (the pair table is vocabulary-bounded). PMI = ln(n_ab*N / (n_a*n_b))
    evaluates through libm on exact integer products; ranking uses the
    ROUNDED score with a (word_a, word_b) tie break, so the top-k cut is
    deterministic in both engines."""
    import math

    from ..functions.numeric import round_half_away

    def pair_partial(df: pd.DataFrame) -> pd.DataFrame:
        e = df[["doc_id", "text"]].copy()
        e["w"] = e.pop("text").str.split(" ")
        e = (e.explode("w").drop_duplicates(["doc_id", "w"])
              .sort_values(["doc_id", "w"], kind="mergesort"))
        m = e.groupby("doc_id", sort=False)["w"].transform("size").to_numpy()
        pos = e.groupby("doc_id", sort=False).cumcount().to_numpy()
        cnt = m - pos - 1
        a_idx = np.repeat(np.arange(len(e)), cnt)
        starts = np.cumsum(cnt) - cnt
        b_idx = (np.arange(int(cnt.sum())) - np.repeat(starts, cnt)
                 + np.repeat(np.arange(len(e)) + 1, cnt))
        words = e["w"].to_numpy()
        return pd.DataFrame({"wa": words[a_idx], "wb": words[b_idx],
                             "n": np.int64(1)})

    def df_partial(df: pd.DataFrame) -> pd.DataFrame:
        e = df[["doc_id", "text"]].copy()
        e["w"] = e.pop("text").str.split(" ")
        u = e.explode("w").drop_duplicates(["doc_id", "w"])
        return pd.DataFrame({"w": u["w"], "df": np.int64(1)})

    docs = _docs(sf_dir, ("doc_id", "text"))
    pairs = reduce_partials(docs, ["wa", "wb"], pair_partial)
    wdf = reduce_partials(docs, "w", df_partial).set_index("w")["df"]
    n_docs = np.int64(docs.count())

    cab = pairs["n"].to_numpy(np.int64)
    na = pairs["wa"].map(wdf).to_numpy(np.int64)
    nb = pairs["wb"].map(wdf).to_numpy(np.int64)
    ratio = (cab * n_docs).astype(np.float64) / (na * nb).astype(np.float64)
    pmi = np.fromiter((math.log(v) for v in ratio),
                      dtype=np.float64, count=len(ratio))
    out = pd.DataFrame({"word_a": pairs["wa"], "word_b": pairs["wb"],
                        "n_docs_both": cab,
                        "pmi": round_half_away(pmi, 6)})
    return (out.sort_values(["pmi", "word_a", "word_b"],
                            ascending=[False, True, True])
               .head(k).reset_index(drop=True))


def q_char_entropy(sf_dir: str) -> pd.DataFrame:
    """Character-level Shannon entropy of the corpus — the alphabet
    statistic compression and tokenizer design start from: per-batch
    byte counts come from ONE np.bincount over the batch's concatenated
    ASCII buffer (no per-char Python), merge as integer sums over the
    bounded alphabet, and the entropy closes on the driver through libm
    (round 6 bounds the ~alphabet-sized sum's order noise)."""
    import math

    from ..functions.numeric import round_half_away

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        buf = np.frombuffer("".join(df["text"]).encode("ascii"), np.uint8)
        cnt = np.bincount(buf, minlength=128)
        nz = np.nonzero(cnt)[0]
        return pd.DataFrame({"ch": [chr(c) for c in nz],
                             "n": cnt[nz].astype(np.int64)})

    c = reduce_partials(_docs(sf_dir, ("doc_id", "text")), "ch", partial)
    cc = c["n"].to_numpy(np.float64)
    n = cc.sum()
    terms = (cc / n) * np.fromiter(
        (math.log(v) for v in cc / n), dtype=np.float64, count=len(cc))
    return pd.DataFrame({
        "n_chars": [np.int64(int(n))],
        "n_symbols": [np.int64(len(c))],
        "entropy": [round_half_away(-float(terms.sum()), 6)]})


def q_source_similarity(sf_dir: str) -> pd.DataFrame:
    """Pairwise histogram-intersection similarity between sources
    (sum over words of min(p_a, p_b)) — the distribution-overlap matrix
    a mixture designer reads next to KL: per-(source, word) integer
    count partials over the bounded vocabulary, then the tiny
    driver-side pair close; every p is an exact-integer division and
    MIN is order-free, so only the final ~vocab-sized sum needs the
    round-6 guard."""
    import itertools

    from ..functions.numeric import round_half_away

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        e = df[["source", "text"]].copy()
        e["w"] = e.pop("text").str.split(" ")
        return e.explode("w").assign(c=np.int64(1))

    c = reduce_partials(_docs(sf_dir, ("source", "text")), ["source", "w"],
                        partial)
    piv = (c.pivot(index="w", columns="source", values="c")
            .fillna(0).astype(np.int64))
    totals = piv.sum(axis=0).to_numpy(np.float64)
    sources = list(piv.columns)
    rows = []
    for i, j in itertools.combinations(range(len(sources)), 2):
        pa = piv.iloc[:, i].to_numpy(np.float64) / totals[i]
        pb = piv.iloc[:, j].to_numpy(np.float64) / totals[j]
        rows.append((sources[i], sources[j],
                     round_half_away(float(np.minimum(pa, pb).sum()), 6)))
    return (pd.DataFrame(rows, columns=["source_a", "source_b",
                                        "similarity"])
            .sort_values(["source_a", "source_b"]).reset_index(drop=True))


def q_doc_novelty(sf_dir: str) -> pd.DataFrame:
    """Per-document NOVELTY: the fraction of a doc's bigram TYPES that
    appear in no other document (global type count == the doc's own
    count) — the memorization/leakage audit next to the familiarity
    score. Per-(doc, bigram-type) counts close in-batch (docs never
    straddle batches), global type counts broadcast once
    (vocabulary-bounded; the unbounded path is one bucketed join on the
    bigram), and novelty is ONE exact-integer division per doc."""
    import ray

    def _doc_types(df: pd.DataFrame):
        toks = df["text"].str.split(" ")
        lens = toks.str.len().to_numpy(np.int64)
        flat = np.concatenate(toks.to_numpy())
        if len(flat) < 2:
            return None
        keep = np.ones(len(flat) - 1, dtype=bool)
        last = np.cumsum(lens) - 1
        keep[last[:-1]] = False
        big = (pd.Series(flat[:-1], dtype=object)
               + " " + pd.Series(flat[1:], dtype=object))[keep]
        docs = np.repeat(df["doc_id"].to_numpy(), lens)[:-1][keep]
        return (pd.DataFrame({"doc_id": docs, "bigram": big})
                .groupby(["doc_id", "bigram"], as_index=False)
                .size().rename(columns={"size": "n"}))

    def train(df: pd.DataFrame) -> pd.DataFrame:
        t = _doc_types(df)
        if t is None:
            return pd.DataFrame({"bigram": pd.Series(dtype=object),
                                 "n": pd.Series(dtype=np.int64)})
        return t[["bigram", "n"]]

    docs = _docs(sf_dir, ("doc_id", "text"))
    model = reduce_partials(docs, "bigram", train).set_index("bigram")["n"]
    ref = ray.put(model.to_dict())

    def novelty(df: pd.DataFrame) -> pd.DataFrame:
        t = _doc_types(df)
        if t is None:
            return pd.DataFrame({
                "doc_id": pd.Series(dtype=np.int64),
                "n_types": pd.Series(dtype=np.int64),
                "n_unique": pd.Series(dtype=np.int64),
                "novelty": pd.Series(dtype=np.float64)})
        own = t["n"].to_numpy(np.int64)
        glob = t["bigram"].map(broadcast_get(ref)).to_numpy(np.int64)
        t = t.assign(u=(own == glob).astype(np.int64))
        a = t.groupby("doc_id", as_index=False).agg(
            n_types=("u", "size"), n_unique=("u", "sum"))
        return a.assign(novelty=a["n_unique"].to_numpy(np.float64)
                        / a["n_types"].to_numpy(np.float64))

    out = docs.map_batches(novelty, batch_format="pandas").to_pandas()
    return (out.astype({"n_types": "int64", "n_unique": "int64"})
               .sort_values("doc_id").reset_index(drop=True))


def q_type_token_ratio(sf_dir: str) -> pd.DataFrame:
    """Type-token ratio per document (lexical diversity — the quality
    signal next to stopword ratios): token and distinct-type counts
    close in-batch (docs never straddle batches), the ratio is ONE
    exact-integer division. No shuffle at all."""
    def partial(df: pd.DataFrame) -> pd.DataFrame:
        toks = df["text"].str.split(" ")
        n_tok = toks.str.len().to_numpy(np.int64)
        n_typ = np.fromiter((len(set(t)) for t in toks),
                            dtype=np.int64, count=len(toks))
        return pd.DataFrame({
            "doc_id": df["doc_id"].to_numpy(),
            "n_tokens": n_tok, "n_types": n_typ,
            "ttr": n_typ.astype(np.float64) / n_tok.astype(np.float64)})

    out = (_docs(sf_dir, ("doc_id", "text"))
           .map_batches(partial, batch_format="pandas").to_pandas())
    return (out.astype({"n_tokens": "int64", "n_types": "int64"})
               .sort_values("doc_id").reset_index(drop=True))


def q_hapax_rate(sf_dir: str) -> pd.DataFrame:
    """Hapax legomena rate per source — the vocabulary-health signal a
    corpus audit runs beside KL/coverage: the fraction of a source's word
    TYPES that occur exactly once. (source, word) integer count partials
    merge over the bounded vocabulary (one row per TYPE crosses the
    wire, never per token); the rate is ONE division of exact integers —
    identical IEEE both sides, unrounded."""
    def partial(df: pd.DataFrame) -> pd.DataFrame:
        e = df[["source", "text"]].copy()
        e["w"] = e.pop("text").str.split(" ")
        return e.explode("w").assign(c=np.int64(1))

    c = reduce_partials(_docs(sf_dir, ("source", "text")), ["source", "w"],
                        partial)
    out = c.groupby("source", as_index=False).agg(
        n_types=("c", "size"), n_hapax=("c", lambda s: int((s == 1).sum())))
    return (pd.DataFrame({
        "source": out["source"],
        "n_types": out["n_types"].astype("int64"),
        "n_hapax": out["n_hapax"].astype("int64"),
        "hapax_rate": (out["n_hapax"].to_numpy(np.float64)
                       / out["n_types"].to_numpy(np.float64))})
        .sort_values("source").reset_index(drop=True))


def q_zipf_slope(sf_dir: str, k: int = 100) -> pd.DataFrame:
    """Least-squares slope of the log-log rank-frequency curve per source
    (the Zipf fit a tokenizer/corpus designer checks): the top-k word
    types by the stated (count desc, word) order give (ln rank, ln count)
    points; the closed-form slope (n*Sxy - Sx*Sy)/(n*Sxx - Sx*Sx)
    evaluates through libm per term with the oracle stating the identical
    expression; the k-bounded sums keep order noise ~1e-14, so rounding
    to 6 is safe (the KL-divergence precedent). Wire cost: one integer
    count row per (source, word TYPE)."""
    import math

    from ..functions.numeric import round_half_away

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        e = df[["source", "text"]].copy()
        e["w"] = e.pop("text").str.split(" ")
        return e.explode("w").assign(c=np.int64(1))

    c = reduce_partials(_docs(sf_dir, ("source", "text")), ["source", "w"],
                        partial)
    c = c.sort_values(["source", "c", "w"],
                      ascending=[True, False, True], kind="mergesort")
    c["rk"] = c.groupby("source", sort=False).cumcount() + 1
    c = c[c["rk"] <= k]
    x = np.fromiter((math.log(float(v)) for v in c["rk"]),
                    dtype=np.float64, count=len(c))
    y = np.fromiter((math.log(float(v)) for v in c["c"]),
                    dtype=np.float64, count=len(c))
    t = pd.DataFrame({"source": c["source"].to_numpy(),
                      "x": x, "y": y, "xy": x * y, "xx": x * x})
    g = t.groupby("source", as_index=False).agg(
        n=("x", "size"), sx=("x", "sum"), sy=("y", "sum"),
        sxy=("xy", "sum"), sxx=("xx", "sum"))
    n = g["n"].to_numpy(np.float64)
    slope = (n * g["sxy"].to_numpy() - g["sx"].to_numpy() * g["sy"].to_numpy()) \
        / (n * g["sxx"].to_numpy() - g["sx"].to_numpy() * g["sx"].to_numpy())
    return (pd.DataFrame({"source": g["source"],
                          "n_points": g["n"].astype("int64"),
                          "zipf_slope": round_half_away(slope, 6)})
            .sort_values("source").reset_index(drop=True))


def q_vocab_growth_curve(sf_dir: str, block_docs: int = 25) -> pd.DataFrame:
    """Heaps'-law vocabulary growth curve — the tokenizer-budget planner:
    cumulative distinct word types vs token volume at fixed doc-id
    checkpoints. The distributed trick is FIRST-OCCURRENCE ATTRIBUTION:
    each type's first appearance is a min-reduce of doc_id inside token
    hash buckets (exact, order-free), each checkpoint then owns the
    count of types born in it, and the cumulative curve is one prefix
    sum over the bounded checkpoint table. Occurrence volume per
    checkpoint is an ordinary integer partial from the same scan. No
    global sort, no driver token set — only (token-hash-bucketed
    (token, min_doc) pairs and tiny integer cells move."""
    docs = base_dataset(sf_dir, "documents", columns=["doc_id", "text"])

    def tok_partial(df: pd.DataFrame) -> pd.DataFrame:
        toks = df["text"].str.split(" ")
        n = toks.str.len().to_numpy(np.int64)
        flat = pd.DataFrame({
            "tok": np.concatenate(toks.to_numpy()),
            "doc_id": np.repeat(df["doc_id"].to_numpy(np.int64), n)})
        return flat.groupby("tok", as_index=False)["doc_id"].min()

    def first_seen(g: pd.DataFrame) -> pd.DataFrame:
        f = g.groupby("tok", as_index=False)["doc_id"].min()
        cells = pd.DataFrame({"checkpoint": f["doc_id"].to_numpy(np.int64)
                              // block_docs, "n_new_types": np.int64(1)})
        return group_cells(cells, "checkpoint")

    births = reduce_partials(bucketed_group_apply(
        docs.map_batches(tok_partial, batch_format="pandas"),
        "tok", first_seen), "checkpoint")

    def occ_partial(df: pd.DataFrame) -> pd.DataFrame:
        n = df["text"].str.split(" ").str.len().to_numpy(np.int64)
        return pd.DataFrame({"checkpoint": df["doc_id"].to_numpy(np.int64)
                             // block_docs, "n_tokens": n})

    occ = reduce_partials(docs, "checkpoint", occ_partial)
    out = (occ.merge(births, on="checkpoint", how="left").fillna(0)
              .astype({"n_new_types": "int64"}))
    out["cum_types"] = out["n_new_types"].cumsum().astype("int64")
    return out


def q_stopword_ratio_by_source(sf_dir: str) -> pd.DataFrame:
    """Stopword-mass profile per source — the register/quality signal
    beside hapax rate and type-token ratio: what fraction of each
    source's token stream is function words? Per-batch (source,
    stop, total) integer partials only; the 7-word list is stated
    verbatim in the oracle so the classifier is identical, and the one
    share division is exact int/int."""
    docs = base_dataset(sf_dir, "documents", columns=["source", "text"])
    stops = EN_STOPWORDS

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        toks = df["text"].str.split(" ")
        n = toks.str.len().to_numpy(np.int64)
        return pd.DataFrame({
            "source": np.repeat(df["source"].to_numpy(), n),
            "n_stop": np.isin(np.concatenate(toks.to_numpy()),
                              list(stops)).astype(np.int64),
            "n_tokens": np.int64(1)})

    out = reduce_partials(docs, "source", partial)
    out["stop_share"] = (out["n_stop"].to_numpy(np.float64)
                         / out["n_tokens"].to_numpy(np.float64))
    return out


def q_compression_ratio_by_source(sf_dir: str) -> pd.DataFrame:
    """Compressibility audit per source (rows-only: no SQL zlib) — the
    RefinedWeb-style redundancy signal: highly compressible text is
    boilerplate/repetition, incompressible text is noise; both tails get
    cut in curation. zlib level 6 per document inside map_batches (the
    codec's inherent per-doc unit — a REAL compressor, deterministic
    across runs and platforms by the DEFLATE spec), per-batch (source,
    raw, compressed) integer partials, one exact division per source.
    Determinism + ratio-sanity are pytest-pinned."""
    import zlib

    docs = base_dataset(sf_dir, "documents", columns=["source", "text"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        raw = df["text"].str.len().to_numpy(np.int64)
        comp = np.fromiter(
            (len(zlib.compress(t.encode(), 6)) for t in df["text"]),
            dtype=np.int64, count=len(df))
        return pd.DataFrame({"source": df["source"].to_numpy(),
                             "raw_bytes": raw, "comp_bytes": comp})

    out = reduce_partials(docs, "source", partial)
    out["ratio"] = (out["comp_bytes"].to_numpy(np.float64)
                    / out["raw_bytes"].to_numpy(np.float64))
    return out


def q_token_fertility_by_source(sf_dir: str) -> pd.DataFrame:
    """Tokenizer fertility per source — the budget multiplier between a
    whitespace word count and the BPE-ish regex tokenization (words +
    punctuation marks): fertility > 1 means punctuation-heavy text that
    will cost more subword tokens than its word count suggests. BOTH
    counts come from the same one pass (vectorized str kernels, the
    regex identical to the oracle's regexp_extract_all), partials are
    integers, and the fertility division is exact int/int."""
    from ..stages.textstats import _BPE_TOKEN

    docs = base_dataset(sf_dir, "documents", columns=["source", "text"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        ws = df["text"].str.split(" ").str.len().astype("int64")
        bpe = df["text"].str.count(_BPE_TOKEN).astype("int64")
        return pd.DataFrame({"source": df["source"].to_numpy(),
                             "n_ws_tokens": ws, "n_regex_tokens": bpe})

    out = reduce_partials(docs, "source", partial)
    out["fertility"] = (out["n_regex_tokens"].to_numpy(np.float64)
                        / out["n_ws_tokens"].to_numpy(np.float64))
    return out


def q_commonest_bigram_per_source(sf_dir: str) -> pd.DataFrame:
    """Per-source modal bigram — argmax-by-count over an EXPLODED
    feature: bigram counts resolve exactly inside bigram-hash buckets
    (the same key a global top-k would use), then each bucket emits one
    CANDIDATE winner per source and the driver merges candidates under
    the stated total order (count desc, bigram asc) — the argmax is
    mergeable once counts are final, so the big (source, bigram) table
    never gathers. The oracle states the same window order."""
    docs = base_dataset(sf_dir, "documents", columns=["source", "text"])

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        toks = df["text"].str.split(" ")
        rows_src, rows_bg = [], []
        for s, t in zip(df["source"], toks):
            rows_src.extend([s] * max(len(t) - 1, 0))
            rows_bg.extend(a + " " + b for a, b in zip(t, t[1:]))
        return (pd.DataFrame({"source": rows_src, "bigram": rows_bg,
                              "n": np.int64(1)})
                .groupby(["source", "bigram"], as_index=False).sum())

    def bucket_winner(g: pd.DataFrame) -> pd.DataFrame:
        c = g.groupby(["source", "bigram"], as_index=False)["n"].sum()
        c = c.sort_values(["source", "n", "bigram"],
                          ascending=[True, False, True])
        return c.drop_duplicates("source", keep="first")

    cand = bucketed_group_apply(
        docs.map_batches(pairs, batch_format="pandas"),
        "bigram", bucket_winner).to_pandas()
    out = (cand.sort_values(["source", "n", "bigram"],
                            ascending=[True, False, True])
               .drop_duplicates("source", keep="first"))
    return (out.astype({"n": "int64"})
               .rename(columns={"n": "n_occurrences"})
               .sort_values("source").reset_index(drop=True))
