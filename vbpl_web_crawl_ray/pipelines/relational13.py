"""Round-5 session-3 batch 8: source vocabulary overlap, join fanout
histogram.

- ``source_vocab_overlap``: the pairwise corpus-similarity matrix a
  mixture designer reads next to per-source novelty — for every source
  pair, the vocabulary intersection / union / Jaccard. Distinct from
  ``ngram_novelty_by_source`` (exclusivity of grams to ONE source):
  this is the symmetric pairwise view on unigram vocabularies.
- ``join_fanout_histogram``: the skew audit run before choosing a join
  strategy — per orders key, the lineitem fanout, reported as a
  count-of-counts histogram (fanout -> number of keys). A heavy tail
  here is exactly what makes a shuffle join skewed and argues for
  salting / broadcast; the audit costs one key-hash bucket pass.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..sources.tablecache import base_dataset
from ..stages.shuffle import bucketed_group_apply, group_cells, reduce_partials


def q_source_vocab_overlap(sf_dir: str) -> pd.DataFrame:
    """Per unordered source pair: |vocab_a|, |vocab_b|, intersection,
    union and Jaccard of their distinct word vocabularies (word =
    space-split token, the corpus contract). Jaccard = inter/union is
    ONE stated double division from exact integers.

    100-TB shape: batches emit DISTINCT (word, source) partials; one
    word-hash bucket shuffle; each bucket re-distincts its words and
    emits per-pair co-occurrence + per-source word-count partials —
    all bounded by |sources|^2 per bucket; documents never gather."""
    docs = base_dataset(sf_dir, "documents", columns=["source", "text"])

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        w = df["text"].str.split(" ")
        out = pd.DataFrame({
            "word": np.concatenate(w.to_numpy()),
            "source": np.repeat(df["source"].to_numpy(object),
                                w.str.len().to_numpy())})
        return out.drop_duplicates()

    pairs_src = docs.map_batches(explode, batch_format="pandas")

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        d = g.drop_duplicates(["word", "source"])
        singles = pd.DataFrame({"kind": "s", "key": d["source"],
                                "n": np.int64(1)})
        m = d.merge(d, on="word")
        m = m[m["source_x"] < m["source_y"]]
        co = pd.DataFrame({"kind": "p",
                           "key": m["source_x"] + "|" + m["source_y"],
                           "n": np.int64(1)})
        cells = pd.concat([singles, co], ignore_index=True)
        return group_cells(cells, ["kind", "key"])

    parts = reduce_partials(
        bucketed_group_apply(pairs_src, "word", per_bucket), ["kind", "key"])
    vocab = dict(zip(parts.loc[parts["kind"] == "s", "key"],
                     parts.loc[parts["kind"] == "s", "n"]))
    srcs = sorted(vocab)
    co = dict(zip(parts.loc[parts["kind"] == "p", "key"],
                  parts.loc[parts["kind"] == "p", "n"]))
    rows = []
    for i, a in enumerate(srcs):
        for b in srcs[i + 1:]:
            inter = int(co.get(a + "|" + b, 0))
            union = int(vocab[a]) + int(vocab[b]) - inter
            rows.append((a, b, int(vocab[a]), int(vocab[b]), inter,
                         union, inter / union))
    out = pd.DataFrame(rows, columns=["source_a", "source_b", "n_a",
                                      "n_b", "n_inter", "n_union",
                                      "jaccard"])
    return (out.astype({c: "int64" for c in
                        ("n_a", "n_b", "n_inter", "n_union")})
            .sort_values(["source_a", "source_b"])
            .reset_index(drop=True))


def q_join_fanout_histogram(sf_dir: str) -> pd.DataFrame:
    """Count-of-counts of the orders->lineitem join key: for each
    fanout value (lineitems per order key, 0 included via the orders
    side), how many keys have it. The 0-fanout row counts order keys
    with no lineitems — the part a lineitem-only scan cannot see.

    100-TB shape: tagged two-source union through one key-hash bucket
    shuffle; buckets emit (fanout, n_keys) partials bounded by the max
    fanout; the driver merge is a tiny histogram."""
    li = base_dataset(sf_dir, "lineitem", columns=["l_orderkey"])
    orders = base_dataset(sf_dir, "orders", columns=["o_orderkey"])

    def li_partial(df: pd.DataFrame) -> pd.DataFrame:
        vc = df["l_orderkey"].value_counts()   # per-batch combiner
        return pd.DataFrame({"k": vc.index.to_numpy(np.int64),
                             "cnt": vc.to_numpy(np.int64)})

    tagged = (li.map_batches(li_partial, batch_format="pandas")
              .union(orders.map_batches(
                  lambda df: pd.DataFrame({
                      "k": df["o_orderkey"].to_numpy(np.int64),
                      "cnt": np.int64(0)}), batch_format="pandas")))

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        fan = g.groupby("k")["cnt"].sum()     # lineitems per key
        cells = pd.DataFrame({"fanout": fan.to_numpy(np.int64),
                              "n_keys": np.int64(1)})
        return group_cells(cells, "fanout")

    return reduce_partials(bucketed_group_apply(tagged, "k", per_bucket),
                           "fanout")
