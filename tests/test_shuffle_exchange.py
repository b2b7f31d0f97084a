"""The hash exchange behind `bucketed_group_apply` and `bucketed_join`.

Both run over plain Ray tasks (`stages/shuffle._exchange`): one cut task
per input block, one apply task per non-empty bucket. These tests pin
that no Ray Data all-to-all runs, that bucket functions never see an
empty bucket, that output blocks keep their columns, that in-bucket
arrival order follows block order, and the exchange count of
`ngram_jaccard_pairs`.
"""

import itertools

import numpy as np
import pandas as pd
import pytest
import ray
import ray.data as rd

from vbpl_web_crawl_ray.functions.numeric import round_half_away
from vbpl_web_crawl_ray.stages import dedup, shuffle
from vbpl_web_crawl_ray.stages.shuffle import (bucket_of, bucketed_group_apply,
                                               bucketed_join, group_cells,
                                               reduce_partials)
from vbpl_web_crawl_ray.stages.upsert import last_write_wins

#: Ray Data operators that run an all-to-all exchange.
ALL_TO_ALL = ("groupby", "sort", "repartition", "random_shuffle", "join",
              "aggregate", "unique")


@pytest.fixture
def no_all_to_all(monkeypatch):
    """Make every Ray Data all-to-all raise on the driver."""
    def refuse(name):
        def f(self, *a, **k):
            raise AssertionError(f"Dataset.{name} called")
        return f
    for name in ALL_TO_ALL:
        monkeypatch.setattr(rd.Dataset, name, refuse(name))


@pytest.fixture
def exchanges(monkeypatch):
    """Count the calls of the task exchange."""
    calls = []
    real = shuffle._exchange

    def counted(*a, **k):
        calls.append(1)
        return real(*a, **k)

    monkeypatch.setattr(shuffle, "_exchange", counted)
    return calls


def _brute_force_jaccard(sf_dir, threshold=0.5, n=3):
    pdf = pd.read_parquet(f"{sf_dir}/documents.parquet",
                          columns=["doc_id", "text"])
    sets = {d: set(dedup._shingles(t.split(" "), n))
            for d, t in zip(pdf["doc_id"], pdf["text"])}
    rows = []
    for a, b in itertools.combinations(sorted(sets), 2):
        inter = len(sets[a] & sets[b])
        union = len(sets[a]) + len(sets[b]) - inter
        if union and inter / union >= threshold:
            rows.append((a, b, round_half_away(inter / union, 4)))
    return pd.DataFrame(rows, columns=["id_a", "id_b", "jaccard"]).astype(
        {"id_a": np.int64, "id_b": np.int64, "jaccard": np.float64})


def test_ngram_jaccard_pairs_without_all_to_all(sf_dir, no_all_to_all,
                                                exchanges):
    got = dedup.ngram_jaccard_pairs(sf_dir, threshold=0.5)
    want = _brute_force_jaccard(sf_dir)
    assert len(want) > 0
    pd.testing.assert_frame_equal(got, want, check_exact=True)
    # three prefix-filter exchanges plus the broadcast verify's pair dedup
    assert len(exchanges) == 4


def test_bucketed_join_without_all_to_all(no_all_to_all):
    rng = np.random.default_rng(3)
    left = pd.DataFrame({"k": rng.integers(0, 40, 300).astype(np.int64),
                         "a": np.arange(300, dtype=np.int64)})
    right = pd.DataFrame({"rk": rng.integers(0, 40, 90).astype(np.int64),
                          "b": np.arange(90, dtype=np.int64)})
    ds_l = rd.from_pandas([left.iloc[:150], left.iloc[150:]])
    for how in ("inner", "left"):
        got = (bucketed_join(ds_l, rd.from_pandas(right), on="k",
                             right_on="rk", how=how, num_buckets=5)
               .to_pandas().sort_values(["k", "a", "b"])
               .reset_index(drop=True))
        want = (left.merge(right.rename(columns={"rk": "k"}), on="k",
                           how=how)
                .sort_values(["k", "a", "b"]).reset_index(drop=True))
        if how == "left":   # the declared Arrow type keeps int64 nullable
            got["b"] = got["b"].astype(np.float64)
        pd.testing.assert_frame_equal(got, want, check_exact=True)


def test_bucketed_group_apply_without_all_to_all(no_all_to_all):
    rng = np.random.default_rng(5)
    frame = pd.DataFrame({"k": rng.integers(0, 50, 1000).astype(np.int64),
                          "v": rng.integers(0, 100, 1000).astype(np.int64)})
    ds = rd.from_pandas([frame.iloc[i:i + 250] for i in range(0, 1000, 250)])
    out = bucketed_group_apply(
        ds, "k", lambda g: group_cells(g, "k"), num_buckets=6,
        partial_fn=lambda df: group_cells(df, "k"))
    got = out.to_pandas().sort_values("k").reset_index(drop=True)
    want = frame.groupby("k", as_index=False).sum()
    pd.testing.assert_frame_equal(got, want, check_exact=True)


def test_bucket_fn_never_sees_an_empty_bucket():
    keys = np.array([11, 29], dtype=np.int64)
    assert len(set(bucket_of(keys, 16))) == 2
    frame = pd.DataFrame({"k": np.repeat(keys, 5),
                          "v": np.arange(10, dtype=np.int64)})

    def count(g: pd.DataFrame) -> pd.DataFrame:
        if g.empty:
            raise AssertionError("bucket_fn called on an empty bucket")
        return g.groupby("k", as_index=False).agg(n=("v", "size"))

    out = bucketed_group_apply(
        rd.from_pandas([frame.iloc[:3], frame.iloc[3:]]), "k", count,
        num_buckets=16)
    blocks = ray.get([ref for bundle in out.iter_internal_ref_bundles()
                      for ref in bundle.block_refs])
    assert len(blocks) == 2
    assert all(list(b.columns) == ["k", "n"] for b in blocks)
    got = pd.concat(blocks).sort_values("k").reset_index(drop=True)
    assert got["n"].tolist() == [5, 5]


def test_last_write_wins_tie_keeps_the_later_block():
    first = pd.DataFrame({"k": np.arange(6, dtype=np.int64),
                          "ts": np.int64(5), "v": "first"})
    later = first.assign(v="later")
    out = last_write_wins(rd.from_pandas([first, later]), ["k"], "ts",
                          num_buckets=4).to_pandas()
    assert sorted(out["k"]) == list(range(6))
    assert (out["v"] == "later").all()


def test_all_empty_input_keeps_the_cell_columns():
    empty = pd.DataFrame({"k": pd.Series(dtype=np.int64),
                          "v": pd.Series(dtype=np.int64)})
    out = bucketed_group_apply(
        rd.from_pandas(empty), "k",
        lambda g: group_cells(g.assign(n=np.int64(1))[["k", "n"]], "k"),
        num_buckets=8)
    got = reduce_partials(out, "k")
    assert got.empty and list(got.columns) == ["k", "n"]
    assert got["n"].dtype == np.int64
