"""Bloom semi/anti joins and hot-key-salted aggregation."""

import numpy as np
import pandas as pd
import ray.data as rd

from vbpl_web_crawl_ray.stages.joins import (bloom_anti_join, bloom_semi_join,
                                             build_key_bloom, salted_group_agg)


def _events():
    rng = np.random.default_rng(3)
    return pd.DataFrame({"k": rng.integers(0, 100, 5000),
                         "v": rng.random(5000)})


def test_bloom_semi_join_no_false_negatives():
    df = _events()
    keys = set(range(0, 100, 7))
    bf = build_key_bloom(sorted(keys))
    got = bloom_semi_join(rd.from_pandas(df), "k", bf).to_pandas()
    want = df[df["k"].isin(keys)]
    # every true match survives; FPs possible but rare at 0.1%
    assert set(want.index) <= set(got.index)
    assert len(got) <= len(want) * 1.05 + 5


def test_bloom_anti_join_exact_with_verify():
    df = _events()
    keys = sorted(set(range(0, 100, 7)))
    bf = build_key_bloom(keys)
    got = bloom_anti_join(rd.from_pandas(df), "k", bf,
                          exact_keys=keys).to_pandas()
    want = df[~df["k"].isin(set(keys))]
    assert sorted(got.index) == sorted(want.index)


def test_salted_group_agg_matches_plain_sum():
    # skewed: 80% of rows on one hot key
    rng = np.random.default_rng(11)
    k = np.where(rng.random(20000) < 0.8, 0, rng.integers(1, 50, 20000))
    df = pd.DataFrame({"k": k, "v": rng.random(20000)})

    def partial(d):
        return d.groupby("k", as_index=False).agg(s=("v", "sum"),
                                                  n=("v", "size"))

    def merge(d):
        return d.groupby("k", as_index=False).agg(s=("s", "sum"),
                                                  n=("n", "sum"))

    out = salted_group_agg(rd.from_pandas(df), "k", partial, merge,
                           salt=4).to_pandas().sort_values("k")
    want = df.groupby("k", as_index=False).agg(s=("v", "sum"),
                                               n=("v", "size")).sort_values("k")
    assert list(out["k"]) == list(want["k"])
    assert list(out["n"]) == list(want["n"])
    assert np.allclose(out["s"].to_numpy(), want["s"].to_numpy())


def test_bucketed_join_matches_pandas_merge():
    """bucketed_join (single-exchange equi-join) == pd.merge,
    including 64-bit hash keys that would corrupt via a float round-trip
    and string payloads needing typed null padding."""
    from vbpl_web_crawl_ray.stages.shuffle import bucketed_join
    rng = np.random.default_rng(7)
    big = np.array([-9204192446649557554, 9214484546570052943,
                    (1 << 62) + 12345], dtype=np.int64)
    lk = np.concatenate([rng.integers(0, 500, 3000).astype(np.int64), big])
    left = pd.DataFrame({"k": lk, "a": np.arange(len(lk), dtype=np.int64)})
    rk = np.concatenate([rng.integers(0, 400, 600).astype(np.int64), big])
    right = pd.DataFrame({"k": rk, "b": [f"s{i}" for i in range(len(rk))]})
    got = (bucketed_join(rd.from_pandas(left), rd.from_pandas(right),
                         on="k", num_buckets=4)
           .to_pandas().sort_values(["k", "a", "b"]).reset_index(drop=True))
    want = (left.merge(right, on="k", how="inner")
                .sort_values(["k", "a", "b"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(got, want)
    # the 64-bit keys survived exactly
    assert set(big) <= set(got["k"])


def test_bucketed_join_output_has_no_schema_metadata():
    """Ray Data cannot hash a schema carrying pandas metadata (it warns
    and skips schema de-duplication), so the merged blocks carry none."""
    import ray
    from vbpl_web_crawl_ray.stages.shuffle import bucketed_join
    left = pd.DataFrame({"k": np.arange(20, dtype=np.int64),
                         "a": np.arange(20, dtype=np.int64)})
    right = pd.DataFrame({"k": np.arange(0, 20, 2, dtype=np.int64),
                          "b": [f"s{i}" for i in range(10)]})
    out = bucketed_join(rd.from_pandas(left), rd.from_pandas(right),
                        on="k", num_buckets=3).materialize()
    assert out.schema().base_schema.metadata is None
    blocks = ray.get(out.to_arrow_refs())
    assert sum(len(t) for t in blocks) == 10
    assert all(t.schema.metadata is None for t in blocks if len(t))


def test_bucketed_join_right_on_and_left_how():
    from vbpl_web_crawl_ray.stages.shuffle import bucketed_join
    left = pd.DataFrame({"k": np.arange(10, dtype=np.int64),
                         "a": np.arange(10, dtype=np.int64)})
    right = pd.DataFrame({"rk": np.arange(0, 10, 2, dtype=np.int64),
                          "b": np.arange(5, dtype=np.int64)})
    got = (bucketed_join(rd.from_pandas(left), rd.from_pandas(right),
                         on="k", right_on="rk", num_buckets=3, how="left")
           .to_pandas().sort_values("k").reset_index(drop=True))
    want = (left.merge(right.rename(columns={"rk": "k"}), on="k", how="left")
                .sort_values("k").reset_index(drop=True))
    pd.testing.assert_frame_equal(got, want)
