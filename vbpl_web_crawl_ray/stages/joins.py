"""Join helpers for the 100 TB regime.

- :func:`bloom_semi_join` / :func:`bloom_anti_join`: when the key set is
  too large to broadcast exactly, broadcast a Bloom filter of it instead —
  constant memory per worker, no false negatives (semi keeps every true
  match; anti may rarely drop a non-match at the filter's FP rate, so anti
  gets an exact verification pass against the true key set only for rows
  the filter flagged).
- :func:`salted_group_agg`: associative aggregation with hot-key salting —
  each key is split across ``salt`` sub-groups in round 1 (no single
  reducer sees a whole hot key), merged in a tiny round 2.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import pandas as pd
import ray
import ray.data as rd

from ..functions.hashing import hash64
from ..state.bloom import BloomFilter
from .shuffle import broadcast_get, bucketed_group_apply


def build_key_bloom(keys, capacity: int | None = None,
                    fp_rate: float = 0.001) -> BloomFilter:
    keys = np.asarray(keys)
    bf = BloomFilter(capacity or max(1024, len(keys)), fp_rate)
    bf.add(hash64(keys.astype(str)))
    return bf


def build_key_bloom_dist(ds: rd.Dataset, key_col: str,
                         capacity: int | None = None,
                         fp_rate: float = 0.001) -> BloomFilter:
    """Distributed Bloom build over a key dataset the driver never holds.

    (m, k) parameters are fixed up front from ``capacity`` (default:
    ``ds.count()``), so every batch can set bits into its own zeroed
    array of the SAME geometry; the driver then ORs the fixed-size
    partials streamed via ``iter_batches``. Driver memory is O(m bits) —
    two filter-sized arrays — never O(keys); at 10^9 keys / 0.1% FP
    that's ~1.8 GB of bits vs ~8+ GB of raw keys plus set overhead."""
    n = capacity or max(1024, ds.count())
    proto = BloomFilter(n, fp_rate)

    def bits_of(df: pd.DataFrame) -> pd.DataFrame:
        part = BloomFilter(n, fp_rate)
        part.add(hash64(df[key_col].astype(str).to_numpy()))
        return pd.DataFrame({"bits": [part.bits.tobytes()],
                             "n_new": [part.count]})

    total = 0
    # batch_size=1: the driver holds the proto plus ONE partial at a time
    # (each partial is a full m-bit array — 16 at once would be 16 filters)
    for b in (ds.map_batches(bits_of, batch_format="pandas")
                .iter_batches(batch_size=1, batch_format="pandas")):
        for blob, c in zip(b["bits"], b["n_new"]):
            proto.bits |= np.frombuffer(blob, dtype=np.uint64)
            total += int(c)
    proto.count = total     # upper bound: cross-batch dups double-count
    return proto


def bloom_semi_join(ds: rd.Dataset, key_col: str,
                    bloom: BloomFilter) -> rd.Dataset:
    """Keep rows whose key is (probably) in the filter. No false negatives:
    every truly-matching row survives; FP-rate of extra rows is the
    filter's (callers verify downstream when exactness matters)."""
    ref = ray.put(bloom)

    def probe(df: pd.DataFrame) -> pd.DataFrame:
        bf = broadcast_get(ref)
        return df[bf.contains(hash64(df[key_col].astype(str).to_numpy()))]

    return ds.map_batches(probe, batch_format="pandas")


def bloom_anti_join(ds: rd.Dataset, key_col: str, bloom: BloomFilter,
                    exact_keys=None) -> rd.Dataset:
    """Rows whose key is NOT in the set. The Bloom pass drops the certain
    non-members cheaply; rows the filter flags are re-checked against
    ``exact_keys`` (a set) when provided, restoring exactness."""
    ref = ray.put(bloom)
    keys_ref = ray.put(set(map(str, exact_keys)) if exact_keys is not None
                       else None)

    def probe(df: pd.DataFrame) -> pd.DataFrame:
        bf = broadcast_get(ref)
        flagged = bf.contains(hash64(df[key_col].astype(str).to_numpy()))
        exact = broadcast_get(keys_ref)
        if exact is None:
            return df[~flagged]
        really_in = df[key_col].astype(str).isin(exact).to_numpy()
        return df[~(flagged & really_in)]

    return ds.map_batches(probe, batch_format="pandas")


def salted_group_agg(ds: rd.Dataset, key: str,
                     partial_fn: Callable[[pd.DataFrame], pd.DataFrame],
                     merge_fn: Callable[[pd.DataFrame], pd.DataFrame],
                     num_buckets: int | None = None, salt: int = 4) -> rd.Dataset:
    """Two-round associative aggregation with hot-key salting.

    Round 1 groups by (key, salt_id) — a hot key's rows spread over ``salt``
    independent reducers; ``partial_fn`` aggregates one (key, salt) slice
    (must keep ``key``). Round 2 groups by key alone over the tiny partials
    with ``merge_fn``. Correct for any associative+commutative aggregate.
    """
    from .shuffle import resolve_num_buckets
    num_buckets = resolve_num_buckets(num_buckets)

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        out = partial_fn(df).copy()               # per-batch per-key partials
        # salt id per partial row: which of the `salt` round-1 reducers this
        # partial goes to. Values only need spread, not determinism — the
        # merged result is salt-routing independent (associativity).
        out["__ks"] = (out[key].astype(str) + "#"
                       + pd.Series(np.arange(len(out)) % salt,
                                   index=out.index).astype(str))
        return out

    def r1(g: pd.DataFrame) -> pd.DataFrame:
        # one bucket of (key, salt) slices — never a hot key's full volume
        return merge_fn(g.drop(columns="__ks"))

    round1 = bucketed_group_apply(
        ds.map_batches(combine, batch_format="pandas"),
        "__ks", r1, num_buckets=num_buckets * salt)
    return bucketed_group_apply(round1, key, merge_fn,
                                num_buckets=num_buckets)
