"""Per-process shared base-table reads for the query surface.

The query suite re-decoded the same handful of parquet tables
once per query — at sf0.1 that is ~1-2 s of ReadParquet per pipeline,
the dominant share of the suite's per-query constant (measured: a
fresh lineitem read costs 1.2-4 s; reusing materialized blocks 0.4-1.6 s).
This registry materializes each base table ONCE per (sf_dir, table)
into the object store and hands every query a zero-copy
``select_columns`` view of those blocks, so the suite pays one decode
per table instead of one per query.

This is an interactive/suite amortization, NOT the 100-TB path: a
production pipeline reads its input once anyway, and a 100-TB table
must never be pinned whole. The registry is therefore (a) bounded by
the base tables actually requested, (b) keyed per sf_dir so scale
factors never mix, and (c) disabled with ``GRAFT_TABLE_CACHE=0``
(every read then passes straight through to ``read_parquet``).

Driver-side pandas lookups (dimension tables, key maps) cache per
(sf_dir, table, columns) and return shallow copies — callers may add
columns to the returned frame but must not mutate cached values in
place (nothing in this repo does; reads go through ``.to_numpy()``).
"""

from __future__ import annotations

import os

import pandas as pd
import pyarrow.parquet as pq
import ray.data as rd

_DS_CACHE: dict[tuple, rd.Dataset] = {}
_PD_CACHE: dict[tuple, pd.DataFrame] = {}


def _enabled() -> bool:
    return os.environ.get("GRAFT_TABLE_CACHE", "1") != "0"


def _stamp(path: str) -> tuple:
    """(mtime_ns, size) of the backing file — a rewritten fixture (tests
    regenerate tables in place) must never serve stale cached blocks."""
    try:
        st = os.stat(path)
        return (st.st_mtime_ns, st.st_size)
    except OSError:
        return (0, 0)


def clear() -> None:
    """Drop every cached table (tests; frees the object-store pins)."""
    _DS_CACHE.clear()
    _PD_CACHE.clear()


def base_dataset(sf_dir: str, table: str,
                 columns: list[str] | None = None) -> rd.Dataset:
    """``read_parquet(f"{sf_dir}/{table}.parquet", columns=...)`` with
    the decode shared across queries in this process.

    The FULL table materializes once (all queries share one copy in the
    object store); ``columns`` applies as a zero-copy Arrow projection
    over the cached blocks. Column pruning at the read still matters at
    scale — with the cache off (or on first touch of a one-off table)
    the passthrough read keeps the pushdown.
    """
    path = f"{sf_dir}/{table}.parquet"
    if not _enabled():
        return rd.read_parquet(path, columns=columns)
    key = (sf_dir, table, _stamp(path))
    ds = _DS_CACHE.get(key)
    if ds is None:
        # evict stale versions of this table (rewritten fixture) so the
        # registry never pins superseded blocks
        for k in [k for k in _DS_CACHE if k[:2] == (sf_dir, table)]:
            del _DS_CACHE[k]
        # the pandas schema metadata the files carry goes: Ray Data
        # cannot hash such a schema, so every stage that bundles cached
        # blocks into one batch would skip schema de-duplication
        schema = pq.read_schema(path).remove_metadata()
        ds = rd.read_parquet(path, schema=schema).materialize()
        _DS_CACHE[key] = ds
    if columns is not None:
        return ds.select_columns(list(columns))
    return ds


def base_pandas(sf_dir: str, table: str,
                columns: list[str] | None = None) -> pd.DataFrame:
    """Driver-side ``pd.read_parquet`` of a base table, cached per
    (sf_dir, table, columns). Returns a shallow copy: adding columns is
    safe, in-place value mutation is the caller's bug."""
    path = f"{sf_dir}/{table}.parquet"
    if not _enabled():
        return pd.read_parquet(path, columns=columns)
    key = (sf_dir, table, _stamp(path),
           tuple(columns) if columns is not None else None)
    df = _PD_CACHE.get(key)
    if df is None:
        df = pd.read_parquet(path, columns=columns)
        _PD_CACHE[key] = df
    return df.copy(deep=False)
