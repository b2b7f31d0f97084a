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

A cached table is cut into blocks by its size, capped by the cluster:
n = clamp(ceil(bytes / target_min_block_size), 1, 2 x CPUs), with the
bytes estimated from the parquet footer and the unit Ray Data's own
``DataContext.target_min_block_size`` (1 MiB). The count is passed to
the read because Ray Data's own heuristic never picks fewer than 2 x CPUs
blocks, which would cost a 25-row ``nation`` eight map tasks on every
pass over it. Every table at sf0.001 is one block; sf0.1 lineitem (about
40 MiB) gets 40 blocks on 32 CPUs.

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

from ..stages.shuffle import cluster_cpus, size_to_blocks

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


def _footer_bytes(f: pq.ParquetFile) -> int:
    """In-memory size of the parquet file ``f`` as its footer tells it:
    per column chunk the larger of its uncompressed size and rows x width
    for fixed-width types (dictionary and run-length encoding shrink
    those on disk, not in Arrow)."""
    schema = f.schema_arrow
    total = 0
    for i in range(f.metadata.num_row_groups):
        rg = f.metadata.row_group(i)
        for j in range(rg.num_columns):
            col = rg.column(j)
            kind = schema.field(col.path_in_schema.split(".")[0]).type
            try:
                width = kind.bit_width // 8
            except ValueError:  # variable width
                width = 0
            total += max(col.total_uncompressed_size, rg.num_rows * width)
    return total


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
        with pq.ParquetFile(path) as f:
            schema = f.schema_arrow.remove_metadata()
            nbytes = _footer_bytes(f)
        ds = rd.read_parquet(path, schema=schema,
                             override_num_blocks=size_to_blocks(
                                 nbytes, 2 * cluster_cpus())
                             ).materialize()
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
