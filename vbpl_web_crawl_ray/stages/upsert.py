"""Idempotent upsert sink — incremental last-write-wins merge into a
key-hash-bucketed parquet table.

The reference upserts row-by-row into MySQL (existence probe then
insert-or-update, app/service/vbpl.py:186-252); re-crawls are "resume by
replay" because the upsert is idempotent. The engine form (SURVEY.md A7/J1)
is two rounds of plain Ray tasks; no Ray Data all-to-all, no row on the
driver:

1. map: one task per input (a parquet file or a Dataset block) keeps the
   newest row per key and cuts it into one frame per key-hash bucket; only
   the frames' row counts reach the driver;
2. merge: one task per bucket that received rows puts them after that
   bucket's old rows (an incoming row wins a timestamp tie, like the
   reference's overwrite-on-replay), keeps the newest row per key, and
   writes the key-sorted ``bucket=<b>/part-0.parquet`` into a fresh
   directory (temp file + ``os.replace``: a retried task overwrites its
   file, never duplicates it); the file of an untouched bucket is
   hard-linked there, never rewritten;
3. the driver writes ``_manifest.json`` there (the bucket count B and, for
   crawl compaction, the compacted-through round) and swaps the directory
   in ATOMICALLY (rename old away, new in): a failed run leaves the old
   table and manifest, never a half-written one, and no temp directory.

The manifest pins B for the table's life, so a key always hashes to the
same bucket. pyarrow and Ray Data skip ``_``-prefixed files.
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import uuid
from typing import Callable

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data as rd

from .shuffle import bucketed_group_apply, cut_buckets, resolve_num_buckets

_MANIFEST = "_manifest.json"


def newest_rows(key_cols: list[str], ts_col: str | list[str],
                ) -> Callable[[pd.DataFrame], pd.DataFrame]:
    """The per-frame combiner of :func:`last_write_wins`: keep the row
    with the largest ``ts_col`` per key (stable sort, so equal timestamps
    keep the later-arriving row)."""
    ts_cols = [ts_col] if isinstance(ts_col, str) else list(ts_col)

    def combiner(df: pd.DataFrame) -> pd.DataFrame:
        return (df.sort_values(ts_cols, kind="mergesort")
                  .groupby(key_cols, as_index=False).tail(1))

    return combiner


def last_write_wins(ds: rd.Dataset, key_cols: list[str],
                    ts_col: str | list[str],
                    num_buckets: int | None = None) -> rd.Dataset:
    """Keep the newest row per key. Pass a LIST of ts/tiebreak columns
    forming a total order (e.g. ["ts", "event_id"]) for determinism under
    any input partitioning; a bare timestamp with ties falls back to
    arrival order like the reference's overwrite-on-replay."""
    combiner = newest_rows(key_cols, ts_col)
    return bucketed_group_apply(ds, key_cols[0], combiner,
                                num_buckets=num_buckets, partial_fn=combiner)


def read_manifest(table_dir: str) -> dict:
    """The table's ``_manifest.json``; empty when there is none."""
    try:
        with open(os.path.join(table_dir, _MANIFEST)) as f:
            return json.load(f)
    except FileNotFoundError:
        return {}


@ray.remote
def _split(src, key_cols: list[str], ts_col, num_buckets: int,
           round_no: int | None):
    """Map: the newest row per key of one input, as ``num_buckets`` frames
    followed by the list of their row counts."""
    t = pq.read_table(src) if isinstance(src, str) else src
    if t.num_rows == 0:
        return (*[None] * num_buckets, [0] * num_buckets)
    rows = t.to_pandas()
    if round_no is not None:
        rows["round"] = round_no
    return tuple(cut_buckets(newest_rows(key_cols, ts_col)(rows),
                             key_cols[0], num_buckets))


@ray.remote
def _merge_bucket(old: str | None, path: str, key_cols: list[str], ts_col,
                  *frames: pd.DataFrame) -> int:
    """Merge: one bucket's old rows, then its incoming frames, newest row
    per key, key-sorted, written through a temp file."""
    base = [pq.read_table(old).to_pandas()] if old else []
    rows = newest_rows(key_cols, ts_col)(
        pd.concat(base + list(frames), ignore_index=True)).sort_values(key_cols)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    part = f"{path}.{uuid.uuid4().hex[:8]}.tmp"
    pq.write_table(pa.Table.from_pandas(rows, preserve_index=False)
                     .replace_schema_metadata(None), part)
    os.replace(part, path)
    return len(rows)


def _merge_into(sources: list[tuple], out_dir: str, key_cols: list[str],
                ts_col: str | list[str], num_buckets: int | None,
                **state) -> str:
    """Merge ``sources`` — (parquet path or arrow-table ref, round or None)
    pairs, oldest first — into the table at ``out_dir``; ``state`` joins
    the manifest."""
    manifest = read_manifest(out_dir)
    b_count = manifest.get("num_buckets")
    if b_count is None:
        b_count = resolve_num_buckets(num_buckets)
        # a table written without a manifest: its rows become inputs
        sources = [(f, None) for f in sorted(glob.glob(
            f"{out_dir}/bucket=*/*.parquet"))] + list(sources)
    elif num_buckets not in (None, b_count):
        raise ValueError(f"{out_dir} has {b_count} buckets (its manifest), "
                         f"not the requested {num_buckets}")
    tmp = f"{out_dir}.tmp-{uuid.uuid4().hex[:8]}"
    os.makedirs(tmp)
    try:
        splits = [_split.options(num_returns=b_count + 1).remote(
            src, key_cols, ts_col, b_count, r) for src, r in sources]
        counts = ray.get([s[-1] for s in splits])
        merges = []
        for b in range(b_count):
            name = os.path.join(f"bucket={b}", "part-0.parquet")
            old = os.path.join(out_dir, name)
            old = old if manifest and os.path.exists(old) else None
            frames = [s[b] for s, c in zip(splits, counts) if c[b]]
            if frames:
                merges.append(_merge_bucket.remote(
                    old, os.path.join(tmp, name), key_cols, ts_col, *frames))
            elif old:
                os.makedirs(os.path.join(tmp, f"bucket={b}"))
                os.link(old, os.path.join(tmp, name))
        # every merge settles before any error reaches the cleanup below,
        # so no task still writes into the temp directory it removes
        ray.wait(merges, num_returns=len(merges))
        ray.get(merges)
        with open(os.path.join(tmp, _MANIFEST), "w") as f:
            json.dump({**manifest, "num_buckets": b_count, **state}, f)
        # atomic swap: rename old away, new in (a crash leaves old or new)
        old_dir = f"{out_dir}.old-{uuid.uuid4().hex[:8]}"
        if os.path.isdir(out_dir):
            os.rename(out_dir, old_dir)
        os.rename(tmp, out_dir)
        shutil.rmtree(old_dir, ignore_errors=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return out_dir


def upsert_parquet(ds: rd.Dataset, out_dir: str, key_cols: list[str],
                   ts_col: str, num_buckets: int | None = None) -> str:
    """Merge ``ds`` into the parquet table at ``out_dir`` (hash-partitioned
    by key into ``bucket=*/`` dirs), last-write-wins per key; an incoming
    row wins a ``ts_col`` tie. Only the buckets ``ds`` touches are
    rewritten. ``num_buckets`` sets B for a new table and must match an
    existing table's manifest."""
    return _merge_into([(ref, None) for ref in ds.to_arrow_refs()], out_dir,
                       key_cols, ts_col, num_buckets)


def compact_crawl_output(out_dir: str, table: str = "payload",
                         key: str = "image_id") -> str:
    """Collapse the per-round crawl output into one upserted table:
    rounds are versions, later rounds win per key (A7 last-write-wins).

    Incremental: the manifest records the compacted-through round, and a
    call reads only the ``round=r`` files past it, rewriting only the
    buckets their keys hash to. This assumes rounds at or below that mark
    never change; a deterministic re-run into the same directory rewrites
    them with the same rows, so it holds. With no new round the call is a
    no-op: it reads the manifest, runs no task, reads and writes no data
    file."""
    dest = f"{out_dir}/{table}_compacted"
    done = read_manifest(dest).get("round", -1)
    delta = sorted((int(os.path.dirname(f).rsplit("round=", 1)[1]), f)
                   for f in glob.glob(f"{out_dir}/{table}/round=*/*.parquet"))
    delta = [(f, r) for r, f in delta if r > done]
    if not delta:
        return dest
    return _merge_into(delta, dest, [key], "round", None,
                       round=delta[-1][1])
