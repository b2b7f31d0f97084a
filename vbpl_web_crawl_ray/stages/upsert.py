"""Idempotent upsert sink — last-write-wins merge + partitioned overwrite.

The reference upserts row-by-row into MySQL (existence probe then
insert-or-update, app/service/vbpl.py:186-252); re-crawls are "resume by
replay" because the upsert is idempotent. The engine form (SURVEY.md A7/J1):

1. per-key last-write-wins reduce (bucketed shuffle, per-batch combiner)
   over the incoming rows unioned with the existing table;
2. the task that owns a key-hash bucket sorts its newest rows by key and
   writes them as ``bucket=<b>/part-0.parquet`` (temp file + ``os.replace``,
   so a retried task overwrites its file, never duplicates it) into a
   fresh directory; no row reaches the driver;
3. the driver swaps that directory in ATOMICALLY (rename old away, new
   in), so a failed run can be re-run and leaves either the old table or
   the new one — never a half-written one.
"""

from __future__ import annotations

import os
import shutil
import uuid
from typing import Callable

import pandas as pd
import ray.data as rd
from ray.data.datasource import Partitioning

from .shuffle import bucket_of, bucketed_group_apply, resolve_num_buckets


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


def upsert_parquet(ds: rd.Dataset, out_dir: str, key_cols: list[str],
                   ts_col: str, num_buckets: int | None = None) -> str:
    """Merge ``ds`` into the parquet table at ``out_dir`` (hash-partitioned
    by key into ``bucket=*/`` dirs), last-write-wins per key. Each bucket
    is merged and written by the task that owns it."""
    num_buckets = resolve_num_buckets(num_buckets)
    if os.path.isdir(out_dir) and any(
            e.startswith("bucket=") for e in os.listdir(out_dir)):
        # partitioning=None: bucket=* is layout, not a column to merge
        ds = ds.union(rd.read_parquet(out_dir, partitioning=None))
    newest = newest_rows(key_cols, ts_col)
    tmp = f"{out_dir}.tmp-{uuid.uuid4().hex[:8]}"
    os.makedirs(tmp)

    def write_bucket(g: pd.DataFrame) -> pd.DataFrame:
        rows = newest(g).sort_values(key_cols)
        b = int(bucket_of(rows[key_cols[0]].to_numpy()[:1], num_buckets)[0])
        pdir = os.path.join(tmp, f"bucket={b}")
        os.makedirs(pdir, exist_ok=True)
        path = os.path.join(pdir, "part-0.parquet")
        part = f"{path}.{uuid.uuid4().hex[:8]}.tmp"
        rows.to_parquet(part, index=False)
        os.replace(part, path)
        return pd.DataFrame({"bucket": [b], "rows": [len(rows)]})

    bucketed_group_apply(ds, key_cols[0], write_bucket, num_buckets,
                         partial_fn=newest).take_all()
    # atomic swap: rename old away, new in (a crash leaves either old or new)
    old = f"{out_dir}.old-{uuid.uuid4().hex[:8]}"
    if os.path.isdir(out_dir):
        os.rename(out_dir, old)
    os.rename(tmp, out_dir)
    shutil.rmtree(old, ignore_errors=True)
    return out_dir


def compact_crawl_output(out_dir: str, table: str = "payload",
                         key: str = "image_id") -> str:
    """Collapse the per-round crawl output into one upserted table:
    rounds are versions, later rounds win per key (A7 last-write-wins).
    Re-runnable: compaction of a compacted+unchanged input is a no-op
    rewrite with identical content."""
    ds = rd.read_parquet(f"{out_dir}/{table}", partitioning=Partitioning(
        "hive", field_types={"round": int}))
    return upsert_parquet(ds, f"{out_dir}/{table}_compacted", [key], "round")
