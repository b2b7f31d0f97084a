"""Payload sinks — Lance when available, parquet otherwise.

The north-rule input_hint describes the corpus as Lance tables of
image+caption rows. The ``lance`` package is not in this container, so the
sink is import-gated: with Lance installed, ``write_payload`` emits a real
Lance dataset via ``ray.data.Dataset.write_lance``; without it, it writes
parquet with the IDENTICAL Arrow schema (the two differ only in container
format — every pipeline in this repo reads either through Ray Data).
"""

from __future__ import annotations

import ray.data as rd


def lance_available() -> bool:
    try:
        import lance  # noqa: F401
        return True
    except ImportError:
        return False


def write_payload(ds: rd.Dataset, path: str) -> str:
    """Write the payload table; returns the format used ('lance' or
    'parquet'). Schema: (image_id, bytes, w, h, fmt, caption, phash) —
    the input_hint layout either way."""
    if lance_available():
        ds.write_lance(path)
        return "lance"
    ds.write_parquet(path)
    return "parquet"


def export_crawl_payload(out_dir: str, dest: str) -> dict:
    """Collapse a crawl's per-round payload into one deduplicated table at
    ``dest`` (rounds are versions, later wins) in the best available
    container format."""
    from ..stages.parse import PAYLOAD_SCHEMA
    from ..stages.upsert import compact_crawl_output
    compacted = compact_crawl_output(out_dir, "payload", "image_id")
    # exact input_hint schema: strip the hive bookkeeping columns
    ds = rd.read_parquet(compacted, columns=[f.name for f in PAYLOAD_SCHEMA])
    fmt = write_payload(ds, dest)
    return {"format": fmt, "rows": ds.count(), "dest": dest}
