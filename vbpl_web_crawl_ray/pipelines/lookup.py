"""Point lookups and previews over crawl output (SURVEY.md S9/J2/O1).

The reference's ``fetch_vbpl_by_id`` (app/service/vbpl.py:1072-1140) is a
PK select plus two inner joins to resolve related-document titles; its
``get_vbpl_preview`` (vbpl.py:1142-1176) is filter + sort desc + limit.
Engine forms over the partitioned parquet the crawl writes: predicate
pushdown at the read, broadcast meta-lookup for the join (the edge side is
filtered to one source — SURVEY.md J2 mapping)."""

from __future__ import annotations

import glob

import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray.data as rd


def _files(out_dir: str, sub: str) -> list[str]:
    return sorted(glob.glob(f"{out_dir}/{sub}/round=*/*.parquet"))


def prune_files_by_stats(files: list[str], col: str, keys) -> list[str]:
    """Zone-map pruning: keep only files whose parquet row-group
    [min, max] statistics for ``col`` can contain one of ``keys``.
    Footer-only reads — a point lookup over a 100-TB store opens data
    pages for the handful of files whose key range matches, not every
    file. String stats bound equality correctly (lexicographic min/max);
    a file with absent statistics is conservatively kept."""
    keys = sorted(set(keys))
    keep = []
    for f in files:
        md = pq.ParquetFile(f).metadata
        names = [md.schema.column(i).name for i in range(md.num_columns)]
        if col not in names:
            keep.append(f)            # unknown layout: keep (safe)
            continue
        ci = names.index(col)
        for rg in range(md.num_row_groups):
            st = md.row_group(rg).column(ci).statistics
            if st is None or not st.has_min_max:
                keep.append(f)        # no stats: keep (safe)
                break
            try:
                hit = any(st.min <= k <= st.max for k in keys)
            except TypeError:
                # physical type mismatch (store written with binary/int
                # keys vs string probes): keep conservatively, exactly
                # like the no-stats path — never prune on a bad compare
                keep.append(f)
                break
            if hit:
                keep.append(f)
                break
    return keep


def fetch_doc_by_id(out_dir: str, doc_id: int) -> dict | None:
    """Point lookup: payload row + metadata + outgoing edges with the
    related documents' titles resolved (two-join shape of J2).

    Two-phase zone-map prune: payload/edges files narrow by the target
    key's footer stats first; the edge DSTs then bound which meta files
    must open for title resolution — the whole lookup touches O(matching
    files), never the store."""
    image_id = f"img{doc_id:08d}"
    pay_files = prune_files_by_stats(_files(out_dir, "payload"),
                                     "image_id", [image_id])
    if not pay_files:      # no store, or every file's key range excludes it
        return None
    payload = pq.read_table(pay_files)
    hit = payload.filter(pc.equal(payload["image_id"], image_id))
    if hit.num_rows == 0:
        return None
    row = hit.to_pylist()[0]

    edge_files = prune_files_by_stats(_files(out_dir, "edges"),
                                      "src", [str(doc_id)])
    related_raw = []
    if edge_files:
        edges = pq.read_table(edge_files)
        out_e = edges.filter(pc.equal(edges["src"], str(doc_id)))
        related_raw = out_e.to_pylist()

    meta_keys = {str(doc_id)} | {e["dst"] for e in related_raw}
    meta_files = prune_files_by_stats(_files(out_dir, "meta"),
                                      "doc_id", meta_keys)
    if meta_files:
        from ..sources.schema_evolution import (META_SCHEMA,
                                                read_versioned_table)
        meta = read_versioned_table(meta_files, META_SCHEMA)
        m = meta.filter(pc.equal(meta["doc_id"], str(doc_id)))
        row["meta"] = m.to_pylist()[0] if m.num_rows else None
        title_by_id = dict(zip(meta["doc_id"].to_pylist(),
                               meta["title"].to_pylist()))
    else:
        row["meta"], title_by_id = None, {}
    row["related"] = [{"doc_id": e["dst"], "label": e["label"],
                       "title": title_by_id.get(e["dst"])}
                      for e in related_raw]
    return row


def preview_latest(out_dir: str, limit: int = 10) -> rd.Dataset:
    """O1: newest documents by issuance_date — filter -> sort desc ->
    limit over the crawled metadata table."""
    from ..sources.schema_evolution import read_meta_versioned
    ds = read_meta_versioned(out_dir)
    ds = ds.map_batches(
        lambda t: t.filter(pc.is_valid(t["issuance_date"])),
        batch_format="pyarrow")
    return ds.sort(["issuance_date", "doc_id"],
                   descending=[True, False]).limit(limit)


def export_preview(out_dir: str, export_path: str, limit: int = 10) -> str:
    """Human-inspection export — the reference's preview dump writes rows
    as SQL INSERT statements plus an archive of the files
    (get_vbpl_preview, app/service/vbpl.py:1142-1176; it uses py7zr on a
    .rar path — here a stdlib zip). Returns the archive path."""
    import os
    import zipfile

    rows = preview_latest(out_dir, limit).to_pandas().to_dict("records")
    os.makedirs(os.path.dirname(export_path) or ".", exist_ok=True)
    sql_lines = []
    for r in rows:
        cols = ", ".join(k for k in r if k != "round")
        vals = ", ".join(
            "NULL" if r[k] is None else "'" + str(r[k]).replace("'", "''") + "'"
            for k in r if k != "round")
        sql_lines.append(f"INSERT INTO vbpl ({cols}) VALUES ({vals});")
    with zipfile.ZipFile(export_path, "w", zipfile.ZIP_DEFLATED) as z:
        z.writestr("preview.sql", "\n".join(sql_lines))
    return export_path
