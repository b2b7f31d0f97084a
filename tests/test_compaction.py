"""Incremental crawl-output compaction: each call merges only the rounds
past the table's manifest into only the buckets their keys hash to."""

import glob
import os
import shutil
from pathlib import Path

import pyarrow.parquet as pq
import pytest

from vbpl_web_crawl_ray.pipelines.crawl import CrawlEngine
from vbpl_web_crawl_ray.sources.simweb import SimWeb, SimWebConfig
from vbpl_web_crawl_ray.stages import upsert
from vbpl_web_crawl_ray.stages.upsert import compact_crawl_output, read_manifest
from util_compare import refuse_all_to_all

CFG = SimWebConfig(n_hosts=3, pages_per_host=1, docs_per_page=3,
                   flaky_rate=0.0, missing_rate=0.0)


def _round_of(path: str) -> int:
    return int(os.path.dirname(path).rsplit("round=", 1)[1])


def _oracle(out: str) -> dict:
    """image_id -> row of its newest round, over every payload file."""
    newest = {}
    for f in glob.glob(f"{out}/payload/round=*/*.parquet"):
        r = _round_of(f)
        for row in pq.read_table(f).to_pylist():
            if row["image_id"] not in newest or \
                    newest[row["image_id"]]["round"] < r:
                newest[row["image_id"]] = dict(row, round=r)
    return newest


def _buckets(table_dir: str) -> dict:
    return {os.path.relpath(f, table_dir): pq.read_table(f)
            for f in sorted(glob.glob(f"{table_dir}/bucket=*/*.parquet"))}


def _copy_rounds(src: str, dst: str, upto: int | None = None) -> None:
    for d in glob.glob(f"{src}/payload/round=*"):
        r = int(d.rsplit("=", 1)[1])
        target = f"{dst}/payload/{os.path.basename(d)}"
        if (upto is None or r <= upto) and not os.path.exists(target):
            shutil.copytree(d, target)


@pytest.fixture(scope="module")
def refreshed(tmp_path_factory, ray_session):
    """Three refresh cycles with a compaction after each; returns the
    output dir and the manifest round after each compaction."""
    import ray
    out = str(tmp_path_factory.mktemp("refresh") / "c")
    eng = CrawlEngine(CFG, out, num_partitions=2, allow_deletions=True,
                      track_seen=True, max_per_host_per_round=2)
    marks = []
    run = eng.run

    def run_then_compact(*a, **kw):
        n = run(*a, **kw)
        compact_crawl_output(out)
        marks.append(read_manifest(f"{out}/payload_compacted")["round"])
        return n

    eng.run = run_then_compact
    eng.run_refresh_cycles(SimWeb(CFG).seed_urls(), cycles=3)
    for a in [*eng.actors, eng.counters]:
        ray.kill(a)
    return out, marks


def test_incremental_equals_oracle_and_full_compaction(refreshed, tmp_path):
    out, marks = refreshed
    # every cycle added rounds and moved the compacted-through mark
    assert len(marks) == 3 and marks == sorted(set(marks))
    assert marks[-1] == max(_round_of(f) for f in
                            glob.glob(f"{out}/payload/round=*/*.parquet"))
    got = pq.read_table(f"{out}/payload_compacted").to_pylist()
    want = _oracle(out)
    assert len(got) == len(want)
    assert all({k: v for k, v in r.items() if k != "bucket"}
               == want[r["image_id"]] for r in got)
    # one compaction of the same rounds into a fresh table: same files
    fresh = str(tmp_path / "fresh")
    _copy_rounds(out, fresh)
    compact_crawl_output(fresh)
    inc, full = _buckets(f"{out}/payload_compacted"), \
        _buckets(f"{fresh}/payload_compacted")
    assert inc.keys() == full.keys()
    assert all(inc[k].equals(full[k]) for k in inc)
    assert all(t.schema.metadata is None for t in inc.values())


def test_noop_compaction_touches_no_file_and_runs_no_task(refreshed,
                                                          monkeypatch):
    """ROADMAP direction 2: with no new round, a second compaction reads
    and writes no data file and launches no task."""
    out, _ = refreshed
    table = f"{out}/payload_compacted"

    def stat_all():
        return {p: (os.stat(p).st_ino, os.stat(p).st_mtime_ns)
                for p in [table, *glob.glob(f"{table}/**", recursive=True)]}

    before = stat_all()

    def boom(*a, **k):
        raise AssertionError("a no-op compaction read data or ran a task")

    class NoTask:
        options = remote = staticmethod(boom)

    monkeypatch.setattr(upsert, "_split", NoTask)
    monkeypatch.setattr(upsert, "_merge_bucket", NoTask)
    monkeypatch.setattr(pq, "read_table", boom)
    assert compact_crawl_output(out) == table
    assert stat_all() == before


def test_compaction_runs_no_all_to_all(refreshed, tmp_path, monkeypatch):
    """Both the first and an incremental compaction run as plain tasks:
    a Ray Data sort, groupby or repartition must never creep back in."""
    out, marks = refreshed
    dst = str(tmp_path / "c")
    _copy_rounds(out, dst, upto=marks[0])

    refuse_all_to_all(monkeypatch, "by compaction")
    compact_crawl_output(dst)
    first = read_manifest(f"{dst}/payload_compacted")
    _copy_rounds(out, dst)
    compact_crawl_output(dst)
    monkeypatch.undo()
    assert first["round"] == marks[0]
    assert read_manifest(f"{dst}/payload_compacted")["round"] == marks[-1]
    assert len(pq.read_table(f"{dst}/payload_compacted")) == len(_oracle(out))


def test_failed_compaction_keeps_table_and_leaves_no_temp(refreshed,
                                                          tmp_path):
    """A delta file that fails to read makes its map task raise: the old
    table and manifest stay byte-identical, and no temp or old-table
    directory is left beside it."""
    out, marks = refreshed
    dst = str(tmp_path / "c")
    _copy_rounds(out, dst)
    compact_crawl_output(dst)
    table = f"{dst}/payload_compacted"

    def snapshot():
        return {os.path.relpath(p, table): Path(p).read_bytes()
                for p in glob.glob(f"{table}/**", recursive=True)
                if os.path.isfile(p)}

    before = snapshot()
    assert "_manifest.json" in before
    bad = f"{dst}/payload/round={marks[-1] + 1}"
    os.makedirs(bad)
    with open(f"{bad}/part-0.parquet", "wb") as f:
        f.write(b"not a parquet file")
    with pytest.raises(Exception):
        compact_crawl_output(dst)
    assert snapshot() == before
    assert sorted(os.listdir(dst)) == ["payload", "payload_compacted"]
