"""Crawl rounds sized to the cluster: a round of n popped rows runs as one
task when it fits one batch, else as a CPU-multiple number of even tasks
of at most batch_size rows; every batch size and partition count gives
the same crawl; a round starts no Ray Data execution; a retried task
overwrites its parts; the engine starts no actor besides its frontier
partitions."""

import glob
import os
import time

import pyarrow.parquet as pq
import pytest
import ray

from vbpl_web_crawl_ray.pipelines.crawl import (CrawlEngine, crawl_slice,
                                                round_tasks)
from vbpl_web_crawl_ray.sources.simweb import SimWeb, SimWebConfig

CFG = SimWebConfig(n_hosts=3, pages_per_host=2, docs_per_page=8,
                   captions=tuple(f"Văn bản mẫu số {i} về thử nghiệm"
                                  for i in range(40)),
                   flaky_rate=0.15, missing_rate=0.1)
# (batch size, frontier partitions): three batch sizes, and one of them
# again over another partition count
RUNS = ((4096, 2), (32, 2), (7, 2), (7, 3))


def _task_rows(task):
    return sum(hi - lo for _, lo, hi in task)


@pytest.mark.parametrize("counts,batch_size,cpus", [
    ([131], 32, 4), ([8, 26], 32, 4), ([3, 5], 32, 4), ([40, 0, 25], 7, 4),
    ([33], 32, 4), ([2], 1, 4), ([100, 100], 64, 3), ([7], 7, 4),
    ([1000], 10, 32),
])
def test_round_tasks_plan(counts, batch_size, cpus):
    parts = [(f"part-{i}", n) for i, n in enumerate(counts) if n]
    n = sum(counts)
    tasks = round_tasks(parts, batch_size, cpus)
    sizes = [_task_rows(t) for t in tasks]
    if n <= batch_size:
        assert len(tasks) == 1
    else:
        need = -(-n // batch_size)
        assert len(tasks) == min(n, -(-need // cpus) * cpus)
        assert len(tasks) % cpus == 0 or len(tasks) == n
    assert max(sizes) <= batch_size and max(sizes) - min(sizes) <= 1
    # the tasks cover every part's rows once, in order
    flat = [(p, r) for t in tasks for p, lo, hi in t for r in range(lo, hi)]
    assert flat == [(p, r) for p, k in parts for r in range(k)]


def _crawl(out: str, batch_size: int,
           partitions: int) -> tuple[CrawlEngine, list[dict]]:
    """Crawl to exhaustion with every Ray Data execution refused, so a
    round that started one would raise."""
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor)

    def refuse(self, *a, **kw):
        raise AssertionError("a crawl round started a Ray Data execution")

    eng = CrawlEngine(CFG, out, num_partitions=partitions,
                      batch_size=batch_size)
    eng.seed(SimWeb(CFG).seed_urls())
    stats = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(StreamingExecutor, "execute", refuse)
        while eng.run_round():
            stats.append(eng.last_stats)
    return eng, stats


def _rows(out: str, sub: str) -> list:
    rows = []
    for f in glob.glob(f"{out}/{sub}/round=*/*.parquet"):
        rno = f.split("round=")[1].split(os.sep)[0]
        rows += [(rno, repr(sorted(r.items())))
                 for r in pq.read_table(f).to_pylist()]
    return sorted(rows)


@pytest.fixture(scope="module")
def crawls(tmp_path_factory):
    runs = {}
    for bs, partitions in RUNS:
        out = str(tmp_path_factory.mktemp(f"bs{bs}-p{partitions}"))
        eng, stats = _crawl(out, bs, partitions)
        runs[bs, partitions] = (eng, out, stats)
    yield runs
    for eng, _, _ in runs.values():
        for a in eng.actors:
            ray.kill(a)


def test_round_task_counts(crawls):
    """Every round ran exactly the planned tasks: one when it fit one
    batch, else a multiple of the cluster's CPUs of <= batch_size rows."""
    cpus = int(ray.cluster_resources()["CPU"])
    split = 0
    for (bs, _), (eng, out, stats) in crawls.items():
        assert len(stats) == eng.round > 1
        for r, st in enumerate(stats):
            files = sorted(glob.glob(f"{out}/crawl_log/round={r}/*.parquet"))
            parts = [(f, pq.read_metadata(f).num_rows) for f in files]
            n = sum(k for _, k in parts)
            assert st["round"] == r and st["popped"] == n, st
            assert st["tasks"] == len(round_tasks(parts, bs, cpus)), st
            assert st["rows"] == n, st
            if n <= bs:
                assert st["tasks"] == 1
                assert len(glob.glob(f"{out}/payload/round={r}/*")) <= 1
            else:
                split += 1
                assert st["tasks"] % cpus == 0 and st["tasks"] >= -(-n // bs)
    assert split >= 3          # batch size 32 splits a round too


def test_single_batch_round_writes_one_payload_file(crawls):
    eng, out, _ = crawls[4096, 2]
    per_round = [glob.glob(f"{out}/payload/round={r}/*.parquet")
                 for r in range(eng.round)]
    assert all(len(f) <= 1 for f in per_round)
    assert sum(len(f) for f in per_round) >= 2


def test_output_invariant_to_batch_size(crawls):
    """The crawl log, payload rows and every side table's rows are the
    same whatever the batch size (and so the task count) is."""
    base_eng, base_out, _ = crawls[RUNS[0]]
    subs = sorted(d for d in os.listdir(base_out)
                  if glob.glob(f"{base_out}/{d}/round=*/*.parquet"))
    assert {"payload", "edges", "meta", "fails"} <= set(subs)
    for run in RUNS[1:]:
        eng, out, _ = crawls[run]
        assert eng.crawl_log == base_eng.crawl_log
        assert eng.lineage == base_eng.lineage
        assert eng.metrics()["total"] == base_eng.metrics()["total"]
        for sub in subs:
            assert _rows(out, sub) == _rows(base_out, sub), (run, sub)


def test_lineage_counters_reach_the_barrier(crawls):
    eng, _, _ = crawls[32, 2]
    assert eng.lineage["fetched"] == len(eng.crawl_log)
    assert eng.lineage["retried"] > 0 and eng.lineage["failed"] > 0
    assert eng.lineage["redirected"] > 0


def _round_files(out: str, r: int) -> dict[str, list]:
    """Every ``<table>/round=r`` part: its path under ``out`` -> rows."""
    return {os.path.relpath(f, out): pq.read_table(f).to_pylist()
            for f in glob.glob(f"{out}/*/round={r}/*.parquet")}


def test_retried_task_overwrites_its_parts(tmp_path):
    """Running a round's tasks again, as Ray does on a retry, leaves every
    table's round directory with the same file names holding the same
    rows."""
    out = str(tmp_path / "o")
    eng = CrawlEngine(CFG, out, num_partitions=2, batch_size=7)
    eng.seed(SimWeb(CFG).seed_urls())
    while eng.run_round() and eng.last_stats["tasks"] < 2:
        pass
    r = eng.last_stats["round"]
    files = sorted(glob.glob(f"{out}/crawl_log/round={r}/*.parquet"))
    parts = [(f, pq.read_metadata(f).num_rows) for f in files]
    tasks = round_tasks(parts, eng.batch_size, eng.cpus)
    assert len(tasks) == eng.last_stats["tasks"] > 1
    before = _round_files(out, r)
    assert any(f.startswith("payload" + os.sep) for f in before)
    args = eng._slice_args(r)
    assert ray.get([crawl_slice.remote(t, *args) for t in tasks]) \
        == [sum(hi - lo for _, lo, hi in t) for t in tasks]
    assert _round_files(out, r) == before
    for a in eng.actors:
        ray.kill(a)


def _alive_actors() -> dict[str, str]:
    return {k: v["ActorClassName"] for k, v in
            ray._private.state.actors().items() if v["State"] == "ALIVE"}


def test_engine_starts_only_its_partitions(tmp_path):
    before = _alive_actors()
    eng = CrawlEngine(CFG, str(tmp_path / "o"), num_partitions=3)
    eng.metrics()                        # every partition is up
    new = {k: v for k, v in _alive_actors().items() if k not in before}
    assert sorted(new) == sorted(a._actor_id.hex() for a in eng.actors)
    assert set(new.values()) == {"FrontierActor"}
    assert eng.counters in eng.actors
    for a in [*eng.actors, eng.counters]:
        ray.kill(a)
    ids = {a._actor_id.hex() for a in eng.actors}
    deadline = time.time() + 30
    while ids & set(_alive_actors()) and time.time() < deadline:
        time.sleep(0.1)
    assert not ids & set(_alive_actors())
