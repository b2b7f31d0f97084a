"""Crawl-round driver: frontier drain -> fetch -> parse -> expand, looped to
frontier exhaustion (the engine form of the reference's phase loop,
app/service/vbpl.py:95-114, re-expressed per SURVEY.md §3.1).

Each round is T plain Ray tasks of one function, ``crawl_slice``:

    frontier partitions pop -> crawl_log/round={r}/part-{P}.parquet
    crawl_slice x T                                  # T sized to the cluster
        read its slice of the crawl log -> FetchStage -> ParseStage
        -> payload/meta/sections/sub_parts/anle_sections/edges/fails,
           each written as <table>/round={r}/part-<sha1 of its URLs>.parquet
    links + retried/failed/redirected counts
        -> frontier.stage() (hash(host)-routed), committed at the round
           barrier as a sorted union; commit() hands back the counts

The tasks hand back only their row counts, so a round needs no Ray Data
execution and pays none of its fixed planning and launch cost.

The round is cut by row count, not by partition: a round that fits one
batch is one task; a larger one is T tasks of even size, T the next
multiple of the cluster's CPU count at or above ceil(n / batch_size), so
every wave fills the cluster and no task exceeds batch_size rows. Each
task reads its rows straight from the crawl-log parts the partitions
wrote, so no Arrow table is returned by a frontier actor.

The driver touches only control data: per-partition pop counts, the
slice descriptors, the tasks' row counts, the round's lineage counts and
the round barrier itself. Parsed text, edges and the crawl log — the
data-plane outputs that grow with the corpus — never transit the driver
or any single actor, and the engine starts no actor besides its frontier
partitions.

Rounds are the determinism barrier (the reference's three phase barriers):
crawl order is a pure function of the link graph at every parallelism
level, so an 8-CPU and a 32-CPU run produce identical crawl logs and
URL-seen sets. Checkpoints are written between rounds — per-partition
frontier snapshots + Bloom filters + metrics, committed by an atomic
manifest (north_rule resumability). Round output dirs are deleted before a
round (re-)runs, so resume-after-mid-round-crash never duplicates rows.
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data as rd

from ..sources.simweb import SimWeb, SimWebConfig
from ..stages.fetch import FetchStage
from ..stages.parse import SIDE_TABLES, ParseStage, write_part
from ..state.frontier import (LINEAGE_KEYS, FrontierPartition, partition_of,
                              read_log_rows)

LOG_SCHEMA = pa.schema([
    ("pop_seq", pa.int64()), ("fetch_time", pa.float64()),
    ("host", pa.string()), ("depth", pa.int32()),
    ("discovery_order", pa.int64()), ("url", pa.string()),
])
_ROUND_DIRS = ("payload", "crawl_log") + SIDE_TABLES


@ray.remote(num_cpus=0)
class FrontierActor(FrontierPartition):
    """Control-plane actor: num_cpus=0 so P frontier partitions never
    starve the data-plane tasks of CPU slots (their work is short
    bookkeeping bursts, not sustained compute)."""

    def __init__(self, partition_id: int, num_partitions: int,
                 cfg: SimWebConfig, **kw):
        web = SimWeb(cfg)
        super().__init__(partition_id, num_partitions,
                         robots_fetch=web.get, **kw)


def round_tasks(parts: list[tuple[str, int]], batch_size: int,
                cpus: int) -> list[list[tuple[str, int, int]]]:
    """Cut a round of n popped rows, held as ``(path, rows)`` crawl-log
    parts, into tasks of even size: one task when n fits one batch, else
    T = the next multiple of ``cpus`` at or above ceil(n / batch_size)
    (at most n), so no task exceeds ``batch_size`` rows. Each task is a
    list of ``(path, lo, hi)`` row ranges, parts in the given order."""
    n = sum(rows for _, rows in parts)
    if n <= batch_size:
        t = 1
    else:
        cpus = max(cpus, 1)
        need = -(-n // batch_size)              # ceil(n / batch_size)
        t = min(n, -(-need // cpus) * cpus)     # next multiple of cpus
    bounds = [n * i // t for i in range(t + 1)]
    tasks = []
    for lo, hi in zip(bounds, bounds[1:]):
        pieces, start = [], 0
        for path, rows in parts:
            a, b = max(lo, start), min(hi, start + rows)
            if a < b:
                pieces.append((path, a - start, b - start))
            start += rows
        tasks.append(pieces)
    return tasks


def _read_round_slice(pieces: list[tuple[str, int, int]]) -> pa.Table:
    """The popped rows a slice's ``(path, lo, hi)`` ranges name."""
    return pa.concat_tables([read_log_rows(path, lo, hi)
                             for path, lo, hi in pieces])


@ray.remote
def crawl_slice(pieces: list[tuple[str, int, int]], cfg: SimWebConfig,
                real_time_t0: float | None, parse_kw: dict) -> int:
    """One round task: read the slice, fetch and parse it, write its payload
    part beside the side tables the parse wrote. Returns the rows read."""
    batch = _read_round_slice(pieces)
    fetched = FetchStage(cfg, real_time_t0=real_time_t0)(batch)
    payload = ParseStage(cfg, **parse_kw)(fetched)
    write_part(parse_kw["out_dir"], "payload", parse_kw["round_no"],
               batch["url"].to_pylist(), payload)
    return batch.num_rows


class CrawlEngine:
    def __init__(self, cfg: SimWebConfig, out_dir: str, num_partitions: int = 4,
                 batch_size: int = 64, max_per_host_per_round: int | None = None,
                 default_delay: float = 1.0, bloom_capacity: int = 1_000_000,
                 track_seen: bool = False, use_actors: bool = False,
                 allow_deletions: bool = False, real_time: bool = False,
                 enrich: bool = True, store_html: bool = False):
        # rounds always run as plain tasks; use_actors=False stays
        # accepted for callers that pass it
        if use_actors:
            raise ValueError("use_actors=True is not supported: crawl "
                             "rounds run as plain Ray tasks")
        self.cfg = cfg
        self.out_dir = out_dir
        self.num_partitions = num_partitions
        self.batch_size = batch_size
        self.max_per_host = max_per_host_per_round
        self.real_time = real_time
        self.crawl_t0: float | None = None
        self.allow_deletions = allow_deletions
        self.track_seen = track_seen
        self.enrich = enrich
        self.store_html = store_html
        self.actors = [
            FrontierActor.remote(i, num_partitions, cfg,
                                 default_delay=default_delay,
                                 capacity=bloom_capacity, track_seen=track_seen,
                                 allow_deletions=allow_deletions)
            for i in range(num_partitions)
        ]
        # parse tasks push each batch's retried/failed/redirected counts
        # to partition 0 with its staged links; every commit drains them
        self.counters = self.actors[0]
        self.cpus = int(ray.cluster_resources().get("CPU", 1))
        self.round = 0
        # the last round's record: round, popped, tasks, rows (summed from
        # the task results) and the seconds spent in pop, tasks and commit
        self.last_stats: dict | None = None
        # north_rule lineage: fetched / retried / failed counters (the
        # frontier actors carry offered/deduped/robots_blocked/queued)
        self.lineage = {"fetched": 0, "retried": 0, "failed": 0,
                        "redirected": 0}
        os.makedirs(out_dir, exist_ok=True)

    # ---- seeding / offering ----

    def _offer(self, records: list[tuple[str, int, int]]) -> None:
        """Route (url, depth, discovery_order) records to their partition.
        Pre-sorted ascending (depth, order, url) so that Bloom first-wins
        == min-discovery-order-wins, at any parallelism."""
        records = sorted(set(records), key=lambda r: (r[1], r[2], r[0]))
        buckets: list[list] = [[] for _ in self.actors]
        for rec in records:
            buckets[partition_of(rec[0], self.num_partitions)].append(rec)
        ray.get([a.offer.remote(b) for a, b in zip(self.actors, buckets) if b])

    def seed(self, urls: list[str]) -> None:
        self._offer([(u, 0, i) for i, u in enumerate(urls)])

    def forget(self, urls: list[str]) -> int:
        """Unlearn URLs (cuckoo-filter partitions only) so a follow-up
        seed/offer re-crawls them — expired-document refresh."""
        buckets: list[list] = [[] for _ in self.actors]
        for u in urls:
            buckets[partition_of(u, self.num_partitions)].append(u)
        return sum(ray.get([a.forget.remote(b)
                            for a, b in zip(self.actors, buckets) if b]))

    # ---- one crawl round ----

    def _slice_args(self, r: int) -> tuple:
        """The arguments after ``pieces`` of round ``r``'s ``crawl_slice``."""
        parse_kw = {"frontier_handles": self.actors,
                    "out_dir": self.out_dir, "round_no": r,
                    "enrich": self.enrich, "store_html": self.store_html}
        return self.cfg, self.crawl_t0, parse_kw

    def run_round(self) -> bool:
        r = self.round
        t0 = time.perf_counter()
        # a crashed attempt of THIS round may have left partial files —
        # delete the round's output dirs before (re-)running (idempotent
        # resume; see upsert_parquet for the same temp+rename discipline)
        for sub in _ROUND_DIRS:
            shutil.rmtree(os.path.join(self.out_dir, sub, f"round={r}"),
                          ignore_errors=True)
        # drain each partition in deterministic order; each writes its pops
        # as its crawl-log part, which the round's tasks read slices of
        log_dir = os.path.join(self.out_dir, "crawl_log")
        parts = [p for p in ray.get([
            a.pop_round_log.remote(r, self.max_per_host, log_dir,
                                   self.batch_size)
            for a in self.actors]) if p[1]]
        if not parts:
            return False
        tasks = round_tasks(parts, self.batch_size, self.cpus)
        if self.real_time and self.crawl_t0 is None:
            self.crawl_t0 = time.time()
        t1 = time.perf_counter()
        # the parse side-writes meta/sections/edges/fails and stages links
        # to the frontier actors; the barrier below commits the round's
        # link union as a deterministic sorted set
        args = self._slice_args(r)
        rows = sum(ray.get([crawl_slice.remote(t, *args) for t in tasks]))
        t2 = time.perf_counter()
        lineage = ray.get([a.commit.remote() for a in self.actors])
        popped = sum(k for _, k in parts)
        self.lineage["fetched"] += popped
        for k in LINEAGE_KEYS:
            self.lineage[k] += sum(c[k] for c in lineage)
        self.last_stats = {"round": r, "popped": popped, "tasks": len(tasks),
                           "rows": rows, "pop_s": t1 - t0,
                           "tasks_s": t2 - t1,
                           "commit_s": time.perf_counter() - t2}
        self.round += 1
        return True

    def run(self, max_rounds: int = 64, checkpoint_dir: str | None = None) -> int:
        while self.round < max_rounds and self.run_round():
            if checkpoint_dir:
                self.checkpoint(checkpoint_dir)
        self._reassociate_anle_files()
        return self.round

    def _reassociate_anle_files(self) -> None:
        """Post-crawl pass: re-key harvested anle attachment blobs to
        their docs via the filename-embedded id and write the section
        table (reference anle.py:193-215,260-287 — there a separate
        process_anle job over downloaded file paths). Idempotent: the
        derived round=reassoc partition is rebuilt from the accumulated
        anle_files parts on every drain."""
        parts = sorted(glob.glob(
            f"{self.out_dir}/anle_files/round=*/part-*.parquet"))
        if not parts:
            return
        from ..stages.fulltext import reassociate_anle_files
        dst = f"{self.out_dir}/anle_sections/round=reassoc"
        shutil.rmtree(dst, ignore_errors=True)
        reassociate_anle_files(rd.read_parquet(parts)).write_parquet(dst)

    def run_refresh_cycles(self, seed_urls: list[str], cycles: int,
                           max_rounds_per_cycle: int = 64) -> int:
        """The reference's outer refresh loop (main.py:13-20: re-crawl the
        whole corpus forever, idempotent upserts absorbing the replay).
        Requires allow_deletions + track_seen: each cycle forgets the
        previous cycle's seen set (cuckoo unlearn), re-seeds, and drains.
        Output rounds keep accumulating; the upsert sink collapses them
        last-write-wins. Returns total rounds run."""
        if not self.allow_deletions or not self.track_seen:
            raise RuntimeError(
                "refresh cycles need allow_deletions=True (cuckoo unlearn) "
                "and track_seen=True (the set to forget)")
        total = 0
        for cycle in range(cycles):
            if cycle > 0:
                seen = sorted(self.seen_urls())
                if seen:
                    self.forget(seen)
            self.seed(seed_urls)
            before = self.round
            self.run(max_rounds=self.round + max_rounds_per_cycle)
            total += self.round - before
        return total

    # ---- introspection ----

    def metrics(self) -> dict:
        per_part = ray.get([a.get_metrics.remote() for a in self.actors])
        total = {k: sum(m[k] for m in per_part) for k in per_part[0]}
        total.update(self.lineage)
        return {"total": total, "partitions": per_part,
                "rounds": self.round}

    def seen_urls(self) -> set[str]:
        parts = ray.get([a.get_seen_urls.remote() for a in self.actors])
        return set(u for p in parts for u in p)

    def crawl_log_table(self) -> pa.Table:
        """Reconstruct the global crawl log from the per-partition parquet:
        within a round the global order is ascending (fetch_time, host,
        depth, discovery_order, url) — exactly the merged pop order — and
        pop_seq is that rank offset by prior rounds. Driver-side ONLY for
        tests/small audits; at scale consumers read the parquet dataset."""
        by_round: dict[int, list[str]] = {}
        for f in glob.glob(f"{self.out_dir}/crawl_log/round=*/part-*.parquet"):
            rno = int(f.split("round=")[1].split(os.sep)[0])
            by_round.setdefault(rno, []).append(f)
        if not by_round:
            return LOG_SCHEMA.empty_table()
        parts, seq = [], 0
        for rno in sorted(by_round):
            df = pq.read_table(sorted(by_round[rno])).to_pandas()
            df = df.sort_values(["fetch_time", "host", "depth",
                                 "discovery_order", "url"], kind="mergesort")
            df.insert(0, "pop_seq", np.arange(seq, seq + len(df)))
            seq += len(df)
            parts.append(pa.Table.from_pandas(df, schema=LOG_SCHEMA,
                                              preserve_index=False))
        return pa.concat_tables(parts)

    @property
    def crawl_log(self) -> list[tuple]:
        t = self.crawl_log_table()
        return list(zip(*[t[c].to_pylist() for c in LOG_SCHEMA.names])) \
            if t.num_rows else []

    @property
    def fail_log(self) -> list[tuple]:
        files = sorted(glob.glob(f"{self.out_dir}/fails/round=*/part-*.parquet"))
        if not files:
            return []
        t = pq.read_table(files)
        return sorted(set(zip(t["url"].to_pylist(), t["status"].to_pylist())))

    # ---- checkpoint / resume (north_rule) ----

    def checkpoint(self, ckpt_dir: str) -> None:
        rdir = os.path.join(ckpt_dir, f"round_{self.round:04d}")
        os.makedirs(rdir, exist_ok=True)
        snaps = ray.get([a.snapshot.remote() for a in self.actors])
        for i, blob in enumerate(snaps):
            with open(os.path.join(rdir, f"part_{i}.pkl"), "wb") as f:
                f.write(blob)
        # manifest last = atomic commit of the checkpoint (the crawl log
        # already lives in out_dir as per-round per-partition parquet)
        tmp = os.path.join(ckpt_dir, ".manifest.tmp")
        with open(tmp, "w") as f:
            json.dump({"round": self.round,
                       "num_partitions": self.num_partitions,
                       "lineage": self.lineage}, f)
        os.replace(tmp, os.path.join(ckpt_dir, "manifest.json"))

    @classmethod
    def resume(cls, ckpt_dir: str, cfg: SimWebConfig, out_dir: str,
               **engine_kw) -> "CrawlEngine":
        with open(os.path.join(ckpt_dir, "manifest.json")) as f:
            manifest = json.load(f)
        eng = cls(cfg, out_dir,
                  num_partitions=manifest["num_partitions"], **engine_kw)
        rdir = os.path.join(ckpt_dir, f"round_{manifest['round']:04d}")
        blobs = []
        for i in range(manifest["num_partitions"]):
            with open(os.path.join(rdir, f"part_{i}.pkl"), "rb") as f:
                blobs.append(f.read())
        ray.get([a.restore.remote(b) for a, b in zip(eng.actors, blobs)])
        eng.round = manifest["round"]
        eng.lineage = manifest.get("lineage", dict(eng.lineage))
        return eng
