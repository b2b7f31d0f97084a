"""Sharded URL frontier — the engine's core stateful component (north_rule).

Replaces the reference's implicit frontier (a ``range(1, 1001)`` page loop
plus a shared in-memory ``full_id_list``, app/service/vbpl.py:97-114) with
hash(host)-partitioned stateful actors, each owning:

- a per-host priority queue ordered by (depth, discovery_order) — the
  deterministic analogue of the reference's pages-ascending / rows-in-page
  crawl order (SURVEY.md §2.6 O3);
- per-host politeness in VIRTUAL time: the i-th fetch from a host is
  scheduled at i * crawl_delay (delay from robots.txt Crawl-delay, else the
  configured default — the reference's sleep(3)/sleep(1) budget);
- a Bloom filter over hash64(canonical URL) for seen-membership (the
  reference's DB PK probes, app/service/vbpl.py:188-190);
- robots.txt rules per host (fetched once, cached);
- lineage metrics (offered / deduped / robots_blocked / queued / popped)
  and snapshot/restore checkpointing.

Determinism: pop order within a partition is a pure function of the offered
(url, depth, discovery_order) set, NOT of arrival timing or parallelism —
two runs (or N- vs 4N-CPU runs) produce identical crawl order. The global
order across partitions is the merge by (fetch_time, host, depth,
discovery_order) done by the crawl driver.

Skew handling: ``max_per_host_per_round`` time-slices a hot host's queue
across rounds so one domain cannot monopolize a round while other hosts'
politeness windows go idle.
"""

from __future__ import annotations

import heapq
import os
import pickle
from typing import Callable
from urllib.parse import urlsplit

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

# one crawl-log partition per frontier partition per round — the log is
# DATA-plane output (one row per fetched URL) and never accumulates on
# the driver; the global pop_seq is derived at read time by sorting
# (round, fetch_time, host, depth, discovery_order, url)
POP_SCHEMA = pa.schema([
    ("fetch_time", pa.float64()), ("host", pa.string()),
    ("depth", pa.int32()), ("discovery_order", pa.int64()),
    ("url", pa.string()),
])

from ..functions.canon import canonicalize_url, host_of
from ..functions.hashing import hash64
from .bloom import BloomFilter
from .cuckoo import CuckooFilter
from .robots import ALLOW_ALL, RobotsRules, parse_robots


class _CuckooSeen:
    """Cuckoo-filter adapter with the Bloom batch interface — the
    deletion-capable fallback (north_rule): re-crawling expired documents
    requires unlearning seen-ness, which a Bloom filter cannot do."""

    def __init__(self, capacity: int):
        self.filter = CuckooFilter(capacity)
        self.count = 0

    def add(self, hashes: np.ndarray) -> np.ndarray:
        out = np.zeros(len(hashes), dtype=bool)
        for i, h in enumerate(np.asarray(hashes, dtype=np.uint64)):
            if self.filter.contains(int(h)):
                continue
            out[i] = self.filter.add(int(h))
        self.count += int(out.sum())
        return out

    def contains(self, hashes: np.ndarray) -> np.ndarray:
        return self.filter.contains_batch(hashes)

    def remove(self, hashes: np.ndarray) -> int:
        removed = sum(self.filter.remove(int(h))
                      for h in np.asarray(hashes, dtype=np.uint64))
        self.count -= removed
        return removed

    def snapshot(self) -> dict:
        return {"kind": "cuckoo", "count": self.count,
                "filter": self.filter.snapshot()}

    @classmethod
    def restore(cls, snap: dict) -> "_CuckooSeen":
        s = cls.__new__(cls)
        s.filter = CuckooFilter.restore(snap["filter"])
        s.count = snap["count"]
        return s

METRIC_KEYS = ("offered", "deduped", "robots_blocked", "queued", "popped",
               "robots_fetched")
# per-round counters the parse tasks push with their staged links; the
# round barrier drains them through :meth:`FrontierPartition.commit`
LINEAGE_KEYS = ("retried", "failed", "redirected")


class FrontierPartition:
    """Single partition; wrapped in a Ray actor by pipelines/crawl.py.

    ``robots_fetch``: callable url -> (status, content_type, body). In this
    sandbox it serves from the SimWeb; in production it is an HTTP client.
    """

    def __init__(self, partition_id: int, num_partitions: int,
                 robots_fetch: Callable | None = None,
                 default_delay: float = 1.0, capacity: int = 1_000_000,
                 fp_rate: float = 0.01, track_seen: bool = False,
                 allow_deletions: bool = False):
        self.partition_id = partition_id
        self.num_partitions = num_partitions
        self.robots_fetch = robots_fetch
        self.default_delay = default_delay
        self.allow_deletions = allow_deletions
        self.seen = (_CuckooSeen(capacity) if allow_deletions
                     else BloomFilter(capacity, fp_rate))
        self.heaps: dict[str, list] = {}           # host -> [(depth, order, url)]
        self.next_free: dict[str, float] = {}      # host -> virtual next slot
        self.robots: dict[str, RobotsRules] = {}
        self.metrics = dict.fromkeys(METRIC_KEYS, 0)
        self.track_seen = track_seen
        self.seen_urls: list[str] = []
        self._staged: list[tuple[str, int, int]] = []
        self.lineage = dict.fromkeys(LINEAGE_KEYS, 0)

    # ---- robots ----

    def _rules(self, host: str, scheme: str = "http",
               netloc: str | None = None) -> RobotsRules:
        """Robots rules per hostname; the robots URL is built from the
        actual scheme+netloc of the first URL seen for the host, so
        explicit non-default ports fetch the right /robots.txt."""
        if host not in self.robots:
            if self.robots_fetch is None:
                self.robots[host] = ALLOW_ALL
            else:
                status, _, body = self.robots_fetch(
                    f"{scheme or 'http'}://{netloc or host}/robots.txt")
                self.robots[host] = parse_robots(body) if status == 200 else ALLOW_ALL
                self.metrics["robots_fetched"] += 1
        return self.robots[host]

    def _delay(self, host: str) -> float:
        d = self._rules(host).crawl_delay
        return self.default_delay if d is None else d

    # ---- offer / pop ----

    def stage(self, records: list[tuple[str, int, int]], retried: int = 0,
              failed: int = 0, redirected: int = 0) -> int:
        """Buffer link candidates pushed mid-round by parse tasks (arrival
        order is nondeterministic under parallelism). Nothing enters the
        queues until :meth:`commit` sorts the round's union — which makes
        frontier state a pure function of the offered SET, not of timing.
        The batch's lineage counters ride along (sums are order-free)."""
        self._staged.extend(records)
        for k, v in zip(LINEAGE_KEYS, (retried, failed, redirected)):
            self.lineage[k] += v
        return len(self._staged)

    def commit(self) -> dict[str, int]:
        """Round barrier: sort staged candidates by (depth, order, url) and
        run the normal offer path. Deterministic at any parallelism.
        Returns and resets the round's lineage counters."""
        staged, self._staged = self._staged, []
        self.offer(staged)
        lineage, self.lineage = self.lineage, dict.fromkeys(LINEAGE_KEYS, 0)
        return lineage

    def offer(self, records: list[tuple[str, int, int]]) -> int:
        """records: (url, depth, discovery_order), pre-sorted by the driver
        ascending (depth, discovery_order) so first-wins == min-order-wins.
        Returns number queued."""
        records = sorted({tuple(r) for r in records},
                         key=lambda r: (r[1], r[2], r[0]))
        if not records:
            return 0
        self.metrics["offered"] += len(records)
        urls = [canonicalize_url(r[0]) for r in records]
        new = self.seen.add(hash64(urls))
        queued = 0
        for is_new, url, (_, depth, order) in zip(new, urls, records):
            if not is_new:
                self.metrics["deduped"] += 1
                continue
            sp = urlsplit(url)
            host = sp.hostname or ""
            # robots Disallow prefixes match the path (+query), never the
            # netloc — string-splitting on the host breaks for ported URLs
            path = (sp.path or "/") + (f"?{sp.query}" if sp.query else "")
            if not self._rules(host, sp.scheme, sp.netloc).allows(path):
                self.metrics["robots_blocked"] += 1
                continue
            heapq.heappush(self.heaps.setdefault(host, []), (depth, order, url))
            if self.track_seen:
                self.seen_urls.append(url)
            queued += 1
        self.metrics["queued"] += queued
        return queued

    def pop_round(self, max_per_host: int | None = None) -> list[tuple]:
        """Drain queued URLs (up to max_per_host each) in deterministic
        priority order, assigning virtual fetch times.
        Returns [(fetch_time, host, depth, discovery_order, url)].

        One C-speed sort per host instead of n heappops (a sorted list
        satisfies the heap invariant, so the remainder goes straight back
        as the host's heap)."""
        out = []
        for host in sorted(self.heaps):
            items = sorted(self.heaps[host])
            delay = self._delay(host)
            n = len(items) if max_per_host is None else min(len(items),
                                                            max_per_host)
            t0 = self.next_free.get(host, 0.0)
            out.extend((t0 + j * delay, host, depth, order, url)
                       for j, (depth, order, url) in enumerate(items[:n]))
            self.next_free[host] = t0 + n * delay
            if n < len(items):
                self.heaps[host] = items[n:]   # sorted => valid heap
            else:
                del self.heaps[host]
        self.metrics["popped"] += len(out)
        out.sort()
        return out

    # ---- data-plane pop handoff (pops never transit the driver) ----

    def pop_round_log(self, round_no: int, max_per_host: int | None,
                      log_dir: str,
                      row_group_rows: int) -> tuple[str | None, int]:
        """Drain this partition's round in deterministic order and write
        it as this partition's crawl-log parquet for the round, in row
        groups of ``row_group_rows``. The crawl tasks read their slices
        of the round from this file (see :func:`read_log_rows`), so the
        pops reach them without passing through the driver or this
        actor's return values. Returns (path, rows); path is None when
        the partition popped nothing."""
        pops = self.pop_round(max_per_host)
        if not pops:
            return None, 0
        tbl = pa.table({f.name: pa.array(list(c), f.type)
                        for f, c in zip(POP_SCHEMA, zip(*pops))})
        d = os.path.join(log_dir, f"round={round_no}")
        os.makedirs(d, exist_ok=True)
        path = os.path.join(d, f"part-{self.partition_id:04d}.parquet")
        pq.write_table(tbl, path, row_group_size=row_group_rows)
        return path, tbl.num_rows

    def forget(self, urls: list[str]) -> int:
        """Unlearn URLs so a re-crawl can fetch them again (expired-document
        semantics ≅ the reference's soft-delete + re-crawl, app/model/
        base.py:38-44). Requires the cuckoo filter (allow_deletions=True)."""
        if not self.allow_deletions:
            raise RuntimeError("forget() requires allow_deletions=True "
                               "(cuckoo filter); Bloom cannot unlearn")
        canon = [canonicalize_url(u) for u in urls]
        removed = self.seen.remove(hash64(canon))
        if self.track_seen:
            gone = set(canon)
            self.seen_urls = [u for u in self.seen_urls if u not in gone]
        return removed

    def pending(self) -> int:
        return sum(len(h) for h in self.heaps.values())

    def get_metrics(self) -> dict:
        return dict(self.metrics)

    def get_seen_urls(self) -> list[str]:
        return list(self.seen_urls)

    # ---- checkpoint (north_rule: frontier state + filter snapshot +
    # lineage metrics per partition) ----

    def snapshot(self) -> bytes:
        return pickle.dumps({
            "partition_id": self.partition_id,
            "num_partitions": self.num_partitions,
            "default_delay": self.default_delay,
            "heaps": self.heaps,
            "next_free": self.next_free,
            "robots": self.robots,
            "metrics": self.metrics,
            "allow_deletions": self.allow_deletions,
            "bloom": self.seen.snapshot(),
            "track_seen": self.track_seen,
            "seen_urls": self.seen_urls,
            "staged": self._staged,   # empty at round barriers
            "lineage": self.lineage,  # zero at round barriers
        })

    def restore(self, blob: bytes) -> None:
        s = pickle.loads(blob)
        self.partition_id = s["partition_id"]
        self.num_partitions = s["num_partitions"]
        self.default_delay = s["default_delay"]
        self.heaps = s["heaps"]
        self.next_free = s["next_free"]
        self.robots = s["robots"]
        self.metrics = s["metrics"]
        self.allow_deletions = s.get("allow_deletions", False)
        self.seen = (_CuckooSeen.restore(s["bloom"]) if self.allow_deletions
                     else BloomFilter.restore(s["bloom"]))
        self.track_seen = s["track_seen"]
        self.seen_urls = s["seen_urls"]
        self._staged = s.get("staged", [])
        self.lineage = s.get("lineage", dict.fromkeys(LINEAGE_KEYS, 0))


def read_log_rows(path: str, lo: int, hi: int) -> pa.Table:
    """Rows [lo, hi) of a crawl-log part, reading only the row groups
    that overlap them."""
    pf = pq.ParquetFile(path)
    meta = pf.metadata
    groups, first, start = [], None, 0
    for g in range(meta.num_row_groups):
        n = meta.row_group(g).num_rows
        if start < hi and start + n > lo:
            groups.append(g)
            first = start if first is None else first
        start += n
    return pf.read_row_groups(groups).slice(lo - first, hi - lo)


def partition_of(url: str, num_partitions: int) -> int:
    """hash(host) % P — the frontier's partitioning key (north_rule)."""
    return int(hash64([host_of(canonicalize_url(url))])[0] % np.uint64(num_partitions))
