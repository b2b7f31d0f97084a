"""The three workloads: set-up, the timed closed loop, and the checks.

Each workload drives the program through its public calls only. The loop
is closed with one operation outstanding: the next call starts when the
previous one has returned. Checks run outside the timed windows; a check
that fails counts its operation as failed.
"""

from __future__ import annotations

import glob
import hashlib
import os
import shutil
import statistics
import time

import numpy as np
import pyarrow.parquet as pq

import inputs

CRAWL_PARTITIONS = 2
CRAWL_BATCH = 32
CRAWL_MAX_ROUNDS = 256


def _signed64(x: int) -> int:
    return (int(x) + 2**63) % 2**64 - 2**63


def dir_bytes(path: str) -> int:
    return sum(os.path.getsize(f) for f in
               glob.glob(os.path.join(path, "**", "*"), recursive=True)
               if os.path.isfile(f))


def round_counts(out_dir: str) -> dict[int, int]:
    counts: dict[int, int] = {}
    for f in glob.glob(f"{out_dir}/crawl_log/round=*/part-*.parquet"):
        rno = int(f.split("round=")[1].split(os.sep)[0])
        counts[rno] = counts.get(rno, 0) + pq.read_metadata(f).num_rows
    return counts


def compaction_stats(out_dir: str) -> dict:
    pay = read_rounds(out_dir, "payload")
    comp = pq.read_table(f"{out_dir}/payload_compacted")
    return {"rows_in": pay.num_rows if pay else 0, "rows_out": comp.num_rows,
            "bytes": dir_bytes(f"{out_dir}/payload_compacted")}


def read_rounds(out_dir: str, sub: str, columns: list[str] | None = None):
    files = sorted(glob.glob(f"{out_dir}/{sub}/round=*/*.parquet"))
    return pq.read_table(files, columns=columns) if files else None


class Workload:
    """Shared crawl plumbing. ``ctx`` is the run's state (see run.py)."""

    name = ""

    def __init__(self, ctx):
        self.ctx = ctx
        self.cfg = None
        self.seeds: list[str] = []
        self.last_out: str | None = None
        self.corrupt = ctx.corrupt
        # trace id -> {round: URLs popped}, for the round-time regression
        self.round_urls: dict[int, dict[int, int]] = {}

    # -- set-up (timed by the harness, repeated) --

    def configure(self) -> None:
        from vbpl_web_crawl_ray.sources.simweb import SimWeb
        self.cfg = inputs.sim_config(self.name, self.ctx.sf_dir,
                                     self.ctx.seed, self.ctx.size)
        self.seeds = SimWeb(self.cfg).seed_urls()

    def prepare(self, rep_dir: str) -> None:
        """Workload-specific set-up after ray.init and the registry import."""

    def teardown(self) -> None:
        """Release what ``prepare`` built (between set-up repetitions)."""

    # -- the loop --

    def new_engine(self, out: str, **kw):
        from vbpl_web_crawl_ray.pipelines.crawl import CrawlEngine
        eng = CrawlEngine(self.cfg, out, num_partitions=CRAWL_PARTITIONS,
                          batch_size=CRAWL_BATCH, use_actors=False, **kw)
        eng.metrics()      # frontier actors are up before any timing
        tr = self.ctx.tracer
        run_round = eng.run_round

        def traced_round():
            with tr.span("crawl.run_round", round=eng.round) as s:
                popped = run_round()
                if s is not None:
                    s["popped"] = popped
                return popped
        eng.run_round = traced_round
        return eng

    @staticmethod
    def stop_engine(eng) -> None:
        import ray
        for a in [*eng.actors, eng.counters]:
            ray.kill(a)

    def loop(self, seconds: float, min_ops: int) -> list[dict]:
        """One warm-up operation, then ``op`` until ``seconds`` of operation
        time are measured. The warm-up pays the workers' first use; it is
        checked like every operation but left out of the medians."""
        recs: list[dict] = []
        busy = 0.0
        while busy < seconds or len(recs) <= min_ops:
            i = len(recs)
            self.ctx.tracer.enabled = self.ctx.trace and i % 2 == 1
            self.ctx.tracer.new_trace()
            with self.ctx.tracer.span(f"op.{self.name}"):
                rec = self.op(i)
            rec["traced"] = self.ctx.tracer.enabled
            rec["warmup"] = i == 0
            self.ctx.tracer.enabled = False
            if rec["traced"]:
                self.round_urls[self.ctx.tracer.trace_id] = \
                    round_counts(self.last_out)
            if i:
                busy += rec["sec"]
            recs.append(rec)
        return recs

    def op_out(self, i: int) -> str:
        if self.last_out:
            shutil.rmtree(self.last_out, ignore_errors=True)
        self.last_out = os.path.join(self.ctx.run_dir, "ops", f"op{i}")
        return self.last_out

    def wall_s(self, recs: list[dict]) -> float:
        return statistics.median(r["sec"] for r in recs if not r["warmup"])


class CrawlImages(Workload):
    """Full crawls of a web whose documents carry 512-576 px images."""

    name = "crawl-images"

    def op(self, i: int) -> dict:
        eng = self.new_engine(self.op_out(i))
        t0 = time.perf_counter()
        eng.seed(self.seeds)
        eng.run(max_rounds=CRAWL_MAX_ROUNDS)
        sec = time.perf_counter() - t0
        rec = self.finish(eng, sec)
        self.stop_engine(eng)
        return rec

    def finish(self, eng, sec: float) -> dict:
        log = [(t, h, d, o, u) for (_, t, h, d, o, u) in eng.crawl_log]
        pay = read_rounds(eng.out_dir, "payload", ["image_id", "phash"])
        pairs = sorted(zip(pay["image_id"].to_pylist(),
                           pay["phash"].to_pylist())) if pay else []
        h = hashlib.sha256(repr(log).encode())
        h.update(repr(pairs).encode())
        return {"sec": sec, "urls": len(log), "rounds": eng.round,
                "digest": h.hexdigest(), "log": log, "pairs": pairs,
                "engine": eng.metrics()["total"]}

    def check(self, recs: list[dict]) -> list[str]:
        """The first crawl equals the oracle crawler's log and payload
        hashes; every crawl's digest equals the first crawl's."""
        from oracle_crawler import oracle_crawl
        want = oracle_crawl(self.cfg)
        want_log = list(want["log"])
        want_pairs = sorted((k, _signed64(v["phash"]))
                            for k, v in want["payloads"].items())
        digest = recs[0]["digest"]
        if self.corrupt:
            want_log = want_log[:-1]
            digest = digest[::-1]
        errs = []
        if recs[0]["log"] != want_log:
            errs.append("op0: crawl log differs from the oracle crawl")
        if recs[0]["pairs"] != want_pairs:
            errs.append("op0: payload phashes differ from the oracle crawl")
        for i, r in enumerate(recs):
            if r["digest"] != digest:
                errs.append(f"op{i}: crawl digest differs from the first run")
        return errs

    def extras(self, recs: list[dict]) -> dict:
        return {"urls_per_s": recs[0]["urls"] / self.wall_s(recs),
                "urls": recs[0]["urls"], "rounds": recs[0]["rounds"]}


class RefreshUpsert(Workload):
    """Many short rounds, refresh cycles and a compaction after each."""

    name = "refresh-upsert"

    def op(self, i: int) -> dict:
        from vbpl_web_crawl_ray.stages.upsert import compact_crawl_output
        size = inputs.SIZES[self.ctx.size]
        out = self.op_out(i)
        eng = self.new_engine(out, allow_deletions=True, track_seen=True,
                              max_per_host_per_round=size["max_per_host"])
        compactions: list[dict] = []
        tr = self.ctx.tracer
        run = eng.run

        def run_then_compact(*a, **kw):
            n = run(*a, **kw)
            t0 = time.perf_counter()
            with tr.span("upsert.compact"):
                compact_crawl_output(out)
            compactions.append({"sec": time.perf_counter() - t0})
            if tr.enabled:
                compactions[-1]["bytes"] = dir_bytes(
                    f"{out}/payload_compacted")
            return n
        eng.run = run_then_compact
        t0 = time.perf_counter()
        eng.run_refresh_cycles(self.seeds, cycles=size["cycles"])
        sec = time.perf_counter() - t0
        rec = {"sec": sec, "compactions": compactions, "rounds": eng.round,
               "urls": eng.lineage["fetched"],
               "engine": eng.metrics()["total"], "errors": []}
        if tr.enabled:
            rec["compaction"] = compaction_stats(out)
        self.stop_engine(eng)
        rec["errors"] = self.check_store(out)
        return rec

    def check_store(self, out: str) -> list[str]:
        """Exactly one compacted row per image_id, equal to the row of its
        newest round in the per-round output."""
        newest: dict[str, tuple[int, dict]] = {}
        for f in glob.glob(f"{out}/payload/round=*/*.parquet"):
            rno = int(f.split("round=")[1].split(os.sep)[0])
            for row in pq.read_table(f).to_pylist():
                if row["image_id"] not in newest or \
                        newest[row["image_id"]][0] < rno:
                    newest[row["image_id"]] = (rno, row)
        got = pq.read_table(f"{out}/payload_compacted").to_pylist()
        ids = [r["image_id"] for r in got]
        errs = []
        if len(ids) != len(set(ids)):
            errs.append("compacted table has duplicate image_ids")
        if set(ids) != set(newest):
            errs.append("compacted image_ids differ from the round output")
        if self.corrupt and newest:
            k = min(newest)
            rno, row = newest[k]
            newest[k] = (rno, dict(row, phash=row["phash"] ^ 1))
        for r in got:
            rno, want = newest.get(r["image_id"], (None, None))
            if want is None:
                continue
            if int(r["round"]) != rno or any(r[c] != want[c] for c in want):
                errs.append(f"{r['image_id']}: compacted row is not the "
                            f"newest round's row")
                break
        return errs

    def check(self, recs: list[dict]) -> list[str]:
        return [f"op{i}: {e}" for i, r in enumerate(recs) for e in r["errors"]]

    def extras(self, recs: list[dict]) -> dict:
        comp = [c["sec"] for r in recs if not r["warmup"]
                for c in r["compactions"]]
        return {"urls_per_s": recs[0]["urls"] / self.wall_s(recs),
                "compact_s": statistics.median(comp),
                "compact_n": len(comp), "urls": recs[0]["urls"],
                "rounds": recs[0]["rounds"]}


class QueryMix(Workload):
    """Read-only: point lookups over a crawled store and registry queries."""

    name = "query-mix"

    def configure(self) -> None:
        super().configure()
        size = inputs.SIZES[self.ctx.size]
        names = (inputs.TINY_QUERIES if self.ctx.size == "tiny"
                 else inputs.QUERIES)
        self.lookups = inputs.lookup_ids(self.cfg, self.ctx.seed,
                                         size["lookups"])
        ops = ([("lookup", d) for d in self.lookups]
               + [("query", q) for q in inputs.query_order(self.ctx.seed,
                                                           names)])
        perm = np.random.default_rng(self.ctx.seed + 3).permutation(len(ops))
        self.pass_ops = [ops[i] for i in perm]
        self.store = None

    def prepare(self, rep_dir: str) -> None:
        import __ray_entry__ as registry
        tr = self.ctx.tracer
        self.store = os.path.join(rep_dir, "store")
        if self.ctx.trace:
            tr.new_trace()
        with tr.span("setup.store_crawl"):
            eng = self.new_engine(self.store)
            t0 = time.perf_counter()
            eng.seed(self.seeds)
            eng.run(max_rounds=CRAWL_MAX_ROUNDS)
            if self.ctx.trace:
                # the store crawl is this workload's only crawl: the
                # traced run reads the crawl-layer figures off it
                self.round_urls[tr.trace_id] = round_counts(self.store)
                self.store_crawl = {
                    "sec": time.perf_counter() - t0, "warmup": False,
                    "rounds": eng.round, "engine": eng.metrics()["total"],
                    "urls": sum(self.round_urls[tr.trace_id].values())}
            self.stop_engine(eng)
        with tr.span("setup.tablecache_warm"):
            warm_tablecache(self.ctx.sf_dir)
        self.queries = registry.queries()

    def teardown(self) -> None:
        from vbpl_web_crawl_ray.sources import tablecache
        tablecache.clear()
        if self.store:
            shutil.rmtree(os.path.dirname(self.store), ignore_errors=True)

    def loop(self, seconds: float, min_ops: int) -> list[dict]:
        """Whole passes over the seeded operation list."""
        recs: list[dict] = []
        busy = 0.0
        while busy < seconds or not recs:
            for kind, arg in self.pass_ops:
                i = len(recs)
                self.ctx.tracer.enabled = self.ctx.trace and i % 2 == 1
                self.ctx.tracer.new_trace()
                rec = self.op_lookup(arg) if kind == "lookup" \
                    else self.op_query(arg)
                rec["traced"] = self.ctx.tracer.enabled
                rec["warmup"] = False
                self.ctx.tracer.enabled = False
                busy += rec["sec"]
                recs.append(rec)
        return recs

    def op_lookup(self, doc_id: int) -> dict:
        from vbpl_web_crawl_ray.pipelines.lookup import fetch_doc_by_id
        t0 = time.perf_counter()
        with self.ctx.tracer.span("lookup.call"):
            row = fetch_doc_by_id(self.store, doc_id)
        return {"kind": "lookup", "name": "lookup", "id": doc_id,
                "sec": time.perf_counter() - t0, "row": row}

    def op_query(self, name: str) -> dict:
        return run_query(self.ctx.tracer, self.queries, self.ctx.sf_dir, name)

    def wall_s(self, recs: list[dict]) -> float:
        """One pass's time from per-operation medians: each query's median
        plus the lookup count times the lookup median."""
        by: dict[str, list[float]] = {}
        for r in recs:
            by.setdefault(r["name"], []).append(r["sec"])
        return sum(statistics.median(v) * (len(self.lookups)
                                           if k == "lookup" else 1)
                   for k, v in by.items())

    def check(self, recs: list[dict]) -> list[str]:
        import __ray_entry__ as registry
        from util_compare import run_oracle
        sqls = registry.oracle_sql()
        want_rows = self.lookup_oracle()
        wants: dict = {}
        errs = []
        for i, r in enumerate(recs):
            if r["kind"] == "lookup":
                if not same_lookup(r["row"], want_rows(r["id"])):
                    errs.append(f"op{i}: lookup {r['id']} differs from the "
                                f"pyarrow filter of the store")
                continue
            name = r["name"]
            if name not in wants:
                want = run_oracle(sqls[name], self.ctx.sf_dir)
                if self.corrupt:
                    want = want.iloc[:-1]
                wants[name] = want
            if not frames_match(r["df"], wants[name]):
                errs.append(f"op{i}: {name} differs from its oracle")
        return errs

    def lookup_oracle(self):
        import pyarrow.compute as pc
        pay = read_rounds(self.store, "payload")
        edges = read_rounds(self.store, "edges")
        meta = read_rounds(self.store, "meta")
        titles = dict(zip(meta["doc_id"].to_pylist(),
                          meta["title"].to_pylist()))

        def want(doc_id: int):
            hit = pay.filter(pc.equal(pay["image_id"], f"img{doc_id:08d}"))
            if hit.num_rows == 0:
                return None
            row = hit.to_pylist()[0]
            out_e = edges.filter(pc.equal(edges["src"], str(doc_id)))
            row["related"] = [{"doc_id": e["dst"], "label": e["label"],
                               "title": titles.get(e["dst"])}
                              for e in out_e.to_pylist()]
            row["title"] = titles.get(str(doc_id))
            return row
        return want

    def extras(self, recs: list[dict]) -> dict:
        look = [r["sec"] for r in recs if r["kind"] == "lookup"]
        qry = [r["sec"] for r in recs if r["kind"] == "query"]
        lp, lt = tail(look)
        qp, qt = tail(qry)
        return {"lookup_p50_ms": 1e3 * statistics.median(look),
                "lookup_tail_ms": 1e3 * lt, "lookup_tail_pct": lp,
                "lookup_n": len(look),
                "query_p50_s": statistics.median(qry), "query_tail_s": qt,
                "query_tail_pct": qp, "query_n": len(qry)}


def warm_tablecache(sf_dir: str) -> None:
    from vbpl_web_crawl_ray.sources import tablecache
    for t in ("region", "nation", "customer", "supplier", "part", "orders",
              "lineitem", "documents"):
        tablecache.base_dataset(sf_dir, t)


def run_query(tr, queries: dict, sf_dir: str, name: str) -> dict:
    """One registry query: the call (plan) and ``to_pandas`` (collect)."""
    from util_compare import to_pandas
    t0 = time.perf_counter()
    with tr.span("query.call", query=name):
        with tr.span("query.plan"):
            res = queries[name](sf_dir)
        t1 = time.perf_counter()
        with tr.span("query.collect"):
            df = to_pandas(res)
    t2 = time.perf_counter()
    return {"kind": "query", "name": name, "sec": t2 - t0, "plan": t1 - t0,
            "collect": t2 - t1, "rows": len(df), "df": df}


def tail(values: list[float]) -> tuple[int, float]:
    """The highest percentile with at least 10 samples beyond it (the
    median when there are fewer than 20 samples), and its value."""
    n = len(values)
    pct = max(50, int(100 * (1 - 10 / n))) if n >= 20 else 50
    return pct, float(np.percentile(values, pct))


def same_lookup(got, want) -> bool:
    if got is None or want is None:
        return got is None and want is None
    key = ("doc_id", "label", "title")
    rel = sorted(tuple(e[k] for k in key) for e in got["related"])
    if rel != sorted(tuple(e[k] for k in key) for e in want["related"]):
        return False
    if (got["meta"] or {}).get("title") != want["title"]:
        return False
    return all(got.get(c) == want[c] for c in want
               if c not in ("related", "title"))


def frames_match(got, want, tol: float = 1e-9) -> bool:
    """Row count, column names and values after canonical sorting, floats
    within ``tol``, as ``tests/util_compare.assert_match`` compares."""
    import pandas as pd
    from util_compare import canonicalize
    g, w = canonicalize(got), canonicalize(want)
    if len(g) != len(w) or list(g.columns) != list(w.columns):
        return False
    for c in g.columns:
        if pd.api.types.is_float_dtype(w[c]):
            if not np.allclose(g[c].to_numpy(), w[c].to_numpy(), rtol=tol,
                               atol=tol, equal_nan=True):
                return False
        elif not g[c].astype(str).equals(w[c].astype(str)):
            return False
    return True


WORKLOADS = {w.name: w for w in (CrawlImages, RefreshUpsert, QueryMix)}
