"""Per-layer metrics of a traced run.

The timed loop of a traced run records spans around ``run_round``, each
compaction, lookup and query. After the loop, the layers below the crawl
are replayed one at a time on that run's own crawl output, with a span
around every public call: the frontier actor's offer/pop/commit/forget on
the crawl log's URL records, in-process ``FetchStage`` and ``ParseStage``
batches over the same URLs, ``SimWeb.get``, ``decode_image``,
``phash64`` and ``parse_fulltext`` on the fetched bodies, a compaction,
point lookups split into pruning and reading, and a preview.

Layers a workload's loop never calls are still measured by the replay:
the crawl workloads run the query list once (after warming the table
cache) on their run's generated tables, and query-mix reads its crawl
figures off the store crawl of its set-up.
"""

from __future__ import annotations

import glob
import os
import shutil
import statistics
from urllib.parse import urljoin

import pyarrow as pa
import pyarrow.parquet as pq

import inputs
from workloads import (CRAWL_BATCH, compaction_stats, run_query, tail,
                       warm_tablecache)

PER_LAYER = [
    "frontier.offer_per_s", "frontier.pop_per_s", "frontier.commit_ms",
    "frontier.forget_ms", "frontier.dedup_ratio",
    "crawl.rounds", "crawl.round_p50_s", "crawl.round_max_s",
    "crawl.round_fixed_s", "crawl.seen_pull_ms", "crawl.urls_per_s",
    "fetch.ms_per_url", "fetch.retries", "fetch.non200_share",
    "simweb.get_ms",
    "parse.ms_per_doc", "imaging.inline_get_ms", "imaging.decode_ms",
    "imaging.phash_ms", "fulltext.parse_ms",
    "upsert.compact_s", "upsert.rows_in", "upsert.rows_out",
    "upsert.bytes_written_per_live_byte",
    "lookup.p50_ms", "lookup.tail_ms", "lookup.prune_ms", "lookup.read_ms",
    "lookup.files_kept_ratio", "lookup.preview_s",
    "tablecache.warm_s", "registry.import_s",
    "query.p50_s", "query.tail_s", "query.plan_s", "query.collect_s",
    "query.result_rows",
    *[f"query.{q}_s" for q in inputs.QUERIES],
    "split.parse_share", "split.round_fixed_share",
    "trace.overhead_ratio", "trace.spans",
]


def _med(xs, scale: float = 1.0) -> float:
    xs = list(xs)
    return scale * statistics.median(xs) if xs else 0.0


def crawl_log(out_dir: str) -> list[tuple[int, pa.Table]]:
    by_round: dict[int, list[str]] = {}
    for f in glob.glob(f"{out_dir}/crawl_log/round=*/part-*.parquet"):
        rno = int(f.split("round=")[1].split(os.sep)[0])
        by_round.setdefault(rno, []).append(f)
    return [(r, pq.read_table(sorted(by_round[r])).sort_by(
        [("fetch_time", "ascending"), ("host", "ascending"),
         ("depth", "ascending"), ("discovery_order", "ascending"),
         ("url", "ascending")])) for r in sorted(by_round)]


def replay_frontier(tr, cfg, rounds) -> None:
    import ray

    from vbpl_web_crawl_ray.pipelines.crawl import FrontierActor
    recs = [list(zip(t["url"].to_pylist(), t["depth"].to_pylist(),
                     t["discovery_order"].to_pylist())) for _, t in rounds]
    cuckoo = FrontierActor.remote(0, 1, cfg, allow_deletions=True,
                                  track_seen=True)
    bloom = FrontierActor.remote(0, 1, cfg)
    ray.get([cuckoo.pending.remote(), bloom.pending.remote()])
    for rs in recs:
        with tr.span("frontier.offer", n=len(rs)):
            ray.get(cuckoo.offer.remote(rs))
    with tr.span("frontier.pop") as s:
        s["n"] = len(ray.get(cuckoo.pop_round.remote(None)))
    for rs in recs:
        ray.get(bloom.stage.remote(rs))
        with tr.span("frontier.commit", n=len(rs)):
            ray.get(bloom.commit.remote())
    with tr.span("frontier.seen_pull"):
        ray.get(cuckoo.get_seen_urls.remote())
    urls = [u for rs in recs for u, _, _ in rs]
    with tr.span("frontier.forget", n=len(urls)):
        ray.get(cuckoo.forget.remote(urls))
    for a in (cuckoo, bloom):
        ray.kill(a)


def replay_fetch_parse(tr, cfg, rounds, scratch: str) -> dict:
    from vbpl_web_crawl_ray.sources.imaging import decode_image, phash64
    from vbpl_web_crawl_ray.sources.simweb import SimWeb
    from vbpl_web_crawl_ray.stages.fetch import FetchStage
    from vbpl_web_crawl_ray.stages.fulltext import parse_fulltext
    from vbpl_web_crawl_ray.stages.parse import (IMG_RE, ITEMID_RE,
                                                 TOANVAN_RE, ParseStage)
    fetch = FetchStage(cfg)
    parse = ParseStage(cfg, out_dir=scratch, round_no=0)
    cols = ["url", "host", "depth", "discovery_order", "fetch_time"]
    counts = {"urls": 0, "docs": 0, "retries": 0, "non200": 0}
    bodies = []
    for _, t in rounds:
        t = t.select(cols)
        for i in range(0, t.num_rows, CRAWL_BATCH):
            batch = t.slice(i, CRAWL_BATCH)
            with tr.span("fetch.batch", n=batch.num_rows):
                fb = fetch(batch)
            with tr.span("parse.batch", n=batch.num_rows):
                parse(fb)
            status = fb["status"].to_pylist()
            counts["urls"] += batch.num_rows
            counts["retries"] += sum(fb["retries"].to_pylist())
            counts["non200"] += sum(s != 200 for s in status)
            for u, s, b in zip(fb["url"].to_pylist(), status,
                               fb["body"].to_pylist()):
                if s == 200 and "/doc.aspx" in u:
                    bodies.append((u, b.decode()))
    counts["docs"] = len(bodies)
    web = SimWeb(cfg)
    for _, t in rounds:
        for u in t["url"].to_pylist():
            with tr.span("simweb.get"):
                web.get(u, attempt=0)
    for url, body in bodies:
        m = IMG_RE.search(body)
        if m:
            with tr.span("imaging.inline_get"):
                status, _, data = web.get(urljoin(url, m.group(1)), attempt=0)
            if status == 200 and data:
                with tr.span("imaging.decode"):
                    px = decode_image(data)
                with tr.span("imaging.phash"):
                    phash64(px)
        tv = TOANVAN_RE.search(body)
        if tv:
            doc_id = int(ITEMID_RE.search(url).group(1))
            with tr.span("fulltext.parse"):
                parse_fulltext(doc_id, tv.group(1).split("\n"))
    return counts


def replay_store(tr, ctx, cfg, out_dir: str, compact: bool) -> dict:
    from vbpl_web_crawl_ray.pipelines.lookup import (fetch_doc_by_id,
                                                     preview_latest,
                                                     prune_files_by_stats)
    from vbpl_web_crawl_ray.stages.upsert import compact_crawl_output
    out = {}
    if compact:
        with tr.span("upsert.compact"):
            compact_crawl_output(out_dir)
        out["compaction"] = compaction_stats(out_dir)
    files = sorted(glob.glob(f"{out_dir}/payload/round=*/*.parquet"))
    listed = kept_n = 0
    for doc_id in inputs.lookup_ids(cfg, ctx.seed,
                                    inputs.SIZES[ctx.size]["lookups"]):
        with tr.span("lookup.call"):
            fetch_doc_by_id(out_dir, doc_id)
        with tr.span("lookup.prune"):
            kept = prune_files_by_stats(files, "image_id",
                                        [f"img{doc_id:08d}"])
        with tr.span("lookup.read"):
            if kept:
                pq.read_table(kept)
        listed += len(files)
        kept_n += len(kept)
    with tr.span("lookup.preview"):
        preview_latest(out_dir, 10).to_pandas()
    out["files_kept_ratio"] = kept_n / listed if listed else 0.0
    return out


def replay_queries(tr, ctx) -> list[dict]:
    """The query list once on this run's tables, for workloads whose loop
    runs no query."""
    import __ray_entry__ as registry
    with tr.span("tablecache.warm"):
        warm_tablecache(ctx.sf_dir)
    queries = registry.queries()
    names = inputs.TINY_QUERIES if ctx.size == "tiny" else inputs.QUERIES
    return [dict(run_query(tr, queries, ctx.sf_dir, q), warmup=False,
                 traced=True) for q in names]


def replay(ctx, wl) -> dict:
    """Run every replay probe on the workload's last crawl output."""
    tr = ctx.tracer
    out_dir = wl.store if wl.name == "query-mix" else wl.last_out
    rounds = crawl_log(out_dir)
    scratch = os.path.join(ctx.run_dir, "replay")
    tr.enabled = True
    tr.new_trace()
    with tr.span("replay.frontier"):
        replay_frontier(tr, wl.cfg, rounds)
    tr.new_trace()
    with tr.span("replay.fetch_parse"):
        counts = replay_fetch_parse(tr, wl.cfg, rounds, scratch)
    tr.new_trace()
    with tr.span("replay.store"):
        store = replay_store(tr, ctx, wl.cfg, out_dir,
                             compact=wl.name != "refresh-upsert")
    queries = []
    if wl.name != "query-mix":
        tr.new_trace()
        with tr.span("replay.queries"):
            queries = replay_queries(tr, ctx)
    tr.enabled = False
    shutil.rmtree(scratch, ignore_errors=True)
    return {"counts": counts, "store": store, "queries": queries}


def round_points(tr, rounds_by_trace) -> list[tuple[int, float]]:
    """(URLs popped, seconds) of every traced run_round that popped URLs."""
    pts = []
    for s in tr.spans:
        if (s["name"] == "crawl.run_round" and s.get("popped")
                and s["trace"] in rounds_by_trace):
            pts.append((rounds_by_trace[s["trace"]][s["round"]],
                        s["end"] - s["start"]))
    return pts


def round_fixed_s(pts, url_s: float) -> float:
    """The per-round cost no URL explains: round time minus its URLs at
    ``url_s`` seconds each, at its lowest over the traced rounds (the
    intercept of the lower envelope of round time against URLs per
    round). A least-squares slope is not identifiable when every round
    pops the same number of URLs, as under a per-host round cap, and a
    median would count each operation's slower first round and batch
    imbalance as fixed cost."""
    return min((max(t - n * url_s, 0.0) for n, t in pts), default=0.0)


def per_layer(ctx, wl, recs, replayed, setup_spans) -> dict:
    tr = ctx.tracer
    d = tr.durations
    m = dict.fromkeys(PER_LAYER, 0.0)
    counts, store = replayed["counts"], replayed["store"]

    offered = sum(s["n"] for s in tr.spans if s["name"] == "frontier.offer")
    m["frontier.offer_per_s"] = offered / max(sum(d("frontier.offer")), 1e-9)
    pops = [s for s in tr.spans if s["name"] == "frontier.pop"]
    m["frontier.pop_per_s"] = pops[0]["n"] / max(d("frontier.pop")[0], 1e-9)
    m["frontier.commit_ms"] = _med(d("frontier.commit"), 1e3)
    m["frontier.forget_ms"] = _med(d("frontier.forget"), 1e3)

    crawls = [r for r in recs if "engine" in r] or [wl.store_crawl]
    crawl_s = statistics.median(r["sec"] for r in crawls if not r["warmup"])
    eng = crawls[-1]["engine"]
    m["frontier.dedup_ratio"] = eng["deduped"] / max(eng["offered"], 1)
    m["crawl.rounds"] = crawls[-1]["rounds"]
    m["crawl.urls_per_s"] = crawls[0]["urls"] / crawl_s
    rounds = d("crawl.run_round")
    m["crawl.round_p50_s"] = _med(rounds)
    m["crawl.round_max_s"] = max(rounds, default=0.0)
    # slope: the replayed single-thread fetch+parse time of one URL,
    # spread over the Ray CPUs
    url_s = (sum(d("fetch.batch")) + sum(d("parse.batch"))) / max(
        counts["urls"], 1) / ctx.num_cpus
    replayed["round_points"] = round_points(tr, wl.round_urls)
    m["crawl.round_fixed_s"] = round_fixed_s(replayed["round_points"], url_s)
    m["crawl.seen_pull_ms"] = _med(d("frontier.seen_pull"), 1e3)

    n = max(counts["urls"], 1)
    m["fetch.ms_per_url"] = 1e3 * sum(d("fetch.batch")) / n
    m["fetch.retries"] = counts["retries"]
    m["fetch.non200_share"] = counts["non200"] / n
    m["simweb.get_ms"] = _med(d("simweb.get"), 1e3)
    m["parse.ms_per_doc"] = 1e3 * sum(d("parse.batch")) / max(counts["docs"], 1)
    m["imaging.inline_get_ms"] = _med(d("imaging.inline_get"), 1e3)
    m["imaging.decode_ms"] = _med(d("imaging.decode"), 1e3)
    m["imaging.phash_ms"] = _med(d("imaging.phash"), 1e3)
    m["fulltext.parse_ms"] = _med(d("fulltext.parse"), 1e3)

    # bytes every compaction of one operation wrote, per byte of the
    # final compacted table
    traced = [r for r in recs if r["traced"] and "compaction" in r]
    if traced:
        last = traced[-1]["compaction"]
        written = sum(c["bytes"] for c in traced[-1]["compactions"])
    else:
        last = store["compaction"]
        written = last["bytes"]
    m["upsert.compact_s"] = _med(d("upsert.compact"))
    m["upsert.rows_in"] = last["rows_in"]
    m["upsert.rows_out"] = last["rows_out"]
    m["upsert.bytes_written_per_live_byte"] = written / max(last["bytes"], 1)

    looks = d("lookup.call")
    m["lookup.p50_ms"] = _med(looks, 1e3)
    m["lookup.tail_ms"] = 1e3 * tail(looks)[1] if looks else 0.0
    m["lookup.prune_ms"] = _med(d("lookup.prune"), 1e3)
    m["lookup.read_ms"] = _med(d("lookup.read"), 1e3)
    m["lookup.files_kept_ratio"] = store["files_kept_ratio"]
    m["lookup.preview_s"] = _med(d("lookup.preview"))

    m["tablecache.warm_s"] = _med(setup_spans.get("setup.tablecache_warm")
                                  or d("tablecache.warm"))
    m["registry.import_s"] = _med(setup_spans.get("setup.registry_import", []))

    qs = [r for r in recs if r.get("kind") == "query"] or replayed["queries"]
    m["query.p50_s"] = _med(r["sec"] for r in qs)
    m["query.tail_s"] = tail([r["sec"] for r in qs])[1]
    m["query.plan_s"] = _med(r["plan"] for r in qs)
    m["query.collect_s"] = _med(r["collect"] for r in qs)
    first = {}
    for r in qs:
        first.setdefault(r["name"], r["rows"])
    m["query.result_rows"] = sum(first.values())
    for q in inputs.QUERIES:
        m[f"query.{q}_s"] = _med(r["sec"] for r in qs if r["name"] == q)

    busy_parse = sum(d("parse.batch"))
    busy = busy_parse + sum(d("fetch.batch")) + sum(
        sum(d(f"frontier.{k}")) for k in ("offer", "pop", "commit"))
    m["split.parse_share"] = busy_parse / busy if busy else 0.0
    m["split.round_fixed_share"] = (m["crawl.round_fixed_s"]
                                    * m["crawl.rounds"] / crawl_s)
    m["trace.overhead_ratio"] = overhead(recs)
    m["trace.spans"] = len(tr.spans)
    return m


def overhead(recs) -> float:
    """Median traced operation time over median untraced, per operation
    name, then the median of those ratios."""
    ratios = []
    recs = [r for r in recs if not r["warmup"]]
    for name in {r.get("name", "op") for r in recs}:
        on = [r["sec"] for r in recs if r.get("name", "op") == name
              and r["traced"]]
        off = [r["sec"] for r in recs if r.get("name", "op") == name
               and not r["traced"]]
        if on and off:
            ratios.append(statistics.median(on) / statistics.median(off))
    return statistics.median(ratios) if ratios else 0.0
