"""Crawl-engine conformance (north_rule): ordering, URL-seen set, robots,
payload invariant, parallelism invariance, checkpoint/resume."""

import glob

import numpy as np
import pyarrow.parquet as pq
import pytest

from oracle_crawler import oracle_crawl
from vbpl_web_crawl_ray.pipelines.crawl import CrawlEngine, round_tasks
from vbpl_web_crawl_ray.sources.imaging import decode_image, gen_pixels, psnr
from vbpl_web_crawl_ray.sources.simweb import SimWeb, SimWebConfig


CFG = SimWebConfig(n_hosts=4, pages_per_host=2, docs_per_page=4,
                   captions=tuple(f"Văn bản mẫu số {i} về thử nghiệm hệ thống"
                                  for i in range(40)),
                   flaky_rate=0.15, missing_rate=0.1)


@pytest.fixture(scope="module")
def oracle():
    return oracle_crawl(CFG)


@pytest.fixture(scope="module")
def engine_run(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("crawl_out"))
    eng = CrawlEngine(CFG, out, num_partitions=3, track_seen=True)
    eng.seed(SimWeb(CFG).seed_urls())
    eng.run(max_rounds=32)
    return eng, out


def _read_rounds(out_dir, sub, cols=None):
    files = sorted(glob.glob(f"{out_dir}/{sub}/round=*/*.parquet"))
    if not files:
        return None
    return pq.read_table(files, columns=cols) if len(files) > 1 else \
        pq.read_table(files[0], columns=cols)


def test_crawl_order_matches_oracle(engine_run, oracle):
    eng, _ = engine_run
    got = [(t, h, d, o, u) for (_, t, h, d, o, u) in eng.crawl_log]
    assert got == oracle["log"]


def test_seen_set_matches_oracle(engine_run, oracle):
    eng, _ = engine_run
    # engine tracks queued urls; oracle's seen includes robots-blocked and
    # 404s too — compare the queued (fetchable) universe via the crawl log
    got_fetched = {u for (_, _, _, _, _, u) in eng.crawl_log}
    want_fetched = {u for (_, _, _, _, u) in oracle["log"]}
    assert got_fetched == want_fetched
    assert eng.seen_urls() == got_fetched


def test_lineage_counters(engine_run):
    """north_rule lineage: fetched / deduped / robots_blocked / retried."""
    eng, _ = engine_run
    m = eng.metrics()["total"]
    assert m["fetched"] == len(eng.crawl_log)
    assert m["retried"] > 0          # flaky_rate=0.15 guarantees retries
    assert m["deduped"] > 0          # trap links + repeat related links
    assert m["failed"] > 0           # missing_rate=0.1 guarantees 404s


def test_politeness_spacing(engine_run):
    """Within every host, consecutive virtual fetch times are spaced by
    exactly that host's robots Crawl-delay — the politeness budget."""
    eng, _ = engine_run
    by_host = {}
    for (_, t, h, *_rest) in eng.crawl_log:
        by_host.setdefault(h, []).append(t)
    from vbpl_web_crawl_ray.sources.simweb import SimWeb
    web = SimWeb(CFG)
    for host, times in by_host.items():
        k = int(host.split(".")[0][4:])
        delay = CFG.delay_of(k)
        times = sorted(times)
        gaps = [round(b - a, 9) for a, b in zip(times, times[1:])]
        assert all(g == delay for g in gaps), (host, delay, gaps[:5])


def test_round_stats_available(engine_run):
    """The last round's record: its tasks ran every popped row, and a
    round of at most one batch ran as one task."""
    eng, out = engine_run
    st = eng.last_stats
    assert st["round"] == eng.round - 1
    files = sorted(glob.glob(f"{out}/crawl_log/round={st['round']}/*"))
    parts = [(f, pq.read_metadata(f).num_rows) for f in files]
    n = sum(k for _, k in parts)
    assert st["popped"] == st["rows"] == n > 0
    assert st["tasks"] == len(round_tasks(parts, eng.batch_size, eng.cpus))
    if n <= eng.batch_size:
        assert st["tasks"] == 1
    assert min(st["pop_s"], st["tasks_s"], st["commit_s"]) >= 0


def test_robots_blocking(engine_run, oracle):
    eng, _ = engine_run
    m = eng.metrics()["total"]
    assert m["robots_blocked"] == oracle["robots_blocked"] > 0
    assert not any("/private/" in u for (*_, u) in oracle["log"])
    assert not any("/private/" in u for (*_, u) in eng.crawl_log)


def test_payload_rows_match_oracle(engine_run, oracle):
    _, out = engine_run
    t = _read_rounds(out, "payload")
    rows = {r["image_id"]: r for r in t.to_pylist()}
    assert set(rows) == set(oracle["payloads"])
    for iid, want in oracle["payloads"].items():
        got = rows[iid]
        assert got["bytes"] == want["bytes"]
        assert got["caption"] == want["caption"]
        assert got["w"] == want["w"] and got["h"] == want["h"]
        # two's-complement round trip without a direct uint64 cast of a
        # negative Python int (deprecated in newer numpy)
        assert (got["phash"] + (1 << 64)) % (1 << 64) == want["phash"] % (1 << 64)


def test_per_row_payload_invariant(engine_run):
    """input_hint: decoded-pixel allclose (PSNR>=40 lossy) + caption
    byte-equality vs the reference generator."""
    _, out = engine_run
    t = _read_rounds(out, "payload")
    assert t.num_rows > 0
    seen_fmts = set()
    for r in t.to_pylist():
        ref_px = gen_pixels(r["image_id"], r["w"], r["h"], CFG.seed)
        got_px = decode_image(r["bytes"])
        seen_fmts.add(r["fmt"])
        if r["fmt"] == "png":
            assert np.array_equal(ref_px, got_px)
        else:
            assert psnr(ref_px, got_px) >= 40.0
        doc_id = int(r["image_id"][3:])
        assert r["caption"] == CFG.captions[doc_id % len(CFG.captions)]
    assert seen_fmts == {"png", "jpeg"}


def test_edges_match_oracle(engine_run, oracle):
    _, out = engine_run
    t = _read_rounds(out, "edges")
    got = sorted({(r["src"], r["dst"], r["label"]) for r in t.to_pylist()})
    assert got == oracle["edges"]


def test_doc_map_matches_oracle(engine_run, oracle):
    """The second edge type ('lược đồ' doc map) incl. the title-search
    fallback path for ItemID-less hrefs."""
    _, out = engine_run
    t = _read_rounds(out, "doc_map")
    got = sorted({(r["src"], r["dst"], r["map_label"])
                  for r in t.to_pylist()})
    assert got == oracle["doc_map"] != []
    # both resolution paths occurred: direct (even src) and title-search
    srcs = {int(s) for (s, _, _) in got}
    assert any(s % 2 == 0 for s in srcs) and any(s % 2 == 1 for s in srcs)


def test_parallelism_invariance(tmp_path, oracle):
    """The determinism claim behind the N vs 4N scaling criterion: a
    different partition count and batch size produce the identical crawl."""
    eng = CrawlEngine(CFG, str(tmp_path / "o1"), num_partitions=1,
                      batch_size=5)
    eng.seed(SimWeb(CFG).seed_urls())
    eng.run(max_rounds=32)
    got = [(t, h, d, o, u) for (_, t, h, d, o, u) in eng.crawl_log]
    assert got == oracle["log"]


def test_checkpoint_resume(tmp_path, engine_run):
    """Kill after 1 round, resume from checkpoint, finish — final crawl log
    + payload set equal the uninterrupted run (FIXTURES.md F6)."""
    eng_full, out_full = engine_run
    ck = str(tmp_path / "ckpt")
    out_a = str(tmp_path / "a")
    eng = CrawlEngine(CFG, out_a, num_partitions=3)
    eng.seed(SimWeb(CFG).seed_urls())
    assert eng.run_round()
    eng.checkpoint(ck)
    del eng  # "crash"

    eng2 = CrawlEngine.resume(ck, CFG, out_a)
    assert eng2.round == 1
    eng2.run(max_rounds=32)
    assert eng2.crawl_log == eng_full.crawl_log
    m = eng2.metrics()["total"]
    mf = eng_full.metrics()["total"]
    assert m["popped"] == mf["popped"] and m["queued"] == mf["queued"]
    pa_resumed = _read_rounds(out_a, "payload", cols=["image_id"])
    pa_full = _read_rounds(out_full, "payload", cols=["image_id"])
    assert sorted(pa_resumed["image_id"].to_pylist()) == \
        sorted(pa_full["image_id"].to_pylist())


def test_redirects_followed_without_double_fetch(engine_run, oracle):
    """Legacy /d.aspx listing links 301 to the canonical doc URL: the
    crawl follows via a frontier re-offer (logged, counted) and the
    target is fetched exactly once even when also linked directly."""
    eng, _ = engine_run
    m = eng.metrics()["total"]
    assert m["redirected"] > 0
    urls = [u for (*_, u) in eng.crawl_log]
    legacy = [u for u in urls if "/d.aspx" in u]
    assert legacy, "listing must route some docs through the legacy URL"
    assert len(urls) == len(set(urls))      # nothing fetched twice
    for u in legacy:                         # every 301 target was crawled
        assert u.replace("/d.aspx", "/doc.aspx") in set(urls)


def test_midround_crash_replay_no_duplicates(tmp_path, oracle):
    """A crash DURING a round leaves partial files in that round's output
    dirs; the re-run must wipe and replace them, never append (the
    resume-duplication hazard)."""
    import shutil

    ck = str(tmp_path / "ck")
    out = str(tmp_path / "crash")
    eng = CrawlEngine(CFG, out, num_partitions=3)
    eng.seed(SimWeb(CFG).seed_urls())
    assert eng.run_round() and eng.run_round()
    eng.checkpoint(ck)
    # simulate a crashed third-round attempt: stale partials in round=2
    for sub, fname in (("payload", "stale-attempt.parquet"),
                       ("meta", "part-deadbeef.parquet"),
                       ("crawl_log", "part-9999.parquet")):
        src = sorted(glob.glob(f"{out}/{sub}/round=*/[!.]*.parquet"))[0]
        d = f"{out}/{sub}/round=2"
        import os
        os.makedirs(d, exist_ok=True)
        shutil.copy(src, f"{d}/{fname}")
    eng2 = CrawlEngine.resume(ck, CFG, out)
    assert eng2.round == 2
    eng2.run(max_rounds=32)
    got = [(t, h, d, o, u) for (_, t, h, d, o, u) in eng2.crawl_log]
    assert got == oracle["log"]          # stale log part wiped, not merged
    t = _read_rounds(out, "payload")
    ids = t["image_id"].to_pylist()
    assert len(ids) == len(set(ids))     # no duplicated payload rows
    assert set(ids) == set(oracle["payloads"])


def test_hot_host_skew_cap(tmp_path):
    """max_per_host_per_round time-slices the hot host across rounds; the
    final fetched set is unchanged."""
    cfg = SimWebConfig(n_hosts=3, pages_per_host=1, docs_per_page=3,
                       captions=CFG.captions, hot_host_factor=4,
                       flaky_rate=0.0, missing_rate=0.0)
    base = oracle_crawl(cfg)
    eng = CrawlEngine(cfg, str(tmp_path / "skew"), num_partitions=2,
                      max_per_host_per_round=2)
    eng.seed(SimWeb(cfg).seed_urls())
    eng.run(max_rounds=64)
    got_urls = {u for (*_, u) in eng.crawl_log}
    assert got_urls == {u for (*_, u) in base["log"]}
    # capped run needs more rounds than the uncapped oracle's barrier count
    assert eng.round > 2
