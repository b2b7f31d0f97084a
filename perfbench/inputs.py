"""Seeded benchmark inputs.

Everything the program reads comes from here, generated inside the run
directory from the workload seed: the star-schema tables the registry's
queries scan, the ``documents`` table the sim web draws its captions from,
the sim-web sizing of each workload, the lookup-id sample and the query
order. The same seed gives byte-identical inputs.
"""

from __future__ import annotations

import datetime as dt
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

WORDS = ("index crawl page link fetch parse queue host robots delay image "
         "caption title section chapter article decree law court case "
         "hash bloom filter round batch table column value order merge "
         "sort scan").split()
COLORS = "red blue green cold hot new large small".split()
NOUNS = "widget bolt gear gizmo plate ring rod anvil".split()
SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"]
PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]
P_TYPES = ["ECONOMY", "LARGE", "MEDIUM", "PROMO", "SMALL", "STANDARD"]
REGIONS = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]
LANGS = ["de", "en", "es", "fr", "zh"]
EPOCH = np.datetime64("1995-01-01", "D")
ORDER_SPAN_DAYS = (dt.date(2001, 8, 1) - dt.date(1995, 1, 1)).days

# Per-size settings. "normal" is what the timed runs use; "tiny" is the
# self-check size, small enough that a whole run takes a few seconds.
SIZES = {
    "normal": {
        # star-schema scale: rows = SF x TPC-H row counts (sf0.001 ~ 6k
        # lineitem rows). Query cost at this size is the per-query
        # constant (plan, launch, shuffle set-up), not the scan.
        "sf": 0.001, "documents": 300,
        # parse-bound: docs carry 512-576 px images
        "crawl-images": dict(n_hosts=4, pages_per_host=2, docs_per_page=16,
                             img_min=512, img_range=65),
        # barrier-bound: many hosts, small images, a per-host round cap
        "refresh-upsert": dict(n_hosts=8, pages_per_host=2,
                               docs_per_page=3, img_min=32, img_range=97),
        "max_per_host": 3, "cycles": 2,
        # the store the lookups read
        "query-mix": dict(n_hosts=2, pages_per_host=1, docs_per_page=6,
                          img_min=32, img_range=97),
        "lookups": 16,
    },
    "tiny": {
        "sf": 0.0002, "documents": 60,
        "crawl-images": dict(n_hosts=2, pages_per_host=1, docs_per_page=4,
                             img_min=128, img_range=17),
        "refresh-upsert": dict(n_hosts=3, pages_per_host=1,
                               docs_per_page=3, img_min=32, img_range=17),
        "max_per_host": 2, "cycles": 2,
        "query-mix": dict(n_hosts=2, pages_per_host=1, docs_per_page=4,
                          img_min=32, img_range=17),
        "lookups": 4,
    },
}

# The query-mix list. It holds the four costliest suite queries, at least
# one query from each relational module that merges partials on the driver
# (relational, relational2..5, relational15) and two that read dimension
# tables only. The stages.graph BFS (doc_bfs_depths) is left out: its cold
# call crawls a web inside the query and costs a third of a pass.
QUERIES = [
    "q3_shipping_priority",        # relational3, 3-table join
    "nation_share_of_region",      # relational5, gated attach_lookup
    "nation_pair_trade",           # relational5, two gated hops
    "ngram_jaccard_pairs",         # dedup, shingle self-join
    "semi_join",                   # relational, l_partkey driver pull
    "intersect_distinct",          # relational2, base_pandas key set
    "promo_revenue_share",         # relational4, promo broadcast
    "range_partition_plan",        # relational15, _cents_hist merge
    "skyline_parts",               # dimension tables only
    "zorder_layout_stats",         # dimension tables only
]
TINY_QUERIES = ["semi_join", "skyline_parts", "intersect_distinct"]


def _ts(days: np.ndarray) -> pa.Array:
    return pa.array((EPOCH + days.astype("timedelta64[D]"))
                    .astype("datetime64[us]"), pa.timestamp("us"))


def _write(sf_dir: str, name: str, cols: dict) -> None:
    pq.write_table(pa.table(cols), os.path.join(sf_dir, f"{name}.parquet"))


def write_tables(sf_dir: str, seed: int, size: str) -> None:
    """Write the star-schema tables and ``documents`` into ``sf_dir``."""
    rng = np.random.default_rng(seed)
    sf = SIZES[size]["sf"]
    n_cust = max(20, int(150_000 * sf))
    n_supp = max(5, int(10_000 * sf))
    n_part = max(20, int(200_000 * sf))
    n_ord = max(100, int(1_500_000 * sf))
    n_line = 4 * n_ord
    os.makedirs(sf_dir, exist_ok=True)

    _write(sf_dir, "region", {
        "r_regionkey": pa.array(range(5), pa.int32()),
        "r_name": REGIONS})
    _write(sf_dir, "nation", {
        "n_nationkey": pa.array(range(25), pa.int32()),
        "n_name": [f"NATION_{i}" for i in range(25)],
        "n_regionkey": pa.array([i % 5 for i in range(25)], pa.int32())})
    _write(sf_dir, "customer", {
        "c_custkey": np.arange(n_cust, dtype=np.int64),
        "c_name": [f"Customer#{i:09d}" for i in range(n_cust)],
        "c_nationkey": rng.integers(0, 25, n_cust).astype(np.int32),
        "c_acctbal": np.round(rng.uniform(-999.99, 9999.99, n_cust), 2),
        "c_mktsegment": rng.choice(SEGMENTS, n_cust)})
    _write(sf_dir, "supplier", {
        "s_suppkey": np.arange(n_supp, dtype=np.int64),
        "s_name": [f"Supplier#{i:09d}" for i in range(n_supp)],
        "s_nationkey": rng.integers(0, 25, n_supp).astype(np.int32),
        "s_acctbal": np.round(rng.uniform(-999.99, 9999.99, n_supp), 2)})
    retail = np.round(900.0 + (np.arange(n_part) % 1000) / 10.0, 2)
    _write(sf_dir, "part", {
        "p_partkey": np.arange(n_part, dtype=np.int64),
        "p_name": [f"{rng.choice(COLORS)} {rng.choice(NOUNS)}"
                   for _ in range(n_part)],
        "p_brand": [f"Brand#{b}" for b in rng.integers(1, 26, n_part)],
        "p_type": rng.choice(P_TYPES, n_part),
        "p_size": rng.integers(1, 51, n_part).astype(np.int32),
        "p_retailprice": retail})
    odays = rng.integers(0, ORDER_SPAN_DAYS + 1, n_ord)
    _write(sf_dir, "orders", {
        "o_orderkey": np.arange(n_ord, dtype=np.int64),
        "o_custkey": rng.integers(0, n_cust, n_ord).astype(np.int64),
        "o_orderstatus": rng.choice(["F", "O", "P"], n_ord),
        "o_totalprice": np.round(rng.uniform(1000.0, 500_000.0, n_ord), 2),
        "o_orderdate": _ts(odays),
        "o_orderpriority": rng.choice(PRIORITIES, n_ord)})
    okey = rng.integers(0, n_ord, n_line).astype(np.int64)
    pkey = rng.integers(0, n_part, n_line).astype(np.int64)
    qty = rng.integers(1, 51, n_line).astype(np.float64)
    _write(sf_dir, "lineitem", {
        "l_orderkey": okey,
        "l_partkey": pkey,
        "l_suppkey": rng.integers(0, n_supp, n_line).astype(np.int64),
        "l_linenumber": rng.integers(1, 8, n_line).astype(np.int32),
        "l_quantity": qty,
        "l_extendedprice": np.round(
            qty * retail[pkey] * rng.uniform(0.02, 2.2, n_line), 2),
        "l_discount": rng.integers(0, 11, n_line) / 100.0,
        "l_tax": rng.integers(0, 9, n_line) / 100.0,
        "l_returnflag": rng.choice(["A", "N", "R"], n_line),
        "l_linestatus": rng.choice(["F", "O"], n_line),
        "l_shipdate": _ts(odays[okey] + rng.integers(1, 96, n_line))})

    # events and embeddings are not read by the query list, but the
    # oracle's DuckDB session declares a view over every table
    n_ev = 200
    _write(sf_dir, "events", {
        "event_id": np.arange(n_ev, dtype=np.int64),
        "ts": pa.array(np.datetime64("2024-01-01T00:00:00", "us")
                       + rng.integers(0, 86_400_000_000, n_ev)
                       .astype("timedelta64[us]"), pa.timestamp("us")),
        "user_id": rng.integers(0, 20, n_ev).astype(np.int64),
        "event_type": rng.choice(["view", "click", "cart", "buy"], n_ev),
        "value": np.round(rng.uniform(0, 100, n_ev), 2),
        "props": ["{}"] * n_ev})
    _write(sf_dir, "embeddings", {
        "vec_id": np.arange(20, dtype=np.int64),
        "embedding": pa.array([list(v) for v in
                               rng.standard_normal((20, 8)).astype(np.float32)],
                              pa.list_(pa.float32())),
        "label": rng.integers(0, 3, 20).astype(np.int32)})

    n_docs = SIZES[size]["documents"]
    texts: list[str] = []
    for i in range(n_docs):
        if i >= 10 and rng.random() < 0.1:
            # near-duplicate of an earlier document (one word replaced)
            words = texts[int(rng.integers(0, i))].split()
            words[int(rng.integers(0, len(words)))] = "dup"
        else:
            words = list(rng.choice(WORDS, int(rng.integers(10, 100))))
        texts.append(" ".join(words))
    _write(sf_dir, "documents", {
        "doc_id": np.arange(n_docs, dtype=np.int64),
        "text": texts,
        "lang": rng.choice(LANGS, n_docs),
        "source": [f"src{s}" for s in rng.integers(0, 20, n_docs)],
        "n_chars": np.array([len(t) for t in texts], dtype=np.int64)})


def sim_config(workload: str, sf_dir: str, seed: int, size: str):
    """The workload's sim-web config; captions come from ``documents``."""
    from vbpl_web_crawl_ray.sources.simweb import config_from_documents
    return config_from_documents(
        sf_dir, max_captions=256, seed=seed, flaky_rate=0.05,
        missing_rate=0.02, **SIZES[size][workload])


def lookup_ids(cfg, seed: int, n: int) -> list[int]:
    """``n`` doc ids drawn from every host's id range. About one in nine
    lies past the host's last document on purpose: those lookups miss."""
    rng = np.random.default_rng(seed + 1)
    ids = []
    for h in rng.integers(0, cfg.n_hosts, n):
        span = cfg.docs_per_host(int(h))
        ids.append(int(h) * cfg.doc_base + int(rng.integers(0, span + span // 8 + 1)))
    return ids


def query_order(seed: int, names: list[str]) -> list[str]:
    rng = np.random.default_rng(seed + 2)
    return [names[i] for i in rng.permutation(len(names))]
