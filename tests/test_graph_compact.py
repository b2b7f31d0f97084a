"""Connected components / dup clusters and crawl-output compaction."""

import glob

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import ray.data as rd

from vbpl_web_crawl_ray.pipelines.crawl import CrawlEngine
from vbpl_web_crawl_ray.sources.simweb import SimWeb, SimWebConfig
from vbpl_web_crawl_ray.stages.graph import connected_components, dup_clusters
from vbpl_web_crawl_ray.stages.upsert import compact_crawl_output


def test_connected_components_small():
    pairs = pd.DataFrame({"id_a": [1, 2, 5, 9], "id_b": [2, 3, 6, 1]})
    cc = connected_components(pairs)
    lab = dict(zip(cc["node"], cc["component"]))
    assert lab[1] == lab[2] == lab[3] == lab[9] == 1
    assert lab[5] == lab[6] == 5


def test_connected_components_distributed_path(no_all_to_all):
    # chain of 30k edges through the label-propagation path (forced via
    # local_threshold=0 — the production crossover sits at 2M edges)
    n = 15_000
    pairs = pd.DataFrame({
        "id_a": list(range(0, n)) + list(range(n + 10, n + 10 + n)),
        "id_b": list(range(1, n + 1)) + list(range(n + 11, n + 11 + n)),
    })
    cc = connected_components(pairs, local_threshold=0)
    lab = dict(zip(cc["node"], cc["component"]))
    assert lab[n] == 0            # end of first chain reaches root 0
    assert lab[n + 10 + n] == n + 10


def test_dup_clusters():
    pairs = pd.DataFrame({"id_a": [1, 2, 7], "id_b": [2, 3, 8]})
    g = dup_clusters(pairs)
    assert list(g["size"]) == [3, 2]
    assert g.loc[0, "members"] == [1, 2, 3]


def test_compact_crawl_output(tmp_path):
    cfg = SimWebConfig(n_hosts=2, pages_per_host=1, docs_per_page=4,
                       captions=("văn bản a", "văn bản b"),
                       flaky_rate=0.0, missing_rate=0.0)
    out = str(tmp_path / "c")
    eng = CrawlEngine(cfg, out, num_partitions=2)
    eng.seed(SimWeb(cfg).seed_urls())
    eng.run(max_rounds=16)
    compacted = compact_crawl_output(out, "payload", "image_id")
    t = rd.read_parquet(compacted).to_pandas()
    raw = pq.read_table(sorted(glob.glob(f"{out}/payload/round=*/*.parquet")),
                        columns=["image_id"])
    assert sorted(t["image_id"]) == sorted(set(raw["image_id"].to_pylist()))
    # idempotent: compact again, same content
    compact_crawl_output(out, "payload", "image_id")
    t2 = rd.read_parquet(compacted).to_pandas()
    assert sorted(t2["image_id"]) == sorted(t["image_id"])


def _brute_kcore(edges: pd.DataFrame, k: int) -> dict:
    """Reference peeling: loop until no node has degree < k."""
    es = {tuple(sorted((str(a), str(b))))
          for a, b in zip(edges["src"], edges["dst"]) if str(a) != str(b)}
    while True:
        deg: dict = {}
        for u, v in es:
            deg[u] = deg.get(u, 0) + 1
            deg[v] = deg.get(v, 0) + 1
        drop = {n for n, d in deg.items() if d < k}
        if not drop:
            return deg
        es = {(u, v) for u, v in es if u not in drop and v not in drop}


def test_k_core_matches_brute_force(ray_session):
    """Distributed peeling == reference peeling on a seeded random graph,
    across several k."""
    from vbpl_web_crawl_ray.stages.graph import k_core

    rng = np.random.RandomState(7)
    edges = pd.DataFrame({"src": rng.randint(0, 40, 300),
                          "dst": rng.randint(0, 40, 300)})
    for k in (2, 3, 5):
        got = k_core(edges, k=k)
        want = _brute_kcore(edges, k)
        assert dict(zip(got["node"], got["degree"])) == want, f"k={k}"


def test_k_core_planted_clique(ray_session):
    """A planted K6 inside sparse noise survives k=5 exactly; the noise
    (a long path: every node degree <= 2) peels away entirely."""
    from vbpl_web_crawl_ray.stages.graph import k_core

    clique = [(f"c{i}", f"c{j}") for i in range(6) for j in range(i + 1, 6)]
    path = [(f"p{i}", f"p{i+1}") for i in range(50)]
    edges = pd.DataFrame(clique + path, columns=["src", "dst"])
    got = k_core(edges, k=5)
    assert sorted(got["node"]) == [f"c{i}" for i in range(6)]
    assert (got["degree"] == 5).all()
    # k above the clique degree: empty core, empty frame with schema
    empty = k_core(edges, k=7)
    assert len(empty) == 0 and list(empty.columns) == ["node", "degree"]


def test_bfs_depths_matches_brute_force(ray_session):
    """Distributed frontier BFS == reference BFS on a seeded random
    graph; unreachable nodes absent."""
    from collections import deque

    from vbpl_web_crawl_ray.stages.graph import bfs_depths

    rng = np.random.RandomState(11)
    edges = pd.DataFrame({"src": rng.randint(0, 30, 60),
                          "dst": rng.randint(0, 30, 60)})
    got = bfs_depths(edges, seed="3")
    adj: dict = {}
    for a, b in zip(edges["src"], edges["dst"]):
        a, b = str(a), str(b)
        if a != b:
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
    want = {"3": 0}
    dq = deque(["3"])
    while dq:
        u = dq.popleft()
        for v in adj.get(u, ()):
            if v not in want:
                want[v] = want[u] + 1
                dq.append(v)
    assert dict(zip(got["node"], got["depth"])) == want
