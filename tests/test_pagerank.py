"""PageRank: hand-computed ranks, path equivalence, crawl-graph query."""

import sys

import numpy as np
import pandas as pd

sys.path.insert(0, "/root/repo")

from vbpl_web_crawl_ray.stages.graph import pagerank  # noqa: E402


def _reference_pr(edges, n_nodes, d=0.85, iters=20):
    """Dense numpy reference implementation."""
    nodes = sorted(set(edges["src"]) | set(edges["dst"]))
    idx = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)
    out_deg = np.zeros(n)
    for s in edges["src"]:
        out_deg[idx[s]] += 1
    r = np.full(n, 1.0 / n)
    for _ in range(iters):
        new = np.zeros(n)
        share = r / np.maximum(out_deg, 1.0)
        for s, t in zip(edges["src"], edges["dst"]):
            new[idx[t]] += share[idx[s]]
        dangling = r[out_deg == 0].sum()
        r = (1 - d) / n + d * (new + dangling / n)
    return pd.DataFrame({"node": nodes, "rank": np.round(r, 10)})


EDGES = pd.DataFrame({
    # a small web: 3 -> everything, 4 dangling, cycle 0->1->2->0
    "src": np.array([0, 1, 2, 3, 3, 3, 0], dtype=np.int64),
    "dst": np.array([1, 2, 0, 0, 1, 4, 4], dtype=np.int64),
})


def test_pagerank_matches_dense_reference(sf_dir):
    got = pagerank(EDGES, iters=20)
    want = _reference_pr(EDGES, 5)
    pd.testing.assert_frame_equal(got.reset_index(drop=True), want)
    assert abs(got["rank"].sum() - 1.0) < 1e-9


def test_pagerank_bucketed_path_equals_broadcast(sf_dir, no_all_to_all):
    a = pagerank(EDGES, iters=10)
    b = pagerank(EDGES, iters=10, force_partitioned=True)
    merged = a.merge(b, on="node", suffixes=("_a", "_b"))
    assert len(merged) == len(a)
    assert np.allclose(merged["rank_a"], merged["rank_b"], atol=1e-9)


def test_triangle_count_matches_bruteforce(ray_session):
    import itertools

    import numpy as np
    import pandas as pd

    from vbpl_web_crawl_ray.stages.graph import triangle_count

    rng = np.random.default_rng(13)
    n = 60
    pairs = [(f"n{a}", f"n{b}") for a, b in
             rng.integers(0, n, (400, 2)) if a != b]
    edges = pd.DataFrame(pairs, columns=["src", "dst"])
    # brute force over the canonical undirected simple graph
    und = {tuple(sorted(p)) for p in pairs}
    adj = {}
    for a, b in und:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    tri = sum(1 for a, b, c in itertools.combinations(sorted(adj), 3)
              if b in adj[a] and c in adj[a] and c in adj[b])

    out = triangle_count(edges)
    assert out["n_triangles"].item() == tri
    assert out["n_edges"].item() == len(und)
    assert out["n_nodes"].item() == len(adj)
    assert tri > 0  # the random graph must actually contain triangles


def test_triangle_count_planted(ray_session):
    import pandas as pd

    from vbpl_web_crawl_ray.stages.graph import triangle_count

    # K4 = 4 triangles; duplicate/reversed/self edges must not change it
    e = [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"),
         ("c", "d"), ("b", "a"), ("a", "a"), ("c", "b")]
    out = triangle_count(pd.DataFrame(e, columns=["src", "dst"]))
    assert out["n_triangles"].item() == 4
    assert out["n_edges"].item() == 6
    assert out["n_nodes"].item() == 4


def test_triangle_count_pipe_in_node_ids(ray_session):
    import pandas as pd

    from vbpl_web_crawl_ray.stages.graph import triangle_count

    # ADVICE r4: ids containing '|' aliased composite keys under the old
    # lo + "|" + hi concatenation — ("a|b","c") == ("a","b|c"). This
    # non-triangle wedge set must count 0, not phantom-close.
    e = [("a|b", "c"), ("a", "b|c"), ("a", "c"),
         ("x|", "y"), ("x", "|y"), ("x", "y")]
    out = triangle_count(pd.DataFrame(e, columns=["src", "dst"]))
    assert out["n_triangles"].item() == 0
    # and a real triangle with pipes still counts exactly once
    e2 = [("p|q", "r|s"), ("r|s", "t|u"), ("p|q", "t|u")]
    out2 = triangle_count(pd.DataFrame(e2, columns=["src", "dst"]))
    assert out2["n_triangles"].item() == 1
