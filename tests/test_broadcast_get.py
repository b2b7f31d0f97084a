"""Broadcast lookups run as tasks on warm workers, never as actor pools.

1. `stages/shuffle.broadcast_get`: a per-worker-process, entry-bounded
   cache of `ray.get` keyed by the object id, so a map_batches FUNCTION
   deserializes a broadcast once per worker instead of once per batch.
2. Structural guards: no callable class in the package resolves a
   broadcast in `__init__` (a class UDF makes Ray Data start an actor
   pool — 1-4 fresh worker processes per query — just to hold it), and
   every callable class left is on an explicit allow-list of stages
   whose per-actor state is the point (models, decoders, the crawl); no
   function nested in another function (the map_batches UDF shape) calls
   `ray.get` per batch unless it is on an explicit allow-list.
3. Runtime guard: the benchmark's query mix starts no actor pool.
"""
from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

import numpy as np
import pandas as pd
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

SF = "/root/testdata/sf0.001"

#: Callable classes whose per-actor state is the point: loaded models,
#: decoders, feature extractors and the crawl's fetch/parse stages.
STATEFUL_STAGES = {
    "pipelines/payloads.py:GateAndStrip",
    "stages/dedup.py:MinHasher",
    "stages/dedup.py:MD5MinHasher",
    "stages/embed.py:HashingEmbedder",
    "stages/embed.py:ProjectEmbeddings",
    "stages/fetch.py:FetchStage",
    "stages/multimodal.py:AudioFeatures",
    "stages/multimodal.py:DecodeImages",
    "stages/multimodal.py:DominantLevels",
    "stages/multimodal.py:FrameSampler",
    "stages/multimodal.py:ImageFeatures",
    "stages/multimodal.py:ImagePatches",
    "stages/multimodal.py:ImageQuality",
    "stages/multimodal.py:ResizeImages",
    "stages/parse.py:ParseStage",
    "stages/textstats.py:QualityModel",
}

#: Nested functions allowed to call ``ray.get``: each waits on its own
#: actor calls rather than reading a broadcast.
RAY_GET_CLOSURES = {
    # map_batches UDF that blocks until its edge pushes to the partition
    # actors have landed, so the task reports done only once staged
    "stages/graph.py:_pagerank_actors.stage",
}


# ---------------------------------------------------------------------------
# broadcast_get
# ---------------------------------------------------------------------------

@pytest.fixture
def cache():
    from vbpl_web_crawl_ray.stages import shuffle
    shuffle._broadcast_cache.clear()
    yield shuffle
    shuffle._broadcast_cache.clear()


def test_same_ref_returns_identical_object(ray_session, cache):
    import ray
    ref = ray.put({"a": 1, "b": 2})
    first = cache.broadcast_get(ref)
    assert first == {"a": 1, "b": 2}
    assert cache.broadcast_get(ref) is first


def test_cache_never_exceeds_its_bound(ray_session, cache):
    import ray
    bound = cache._BROADCAST_CACHE_ENTRIES
    refs = [ray.put(i) for i in range(bound + 5)]
    for i, r in enumerate(refs):
        assert cache.broadcast_get(r) == i
        assert len(cache._broadcast_cache) <= bound
    # oldest first out: the newest `bound` refs stay, the rest are gone
    assert list(cache._broadcast_cache) == [r.hex() for r in refs[-bound:]]
    assert cache.broadcast_get(refs[0]) == 0     # a miss re-reads


def test_equal_content_new_put_is_a_new_key(ray_session, cache):
    import ray
    a = ray.put({"k": 1})
    b = ray.put({"k": 1})
    assert a.hex() != b.hex()
    got_a, got_b = cache.broadcast_get(a), cache.broadcast_get(b)
    assert got_a == got_b and got_a is not got_b
    assert len(cache._broadcast_cache) == 2


def test_each_worker_deserializes_once(ray_session):
    """Inside map_batches tasks every batch a worker runs sees the SAME
    cached object, and the values are the broadcast's."""
    import ray
    import ray.data as rd
    from vbpl_web_crawl_ray.stages.shuffle import broadcast_get

    ref = ray.put({i: 10 * i for i in range(16)})

    def probe(df: pd.DataFrame) -> pd.DataFrame:
        m = broadcast_get(ref)
        return pd.DataFrame({"id": df["id"].to_numpy(),
                             "v": df["id"].map(m).to_numpy(np.int64),
                             "pid": os.getpid(), "obj": id(m)})

    out = (rd.range(16, override_num_blocks=16)
             .map_batches(probe, batch_format="pandas").to_pandas())
    assert sorted(out["v"]) == [10 * i for i in range(16)]
    assert (out.groupby("pid")["obj"].nunique() == 1).all()


# ---------------------------------------------------------------------------
# structural guard
# ---------------------------------------------------------------------------

def _callable_classes():
    pkg = ROOT / "vbpl_web_crawl_ray"
    for path in sorted(pkg.rglob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            methods = {n.name: n for n in node.body
                       if isinstance(n, ast.FunctionDef)}
            if "__call__" in methods:
                yield (f"{path.relative_to(pkg).as_posix()}:{node.name}",
                       methods.get("__init__"))


def _is_ray_get(n: ast.AST) -> bool:
    return (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
            and n.func.attr == "get" and isinstance(n.func.value, ast.Name)
            and n.func.value.id in ("ray", "_ray"))


def _calls_ray_get(fn: ast.FunctionDef | None) -> bool:
    return fn is not None and any(_is_ray_get(n) for n in ast.walk(fn))


_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _own_nodes(fn: ast.AST):
    """Nodes of ``fn``'s body, not descending into functions nested in it."""
    for child in ast.iter_child_nodes(fn):
        if not isinstance(child, _FUNCS):
            yield child
            yield from _own_nodes(child)


def _nested_ray_get_sites():
    """``path:qualname`` of every function nested in another function
    whose own body calls ``ray.get``."""
    pkg = ROOT / "vbpl_web_crawl_ray"

    def visit(node, rel, qual, in_func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _FUNCS):
                name = f"{qual}{getattr(child, 'name', '<lambda>')}"
                if in_func and any(map(_is_ray_get, _own_nodes(child))):
                    yield f"{rel}:{name}"
                yield from visit(child, rel, name + ".", True)
            elif isinstance(child, ast.ClassDef):
                yield from visit(child, rel, f"{qual}{child.name}.", in_func)
            else:
                yield from visit(child, rel, qual, in_func)

    for path in sorted(pkg.rglob("*.py")):
        yield from visit(ast.parse(path.read_text()),
                         path.relative_to(pkg).as_posix(), "", False)


def test_no_class_udf_only_resolves_a_broadcast():
    found = dict(_callable_classes())
    assert found, "the AST walk found no callable classes at all"
    resolving = sorted(k for k, init in found.items() if _calls_ray_get(init))
    assert not resolving, (
        "callable classes resolve a broadcast in __init__ (each starts an "
        "actor pool per query); use a function with "
        f"stages.shuffle.broadcast_get instead: {resolving}")
    unlisted = sorted(set(found) - STATEFUL_STAGES)
    assert not unlisted, (
        "new callable class (a map_batches class starts an actor pool): "
        "use a function, or add it to STATEFUL_STAGES if its per-actor "
        f"state is the point: {unlisted}")
    assert not STATEFUL_STAGES - set(found), \
        f"stale allow-list entries: {sorted(STATEFUL_STAGES - set(found))}"


def test_no_udf_gets_a_broadcast_per_batch():
    found = set(_nested_ray_get_sites())
    per_batch = sorted(found - RAY_GET_CLOSURES)
    assert not per_batch, (
        "nested functions call ray.get (a map_batches UDF deserializes the "
        "broadcast once per batch); use stages.shuffle.broadcast_get, or "
        "add a closure that waits on its own actor calls to "
        f"RAY_GET_CLOSURES: {per_batch}")
    assert not RAY_GET_CLOSURES - found, \
        f"stale allow-list entries: {sorted(RAY_GET_CLOSURES - found)}"


# ---------------------------------------------------------------------------
# runtime guard
# ---------------------------------------------------------------------------

def test_query_mix_starts_no_actor_pool(ray_session, monkeypatch):
    import ray.data as rd

    import __ray_entry__ as E
    from perfbench.inputs import QUERIES
    from util_compare import to_pandas

    seen = []
    orig = rd.Dataset.map_batches

    def recording(self, fn, *args, **kwargs):
        seen.append((getattr(fn, "__qualname__", repr(fn)),
                     isinstance(fn, type), kwargs.get("concurrency"),
                     kwargs.get("compute")))
        return orig(self, fn, *args, **kwargs)

    monkeypatch.setattr(rd.Dataset, "map_batches", recording)
    queries = E.queries()
    for name in QUERIES:
        assert len(to_pandas(queries[name](SF))) > 0, name
    assert seen, "no map_batches call was recorded"
    pools = [s for s in seen if s[1] or s[2] is not None or s[3] is not None]
    assert not pools, f"actor pools started on the query path: {pools}"
