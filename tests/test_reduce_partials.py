"""One two-phase grouped aggregate: `stages/shuffle.reduce_partials`.

1. Unit tests: the result equals a one-shot pandas groupby over the whole
   input (sum, and min/max through ``agg``), with str and int keys, int64
   dtypes, any block count, over a `bucketed_group_apply` output, and
   with every block filtered empty.
2. Structural guard: no module outside `stages/shuffle.py` hand-writes
   the driver half of a partial aggregate — neither
   ``<expr>.to_pandas().groupby(...)`` nor ``name = <expr>.to_pandas()``
   followed by ``name.groupby(...)`` in the same function — beyond the
   number of merges `ALLOWED_DRIVER_MERGES` grants a function, each with
   the reason its merge is not a sum, min or max.
3. Bucket bound: every bucket function whose `bucketed_group_apply`
   output feeds ``reduce_partials`` ends with ``return group_cells(...)``
   on the same keys and ``agg``, so each bucket ships one row per key;
   on real queries the rows leaving the buckets stay within
   cells x buckets.
"""
from __future__ import annotations

import ast
import sys
from pathlib import Path

import numpy as np
import pandas as pd
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

#: ``module:function`` -> (number of hand-written driver merges, why
#: they are not a sum, min or max). A further merge in the function fails.
ALLOWED_DRIVER_MERGES = {
    "__ray_entry__.py:_crawl_depth_histogram":
        (1, "distinct hosts per depth (nunique) over a pyarrow read of the "
         "crawl log; distinct counts do not merge as sums"),
    "__ray_entry__.py:_crawl_fail_taxonomy":
        (1, "distinct hosts per status (nunique) over a pyarrow read of the "
         "fails table"),
    "__ray_entry__.py:_crawl_politeness_audit":
        (1, "the min inter-fetch gap needs each host's sorted fetch sequence "
         "(a LAG), not a merge of partials"),
    "__ray_entry__.py:_crawl_round_delta":
        (2, "first-seen round per image, then a histogram of it: two "
         "dependent groupings over pyarrow reads of the payload store"),
    "__ray_entry__.py:_crawl_sections":
        (1, "counts over a pyarrow Table already on the driver; there is no "
         "Ray dataset and so no per-batch phase"),
    "vbpl_web_crawl_ray/pipelines/relational5.py:q_priority_month_bitmap":
        (1, "BIT_OR merge of month masks"),
    "vbpl_web_crawl_ray/pipelines/relational6.py:q_kmv_distinct_md5":
        (1, "a for over groups: dedup the hashes, take the k-th smallest"),
    "vbpl_web_crawl_ray/pipelines/scaleops.py:q_table_checksum":
        (1, "XOR merge of row hashes"),
    "vbpl_web_crawl_ray/stages/ann.py:_distributed_kmeans":
        (1, "a for over cells summing byte-encoded centroid vectors"),
    "vbpl_web_crawl_ray/stages/sketches.py:sketch_quantile_per_group":
        (1, "a for over groups merging serialized quantile sketches"),
}

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _own_nodes(scope: ast.AST):
    """Nodes of ``scope`` without descending into nested scopes."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def _is_call(node: ast.AST, attr: str) -> bool:
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == attr)


def _driver_merges(path: Path) -> list[tuple[str, int]]:
    """(enclosing function, line) of every hand-written driver merge."""
    tree = ast.parse(path.read_text())
    hits = []
    scopes = [("<module>", tree)] + [
        (n.name, n) for n in ast.walk(tree)
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for name, scope in scopes:
        nodes = list(_own_nodes(scope))
        pulled = {}
        for n in nodes:
            if isinstance(n, ast.Assign) and _is_call(n.value, "to_pandas"):
                for t in n.targets:
                    if isinstance(t, ast.Name):
                        pulled.setdefault(t.id, n.lineno)
        for n in nodes:
            if not _is_call(n, "groupby"):
                continue
            base = n.func.value
            if _is_call(base, "to_pandas") or (
                    isinstance(base, ast.Name) and base.id in pulled
                    and n.lineno > pulled[base.id]):
                hits.append((name, n.lineno))
    return hits


def _modules() -> list[Path]:
    pkg = sorted((ROOT / "vbpl_web_crawl_ray").rglob("*.py"))
    return [p for p in pkg if p.name != "shuffle.py"
            or p.parent.name != "stages"] + [ROOT / "__ray_entry__.py"]


def test_no_hand_written_driver_merge():
    found: dict[str, list[int]] = {}
    for path in _modules():
        rel = path.relative_to(ROOT).as_posix()
        for fn, line in _driver_merges(path):
            found.setdefault(f"{rel}:{fn}", []).append(line)
    bad = [f"{site} lines {sorted(lines)}"
           for site, lines in sorted(found.items())
           if len(lines) > ALLOWED_DRIVER_MERGES.get(site, (0, ""))[0]]
    assert not bad, ("driver-side partial merge written by hand; use "
                     "stages.shuffle.reduce_partials: " + ", ".join(bad))
    stale = sorted(site for site, (n, _) in ALLOWED_DRIVER_MERGES.items()
                   if len(found.get(site, [])) < n)
    assert not stale, f"allow-list counts above the sites left: {stale}"


def _call_name(node: ast.AST) -> str | None:
    if not isinstance(node, ast.Call):
        return None
    f = node.func
    return f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)


def _arg(call: ast.Call, pos: int, name: str) -> ast.AST | None:
    if len(call.args) > pos:
        return call.args[pos]
    return next((k.value for k in call.keywords if k.arg == name), None)


def _unbounded_bucket_fns(path: Path) -> list[str]:
    """Sites where a reduce_partials(fn=None) merges a bucketed_group_apply
    output whose bucket function does not end with
    ``return group_cells(<same keys>, <same agg>)``."""
    tree = ast.parse(path.read_text())
    bad = []
    for scope in ast.walk(tree):
        if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        nodes = list(_own_nodes(scope))
        defs = {n.name: n for n in nodes if isinstance(n, ast.FunctionDef)}
        assigned = {t.id: n.value for n in nodes if isinstance(n, ast.Assign)
                    for t in n.targets if isinstance(t, ast.Name)}
        for call in nodes:
            if (_call_name(call) != "reduce_partials"
                    or _arg(call, 2, "fn") is not None):
                continue
            src = call.args[0]
            if isinstance(src, ast.Name):
                src = assigned.get(src.id)
            if _call_name(src) != "bucketed_group_apply":
                continue
            where = f"{scope.name}:{call.lineno}"
            bucket_fn = _arg(src, 2, "bucket_fn")
            fdef = (defs.get(bucket_fn.id)
                    if isinstance(bucket_fn, ast.Name) else None)
            if fdef is None:
                bad.append(f"{where} (bucket function not defined here)")
                continue
            ret = fdef.body[-1]
            want = [ast.dump(call.args[1]),
                    ast.dump(_arg(call, 3, "agg") or ast.Constant(None))]
            if not (isinstance(ret, ast.Return)
                    and _call_name(ret.value) == "group_cells"
                    and [ast.dump(ret.value.args[1]),
                         ast.dump(_arg(ret.value, 2, "agg")
                                  or ast.Constant(None))] == want):
                bad.append(f"{where} ({fdef.name})")
    return bad


def test_bucket_fns_feeding_reduce_end_with_group_cells():
    bad = [f"{p.relative_to(ROOT).as_posix()}:{site}"
           for p in _modules() for site in _unbounded_bucket_fns(p)]
    assert not bad, ("a bucket function whose output reduce_partials merges "
                     "must end with return group_cells(<keys>, <agg>) so "
                     "each bucket ships one row per key: " + ", ".join(bad))


@pytest.mark.parametrize("module, query", [
    ("relational2", "q_ntile_quartiles"),
    ("scaleops", "q_delta_encoding_audit"),
    ("analytics", "q_brand_pair_counts"),
    ("relational9", "q_gini_user_activity"),
    ("curation", "q_ngram_novelty_by_source"),
])
def test_bucketed_sites_ship_bounded_rows(ray_session, sf_dir, monkeypatch,
                                          module, query):
    import importlib
    from vbpl_web_crawl_ray.stages import shuffle

    mod = importlib.import_module(f"vbpl_web_crawl_ray.pipelines.{module}")
    buckets, merges = [], []

    def resolve(requested=None, nbytes=None):
        buckets.append(real_resolve(requested, nbytes))
        return buckets[-1]

    def counted(ds, keys, fn=None, agg=None):
        out = shuffle.reduce_partials(ds, keys, fn, agg)
        if fn is None:
            merges.append((ds.count(), len(out)))
        return out

    real_resolve = shuffle.resolve_num_buckets
    monkeypatch.setattr(shuffle, "resolve_num_buckets", resolve)
    monkeypatch.setattr(mod, "reduce_partials", counted)
    getattr(mod, query)(sf_dir)
    assert merges
    for shipped, cells in merges:
        assert shipped <= cells * max(buckets), (shipped, cells, buckets)


@pytest.fixture(scope="module")
def frame() -> pd.DataFrame:
    rng = np.random.default_rng(3)
    n = 5000
    return pd.DataFrame({
        "s": rng.choice(["a", "b", "c", "d"], n),
        "k": rng.integers(0, 13, n).astype(np.int64),
        "v": rng.integers(-1000, 1000, n).astype(np.int64),
        "x": rng.random(n)})


@pytest.fixture(scope="module")
def cells():
    # defined in a fixture so Ray ships it by value to the workers
    def fn(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"s": df["s"], "k": df["k"], "n": np.int64(1),
                             "v": df["v"], "lo": df["x"], "hi": df["x"]})
    return fn


def _expected(frame: pd.DataFrame) -> pd.DataFrame:
    return (frame.groupby(["s", "k"], as_index=False)
                 .agg(n=("v", "size"), v=("v", "sum"), lo=("x", "min"),
                      hi=("x", "max")))


def test_sum_equals_one_shot_groupby(ray_session, frame):
    import ray.data as rd
    from vbpl_web_crawl_ray.stages.shuffle import reduce_partials

    got = reduce_partials(rd.from_pandas(frame).repartition(5), "s",
                          lambda df: df[["s", "v"]])
    want = frame.groupby("s", as_index=False)["v"].sum()
    pd.testing.assert_frame_equal(got, want)
    assert got["v"].dtype == np.int64


@pytest.mark.parametrize("blocks", [1, 5, 7])
def test_min_max_multi_key_dtypes_and_block_count(ray_session, frame, cells,
                                                   blocks):
    import ray.data as rd
    from vbpl_web_crawl_ray.stages.shuffle import reduce_partials

    got = reduce_partials(rd.from_pandas(frame).repartition(blocks),
                          ["s", "k"], cells,
                          agg={"lo": "min", "hi": "max"})
    pd.testing.assert_frame_equal(got, _expected(frame))
    assert got["k"].dtype == np.int64 and got["n"].dtype == np.int64
    assert isinstance(got.index, pd.RangeIndex)


def test_fn_none_over_bucketed_output(ray_session, frame):
    import ray.data as rd
    from vbpl_web_crawl_ray.stages.shuffle import (bucketed_group_apply,
                                                   reduce_partials)

    # per-bucket (k, n) cells: every key closes inside its bucket, and
    # the map_groups output's zero-column empty blocks never reach fn
    buckets = bucketed_group_apply(
        rd.from_pandas(frame), "k",
        lambda g: g.groupby("k", as_index=False).agg(n=("v", "size")),
        num_buckets=4)
    got = reduce_partials(buckets, "k")
    want = frame.groupby("k", as_index=False).agg(n=("v", "size"))
    pd.testing.assert_frame_equal(got, want)


def test_all_empty_blocks_keep_the_columns(ray_session, frame):
    import ray.data as rd
    from vbpl_web_crawl_ray.stages.shuffle import reduce_partials

    got = reduce_partials(rd.from_pandas(frame).repartition(3), "s",
                          lambda df: df.loc[df["v"] > 10**6, ["s", "v"]])
    assert got.empty and list(got.columns) == ["s", "v"]
    assert got["v"].dtype == np.int64
