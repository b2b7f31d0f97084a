"""Partition counts follow measured bytes, capped by the cluster.

Cached base tables (`sources/tablecache.base_dataset`) are cut into one
block per `DataContext.target_min_block_size` of their parquet footer
bytes, at most 2 x CPUs, and a task exchange (`shuffle._exchange`) with no
requested bucket count takes one bucket per that unit of its inputs'
block-metadata bytes, at most `resolve_num_buckets()`. An explicit
`num_buckets` and `GRAFT_NUM_BUCKETS` still win exactly.

A static guard keeps base-table reads on the cache: a plain
`rd.read_parquet` of `{sf_dir}/<table>.parquet` keeps Ray Data's
2 x CPUs block floor and the files' pandas schema metadata.
"""

import ast
import math
import pathlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray
import ray.data as rd

from vbpl_web_crawl_ray.sources import tablecache
from vbpl_web_crawl_ray.stages import shuffle
from vbpl_web_crawl_ray.stages.shuffle import bucketed_group_apply, bucketed_join

ROOT = pathlib.Path(__file__).resolve().parents[1]

TABLES = ("customer", "documents", "embeddings", "events", "lineitem",
          "nation", "orders", "part", "region", "supplier")

#: Base-table reads allowed outside the table cache: (module, function)
#: -> why the read cannot go through ``base_dataset``.
ALLOWED_BASE_READS = {
    ("vbpl_web_crawl_ray/pipelines/relational.py", "q_filter_sort_limit"):
        "its predicate pushes down into the parquet scan (row-group "
        "pruning), which a cached, already-decoded table cannot do; it "
        "reads with the file schema minus its pandas metadata",
}


@pytest.fixture(autouse=True)
def _fresh_cache():
    tablecache.clear()
    yield
    tablecache.clear()


@pytest.mark.parametrize("table", TABLES)
def test_benchmark_tables_cache_as_one_block(sf_dir, table):
    assert tablecache.base_dataset(sf_dir, table).num_blocks() == 1


def _unit() -> int:
    return rd.DataContext.get_current().target_min_block_size


@pytest.mark.parametrize("mib, capped", [(2.5, False), (12, True)])
def test_block_count_follows_bytes_up_to_twice_the_cpus(tmp_path, mib,
                                                        capped):
    rows = int(mib * (1 << 20)) // 16
    rng = np.random.default_rng(5)
    table = pa.table({"a": rng.integers(0, 1 << 62, rows),
                      "b": rng.integers(0, 1 << 62, rows)})
    pq.write_table(table, tmp_path / "t.parquet", compression="none",
                   use_dictionary=False)
    cap = 2 * int(ray.cluster_resources()["CPU"])
    want = min(cap, math.ceil(table.nbytes / _unit()))
    assert (want == cap) == capped
    ds = tablecache.base_dataset(str(tmp_path), "t")
    assert ds.num_blocks() == want
    assert ds.count() == rows


def test_first_touch_runs_one_execution(sf_dir, monkeypatch):
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor)
    runs = []
    execute = StreamingExecutor.execute

    def counted(self, *a, **kw):
        runs.append(1)
        return execute(self, *a, **kw)

    monkeypatch.setattr(StreamingExecutor, "execute", counted)
    ds = tablecache.base_dataset(sf_dir, "lineitem", ["l_orderkey"])
    assert len(runs) == 1
    tablecache.base_dataset(sf_dir, "lineitem", ["l_partkey"])
    assert len(runs) == 1
    assert ds.count() == 6000


class _Recorder:
    """Stands in for a remote function of the exchange; records the
    bucket count of every ``_cut`` and counts every ``_apply``."""

    def __init__(self, fn):
        self.fn, self.calls, self.buckets = fn, 0, []

    def options(self, num_returns):
        self.buckets.append(num_returns - 1)
        return self.fn.options(num_returns=num_returns)

    def remote(self, *a):
        self.calls += 1
        return self.fn.remote(*a)


@pytest.fixture
def exchange(monkeypatch):
    monkeypatch.delenv("GRAFT_NUM_BUCKETS", raising=False)
    cut, apply = _Recorder(shuffle._cut), _Recorder(shuffle._apply)
    monkeypatch.setattr(shuffle, "_cut", cut)
    monkeypatch.setattr(shuffle, "_apply", apply)
    return cut, apply


def _frame(n: int = 2000) -> pd.DataFrame:
    return pd.DataFrame({"k": np.arange(n, dtype=np.int64) % 97,
                         "v": np.arange(n, dtype=np.int64)})


#: per-key sums of one bucket (a lambda, so Ray ships it by value)
_sums = lambda g: g.groupby("k", as_index=False)["v"].sum()  # noqa: E731


def _sorted(ds: rd.Dataset) -> pd.DataFrame:
    return ds.to_pandas().sort_values("k").reset_index(drop=True)


def test_small_exchange_is_one_bucket(exchange):
    cut, apply = exchange
    ds = rd.from_pandas(_frame()).repartition(4).materialize()
    assert ds.size_bytes() < _unit()
    got = bucketed_group_apply(ds, "k", _sums)
    assert cut.buckets == [1] * 4 and apply.calls == 1
    want = bucketed_group_apply(ds, "k", _sums, num_buckets=8)
    assert apply.calls == 1 + 8
    pd.testing.assert_frame_equal(_sorted(got), _sorted(want))


def test_small_join_is_one_bucket(exchange):
    cut, apply = exchange
    left = rd.from_pandas(_frame())
    right = rd.from_pandas(pd.DataFrame({"k": np.arange(97, dtype=np.int64),
                                         "w": np.arange(97) * 2}))
    got = bucketed_join(left, right, on="k").to_pandas()
    assert set(cut.buckets) == {1} and apply.calls == 1
    assert len(got) == 2000 and (got["w"] == got["k"] * 2).all()


def test_large_exchange_is_capped(exchange):
    cut, apply = exchange
    n = 3 * _unit() // 16 * shuffle.resolve_num_buckets()
    ds = rd.from_pandas(_frame(n)).materialize()
    bucketed_group_apply(ds, "k", _sums)
    assert set(cut.buckets) == {shuffle.resolve_num_buckets()}


def test_explicit_and_env_bucket_counts_win(exchange, monkeypatch):
    cut, _ = exchange
    ds = rd.from_pandas(_frame()).materialize()
    bucketed_group_apply(ds, "k", _sums, num_buckets=5)
    assert cut.buckets == [5]
    monkeypatch.setenv("GRAFT_NUM_BUCKETS", "6")
    bucketed_group_apply(ds, "k", _sums)
    assert cut.buckets == [5, 6]
    bucketed_group_apply(ds, "k", _sums, num_buckets=3)
    assert cut.buckets == [5, 6, 3]


# ---------------------------------------------------------------------------
# static guard: base tables are read through the cache
# ---------------------------------------------------------------------------

def _is_base_table_path(node, fstrings: dict) -> bool:
    """An f-string (or a local name bound to one) of the form
    ``{sf_dir}/<table>.parquet``."""
    if isinstance(node, ast.Name):
        node = fstrings.get(node.id)
    if not isinstance(node, ast.JoinedStr) or not node.values:
        return False
    head, tail = node.values[0], node.values[-1]
    return (isinstance(head, ast.FormattedValue)
            and isinstance(head.value, ast.Name)
            and head.value.id == "sf_dir"
            and isinstance(tail, ast.Constant)
            and str(tail.value).endswith(".parquet"))


def _base_table_reads(path: pathlib.Path) -> list[str]:
    tree = ast.parse(path.read_text())
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        fstrings = {t.id: n.value for n in ast.walk(fn)
                    if isinstance(n, ast.Assign)
                    for t in n.targets if isinstance(t, ast.Name)}
        for call in ast.walk(fn):
            if (isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Attribute)
                    and call.func.attr == "read_parquet"
                    and ast.unparse(call.func.value) in ("rd", "ray.data")
                    and call.args
                    and _is_base_table_path(call.args[0], fstrings)):
                found.append(fn.name)
    return found


def _program_files():
    yield ROOT / "__ray_entry__.py"
    yield from sorted((ROOT / "vbpl_web_crawl_ray").rglob("*.py"))


def test_base_tables_are_read_through_the_cache():
    found = {(p.relative_to(ROOT).as_posix(), name)
             for p in _program_files()
             if p.name != "tablecache.py"
             for name in _base_table_reads(p)}
    bad = found - set(ALLOWED_BASE_READS)
    assert not bad, ("read base tables through sources.tablecache."
                     f"base_dataset, not rd.read_parquet: {sorted(bad)}")
    assert found == set(ALLOWED_BASE_READS), "stale allow-list entry"


def test_guard_catches_a_plain_base_table_read(tmp_path):
    p = tmp_path / "m.py"
    p.write_text("import ray.data as rd\n"
                 "def q(sf_dir, table):\n"
                 "    return rd.read_parquet(f'{sf_dir}/{table}.parquet')\n"
                 "def r(sf_dir):\n"
                 "    path = f'{sf_dir}/orders.parquet'\n"
                 "    return rd.read_parquet(path, columns=['a'])\n"
                 "def s(out):\n"
                 "    return rd.read_parquet(f'{out}/payload')\n")
    assert _base_table_reads(p) == ["q", "r"]
