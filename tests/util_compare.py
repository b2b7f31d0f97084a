"""Driver-style comparison: Ray result vs DuckDB oracle — row count, schema
(column names), and order-insensitive values (float-tolerant)."""

from __future__ import annotations

import duckdb
import numpy as np
import pandas as pd

#: Ray Data operators that run an all-to-all exchange. ``Dataset.sum``,
#: ``max``, ``min``, ``mean`` and ``std`` run through ``aggregate``.
ALL_TO_ALL = ("groupby", "sort", "repartition", "random_shuffle", "join",
              "aggregate", "unique")

TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]


def run_oracle(sql: str, sf_dir: str) -> pd.DataFrame:
    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')")
    return con.execute(sql).fetchdf()


def to_pandas(result) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data as rd
    if isinstance(result, rd.Dataset):
        return result.to_pandas()
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result


def canonicalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df.copy()
    df = df[sorted(df.columns)]
    for c in df.columns:
        if pd.api.types.is_datetime64_any_dtype(df[c]):
            df[c] = df[c].astype("datetime64[us]")
        elif pd.api.types.is_integer_dtype(df[c]) or str(df[c].dtype) == "uint64":
            df[c] = df[c].astype("int64", errors="ignore")
        elif pd.api.types.is_float_dtype(df[c]):
            df[c] = df[c].astype("float64")
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)


def assert_match(ray_result, sql: str, sf_dir: str, name: str = "",
                 float_tol: float = 1e-9):
    got = canonicalize(to_pandas(ray_result))
    want = canonicalize(run_oracle(sql, sf_dir))
    assert len(got) == len(want), \
        f"{name}: row count {len(got)} != oracle {len(want)}"
    assert list(got.columns) == list(want.columns), \
        f"{name}: columns {list(got.columns)} != oracle {list(want.columns)}"
    for c in got.columns:
        if pd.api.types.is_float_dtype(want[c]):
            ok = np.allclose(got[c].to_numpy(), want[c].to_numpy(),
                             rtol=float_tol, atol=float_tol, equal_nan=True)
        else:
            ok = got[c].astype(str).equals(want[c].astype(str))
        assert ok, f"{name}: column {c} mismatch\ngot:\n{got[c].head(20)}\nwant:\n{want[c].head(20)}"


def refuse_all_to_all(monkeypatch, why: str = "") -> None:
    """Make every Ray Data all-to-all (:data:`ALL_TO_ALL`) raise on the
    driver; ``why`` names the caller in the error."""
    import ray.data as rd

    def refuse(name):
        def f(self, *a, **k):
            raise AssertionError(f"Dataset.{name} called {why}".rstrip())
        return f
    for name in ALL_TO_ALL:
        monkeypatch.setattr(rd.Dataset, name, refuse(name))
