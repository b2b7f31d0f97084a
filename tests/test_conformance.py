"""Relational conformance: every oracle-backed queries() entry vs DuckDB,
mirroring the driver's CORRECTNESS gate (at sf0.001 for speed; the driver
re-runs at sf0.01).

Every entry runs with the Ray Data all-to-all operators patched to raise
(exchanges go through ``stages/shuffle``), except the entries of
``ALL_TO_ALL_ALLOWED``, each with the reason its all-to-all is the
operator itself."""

import sys

import pytest

sys.path.insert(0, "/root/repo")
import __ray_entry__ as entrymod  # noqa: E402

from util_compare import (assert_match, refuse_all_to_all,  # noqa: E402
                          to_pandas)

QUERIES = entrymod.queries()
ORACLES = entrymod.oracle_sql()
SQL_BACKED = sorted(ORACLES)
ROWS_ONLY = sorted(set(QUERIES) - set(ORACLES))

_STREAM_ORDER = ("the global sort on (ts, event_id) is the stream's wire "
                 "order; each actor's feed batches decide which late "
                 "events drop")
#: Entries that may call a Ray Data all-to-all, with the reason.
ALL_TO_ALL_ALLOWED = {
    "filter_sort_limit": "the O1 operator is the global sort itself",
    **{name: _STREAM_ORDER for name in (
        "stream_user_state", "stream_tumbling_watermark",
        "stream_session_windows", "stream_click_attribution",
        "stream_hopping_watermark", "stream_dedup_gate")},
}


@pytest.fixture
def guard(monkeypatch):
    """Refuse the all-to-all operators unless the query is allowed them."""
    def arm(name):
        if name not in ALL_TO_ALL_ALLOWED:
            refuse_all_to_all(monkeypatch, f"by {name}")
    return arm


def test_all_to_all_allowed_names_exist():
    assert set(ALL_TO_ALL_ALLOWED) <= set(QUERIES)


@pytest.mark.parametrize("name", SQL_BACKED)
def test_query_matches_oracle(name, sf_dir, guard):
    guard(name)
    result = QUERIES[name](sf_dir)
    assert_match(result, ORACLES[name], sf_dir, name=name)


@pytest.mark.parametrize("name", ROWS_ONLY)
def test_rows_only_queries_run(name, sf_dir, guard):
    guard(name)
    df = to_pandas(QUERIES[name](sf_dir))
    assert df is not None and len(df) >= 0


def test_entry_smoke():
    ds = entrymod.entry()
    df = to_pandas(ds)
    assert len(df) > 0
    # flagship returns the crawled payload table (input_hint schema)
    assert {"image_id", "bytes", "w", "h", "fmt", "caption", "phash"} \
        <= set(df.columns)
