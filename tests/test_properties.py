"""Property-based tests for the canonicalization / hashing / fuzzy kernels."""

from hypothesis import given, settings, strategies as st

from vbpl_web_crawl_ray.functions import canon, fuzzy
from vbpl_web_crawl_ray.functions.numeric import round_half_away

hostnames = st.from_regex(r"[a-z][a-z0-9]{0,10}(\.[a-z]{2,5}){1,2}",
                          fullmatch=True)
paths = st.from_regex(r"(/[A-Za-z0-9._~-]{0,8}){0,4}", fullmatch=True)
queries = st.from_regex(r"([a-zA-Z0-9]{1,5}=[a-zA-Z0-9]{0,6}(&|$)){0,3}",
                        fullmatch=True)


@given(hostnames, paths, queries)
@settings(max_examples=200, deadline=None)
def test_canonicalize_idempotent(host, path, query):
    url = f"http://{host}{path}" + (f"?{query}" if query else "")
    once = canon.canonicalize_url(url)
    assert canon.canonicalize_url(once) == once


@given(hostnames, paths)
@settings(max_examples=100, deadline=None)
def test_canonical_case_port_invariance(host, path):
    a = canon.canonicalize_url(f"http://{host}{path}")
    b = canon.canonicalize_url(f"HTTP://{host.upper()}:80{path}")
    assert a == b


# wider alphabet than the clean strategies above: dots, escapes, uppercase,
# traversal — anything the fast-path precheck might mis-accept
messy = st.from_regex(r"(/[A-Za-z0-9._~%/.-]{0,10}){0,4}", fullmatch=True)


@given(hostnames, messy, queries)
@settings(max_examples=300, deadline=None)
def test_fast_path_equals_slow_path(host, path, query):
    """The fast-path precheck may only accept fixed points of the full
    normalizer — for every URL the two paths must agree."""
    url = f"http://{host}{path}" + (f"?{query}" if query else "")
    assert canon.canonicalize_url(url) == canon._canonicalize_slow(url)


words = st.text(alphabet="abcdefgh ", min_size=0, max_size=20)


@given(words, words)
@settings(max_examples=200, deadline=None)
def test_levenshtein_symmetric_and_bounded(a, b):
    d = fuzzy.levenshtein(a, b)
    assert d == fuzzy.levenshtein(b, a)
    assert 0 <= d <= max(len(a), len(b))
    assert (d == 0) == (a == b)


@given(words, words, words)
@settings(max_examples=100, deadline=None)
def test_levenshtein_triangle(a, b, c):
    assert fuzzy.levenshtein(a, c) <= \
        fuzzy.levenshtein(a, b) + fuzzy.levenshtein(b, c)


# ASCII plus Vietnamese letters (precomposed diacritics, đ) and spaces:
# the alphabet of the crawl's titles
vi_words = st.text(alphabet="abcdeghinotuy ăâđêôơưáàảãạếềểễệốồổỗộứừửữựíìỉĩị"
                            "ĐÂƯ", min_size=0, max_size=60)


@given(st.one_of(st.text(max_size=40), vi_words),
       st.one_of(st.text(max_size=40), vi_words))
@settings(max_examples=400, deadline=None)
def test_ratio_bit_parallel_equals_dp(a, b):
    """The bit-parallel LCS ratio equals the sub-cost-2 DP bit for bit."""
    total = len(a) + len(b)
    want = 1.0 if total == 0 else \
        (total - fuzzy.levenshtein(a, b, sub_cost=2)) / total
    assert fuzzy.ratio(a, b) == want
    assert fuzzy.ratio(b, a) == want


@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_round_half_away_close_to_value(x):
    r = round_half_away(x, 4)
    assert abs(r - x) <= 0.00005000001
    # SQL semantics on exact halves
    assert round_half_away(0.00005, 4) == 0.0001
    assert round_half_away(-0.00005, 4) == -0.0001


@given(st.integers(min_value=1, max_value=400),
       st.integers(min_value=2, max_value=8))
@settings(max_examples=60, deadline=None)
def test_ntile_position_formula_matches_sql_semantics(total, k):
    """The vectorized position->tile formula used by q_ntile_quartiles
    must reproduce SQL NTILE(k) exactly: first (total % k) tiles get one
    extra row, tiles are contiguous runs over the global order."""
    import numpy as np
    pos = np.arange(total)
    base, rem = divmod(total, k)
    cut = rem * (base + 1)
    got = np.where(pos < cut, pos // (base + 1),
                   rem + (pos - cut) // max(base, 1)) + 1
    # reference: explicit run-length construction
    sizes = [base + 1 if i < rem else base for i in range(k)]
    want = np.repeat(np.arange(1, k + 1), sizes)
    assert np.array_equal(got, want[:total])


@given(st.integers(min_value=0, max_value=50),
       st.integers(min_value=0, max_value=50),
       st.integers(min_value=1, max_value=30))
@settings(max_examples=20, deadline=None)
def test_bucketed_join_random_equivalence(n_left, n_right, key_space):
    """bucketed_join == pd.merge on random int-keyed frames, including
    empty sides and duplicate keys (many-to-many fanout)."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from vbpl_web_crawl_ray.stages.shuffle import bucketed_join

    rng = np.random.default_rng(n_left * 1000 + n_right * 31 + key_space)
    left = pd.DataFrame({
        "k": rng.integers(0, key_space, n_left).astype(np.int64),
        "a": np.arange(n_left, dtype=np.int64)})
    right = pd.DataFrame({
        "k": rng.integers(0, key_space, n_right).astype(np.int64),
        "b": np.arange(n_right, dtype=np.int64)})
    if n_left == 0 or n_right == 0:
        return   # schema inference needs at least one row per side
    got = bucketed_join(rd.from_pandas(left), rd.from_pandas(right),
                        on="k", num_buckets=3).to_pandas()
    want = (left.merge(right, on="k", how="inner")
                .sort_values(["k", "a", "b"]).reset_index(drop=True))
    if len(want) == 0:
        # Ray's to_pandas drops schema with the empty blocks — only the
        # row count is comparable for an all-empty result
        assert len(got) == 0
        return
    got = got.sort_values(["k", "a", "b"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want)
