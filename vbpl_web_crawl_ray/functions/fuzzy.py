"""Edit-distance kernels for the fuzzy enrichment joins (SURVEY.md J4-J6).

The reference accepts a candidate when ``Levenshtein.ratio >= 0.8``
(app/service/vbpl.py:869-873, 927, 961). Two similarity forms:

- :func:`ratio` — python-Levenshtein semantics: substitutions cost 2,
  ratio = (la+lb-dist2)/(la+lb). Used by the enrichment pipeline for
  reference parity.
- :func:`similarity` — 1 - unit-cost-lev / max(len); used by the
  oracle-backed query because DuckDB's ``levenshtein()`` is unit-cost.

With substitution cost 2 a substitution never beats a delete + insert,
so that distance is la + lb - 2*LCS(a, b): :func:`ratio` computes the LCS
bit-parallel (Hyyro's recurrence over Python ints, one add/and/or per
character of ``b``). The unit-cost DP behind :func:`similarity` is
numpy-vectorized per row with the d[j]=cur[j]-j accumulate trick for the
sequential insertion dependency.
"""

from __future__ import annotations

import numpy as np


def levenshtein(a: str, b: str, sub_cost: int = 1) -> int:
    if a == b:
        return 0
    if not a or not b:
        return (len(a) + len(b)) if sub_cost >= 2 else max(len(a), len(b))
    bcp = np.array([ord(c) for c in b], dtype=np.int64)
    lb = len(b)
    jrange = np.arange(lb + 1)
    prev = jrange.copy()
    for i, ca in enumerate(a, 1):
        cost = np.where(bcp == ord(ca), 0, sub_cost)
        cur = np.empty(lb + 1, dtype=np.int64)
        cur[0] = i
        cur[1:] = np.minimum(prev[:-1] + cost, prev[1:] + 1)
        # left-neighbor (insertion) chain: d[j] = min(d[j], d[j-1])
        d = np.minimum.accumulate(cur - jrange)
        prev = d + jrange
    return int(prev[-1])


def lcs_length(a: str, b: str) -> int:
    """Length of the longest common subsequence, bit-parallel: bit i of
    ``v`` is clear once a[i] is matched; each character of ``b`` updates
    all of ``a`` in a few big-int operations."""
    masks: dict[str, int] = {}
    for i, c in enumerate(a):
        masks[c] = masks.get(c, 0) | (1 << i)
    full = (1 << len(a)) - 1
    v = full
    for c in b:
        u = v & masks.get(c, 0)
        v = ((v + u) | (v - u)) & full
    return len(a) - v.bit_count()


def ratio(a: str, b: str) -> float:
    """python-Levenshtein ratio (sub cost 2) — the reference's 0.8 gate."""
    total = len(a) + len(b)
    if total == 0:
        return 1.0
    return 2 * lcs_length(a, b) / total


def similarity(a: str, b: str) -> float:
    """1 - unit-lev/max(len) — DuckDB-oracle-compatible similarity."""
    m = max(len(a), len(b))
    if m == 0:
        return 1.0
    return 1.0 - levenshtein(a, b) / m


def pairwise_similarity(names: list[str]) -> dict[tuple[str, str], float]:
    """All-pairs :func:`similarity` over a (small, distinct) name
    vocabulary — the broadcastable core of a dictionary-blocked fuzzy join."""
    out = {}
    for i, a in enumerate(names):
        for b in names[i:]:
            s = similarity(a, b)
            out[(a, b)] = s
            out[(b, a)] = s
    return out
