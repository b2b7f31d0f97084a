"""Enrichment joins: fuzzy lookup (J4/J5) and containment lookup with
coalesce (J6) — the engine forms of the reference's Concetti / TVPL /
luatvietnam enrichment chains.

All are broadcast lookup joins: the candidate index ships once via
ray.put, matching happens vectorized-per-batch inside map_batches, no
shuffle (SURVEY.md §2.4)."""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray
import ray.data as rd

from ..functions.fuzzy import pairwise_similarity, ratio
from ..functions.numeric import round_half_away
from ..sources.tablecache import base_dataset, base_pandas
from .shuffle import broadcast_get


def fuzzy_lookup(ds: rd.Dataset, key_col: str, candidates: list[dict],
                 cand_key: str, threshold: float = 0.8,
                 out_cols: list[str] | None = None) -> rd.Dataset:
    """J4/J5 semantics: for each row, scan ``candidates`` in order and take
    the FIRST whose ``ratio(key, cand[cand_key]) >= threshold``
    (first-match-wins, reference vbpl.py:842-917); non-matches keep None.
    """
    cand_ref = ray.put(candidates)
    out_cols = out_cols or [c for c in (candidates[0] if candidates else {})
                            if c != cand_key]

    def lookup(df: pd.DataFrame) -> pd.DataFrame:
        cands = broadcast_get(cand_ref)
        cache: dict[str, dict | None] = {}

        def match(key: str):
            if key not in cache:
                cache[key] = next((c for c in cands
                                   if ratio(key, c[cand_key]) >= threshold),
                                  None)
            return cache[key]

        hits = [match(k) for k in df[key_col]]
        for c in out_cols:
            df[c] = [h[c] if h else None for h in hits]
        return df

    return ds.map_batches(lookup, batch_format="pandas")


def containment_enrich(ds: rd.Dataset, key_col: str, existing_col: str,
                       candidates: list[dict], cand_title: str,
                       cand_value: str, default: str,
                       out_col: str) -> rd.Dataset:
    """J6 semantics (reference enrich_vbpl_sector, vbpl.py:1178-1263):
    accept the first candidate whose title CONTAINS the key as a substring;
    multi-value results join with ' - '; default when nothing matches; and
    never downgrade an existing specific value (coalesce-with-existing:
    keep ``existing_col`` unless it is null or the default)."""
    cand_ref = ray.put(candidates)

    def enrich(df: pd.DataFrame) -> pd.DataFrame:
        cands = broadcast_get(cand_ref)

        def enrich_one(key: str):
            vals = [c[cand_value] for c in cands
                    if key and key in c[cand_title]]
            return " - ".join(dict.fromkeys(vals)) if vals else default

        new = np.array([enrich_one(k) for k in df[key_col]], dtype=object)
        old = df[existing_col].to_numpy(dtype=object)
        keep_old = np.array(
            [not pd.isna(o) and o != default for o in old], dtype=bool)
        df[out_col] = np.where(keep_old, old, new)
        return df

    return ds.map_batches(enrich, batch_format="pandas")


def derive_effect_state(effective_date, expiry_date, now) -> str:
    """3-valued document state from dates (reference search_concetti,
    app/service/vbpl.py:875-892): not-yet / in-effect / expired."""
    if effective_date is not None and now < effective_date:
        return "Chưa có hiệu lực"
    if expiry_date is not None and now >= expiry_date:
        return "Hết hiệu lực"
    return "Có hiệu lực"


def derive_effect_state_batch(df: pd.DataFrame, eff_col: str, exp_col: str,
                              now) -> np.ndarray:
    """Vectorized 3-valued state derivation."""
    eff = pd.to_datetime(df[eff_col])
    exp = pd.to_datetime(df[exp_col])
    out = np.full(len(df), "Có hiệu lực", dtype=object)
    out[(eff.notna() & (now < eff)).to_numpy()] = "Chưa có hiệu lực"
    out[(exp.notna() & (now >= exp)).to_numpy()] = "Hết hiệu lực"
    return out


def fuzzy_name_pairs(sf_dir: str, threshold: float = 0.8) -> pd.DataFrame:
    """Oracle-backed similarity join (J4 pattern at scale): part pairs in
    the same brand with name similarity >= threshold.

    Dictionary-blocked: the name vocabulary is tiny relative to rows, so
    the all-pairs distance matrix over DISTINCT names is computed once and
    broadcast; per-brand buckets then expand accepted name pairs to row
    pairs vectorized — no per-row edit distances. (unit-cost lev to match
    DuckDB's levenshtein().)"""
    from .shuffle import bucketed_group_apply

    ds = base_dataset(sf_dir, "part", columns=["p_partkey", "p_brand", "p_name"])
    names = sorted(set(base_pandas(sf_dir, "part", columns=["p_name"])["p_name"]))
    sims = pairwise_similarity(names)
    accepted = {(a, b) for (a, b), s in sims.items() if s >= threshold}
    acc_ref = ray.put((accepted, {k: sims[k] for k in accepted}))

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        acc, simmap = broadcast_get(acc_ref)
        rows_a, rows_b, rows_s = [], [], []
        for _, brand_g in g.groupby("p_brand"):  # a bucket holds >=1 brands
            by_name = {n: sub["p_partkey"].to_numpy()
                       for n, sub in brand_g.groupby("p_name")}
            nlist = sorted(by_name)
            for i, na in enumerate(nlist):
                for nb in nlist[i:]:
                    if (na, nb) not in acc:
                        continue
                    ka, kb = by_name[na], by_name[nb]
                    if na == nb:
                        ia, ib = np.triu_indices(len(ka), k=1)
                        pa, pb = ka[ia], ka[ib]
                    else:
                        pa = np.repeat(ka, len(kb))
                        pb = np.tile(kb, len(ka))
                    lo, hi = np.minimum(pa, pb), np.maximum(pa, pb)
                    rows_a.append(lo)
                    rows_b.append(hi)
                    rows_s.append(np.full(len(lo),
                                          round_half_away(simmap[(na, nb)], 4)))
        if not rows_a:
            return pd.DataFrame({"id_a": pd.Series(dtype=np.int64),
                                 "id_b": pd.Series(dtype=np.int64),
                                 "name_sim": pd.Series(dtype=np.float64)})
        return pd.DataFrame({"id_a": np.concatenate(rows_a),
                             "id_b": np.concatenate(rows_b),
                             "name_sim": np.concatenate(rows_s)})

    return bucketed_group_apply(ds, "p_brand", per_bucket)
