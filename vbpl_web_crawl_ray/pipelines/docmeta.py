"""Document effect-state derivation as an oracle-backed query.

The reference derives a 3-valued document state from (effective date,
expiration date) vs "now" in two places: the div.vbInfo scrape
(app/service/vbpl.py:640-648) and the concetti date-update path
(vbpl.py:875-892). ``stages/enrich.derive_effect_state_batch`` is the
engine's vectorized form; this query pins its semantics against a DuckDB
CASE oracle over SQL-reproducible dates (derived arithmetically from
doc_id — the crawl's meta table itself is not oracle-visible).
"""

from __future__ import annotations

import pandas as pd

from ..stages.enrich import derive_effect_state_batch
from ..sources.tablecache import base_dataset

NOW = pd.Timestamp("2024-01-01")       # matches sources/simweb.SIM_NOW
EPOCH = pd.Timestamp("2020-01-01")


def q_meta_effect_state(sf_dir: str) -> pd.DataFrame:
    """Per-doc (effective_date, expiration_date, state): dates are a pure
    arithmetic function of doc_id (every 3rd doc never expires), state is
    derive_effect_state_batch vs the fixed NOW. One map_batches pass —
    embarrassingly parallel, no shuffle."""
    ds = base_dataset(sf_dir, "documents", columns=["doc_id"])

    def f(df: pd.DataFrame) -> pd.DataFrame:
        did = df["doc_id"].to_numpy()
        eff = pd.Series(EPOCH + pd.to_timedelta((did * 7) % 3000, unit="D"))
        exp = pd.Series(eff + pd.to_timedelta(365 + did % 900, unit="D"))
        exp[did % 3 == 0] = pd.NaT
        out = pd.DataFrame({"doc_id": did, "effective_date": eff,
                            "expiration_date": exp})
        out["state"] = derive_effect_state_batch(
            out, "effective_date", "expiration_date", NOW)
        return out

    out = ds.map_batches(f, batch_format="pandas").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)
