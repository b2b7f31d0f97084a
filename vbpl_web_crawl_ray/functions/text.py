"""Scalar string/date kernels (reference app/helper/utility.py, SURVEY.md M1/M14/M15).

Vectorized (pandas str / pyarrow.compute) batch variants are provided for the
hot-path projections; scalar forms kept for parser internals.
"""

from __future__ import annotations

import re
from datetime import datetime

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

_CAMEL_SPLIT = re.compile(r"(?=[A-Z])")
_HEADER_TAG = re.compile(r"^h\d+$")
_ITEM_ID = re.compile(r"(?<=ItemID=)\d+")


# ---- case-convention converters (reference app/helper/utility.py:5-61) ----

def snake_to_camel(s: str) -> str:
    head, *tail = s.split("_")
    return head + "".join(w.capitalize() for w in tail)


def snake_to_pascal(s: str) -> str:
    return "".join(w.capitalize() for w in s.split("_"))


def camel_to_snake(s: str) -> str:
    return _CAMEL_SPLIT.sub("_", s).lower().lstrip("_")


# ---- text normalization (reference get_html_node_text, utility.py:64-67) ----

def node_text(s: str | None) -> str | None:
    return s.strip() if s is not None else None


def strip_batch(col: pa.ChunkedArray | pa.Array) -> pa.Array:
    """Vectorized whitespace-trim — the batch form of the reference's
    universal ``get_html_node_text`` normalizer."""
    return pc.utf8_trim_whitespace(col)


# ---- dates (reference utility.py:70-98; vbpl.py:608,626 '%d/%m/%Y') ----

def parse_date_dmy(s: str | None) -> datetime | None:
    """'%d/%m/%Y' -> datetime, None on failure (reference swallows
    ValueError into None, app/service/vbpl.py:624-631)."""
    if not s:
        return None
    try:
        return datetime.strptime(s.strip(), "%d/%m/%Y")
    except ValueError:
        return None


def parse_date_ymd(s: str | None) -> datetime | None:
    """'%Y-%m-%d' (Concetti JSON API shape, reference vbpl.py:825,879)."""
    if not s:
        return None
    try:
        return datetime.strptime(s.strip()[:10], "%Y-%m-%d")
    except ValueError:
        return None


def dmy_to_iso(s: str | None) -> str | None:
    """'D/M/YYYY' -> 'YYYY-MM-DD' with zero padding
    (reference convert_str_to_datetime, utility.py:86-98)."""
    d = parse_date_dmy(s) if s and "/" in s else None
    if d is None and s:
        try:
            day, month, year = s.strip().split("/")
            return f"{int(year):04d}-{int(month):02d}-{int(day):02d}"
        except (ValueError, AttributeError):
            return None
    return d.strftime("%Y-%m-%d") if d else None


def parse_dates_dmy_batch(col) -> np.ndarray:
    """Vectorized d/m/Y parse -> datetime64[ns] with NaT on failure."""
    s = pd.Series(col, dtype="object")
    return pd.to_datetime(s, format="%d/%m/%Y", errors="coerce").to_numpy()


# ---- misc predicates / extractors ----

def check_header_tag(tag_name: str) -> bool:
    """'h\\d+' predicate (reference utility.py:101-104)."""
    return bool(_HEADER_TAG.match(tag_name))


def extract_item_ids(hrefs) -> np.ndarray:
    """Vectorized '(?<=ItemID=)\\d+' extraction (reference vbpl.py:29,140).
    Returns int64 array with -1 for no match."""
    s = pd.Series(hrefs, dtype="object").str.extract(r"ItemID=(\d+)", expand=False)
    return s.fillna(-1).astype(np.int64).to_numpy()


def query_params_url_encode(params: dict) -> str:
    """Manual 'k=v&' join (reference concetti_query_params_url_encode,
    utility.py:82-83)."""
    return "&".join(f"{k}={v}" for k, v in params.items())
