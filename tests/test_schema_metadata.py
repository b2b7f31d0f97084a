"""Cached base tables carry no pandas schema metadata.

The fixture parquet files were written from pandas, so their Arrow schema
carries a ``pandas`` metadata dict. Ray Data cannot hash such a schema:
each stage that bundles several cached blocks into one batch (the
``MinHasher``, ``MD5MinHasher``, ``HashingEmbedder`` and ``QualityModel``
actor pools) logged "Failed to hash the schemas" and skipped schema
de-duplication. The table cache now drops that metadata when it
materializes a table; the stages' results are unchanged.
"""

import pandas as pd
import pytest
import ray

from vbpl_web_crawl_ray.sources import tablecache


def test_cached_blocks_have_hashable_metadata_free_schemas(sf_dir):
    tablecache.clear()
    ds = tablecache.base_dataset(sf_dir, "documents", ["doc_id", "text"])
    blocks = ray.get(ds.to_arrow_refs())
    assert blocks and all(t.schema.metadata is None for t in blocks)
    assert len({t.schema for t in blocks}) == 1


def _stage_outputs(sf_dir: str) -> dict[str, pd.DataFrame]:
    from vbpl_web_crawl_ray.stages.dedup import MD5MinHasher, MinHasher
    from vbpl_web_crawl_ray.stages.embed import HashingEmbedder
    from vbpl_web_crawl_ray.stages.textstats import QualityModel
    out = {}
    for cls in (MinHasher, MD5MinHasher, HashingEmbedder, QualityModel):
        ds = tablecache.base_dataset(sf_dir, "documents", ["doc_id", "text"])
        df = ds.map_batches(cls, batch_format="pandas", concurrency=1,
                            batch_size=64).to_pandas()
        out[cls.__name__] = df.sort_values("doc_id").reset_index(drop=True)
    return out


def test_stage_outputs_equal_passthrough_reads(sf_dir, monkeypatch):
    """Dropping the metadata changes no value the four stages emit."""
    tablecache.clear()
    cached = _stage_outputs(sf_dir)
    monkeypatch.setenv("GRAFT_TABLE_CACHE", "0")
    plain = _stage_outputs(sf_dir)
    for name, df in cached.items():
        want = plain[name]
        assert list(df.columns) == list(want.columns), name
        for c in df.columns:
            got, exp = df[c].tolist(), want[c].tolist()
            if c in ("signature", "embedding"):
                assert all((a == b).all() for a, b in zip(got, exp)), name
            else:
                assert got == exp, (name, c)


@pytest.fixture(autouse=True)
def _fresh_cache():
    yield
    tablecache.clear()
