"""IVF index training is a function of the embeddings, not of block order."""

import numpy as np
import pandas as pd
import ray.data as rd

from vbpl_web_crawl_ray.stages import ann


def test_sample_kmeans_ignores_block_order():
    rng = np.random.default_rng(11)
    m = rng.normal(size=(3000, 8))
    m /= np.linalg.norm(m, axis=1, keepdims=True)
    frame = pd.DataFrame({"vec_id": np.arange(3000, dtype=np.int64),
                          "emb": [r.tobytes() for r in m]})
    blocks = [frame.iloc[i:i + 500] for i in range(0, 3000, 500)]
    fwd = ann._sample_kmeans(rd.from_pandas(blocks), 8, 6, 10, seed=7)
    rev = ann._sample_kmeans(rd.from_pandas(blocks[::-1]), 8, 6, 10, seed=7)
    assert np.array_equal(fwd, rev)
