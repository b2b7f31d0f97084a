"""Multimodal stages (decode/resize/features/phash near-dup) and the
idempotent upsert sink."""

import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data as rd

from vbpl_web_crawl_ray.sources.imaging import (decode_image, encode_image,
                                                gen_pixels, phash64)
from vbpl_web_crawl_ray.stages import multimodal as mm
from vbpl_web_crawl_ray.stages.shuffle import bucket_of
from vbpl_web_crawl_ray.stages.upsert import last_write_wins, upsert_parquet


def _payload_rows(n=8):
    rows = []
    for i in range(n):
        px = gen_pixels(f"img{i:08d}", 64 + i, 48 + i)
        fmt = "png" if i % 2 == 0 else "jpeg"
        rows.append({"image_id": f"img{i:08d}",
                     "bytes": encode_image(px, fmt),
                     "w": px.shape[1], "h": px.shape[0], "fmt": fmt,
                     "caption": f"ảnh {i}",
                     "phash": int(np.uint64(phash64(px)).astype(np.int64))})
    return rows


@pytest.fixture(scope="module")
def payload_ds():
    return rd.from_items(_payload_rows()).materialize()


class TestMultimodal:
    def test_decode_stage(self, payload_ds):
        out = payload_ds.map_batches(mm.DecodeImages, batch_format="pandas",
                                     batch_size=4, concurrency=(1, 2)).to_pandas()
        assert len(out) == 8
        r = out.iloc[0]
        px = np.frombuffer(r["pixels"], np.uint8).reshape(r["h"], r["w"])
        assert np.array_equal(px, gen_pixels("img00000000", 64, 48))

    def test_decode_unknown_fmt_raises(self):
        df = pd.DataFrame({"image_id": ["x"], "bytes": [b"zz"], "fmt": ["mp4"]})
        with pytest.raises(NotImplementedError):
            mm.DecodeImages()(df)

    def test_resize_stage(self, payload_ds):
        out = mm.resize_images(payload_ds, tw=16, th=16,
                               concurrency=(1, 2)).to_pandas()
        assert (out["w"] == 16).all() and (out["h"] == 16).all()
        px = decode_image(out["bytes"][0])
        assert px.shape == (16, 16)
        assert set(out.columns) >= {"image_id", "caption", "bytes", "fmt"}

    def test_feature_stage(self, payload_ds):
        out = mm.image_features(payload_ds, concurrency=(1, 2)).to_pandas()
        assert len(out) == 8
        assert (out["px_std"] > 0).all()
        assert out["phash"].dtype == np.int64

    def test_phash_near_dup(self):
        # jpeg re-encode of the same pixels = planted near-dup pair
        px = gen_pixels("imgdup", 80, 80)
        rows = _payload_rows(6)
        rows.append({"image_id": "imgdupA", "bytes": encode_image(px, "png"),
                     "w": 80, "h": 80, "fmt": "png", "caption": "a",
                     "phash": int(np.uint64(phash64(px)).astype(np.int64))})
        px2 = decode_image(encode_image(px, "jpeg"))
        rows.append({"image_id": "imgdupB", "bytes": encode_image(px2, "png"),
                     "w": 80, "h": 80, "fmt": "png", "caption": "b",
                     "phash": int(np.uint64(phash64(px2)).astype(np.int64))})
        ds = rd.from_items(rows)
        pairs = mm.phash_near_dup_pairs(ds, max_hamming=2)
        got = set(zip(pairs["id_a"], pairs["id_b"]))
        assert ("imgdupA", "imgdupB") in got or ("imgdupB", "imgdupA") in got


def test_phash_banding_is_exact():
    """Pigeonhole: banded phash near-dup must EQUAL brute-force Hamming."""
    rows = _payload_rows(24)
    # plant a couple of jpeg twins for non-trivial matches
    for i in (0, 5):
        px = decode_image(rows[i]["bytes"]) if rows[i]["fmt"] == "png" else \
            decode_image(rows[i]["bytes"])
        px2 = decode_image(encode_image(px, "jpeg"))
        rows.append({**rows[i], "image_id": rows[i]["image_id"] + "_dup",
                     "bytes": encode_image(px2, "png"), "fmt": "png",
                     "phash": int(np.uint64(phash64(px2)).astype(np.int64))})
    ds = rd.from_items(rows)
    got = mm.phash_near_dup_pairs(ds, max_hamming=2)
    ids = [r["image_id"] for r in rows]
    hs = np.array([r["phash"] for r in rows], dtype=np.int64).view(np.uint64)
    want = set()
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            if bin(int(hs[i] ^ hs[j])).count("1") <= 2:
                want.add(tuple(sorted((ids[i], ids[j]))))
    got_set = {tuple(sorted((a, b)))
               for a, b in zip(got["id_a"], got["id_b"])}
    assert got_set == want and want


class TestVideo:
    def test_frame_sampling(self):
        frames = [gen_pixels(f"f{i}", 24, 24) for i in range(7)]
        blob = mm.encode_video(frames, "png")
        ds = rd.from_items([{"video_id": "vid0", "bytes": blob}])
        out = mm.sample_frames(ds, every_k=2).to_pandas()
        assert list(out["frame_index"]) == [0, 2, 4, 6]
        got = decode_image(out["bytes"][1])
        assert np.array_equal(got, frames[2])

    def test_video_magic_required(self):
        with pytest.raises(NotImplementedError):
            list(mm.iter_video_frames(b"MP4 something"))

    def test_audio_stub(self):
        with pytest.raises(NotImplementedError):
            mm.AudioFeatures()(pd.DataFrame({"audio_id": ["a"],
                                             "bytes": [b"x"]}))


class TestUpsert:
    def test_last_write_wins_deterministic(self):
        rows = [{"k": 1, "ts": 2, "uid": 10, "v": "old"},
                {"k": 1, "ts": 5, "uid": 11, "v": "new"},
                {"k": 2, "ts": 1, "uid": 12, "v": "only"},
                {"k": 1, "ts": 5, "uid": 9, "v": "tie-lower-uid"}]
        out = last_write_wins(rd.from_items(rows), ["k"], ["ts", "uid"]) \
            .to_pandas().sort_values("k")
        assert list(out["v"]) == ["new", "only"]  # ties: higher uid wins

    def test_upsert_parquet_merge_and_idempotence(self, tmp_path):
        out_dir = str(tmp_path / "tbl")
        batch1 = rd.from_items([{"k": 1, "ts": 1, "v": "a"},
                                {"k": 2, "ts": 1, "v": "b"}])
        upsert_parquet(batch1, out_dir, ["k"], "ts")
        batch2 = rd.from_items([{"k": 2, "ts": 5, "v": "b2"},
                                {"k": 3, "ts": 1, "v": "c"}])
        upsert_parquet(batch2, out_dir, ["k"], "ts")
        got = rd.read_parquet(out_dir).to_pandas().sort_values("k")
        assert list(got["v"]) == ["a", "b2", "c"]
        # replay the same batch — idempotent (reference resume-by-replay)
        upsert_parquet(batch2, out_dir, ["k"], "ts")
        got2 = rd.read_parquet(out_dir).to_pandas().sort_values("k")
        assert list(got2["v"]) == ["a", "b2", "c"]
        # data columns stay clean (bucket is only the hive partition col)
        assert set(got2.columns) <= {"k", "ts", "v", "bucket"}

    def test_upsert_parquet_keeps_one_row_per_key_across_buckets(
            self, tmp_path):
        out_dir = str(tmp_path / "big")
        ds = rd.from_items([{"k": i, "ts": 1, "v": str(i)} for i in range(64)])
        upsert_parquet(ds, out_dir, ["k"], "ts")
        got = rd.read_parquet(out_dir).to_pandas()
        assert len(got) == 64
        upsert_parquet(rd.from_items([{"k": 1, "ts": 5, "v": "new"}]),
                       out_dir, ["k"], "ts")
        got = rd.read_parquet(out_dir).to_pandas()
        assert len(got) == 64
        assert got.loc[got["k"] == 1, "v"].tolist() == ["new"]

    def test_upsert_parquet_pulls_no_rows_to_driver(self, tmp_path,
                                                    monkeypatch):
        """Each bucket is merged and written by the task that owns it: a
        whole-table to_pandas on the driver would grow with the table."""
        def boom(self, *a, **k):
            raise AssertionError("upsert_parquet pulled rows to the driver")

        out_dir = str(tmp_path / "tbl")
        monkeypatch.setattr(rd.Dataset, "to_pandas", boom)
        for ts in (1, 2):
            upsert_parquet(rd.from_items([{"k": i, "ts": ts, "v": f"{i}@{ts}"}
                                          for i in range(32)]),
                           out_dir, ["k"], "ts")
        monkeypatch.undo()
        got = rd.read_parquet(out_dir).to_pandas()
        assert sorted(got["v"]) == sorted(f"{i}@2" for i in range(32))

    def test_upsert_parquet_layout_after_replay(self, tmp_path):
        """One key-sorted part-0.parquet per bucket=<b> dir, each holding
        only keys that hash to b; a replay rewrites, never duplicates, and
        leaves no temp file or directory behind."""
        out_dir = str(tmp_path / "tbl")
        batch = rd.from_items([{"k": i, "ts": 1, "v": str(i)}
                               for i in range(40)], override_num_blocks=4)
        for _ in range(2):
            upsert_parquet(batch, out_dir, ["k"], "ts", num_buckets=4)
        assert os.listdir(tmp_path) == ["tbl"]
        dirs = sorted(os.listdir(out_dir))
        assert dirs == ["_manifest.json"] + [f"bucket={b}" for b in range(4)]
        total = 0
        for b, d in enumerate(dirs[1:]):
            assert os.listdir(os.path.join(out_dir, d)) == ["part-0.parquet"]
            keys = pq.read_table(os.path.join(out_dir, d, "part-0.parquet"),
                                 partitioning=None).column("k").to_pylist()
            assert keys == sorted(keys)
            assert (bucket_of(np.array(keys), 4) == b).all()
            total += len(keys)
        assert total == 40

    def test_upsert_parquet_pins_bucket_count(self, tmp_path, monkeypatch):
        """The table's manifest fixes B: a later merge under a different
        default B must not put one key into two buckets, and an explicit
        conflicting B is refused."""
        out_dir = str(tmp_path / "tbl")
        upsert_parquet(rd.from_items([{"k": i, "ts": 1, "v": "a"}
                                      for i in range(40)]),
                       out_dir, ["k"], "ts", num_buckets=4)
        monkeypatch.setenv("GRAFT_NUM_BUCKETS", "8")
        upsert_parquet(rd.from_items([{"k": i, "ts": 2, "v": "b"}
                                      for i in range(20, 60)]),
                       out_dir, ["k"], "ts")
        dirs = sorted(d for d in os.listdir(out_dir)
                      if d.startswith("bucket="))
        assert dirs == [f"bucket={b}" for b in range(4)]
        keys = []
        for d in dirs:
            got = pq.read_table(os.path.join(out_dir, d, "part-0.parquet"))
            k = np.array(got.column("k").to_pylist())
            assert (bucket_of(k, 4) == int(d.split("=")[1])).all()
            keys += k.tolist()
        assert sorted(keys) == list(range(60))
        with pytest.raises(ValueError, match="4 buckets"):
            upsert_parquet(rd.from_items([{"k": 1, "ts": 3, "v": "c"}]),
                           out_dir, ["k"], "ts", num_buckets=8)

    def test_upsert_parquet_keeps_rows_of_table_without_manifest(
            self, tmp_path):
        """A bucketed table with no manifest (written before tables had
        one): its rows are merged in, under a new B, not dropped."""
        out_dir = str(tmp_path / "tbl")
        upsert_parquet(rd.from_items([{"k": i, "ts": 1, "v": "a"}
                                      for i in range(10)]),
                       out_dir, ["k"], "ts", num_buckets=3)
        os.remove(os.path.join(out_dir, "_manifest.json"))
        upsert_parquet(rd.from_items([{"k": 0, "ts": 2, "v": "b"}]),
                       out_dir, ["k"], "ts", num_buckets=5)
        got = rd.read_parquet(out_dir).to_pandas().sort_values("k")
        assert list(got["v"]) == ["b"] + ["a"] * 9
        assert sum(d.startswith("bucket=") for d in os.listdir(out_dir)) <= 5

    def test_upsert_parquet_refeeds_table_placed_by_another_hash(
            self, tmp_path):
        """An int-keyed table whose manifest names no placement (placed by
        the one-multiply mixer bucket_of used before fmix64) is re-fed,
        not merged bucket by bucket: every key ends in one row."""
        out_dir = tmp_path / "tbl"
        keys = np.arange(0, 480, 8, dtype=np.int64)
        h = keys.astype(np.uint64)
        old = ((h ^ (h >> np.uint64(33))) * np.uint64(0xFF51AFD7ED558CCD)
               % np.uint64(4)).astype(np.int64)
        for b in np.unique(old):
            d = out_dir / f"bucket={b}"
            d.mkdir(parents=True)
            rows = pd.DataFrame({"k": keys[old == b], "ts": np.int64(1),
                                 "v": "old"})
            pq.write_table(pa.Table.from_pandas(rows, preserve_index=False),
                           d / "part-0.parquet")
        (out_dir / "_manifest.json").write_text(json.dumps({"num_buckets": 4}))
        new = pd.DataFrame({"k": keys[::2], "ts": np.int64(2), "v": "new"})
        upsert_parquet(rd.from_pandas(new), str(out_dir), ["k"], "ts")
        got = (rd.read_parquet(str(out_dir)).to_pandas()
               .sort_values("k").reset_index(drop=True))
        assert got["k"].tolist() == keys.tolist()
        assert got["v"].tolist() == ["new", "old"] * (len(keys) // 2)

    def test_upsert_parquet_tie_goes_to_incoming_row(self, tmp_path):
        """Equal timestamps: the incoming row overwrites the stored one
        (the reference's overwrite-on-replay); untouched buckets keep
        their file."""
        out_dir = str(tmp_path / "tbl")
        upsert_parquet(rd.from_items([{"k": i, "ts": 5, "v": "old"}
                                      for i in range(16)]),
                       out_dir, ["k"], "ts", num_buckets=4)
        b1 = int(bucket_of(np.array([1]), 4)[0])
        kept = {b: os.stat(os.path.join(out_dir, f"bucket={b}",
                                        "part-0.parquet")).st_ino
                for b in range(4) if b != b1}
        upsert_parquet(rd.from_items([{"k": 1, "ts": 5, "v": "new"}]),
                       out_dir, ["k"], "ts")
        got = rd.read_parquet(out_dir).to_pandas()
        assert len(got) == 16
        assert got.loc[got["k"] == 1, "v"].tolist() == ["new"]
        assert (got.loc[got["k"] != 1, "v"] == "old").all()
        assert kept == {b: os.stat(os.path.join(out_dir, f"bucket={b}",
                                                "part-0.parquet")).st_ino
                        for b in kept}

    def test_upsert_parquet_files_carry_no_pandas_metadata(self, tmp_path):
        out_dir = str(tmp_path / "tbl")
        upsert_parquet(rd.from_items([{"k": i, "ts": 1, "v": str(i)}
                                      for i in range(8)]),
                       out_dir, ["k"], "ts", num_buckets=2)
        for b in range(2):
            assert pq.read_schema(os.path.join(
                out_dir, f"bucket={b}", "part-0.parquet")).metadata is None


def test_audio_features_known_signals(sf_dir):
    """DSP invariants on known synthetic tones: a doc's two-tone mix has
    spectral centroid between its two component frequencies (weighted
    toward the stronger 0.6-amplitude tone) and zcr ~ dominant freq."""
    import numpy as np
    from vbpl_web_crawl_ray.pipelines.payloads import q_audio_features
    from vbpl_web_crawl_ray.stages.multimodal import (decode_audio,
                                                      encode_audio)
    out = q_audio_features(sf_dir).to_pandas()
    assert len(out) > 0
    assert {"audio_id", "rms", "zcr", "spectral_centroid"} <= set(out.columns)
    # two-tone mix of amplitudes 0.6/0.3: rms = sqrt(.18+.045) ~ 0.474
    # (up to int16 quantization)
    assert np.allclose(out["rms"], 0.4743, atol=0.01)
    # pure-tone roundtrip sanity: encode/decode is lossless to ~1e-4
    x = np.sin(2 * np.pi * 440 * np.arange(16000) / 16000)
    y, rate = decode_audio(encode_audio(x, 16000))
    assert rate == 16000 and np.abs(y - x).max() < 1e-3


def test_audio_features_deterministic(sf_dir):
    from vbpl_web_crawl_ray.pipelines.payloads import q_audio_features
    a = q_audio_features(sf_dir).to_pandas().sort_values("audio_id")
    b = q_audio_features(sf_dir).to_pandas().sort_values("audio_id")
    assert a.reset_index(drop=True).equals(b.reset_index(drop=True))


def test_dhash_near_dup_planted_twins(ray_session):
    """The dhash gradient hash recovers the planted jpeg-requantized
    twins through the banded hash_near_dup_pairs machinery, and the
    banded result EQUALS brute-force Hamming on the dhash column."""
    from vbpl_web_crawl_ray.pipelines.payloads import q_dhash_near_dup
    from vbpl_web_crawl_ray.sources.imaging import dhash64

    pairs = q_dhash_near_dup("/root/testdata/sf0.001")
    got = set(map(tuple, pairs[["id_a", "id_b"]].to_numpy()))
    # every planted twin (doc_id % 10 == 0) must pair with its original
    import duckdb
    n_docs = duckdb.sql("SELECT COUNT(*) FROM "
                        "'/root/testdata/sf0.001/documents.parquet'"
                        ).fetchone()[0]
    for did in range(0, n_docs, 10):
        a, b = f"dup{did:08d}", f"img{did:08d}"
        assert (a, b) in got or (b, a) in got, f"missing twin for {did}"

    # dhash invariance sanity: jpeg requant flips few gradient signs
    px = gen_pixels("imgx", 64, 64)
    px2 = decode_image(encode_image(px, "jpeg"))
    x = np.uint64(dhash64(px)) ^ np.uint64(dhash64(px2))
    assert bin(int(x)).count("1") <= 2


def test_hll_join_cardinality_error_bound(ray_session):
    """Deterministic HLL estimates land within 5% of exact distinct
    counts (p=12 -> ~1.6% std error), run-to-run stable."""
    import duckdb

    from vbpl_web_crawl_ray.pipelines.scaleops import q_hll_join_cardinality

    sf = "/root/testdata/sf0.01"
    est = q_hll_join_cardinality(sf)
    con = duckdb.connect()
    exact_a = con.execute(f"SELECT COUNT(DISTINCT o_custkey) FROM '{sf}/orders.parquet'").fetchone()[0]
    exact_b = con.execute(f"SELECT COUNT(DISTINCT c_custkey) FROM '{sf}/customer.parquet'").fetchone()[0]
    exact_u = con.execute(f"""SELECT COUNT(*) FROM (
        SELECT o_custkey AS k FROM '{sf}/orders.parquet'
        UNION SELECT c_custkey FROM '{sf}/customer.parquet')""").fetchone()[0]
    for got, want in [(est["est_order_custkeys"][0], exact_a),
                      (est["est_customers"][0], exact_b),
                      (est["est_union"][0], exact_u)]:
        assert abs(got - want) / want < 0.05, (got, want)
    assert est.equals(q_hll_join_cardinality(sf))   # deterministic


def test_count_min_overestimate_bound_and_merge(ray_session):
    """CM estimates are never below the true count, stay within the
    eps*N bound for width=2048, and the distributed build is
    deterministic run to run."""
    import duckdb

    import __ray_entry__ as em

    sf = "/root/testdata/sf0.01"
    est = em.queries()["cm_frequency_probe"](sf)
    exact = duckdb.sql(
        f"SELECT event_type, COUNT(*) n FROM '{sf}/events.parquet' "
        "GROUP BY 1").df().set_index("event_type")["n"]
    n_total = int(exact.sum())
    for _, r in est.iterrows():
        true = int(exact[r["value"]])
        assert r["est_count"] >= true
        assert r["est_count"] <= true + (2 / 2048) * n_total * 4
    assert est.equals(em.queries()["cm_frequency_probe"](sf))


def test_centroid_assignment_matches_brute_force(ray_session):
    """The matmul E-step assignment equals an independent brute-force
    distance loop, and is deterministic run to run."""
    import duckdb

    from vbpl_web_crawl_ray.pipelines.analytics2 import (
        q_centroid_assignment,
        q_label_centroids,
    )

    sf = "/root/testdata/sf0.001"
    got = q_centroid_assignment(sf)
    cent = q_label_centroids(sf)
    k = cent["label"].nunique()
    C = (cent.sort_values(["label", "dim"])["mean_v"]
         .to_numpy(np.float64).reshape(k, -1))
    labels_sorted = np.sort(cent["label"].unique())
    emb = duckdb.sql(
        f"SELECT label, embedding FROM '{sf}/embeddings.parquet'").df()
    X = np.stack(emb["embedding"].to_numpy()).astype(np.float64)
    want = {}
    for xi, lab in zip(X, emb["label"].to_numpy()):
        d = ((C - xi) ** 2).sum(axis=1)
        a = labels_sorted[int(np.argmin(d))]
        want[(int(lab), int(a))] = want.get((int(lab), int(a)), 0) + 1
    got_map = {(int(r.label), int(r.assigned)): int(r.n)
               for r in got.itertuples()}
    assert got_map == want
    assert got.equals(q_centroid_assignment(sf))
