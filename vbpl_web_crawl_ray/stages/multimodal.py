"""Multimodal (image) stages over the payload table.

Images are opaque ``binary`` columns with typed metadata (input_hint
schema). Decode / resize / feature-extract run as actor-pool map_batches
stages — codec/setup state in __init__, per-batch work in __call__. Batches
stay SMALL (default 32) because each row carries a multi-KB..MB blob; the
object store, not worker heaps, holds the bulk data.

The decode step uses the repo's deterministic fake codecs
(sources/imaging.py — real Pillow/libjpeg are not in this container);
audio/video fmts raise the clearly-marked NotImplementedError. The Ray
plumbing (schemas, actor signatures, batch sizing, output layout) is real
and tested.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray.data as rd

from ..sources.imaging import decode_image, encode_image, phash64

MULTIMODAL_BATCH = 32  # small: rows carry binary blobs


class DecodeImages:
    """bytes -> decoded pixel arrays (kept as raw bytes + dims so Arrow
    holds them zero-copy; callers reshape via numpy view)."""

    def __init__(self):
        self.decode = decode_image  # real impl: per-fmt codec handles

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        pixels, ws, hs = [], [], []
        for data, fmt in zip(df["bytes"], df["fmt"]):
            if fmt not in ("png", "jpeg"):
                raise NotImplementedError(
                    f"decode for fmt={fmt!r} is stubbed in this container")
            px = self.decode(data)
            pixels.append(px.tobytes())
            hs.append(px.shape[0])
            ws.append(px.shape[1])
        return pd.DataFrame({"image_id": df["image_id"].to_numpy(),
                             "pixels": pixels,
                             "w": np.array(ws, np.int32),
                             "h": np.array(hs, np.int32)})


class ResizeImages:
    """Block-mean resize to target (tw, th) — the thumbnailing stage."""

    def __init__(self, tw: int = 64, th: int = 64, fmt: str = "png"):
        self.tw, self.th, self.fmt = tw, th, fmt

    def _resize(self, px: np.ndarray) -> np.ndarray:
        h, w = px.shape
        if self.th <= h and self.tw <= w:      # vectorized exact path
            from ..sources.imaging import block_means
            return block_means(px, self.th, self.tw).astype(np.uint8)
        # upscale: some blocks are empty slices — keep the loop semantics
        ys = np.linspace(0, h, self.th + 1).astype(int)
        xs = np.linspace(0, w, self.tw + 1).astype(int)
        out = np.empty((self.th, self.tw), dtype=np.uint8)
        for i in range(self.th):
            rows = px[ys[i]:ys[i + 1]]
            for j in range(self.tw):
                out[i, j] = rows[:, xs[j]:xs[j + 1]].mean()
        return out

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        out = []
        for data in df["bytes"]:
            out.append(encode_image(self._resize(decode_image(data)), self.fmt))
        res = df[["image_id", "caption"]].copy()
        res["bytes"] = out
        res["w"] = np.int32(self.tw)
        res["h"] = np.int32(self.th)
        res["fmt"] = self.fmt
        return res


class ImageFeatures:
    """Per-image numeric features: mean/std/edge-energy + phash — the
    feature-extraction stage feeding dedup and quality filters."""

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        means, stds, edges, phashes = [], [], [], []
        for data in df["bytes"]:
            px = decode_image(data).astype(np.float32)
            means.append(float(px.mean()))
            stds.append(float(px.std()))
            edges.append(float(np.abs(np.diff(px, axis=1)).mean()))
            phashes.append(int(np.uint64(phash64(px.astype(np.uint8)))
                               .astype(np.int64)))
        return pd.DataFrame({"image_id": df["image_id"].to_numpy(),
                             "px_mean": np.round(means, 4),
                             "px_std": np.round(stds, 4),
                             "edge_energy": np.round(edges, 4),
                             "phash": np.array(phashes, np.int64)})


def image_features(ds: rd.Dataset, concurrency=(1, 8)) -> rd.Dataset:
    return ds.map_batches(ImageFeatures, batch_format="pandas",
                          batch_size=MULTIMODAL_BATCH, concurrency=concurrency)


def resize_images(ds: rd.Dataset, tw: int = 64, th: int = 64,
                  concurrency=(1, 8)) -> rd.Dataset:
    return ds.map_batches(ResizeImages, batch_format="pandas",
                          batch_size=MULTIMODAL_BATCH, concurrency=concurrency,
                          fn_constructor_kwargs={"tw": tw, "th": th})


VIDEO_MAGIC = b"FVID"


def encode_video(frames: list[np.ndarray], fmt: str = "png") -> bytes:
    """FAKE video container (real codecs absent): magic + frame count +
    length-prefixed encoded frames. The plumbing (binary column in, frame
    sampling, per-frame decode) is real."""
    from ..sources.imaging import encode_image
    parts = [VIDEO_MAGIC, np.uint32(len(frames)).tobytes()]
    for f in frames:
        enc = encode_image(f, fmt)
        parts.append(np.uint32(len(enc)).tobytes())
        parts.append(enc)
    return b"".join(parts)


def iter_video_frames(data: bytes):
    if data[:4] != VIDEO_MAGIC:
        raise NotImplementedError("real video demuxers are stubbed here")
    n = int(np.frombuffer(data[4:8], np.uint32)[0])
    off = 8
    for _ in range(n):
        ln = int(np.frombuffer(data[off:off + 4], np.uint32)[0])
        off += 4
        yield data[off:off + ln]
        off += ln


class FrameSampler:
    """Actor stage: video binary column -> every k-th frame as payload-style
    image rows (one input row -> ceil(n/k) output rows). Small batches:
    rows carry whole clips."""

    def __init__(self, every_k: int = 2):
        self.every_k = every_k

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for vid_id, blob in zip(df["video_id"], df["bytes"]):
            for i, frame in enumerate(iter_video_frames(blob)):
                if i % self.every_k:
                    continue
                px = decode_image(frame)
                rows.append({"video_id": vid_id, "frame_index": i,
                             "bytes": frame,
                             "w": px.shape[1], "h": px.shape[0],
                             "phash": int(np.uint64(phash64(px))
                                          .astype(np.int64))})
        return pd.DataFrame(rows, columns=["video_id", "frame_index", "bytes",
                                           "w", "h", "phash"])


def sample_frames(ds: rd.Dataset, every_k: int = 2,
                  concurrency=(1, 4)) -> rd.Dataset:
    return ds.map_batches(FrameSampler, batch_format="pandas",
                          batch_size=8, concurrency=concurrency,
                          fn_constructor_kwargs={"every_k": every_k})


AUDIO_MAGIC = b"FPCM"


def encode_audio(samples: np.ndarray, sample_rate: int = 16000) -> bytes:
    """FAKE audio container (real codecs absent): magic + rate + int16
    PCM. The plumbing (binary column in, per-row decode, vectorized DSP
    features) is real; a real decoder slots in behind decode_audio the
    same way the imaging/pdf codec seams do."""
    import zlib
    pcm = np.clip(samples, -1.0, 1.0)
    q = (pcm * 32767).astype(np.int16)
    return (AUDIO_MAGIC + np.uint32(sample_rate).tobytes()
            + zlib.compress(q.tobytes(), 1))


def decode_audio(data: bytes) -> tuple[np.ndarray, int]:
    """-> (float64 samples in [-1, 1], sample_rate)."""
    import zlib
    if data[:4] != AUDIO_MAGIC:
        raise NotImplementedError(
            "real audio codecs are stubbed in this container")
    rate = int(np.frombuffer(data[4:8], np.uint32)[0])
    q = np.frombuffer(zlib.decompress(data[8:]), np.int16)
    return q.astype(np.float64) / 32767.0, rate


class AudioFeatures:
    """Actor stage: audio binary column -> per-clip DSP features (the
    audio member of the feature-extraction family). Decode is the fake
    PCM container; the features are real vectorized DSP: RMS level,
    zero-crossing rate, and spectral centroid via one rFFT per clip."""

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for aid, blob in zip(df["audio_id"], df["bytes"]):
            x, rate = decode_audio(blob)
            rms = float(np.sqrt(np.mean(x * x))) if len(x) else 0.0
            zcr = float(np.mean(np.signbit(x[1:]) != np.signbit(x[:-1]))) \
                if len(x) > 1 else 0.0
            if len(x):
                spec = np.abs(np.fft.rfft(x))
                freqs = np.fft.rfftfreq(len(x), d=1.0 / rate)
                power = spec.sum()
                centroid = float((freqs * spec).sum() / power) if power else 0.0
            else:
                centroid = 0.0
            rows.append({"audio_id": aid, "sample_rate": np.int32(rate),
                         "n_samples": np.int64(len(x)),
                         "rms": round(rms, 6), "zcr": round(zcr, 6),
                         "spectral_centroid": round(centroid, 4)})
        return pd.DataFrame(rows, columns=["audio_id", "sample_rate",
                                           "n_samples", "rms", "zcr",
                                           "spectral_centroid"])


def audio_features(ds: rd.Dataset, concurrency=(1, 4)) -> rd.Dataset:
    return ds.map_batches(AudioFeatures, batch_format="pandas",
                          batch_size=16, concurrency=concurrency)


def hash_near_dup_pairs(ds: rd.Dataset, hash_col: str = "phash",
                        id_col: str = "image_id", max_hamming: int = 2,
                        num_chunks: int | None = None) -> pd.DataFrame:
    """Near-duplicate pairs by 64-bit-hash Hamming distance over ANY
    perceptual hash column (phash, dhash, simhash alike): band the hash
    into (max_hamming+1) chunks (pigeonhole: pairs within distance d
    agree on >=1 chunk), bucket-join, verify popcount."""
    k = num_chunks or (max_hamming + 1)
    chunk_bits = 64 // k

    def to_chunks(df: pd.DataFrame) -> pd.DataFrame:
        ph = df[hash_col].to_numpy().astype(np.int64).view(np.uint64)
        rows = {"chunk": [], "chunk_val": [], "image_id": [], "phash": []}
        for c in range(k):
            rows["chunk"].append(np.full(len(df), c, np.int32))
            rows["chunk_val"].append(
                ((ph >> np.uint64(c * chunk_bits))
                 & np.uint64((1 << chunk_bits) - 1)).astype(np.int64))
            rows["image_id"].append(df[id_col].to_numpy())
            rows["phash"].append(ph.astype(np.int64))
        return pd.DataFrame({kk: np.concatenate(v) for kk, v in rows.items()})

    def verify(g: pd.DataFrame) -> pd.DataFrame:
        out_a, out_b, out_h = [], [], []
        for _, sub in g.groupby(["chunk", "chunk_val"]):
            sub = sub.drop_duplicates("image_id").sort_values("image_id")
            if len(sub) < 2:
                continue
            ids = sub["image_id"].to_numpy()
            hs = sub["phash"].to_numpy().astype(np.int64).view(np.uint64)
            a, b = np.triu_indices(len(ids), k=1)
            x = hs[a] ^ hs[b]
            ham = np.zeros(len(x), dtype=np.int64)
            for _ in range(64):
                ham += (x & np.uint64(1)).astype(np.int64)
                x >>= np.uint64(1)
            keep = ham <= max_hamming
            out_a.append(ids[a][keep])
            out_b.append(ids[b][keep])
            out_h.append(ham[keep])
        if not out_a:
            return pd.DataFrame({"id_a": [], "id_b": [], "hamming": []})
        return pd.DataFrame({"id_a": np.concatenate(out_a),
                             "id_b": np.concatenate(out_b),
                             "hamming": np.concatenate(out_h)})

    from .shuffle import bucketed_group_apply
    chunked = ds.select_columns([id_col, hash_col]) \
                .map_batches(to_chunks, batch_format="pandas")
    return (bucketed_group_apply(chunked, "chunk_val", verify)
            .to_pandas().drop_duplicates(["id_a", "id_b"])
            .reset_index(drop=True))


def phash_near_dup_pairs(ds: rd.Dataset, max_hamming: int = 2,
                         num_chunks: int | None = None) -> pd.DataFrame:
    """Near-duplicate image pairs by phash Hamming distance — the payload
    table's analogue of the reference's PK-identity dedup (SURVEY.md §2.7)."""
    return hash_near_dup_pairs(ds, "phash", "image_id",
                               max_hamming, num_chunks)


class ImageQuality:
    """Per-image quality signals for curation gating: Laplacian-variance
    blur score (low = blurry), RMS contrast, and 256-bin Shannon entropy
    (low = flat/synthetic fill) — the image-side analogue of the text
    quality filters. Thresholds are constructor state (once per actor);
    per-image DSP is pure numpy over the decoded grayscale plane."""

    def __init__(self, min_blur: float = 10.0, min_contrast: float = 5.0,
                 min_entropy: float = 2.0):
        self.min_blur = min_blur
        self.min_contrast = min_contrast
        self.min_entropy = min_entropy

    @staticmethod
    def _signals(px: np.ndarray) -> tuple[float, float, float]:
        f = px.astype(np.float64)
        # 4-neighbour Laplacian via shifted-slice sums (no scipy): interior
        # response only, variance over it is the classic blur metric
        lap = (f[1:-1, 2:] + f[1:-1, :-2] + f[2:, 1:-1] + f[:-2, 1:-1]
               - 4.0 * f[1:-1, 1:-1])
        blur = float(lap.var()) if lap.size else 0.0
        contrast = float(f.std())
        hist = np.bincount(px.reshape(-1), minlength=256)
        p = hist[hist > 0] / px.size
        entropy = float(-(p * np.log2(p)).sum())
        return blur, contrast, entropy

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        blurs, contrasts, entropies = [], [], []
        for data in df["bytes"]:
            b, c, e = self._signals(decode_image(data))
            blurs.append(b); contrasts.append(c); entropies.append(e)
        blurs = np.round(blurs, 4)
        contrasts = np.round(contrasts, 4)
        entropies = np.round(entropies, 4)
        passed = ((blurs >= self.min_blur) & (contrasts >= self.min_contrast)
                  & (entropies >= self.min_entropy))
        return pd.DataFrame({"image_id": df["image_id"].to_numpy(),
                             "blur_score": blurs,
                             "contrast": contrasts,
                             "entropy": entropies,
                             "passed": passed.astype(np.int64)})


def image_quality(ds: rd.Dataset, concurrency=(1, 8), **thresholds) -> rd.Dataset:
    return ds.map_batches(ImageQuality, batch_format="pandas",
                          batch_size=MULTIMODAL_BATCH, concurrency=concurrency,
                          fn_constructor_kwargs=thresholds)


class ImagePatches:
    """Patchify each image into a non-overlapping PxP grid — the ViT-style
    training-data patchification stage. Per image the grid resolves in ONE
    reshape: crop to patch multiples, view as (gy, P, gx, P), reduce over
    the two intra-patch axes; no per-patch loop. Emits one row per patch
    (grid coords + mean/std), so downstream curation can gate or sample
    patches exactly like documents."""

    def __init__(self, patch: int = 16):
        self.p = patch

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        p = self.p
        ids, pys, pxs, means, stds = [], [], [], [], []
        for iid, data in zip(df["image_id"], df["bytes"]):
            px = decode_image(data).astype(np.float64)
            gy, gx = px.shape[0] // p, px.shape[1] // p
            if gy == 0 or gx == 0:
                continue                      # smaller than one patch
            grid = px[:gy * p, :gx * p].reshape(gy, p, gx, p)
            m = grid.mean(axis=(1, 3))
            s = grid.std(axis=(1, 3))
            ids.append(np.repeat(iid, gy * gx))
            pys.append(np.repeat(np.arange(gy, dtype=np.int32), gx))
            pxs.append(np.tile(np.arange(gx, dtype=np.int32), gy))
            means.append(m.ravel())
            stds.append(s.ravel())
        if not ids:
            return pd.DataFrame({"image_id": pd.Series([], dtype=str),
                                 "py": pd.Series([], dtype=np.int32),
                                 "px": pd.Series([], dtype=np.int32),
                                 "patch_mean": pd.Series([], dtype=np.float64),
                                 "patch_std": pd.Series([], dtype=np.float64)})
        return pd.DataFrame({
            "image_id": np.concatenate(ids),
            "py": np.concatenate(pys),
            "px": np.concatenate(pxs),
            "patch_mean": np.round(np.concatenate(means), 4),
            "patch_std": np.round(np.concatenate(stds), 4)})


def image_patches(ds: rd.Dataset, patch: int = 16,
                  concurrency=(1, 8)) -> rd.Dataset:
    return ds.map_batches(ImagePatches, batch_format="pandas",
                          batch_size=MULTIMODAL_BATCH, concurrency=concurrency,
                          fn_constructor_kwargs={"patch": patch})


class DominantLevels:
    """Top-3 dominant intensity levels per image after 16-level
    quantization (the grayscale analogue of a dominant-color palette):
    one bincount over the quantized pixels, ties broken toward the lower
    level so the result is deterministic."""

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for iid, data in zip(df["image_id"], df["bytes"]):
            px = decode_image(data)
            cnt = np.bincount((px.ravel() >> 4), minlength=16)
            # stable argsort on (-count, level): lower level wins ties
            order = np.lexsort((np.arange(16), -cnt))[:3]
            share = cnt[order] / px.size
            rows.append((iid,
                         int(order[0]), round(float(share[0]), 4),
                         int(order[1]), round(float(share[1]), 4),
                         int(order[2]), round(float(share[2]), 4)))
        return pd.DataFrame(rows, columns=[
            "image_id", "lvl_1", "share_1", "lvl_2", "share_2",
            "lvl_3", "share_3"])


def dominant_levels(ds: rd.Dataset, concurrency=(1, 8)) -> rd.Dataset:
    return ds.map_batches(DominantLevels, batch_format="pandas",
                          batch_size=MULTIMODAL_BATCH,
                          concurrency=concurrency)
