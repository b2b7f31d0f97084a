"""Deterministic image payload codecs + perceptual hash.

The payload table (BASELINE.json input_hint) carries encoded image bytes
with ``fmt`` in {png, jpeg}. Real image libraries are not in this
container, so these are CLEARLY-MARKED DETERMINISTIC FAKE CODECS with the
properties the engine actually needs:

- "png"  = magic + dims + zlib(raw pixels)            -> lossless roundtrip
- "jpeg" = magic + dims + zlib(quantized pixels)      -> lossy, PSNR ~46 dB
  (quantization step 4 bounds per-pixel error to 2, comfortably above the
  40 dB per-row invariant)

The Ray-side plumbing — binary columns, batch decode inside map_batches,
PSNR validation, perceptual hashing — is real and tested. ``decode_image``
magic-dispatches: the sim containers always decode hermetically, and real
PNG/JPEG bytes route to Pillow when it is importable (tried once at
module load), so the same pipelines run unmodified in a container that
has the real library.
"""

from __future__ import annotations

import zlib

import numpy as np

try:  # optional: real decoders when Pillow exists in the environment
    from PIL import Image as _PILImage  # type: ignore
except ImportError:  # hermetic container path
    _PILImage = None

HAVE_PIL = _PILImage is not None

MAGIC_PNG = b"FPNG"
MAGIC_JPG = b"FJPG"
REAL_PNG_MAGIC = b"\x89PNG\r\n\x1a\n"
REAL_JPG_MAGIC = b"\xff\xd8\xff"
_JPEG_Q = 4  # quantization step; max abs error = Q/2 = 2 -> PSNR ~46 dB


def gen_pixels(image_id: str, w: int, h: int, seed: int = 42) -> np.ndarray:
    """Deterministic grayscale pixels for an image_id (uint8, shape (h, w))."""
    from ..functions.hashing import hash64_one
    rng = np.random.default_rng((hash64_one(image_id) ^ seed) & 0x7FFFFFFFFFFFFFFF)
    # smooth low-freq base + per-pixel noise; the sin*cos field is separable,
    # so build it as an outer product of 1-D waves (float32) instead of a
    # full mgrid — ~10x less memory traffic, same picture
    px = rng.uniform(0, 6.28)
    py = rng.uniform(0, 6.28)
    wave_x = np.sin(np.arange(w, dtype=np.float32) / max(4, w / 4) + px)
    wave_y = np.cos(np.arange(h, dtype=np.float32) / max(4, h / 4) + py)
    base = 128 + 80 * np.outer(wave_y, wave_x)
    noise = rng.integers(-20, 20, size=(h, w), dtype=np.int16)
    return np.clip(base + noise, 0, 255).astype(np.uint8)


def encode_image(pixels: np.ndarray, fmt: str) -> bytes:
    """FAKE codec (see module docstring). Deterministic, zlib-backed."""
    h, w = pixels.shape
    header = np.array([w, h], dtype=np.uint32).tobytes()
    if fmt == "png":
        return MAGIC_PNG + header + zlib.compress(pixels.tobytes(), 6)
    if fmt == "jpeg":
        q = (pixels.astype(np.int32) // _JPEG_Q) * _JPEG_Q + _JPEG_Q // 2
        q = np.clip(q, 0, 255).astype(np.uint8)
        return MAGIC_JPG + header + zlib.compress(q.tobytes(), 6)
    raise NotImplementedError(f"fmt {fmt!r}: real codecs are stubbed in this container")


def decode_image(data: bytes) -> np.ndarray:
    """Magic-dispatched decode, returns grayscale uint8 (h, w). The sim
    containers always decode hermetically; real PNG/JPEG bytes route to
    Pillow when it is importable (luminance-converted), else an honest
    NotImplementedError — the plumbing above this seam is identical."""
    magic, header, payload = data[:4], data[4:12], data[12:]
    if magic in (MAGIC_PNG, MAGIC_JPG):
        w, h = np.frombuffer(header, dtype=np.uint32)
        return np.frombuffer(zlib.decompress(payload), dtype=np.uint8).reshape(h, w)
    if data.startswith(REAL_PNG_MAGIC) or data.startswith(REAL_JPG_MAGIC):
        if _PILImage is not None:
            import io
            with _PILImage.open(io.BytesIO(data)) as im:
                return np.asarray(im.convert("L"), dtype=np.uint8)
        raise NotImplementedError(
            "real PNG/JPEG decoding needs Pillow, absent from this container")
    raise NotImplementedError("unknown image magic; real codecs are stubbed")


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    mse = np.mean((a.astype(np.float64) - b.astype(np.float64)) ** 2)
    if mse == 0:
        return float("inf")
    return float(20 * np.log10(255.0) - 10 * np.log10(mse))


def block_means(pixels: np.ndarray, gh: int, gw: int) -> np.ndarray:
    """Exact block-mean downsample to (gh, gw) via two reduceat passes —
    identical to the per-cell ``.mean()`` loop (uint8 sums are integers,
    exact in float64) at a fraction of the Python overhead."""
    h, w = pixels.shape
    ys = np.linspace(0, h, gh + 1).astype(int)
    xs = np.linspace(0, w, gw + 1).astype(int)
    s = np.add.reduceat(
        np.add.reduceat(pixels.astype(np.float64), ys[:-1], axis=0),
        xs[:-1], axis=1)
    counts = np.outer(np.diff(ys), np.diff(xs)).astype(np.float64)
    return s / counts


def phash64(pixels: np.ndarray, grid: int = 8) -> int:
    """Average-hash: block-mean downsample to grid x grid, threshold at the
    mean -> 64-bit int. Robust to the jpeg quantization above (near-dup rows
    share phash within small Hamming distance)."""
    blocks = block_means(pixels, grid, grid)
    bits = (blocks > blocks.mean()).ravel()
    return int(np.packbits(bits).view(">u8")[0])


def dhash64(pixels: np.ndarray, grid: int = 8) -> int:
    """Difference-hash: block-mean downsample to grid x (grid+1), take the
    SIGN of each horizontal gradient -> 64-bit int. Complements phash
    (which thresholds at the global mean): dhash keys on local structure,
    so flat-brightness shifts that flip phash bits leave dhash alone."""
    blocks = block_means(pixels, grid, grid + 1)
    bits = (blocks[:, 1:] > blocks[:, :-1]).ravel()
    return int(np.packbits(bits).view(">u8")[0])
