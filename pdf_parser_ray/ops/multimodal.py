"""Multimodal column plumbing: opaque binary/media columns with typed
metadata, decoded by an actor-pool stage.

The decode kernel is REAL for every supported image format, all without
an external codec library — binary PPM/PGM (P6/P5) and uncompressed BMP
via struct/numpy, baseline PNG via the pure-stdlib zlib+unfilter codec
in ``functions/png.py``, and baseline-sequential JPEG via the
pure-stdlib Huffman+IDCT codec in ``functions/jpeg.py`` (dimensions +
an intensity-histogram feature). Malformed or out-of-baseline payloads
(progressive JPEG, 16-bit PNG, ...) degrade to a ``decode_ok=False``
row rather than failing the task. ``fake=True`` keeps the deterministic
ref-hash stub for plumbing tests. Swapping in PIL/ffmpeg is a
one-method change inside the actor.

Memory shape: media payloads are large binary cells, so the stage runs with
a small ``batch_size`` and Arrow batches end-to-end (binary columns do not
survive pandas round-trips intact — see ray_guide.md pitfalls).
"""

from __future__ import annotations

import hashlib
import zlib
from struct import error as struct_error

import numpy as np
import pyarrow as pa
import ray.data

MEDIA_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("media_ref", pa.string()),
        ("media_type", pa.string()),
        ("payload", pa.binary()),
    ]
)

MEDIA_FEATURES_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("media_ref", pa.string()),
        ("media_type", pa.string()),
        ("width", pa.int32()),
        ("height", pa.int32()),
        ("n_bytes", pa.int64()),
        ("feature", pa.list_(pa.float32())),
        ("decode_ok", pa.bool_()),
    ]
)

AUDIO_FEATURES_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("media_ref", pa.string()),
        ("n_samples", pa.int64()),
        ("channels", pa.int32()),
        ("sample_rate", pa.int32()),
        ("duration_ms", pa.int64()),
        ("rms", pa.float64()),
        ("decode_ok", pa.bool_()),
    ]
)


def _ref_digest(media_ref: str) -> bytes:
    """md5 of the media ref (null as ""): the seed of every synthetic payload."""
    return hashlib.md5((media_ref or "").encode()).digest()


def _ref_image(media_ref: str) -> tuple[int, int, np.ndarray]:
    """(w, h, RGB pixels): 4..35 px per side from digest[0:2], the digest tiled."""
    digest = _ref_digest(media_ref)
    w = 4 + digest[0] % 32
    h = 4 + digest[1] % 32
    return w, h, np.resize(np.frombuffer(digest, dtype=np.uint8), 3 * w * h)


def synthesize_ppm(media_ref: str) -> bytes:
    """Deterministic binary-PPM payload seeded on the media ref: dimensions
    from the first two md5 digest bytes (4..35 px per side), pixels the
    digest tiled to 3*w*h. The closed form (header length + 3*w*h bytes,
    width = 4 + digest[0] % 32) is mirrored by the media_features SQL
    oracle, so the REAL decode path is hash-verified end-to-end."""
    w, h, pixels = _ref_image(media_ref)
    return f"P6\n{w} {h}\n255\n".encode() + pixels.tobytes()


def synthesize_png(media_ref: str) -> bytes:
    """Deterministic baseline-PNG payload seeded on the media ref: same
    dimension rule as :func:`synthesize_ppm` (4..35 px per side from the
    first two md5 digest bytes), RGB pixels = the digest tiled. Drives the
    REAL zlib+unfilter decode path; width/height/decode_ok stay
    closed-form for the SQL oracle (the compressed byte LENGTH is not —
    the media_features_png query therefore projects dims, not n_bytes)."""
    from pdf_parser_ray.functions.png import encode_png

    w, h, pixels = _ref_image(media_ref)
    return encode_png(w, h, pixels, color_type=2)


def synthesize_jpeg(media_ref: str) -> bytes:
    """Deterministic baseline-JPEG payload seeded on the media ref: same
    dimension rule as :func:`synthesize_ppm`, RGB pixels = the digest
    tiled, encoded 4:2:0 so the decoder's chroma-upsampling path runs on
    the real pipeline. width/height/decode_ok stay closed-form for the
    SQL oracle (entropy-coded byte length and lossy pixel values do
    not — the media_features_jpeg query therefore projects dims only,
    the media_features_png convention)."""
    from pdf_parser_ray.functions.jpeg import encode_jpeg

    w, h, pixels = _ref_image(media_ref)
    return encode_jpeg(w, h, pixels, quality=90, subsampling="420")


def synthesize_wav(media_ref: str) -> bytes:
    """Deterministic PCM16 WAV payload seeded on the media ref:
    n_samples = 500 + digest[0]*37 + digest[1], channels = 1 +
    digest[2] % 2, rate 8000 — all closed-form for the SQL oracle
    (duration_ms = n_samples * 1000 // 8000). Sample values are the
    digest tiled (int16 via a 256x spread), driving the REAL RIFF
    chunk-walk decode."""
    from pdf_parser_ray.functions.wav import encode_wav

    digest = _ref_digest(media_ref)
    n = 500 + digest[0] * 37 + digest[1]
    channels = 1 + digest[2] % 2
    vals = (
        np.resize(np.frombuffer(digest, dtype=np.uint8), n * channels).astype(
            np.int16
        )
        - 128
    ) * 256
    return encode_wav(vals, sample_rate=8000, channels=channels)


def _parse_pnm_header(payload: bytes) -> tuple[int, int, int, int]:
    """(width, height, maxval, pixel-data offset) from a P6/P5 header:
    magic, then whitespace-separated width/height/maxval with '#'
    comments skipped. Callers must check maxval — 65535 means 2-byte
    samples, which the 8-bit readers here reject rather than misread."""
    tokens: list[int] = []
    i = 2  # past magic
    n = len(payload)
    start = None
    while i <= n and len(tokens) < 3:
        ch = payload[i : i + 1]
        if ch == b"#" and start is None:
            while i < n and payload[i : i + 1] != b"\n":
                i += 1
        elif ch.isspace() or ch == b"":
            if start is not None:
                tokens.append(int(payload[start:i]))
                start = None
            if ch == b"":
                break
        elif ch.isdigit():
            if start is None:
                start = i
        else:
            raise ValueError("malformed PNM header")
        i += 1
    if len(tokens) < 3:
        raise ValueError("truncated PNM header")
    # `i` was already advanced past the single whitespace byte terminating
    # maxval by the loop's increment — it IS the pixel-data offset
    return tokens[0], tokens[1], tokens[2], i


class MediaDecoder:
    """Actor-pool decode/feature-extract stage over MEDIA_SCHEMA batches.

    ``__init__`` is where a real deployment loads codecs/models once per
    actor; here it checks codec availability once. The real path decodes
    PPM/PGM/BMP with struct/numpy; the feature is a ``feature_dim``-bin
    normalized intensity histogram over the pixel bytes.
    """

    def __init__(self, fake: bool = False, feature_dim: int = 8):
        # fake=False is the public default: real decode, degrade on failure
        self.fake = fake
        self.feature_dim = feature_dim

    def _histogram(self, pixels: np.ndarray) -> list[float]:
        if pixels.size == 0:
            return [0.0] * self.feature_dim
        hist = np.histogram(pixels, bins=self.feature_dim, range=(0, 256))[0]
        return (hist.astype(np.float32) / np.float32(pixels.size)).tolist()

    def _decode(self, media_ref: str, payload: bytes) -> dict:
        if self.fake:
            # deterministic fake: dimensions + feature vector from the ref hash
            digest = _ref_digest(media_ref)
            width = 64 + digest[0]
            height = 64 + digest[1]
            rng = np.frombuffer(digest[:8], dtype=np.uint8).astype(np.float32)
            feature = np.resize(rng / 255.0, self.feature_dim)
            return {
                "width": width,
                "height": height,
                "feature": feature.tolist(),
                "decode_ok": True,
            }
        magic = payload[:2]
        if magic in (b"P6", b"P5"):
            try:
                w, h, maxval, off = _parse_pnm_header(payload)
                if maxval != 255 or w <= 0 or h <= 0:
                    # 2-byte-sample (maxval 65535) or degenerate PNM: the
                    # 8-bit reader would produce garbage — degrade instead
                    raise ValueError("unsupported PNM maxval/dims")
                channels = 3 if magic == b"P6" else 1
                count = max(0, min(channels * w * h, len(payload) - off))
                pixels = np.frombuffer(payload, dtype=np.uint8, count=count, offset=off)
            except (ValueError, IndexError):
                # malformed/truncated header: degrade, don't crash the task
                return {
                    "width": 0,
                    "height": 0,
                    "feature": [0.0] * self.feature_dim,
                    "decode_ok": False,
                }
            return {
                "width": w,
                "height": h,
                "feature": self._histogram(pixels),
                "decode_ok": True,
            }
        if magic == b"BM" and len(payload) >= 30:
            import struct

            data_off = struct.unpack_from("<I", payload, 10)[0]
            dib_size = struct.unpack_from("<I", payload, 14)[0]
            if dib_size == 12:
                # BITMAPCOREHEADER: uint16 dims, never compressed
                w = struct.unpack_from("<H", payload, 18)[0]
                h = struct.unpack_from("<H", payload, 20)[0]
                compression = 0
            else:
                # BITMAPINFOHEADER and later: int32 dims (negative height =
                # top-down row order), compression dword at offset 30
                w = struct.unpack_from("<i", payload, 18)[0]
                h = abs(struct.unpack_from("<i", payload, 22)[0])
                compression = (
                    struct.unpack_from("<I", payload, 30)[0]
                    if len(payload) >= 34
                    else 0
                )
            if w <= 0 or h <= 0 or compression != 0:
                # invalid dims or RLE/bitfields-compressed stream: the raw
                # bytes are not pixels — degrade rather than histogram them
                return {
                    "width": 0,
                    "height": 0,
                    "feature": [0.0] * self.feature_dim,
                    "decode_ok": False,
                }
            pixels = np.frombuffer(payload, dtype=np.uint8, offset=min(data_off, len(payload)))
            return {
                "width": w,
                "height": h,
                "feature": self._histogram(pixels),
                "decode_ok": True,
            }
        if magic == b"\x89P":
            # REAL baseline-PNG decode, pure stdlib (functions/png.py):
            # zlib inflate + scanline unfilter. Unsupported variants
            # (16-bit, Adam7) and malformed streams degrade, not crash.
            import zlib

            from pdf_parser_ray.functions.png import decode_png

            try:
                # 8M-px cap for this batch stage: the left-dependent
                # unfilters iterate per pixel, and a bigger claim in this
                # corpus is a malformed header, not a real payload
                w, h, pixels = decode_png(payload, max_pixels=8_000_000)
            except (ValueError, zlib.error, struct_error, IndexError):
                return {
                    "width": 0,
                    "height": 0,
                    "feature": [0.0] * self.feature_dim,
                    "decode_ok": False,
                }
            return {
                "width": w,
                "height": h,
                "feature": self._histogram(pixels),
                "decode_ok": True,
            }
        if magic == b"\xff\xd8":
            # REAL baseline-JPEG decode, pure stdlib (functions/jpeg.py):
            # Huffman + dequant + IDCT + chroma upsample. Non-baseline
            # variants (progressive, 12-bit, arithmetic) and malformed
            # streams degrade, not crash.
            from pdf_parser_ray.functions.jpeg import decode_jpeg

            try:
                # same 8M-px stage cap as PNG: the per-symbol Huffman loop
                # is Python, and a bigger claim in this corpus is a
                # malformed header, not a real payload
                w, h, pixels = decode_jpeg(payload, max_pixels=8_000_000)
            except (ValueError, struct_error, IndexError):
                return {
                    "width": 0,
                    "height": 0,
                    "feature": [0.0] * self.feature_dim,
                    "decode_ok": False,
                }
            return {
                "width": w,
                "height": h,
                "feature": self._histogram(pixels),
                "decode_ok": True,
            }
        # unrecognized/empty payload: degrade, don't fail the task
        return {
            "width": 0,
            "height": 0,
            "feature": [0.0] * self.feature_dim,
            "decode_ok": False,
        }

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows = []
        for row in batch.to_pylist():
            payload = row.get("payload") or b""
            decoded = self._decode(row.get("media_ref", ""), payload)
            rows.append(
                {
                    "doc_id": row.get("doc_id", ""),
                    "media_ref": row.get("media_ref", ""),
                    "media_type": row.get("media_type", "image"),
                    "width": decoded["width"],
                    "height": decoded["height"],
                    "n_bytes": len(payload),
                    "feature": decoded["feature"],
                    "decode_ok": decoded["decode_ok"],
                }
            )
        return pa.Table.from_pylist(rows, schema=MEDIA_FEATURES_SCHEMA)


def media_features(
    media_ds: ray.data.Dataset,
    fake: bool = False,
    feature_dim: int = 8,
    batch_size: int = 16,
    concurrency=(1, 4),
) -> ray.data.Dataset:
    """Decode/feature stage: small batches (large binary payloads), Arrow
    batches end-to-end, actor pool for warm codec state. The REAL decode
    is the default now that every format has one — ``fake=True`` is an
    explicit plumbing-test knob (deterministic ref-hash features, no
    payloads needed)."""
    return media_ds.map_batches(
        MediaDecoder,
        fn_constructor_kwargs={"fake": fake, "feature_dim": feature_dim},
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )


def synthesize_mp4(media_ref: str) -> bytes:
    """Deterministic MP4 metadata skeleton seeded on the media ref:
    duration_ms = 1000 + digest[0]*97 + digest[1], width/height =
    16 * (1 + digest[2..3] % 64) — closed-form for the SQL oracle,
    driving the REAL ISO-BMFF box walk."""
    from pdf_parser_ray.functions.mp4 import write_mp4_skeleton

    digest = _ref_digest(media_ref)
    return write_mp4_skeleton(
        duration_ms=1000 + digest[0] * 97 + digest[1],
        width=16 * (1 + digest[2] % 64),
        height=16 * (1 + digest[3] % 64),
    )


VIDEO_PROBE_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("media_ref", pa.string()),
        ("duration_ms", pa.int64()),
        ("n_tracks", pa.int32()),
        ("width", pa.int32()),
        ("height", pa.int32()),
        ("decode_ok", pa.bool_()),
    ]
)


class VideoProber:
    """Actor-pool video metadata stage: REAL ISO-BMFF container parse
    (functions/mp4.py) — duration, track count, video-track dimensions —
    without a frame codec (frame DECODE stays honestly codec-gated in
    sample_frames). Malformed payloads degrade to ``decode_ok=False``."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        from pdf_parser_ray.functions.mp4 import probe_mp4

        rows = []
        for row in batch.to_pylist():
            try:
                meta = probe_mp4(row.get("payload") or b"")
                meta["decode_ok"] = True
            except (ValueError, struct_error, IndexError):
                meta = {
                    "duration_ms": 0,
                    "n_tracks": 0,
                    "width": 0,
                    "height": 0,
                    "decode_ok": False,
                }
            rows.append(
                {
                    "doc_id": row.get("doc_id", ""),
                    "media_ref": row.get("media_ref", ""),
                    **meta,
                }
            )
        return pa.Table.from_pylist(rows, schema=VIDEO_PROBE_SCHEMA)


def video_probe(
    media_ds: ray.data.Dataset,
    batch_size: int = 16,
    concurrency=(1, 4),
) -> ray.data.Dataset:
    """Video metadata stage: the media_features contract for the video
    modality (container metadata only, no frame decode)."""
    return media_ds.map_batches(
        VideoProber,
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )


class AudioDecoder:
    """Actor-pool audio decode/feature stage (the MediaDecoder shape for
    the audio modality): REAL RIFF/WAVE PCM decode via functions/wav.py,
    per-payload (sample count, channels, rate, duration, RMS). Malformed
    or non-PCM payloads degrade to ``decode_ok=False``."""

    def __init__(self, max_samples: int = 8_000_000):
        self.max_samples = max_samples

    def _decode(self, payload: bytes) -> dict:
        from pdf_parser_ray.functions.wav import decode_wav

        try:
            n, ch, rate, samples = decode_wav(
                payload, max_samples=self.max_samples
            )
        except (ValueError, struct_error, IndexError):
            return {
                "n_samples": 0,
                "channels": 0,
                "sample_rate": 0,
                "duration_ms": 0,
                "rms": 0.0,
                "decode_ok": False,
            }
        rms = (
            float(np.sqrt(np.mean(samples.astype(np.float64) ** 2)))
            if samples.size
            else 0.0
        )
        return {
            "n_samples": n,
            "channels": ch,
            "sample_rate": rate,
            "duration_ms": n * 1000 // rate,
            "rms": rms,
            "decode_ok": True,
        }

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows = []
        for row in batch.to_pylist():
            d = self._decode(row.get("payload") or b"")
            rows.append(
                {
                    "doc_id": row.get("doc_id", ""),
                    "media_ref": row.get("media_ref", ""),
                    **d,
                }
            )
        return pa.Table.from_pylist(rows, schema=AUDIO_FEATURES_SCHEMA)


def audio_features(
    media_ds: ray.data.Dataset,
    batch_size: int = 16,
    concurrency=(1, 4),
) -> ray.data.Dataset:
    """Audio decode/feature stage: small Arrow batches (large binary
    payloads), actor pool for warm state — the media_features contract
    for the audio modality."""
    return media_ds.map_batches(
        AudioDecoder,
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )


def media_inventory(
    doc_results: ray.data.Dataset,
    synth_payloads: bool = False,
    synth_format: str = "ppm",
) -> ray.data.Dataset:
    """Media table from flagship extraction output: one row per image span.
    This corpus carries refs only, so payloads are empty by default;
    ``synth_payloads=True`` fills each with a deterministic synthesized
    image (:func:`synthesize_ppm`, or :func:`synthesize_png` /
    :func:`synthesize_jpeg` via ``synth_format``) so the REAL decode
    paths can be driven (and oracle-checked) without external media
    files."""
    synth = {
        "png": synthesize_png,
        "jpeg": synthesize_jpeg,
        "wav": synthesize_wav,
        "mp4": synthesize_mp4,
    }.get(synth_format, synthesize_ppm)
    media_type = {"wav": "audio", "mp4": "video"}.get(synth_format, "image")

    def explode(batch: pa.Table) -> pa.Table:
        rows = []
        for doc_id, spans in zip(
            batch["doc_id"].to_pylist(), batch["spans"].to_pylist()
        ):
            for span in spans or []:
                if span["kind"] == "image":
                    ref = span["media_ref"]
                    rows.append(
                        {
                            "doc_id": doc_id,
                            "media_ref": ref,
                            "media_type": media_type,
                            "payload": synth(ref) if synth_payloads else b"",
                        }
                    )
        return pa.Table.from_pylist(rows, schema=MEDIA_SCHEMA)

    return doc_results.map_batches(explode, batch_format="pyarrow")


def _fit_dims(w: int, h: int, max_side: int) -> tuple[int, int]:
    """Aspect-preserving fit into ``max_side`` (downscale only) — ONE
    geometry law shared by the fake and real resize paths and mirrored in
    the SQL oracle (Python round is half-even, = SQL round_even)."""
    scale = min(1.0, max_side / max(w, h, 1))
    return max(1, round(w * scale)), max(1, round(h * scale))


def decode_image_pixels(payload: bytes, max_pixels: int = 8_000_000):
    """(width, height, channels, uint8 HxWxC array) for the formats with a
    faithful pixel layout here (PPM/PGM, baseline PNG, baseline JPEG);
    None for anything else (BMP rows are padded/BGR — feature-only)."""
    magic = payload[:2]
    if magic in (b"P6", b"P5"):
        w, h, maxval, off = _parse_pnm_header(payload)
        if maxval != 255:
            raise ValueError("non-8-bit PNM (2-byte samples would misread)")
        ch = 3 if magic == b"P6" else 1
        need = w * h * ch
        if w <= 0 or h <= 0 or w * h > max_pixels or len(payload) - off < need:
            raise ValueError("bad PNM dimensions/body")
        flat = np.frombuffer(payload, dtype=np.uint8, count=need, offset=off)
    elif magic == b"\x89P":
        from pdf_parser_ray.functions.png import decode_png

        w, h, flat = decode_png(payload, max_pixels=max_pixels)
        ch = flat.size // (w * h)
    elif magic == b"\xff\xd8":
        from pdf_parser_ray.functions.jpeg import decode_jpeg

        w, h, flat = decode_jpeg(payload, max_pixels=max_pixels)
        ch = flat.size // (w * h)
    else:
        return None
    return w, h, ch, flat.reshape(h, w, ch)


RESIZED_MEDIA_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("media_ref", pa.string()),
        ("media_type", pa.string()),
        ("width", pa.int32()),
        ("height", pa.int32()),
        ("out_width", pa.int32()),
        ("out_height", pa.int32()),
        ("payload", pa.binary()),
        ("decode_ok", pa.bool_()),
    ]
)


class ImageResizer:
    """Actor-pool resize stage. ``fake=False`` (the REAL kernel, enabled by
    the pure-stdlib codecs): consumes the raw media table (payload
    column), decodes, resamples nearest-neighbor with one vectorized
    fancy-index, and re-encodes the result as PNG — undecodable payloads
    degrade to a ``decode_ok=False`` row. ``fake=True`` keeps the original
    geometry-only stub over a FEATURES table (no payloads needed) for
    plumbing tests."""

    _PNG_COLOR_TYPE = {1: 0, 2: 4, 3: 2, 4: 6}

    def __init__(self, max_side: int = 256, fake: bool = False):
        # fake=False is the public default: real decode+resample+re-encode
        self.max_side = max_side
        self.fake = fake

    def _resize_real(self, row: dict) -> dict:
        from pdf_parser_ray.functions.png import encode_png

        base = {
            "doc_id": row.get("doc_id", ""),
            "media_ref": row.get("media_ref", ""),
            "media_type": row.get("media_type", "image"),
        }
        try:
            decoded = decode_image_pixels(row.get("payload") or b"")
            if decoded is None:
                raise ValueError("no faithful pixel decode for this format")
            w, h, ch, img = decoded
        except (ValueError, struct_error, IndexError, ZeroDivisionError, zlib.error):
            return {
                **base,
                "width": 0, "height": 0, "out_width": 0, "out_height": 0,
                "payload": b"", "decode_ok": False,
            }
        ow, oh = _fit_dims(w, h, self.max_side)
        rows_idx = np.minimum((np.arange(oh) * (h / oh)).astype(np.int64), h - 1)
        cols_idx = np.minimum((np.arange(ow) * (w / ow)).astype(np.int64), w - 1)
        resized = img[rows_idx][:, cols_idx]
        out_png = encode_png(
            ow, oh, resized.ravel(), color_type=self._PNG_COLOR_TYPE[ch]
        )
        return {
            **base,
            "width": w, "height": h, "out_width": ow, "out_height": oh,
            "payload": out_png, "decode_ok": True,
        }

    def __call__(self, batch: pa.Table) -> pa.Table:
        if not self.fake:
            return pa.Table.from_pylist(
                [self._resize_real(row) for row in batch.to_pylist()],
                schema=RESIZED_MEDIA_SCHEMA,
            )
        rows = []
        for row in batch.to_pylist():
            w, h = int(row["width"]), int(row["height"])
            ow, oh = _fit_dims(w, h, self.max_side)
            rows.append(
                {
                    **{k: row[k] for k in ("doc_id", "media_ref", "media_type")},
                    "width": ow,
                    "height": oh,
                    "n_bytes": row["n_bytes"],
                    "feature": row["feature"],
                    "decode_ok": row["decode_ok"],
                }
            )
        return pa.Table.from_pylist(rows, schema=MEDIA_FEATURES_SCHEMA)


def resize_media(
    features_ds: ray.data.Dataset,
    max_side: int = 256,
    batch_size: int = 16,
    fake: bool = False,
) -> ray.data.Dataset:
    """Resize stage. Default (``fake=False``, the real kernel): pass the
    raw MEDIA table (payload column) — real decode + resample + PNG
    re-encode. ``fake=True`` is an explicit plumbing-test knob: pass a
    FEATURES table, geometry only."""
    return features_ds.map_batches(
        ImageResizer,
        fn_constructor_kwargs={"max_side": max_side, "fake": fake},
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=(1, 4),
    )


def sample_frames(
    media_ds: ray.data.Dataset, every_n: int = 10, max_frames: int = 8
) -> ray.data.Dataset:
    """Frame-sampling plumbing for video refs (STUB): emits deterministic
    frame refs ``<media_ref>#f<i>`` for i in 0, n, 2n, ... — the real kernel
    would demux the container; the fan-out shape (one media row -> K frame
    rows, small batches) is what matters for the pipeline."""

    schema = pa.schema(
        [
            ("doc_id", pa.string()),
            ("media_ref", pa.string()),
            ("frame_index", pa.int32()),
            ("frame_ref", pa.string()),
        ]
    )

    def fan_out(batch: pa.Table) -> pa.Table:
        rows = []
        for row in batch.to_pylist():
            if row.get("media_type") != "video":
                continue
            for k in range(max_frames):
                idx = k * every_n
                rows.append(
                    {
                        "doc_id": row["doc_id"],
                        "media_ref": row["media_ref"],
                        "frame_index": idx,
                        "frame_ref": f"{row['media_ref']}#f{idx}",
                    }
                )
        return pa.Table.from_pylist(rows, schema=schema)

    return media_ds.map_batches(fan_out, batch_format="pyarrow", batch_size=16)
