"""Shared deterministic content hashing.

One definition for every operator that buckets, samples or sketches by md5:
the top 8 digest bytes big-endian (:func:`md5_u64`), shifted into the
non-negative int64 range for bucketing (:func:`md5_64`). The SQL-oracle
equivalent is ``('0x'||substr(md5(x),1,16))::UBIGINT``, and ``>> 1`` of it —
keep the two in lockstep (tests/test_ops.py pins the Python side; the
driver gate pins the SQL side through every hash-bucketed oracle).
"""

from __future__ import annotations

import hashlib


def md5_u64(s: str) -> int:
    """Unsigned 64-bit int from md5(s): digest[:8] big-endian."""
    return int.from_bytes(hashlib.md5(s.encode()).digest()[:8], "big")


def md5_64(s: str) -> int:
    """Non-negative int64 from md5(s): ``md5_u64(s) >> 1``."""
    return md5_u64(s) >> 1


def md5_bucket(s: str, n_buckets: int) -> int:
    """Stable bucket id in [0, n_buckets)."""
    return md5_64(s) % n_buckets


def fnv1a_32(s: str) -> int:
    """FNV-1a 32-bit over the code points of ``str(s)``: the extraction
    bucket hash, so checkpoint dirs depend on it (tests pin values)."""
    h = 2166136261
    for ch in str(s):
        h = ((h ^ ord(ch)) * 16777619) & 0xFFFFFFFF
    return h


def hll_register(value, w_bits: int) -> tuple[int, int]:
    """The ONE HyperLogLog register law (Flajolet et al. 2007), shared by
    ops/relational.approx_distinct and ops/streaming.windowed_distinct:
    md5-64 of str(value), top ``64 - w_bits`` bits pick the bucket, the
    position of the leading 1 in the low ``w_bits`` gives rho (w == 0 ->
    w_bits + 1). SQL equivalent (p = 64 - w_bits): ``hv >> w_bits`` and
    ``CASE WHEN (hv & (2^w_bits - 1)) = 0 THEN w_bits + 1 ELSE w_bits -
    length(bin(hv & ...)) + 1 END``."""
    h = md5_u64(str(value))
    b = h >> w_bits
    w = h & ((1 << w_bits) - 1)
    rho = (w_bits + 1) if w == 0 else (w_bits - w.bit_length() + 1)
    return b, rho
