"""Poly1305 one-time authenticator (RFC 8439 section 2.5).

Python's arbitrary-precision integers make the radix-2^130 arithmetic
direct: accumulate 16-byte chunks (with the 2^128 high bit) into the
polynomial evaluated at the clamped key ``r`` modulo 2^130-5, then add
``s`` modulo 2^128.

Long messages take a packed-integer path ("SIMD within a register").
One ``int`` holds :data:`_LANES` accumulators in 272-bit lanes, and lane
``j`` runs Horner's rule over blocks ``j, j + k, j + 2k, ...`` with the
multiplier ``r^k``.  Each step is a handful of big-int operations over
all lanes at once, and lane-wise partial reduction keeps every lane
below 2^131.  The lanes then fold into the scalar accumulator as if
they were blocks, which gives block ``i`` of ``n`` the same ``r^(n-i)``
as the one-block-at-a-time loop, so the tag is identical.
"""

from __future__ import annotations

import numpy as np

_P = (1 << 130) - 5
_CLAMP = 0x0FFFFFFC0FFFFFFC0FFFFFFC0FFFFFFF

#: accumulators per packed step
_LANES = 64
#: one lane: 16 block bytes, the 2^128 pad byte, 17 guard bytes
_LANE_BYTES = 34
_LANE_BITS = 8 * _LANE_BYTES
_STEP_BYTES = _LANES * _LANE_BYTES
#: per-lane masks: the low 130 bits, and the rest of the lane after >> 130
_LOW = sum(((1 << 130) - 1) << (_LANE_BITS * j) for j in range(_LANES))
_HIGH = sum(((1 << (_LANE_BITS - 130)) - 1) << (_LANE_BITS * j)
            for j in range(_LANES))

#: messages of at least this many whole blocks (1.5 KiB) take the packed
#: path; below it the scalar loop is the cheaper (measured crossover)
PACKED_MIN_BLOCKS = 96


def _horner(acc: int, r: int, message: bytes) -> int:
    for i in range(0, len(message), 16):
        chunk = message[i:i + 16]
        n = int.from_bytes(chunk, "little") + (1 << (8 * len(chunk)))
        acc = ((acc + n) * r) % _P
    return acc


def _horner_packed(r: int, message: bytes) -> int:
    """The accumulator after every whole 16-byte block of ``message``."""
    n_blocks = len(message) // 16
    # leading zero lanes (no pad bit) add nothing and align the last block
    skip = -n_blocks % _LANES
    lanes = np.zeros((skip + n_blocks, _LANE_BYTES), dtype=np.uint8)
    lanes[skip:, :16] = np.frombuffer(
        message, dtype=np.uint8, count=16 * n_blocks).reshape(-1, 16)
    lanes[skip:, 16] = 1
    data = lanes.tobytes()
    rk = pow(r, _LANES, _P)
    x = 0
    for off in range(0, len(data), _STEP_BYTES):
        # lanes < 2^131 on entry, so x * r^k + block < 2^262: no lane spills
        x = x * rk + int.from_bytes(data[off:off + _STEP_BYTES], "little")
        x = (x & _LOW) + 5 * ((x >> 130) & _HIGH)  # lanes < 2^135
        x = (x & _LOW) + 5 * ((x >> 130) & _HIGH)  # lanes < 2^131
    acc = 0
    folded = x.to_bytes(_STEP_BYTES, "little")
    for off in range(0, _STEP_BYTES, _LANE_BYTES):
        lane = int.from_bytes(folded[off:off + _LANE_BYTES], "little")
        acc = ((acc + lane) * r) % _P
    return acc


def poly1305_mac(key: bytes, message: bytes) -> bytes:
    """Compute the 16-byte Poly1305 tag.  ``key`` is the 32-byte (r || s)."""
    if len(key) != 32:
        raise ValueError("Poly1305 key must be 32 bytes")
    r = int.from_bytes(key[:16], "little") & _CLAMP
    s = int.from_bytes(key[16:], "little")
    if len(message) >= 16 * PACKED_MIN_BLOCKS:
        whole = len(message) & ~15
        acc = _horner(_horner_packed(r, message), r, message[whole:])
    else:
        acc = _horner(0, r, message)
    acc = (acc + s) & ((1 << 128) - 1)
    return acc.to_bytes(16, "little")
