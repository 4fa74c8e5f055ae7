"""ChaCha20 stream cipher (RFC 8439) with a vectorized fast path.

The scalar implementation follows the RFC block function literally and
is the reference.  ``_keystream_rows`` is the numpy formulation on top
of it: the state is held as a ``(4, 4, n_blocks)`` array so the four
column quarter-rounds of each round collapse into **one** vectorized
quarter-round over ``(4, n)`` rows (diagonal rounds roll rows into
column position and back), with explicit ``out=`` scratch to avoid
temporaries.

numpy's fixed per-call overhead makes the scalar path cheaper below
:data:`SCALAR_MAX_BLOCKS` blocks; ``keystream``/``chacha20_xor``
dispatch on that.  The test suite checks both paths against the RFC
8439 vectors and the vectorized one against the scalar block function.
"""

from __future__ import annotations

import struct

import numpy as np

_MASK32 = 0xFFFFFFFF
_CONSTANTS = (0x61707865, 0x3320646E, 0x79622D32, 0x6B206574)  # "expand 32-byte k"

#: Messages of at most this many 64-byte blocks take the scalar path —
#: numpy's fixed per-call overhead dominates below the crossover.
SCALAR_MAX_BLOCKS = 8


def _quarter(state: list[int], a: int, b: int, c: int, d: int) -> None:
    x = state
    x[a] = (x[a] + x[b]) & _MASK32
    x[d] ^= x[a]
    x[d] = ((x[d] << 16) | (x[d] >> 16)) & _MASK32
    x[c] = (x[c] + x[d]) & _MASK32
    x[b] ^= x[c]
    x[b] = ((x[b] << 12) | (x[b] >> 20)) & _MASK32
    x[a] = (x[a] + x[b]) & _MASK32
    x[d] ^= x[a]
    x[d] = ((x[d] << 8) | (x[d] >> 24)) & _MASK32
    x[c] = (x[c] + x[d]) & _MASK32
    x[b] ^= x[c]
    x[b] = ((x[b] << 7) | (x[b] >> 25)) & _MASK32


def chacha20_block(key: bytes, counter: int, nonce: bytes) -> bytes:
    """The RFC 8439 block function: 64 bytes of keystream."""
    if len(key) != 32:
        raise ValueError("ChaCha20 key must be 32 bytes")
    if len(nonce) != 12:
        raise ValueError("ChaCha20 nonce must be 12 bytes")
    init = list(_CONSTANTS) + list(struct.unpack("<8I", key)) \
        + [counter & _MASK32] + list(struct.unpack("<3I", nonce))
    state = list(init)
    for _ in range(10):
        _quarter(state, 0, 4, 8, 12)
        _quarter(state, 1, 5, 9, 13)
        _quarter(state, 2, 6, 10, 14)
        _quarter(state, 3, 7, 11, 15)
        _quarter(state, 0, 5, 10, 15)
        _quarter(state, 1, 6, 11, 12)
        _quarter(state, 2, 7, 8, 13)
        _quarter(state, 3, 4, 9, 14)
    out = [(s + i) & _MASK32 for s, i in zip(state, init)]
    return struct.pack("<16I", *out)


def _qr_rows(a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray,
             t: np.ndarray) -> None:
    """One quarter round over four (4, n_blocks) rows at once, in place.

    ``t`` is caller-provided scratch of the same shape; the rotations are
    expressed with ``out=`` so the round allocates nothing.
    """
    a += b
    d ^= a
    np.left_shift(d, 16, out=t)
    np.right_shift(d, 16, out=d)
    np.bitwise_or(d, t, out=d)
    c += d
    b ^= c
    np.left_shift(b, 12, out=t)
    np.right_shift(b, 20, out=b)
    np.bitwise_or(b, t, out=b)
    a += b
    d ^= a
    np.left_shift(d, 8, out=t)
    np.right_shift(d, 24, out=d)
    np.bitwise_or(d, t, out=d)
    c += d
    b ^= c
    np.left_shift(b, 7, out=t)
    np.right_shift(b, 25, out=b)
    np.bitwise_or(b, t, out=b)


def _keystream_rows(key: bytes, counter: int, nonce: bytes, n_blocks: int) -> bytes:
    """Row-formulation keystream: the state as a (4, 4, n_blocks) array.

    Rows are the four words each quarter-round touches; a column round is
    a single vectorized quarter-round, a diagonal round rolls rows 1-3
    into column position and back.
    """
    init = np.empty((4, 4, n_blocks), dtype=np.uint32)
    init[0] = np.array(_CONSTANTS, dtype=np.uint32)[:, None]
    init[1:3] = np.frombuffer(key, dtype="<u4").reshape(2, 4, 1)
    counters = (np.arange(n_blocks, dtype=np.uint64) + np.uint64(counter)) & np.uint64(_MASK32)
    init[3, 0] = counters.astype(np.uint32)
    init[3, 1:4] = np.frombuffer(nonce, dtype="<u4")[:, None]
    x = init.copy()
    t = np.empty((4, n_blocks), dtype=np.uint32)
    r0, r1, r2, r3 = x[0], x[1], x[2], x[3]
    with np.errstate(over="ignore"):
        for _ in range(10):
            _qr_rows(r0, r1, r2, r3, t)
            x[1] = np.roll(r1, -1, axis=0)
            x[2] = np.roll(r2, -2, axis=0)
            x[3] = np.roll(r3, -3, axis=0)
            _qr_rows(r0, r1, r2, r3, t)
            x[1] = np.roll(r1, 1, axis=0)
            x[2] = np.roll(r2, 2, axis=0)
            x[3] = np.roll(r3, 3, axis=0)
        x += init
    return x.reshape(16, n_blocks).T.astype("<u4").tobytes()


def keystream(key: bytes, counter: int, nonce: bytes, n_blocks: int,
              use_numpy: bool | None = None) -> bytes:
    """``n_blocks`` consecutive 64-byte keystream blocks from ``counter``.

    Dispatches scalar vs vectorized on the measured crossover; the AEAD
    layer uses this to fuse the Poly1305 one-time-key block and the
    message keystream into a single call.
    """
    if use_numpy is None:
        use_numpy = n_blocks > SCALAR_MAX_BLOCKS
    if use_numpy:
        return _keystream_rows(key, counter, nonce, n_blocks)
    return b"".join(
        chacha20_block(key, counter + i, nonce) for i in range(n_blocks)
    )


def chacha20_xor(key: bytes, nonce: bytes, data: bytes, counter: int = 1,
                 use_numpy: bool | None = None) -> bytes:
    """Encrypt/decrypt ``data`` (XOR with keystream starting at ``counter``).

    ``use_numpy=None`` picks the path by block count, crossing over at
    :data:`SCALAR_MAX_BLOCKS`.
    """
    if not data:
        return b""
    n_blocks = (len(data) + 63) // 64
    stream = keystream(key, counter, nonce, n_blocks, use_numpy=use_numpy)
    buf = np.frombuffer(data, dtype=np.uint8) ^ np.frombuffer(
        stream[: len(data)], dtype=np.uint8
    )
    return buf.tobytes()
