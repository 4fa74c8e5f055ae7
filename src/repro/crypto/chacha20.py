"""ChaCha20 stream cipher (RFC 8439) with two batched keystream kernels.

``chacha20_block`` follows the RFC block function literally; it is the
reference the tests hold both kernels to, and it never runs on the hot
path.  Both kernels compute every block of one call at once:

* ``_keystream_packed`` — pure Python, packed integers ("SIMD within a
  register").  Each of the 4 state rows is one ``int`` of ``4·n``
  32-bit lanes spaced 64 bits apart, lane ``c·n + b`` holding word
  ``(row, c)`` of block ``b``.  A quarter-round step is one big-int
  expression masked per lane (carries fall into the 32 guard bits), and
  the diagonal round's column shift rotates a whole row by ``k·n``
  lanes.  One call costs about 800 big-int operations whatever ``n`` is.
* ``_keystream_rows`` — numpy, the state as a ``(4, 4, n_blocks)`` array
  so the four column quarter-rounds of each round collapse into one
  vectorized quarter-round over ``(4, n)`` rows, with explicit ``out=``
  scratch to avoid temporaries.  Each row is stored twice over, so the
  diagonal rounds run on shifted views rather than rolled copies.  Its
  fixed cost, some 460 numpy calls per keystream, is amortized only on
  larger payloads such as a 4 KiB group message or a 32 KiB file chunk.

``keystream``/``chacha20_xor`` take the packed kernel up to
:data:`PACKED_MAX_BLOCKS` blocks, the measured crossover, and the numpy
one above it.
"""

from __future__ import annotations

import struct
from array import array

import numpy as np

_MASK32 = 0xFFFFFFFF
_CONSTANTS = (0x61707865, 0x3320646E, 0x79622D32, 0x6B206574)  # "expand 32-byte k"

#: Calls of at most this many 64-byte blocks (4.5 KiB) take the packed
#: integer kernel; above it the numpy kernel's fixed cost is the smaller.
PACKED_MAX_BLOCKS = 72

_SIGMA = struct.pack("<4I", *_CONSTANTS)
#: one 64-bit lane: 32 data bits, then 32 guard bits
_LANE_MASK = b"\xff\xff\xff\xff\x00\x00\x00\x00"
_GUARD = bytes(4)


def _check_key_nonce(key: bytes, nonce: bytes) -> None:
    if len(key) != 32:
        raise ValueError("ChaCha20 key must be 32 bytes")
    if len(nonce) != 12:
        raise ValueError("ChaCha20 nonce must be 12 bytes")


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
    _check_key_nonce(key, nonce)
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
    a single vectorized quarter-round.  Each row is stored twice over
    (``(4, 8, n)``), so a row turned by ``k`` words is the view
    ``[k:k + 4]``: a diagonal round runs on views of rows 1-3 instead of
    rolled copies, and a few slice copies per round keep both halves in
    step.
    """
    init = np.empty((4, 4, n_blocks), dtype=np.uint32)
    init[0] = np.array(_CONSTANTS, dtype=np.uint32)[:, None]
    init[1:3] = np.frombuffer(key, dtype="<u4").reshape(2, 4, 1)
    counters = (np.arange(n_blocks, dtype=np.uint64) + np.uint64(counter)) & np.uint64(_MASK32)
    init[3, 0] = counters.astype(np.uint32)
    init[3, 1:4] = np.frombuffer(nonce, dtype="<u4")[:, None]
    x = np.concatenate((init, init), axis=1)
    t = np.empty((4, n_blocks), dtype=np.uint32)
    r0, r1, r2, r3 = x[0, :4], x[1], x[2], x[3]
    with np.errstate(over="ignore"):
        for _ in range(10):
            _qr_rows(r0, r1[:4], r2[:4], r3[:4], t)
            r1[4:] = r1[:4]
            r2[4:] = r2[:4]
            r3[4:] = r3[:4]
            _qr_rows(r0, r1[1:5], r2[2:6], r3[3:7], t)
            # the diagonal round wrote words 0..k-1 of row k in the upper copy
            r1[0] = r1[4]
            r2[:2] = r2[4:6]
            r3[:3] = r3[4:7]
    out = x[:, :4] + init
    return out.reshape(16, n_blocks).T.astype("<u4").tobytes()


def _packed_row(words: bytes, n_blocks: int) -> int:
    """A state row of four words, each repeated over ``n_blocks`` lanes."""
    return int.from_bytes(
        b"".join((words[i:i + 4] + _GUARD) * n_blocks for i in range(0, 16, 4)),
        "little")


def _keystream_packed(key: bytes, counter: int, nonce: bytes, n_blocks: int) -> bytes:
    """Packed-integer keystream: each state row is one ``int`` of lanes.

    Every value entering a bit rotation is masked to its 32 data bits, so
    the rotation's spill lands in guard bits and is masked off again; the
    column shift moves whole lanes, which keeps each lane's guard its own.
    """
    n = n_blocks
    m = int.from_bytes(_LANE_MASK * (4 * n), "little")
    s1 = 64 * n
    s2, s3 = 2 * s1, 3 * s1
    low1, low2, low3 = (1 << s1) - 1, (1 << s2) - 1, (1 << s3) - 1
    # the block counter is 32 bits: blocks past 2**32 - 1 restart at 0
    first = counter & _MASK32
    counters = int.from_bytes(
        struct.pack(f"<{n}Q", *range(first, first + n)), "little") & m
    init = (_packed_row(_SIGMA, n), _packed_row(key[:16], n),
            _packed_row(key[16:], n), _packed_row(_GUARD + nonce, n) | counters)
    a, b, c, d = init
    # even rounds end by turning rows 1-3 so the diagonals line up as
    # columns, odd rounds by turning them back
    turns = ((s1, low1, s3, low3), (s3, low3, s1, low1))
    for i in range(20):
        a = (a + b) & m
        d ^= a
        d = (d << 16 | d >> 16) & m
        c = (c + d) & m
        b ^= c
        b = (b << 12 | b >> 20) & m
        a = (a + b) & m
        d ^= a
        d = (d << 8 | d >> 24) & m
        c = (c + d) & m
        b ^= c
        b = (b << 7 | b >> 25) & m
        sb, lowb, sd, lowd = turns[i & 1]
        b = b >> sb | (b & lowb) << sd
        c = c >> s2 | (c & low2) << s2
        d = d >> sd | (d & lowd) << sb
    # The final sums stay unmasked: a carry lands in a guard byte, and only
    # the low 4 bytes of each 8-byte lane (the even 32-bit items) are read.
    lanes = array("I", b"".join((x + x0).to_bytes(32 * n, "little")
                                for x, x0 in zip((a, b, c, d), init)))
    out = array("I", bytes(64 * n))
    # lanes holds word w = 4*row + column of block b at item 2*(w*n + b);
    # the output wants it at item 16*b + w
    for w in range(16):
        out[w::16] = lanes[2 * w * n:2 * (w + 1) * n:2]
    return out.tobytes()


def keystream(key: bytes, counter: int, nonce: bytes, n_blocks: int) -> bytes:
    """``n_blocks`` consecutive 64-byte keystream blocks from ``counter``.

    Dispatches packed-integer vs numpy on the measured crossover; the AEAD
    layer uses this to fuse the Poly1305 one-time-key block and the
    message keystream into a single call.
    """
    _check_key_nonce(key, nonce)
    if n_blocks <= PACKED_MAX_BLOCKS:
        return _keystream_packed(key, counter, nonce, n_blocks)
    return _keystream_rows(key, counter, nonce, n_blocks)


def chacha20_xor(key: bytes, nonce: bytes, data: bytes, counter: int = 1) -> bytes:
    """Encrypt/decrypt ``data`` (XOR with keystream starting at ``counter``)."""
    if not data:
        return b""
    n_blocks = (len(data) + 63) // 64
    stream = keystream(key, counter, nonce, n_blocks)
    buf = np.frombuffer(data, dtype=np.uint8) ^ np.frombuffer(
        stream[: len(data)], dtype=np.uint8
    )
    return buf.tobytes()
