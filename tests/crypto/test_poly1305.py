"""Poly1305 one-time MAC: RFC 8439 vectors and edge cases."""

import os

import pytest
from cryptography.hazmat.primitives.poly1305 import Poly1305
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.poly1305 import _LANES, PACKED_MIN_BLOCKS, poly1305_mac

#: lengths on both sides of the packed path's threshold, one lane step
#: past it, and with partial final blocks
PACKED_LENGTHS = ([16 * PACKED_MIN_BLOCKS + d for d in (-1, 0, 1, 15, 16, 17)]
                  + [16 * (PACKED_MIN_BLOCKS + _LANES) + d for d in (-16, 0, 5)]
                  + [100_000])


class TestVectors:
    def test_rfc8439_section_2_5_2(self):
        key = bytes.fromhex(
            "85d6be7857556d337f4452fe42d506a8"
            "0103808afb0db2fd4abff6af4149f51b")
        tag = poly1305_mac(key, b"Cryptographic Forum Research Group")
        assert tag == bytes.fromhex("a8061dc1305136c6c22b8baf0c0127a9")

    def test_zero_key_zero_message(self):
        # r = 0 clamps to 0, so the tag is just s = 0
        assert poly1305_mac(b"\x00" * 32, b"anything") == b"\x00" * 16

    def test_empty_message(self):
        key = bytes(range(32))
        tag = poly1305_mac(key, b"")
        assert len(tag) == 16
        # with no blocks the accumulator stays 0; tag == s
        assert tag == key[16:]


class TestProperties:
    def test_bad_key_length(self):
        with pytest.raises(ValueError):
            poly1305_mac(b"short", b"msg")

    @settings(max_examples=30, deadline=None)
    @given(st.binary(min_size=32, max_size=32), st.binary(max_size=500))
    def test_deterministic(self, key, msg):
        assert poly1305_mac(key, msg) == poly1305_mac(key, msg)

    @settings(max_examples=30, deadline=None)
    @given(st.binary(min_size=32, max_size=32), st.binary(min_size=1, max_size=200))
    def test_message_sensitivity(self, key, msg):
        # flipping one bit must change the tag (w.h.p.; r=0 keys excluded)
        if key[:16] == b"\x00" * 16:
            return
        tampered = bytes([msg[0] ^ 1]) + msg[1:]
        assert poly1305_mac(key, msg) != poly1305_mac(key, tampered)

    def test_block_boundary_lengths(self):
        key = bytes(range(32))
        tags = {poly1305_mac(key, b"a" * n) for n in (15, 16, 17, 31, 32, 33)}
        assert len(tags) == 6  # all distinct


class TestPackedPath:
    """The packed-integer path against the ``cryptography`` oracle."""

    @pytest.mark.parametrize("size", PACKED_LENGTHS)
    def test_matches_oracle(self, size):
        key = os.urandom(32)
        msg = os.urandom(size)
        assert poly1305_mac(key, msg) == Poly1305.generate_tag(key, msg)

    def test_all_ones_key_and_message(self):
        # every lane at its largest value: the guard-bit bounds are tight
        key = b"\xff" * 32
        msg = b"\xff" * (16 * 4 * PACKED_MIN_BLOCKS + 7)
        assert poly1305_mac(key, msg) == Poly1305.generate_tag(key, msg)
