"""ChaCha20: RFC 8439 vectors, packed-int/numpy kernel equivalence, oracle check."""

import os

import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.chacha20 import (
    PACKED_MAX_BLOCKS,
    _keystream_packed,
    _keystream_rows,
    chacha20_block,
    chacha20_xor,
)

KEY = bytes(range(32))
NONCE = bytes.fromhex("000000090000004a00000000")


def _blocks(counter: int, n_blocks: int) -> bytes:
    """The reference: ``n_blocks`` RFC block-function outputs, concatenated."""
    return b"".join(chacha20_block(KEY, counter + i, NONCE)
                    for i in range(n_blocks))


#: every block count up to just past the kernel crossover
BLOCK_COUNTS = range(1, PACKED_MAX_BLOCKS + 3)
#: one reference stream from counter 7, sliced per block count
REFERENCE = _blocks(7, BLOCK_COUNTS[-1])


def _oracle_xor(key: bytes, nonce: bytes, data: bytes, counter: int) -> bytes:
    # cryptography's ChaCha20 takes a 16-byte nonce: counter || nonce
    full = counter.to_bytes(4, "little") + nonce
    return Cipher(algorithms.ChaCha20(key, full), mode=None).encryptor().update(data)


class TestBlockFunction:
    def test_rfc8439_block_vector(self):
        # RFC 8439 section 2.3.2
        block = chacha20_block(KEY, 1, NONCE)
        expected = bytes.fromhex(
            "10f1e7e4d13b5915500fdd1fa32071c4"
            "c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2"
            "b5129cd1de164eb9cbd083e8a2503c4e")
        assert block == expected

    def test_rfc8439_encryption_vector(self):
        # RFC 8439 section 2.4.2
        key = bytes(range(32))
        nonce = bytes.fromhex("000000000000004a00000000")
        plaintext = (b"Ladies and Gentlemen of the class of '99: If I could "
                     b"offer you only one tip for the future, sunscreen would be it.")
        ct = chacha20_xor(key, nonce, plaintext, counter=1)
        assert ct[:16] == bytes.fromhex("6e2e359a2568f98041ba0728dd0d6981")
        assert chacha20_xor(key, nonce, ct, counter=1) == plaintext

    def test_bad_key_length(self):
        with pytest.raises(ValueError):
            chacha20_block(b"short", 0, NONCE)

    def test_bad_nonce_length(self):
        with pytest.raises(ValueError):
            chacha20_block(KEY, 0, b"short")

    def test_xor_rejects_bad_key_and_nonce(self):
        with pytest.raises(ValueError):
            chacha20_xor(b"short", NONCE, b"data")
        with pytest.raises(ValueError):
            chacha20_xor(KEY, b"short", b"data")


class TestScalarNumpyEquivalence:
    """The pure-Python packed-integer kernel against the numpy one."""

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 128, 256, 1000, 4096])
    def test_paths_agree(self, n):
        nonce = os.urandom(12)
        n_blocks = (n + 63) // 64
        assert _keystream_packed(KEY, 1, nonce, n_blocks) \
            == _keystream_rows(KEY, 1, nonce, n_blocks)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=40),
           st.integers(min_value=0, max_value=2**32 - 1))
    def test_paths_agree_property(self, n_blocks, counter):
        assert _keystream_packed(KEY, counter, NONCE, n_blocks) \
            == _keystream_rows(KEY, counter, NONCE, n_blocks)


class TestRowKeystream:
    """A batched kernel against the RFC block function."""

    kernel = staticmethod(_keystream_rows)

    @pytest.mark.parametrize("n_blocks", BLOCK_COUNTS)
    def test_matches_block_function(self, n_blocks):
        assert self.kernel(KEY, 7, NONCE, n_blocks) == REFERENCE[:64 * n_blocks]

    @pytest.mark.parametrize("n_blocks", [300, 1564])
    def test_matches_block_function_on_large_calls(self, n_blocks):
        # 1564 blocks: a 100 kB message
        assert self.kernel(KEY, 3, NONCE, n_blocks) == _blocks(3, n_blocks)

    @pytest.mark.parametrize("counter", [2**32 - 1, 2**32 - 5])
    def test_matches_across_counter_wrap(self, counter):
        # the block counter is 32 bits: blocks past 2**32 - 1 restart at 0
        assert self.kernel(KEY, counter, NONCE, 12) == _blocks(counter, 12)


class TestPackedKeystream(TestRowKeystream):
    kernel = staticmethod(_keystream_packed)


class TestOracle:
    def test_against_cryptography(self):
        key = os.urandom(32)
        nonce = os.urandom(12)
        data = os.urandom(555)
        assert chacha20_xor(key, nonce, data, counter=1) \
            == _oracle_xor(key, nonce, data, 1)

    @pytest.mark.parametrize("size", [64 * PACKED_MAX_BLOCKS - 1,
                                      64 * PACKED_MAX_BLOCKS,
                                      64 * PACKED_MAX_BLOCKS + 1])
    def test_against_cryptography_at_crossover(self, size):
        """``chacha20_xor`` on both sides of the kernel crossover."""
        key = os.urandom(32)
        nonce = os.urandom(12)
        data = os.urandom(size)
        assert chacha20_xor(key, nonce, data, counter=1) \
            == _oracle_xor(key, nonce, data, 1)


class TestProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.binary(max_size=1000))
    def test_involution(self, data):
        assert chacha20_xor(KEY, NONCE, chacha20_xor(KEY, NONCE, data)) == data

    def test_empty_input(self):
        assert chacha20_xor(KEY, NONCE, b"") == b""

    def test_counter_separates_streams(self):
        data = b"\x00" * 64
        assert chacha20_xor(KEY, NONCE, data, counter=1) != chacha20_xor(
            KEY, NONCE, data, counter=2)

    def test_counter_wraps_32bit(self):
        # the counter is 32 bits: the stream continues at block 0
        data = b"\x00" * 130
        hi = 0xFFFFFFFF
        assert chacha20_xor(KEY, NONCE, data, counter=hi) == _blocks(hi, 3)[:130]
