"""ChaCha20-Poly1305 AEAD: RFC vector, oracle, tamper rejection."""

import os

import pytest
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import aead
from repro.crypto.chacha20 import PACKED_MAX_BLOCKS, chacha20_block, chacha20_xor
from repro.errors import InvalidTagError

KEY = bytes(range(0x80, 0xA0))
NONCE = bytes.fromhex("070000004041424344454647")

#: the longest plaintext whose one-time-key block plus message blocks
#: still take the packed-integer keystream kernel
PACKED_MAX_PLAINTEXT = 64 * (PACKED_MAX_BLOCKS - 1)
CROSSOVER_SIZES = [PACKED_MAX_PLAINTEXT - 1, PACKED_MAX_PLAINTEXT,
                   PACKED_MAX_PLAINTEXT + 1]


class TestRfc8439Vector:
    PLAINTEXT = (b"Ladies and Gentlemen of the class of '99: If I could offer "
                 b"you only one tip for the future, sunscreen would be it.")
    AAD = bytes.fromhex("50515253c0c1c2c3c4c5c6c7")

    def test_seal_matches_rfc(self):
        sealed = aead.seal(KEY, NONCE, self.PLAINTEXT, self.AAD)
        assert sealed[-16:] == bytes.fromhex("1ae10b594f09e26a7e902ecbd0600691")

    def test_open_roundtrip(self):
        sealed = aead.seal(KEY, NONCE, self.PLAINTEXT, self.AAD)
        assert aead.open_(KEY, NONCE, sealed, self.AAD) == self.PLAINTEXT


class TestOracle:
    @settings(max_examples=15, deadline=None)
    @given(st.binary(max_size=500), st.binary(max_size=50))
    def test_against_cryptography(self, plaintext, aad):
        key = os.urandom(32)
        nonce = os.urandom(12)
        theirs = ChaCha20Poly1305(key).encrypt(nonce, plaintext, aad)
        ours = aead.seal(key, nonce, plaintext, aad)
        assert ours == theirs
        assert aead.open_(key, nonce, theirs, aad) == plaintext

    @pytest.mark.parametrize("size", CROSSOVER_SIZES)
    def test_at_kernel_crossover(self, size):
        """Seal matches the oracle and open_ round-trips on both sides of
        the keystream kernel crossover."""
        key = os.urandom(32)
        nonce = os.urandom(12)
        plaintext = os.urandom(size)
        theirs = ChaCha20Poly1305(key).encrypt(nonce, plaintext, b"aad")
        assert aead.seal(key, nonce, plaintext, b"aad") == theirs
        assert aead.open_(key, nonce, theirs, b"aad") == plaintext


class TestFusedKeystream:
    @pytest.mark.parametrize("n", [0, 1, 64, 65, 511, 512, 513, 2000,
                                   *CROSSOVER_SIZES])
    def test_matches_two_call_construction(self, n):
        """One keystream call yields RFC 8439's block-0 one-time key and
        the counter-1 message stream."""
        data = os.urandom(n)
        otk, xored = aead._otk_and_xor(KEY, NONCE, data)
        assert otk == chacha20_block(KEY, 0, NONCE)[:32]
        assert xored == chacha20_xor(KEY, NONCE, data, counter=1)


class TestTamperRejection:
    def _sealed(self):
        return aead.seal(KEY, NONCE, b"attack at dawn", b"header")

    def test_flipped_ciphertext_bit(self):
        sealed = bytearray(self._sealed())
        sealed[0] ^= 1
        with pytest.raises(InvalidTagError):
            aead.open_(KEY, NONCE, bytes(sealed), b"header")

    def test_flipped_tag_bit(self):
        sealed = bytearray(self._sealed())
        sealed[-1] ^= 1
        with pytest.raises(InvalidTagError):
            aead.open_(KEY, NONCE, bytes(sealed), b"header")

    def test_wrong_aad(self):
        with pytest.raises(InvalidTagError):
            aead.open_(KEY, NONCE, self._sealed(), b"other-header")

    def test_wrong_key(self):
        with pytest.raises(InvalidTagError):
            aead.open_(bytes(32), NONCE, self._sealed(), b"header")

    def test_wrong_nonce(self):
        with pytest.raises(InvalidTagError):
            aead.open_(KEY, bytes(12), self._sealed(), b"header")

    def test_truncated_rejected(self):
        with pytest.raises(InvalidTagError):
            aead.open_(KEY, NONCE, b"\x01" * 10, b"")


class TestProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.binary(max_size=300), st.binary(max_size=30))
    def test_roundtrip(self, plaintext, aad):
        sealed = aead.seal(KEY, NONCE, plaintext, aad)
        assert len(sealed) == len(plaintext) + aead.TAG_SIZE
        assert aead.open_(KEY, NONCE, sealed, aad) == plaintext

    def test_empty_plaintext(self):
        sealed = aead.seal(KEY, NONCE, b"", b"aad")
        assert len(sealed) == aead.TAG_SIZE
        assert aead.open_(KEY, NONCE, sealed, b"aad") == b""
