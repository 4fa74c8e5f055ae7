"""HMAC-DRBG (NIST SP 800-90A) — the package's only source of randomness.

Every component that needs random bytes (RSA keygen, challenges, session
ids, symmetric keys, the network simulator) draws from an HMAC-DRBG.  A
DRBG seeded from ``os.urandom`` behaves like a CSPRNG; a DRBG seeded from a
fixed byte string makes an entire protocol run reproducible, which is what
the tests and the simulated benchmarks rely on.
"""

from __future__ import annotations

import os
import threading

from repro.crypto.hmac import hmac_sha256


class HmacDrbg:
    """Deterministic random bit generator per SP 800-90A (HMAC variant).

    Reseeding and additional-input paths are implemented; prediction
    resistance is out of scope for a simulation substrate.

    One instance may be shared by threads (the socket transport runs
    handlers on a pool), so a per-instance lock serializes the public
    state-changing calls, :meth:`reseed` and :meth:`generate`.
    """

    #: SP 800-90A limit on a single generate call (we are far more generous
    #: than needed but keep a cap so bugs cannot ask for gigabytes).
    MAX_BYTES_PER_REQUEST = 1 << 16

    def __init__(self, seed: bytes | None = None, personalization: bytes = b"") -> None:
        if seed is None:
            seed = os.urandom(48)
        self._key = b"\x00" * 32
        self._value = b"\x01" * 32
        self._reseed_counter = 1
        self._lock = threading.Lock()
        self._update(seed + personalization)

    def _update(self, provided: bytes = b"") -> None:
        self._key = hmac_sha256(self._key, self._value + b"\x00" + provided)
        self._value = hmac_sha256(self._key, self._value)
        if provided:
            self._key = hmac_sha256(self._key, self._value + b"\x01" + provided)
            self._value = hmac_sha256(self._key, self._value)

    def reseed(self, entropy: bytes) -> None:
        """Mix fresh entropy into the generator state."""
        with self._lock:
            self._update(entropy)
            self._reseed_counter = 1

    def generate(self, n: int, additional: bytes = b"") -> bytes:
        """Return ``n`` pseudo-random bytes."""
        if n < 0:
            raise ValueError("cannot generate a negative number of bytes")
        with self._lock:
            if n <= self.MAX_BYTES_PER_REQUEST:
                return self._generate(n, additional)
            # Split internally; keeps the external API convenient.
            out = bytearray()
            remaining = n
            while remaining:
                chunk = min(remaining, self.MAX_BYTES_PER_REQUEST)
                out += self._generate(chunk, additional)
                additional = b""
                remaining -= chunk
            return bytes(out)

    def _generate(self, n: int, additional: bytes) -> bytes:
        """One SP 800-90A generate call; the caller holds the lock."""
        if additional:
            self._update(additional)
        out = bytearray()
        while len(out) < n:
            self._value = hmac_sha256(self._key, self._value)
            out += self._value
        self._update(additional)
        self._reseed_counter += 1
        return bytes(out[:n])

    # -- convenience draws ------------------------------------------------

    def rand_bits(self, bits: int) -> int:
        """Uniform integer in ``[0, 2^bits)``."""
        if bits <= 0:
            raise ValueError("bits must be positive")
        n_bytes = (bits + 7) // 8
        value = int.from_bytes(self.generate(n_bytes), "big")
        return value >> (n_bytes * 8 - bits)

    def rand_below(self, bound: int) -> int:
        """Uniform integer in ``[0, bound)`` via rejection sampling."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        bits = bound.bit_length()
        while True:
            value = self.rand_bits(bits)
            if value < bound:
                return value

    def rand_range(self, lo: int, hi: int) -> int:
        """Uniform integer in ``[lo, hi)``."""
        if hi <= lo:
            raise ValueError("empty range")
        return lo + self.rand_below(hi - lo)

    def uniform(self) -> float:
        """Uniform float in ``[0, 1)`` with 53 bits of precision."""
        return self.rand_bits(53) / (1 << 53)

    def fork(self, label: bytes) -> "HmacDrbg":
        """Derive an independent child generator (domain-separated)."""
        return HmacDrbg(seed=self.generate(48), personalization=label)


def system_drbg() -> HmacDrbg:
    """A DRBG seeded from the operating system entropy pool."""
    return HmacDrbg(seed=os.urandom(48), personalization=b"repro-system")
