"""HMAC-DRBG: determinism, independence, draw helpers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.drbg import HmacDrbg, system_drbg


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = HmacDrbg(b"seed")
        b = HmacDrbg(b"seed")
        assert a.generate(100) == b.generate(100)

    def test_different_seeds_differ(self):
        assert HmacDrbg(b"seed-1").generate(32) != HmacDrbg(b"seed-2").generate(32)

    def test_personalization_separates(self):
        a = HmacDrbg(b"seed", personalization=b"role-a")
        b = HmacDrbg(b"seed", personalization=b"role-b")
        assert a.generate(32) != b.generate(32)

    def test_stream_continuation(self):
        whole = HmacDrbg(b"s").generate(64)
        split = HmacDrbg(b"s")
        assert split.generate(32) + split.generate(32) != whole  # state advances
        # but two identical call sequences match
        x = HmacDrbg(b"s")
        y = HmacDrbg(b"s")
        assert [x.generate(7) for _ in range(5)] == [y.generate(7) for _ in range(5)]


class TestGenerate:
    def test_zero_bytes(self):
        assert HmacDrbg(b"s").generate(0) == b""

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            HmacDrbg(b"s").generate(-1)

    def test_large_request_split_internally(self):
        data = HmacDrbg(b"s").generate(HmacDrbg.MAX_BYTES_PER_REQUEST + 100)
        assert len(data) == HmacDrbg.MAX_BYTES_PER_REQUEST + 100

    def test_additional_input_changes_output(self):
        a = HmacDrbg(b"s").generate(32, additional=b"x")
        b = HmacDrbg(b"s").generate(32)
        assert a != b

    def test_reseed_changes_stream(self):
        a = HmacDrbg(b"s")
        b = HmacDrbg(b"s")
        a.reseed(b"fresh entropy")
        assert a.generate(32) != b.generate(32)


class TestDraws:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=1000))
    def test_rand_below_in_range(self, bound):
        rng = HmacDrbg(b"draws")
        for _ in range(10):
            assert 0 <= rng.rand_below(bound) < bound

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=256))
    def test_rand_bits_in_range(self, bits):
        value = HmacDrbg(b"bits").rand_bits(bits)
        assert 0 <= value < (1 << bits)

    def test_rand_range(self):
        rng = HmacDrbg(b"rr")
        for _ in range(20):
            assert 10 <= rng.rand_range(10, 20) < 20

    def test_rand_range_empty_rejected(self):
        with pytest.raises(ValueError):
            HmacDrbg(b"s").rand_range(5, 5)

    def test_uniform_in_unit_interval(self):
        rng = HmacDrbg(b"u")
        values = [rng.uniform() for _ in range(100)]
        assert all(0.0 <= v < 1.0 for v in values)
        assert 0.2 < sum(values) / len(values) < 0.8  # crude sanity

    def test_rand_below_covers_small_range(self):
        rng = HmacDrbg(b"cover")
        seen = {rng.rand_below(4) for _ in range(200)}
        assert seen == {0, 1, 2, 3}


class TestFork:
    def test_forks_are_deterministic(self):
        a = HmacDrbg(b"root").fork(b"child")
        b = HmacDrbg(b"root").fork(b"child")
        assert a.generate(32) == b.generate(32)

    def test_forks_independent_of_label(self):
        root = HmacDrbg(b"root")
        a = root.fork(b"a")
        b = root.fork(b"b")
        assert a.generate(32) != b.generate(32)


def test_system_drbg_differs_each_time():
    assert system_drbg().generate(32) != system_drbg().generate(32)


class TestThreadSafety:
    def test_concurrent_draws_never_repeat(self):
        """8 threads drawing from one generator get distinct outputs.

        A tiny switch interval makes the interpreter preempt inside
        ``generate`` between reading and writing the state; without the
        per-instance lock two threads then return the same block.
        """
        import sys
        import threading

        drbg = HmacDrbg(b"shared")
        draws: list[list[bytes]] = [[] for _ in range(8)]
        start = threading.Barrier(len(draws), timeout=30)

        def worker(out: list[bytes]) -> None:
            start.wait()
            for _ in range(3_000):
                out.append(drbg.generate(16))

        threads = [threading.Thread(target=worker, args=(out,))
                   for out in draws]
        saved = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(saved)
        assert not any(thread.is_alive() for thread in threads)
        flat = [value for out in draws for value in out]
        assert len(flat) == 24_000
        assert len(set(flat)) == len(flat)
