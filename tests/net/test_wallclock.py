"""WallClock: the TransportClock surface over real monotonic time."""

from __future__ import annotations

import time

import pytest

from repro.core import Administrator, SecureBroker, SecureClientPeer
from repro.core.keystore import Keystore
from repro.crypto.drbg import HmacDrbg
from repro.net.clock import WallClock
from repro.net.tcp import TcpTransport
from repro.sim.clock import VirtualClock
from tests.conftest import TEST_POLICY, cached_keypair


class TestWallClock:
    def test_shares_the_host_clock_and_monotonic(self):
        first = WallClock()
        time.sleep(0.05)
        second = WallClock()
        # no per-instance zero: every clock reads the host's monotonic time
        t0 = time.monotonic()
        a, b = first.now, second.now
        assert t0 <= a <= b <= time.monotonic()

    def test_advance_really_sleeps(self):
        clock = WallClock()
        t0 = time.monotonic()
        clock.advance(0.05)
        assert time.monotonic() - t0 >= 0.045

    def test_advance_rejects_negative(self):
        with pytest.raises(ValueError):
            WallClock().advance(-1.0)

    def test_network_and_cpu_are_accounting_only(self):
        clock = WallClock()
        t0 = time.monotonic()
        clock.advance_network(100.0)
        clock.charge_cpu(100.0)
        assert time.monotonic() - t0 < 1.0      # no sleeping happened
        assert clock.network_time == 100.0
        assert clock.cpu_time == 100.0

    def test_cpu_section_measures_real_work(self):
        clock = WallClock()
        with clock.cpu_section():
            time.sleep(0.02)
        assert clock.cpu_time >= 0.015

    def test_cpu_scale_applies(self):
        clock = WallClock()
        clock.cpu_scale = 2.0
        clock.charge_cpu(1.0)
        assert clock.cpu_time == 2.0

    def test_reset(self):
        clock = WallClock()
        clock.charge_cpu(5.0)
        clock.advance_network(5.0)
        clock.reset()
        assert clock.cpu_time == 0.0 and clock.network_time == 0.0
        # the accounting is cleared, the time is not
        t0 = time.monotonic()
        assert t0 <= clock.now <= time.monotonic()


class TestTransportsStartedApart:
    def test_secure_join_with_broker_transport_started_first(self):
        """Credentials the broker's process issues are valid at once on a
        client transport built 0.3 s later."""
        root = HmacDrbg(b"wallclock-world")
        admin = Administrator(root.fork(b"admin"),
                              keys=cached_keypair(512, "admin"))
        admin.register_user("alice", "pw-a", {"students"})
        with TcpTransport(request_timeout=30.0) as broker_net:
            broker = SecureBroker.create(
                broker_net, "broker:0", admin, root.fork(b"br"), name="B0",
                policy=TEST_POLICY, keys=cached_keypair(512, "broker"))
            time.sleep(0.3)
            with TcpTransport(request_timeout=30.0) as client_net:
                alice = SecureClientPeer(
                    client_net, "peer:alice", root.fork(b"al"),
                    admin.credential, name="alice-app", policy=TEST_POLICY,
                    keystore=Keystore(cached_keypair(512, "client-alice")))
                client_net.add_route("broker:0", *broker_net.location("broker:0"))
                broker_net.add_route("peer:alice",
                                     *client_net.location("peer:alice"))
                try:
                    alice.secure_connect("broker:0")
                    assert alice.secure_login("alice", "pw-a") == ["students"]
                finally:
                    alice.control.close()
                    broker.control.close()


class TestClockSurfaceParity:
    """Both clocks satisfy the protocol the overlay is written against."""

    @pytest.mark.parametrize("clock", [WallClock(), VirtualClock()])
    def test_transport_clock_surface(self, clock):
        for attr in ("now", "advance", "advance_network", "charge_cpu",
                     "cpu_section", "reset"):
            assert hasattr(clock, attr)
        with clock.cpu_section():
            pass
