"""The benchmark harness itself: timing maths, fixtures, small experiments.

These run the real experiments at miniature scale so they stay fast; the
full-scale runs live in ``benchmarks/``.
"""

import pytest

from repro import obs
from repro.bench import fixtures
from repro.bench.timing import (
    PAIRED_BEST_OF,
    OpTiming,
    fastest_interleaved,
    mean_total,
    overhead_pct,
    paired_timed,
    timed_call,
)
from repro.core.policy import SecurityPolicy
from repro.crypto import envelope
from repro.sim import SimNetwork, VirtualClock

FAST_POLICY = SecurityPolicy(rsa_bits=512,
                             envelope_wrap=envelope.WRAP_V15).validate()


class TestTimingMath:
    def test_total_combines_cpu_and_network(self):
        t = OpTiming(wall_cpu_s=0.010, network_s=0.002, cpu_scale=2.0)
        assert t.total_s == pytest.approx(0.022)

    def test_overhead_pct(self):
        assert overhead_pct(1.8176, 1.0) == pytest.approx(81.76)
        assert overhead_pct(1.0, 1.0) == pytest.approx(0.0)

    def test_overhead_requires_positive_baseline(self):
        with pytest.raises(ValueError):
            overhead_pct(1.0, 0.0)

    def test_mean_total(self):
        ts = [OpTiming(0.001, 0.001, 1.0), OpTiming(0.003, 0.001, 1.0)]
        assert mean_total(ts) == pytest.approx(0.003)
        assert mean_total([]) == 0.0

    def test_timed_call_splits_costs(self):
        net = SimNetwork(clock=VirtualClock())
        net.register("dst", lambda f: None)
        timing = timed_call(net, lambda: net.send("src", "dst", b"x" * 1000))
        assert timing.network_s > 0
        assert timing.wall_cpu_s >= 0

    def test_paired_timed_alternates_and_keeps_the_fastest(self):
        net = SimNetwork(clock=VirtualClock())
        net.register("dst", lambda f: None)
        calls = []
        # the network model makes a 100 kB frame far slower than a 1 B one;
        # after one warm-up call each, one timed call per side sends 1 B
        a_sizes = [9] + [100_000] * PAIRED_BEST_OF
        b_sizes = [9] + [50_000] * PAIRED_BEST_OF
        a_sizes[2] = b_sizes[-1] = 1
        sizes = {"a": iter(a_sizes), "b": iter(b_sizes)}

        def op(side):
            def send():
                calls.append(side)
                net.send("src", "dst", b"x" * next(sizes[side]))
            return send

        saved = obs.get_registry()
        registry = obs.set_registry(obs.Registry(enabled=True))
        try:
            kept_a, kept_b = paired_timed((net, op("a")), (net, op("b")),
                                          repeats=1, names=("pair.a", None))
        finally:
            obs.set_registry(saved)
        assert calls == ["a", "b"] * (1 + PAIRED_BEST_OF)
        small = timed_call(net, lambda: net.send("src", "dst", b"x"))
        assert len(kept_a) == len(kept_b) == 1
        assert kept_a[0].network_s == pytest.approx(small.network_s)
        assert kept_b[0].network_s == pytest.approx(small.network_s)
        # only the kept sample is recorded
        assert registry.histogram("bench.pair.a.total_ms").count == 1

    def test_fastest_interleaved_takes_turns_and_keeps_the_fastest(self):
        net = SimNetwork(clock=VirtualClock())
        net.register("dst", lambda f: None)
        calls = []
        sizes = {"a": iter([100_000, 1, 50_000]), "b": iter([1, 100_000, 50_000])}

        def op(side):
            def send():
                calls.append(side)
                net.send("src", "dst", b"x" * next(sizes[side]))
            return (net, send)

        with obs.scope() as state:
            kept = fastest_interleaved([op("a"), op("b")], rounds=3,
                                       names=["fast.a", None])
        assert calls == ["a", "b"] * 3
        small = timed_call(net, lambda: net.send("src", "dst", b"x"))
        assert [t.network_s for t in kept] == [
            pytest.approx(small.network_s)] * 2
        assert state.registry.histogram("bench.fast.a.total_ms").count == 1
        assert state.registry.histogram("bench.fast.b.total_ms").count == 0


class TestFixtures:
    def test_cached_keypair_is_cached(self):
        a = fixtures.cached_keypair(512, "t")
        b = fixtures.cached_keypair(512, "t")
        assert a is b

    def test_plain_world_builds(self):
        net, broker, clients = fixtures.build_plain_world(n_clients=2)
        fixtures.join_plain(clients)
        assert all(c.username for c in clients)
        assert len(broker.connected) == 2

    def test_secure_world_joined(self):
        net, admin, broker, clients = fixtures.build_secure_world(
            n_clients=2, policy=FAST_POLICY, joined=True)
        assert all(c.username for c in clients)
        assert all(c.keystore.chain for c in clients)


class TestMiniExperiments:
    def test_join_overhead_positive(self):
        from repro.bench.experiments import join_overhead

        result = join_overhead(policy=FAST_POLICY, repeats=1)
        assert result.secure_s > result.plain_s > 0
        assert result.overhead_pct > 0

    def test_msg_curve_shape(self):
        from repro.bench.experiments import msg_overhead_curve

        curve = msg_overhead_curve(sizes=(100, 100_000), policy=FAST_POLICY,
                                   repeats=1)
        assert len(curve.points) == 2
        # Figure 2's qualitative shape: big messages cost relatively less
        assert curve.points[-1].overhead_pct < curve.points[0].overhead_pct

    def test_group_scaling_grows_with_members(self):
        from repro.bench.experiments import group_scaling

        points = group_scaling(group_sizes=(2, 4), policy=FAST_POLICY)
        assert points[1].secure_s > points[0].secure_s

    def test_baseline_comparison_runs(self):
        from repro.bench.experiments import baseline_comparison

        points = baseline_comparison(message_counts=(1, 5),
                                     policy=FAST_POLICY)
        assert all(p.stateless_s > 0 and p.tls_s > 0 and p.cbjx_s > 0
                   for p in points)
        # stateless grows linearly; TLS amortizes its handshake
        stateless_growth = points[1].stateless_s / points[0].stateless_s
        tls_growth = points[1].tls_s / points[0].tls_s
        assert stateless_growth > tls_growth


class TestPaperPrimitivesPayRsa:
    """A3 and A4 time the paper's stateless primitive, whatever policy
    they are handed: every timed secure send pays its RSA."""

    @pytest.fixture()
    def private_ops(self, monkeypatch):
        """``crypto.rsa.private_op`` delta of each timed call, by the
        call's sample name (or the timed function's name)."""
        from repro.bench import experiments, timing

        real = timing.timed_call
        counts: dict[str, list[int]] = {}

        def counting(network, fn, cpu_scale=1.0, name=None):
            registry = obs.get_registry()
            before = registry.count("crypto.rsa.private_op")
            result = real(network, fn, cpu_scale, name=name)
            counts.setdefault(name or fn.__name__, []).append(
                registry.count("crypto.rsa.private_op") - before)
            return result

        monkeypatch.setattr(timing, "timed_call", counting)
        monkeypatch.setattr(experiments, "timed_call", counting)
        with obs.scope():
            yield counts

    def test_a4_stateless_signs_and_unwraps_every_message(self, private_ops):
        from repro.bench.experiments import A4_BEST_OF, baseline_comparison

        baseline_comparison(message_counts=(5,),
                            policy=FAST_POLICY.with_(enable_resumption=True))
        assert private_ops["stateless_run"] == [10] * A4_BEST_OF

    def test_a3_iterated_send_signs_and_unwraps_per_member(self, private_ops):
        from repro.bench.experiments import group_scaling

        group_scaling(group_sizes=(4,), policy=FAST_POLICY.with_(
            enable_resumption=True, enable_seal_many=True))
        # two timed group sends, each to 3 members
        assert private_ops["a3.secure_group.4"] == [6, 6]


class TestReportFormatting:
    def test_join_report_mentions_paper_number(self):
        from repro.bench.experiments import JoinOverheadResult
        from repro.bench.report import format_join_overhead

        text = format_join_overhead(JoinOverheadResult(
            plain_s=0.01, secure_s=0.018176, overhead_pct=81.76))
        assert "81.76" in text

    def test_msg_report_flags_shape(self):
        from repro.bench.experiments import MsgOverheadCurve, MsgOverheadPoint
        from repro.bench.report import format_msg_overhead

        curve = MsgOverheadCurve(points=[
            MsgOverheadPoint(100, 0.001, 0.01, 900.0),
            MsgOverheadPoint(10_000, 0.01, 0.03, 200.0),
        ])
        assert "matches Figure 2" in format_msg_overhead(curve)

    def test_baselines_report_names_winner(self):
        from repro.bench.experiments import BaselineComparisonPoint
        from repro.bench.report import format_baselines

        text = format_baselines([BaselineComparisonPoint(5, 0.05, 0.03, 0.01)],
                                size_bytes=100)
        assert "cbjx" in text
