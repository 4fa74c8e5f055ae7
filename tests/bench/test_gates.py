"""Every declared regression gate, driven from its committed baseline.

One table: for each experiment's :class:`~repro.bench.experiment.Gate`
rows, perturb a copy of ``benchmarks/baselines/BENCH_<NAME>.json`` and
check the comparator's verdict.  A ceiling or floor must pass at its
bound and fail one float step past it; an exact quantity must fail on
any change; a missing row or an absent baseline section must fail; a
row outside a gate's ``only`` selector is not gated; and a failed or
missing acceptance check fails whatever the numbers say.  The CLI
tests check that ``--experiment NAME`` turns those verdicts into its
exit code, and that a gated experiment without a baseline fails.
"""

from __future__ import annotations

import copy
import json
import math
from pathlib import Path

import pytest

from repro.bench import scale
from repro.bench.__main__ import EXPERIMENTS
from repro.bench.experiment import BASELINE_DIR, Experiment, Gate, compare

REPO = Path(__file__).resolve().parents[2]

GATED = [e for e in EXPERIMENTS.values() if e.gates]

_WIRE = ("wire_sweep", ("mode", "load"), None)
_CAST = [(sweep, ("group_size", "brokers"), None)
         for sweep in ("size_sweep", "broker_sweep")]
_PHASE = ("phases", ("name",), None)

#: every declared gate as (rows, key, only, quantity, direction); the
#: tolerance is 20 % for all of them
SPEC = {
    "msgfast": {_WIRE + ("bytes_per_msg", "max"),
                _WIRE + ("frames_per_unit", "min"),
                _WIRE + ("msgs_per_sec", "min")},
    "group": {cell + (quantity, direction) for cell in _CAST
              for quantity, direction in (
                  ("sender_frames_per_cast", "max"),
                  ("sender_bytes_per_cast", "max"),
                  ("rsa_ops_per_cast", "max"),
                  ("delivered_per_cast", "exact"),
                  ("relayed_per_cast", "exact"))},
    "scale": {(None, (), None, "brokers", "exact"),
              (None, (), None, "population", "exact"),
              _PHASE + ("frames_sent", "max"),
              ("phases", ("name",), ("siege",), "reject_total", "min")},
    "hotpath": {("layers", ("layer",), ("+secure resumed",), "x_vs_plain",
                 "max")},
}


def load_baseline(experiment: Experiment) -> dict:
    path = REPO / experiment.baseline_path
    return json.loads(path.read_text(encoding="utf-8"))


def set_value(gate: Gate, row: dict, value) -> None:
    """Make ``gate``'s quantity read ``value`` on ``row``."""
    if isinstance(gate.quantity, str):
        row[gate.quantity] = value
    elif gate.quantity is scale.frames_sent:
        row["goodput"]["frames_sent"] = value
    elif gate.quantity is scale.reject_total:
        row["rejects"] = {"wire": {"wire.reject.perturbed": value}}
    else:
        raise AssertionError(f"no setter for derived quantity {gate.name}")


def drop(gate: Gate, document: dict, key: tuple) -> None:
    """Remove the row ``key`` (or a top-level field) from ``document``."""
    if gate.rows is None:
        del document[gate.quantity]
    else:
        document[gate.rows] = [
            row for row in document[gate.rows]
            if tuple(row[k] for k in gate.key) != key]


def probes(gate: Gate, base) -> list[tuple[object, bool]]:
    """(value, should pass) pairs at and around the gate's bound."""
    if gate.direction == "exact":
        if isinstance(base, int):
            return [(base, True), (base + 1, False), (base - 1, False)]
        return [(base, True), (math.nextafter(base, math.inf), False),
                (math.nextafter(base, -math.inf), False)]
    outward = math.inf if gate.direction == "max" else -math.inf
    bound = base * (1.0 + 0.20) if gate.direction == "max" else base * (1.0 - 0.20)
    return [(bound, True), (math.nextafter(bound, -outward), True),
            (math.nextafter(bound, outward), False)]


def variants(experiment: Experiment, gate: Gate):
    """(label, fresh, baseline, should pass) for one declared gate."""
    base = load_baseline(experiment)
    rows = gate.select(base)
    keys = [gate.only] if gate.only is not None else sorted(rows)
    for key in keys:
        for value, ok in probes(gate, gate.value(rows[key])):
            fresh = copy.deepcopy(base)
            set_value(gate, gate.select(fresh)[key], value)
            yield f"{gate.label(key)} = {value!r}", fresh, base, ok
        fresh = copy.deepcopy(base)
        drop(gate, fresh, key)
        yield f"{gate.label(key)} missing", fresh, base, False
    for key in sorted(set(rows) - set(keys)):
        fresh = copy.deepcopy(base)
        set_value(gate, gate.select(fresh)[key], 2 * gate.value(rows[key]) + 1)
        yield f"{gate.label(key)} moved, not gated", fresh, base, True
    broken = copy.deepcopy(base)
    if gate.rows is None:
        del broken[gate.quantity]
    else:
        del broken[gate.rows]
    yield f"baseline without {gate.rows or gate.name}", base, broken, False


def _gate_id(case) -> str:
    experiment, gate = case
    return f"{experiment.name}:{gate.rows or 'top'}.{gate.name}"


CASES = [(e, g) for e in GATED for g in e.gates]


@pytest.mark.parametrize("experiment, gate", CASES,
                         ids=[_gate_id(case) for case in CASES])
def test_gate_verdicts(experiment, gate):
    wrong = []
    for label, fresh, baseline, should_pass in variants(experiment, gate):
        problems = compare(fresh, baseline, experiment.gates)
        if (problems == []) != should_pass:
            wrong.append(f"{label}: expected "
                         f"{'pass' if should_pass else 'fail'}, got {problems}")
    assert wrong == []


@pytest.mark.parametrize("experiment", GATED, ids=lambda e: e.name)
class TestPerExperiment:
    def test_baseline_passes_against_itself(self, experiment):
        baseline = load_baseline(experiment)
        assert compare(baseline, baseline, experiment.gates) == []

    def test_failed_acceptance_check_fails(self, experiment):
        baseline = load_baseline(experiment)
        fresh = copy.deepcopy(baseline)
        fresh["checks"]["all_passed"] = False
        problems = compare(fresh, baseline, experiment.gates)
        assert any("its own checks" in p for p in problems)

    def test_missing_checks_section_fails(self, experiment):
        baseline = load_baseline(experiment)
        fresh = copy.deepcopy(baseline)
        del fresh["checks"]
        assert compare(fresh, baseline, experiment.gates) != []


def test_declared_gates_match_the_spec():
    declared = {
        e.name: {(g.rows, g.key, g.only, g.name, g.direction) for g in e.gates}
        for e in GATED}
    assert declared == SPEC
    assert all(len(e.gates) == len(SPEC[e.name]) for e in GATED)


def test_every_gated_experiment_has_a_baseline_and_vice_versa():
    committed = {p.name for p in (REPO / BASELINE_DIR).glob("BENCH_*.json")}
    assert committed == {e.baseline_path.name for e in GATED}


def test_ungated_run_is_judged_by_its_checks_alone():
    assert compare({"checks": {"all_passed": True}}, None) == []
    assert compare({"experiment": "no checks"}, None) == []
    failed = {"checks": {"all_passed": False, "crash_recovered": False}}
    assert compare(failed, None) == [
        "fresh run failed its own checks: ['crash_recovered']"]


@pytest.mark.parametrize("experiment", GATED, ids=lambda e: e.name)
class TestCli:
    def test_exit_codes(self, experiment, run_cli):
        """0 on the baseline itself; 1 on a failed check or a regression."""
        baseline = load_baseline(experiment)
        result = run_cli(experiment, baseline, baseline)
        assert result.code == 0, result.out
        assert result.written == baseline
        assert f"gates vs {experiment.baseline_path}: pass" in result.out

        failed = copy.deepcopy(baseline)
        failed["checks"]["all_passed"] = False
        result = run_cli(experiment, failed)
        assert result.code == 1
        assert "FAIL: fresh run failed its own checks" in result.out

        gate = experiment.gates[0]
        # the first failing variant is the probe one step past the bound
        label, regressed = next(
            (label, fresh) for label, fresh, _, ok
            in variants(experiment, gate) if not ok)
        result = run_cli(experiment, regressed)
        assert result.code == 1, label
        assert any(line.startswith("  FAIL: ") and gate.name in line
                   for line in result.out.splitlines()), result.out

    def test_missing_baseline_fails(self, experiment, run_cli):
        result = run_cli(experiment, load_baseline(experiment))
        assert result.code == 1
        assert (f"FAIL: no baseline at {experiment.baseline_path}"
                in result.out)


def test_cli_ungated_experiment_is_judged_by_its_checks(run_cli):
    ungated = next(e for e in EXPERIMENTS.values() if not e.gates)
    passed = {"checks": {"all_passed": True}}
    result = run_cli(ungated, passed, plain_format=True)
    assert result.code == 0 and "  checks: pass" in result.out
    failed = {"checks": {"all_passed": False, "recovered": False}}
    result = run_cli(ungated, failed, plain_format=True)
    assert result.code == 1
    assert "FAIL: fresh run failed its own checks: ['recovered']" in result.out
