"""E-GROUP harness: cell sanity, the declared gates' failure modes."""

from __future__ import annotations

import copy

from repro.bench.experiment import compare
from repro.bench.group import EXPERIMENT, _cast_cell


def small_doc():
    cell = _cast_cell(4, 1, messages=2)
    data = {
        "experiment": "E-GROUP",
        "size_sweep": [dict(cell.__dict__)],
        "broker_sweep": [dict(cell.__dict__)],
        "checks": {"all_passed": True},
    }
    return data


class TestCastCell:
    def test_small_cell_is_o1(self):
        cell = _cast_cell(4, 1, messages=2)
        assert cell.sender_frames_per_cast == 1.0
        assert cell.epoch_seals_per_cast == 1.0
        assert cell.delivered_per_cast == 3.0
        assert cell.relayed_per_cast == 0.0

    def test_relay_counts_ring_minus_one(self):
        cell = _cast_cell(4, 2, messages=2)
        assert cell.relayed_per_cast == 1.0
        assert cell.delivered_per_cast == 3.0


def check_group_regression(fresh, baseline):
    return compare(fresh, baseline, EXPERIMENT.gates)


class TestRegressionGate:
    def test_identical_docs_pass(self):
        doc = small_doc()
        assert check_group_regression(doc, copy.deepcopy(doc)) == []

    def test_frame_growth_fails(self):
        base = small_doc()
        fresh = copy.deepcopy(base)
        fresh["size_sweep"][0]["sender_frames_per_cast"] = 2.0
        problems = check_group_regression(fresh, base)
        assert any("sender_frames_per_cast" in p for p in problems)

    def test_delivery_count_is_exact(self):
        base = small_doc()
        fresh = copy.deepcopy(base)
        fresh["size_sweep"][0]["delivered_per_cast"] -= 1.0
        problems = check_group_regression(fresh, base)
        assert any("delivered_per_cast" in p for p in problems)

    def test_missing_cell_fails(self):
        base = small_doc()
        fresh = copy.deepcopy(base)
        fresh["size_sweep"] = []
        problems = check_group_regression(fresh, base)
        assert any("missing" in p for p in problems)

    def test_fresh_self_check_failure_fails(self):
        base = small_doc()
        fresh = copy.deepcopy(base)
        fresh["checks"] = {"all_passed": False, "o1_rsa_flat": False}
        problems = check_group_regression(fresh, base)
        assert any("its own checks" in p for p in problems)

    def test_gate_cli_roundtrip(self, run_cli):
        """``--experiment group`` writes the run and exits 0 on a pass,
        1 on a failed self-check."""
        doc = small_doc()
        result = run_cli(EXPERIMENT, doc, doc, plain_format=True)
        assert result.code == 0, result.out
        assert result.written == doc
        failed = copy.deepcopy(doc)
        failed["checks"] = {"all_passed": False, "o1_rsa_flat": False}
        result = run_cli(EXPERIMENT, failed, plain_format=True)
        assert result.code == 1
        assert ("FAIL: fresh run failed its own checks: ['o1_rsa_flat']"
                in result.out)
