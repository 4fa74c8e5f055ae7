"""E-HOTPATH harness: stage timings, the layer ladder, gates and tables."""

from __future__ import annotations

import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.bench import profile
from repro.crypto import aead, resume

REPO = Path(__file__).resolve().parents[2]


def _tiny_document(ratio: float = 5.0, all_passed: bool = True) -> dict:
    """A synthetic BENCH_HOTPATH document for gate/table unit tests;
    ``ratio`` is the gated layer's cost over ``plain``."""
    def row(layer: str, ms: float) -> dict:
        return {"layer": layer, "msgs_per_sec": 1e3 / ms, "ms_per_msg": ms,
                "x_vs_plain": ms, "x_vs_plain_q1": ms * 0.9,
                "x_vs_plain_q3": ms * 1.1, "trials": 5, "messages": 5,
                "delivered": 5}

    return {
        "experiment": "E-HOTPATH",
        "layers": [row("plain", 1.0), row(profile.GATED_LAYER, ratio)],
        "checks": {"all_passed": all_passed,
                   "all_delivered": all_passed},
    }


class TestStages:
    def test_stage_report_shape(self):
        stages = profile.stage_report(repeats=40)
        names = [row["stage"] for row in stages]
        assert len(names) == len(set(names))
        for row in stages:
            assert set(row) == {"stage", "us"}
            assert row["us"] > 0

    def test_stage_report_covers_every_layer(self):
        stages = {row["stage"] for row in profile.stage_report(repeats=20)}
        for fragment in ("codec", "wire boundary", "ring", "obs counter",
                         "chacha20", "resume", "envelope"):
            assert any(fragment in stage for stage in stages), fragment


class TestLayerLadder:
    def test_ladder_rows_and_normalization(self):
        rows = profile.layer_ladder(messages=4, trials=3)
        assert [row["layer"] for row in rows] == [
            "plain", "+wire", "+obs", "+secure (stateless)",
            profile.GATED_LAYER]
        assert rows[0]["x_vs_plain"] == pytest.approx(1.0)
        for row in rows:
            assert row["trials"] == 3
            assert row["delivered"] == row["messages"] == 12
            assert row["x_vs_plain_q1"] <= row["x_vs_plain"] \
                <= row["x_vs_plain_q3"]
        # security dominates the ladder: secure rows cost multiples of plain
        assert rows[3]["x_vs_plain"] > 2.0
        assert profile.gated_ratio({"layers": rows}) == rows[4]["x_vs_plain"]


class TestRegressionGate:
    def test_equal_runs_pass(self):
        doc = _tiny_document()
        assert profile.check_regression(doc, doc) == []

    def test_regressed_speedup_fails(self):
        """The resumed path losing 21 % of its speed relative to plain."""
        baseline = _tiny_document(ratio=5.0)
        fresh = _tiny_document(ratio=5.0 * 1.21)  # just past the 20% band
        problems = profile.check_regression(fresh, baseline)
        assert any("regressed" in p for p in problems)

    def test_drop_within_tolerance_passes(self):
        baseline = _tiny_document(ratio=5.0)
        fresh = _tiny_document(ratio=5.0 * 1.15)
        assert profile.check_regression(fresh, baseline) == []

    def test_failed_checks_fail_the_gate(self):
        doc = _tiny_document(all_passed=False)
        problems = profile.check_regression(doc, doc)
        assert any("failed its own checks" in p for p in problems)

    def test_gate_cli(self, tmp_path):
        fresh = tmp_path / "fresh.json"
        base = tmp_path / "base.json"
        fresh.write_text(json.dumps(_tiny_document(5.5)))
        base.write_text(json.dumps(_tiny_document(5.0)))
        assert profile.gate(str(fresh), str(base)) == 0
        fresh.write_text(json.dumps(_tiny_document(7.5)))
        assert profile.gate(str(fresh), str(base)) == 1
        assert profile.gate(str(tmp_path / "missing.json"), str(base)) == 2

    def test_slowed_resumed_aead_trips_the_gate(self, monkeypatch):
        """A real ladder whose resumed frames pay five AEAD passes each
        fails against the committed baseline."""
        def slow(fn):
            def run(*args, **kwargs):
                for _ in range(4):
                    fn(*args, **kwargs)
                return fn(*args, **kwargs)
            return run

        monkeypatch.setattr(resume, "aead", SimpleNamespace(
            seal=slow(aead.seal), open_=slow(aead.open_)))
        rows = profile.layer_ladder(messages=10, trials=3)
        fresh = {"layers": rows, "checks": profile._checks(rows)}
        baseline = json.loads(
            (REPO / profile.BASELINE_PATH).read_text(encoding="utf-8"))
        problems = profile.check_regression(fresh, baseline)
        assert any("cost ratio regressed" in p for p in problems), problems


class TestLayerTableDocs:
    def test_render_round_trips_through_markers(self):
        doc = _tiny_document()
        table = profile.render_layer_table(doc)
        page = (f"# perf\n\n{profile.BEGIN_MARK}\n{table}{profile.END_MARK}\n")
        assert profile.embedded_section(page) == table

    def test_check_docs_detects_drift(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(_tiny_document()))
        doc = tmp_path / "PERF.md"
        table = profile.render_layer_table(_tiny_document())
        doc.write_text(
            f"# perf\n\n{profile.BEGIN_MARK}\n{table}{profile.END_MARK}\n")
        assert profile.check_docs(str(doc), str(baseline)) == 0
        # drift the baseline -> the embedded table no longer matches
        baseline.write_text(json.dumps(_tiny_document(ratio=3.0)))
        assert profile.check_docs(str(doc), str(baseline)) == 1
        # no marker section at all
        doc.write_text("# perf, no markers\n")
        assert profile.check_docs(str(doc), str(baseline)) == 2

    def test_update_docs_rewrites_section(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(_tiny_document(ratio=3.0)))
        doc = tmp_path / "PERF.md"
        doc.write_text(f"intro\n{profile.BEGIN_MARK}\nstale\n"
                       f"{profile.END_MARK}\noutro\n")
        assert profile.update_docs(str(doc), str(baseline)) == 0
        assert profile.check_docs(str(doc), str(baseline)) == 0
        text = doc.read_text()
        assert text.startswith("intro\n") and text.endswith("outro\n")


class TestCommittedArtifacts:
    """The repo's own baseline and docs must satisfy the gates."""

    def test_committed_baseline_passes_its_checks(self):
        baseline = json.loads(
            (REPO / profile.BASELINE_PATH).read_text(encoding="utf-8"))
        assert baseline["checks"]["all_passed"]
        assert profile.check_regression(baseline, baseline) == []

    def test_performance_doc_matches_committed_baseline(self):
        assert profile.check_docs(
            str(REPO / profile.PERFORMANCE_DOC),
            str(REPO / profile.BASELINE_PATH)) == 0
