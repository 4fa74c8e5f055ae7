"""Shared fixtures for the bench suite.

``run_cli`` drives ``python -m repro.bench --experiment NAME --quick``
(through :func:`repro.bench.__main__.main`) on a stand-in document
instead of a real run, from a scratch directory that holds its own
``benchmarks/baselines/``, so the exit code and the printed verdict of
the one CLI can be checked without running an experiment.
"""

from __future__ import annotations

import dataclasses
import json
from types import SimpleNamespace

import pytest

from repro.bench import __main__ as cli
from repro.bench.experiment import BASELINE_DIR, Experiment, bench_path, write_bench


@pytest.fixture
def run_cli(monkeypatch, tmp_path, capsys):
    """``run_cli(experiment, fresh, baseline=None, plain_format=False)``.

    Registers ``experiment`` with ``run`` replaced by one returning
    ``fresh``, commits ``baseline`` (if given) as its baseline under
    ``tmp_path``, runs the CLI there and returns ``code``, ``out`` and the
    ``written`` document.  ``plain_format`` swaps the experiment's own
    report for a one-liner, for synthetic documents it cannot render.
    """
    monkeypatch.chdir(tmp_path)

    def run(experiment: Experiment, fresh: dict, baseline: dict | None = None,
            plain_format: bool = False) -> SimpleNamespace:
        stub = dataclasses.replace(experiment, run=lambda quick: fresh)
        if plain_format:
            stub = dataclasses.replace(stub, format=lambda data: "report")
        monkeypatch.setitem(cli.EXPERIMENTS, experiment.name, stub)
        if baseline is not None:
            write_bench(experiment.name, baseline, BASELINE_DIR)
        code = cli.main(["--experiment", experiment.name, "--quick"])
        written = json.loads(
            (tmp_path / bench_path(experiment.name)).read_text(encoding="utf-8"))
        return SimpleNamespace(code=code, out=capsys.readouterr().out,
                               written=written)

    return run
