"""One record per named experiment, with its regression gates as data.

An :class:`Experiment` names a runner (``run(quick) -> dict``), the
experiment's own ``format`` and the :class:`Gate` rows that hold a fresh
document to its committed baseline.  :func:`compare` is the one
comparator and :func:`write_bench` the one writer of ``BENCH_*.json``;
``python -m repro.bench --experiment NAME`` drives them.

Fresh documents are build artifacts and go to ``benchmarks/out/``
(gitignored).  The committed baselines live in ``benchmarks/baselines/``
under the same file name, so an experiment's name is all that locates
its reference run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Union

#: fresh benchmark documents (gitignored build artifacts)
OUT_DIR = Path("benchmarks") / "out"

#: committed regression baselines (the gates' reference side)
BASELINE_DIR = Path("benchmarks") / "baselines"

#: every gate's tolerance: a 20 % move past the baseline fails
TOLERANCE = 0.20

#: a row field, or a function of the row for a derived quantity
Quantity = Union[str, Callable[[dict], float]]


@dataclass(frozen=True)
class Gate:
    """One gated quantity of a benchmark document.

    ``rows`` names the list whose rows are gated, paired between fresh
    and baseline by their ``key`` fields; ``None`` gates the document's
    top level.  ``only`` restricts the gate to one baseline row.  The
    ``direction`` is ``"max"`` (a ceiling at baseline × (1 + TOLERANCE)),
    ``"min"`` (a floor at baseline × (1 − TOLERANCE)) or ``"exact"``.
    """

    quantity: Quantity
    direction: str
    rows: str | None = None
    key: tuple[str, ...] = ()
    only: tuple | None = None

    @property
    def name(self) -> str:
        if isinstance(self.quantity, str):
            return self.quantity
        return self.quantity.__name__

    def value(self, row: dict):
        if isinstance(self.quantity, str):
            return row.get(self.quantity)
        return self.quantity(row)

    def bound(self, base: float) -> float:
        """The limit a fresh value is held to, given the baseline's."""
        if self.direction == "max":
            return base * (1.0 + TOLERANCE)
        if self.direction == "min":
            return base * (1.0 - TOLERANCE)
        return base

    def holds(self, value: float, base: float) -> bool:
        bound = self.bound(base)
        if self.direction == "max":
            return value <= bound
        if self.direction == "min":
            return value >= bound
        return value == bound

    def select(self, document: dict) -> dict[tuple, dict] | None:
        """The gated rows by key, or ``None`` when the section is absent."""
        if self.rows is None:
            return {(): document}
        section = document.get(self.rows)
        if not section:
            return None
        return {tuple(row[k] for k in self.key): row for row in section}

    def label(self, key: tuple) -> str:
        if self.rows is None:
            return self.name
        fields = ", ".join(f"{k}={v}" for k, v in zip(self.key, key))
        return f"{self.rows}[{fields}] {self.name}"

    def check(self, fresh: dict, baseline: dict) -> list[str]:
        """Problems (empty = pass) of this gate on one document pair."""
        base_rows = self.select(baseline)
        if base_rows is None:
            return [f"baseline document has no {self.rows} section"]
        if self.only is not None:
            if self.only not in base_rows:
                return [f"baseline document has no {self.label(self.only)}"]
            base_rows = {self.only: base_rows[self.only]}
        fresh_rows = self.select(fresh) or {}
        problems = []
        for key, base_row in sorted(base_rows.items()):
            base = self.value(base_row)
            row = fresh_rows.get(key)
            value = None if row is None else self.value(row)
            if base is None:
                problems.append(f"baseline document has no {self.label(key)}")
            elif value is None:
                problems.append(f"{self.label(key)}: missing from fresh run")
            elif not self.holds(value, base):
                problems.append(
                    f"{self.label(key)}: {value:g} breaks the {self.direction} "
                    f"bound {self.bound(base):g} (baseline {base:g})")
        return problems


@dataclass(frozen=True)
class Experiment:
    """A named experiment: how to run it, print it and gate it."""

    name: str
    run: Callable[[bool], dict]
    format: Callable[[dict], str]
    gates: tuple[Gate, ...] = ()

    @property
    def baseline_path(self) -> Path:
        return bench_path(self.name, BASELINE_DIR)

    def baseline(self) -> dict | None:
        """The committed baseline document, if this experiment has one."""
        if not self.baseline_path.exists():
            return None
        return json.loads(self.baseline_path.read_text(encoding="utf-8"))


def compare(fresh: dict, baseline: dict | None,
            gates: tuple[Gate, ...] = ()) -> list[str]:
    """Problems (empty = pass): the fresh document's own acceptance
    checks, then every gate against ``baseline`` when there is one.

    A document without a ``checks`` section declares no acceptance
    checks; against a baseline that counts as a failure.
    """
    problems = []
    checks = fresh.get("checks")
    if checks is None:
        if baseline is not None:
            problems.append("fresh run has no checks section")
    elif not checks.get("all_passed"):
        failed = sorted(k for k, v in checks.items()
                        if v is False and k != "all_passed")
        problems.append(f"fresh run failed its own checks: {failed}")
    if baseline is not None:
        for gate in gates:
            problems += gate.check(fresh, baseline)
    return list(dict.fromkeys(problems))


def bench_path(name: str, directory: Path = OUT_DIR) -> Path:
    """``<directory>/BENCH_<NAME>.json``, the one naming rule for
    benchmark documents and their baselines."""
    return directory / f"BENCH_{name.upper()}.json"


def write_bench(name: str, data: dict, directory: Path = OUT_DIR) -> Path:
    """Write ``data`` as ``<directory>/BENCH_<NAME>.json``."""
    directory.mkdir(parents=True, exist_ok=True)
    out = bench_path(name, directory)
    out.write_text(json.dumps(data, indent=2, sort_keys=True, default=str)
                   + "\n", encoding="utf-8")
    return out
