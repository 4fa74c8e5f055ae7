"""Benchmark harness reproducing the paper's evaluation (section 5).

* **E1** — join overhead (the 81.76% number): :func:`join_overhead`
* **E2** — Figure 2, secureMsgPeer overhead vs data length:
  :func:`msg_overhead_curve`
* **A1-A4** — the DESIGN.md ablations.

``python -m repro.bench`` (or ``examples/overhead_study.py``) prints the
full report; ``benchmarks/`` wraps the same functions in pytest-benchmark
targets.  The named experiments (E-FAULT, E-FED, E-GROUP, E-HOTPATH,
E-MSGFAST, E-SCALE) are :class:`~repro.bench.experiment.Experiment`
records run by ``python -m repro.bench --experiment NAME``, which writes
``benchmarks/out/BENCH_<NAME>.json`` and gates it against its committed
baseline in ``benchmarks/baselines/`` when it declares gates.
"""

from repro.bench.experiments import (
    baseline_comparison,
    group_scaling,
    join_overhead,
    msg_overhead_curve,
    policy_ablation,
)
from repro.bench.report import (
    format_baselines,
    format_group_scaling,
    format_join_overhead,
    format_msg_overhead,
    format_policy_ablation,
)

__all__ = [
    "baseline_comparison",
    "format_baselines",
    "format_group_scaling",
    "format_join_overhead",
    "format_msg_overhead",
    "format_policy_ablation",
    "group_scaling",
    "join_overhead",
    "msg_overhead_curve",
    "policy_ablation",
]
