"""``python -m repro.bench``: run every experiment and print the report.

``--experiment NAME`` runs one named experiment (see
:data:`EXPERIMENTS`), writes ``benchmarks/out/BENCH_<NAME>.json`` and
exits nonzero if its acceptance checks fail or if a declared gate
regresses against ``benchmarks/baselines/BENCH_<NAME>.json`` (a gated
experiment without that file fails too); ``--quick`` shrinks every experiment for CI smoke
runs.

* ``fault`` — E-FAULT: fault-injection sweep + broker-crash recovery.
* ``fed`` — E-FED: sharded-federation sweep.
* ``group`` — E-GROUP: broker-mediated group cast vs the iterated
  fan-out (O(1) sender cost, relay amplification).
* ``hotpath`` — E-HOTPATH: per-stage hot-path timings and the layer-cost
  ladder whose resumed/plain cost ratio is gated.
* ``msgfast`` — E-MSGFAST: secure-messaging fast-path sweeps.
* ``scale`` — E-SCALE: the scenario-engine population experiment
  (churn storm + Sybil flood + eclipse + frame storm over an 8-broker
  ring).

``--check-docs [DOC]`` / ``--update-docs [DOC]`` check or regenerate the
layer-cost table in ``docs/PERFORMANCE.md`` from the committed hotpath
baseline; ``--cprofile [N]`` profiles N steady-state secure sends.
"""

from __future__ import annotations

import argparse
import sys

from repro.bench import experiments as ex
from repro.bench import faults, federation, group, msgfast, profile, report, scale
from repro.bench.experiment import Experiment, compare, write_bench
from repro.bench.figures import render_figure2

#: ``--experiment`` name -> record.  The README quickstart lists these
#: names; ``tests/bench/test_experiment_registry.py`` keeps the two in
#: sync (same drift-gate idea as the PROTOCOLS.md frame catalogue).
EXPERIMENTS: dict[str, Experiment] = {
    module.EXPERIMENT.name: module.EXPERIMENT
    for module in (faults, federation, group, profile, msgfast, scale)
}


def run_experiment(experiment: Experiment, quick: bool) -> int:
    """Run, print and write one experiment; 1 if it fails a check or gate."""
    data = experiment.run(quick)
    print(experiment.format(data))
    print(f"  wrote {write_bench(experiment.name, data)}")
    baseline = experiment.baseline()
    problems = compare(data, baseline, experiment.gates)
    if experiment.gates and baseline is None:
        problems.append(f"no baseline at {experiment.baseline_path} for a "
                        "gated experiment (run from the repository root)")
    against = "" if baseline is None else f" + gates vs {experiment.baseline_path}"
    print(f"  checks{against}: {'FAIL' if problems else 'pass'}")
    for problem in problems:
        print(f"  FAIL: {problem}")
    return 1 if problems else 0


def run_report(quick: bool) -> int:
    """The §5 report: E1, E2/Figure 2, A2-A4 and E-OBS."""
    print(report.format_join_overhead(ex.join_overhead(repeats=2 if quick else 3)))
    print()
    sizes = (100, 1_000, 10_000, 100_000) if quick else (100, 1_000, 10_000, 100_000, 1_000_000)
    curve = ex.msg_overhead_curve(sizes=sizes, repeats=2 if quick else 3)
    print(report.format_msg_overhead(curve))
    print()
    print(render_figure2(curve))
    print()
    print(report.format_group_scaling(
        ex.group_scaling(group_sizes=(2, 4, 8) if quick else (2, 4, 8, 16))))
    print()
    counts = (1, 5, 10) if quick else (1, 2, 5, 10, 50)
    print(report.format_baselines(
        ex.baseline_comparison(message_counts=counts), size_bytes=1_000))
    print()
    print(report.format_policy_ablation(ex.policy_ablation()))
    print()
    obs_data = ex.obs_bench(repeats=3 if quick else 5)
    print(report.format_obs(obs_data))
    print(f"  wrote {write_bench('OBS', obs_data)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="the §5 report, or one named experiment and its gates")
    parser.add_argument("--quick", action="store_true",
                        help="shrink every experiment for a smoke run")
    verb = parser.add_mutually_exclusive_group()
    verb.add_argument("--experiment", metavar="NAME",
                      help="run one experiment: " + ", ".join(EXPERIMENTS))
    verb.add_argument("--check-docs", nargs="?", const=profile.PERFORMANCE_DOC,
                      metavar="DOC",
                      help="verify the generated layer table in DOC "
                           "against the committed hotpath baseline")
    verb.add_argument("--update-docs", nargs="?", const=profile.PERFORMANCE_DOC,
                      metavar="DOC",
                      help="rewrite the generated layer table in DOC from "
                           "the committed hotpath baseline")
    verb.add_argument("--cprofile", nargs="?", const=300, type=int,
                      metavar="N", help="profile N steady-state sends")
    args = parser.parse_args(argv)
    if args.check_docs:
        return profile.check_docs(args.check_docs)
    if args.update_docs:
        return profile.update_docs(args.update_docs)
    if args.cprofile:
        return profile.run_cprofile(args.cprofile)
    if args.experiment is None:
        return run_report(args.quick)
    experiment = EXPERIMENTS.get(args.experiment)
    if experiment is None:
        known = ", ".join(sorted(EXPERIMENTS))
        print(f"unknown experiment {args.experiment!r}; known: {known}",
              file=sys.stderr)
        return 2
    return run_experiment(experiment, args.quick)


if __name__ == "__main__":
    raise SystemExit(main())
