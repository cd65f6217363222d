"""Command-line entry point: regenerate any (or every) table and figure.

Usage::

    python -m repro.experiments.runner --list
    python -m repro.experiments.runner fig10 fig15
    python -m repro.experiments.runner --all --full --jobs 4
    python -m repro.experiments.runner serving --fast --batch-grid 1,4,16
    python -m repro.experiments.runner serving --arrival poisson:0.1 \
        --admission optimistic --prefill-chunk 512
    python -m repro.experiments.runner serving --nodes 4 --router jsq \
        --arrival poisson:0.1
    python -m repro.experiments.runner serving --nodes 4 --router jsq \
        --arrival poisson:0.1 --faults spot:900:60
    python -m repro.experiments.runner serving --nodes 2 --router jsq \
        --arrival poisson:0.2 --overload retry:32
    python -m repro.experiments.runner serving --autoscale auto:1:4:8:60 \
        --arrival poisson:0.2
    python -m repro.experiments.runner --prewarm --jobs 8
    python -m repro.experiments.runner fig10 --symmetry full

Independent experiments fan out across worker processes with ``--jobs N``;
results print in request order as soon as each is ready.  Serving-specific
knobs (calibration grids, calibration store directory) pass through to any
experiment whose ``run()`` accepts them.  ``--prewarm`` measures the
serving systems' missing calibration cells across ``--jobs`` processes
before (or instead of) running experiments; ``--symmetry`` forces the
simulation substrate mode for experiments that accept it ("auto" folds
homogeneous device arrays to representative devices and stops simulating
a decode step's layers once their state repeats, "full" simulates every
device and every layer).
"""

from __future__ import annotations

import argparse
import inspect
import sys
import time
from concurrent.futures import ProcessPoolExecutor

from repro.experiments import (
    discussion_future_csd,
    estimator_correlation,
    fig02_motivation,
    fig04_ans_breakdown,
    fig10_throughput,
    fig11_batch_sensitivity,
    fig12_model_arch,
    fig13_spill_alpha,
    fig14_output_length,
    fig15_ablation,
    fig16_cost_endurance,
    fig17_energy_multinode,
    fig18_accuracy,
    kvtier_sweep,
    serving_throughput,
    table3_resources,
)
from repro.experiments.harness import format_tables

EXPERIMENTS = {
    "fig2": fig02_motivation,
    "fig4": fig04_ans_breakdown,
    "fig10": fig10_throughput,
    "fig11": fig11_batch_sensitivity,
    "fig12": fig12_model_arch,
    "fig13": fig13_spill_alpha,
    "fig14": fig14_output_length,
    "fig15": fig15_ablation,
    "fig16": fig16_cost_endurance,
    "fig17": fig17_energy_multinode,
    "fig18": fig18_accuracy,
    "table3": table3_resources,
    "estimator": estimator_correlation,
    "future-csd": discussion_future_csd,
    "serving": serving_throughput,
    "kvtiers": kvtier_sweep,
}

def _supported_kwargs(module, kwargs: dict) -> dict:
    """The subset of ``kwargs`` that ``module.run`` actually accepts."""
    params = inspect.signature(module.run).parameters
    return {key: value for key, value in kwargs.items() if key in params}


def _run_experiment_job(name: str, fast: bool, kwargs: dict) -> tuple[str, str, float]:
    """Worker body: run one experiment, return its rendered tables.

    Top-level (picklable) so ``--jobs`` can dispatch it to worker
    processes; also used inline for sequential runs so both paths share
    one code path for kwarg filtering and formatting.
    """
    module = EXPERIMENTS[name]
    started = time.time()
    tables = module.run(fast=fast, **_supported_kwargs(module, kwargs))
    elapsed = time.time() - started
    return name, format_tables(tables), elapsed


def main(argv: list[str] | None = None) -> int:
    """Run the requested experiments and print their tables."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("experiments", nargs="*", help="experiment names (see --list)")
    parser.add_argument("--all", action="store_true", help="run every experiment")
    parser.add_argument("--full", action="store_true", help="paper-scale parameters")
    parser.add_argument(
        "--fast", action="store_true",
        help="fast parameters (the default; mutually exclusive with --full)",
    )
    parser.add_argument("--list", action="store_true", help="list experiment names")
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="run independent experiments across N worker processes",
    )
    parser.add_argument(
        "--symmetry", choices=("auto", "full", "representative"), default=None,
        help="simulation substrate mode for experiments that accept it "
        "(auto folds homogeneous device arrays to representative devices "
        "and repeating decode-step layers; full simulates every device and "
        "layer)",
    )
    parser.add_argument(
        "--prewarm", action="store_true",
        help="measure the serving systems' missing calibration cells across "
        "--jobs processes before (or instead of) running experiments",
    )
    serving_throughput.add_calibration_cli(parser)
    serving_throughput.add_serving_cli(parser)
    args = parser.parse_args(argv)
    if args.list:
        for name, module in EXPERIMENTS.items():
            doc = (module.__doc__ or "").strip().splitlines()[0]
            print(f"{name:10s} {doc}")
        return 0
    if args.fast and args.full:
        parser.error("--fast and --full are mutually exclusive")
    if args.jobs < 1:
        parser.error("--jobs must be at least 1")
    if args.prewarm and args.no_store:
        parser.error("--prewarm requires the persistent store (conflicts with --no-store)")
    names = list(EXPERIMENTS) if args.all else args.experiments
    if not names and not args.prewarm:
        parser.error("no experiments requested (use --all or --list)")
    for name in names:
        if name not in EXPERIMENTS:
            parser.error(f"unknown experiment {name!r} (use --list)")

    kwargs = serving_throughput.calibration_kwargs(parser, args)
    kwargs.update(serving_throughput.serving_kwargs(parser, args))
    if args.symmetry is not None:
        kwargs["symmetry"] = args.symmetry
    if kwargs and names and not any(
        _supported_kwargs(EXPERIMENTS[name], kwargs) for name in names
    ):
        parser.error(
            "none of the requested experiments accept the given "
            f"calibration options ({', '.join(sorted(kwargs))})"
        )

    if args.prewarm:
        from repro.calibration.prewarm import prewarm_step_grids
        from repro.serving.steptime import DEFAULT_BATCH_GRID, DEFAULT_SEQ_GRID

        labels = (
            serving_throughput.FULL_SYSTEMS if args.full
            else serving_throughput.FAST_SYSTEMS
        )
        started = time.time()
        reports = prewarm_step_grids(
            labels,
            batch_grid=kwargs.get("batch_grid", DEFAULT_BATCH_GRID),
            seq_grid=kwargs.get("seq_grid", DEFAULT_SEQ_GRID),
            store=kwargs.get("store"),
            jobs=args.jobs,
        )
        elapsed = time.time() - started
        for report in reports:
            print(
                f"[prewarm] {report.label}: {report.measured} measured, "
                f"{report.already_cached} cached, {report.infeasible} infeasible "
                f"of {report.total_cells} cells ({report.fingerprint[:16]})"
            )
        print(f"[prewarm completed in {elapsed:.1f}s across {args.jobs} jobs]")
        if not names:
            return 0

    fast = not args.full
    if args.jobs == 1 or len(names) == 1:
        for name in names:
            _, rendered, elapsed = _run_experiment_job(name, fast, kwargs)
            print(rendered)
            print(f"\n[{name} completed in {elapsed:.1f}s]\n")
        return 0
    # Fan independent experiments out across processes; print in request
    # order so output stays deterministic regardless of completion order.
    with ProcessPoolExecutor(max_workers=min(args.jobs, len(names))) as pool:
        futures = [pool.submit(_run_experiment_job, name, fast, kwargs) for name in names]
        for future in futures:
            name, rendered, elapsed = future.result()
            print(rendered)
            print(f"\n[{name} completed in {elapsed:.1f}s]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
