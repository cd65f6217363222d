"""Benchmark of the HILOS reproduction: host cost of its user-facing runs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fleet-jsq --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload figures-cold --seed 1 --seconds 25 --trace 1

``--trace 0`` times whole operations with nothing instrumented and reports
the end-to-end metrics.  ``--trace 1`` repeats the untraced timing (the
overhead baseline), then runs two operations with every layer's entry
points wrapped, checks that both produced identical exact counters and
report digests, reports the per-layer metrics and writes a Chrome
``trace_event`` file under ``.perfbench_out/``.  Either way the last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import os

# One process, no threads: BLAS pools would add a thread per core and a
# first-call spin-up to the numerics the figures run.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import heapq
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

#: Setup steps that can repeat in one process run this many times; the
#: median is reported.
SETUP_REPEATS = 3

#: The host's speed drifts by +-20% from minute to minute (a shared VM), and
#: simulator and reference loop slow down together, so timings are reported
#: as host seconds x REFERENCE_S / (reference loop seconds timed alongside):
#: the seconds a host on which the loop takes REFERENCE_S would need.
REFERENCE_S = 0.2
REFERENCE_ITERATIONS = 200_000

#: Exact counters two traced runs on one seed must repeat exactly.
DETERMINISTIC_COUNTERS = (
    "sim.events",
    "sim.channel_ops",
    "measure.calls",
    "steptime.step_queries",
    "router.calls",
    "router.load_probes",
    "budget.calls",
)


def declared_units(kind: str) -> dict[str, str]:
    """Name -> unit of every ``kind`` metric that ``BENCHMARK.json`` declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def reference_seconds() -> tuple[float, float]:
    """Wall and CPU seconds of a fixed mix of interpreter work: heap pushes
    and pops, dict updates and float arithmetic, as in the event loops."""
    cpu0, wall0 = time.process_time(), time.perf_counter()
    heap, table, total = [], {}, 0.0
    for i in range(REFERENCE_ITERATIONS):
        heapq.heappush(heap, ((i * 7919) % 10007, i))
        table[i & 511] = table.get(i & 511, 0.0) + i * 0.5
        if len(heap) > 256:
            total += heapq.heappop(heap)[0]
    return time.perf_counter() - wall0, time.process_time() - cpu0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_values(tracer, experiments) -> dict[str, float]:
    """Per-layer counts and self times of one traced operation."""
    counts, calls = tracer.counts, tracer.calls
    step_queries = calls["steptime:CalibratedStepTime.step_seconds"]
    measure_incl = sum(v for k, v in tracer.incl_s.items() if k.startswith("measure:"))
    clamped = sum(
        model.clamp_counters()["clamped_queries"] - before["clamped_queries"]
        for model, before in tracer.step_time_instances.values()
    )
    router_calls = tracer.layer_calls("router")
    values = {
        "sim.events": counts["sim.events"],
        "sim.channel_ops": counts["sim.channel_ops"],
        "sim.self_s": tracer.layer_self("sim"),
        "measure.calls": tracer.layer_calls("measure"),
        "measure.self_s": tracer.layer_self("measure"),
        "measure.s_per_call": _ratio(measure_incl, tracer.layer_calls("measure")),
        "calibration.cells_measured": counts["calibration.cells_measured"],
        "calibration.hit_ratio": 1.0
        - _ratio(counts["calibration.lookup_misses"], counts["calibration.lookups"]),
        "calibration.load_s": sum(
            v
            for k, v in tracer.self_s.items()
            if k.startswith("calibration:CalibrationStore.load_")
        ),
        "calibration.flush_s": tracer.self_s["calibration:CalibrationStore.flush_dirty"],
        "functional.calls": tracer.layer_calls("functional"),
        "functional.self_s": tracer.layer_self("functional"),
        "steptime.step_queries": step_queries,
        "steptime.prefill_queries": calls["steptime:CalibratedStepTime.prefill_seconds"],
        "steptime.clamped_queries": clamped,
        "steptime.self_s": tracer.layer_self("steptime"),
        "router.calls": router_calls,
        "router.load_probes": counts["router.load_probes"],
        "router.probes_per_call": _ratio(counts["router.load_probes"], router_calls),
        "router.scanned_per_probe": _ratio(
            counts["router.probe_scanned"], counts["router.load_probes"]
        ),
        "router.self_s": tracer.layer_self("router"),
        "engine.self_s": tracer.layer_self("engine"),
        "engine.mean_batch": _ratio(counts["engine.batch_sum"], step_queries),
        "budget.calls": tracer.layer_calls("budget"),
        "budget.self_s": tracer.layer_self("budget"),
        "kvtiers.self_s": tracer.layer_self("kvtiers"),
        "cluster.drain_s": tracer.incl_s["cluster:ClusterScheduler.drain"],
        "cluster.self_s": tracer.layer_self("cluster"),
        "report.calls": tracer.layer_calls("report"),
        "report.self_s": tracer.layer_self("report"),
    }
    for name in experiments:
        values[f"experiment.{name}_s"] = tracer.incl_s[f"experiment:{name}"]
    return values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


class Run:
    """One benchmark process: setup, timed operations, checks."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digest: str | None = None
        self.model: dict = {}

    def record(self, result) -> int:
        """Check one operation's outputs and compare their digest with the
        first operation's; returns how many operations it counted."""
        attempted, failed, problems = self.workload.check(result)
        self.attempted += attempted
        self.failed += failed
        self.problems.extend(problems)
        digest = self.workload.digest(result)
        if self.digest is None:
            self.digest = digest
            self.model = self.workload.model_metrics(result)
        elif digest != self.digest:
            self.problems.append("an operation's outputs differ from the first one's")
            self.failed += attempted
        return attempted

    def timed(self, seconds: float):
        """Untraced operations until ``seconds`` have passed; per-op times."""
        walls, cpus, prepares, rounds = [], [], [], []
        refs = [reference_seconds()]
        started = time.perf_counter()
        # Stop before a round that would overrun ``seconds``, so every run
        # of a workload lasts about as long and does the same number of ops.
        while not rounds or (
            time.perf_counter() - started + statistics.median(rounds) <= seconds
        ):
            round_started = time.perf_counter()
            gc.collect()
            begin = time.perf_counter()
            state = self.workload.prepare()
            prepares.append(time.perf_counter() - begin)
            cpu0, wall0 = time.process_time(), time.perf_counter()
            result = self.workload.op(state)
            walls.append(time.perf_counter() - wall0)
            cpus.append(time.process_time() - cpu0)
            refs.append(reference_seconds())
            self.workload.finish(state)
            self.record(result)
            del result, state
            rounds.append(time.perf_counter() - round_started)
        return walls, cpus, prepares, refs

    def traced(self, tracer):
        """One operation with every layer instrumented; returns its result."""
        from tracer import instrument

        gc.collect()
        state = self.workload.prepare()
        with instrument(tracer):
            with tracer.span("bench:op"):
                result = self.workload.op(state, tracer)
        self.workload.finish(state)
        return result


def run_sweep(workdir: Path, seed: int, warm: Path, first_layer: dict, origin_run: int):
    """The fleet-jsq scenario at every sweep size: exact routing counts."""
    from tracer import Tracer
    from workloads import SWEEP_NODES, FleetJSQ

    values, tracers = {}, []
    for offset, nodes in enumerate(SWEEP_NODES):
        if nodes == FleetJSQ.nodes:
            layer = first_layer
        else:
            sweep = FleetJSQ(seed, workdir / f"sweep{nodes}", nodes=nodes)
            sweep.warm = warm
            tracer = Tracer(origin_run + offset, f"fleet-jsq sweep {nodes} nodes")
            Run(sweep).traced(tracer)
            tracers.append(tracer)
            layer = layer_values(tracer, ())
        values[f"sweep.jsq_n{nodes}.load_probes"] = layer["router.load_probes"]
        values[f"sweep.jsq_n{nodes}.probes_per_call"] = layer["router.probes_per_call"]
        values[f"sweep.jsq_n{nodes}.scanned_per_probe"] = layer["router.scanned_per_probe"]
    return values, tracers


def describe(name: str, values: list[float], unit: str) -> None:
    q1, median, q3 = quartiles(values)
    print(
        f"{name} per operation: median {median:.4f} {unit}, quartiles "
        f"{q1:.4f}..{q3:.4f} {unit} over {len(values)} operations; each: "
        + " ".join(f"{v:.4f}" for v in values)
    )


def untraced_metrics(run: Run, seconds: float, once_s: float, setups: list[float]) -> dict:
    """The end-to-end metrics of one untraced timed loop."""
    walls, cpus, prepares, refs = run.timed(seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    describe("host wall_s", walls, "s")
    describe("host cpu_s", cpus, "s")
    # Each operation is rescaled by the reference loop timed just before
    # and just after it; set-up by the run's median reference.
    wall_scales = [2 * REFERENCE_S / (a[0] + b[0]) for a, b in zip(refs, refs[1:])]
    cpu_scales = [2 * REFERENCE_S / (a[1] + b[1]) for a, b in zip(refs, refs[1:])]
    reference = statistics.median(r[0] for r in refs)
    print(
        f"reference loop: median {reference:.4f} s over {len(refs)} timings "
        f"({REFERENCE_S} s on the reference host)"
    )
    print(
        f"host setup_s: imports and inputs {once_s:.4f} CPU s + set-up median "
        f"{statistics.median(setups):.4f} s + per-operation build median "
        f"{statistics.median(prepares):.4f} s"
    )
    setup_s = once_s + statistics.median(setups) + statistics.median(prepares)
    return {
        "wall_s": statistics.median(w * k for w, k in zip(walls, wall_scales)),
        "cpu_s": statistics.median(c * k for c, k in zip(cpus, cpu_scales)),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_s * REFERENCE_S / reference,
        "host_wall_s": statistics.median(walls),
    }


def traced_metrics(
    run: Run, args, untraced_wall_s: float, workdir: Path
) -> tuple[dict, dict]:
    """Per-layer metrics of two traced operations (plus the routing sweep)."""
    from tracer import Tracer, write_chrome_trace
    from workloads import FiguresCold

    experiments = FiguresCold.experiments()
    units = declared_units("per_layer")
    origin = time.perf_counter()
    tracers = [Tracer(k, f"{args.workload} traced op {k}") for k in (1, 2)]
    layers = []
    for tracer in tracers:
        result = run.traced(tracer)
        # Also fails the traced operation unless its digest is the
        # untraced operations' digest.
        attempted = run.record(result)
        layers.append(layer_values(tracer, experiments))
        del result
    drifted = [n for n in DETERMINISTIC_COUNTERS if layers[0][n] != layers[1][n]]
    for name in drifted:
        run.problems.append(
            f"{name} differs between two traced runs "
            f"({layers[0][name]} vs {layers[1][name]})"
        )
    if drifted:
        run.failed += attempted
    # Counts from the first traced operation (the second must match);
    # times are the mean of both.
    values = {
        name: (value + layers[1][name]) / 2.0 if units[name] == "s" else value
        for name, value in layers[0].items()
    }
    values.update(run.model)
    traced_wall_s = statistics.median(t.incl_s["bench:op"] for t in tracers)
    values["trace.overhead_pct"] = (traced_wall_s / untraced_wall_s - 1.0) * 100.0
    if args.workload == "fleet-jsq":
        found, sweep_tracers = run_sweep(
            workdir, args.seed, run.workload.warm, layers[0], origin_run=3
        )
        values.update(found)
        tracers.extend(sweep_tracers)
    trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    write_chrome_trace(trace_path, tracers, origin)
    print(f"trace written to {trace_path.relative_to(ROOT)}")
    # Layers a workload never enters did no work on it.
    return {name: values.get(name, 0) for name in units}, units


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {src}", file=sys.stderr)
        return 2
    # The imports and the seeded inputs are built once per process, so they
    # are timed in CPU seconds: their wall time mostly says how much of the
    # library the page cache still held.
    once_started = time.process_time()
    sys.path[:0] = [str(src), str(HERE)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; "
            f"expected one of {', '.join(workloads.WORKLOADS)}"
        )

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        once_s = time.process_time() - once_started
        setups = []
        for _ in range(SETUP_REPEATS):
            begin = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - begin)
        run = Run(workload)
        values = untraced_metrics(run, args.seconds, once_s, setups)
        values["surrogate_err_pct"], problems = workload.surrogate()
        run.attempted += len(workloads.SURROGATE_GRID_CHECK)
        run.failed += len(problems)
        run.problems.extend(problems)
        if args.trace:
            values, units = traced_metrics(run, args, values["host_wall_s"], workdir)
        else:
            units = declared_units("end_to_end")

        print(f"digest {args.workload} seed {args.seed}: {run.digest}")
        for problem in run.problems:
            print(f"CHECK FAILED: {problem}")
        for name, unit in units.items():
            print(f"{name} = {values[name]} {unit}")
        print(
            f"failed_frac = {run.failed / run.attempted} "
            f"({run.failed} of {run.attempted} operations)"
        )
        result = {
            "correct": not run.problems,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {
                name: {"value": values[name], "unit": unit} for name, unit in units.items()
            },
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
