"""Offline serving throughput: policy x system queue-drain comparison.

Unlike the figure harnesses, which measure fixed ``(batch, seq_len)``
points, this experiment drains a seeded heterogeneous request queue (the
Azure-derived Short/Medium/Long mix) through each system under the three
scheduling policies and reports sustained tokens/s, per-request latency,
and the Figure 16a-style tokens/s/$ -- the regime the paper's
cost-effectiveness argument actually targets.

Step-time grids are calibrated through :mod:`repro.calibration`: each
system's measured cells are pre-warmed from (and persisted to) a
fingerprint-keyed store, so a system is measured once ever -- across the
system x policy sweep, across experiments in one process, and across
re-runs of ``python -m repro.experiments.runner serving``.

Scenario knobs go beyond the offline drain: ``--arrival`` feeds the queue
through a Poisson / fixed-rate / trace-replay arrival process,
``--admission optimistic`` switches continuous batching to optimistic
admission with recompute-on-readmit preemption, ``--prefill-chunk``
interleaves chunked prefill with running decodes, ``--nodes N
--router rr|jsq|bestfit`` shards the queue across an N-node fleet of each
system (one cluster drain per policy, with fleet tokens/s/$ and a
per-node breakdown table), ``--fleet-symmetry auto|full|representative``
controls fleet folding (symmetric round-robin fleets simulate one
representative node per homogeneous group), ``--faults SPEC`` injects
seeded node
failures (spot preemption / crash / slowdown) into the drain, with
per-node migration and downtime accounting in the breakdown,
``--overload SPEC`` bounds admission (shed / retry-with-backoff / park,
with shed/retry accounting), ``--autoscale SPEC`` hands the
fleet to a reactive autoscaler whose scale decisions land in a fourth
scale-event table, and ``--kv-tiers SPEC --kv-policy SPEC`` mounts a
tiered KV hierarchy (HBM/DRAM/SSD stack with demotion/promotion billed
at tier bandwidths) on every node, with a per-tier traffic/hit-rate
table.
"""

from __future__ import annotations

import argparse

from repro.calibration import CalibrationStore, resolve_store
from repro.errors import ConfigurationError
from repro.experiments.harness import Table
from repro.models import get_model
from repro.serving import TraceReplay, default_policies, parse_arrival_spec
from repro.serving.autoscale import parse_autoscale_spec
from repro.serving.cluster import (
    FLEET_SYMMETRY_MODES,
    ClusterScheduler,
    build_fleet,
)
from repro.serving.faults import parse_fault_spec
from repro.serving.kvtiers import parse_kv_policy_spec, parse_kv_tiers_spec
from repro.serving.overload import parse_overload_spec
from repro.serving.policies import ADMISSION_MODES
from repro.serving.routers import parse_router_spec
from repro.serving.steptime import DEFAULT_BATCH_GRID, DEFAULT_SEQ_GRID, parse_grid
from repro.workloads import sample_request_classes

MODEL = "OPT-66B"
BATCH_SLOTS = 16
SEED = 7

FAST_SYSTEMS = ["FLEX(SSD)", "HILOS (8 SmartSSDs)"]
FULL_SYSTEMS = [
    "FLEX(SSD)",
    "FLEX(DRAM)",
    "DS+UVM(DRAM)",
    "HILOS (8 SmartSSDs)",
    "HILOS (16 SmartSSDs)",
]

FAST_REQUESTS = 64
FULL_REQUESTS = 256


def run(
    fast: bool = True,
    systems: list[str] | None = None,
    n_requests: int | None = None,
    seed: int = SEED,
    store: CalibrationStore | None = None,
    use_store: bool = True,
    batch_grid: tuple[int, ...] | None = None,
    seq_grid: tuple[int, ...] | None = None,
    symmetry: str = "auto",
    fleet_symmetry: str = "auto",
    admission: str = "reserve",
    arrival: str | None = None,
    prefill_chunk: int | None = None,
    nodes: int = 1,
    router: str = "rr",
    faults: str | None = None,
    overload: str | None = None,
    autoscale: str | None = None,
    kv_tiers: str | None = None,
    kv_policy: str | None = None,
) -> list[Table]:
    """Drain one seeded queue through every (system, policy) pair.

    Every row is a :class:`~repro.serving.cluster.ClusterScheduler` drain
    of a :func:`~repro.serving.cluster.build_fleet` fleet, one node by
    default.

    ``store`` overrides the calibration store (``use_store=False`` disables
    persistence entirely -- every run then measures from scratch); the grid
    arguments override the default calibration grids.  ``symmetry`` selects
    the simulation substrate mode for calibration measurements ("auto"
    folds symmetric device arrays to representative devices), and
    ``fleet_symmetry`` the cluster drain's fleet-folding mode ("auto"
    simulates one representative node per homogeneous group when the
    fleet is symmetric and the router load-oblivious; "full" always
    simulates every node; "representative" demands folding and fails
    fast on ineligible configurations; a single host's rows read the
    same under every mode it accepts).
    ``admission`` picks the continuous-batching accounting, ``arrival`` is
    an arrival spec (``poisson:RATE[:SEED]``, ``rate:RATE``,
    ``trace:PATH``), and ``prefill_chunk`` enables chunked prefill at that
    many tokens.

    ``nodes`` > 1 turns every system row into an N-node fleet of that
    system draining the *same* queue through a
    :class:`~repro.serving.cluster.ClusterScheduler` under the ``router``
    placement policy (``rr`` | ``jsq`` | ``bestfit``); the report table
    then carries fleet-level tokens/s and tokens/s/$ and a third table
    breaks each drain down per node.  ``faults`` is a fault spec
    (``spot:MTBF:RECOVERY[:SEED]``, ``crash:TIME:NODE``,
    ``slow:TIME:DURATION:FACTOR:NODE``, comma-separated); any fault
    schedule makes the row a fleet (even one node) with the per-node
    table, which reports migrations and downtime.

    ``kv_tiers`` is a tier-stack spec (``hbm:CAP,dram:CAP:BW,ssd:CAP:BW``)
    mounting a tiered KV hierarchy on every node, and ``kv_policy``
    (``lru`` | ``attention[:HOT]`` | ``static:ALPHA``) its
    demotion/placement policy (default LRU-by-request); tier stacks
    make the row a fleet too and add a per-tier traffic/hit-rate table.

    ``overload`` is an overload-control spec (``shed:QDEPTH[:TPS]``,
    ``retry:QDEPTH[:TPS[:ATTEMPTS[:SEED]]]``,
    ``park:QDEPTH[:TPS[:DEADLINE_S]]``; ``-`` leaves a bound unset) and
    ``autoscale`` an autoscale spec
    (``auto:MIN:MAX:TARGET_QDEPTH[:PROVISION_S[:SEED]]``); either makes
    the row a fleet too.  Under autoscaling the fleet
    is built at ``max(nodes, MAX)`` size and the scale-event timeline
    becomes a fourth table.
    """
    if nodes < 1:
        raise ConfigurationError("a serving sweep needs at least one node")
    systems = systems or (FAST_SYSTEMS if fast else FULL_SYSTEMS)
    n_requests = n_requests or (FAST_REQUESTS if fast else FULL_REQUESTS)
    store = resolve_store(store, use_store)
    fault_schedule = parse_fault_spec(faults, seed=seed)
    overload_control = parse_overload_spec(overload, seed=seed)
    autoscale_policy = parse_autoscale_spec(autoscale, seed=seed)
    tier_stack = parse_kv_tiers_spec(kv_tiers) if kv_tiers else None
    tier_policy = parse_kv_policy_spec(kv_policy) if kv_policy else None
    if tier_policy is not None and tier_stack is None:
        raise ConfigurationError(
            "--kv-policy needs a tier stack to govern (--kv-tiers)"
        )
    fleet_nodes = nodes
    if autoscale_policy is not None:
        fleet_nodes = max(nodes, autoscale_policy.max_nodes)
    fleet_mode = (
        fleet_nodes > 1
        or fault_schedule is not None
        or overload_control is not None
        or autoscale_policy is not None
        or tier_stack is not None
    )
    arrivals = parse_arrival_spec(arrival, seed=seed)
    if isinstance(arrivals, TraceReplay) and arrivals.classes is not None:
        # A fully-specified trace (classes on every line) *is* the
        # workload: replay exactly what was recorded.
        queue = arrivals.request_classes()
        n_requests = len(queue)
    else:
        if isinstance(arrivals, TraceReplay) and len(arrivals.times) < n_requests:
            # Fail before any calibration work, not deep in the first drain.
            raise ConfigurationError(
                f"arrival trace holds {len(arrivals.times)} timestamps but "
                f"the queue has {n_requests} requests; shrink the queue "
                "(--requests) or record request classes in the trace"
            )
        queue = sample_request_classes(n_requests, seed=seed)
    model = get_model(MODEL)
    scenario = "offline (all at t=0)" if arrivals is None else arrival
    fleet_suffix = (
        f", {fleet_nodes}-node fleets via {router}" if fleet_nodes > 1 else ""
    )
    if fault_schedule is not None:
        fleet_suffix += f", faults: {faults}"
    if overload_control is not None:
        fleet_suffix += f", overload: {overload}"
    if autoscale_policy is not None:
        fleet_suffix += f", autoscale: {autoscale}"
    if tier_stack is not None:
        fleet_suffix += f", kv tiers: {kv_tiers} ({kv_policy or 'lru'})"
    table = Table(
        title=f"Serving throughput ({MODEL}, {n_requests} mixed requests, "
        f"arrivals: {scenario}{fleet_suffix})",
        columns=[
            "system",
            "policy",
            "completed",
            "shed",
            "retries",
            "tokens_per_s",
            "mean_latency_s",
            "p95_latency_s",
            "peak_kv_gb",
            "preemptions",
            "wasted_prefill",
            "tokens_per_s_per_usd",
        ],
        notes="seeded Azure Short/Medium/Long mix; continuous batching is "
        "capacity-aware against the system's KV cache home"
        + (
            "; optimistic admission preempts youngest-first on overflow"
            if admission == "optimistic"
            else ""
        )
        + (
            f"; prefill chunked at {prefill_chunk} tokens"
            if prefill_chunk
            else ""
        ),
    )
    calibration = Table(
        title="Calibration cache utilisation",
        columns=[
            "system",
            "fingerprint",
            "prewarmed_cells",
            "cells_cached",
            "new_measurements",
            "clamped_queries",
        ],
        notes="new_measurements is zero when the store already holds the "
        "system's grid (warm re-run)",
    )
    per_node = (
        Table(
            title=f"Per-node breakdown ({fleet_nodes}-node fleets, "
            f"router: {router})",
            columns=[
                "system",
                "policy",
                "node",
                "requests",
                "completed",
                "shed",
                "retries",
                "tokens_per_s",
                "preemptions",
                "wasted_prefill",
                "peak_kv_gb",
                "migrations",
                "downtime_s",
            ],
            notes="per-node tokens/s are over the fleet makespan and sum to "
            "the fleet rate; migrations/downtime are zero on fault-free "
            "drains (see --faults); shed/retries are zero without "
            "--overload admission bounds",
        )
        if fleet_mode
        else None
    )
    tier_table = (
        Table(
            title=f"KV tier usage (stack: {kv_tiers}, "
            f"policy: {kv_policy or 'lru'})",
            columns=[
                "system",
                "policy",
                "tier",
                "capacity_gb",
                "peak_gb",
                "demoted_gb",
                "promoted_gb",
                "decode_read_gb",
                "hit_rate",
            ],
            notes="fleet-merged per-tier traffic; hit_rate is the share of "
            "decode KV reads served by this tier (top-tier reads are the "
            "hits); demotion/promotion bytes were billed through the "
            "simulation at the tier's bandwidth",
        )
        if tier_stack is not None
        else None
    )
    scale_table = (
        Table(
            title=f"Autoscaler scale events (policy: {autoscale})",
            columns=[
                "system",
                "policy",
                "time_s",
                "action",
                "node",
                "reason",
                "queue_depth",
                "active_nodes",
            ],
            notes="every autoscaler decision across the sweep's drains; "
            "provisioning rides the fault layer's RECOVERING lifecycle "
            "and offline time is billed at zero",
        )
        if autoscale_policy is not None
        else None
    )
    clamped_any = False
    for label in systems:
        fleet = build_fleet(
            model,
            [label] * fleet_nodes,
            store=store,
            batch_grid=batch_grid,
            seq_grid=seq_grid,
            symmetry=symmetry,
            prefill_chunk_tokens=prefill_chunk,
            kv_tiers=tier_stack,
            kv_policy=tier_policy,
        )
        step_time = fleet[0].step_time  # shared across the symmetric fleet
        prewarmed = step_time.prewarm()
        reports = [
            ClusterScheduler(
                fleet,
                policy,
                router=parse_router_spec(router),
                faults=fault_schedule,
                overload=overload_control,
                autoscale=autoscale_policy,
                fleet_symmetry=fleet_symmetry,
            ).drain(queue, arrivals=arrivals)
            for policy in default_policies(BATCH_SLOTS, admission=admission)
        ]
        step_time.flush()
        for report in reports:
            table.add_row(
                report.system if fleet_mode else label,
                report.policy,
                report.completed,
                report.shed_requests,
                report.retry_attempts,
                report.tokens_per_second,
                report.mean_latency_seconds,
                report.p95_latency_seconds,
                report.peak_kv_reserved_bytes / 1e9,
                report.preemptions,
                report.wasted_prefill_tokens,
                report.tokens_per_second_per_usd,
            )
            clamped_any = clamped_any or bool(report.step_time_notes)
            if fleet_mode:
                for breakdown in report.node_reports:
                    per_node.add_row(
                        report.system,
                        report.policy,
                        breakdown.node,
                        breakdown.n_requests,
                        breakdown.completed,
                        breakdown.shed_requests,
                        breakdown.retry_attempts,
                        breakdown.tokens_per_second,
                        breakdown.preemptions,
                        breakdown.wasted_prefill_tokens,
                        breakdown.peak_kv_reserved_bytes / 1e9,
                        breakdown.migrations,
                        breakdown.downtime_seconds,
                    )
            if tier_table is not None:
                for tier in report.kv_tiers:
                    tier_table.add_row(
                        report.system,
                        report.policy,
                        tier.tier,
                        tier.capacity_bytes / 1e9,
                        tier.peak_occupied_bytes / 1e9,
                        tier.demoted_bytes / 1e9,
                        tier.promoted_bytes / 1e9,
                        tier.decode_read_bytes / 1e9,
                        tier.hit_rate,
                    )
            if scale_table is not None:
                for event in report.scale_events:
                    scale_table.add_row(
                        report.system,
                        report.policy,
                        event.time,
                        event.action,
                        event.node,
                        event.reason,
                        event.queue_depth,
                        event.active_nodes,
                    )
        calibration.add_row(
            label,
            step_time.cells.fingerprint[:16],
            prewarmed,
            step_time.calibration_points,
            step_time.measurement_count,
            step_time.grid_clamp_summary().get("clamped_queries", 0),
        )
    if clamped_any:
        calibration.notes += (
            "; some queries fell outside the calibration grid and were "
            "clamped to its edge -- consider --batch-grid/--seq-grid"
        )
    tables = [table, calibration]
    if fleet_mode:
        tables.append(per_node)
    if tier_table is not None:
        tables.append(tier_table)
    if scale_table is not None:
        tables.append(scale_table)
    return tables


def add_calibration_cli(parser: argparse.ArgumentParser) -> None:
    """Install the calibration knobs shared by this CLI and the runner's."""
    parser.add_argument(
        "--batch-grid", type=str, default=None,
        help="comma-separated calibration batch sizes (default "
        + ",".join(map(str, DEFAULT_BATCH_GRID)) + ")",
    )
    parser.add_argument(
        "--seq-grid", type=str, default=None,
        help="comma-separated calibration context lengths (default "
        + ",".join(map(str, DEFAULT_SEQ_GRID)) + ")",
    )
    parser.add_argument(
        "--calibration-dir", type=str, default=None,
        help="calibration store directory (default: $REPRO_CALIBRATION_DIR "
        "or ~/.cache/repro/calibration)",
    )
    parser.add_argument(
        "--no-store", action="store_true",
        help="disable the persistent calibration cache (measure from scratch)",
    )


def add_serving_cli(parser: argparse.ArgumentParser) -> None:
    """Install the serving-scenario knobs shared by this CLI and the runner's."""
    parser.add_argument(
        "--admission", choices=ADMISSION_MODES, default=None,
        help="continuous-batching accounting: reserve final-context KV up "
        "front (default) or admit optimistically with youngest-first "
        "recompute-on-readmit preemption",
    )
    parser.add_argument(
        "--arrival", type=str, default=None, metavar="SPEC",
        help="arrival process: poisson:RATE[:SEED], burst:RATE:SIZE[:SEED] "
        "(Poisson-timed fixed-size bursts), rate:RATE, trace:PATH "
        "(a JSONL trace naming a request class on every line replaces the "
        "sampled workload), or offline (default: all requests at t=0)",
    )
    parser.add_argument(
        "--prefill-chunk", type=int, default=None, metavar="TOKENS",
        help="chunk prefill at TOKENS per scheduling round so admissions "
        "stop stalling running decodes (default: whole-prompt prefill)",
    )
    parser.add_argument(
        "--nodes", type=int, default=None, metavar="N",
        help="drain the queue across an N-node fleet of each system "
        "(cluster scheduling; default: a single node)",
    )
    parser.add_argument(
        "--fleet-symmetry", choices=FLEET_SYMMETRY_MODES, default=None,
        help="fleet-folding mode for cluster drains: auto (fold symmetric "
        "fleets under load-oblivious routers to one representative node "
        "per homogeneous group; the default), full (always simulate every "
        "node), representative (require folding, fail fast when "
        "ineligible); only meaningful with --nodes > 1",
    )
    parser.add_argument(
        "--router", type=str, default=None, metavar="SPEC",
        help="fleet placement policy: rr (round-robin), jsq (join the "
        "shortest queue by outstanding tokens), bestfit (KV-headroom "
        "best fit), wrr:W0,W1,... (weighted round-robin, one integer "
        "weight per node); only meaningful with --nodes > 1",
    )
    parser.add_argument(
        "--faults", type=str, default=None, metavar="SPEC",
        help="fault injection: comma-separated spot:MTBF:RECOVERY[:SEED] "
        "(seeded spot-preemption streams), crash:TIME:NODE (permanent "
        "death), slow:TIME:DURATION:FACTOR:NODE (transient slowdown); "
        "dead nodes migrate their requests recompute-on-migrate and the "
        "per-node table reports migrations and downtime (default: none)",
    )
    parser.add_argument(
        "--overload", type=str, default=None, metavar="SPEC",
        help="admission control: shed:QDEPTH[:TPS] (drop over-limit "
        "arrivals), retry:QDEPTH[:TPS[:ATTEMPTS[:SEED]]] (seeded "
        "exponential backoff, shed on exhaustion), "
        "park:QDEPTH[:TPS[:DEADLINE_S]] (wait for capacity, shed past "
        "the deadline); '-' leaves a bound unset (default: none)",
    )
    parser.add_argument(
        "--kv-tiers", type=str, default=None, metavar="SPEC",
        help="tiered KV hierarchy on every node: NAME:CAP for the top tier "
        "then NAME:CAP:BW per lower tier, comma-separated "
        "(hbm:40g,dram:256g:50g,ssd:2t:8g; capacities/bandwidths take "
        "k/m/g/t suffixes); admission budgets become the stack total and "
        "KV movement is billed at tier bandwidths (default: flat budget)",
    )
    parser.add_argument(
        "--kv-policy", type=str, default=None, metavar="SPEC",
        help="tier demotion/placement policy: lru (demote "
        "least-recently-admitted requests whole; default), "
        "attention[:HOT_FRACTION] (keep the attention-hot KV prefix in "
        "the top tier, demote the cold tail), static:ALPHA (place a "
        "fixed ALPHA share below the top tier at admission, no "
        "promotion); needs --kv-tiers",
    )
    parser.add_argument(
        "--autoscale", type=str, default=None, metavar="SPEC",
        help="reactive fleet autoscaling: "
        "auto:MIN:MAX:TARGET_QDEPTH[:PROVISION_S[:SEED]]; the fleet is "
        "built at max(--nodes, MAX) size, nodes past MIN start offline "
        "and unbilled, and scale decisions appear in a fourth table "
        "(default: none)",
    )


def serving_kwargs(parser: argparse.ArgumentParser, args: argparse.Namespace) -> dict:
    """Validate the shared serving-scenario flags into ``run()`` kwargs."""
    kwargs: dict = {}
    if getattr(args, "admission", None) is not None:
        kwargs["admission"] = args.admission
    if getattr(args, "arrival", None) is not None:
        try:
            if args.arrival.startswith("trace:"):
                # Defer the (possibly huge) trace read to run(); only check
                # the schedule file is actually there.
                import os

                path = args.arrival.partition(":")[2]
                if not path or not os.path.exists(path):
                    parser.error(f"arrival trace not found: {path!r}")
            else:
                parse_arrival_spec(args.arrival)
        except ConfigurationError as exc:
            parser.error(str(exc))
        kwargs["arrival"] = args.arrival
    if getattr(args, "prefill_chunk", None) is not None:
        if args.prefill_chunk < 1:
            parser.error("--prefill-chunk must be at least 1 token")
        kwargs["prefill_chunk"] = args.prefill_chunk
    if getattr(args, "nodes", None) is not None:
        if args.nodes < 1:
            parser.error("--nodes must be at least 1")
        kwargs["nodes"] = args.nodes
    if getattr(args, "fleet_symmetry", None) is not None:
        kwargs["fleet_symmetry"] = args.fleet_symmetry
    autoscale_policy = None
    if getattr(args, "autoscale", None) is not None:
        try:
            autoscale_policy = parse_autoscale_spec(args.autoscale)
        except ConfigurationError as exc:
            parser.error(str(exc))
        if autoscale_policy is not None:
            kwargs["autoscale"] = args.autoscale
    if getattr(args, "router", None) is not None:
        # An autoscaled drain is a fleet even at --nodes 1 (the fleet is
        # built at max_nodes size), so a router is meaningful there too.
        if getattr(args, "nodes", None) in (None, 1) and (
            autoscale_policy is None or autoscale_policy.max_nodes <= 1
        ):
            parser.error("--router requires --nodes > 1 (a fleet to route over)")
        try:
            parse_router_spec(args.router)
        except ConfigurationError as exc:
            parser.error(str(exc))
        kwargs["router"] = args.router
    if getattr(args, "kv_policy", None) is not None and (
        getattr(args, "kv_tiers", None) is None
    ):
        parser.error("--kv-policy needs a tier stack to govern (--kv-tiers)")
    if getattr(args, "kv_tiers", None) is not None:
        try:
            parse_kv_tiers_spec(args.kv_tiers)
            if getattr(args, "kv_policy", None) is not None:
                parse_kv_policy_spec(args.kv_policy)
        except ConfigurationError as exc:
            parser.error(str(exc))
        kwargs["kv_tiers"] = args.kv_tiers
        if getattr(args, "kv_policy", None) is not None:
            kwargs["kv_policy"] = args.kv_policy
    if getattr(args, "faults", None) is not None:
        try:
            schedule = parse_fault_spec(args.faults)
            if schedule is not None:
                n_nodes = getattr(args, "nodes", None) or 1
                if autoscale_policy is not None:
                    n_nodes = max(n_nodes, autoscale_policy.max_nodes)
                schedule.validate_for(n_nodes)
        except ConfigurationError as exc:
            parser.error(str(exc))
        kwargs["faults"] = args.faults
    if getattr(args, "overload", None) is not None:
        try:
            control = parse_overload_spec(args.overload)
        except ConfigurationError as exc:
            parser.error(str(exc))
        if control is not None:
            kwargs["overload"] = args.overload
    return kwargs


def calibration_kwargs(parser: argparse.ArgumentParser, args: argparse.Namespace) -> dict:
    """Validate the shared calibration flags into ``run()`` keyword args.

    Only flags the user actually passed appear in the result, so callers
    can forward it to any ``run()`` that accepts a subset.  Conflicts and
    malformed grids become argparse usage errors.
    """
    if args.no_store and args.calibration_dir is not None:
        parser.error("--no-store conflicts with --calibration-dir")
    kwargs: dict = {}
    try:
        if args.batch_grid is not None:
            kwargs["batch_grid"] = parse_grid(args.batch_grid, "--batch-grid")
        if args.seq_grid is not None:
            kwargs["seq_grid"] = parse_grid(args.seq_grid, "--seq-grid")
    except ConfigurationError as exc:
        parser.error(str(exc))
    if args.calibration_dir is not None:
        kwargs["store"] = CalibrationStore(args.calibration_dir)
    if args.no_store:
        kwargs["use_store"] = False
    return kwargs


def main(argv: list[str] | None = None) -> int:
    """Standalone CLI mirroring the runner's serving knobs."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true", help="paper-scale parameters")
    parser.add_argument("--requests", type=int, default=None, help="queue length")
    parser.add_argument("--seed", type=int, default=SEED, help="queue sampling seed")
    add_calibration_cli(parser)
    add_serving_cli(parser)
    args = parser.parse_args(argv)
    from repro.experiments.harness import format_tables

    tables = run(
        fast=not args.full,
        n_requests=args.requests,
        seed=args.seed,
        **calibration_kwargs(parser, args),
        **serving_kwargs(parser, args),
    )
    print(format_tables(tables))
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
