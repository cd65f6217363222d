"""Benchmark: offline serving queue drain (scheduler throughput).

Two regimes are timed separately, mirroring how the experiment is used:

* **cold** -- nothing cached: every grid cell pays a full event-level
  ``measure()`` simulation.  This is the kernel-bound number the
  incremental processor-sharing rewrite targets.
* **warm** -- the calibration store already holds both systems' grids (as
  after any prior run on the machine): the drain itself dominates and the
  run must perform zero new measurements.

``BENCH_serving.json`` in the repo root records the committed baseline and
the measured trajectory; CI's benchmark smoke job fails on >25% regression
against it (see ``benchmarks/check_regression.py``).
"""

from __future__ import annotations

from repro.calibration import CalibrationStore
from repro.calibration.store import clear_memory_layer
from repro.experiments import serving_throughput
from repro.experiments.harness import format_tables

#: The preemption benchmark's scenario: bursty Poisson arrivals into a KV
#: budget of four Long final contexts, optimistic admission, chunked prefill.
PREEMPTION_REQUESTS = 64
PREEMPTION_SEED = 7


def _assert_throughput_shape(tables):
    rows = tables[0].to_dicts()
    by_pair = {(r["system"], r["policy"]): r for r in rows}
    for label in serving_throughput.FAST_SYSTEMS:
        fcfs = by_pair[(label, "fcfs-fixed")]
        continuous = by_pair[(label, "continuous")]
        # Every policy drains the full queue; continuous batching sustains
        # strictly more tokens/s than FCFS fixed batches on the mixed queue.
        assert fcfs["completed"] == serving_throughput.FAST_REQUESTS
        assert continuous["completed"] == serving_throughput.FAST_REQUESTS
        assert continuous["tokens_per_s"] > fcfs["tokens_per_s"]


def test_serving_throughput_cold(benchmark, tmp_path, capsys):
    """Cold-cache drain: every calibration cell is measured in-run."""
    state = {"round": 0}

    def setup():
        state["round"] += 1
        clear_memory_layer()
        return (), {"store": CalibrationStore(tmp_path / f"cold{state['round']}")}

    tables = benchmark.pedantic(
        lambda store: serving_throughput.run(fast=True, store=store),
        setup=setup,
        rounds=3,
        iterations=1,
    )
    with capsys.disabled():
        print("\n" + format_tables(tables))
    _assert_throughput_shape(tables)
    # Cold means cold: both systems measured their full touched grid.
    assert all(n > 0 for n in tables[1].column("new_measurements"))


def test_serving_throughput_warm(benchmark, tmp_path):
    """Warm-cache drain: the store holds both grids, zero measurements."""
    store_dir = tmp_path / "warm"
    clear_memory_layer()
    serving_throughput.run(fast=True, store=CalibrationStore(store_dir))

    def setup():
        # A fresh memory layer per round models a new process whose only
        # warmth is the on-disk store.
        clear_memory_layer()
        return (), {"store": CalibrationStore(store_dir)}

    tables = benchmark.pedantic(
        lambda store: serving_throughput.run(fast=True, store=store),
        setup=setup,
        rounds=3,
        iterations=1,
    )
    _assert_throughput_shape(tables)
    assert all(n == 0 for n in tables[1].column("new_measurements"))
    assert all(cells > 0 for cells in tables[1].column("prewarmed_cells"))


def _preemption_drain(store):
    """Optimistic-admission drain under pressure: the `serving-preemption`
    gate.  Poisson arrivals, a four-Long-context KV budget, 512-token
    chunked prefill -- the full new scheduling surface in one number."""
    from repro.baselines.registry import build_inference_system
    from repro.models import get_model
    from repro.serving import (
        CapacityBudget,
        ClusterScheduler,
        ContinuousBatching,
        Node,
        PoissonArrivals,
    )
    from repro.serving.steptime import CalibratedStepTime
    from repro.workloads import sample_request_classes
    from repro.workloads.requests import LONG

    model = get_model(serving_throughput.MODEL)
    system = build_inference_system("HILOS (8 SmartSSDs)", model)
    one_long = model.kv_cache_bytes(1, LONG.total_tokens)
    step_time = CalibratedStepTime(system, store=store)
    scheduler = ClusterScheduler(
        [
            Node(
                system,
                step_time=step_time,
                budget=CapacityBudget(one_long * 4.0, "four long slots (bench)"),
                prefill_chunk_tokens=512,
            )
        ],
        ContinuousBatching(
            serving_throughput.BATCH_SLOTS, admission="optimistic"
        ),
    )
    report = scheduler.drain(
        sample_request_classes(PREEMPTION_REQUESTS, seed=PREEMPTION_SEED),
        arrivals=PoissonArrivals(rate_per_second=0.02, seed=PREEMPTION_SEED),
    )
    step_time.flush()
    return report, step_time


def _assert_preemption_shape(result):
    report, _ = result
    assert report.all_completed
    assert report.preemptions > 0, "the gate must exercise the eviction path"
    assert report.peak_kv_reserved_bytes <= report.kv_capacity_bytes


def test_serving_preemption_cold(benchmark, tmp_path):
    """Cold preemption drain: calibration measured in-run."""
    state = {"round": 0}

    def setup():
        state["round"] += 1
        clear_memory_layer()
        return (CalibrationStore(tmp_path / f"pcold{state['round']}"),), {}

    result = benchmark.pedantic(_preemption_drain, setup=setup, rounds=3, iterations=1)
    _assert_preemption_shape(result)
    assert result[1].measurement_count > 0


def test_serving_preemption_warm(benchmark, tmp_path):
    """Warm preemption drain: the store holds the grid, zero measurements."""
    store_dir = tmp_path / "pwarm"
    clear_memory_layer()
    _preemption_drain(CalibrationStore(store_dir))

    def setup():
        clear_memory_layer()
        return (CalibrationStore(store_dir),), {}

    result = benchmark.pedantic(_preemption_drain, setup=setup, rounds=3, iterations=1)
    _assert_preemption_shape(result)
    assert result[1].measurement_count == 0


#: The cluster benchmark's scenario: a 4-node HILOS fleet draining one
#: Poisson stream under join-shortest-queue placement.
CLUSTER_NODES = 4
CLUSTER_REQUESTS = 64
CLUSTER_SEED = 7


def _cluster_drain(store):
    """Fleet drain: the ``serving-cluster`` gate.  One Poisson queue, four
    symmetric HILOS-8 nodes (sharing one calibrated step-time grid through
    the store), JSQ routing, fleet report with per-node breakdowns."""
    from repro.models import get_model
    from repro.serving import (
        ClusterScheduler,
        ContinuousBatching,
        LeastOutstandingTokens,
        PoissonArrivals,
    )
    from repro.serving.cluster import build_fleet
    from repro.workloads import sample_request_classes

    model = get_model(serving_throughput.MODEL)
    fleet = build_fleet(
        model, ["HILOS (8 SmartSSDs)"] * CLUSTER_NODES, store=store
    )
    scheduler = ClusterScheduler(
        fleet,
        ContinuousBatching(serving_throughput.BATCH_SLOTS),
        router=LeastOutstandingTokens(),
    )
    report = scheduler.drain(
        sample_request_classes(CLUSTER_REQUESTS, seed=CLUSTER_SEED),
        arrivals=PoissonArrivals(rate_per_second=0.1, seed=CLUSTER_SEED),
    )
    step_time = fleet[0].step_time
    step_time.flush()
    return report, step_time


def _assert_cluster_shape(result, nodes=CLUSTER_NODES, requests=CLUSTER_REQUESTS):
    report, _ = result
    assert report.all_completed
    assert report.router == "jsq"
    assert len(report.node_reports) == nodes
    # JSQ leaves no node idle.
    assert all(node.n_requests > 0 for node in report.node_reports)
    assert sum(node.completed for node in report.node_reports) == requests
    assert report.tokens_per_second_per_usd > 0


def test_serving_cluster_cold(benchmark, tmp_path):
    """Cold fleet drain: the shared grid is measured in-run (once, not
    once per node -- symmetric nodes share one step-time model)."""
    state = {"round": 0}

    def setup():
        state["round"] += 1
        clear_memory_layer()
        return (CalibrationStore(tmp_path / f"ccold{state['round']}"),), {}

    result = benchmark.pedantic(_cluster_drain, setup=setup, rounds=3, iterations=1)
    _assert_cluster_shape(result)
    assert result[1].measurement_count > 0


def test_serving_cluster_warm(benchmark, tmp_path):
    """Warm fleet drain: the store holds the grid, zero measurements."""
    store_dir = tmp_path / "cwarm"
    clear_memory_layer()
    _cluster_drain(CalibrationStore(store_dir))

    def setup():
        clear_memory_layer()
        return (CalibrationStore(store_dir),), {}

    result = benchmark.pedantic(_cluster_drain, setup=setup, rounds=3, iterations=1)
    _assert_cluster_shape(result)
    assert result[1].measurement_count == 0


#: The routing benchmark's scenario: 64 symmetric nodes under
#: join-shortest-queue, 4096 requests in the exact Azure mix arriving
#: Poisson at 0.025 req/s per node.  Every arrival probes all 64 nodes'
#: load, so the gate times the constant-time load views: a probe that
#: re-summed its node's queue made this drain quadratic in fleet size.
FLEET_JSQ_NODES = 64
FLEET_JSQ_REQUESTS = 4096
FLEET_JSQ_RATE = 1.6
FLEET_JSQ_SEED = 1


def _exact_azure_mix(n_requests, seed):
    """The Azure Short/Medium/Long mix in exact proportions, seeded order."""
    import random

    from repro.workloads.requests import AZURE_OFFLINE_MIX, REQUEST_CLASSES

    fractions = AZURE_OFFLINE_MIX.fractions()
    counts = {name: int(n_requests * f) for name, f in fractions.items()}
    counts[max(fractions, key=fractions.get)] += n_requests - sum(counts.values())
    classes = [REQUEST_CLASSES[name] for name, k in counts.items() for _ in range(k)]
    random.Random(seed).shuffle(classes)
    return classes


def _fleet_jsq_drain(store):
    """Large-fleet routing drain: the ``serving-fleet-jsq`` gate.  The
    ``serving-cluster`` scenario scaled to 64 nodes sharing one calibrated
    grid and 4096 requests, so routing probes dominate the timed body."""
    from repro.models import get_model
    from repro.serving import (
        ClusterScheduler,
        ContinuousBatching,
        LeastOutstandingTokens,
        PoissonArrivals,
    )
    from repro.serving.cluster import build_fleet

    model = get_model(serving_throughput.MODEL)
    fleet = build_fleet(
        model, ["HILOS (8 SmartSSDs)"] * FLEET_JSQ_NODES, store=store
    )
    scheduler = ClusterScheduler(
        fleet,
        ContinuousBatching(serving_throughput.BATCH_SLOTS),
        router=LeastOutstandingTokens(),
    )
    report = scheduler.drain(
        _exact_azure_mix(FLEET_JSQ_REQUESTS, FLEET_JSQ_SEED),
        arrivals=PoissonArrivals(rate_per_second=FLEET_JSQ_RATE, seed=FLEET_JSQ_SEED),
    )
    step_time = fleet[0].step_time
    step_time.flush()
    return report, step_time


def test_serving_fleet_jsq_warm(benchmark, tmp_path):
    """Warm 64-node JSQ drain: zero measurements -- the router's load
    probes and the engines' drain loops are what's timed."""
    store_dir = tmp_path / "jwarm"
    clear_memory_layer()
    _fleet_jsq_drain(CalibrationStore(store_dir))

    def setup():
        clear_memory_layer()
        return (CalibrationStore(store_dir),), {}

    result = benchmark.pedantic(_fleet_jsq_drain, setup=setup, rounds=3, iterations=1)
    _assert_cluster_shape(result, nodes=FLEET_JSQ_NODES, requests=FLEET_JSQ_REQUESTS)
    assert result[1].measurement_count == 0


#: The fault benchmark's spot preemption: node1 dies mid-drain and comes
#: back after a provisioning delay, so migration + recovery are both timed.
FAULT_KILL_SECONDS = 200.0
FAULT_RECOVERY_SECONDS = 120.0


def _faults_drain(store):
    """Fault-injected fleet drain: the ``serving-faults`` gate.  The
    ``serving-cluster`` scenario with one spot preemption -- node1 dies at
    t=200s, its requests migrate recompute-on-migrate, and it rejoins the
    fleet 120s later -- so the eviction, re-routing, and recovery paths are
    all on the timed path."""
    from repro.models import get_model
    from repro.serving import (
        ClusterScheduler,
        ContinuousBatching,
        FaultSchedule,
        LeastOutstandingTokens,
        NodeFault,
        PoissonArrivals,
    )
    from repro.serving.cluster import build_fleet
    from repro.workloads import sample_request_classes

    model = get_model(serving_throughput.MODEL)
    fleet = build_fleet(
        model, ["HILOS (8 SmartSSDs)"] * CLUSTER_NODES, store=store
    )
    scheduler = ClusterScheduler(
        fleet,
        ContinuousBatching(serving_throughput.BATCH_SLOTS),
        router=LeastOutstandingTokens(),
        faults=FaultSchedule(
            faults=(
                NodeFault(
                    kind="spot",
                    time=FAULT_KILL_SECONDS,
                    node=1,
                    recovery_seconds=FAULT_RECOVERY_SECONDS,
                ),
            )
        ),
    )
    report = scheduler.drain(
        sample_request_classes(CLUSTER_REQUESTS, seed=CLUSTER_SEED),
        arrivals=PoissonArrivals(rate_per_second=0.1, seed=CLUSTER_SEED),
    )
    step_time = fleet[0].step_time
    step_time.flush()
    return report, step_time


def _assert_faults_shape(result):
    report, _ = result
    assert report.all_completed
    assert report.migrations > 0, "the gate must exercise the migration path"
    assert report.node_reports[1].downtime_seconds == FAULT_RECOVERY_SECONDS
    assert sum(n.migrations for n in report.node_reports) == report.migrations
    assert report.tokens_per_second_per_usd > 0


def test_serving_faults_cold(benchmark, tmp_path):
    """Cold fault-injected drain: the shared grid is measured in-run."""
    state = {"round": 0}

    def setup():
        state["round"] += 1
        clear_memory_layer()
        return (CalibrationStore(tmp_path / f"fcold{state['round']}"),), {}

    result = benchmark.pedantic(_faults_drain, setup=setup, rounds=3, iterations=1)
    _assert_faults_shape(result)
    assert result[1].measurement_count > 0


def test_serving_faults_warm(benchmark, tmp_path):
    """Warm fault-injected drain: the store holds the grid, zero
    measurements -- the fault machinery itself is what's being timed."""
    store_dir = tmp_path / "fwarm"
    clear_memory_layer()
    _faults_drain(CalibrationStore(store_dir))

    def setup():
        clear_memory_layer()
        return (CalibrationStore(store_dir),), {}

    result = benchmark.pedantic(_faults_drain, setup=setup, rounds=3, iterations=1)
    _assert_faults_shape(result)
    assert result[1].measurement_count == 0


# --- elastic autoscaling ----------------------------------------------------

#: The autoscale benchmark's scenario: a hot Poisson stream into a fleet
#: of one warm node and three offline spares, retry-bounded admission.
AUTOSCALE_SPEC = "auto:1:4:4:60"
AUTOSCALE_OVERLOAD = "retry:32"


def _autoscale_drain(store):
    """Elastic fleet drain: the ``serving-autoscale`` gate.  One warm node
    takes a stream hot enough to breach the queue-depth target, offline
    spares provision through the RECOVERING lifecycle, the tail drains
    them gracefully, and bounded admission retries ride along -- so the
    scale-up, scale-down, billing, and overload paths are all timed."""
    from repro.models import get_model
    from repro.serving import (
        ClusterScheduler,
        ContinuousBatching,
        LeastOutstandingTokens,
        PoissonArrivals,
        parse_autoscale_spec,
        parse_overload_spec,
    )
    from repro.serving.cluster import build_fleet
    from repro.workloads import sample_request_classes

    model = get_model(serving_throughput.MODEL)
    fleet = build_fleet(
        model, ["HILOS (8 SmartSSDs)"] * CLUSTER_NODES, store=store
    )
    scheduler = ClusterScheduler(
        fleet,
        ContinuousBatching(serving_throughput.BATCH_SLOTS),
        router=LeastOutstandingTokens(),
        overload=parse_overload_spec(AUTOSCALE_OVERLOAD, seed=CLUSTER_SEED),
        autoscale=parse_autoscale_spec(AUTOSCALE_SPEC, seed=CLUSTER_SEED),
    )
    report = scheduler.drain(
        sample_request_classes(CLUSTER_REQUESTS, seed=CLUSTER_SEED),
        arrivals=PoissonArrivals(rate_per_second=0.2, seed=CLUSTER_SEED),
    )
    step_time = fleet[0].step_time
    step_time.flush()
    return report, step_time


def _assert_autoscale_shape(result):
    report, _ = result
    assert report.completed + report.shed_requests == report.n_requests
    assert report.completed > 0
    assert any(e.action == "scale-up" for e in report.scale_events), (
        "the gate must exercise the provisioning path"
    )
    assert report.tokens_per_second > 0
    # Spares start offline and are billed uptime-only.
    assert any(n.downtime_seconds > 0 for n in report.node_reports[1:])
    assert report.tokens_per_second_per_usd > 0


def test_serving_autoscale_cold(benchmark, tmp_path):
    """Cold elastic drain: the shared grid is measured in-run."""
    state = {"round": 0}

    def setup():
        state["round"] += 1
        clear_memory_layer()
        return (CalibrationStore(tmp_path / f"acold{state['round']}"),), {}

    result = benchmark.pedantic(_autoscale_drain, setup=setup, rounds=3, iterations=1)
    _assert_autoscale_shape(result)
    assert result[1].measurement_count > 0


def test_serving_autoscale_warm(benchmark, tmp_path):
    """Warm elastic drain: the store holds the grid, zero measurements --
    the autoscaler and admission control are what's being timed."""
    store_dir = tmp_path / "awarm"
    clear_memory_layer()
    _autoscale_drain(CalibrationStore(store_dir))

    def setup():
        clear_memory_layer()
        return (CalibrationStore(store_dir),), {}

    result = benchmark.pedantic(_autoscale_drain, setup=setup, rounds=3, iterations=1)
    _assert_autoscale_shape(result)
    assert result[1].measurement_count == 0


# --- tiered KV hierarchy ----------------------------------------------------

#: The tier benchmark's stack: a top tier of two Long final contexts over a
#: sixteen-Long near-storage tier behind a 16 GB/s link -- tight enough
#: that the LRU policy demotes whole contexts under pressure, promotes
#: them back for decode when headroom frees, and decode iterations pay the
#: spilled-KV read surcharge while victims wait below.
KVTIERS_TOP_FINALS = 2.0
KVTIERS_LOWER_FINALS = 16.0
KVTIERS_LINK_BYTES_PER_S = 16e9


def _kvtiers_drain(store):
    """Tiered drain: the ``serving-kvtiers`` gate.  The preemption gate's
    Poisson stream drains through one HILOS-8 node whose KV home is a
    two-tier stack (tight fast tier over a roomy near-storage tier) under
    LRU-by-request demotion -- so tier placement, billed demotion and
    promotion traffic, and the per-iteration spilled-KV read surcharge are
    all on the timed path."""
    from repro.models import get_model
    from repro.serving import (
        ClusterScheduler,
        ContinuousBatching,
        KVTier,
        LRUByRequest,
        PoissonArrivals,
        TierStack,
    )
    from repro.serving.cluster import build_fleet
    from repro.workloads import sample_request_classes
    from repro.workloads.requests import LONG

    model = get_model(serving_throughput.MODEL)
    one_long = model.kv_cache_bytes(1, LONG.total_tokens)
    stack = TierStack(
        (
            KVTier("hbm", capacity_bytes=one_long * KVTIERS_TOP_FINALS),
            KVTier(
                "ssd",
                capacity_bytes=one_long * KVTIERS_LOWER_FINALS,
                bandwidth_bytes_per_s=KVTIERS_LINK_BYTES_PER_S,
            ),
        )
    )
    fleet = build_fleet(
        model,
        ["HILOS (8 SmartSSDs)"],
        store=store,
        kv_tiers=stack,
        kv_policy=LRUByRequest(),
    )
    scheduler = ClusterScheduler(
        fleet, ContinuousBatching(serving_throughput.BATCH_SLOTS)
    )
    report = scheduler.drain(
        sample_request_classes(PREEMPTION_REQUESTS, seed=PREEMPTION_SEED),
        arrivals=PoissonArrivals(rate_per_second=0.02, seed=PREEMPTION_SEED),
    )
    step_time = fleet[0].step_time
    step_time.flush()
    return report, step_time


def _assert_kvtiers_shape(result):
    report, _ = result
    assert report.all_completed
    top, lower = report.kv_tiers
    assert lower.demoted_bytes > 0, "the gate must exercise the demotion path"
    assert top.hit_rate < 1.0, "the gate must exercise the spilled-read path"
    assert report.spilled_decode_seconds > 0


def test_serving_kvtiers_cold(benchmark, tmp_path):
    """Cold tiered drain: the calibration grid is measured in-run."""
    state = {"round": 0}

    def setup():
        state["round"] += 1
        clear_memory_layer()
        return (CalibrationStore(tmp_path / f"kcold{state['round']}"),), {}

    result = benchmark.pedantic(_kvtiers_drain, setup=setup, rounds=3, iterations=1)
    _assert_kvtiers_shape(result)
    assert result[1].measurement_count > 0


def test_serving_kvtiers_warm(benchmark, tmp_path):
    """Warm tiered drain: the store holds the grid, zero measurements --
    the tier ledger, policy, and movement billing are what's timed."""
    store_dir = tmp_path / "kwarm"
    clear_memory_layer()
    _kvtiers_drain(CalibrationStore(store_dir))

    def setup():
        clear_memory_layer()
        return (CalibrationStore(store_dir),), {}

    result = benchmark.pedantic(_kvtiers_drain, setup=setup, rounds=3, iterations=1)
    _assert_kvtiers_shape(result)
    assert result[1].measurement_count == 0


# --- fleet folding ----------------------------------------------------------

#: The folding benchmark's scenario: a 64-node round-robin fleet draining
#: a ~100k-request bursty Poisson stream of one request class.  Round-robin
#: deals each 256-request burst 4 to a node, so every node gets an
#: identical slice and the folded drain simulates ONE representative
#: engine over its 1568 requests; the full path at this scale is ~13x
#: slower (see BENCH_serving.json).
FOLDED_NODES = 64
FOLDED_REQUESTS = 100_352  # 64 nodes x 1568 requests
FOLDED_BURST = 256
FOLDED_RATE = 0.05
FOLDED_SEED = 7


def _fleet_folded_drain(store):
    """Folded fleet drain: the ``serving-fleet-folded`` gate.  A symmetric
    64-node HILOS-8 fleet under round-robin placement drains 100k uniform
    requests arriving in Poisson-timed bursts;
    ``fleet_symmetry="representative"`` demands the folded path, so the
    timed body is one representative engine over the only requests the
    drain builds (one node's slice) plus the fold plan's list work over
    arrival times; mirrored requests are built only when the report's
    request view is read."""
    from repro.models import get_model
    from repro.serving import (
        BatchedArrivals,
        ClusterScheduler,
        ContinuousBatching,
        RoundRobin,
    )
    from repro.serving.cluster import build_fleet
    from repro.workloads.requests import SHORT

    model = get_model(serving_throughput.MODEL)
    fleet = build_fleet(
        model, ["HILOS (8 SmartSSDs)"] * FOLDED_NODES, store=store
    )
    scheduler = ClusterScheduler(
        fleet,
        ContinuousBatching(serving_throughput.BATCH_SLOTS),
        router=RoundRobin(),
        fleet_symmetry="representative",
    )
    report = scheduler.drain(
        [SHORT] * FOLDED_REQUESTS,
        arrivals=BatchedArrivals(FOLDED_RATE, FOLDED_BURST, seed=FOLDED_SEED),
    )
    step_time = fleet[0].step_time
    step_time.flush()
    return report, step_time


def _assert_fleet_folded_shape(result):
    report, _ = result
    assert report.fleet_symmetry == "representative"
    assert report.all_completed
    assert len(report.node_reports) == FOLDED_NODES
    assert sum(n.completed for n in report.node_reports) == FOLDED_REQUESTS
    # Folding: every node's breakdown is the representative's outcome.
    assert len({n.generated_tokens for n in report.node_reports}) == 1
    assert len(report.requests) == FOLDED_REQUESTS
    assert report.tokens_per_second_per_usd > 0


def test_serving_fleet_folded_cold(benchmark, tmp_path):
    """Cold folded drain: the shared grid is measured in-run (once -- the
    whole fleet shares one representative's step-time model)."""
    state = {"round": 0}

    def setup():
        state["round"] += 1
        clear_memory_layer()
        return (CalibrationStore(tmp_path / f"ffcold{state['round']}"),), {}

    result = benchmark.pedantic(
        _fleet_folded_drain, setup=setup, rounds=3, iterations=1
    )
    _assert_fleet_folded_shape(result)
    assert result[1].measurement_count > 0


def test_serving_fleet_folded_warm(benchmark, tmp_path):
    """Warm folded drain: zero measurements -- the fold plan, the
    representative engine, and the group-tally report are what's timed."""
    store_dir = tmp_path / "ffwarm"
    clear_memory_layer()
    _fleet_folded_drain(CalibrationStore(store_dir))

    def setup():
        clear_memory_layer()
        return (CalibrationStore(store_dir),), {}

    result = benchmark.pedantic(
        _fleet_folded_drain, setup=setup, rounds=3, iterations=1
    )
    _assert_fleet_folded_shape(result)
    assert result[1].measurement_count == 0
