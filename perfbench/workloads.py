"""The benchmark's workloads: what one timed operation runs and checks.

Every workload builds its inputs from the seed, then repeats one operation
(an experiment sweep or a fleet drain) that the runner times.  Inputs that
do not depend on the operation's result -- the request stream, a warm
calibration store -- are built before timing; the operation itself is what
a user of the reproduction runs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
import random
import shutil
from pathlib import Path

from repro.calibration import CalibrationStore
from repro.calibration.prewarm import prewarm_step_grids
from repro.calibration.store import clear_memory_layer
from repro.models import get_model
from repro.serving import (
    BatchedArrivals,
    ClusterScheduler,
    ContinuousBatching,
    KVTier,
    LeastOutstandingTokens,
    LRUByRequest,
    PoissonArrivals,
    RoundRobin,
    TierStack,
)
from repro.serving.cluster import build_fleet
from repro.serving.steptime import CalibratedStepTime
from repro.workloads.requests import AZURE_OFFLINE_MIX, LONG, REQUEST_CLASSES, SHORT

#: The serving experiments' model and the system every drain runs on.
MODEL = "OPT-66B"
SYSTEM = "HILOS (8 SmartSSDs)"
BATCH_SLOTS = 16

#: Off-grid (batch, context) points where the step-time surrogate is scored
#: against a direct measure(): the three points the ROADMAP cites plus
#: three more spread over the grid's cells.
SURROGATE_HELD_OUT = ((6, 8192), (12, 8192), (24, 2048), (3, 512), (6, 2048), (12, 512))
#: Grid points where the surrogate must equal measure() exactly.
SURROGATE_GRID_CHECK = ((1, 256), (4, 1024), (16, 4096), (8, 16384))


def _plain(value):
    """A JSON-ready copy of a report value (dataclasses become dicts)."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _plain(getattr(value, f.name))
            for f in dataclasses.fields(value)
            if f.name != "requests"
        }
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def _digest(chunks) -> str:
    """sha256 over the sorted-JSON form of each chunk, fed one at a time so
    a 200k-request report never becomes one string in memory."""
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(json.dumps(chunk, sort_keys=True, allow_nan=True).encode())
        digest.update(b"\n")
    return digest.hexdigest()[:16]


def _chunks(items, size: int = 4096):
    """``items`` in lists of up to ``size``: one JSON encoding per list keeps
    the digest of a 200k-request drain cheap enough to take on every op."""
    items = iter(items)
    while chunk := list(itertools.islice(items, size)):
        yield chunk


def mixed_request_classes(n_requests: int, seed: int) -> list:
    """The Azure Short/Medium/Long mix in exact proportions, in a seeded
    order: the seed moves which request arrives when, not how much work the
    queue holds, so runs on different seeds time the same work."""
    weights = AZURE_OFFLINE_MIX.weights
    total = sum(weights.values())
    counts = {name: int(n_requests * w / total) for name, w in weights.items()}
    counts[max(weights, key=weights.get)] += n_requests - sum(counts.values())
    classes = [REQUEST_CLASSES[name] for name, k in counts.items() for _ in range(k)]
    random.Random(seed).shuffle(classes)
    return classes


def surrogate_error(store: CalibrationStore) -> tuple[float, list[str]]:
    """Largest relative error (%) of the step-time surrogate off-grid.

    The surrogate is built over ``store`` exactly as a drain builds it;
    the reference is a direct ``measure()`` with the surrogate's own step
    settings.  Also checks that grid points reproduce ``measure()``
    exactly; each mismatch is returned as a problem.
    """
    from repro.baselines.registry import build_inference_system

    model = get_model(MODEL)
    surrogate = CalibratedStepTime(build_inference_system(SYSTEM, model), store=store)
    reference = build_inference_system(SYSTEM, model)

    def direct(batch: int, seq: int) -> float:
        result = reference.measure(
            batch, seq, n_steps=surrogate.n_steps, warmup_steps=surrogate.warmup_steps
        )
        step = result.step_seconds
        if result.effective_batch < batch:
            # The surrogate bills a placement-clamped batch as time-sliced
            # sub-batches; the reference must too.
            step *= batch / result.effective_batch
        return step

    worst = max(
        abs(surrogate.step_seconds(b, s) / direct(b, s) - 1.0)
        for b, s in SURROGATE_HELD_OUT
    )
    problems = [
        f"surrogate differs from measure() on grid point {(b, s)}"
        for b, s in SURROGATE_GRID_CHECK
        if surrogate.step_seconds(b, s) != direct(b, s)
    ]
    surrogate.flush()
    return worst * 100.0, problems


class FiguresCold:
    """Every fast-mode figure and table experiment from an empty store."""

    name = "figures-cold"

    @staticmethod
    def experiments() -> list[str]:
        """Everything the runner offers except the serving sweep.

        Imported on demand: the experiment modules pull in scipy, which a
        user running only a fleet drain never imports.
        """
        from repro.experiments import runner

        return [name for name in runner.EXPERIMENTS if name != "serving"]

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.names = self.experiments()
        self._ops = 0

    def setup(self) -> None:
        """Nothing to build: the operation starts from an empty store."""
        clear_memory_layer()

    def prepare(self):
        self._ops += 1
        clear_memory_layer()
        return CalibrationStore(self.workdir / f"figures{self._ops}")

    def op(self, store: CalibrationStore, tracer=None):
        """Run every experiment; a raised error is kept as its outcome."""
        from repro.experiments import runner

        outcomes = {}
        for name in self.names:
            module = runner.EXPERIMENTS[name]
            kwargs = runner._supported_kwargs(module, {"store": store, "seed": self.seed})
            if tracer is not None:
                tracer.enter(f"experiment:{name}")
            try:
                outcomes[name] = module.run(fast=True, **kwargs)
            except Exception as exc:  # an experiment failing is a measured outcome
                outcomes[name] = exc
            finally:
                if tracer is not None:
                    tracer.exit()
        store.flush_dirty()
        return outcomes

    def finish(self, store: CalibrationStore) -> None:
        shutil.rmtree(store.root, ignore_errors=True)

    def check(self, outcomes) -> tuple[int, int, list[str]]:
        """One operation per experiment: it must return finite, non-empty
        tables, and fig18's HILOS F1 must equal FlashAttention's."""
        bad = {}
        for name, tables in outcomes.items():
            if isinstance(tables, Exception):
                bad[name] = f"raised {type(tables).__name__}: {tables}"
            elif not tables or any(not table.rows for table in tables):
                bad[name] = "returned an empty table"
            elif any(
                isinstance(v, float) and not math.isfinite(v) and not _oom_row(row)
                for t in tables
                for row in t.rows
                for v in row
            ):
                bad[name] = "has a non-finite cell"
        fig18 = outcomes.get("fig18")
        if "fig18" not in bad and fig18 is not None:
            table = fig18[0]
            if table.column("hilos") != table.column("flashattention"):
                bad["fig18"] = "HILOS F1 differs from FlashAttention"
        problems = [f"{name} {reason}" for name, reason in bad.items()]
        return len(outcomes), len(bad), problems

    def digest(self, outcomes) -> str:
        return _digest(
            [name, repr(tables)]
            if isinstance(tables, Exception)
            else [name, [[t.title, t.columns, _plain(t.rows)] for t in tables]]
            for name, tables in outcomes.items()
        )

    def model_metrics(self, outcomes) -> dict:
        return {}

    def surrogate(self) -> tuple[float, list[str]]:
        clear_memory_layer()
        return surrogate_error(CalibrationStore(self.workdir / "surrogate"))


def _oom_row(row) -> bool:
    """Whether a row records an out-of-memory point (infinite by design)."""
    return any(isinstance(v, str) and "OOM" in v.upper() for v in row)


class Drain:
    """A fleet drain from a warm on-disk calibration store."""

    name = ""
    nodes = 1

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.model = get_model(MODEL)
        self.classes = self.request_classes()
        self.warm = workdir / "warm"
        self._ops = 0

    # --- inputs ------------------------------------------------------------------

    def request_classes(self) -> list:
        raise NotImplementedError

    def arrivals(self):
        raise NotImplementedError

    def scheduler(self, store: CalibrationStore) -> ClusterScheduler:
        raise NotImplementedError

    # --- phases --------------------------------------------------------------------

    def setup(self) -> None:
        """Fill an empty store with the system's calibration grid."""
        clear_memory_layer()
        shutil.rmtree(self.warm, ignore_errors=True)
        prewarm_step_grids([SYSTEM], model_name=MODEL, store=CalibrationStore(self.warm))

    def prepare(self):
        """A fresh copy of the warm store and a freshly built fleet."""
        self._ops += 1
        clear_memory_layer()
        root = self.workdir / f"op{self._ops}"
        shutil.copytree(self.warm, root)
        store = CalibrationStore(root)
        return self.scheduler(store), store, self.arrivals()

    def op(self, state, tracer=None):
        scheduler, store, arrivals = state
        report = scheduler.drain(self.classes, arrivals=arrivals)
        scheduler.nodes[0].step_time.flush()
        return report

    def finish(self, state) -> None:
        shutil.rmtree(state[1].root, ignore_errors=True)

    # --- checks and summaries ------------------------------------------------------

    def check(self, report) -> tuple[int, int, list[str]]:
        """One operation per request: it must complete, and the fleet
        totals must equal the sum of the per-node breakdowns."""
        n = len(self.classes)
        problems = []
        failed = n - report.completed
        if report.n_requests != n or failed:
            problems.append(f"{failed} of {n} requests not completed")
        nodes = report.node_reports
        if (
            len(nodes) != self.nodes
            or sum(b.generated_tokens for b in nodes) != report.generated_tokens
            or sum(b.completed for b in nodes) != report.completed
            or sum(b.n_requests for b in nodes) != report.n_requests
        ):
            problems.append("fleet totals differ from the sum of node breakdowns")
            failed = n
        shape = self.shape_problems(report)
        if shape:
            problems.extend(shape)
            failed = n
        return n, failed, problems

    def shape_problems(self, report) -> list[str]:
        """Workload-specific checks that the drain exercised its mechanism."""
        return []

    def digest(self, report) -> str:
        outcomes = (
            (
                r.request_id,
                r.request_class.name,
                r.arrival_time,
                r.admitted_time,
                r.first_token_time,
                r.completion_time,
                r.tokens_generated,
                r.preemption_count,
                r.wasted_prefill_tokens,
            )
            for r in report.requests
        )
        return _digest(itertools.chain([_plain(report)], _chunks(outcomes)))

    def model_metrics(self, report) -> dict:
        shares = [b.n_requests / report.n_requests for b in report.node_reports]
        tiers = report.kv_tiers
        return {
            "model.tokens_per_s": report.tokens_per_second,
            "model.makespan_s": report.makespan_seconds,
            "model.p99_latency_s": report.p99_latency_seconds,
            "model.tokens_per_s_per_usd": report.tokens_per_second_per_usd,
            "router.max_node_share": max(shares),
            "engine.preemptions": report.preemptions,
            "kvtiers.demoted_gb": sum(t.demoted_bytes for t in tiers) / 1e9,
            "kvtiers.promoted_gb": sum(t.promoted_bytes for t in tiers) / 1e9,
            "kvtiers.top_hit_rate": tiers[0].hit_rate if tiers else 0.0,
        }

    def surrogate(self) -> tuple[float, list[str]]:
        clear_memory_layer()
        return surrogate_error(CalibrationStore(self.warm))


class FleetJSQ(Drain):
    """16 HILOS-8 nodes under join-shortest-queue, offered ~2x capacity."""

    name = "fleet-jsq"
    nodes = 16
    REQUESTS_PER_NODE = 256
    RATE_PER_NODE = 0.025

    def __init__(self, seed: int, workdir: Path, nodes: int = 16) -> None:
        self.nodes = nodes
        super().__init__(seed, workdir)

    def request_classes(self) -> list:
        return mixed_request_classes(self.REQUESTS_PER_NODE * self.nodes, self.seed)

    def arrivals(self):
        return PoissonArrivals(rate_per_second=self.RATE_PER_NODE * self.nodes, seed=self.seed)

    def scheduler(self, store):
        fleet = build_fleet(self.model, [SYSTEM] * self.nodes, store=store)
        return ClusterScheduler(
            fleet, ContinuousBatching(BATCH_SLOTS), router=LeastOutstandingTokens()
        )


class FleetFolded(Drain):
    """64 round-robin nodes folded to one representative engine."""

    name = "fleet-folded"
    nodes = 64
    REQUESTS = 64 * 3136
    BURST = 256
    RATE = 0.05

    def request_classes(self) -> list:
        return [SHORT] * self.REQUESTS

    def arrivals(self):
        return BatchedArrivals(self.RATE, self.BURST, seed=self.seed)

    def scheduler(self, store):
        fleet = build_fleet(self.model, [SYSTEM] * self.nodes, store=store)
        return ClusterScheduler(
            fleet,
            ContinuousBatching(BATCH_SLOTS),
            router=RoundRobin(),
            fleet_symmetry="representative",
        )

    def shape_problems(self, report) -> list[str]:
        if report.fleet_symmetry != "representative":
            return ["the drain did not fold"]
        return []


class NodeTiered(Drain):
    """One node whose KV home is a tight HBM tier over a roomy SSD tier."""

    name = "node-tiered"
    nodes = 1
    REQUESTS = 2048
    RATE = 0.02
    TOP_LONG_FINALS = 2.0
    LOWER_LONG_FINALS = 16.0
    LOWER_BYTES_PER_S = 16e9
    PREFILL_CHUNK = 512

    def request_classes(self) -> list:
        return mixed_request_classes(self.REQUESTS, self.seed)

    def arrivals(self):
        return PoissonArrivals(rate_per_second=self.RATE, seed=self.seed)

    def scheduler(self, store):
        one_long = self.model.kv_cache_bytes(1, LONG.total_tokens)
        stack = TierStack(
            (
                KVTier("hbm", capacity_bytes=one_long * self.TOP_LONG_FINALS),
                KVTier(
                    "ssd",
                    capacity_bytes=one_long * self.LOWER_LONG_FINALS,
                    bandwidth_bytes_per_s=self.LOWER_BYTES_PER_S,
                ),
            )
        )
        fleet = build_fleet(
            self.model,
            [SYSTEM],
            store=store,
            prefill_chunk_tokens=self.PREFILL_CHUNK,
            kv_tiers=stack,
            kv_policy=LRUByRequest(),
        )
        return ClusterScheduler(
            fleet, ContinuousBatching(BATCH_SLOTS, admission="optimistic")
        )

    def shape_problems(self, report) -> list[str]:
        top, lower = report.kv_tiers
        if lower.demoted_bytes <= 0 or top.hit_rate >= 1.0:
            return ["the drain never demoted or read spilled KV"]
        return []


WORKLOADS = {
    cls.name: cls for cls in (FiguresCold, FleetJSQ, FleetFolded, NodeTiered)
}

#: Fleet sizes of the routing scaling sweep (requests scale with nodes).
SWEEP_NODES = (4, 8, 16)
