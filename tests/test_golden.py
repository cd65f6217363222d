"""Golden digests: one small drain per serving mechanism, pinned bit for bit.

``GOLDEN.json`` at the repository root maps every scenario in
:data:`SCENARIOS` to a digest of its drain: a sha256 over the sorted-key
JSON of the report (every dataclass field but ``requests``, nested
dataclasses as dicts), then over one line per request holding its id,
class name, arrival time and every
:attr:`~repro.serving.request.ServingRequest.OUTCOME_FIELDS` entry.  A
change that moves any simulated figure of any mechanism moves a digest,
and since floats are encoded exactly, so does a figure that depends on
the Python version.

Next to each digest the file pins six exact work counters of the drain:
``events``, the callbacks its simulator processed; ``step_queries``, the
decode step-time queries it made of the scenario's step-time model; the
tier trackers' ``settles`` (growing requests brought current) and
``cascade_steps`` (decode steps that fell back to the per-request
cascade), summed over the drain's nodes (0 on flat nodes);
``budget_calls``, the calls of the KV ledger's ``fits_bytes``,
``reserve``, ``occupy``, ``update`` and ``release`` across the drain's
trackers (a tier tracker's override counts once, through its ``super()``
call); and ``load_probes``, the reads of the engines' load views
``outstanding_tokens``, ``kv_headroom_bytes``, ``top_tier_headroom_bytes``
and ``queued_requests`` (a view that reads another counts both).  They
are deterministic, so any change in the work a drain does -- a saving or
a regression -- shows as a changed counter, noise-free.

A change that moves figures or counters on purpose regenerates the file
and names every changed digest and counter::

    PYTHONPATH=src python tests/test_golden.py --regenerate
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sys
from contextlib import ExitStack, contextmanager
from pathlib import Path
from unittest import mock

import pytest

from repro.analysis.sanitizer import SANITIZE_ENV
from repro.core.config import HilosConfig
from repro.core.runtime import HilosSystem
from repro.models.registry import tiny_model
from repro.serving import (
    AnalyticStepTime,
    AttentionAwareDemotion,
    BatchedArrivals,
    BestFitKV,
    BudgetTracker,
    CapacityBudget,
    ClusterScheduler,
    ContinuousBatching,
    FCFSFixedBatch,
    KVTier,
    LeastOutstandingTokens,
    LengthBucketedBatch,
    LRUByRequest,
    Node,
    PoissonArrivals,
    RoundRobin,
    ServingRequest,
    StaticSplit,
    TierStack,
    WeightedRoundRobin,
    parse_autoscale_spec,
    parse_fault_spec,
    parse_overload_spec,
)
from repro.serving import cluster
from repro.serving.engine import NodeEngine
from repro.sim.engine import Simulator
from repro.workloads import sample_request_classes
from repro.workloads.requests import LONG, MEDIUM, SHORT

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "GOLDEN.json"

MODEL = tiny_model(n_layers=2, hidden=32, intermediate=64, n_heads=4)
#: One Long request's final-context KV bytes: the unit tier stacks and
#: tight budgets are sized in.
LONG_BYTES = float(MODEL.kv_cache_bytes(1, LONG.total_tokens))


def _drain(
    system,
    n_nodes=1,
    policy=None,
    n_requests=16,
    seed=1,
    rate=1.0,
    classes=None,
    arrivals=None,
    node=None,
    **cluster,
):
    """Drain a Poisson queue on ``n_nodes`` nodes sharing one step-time
    model; ``node`` and ``cluster`` pass through to :class:`Node` and
    :class:`ClusterScheduler`."""
    steps = AnalyticStepTime(
        base_seconds=1.0, per_token_seconds=1e-4, prefill_per_token_seconds=1e-3
    )
    nodes = [
        Node(system, step_time=steps, name=f"node{i}", **(node or {}))
        for i in range(n_nodes)
    ]
    scheduler = ClusterScheduler(
        nodes, policy or ContinuousBatching(4, admission="optimistic"), **cluster
    )
    return scheduler.drain(
        classes or sample_request_classes(n_requests, seed=seed),
        arrivals=arrivals or PoissonArrivals(rate_per_second=rate, seed=seed),
    )


def _stack(levels: int) -> TierStack:
    """A 2-tier hbm/ssd or 3-tier hbm/dram/ssd stack, sized so a mixed
    queue demotes, promotes and spills."""
    top = KVTier("hbm", capacity_bytes=0.25 * LONG_BYTES)
    ssd_share = 1.0 if levels == 2 else 0.5
    ssd = KVTier(
        "ssd", capacity_bytes=ssd_share * LONG_BYTES, bandwidth_bytes_per_s=1e9
    )
    if levels == 2:
        return TierStack((top, ssd))
    dram = KVTier("dram", capacity_bytes=0.5 * LONG_BYTES, bandwidth_bytes_per_s=4e9)
    return TierStack((top, dram, ssd))


def _tiered(policy_factory, admission: str, levels: int):
    def scenario(system):
        return _drain(
            system,
            policy=ContinuousBatching(4, admission=admission),
            rate=2.0,
            seed=3,
            node={"kv_tiers": _stack(levels), "kv_policy": policy_factory()},
        )

    return scenario


def _overload(spec: str, rate: float):
    def scenario(system):
        return _drain(
            system,
            2,
            n_requests=24,
            seed=23,
            rate=rate,
            router=LeastOutstandingTokens(),
            overload=parse_overload_spec(spec),
        )

    return scenario


#: The folded scenarios' queue: a Short/Medium cycle in bursts of eight,
#: so round-robin deals four nodes two groups of identical slices.
_FOLDABLE = [SHORT, MEDIUM] * 12


def _round_robin(symmetry: str):
    def scenario(system):
        return _drain(
            system,
            4,
            classes=_FOLDABLE,
            arrivals=BatchedArrivals(rate_per_second=0.05, burst_size=8, seed=5),
            router=RoundRobin(),
            fleet_symmetry=symmetry,
        )

    return scenario


SCENARIOS = {
    "node-fcfs": lambda s: _drain(s, policy=FCFSFixedBatch(4)),
    "node-length-bucketed": lambda s: _drain(s, policy=LengthBucketedBatch(4)),
    "node-optimistic-chunked": lambda s: _drain(
        s, rate=2.0, node={"prefill_chunk_tokens": 256}
    ),
    "node-optimistic-tight-budget": lambda s: _drain(
        s,
        policy=ContinuousBatching(8, admission="optimistic"),
        rate=2.0,
        seed=3,
        node={
            "prefill_chunk_tokens": 512,
            "budget": CapacityBudget(1.5 * LONG_BYTES, description="tight"),
        },
    ),
    "fleet-jsq": lambda s: _drain(
        s, 3, n_requests=24, rate=2.0, router=LeastOutstandingTokens()
    ),
    "fleet-bestfit": lambda s: _drain(
        s, 3, n_requests=24, rate=2.0, router=BestFitKV()
    ),
    "fleet-wrr": lambda s: _drain(
        s, 3, n_requests=24, rate=2.0, router=WeightedRoundRobin((2, 1, 1))
    ),
    "fleet-rr-full": _round_robin("full"),
    "fleet-rr-representative": _round_robin("representative"),
    "faults-spot": lambda s: _drain(
        s,
        3,
        n_requests=24,
        rate=0.5,
        router=LeastOutstandingTokens(),
        faults=parse_fault_spec("spot:200:15:2"),
    ),
    "faults-crash-slow": lambda s: _drain(
        s,
        3,
        n_requests=24,
        rate=0.5,
        router=RoundRobin(),
        faults=parse_fault_spec("crash:40:1,slow:10:60:2.5:0"),
    ),
    "overload-shed": _overload("shed:2", 2.0),
    "overload-retry": _overload("retry:4", 1.0),
    "overload-retry-exhausted": _overload("retry:1:-:1", 4.0),
    "overload-park-deadline": _overload("park:1:-:5", 4.0),
    "overload-token-rate": _overload("shed:-:50", 4.0),
    "faults-overload": lambda s: _drain(
        s,
        3,
        n_requests=40,
        seed=23,
        rate=2.0,
        router=LeastOutstandingTokens(),
        faults=parse_fault_spec("spot:200:15:2"),
        overload=parse_overload_spec("shed:2"),
    ),
    "autoscale": lambda s: _drain(
        s,
        4,
        n_requests=24,
        seed=23,
        rate=2.0,
        router=LeastOutstandingTokens(),
        autoscale=parse_autoscale_spec("auto:1:4:3:30"),
    ),
    "autoscale-faults": lambda s: _drain(
        s,
        4,
        n_requests=24,
        seed=23,
        rate=2.0,
        router=LeastOutstandingTokens(),
        autoscale=parse_autoscale_spec("auto:2:4:3:30"),
        faults=parse_fault_spec("crash:60:0"),
    ),
    **{
        f"tiered-{name}-{admission}-{levels}tier": _tiered(factory, admission, levels)
        for name, factory in (
            ("lru", LRUByRequest),
            ("attention", lambda: AttentionAwareDemotion(0.3)),
            ("static", lambda: StaticSplit(0.5)),
        )
        for admission in ("reserve", "optimistic")
        for levels in (2, 3)
    },
    "tiered-fleet-bestfit": lambda s: _drain(
        s,
        2,
        n_requests=24,
        seed=3,
        rate=2.0,
        router=BestFitKV(),
        node={"kv_tiers": _stack(2), "kv_policy": LRUByRequest()},
    ),
    "tiered-fleet-faults": lambda s: _drain(
        s,
        3,
        n_requests=24,
        seed=3,
        rate=1.0,
        router=LeastOutstandingTokens(),
        faults=parse_fault_spec("spot:150:20:4"),
        node={"kv_tiers": _stack(3), "kv_policy": AttentionAwareDemotion(0.3)},
    ),
}


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


def outcome_lines(report) -> list[list]:
    """One line per request: its id, class, arrival time and outcome."""
    return [
        [r.request_id, r.request_class.name, r.arrival_time]
        + [getattr(r, name) for name in ServingRequest.OUTCOME_FIELDS]
        for r in report.requests
    ]


def digest(report) -> str:
    """sha256 over the report's plain form, then one line per request."""
    lines = [_plain(report), *outcome_lines(report)]
    sha = hashlib.sha256()
    for line in lines:
        sha.update(json.dumps(line, sort_keys=True, allow_nan=True).encode())
        sha.update(b"\n")
    return sha.hexdigest()


#: The exact work counters pinned next to each digest.
COUNTERS = (
    "events",
    "step_queries",
    "settles",
    "cascade_steps",
    "budget_calls",
    "load_probes",
)

#: The KV ledger calls ``budget_calls`` counts (base-class methods, so a
#: tier tracker's override counts once, through its ``super()`` call).
BUDGET_CALLS = ("fits_bytes", "reserve", "occupy", "update", "release")
#: The engine load views ``load_probes`` counts.
LOAD_PROBES = (
    "outstanding_tokens",
    "kv_headroom_bytes",
    "top_tier_headroom_bytes",
    "queued_requests",
)


@contextmanager
def _recorded(name: str, base: type):
    """Yield a list that collects every ``base`` a drain builds (the
    cluster module's ``name``)."""
    built: list = []

    class Recording(base):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    with mock.patch.object(cluster, name, Recording):
        yield built


def recorded_simulators():
    """Yield a list that collects every simulator a drain builds."""
    return _recorded("Simulator", Simulator)


def _counting(calls: dict, name: str, fn):
    """``fn``, counting each call under ``name`` in ``calls``."""

    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return counted


def observe(run, system) -> dict:
    """Drain one scenario: its digest and its exact work counters."""
    calls = dict.fromkeys(("step_queries", "budget_calls", "load_probes"), 0)
    with ExitStack() as patches:
        sims = patches.enter_context(recorded_simulators())
        engines = patches.enter_context(_recorded("NodeEngine", NodeEngine))
        patches.enter_context(
            mock.patch.object(
                AnalyticStepTime,
                "step_seconds",
                _counting(calls, "step_queries", AnalyticStepTime.step_seconds),
            )
        )
        for name in BUDGET_CALLS:
            patches.enter_context(
                mock.patch.object(
                    BudgetTracker,
                    name,
                    _counting(calls, "budget_calls", getattr(BudgetTracker, name)),
                )
            )
        for name in LOAD_PROBES:
            view = getattr(NodeEngine, name)
            patches.enter_context(
                mock.patch.object(
                    NodeEngine,
                    name,
                    property(_counting(calls, "load_probes", view.fget)),
                )
            )
        report = run(system)
    (sim,) = sims
    trackers = [
        engine.tracker for engine in engines if engine.node.kv_tiers is not None
    ]
    return {
        "digest": digest(report),
        "events": sim.events_processed,
        "settles": sum(tracker.settles for tracker in trackers),
        "cascade_steps": sum(tracker.cascade_steps for tracker in trackers),
        **calls,
    }


def observations() -> dict[str, dict]:
    """Every scenario's digest and counters, by name."""
    system = HilosSystem(MODEL, HilosConfig(n_devices=2))
    return {name: observe(run, system) for name, run in SCENARIOS.items()}


def changes(old: dict, new: dict, fields) -> list[str]:
    """Each scenario whose digest moved, and each moved counter with its
    old and new value."""
    changed = []
    for name in sorted(old.keys() | new.keys()):
        was, now = old.get(name, {}), new.get(name, {})
        for field in fields:
            if was.get(field) == now.get(field):
                continue
            if field == "digest":
                changed.append(name)
            else:
                changed.append(f"{name} {field} {was.get(field)} -> {now.get(field)}")
    return changed


@pytest.fixture(scope="module")
def golden():
    """The file's entries and this tree's, computed once for both checks."""
    return json.loads(GOLDEN_PATH.read_text()), observations()


def test_drains_match_golden_digests(golden):
    changed = changes(*golden, ("digest",))
    assert not changed, (
        f"drain digests differ from {GOLDEN_PATH.name}: {', '.join(changed)}; "
        "if the change is intended, regenerate with "
        "`python tests/test_golden.py --regenerate` and name them"
    )


def test_drains_match_golden_work_counters(golden):
    changed = changes(*golden, COUNTERS)
    assert not changed, (
        f"drain work counters differ from {GOLDEN_PATH.name}: "
        f"{'; '.join(changed)}; if the change is intended, regenerate with "
        "`python tests/test_golden.py --regenerate` and name them"
    )


def main(argv: list[str]) -> int:
    if argv != ["--regenerate"]:
        print(f"usage: python {Path(__file__).name} --regenerate", file=sys.stderr)
        return 2
    # The suite recomputes the drains under the sanitizer; so does this.
    os.environ.setdefault(SANITIZE_ENV, "1")
    old = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
    new = observations()
    GOLDEN_PATH.write_text(json.dumps(new, indent=2, sort_keys=True) + "\n")
    for change in changes(old, new, ("digest", *COUNTERS)):
        print(f"changed: {change}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
