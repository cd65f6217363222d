"""In-memory span tracer that times the simulator's layers from outside.

The tracer never edits code under ``src/``: :func:`instrument` swaps the
public entry points of each layer's modules for thin wrappers (and puts the
originals back on exit), so an untraced run executes the library exactly as
shipped.  Every wrapped call records a span -- name, start, end, parent and
the workload run it belongs to -- or, for calls too hot to span, bumps an
exact counter.

A span's *self time* is its duration minus the time its child spans cover;
a layer's self time is the sum over the spans whose name carries that
layer's prefix (``"sim:Simulator.run"`` belongs to layer ``sim``).  Self
times come from every span, but only the first ``SPAN_CAP`` spans of each
name are kept for the Chrome ``trace_event`` export, so a drain with a
million budget calls still writes a trace a viewer can open.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

_perf = time.perf_counter

#: Spans of one name kept for the Chrome trace; later ones are only counted.
SPAN_CAP = 1000


class Tracer:
    """Span stack, per-name self/inclusive times, and exact counters."""

    def __init__(self, run: int, label: str) -> None:
        #: Which workload run the spans belong to (a track in the viewer).
        self.run = run
        self.label = label
        #: Open frames: [name, start, child_seconds, stored_ancestor, own_index].
        self._stack: list[list] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.incl_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        #: Exact work counters (events, channel ops, load probes, ...).
        self.counts: Counter = Counter()
        #: Stored spans: [name, start, end, parent_index, run].
        self.spans: list[list] = []
        self._stored: Counter = Counter()
        self.dropped: Counter = Counter()
        #: Step-time models seen, with their clamp counters at first sight.
        self.step_time_instances: dict[int, tuple] = {}

    def enter(self, name: str) -> None:
        self.calls[name] += 1
        stack = self._stack
        ancestor = stack[-1][3] if stack else None
        own = None
        if self._stored[name] < SPAN_CAP:
            self._stored[name] += 1
            own = len(self.spans)
            self.spans.append([name, 0.0, 0.0, ancestor, self.run])
            ancestor = own
        else:
            self.dropped[name] += 1
        stack.append([name, _perf(), 0.0, ancestor, own])

    def exit(self) -> None:
        end = _perf()
        name, start, child, _, own = self._stack.pop()
        duration = end - start
        self.incl_s[name] += duration
        self.self_s[name] += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        if own is not None:
            span = self.spans[own]
            span[1] = start
            span[2] = end

    @property
    def current(self) -> str | None:
        """Name of the innermost open span."""
        return self._stack[-1][0] if self._stack else None

    @contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    # --- aggregation ------------------------------------------------------------

    def layer_self(self, layer: str) -> float:
        prefix = layer + ":"
        return sum(v for k, v in self.self_s.items() if k.startswith(prefix))

    def layer_calls(self, layer: str) -> int:
        prefix = layer + ":"
        return sum(v for k, v in self.calls.items() if k.startswith(prefix))


def write_chrome_trace(path, tracers: list[Tracer], origin: float) -> None:
    """Write every tracer's stored spans as one Chrome ``trace_event`` file.

    Each workload run is its own thread track; a span's ``args`` carry its
    id, its parent's id and the run label, and timestamps are microseconds
    since ``origin`` (a ``time.perf_counter`` reading).
    """
    events = []
    dropped = {}
    for tracer in tracers:
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": tracer.run,
                "args": {"name": tracer.label},
            }
        )
        for index, (name, start, end, parent, run) in enumerate(tracer.spans):
            events.append(
                {
                    "name": name,
                    "cat": name.partition(":")[0],
                    "ph": "X",
                    "pid": 1,
                    "tid": run,
                    "ts": (start - origin) * 1e6,
                    "dur": (end - start) * 1e6,
                    "args": {"id": index, "parent": parent, "run": tracer.label},
                }
            )
        dropped[tracer.label] = dict(tracer.dropped)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "traceEvents": events,
                "displayTimeUnit": "ms",
                "otherData": {"spans_not_stored_past_cap": dropped},
            },
            handle,
        )


# --- wrappers -------------------------------------------------------------------


def _span_wrapper(tracer: Tracer, name: str, fn):
    enter, leave = tracer.enter, tracer.exit

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            leave()

    return wrapper


def _count_wrapper(tracer: Tracer, counter: str, fn):
    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[counter] += 1
        return fn(*args, **kwargs)

    return wrapper


def _sim_run_wrapper(tracer: Tracer, name: str, fn):
    """Simulator.run: a span plus the exact number of events it processed."""
    enter, leave, counts = tracer.enter, tracer.exit, tracer.counts

    @functools.wraps(fn)
    def wrapper(sim, *args, **kwargs):
        before = sim.events_processed
        enter(name)
        try:
            return fn(sim, *args, **kwargs)
        finally:
            leave()
            counts["sim.events"] += sim.events_processed - before

    return wrapper


def _measure_wrapper(tracer: Tracer, name: str, fn):
    """measure(): a span; calls made on behalf of a cache are cell misses."""
    enter, leave, counts = tracer.enter, tracer.exit, tracer.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        caller = tracer.current or ""
        if caller.startswith(("calibration:", "steptime:")):
            counts["calibration.cells_measured"] += 1
        enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            leave()

    return wrapper


def _lookup_wrapper(tracer: Tracer, name: str, fn, batch_counter: str | None = None):
    """A calibration lookup: a span, plus whether it had to measure.

    With ``batch_counter`` the first positional argument (the decode batch
    size) is summed, giving the engine's mean decode batch exactly; the
    instance's clamp counters are snapshotted on first sight.
    """
    enter, leave, counts = tracer.enter, tracer.exit, tracer.counts
    instances = tracer.step_time_instances

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        if batch_counter is not None:
            counts[batch_counter] += args[0]
            if id(self) not in instances:
                instances[id(self)] = (self, self.clamp_counters())
        measured = counts["calibration.cells_measured"]
        counts["calibration.lookups"] += 1
        enter(name)
        try:
            return fn(self, *args, **kwargs)
        finally:
            leave()
            if counts["calibration.cells_measured"] != measured:
                counts["calibration.lookup_misses"] += 1

    return wrapper


def _probe_wrapper(tracer: Tracer, fget):
    """A router load probe: counted, plus the requests it re-sums."""
    counts = tracer.counts

    @functools.wraps(fget)
    def wrapper(engine):
        counts["router.load_probes"] += 1
        counts["router.probe_scanned"] += (
            len(engine.pending)
            + len(engine.waiting)
            + len(engine.prefilling)
            + len(engine.running)
        )
        return fget(engine)

    return wrapper


def _generator_wrapper(tracer: Tracer, name: str, fn):
    """A process body: one span per resumption of the generator."""
    enter, leave = tracer.enter, tracer.exit

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        inner = fn(*args, **kwargs)
        value, error = None, None
        while True:
            enter(name)
            try:
                target = inner.send(value) if error is None else inner.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                leave()
            try:
                value, error = (yield target), None
            except GeneratorExit:
                inner.close()
                raise
            except BaseException as exc:  # delivered into the process body
                value, error = None, exc

    return wrapper


# --- the layer map ------------------------------------------------------------------

#: (layer, module, attribute path, kind).  Kinds: "span" (default span),
#: "count:<counter>" (exact counter only), "probe" (router load signal
#: property), or one of the special wrappers above.
ENTRY_POINTS = [
    # sim: the DES kernel, channels and the topology builder.
    ("sim", "repro.sim.engine", "Simulator.run", "sim_run"),
    ("sim", "repro.sim.topology", "build_system", "span"),
    ("sim", "repro.sim.channel", "Channel.request", "count:sim.channel_ops"),
    ("sim", "repro.sim.channel", "Channel.request_into", "count:sim.channel_ops"),
    # measure: the systems' full event-level measurement.
    ("measure", "repro.baselines.base", "InferenceSystem.measure", "measure"),
    ("measure", "repro.baselines.vllm", "MultiNodeVLLM.measure", "measure"),
    # calibration: the persistent store and the figure point cache.
    ("calibration", "repro.calibration.figures", "FigurePointCache.measure", "lookup"),
    ("calibration", "repro.calibration.figures", "FigurePointCache.prewarm", "span"),
    ("calibration", "repro.calibration.figures", "FigurePointCache.flush", "span"),
    ("calibration", "repro.calibration.store", "CalibrationStore.load_step_grid", "span"),
    ("calibration", "repro.calibration.store", "CalibrationStore.load_prefill_grid", "span"),
    ("calibration", "repro.calibration.store", "CalibrationStore.load_breakdown_grid", "span"),
    ("calibration", "repro.calibration.store", "CalibrationStore.record", "span"),
    ("calibration", "repro.calibration.store", "CalibrationStore.flush_dirty", "span"),
    # functional: numerics of the accuracy and functional experiments.
    ("functional", "repro.functional.attention", "reference_attention", "span"),
    ("functional", "repro.functional.attention", "grouped_query_attention", "span"),
    ("functional", "repro.functional.attention", "multihead_decode_attention", "span"),
    ("functional", "repro.functional.blocked", "blocked_attention", "span"),
    ("functional", "repro.functional.blocked", "blocked_multihead_decode", "span"),
    ("functional", "repro.functional.blocked", "transpose_in_blocks", "span"),
    ("functional", "repro.functional.sparse", "topk_sparse_attention", "span"),
    ("functional", "repro.functional.sparse", "approx_topk_sparse_attention", "span"),
    ("functional", "repro.functional.softmax", "three_pass_softmax", "span"),
    ("functional", "repro.functional.softmax", "two_pass_softmax", "span"),
    ("functional", "repro.functional.rope", "apply_rope", "span"),
    ("functional", "repro.functional.engine", "FunctionalDecoder.prefill", "span"),
    ("functional", "repro.functional.engine", "FunctionalDecoder.decode_step", "span"),
    ("functional", "repro.workloads.retrieval", "make_retrieval_suite", "span"),
    ("functional", "repro.workloads.retrieval", "RetrievalTask.build", "span"),
    ("functional", "repro.workloads.retrieval", "evaluate_kernel", "span"),
    ("functional", "repro.workloads.retrieval", "retrieve_positions", "span"),
    ("functional", "repro.workloads.retrieval", "score_f1", "span"),
    # steptime: the calibrated surrogate the serving engine queries.
    ("steptime", "repro.serving.steptime", "CalibratedStepTime.step_seconds", "step_lookup"),
    ("steptime", "repro.serving.steptime", "CalibratedStepTime.prefill_seconds", "span"),
    # router: placement decisions and the load signals they read.
    ("router", "repro.serving.routers", "RoundRobin.route", "span"),
    ("router", "repro.serving.routers", "WeightedRoundRobin.route", "span"),
    ("router", "repro.serving.routers", "LeastOutstandingTokens.route", "span"),
    ("router", "repro.serving.routers", "BestFitKV.route", "span"),
    ("router", "repro.serving.routers", "RoundRobin.static_assignments", "span"),
    ("router", "repro.serving.routers", "WeightedRoundRobin.static_assignments", "span"),
    ("router", "repro.serving.engine", "NodeEngine.outstanding_tokens", "probe"),
    ("router", "repro.serving.engine", "NodeEngine.kv_headroom_bytes", "probe"),
    ("router", "repro.serving.engine", "NodeEngine.top_tier_headroom_bytes", "probe"),
    # engine: the per-node drain loop (admission policies run inside it).
    ("engine", "repro.serving.engine", "NodeEngine.run", "generator"),
    # budget: the KV admission ledger.
    ("budget", "repro.serving.budget", "BudgetTracker.fits", "span"),
    ("budget", "repro.serving.budget", "BudgetTracker.fits_bytes", "span"),
    ("budget", "repro.serving.budget", "BudgetTracker.reserve", "span"),
    ("budget", "repro.serving.budget", "BudgetTracker.occupy", "span"),
    ("budget", "repro.serving.budget", "BudgetTracker.update", "span"),
    ("budget", "repro.serving.budget", "BudgetTracker.release_share", "span"),
    ("budget", "repro.serving.budget", "BudgetTracker.growth_bytes", "span"),
    ("budget", "repro.serving.budget", "BudgetTracker.release", "span"),
    ("budget", "repro.serving.budget", "BudgetTracker.assert_drained", "span"),
    # kvtiers: tier placement, movement billing and spilled reads.
    ("kvtiers", "repro.serving.kvtiers", "TieredBudgetTracker.update", "span"),
    ("kvtiers", "repro.serving.kvtiers", "TieredBudgetTracker.release", "span"),
    ("kvtiers", "repro.serving.kvtiers", "TieredBudgetTracker.release_share", "span"),
    ("kvtiers", "repro.serving.kvtiers", "TieredBudgetTracker.promote_for_decode", "span"),
    ("kvtiers", "repro.serving.kvtiers", "TieredBudgetTracker.consume_transfer_seconds", "span"),
    ("kvtiers", "repro.serving.kvtiers", "TieredBudgetTracker.spill_read_seconds", "span"),
    ("kvtiers", "repro.serving.kvtiers", "TieredBudgetTracker.top_headroom_for_routing", "span"),
    ("kvtiers", "repro.serving.kvtiers", "TieredBudgetTracker.tier_reports", "span"),
    # cluster + report: the fleet drain and the report builders.
    ("cluster", "repro.serving.cluster", "ClusterScheduler.drain", "span"),
    ("cluster", "repro.serving.cluster", "build_fleet", "span"),
    ("report", "repro.serving.metrics", "build_report", "span"),
    ("report", "repro.serving.metrics", "build_fleet_report", "span"),
    ("report", "repro.serving.metrics", "node_breakdown", "span"),
]


def _make_wrapper(tracer: Tracer, layer: str, path: str, kind: str, fn):
    name = f"{layer}:{path}"
    if kind == "span":
        return _span_wrapper(tracer, name, fn)
    if kind.startswith("count:"):
        return _count_wrapper(tracer, kind.partition(":")[2], fn)
    if kind == "sim_run":
        return _sim_run_wrapper(tracer, name, fn)
    if kind == "measure":
        return _measure_wrapper(tracer, name, fn)
    if kind == "lookup":
        return _lookup_wrapper(tracer, name, fn)
    if kind == "step_lookup":
        return _lookup_wrapper(tracer, name, fn, batch_counter="engine.batch_sum")
    if kind == "generator":
        return _generator_wrapper(tracer, name, fn)
    raise ValueError(f"unknown wrapper kind {kind!r}")


@contextmanager
def instrument(tracer: Tracer):
    """Install every entry-point wrapper; restore the originals on exit.

    Module-level functions are also replaced wherever another ``repro``
    module imported them by name, so ``from x import f`` call sites are
    traced too.
    """
    import importlib

    undo: list[tuple[object, str, object]] = []
    try:
        for layer, module_name, path, kind in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                if kind == "probe":
                    replacement = property(_probe_wrapper(tracer, original.fget))
                else:
                    replacement = _make_wrapper(tracer, layer, path, kind, original)
                setattr(owner, attr, replacement)
                undo.append((owner, attr, original))
                continue
            original = getattr(module, attr)
            replacement = _make_wrapper(tracer, layer, path, kind, original)
            for other in list(sys.modules.values()):
                namespace = getattr(other, "__dict__", None)
                if (
                    namespace is not None
                    and getattr(other, "__name__", "").startswith("repro")
                    and namespace.get(attr) is original
                ):
                    setattr(other, attr, replacement)
                    undo.append((other, attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
