"""Per-request serving state and latency accounting.

A :class:`ServingRequest` wraps one of the workload
:class:`~repro.workloads.requests.RequestClass` shapes with the mutable
lifecycle state the scheduler drives: arrival, admission into a batch,
(possibly chunked) prefill -- whose completion produces the next output
token -- per-iteration decode progress, preemption, and completion.  All
timestamps are simulated seconds from the drain's start; a request's
latency is its arrival-to-completion time, so offline all-at-time-zero
queues and online arrival processes share one accounting.

Preemption is recompute-on-readmit: an evicted request drops its KV cache
(and any partial prefill progress) but keeps the tokens it already emitted;
readmission re-runs prefill over the full current context (prompt plus
generated tokens) before decoding resumes.

Migration (a node dying under fault injection, see
:mod:`repro.serving.faults`) is the cross-node variant of the same
accounting: the dead node's KV is lost, the emitted tokens survive, and the
request re-runs prefill wherever the dispatcher re-routes it.
:attr:`ServingRequest.migration_count` is also the bounded-retry key -- a
request that keeps landing on dying nodes eventually fails the drain
instead of looping forever.

**Fleet folding.** A representative fleet drain (:mod:`repro.serving.cluster`)
simulates one node per symmetric node group and builds a request only for
the representative slices.  Its report's requests are a
:class:`FoldedRequests` view: a request a mirrored node would have served
is built when it is accessed, with its own id, class and arrival time and
the outcome of the simulated request at the same slice position.
:attr:`ServingRequest.OUTCOME_FIELDS` names that outcome.  Every drain
builds its own requests from request shapes (see
:meth:`repro.serving.cluster.ClusterScheduler.drain`), so a request id is
its queue position.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Iterator, Sequence

from repro.errors import SchedulingError
from repro.models.config import ModelConfig
from repro.workloads.requests import RequestClass


@dataclass
class ServingRequest:
    """One in-flight request of a serving drain."""

    request_id: int
    request_class: RequestClass
    arrival_time: float = 0.0
    #: First admission out of the waiting queue (stable across preemptions;
    #: queueing time is measured against this).
    admitted_time: float | None = None
    #: Most recent (re)admission -- the youngest-first preemption order key.
    last_admitted_time: float | None = None
    first_token_time: float | None = None
    completion_time: float | None = None
    tokens_generated: int = 0
    #: Prompt/context tokens whose KV the current (chunked) prefill pass has
    #: already computed; reset to zero when the request is preempted.
    prefill_tokens_done: int = 0
    #: Times this request was evicted from the engine to resolve a KV
    #: budget overflow (optimistic admission only).
    preemption_count: int = 0
    #: Context tokens whose KV was dropped by preemptions and had to be
    #: recomputed by a readmission prefill -- the throughput cost of
    #: admitting optimistically.  Migration recompute is charged here too
    #: (the loss mechanism is identical); :attr:`migrated_recompute_tokens`
    #: tracks the migration share separately.
    wasted_prefill_tokens: int = 0
    #: Times this request was re-routed off a dying node (spot preemption /
    #: crash fault injection); the bounded-retry counter.
    migration_count: int = 0
    #: Context tokens whose KV died with a node and had to be recomputed on
    #: the destination -- the migration share of ``wasted_prefill_tokens``.
    migrated_recompute_tokens: int = 0
    #: Sanitizer-only provenance: name of the node whose KV ledger currently
    #: holds this request's bytes (``None`` when unadmitted or released).
    #: Maintained only on sanitized drains, where it catches a migrated
    #: request re-admitted before the dead node released its bytes.
    kv_holder: str | None = None
    #: Admission-control re-deliveries under ``action="retry"`` overload
    #: (see :mod:`repro.serving.overload`); distinct from
    #: :attr:`migration_count`, which counts node-death re-routing.
    retry_attempts: int = 0
    #: When admission control shed this request (``None`` if never shed).
    shed_time: float | None = None
    #: Which bound shed it: ``"queue-bound"``, ``"token-rate"``,
    #: ``"retry-exhausted"``, or ``"park-deadline"``.
    shed_reason: str | None = None

    @property
    def input_tokens(self) -> int:
        """Prompt length in tokens."""
        return self.request_class.input_tokens

    @property
    def output_tokens(self) -> int:
        """Tokens the request generates before completing."""
        return self.request_class.output_tokens

    @property
    def context_tokens(self) -> int:
        """Current KV-cache context length (prompt + generated so far)."""
        return self.input_tokens + self.tokens_generated

    @property
    def final_context_tokens(self) -> int:
        """Context length when the last token has been generated."""
        return self.request_class.total_tokens

    @property
    def prefill_target_tokens(self) -> int:
        """Context tokens the current prefill pass must compute KV for.

        A fresh request prefills its prompt; a preempted request recomputes
        prompt *plus* every token it had generated before eviction.
        """
        return self.context_tokens

    @property
    def prefill_remaining_tokens(self) -> int:
        """Prefill tokens still to process before decode can (re)start."""
        return self.prefill_target_tokens - self.prefill_tokens_done

    @property
    def finished(self) -> bool:
        """Whether every output token has been generated."""
        return self.completion_time is not None

    @property
    def shed(self) -> bool:
        """Whether admission control rejected this request."""
        return self.shed_time is not None

    @property
    def latency_seconds(self) -> float:
        """Arrival-to-completion time."""
        if self.completion_time is None:
            raise SchedulingError(f"request {self.request_id} has not completed")
        return self.completion_time - self.arrival_time

    @property
    def queueing_seconds(self) -> float:
        """Time spent waiting before the scheduler first admitted the request.

        Preempted requests do not re-accrue queueing time: readmissions
        update only :attr:`last_admitted_time`.
        """
        if self.admitted_time is None:
            raise SchedulingError(f"request {self.request_id} was never admitted")
        return self.admitted_time - self.arrival_time

    def record_preemption(self, dropped_tokens: int) -> None:
        """Account one eviction dropping ``dropped_tokens`` of computed KV.

        The request's emitted tokens survive (they were already delivered);
        only the cache state is lost, so readmission pays a recompute
        prefill over the full current context.
        """
        self.preemption_count += 1
        self.wasted_prefill_tokens += dropped_tokens
        self.prefill_tokens_done = 0

    def record_migration(self, dropped_tokens: int) -> None:
        """Account one node-death eviction dropping ``dropped_tokens`` of KV.

        Same physics as :meth:`record_preemption` -- emitted tokens survive,
        the cache is lost, the destination re-runs prefill over the full
        current context -- but tracked separately so fault accounting
        (migrations, recompute waste, bounded retry) is distinguishable from
        optimistic-admission preemption.  Requests still queued when their
        node died migrate with ``dropped_tokens=0``: re-routing costs them
        nothing but still counts against the retry bound.
        """
        self.migration_count += 1
        self.migrated_recompute_tokens += dropped_tokens
        self.wasted_prefill_tokens += dropped_tokens
        self.prefill_tokens_done = 0

    # --- outcome ------------------------------------------------------------------

    #: Per-request lifecycle state a drain writes: what a folded drain's
    #: mirrored requests share with their simulated request.  ``kv_holder``
    #: belongs here too: a request still naming a holder has KV bytes held
    #: on that node's ledger.
    OUTCOME_FIELDS = (
        "admitted_time",
        "last_admitted_time",
        "first_token_time",
        "completion_time",
        "tokens_generated",
        "prefill_tokens_done",
        "preemption_count",
        "wasted_prefill_tokens",
        "migration_count",
        "migrated_recompute_tokens",
        "kv_holder",
        "retry_attempts",
        "shed_time",
        "shed_reason",
    )

    def kv_reservation_bytes(self, model: ModelConfig) -> int:
        """KV bytes this request occupies at its *final* context length.

        Reserve-mode admission holds the full final footprint up front so a
        batch can never outgrow the device budget mid-decode.  Like the
        other ``kv_*_bytes`` figures it is a whole number of bytes, the
        unit the KV ledgers count in.
        """
        return model.kv_cache_bytes(1, self.final_context_tokens)

    def kv_current_bytes(self, model: ModelConfig) -> int:
        """KV bytes at the *current* context length (whole bytes)."""
        return model.kv_cache_bytes(1, self.context_tokens)

    def kv_admission_bytes(self, model: ModelConfig) -> int:
        """KV bytes charged at optimistic admission: the current context
        plus the token the prefill pass emits on completion.

        Charging the post-prefill footprint up front keeps every ledger
        movement fits-checked -- admission here, decode growth by the
        scheduler's pre-iteration overflow check -- so the budget can
        never burst, while still being a small fraction of the final
        footprint reserve-mode admission would demand (whole bytes).
        """
        return model.kv_cache_bytes(1, self.context_tokens + 1)


def make_request_queue(classes: list[RequestClass]) -> list[ServingRequest]:
    """Wrap request classes as id-ordered requests, all arriving at zero.

    A drain builds its own requests (see
    :meth:`repro.serving.cluster.ClusterScheduler.drain`); this is for
    code that drives policies, ledgers or routers directly.
    """
    return [ServingRequest(i, cls) for i, cls in enumerate(classes)]


class FoldedRequests(Sequence[ServingRequest]):
    """A folded drain's requests in queue order: a read-only sequence view.

    Position ``i`` holds request ``i`` of class ``classes[i]`` arriving at
    ``times[i]``, and carries the outcome of ``sources[i]``, the simulated
    request at the same slice position of its node group's representative.
    A simulated request is returned as it is; any other is built on access
    and not cached, so the view holds only the simulated requests and a
    full pass over it holds one mirror at a time.  A request's id is its
    queue position, so a position is simulated exactly when its source
    carries that id.
    """

    def __init__(
        self,
        classes: Sequence[RequestClass],
        times: Sequence[float],
        sources: Sequence[ServingRequest],
    ) -> None:
        self._classes = classes
        self._times = times
        self._sources = sources

    def __len__(self) -> int:
        return len(self._sources)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        source = self._sources[index]
        request_id = range(len(self))[index]  # a negative index counts back
        if source.request_id == request_id:
            return source
        return self._mirror(
            source, request_id, self._classes[index], self._times[index]
        )

    def __iter__(self) -> Iterator[ServingRequest]:
        mirror = self._mirror
        for request_id, shape, time, source in zip(
            count(), self._classes, self._times, self._sources
        ):
            if source.request_id == request_id:
                yield source
            else:
                yield mirror(source, request_id, shape, time)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (list, FoldedRequests)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return repr(list(self))

    @staticmethod
    def _mirror(
        source: ServingRequest,
        request_id: int,
        request_class: RequestClass,
        arrival_time: float,
    ) -> ServingRequest:
        """``source``'s outcome under another request's identity.

        A copy of ``source``'s attribute dict, several times cheaper than
        :func:`dataclasses.replace`: a pass over a large folded fleet builds
        one mirror per mirrored request.
        """
        state = vars(source).copy()
        state["request_id"] = request_id
        state["request_class"] = request_class
        state["arrival_time"] = arrival_time
        mirror = object.__new__(ServingRequest)
        mirror.__dict__ = state
        return mirror
