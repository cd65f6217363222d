"""Placement policies: which node of a fleet serves the next request.

A :class:`Router` is consulted by the
:class:`~repro.serving.cluster.ClusterScheduler` dispatcher once per
request, *at the request's arrival time*, with the live node engines (the
:class:`~repro.serving.engine.NodeEngine` load views: queue depths,
outstanding token counts, KV headroom).  It returns the node that takes
the request.  On fault-free drains the choice is final -- a router
decision prices exactly like the static sharding a production front-end
would apply.  Under fault injection (:mod:`repro.serving.faults`) a node
death sends its requests back through the router for re-placement, and
the dispatcher only ever offers routable (live, not dying) engines -- so
every router is liveness-aware without carrying its own liveness logic.

Every router is deterministic given the visible state, so seeded drains
replay byte-identically.  Ties break toward the lowest node index, which
keeps homogeneous fleets' schedules stable under node reordering-free
re-runs.
"""

from __future__ import annotations

import abc
from typing import Sequence

from repro.errors import ConfigurationError, SchedulingError
from repro.serving.request import ServingRequest
from repro.serving.specs import spec_error, spec_int


class Router(abc.ABC):
    """Strategy deciding which node serves a routed request."""

    name: str = "abstract"
    #: Whether routing decisions depend only on the arrival sequence, never
    #: on live node load.  Load-oblivious routers can state their whole
    #: placement up front (:meth:`static_assignments`), which is the
    #: eligibility hook for the representative fleet drain
    #: (:mod:`repro.serving.cluster` folds symmetric fleets only when the
    #: placement is load-independent).  Declared as a class attribute --
    #: the SIM006 rule: interface capabilities are declared, not probed.
    load_oblivious: bool = False

    @abc.abstractmethod
    def route(self, request: ServingRequest, nodes: Sequence) -> object:
        """Return the element of ``nodes`` that takes ``request``.

        ``nodes`` are live node views (cluster drains pass
        :class:`~repro.serving.engine.NodeEngine` instances) exposing
        ``outstanding_tokens``, ``kv_headroom_bytes``,
        ``top_tier_headroom_bytes``, ``kv_fits`` and the underlying
        ``node``; implementations must return one of them.
        """

    def place(self, request: ServingRequest, engines: Sequence):
        """Route ``request`` and return the offered engine that takes it.

        A router may return the engine or its bare ``node``; anything else
        is a :class:`~repro.errors.SchedulingError`.
        """
        chosen = self.route(request, engines)
        for engine in engines:
            if chosen is engine or chosen is engine.node:
                return engine
        raise SchedulingError(
            f"router {self.name!r} returned an object that is not one of "
            "this cluster's nodes it was offered"
        )

    def reset(self) -> None:
        """Forget inter-drain state (called at every drain start).

        Stateless routers need nothing; stateful ones (round-robin's
        cursor) override this so consecutive drains of one scheduler
        replay identically.
        """

    def static_assignments(self, n_requests: int, n_nodes: int) -> list[int]:
        """Node index per arrival position, decided without load signals.

        Only meaningful for :attr:`load_oblivious` routers; the base
        implementation refuses, so a load-dependent router can never be
        asked to pre-commit a placement it would have made differently
        under live load.
        """
        raise SchedulingError(
            f"router {self.name!r} routes on live node load; its placement "
            "cannot be stated up front (load_oblivious=False)"
        )


class RoundRobin(Router):
    """Cycle the nodes in order, one request each -- the baseline shard."""

    name = "round-robin"
    load_oblivious = True

    def __init__(self) -> None:
        self._next = 0

    def reset(self) -> None:
        self._next = 0

    def route(self, request, nodes):
        node = nodes[self._next % len(nodes)]
        self._next += 1
        return node

    def static_assignments(self, n_requests: int, n_nodes: int) -> list[int]:
        """Arrival position ``i`` lands on node ``i % n_nodes``, from a
        reset cursor -- exactly the cycle :meth:`route` walks."""
        return [i % n_nodes for i in range(n_requests)]


class WeightedRoundRobin(Router):
    """Cycle the nodes proportionally to integer weights.

    A fleet of unlike nodes (say one 2x-provisioned node next to two
    stock ones) shards fairly under ``wrr:2,1,1``: the cycle visits node
    0 twice for every visit to nodes 1 and 2.  The expanded cycle is
    fixed at construction, so placement depends only on the arrival
    position -- the router stays load-oblivious and therefore
    fold-eligible on symmetric (equal-weight) fleets.
    """

    load_oblivious = True

    def __init__(self, weights: Sequence[int]) -> None:
        weights = tuple(weights)
        if not weights or any(w < 1 for w in weights):
            raise ConfigurationError(
                f"weighted round-robin needs one positive integer weight "
                f"per node, got {list(weights)!r}"
            )
        self.weights = weights
        self.name = "wrr:" + ",".join(str(w) for w in weights)
        self._cycle = tuple(
            index for index, weight in enumerate(weights) for _ in range(weight)
        )
        self._next = 0

    def reset(self) -> None:
        self._next = 0

    def route(self, request, nodes):
        if len(nodes) != len(self.weights):
            raise SchedulingError(
                f"router {self.name!r} carries {len(self.weights)} weights "
                f"but was offered {len(nodes)} nodes"
            )
        node = nodes[self._cycle[self._next % len(self._cycle)]]
        self._next += 1
        return node

    def static_assignments(self, n_requests: int, n_nodes: int) -> list[int]:
        """Arrival position ``i`` lands on cycle slot ``i % len(cycle)``,
        from a reset cursor -- exactly the cycle :meth:`route` walks."""
        if n_nodes != len(self.weights):
            raise SchedulingError(
                f"router {self.name!r} carries {len(self.weights)} weights "
                f"but was asked to place across {n_nodes} nodes"
            )
        return [self._cycle[i % len(self._cycle)] for i in range(n_requests)]


class LeastOutstandingTokens(Router):
    """Join the shortest queue, measured in tokens of outstanding work.

    The load signal is :attr:`NodeEngine.outstanding_tokens`:
    ``sum(input + output - prefill_tokens_done)`` over
    everything routed to the node and not yet finished.  It weighs a
    queued Long request as the work it actually is, unlike a bare request
    count.  Prefill progress lowers it, decode progress does not: a
    running request counts its whole output (less any tokens emitted
    before a preemption's readmission) until it retires.  Each probe is
    O(1) -- the engine keeps the sum as a running ledger.
    """

    name = "jsq"

    def route(self, request, nodes):
        return min(
            enumerate(nodes), key=lambda pair: (pair[1].outstanding_tokens, pair[0])
        )[1]


class BestFitKV(Router):
    """KV-headroom-aware best fit.

    Among the nodes whose headroom still holds the request's final-context
    KV, pick the one the request fits *tightest* (classic best-fit packing:
    preserve the big holes for the big requests).  Fit is judged against
    total KV headroom, but ranking uses *top-tier* headroom
    (:attr:`NodeEngine.top_tier_headroom_bytes`): on tiered nodes the two
    differ, and packing against the fast tier steers requests away from
    nodes that could only hold them spilled.  On flat nodes the two
    signals are the same number, so behaviour there is unchanged.  A
    request no node can hold falls back to the node with the most
    top-tier headroom -- admission-side backpressure (or preemption) then
    deals with it, exactly as it would on a single machine.
    """

    name = "bestfit-kv"

    def route(self, request, nodes):
        need = [
            request.kv_reservation_bytes(node.node.system.model) for node in nodes
        ]
        fitting = [
            (index, node)
            for index, node in enumerate(nodes)
            if node.kv_headroom_bytes >= need[index]
        ]
        if fitting:
            return min(
                fitting,
                key=lambda pair: (
                    pair[1].top_tier_headroom_bytes - need[pair[0]],
                    pair[0],
                ),
            )[1]
        return max(
            enumerate(nodes),
            key=lambda pair: (pair[1].top_tier_headroom_bytes, -pair[0]),
        )[1]


#: CLI spellings for every built-in router.
ROUTER_SPECS = {
    "rr": RoundRobin,
    "round-robin": RoundRobin,
    "jsq": LeastOutstandingTokens,
    "least-outstanding": LeastOutstandingTokens,
    "bestfit": BestFitKV,
    "bestfit-kv": BestFitKV,
}


#: Grammar shown in router spec errors; ``wrr`` takes its weights inline.
ROUTER_GRAMMAR = " | ".join(sorted(ROUTER_SPECS)) + " | wrr:W0,W1,..."


def parse_router_spec(spec: str) -> Router:
    """Build a router from a CLI spec (``rr`` | ``jsq`` | ``bestfit`` |
    ``wrr:W0,W1,...``)."""
    head, _, rest = spec.partition(":")
    if head == "wrr":
        if not rest:
            raise spec_error(
                "router", ROUTER_GRAMMAR, spec, reason="wrr needs weights"
            )
        weights = [
            spec_int(raw, "router", ROUTER_GRAMMAR, spec)
            for raw in rest.split(",")
        ]
        try:
            return WeightedRoundRobin(weights)
        except ConfigurationError as exc:
            raise spec_error("router", ROUTER_GRAMMAR, spec, reason=str(exc)) from None
    try:
        return ROUTER_SPECS[spec]()
    except KeyError:
        raise spec_error(
            "router", ROUTER_GRAMMAR, spec, reason="unknown router"
        ) from None
