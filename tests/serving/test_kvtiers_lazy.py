"""The lazy tier tracker: O(tiers) decode steps that match the per-request model.

:class:`~repro.serving.kvtiers.TieredBudgetTracker` lands a decode step's
KV growth for the whole batch from integer counters and prices its
spilled reads from per-tier aggregates; a request's residency settles
only at residency events.  These tests pin the two claims
that make that safe:

* the figures match the per-request model -- every decode step placing
  each request's token through the cascade and pricing each request's
  reads on its own, one step per wake, while the lazy drain coasts where
  it may -- within 1e-12 relative, across policies, admission modes,
  stack depths and seeds;
* the tracker's per-request work does not follow the decode iterations:
  the step passes settle nobody unless a tier fills mid-batch, at any
  batch size.
"""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.core.config import HilosConfig
from repro.core.runtime import HilosSystem
from repro.serving import (
    AnalyticStepTime,
    AttentionAwareDemotion,
    ClusterScheduler,
    ContinuousBatching,
    KVTier,
    LRUByRequest,
    Node,
    PoissonArrivals,
    StaticSplit,
    TieredBudgetTracker,
    TierStack,
    make_request_queue,
)
from repro.serving import engine as engine_module
from repro.workloads import sample_request_classes
from repro.workloads.requests import LONG, SHORT

REL = 1e-12


class PerRequestTracker(TieredBudgetTracker):
    """The per-request reference model.

    Every decode step places each running request's token through the
    per-request cascade, and each step's reads are priced one request at a
    time through the sanitizer's reference loop.  A reference drain takes
    every decode step on the per-step path (a coast bills its reads from
    the aggregates this model stands in for).
    """

    def _uniform_step(self, n, occupied):
        return None

    def spill_read_seconds(self, running) -> float:
        ledgers = list(self._ledgers.values())
        total = 0.0
        for _, reads in self._reference_reads(running):
            extra = 0.0
            for ledger, read in zip(ledgers, reads):
                ledger.decode_read_bytes += read
                if ledger is not ledgers[0] and read > 0.0:
                    extra += read / ledger.tier.bandwidth_bytes_per_s
            total += extra
        self.spilled_decode_seconds += total
        return total


@pytest.fixture
def system(tiny_mha):
    return HilosSystem(tiny_mha, HilosConfig(n_devices=2))


def unit_steps() -> AnalyticStepTime:
    return AnalyticStepTime(
        base_seconds=1.0, per_token_seconds=1e-4, prefill_per_token_seconds=1e-3
    )


def stack_of(tiny_mha, depth: int) -> TierStack:
    final = float(tiny_mha.kv_cache_bytes(1, LONG.total_tokens))
    if depth == 2:
        return TierStack(
            (
                KVTier("hbm", capacity_bytes=0.25 * final),
                KVTier("ssd", capacity_bytes=2.0 * final, bandwidth_bytes_per_s=1e9),
            )
        )
    return TierStack(
        (
            KVTier("hbm", capacity_bytes=0.25 * final),
            KVTier("dram", capacity_bytes=0.5 * final, bandwidth_bytes_per_s=4e9),
            KVTier("ssd", capacity_bytes=1.5 * final, bandwidth_bytes_per_s=1e9),
        )
    )


POLICIES = {
    "lru": LRUByRequest,
    "attention": lambda: AttentionAwareDemotion(0.3),
    "static": lambda: StaticSplit(0.5),
}


def close(a, b, path: str) -> None:
    """Floats within ``REL`` relative, everything else equal."""
    if isinstance(a, float) or isinstance(b, float):
        assert a == b or (
            math.isfinite(a) and abs(a - b) <= REL * max(abs(a), abs(b))
        ), f"{path}: {a!r} != {b!r}"
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), path
        for index, (x, y) in enumerate(zip(a, b)):
            close(x, y, f"{path}[{index}]")
    elif dataclasses.is_dataclass(a):
        for item in dataclasses.fields(a):
            close(getattr(a, item.name), getattr(b, item.name), f"{path}.{item.name}")
    else:
        assert a == b, f"{path}: {a!r} != {b!r}"


class TestLazyMatchesPerRequestModel:
    @pytest.mark.parametrize("seed", [3, 11])
    @pytest.mark.parametrize("depth", [2, 3])
    @pytest.mark.parametrize("admission", ["reserve", "optimistic"])
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_drain_matches_within_1e12(
        self, system, tiny_mha, monkeypatch, policy, admission, depth, seed
    ):
        def drain():
            return ClusterScheduler(
                [
                    Node(
                        system,
                        step_time=unit_steps(),
                        kv_tiers=stack_of(tiny_mha, depth),
                        kv_policy=POLICIES[policy](),
                    )
                ],
                ContinuousBatching(8, admission=admission),
            ).drain(
                sample_request_classes(32, seed=seed),
                arrivals=PoissonArrivals(rate_per_second=1.0, seed=seed),
            )

        lazy = drain()
        monkeypatch.setattr(engine_module, "TieredBudgetTracker", PerRequestTracker)
        monkeypatch.setattr(engine_module.NodeEngine, "_coast_steps", lambda self: 0)
        reference = drain()
        assert lazy.all_completed
        # The drain exercises what the tracker defers: movement and spills.
        assert sum(t.demoted_bytes for t in lazy.kv_tiers) > 0.0
        assert lazy.spilled_decode_seconds > 0.0
        close(lazy.requests, reference.requests, "requests")
        close(
            dataclasses.replace(lazy, requests=[]),
            dataclasses.replace(reference, requests=[]),
            "report",
        )


def drain_tracker(system, tiny_mha, monkeypatch, batch: int, admission: str):
    """Drain one tiered node and return (tracker, report)."""
    final = float(tiny_mha.kv_cache_bytes(1, LONG.total_tokens))
    stack = TierStack(
        (
            KVTier("hbm", capacity_bytes=2.0 * final),
            KVTier("ssd", capacity_bytes=64.0 * final, bandwidth_bytes_per_s=1e9),
        )
    )
    trackers = []
    build = engine_module.NodeEngine.__init__

    def recording_init(engine, *args, **kwargs):
        build(engine, *args, **kwargs)
        trackers.append(engine.tracker)

    with monkeypatch.context() as patch:
        patch.setattr(engine_module.NodeEngine, "__init__", recording_init)
        report = ClusterScheduler(
            [
                Node(
                    system,
                    step_time=unit_steps(),
                    kv_tiers=stack,
                    kv_policy=LRUByRequest(),
                )
            ],
            ContinuousBatching(batch, admission=admission),
        ).drain(sample_request_classes(96, seed=5))
    (tracker,) = trackers
    return tracker, report


def start_decoding(tracker, batch) -> None:
    """Admit each request optimistically and complete its prefill.

    Callers release through the tracker, so the helper holds no release.
    """
    for request in batch:
        request.last_admitted_time = 0.0
        tracker.occupy(request)  # simlint: disable=SIM004
        request.tokens_generated = 1
        tracker.update(request)  # prefill completion's re-mark


class TestTrackerWorkPerIteration:
    @pytest.mark.parametrize("admission", ["reserve", "optimistic"])
    def test_step_passes_settle_nobody_at_any_batch_size(
        self, system, tiny_mha, monkeypatch, admission
    ):
        """At batch 4 and 32 the decode steps' passes settle no request:
        per-request work comes only from residency events, whose number is
        set by the queue, not by how many iterations drain it."""
        runs = {
            batch: drain_tracker(system, tiny_mha, monkeypatch, batch, admission)
            for batch in (4, 32)
        }
        mean_batch = {}
        for batch, (tracker, report) in runs.items():
            assert report.all_completed
            assert sum(t.demoted_bytes for t in report.kv_tiers) > 0.0
            tokens = sum(r.output_tokens for r in report.requests)
            mean_batch[batch] = tokens / tracker.decode_steps
            # No tier filled mid-batch, so no step ran the cascade and the
            # step passes settled nobody: zero per-request work per iteration.
            assert tracker.cascade_steps == 0
            assert tracker.step_settles / tracker.decode_steps == 0.0
            # Residency events settle each request a bounded number of times,
            # against the decode tokens a per-request pass would visit.
            assert tracker.settles <= 2 * report.n_requests < tokens / 50
        assert mean_batch[32] > 5 * mean_batch[4]

    def test_cascade_runs_only_on_steps_where_a_tier_fills(self, tiny_mha):
        token = float(tiny_mha.kv_cache_bytes(1, 1))
        batch = make_request_queue([SHORT] * 4)
        admitted = len(batch) * float(
            tiny_mha.kv_cache_bytes(1, SHORT.input_tokens + 1)
        )
        # The top holds the batch plus two tokens: the next step fills it
        # after two of the four requests.
        tracker = TieredBudgetTracker.for_stack(
            TierStack(
                (
                    KVTier("hbm", capacity_bytes=admitted + 2 * token),
                    KVTier(
                        "ssd", capacity_bytes=100 * admitted, bandwidth_bytes_per_s=1e9
                    ),
                )
            ),
            tiny_mha,
            sanitize=True,
        )
        start_decoding(tracker, batch)
        for request in batch:
            request.tokens_generated += 1
        tracker.update(*batch)
        assert (tracker.cascade_steps, tracker.step_settles) == (1, 4)
        assert [tracker.residency(r).get("ssd", 0.0) for r in batch] == [
            0.0, 0.0, token, token,
        ]
        # The top is now full: the next step lands every token below it at
        # once, settling nobody.
        for request in batch:
            request.tokens_generated += 1
        tracker.update(*batch)
        assert (tracker.cascade_steps, tracker.step_settles) == (1, 4)
        assert [tracker.residency(r)["ssd"] for r in batch] == [
            token, token, 2 * token, 2 * token,
        ]
        for request in batch:
            tracker.release(request)
        tracker.assert_drained("cascade")
