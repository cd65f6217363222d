"""Whole-byte KV ledgers: conservation is exact.

The flat :class:`~repro.serving.budget.BudgetTracker` and the tier
ledgers of :class:`~repro.serving.kvtiers.TieredBudgetTracker` count
whole bytes, so the sanitizer compares them with ``==``.  These tests pin
that at the scales the serving experiments run:

* one forged byte -- in the flat total, or in a lower tier's occupancy --
  is caught at the next decode step on HILOS-8's OPT-66B budget (27.6 TB)
  and on an OPT-66B hbm/ssd stack (1.4 TB), which a relative tolerance of
  the capacity would let through;
* sanitized drains over a stack whose spec capacities are fractional
  and a policy whose top share of a token is fractional keep every
  ledger, residency and growth unit an ``int``, report every byte figure
  as a ``float``, and gate admission on exactly the bytes the tiers hold.
"""

from __future__ import annotations

import pytest

from repro.analysis.sanitizer import SanitizerError
from repro.core.config import HilosConfig
from repro.core.runtime import HilosSystem
from repro.models import get_model
from repro.models.registry import tiny_model
from repro.serving import (
    AnalyticStepTime,
    BudgetTracker,
    ClusterScheduler,
    ContinuousBatching,
    KVTier,
    Node,
    PoissonArrivals,
    StaticSplit,
    TieredBudgetTracker,
    TierStack,
    capacity_budget_for,
    make_request_queue,
    parse_kv_policy_spec,
    parse_kv_tiers_spec,
)
from repro.serving import engine as engine_module
from repro.workloads import sample_request_classes
from repro.workloads.requests import LONG, SHORT

OPT_66B = get_model("OPT-66B")


def flat_tracker() -> BudgetTracker:
    """A sanitized flat tracker on HILOS-8's OPT-66B budget."""
    budget = capacity_budget_for(HilosSystem(OPT_66B, HilosConfig(n_devices=8)))
    return BudgetTracker(budget=budget, model=OPT_66B, sanitize=True, owner="node0")


def stacked_tracker() -> TieredBudgetTracker:
    """A sanitized OPT-66B hbm/ssd stack of 4 and 64 Long finals, split
    half and half."""
    long_final = OPT_66B.kv_cache_bytes(1, LONG.total_tokens)
    stack = TierStack(
        (
            KVTier("hbm", capacity_bytes=4 * long_final),
            KVTier("ssd", capacity_bytes=64 * long_final, bandwidth_bytes_per_s=8e9),
        )
    )
    return TieredBudgetTracker.for_stack(
        stack, OPT_66B, policy=StaticSplit(0.5), sanitize=True, owner="node0"
    )


def forge_reserved(tracker) -> None:
    tracker.reserved_bytes += 1


def forge_ssd(tracker) -> None:
    tracker._ledgers["ssd"].occupied_bytes += 1


class TestForgedByteIsCaught:
    @pytest.mark.parametrize(
        "build, forge, invariant",
        [
            (flat_tracker, forge_reserved, "budget-conservation"),
            (stacked_tracker, forge_reserved, "budget-conservation"),
            (stacked_tracker, forge_ssd, "tier-conservation"),
        ],
        ids=["flat-total", "stack-total", "stack-ssd-tier"],
    )
    def test_next_decode_step_catches_one_byte(self, build, forge, invariant):
        tracker = build()
        batch = make_request_queue([LONG, SHORT])
        for request in batch:
            request.last_admitted_time = 0.0
            # The forged ledger is abandoned once caught: nothing releases.
            tracker.occupy(request)  # simlint: disable=SIM004
            request.tokens_generated = 1
            tracker.update(request)  # prefill completion's re-mark
        forge(tracker)
        for request in batch:
            request.tokens_generated += 1
        with pytest.raises(SanitizerError) as excinfo:
            tracker.update(*batch)  # a decode step
        assert excinfo.value.invariant == invariant


#: A stack whose spec capacities are fractional (0.1 GiB = 107374182.4
#: bytes, and so on).
FRACTIONAL_SPEC = "hbm:0.1G,dram:0.2G:1G,ssd:0.3G:1G"
#: 64 KiB of KV per token: a Long request's final context (560 MB) fits
#: the whole stack once but a fifth of it fits the top, so the drains
#: demote, promote and spill; a 70% top share of a token is 45,875.2
#: bytes, a fraction the policies round to whole bytes.
MODEL = tiny_model(n_layers=4, hidden=4096, intermediate=64, n_heads=32)


class CheckedTracker(TieredBudgetTracker):
    """A tier tracker that checks, after every ledger call, that each
    ledger, residency and growth unit is an ``int``."""

    checks = 0

    def _check_types(self) -> None:
        CheckedTracker.checks += 1
        values = [
            self.reserved_bytes,
            self.peak_reserved_bytes,
            self.token_bytes,
            self._top_unit,
            *self._held.values(),
            *self._units,
            *self._grown,
            *self._fixed_bytes,
        ]
        for ledger in self._ledgers.values():
            values += [
                ledger.occupied_bytes,
                ledger.peak_occupied_bytes,
                ledger.demoted_in_bytes,
                ledger.promoted_out_bytes,
            ]
        for entry in self._entries.values():
            values += entry.res
            values += self._current(entry)
        assert all(type(value) is int for value in values), values

    def update(self, *requests, steps=1):
        growth = super().update(*requests, steps=steps)
        assert all(type(grown) is int for grown in growth)
        self._check_types()
        return growth

    def release(self, request):
        super().release(request)
        self._check_types()

    def promote_for_decode(self, running):
        super().promote_for_decode(running)
        self._check_types()


class TestFractionalSpecDrains:
    @pytest.mark.parametrize("admission", ["reserve", "optimistic"])
    @pytest.mark.parametrize("policy", ["static:0.3", "attention:0.3"])
    def test_ledgers_stay_whole_and_reports_float(
        self, monkeypatch, policy, admission
    ):
        stack = parse_kv_tiers_spec(FRACTIONAL_SPEC)
        whole = [int(tier.capacity_bytes) for tier in stack.tiers]
        assert whole == [tier.capacity_bytes for tier in stack.tiers]
        assert sum(whole) == stack.total_capacity_bytes == 644245093
        node = Node(
            HilosSystem(MODEL, HilosConfig(n_devices=2)),
            step_time=AnalyticStepTime(
                base_seconds=1.0, per_token_seconds=1e-4, prefill_per_token_seconds=1e-3
            ),
            kv_tiers=stack,
            kv_policy=parse_kv_policy_spec(policy),
        )
        assert node.budget.kv_capacity_bytes == sum(whole)
        monkeypatch.setattr(engine_module, "TieredBudgetTracker", CheckedTracker)
        monkeypatch.setattr(CheckedTracker, "checks", 0)
        report = ClusterScheduler(
            [node], ContinuousBatching(4, admission=admission)
        ).drain(
            sample_request_classes(16, seed=3),
            arrivals=PoissonArrivals(rate_per_second=0.5, seed=3),
        )
        assert report.all_completed
        assert CheckedTracker.checks > len(report.requests)
        # The drain took the paths that round: demotion, spilled reads.
        assert sum(tier.demoted_bytes for tier in report.kv_tiers) > 0.0
        assert report.spilled_decode_seconds > 0.0
        (breakdown,) = report.node_reports
        figures = [
            report.peak_kv_reserved_bytes,
            report.kv_capacity_bytes,
            breakdown.peak_kv_reserved_bytes,
            breakdown.kv_capacity_bytes,
        ]
        for tiers in (report.kv_tiers, breakdown.kv_tiers):
            for tier in tiers:
                figures += [
                    tier.capacity_bytes,
                    tier.peak_occupied_bytes,
                    tier.demoted_bytes,
                    tier.promoted_bytes,
                    tier.decode_read_bytes,
                ]
        assert all(type(figure) is float for figure in figures), figures
        assert [tier.capacity_bytes for tier in breakdown.kv_tiers] == whole
        assert breakdown.kv_capacity_bytes == sum(whole)
