"""Tests for the arrival processes feeding the serving simulation."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError, SchedulingError
from repro.serving.arrivals import (
    AllAtOnce,
    ArrivalProcess,
    BatchedArrivals,
    FixedRateArrivals,
    PoissonArrivals,
    TraceReplay,
    parse_arrival_spec,
)
from repro.workloads.requests import LONG, MEDIUM, SHORT


class TestAllAtOnce:
    def test_everything_arrives_at_time_zero(self):
        assert AllAtOnce().arrival_times(4) == [0.0, 0.0, 0.0, 0.0]


class TestFixedRate:
    def test_equal_gaps_at_the_requested_rate(self):
        times = FixedRateArrivals(rate_per_second=2.0).arrival_times(4)
        assert times == [0.0, 0.5, 1.0, 1.5]

    def test_invalid_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            FixedRateArrivals(0.0)


class TestPoisson:
    def test_seeded_schedule_is_reproducible(self):
        first = PoissonArrivals(0.5, seed=11).arrival_times(64)
        second = PoissonArrivals(0.5, seed=11).arrival_times(64)
        assert first == second  # byte-identical, not approximately equal

    def test_one_instance_replays_across_calls(self):
        process = PoissonArrivals(0.5, seed=11)
        assert process.arrival_times(32) == process.arrival_times(32)

    def test_different_seeds_differ(self):
        assert (
            PoissonArrivals(0.5, seed=1).arrival_times(16)
            != PoissonArrivals(0.5, seed=2).arrival_times(16)
        )

    def test_times_are_non_decreasing_and_positive(self):
        times = PoissonArrivals(3.0, seed=5).arrival_times(100)
        assert all(t > 0 for t in times)
        assert all(b >= a for a, b in zip(times, times[1:]))

    def test_mean_gap_matches_rate(self):
        times = PoissonArrivals(4.0, seed=7).arrival_times(4000)
        mean_gap = times[-1] / len(times)
        assert mean_gap == pytest.approx(1 / 4.0, rel=0.1)

    def test_invalid_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            PoissonArrivals(-1.0)


class TestTraceReplay:
    def test_replays_recorded_times(self):
        trace = TraceReplay([0.0, 1.5, 4.0])
        assert trace.arrival_times(2) == [0.0, 1.5]

    def test_too_short_trace_rejected(self):
        with pytest.raises(SchedulingError, match="holds 2"):
            TraceReplay([0.0, 1.0]).arrival_times(3)

    def test_decreasing_times_rejected(self):
        with pytest.raises(ConfigurationError):
            TraceReplay([1.0, 0.5])

    def test_jsonl_round_trip_with_classes(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        records = [
            {"arrival_time": 0.0, "class": "Short"},
            {"arrival_time": 2.5, "class": "Long"},
            {"arrival_time": 2.5, "class": "Medium"},
        ]
        path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        trace = TraceReplay.from_jsonl(path)
        assert trace.arrival_times(3) == [0.0, 2.5, 2.5]
        assert trace.request_classes() == [SHORT, LONG, MEDIUM]

    def test_jsonl_without_classes_has_times_only(self, tmp_path):
        path = tmp_path / "times.jsonl"
        path.write_text('{"arrival_time": 0.5}\n{"arrival_time": 1.0}\n')
        trace = TraceReplay.from_jsonl(path)
        assert trace.arrival_times(2) == [0.5, 1.0]
        with pytest.raises(SchedulingError, match="no request classes"):
            trace.request_classes()

    def test_jsonl_unknown_class_rejected_with_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"arrival_time": 0.0, "class": "Gigantic"}\n')
        with pytest.raises(ConfigurationError, match="bad.jsonl:1"):
            TraceReplay.from_jsonl(path)

    def test_jsonl_missing_time_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"class": "Short"}\n')
        with pytest.raises(ConfigurationError, match="arrival_time"):
            TraceReplay.from_jsonl(path)

    def test_jsonl_non_numeric_time_rejected_with_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"arrival_time": 0.0}\n{"arrival_time": "fast"}\n')
        with pytest.raises(ConfigurationError, match="bad.jsonl:2"):
            TraceReplay.from_jsonl(path)

    def test_short_times_only_trace_fails_before_calibration(self, tmp_path):
        from repro.experiments import serving_throughput

        path = tmp_path / "short.jsonl"
        path.write_text('{"arrival_time": 0.0}\n{"arrival_time": 1.0}\n')
        with pytest.raises(ConfigurationError, match="holds 2 timestamps"):
            serving_throughput.run(
                fast=True, use_store=False, arrival=f"trace:{path}"
            )

    def test_jsonl_partial_classes_rejected(self, tmp_path):
        path = tmp_path / "partial.jsonl"
        path.write_text(
            '{"arrival_time": 0.0, "class": "Short"}\n{"arrival_time": 1.0}\n'
        )
        with pytest.raises(ConfigurationError, match="every line or none"):
            TraceReplay.from_jsonl(path)

    def test_jsonl_nan_time_rejected_with_line(self, tmp_path):
        # Python's json module parses NaN; it would pass every ordering
        # comparison and only misbehave mid-drain.
        path = tmp_path / "nan.jsonl"
        path.write_text('{"arrival_time": 0.0}\n{"arrival_time": NaN}\n')
        with pytest.raises(ConfigurationError, match="nan.jsonl:2.*finite"):
            TraceReplay.from_jsonl(path)

    def test_jsonl_infinite_time_rejected_with_line(self, tmp_path):
        path = tmp_path / "inf.jsonl"
        path.write_text('{"arrival_time": Infinity}\n')
        with pytest.raises(ConfigurationError, match="inf.jsonl:1.*finite"):
            TraceReplay.from_jsonl(path)

    def test_jsonl_boolean_time_rejected_with_line(self, tmp_path):
        # float(True) == 1.0 would silently accept a type error.
        path = tmp_path / "bool.jsonl"
        path.write_text('{"arrival_time": true}\n')
        with pytest.raises(ConfigurationError, match="bool.jsonl:1.*number"):
            TraceReplay.from_jsonl(path)

    def test_jsonl_negative_time_rejected_with_line(self, tmp_path):
        path = tmp_path / "neg.jsonl"
        path.write_text('{"arrival_time": 1.0}\n{"arrival_time": -2.0}\n')
        with pytest.raises(ConfigurationError, match="neg.jsonl:2"):
            TraceReplay.from_jsonl(path)

    def test_jsonl_decreasing_time_names_the_offending_line(self, tmp_path):
        path = tmp_path / "dec.jsonl"
        path.write_text(
            '{"arrival_time": 0.0}\n'
            '{"arrival_time": 5.0}\n'
            '{"arrival_time": 4.0}\n'
        )
        with pytest.raises(ConfigurationError, match="dec.jsonl:3.*decreases"):
            TraceReplay.from_jsonl(path)

    def test_jsonl_non_object_line_rejected(self, tmp_path):
        path = tmp_path / "arr.jsonl"
        path.write_text('{"arrival_time": 0.0}\n[1.0, 2.0]\n')
        with pytest.raises(ConfigurationError, match="arr.jsonl:2.*object"):
            TraceReplay.from_jsonl(path)

    def test_jsonl_empty_trace_names_the_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("\n\n")
        with pytest.raises(ConfigurationError, match="empty.jsonl.*empty"):
            TraceReplay.from_jsonl(path)

    def test_constructor_rejects_non_finite_times(self):
        with pytest.raises(ConfigurationError, match="finite"):
            TraceReplay([0.0, float("nan")])
        with pytest.raises(ConfigurationError, match="finite"):
            TraceReplay([float("inf")])


class FixedTimes(ArrivalProcess):
    """A custom process replaying exactly the times it was given."""

    def __init__(self, times):
        self.times = list(times)

    def arrival_times(self, n):
        return self.times[:n]


class TestCheckedTimes:
    """A drain's arrival-time check names the process and the index."""

    def test_non_finite_time_rejected_with_process_and_index(self):
        # A NaN time passes every ordering comparison; a drain on it would
        # spin in the simulator instead of failing.
        with pytest.raises(SchedulingError, match="FixedTimes .*non-finite.* index 1"):
            FixedTimes([0.0, float("nan")]).checked_times(2)

    def test_infinite_time_rejected(self):
        with pytest.raises(SchedulingError, match="non-finite .*inf.* index 2"):
            FixedTimes([0.0, 1.0, float("inf")]).checked_times(3)

    def test_negative_and_decreasing_times_name_the_index(self):
        with pytest.raises(SchedulingError, match="negative .* index 0"):
            FixedTimes([-1.0, 0.0]).checked_times(2)
        with pytest.raises(SchedulingError, match="decreasing .* index 2"):
            FixedTimes([0.0, 2.0, 1.0]).checked_times(3)

    def test_checked_times_are_floats(self):
        assert FixedTimes([0, 1, 1]).checked_times(3) == [0.0, 1.0, 1.0]
        assert all(type(t) is float for t in FixedTimes([0, 1]).checked_times(2))


class TestBatchedArrivals:
    def test_bursts_share_one_timestamp(self):
        times = BatchedArrivals(0.5, 4, seed=1).arrival_times(12)
        bursts = [times[i : i + 4] for i in range(0, 12, 4)]
        for burst in bursts:
            assert len(set(burst)) == 1
        starts = [burst[0] for burst in bursts]
        assert starts == sorted(starts)
        assert len(set(starts)) == 3

    def test_trailing_partial_burst_allowed(self):
        times = BatchedArrivals(1.0, 8, seed=2).arrival_times(10)
        assert len(times) == 10
        assert len(set(times[:8])) == 1
        assert len(set(times[8:])) == 1
        assert times[8] > times[0]

    def test_schedule_is_a_pure_function_of_the_seed(self):
        a = BatchedArrivals(0.2, 16, seed=5).arrival_times(64)
        b = BatchedArrivals(0.2, 16, seed=5).arrival_times(64)
        assert a == b
        assert BatchedArrivals(0.2, 16, seed=6).arrival_times(64) != a

    def test_burst_size_one_is_plain_poisson(self):
        assert (
            BatchedArrivals(3.0, 1, seed=4).arrival_times(20)
            == PoissonArrivals(3.0, seed=4).arrival_times(20)
        )

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            BatchedArrivals(0.0, 4)
        with pytest.raises(ConfigurationError):
            BatchedArrivals(1.0, 0)


class TestNonFiniteRates:
    """A NaN rate yields all-NaN times (a drain on them never ends) and an
    infinite one stamps every arrival at t=0: both fail at construction."""

    @pytest.mark.parametrize(
        "spec",
        [
            "poisson:nan",
            "poisson:inf",
            "poisson:nan:3",
            "burst:nan:4",
            "burst:inf:4",
            "rate:nan",
            "rate:inf",
        ],
    )
    def test_spec_rejected_naming_the_rate(self, spec):
        rate = spec.split(":")[1]
        match = f"finite and positive, got {rate}"
        with pytest.raises(ConfigurationError, match=match):
            parse_arrival_spec(spec)

    @pytest.mark.parametrize(
        "build",
        [
            lambda rate: PoissonArrivals(rate),
            lambda rate: BatchedArrivals(rate, 4),
            lambda rate: FixedRateArrivals(rate),
        ],
        ids=["poisson", "burst", "rate"],
    )
    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), float("-inf")])
    def test_constructor_rejects_rate(self, build, rate):
        with pytest.raises(ConfigurationError, match="finite and positive"):
            build(rate)


class TestParseSpec:
    def test_offline_and_none_mean_no_process(self):
        assert parse_arrival_spec(None) is None
        assert parse_arrival_spec("offline") is None

    def test_poisson_spec_with_default_and_explicit_seed(self):
        process = parse_arrival_spec("poisson:2.5", seed=9)
        assert isinstance(process, PoissonArrivals)
        assert process.rate_per_second == 2.5
        assert process.seed == 9
        assert parse_arrival_spec("poisson:2.5:3").seed == 3

    def test_rate_spec(self):
        process = parse_arrival_spec("rate:0.25")
        assert isinstance(process, FixedRateArrivals)
        assert process.rate_per_second == 0.25

    def test_trace_spec(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"arrival_time": 0.0}\n')
        process = parse_arrival_spec(f"trace:{path}")
        assert isinstance(process, TraceReplay)

    def test_burst_spec_with_default_and_explicit_seed(self):
        process = parse_arrival_spec("burst:0.5:64", seed=9)
        assert isinstance(process, BatchedArrivals)
        assert process.rate_per_second == 0.5
        assert process.burst_size == 64
        assert process.seed == 9
        assert parse_arrival_spec("burst:0.5:64:3").seed == 3

    def test_malformed_specs_rejected(self):
        for spec in (
            "poisson:fast",
            "rate:",
            "trace:",
            "blizzard:3",
            "burst:1.0",
            "burst:1.0:zero",
        ):
            with pytest.raises(ConfigurationError):
                parse_arrival_spec(spec)
