"""Unit tests for the discrete-event engine and the output-analysis estimators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import SimulationError
from repro.simulation import (
    ConfidenceInterval,
    EventScheduler,
    TimeWeightedAccumulator,
    batch_means_interval,
)


class TestEventScheduler:
    def test_events_fire_in_time_order(self):
        scheduler = EventScheduler()
        order = []
        scheduler.schedule(2.0, lambda: order.append("late"))
        scheduler.schedule(1.0, lambda: order.append("early"))
        scheduler.run_until(5.0)
        assert order == ["early", "late"]

    def test_ties_broken_in_fifo_order(self):
        scheduler = EventScheduler()
        order = []
        scheduler.schedule(1.0, lambda: order.append("first"))
        scheduler.schedule(1.0, lambda: order.append("second"))
        scheduler.run_until(2.0)
        assert order == ["first", "second"]

    def test_clock_advances_to_horizon(self):
        scheduler = EventScheduler()
        scheduler.schedule(0.5, lambda: None)
        scheduler.run_until(3.0)
        assert scheduler.now == pytest.approx(3.0)

    def test_events_beyond_horizon_not_executed(self):
        scheduler = EventScheduler()
        fired = []
        scheduler.schedule(10.0, lambda: fired.append(True))
        scheduler.run_until(5.0)
        assert not fired
        assert scheduler.num_pending_events == 1

    def test_cancelled_events_are_skipped(self):
        scheduler = EventScheduler()
        fired = []
        handle = scheduler.schedule(1.0, lambda: fired.append(True))
        handle.cancel()
        scheduler.run_until(2.0)
        assert not fired
        assert handle.is_cancelled

    def test_events_can_schedule_new_events(self):
        scheduler = EventScheduler()
        fired = []

        def chain():
            fired.append(scheduler.now)
            if len(fired) < 3:
                scheduler.schedule(1.0, chain)

        scheduler.schedule(1.0, chain)
        scheduler.run_until(10.0)
        np.testing.assert_allclose(fired, [1.0, 2.0, 3.0])

    def test_schedule_at_absolute_time(self):
        scheduler = EventScheduler()
        fired = []
        scheduler.schedule_at(2.5, lambda: fired.append(scheduler.now))
        scheduler.run_until(3.0)
        assert fired == [2.5]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            EventScheduler().schedule(-1.0, lambda: None)

    def test_nan_delay_rejected(self):
        with pytest.raises(SimulationError):
            EventScheduler().schedule(float("nan"), lambda: None)

    def test_past_horizon_rejected(self):
        scheduler = EventScheduler()
        scheduler.run_until(5.0)
        with pytest.raises(SimulationError):
            scheduler.run_until(1.0)

    def test_schedule_in_the_past_rejected(self):
        scheduler = EventScheduler()
        scheduler.run_until(5.0)
        with pytest.raises(SimulationError):
            scheduler.schedule_at(1.0, lambda: None)

    def test_step_executes_single_event(self):
        scheduler = EventScheduler()
        fired = []
        scheduler.schedule(1.0, lambda: fired.append(1))
        scheduler.schedule(2.0, lambda: fired.append(2))
        assert scheduler.step()
        assert fired == [1]
        assert scheduler.num_processed_events == 1

    def test_step_on_empty_queue_returns_false(self):
        assert not EventScheduler().step()

    def test_clear_drops_every_pending_event(self):
        scheduler = EventScheduler()
        fired = []
        scheduler.schedule(1.0, lambda: fired.append(1))
        scheduler.schedule(2.0, lambda: fired.append(2)).cancel()
        scheduler.clear()
        assert scheduler.num_pending_events == 0
        assert not scheduler.step()
        assert fired == []


class TestTimeWeightedAccumulator:
    def test_constant_trajectory(self):
        accumulator = TimeWeightedAccumulator(initial_value=2.0)
        assert accumulator.area_up_to(5.0) == pytest.approx(10.0)
        assert accumulator.time_average(0.0, 5.0) == pytest.approx(2.0)

    def test_step_change(self):
        accumulator = TimeWeightedAccumulator(initial_value=0.0)
        accumulator.record(2.0, 3.0)  # value 0 until t=2, then 3
        assert accumulator.area_up_to(4.0) == pytest.approx(0.0 * 2 + 3.0 * 2)
        assert accumulator.time_average(0.0, 4.0) == pytest.approx(1.5)

    def test_window_average_between_breakpoints(self):
        accumulator = TimeWeightedAccumulator(initial_value=1.0)
        accumulator.record(1.0, 2.0)
        accumulator.record(3.0, 0.0)
        # On [1, 3] the value is 2.
        assert accumulator.time_average(1.0, 3.0) == pytest.approx(2.0)
        # On [0.5, 1.5]: half at 1, half at 2.
        assert accumulator.time_average(0.5, 1.5) == pytest.approx(1.5)

    def test_non_monotone_time_rejected(self):
        accumulator = TimeWeightedAccumulator()
        accumulator.record(2.0, 1.0)
        with pytest.raises(SimulationError):
            accumulator.record(1.0, 0.0)

    def test_zero_length_window_rejected(self):
        accumulator = TimeWeightedAccumulator()
        with pytest.raises(SimulationError):
            accumulator.time_average(1.0, 1.0)

    def test_current_value_tracked(self):
        accumulator = TimeWeightedAccumulator(initial_value=1.0)
        accumulator.record(1.0, 5.0)
        assert accumulator.current_value == 5.0


class TestBatchMeans:
    def test_interval_contains_mean_of_batches(self):
        values = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        interval = batch_means_interval(values)
        assert interval.estimate == pytest.approx(3.0)
        assert interval.lower < 3.0 < interval.upper

    def test_zero_variance_gives_zero_width(self):
        interval = batch_means_interval(np.full(10, 2.5))
        assert interval.half_width == pytest.approx(0.0)
        assert interval.contains(2.5)

    def test_width_shrinks_with_more_batches(self, rng):
        few = batch_means_interval(rng.normal(0.0, 1.0, size=5))
        many = batch_means_interval(rng.normal(0.0, 1.0, size=200))
        assert many.half_width < few.half_width

    def test_higher_confidence_wider(self, rng):
        values = rng.normal(size=30)
        assert (
            batch_means_interval(values, confidence=0.99).half_width
            > batch_means_interval(values, confidence=0.9).half_width
        )

    @pytest.mark.parametrize("batches", [2, 3, 10, 30, 100])
    @pytest.mark.parametrize("confidence", [0.9, 0.95, 0.999])
    def test_quantile_equals_scipy_stats_t(self, batches, confidence):
        import scipy.stats

        values = np.linspace(1.0, 2.0, batches) ** 2
        interval = batch_means_interval(values, confidence=confidence)
        quantile = float(scipy.stats.t.ppf(0.5 + confidence / 2.0, df=batches - 1))
        std_error = float(np.std(values, ddof=1) / np.sqrt(batches))
        assert interval.half_width == quantile * std_error

    def test_single_batch_rejected(self):
        with pytest.raises(SimulationError):
            batch_means_interval(np.array([1.0]))

    def test_invalid_confidence_rejected(self):
        with pytest.raises(SimulationError):
            batch_means_interval(np.array([1.0, 2.0]), confidence=1.2)

    def test_interval_string(self):
        interval = ConfidenceInterval(estimate=1.0, half_width=0.1, confidence=0.95, num_batches=8)
        assert "1.0" in str(interval)
