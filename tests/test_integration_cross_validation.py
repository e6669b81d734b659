"""Integration tests: all four solution methods must agree with each other.

The library offers four independent routes to the steady state of the same
model — exact spectral expansion, the geometric approximation, a truncated
finite CTMC and discrete-event simulation.  Agreement between independently
implemented methods is the strongest internal evidence that the reproduction
is faithful, so this module cross-validates them on a grid of configurations,
including the paper's own parameter region.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.distributions import Exponential, HyperExponential
from repro.queueing import UnreliableQueueModel, sun_fitted_model


def _model(num_servers, arrival_rate, operative_scv, mean_operative, mean_repair):
    if operative_scv <= 1.0:
        operative = Exponential(rate=1.0 / mean_operative)
    else:
        operative = HyperExponential.from_mean_and_scv(mean_operative, operative_scv)
    return UnreliableQueueModel(
        num_servers=num_servers,
        arrival_rate=arrival_rate,
        service_rate=1.0,
        operative=operative,
        inoperative=Exponential(rate=1.0 / mean_repair),
    )


class TestSpectralVsCTMCGrid:
    @pytest.mark.parametrize("num_servers", [1, 2, 3, 5])
    @pytest.mark.parametrize("utilisation", [0.3, 0.7, 0.9])
    def test_mean_queue_length_agrees(self, num_servers, utilisation):
        base = _model(num_servers, 1.0, 4.0, 30.0, 2.0)
        arrival_rate = utilisation * base.mean_operative_servers
        model = base.with_arrival_rate(arrival_rate)
        spectral = model.solve_spectral()
        reference = model.solve_ctmc()
        assert reference.truncation_mass() < 1e-7
        assert spectral.mean_queue_length == pytest.approx(
            reference.mean_queue_length, rel=1e-5
        )

    def test_full_distribution_agreement_moderate_case(self):
        model = _model(4, 2.5, 6.0, 40.0, 1.5)
        spectral = model.solve_spectral()
        reference = model.solve_ctmc()
        levels = np.arange(0, 40)
        spectral_pmf = np.array([spectral.queue_length_pmf(int(j)) for j in levels])
        reference_pmf = np.array([reference.queue_length_pmf(int(j)) for j in levels])
        np.testing.assert_allclose(spectral_pmf, reference_pmf, atol=1e-8)


class TestPaperConfiguration:
    def test_paper_n10_configuration_agrees_across_methods(self):
        model = sun_fitted_model(num_servers=10, arrival_rate=7.0)
        spectral = model.solve_spectral()
        ctmc = model.solve_ctmc()
        geometric = model.solve_geometric()
        assert spectral.mean_queue_length == pytest.approx(
            ctmc.mean_queue_length, rel=1e-5
        )
        # The decay rates of the exact and approximate solutions coincide.
        assert geometric.decay_rate == pytest.approx(spectral.decay_rate, abs=1e-7)

    def test_simulation_confirms_spectral_solution(self):
        model = sun_fitted_model(num_servers=5, arrival_rate=3.5)
        exact = model.solve_spectral().mean_queue_length
        estimate = model.simulate(horizon=120_000.0, seed=29, num_batches=20)
        relative_error = abs(estimate.mean_queue_length.estimate - exact) / exact
        assert relative_error < 0.1

    def test_geometric_upper_tail_matches_exact(self):
        """Both solutions share the same geometric tail, so large-queue tail
        probabilities agree in log scale even at moderate load."""
        model = sun_fitted_model(num_servers=5, arrival_rate=4.4)
        exact = model.solve_spectral()
        approx = model.solve_geometric()
        for level in (40, 60, 80):
            exact_tail = exact.queue_length_tail(level)
            approx_tail = approx.queue_length_tail(level)
            assert np.log(approx_tail) == pytest.approx(np.log(exact_tail), rel=0.1)


class TestStabilityBoundary:
    def test_queue_length_diverges_near_saturation(self):
        lengths = []
        for utilisation in (0.7, 0.9, 0.97):
            base = _model(3, 1.0, 4.0, 30.0, 2.0)
            model = base.with_arrival_rate(utilisation * base.mean_operative_servers)
            lengths.append(model.solve_spectral().mean_queue_length)
        assert lengths == sorted(lengths)
        assert lengths[-1] > 5 * lengths[0]

    def test_decay_rate_tends_to_one_at_saturation(self):
        base = _model(3, 1.0, 4.0, 30.0, 2.0)
        decay_rates = [
            base.with_arrival_rate(u * base.mean_operative_servers)
            .solve_geometric()
            .decay_rate
            for u in (0.5, 0.9, 0.99)
        ]
        assert decay_rates == sorted(decay_rates)
        assert decay_rates[-1] > 0.97


class TestTruncationRegression:
    def test_slow_repair_truncation_mass_regression(self):
        """Pinned falsifying example of the old load-based truncation level.

        With slow repairs the true tail decay rate (~0.899) substantially
        exceeds the effective load (0.75), so sizing the truncation from the
        load left ~4.2e-6 mass at the boundary.  The decay-rate-based,
        adaptive solver must meet the 1e-10 target here.
        """
        base = _model(1, 1.0, 3.0, 5.0, 4.0)
        model = base.with_arrival_rate(0.75 * base.mean_operative_servers)
        spectral = model.solve_spectral()
        reference = model.solve_ctmc()
        assert reference.truncation_mass() < 1e-10
        assert spectral.mean_queue_length == pytest.approx(
            reference.mean_queue_length, rel=1e-4, abs=1e-8
        )


@settings(
    max_examples=30,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    num_servers=st.integers(min_value=1, max_value=10),
    utilisation=st.floats(min_value=0.1, max_value=0.93),
    operative_scv=st.floats(min_value=1.0, max_value=12.0),
    mean_operative=st.floats(min_value=5.0, max_value=80.0),
    mean_repair=st.floats(min_value=0.05, max_value=4.0),
)
def test_property_spectral_matches_ctmc(
    num_servers, utilisation, operative_scv, mean_operative, mean_repair
):
    """For any stable configuration the exact solver agrees with the finite chain."""
    base = _model(num_servers, 1.0, operative_scv, mean_operative, mean_repair)
    model = base.with_arrival_rate(max(utilisation * base.mean_operative_servers, 1e-3))
    spectral = model.solve_spectral()
    reference = model.solve_ctmc()
    assert reference.truncation_mass() < 1e-6
    assert spectral.mean_queue_length == pytest.approx(
        reference.mean_queue_length, rel=1e-7, abs=1e-8
    )
    assert spectral.throughput == pytest.approx(model.arrival_rate, rel=1e-6)
