"""Unit tests for the Erlang, Coxian, Deterministic and PhaseType distributions."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributions import (
    Coxian,
    Deterministic,
    Erlang,
    Exponential,
    HyperExponential,
    PhaseType,
    erlang_scv,
    stages_for_scv,
)
from repro.exceptions import ParameterError


class TestErlang:
    def test_mean_and_scv(self):
        dist = Erlang(shape=4, rate=2.0)
        assert dist.mean == pytest.approx(2.0)
        assert dist.scv == pytest.approx(0.25)

    def test_from_mean_and_shape(self):
        dist = Erlang.from_mean_and_shape(mean=10.0, shape=5)
        assert dist.mean == pytest.approx(10.0)
        assert dist.shape == 5

    def test_single_stage_is_exponential(self):
        erlang = Erlang(shape=1, rate=0.5)
        exponential = Exponential(rate=0.5)
        for k in range(1, 5):
            assert erlang.moment(k) == pytest.approx(exponential.moment(k))

    def test_moment_formula(self):
        dist = Erlang(shape=3, rate=1.5)
        assert dist.moment(2) == pytest.approx(3 * 4 / 1.5**2)

    def test_invalid_shape_rejected(self):
        with pytest.raises(ParameterError):
            Erlang(shape=0, rate=1.0)

    def test_invalid_rate_rejected(self):
        with pytest.raises(ParameterError):
            Erlang(shape=2, rate=-1.0)

    def test_cdf_monotone(self):
        dist = Erlang(shape=3, rate=1.0)
        xs = np.linspace(0.0, 20.0, 100)
        assert np.all(np.diff(dist.cdf(xs)) >= 0.0)

    @pytest.mark.parametrize("shape", [1, 2, 5, 30])
    @pytest.mark.parametrize("rate", [0.01, 0.5, 3.0, 120.0])
    def test_pdf_and_cdf_equal_scipy_stats_gamma(self, shape, rate):
        import scipy.stats

        dist = Erlang(shape=shape, rate=rate)
        xs = np.concatenate(
            [np.linspace(-3.0, 40.0 * shape / rate, 4001), [0.0, -0.0, np.inf, -np.inf]]
        )
        with np.errstate(invalid="ignore"):
            pdf = scipy.stats.gamma.pdf(xs, a=shape, scale=1.0 / rate)
            cdf = scipy.stats.gamma.cdf(xs, a=shape, scale=1.0 / rate)
        np.testing.assert_array_equal(dist.pdf(xs), pdf)
        np.testing.assert_array_equal(dist.cdf(xs), cdf)
        for x in (-1.0, 0.0, shape / rate):
            assert dist.pdf(x) == float(scipy.stats.gamma.pdf(x, a=shape, scale=1.0 / rate))
            assert dist.cdf(x) == float(scipy.stats.gamma.cdf(x, a=shape, scale=1.0 / rate))

    def test_pdf_integrates_to_one(self):
        dist = Erlang(shape=4, rate=0.5)
        xs = np.linspace(0.0, 100.0, 100_001)
        assert np.trapezoid(dist.pdf(xs), xs) == pytest.approx(1.0, abs=1e-4)

    def test_sampling_mean(self, rng):
        dist = Erlang(shape=5, rate=1.0)
        draws = dist.sample(rng, size=100_000)
        assert np.mean(draws) == pytest.approx(dist.mean, rel=0.02)

    def test_laplace_transform(self):
        dist = Erlang(shape=2, rate=3.0)
        assert dist.laplace_transform(1.0) == pytest.approx((3.0 / 4.0) ** 2)

    def test_phase_type_view(self):
        dist = Erlang(shape=3, rate=2.0)
        ph = dist.to_phase_type()
        assert ph.num_phases == 3
        assert ph.mean == pytest.approx(dist.mean)
        assert ph.moment(2) == pytest.approx(dist.moment(2), rel=1e-9)

    def test_equality(self):
        assert Erlang(3, 1.0) == Erlang(3, 1.0)
        assert Erlang(3, 1.0) != Erlang(4, 1.0)

    def test_erlang_scv_helper(self):
        assert erlang_scv(4) == pytest.approx(0.25)

    def test_stages_for_scv(self):
        assert stages_for_scv(0.25) == 4
        assert stages_for_scv(1.0) == 1
        assert stages_for_scv(0.3) == 4  # ceil(1/0.3) = 4

    def test_stages_for_scv_zero_rejected(self):
        with pytest.raises(ValueError):
            stages_for_scv(0.0)


class TestDeterministic:
    def test_moments(self):
        dist = Deterministic(value=3.0)
        assert dist.mean == pytest.approx(3.0)
        assert dist.moment(3) == pytest.approx(27.0)
        assert dist.variance == pytest.approx(0.0)
        assert dist.scv == pytest.approx(0.0)

    def test_cdf_step(self):
        dist = Deterministic(value=2.0)
        assert dist.cdf(1.999) == 0.0
        assert dist.cdf(2.0) == 1.0
        assert dist.cdf(5.0) == 1.0

    def test_sampling_is_constant(self, rng):
        dist = Deterministic(value=1.5)
        draws = dist.sample(rng, size=10)
        np.testing.assert_allclose(draws, 1.5)
        assert dist.sample(rng) == 1.5

    def test_laplace_transform(self):
        dist = Deterministic(value=2.0)
        assert dist.laplace_transform(0.5) == pytest.approx(np.exp(-1.0))

    def test_no_phase_type_representation(self):
        with pytest.raises(NotImplementedError):
            Deterministic(value=1.0).to_phase_type()

    def test_invalid_value_rejected(self):
        with pytest.raises(ParameterError):
            Deterministic(value=0.0)

    def test_equality(self):
        assert Deterministic(2.0) == Deterministic(2.0)
        assert Deterministic(2.0) != Deterministic(3.0)


class TestCoxian:
    def test_two_phase_moments_match_construction(self):
        dist = Coxian.two_phase_from_moments(mean=4.0, scv=2.0)
        assert dist.mean == pytest.approx(4.0, rel=1e-9)
        assert dist.scv == pytest.approx(2.0, rel=1e-6)

    def test_scv_below_half_rejected(self):
        with pytest.raises(ParameterError):
            Coxian.two_phase_from_moments(mean=1.0, scv=0.3)

    def test_continue_probs_length_enforced(self):
        with pytest.raises(ParameterError):
            Coxian(rates=[1.0, 2.0], continue_probs=[0.5, 0.5])

    def test_continue_probs_range_enforced(self):
        with pytest.raises(ParameterError):
            Coxian(rates=[1.0, 2.0], continue_probs=[1.5])

    def test_degenerate_single_phase_is_exponential(self):
        dist = Coxian(rates=[2.0], continue_probs=[])
        assert dist.mean == pytest.approx(0.5)
        assert dist.scv == pytest.approx(1.0)

    def test_always_continue_equals_hypoexponential(self):
        dist = Coxian(rates=[1.0, 1.0], continue_probs=[1.0])
        # Sum of two exp(1): mean 2, scv 1/2.
        assert dist.mean == pytest.approx(2.0)
        assert dist.scv == pytest.approx(0.5)

    def test_sampling_mean(self, rng):
        dist = Coxian.two_phase_from_moments(mean=3.0, scv=1.5)
        draws = dist.sample(rng, size=50_000)
        assert np.mean(draws) == pytest.approx(3.0, rel=0.05)

    def test_cdf_monotone(self):
        dist = Coxian(rates=[1.0, 0.5], continue_probs=[0.7])
        xs = np.linspace(0.0, 20.0, 30)
        assert np.all(np.diff(dist.cdf(xs)) >= -1e-12)

    def test_phase_type_view_shares_moments(self):
        dist = Coxian(rates=[2.0, 1.0], continue_probs=[0.4])
        ph = dist.to_phase_type()
        assert ph.mean == pytest.approx(dist.mean)


class TestPhaseType:
    def test_hyperexponential_as_phase_type(self):
        hyper = HyperExponential(weights=[0.3, 0.7], rates=[2.0, 0.5])
        ph = PhaseType(initial=[0.3, 0.7], generator=[[-2.0, 0.0], [0.0, -0.5]])
        for k in range(1, 4):
            assert ph.moment(k) == pytest.approx(hyper.moment(k), rel=1e-9)

    def test_pdf_matches_exponential(self):
        ph = PhaseType(initial=[1.0], generator=[[-1.5]])
        exponential = Exponential(rate=1.5)
        for x in (0.0, 0.3, 1.7):
            assert ph.pdf(x) == pytest.approx(exponential.pdf(x), rel=1e-9)
            assert ph.cdf(x) == pytest.approx(exponential.cdf(x), rel=1e-9)

    def test_invalid_generator_shape(self):
        with pytest.raises(ParameterError):
            PhaseType(initial=[1.0], generator=[[-1.0, 0.0]])

    def test_generator_initial_size_mismatch(self):
        with pytest.raises(ParameterError):
            PhaseType(initial=[0.5, 0.5], generator=[[-1.0]])

    def test_positive_diagonal_rejected(self):
        with pytest.raises(ParameterError):
            PhaseType(initial=[1.0], generator=[[1.0]])

    def test_negative_off_diagonal_rejected(self):
        with pytest.raises(ParameterError):
            PhaseType(initial=[0.5, 0.5], generator=[[-1.0, -0.5], [0.0, -1.0]])

    def test_row_sums_must_be_non_positive(self):
        with pytest.raises(ParameterError):
            PhaseType(initial=[0.5, 0.5], generator=[[-1.0, 2.0], [0.0, -1.0]])

    def test_zero_exit_rate_everywhere_rejected(self):
        with pytest.raises(ParameterError):
            PhaseType(initial=[0.5, 0.5], generator=[[-1.0, 1.0], [1.0, -1.0]])

    def test_laplace_transform_at_zero(self):
        ph = HyperExponential(weights=[0.4, 0.6], rates=[1.0, 0.1]).to_phase_type()
        assert ph.laplace_transform(0.0) == pytest.approx(1.0, rel=1e-9)

    def test_sampling_mean(self, rng):
        ph = Erlang(shape=3, rate=1.0).to_phase_type()
        draws = ph.sample(rng, size=20_000)
        assert np.mean(draws) == pytest.approx(3.0, rel=0.05)

    def test_to_phase_type_is_identity(self):
        ph = PhaseType(initial=[1.0], generator=[[-1.0]])
        assert ph.to_phase_type() is ph


@settings(max_examples=30, deadline=None)
@given(shape=st.integers(min_value=1, max_value=20), rate=st.floats(min_value=0.01, max_value=50.0))
def test_property_erlang_scv_is_reciprocal_shape(shape, rate):
    assert Erlang(shape=shape, rate=rate).scv == pytest.approx(1.0 / shape, rel=1e-9)


@settings(max_examples=30, deadline=None)
@given(
    mean=st.floats(min_value=0.1, max_value=50.0),
    scv=st.floats(min_value=0.5, max_value=20.0),
)
def test_property_coxian_two_phase_matches_first_two_moments(mean, scv):
    dist = Coxian.two_phase_from_moments(mean=mean, scv=scv)
    assert dist.mean == pytest.approx(mean, rel=1e-8)
    assert dist.scv == pytest.approx(scv, rel=1e-5)
