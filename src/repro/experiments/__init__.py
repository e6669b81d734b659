"""Experiment harness: one driver per table/figure of the paper.

Every Section-4 figure driver declares its grid as a
:class:`repro.sweeps.SweepSpec` (see each module's ``sweep_spec`` function)
and evaluates it through a shared :class:`repro.sweeps.SweepRunner`, so the
whole suite can run serially or let each grid whose estimated work pays for
a process pool fan out over worker processes
(``run_all_experiments(parallel=True)``), with identical numbers.

Public API
----------

* :func:`run_section2`, :class:`Section2Result`, :class:`PeriodAnalysis` —
  the Section-2 trace analysis (Figures 3–4).
* :func:`run_figure5` … :func:`run_figure9` with their result classes — the
  Section-4 numerical experiments.
* :func:`run_all_experiments`, :func:`render_report`,
  :class:`ExperimentReport` — orchestration helpers.
* :mod:`repro.experiments.parameters` — the published parameter values, as a
  single source of truth.
* :func:`format_table`, :func:`format_key_values` — plain-text rendering.
"""

from . import parameters
from .figure5 import Figure5Result, run_figure5
from .figure6 import Figure6Point, Figure6Result, operative_distribution_for_scv, run_figure6
from .figure7 import Figure7Point, Figure7Result, run_figure7
from .figure8 import Figure8Point, Figure8Result, model_for_load, run_figure8
from .figure9 import Figure9Point, Figure9Result, run_figure9
from .reporting import format_key_values, format_table
from .runner import ExperimentReport, render_report, run_all_experiments
from .section2 import PeriodAnalysis, Section2Result, fitted_distributions, run_section2

__all__ = [
    "parameters",
    "run_section2",
    "Section2Result",
    "PeriodAnalysis",
    "fitted_distributions",
    "run_figure5",
    "Figure5Result",
    "run_figure6",
    "Figure6Result",
    "Figure6Point",
    "operative_distribution_for_scv",
    "run_figure7",
    "Figure7Result",
    "Figure7Point",
    "run_figure8",
    "Figure8Result",
    "Figure8Point",
    "model_for_load",
    "run_figure9",
    "Figure9Result",
    "Figure9Point",
    "run_all_experiments",
    "render_report",
    "ExperimentReport",
    "format_table",
    "format_key_values",
]
