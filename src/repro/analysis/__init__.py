"""Static analysis: prove-or-prune before you simulate.

ETAP-style interval analysis for the intermittent executor plus a
rule-based design linter.  Three layers:

* :mod:`repro.analysis.intervals` — closed-form lower/upper bounds on
  the energy, time and PDP of a completed macro-task run, derived from
  the scheme profile, the threshold set and the harvest trace's power
  envelope — no event loop, ``O(tasks + segments)``;
* :mod:`repro.analysis.feasibility` — verdicts built on those bounds:
  ``INFEASIBLE`` (the simulator provably raises), ``DOMINATED`` (the
  bound interval provably loses to a reference PDP) or ``UNKNOWN``
  (simulate);
* :mod:`repro.analysis.lint` — static checks over netlists, task
  graphs and threshold configurations, each with a rule ID and a
  severity, filterable like a real linter (``repro lint``);
* :mod:`repro.analysis.screen` — a zero-cost static round 0 for
  :class:`~repro.dse.strategies.SuccessiveHalvingStrategy`, cutting
  the opening pool before the first simulation.

Soundness contract (pinned by ``tests/test_analysis.py``): for every
run the simulator *completes*, ``lower <= simulated <= upper`` holds
for energy, active time, wall time and PDP; for every point the
analysis calls ``INFEASIBLE``, the simulator raises.
"""

from repro.analysis.feasibility import (
    FeasibilityReport,
    Verdict,
    assess_point,
    assess_run,
)
from repro.analysis.intervals import (
    Interval,
    RunBounds,
    bounds_for_point,
    bounds_for_run,
)
from repro.analysis.lint import (
    LINT_RULES,
    LintFinding,
    filter_findings,
    lint_netlist,
    lint_plan,
    lint_thresholds,
)
from repro.analysis.screen import StaticScreener

__all__ = [
    "FeasibilityReport",
    "Interval",
    "LINT_RULES",
    "LintFinding",
    "RunBounds",
    "StaticScreener",
    "Verdict",
    "assess_point",
    "assess_run",
    "bounds_for_point",
    "bounds_for_run",
    "filter_findings",
    "lint_netlist",
    "lint_plan",
    "lint_thresholds",
]
