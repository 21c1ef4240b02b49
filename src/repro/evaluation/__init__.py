"""Evaluation harness regenerating every table and figure of §VII."""

from repro.obfuscation.configs import TABLE2_CONFIGURATIONS, ROPK_SWEEP, NATIVE
from repro.evaluation.table2 import Table2Row, run_table2
from repro.evaluation.table3 import Table3Row, run_table3
from repro.evaluation.figure5 import Figure5Bar, run_figure5
from repro.evaluation.coverage_study import CoverageStudyResult, run_coverage_study
from repro.evaluation.case_study import CaseStudyResult, run_case_study
from repro.evaluation.efficacy import EfficacyResult, run_efficacy_study
from repro.evaluation.reporting import render_table

__all__ = [
    "TABLE2_CONFIGURATIONS",
    "ROPK_SWEEP",
    "NATIVE",
    "Table2Row",
    "run_table2",
    "Table3Row",
    "run_table3",
    "Figure5Bar",
    "run_figure5",
    "CoverageStudyResult",
    "run_coverage_study",
    "CaseStudyResult",
    "run_case_study",
    "EfficacyResult",
    "run_efficacy_study",
    "run_grid",
    "render_table",
]


def __getattr__(name: str):
    # ``grid`` is the ``python -m repro.evaluation.grid`` entry point: importing
    # it here eagerly would load it before runpy executes it as ``__main__``
    # (and warn about it), so it loads on first attribute access instead
    if name == "run_grid":
        from repro.evaluation.grid import run_grid

        return run_grid
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
