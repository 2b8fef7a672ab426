"""Experiment harness: tables T1-T19 validating every claim of the paper."""

from .report import build_report, table_to_markdown, write_report
from .suite import ALL_EXPERIMENTS, run_all
from .tables import Table

__all__ = [
    "ALL_EXPERIMENTS",
    "run_all",
    "Table",
    "build_report",
    "table_to_markdown",
    "write_report",
]
