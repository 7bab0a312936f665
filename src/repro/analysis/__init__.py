"""Result formatting, auditing, and experiment reports."""

from .audit import (
    AuditReport,
    CRITICAL,
    Finding,
    INFO,
    WARNING,
    audit,
)

from .normalize import (
    NormalizedResult,
    geometric_mean,
    mean,
    summarize,
)
from .report import Experiment, ExperimentRow
from .tables import format_normalized, format_percent, render_table

__all__ = [
    "AuditReport",
    "CRITICAL",
    "Experiment",
    "Finding",
    "INFO",
    "WARNING",
    "audit",
    "ExperimentRow",
    "NormalizedResult",
    "format_normalized",
    "format_percent",
    "geometric_mean",
    "mean",
    "render_table",
    "summarize",
]
