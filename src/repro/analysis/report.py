"""Experiment report records: paper-expected vs measured.

Each artifact of :mod:`repro.analysis.paper` builds one
:class:`Experiment` per paper table or figure; EXPERIMENTS.md is the
curated collection of these reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from .tables import render_table


@dataclass
class ExperimentRow:
    """One compared quantity within an experiment."""

    label: str
    paper: object            # what the paper reports
    measured: object         # what this reproduction measures
    unit: str = ""
    note: str = ""


@dataclass
class Experiment:
    """One paper artifact (table or figure) reproduction."""

    artifact: str            # e.g. "Table 4" or "Figure 5"
    title: str
    rows: List[ExperimentRow] = field(default_factory=list)
    shape_criteria: List[str] = field(default_factory=list)

    def add(self, label: str, paper: object, measured: object, unit: str = "", note: str = "") -> None:
        self.rows.append(ExperimentRow(label, paper, measured, unit, note))

    def render(self) -> str:
        header = "%s — %s" % (self.artifact, self.title)
        table = render_table(
            ("metric", "paper", "measured", "unit", "note"),
            [(r.label, r.paper, r.measured, r.unit, r.note) for r in self.rows],
        )
        parts = [header, "=" * len(header), table]
        if self.shape_criteria:
            parts.append("shape criteria:")
            parts.extend("  * %s" % c for c in self.shape_criteria)
        return "\n".join(parts)
