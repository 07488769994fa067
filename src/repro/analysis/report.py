"""Paper-vs-measured experiment records.

Every benchmark produces one or more :class:`Metric` rows; the records
render as aligned text (for bench logs) and markdown (for
EXPERIMENTS.md).  Keeping the comparison machinery in the library (not
the benches) lets tests pin the tolerance semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional


@dataclass(frozen=True)
class Metric:
    """One paper-vs-measured comparison row.

    Parameters
    ----------
    name:
        What is being compared ("shock angle (deg)").
    paper:
        The paper's value (None when the paper gives only a direction,
        e.g. "wake shock washed out").
    measured:
        Our value.
    rel_tol:
        Relative tolerance for :meth:`agrees` (ignored when ``paper`` is
        None).
    note:
        Free-text qualification.
    """

    name: str
    paper: Optional[float]
    measured: float
    rel_tol: float = 0.15
    note: str = ""

    def agrees(self) -> Optional[bool]:
        """Whether measured matches paper within tolerance (None if n/a)."""
        if self.paper is None:
            return None
        if self.paper == 0:
            return abs(self.measured) <= self.rel_tol
        return abs(self.measured - self.paper) <= self.rel_tol * abs(self.paper)


@dataclass
class ExperimentRecord:
    """All comparison rows of one experiment (one figure/table)."""

    experiment_id: str
    title: str
    metrics: List[Metric] = field(default_factory=list)

    def add(
        self,
        name: str,
        paper: Optional[float],
        measured: float,
        rel_tol: float = 0.15,
        note: str = "",
    ) -> Metric:
        """Append and return one comparison row."""
        m = Metric(name=name, paper=paper, measured=measured, rel_tol=rel_tol, note=note)
        self.metrics.append(m)
        return m

    def all_agree(self) -> bool:
        """True when every comparable metric is within tolerance."""
        return all(m.agrees() in (True, None) for m in self.metrics)

    # -- rendering ---------------------------------------------------------

    def to_text(self) -> str:
        """Aligned plain-text rendering (bench log format)."""
        lines = [f"[{self.experiment_id}] {self.title}"]
        for m in self.metrics:
            paper = "--" if m.paper is None else f"{m.paper:.4g}"
            verdict = {True: "OK", False: "MISS", None: "info"}[m.agrees()]
            note = f"  ({m.note})" if m.note else ""
            lines.append(
                f"  {m.name:<40s} paper={paper:>8s}  measured="
                f"{m.measured:>10.4g}  [{verdict}]{note}"
            )
        return "\n".join(lines)

    def to_markdown_rows(self) -> str:
        """Markdown table rows (without the header)."""
        rows = []
        for m in self.metrics:
            paper = "—" if m.paper is None else f"{m.paper:.4g}"
            verdict = {True: "✓", False: "✗", None: "·"}[m.agrees()]
            rows.append(
                f"| {self.experiment_id} | {m.name} | {paper} | "
                f"{m.measured:.4g} | {verdict} | {m.note} |"
            )
        return "\n".join(rows)


MARKDOWN_HEADER = (
    "| Exp | Metric | Paper | Measured | Agree | Note |\n"
    "|---|---|---|---|---|---|"
)
