"""Check records and report rendering (text table / JSON)."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, List, Sequence

import numpy as np

from .expr import DEFAULT_SEED, Evaluator, relative_residual, worst_sample

PASS = "pass"
FAIL = "fail"
ERROR = "error"


@dataclass(frozen=True)
class CheckRecord:
    name: str
    status: str
    max_residual: float
    tolerance: float
    samples: int
    seed: int
    notes: str = ""
    # the sample point of the largest residual, for a run to explain a
    # failing check; never rendered, so the report text does not change
    worst_point: dict = field(default_factory=dict, compare=False)

    @staticmethod
    def from_residual(
        name: str,
        residual,
        tolerance: float,
        samples: int,
        seed: int = DEFAULT_SEED,
        notes: str = "",
        *,
        points: Sequence[dict],
    ) -> "CheckRecord":
        """Passes iff the largest residual is at most the tolerance: the
        residuals are per sample, one sample per point, and are reduced by
        `worst_sample`."""
        residual, worst_point = worst_sample(residual, points)
        return CheckRecord(
            name=name,
            status=PASS if residual <= tolerance else FAIL,
            max_residual=residual,
            tolerance=float(tolerance),
            samples=samples,
            seed=seed,
            notes=notes,
            worst_point=worst_point,
        )

    @staticmethod
    def from_error(name: str, exc: Exception) -> "CheckRecord":
        return CheckRecord(
            name=name,
            status=ERROR,
            max_residual=float("nan"),
            tolerance=0.0,
            samples=0,
            seed=DEFAULT_SEED,
            notes=f"{type(exc).__name__}: {exc}",
        )


def values_check(name: str, got, want, pd, notes: str = "") -> CheckRecord:
    """The one check of values at the solve's sample points `pd.points`:
    got against want under `relative_residual`, with the solve's tolerance
    and seed, reduced by `worst_sample`.  Either side is an array with the
    point as its first axis (want may be anything that broadcasts against
    got, such as 0.0 or an identity matrix), or a list of expressions, one
    per value of a point in order, evaluated at the points."""
    points = pd.points
    if isinstance(got, list):
        got = Evaluator(got).eval_points(points).T
    if isinstance(want, list):
        want = Evaluator(want).eval_points(points).T.reshape(np.shape(got))
    return CheckRecord.from_residual(name, relative_residual(got, want), pd.tol, len(points),
                                     pd.seed, notes, points=points)


@dataclass
class CheckReport:
    checks: List[CheckRecord] = field(default_factory=list)

    def add(self, record: CheckRecord) -> None:
        self.checks.append(record)

    def extend(self, records: Iterable[CheckRecord]) -> None:
        self.checks.extend(records)

    def passed(self) -> bool:
        return all(c.status == PASS for c in self.checks)

    def sorted_checks(self) -> List[CheckRecord]:
        return sorted(self.checks, key=lambda c: c.name)

    def to_json(self) -> str:
        rows = [
            {
                "name": c.name,
                "status": c.status,
                "max_residual": c.max_residual,
                "tolerance": c.tolerance,
                "samples": c.samples,
                "seed": c.seed,
                "notes": c.notes,
            }
            for c in self.sorted_checks()
        ]
        return json.dumps(rows, indent=2, sort_keys=True)

    def render_table(self) -> str:
        rows = [("check", "status", "max_residual", "tolerance", "samples", "seed")]
        for c in self.sorted_checks():
            rows.append(
                (
                    c.name,
                    c.status,
                    f"{c.max_residual:.3e}",
                    f"{c.tolerance:.1e}",
                    str(c.samples),
                    str(c.seed),
                )
            )
        widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
        lines = []
        for idx, r in enumerate(rows):
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
            if idx == 0:
                lines.append("  ".join("-" * w for w in widths))
        notes = [c for c in self.sorted_checks() if c.notes]
        if notes:
            lines.append("")
            for c in notes:
                lines.append(f"note [{c.name}]: {c.notes}")
        return "\n".join(lines)
