"""Check records and report rendering (text table / JSON)."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, List, Tuple

from .expr import DEFAULT_SEED, EquivResult, Expr, SampleDomain, equiv_all

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

    @staticmethod
    def from_equiv(name: str, res: EquivResult, notes: str = "") -> "CheckRecord":
        return CheckRecord(
            name=name,
            status=PASS if res.passed else FAIL,
            max_residual=res.max_residual,
            tolerance=res.tolerance,
            samples=res.samples,
            seed=res.seed,
            notes=notes,
        )

    @staticmethod
    def from_residual(
        name: str,
        residual: float,
        tolerance: float,
        samples: int,
        seed: int = DEFAULT_SEED,
        notes: str = "",
    ) -> "CheckRecord":
        return CheckRecord(
            name=name,
            status=PASS if residual <= tolerance else FAIL,
            max_residual=float(residual),
            tolerance=float(tolerance),
            samples=samples,
            seed=seed,
            notes=notes,
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


def check_identities(
    name: str,
    pairs: Iterable[Tuple[Expr, Expr]],
    dom: SampleDomain,
    samples: int,
    tol: float,
    seed: int,
    notes: str = "",
) -> CheckRecord:
    """One named check: every (e1, e2) in pairs is an identity on dom,
    certified by `equiv_all` on one shared sample set."""
    res = equiv_all(pairs, dom, n=samples, tol=tol, seed=seed)
    return CheckRecord.from_equiv(name, res, notes)


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
