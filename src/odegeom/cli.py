"""Command-line verification suites.

Subcommands run the construction for one ODE and emit a check report, as an
aligned table or as JSON (a list of records with keys name, status,
max_residual, tolerance, samples, seed, notes).  Exit code 0 means every
check passed, 1 means at least one failed, 2 means the invocation or its
inputs were invalid.

A run builds one `Session`, and every suite it runs takes it, so each pipeline
stage (frame, metric, structure tensor, the metric's stream of seeded points)
is computed once per run, however many suites read it and in whatever order.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence

# every array is small, so a second BLAS thread would only spin; set before numpy loads
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import catalog, geom, pentad, radon, so3
from .expr import (
    DEFAULT_REL_TOL,
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    InputError,
    parse,
)
from .jet import JetOde, builtin, builtin_names, resolve_ode
from .report import CheckReport, values_check


class UsageError(InputError):
    pass


def _parse_point(text: str) -> Dict[str, float]:
    point: Dict[str, float] = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise UsageError(f"bad point component {item!r}; expected name=value")
        k, v = item.split("=", 1)
        try:
            value = float(v)
        except ValueError:
            raise UsageError(f"bad numeric value in point component {item!r}") from None
        if not math.isfinite(value):
            raise UsageError(f"--point coordinate {k.strip()} must be finite, got {v.strip()!r}")
        point[k.strip()] = value
    return point


# argparse takes a token for a negative number only if it looks like -5 or
# -0.5 (the pattern it keeps in `_negative_number_matcher`); any other token
# that starts with "-", such as -1e-3 or -inf, it reads as an unknown option.
# Every subparser gets this wider pattern, so each negative float literal
# reaches its argument's type and validation.  No option name here looks like
# a number, so none is shadowed.
_NEGATIVE_NUMBER = re.compile(
    r"^-(?:(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?|inf|infinity|nan)$", re.IGNORECASE)


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _positive_tolerance(text: str) -> float:
    value = _finite_float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text!r}")
    return value


def _sample_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text!r}")
    return value


@dataclass
class Session:
    """One equation and the run settings.  Each pipeline stage (the solved
    frame, the metric, the structure tensor) is computed on first use and
    then shared by every suite of the run.  The solved frame carries the
    sample points, tolerance and seed, and every sampled row reads them
    from it."""

    ode: JetOde
    samples: int
    tol: float
    seed: int

    @cached_property
    def pd(self) -> pentad.PentadData:
        return pentad.solve_pentad(self.ode, samples=self.samples, tol=self.tol,
                                   seed=self.seed)

    @cached_property
    def metric(self) -> geom.MetricField:
        return geom.metric_from_frame(self.pd)

    @cached_property
    def G(self) -> so3.GTensor:
        return so3.build_G(self.pd, self.metric)


def pentad_suite(s: Session) -> CheckReport:
    report = CheckReport()
    ode, pd = s.ode, s.pd
    n = ode.order
    cat = catalog.for_ode(ode.name)
    v = pd.values
    lower, letters, coframe = v.lower, v.coefficients(), v.coframe()

    if cat:
        report.add(values_check(catalog.p_check_name(ode.name), [pd.P],
                                [catalog.expr(cat["P"])], pd))
        report.add(values_check("Q_matches_expected", [pd.Q], [catalog.expr(cat["Q"])], pd))
        report.add(values_check(
            "coefficients_match_expected",
            np.transpose([letters[letter] for letter in cat["coefficients"]]),
            [catalog.expr(text) for text in cat["coefficients"].values()], pd))
        if "coframe" in cat:
            ref = catalog.matrix(cat["coframe"])
            report.add(values_check(
                "coframe_matches_expected", np.moveaxis(coframe, -1, 0),
                [ref[i][a] for i in range(n) for a in range(n)], pd))

    for name, equation in zip(pd.residual_names, v.equations):
        report.add(values_check(name, equation, 0.0, pd))

    # sum_a C[i][a] L[a][j] against the identity, at each point
    product = (coframe[:, :, None] * lower[None]).sum(axis=1)
    report.add(values_check("coframe_frame_inverse_identity", np.moveaxis(product, -1, 0),
                            np.eye(n), pd))

    if n == 4:
        omega, volume, closure, base_point = pentad.symplectic_at(pd)
        if cat and "symplectic" in cat:
            rows, cols = zip(*((ode.coords.index(ca), ode.coords.index(cb))
                               for ca, cb in cat["symplectic"]))
            report.add(values_check(
                "symplectic_matches_expected", omega[:, rows, cols],
                [catalog.expr(text) for text in cat["symplectic"].values()], pd))
            report.add(values_check(
                "symplectic_wedge_square", volume, [catalog.expr(cat["symplectic_volume"])], pd,
                "coefficient of the coordinate 4-volume"))
        report.add(values_check("symplectic_closed", closure, 0.0, pd))
        report.add(values_check("symplectic_base_point_independent", base_point, 0.0, pd))
    return report


def geom_suite(s: Session) -> CheckReport:
    if s.ode.order != 5:
        raise UsageError(
            f"{s.ode.name} has order 4: its moduli space carries a symplectic form, "
            "not a metric (run the pentad suite)"
        )
    report = CheckReport()
    m = s.metric
    cf = geom.connection_forms(s.pd) if s.ode.name == "conics5" else None
    report.extend(geom.curvature_checks(m))
    if cf is not None:
        report.extend(geom.connection_checks(cf, m))
    report.extend(geom.structure_checks(m))
    report.extend(geom.metric_pairing_check(m))
    if cf is not None:
        report.extend(geom.integrability_check(cf, m))
    return report


def so3_suite(s: Session) -> CheckReport:
    if s.ode.name != "conics5":
        raise UsageError(
            "the parallel structure tensor exists for conics5 only "
            "(other cases carry torsion)"
        )
    report = CheckReport()
    G = s.G
    report.extend(so3.frame_constant_checks(G))
    report.extend(so3.trace_checks(G))
    report.extend(so3.g_identities(G))
    report.extend(so3.expansion_check(G))
    return report


def radon_suite(
    s: Session,
    f_text: Optional[str] = None,
    interval: Optional[Sequence[float]] = None,
    point: Optional[Dict[str, float]] = None,
) -> CheckReport:
    if s.ode.name != "conics5":
        raise UsageError("the integral-transform verification runs on conics5")
    report = CheckReport()
    G = s.G
    seed = s.seed

    span = tuple(interval) if interval else (-0.8, 0.8)
    f_texts = [f_text] if f_text else ["1", "x", "y", "x*y"]
    # a lone point gets its companions in `radon.verify_system`
    points = None if point is None else [dict(point)]

    report.extend(radon.conic_checks(seed=seed))
    report.extend(radon.integration_cross_checks(s.ode, builtin("gn5"), seed=seed))
    cfg = radon.RadonConfig(f=parse(f_texts[0]), x_a=span[0], x_b=span[1])
    report.extend(radon.numerics_checks(cfg, jet=points[0] if points else None, seed=seed))
    report.extend(radon.system_checks(G, f_texts=f_texts, interval=span, points=points))
    return report


_SUITES = {
    "pentad": "frame functions, recurrence identities, coframe",
    "geom": "metric, curvature, structure checks, connection",
    "so3": "structure tensor identities and operator expansion",
    "radon": "integral transform vs the operator pair",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="odegeom",
        description="Reconstruct and verify the geometry carried by the moduli "
                    "space of a 4th/5th-order ODE.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p._negative_number_matcher = _NEGATIVE_NUMBER
        p.add_argument("--ode", default="conics5",
                       help=f"builtin name ({', '.join(builtin_names())}) or an "
                            "ODE definition file")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--samples", type=_sample_count, default=DEFAULT_SAMPLES)
        p.add_argument("--tol", type=_positive_tolerance, default=DEFAULT_REL_TOL)
        p.add_argument("--json", action="store_true", help="emit the report as JSON")

    for name, help_text in _SUITES.items():
        p = sub.add_parser(name, help=help_text)
        common(p)
        if name == "geom":
            p.add_argument("--point", help="evaluate curvature at y=..,p=..,q=..,r=..,s=..")
        if name == "radon":
            p.add_argument("--f", help="test function in x and y (default: 1, x, y, x*y)")
            p.add_argument("--interval", nargs=2, type=_finite_float, metavar=("A", "B"))
            p.add_argument("--point", help="base jet y=..,p=..,q=..,r=..,s=..")

    p = sub.add_parser("all", help="every suite that applies to the ODE")
    common(p)
    return parser


def run(argv: Sequence[str]) -> tuple:
    """Execute a command line; returns (exit_code, rendered_report)."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed its message
        return (2 if exc.code not in (0, None) else 0), ""

    try:
        point = _parse_point(args.point) if getattr(args, "point", None) else None
        session = Session(resolve_ode(args.ode), args.samples, args.tol, args.seed)
        extra_lines: List[str] = []

        if args.command == "pentad":
            report = pentad_suite(session)
        elif args.command == "geom":
            report = geom_suite(session)
            if point is not None:
                cv = geom.curvature(session.metric, [point])
                extra_lines.append(f"scalar curvature at point: {cv.scalar[0]:.12g}")
                extra_lines.append("metric at point:")
                for row in cv.g[0]:
                    extra_lines.append("  " + "  ".join(f"{v: .6e}" for v in row))
        elif args.command == "so3":
            report = so3_suite(session)
        elif args.command == "radon":
            if point is not None:
                missing = set(radon.COORDS) - set(point)
                if missing:
                    raise UsageError(f"--point must set all of y,p,q,r,s (missing {sorted(missing)})")
            report = radon_suite(session,
                                 f_text=getattr(args, "f", None),
                                 interval=getattr(args, "interval", None),
                                 point=point)
        elif args.command == "all":
            report = pentad_suite(session)
            if session.ode.order == 5:
                report.extend(geom_suite(session).checks)
            if session.ode.name == "conics5":
                report.extend(so3_suite(session).checks)
                report.extend(radon_suite(session).checks)
    except InputError as exc:
        return 2, f"error: {exc}"

    if args.json:
        text = report.to_json()
    else:
        body = report.render_table()
        header = "\n".join(extra_lines)
        text = (header + "\n\n" + body) if header else body
    return (0 if report.passed() else 1), text


def main(argv: Optional[Sequence[str]] = None) -> int:
    code, text = run(list(sys.argv[1:] if argv is None else argv))
    if text:
        stream = sys.stderr if code == 2 else sys.stdout
        print(text, file=stream)
    return code


if __name__ == "__main__":
    sys.exit(main())
