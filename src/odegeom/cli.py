"""Command-line verification suites.

Subcommands run the construction for one ODE and emit a check report, as an
aligned table or as JSON (a list of records with keys name, status,
max_residual, tolerance, samples, seed, notes).  Exit code 0 means every
check passed, 1 means at least one failed, 2 means the invocation or its
inputs were invalid.

A run builds one `Session`, and every suite it runs takes it, so each pipeline
stage (frame, metric and its derivative tables, structure tensor) is computed
once per run however many suites read it.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence

from . import catalog, geom, pentad, radon, so3
from .expr import (
    DEFAULT_REL_TOL,
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    ExprError,
    ONE,
    ParseError,
    ZERO,
    add,
    mul,
    parse,
)
from .jet import JetError, JetOde, builtin, builtin_names, resolve_ode
from .pentad import PentadError
from .report import CheckRecord, CheckReport, check_identities


class UsageError(Exception):
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
            point[k.strip()] = float(v)
        except ValueError:
            raise UsageError(f"bad numeric value in point component {item!r}") from None
    return point


@dataclass
class Session:
    """One equation and the run settings.  Each pipeline stage (the solved
    frame, the metric, the structure tensor) is computed on first use and
    then shared by every suite of the run."""

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
    sampling = (ode.domain, s.samples, s.tol, s.seed)
    cat = catalog.for_ode(ode.name)

    if cat:
        report.add(check_identities(catalog.p_check_name(ode.name),
                                    [(pd.P, catalog.expr(cat["P"]))], *sampling))
        report.add(check_identities("Q_matches_expected",
                                    [(pd.Q, catalog.expr(cat["Q"]))], *sampling))
        report.add(check_identities(
            "coefficients_match_expected",
            [(pd.coefficients[letter], catalog.expr(text))
             for letter, text in cat["coefficients"].items()],
            *sampling))
        if "coframe" in cat:
            ref = catalog.matrix(cat["coframe"])
            report.add(check_identities(
                "coframe_matches_expected",
                [(pd.coframe_rows[i][a], ref[i][a]) for i in range(n) for a in range(n)],
                *sampling))

    for (name, _), chk in zip(pd.residual_identities, pd.residual_checks):
        report.add(CheckRecord.from_equiv(name, chk))

    report.add(check_identities(
        "coframe_frame_inverse_identity",
        [(add(*[mul(pd.coframe_rows[i][a], pd.lower[a][j]) for a in range(n)]),
          ONE if i == j else ZERO)
         for i in range(n) for j in range(n)],
        *sampling))

    if n == 4:
        form = pentad.symplectic(pd)
        if cat and "symplectic" in cat:
            coords = ode.coords
            report.add(check_identities(
                "symplectic_matches_expected",
                [(form.matrix[coords.index(ca)][coords.index(cb)], catalog.expr(text))
                 for (ca, cb), text in cat["symplectic"].items()],
                *sampling))
            report.add(check_identities(
                "symplectic_wedge_square",
                [(pentad.symplectic_volume_ratio(form), catalog.expr(cat["symplectic_volume"]))],
                *sampling, "coefficient of the coordinate 4-volume"))
        report.add(check_identities(
            "symplectic_closed",
            [(comp, ZERO) for _, comp in pentad.symplectic_closure_components(form)],
            *sampling))
        report.add(check_identities(
            "symplectic_base_point_independent",
            [(comp, ZERO) for _, comp in pentad.symplectic_x_invariance_components(form)],
            *sampling))
    return report


def geom_suite(s: Session) -> CheckReport:
    if s.ode.order != 5:
        raise UsageError(
            f"{s.ode.name} has order 4: its moduli space carries a symplectic form, "
            "not a metric (run the pentad suite)"
        )
    report = CheckReport()
    m = s.metric
    report.extend(geom.metric_pairing_check(m, samples=s.samples, tol=s.tol, seed=s.seed))
    report.extend(geom.curvature_checks(m, seed=s.seed))
    report.extend(geom.structure_checks(m, samples=s.samples, tol=s.tol, seed=s.seed))
    if s.ode.name == "conics5":
        cf = geom.connection_forms(s.pd)
        report.extend(geom.connection_checks(cf, m, samples=s.samples, tol=s.tol, seed=s.seed))
        report.extend(geom.integrability_check(cf, m, samples=s.samples, tol=s.tol,
                                               seed=s.seed))
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
    report.extend(so3.trace_checks_symbolic(G, samples=s.samples, tol=s.tol, seed=s.seed))
    report.extend(so3.g_identities(G, seed=s.seed))
    report.extend(so3.expansion_check(G, s.metric, seed=s.seed))
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
    points = None
    if point is not None:
        base = dict(point)
        points = [base] + radon._aux_points(base)

    report.extend(radon.conic_checks(seed=seed))
    report.extend(radon.integration_cross_checks(s.ode, builtin("gn5"), seed=seed))
    cfg = radon.RadonConfig(f=parse(f_texts[0]), x_a=span[0], x_b=span[1])
    report.extend(radon.numerics_checks(cfg, jet=points[0] if points else None, seed=seed))
    report.extend(radon.system_checks(G, s.metric, f_texts=f_texts, interval=span,
                                      points=points, seed=seed))
    return report


_SUITES = {
    "pentad": ("frame functions, recurrence identities, coframe", pentad_suite),
    "geom": ("metric, curvature, structure checks, connection", geom_suite),
    "so3": ("structure tensor identities and operator expansion", so3_suite),
    "radon": ("integral transform vs the operator pair", radon_suite),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="odegeom",
        description="Reconstruct and verify the geometry carried by the moduli "
                    "space of a 4th/5th-order ODE.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--ode", default="conics5",
                       help=f"builtin name ({', '.join(builtin_names())}) or an "
                            "ODE definition file")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
        p.add_argument("--tol", type=float, default=DEFAULT_REL_TOL)
        p.add_argument("--json", action="store_true", help="emit the report as JSON")

    for name, (help_text, _) in _SUITES.items():
        p = sub.add_parser(name, help=help_text)
        common(p)
        if name == "geom":
            p.add_argument("--point", help="evaluate curvature at y=..,p=..,q=..,r=..,s=..")
        if name == "radon":
            p.add_argument("--f", help="test function in x and y (default: 1, x, y, x*y)")
            p.add_argument("--interval", nargs=2, type=float, metavar=("A", "B"))
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
        session = Session(resolve_ode(args.ode), args.samples, args.tol, args.seed)
        extra_lines: List[str] = []

        if args.command == "pentad":
            report = pentad_suite(session)
        elif args.command == "geom":
            report = geom_suite(session)
            if getattr(args, "point", None):
                cv = geom.curvature(session.metric, _parse_point(args.point))
                extra_lines.append(f"scalar curvature at point: {cv.scalar:.12g}")
                extra_lines.append("metric at point:")
                for row in cv.g:
                    extra_lines.append("  " + "  ".join(f"{v: .6e}" for v in row))
        elif args.command == "so3":
            report = so3_suite(session)
        elif args.command == "radon":
            point = _parse_point(args.point) if getattr(args, "point", None) else None
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
    except (UsageError, JetError, ParseError, ExprError, PentadError,
            geom.GeomError, so3.So3Error, radon.RadonError) as exc:
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
