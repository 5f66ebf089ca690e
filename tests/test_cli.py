import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from odegeom import catalog, expr, geom, jet, pentad, so3
from odegeom.cli import Session, geom_suite, main, pentad_suite, radon_suite, run, so3_suite
from odegeom.expr import (
    DEFAULT_REL_TOL,
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    ZERO,
    Const,
    Evaluator,
    equiv_all,
)
from odegeom.jet import builtin, load_ode_file
from odegeom.report import CheckReport

JSON_KEYS = {"name", "status", "max_residual", "tolerance", "samples", "seed", "notes"}


def test_pentad_gn5_named_check():
    code, text = run(["pentad", "--ode", "gn5"])
    assert code == 0
    assert "P_equals_r_1_3" in text


def test_pentad_json_schema():
    code, text = run(["pentad", "--ode", "gn5", "--json"])
    assert code == 0
    rows = json.loads(text)
    assert isinstance(rows, list) and rows
    for row in rows:
        assert set(row) == JSON_KEYS
        assert row["status"] in ("pass", "fail", "error")
    names = [r["name"] for r in rows]
    assert names == sorted(names)


def test_json_byte_identical():
    _, t1 = run(["pentad", "--ode", "gn5", "--json"])
    _, t2 = run(["pentad", "--ode", "gn5", "--json"])
    assert t1 == t2


def test_unknown_ode_exit_2():
    code, text = run(["geom", "--ode", "unknown"])
    assert code == 2
    assert "unknown" in text


def test_geom_rejects_order4():
    code, text = run(["geom", "--ode", "conics4"])
    assert code == 2


def test_so3_rejects_gn5():
    code, text = run(["so3", "--ode", "gn5"])
    assert code == 2


def test_radon_rejects_gn5():
    code, text = run(["radon", "--ode", "gn5"])
    assert code == 2


def test_malformed_f_exit_2():
    code, text = run(["radon", "--ode", "conics5", "--f", "q +"])
    assert code == 2


def test_radon_point_requires_all_coords():
    code, text = run(["radon", "--ode", "conics5", "--point", "y=1,p=0.3"])
    assert code == 2


_JET = "y=1,p=0.3,q=2,r=0.1,s=-0.2"


def test_radon_point_nan_exit_2():
    code, text = run(["radon", "--ode", "conics5", "--point", _JET.replace("y=1", "y=nan")])
    assert code == 2
    assert text.startswith("error:") and "--point" in text and "coordinate y" in text


def test_radon_point_inf_exit_2():
    code, text = run(["radon", "--ode", "conics5", "--point", _JET.replace("q=2", "q=inf")])
    assert code == 2
    assert text.startswith("error:") and "--point" in text and "coordinate q" in text


def test_radon_point_overflowing_jet_exit_2():
    # finite, but the jet conditions overflow: no SVD traceback
    code, text = run(["radon", "--ode", "conics5", "--point", _JET.replace("y=1", "y=1e308")])
    assert code == 2
    assert text.startswith("error:") and "not finite" in text


def test_geom_point_nan_exit_2():
    # the conics5 metric does not read y, so only the parser can catch this
    code, text = run(["geom", "--ode", "conics5", "--point", _JET.replace("y=1", "y=nan")])
    assert code == 2
    assert text.startswith("error:") and "--point" in text and "coordinate y" in text


@pytest.mark.parametrize("flag, value", [
    ("--tol", "nan"), ("--tol", "-1"), ("--tol", "0"), ("--tol", "inf"), ("--tol", "abc"),
    ("--samples", "0"), ("--samples", "-3"), ("--samples", "1.5"),
])
def test_tol_and_samples_validated_at_parse_time(capsys, flag, value):
    code, text = run(["pentad", "--ode", "gn5", flag, value])
    assert (code, text) == (2, "")
    err = capsys.readouterr().err
    assert f"argument {flag}:" in err
    # not the late errors of the suites ("no ... ansatz matches", "equiv needs n >= 1")
    assert "ansatz" not in err and "equiv" not in err


@pytest.mark.parametrize("bounds", [("0", "inf"), ("nan", "1"), ("-inf", "1")])
def test_radon_interval_must_be_finite(capsys, bounds):
    code, text = run(["radon", "--ode", "conics5", "--interval", *bounds])
    assert (code, text) == (2, "")
    assert "argument --interval: must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("bounds", [("-1e-3", "0.5"), ("-5e-1", "5e-1")])
def test_radon_interval_takes_negative_bounds_with_exponent(bounds):
    code, text = run(["radon", "--ode", "conics5", "--interval", *bounds])
    assert code == 0, text


def test_bad_seed_overrides_are_recorded():
    code, text = run(["pentad", "--ode", "gn5", "--seed", "7", "--json"])
    assert code == 0
    rows = json.loads(text)
    assert all(r["seed"] == 7 for r in rows)


def test_samples_and_tol_overrides():
    code, text = run(["pentad", "--ode", "gn5", "--samples", "10", "--tol", "1e-7", "--json"])
    assert code == 0
    rows = json.loads(text)
    sampled = [r for r in rows if r["name"].startswith("residual_identity")]
    assert sampled and all(r["samples"] == 10 and r["tolerance"] == 1e-7 for r in sampled)


def test_ode_file(tmp_path):
    path = tmp_path / "mine.ode"
    path.write_text("name = mine\norder = 5\nrhs = -(40/9)*r^3/q^2 + 5*r*s/q\n")
    code, text = run(["pentad", "--ode", str(path)])
    assert code == 0
    # the file holds the conics5 equation, so it resolves to that built-in
    assert "residual_identity_1" in text


def test_ode_file_selects_builtin_by_equation(tmp_path):
    # a file named conics5 that holds the gn5 equation gets the gn5 catalogue
    path = tmp_path / "c.ode"
    path.write_text("name = conics5\norder = 5\nrhs = (5/3)*s^2/r\n")
    code, text = run(["pentad", "--ode", str(path)])
    assert code == 0
    assert "P_equals_r_1_3" in text and "P_equals_q_1_2" not in text
    # the conics5 equation with its terms reordered, under another name
    path.write_text("name = mine\norder = 5\nrhs = 5*r*s/q - (40/9)*r^3/q^2\n")
    code, text = run(["pentad", "--ode", str(path)])
    assert code == 0
    assert "P_equals_q_1_2" in text
    # a built-in's name on an equation that is no built-in
    path.write_text("name = conics5\norder = 5\nrhs = -(41/9)*r^3/q^2 + 5*r*s/q\n")
    code, text = run(["pentad", "--ode", str(path)])
    assert code == 2
    assert text.startswith("error:") and "conics5" in text


def test_failing_check_exit_1(tmp_path):
    # an equation without the structure: identities fail, exit code 1
    path = tmp_path / "bad.ode"
    path.write_text("name = bad\norder = 5\nrhs = -(41/9)*r^3/q^2 + 5*r*s/q\n")
    code, text = run(["pentad", "--ode", str(path)])
    assert code == 1
    assert "fail" in text


def test_ode_file_fractional_powers_sample_positive_bases(tmp_path):
    # s and p are bases of fractional powers, so they are sampled positive:
    # the equations are well formed and fail certification (exit 1), no error
    path = tmp_path / "frac.ode"
    for rhs in ("s^(1/2)", "(5/3)*s^2/r + p^(1/2)"):
        path.write_text(f"name = frac\norder = 5\nrhs = {rhs}\n")
        code, text = run(["pentad", "--ode", str(path), "--json"])
        assert code == 1, text
        assert "error:" not in text
        failed = {row["name"] for row in json.loads(text) if row["status"] == "fail"}
        assert failed == {"residual_identity_1", "residual_identity_2", "residual_identity_3"}


_FIRST_FIT_POINT = ("{'p': -0.35233447033367526, 'q': 0.7262737608867529, "
                    "'r': 1.4764017095597806, 's': -0.8551274266649145, "
                    "'x': 0.0179410021533446, 'y': -0.2686221661748289}")


@pytest.mark.parametrize("rhs, base, exponent", [
    ("s^2/r + (p - y)^(1/2)", "-0.08371230415884634", "0.5"),
    ("(5/3)*s^2/r + (p^3)^(1/3)", "-0.04373865280923517", "0.3333333333333333"),
], ids=["sqrt-of-p-minus-y", "cube-root-of-p-cubed"])
def test_fractional_power_of_a_compound_base_exit_2(tmp_path, rhs, base, exponent):
    # no single variable is made positive for such a base, so the exponent
    # fit meets a negative one; the text is the error, never a traceback
    path = tmp_path / "compound.ode"
    path.write_text(f"name = compound\norder = 5\nrhs = {rhs}\n")
    assert run(["pentad", "--ode", str(path)]) == (
        2, f"error: negative base {base} under fractional exponent {exponent} "
           f"at point {_FIRST_FIT_POINT}")


def test_pentad_at_one_sample_exit_0():
    # one sample point runs every evaluation on Python floats
    code, text = run(["pentad", "--ode", "conics5", "--samples", "1", "--json"])
    assert code == 0, text
    rows = json.loads(text)
    assert rows and all(r["samples"] == 1 and r["status"] == "pass" for r in rows)


def _user_pentad_report(tmp_path):
    path = tmp_path / "user.ode"
    path.write_text("name = user\norder = 5\nrhs = -(7/3)*r^3/q^2 + 5*r*s/q + (2/3)*s^2/r\n")
    ode = load_ode_file(path)
    return ode, pentad_suite(Session(ode, 50, 1e-9, 0x5EED))


def test_failing_residual_records_carry_their_worst_point(tmp_path):
    ode, report = _user_pentad_report(tmp_path)
    failing = [c for c in report.checks if c.status == "fail"]
    assert {c.name for c in failing} == {"residual_identity_1", "residual_identity_2",
                                         "residual_identity_3"}
    for c in failing:
        assert set(c.worst_point) == set(ode.jet_vars)
        for name, lo, hi in ode.domain.intervals:
            assert lo <= c.worst_point[name] <= hi, (c.name, name)


# the exact or boolean rows of a conics5 report: no worst point
_ROWS_WITHOUT_A_POINT = {
    "gtensor_frame_pairing_consistent", "gtensor_raw_symmetry", "gtensor_trace_free_exact",
    "gtensor_quadratic_trace_7_12", "gtensor_norm_35_12", "signature_split_3_2",
    "conic_degenerate_jet_rejected",
}


def test_worst_points_are_never_rendered(tmp_path):
    _, user = _user_pentad_report(tmp_path)
    assert all(c.worst_point for c in user.checks)
    s = Session(builtin("conics5"), DEFAULT_SAMPLES, DEFAULT_REL_TOL, DEFAULT_SEED)
    every_suite = pentad_suite(s)
    for suite in (geom_suite, so3_suite, radon_suite):
        every_suite.extend(suite(s).checks)
    assert {c.name for c in every_suite.checks if not c.worst_point} == _ROWS_WITHOUT_A_POINT
    for report in (user, every_suite):
        bare = CheckReport([dataclasses.replace(c, worst_point={}) for c in report.checks])
        assert bare.checks == report.checks
        assert report.to_json() == bare.to_json()
        assert report.render_table() == bare.render_table()


def test_oversized_constant_exit_2(tmp_path):
    code, text = run(["radon", "--ode", "conics5", "--f", "(10^400)^(1/2)*x"])
    assert code == 2
    assert text.startswith("error:")
    path = tmp_path / "big.ode"
    path.write_text("name = big\norder = 5\nrhs = (10^400)^(1/2)*r^3/q^2 + 5*r*s/q\n")
    code, text = run(["pentad", "--ode", str(path)])
    assert code == 2
    assert text.startswith("error:")


def test_radon_f_overflowing_power_exit_2():
    code, text = run(["radon", "--ode", "conics5", "--f", "(x + 2)^100000"])
    assert code == 2
    assert text.startswith("error:")


def test_radon_branch_error_names_first_bad_node():
    code, text = run(["radon", "--ode", "conics5", "--interval", "-5", "5"])
    assert code == 2
    assert "x=3.224864142447385" in text


@pytest.mark.parametrize("point, message", [
    ("y=1e308,p=0,q=1,r=0,s=0", "jet conditions are not finite (jet too large or not a number)"),
    ("y=0,p=0,q=0,r=0,s=0", "degenerate jet: conic conditions have rank 3, null space is not a line"),
    ("y=1,p=0,q=0,r=1,s=0", "vertical tangent at the base point"),
    ("y=1,p=0.3,q=2,r=0.1,s=9.5",
     "branch leaves the reals at x=0.7848537614020786 (discriminant -1.56e-04)"),
], ids=["overflow", "zero-jet", "vertical-tangent", "branch-leaves-reals"])
def test_radon_point_jet_errors_exit_2(capsys, point, message):
    assert main(["radon", "--ode", "conics5", "--point", point]) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", f"error: {message}\n")


def test_radon_f_nonfinite_intermediate_exit_2():
    code, text = run(["radon", "--ode", "conics5", "--f", "x + 1/(1 + 1/(x - x))"])
    assert code == 2
    assert text.startswith("error:")
    assert "np.float64" not in text


def test_radon_f_negative_fractional_base_exit_2():
    code, text = run(["radon", "--ode", "conics5", "--f", "(x - 0.9)^(1/2)"])
    assert code == 2
    assert "{'x': -0.7993680985819488, 'y': 1.3874343484851892}" in text


def _catalogue_pairs(pd) -> dict:
    """The expression pairs of a report's catalogue rows, by row name."""
    cat = catalog.for_ode(pd.ode.name)
    pairs = {catalog.p_check_name(pd.ode.name): [(pd.P, catalog.expr(cat["P"]))],
             "Q_matches_expected": [(pd.Q, catalog.expr(cat["Q"]))]}
    if pd.ode.name == "conics5":
        cf, conn = geom.connection_forms(pd), cat["connection"]
        for name in ("delta", "gamma", "alpha"):
            pairs[f"connection_{name}_expected"] = [(getattr(cf, name), catalog.expr(conn[name]))]
        pairs["connection_psi_expected"] = [(comp, catalog.expr(text))
                                            for comp, text in zip(cf.psi, conn["psi"])]
        pairs["chi_spans_dy_dp_only"] = [(comp, ZERO) for comp in cf.chi[2:]]
    return pairs


@pytest.mark.parametrize("seed, samples", [(DEFAULT_SEED, DEFAULT_SAMPLES), (7, 9),
                                           (DEFAULT_SEED, 1)])
@pytest.mark.parametrize("ode_name", ["conics5", "gn5", "conics4"])
def test_sampled_rows_match_the_identity_test_bit_for_bit(ode_name, seed, samples):
    """Each catalogue row is the result of `equiv_all` on its pairs at the
    same samples, and each residual row the largest |e| / (1 + |e|) of its
    equation's values at the points, in plain Python floats: the same
    status, tolerance, samples, seed and max_residual, bit for bit."""
    s = Session(builtin(ode_name), samples, DEFAULT_REL_TOL, seed)
    report = pentad_suite(s)
    if ode_name == "conics5":
        report.extend(geom_suite(s).checks)
    rows = {c.name: c for c in report.checks}
    pairs = _catalogue_pairs(s.pd)
    assert len(pairs) == (7 if ode_name == "conics5" else 2)
    for name, row in pairs.items():
        res = equiv_all(row, s.ode.domain, n=samples, tol=DEFAULT_REL_TOL, seed=seed)
        got = rows[name]
        assert (got.status, got.tolerance, got.samples, got.seed, got.max_residual) == (
            "pass" if res.passed else "fail", res.tolerance, res.samples, res.seed,
            res.max_residual), name
    for name, equation in zip(s.pd.residual_names, s.pd.values.equations):
        worst = max(abs(v) / (1.0 + abs(v)) for v in equation.tolist())
        got = rows[name]
        assert (got.status, got.tolerance, got.samples, got.seed, got.max_residual) == (
            "pass" if worst <= DEFAULT_REL_TOL else "fail", DEFAULT_REL_TOL, samples, seed,
            worst), name


def _count_stages(monkeypatch):
    counts = {"solve_pentad": 0, "build_G": 0, "second_order": 0,
              "frame_builds": 0, "certifications": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(pentad, "solve_pentad", counted("solve_pentad", pentad.solve_pentad))
    monkeypatch.setattr(so3, "build_G", counted("build_G", so3.build_G))
    # the residual certification: one series pass at the solve's points
    monkeypatch.setattr(pentad, "frame_values",
                        counted("certifications", pentad.frame_values))
    eval_points = Evaluator.eval_points

    def counted_eval_points(self, points, tangents=None, second_order=False, series=False):
        counts["second_order"] += second_order
        return eval_points(self, points, tangents, second_order, series)

    monkeypatch.setattr(Evaluator, "eval_points", counted_eval_points)
    frame_rows = pentad._frame_rows

    def counted_frame_rows(P, Q, n, derive):
        # the symbolic frame with the solved Q; the Q solve builds rows at
        # the constants 0 and 1, the certification rows of Taylor numbers
        counts["frame_builds"] += isinstance(Q, expr.Expr) and not isinstance(Q, Const)
        return frame_rows(P, Q, n, derive)

    monkeypatch.setattr(pentad, "_frame_rows", counted_frame_rows)
    return counts


def test_all_runs_each_stage_once(monkeypatch):
    counts = _count_stages(monkeypatch)
    code, _ = run(["all", "--ode", "conics5", "--json"])
    assert code == 0
    # one second-order pass, over the first 20 seeded points: geom's
    # curvature rows and the so3 identities read slices of it
    assert counts == {"solve_pentad": 1, "build_G": 1, "second_order": 1,
                      "frame_builds": 1, "certifications": 1}


@pytest.mark.parametrize("argv", [
    "all --ode conics5 --json",
    "all --ode gn5 --json",
    "all --ode conics4 --json",
    "all --ode conics5 --samples 1 --json",
    "all --ode conics5 --samples 9 --json",
    "all --ode conics5 --samples 100 --json",
    "all --ode conics5 --seed 7 --json",
    "geom --ode gn5 --point y=1,p=0.5,q=1.5,r=0.7,s=0.3",
    "radon --ode conics5 --point y=1.098864,p=0.061431,q=2.096677,r=0.053546,s=-0.058008 --json",
])
def test_slices_of_the_seeded_stream_give_the_bytes_of_passes_of_their_own(monkeypatch, argv):
    """A report is the same bytes whether the readers at the seed's points
    read slices of the metric's stream or each run a pass of its own on
    copies of its points."""
    stored = run(argv.split())

    def on_copies(method):
        def fresh(self, points):
            return method(self, [dict(pt) for pt in points])
        return fresh

    for name in ("frame_at", "derivatives_at"):
        monkeypatch.setattr(geom.MetricField, name, on_copies(getattr(geom.MetricField, name)))
    assert run(argv.split()) == stored


def test_geom_point_reuses_the_session(monkeypatch):
    counts = _count_stages(monkeypatch)
    code, text = run(["geom", "--ode", "gn5", "--point", "y=1,p=0.5,q=1.5,r=0.7,s=0.3"])
    assert code == 0
    assert "scalar curvature at point" in text
    # the checks' 20 points, then the point
    assert counts == {"solve_pentad": 1, "build_G": 0, "second_order": 2,
                      "frame_builds": 1, "certifications": 0}


@pytest.mark.parametrize("command, code, frame_builds, certifications", [
    ("pentad", 1, 0, 1),
    ("radon", 0, 1, 0),
])
def test_the_symbolic_frame_and_the_certification_are_built_only_when_read(
        monkeypatch, tmp_path, command, code, frame_builds, certifications):
    """An order-5 pentad report certifies on numbers and reads no row as an
    expression; a radon report reads the frame through the metric and
    certifies nothing."""
    path = tmp_path / "user.ode"
    path.write_text("name = user\norder = 5\nrhs = -(7/3)*r^3/q^2 + 5*r*s/q + (2/3)*s^2/r\n")
    counts = _count_stages(monkeypatch)
    ode = str(path) if command == "pentad" else "conics5"
    assert run([command, "--ode", ode, "--json"])[0] == code
    assert (counts["frame_builds"], counts["certifications"]) == (frame_builds, certifications)


def test_no_subcommand_builds_a_symbolic_metric_derivative_table(
        monkeypatch, metric_conics5, metric_gn5, pd_conics4, symbolic_g_lower, symbolic_two_form):
    """Every metric value a report uses comes from the forward-mode passes
    over the coframe program: no report differentiates a metric entry, by
    `diff` or `total_derivative`, nor compiles one or a partial of one for
    evaluation.  The order-4 pentad report takes its two-form from the same
    passes: it builds no entry of the form or partial of one, and runs no
    plain pass over the rows."""
    differentiated, compiled, plain = [], [], []
    diff, total_derivative = expr.diff, jet.total_derivative

    def recorded_diff(e, v):
        differentiated.append(e)
        return diff(e, v)

    def recorded_total_derivative(e, ode):
        differentiated.append(e)
        return total_derivative(e, ode)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "odegeom":
            continue
        for attr, fn, recorded in (("diff", diff, recorded_diff),
                                   ("total_derivative", total_derivative,
                                    recorded_total_derivative)):
            if getattr(module, attr, None) is fn:
                monkeypatch.setattr(module, attr, recorded)
    init, eval_points = Evaluator.__init__, Evaluator.eval_points

    def recorded_init(self, exprs):
        init(self, exprs)
        compiled.extend(self.exprs)

    def recorded_eval_points(self, points, tangents=None, second_order=False, series=False):
        if tangents is None:
            plain.extend(self.exprs)
        return eval_points(self, points, tangents, second_order, series)

    monkeypatch.setattr(Evaluator, "__init__", recorded_init)
    monkeypatch.setattr(Evaluator, "eval_points", recorded_eval_points)
    for argv in (["all", "--ode", "conics5"], ["all", "--ode", "gn5"],
                 ["geom", "--ode", "gn5", "--point", "y=1,p=0.5,q=1.5,r=0.7,s=0.3"]):
        assert run(argv)[0] == 0
    assert differentiated and compiled
    for m in (metric_conics5, metric_gn5):
        # nodes are interned: an entry or a partial built in a report is
        # this very node.  g_03 and g_04 are the coframe entries C[4][3] and
        # C[4][4], which the coframe program compiles.
        entries = {e for row in symbolic_g_lower(m) for e in row if not isinstance(e, Const)}
        partials = {diff(e, c) for e in entries for c in m.coords}
        partials = {p for p in partials if not isinstance(p, Const)}
        coframe = {e for row in m.pd.coframe_rows for e in row}
        assert not (entries - coframe | partials) & set(compiled)
        assert not (entries | partials) & set(differentiated)

    # every node the order-4 report builds or looks up passes `_interned`
    built = []
    interned = expr._interned

    def recorded_interned(cls, key, children, **fields):
        node = interned(cls, key, children, **fields)
        built.append(node)
        return node

    monkeypatch.setattr(expr, "_interned", recorded_interned)
    for log in (differentiated, compiled, plain):
        log.clear()
    assert run(["pentad", "--ode", "conics4"])[0] == 0
    monkeypatch.setattr(expr, "_interned", interned)
    assert built and compiled and plain
    form = symbolic_two_form(pd_conics4)
    entries = {e for row in form.matrix for e in row if not isinstance(e, Const)}
    partials = {diff(e, c) for e in entries for c in ("x",) + pd_conics4.ode.coords}
    partials = {p for p in partials if not isinstance(p, Const)}
    # omega_yr is C[3][3], an entry of the coframe program
    coframe = {e for row in pd_conics4.coframe_rows for e in row}
    assert entries & coframe and not (entries - coframe | partials) & set(built)
    assert not (entries | partials) & set(differentiated)
    rows = {e for row in pd_conics4.lower for e in row if not isinstance(e, Const)}
    assert rows and not rows & set(plain)


# (file name, rhs, parent-code residuals of killing_prolongation and
# first_integral_gyy): the constant -41/9 breaks the conics structure, and
# x*r puts x into the coframe, so d_x g enters both rows
_GEOM_CONTROLS = (
    ("minus41.ode", "-(41/9)*r^3/q^2 + 5*r*s/q", 0.9893316662000922, 0.8699012772643892),
    ("xdep.ode", "-(40/9)*r^3/q^2 + 5*r*s/q + x*r", 0.976745638767162, 0.976745638767162),
)


@pytest.mark.parametrize("filename, rhs, killing, gyy", _GEOM_CONTROLS,
                         ids=[c[0] for c in _GEOM_CONTROLS])
def test_geom_negative_controls_fail_the_flow_rows(tmp_path, filename, rhs, killing, gyy):
    path = tmp_path / filename
    path.write_text(f"name = control\norder = 5\nrhs = {rhs}\n")
    code, text = run(["geom", "--ode", str(path), "--json"])
    assert code == 1
    rows = {row["name"]: row for row in json.loads(text)}
    assert sorted(n for n, row in rows.items() if row["status"] != "pass") == [
        "first_integral_gyy", "killing_prolongation"]
    assert rows["killing_prolongation"]["max_residual"] == pytest.approx(killing, rel=1e-9)
    assert rows["first_integral_gyy"]["max_residual"] == pytest.approx(gyy, rel=1e-9)


def test_every_input_error_is_an_input_error():
    # the command line catches InputError alone, and exits 2 on one
    from odegeom import geom, radon
    from odegeom.cli import UsageError
    from odegeom.expr import ExprError, InputError, ParseError
    from odegeom.jet import JetError
    from odegeom.pentad import PentadError
    for cls in (UsageError, JetError, ParseError, ExprError, PentadError, geom.GeomError,
                so3.So3Error, radon.RadonError):
        assert issubclass(cls, InputError), cls.__name__


def test_radon_error_at_a_jet_the_user_did_not_give_names_it(capsys):
    # the point passes; the jet carried along its conic for the
    # reparametrisation check does not
    assert main(["radon", "--ode", "conics5", "--point", "y=1,p=0.3,q=0.05,r=0.5,s=-3"]) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", (
        "error: recovered conic does not reproduce the jet (gap 1.58e-09) at the jet carried "
        "along its conic to x=0.1 {'y': 1.0302923694398298, 'p': 0.3057255141567353, "
        "'q': 0.044004253209064606, 'r': -0.5118862111731556, 's': 0.7642554674472568}\n"))


_LAPACK_FREE_REPORT = """
import sys
from odegeom import cli
code, _ = cli.run(["radon", "--ode", "conics5", "--json"])
print(code, sorted(m for m in sys.modules
                   if m.split(".")[0] == "scipy" or m.startswith("numpy.polynomial")))
"""


def _fresh_interpreter(code: str, **env: str) -> str:
    """Stdout of `code` run in a new interpreter on `src/`, with
    OPENBLAS_NUM_THREADS taken from `env` alone."""
    src = Path(__file__).resolve().parents[1] / "src"
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    return subprocess.run(
        [sys.executable, "-c", code],
        env=dict(base, PYTHONPATH=str(src), **env),
        capture_output=True, text=True, timeout=300, check=True,
    ).stdout


def test_radon_report_imports_neither_numpy_polynomial_nor_scipy():
    # the Gauss-Legendre rule is computed without numpy's leggauss; a fresh
    # interpreter, as this one may have loaded scipy for the oracle tests
    assert _fresh_interpreter(_LAPACK_FREE_REPORT) == "0 []\n"


_BLAS_THREADS = """
import os, sys
import odegeom
print("numpy" in sys.modules)
from odegeom import cli
tasks = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else 1
print(os.environ["OPENBLAS_NUM_THREADS"], tasks)
"""


def test_cli_runs_blas_on_one_thread_unless_the_user_chose():
    # the package loads no numpy, so the entry module's default comes first
    assert _fresh_interpreter(_BLAS_THREADS) == "False\n1 1\n"
    preset = _fresh_interpreter(_BLAS_THREADS, OPENBLAS_NUM_THREADS="2").split()
    assert preset[:2] == ["False", "2"]
    # only the command line sets it: a library import keeps the environment
    library = 'import os, odegeom.expr; print(os.environ.get("OPENBLAS_NUM_THREADS"))'
    assert _fresh_interpreter(library) == "None\n"
