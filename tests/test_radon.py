import decimal
import math
import random
import warnings
from decimal import Decimal

import numpy as np
import pytest

from odegeom import cli, radon
from odegeom.expr import DEFAULT_REL_TOL, DEFAULT_SAMPLES, DEFAULT_SEED, Evaluator, diff, parse, var
from odegeom.jet import builtin
from odegeom.radon import (
    COORDS,
    RadonConfig,
    RadonError,
    _aux_points,
    _condition_rows,
    _conic_fwd,
    _distinct_jets,
    _fd_combine,
    _fd_derivatives,
    _fd_stencil,
    _gauss,
    _signed_minors,
    conic_checks,
    conic_from_jet,
    conic_jet,
    default_test_jets,
    integrate_ode,
    integration_cross_checks,
    numerics_checks,
    radon_derivatives,
    radon_F,
    radon_F_batch,
    system_checks,
    verify_system,
)


def _all_pass(checks):
    bad = [(c.name, c.max_residual) for c in checks if c.status != "pass"]
    assert not bad, f"failing checks: {bad}"


def test_circle_jet():
    # y = sqrt(1 - x^2) at 0: 4-jet (1, 0, -1, 0, -3)
    conic, branch = conic_from_jet({"y": 1.0, "p": 0.0, "q": -1.0, "r": 0.0, "s": -3.0}, 0.0)
    v = np.array(conic.vector)
    ref = np.array([1.0, 0.0, 1.0, 0.0, 0.0, -1.0])
    ref /= np.linalg.norm(ref)
    assert min(np.max(np.abs(v - ref)), np.max(np.abs(v + ref))) < 1e-12
    at_base = conic_jet(conic, branch, 0.0)
    assert (at_base["y"], at_base["q"]) == (pytest.approx(1.0), pytest.approx(-1.0))
    assert conic_jet(conic, branch, 0.6)["y"] == pytest.approx(0.8)


def test_parabola_jet():
    conic, branch = conic_from_jet({"y": 0.0, "p": 0.0, "q": 2.0, "r": 0.0, "s": 0.0}, 0.0)
    at_one = conic_jet(conic, branch, 1.0)
    assert at_one["y"] == pytest.approx(1.0) and at_one["q"] == pytest.approx(2.0)


def test_degenerate_jet_rejected():
    with pytest.raises(RadonError):
        conic_from_jet({"y": 0.0, "p": 0.0, "q": 0.0, "r": 0.0, "s": 0.0}, 0.0)
    with pytest.raises(RadonError):
        conic_from_jet({"y": 1.0, "p": 0.0, "q": 0.0, "r": 1.0, "s": 0.0}, 0.0)


@pytest.mark.parametrize("coord, value", [("y", math.nan), ("q", math.inf), ("y", 1e308)])
def test_conic_from_nonfinite_jet_rejected(coord, value):
    jet = dict(_CONIC_JET, **{coord: value})
    with pytest.raises(RadonError, match="not finite"):
        conic_from_jet(jet, 0.0)


@pytest.mark.parametrize("jet", [
    {"y": 1.0, "p": 0.0, "q": -1.0, "r": 0.0, "s": -3.0},
    {"y": 0.0, "p": 0.0, "q": 2.0, "r": 0.0, "s": 0.0},
], ids=["circle", "parabola"])
def test_float_minors_are_the_conic(jet):
    # plain-zero float entries make whole sub-determinants skipped terms
    minors = np.array(_signed_minors(_condition_rows(0.0, *(jet[c] for c in COORDS))), dtype=float)
    v = np.array(conic_from_jet(jet, 0.0)[0].vector)
    assert np.max(np.abs(minors / np.linalg.norm(minors) - v * np.sign(minors @ v))) <= 1e-15


def test_float_minors_of_the_zero_jet_vanish():
    assert _signed_minors(_condition_rows(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)) == [0] * 6


def _same_values(a, b) -> bool:
    """Equal arrays, NaN where NaN, with the signs of their zeros."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    number = ~np.isnan(a)
    return (np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a[number]), np.signbit(b[number])))


@pytest.mark.parametrize("jet", [
    {"y": 1.0, "p": 0.0, "q": -1.0, "r": 0.0, "s": -3.0},
    {"y": 0.0, "p": 0.0, "q": 2.0, "r": 0.0, "s": 0.0},
    {"y": 0.0, "p": 0.0, "q": 0.0, "r": 0.0, "s": 0.0},
    {"y": -0.0, "p": 0.0, "q": math.inf, "r": 0.0, "s": 0.5},
    {"y": 1.0, "p": math.nan, "q": 2.0, "r": -0.0, "s": 0.0},
], ids=["circle", "parabola", "zero", "infinite", "nan"])
@pytest.mark.parametrize("x0", [0.0, 0.1])
def test_a_lone_jet_on_floats_is_its_row_of_a_batch(jet, x0):
    # the float pass of a lone jet skips the batch's zero entries only, never
    # a coordinate that is 0.0 (0.0 times an infinite minor is NaN)
    lone = _conic_fwd([jet], x0, 0)
    batch = _conic_fwd([jet, _CONIC_JET], x0, 0)
    assert all(_same_values(k.val, kb.val[:1]) for k, kb in zip(lone[0], batch[0], strict=True))
    assert _same_values(lone[1], batch[1][:1]) and _same_values(lone[2], batch[2][:1])
    assert [ok[0] for ok, _ in lone[3]] == [ok[0] for ok, _ in batch[3]]
    # the error is the message of the first check the jet fails
    failed = [(message, message_batch) for (ok, message), (_, message_batch)
              in zip(lone[3], batch[3]) if not ok[0]]
    if failed:
        assert failed[0][0](0) == failed[0][1](0)


def test_branch_leaves_reals():
    conic, branch = conic_from_jet({"y": 1.0, "p": 0.0, "q": -1.0, "r": 0.0, "s": -3.0}, 0.0)
    with pytest.raises(RadonError, match="branch leaves the reals at x=2.0"):
        conic_jet(conic, branch, 2.0)


def test_integrate_zero_length(conics5):
    jet = {"y": 1.0, "p": 0.3, "q": 2.0, "r": 0.1, "s": -0.2}
    assert integrate_ode(conics5, jet, 0.0, 0.0) == jet


@pytest.mark.parametrize("coord, value", [("y", math.nan), ("q", math.inf)])
def test_integrate_nonfinite_start_jet(conics5, monkeypatch, coord, value):
    def no_rhs(*args, **kwargs):
        raise AssertionError("the rhs must not be evaluated")

    monkeypatch.setattr(radon, "Evaluator", no_rhs)
    jet = dict(_CONIC_JET, **{coord: value})
    with pytest.raises(RadonError, match=f"coordinate {coord} = {value!r} is not finite"):
        integrate_ode(conics5, jet, 0.0, 0.3)


def test_integrate_matches_conic(conics5, gn5):
    _all_pass(integration_cross_checks(conics5, gn5))


def _gn5_closed(x):
    # y = 1 + x^2 + (1+x)^(3/2) solves the gn5 equation; singular at x = -1
    return {
        "y": 1 + x * x + (1 + x) ** 1.5,
        "p": 2 * x + 1.5 * (1 + x) ** 0.5,
        "q": 2 + 0.75 * (1 + x) ** (-0.5),
        "r": -0.375 * (1 + x) ** (-1.5),
        "s": 0.5625 * (1 + x) ** (-2.5),
    }


_CONIC_JET = {"y": 1.0, "p": 0.3, "q": 2.0, "r": 0.1, "s": -0.2}


@pytest.mark.parametrize(
    "name, jet0, x1, tol",
    [
        ("conics5", _CONIC_JET, 0.3, 1e-11),
        ("gn5", _gn5_closed(0.0), 0.5, 1e-11),
        ("conics5", _CONIC_JET, 1e-5, 1e-12),
        ("conics5", _CONIC_JET, -1e-5, 1e-12),
        ("gn5", _gn5_closed(0.0), -0.5, 1e-6),
        ("gn5", _gn5_closed(0.0), -0.5, 1e-8),
        ("gn5", _gn5_closed(0.0), -0.5, 1e-10),
        # takes a step right after a rejected one, where growth is capped at 1
        ("conics5", _CONIC_JET, 2.0, 1e-6),
    ],
)
def test_integrate_ode_matches_solve_ivp_bitwise(name, jet0, x1, tol):
    # the port of RK45 must give solve_ivp's results bit for bit
    integrate = pytest.importorskip("scipy.integrate")
    ode = builtin(name)
    ev = Evaluator([ode.rhs])

    def rhs(x, u):
        point = dict(zip(ode.coords, u))
        point["x"] = x
        return list(u[1:]) + [ev.eval_points([point])[0, 0]]

    sol = integrate.solve_ivp(
        rhs, (0.0, x1), [jet0[c] for c in ode.coords],
        method="RK45", rtol=tol, atol=tol * 1e-2,
    )
    assert sol.success
    got = integrate_ode(ode, jet0, 0.0, x1, tol=tol)
    assert list(got) == list(ode.coords)
    for c, want in zip(ode.coords, sol.y[:, -1]):
        assert type(got[c]) is np.float64
        assert got[c] == want, c


def test_integrate_ode_step_underflow(gn5):
    with pytest.raises(RadonError) as err:
        integrate_ode(gn5, _gn5_closed(0.0), 0.0, -1.5, tol=1e-11)
    assert str(err.value) == (
        "jet integration failed: Required step size is less than spacing between numbers."
    )


def test_radon_constant_f_on_parabola():
    # y'' = 2 along y = x^2, so the integrand is the constant 2^(1/3)
    cfg = RadonConfig(f=parse("1"), x_a=-1.0, x_b=1.0)
    jet = {"y": 0.0, "p": 0.0, "q": 2.0, "r": 0.0, "s": 0.0}
    assert radon_F(cfg, jet) == pytest.approx(2.0 * 2.0 ** (1.0 / 3.0), rel=1e-12)


def test_radon_odd_f_on_parabola():
    cfg = RadonConfig(f=parse("x"), x_a=-1.0, x_b=1.0)
    jet = {"y": 0.0, "p": 0.0, "q": 2.0, "r": 0.0, "s": 0.0}
    assert abs(radon_F(cfg, jet)) < 1e-14


def test_radon_positive_for_positive_q():
    cfg = RadonConfig(f=parse("1"), x_a=-0.5, x_b=0.5)
    jet = {"y": 1.0, "p": 0.3, "q": 2.0, "r": 0.1, "s": -0.2}
    assert radon_F(cfg, jet) > 0.0


def test_config_validation():
    with pytest.raises(RadonError):
        RadonConfig(f=parse("1"), x_a=1.0, x_b=-1.0)
    with pytest.raises(RadonError):
        RadonConfig(f=parse("q"))
    with pytest.raises(RadonError):
        RadonConfig(f=parse("1"), h=0.0)


def test_conic_suite():
    _all_pass(conic_checks())


def test_numerics_suite():
    _all_pass(numerics_checks(RadonConfig(f=parse("x*y"))))


def test_verify_system_single_f(gtensor):
    cfg = RadonConfig(f=parse("y"))
    [ver] = verify_system([cfg], default_test_jets(), gtensor)
    assert (ver.residuals < 1e-4).all()
    assert ver.lam == pytest.approx(1.0 / 3.0, abs=1e-4)
    assert ver.lam_spread < 1e-3
    assert ver.relation_gap < 1e-3


def test_verify_system_accepts_single_point(gtensor):
    cfg = RadonConfig(f=parse("1"))
    [ver] = verify_system([cfg], default_test_jets()[0], gtensor)
    assert len(ver.jets) >= 2 and ver.residuals.shape == (len(ver.jets),)
    assert (ver.residuals < 1e-4).all()


def test_system_suite(gtensor):
    _all_pass(system_checks(gtensor))


def _per_node_radon_F(cfg, jet, order=None):
    """Reference quadrature on its own conic and branch, one Gauss node at a
    time: the conic as the SVD null vector of the jet conditions, at each
    node the root of the branch's orientation by the stable quadratic
    formula, q by implicit differentiation, f on Python floats and a left to
    right sum.  Returns F and the quadrature of |f q^(1/3)|, the scale of
    the rounding in the sum."""
    rows = np.array(_condition_rows(cfg.x0, *(jet[c] for c in COORDS)), dtype=float)
    a, b, c, d, e, f = np.linalg.svd(rows)[2][-1].tolist()
    branch = math.copysign(1.0, 2 * b * cfg.x0 + 2 * c * jet["y"] + 2 * e)
    nodes, weights = _gauss(order or cfg.order)
    half = 0.5 * (cfg.x_b - cfg.x_a)
    mid = 0.5 * (cfg.x_a + cfg.x_b)
    ev = Evaluator([cfg.f])
    total = size = 0.0
    for t, w in zip(nodes.tolist(), weights.tolist()):
        x = mid + half * t
        B, C = 2 * b * x + 2 * e, a * x * x + 2 * d * x + f
        qf = -(B + math.copysign(math.sqrt(B * B - 4 * c * C), B)) / 2
        roots = [C / qf] + ([qf / c] if c else [])
        yv = next(r for r in roots if math.copysign(1.0, B + 2 * c * r) == branch)
        fy = B + 2 * c * yv
        p = -(2 * a * x + 2 * b * yv + 2 * d) / fy
        q = -(2 * a + 4 * b * p + 2 * c * p * p) / fy
        term = w * ev.eval_points([{"x": x, "y": yv}])[0, 0] * math.copysign(abs(q) ** (1 / 3), q)
        total += term
        size += abs(term)
    return half * total, half * size


_ORACLE_JETS = [j for base in default_test_jets() for j in [base] + _aux_points(base)]


@pytest.mark.parametrize("text", ["1", "x", "y", "x*y"])
@pytest.mark.parametrize("order", [None, 120])
def test_radon_F_matches_per_node_quadrature(text, order):
    # the two paths round differently: measured at most 1.7e-15 of the size
    cfg = RadonConfig(f=parse(text))
    for jet in _ORACLE_JETS:
        ref, size = _per_node_radon_F(cfg, jet, order=order)
        assert abs(radon_F(cfg, jet, order=order) - ref) <= 1e-14 * size


def test_radon_F_on_the_parabola_matches_per_node_quadrature():
    # the parabola has c = 0: its branch is the root of a linear equation;
    # measured at most 1.8e-16 of the size
    jet = {"y": 0.0, "p": 0.0, "q": 2.0, "r": 0.0, "s": 0.0}
    for text in ("1", "x*y"):
        cfg = RadonConfig(f=parse(text), x_a=-1.0, x_b=1.0)
        ref, size = _per_node_radon_F(cfg, jet)
        assert abs(radon_F(cfg, jet) - ref) <= 1e-14 * size


# a jet from the box the benchmark draws its radon --point jets from
_BOX_JET = {"y": 1.139205, "p": 0.021584, "q": 2.090531, "r": -0.104452, "s": 0.275081}


@pytest.mark.parametrize("text", ["1", "x", "y", "x*y"])
def test_radon_F_batch_matches_radon_F_over_fd_stencils(text, fd_gradient):
    # numerics_checks takes its finite differences from these batches
    cfg = RadonConfig(f=parse(text))
    for h in (cfg.h, cfg.h / 2):
        stencil = _fd_stencil(_BOX_JET, h)
        got = radon_F_batch(cfg, stencil)
        assert got == [radon_F(cfg, jet) for jet in stencil]
        assert np.array_equal(_fd_combine(got, h),
                              fd_gradient(lambda X: radon_F(cfg, X), _BOX_JET, h))


def test_radon_F_batch_takes_the_parabola_among_other_jets():
    # the parabola (c = 0) takes the root of a linear equation, the others not
    cfg = RadonConfig(f=parse("x*y"), x_a=-1.0, x_b=1.0)
    jets = [default_test_jets()[0], {"y": 0.0, "p": 0.0, "q": 2.0, "r": 0.0, "s": 0.0},
            default_test_jets()[1]]
    assert radon_F_batch(cfg, jets) == [radon_F(cfg, jet) for jet in jets]


def test_radon_F_batch_names_the_irregular_jet_as_radon_F_does():
    cfg = RadonConfig(f=parse("1"), x_a=-5.0, x_b=5.0)
    good, bad = default_test_jets()[0], _ORACLE_JETS[3]
    with pytest.raises(RadonError) as alone:
        radon_F(cfg, bad)
    with pytest.raises(RadonError) as batched:
        radon_F_batch(cfg, [good, bad, good])
    assert str(batched.value) == str(alone.value)
    assert str(alone.value).startswith("branch leaves the reals at x=")


@pytest.mark.parametrize("bad, message", [
    ({"y": 0.0, "p": 0.0, "q": 0.0, "r": 0.0, "s": 0.0}, "degenerate jet: conic conditions have rank"),
    (dict(_BOX_JET, q=math.nan), "jet conditions are not finite"),
])
def test_stacked_conic_solve_names_the_bad_jet_as_conic_from_jet_does(bad, message):
    with pytest.raises(RadonError) as alone:
        conic_from_jet(bad, 0.0)
    with pytest.raises(RadonError) as stacked:
        radon_F_batch(RadonConfig(f=parse("x")), [_BOX_JET, bad, _BOX_JET])
    assert str(stacked.value) == str(alone.value)
    assert str(alone.value).startswith(message)


def _per_stencil_fd(cfg, jet):
    """g1, g2 and H of `numerics_checks` with one quadrature batch per
    20-jet stencil: the oracle of the distinct-jet evaluation."""
    def fd_gradient(X, step):
        return _fd_combine(radon.radon_F_batch(cfg, _fd_stencil(X, step)), step)

    h = cfg.h
    return (fd_gradient(jet, h), fd_gradient(jet, h / 2),
            _fd_combine([fd_gradient(Xs, h) for Xs in _fd_stencil(jet, h)], h).T)


def _fd_stencils(jet, h):
    """The 22 stencils of `numerics_checks`: the gradient at steps h and
    h/2, and the gradient at step h around each jet of the first."""
    return [_fd_stencil(jet, h), _fd_stencil(jet, h / 2)] + [
        _fd_stencil(Xs, h) for Xs in _fd_stencil(jet, h)]


# the --point jets of benchmark seeds 1 and 8 (perfbench/workloads.py)
_SEED_1_JET = {"y": 1.098864, "p": 0.061431, "q": 2.096677, "r": 0.053546, "s": -0.058008}
_SEED_8_JET = {"y": 0.971079, "p": 0.203945, "q": 1.759784, "r": 0.298319, "s": 0.398853}


def test_radon_suite_makes_no_svd(monkeypatch, conics5):
    # the conics come from the signed minors; an SVD may only word the rank
    # of a degenerate jet
    def no_svd(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    session = cli.Session(conics5, DEFAULT_SAMPLES, DEFAULT_REL_TOL, DEFAULT_SEED)
    for point in (None, _SEED_1_JET):
        report = cli.radon_suite(session, point=point)
        assert report.checks and report.passed()


@pytest.mark.parametrize("text", ["1", "x", "y", "x*y"])
@pytest.mark.parametrize("jet", [_BOX_JET, default_test_jets()[0], _SEED_1_JET, _SEED_8_JET])
def test_distinct_fd_jets_match_one_batch_per_stencil(monkeypatch, text, jet):
    cfg = RadonConfig(f=parse(text))
    want = _per_stencil_fd(cfg, jet)
    for got, ref in zip(_fd_derivatives(cfg, jet), want):
        assert np.array_equal(got, ref)
    records = numerics_checks(cfg, jet)
    monkeypatch.setattr(radon, "_fd_derivatives", lambda cfg, jet: want)
    assert records == numerics_checks(cfg, jet)
    assert len(records) == 4


def test_numerics_checks_evaluates_each_distinct_fd_jet_once(monkeypatch):
    cfg = RadonConfig(f=parse("x*y"))
    batch, batches = radon.radon_F_batch, []

    def recording(cfg, jets, order=None):
        batches.append([tuple(jet[c] for c in COORDS) for jet in jets])
        return batch(cfg, jets, order)

    monkeypatch.setattr(radon, "radon_F_batch", recording)
    numerics_checks(cfg, _BOX_JET)
    # F at the jet, at twice the order and at the shifted base point
    assert [len(jets) for jets in batches[:3]] == [1, 1, 1]
    fd = [key for jets in batches[3:] for key in jets]
    assert len(fd) == len(set(fd))
    assert set(fd) == {tuple(jet[c] for c in COORDS)
                       for jets in _fd_stencils(_BOX_JET, cfg.h) for jet in jets}
    # up to 230 distinct jets run in two batches (228 at this jet)
    assert max(len(jets) for jets in batches) <= 115
    assert sum(len(jets) for jets in batches) <= 230  # 443 with one batch per stencil
    assert len(batches) - 3 <= 2


def test_distinct_jets_keep_signed_zeros_apart():
    zero, minus_zero = dict(_CONIC_JET, y=0.0), dict(_CONIC_JET, y=-0.0)
    at, distinct = _distinct_jets([[zero, minus_zero], [zero, _CONIC_JET]])
    assert at == [[0, 1], [0, 2]]
    assert [math.copysign(1.0, key[0]) for key in distinct[:2]] == [1.0, -1.0]


def test_fd_error_is_that_of_the_first_stencil_with_a_bad_jet():
    # s + h crosses the value where the branch leaves the reals at x = 0.8,
    # so the jet passes and some shifted jets do not
    cfg = RadonConfig(f=parse("1"))
    jet = dict(_CONIC_JET, s=9.147913463361752)
    radon_F(cfg, jet)
    with pytest.raises(RadonError) as alone:
        _per_stencil_fd(cfg, jet)
    with pytest.raises(RadonError) as distinct:
        _fd_derivatives(cfg, jet)
    # the error names the first stencil jet that fails alone
    stencils = [_fd_stencil(jet, cfg.h), _fd_stencil(jet, cfg.h / 2)]
    stencils += [_fd_stencil(X, cfg.h) for X in _fd_stencil(jet, cfg.h)]
    bad = next(X for stencil in stencils for X in stencil if _fails(cfg, X))
    assert str(distinct.value) == f"{alone.value} at the finite-difference stencil jet {bad}"
    assert str(alone.value).startswith("branch leaves the reals at x=")


def _fails(cfg, jet) -> bool:
    try:
        radon_F(cfg, jet)
    except RadonError:
        return True
    return False


def test_a_companion_jet_error_names_the_companion(gtensor):
    # the jet passes, its first companion (y and q scaled) does not
    cfg = RadonConfig(f=parse("1"))
    jet = {"y": 1.0, "p": 0.3, "q": 0.05, "r": 0.5, "s": -3.0}
    radon_derivatives(cfg, jet)
    companion = _aux_points(jet)[0]
    with pytest.raises(RadonError) as alone:
        radon_derivatives(cfg, companion)
    assert str(alone.value).startswith("recovered conic does not reproduce the jet")
    for given in (jet, [jet]):
        with pytest.raises(RadonError) as named:
            verify_system([cfg], given, gtensor)
        assert str(named.value) == f"{alone.value} at the companion jet {companion}"
    # a jet the caller gave keeps the error it raises alone
    with pytest.raises(RadonError) as own:
        verify_system([cfg], [default_test_jets()[0], companion], gtensor)
    assert str(own.value) == str(alone.value)


def test_fd_error_does_not_depend_on_the_batches(monkeypatch):
    # two bad jets new in one stencil, whose distinct jets straddle two
    # batches; the batch names its last bad jet, as a conic error of a later
    # jet comes before a branch error of an earlier one
    cfg = RadonConfig(f=parse("x"))
    at, distinct = _distinct_jets(_fd_stencils(_BOX_JET, cfg.h))
    seen, news = set(), []
    for idx in at:
        news.append(sorted(set(idx) - seen))
        seen.update(idx)
    new = next(new for new in news if new and new[0] // 20 != new[-1] // 20)
    bad = {distinct[new[0]], distinct[new[-1]]}
    batch = radon.radon_F_batch

    def failing(cfg, jets, order=None):
        keys = [tuple(jet[c] for c in COORDS) for jet in jets]
        named = [key for key in keys if key in bad]
        if named:
            raise RadonError(f"bad jet {named[-1]}")
        return batch(cfg, jets, order)

    monkeypatch.setattr(radon, "radon_F_batch", failing)
    with pytest.raises(RadonError) as alone:
        _per_stencil_fd(cfg, _BOX_JET)
    with pytest.raises(RadonError) as distinct_jets:
        _fd_derivatives(cfg, _BOX_JET)
    assert str(distinct_jets.value) == str(alone.value) == f"bad jet {distinct[new[-1]]}"


@pytest.mark.parametrize("bad", [
    dict(_BOX_JET, y=1e308), dict(_BOX_JET, p=1e154), dict(_BOX_JET, y=1e200, p=1e100),
    {"y": 1.0, "p": 0.0, "q": 0.0, "r": 1.0, "s": 0.0}, dict(_BOX_JET, q=0.0),
])
def test_array_conic_solve_raises_no_numpy_warning(bad):
    with pytest.raises(RadonError) as alone:
        conic_from_jet(bad, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RadonError) as stacked:
            radon_F_batch(RadonConfig(f=parse("x")), [_BOX_JET, bad])
    assert str(stacked.value) == str(alone.value)


_RULE_ORDERS = (1, 2, 3, 5, 20, 60, 61, 120)


def _gauss_reference(n):
    """Roots of P_n ascending and their weights 2 / ((1 - x^2) P_n'(x)^2) to
    40 digits: Newton's method on the recurrence in decimal arithmetic."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50

        def legendre(x):
            p0, p1 = Decimal(1), x
            for k in range(1, n):
                p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
            return p1, n * (x * p1 - p0) / (x * x - 1)

        nodes, weights = [], []
        for k in range(n, 0, -1):
            x = Decimal(math.cos(math.pi * (k - 0.25) / (n + 0.5)))
            step = Decimal(1)
            while abs(step) > Decimal("1e-45"):
                p, dp = legendre(x)
                step = p / dp
                x -= step
            _, dp = legendre(x)
            nodes.append(x)
            weights.append(2 / ((1 - x * x) * dp * dp))
    assert all(a < b for a, b in zip(nodes, nodes[1:]))  # n distinct roots
    return nodes, weights


@pytest.mark.parametrize("n", _RULE_ORDERS)
def test_gauss_rule_matches_a_40_digit_reference(n):
    nodes, weights = _gauss(n)
    ref_nodes, ref_weights = _gauss_reference(n)
    assert len(nodes) == len(weights) == n
    for x, w, rx, rw in zip(nodes.tolist(), weights.tolist(), ref_nodes, ref_weights):
        assert abs(Decimal(x) - rx) <= Decimal("1e-16")
        assert abs((Decimal(w) - rw) / rw) <= Decimal("1e-12")


@pytest.mark.parametrize("n", _RULE_ORDERS + (121,))  # Newton alone misses 0 at n = 121
def test_gauss_rule_is_exactly_symmetric(n):
    nodes, weights = _gauss(n)
    assert np.array_equal(nodes, -nodes[::-1])
    assert np.array_equal(weights, weights[::-1])
    assert (np.diff(nodes) > 0).all()
    if n % 2:
        assert nodes[n // 2] == 0.0
    assert not nodes.flags.writeable and not weights.flags.writeable


@pytest.mark.parametrize("n", _RULE_ORDERS)
def test_gauss_rule_agrees_with_leggauss(n):
    from numpy.polynomial.legendre import leggauss

    nodes, weights = _gauss(n)
    ref_nodes, ref_weights = leggauss(n)
    assert np.max(np.abs(nodes - ref_nodes)) <= 2e-16
    assert np.max(np.abs(weights / ref_weights - 1)) <= 3e-11


def test_radon_suite_makes_no_eigenvalue_solve(monkeypatch, conics5):
    def no_eigen_solve(*args, **kwargs):
        raise AssertionError("the radon suite must not call eigvalsh")

    _gauss.cache_clear()  # rebuild the rules under the patch
    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigen_solve)
    session = cli.Session(conics5, DEFAULT_SAMPLES, DEFAULT_REL_TOL, DEFAULT_SEED)
    report = cli.radon_suite(session)
    assert report.checks and report.passed()


def _central_hessian(Ffun, X, h):
    """Second central differences of F: the finite-difference oracle of the
    exact Hessian."""
    def at(**delta):
        Xp = dict(X)
        for k, v in delta.items():
            Xp[k] += v
        return Ffun(Xp)

    F0 = Ffun(X)
    H = np.zeros((5, 5))
    for i, ci in enumerate(COORDS):
        H[i, i] = (at(**{ci: h}) - 2 * F0 + at(**{ci: -h})) / (h * h)
        for j in range(i + 1, 5):
            cj = COORDS[j]
            H[i, j] = H[j, i] = (
                at(**{ci: h, cj: h}) - at(**{ci: h, cj: -h})
                - at(**{ci: -h, cj: h}) + at(**{ci: -h, cj: -h})
            ) / (4 * h * h)
    return H


@pytest.mark.parametrize("text", ["1", "x", "y", "x*y"])
def test_exact_derivatives_match_quadrature_and_finite_differences(text, fd_gradient):
    cfg = RadonConfig(f=parse(text))

    def Ffun(X):
        return radon_F(cfg, X)

    for jet in _ORACLE_JETS:
        F, grad, hess = radon_derivatives(cfg, jet)
        assert F == radon_F(cfg, jet)  # the value part of the same pass
        g_ref = fd_gradient(Ffun, jet, cfg.h)
        assert np.linalg.norm(grad - g_ref) <= 1e-8 * np.linalg.norm(g_ref)
        scale = np.max(np.abs(hess))
        assert np.max(np.abs(hess - hess.T)) <= 1e-14 * scale
        assert np.max(np.abs(hess - _central_hessian(Ffun, jet, cfg.h))) <= 1e-4 * scale


def test_exact_derivatives_follow_the_base_point():
    # the same conic, its jet carried to another base point: same transform
    cfg = RadonConfig(f=parse("x*y"))
    jet = default_test_jets()[0]
    conic, branch = conic_from_jet(jet, 0.0)
    moved = RadonConfig(f=cfg.f, x0=0.1)
    F, _, _ = radon_derivatives(moved, conic_jet(conic, branch, 0.1))
    assert F == pytest.approx(radon_F(cfg, jet), rel=1e-12)


@pytest.mark.parametrize("text", ["1", "x", "y", "x*y"])
@pytest.mark.parametrize("jet", [_BOX_JET, _SEED_1_JET, _SEED_8_JET] + _ORACLE_JETS)
def test_exact_hessian_matches_the_richardson_fd_hessian(text, jet):
    # at the default step h = 1e-4 rounding limits the FD Hessian to about
    # 4e-6; at h = 1e-2 the worst case measures 6.0e-10
    cfg = RadonConfig(f=parse(text), h=1e-2)
    _, _, hess = radon_derivatives(cfg, jet)
    _, _, H = _fd_derivatives(cfg, jet)
    assert np.max(np.abs(hess - H)) <= 1e-8 * np.max(np.abs(hess))


@pytest.mark.parametrize("coord, value", [("y", math.nan), ("q", math.inf), ("y", 1e308),
                                          ("r", 1e200)])
def test_exact_derivatives_reject_nonfinite_minors(coord, value):
    # finite conditions whose minors overflow (r = 1e200) are told apart
    cfg = RadonConfig(f=parse("x"))
    jet = dict(_CONIC_JET, **{coord: value})
    with pytest.raises(RadonError) as alone:
        radon_F(cfg, jet)
    with pytest.raises(RadonError) as exact:
        radon_derivatives(cfg, jet)
    assert str(exact.value) == str(alone.value)
    assert str(alone.value) == ("conic minors are not finite at the jet" if coord == "r" else
                                "jet conditions are not finite (jet too large or not a number)")


def test_exact_derivatives_name_the_first_bad_node():
    cfg = RadonConfig(f=parse("1"), x_a=-5.0, x_b=5.0)
    # the quadrature names the same node and, scaled to the unit conic, the
    # same discriminant
    message = r"branch leaves the reals at x=3\.224864142447385 \(discriminant -8\.97e-03\)"
    with pytest.raises(RadonError, match=message):
        radon_F(cfg, default_test_jets()[1])
    with pytest.raises(RadonError, match=message):
        radon_derivatives(cfg, default_test_jets()[1])


def test_verify_system_at_random_jets(gtensor):
    # the box the benchmark draws its radon --point jets from
    box = (("y", 0.8, 1.3), ("p", -0.2, 0.3), ("q", 1.7, 2.4),
           ("r", -0.2, 0.3), ("s", -0.2, 0.4))
    rng = random.Random(20261018)
    cfgs = [RadonConfig(f=parse(text)) for text in ("1", "x", "y", "x*y")]
    for _ in range(10):
        jet = {name: rng.uniform(lo, hi) for name, lo, hi in box}
        for ver in verify_system(cfgs, jet, gtensor):
            assert (ver.residuals < 1e-12).all()
            assert ver.lam == pytest.approx(1.0 / 3.0, abs=1e-12)
            assert ver.relation_gap <= 1e-9


def test_verify_system_does_not_use_the_quadrature(gtensor, monkeypatch):
    def no_quadrature(*args, **kwargs):
        raise AssertionError("verify_system must not call radon_F")

    monkeypatch.setattr(radon, "radon_F", no_quadrature)
    [ver] = verify_system([RadonConfig(f=parse("x*y"))], default_test_jets(), gtensor)
    assert (ver.residuals < 1e-12).all()


def test_forward_mode_minors_match_the_symbolic_minors():
    # the same generic expansion on variables, differentiated symbolically
    symbolic = _signed_minors(_condition_rows(*(var(n) for n in ("x",) + COORDS)))
    first = [[diff(minor, c) for c in COORDS] for minor in symbolic]
    table = Evaluator(symbolic + [e for row in first for e in row]
                      + [diff(e, c) for row in first for e in row for c in COORDS])
    fwd, _, _, _ = _conic_fwd(_ORACLE_JETS, 0.0)
    for j, jet in enumerate(_ORACLE_JETS):
        vals = table.eval_points([dict(jet, x=0.0)])[:, 0]
        want = (vals[:6], vals[6:36].reshape(6, 5), vals[36:].reshape(6, 5, 5))
        got = (np.array([k.val[j] for k in fwd]), np.array([k.grad[:, j] for k in fwd]),
               np.array([k.hess[..., j] for k in fwd]))
        for g, w in zip(got, want):
            assert np.max(np.abs(g - w)) <= 1e-13 * np.max(np.abs(w))


def test_joint_verify_system_matches_each_function_alone(gtensor):
    cfgs = [RadonConfig(f=parse(text)) for text in ("1", "x", "y", "x*y")]
    joint = verify_system(cfgs, default_test_jets(), gtensor)
    for cfg, ver in zip(cfgs, joint):
        [alone] = verify_system([cfg], default_test_jets(), gtensor)
        assert (ver.f_text, ver.jets, ver.lam, ver.lam_spread, ver.mu, ver.c_offset,
                ver.relation_gap) == (alone.f_text, alone.jets, alone.lam, alone.lam_spread,
                                      alone.mu, alone.c_offset, alone.relation_gap)
        for name in ("values", "gradients", "covectors", "laplacians", "lams", "residuals"):
            assert (getattr(ver, name) == getattr(alone, name)).all(), name


def test_verify_system_applies_the_operator_at_each_point(gtensor, operator_at_point):
    # the arrays over the points against each jet alone: F and its
    # derivatives bitwise, the operator pair against the per-point reference
    cfg = RadonConfig(f=parse("x*y"))
    [ver] = verify_system([cfg], default_test_jets(), gtensor)
    fr = gtensor.m.frame_at(ver.jets)
    G_lower = gtensor.lower(fr.C)
    for k, jet in enumerate(ver.jets):
        F, grad, hess = radon_derivatives(cfg, jet)
        assert ver.values[k] == F and np.array_equal(ver.gradients[k], grad)
        v, lap = operator_at_point(grad, hess, fr.g_inv[k], fr.gamma[k], G_lower[k])
        assert np.max(np.abs(ver.covectors[k] - v)) <= 1e-14 * np.max(np.abs(v))
        assert abs(ver.laplacians[k] - lap) <= 1e-14 * abs(lap)
        lam = (v @ grad) / (grad @ grad)
        assert ver.lams[k] == pytest.approx(lam, rel=1e-13)
        assert ver.residuals[k] < 1e-13


_SMALL = "gradient of F too small for a least-squares eigenvalue"
_VANISHED = "operator value vanished; cannot form a relative residual"


def _zeroed_system(monkeypatch, cfgs, zero_grad, zero_cov):
    """Inside verify_system, set to 0 the gradients at the (test function,
    point) pairs of zero_grad and the covectors at those of zero_cov."""
    transform, operator = radon._transform_derivatives, radon.hor_operator

    def gradients_zeroed(cfg, branch):
        i = cfgs.index(cfg)
        return [(F, grad * 0.0 if (i, j) in zero_grad else grad, hess)
                for j, (F, grad, hess) in enumerate(transform(cfg, branch))]

    calls = []

    def covectors_zeroed(*args):
        covector, laplacian = operator(*args)
        for i, j in zero_cov:
            if i == len(calls):
                covector[j] = 0.0
        calls.append(None)
        return covector, laplacian

    monkeypatch.setattr(radon, "_transform_derivatives", gradients_zeroed)
    monkeypatch.setattr(radon, "hor_operator", covectors_zeroed)


@pytest.mark.parametrize("zero_grad, zero_cov, message", [
    # (test function, point) pairs: the first pair in the loop order raises
    ({(1, 0)}, {(0, 2)}, _VANISHED),
    ({(1, 1)}, {(1, 0)}, _VANISHED),
    ({(0, 2)}, {(1, 0)}, _SMALL),
    # at one point the gradient comes first
    ({(1, 1)}, {(1, 1)}, _SMALL),
    (set(), set(), None),
])
def test_verify_system_raises_at_the_first_function_and_point(
        gtensor, monkeypatch, zero_grad, zero_cov, message):
    cfgs = [RadonConfig(f=parse(text)) for text in ("1", "y")]
    _zeroed_system(monkeypatch, cfgs, zero_grad, zero_cov)
    jets = default_test_jets()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if message is None:
            assert len(verify_system(cfgs, jets, gtensor)) == 2
        else:
            with pytest.raises(RadonError) as err:
                verify_system(cfgs, jets, gtensor)
            # the error names the first pair, in the loop order
            i, j = min(zero_grad | zero_cov)
            assert str(err.value) == (f"{message} for the test function f = {('1', 'y')[i]} "
                                      f"at the given point {jets[j]}")
            assert err.value.jet == j


@pytest.mark.parametrize("zero_grad, zero_cov, message, j, role", [
    ({(0, 1)}, set(), _SMALL, 1, "companion jet"),
    (set(), {(1, 0)}, _VANISHED, 0, "given point"),
])
def test_verify_system_names_the_role_of_the_jets_of_a_lone_point(
        gtensor, monkeypatch, zero_grad, zero_cov, message, j, role):
    cfgs = [RadonConfig(f=parse(text)) for text in ("1", "y")]
    _zeroed_system(monkeypatch, cfgs, zero_grad, zero_cov)
    jet = default_test_jets()[0]
    points = [jet] + radon._aux_points(jet)
    with pytest.raises(RadonError) as err:
        verify_system(cfgs, jet, gtensor)
    f = "1" if zero_grad else "y"
    assert str(err.value) == f"{message} for the test function f = {f} at the {role} {points[j]}"
    assert err.value.jet == j


@pytest.mark.parametrize("interval, bad", [
    ((-0.8, 0.8), dict(_CONIC_JET, y=math.nan)),
    ((-5.0, 5.0), default_test_jets()[1]),
])
def test_a_batch_names_its_bad_jet_as_that_jet_alone(gtensor, interval, bad):
    cfg = RadonConfig(f=parse("1"), x_a=interval[0], x_b=interval[1])
    good = default_test_jets()[0]
    with pytest.raises(RadonError) as alone:
        radon_derivatives(cfg, bad)
    with pytest.raises(RadonError) as batched:
        verify_system([cfg], [good, bad, good], gtensor)
    assert str(batched.value) == str(alone.value)
