import itertools
from fractions import Fraction

import numpy as np
import pytest

from odegeom import cli, so3
from odegeom.expr import DEFAULT_REL_TOL, DEFAULT_SAMPLES, DEFAULT_SEED
from odegeom.geom import sample_points
from odegeom.jet import builtin
from odegeom.so3 import (
    So3Error,
    _K_PAIRING,
    _frac_inv,
    _frame_contractions,
    _spinor_frame,
    build_G,
    expansion_check,
    frame_constant_checks,
    g_identities,
    hor_operator,
    mu_lambda,
    spinor_frame_data,
    trace_checks_symbolic,
)


def _all_pass(checks):
    bad = [(c.name, c.max_residual, c.notes) for c in checks if c.status != "pass"]
    assert not bad, f"failing checks: {bad}"


def test_spinor_pairing_is_frame_pairing():
    khat, _, _ = spinor_frame_data()
    expected = {(0, 4): 1, (1, 3): -4, (2, 2): 6, (3, 1): -4, (4, 0): 1}
    for i in range(5):
        for j in range(5):
            assert khat[i][j] == expected.get((i, j), 0)


def test_structure_tensor_is_sparse_and_rational():
    _, _, ghat = spinor_frame_data()
    nonzero = {
        (i, j, k): ghat[i][j][k]
        for i in range(5)
        for j in range(5)
        for k in range(5)
        if ghat[i][j][k] != 0
    }
    # every nonzero component sits on i+j+k = 6 (0-based) and is rational
    assert all(i + j + k == 6 for (i, j, k) in nonzero)
    assert all(isinstance(v, Fraction) for v in nonzero.values())
    assert ghat[0][2][4] == 1 and ghat[2][2][2] == -6


def _dense_six_epsilon_contraction(frame):
    """The structure tensor before symmetrisation, summed over all 64 sign
    patterns of the six eps pairings (A,E)(B,F)(G,P)(H,Q)(C,R)(D,S)."""
    patterns = list(itertools.product(((0, 1, Fraction(1)), (1, 0, Fraction(-1))), repeat=6))
    ghat = [[[Fraction(0)] * 5 for _ in range(5)] for _ in range(5)]
    for i, j, k in itertools.product(range(5), repeat=3):
        total = Fraction(0)
        for pat in patterns:
            (A, E, s1), (B, F, s2), (G, P, s3), (H, Q, s4), (C, R, s5), (D, S, s6) = pat
            vi = frame[i].get((A, B, C, D), Fraction(0))
            vj = frame[j].get((E, F, G, H), Fraction(0))
            vk = frame[k].get((P, Q, R, S), Fraction(0))
            total += s1 * s2 * s3 * s4 * s5 * s6 * vi * vj * vk
        ghat[i][j][k] = total
    return ghat


def test_sparse_contraction_matches_dense_oracle():
    _, ghat_raw, _ = spinor_frame_data()
    dense = _dense_six_epsilon_contraction(_spinor_frame())
    assert ghat_raw == dense
    assert all(isinstance(v, Fraction) for blk in ghat_raw for row in blk for v in row)


def _sym4(vectors):
    """Symmetrised product of four 2-component spinors by the definition:
    the sum over all 24 permutations, times 1/4!, as a map from index tuples
    to the nonzero Fractions."""
    out = {}
    for idx in itertools.product((0, 1), repeat=4):
        total = Fraction(0)
        for perm in itertools.permutations(range(4)):
            term = Fraction(1)
            for slot, which in enumerate(perm):
                term *= vectors[which][idx[slot]]
            total += term
        if total:
            out[idx] = total / 24
    return out


def _basis_spinors_by_definition():
    o_hi, i_hi = so3._raise_idx(so3._O_LO), so3._raise_idx(so3._I_LO)
    e_lo = [_sym4([so3._O_LO] * m + [so3._I_LO] * (4 - m)) for m in range(5)]
    f_hi = [_sym4([o_hi] * m + [i_hi] * (4 - m)) for m in range(5)]
    return e_lo, f_hi


def test_closed_form_basis_spinors_match_the_definition(monkeypatch):
    assert so3._basis_spinors() == _basis_spinors_by_definition()
    data = spinor_frame_data()
    monkeypatch.setattr(so3, "_basis_spinors", _basis_spinors_by_definition)
    assert so3._spinor_frame_data() == data


def test_coordinate_components_are_built_on_first_use():
    session = cli.Session(builtin("conics5"), DEFAULT_SAMPLES, DEFAULT_REL_TOL, DEFAULT_SEED)
    report = cli.radon_suite(session)
    assert report.passed()
    G = session.G
    # the radon suite reads only ghat_np and lower_at
    assert "coord_lower" not in G.__dict__
    table = G.coord_lower
    assert G.__dict__["coord_lower"] is table


def test_requires_conics5(pd_gn5, metric_gn5):
    with pytest.raises(So3Error):
        build_G(pd_gn5, metric_gn5)


def test_frame_constants(gtensor):
    _all_pass(frame_constant_checks(gtensor))


def _dense_frame_contractions(gh, kinv):
    """The contractions of `frame_constant_checks` over every index tuple:
    the oracle of the sums over the nonzero entries of kinv."""
    n = range(5)
    trace = [sum(kinv[i][j] * gh[i][j][c] for i in n for j in n) for c in n]
    quadratic = [[sum(gh[e][f][a] * gh[e2][f2][b] * kinv[e][e2] * kinv[f][f2]
                      for e, f, e2, f2 in itertools.product(n, repeat=4)) for b in n] for a in n]
    full = sum(gh[a][b][c] * gh[a2][b2][c2] * kinv[a][a2] * kinv[b][b2] * kinv[c][c2]
               for a, b, c, a2, b2, c2 in itertools.product(n, repeat=6))
    return trace, quadratic, full


def test_sparse_frame_contractions_match_the_dense_loops(gtensor):
    k = [[_K_PAIRING.get((i, j), Fraction(0)) for j in range(5)] for i in range(5)]
    kinv = _frac_inv(k)
    assert sum(w != 0 for row in kinv for w in row) == 5  # anti-diagonal
    trace, quadratic, full = _frame_contractions(gtensor.ghat, kinv)
    assert (trace, quadratic, full) == _dense_frame_contractions(gtensor.ghat, kinv)
    assert trace == [0] * 5 and full == Fraction(35, 12)
    assert quadratic == [[Fraction(7, 12) * w for w in row] for row in k]
    assert all(type(v) is Fraction for v in trace + [full] + sum(quadratic, []))


def test_trace_free_coordinates(gtensor):
    _all_pass(trace_checks_symbolic(gtensor))


def test_identities(gtensor):
    _all_pass(g_identities(gtensor))


def test_expansion_rows(gtensor, metric_conics5):
    _all_pass(expansion_check(gtensor, metric_conics5))


def _geometry_at(gtensor, metric, pt):
    _, _, g_inv, gamma = metric.christoffel_at([pt])
    return g_inv[0], gamma[0], gtensor.lower_at([pt])[0]


def test_operator_on_constant(gtensor, metric_conics5, conics5):
    pt = sample_points(conics5, 1, seed=9)[0]
    hv = hor_operator(np.zeros(5), np.zeros((5, 5)), *_geometry_at(gtensor, metric_conics5, pt))
    assert np.max(np.abs(hv.covector)) == 0.0
    assert hv.laplacian == 0.0


def test_operator_on_coordinate_is_harmonic(gtensor, metric_conics5, conics5):
    # F = y: the laplacian reduces to -g^ab Gamma^y_ab, which vanishes
    pt = sample_points(conics5, 1, seed=10)[0]
    grad = np.zeros(5)
    grad[0] = 1.0
    hv = hor_operator(grad, np.zeros((5, 5)), *_geometry_at(gtensor, metric_conics5, pt))
    assert abs(hv.laplacian) < 1e-9


def test_mu_lambda_values():
    assert mu_lambda(0.0, -60.0) == pytest.approx(-6.0)
    assert mu_lambda(1.0, -60.0) == pytest.approx(0.0)
    assert mu_lambda(0.0, 0.0) == 0.0
