import itertools
from fractions import Fraction

import numpy as np
import pytest

from odegeom import catalog, so3
from odegeom.expr import DEFAULT_SEED, evaluate
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
    trace_checks,
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
    assert spinor_frame_data.__wrapped__() == data


def test_frame_tables_made_of_integer_numerators_are_exact_fractions(monkeypatch):
    # a frame with a common denominator 3 scales khat by 9 and ghat by 27
    frame = so3._spinor_frame()
    thirds = [{idx: v / 3 for idx, v in vec.items()} for vec in frame]
    khat, ghat_raw, ghat = spinor_frame_data()
    monkeypatch.setattr(so3, "_spinor_frame", lambda: thirds)
    k3, raw3, sym3 = spinor_frame_data.__wrapped__()
    assert k3 == [[v / 9 for v in row] for row in khat]
    assert raw3 == [[[v / 27 for v in row] for row in blk] for blk in ghat_raw]
    assert sym3 == [[[v / 27 for v in row] for row in blk] for blk in ghat]
    assert raw3 == _dense_six_epsilon_contraction(thirds)


def test_raw_symmetry_fails_on_an_asymmetric_contraction(monkeypatch, pd_conics5, metric_conics5):
    khat, ghat_raw, ghat = spinor_frame_data()
    assert build_G(pd_conics5, metric_conics5).ghat_raw_symmetric
    asymmetric = [[row[:] for row in blk] for blk in ghat_raw]
    asymmetric[0][2][4] += 1
    monkeypatch.setattr(so3, "spinor_frame_data", lambda: (khat, asymmetric, ghat))
    assert not build_G(pd_conics5, metric_conics5).ghat_raw_symmetric


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


def _spinor_pairing():
    e_lo, f_hi = so3._basis_spinors()
    return [[sum((e_lo[i].get(idx, Fraction(0)) * v for idx, v in f_hi[j].items()), Fraction(0))
             for j in range(5)] for i in range(5)]


def _frac_matmul(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0))
             for j in range(len(b[0]))] for i in range(len(a))]


def test_pairing_inverse_is_exact():
    spinor = _spinor_pairing()
    assert [spinor[i][4 - i] for i in range(5)] == [1, Fraction(-1, 4), Fraction(1, 6),
                                                   Fraction(-1, 4), 1]
    frame = [[_K_PAIRING.get((i, j), Fraction(0)) for j in range(5)] for i in range(5)]
    # one entry per row and column, not symmetric: each inverts into the
    # transposed position
    monomial = [[Fraction(v) for v in row] for row in ((0, 2, 0), (0, 0, -3), (5, 0, 0))]
    for mat in (spinor, frame, monomial):
        n = len(mat)
        identity = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        inv = _frac_inv(mat)
        assert _frac_matmul(inv, mat) == identity and _frac_matmul(mat, inv) == identity
        assert all(type(v) is Fraction for row in inv for v in row)


def test_pairing_inverse_rejects_a_matrix_without_one_entry_per_row_and_column():
    frame = [[_K_PAIRING.get((i, j), Fraction(0)) for j in range(5)] for i in range(5)]
    two_in_a_row = [row[:] for row in frame]
    two_in_a_row[0][0] = Fraction(1)
    empty_row = [row[:] for row in frame]
    empty_row[2][2] = Fraction(0)
    # one entry per row, two in the last column
    shared_column = [[Fraction(0), Fraction(1)], [Fraction(0), Fraction(1)]]
    for mat in (two_in_a_row, empty_row, shared_column):
        with pytest.raises(So3Error, match="singular pairing matrix"):
            _frac_inv(mat)


def test_trace_free_coordinates(gtensor):
    _all_pass(trace_checks(gtensor))


def test_identities(gtensor):
    _all_pass(g_identities(gtensor))


def test_expansion_rows(gtensor):
    _all_pass(expansion_check(gtensor))


def _geometry_at(gtensor, points):
    """g^-1, the Christoffel symbols and G_abc at the points, leading axis
    the point."""
    _, _, g_inv, gamma = gtensor.m.christoffel_at(points)
    return g_inv, gamma, gtensor.lower_at(points)


def test_operator_on_constant(gtensor, conics5):
    geometry = _geometry_at(gtensor, conics5.domain.draw(1, 9))
    covector, laplacian = hor_operator(np.zeros((1, 5)), np.zeros((1, 5, 5)), *geometry)
    assert np.max(np.abs(covector)) == 0.0
    assert laplacian.tolist() == [0.0]


def test_operator_on_coordinate_is_harmonic(gtensor, conics5):
    # F = y: the laplacian reduces to -g^ab Gamma^y_ab, which vanishes
    grad = np.zeros((1, 5))
    grad[0, 0] = 1.0
    _, laplacian = hor_operator(grad, np.zeros((1, 5, 5)),
                                *_geometry_at(gtensor, conics5.domain.draw(1, 10)))
    assert abs(laplacian[0]) < 1e-9


def test_batched_operator_matches_the_per_point_reference(gtensor, conics5, operator_at_point):
    # 6 points, each with a 4 x 3 grid of random fields
    points = conics5.domain.draw(6, 5)
    geometry = _geometry_at(gtensor, points)
    rng = np.random.default_rng(7)
    grad = rng.standard_normal((6, 4, 3, 5))
    hess = rng.standard_normal((6, 4, 3, 5, 5))
    hess = (hess + np.swapaxes(hess, -1, -2)) / 2.0
    covector, laplacian = hor_operator(grad, hess, *geometry)
    assert covector.shape == (6, 4, 3, 5) and laplacian.shape == (6, 4, 3)
    for k, f, h in itertools.product(range(6), range(4), range(3)):
        want_v, want_lap = operator_at_point(grad[k, f, h], hess[k, f, h],
                                             *(a[k] for a in geometry))
        assert np.max(np.abs(covector[k, f, h] - want_v)) <= 1e-14 * np.max(np.abs(want_v))
        assert abs(laplacian[k, f, h] - want_lap) <= 1e-14 * abs(want_lap)

    # a point's result is bitwise the same in any batch: alone, one field
    # alone, one field over every point, and the points reversed
    def same(got, at):
        return all(np.array_equal(g, want[at]) for g, want in zip(got, (covector, laplacian)))

    for k in range(6):
        alone = [a[k:k + 1] for a in geometry]
        assert same(hor_operator(grad[k:k + 1], hess[k:k + 1], *alone), slice(k, k + 1))
        for f, h in itertools.product(range(4), range(3)):
            assert same(hor_operator(grad[k:k + 1, f, h], hess[k:k + 1, f, h], *alone),
                        (slice(k, k + 1), f, h))
    assert same(hor_operator(grad[:, 1, 2], hess[:, 1, 2], *geometry), (slice(None), 1, 2))
    back = slice(None, None, -1)
    assert same(hor_operator(grad[back], hess[back], *(a[back] for a in geometry)), back)


def test_mu_lambda_values():
    assert mu_lambda(0.0, -60.0) == pytest.approx(-6.0)
    assert mu_lambda(1.0, -60.0) == pytest.approx(0.0)
    assert mu_lambda(0.0, 0.0) == 0.0


def _patch_lower_at(monkeypatch, change):
    """GTensor.lower_at with change(G_k, point) applied to a copy of each
    point's G_abc, so a batch and a lone point see the same change."""
    lower_at = so3.GTensor.lower_at

    def patched(self, points):
        Gl = lower_at(self, points).copy()
        for k, pt in enumerate(points):
            change(Gl[k], pt)
        return Gl

    monkeypatch.setattr(so3.GTensor, "lower_at", patched)


def test_a_nan_fails_every_identity_and_operator_row_at_its_point(gtensor, conics5, monkeypatch):
    points = conics5.domain.draw(10, DEFAULT_SEED)
    bad = points[6]

    def poison(G_k, pt):
        if pt == bad:
            G_k[1, 2, 3] = np.nan

    _patch_lower_at(monkeypatch, poison)
    records = g_identities(gtensor) + expansion_check(gtensor)
    assert len(records) == 13
    for rec in records:
        assert rec.status == "fail", rec.name
        assert np.isnan(rec.max_residual), rec.name
        assert rec.worst_point == bad, rec.name


def test_identity_rows_keep_the_point_whose_residual_is_largest(
        gtensor, conics5, monkeypatch):
    # a perturbation of G with a different weight at each point fails all
    # eight rows; each row's point is the one whose lone-point residual,
    # recomputed by the same check, is the largest
    points = conics5.domain.draw(10, DEFAULT_SEED)
    weight = {tuple(sorted(pt.items())): w
              for pt, w in zip(points, np.random.default_rng(3).permutation(10) + 1.0)}
    E = np.random.default_rng(4).standard_normal((5, 5, 5))

    def perturb(G_k, pt):
        G_k += 1e-3 * weight[tuple(sorted(pt.items()))] * E

    _patch_lower_at(monkeypatch, perturb)
    batch = g_identities(gtensor, points)
    alone = [g_identities(gtensor, [pt]) for pt in points]
    for i, rec in enumerate(batch):
        residuals = [recs[i].max_residual for recs in alone]
        assert rec.status == "fail", rec.name
        assert rec.worst_point == points[int(np.argmax(residuals))], rec.name
        assert rec.max_residual == pytest.approx(max(residuals), rel=1e-9), rec.name


def _operator_row_residuals(gtensor, rows, points, operator_at_point, n_fields=20,
                            seed=DEFAULT_SEED):
    """[point, row] residuals of the printed operator rows, one point and
    one test field at a time through the per-point reference operator,
    each field's Hessian and gradient drawn as 25 + 5 numbers of one
    stream."""
    ode = gtensor.m.ode
    coords = ode.coords
    g_inv, gamma, Gl = _geometry_at(gtensor, points)
    rng = np.random.default_rng(seed)
    out = np.zeros((len(points), len(coords)))
    for k, pt in enumerate(points):
        lam = evaluate(ode.rhs, pt)
        coeff = {(c, pair): float(text.split(":")[1]) * lam if text.startswith("lambda:")
                 else evaluate(catalog.expr(text), pt)
                 for c, table in rows.items() for pair, text in table.items()}
        for _ in range(n_fields):
            H = rng.standard_normal((5, 5))
            H = (H + H.T) / 2.0
            b = rng.standard_normal(5)
            v, _ = operator_at_point(b, H, g_inv[k], gamma[k], Gl[k])
            for ci, c in enumerate(coords):
                printed = -b[ci] + sum(coeff[(c, pair)] * H[coords.index(pair[0]),
                                                            coords.index(pair[1])]
                                       for pair in rows[c])
                out[k, ci] = max(out[k, ci], abs(printed - v[ci]) / (np.max(np.abs(v)) + 1e-300))
    return out


def test_operator_rows_keep_the_point_whose_residual_is_largest(
        gtensor, conics5, monkeypatch, operator_at_point):
    # every row's first coefficient doubled: all five rows fail
    rows = {c: dict(table) for c, table in catalog.for_ode("conics5")["operator_rows"].items()}
    for table in rows.values():
        pair, text = next(iter(table.items()))
        table[pair] = (f"lambda:{2 * float(text.split(':')[1])}" if text.startswith("lambda:")
                       else f"2*({text})")
    monkeypatch.setitem(catalog.for_ode("conics5"), "operator_rows", rows)
    points = conics5.domain.draw(10, DEFAULT_SEED)
    oracle = _operator_row_residuals(gtensor, rows, points, operator_at_point)
    records = expansion_check(gtensor, points=points)
    assert [rec.name for rec in records] == [f"operator_row_{c}" for c in conics5.coords]
    for rec, column in zip(records, oracle.T):
        assert rec.status == "fail", rec.name
        assert rec.worst_point == points[int(np.argmax(column))], rec.name
        assert rec.max_residual == pytest.approx(column.max(), rel=1e-9), rec.name
