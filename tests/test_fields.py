"""Graded polynomial field algebra: brackets, dimensions, flows, resonances."""

import dataclasses
import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

import conetube as ct
from conetube import fields as fl

BRACKET_TOL = 1e-9
N_TRIPLES = 100

DESK = ct.desk_algebras()
SMALL = [A for A in DESK if A.dim <= 10] + [ct.make_algebra("albert")]


def _field_array(f):
    return np.concatenate([f.u, f.A.ravel(), f.w])


def test_graded_field_validation():
    A = ct.make_algebra("hermR", rank=2)
    with pytest.raises(ct.DimensionMismatch):
        ct.GradedField(np.zeros(2), np.zeros((3, 3)), np.zeros(3))
    with pytest.raises(ct.DimensionMismatch):
        ct.GradedField(np.zeros(3), np.zeros((3, 2)), np.zeros(3))
    f = ct.GradedField(np.zeros(3), np.zeros((3, 3)), np.zeros(3))
    assert f.u.dtype == float


def test_evaluate_and_derivative_consistency():
    # f(z+h) - f(z) matches f'(z)h to second order
    rng = np.random.default_rng(301)
    for A in (ct.make_algebra("hermR", rank=3),
              ct.make_algebra("spin", peirce_constant=4)):
        f = fl.random_field(A, rng)
        z = rng.standard_normal(A.dim) + 1j * rng.standard_normal(A.dim)
        h = rng.standard_normal(A.dim) + 1j * rng.standard_normal(A.dim)
        h = 1e-5 * h / np.linalg.norm(h)
        delta = fl.evaluate_field(A, f, z + h) - fl.evaluate_field(A, f, z)
        linear = fl.field_derivative(A, f, z) @ h
        assert np.max(np.abs(delta - linear)) < 1e-8


def test_euler_field_grading():
    # ad(euler) acts with eigenvalue -1, 0, +1 on the graded pieces
    rng = np.random.default_rng(307)
    for A in SMALL:
        delta = fl.euler_field(A)
        d = A.dim
        minus = ct.GradedField(rng.standard_normal(d), np.zeros((d, d)),
                               np.zeros(d))
        zero = ct.GradedField(np.zeros(d), np.diag(rng.standard_normal(d)) * 0
                              + fl.gl_omega_span(A).rows[0].reshape(d, d),
                              np.zeros(d))
        plus = ct.GradedField(np.zeros(d), np.zeros((d, d)),
                              rng.standard_normal(d))
        for f, grade in ((minus, -1), (zero, 0), (plus, 1)):
            b = fl.bracket(A, delta, f)
            np.testing.assert_allclose(_field_array(b),
                                       grade * _field_array(f), atol=1e-9)


def test_bracket_grading_structure():
    # degrees add: [h^-1, h^0] ⊂ h^-1, [h^-1, h^1] ⊂ h^0, [h^1, h^0] ⊂ h^1
    rng = np.random.default_rng(311)
    for A in (ct.make_algebra("hermC", rank=2),
              ct.make_algebra("spin", peirce_constant=3)):
        d = A.dim
        span = fl.gl_omega_span(A)
        f_m = ct.GradedField(rng.standard_normal(d), np.zeros((d, d)),
                             np.zeros(d))
        g_m = ct.GradedField(rng.standard_normal(d), np.zeros((d, d)),
                             np.zeros(d))
        f_0 = ct.GradedField(np.zeros(d),
                             span.rows[-1].reshape(d, d), np.zeros(d))
        f_p = ct.GradedField(np.zeros(d), np.zeros((d, d)),
                             rng.standard_normal(d))
        g_p = ct.GradedField(np.zeros(d), np.zeros((d, d)),
                             rng.standard_normal(d))
        b = fl.bracket(A, f_m, f_0)
        assert np.max(np.abs(b.A)) < 1e-10 and np.max(np.abs(b.w)) < 1e-10
        b = fl.bracket(A, f_p, f_0)
        assert np.max(np.abs(b.A)) < 1e-10 and np.max(np.abs(b.u)) < 1e-10
        b = fl.bracket(A, f_m, f_p)
        assert np.max(np.abs(b.u)) < 1e-10 and np.max(np.abs(b.w)) < 1e-10
        # equal degrees +-1 commute
        for f, g in ((f_m, g_m), (f_p, g_p)):
            b = fl.bracket(A, f, g)
            assert np.max(np.abs(_field_array(b))) < 1e-10


def test_bracket_antisymmetry_and_jacobi():
    rng = np.random.default_rng(313)
    for A in SMALL:
        for _ in range(N_TRIPLES // 10):
            f = fl.random_field(A, rng)
            g = fl.random_field(A, rng)
            h = fl.random_field(A, rng)
            fg = fl.bracket(A, f, g)
            gf = fl.bracket(A, g, f)
            np.testing.assert_allclose(_field_array(fg), -_field_array(gf),
                                       atol=BRACKET_TOL)
            j1 = fl.bracket(A, f, fl.bracket(A, g, h))
            j2 = fl.bracket(A, g, fl.bracket(A, h, f))
            j3 = fl.bracket(A, h, fl.bracket(A, f, g))
            total = _field_array(j1) + _field_array(j2) + _field_array(j3)
            assert np.max(np.abs(total)) < BRACKET_TOL


def test_bracket_matches_section_evaluation():
    # [f, g](z) = g'(z) f(z) - f'(z) g(z) at sample points, and the linear
    # coefficient of the closed form stays inside gl(Omega)
    rng = np.random.default_rng(317)
    for A in DESK:
        f = fl.random_field(A, rng)
        g = fl.random_field(A, rng)
        b = fl.bracket(A, f, g)
        for _ in range(5):
            z = rng.standard_normal(A.dim) + 1j * rng.standard_normal(A.dim)
            direct = fl.field_derivative(A, g, z) @ fl.evaluate_field(A, f, z) \
                - fl.field_derivative(A, f, z) @ fl.evaluate_field(A, g, z)
            np.testing.assert_allclose(fl.evaluate_field(A, b, z), direct,
                                       atol=1e-9, err_msg=repr(A))
        assert fl.gl_omega_span(A).contains(b.A), A


def test_gl_omega_span():
    for A in DESK:
        span = fl.gl_omega_span(A)
        table = fl.expected_dim_table(A)
        assert span.dim_gl_omega == table["dim_sl_omega"] + 1
        assert span.rows.shape == (span.dim_gl_omega, A.dim ** 2)
        np.testing.assert_allclose(span.rows @ span.rows.T,
                                   np.eye(span.dim_gl_omega), atol=1e-12)
        # every L(b_a), L(x) and commutators of L's belong to gl(Omega)
        assert all(span.contains(ct.lmul(A, b)) for b in np.eye(A.dim)), A
        rng = np.random.default_rng(331)
        x = rng.standard_normal(A.dim)
        y = rng.standard_normal(A.dim)
        Lx, Ly = ct.lmul(A, x), ct.lmul(A, y)
        assert span.contains(Lx)
        assert span.contains(Lx @ Ly - Ly @ Lx)
        if span.dim_gl_omega < A.dim ** 2:
            assert not span.contains(
                np.triu(np.ones((A.dim, A.dim)), k=1))


def test_gl_omega_span_matches_exhaustive_stack():
    # oracle: all L(b_i) and all basis commutators [L(b_i), L(b_j)]
    for A in DESK:
        d = A.dim
        ops = np.stack([ct.lmul(A, row) for row in np.eye(d)])
        comms = [ops[i] @ ops[j] - ops[j] @ ops[i]
                 for i in range(d) for j in range(i + 1, d)]
        stack = np.concatenate([ops, np.stack(comms)]).reshape(-1, d * d)
        _, s, vh = np.linalg.svd(stack, full_matrices=False)
        rank = int(np.count_nonzero(s > 1e-8 * s[0]))
        span = fl.gl_omega_span(A)
        assert span.dim_gl_omega == rank
        np.testing.assert_allclose(span.rows @ span.rows.T, np.eye(rank),
                                   atol=1e-12)
        np.testing.assert_allclose(span.rows.T @ span.rows,
                                   vh[:rank].T @ vh[:rank], atol=1e-10)


def test_gl_omega_span_is_deterministic():
    A = ct.make_algebra("albert")
    first = fl.gl_omega_span(A).rows.tobytes()
    fl.gl_omega_span.cache_clear()
    assert fl.gl_omega_span(A).rows.tobytes() == first


def test_seeded_draws_are_pinned():
    # the pairs and probes of gl_omega_span: the same on every platform and Python
    want = {0: [-0.22950938397812592, 0.7804878366915295, -0.9190312379875354],
            1: [0.1384077417358589, 0.604530118800436, -0.8737863517535038]}
    for seed, values in want.items():
        assert fl._uniform(random.Random(seed), (3,)).tolist() == values
    draws = fl._uniform(random.Random(0), (2, 50, 50))
    assert draws.min() >= -1.0 and draws.max() < 1.0


def test_dim_table_ranks_on_singular_values_alone(monkeypatch):
    svd = np.linalg.svd

    def values_only(M, *args, **kwargs):
        assert kwargs.get("compute_uv") is False, "singular vectors requested"
        return svd(M, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", values_only)
    fl.gl_omega_span.cache_clear()
    for A in DESK:
        assert fl.dim_table(A) == fl.expected_dim_table(A), A


def test_derivation_span_rank_identity():
    # brackets of h^-1 with h^1 span all of gl(Omega)
    rng = np.random.default_rng(337)
    for A in SMALL:
        d = A.dim
        span = fl.gl_omega_span(A)
        mats = []
        for i in range(d):
            u = np.zeros(d)
            u[i] = 1.0
            f = ct.GradedField(u, np.zeros((d, d)), np.zeros(d))
            for j in range(d):
                w = np.zeros(d)
                w[j] = 1.0
                g = ct.GradedField(np.zeros(d), np.zeros((d, d)), w)
                b = fl.bracket(A, f, g)
                mats.append(b.A.ravel())
        rank = np.linalg.matrix_rank(np.array(mats), tol=1e-8)
        assert rank == span.dim_gl_omega


def test_dim_tables():
    want = {
        ("spin", 2, 4): {"dim_der": 10, "dim_sl_omega": 15,
                         "dim_aut_H": 28, "dim_sl_D": 15},
        ("hermR", 3, 1): {"dim_der": 3, "dim_sl_omega": 8,
                          "dim_aut_H": 21, "dim_sl_D": 8},
        ("hermC", 3, 2): {"dim_der": 8, "dim_sl_omega": 16,
                          "dim_aut_H": 35, "dim_sl_D": 16},
        ("hermH", 3, 4): {"dim_der": 21, "dim_sl_omega": 35,
                          "dim_aut_H": 66, "dim_sl_D": 35},
        ("albert", 3, 8): {"dim_der": 52, "dim_sl_omega": 78,
                           "dim_aut_H": 133, "dim_sl_D": 78},
    }
    for (fam, r, n), row in want.items():
        A = ct.make_algebra(fam, rank=r, peirce_constant=n)
        assert fl.expected_dim_table(A) == row


def test_dim_table_matches_computed():
    for A in DESK:
        assert fl.dim_table(A) == fl.expected_dim_table(A)


@pytest.mark.parametrize("family, rank", [
    ("hermR", 6), ("hermR", 7), ("hermR", 8), ("hermR", 12), ("hermC", 6),
    ("hermC", 7), ("hermC", 9), ("hermH", 4), ("hermH", 5), ("hermH", 6)])
def test_dim_table_above_the_desk(family, rank):
    A = ct.make_algebra(family, rank=rank)
    assert fl.dim_table(A) == fl.expected_dim_table(A)


def test_commutator_values_match_dense_operators():
    # reference: [L(x), L(y)] p from the dense multiplication operators
    rng = np.random.default_rng(349)
    # hermR r=12 and hermC r=10 (dim 78 and 100) are the largest operands
    for A in DESK + [ct.make_algebra(f, rank=r) for f, r in
                     (("hermH", 4), ("hermR", 12), ("hermC", 10))]:
        xs, ys, ps = rng.standard_normal((3, 5, A.dim))
        lps = np.stack([ct.lmul(A, p).T for p in ps])
        got = fl._commutators_at(A, xs, ys, lps).reshape(5, 5, A.dim)
        for i, (x, y) in enumerate(zip(xs, ys)):
            Lx, Ly = ct.lmul(A, x), ct.lmul(A, y)
            want = ps @ (Lx @ Ly - Ly @ Lx).T
            np.testing.assert_allclose(got[i], want, atol=1e-12 * A.dim ** 2,
                                       err_msg=repr(A))


def test_gl_omega_span_refuses_assignment_and_in_place_writes():
    span = fl.gl_omega_span(ct.make_algebra("hermC", rank=3))
    for name in ("algebra", "pairs", "dim_der", "dim_gl_omega", "rows"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(span, name, None)
    for arr in (span.rows, span.pairs):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_aut_H_is_graded_sum():
    # dim aut(H) = 2 dim V + dim gl(Omega)
    for A in DESK:
        table = fl.expected_dim_table(A)
        assert table["dim_aut_H"] == 2 * A.dim + table["dim_sl_omega"] + 1


def test_vanishing_conditions():
    rng = np.random.default_rng(347)
    A = ct.make_algebra("hermR", rank=2)
    orb = ct.make_orbit(A, 1, 0)
    a = orb.base_point
    d = A.dim
    # u = -P(a)w forces f(a) = 0 without killing the one-jet
    w = rng.standard_normal(d)
    f = ct.GradedField(-(ct.pquad(A, a) @ w), np.zeros((d, d)), w)
    rep = fl.vanishing_conditions(A, f, a)
    assert rep.value_zero
    assert not rep.one_jet_zero
    # w in the Peirce-0 part with A = 0: vanishing one-jet
    w0 = rng.standard_normal(orb.basis_e0.shape[0]) @ orb.basis_e0
    g = ct.GradedField(-(ct.pquad(A, a) @ w0), np.zeros((d, d)), w0)
    rep = fl.vanishing_conditions(A, g, a)
    assert rep.value_zero
    assert rep.one_jet_zero
    # the euler field does not vanish at a nonzero base point
    rep = fl.vanishing_conditions(A, fl.euler_field(A), a)
    assert not rep.value_zero


def test_vanishing_needs_condition_star():
    A = ct.make_algebra("hermR", rank=2)
    bad = np.zeros(A.dim)
    bad[0], bad[1] = 1.0, -1.0   # lambda_1 + lambda_2 = 0 with both nonzero
    with pytest.raises(ct.ConditionStarViolated):
        fl.vanishing_conditions(A, fl.euler_field(A), bad)


def test_monomial_weight():
    lam = np.array([1.0, 2.0])
    assert abs(fl.monomial_weight((2, 0), 1, lam) - 1.0) < 1e-12
    assert abs(fl.monomial_weight((2, 0), 2, lam) - 0.0) < 1e-12
    with pytest.raises(ct.IndexOutOfRange):
        fl.monomial_weight((2, 0), 3, lam)
    with pytest.raises(ct.IndexOutOfRange):
        fl.monomial_weight((2, 0), 0, lam)
    with pytest.raises(ct.DimensionMismatch):
        fl.monomial_weight((2, 0, 1), 1, lam)


def test_nonresonant_singleton():
    res = fl.nonresonant([1.0], bound=5)
    assert res.nonresonant is True
    assert res.exact is True
    assert res.witness is None


def test_nonresonant_pair_with_witness():
    res = fl.nonresonant([1.0, 2.0], bound=3)
    assert res.nonresonant is False
    assert res.exact is True
    m, j = res.witness
    assert tuple(m) == (2, 0)
    assert j == 2


def test_nonresonant_mixed_signs_never_exact_without_witness():
    res = fl.nonresonant([1.0, -2.7182], bound=4)
    assert res.nonresonant is True
    assert res.exact is False


def test_nonresonant_exactness_bound():
    # eigenvalues (1, 3): resonance needs |m| <= 3, so bound 3 is exhaustive
    res = fl.nonresonant([1.0, 3.0], bound=3)
    assert res.nonresonant is False   # 3*lambda_1 = lambda_2
    res = fl.nonresonant([1.0, 3.5], bound=2)
    assert res.nonresonant is True
    assert res.exact is False         # bound 2 < ceil(3.5)
    res = fl.nonresonant([1.0, 3.5], bound=4)
    assert res.nonresonant is True
    assert res.exact is True


def test_nonresonant_input_checks():
    with pytest.raises(ct.InvalidBound):
        fl.nonresonant([1.0, 2.0], bound=1)
    with pytest.raises(ct.DimensionMismatch):
        fl.nonresonant([], bound=2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1.0, np.nan)])
def test_nonresonant_rejects_non_finite(bad):
    # a NaN weight never matches, so the search used to report nonresonant
    with pytest.raises(ct.NonFiniteInput):
        fl.nonresonant([bad, 1.0], bound=4)


def test_multi_index_order():
    # first component descending within each total degree
    idx = list(fl._multi_indices(2, 2))
    assert idx[0] == (2, 0)
    assert idx[-1] == (0, 2)


def test_diagonal_flow_closed_form():
    # v = 1, c = i: z(t) = i/(1+t), so z(1) = i/2
    coeffs = fl.diagonal_flow_coefficients([1.0], [1j], 1.0)
    np.testing.assert_allclose(coeffs, [0.5j], atol=1e-14)


def test_diagonal_flow_vs_rk4():
    # fixed-step fourth-order integration of ż_j = i v_j z_j²
    rng = np.random.default_rng(353)
    v = np.array([1.0, -0.7, 0.3])
    c = np.array([0.4 + 0.5j, -0.2 + 0.9j, 1.0 + 0.1j])

    def rhs(z):
        return 1j * v * z * z

    steps = 2000
    h = 1.0 / steps
    z = c.astype(complex)
    grid = [z.copy()]
    for _ in range(steps):
        k1 = rhs(z)
        k2 = rhs(z + 0.5 * h * k1)
        k3 = rhs(z + 0.5 * h * k2)
        k4 = rhs(z + h * k3)
        z = z + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        grid.append(z.copy())
    for idx in (200, 1000, 2000):
        t = idx * h
        closed = fl.diagonal_flow_coefficients(v, c, t)
        assert np.max(np.abs(closed - grid[idx])) < 1e-6


def test_diagonal_flow_element():
    A = ct.make_algebra("hermR", rank=2)
    frame = ct.standard_frame(A)
    out = fl.diagonal_flow(A, frame, [1.0, 1.0], [1j, 2j], 0.5)
    g = fl.diagonal_flow_coefficients([1.0, 1.0], [1j, 2j], 0.5)
    np.testing.assert_allclose(out, g @ frame.astype(complex), atol=1e-14)


def test_flow_singularity():
    # v = 1, c = -i reaches the pole of 1/(1 - t) at t = 1
    with pytest.raises(ct.FlowSingularity):
        fl.diagonal_flow_coefficients([1.0], [-1j], 1.0)


def _exact_flow(v, c, t):
    """c / (1 − i v c t) in exact rationals, rounded once per part."""
    a, b, v, t = (Fraction(float(x)) for x in (c.real, c.imag, v, t))
    dr, di = 1 + v * b * t, -v * a * t
    den = dr * dr + di * di
    return complex(float((a * dr + b * di) / den), float((b * dr - a * di) / den))


@pytest.mark.parametrize("v, c, t", [
    (1e200, 1e200, 1.0),
    (1e200, 1e200, 1e-300),
    (1e300, 1e300, 0.0),
    (1e-300, 1e300j, 1.0),
    (-1e308, 1e308 - 1e308j, 1e308),
    (1e250, -3e100 + 2e150j, -1e-120),
    (2.0 ** 1000, 3.0 * 2.0 ** 30, 2.0 ** -1030),
    (2.0 ** 1000, -1j * (2.0 ** 30 + 2.0 ** -8), 2.0 ** -1030),  # |1 − i v c t| = 2^-38
    (5e-324, 1e308j, 1e308),
], ids=["1e200-1e200-1", "1e200-1e200-1e-300", "t-zero", "v-tiny", "near-max",
        "mixed", "vc-past-max", "near-pole-vc-past-max", "v-subnormal"])
def test_diagonal_flow_near_the_float_limit(v, c, t):
    # v c t overflows here although c / (1 − i v c t) is finite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = fl.diagonal_flow_coefficients([v], [c], t)[0]
    want = _exact_flow(v, complex(c), t)
    assert abs(g - want) <= 4 * np.finfo(float).eps * abs(want)


def test_diagonal_flow_keeps_the_plain_formula_in_range():
    # where v c t cannot overflow, the quotient has the plain formula's bits
    rng = np.random.default_rng(367)

    def draw(*shape):
        return rng.standard_normal(shape) * 10.0 ** rng.integers(-100, 100, shape)

    for _ in range(200):
        v, c, t = draw(3), draw(3) + 1j * draw(3), float(draw())
        g = fl.diagonal_flow_coefficients(v, c, t)
        assert g.tobytes() == (c / (1.0 - 1j * v * c * t)).tobytes()


def test_flow_singularity_past_the_float_limit():
    # v c t = -i exactly, with v c = -i 2^1030 past the float range
    with pytest.raises(ct.FlowSingularity):
        fl.diagonal_flow_coefficients([2.0 ** 1000], [-1j * 2.0 ** 30], 2.0 ** -1030)


@pytest.mark.parametrize("v, c, t", [
    (1e-300, -1e300j, 1.000000000002),
    (1.0, -1e300j, 1.000000000002e-300),
], ids=["v-tiny", "c-huge"])
def test_flow_quotient_past_the_float_range(v, c, t):
    # |1 − i v c t| ≈ 2e-12 passes the pole cut, but c / (1 − i v c t) ≈ 5e311
    A = ct.make_algebra("hermR", rank=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ct.NumericalFailure, match="passes the float range"):
            fl.diagonal_flow_coefficients([v], [c], t)
        with pytest.raises(ct.NumericalFailure, match="passes the float range"):
            fl.diagonal_flow(A, ct.standard_frame(A), [v], [c], t)


@pytest.mark.parametrize("v, c, t", [
    ([np.nan, 1.0], [1j, 2j], 0.5),
    ([np.inf, 1.0], [1j, 2j], 0.5),
    ([1.0, 1.0], [complex(np.nan, 1.0), 2j], 0.5),
    ([1.0, 1.0], [1j, complex(0.0, -np.inf)], 0.5),
    ([1.0, 1.0], [1j, 2j], np.nan),
    ([1.0, 1.0], [1j, 2j], -np.inf),
], ids=["v-nan", "v-inf", "c-nan", "c-inf", "t-nan", "t-inf"])
def test_diagonal_flow_rejects_non_finite(v, c, t):
    with pytest.raises(ct.NonFiniteInput):
        fl.diagonal_flow_coefficients(v, c, t)
    A = ct.make_algebra("hermR", rank=2)
    with pytest.raises(ct.NonFiniteInput):
        fl.diagonal_flow(A, ct.standard_frame(A), v, c, t)


def test_flow_shape_checks():
    with pytest.raises(ct.DimensionMismatch):
        fl.diagonal_flow_coefficients([1.0, 2.0], [1j], 1.0)
    A = ct.make_algebra("hermR", rank=2)
    with pytest.raises(ct.DimensionMismatch):
        fl.diagonal_flow(A, ct.standard_frame(A), [1.0], [1j], 1.0)
