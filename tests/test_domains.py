"""Cayley maps, Lie ball strata, Siegel half-space action, light cone isotropy."""

import warnings

import numpy as np
import pytest

import conetube as ct
from conetube import domains as dm

ROUND_TRIP_TOL = 1e-9

DESK = ct.desk_algebras()


def _tube_point(A, rng):
    # Re z interior to the cone, Im z arbitrary
    x = rng.standard_normal(A.dim)
    re = ct.pquad(A, x) @ ct.unit(A) + 0.05 * ct.unit(A)
    im = rng.standard_normal(A.dim)
    return re + 1j * im


def test_cayley_at_unit():
    for A in DESK:
        e = ct.unit(A)
        np.testing.assert_allclose(ct.cayley(A, e), np.zeros(A.dim),
                                   atol=1e-12)


def test_cayley_round_trip():
    rng = np.random.default_rng(401)
    for A in DESK:
        for _ in range(10):
            z = _tube_point(A, rng)
            w = ct.cayley(A, z)
            back = ct.inverse_cayley(A, w)
            scale = max(1.0, np.max(np.abs(z)))
            assert np.max(np.abs(back - z)) < ROUND_TRIP_TOL * scale


def test_cayley_image_in_ball():
    # spin tube points land inside the Lie ball after the coordinate twist
    rng = np.random.default_rng(409)
    A = ct.make_algebra("spin", peirce_constant=3)
    for _ in range(50):
        z = _tube_point(A, rng)
        w = ct.spin_to_ball(ct.cayley(A, z))
        assert ct.lie_ball_membership(w) == dm.INTERIOR


def test_spin_ball_round_trip():
    rng = np.random.default_rng(419)
    z = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    np.testing.assert_allclose(ct.ball_to_spin(ct.spin_to_ball(z)), z,
                               atol=1e-14)


def test_spin_boundary_point_example():
    # (1, 1, 0) sits on the light cone boundary; its Cayley image has q = 1
    A = ct.make_algebra("spin", peirce_constant=1)
    z = np.array([1.0, 1.0, 0.0], dtype=complex)
    gamma = ct.cayley(A, z)
    np.testing.assert_allclose(gamma.real, [-1 / 3, 2 / 3, 0.0], atol=1e-12)
    w = ct.spin_to_ball(gamma)
    assert ct.lie_ball_membership(w) == dm.SMOOTH_BOUNDARY


def test_lie_ball_strata():
    m = 4
    assert ct.lie_ball_membership(np.zeros(m, dtype=complex)) == dm.INTERIOR
    e1 = np.zeros(m, dtype=complex)
    e1[0], e1[1] = 0.5, 0.5j
    assert ct.lie_ball_membership(e1) == dm.SMOOTH_BOUNDARY
    point = dm.LieBallPoint(e1)
    assert (point.hermitian, point.bilinear) == (0.5, 0.0)
    assert ct.lie_ball_membership(point) == dm.SMOOTH_BOUNDARY
    shilov = np.zeros(m, dtype=complex)
    shilov[0] = 1.0
    assert ct.lie_ball_membership(shilov) == dm.SHILOV
    assert ct.lie_ball_membership(3.0 * e1) == dm.EXTERIOR


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
def test_lie_ball_rejects_non_finite(bad):
    # a NaN or infinite coordinate has no stratum; it used to read Exterior
    with pytest.raises(ct.NonFiniteInput):
        ct.lie_ball_membership([bad, 0.0])
    with pytest.raises(ct.NonFiniteInput):
        dm.LieBallPoint([0.5, bad])


def test_symplectic_form():
    J = ct.symplectic_form(3)
    np.testing.assert_allclose(J @ J, -np.eye(6), atol=1e-14)


def test_symplectic_basis():
    for r in (2, 3):
        basis = ct.symplectic_lie_algebra_basis(r)
        assert basis.shape[0] == r * (2 * r + 1)
        J = ct.symplectic_form(r)
        for X in basis:
            np.testing.assert_allclose(X.T @ J + J @ X, 0.0, atol=1e-14)
        flat = basis.reshape(basis.shape[0], -1)
        assert np.linalg.matrix_rank(flat) == basis.shape[0]


def _random_symplectic(r, rng):
    # product of a translation, J, a block diagonal, and another translation
    def translation(b):
        b = 0.5 * (b + b.T)
        M = np.eye(2 * r)
        M[:r, r:] = b
        return M

    g = np.eye(r) + 0.3 * rng.standard_normal((r, r))
    block = np.zeros((2 * r, 2 * r))
    block[:r, :r] = g
    block[r:, r:] = np.linalg.inv(g).T
    J = ct.symplectic_form(r)
    return translation(rng.standard_normal((r, r))) @ J @ block \
        @ translation(rng.standard_normal((r, r)))


def _siegel_point(r, rng):
    x = rng.standard_normal((r, r))
    y = rng.standard_normal((r, r))
    re = 0.5 * (x + x.T)
    im = y @ y.T + 0.2 * np.eye(r)
    return re + 1j * im


def test_siegel_identity_action():
    rng = np.random.default_rng(431)
    z = _siegel_point(2, rng)
    np.testing.assert_allclose(ct.siegel_action(np.eye(4), z), z, atol=1e-12)


def test_siegel_inversion():
    rng = np.random.default_rng(433)
    z = _siegel_point(2, rng)
    J = ct.symplectic_form(2)
    np.testing.assert_allclose(ct.siegel_action(J, z),
                               -np.linalg.inv(z), atol=1e-10)


def test_siegel_translation():
    rng = np.random.default_rng(439)
    z = _siegel_point(3, rng)
    b = rng.standard_normal((3, 3))
    b = 0.5 * (b + b.T)
    M = np.eye(6)
    M[:3, 3:] = b
    np.testing.assert_allclose(ct.siegel_action(M, z), z + b, atol=1e-12)


def test_siegel_cocycle():
    # action of a product equals the composed action
    rng = np.random.default_rng(443)
    for _ in range(20):
        A = _random_symplectic(2, rng)
        B = _random_symplectic(2, rng)
        z = _siegel_point(2, rng)
        lhs = ct.siegel_action(A @ B, z)
        rhs = ct.siegel_action(A, ct.siegel_action(B, z))
        assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_siegel_preserves_half_space():
    rng = np.random.default_rng(449)
    for _ in range(20):
        A = _random_symplectic(3, rng)
        z = _siegel_point(3, rng)
        w = ct.siegel_action(A, z)
        np.testing.assert_allclose(w, w.T, atol=1e-9)
        assert np.min(np.linalg.eigvalsh(w.imag)) > 0


def test_siegel_rejects_bad_input():
    rng = np.random.default_rng(457)
    z = _siegel_point(2, rng)
    with pytest.raises(ct.NotSymplectic):
        ct.siegel_action(np.eye(4) + 0.1, z)
    with pytest.raises(ct.DimensionMismatch):
        ct.siegel_action(np.eye(4), np.array([[1.0, 0.5], [0.3, 1.0]]))
    with pytest.raises(ct.SingularDenominator):
        ct.siegel_action(ct.symplectic_form(2),
                         np.zeros((2, 2), dtype=complex))


def test_siegel_rejects_empty_matrix():
    # r = 0 would leave cz + d with no singular value to test
    with pytest.raises(ct.NotSymplectic):
        ct.siegel_action(np.zeros((0, 0)), np.zeros((0, 0)))


@pytest.mark.parametrize("s", [1.0, 1e-6, 1e-13])
def test_siegel_action_of_j_at_any_scale(s):
    # at A = J, cz + d = -z: well conditioned however small s is
    z = s * 1j * np.eye(2)
    np.testing.assert_allclose(ct.siegel_action(ct.symplectic_form(2), z),
                               -np.linalg.inv(z), rtol=1e-12, atol=0)


@pytest.mark.parametrize("A", [
    [[1e308, 0.0], [0.0, 1e-308]],
    [[1e200, 0.0], [1e200, 1e-200]],
    [[1e300, -1e300], [1e-300, 0.0]],
], ids=["diag-1e308", "huge-pair", "tiny-beside-huge"])
def test_symplectic_check_at_extreme_entries(A):
    # det A = 1: an entry whose products pass the float range is formed on
    # scaled columns, and a tiny entry next to a huge one is not lost there
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert dm._check_symplectic(np.array(A)) == 1


def test_siegel_action_solve_failure(break_linalg):
    z = _siegel_point(2, np.random.default_rng(461))
    break_linalg("solve")
    with pytest.raises(ct.NumericalFailure, match="Möbius"):
        ct.siegel_action(np.eye(4), z)


def test_isotropy_dimension_light_cone():
    assert ct.isotropy_dimension(np.diag([1.0, 0.0])) == 5


def test_isotropy_dimension_random_rank_one():
    rng = np.random.default_rng(461)
    for _ in range(20):
        u = rng.standard_normal(2)
        while np.linalg.norm(u) < 0.1:
            u = rng.standard_normal(2)
        s = np.outer(u, u)
        assert ct.isotropy_dimension(s) == 5


def test_isotropy_rejects_non_cone_points():
    with pytest.raises(ct.NotInLightCone):
        ct.isotropy_dimension(np.eye(2))          # full rank
    with pytest.raises(ct.NotInLightCone):
        ct.isotropy_dimension(-np.diag([1.0, 0.0]))   # negative
    with pytest.raises(ct.NotInLightCone):
        ct.isotropy_dimension(np.zeros((2, 2)))   # zero
    with pytest.raises(ct.NotInLightCone):
        ct.isotropy_dimension(np.array([[1.0, 0.5], [0.0, 0.0]]))
    with pytest.raises(ct.NonFiniteInput):
        ct.isotropy_dimension(np.diag([np.nan, 0.0]))
    with pytest.raises(ct.NonFiniteInput):
        ct.isotropy_dimension(np.diag([np.inf, 0.0]))


@pytest.mark.parametrize("t", [1e-300, 1e-100, 1e-20, 1e4, 1e5, 1e20, 1e300])
def test_isotropy_dimension_scale_invariant(t):
    u = np.random.default_rng(3).standard_normal(3)
    for s, want in [(np.diag([1.0, 0.0]), 5), (np.diag([1.0, 1.0, 0.0]), 10),
                    (np.outer(u, u), 12)]:
        assert ct.isotropy_dimension(s) == want
        assert ct.isotropy_dimension(t * s) == want


def test_isotropy_matches_germ_dimension():
    # 10 - 5 = 5: sp(2, R) minus the manifold dimension of the C^3 cone tube
    A = ct.make_algebra("hermR", rank=2)
    germ = ct.aut_germ_dimension(A, 1, 0)
    assert ct.isotropy_dimension(np.diag([1.0, 0.0])) == germ
    r = 2
    sp_dim = r * (2 * r + 1)
    dims = ct.cr_dimensions(A, 1, 0)
    manifold_dim = 2 * dims["crdim"] + dims["crcodim"]
    assert sp_dim - manifold_dim == 5


@pytest.mark.parametrize("A, z, want", [
    (np.eye(2), [[1e200j]], [[1e200j]]),
    (np.eye(2), [[1e155 + 1e155j]], [[1e155 + 1e155j]]),
    (np.eye(2), [[1e308j]], [[1e308j]]),
    (np.diag([2.0, 0.5]), [[1e154j]], [[4e154j]]),
    (np.array([[0.0, 1.0], [-1.0, 0.0]]), [[1e308j]], [[1e-308j]]),
    (np.diag([2.0, 0.5]), [[1e308j]], None),
    (np.diag([1e200, 1e-200]), [[1e-300j]], [[1e100j]]),
], ids=["id-1e200", "id-1e155", "id-1e308", "diag-4e154", "J-1e308", "diag-4e308",
        "diag-1e200"])
def test_siegel_action_on_huge_points(A, z, want):
    # a finite image comes back without an overflow warning; 4e308 is refused
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if want is None:
            with pytest.raises(ct.NumericalFailure, match="passes the float range"):
                ct.siegel_action(A, np.array(z))
        else:
            w = ct.siegel_action(A, np.array(z))
            np.testing.assert_allclose(w, want, rtol=4 * np.finfo(float).eps)
