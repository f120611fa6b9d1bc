"""Spectral decompositions, minors, orbit signatures, Peirce projections."""

import math

import numpy as np
import pytest

import conetube as ct
from conetube import algebra as al
from conetube import spectral as sp

SD_TOL = 1e-8
N_RANDOM = 200

DESK = ct.desk_algebras()


def _rand(algebra, rng, scale=1.0):
    return scale * rng.standard_normal(algebra.dim)


def _check_frame_properties(A, data, x):
    lam, frame = data.eigenvalues, data.frame
    assert lam.shape == (A.rank,)
    assert frame.shape == (A.rank, A.dim)
    assert np.all(np.diff(lam) <= 1e-12)
    recon = lam @ frame
    scale = max(1.0, float(np.max(np.abs(x))))
    assert np.max(np.abs(recon - x)) < SD_TOL * scale
    for j in range(A.rank):
        fj = frame[j]
        sq = ct.jordan_product(A, fj, fj)
        assert np.max(np.abs(sq - fj)) < SD_TOL
        assert abs(ct.generic_trace(A, fj) - 1.0) < 1e-6
        for k in range(j + 1, A.rank):
            assert np.max(np.abs(ct.jordan_product(A, fj, frame[k]))) < SD_TOL
    assert np.max(np.abs(frame.sum(axis=0) - ct.unit(A))) < SD_TOL


def test_spectral_random_samples():
    rng = np.random.default_rng(101)
    per_algebra = max(1, N_RANDOM // len(DESK)) * len(DESK)
    assert per_algebra >= N_RANDOM - len(DESK)
    for A in DESK:
        for _ in range(max(1, N_RANDOM // len(DESK))):
            x = _rand(A, rng)
            data = ct.spectral_decompose(A, x)
            _check_frame_properties(A, data, x)


def test_spectral_unit_and_zero():
    for A in DESK:
        e = ct.unit(A)
        data = ct.spectral_decompose(A, e)
        np.testing.assert_allclose(data.eigenvalues, np.ones(A.rank),
                                   atol=1e-12)
        _check_frame_properties(A, data, e)
        data0 = ct.spectral_decompose(A, np.zeros(A.dim))
        np.testing.assert_allclose(data0.eigenvalues, 0.0, atol=1e-12)


def test_spectral_spin_closed_form():
    A = ct.make_algebra("spin", peirce_constant=5)
    rng = np.random.default_rng(103)
    x = _rand(A, rng)
    s, u = x[0], x[1:]
    data = ct.spectral_decompose(A, x)
    un = np.linalg.norm(u)
    np.testing.assert_allclose(data.eigenvalues, [s + un, s - un], atol=1e-12)
    plus = 0.5 * np.concatenate([[1.0], u / un])
    np.testing.assert_allclose(data.frame[0], plus, atol=1e-12)


def test_spectral_diag_example():
    # diag(1, -2, 0) has eigenvalues (1, 0, -2) and a diagonal frame
    A = ct.make_algebra("hermR", rank=3)
    x = np.zeros(A.dim)
    x[0], x[1] = 1.0, -2.0
    data = ct.spectral_decompose(A, x)
    np.testing.assert_allclose(data.eigenvalues, [1.0, 0.0, -2.0], atol=1e-12)
    for row in data.frame:
        assert np.max(np.abs(row[3:])) < 1e-10


def test_spectral_repeated_eigenvalues():
    # multiples of idempotents repeat an eigenvalue: albert splits a cluster,
    # the eigh families pick frame members inside a repeated eigenspace
    rng = np.random.default_rng(107)
    for A in DESK:
        frame = ct.standard_frame(A)
        x = 2.0 * frame[0]
        data = ct.spectral_decompose(A, x)
        _check_frame_properties(A, data, x)
        lam = np.sort(data.eigenvalues)
        np.testing.assert_allclose(lam[-1], 2.0, atol=1e-8)
        y = 3.0 * ct.unit(A) + 1e-3 * _rand(A, rng)
        data = ct.spectral_decompose(A, y)
        _check_frame_properties(A, data, y)


def test_spectral_scale_equivariance():
    rng = np.random.default_rng(109)
    for A in DESK:
        x = _rand(A, rng)
        lam = ct.spectral_decompose(A, x).eigenvalues
        lam_scaled = ct.spectral_decompose(A, 100.0 * x).eigenvalues
        np.testing.assert_allclose(lam_scaled, 100.0 * lam,
                                   rtol=1e-8, atol=1e-8)


def test_generic_minors():
    rng = np.random.default_rng(113)
    A = ct.make_algebra("hermR", rank=3)
    e = ct.unit(A)
    minors, norm = ct.generic_minors(A, e)
    assert abs(norm - 1.0) < 1e-12
    x = _rand(A, rng)
    lam = ct.spectral_decompose(A, x).eigenvalues
    minors, norm = ct.generic_minors(A, x)
    assert abs(norm - np.prod(lam)) < 1e-8
    # elementary symmetric functions of the eigenvalues
    e1 = lam.sum()
    e2 = lam[0] * lam[1] + lam[0] * lam[2] + lam[1] * lam[2]
    np.testing.assert_allclose(minors, [e1, e2, norm], atol=1e-8)


def test_minors_homogeneity():
    rng = np.random.default_rng(127)
    for A in DESK:
        x = _rand(A, rng)
        t = 1.0 + rng.random()
        m1, _ = ct.generic_minors(A, x)
        mt, _ = ct.generic_minors(A, t * x)
        degrees = np.arange(1, A.rank + 1)
        np.testing.assert_allclose(mt, t ** degrees * m1, rtol=1e-7, atol=1e-9)


def test_orbit_signature_examples():
    A = ct.make_algebra("hermR", rank=3)
    assert ct.orbit_signature(A, ct.unit(A)) == (3, 0)
    assert ct.orbit_signature(A, np.zeros(A.dim)) == (0, 0)
    x = np.zeros(A.dim)
    x[0], x[1] = 1.0, -2.0
    assert ct.orbit_signature(A, x) == (1, 1)


def test_orbit_signature_negation_swaps():
    rng = np.random.default_rng(131)
    for A in DESK:
        x = _rand(A, rng)
        p, q = ct.orbit_signature(A, x)
        assert ct.orbit_signature(A, -x) == (q, p)


def test_orbit_signature_borderline():
    A = ct.make_algebra("hermR", rank=2)
    x = np.zeros(A.dim)
    x[0], x[1] = 1.0, 5e-9
    with pytest.raises(ct.BorderlineSpectrum):
        ct.orbit_signature(A, x)


def test_orbit_count():
    assert ct.orbit_count(1) == 3
    assert ct.orbit_count(2) == 6
    assert ct.orbit_count(3) == 10
    for r in range(1, 6):
        assert ct.orbit_count(r) == math.comb(r + 2, 2)


def test_support_idempotent():
    A = ct.make_algebra("hermR", rank=3)
    x = np.zeros(A.dim)
    x[0], x[1] = 5.0, -1.0
    c = ct.support_idempotent(A, x)
    want = np.zeros(A.dim)
    want[0] = want[1] = 1.0
    np.testing.assert_allclose(c, want, atol=1e-10)
    np.testing.assert_allclose(ct.support_idempotent(A, ct.unit(A)),
                               ct.unit(A), atol=1e-10)
    np.testing.assert_allclose(ct.support_idempotent(A, np.zeros(A.dim)),
                               np.zeros(A.dim), atol=1e-12)


def test_support_recovers_element():
    rng = np.random.default_rng(137)
    for A in DESK:
        x = _rand(A, rng)
        c = ct.support_idempotent(A, x)
        np.testing.assert_allclose(ct.pquad(A, c) @ x, x, atol=1e-7)


def test_peirce_projections_dims():
    for A in DESK:
        c = ct.standard_frame(A)[0]
        data = ct.peirce_projections(A, c)
        d1, dh, d0 = data.dims
        assert d1 == 1
        assert dh == (A.rank - 1) * A.peirce_constant
        assert d1 + dh + d0 == A.dim
        eye = np.eye(A.dim)
        np.testing.assert_allclose(data.pi1 + data.pi_half + data.pi0, eye,
                                   atol=1e-10)
        for piece in (data.pi1, data.pi_half, data.pi0):
            np.testing.assert_allclose(piece @ piece, piece, atol=1e-10)


def test_peirce_unit_case():
    A = ct.make_algebra("hermC", rank=3)
    data = ct.peirce_projections(A, ct.unit(A))
    assert data.dims == (A.dim, 0, 0)


def test_peirce_rejects_non_idempotent():
    A = ct.make_algebra("hermR", rank=2)
    with pytest.raises(ct.NotIdempotent):
        ct.peirce_projections(A, 2.0 * ct.unit(A))


def test_peirce_multiplication_rules():
    # V_1 ∘ V_1 ⊂ V_1, V_1 ∘ V_0 = 0, V_0 ∘ V_0 ⊂ V_0 on samples
    rng = np.random.default_rng(139)
    for A in (ct.make_algebra("hermC", rank=3),
              ct.make_algebra("spin", peirce_constant=4),
              ct.make_algebra("albert")):
        frame = ct.standard_frame(A)
        c = frame[0] + frame[1] if A.rank > 2 else frame[0]
        data = ct.peirce_projections(A, c)
        for _ in range(25):
            x1 = data.pi1 @ _rand(A, rng)
            y1 = data.pi1 @ _rand(A, rng)
            x0 = data.pi0 @ _rand(A, rng)
            y0 = data.pi0 @ _rand(A, rng)
            p11 = ct.jordan_product(A, x1, y1)
            np.testing.assert_allclose(data.pi1 @ p11, p11, atol=1e-10)
            np.testing.assert_allclose(ct.jordan_product(A, x1, y0), 0.0,
                                       atol=1e-10)
            p00 = ct.jordan_product(A, x0, y0)
            np.testing.assert_allclose(data.pi0 @ p00, p00, atol=1e-10)


def test_joint_peirce_resolution():
    for A in DESK:
        frame = ct.standard_frame(A)
        joint = ct.joint_peirce(A, frame)
        r = A.rank
        assert set(joint.projections) == {(j, k) for j in range(r)
                                          for k in range(j, r)}
        for (j, k), d in joint.dims.items():
            assert d == (1 if j == k else A.peirce_constant)
        total = sum(joint.projections.values())
        np.testing.assert_allclose(total, np.eye(A.dim), atol=1e-9)


def test_joint_peirce_multiplication_rule():
    # V_jj ∘ V_jk ⊂ V_jk for the standard frame
    A = ct.make_algebra("hermC", rank=3)
    frame = ct.standard_frame(A)
    joint = ct.joint_peirce(A, frame)
    rng = np.random.default_rng(149)
    x = joint.projections[(0, 0)] @ _rand(A, rng)
    y = joint.projections[(0, 1)] @ _rand(A, rng)
    prod = ct.jordan_product(A, x, y)
    np.testing.assert_allclose(joint.projections[(0, 1)] @ prod, prod,
                               atol=1e-10)


_BAD_FRAME_MESSAGES = {
    "shape": "frame must be 3 x 6, got (2, 6)",
    "not-idempotent": "frame member 1 is not idempotent",
    "not-minimal": "frame member 1 is not minimal",
    "not-orthogonal": "frame members 0, 2 are not orthogonal",
    "not-unit": "frame does not sum to the unit",
}


@pytest.mark.parametrize("cause", list(_BAD_FRAME_MESSAGES))
def test_joint_peirce_rejects_bad_frame(cause):
    A = ct.make_algebra("hermR", rank=3)
    frame = ct.standard_frame(A)
    if cause == "shape":
        frame = frame[:2]
    elif cause == "not-idempotent":
        frame[1] *= 2.0
    elif cause == "not-minimal":
        frame[1] = 0.0  # idempotent of trace 0
    elif cause == "not-orthogonal":
        frame[2] = frame[0]
    else:
        # exact minimal idempotents; turning the first by θ leaves its product
        # with the second at θ/2 but the sum θ away from the unit
        theta = 1.5 * SD_TOL
        v = np.array([np.cos(theta), np.sin(theta), 0.0])
        frame[0] = al.matrix_to_element(A, np.outer(v, v))
    with pytest.raises(ct.InvalidFrame) as info:
        ct.joint_peirce(A, frame)
    assert str(info.value) == _BAD_FRAME_MESSAGES[cause]


def test_spectral_rejects_complex():
    A = ct.make_algebra("hermR", rank=2)
    with pytest.raises(ct.DimensionMismatch):
        ct.spectral_decompose(A, np.array([1j, 0.0, 0.0]))


@pytest.mark.parametrize("family, rank", [("hermR", 3), ("hermC", 3), ("hermH", 2)])
def test_spectral_decompose_eigh_failure(family, rank, break_linalg):
    A = ct.make_algebra(family, rank=rank)
    x = _rand(A, np.random.default_rng(509))
    break_linalg("eigh")
    with pytest.raises(ct.NumericalFailure, match="eigensolver"):
        sp.spectral_decompose(A, x)


@pytest.mark.parametrize("family", ["hermR", "hermC", "hermH"])
@pytest.mark.parametrize("x0", [2.5, -0.75, 0.0, 1e-300])
def test_rank_one_decomposition_is_exact(family, x0):
    # eigh sees x0 divided by an exact power of two, so even 1e-300 comes back
    # exactly instead of losing its last bit to LAPACK's own rescaling
    A = ct.make_algebra(family, rank=1)
    data = sp.spectral_decompose(A, [x0])
    assert data.eigenvalues.tolist() == [x0]
    assert data.frame.tolist() == [[1.0]]
    want = (1, 0) if x0 > 0 else (0, 1) if x0 < 0 else (0, 0)
    assert sp.orbit_signature(A, [x0]) == want


def _transported(A, lam, rng):
    """P(g)·Σ λ_j c_j for g = e + y with every eigenvalue of y in [-1/2, 1/2].

    g lies inside the cone, so P(g) keeps the orbit of Σ λ_j c_j.
    """
    y = rng.standard_normal(A.dim)
    y *= 0.5 / math.sqrt(float(y @ al.trace_gram(A) @ y) * A.rank / A.dim)
    return ct.pquad(A, ct.unit(A) + y) @ (np.asarray(lam, float) @ ct.standard_frame(A))


@pytest.mark.parametrize("A", [A for A in DESK if A.family != "albert"], ids=str)
def test_orbit_signature_is_scale_invariant(A):
    rng = np.random.default_rng(211)
    r = A.rank
    for p in range(r + 1):
        for q in range(r + 1 - p):
            for _ in range(2):
                lam = rng.uniform(0.5, 2.0, r) * np.repeat([1.0, -1.0, 0.0], [p, q, r - p - q])
                x = _transported(A, rng.permutation(lam), rng)
                for t in 10.0 ** np.arange(-12, 13, 2):
                    assert sp.orbit_signature(A, t * x) == (p, q), (p, q, t)


@pytest.mark.parametrize("t", [1e-12, 1e-6, 1.0, 1e12])
def test_hermH_eigenvalues_scale_with_the_element(t):
    # an off-diagonal quaternion entry t has eigenvalues ±t
    data = sp.spectral_decompose(ct.make_algebra("hermH", rank=2), [0, 0, t, 0, 0, 0])
    np.testing.assert_allclose(data.eigenvalues, [t, -t], rtol=1e-12)
    A = ct.make_algebra("hermH", rank=3)
    f = ct.standard_frame(A)
    x = t * (2.0 * (f[0] + f[1]) - f[2])
    data = sp.spectral_decompose(A, x)
    np.testing.assert_allclose(data.eigenvalues, [2 * t, 2 * t, -t], rtol=1e-12)
    _check_frame_properties(A, data, x)


def test_hermH_takes_no_albert_path(monkeypatch):
    def refuse(*args):
        raise AssertionError("hermH left the eigh route")
    for name in ("_split_idempotent", "_purify_frame"):
        monkeypatch.setattr(sp, name, refuse)
    monkeypatch.setattr(al, "jordan_product", refuse)
    rng = np.random.default_rng(223)
    for r in (1, 2, 3, 4):
        A = ct.make_algebra("hermH", rank=r)
        f = ct.standard_frame(A)
        for x in (_rand(A, rng), 3.0 * ct.unit(A), f[0], np.zeros(A.dim)):
            sp.spectral_decompose(A, x)


@pytest.mark.parametrize("lam, want", [([1, 0, 0], (1, 0)), ([1, 1, 0], (2, 0))])
def test_small_albert_element_keeps_its_signature(lam, want):
    # a trace-free part of size 1e-14 is not a multiple of the unit
    A = ct.make_algebra("albert")
    x = _transported(A, lam, np.random.default_rng(7))
    assert sp.orbit_signature(A, x) == want
    assert sp.orbit_signature(A, 1e-14 * x) == want


def test_validate_spectral_is_relative_to_the_element():
    # swapping the frame misses x by 2e-10, far above 1e-8 of its size
    A = ct.make_algebra("hermR", rank=2)
    x = np.array([1e-10, -1e-10, 0.0])
    lam = np.array([1e-10, -1e-10])
    frame = ct.standard_frame(A)
    sp._validate_spectral(A, lam, frame, x)
    with pytest.raises(ct.NumericalFailure, match="reconstruction residual 2.00e-10"):
        sp._validate_spectral(A, lam, frame[::-1], x)
