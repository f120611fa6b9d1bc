"""Spectral decompositions, minors, orbit signatures, Peirce projections."""

import math
import re
import warnings

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


@pytest.mark.parametrize("family, rank, element, minor", [
    ("hermR", 2, [1e200, 1e200, 0.0], 2),
    ("albert", 3, [1e150] * 27, 3),
    ("albert", 3, [1e300] * 27, 2),
])
def test_generic_minors_overflow_raises(family, rank, element, minor):
    # finite eigenvalues whose products leave the float range
    A = ct.make_algebra(family, rank=rank)
    assert np.all(np.isfinite(ct.spectral_decompose(A, element).eigenvalues))
    with pytest.raises(ct.NumericalFailure, match=f"generic minor N_{minor} overflows"):
        ct.generic_minors(A, element)


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


# hermR diag(1, r) decomposes exactly, so its eigenvalue ratio is r itself
@pytest.mark.parametrize("r, want, support", [
    (1e-8, (2, 0), [1, 1, 0]),
    (-1e-8, (1, 1), [1, 1, 0]),
    (1e-9, (1, 0), [1, 0, 0]),
    (-1e-9, (1, 0), [1, 0, 0]),
    (1e-12, (1, 0), [1, 0, 0]),
    (-1e-300, (1, 0), [1, 0, 0]),
    (0.0, (1, 0), [1, 0, 0]),
])
def test_signature_rule_edges(r, want, support):
    # a ratio of exactly ±SPECTRAL_TOL counts; ±SPECTRAL_TOL/10 and below is zero
    A = ct.make_algebra("hermR", rank=2)
    x = [1.0, r, 0.0]
    assert sp.spectral_decompose(A, x).eigenvalues.tolist() == sorted([1.0, r], reverse=True)
    assert sp.orbit_signature(A, x) == want
    assert sp.support_idempotent(A, x).tolist() == support


@pytest.mark.parametrize("element, ratios", [
    ([1.0, 5e-9, 0.0], "[5.e-09]"),
    ([1.0, -5e-9, 0.0], "[-5.e-09]"),
    ([-1.0, 5e-9, 0.0], "[5.e-09]"),
    ([1.0, 5e-9, -3e-9, 0.0, 0.0, 0.0], "[ 5.e-09 -3.e-09]"),
])
def test_signature_rule_refuses_the_band(element, ratios):
    A = ct.make_algebra("hermR", rank=2 if len(element) == 3 else 3)
    message = f"eigenvalue ratio(s) {ratios} inside the (1e-09, 1e-08) band"
    for call in (sp.orbit_signature, sp.support_idempotent):
        with pytest.raises(ct.BorderlineSpectrum) as info:
            call(A, element)
        assert str(info.value) == message


def test_signature_rule_on_the_zero_element():
    for A in DESK:
        assert sp.orbit_signature(A, np.zeros(A.dim)) == (0, 0)
        assert sp.support_idempotent(A, np.zeros(A.dim)).tolist() == [0.0] * A.dim


def _numpy_signature(eigenvalues):
    """The signature rule as whole-array numpy operations, or None in the band."""
    tol = sp.SPECTRAL_TOL
    scale = np.abs(eigenvalues).max()
    rel = eigenvalues / scale if scale else eigenvalues
    if np.any((np.abs(rel) > tol / 10) & (np.abs(rel) < tol)):
        return None, None
    return (int(np.sum(rel >= tol)), int(np.sum(rel <= -tol))), np.abs(rel) >= tol


@pytest.mark.parametrize("A", DESK, ids=str)
def test_signature_rule_matches_a_numpy_rule(A):
    # eigenvalue magnitudes on both sides of each cut: counted, band, zero
    # (albert's root route fails on some of these; ROADMAP item 1)
    rng = np.random.default_rng(283)
    mags = [1.0, 2e-8, 5e-9, 2e-10, 0.0]
    seen = set()
    for _ in range(40):
        lam = rng.choice([-1.0, 1.0], A.rank) * rng.choice(mags, A.rank) * rng.uniform(0.5, 2.0)
        lam[0] = 1.0
        x = _transported(A, rng.permutation(lam), rng)
        try:
            data = sp.spectral_decompose(A, x)
        except ct.NumericalFailure as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                sp.orbit_signature(A, x)
            continue
        want, counted = _numpy_signature(data.eigenvalues)
        if want is None:
            with pytest.raises(ct.BorderlineSpectrum):
                sp.orbit_signature(A, x)
            seen.add("band")
            continue
        assert sp.orbit_signature(A, x) == want
        assert (sp.support_idempotent(A, x).tobytes()
                == data.frame[counted].sum(axis=0).tobytes())
        rel = np.abs(data.eigenvalues) / np.abs(data.eigenvalues).max()
        if not counted.all():
            seen.add("zero")
        if np.any(counted & (rel < 1e-6)):
            seen.add("counted near the cut")
    assert seen == {"band", "zero", "counted near the cut"}


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


def test_joint_peirce_matches_per_pair_products():
    # the batched products against 2 L_j² - L_j and 4 L_j L_k pair by pair
    rng = np.random.default_rng(157)
    for A in DESK:
        for _ in range(4):
            frame = ct.spectral_decompose(A, _rand(A, rng)).frame
            joint = ct.joint_peirce(A, frame)
            Ls = [ct.lmul(A, c) for c in frame]
            for (j, k), pjk in joint.projections.items():
                if j == k:
                    want = 2.0 * (Ls[j] @ Ls[j]) - Ls[j]
                else:
                    want = 4.0 * (Ls[j] @ Ls[k])
                np.testing.assert_array_equal(pjk, want)
                assert joint.dims[(j, k)] == int(round(float(np.trace(want))))


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


def _quaternionic_lines_reference(w, U):
    """The line pick with one np.column_stack per line, the oracle below."""
    picked = np.zeros((U.shape[0], 0), dtype=U.dtype)  # columns v, Jv, v, Jv, ...
    chosen = []
    for _ in range(U.shape[0] // 2):
        rest = U - picked @ (picked.conj().T @ U)
        norms = np.linalg.norm(rest, axis=0)
        i = int(np.argmax(norms))
        v = rest[:, i] / norms[i]
        jv = np.conj(v.reshape(-1, 2)[:, ::-1] * [-1, 1]).reshape(-1)
        picked = np.column_stack([picked, v, jv])
        chosen.append(i)
    return w[chosen], picked[:, 0::2]


def test_quaternionic_line_pick_matches_its_reference(monkeypatch):
    # same eigenvalue and frame bits as the re-stacking pick, clustered
    # spectra included: 0, 3e, a frame member, transported rank one and two
    rng = np.random.default_rng(229)
    cases = []
    for r in (1, 2, 3, 4):
        A = ct.make_algebra("hermH", rank=r)
        xs = [np.zeros(A.dim), 3.0 * ct.unit(A), ct.standard_frame(A)[-1]]
        for lam in ([1.5], [1.5, -0.5], [0.75, 2.0]):
            if len(lam) <= r:
                xs += [_transported(A, rng.permutation(lam + [0.0] * (r - len(lam))), rng)
                       for _ in range(3)]
        xs += [_rand(A, rng) for _ in range(6)]
        cases += [(A, t * x) for x in xs for t in (1.0, 1e-9, 1e12)]
    got = [sp.spectral_decompose(A, x) for A, x in cases]
    calls = []
    monkeypatch.setattr(sp, "_quaternionic_lines",
                        lambda w, U: calls.append(1) or _quaternionic_lines_reference(w, U))
    want = [sp.spectral_decompose(A, x) for A, x in cases]
    assert len(calls) == len(cases)
    for (A, x), g, w in zip(cases, got, want):
        assert g.eigenvalues.tobytes() == w.eigenvalues.tobytes(), (A, x)
        assert g.frame.tobytes() == w.frame.tobytes(), (A, x)


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


@pytest.mark.parametrize("A", list({A.family: A for A in DESK}.values()), ids=str)
def test_frame_products_match_per_pair_jordan_products(A):
    rng = np.random.default_rng(263)
    for _ in range(3):
        frame = ct.spectral_decompose(A, _rand(A, rng)).frame
        prods = sp._frame_products(A, frame)
        assert prods.shape == (A.rank, A.rank, A.dim)
        for j in range(A.rank):
            for k in range(A.rank):
                want = ct.jordan_product(A, frame[j], frame[k])
                assert np.max(np.abs(prods[j, k] - want)) <= 1e-14


def _validation_residuals(A, lam, frame, x):
    """(frame residual, reconstruction residual) from the NumericalFailure raised."""
    with pytest.raises(ct.NumericalFailure) as info:
        sp._validate_spectral(A, lam, frame, x)
    found = re.fullmatch(r"frame residual (\S+), reconstruction residual (\S+) exceed .*",
                         str(info.value))
    return float(found[1]), float(found[2])


@pytest.mark.parametrize("fault", ["scaled", "sum-kept"])
def test_validate_spectral_catches_an_idempotency_fault(fault):
    # scaled: (1 + ε) e_1 with λ_1 / (1 + ε) keeps x = Σ λ_j e_j, but its
    # square misses it by about ε |e_1|. sum-kept: moving ε e_0 from e_1 to
    # e_0 keeps the sum at the unit, so only the frame products see it
    A = ct.make_algebra("hermR", rank=3)
    eps = 1e-6
    x = _rand(A, np.random.default_rng(271))
    sd = ct.spectral_decompose(A, x)
    lam, frame = sd.eigenvalues.copy(), sd.frame.copy()
    if fault == "scaled":
        frame[1] *= 1.0 + eps
        lam[1] /= 1.0 + eps
    else:
        shift = eps * frame[0]
        frame[0] += shift
        frame[1] -= shift
        x = lam @ frame
        assert np.max(np.abs(frame.sum(axis=0) - ct.unit(A))) < 1e-12
    worst, recon = _validation_residuals(A, lam, frame, x)
    assert 0.1 * eps < worst < 10 * eps
    assert recon < sp.SPECTRAL_TOL * np.max(np.abs(lam))


def test_validate_spectral_catches_an_orthogonality_fault():
    # e_1 turned by δ stays an exact minimal idempotent, so only its products
    # with e_0 (and the frame's sum) are off; x is built on the turned frame
    A = ct.make_algebra("hermR", rank=3)
    delta = 1e-6
    v = np.array([math.sin(delta), math.cos(delta), 0.0])
    frame = ct.standard_frame(A)
    frame[1] = al.matrix_to_element(A, np.outer(v, v))
    lam = np.array([3.0, 2.0, 1.0])
    x = lam @ frame
    np.testing.assert_allclose(ct.jordan_product(A, frame[1], frame[1]), frame[1], atol=1e-15)
    assert np.max(np.abs(ct.jordan_product(A, frame[0], frame[1]))) > 1e-7
    worst, recon = _validation_residuals(A, lam, frame, x)
    assert 1e-7 < worst < 1e-5
    assert recon == 0.0


@pytest.mark.parametrize("family, kw, dropped, worst", [
    ("spin", {"peirce_constant": 3}, 0, 0.5),
    ("hermR", {"rank": 3}, 2, 1.0),
], ids=["spin-n3", "hermR-r3"])
def test_validate_spectral_catches_a_frame_short_of_the_unit(family, kw, dropped, worst):
    # a zero member passes every product check, so only Σ e_j = e fails. The
    # unit is e[0] on spin and e[:r] on hermR; subtracting it anywhere else
    # would also fail the full frame, or give another residual here
    A = ct.make_algebra(family, **kw)
    frame = ct.standard_frame(A)
    lam = np.arange(A.rank, 0, -1.0)
    sp._validate_spectral(A, lam, frame, lam @ frame)
    frame[dropped] = 0.0
    kept = frame.copy()
    prods = sp._frame_products(A, frame)
    for j in range(A.rank):
        for k in range(A.rank):
            want = frame[j] if j == k else 0.0
            assert np.max(np.abs(prods[j, k] - want)) == 0.0
    assert _validation_residuals(A, lam, frame, lam @ frame) == (worst, 0.0)
    assert frame.tobytes() == kept.tobytes()


@pytest.mark.parametrize("A", DESK, ids=str)
def test_spectral_decompose_is_exactly_scale_equivariant(A):
    # every route decomposes x·2^-e, so scaling by 2^k changes only that e
    rng = np.random.default_rng(227)
    r = A.rank
    for p in range(r + 1):
        for q in range(r + 1 - p):
            lam = rng.uniform(0.5, 2.0, r) * np.repeat([1.0, -1.0, 0.0], [p, q, r - p - q])
            x = _transported(A, rng.permutation(lam), rng)
            data = sp.spectral_decompose(A, x)
            for k in (-1000, -900, 900, 1000):
                scaled = sp.spectral_decompose(A, np.ldexp(x, k))
                assert scaled.frame.tobytes() == data.frame.tobytes(), (p, q, k)
                assert scaled.eigenvalues.tobytes() == np.ldexp(data.eigenvalues, k).tobytes()


@pytest.mark.parametrize("a, b", [(2.0, -1.0), (3.0, 0.5), (0.0, 1.5), (0.0, -1.0)])
def test_albert_split_is_closed_form(a, b, monkeypatch):
    # x = a·e + (b - a)·f has eigenvalues (a, a, b): the a-cluster is a rank-2
    # idempotent, split in its Peirce-1 spin factor with no random draw
    A = ct.make_algebra("albert")
    f = _transported(A, [1.0, 0.0, 0.0], np.random.default_rng(229))
    f /= ct.generic_trace(A, f)  # P(g) maps the ray of c_1 onto the ray of f
    x = a * ct.unit(A) + (b - a) * f

    def refuse(*args):
        raise AssertionError("the albert split drew random numbers")
    monkeypatch.setattr(np.random, "default_rng", refuse)
    for t in (1e-12, 1.0, 1e12):
        data = sp.spectral_decompose(A, t * x)
        sp._check_frame(A, data.frame)
        assert np.max(np.abs(data.eigenvalues @ data.frame - t * x)) <= SD_TOL * t
        np.testing.assert_allclose(data.eigenvalues, t * np.sort([a, a, b])[::-1],
                                   rtol=0, atol=1e-12 * t)


@pytest.mark.parametrize("A", list({A.family: A for A in DESK}.values()), ids=str)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_element_is_refused(A, bad):
    x = ct.unit(A)
    x[-1] = bad
    with pytest.raises(ct.NonFiniteInput, match="NaN or infinite"):
        sp.spectral_decompose(A, x)
    with pytest.raises(ct.NonFiniteInput):
        sp.orbit_signature(A, x)


def test_overflowing_eigenvalue_raises():
    # [[1e308, 1e308], [1e308, 1e308]] has eigenvalues 2e308 and 0
    A = ct.make_algebra("hermR", rank=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ct.NumericalFailure, match="overflows"):
            sp.orbit_signature(A, [1e308] * 3)
        data = sp.spectral_decompose(A, [1e307] * 3)
    np.testing.assert_allclose(data.eigenvalues, [2e307, 0.0], rtol=1e-15, atol=0)
