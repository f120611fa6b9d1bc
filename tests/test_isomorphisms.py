"""Rank-2 algebras are spin factors: the isomorphisms as an oracle.

Every rank-2 Jordan algebra is a spin factor (Faraut–Korányi, Analysis on
Symmetric Cones, ch. V). In the coordinates of ``algebra``,

    φ(a, c, b) = ((a + c)/2, (a − c)/2, b)

takes hermR, hermC and hermH r=2 (diagonal a, c; the n units b of the pair)
onto spin n = 1, 2 and 4, and ψ(s, u_0, u) = diag(s + u_0, s − u_0, 0), with
u on the units of the pair (0, 1), takes spin n=8 into albert, onto the
Peirce-1 space V_1(e_1 + e_2). Different code computes each side: the spin
closed form against ``eigh``, the quaternionic line pick or the albert cubic.
"""

import numpy as np
import pytest

import conetube as ct
from conetube import spectral as sp

REL_TOL = 1e-14
N_ELEMENTS = 200

PAIRS = [("hermR", 2, 1), ("hermC", 2, 2), ("hermH", 2, 4), ("albert", 3, 8)]


def _from_spin(A, n):
    """The matrix of φ⁻¹ (rank 2) or ψ (albert): spin coordinates to A's."""
    M = np.zeros((A.dim, n + 2))
    M[0, :2] = 1.0
    M[1, 0], M[1, 1] = 1.0, -1.0
    M[A.rank:A.rank + n, 2:] = np.eye(n)
    return M


def _spin_element(rng, n, lam):
    """(s, u) with eigenvalues λ_1, λ_2 = s ± |u| along a random direction."""
    w = rng.standard_normal(n + 1)
    w *= (lam[0] - lam[1]) / np.linalg.norm(w)
    return np.concatenate([[lam[0] + lam[1]], w]) / 2


def _eigenvalue_draws(rng, rank):
    """Seeded eigenvalue pairs at scales 1e-3 to 1e3, some with zeros.

    At rank 3 the target also has the eigenvalue 0, and only triples whose
    eigenvalues are 0.1 of their spread apart are drawn.
    """
    while True:
        lam = 10.0 ** rng.uniform(-3, 3) * rng.standard_normal(2)
        kind = rng.integers(5)
        if kind < 2:
            lam[kind] = 0.0
        elif kind == 2 and rank == 2:
            lam[:] = 0.0
        full = np.append(lam, np.zeros(rank - 2))
        gaps = np.abs(np.subtract.outer(full, full))[np.triu_indices(rank, 1)]
        if rank == 2 or gaps.min() >= 0.1 * np.ptp(full):
            yield lam


@pytest.mark.parametrize("family, rank, n", PAIRS, ids=[f for f, _, _ in PAIRS])
def test_maps_are_homomorphisms(family, rank, n):
    A, S = ct.make_algebra(family, rank=rank), ct.make_algebra("spin", 2, n)
    M = _from_spin(A, n)
    rng = np.random.default_rng(12)
    for _ in range(N_ELEMENTS):
        y, z = rng.standard_normal((2, S.dim))
        err = np.abs(M @ ct.jordan_product(S, y, z) - ct.jordan_product(A, M @ y, M @ z))
        assert err.max() <= REL_TOL * np.linalg.norm(y) * np.linalg.norm(z)


@pytest.mark.parametrize("family, rank, n", PAIRS, ids=[f for f, _, _ in PAIRS])
def test_spectral_routes_agree_through_the_maps(family, rank, n):
    A, S = ct.make_algebra(family, rank=rank), ct.make_algebra("spin", 2, n)
    M = _from_spin(A, n)
    # the spin frame carried over, and e − ψ(e) for albert's extra 0
    extra = [ct.unit(A) - M @ ct.unit(S)] * (rank - 2)
    rng = np.random.default_rng(29)
    draws = _eigenvalue_draws(rng, rank)
    for _ in range(N_ELEMENTS):
        y = _spin_element(rng, n, next(draws))
        x = M @ y
        ds, dx = sp.spectral_decompose(S, y), sp.spectral_decompose(A, x)
        lam = np.append(ds.eigenvalues, np.zeros(rank - 2))
        order = np.argsort(-lam, kind="stable")
        scale = np.abs(lam).max()
        np.testing.assert_allclose(dx.eigenvalues, lam[order], rtol=0,
                                   atol=REL_TOL * scale, err_msg=repr(y))
        # a frame is fixed to within eps / gap by distinct eigenvalues
        gap = np.abs(np.subtract.outer(lam, lam))[np.triu_indices(rank, 1)].min()
        frame = np.vstack([ds.frame @ M.T, *extra])[order]
        assert np.abs(dx.frame - frame).max() * gap <= REL_TOL * scale, y
        assert sp.orbit_signature(A, x) == sp.orbit_signature(S, y), y
        np.testing.assert_allclose(sp.support_idempotent(A, x),
                                   M @ sp.support_idempotent(S, y), rtol=0,
                                   atol=REL_TOL, err_msg=repr(y))
        minors = np.append(sp.generic_minors(S, y)[0], np.zeros(rank - 2))
        err = np.abs(sp.generic_minors(A, x)[0] - minors)
        assert np.all(err <= REL_TOL * scale ** np.arange(1, rank + 1)), y


@pytest.mark.parametrize("family, n", [("hermR", 1), ("hermC", 2), ("hermH", 4)])
def test_dimension_tables_agree(family, n):
    assert ct.dim_table(ct.make_algebra(family, rank=2)) \
        == ct.dim_table(ct.make_algebra("spin", 2, n))
