"""Bounded realizations: Cayley transform, Lie ball, Siegel half space.

The Cayley map γ(z) = (z−e)∘(z+e)⁻¹ sends the tube domain Ω ⊕ iV onto a
bounded circled domain with center γ(e) = 0. For the spin family that
domain becomes the classical Lie ball

    D = {z ∈ ℂ^m : (z|z) + sqrt((z|z)² − |⟨z,z⟩|²) < 1}

after the coordinate twist (z₀, z₁, …) ↦ (z₀, iz₁, …); the twist is fixed
here once and verified by sampling in the tests (boundary tube points land
exactly on the smooth boundary stratum). For the rank-2 Hermitian case the
upper half space carries the usual Sp(2r, ℝ) Möbius action, whose isotropy
subalgebra at a rank-deficient cone point is computed as a linear nullity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import algebra as al
from .errors import (
    DimensionMismatch,
    NotInLightCone,
    NotSymplectic,
    NumericalFailure,
    SingularDenominator,
    read_int,
    read_real,
    require_finite,
)

INTERIOR = "Interior"
SMOOTH_BOUNDARY = "SmoothBoundary_S1"
SHILOV = "Shilov_S0"
EXTERIOR = "Exterior"

_STRATUM_TOL = 1e-8
# symmetry and eigenvalue-sign cuts of isotropy_dimension, on s scaled to max 1
_CONE_POINT_TOL = 1e-8
_SYMPLECTIC_TOL = 1e-10


def cayley(algebra: al.AlgebraDescriptor, z):
    """γ(z) = (z − e) ∘ (z + e)⁻¹, defined where z + e is invertible."""
    z = al.as_element(algebra, z)
    e = al.unit(algebra)
    return al.jordan_product(algebra, z - e, al.jordan_inverse(algebra, z + e))


def inverse_cayley(algebra: al.AlgebraDescriptor, w):
    """γ⁻¹(w) = (e + w) ∘ (e − w)⁻¹."""
    w = al.as_element(algebra, w)
    e = al.unit(algebra)
    return al.jordan_product(algebra, e + w, al.jordan_inverse(algebra, e - w))


def spin_to_ball(z):
    """Coordinate twist identifying the spin Cayley image with the Lie ball."""
    out = np.array(z, dtype=complex)
    out[1:] *= 1j
    return out


def ball_to_spin(w):
    out = np.array(w, dtype=complex)
    out[1:] *= -1j
    return out


@dataclass
class LieBallPoint:
    """ℂ^m coordinates with the two forms (z|z) and ⟨z,z⟩ computed from them,
    on z·2^-k below 2^500 and scaled back: one past the float range is inf."""

    coords: np.ndarray
    hermitian: float = field(init=False)
    bilinear: complex = field(init=False)

    def __post_init__(self):
        self.coords = np.atleast_1d(np.asarray(self.coords, dtype=complex))
        if self.coords.ndim != 1 or self.coords.size == 0:
            raise DimensionMismatch("Lie ball point must be a nonempty vector")
        require_finite(self.coords, "Lie ball point")
        z, k = al.below_2_500(self.coords)
        x, y = z.real, z.imag
        # (x - y)(x + y), not x² - y²: a cancelling pair gives exactly 0
        b = complex(np.sum((x - y) * (x + y)), 2 * np.sum(x * y))
        with np.errstate(over="ignore"):
            self.hermitian = float(np.ldexp(np.real(np.vdot(z, z)), 2 * k))
            self.bilinear = complex(np.ldexp(b.real, 2 * k), np.ldexp(b.imag, 2 * k))


def lie_ball_membership(z) -> str:
    """Classify against D = {(z|z) + sqrt((z|z)² − |⟨z,z⟩|²) < 1}.

    The Shilov stratum (z|z) = |⟨z,z⟩| = 1 is tested first since it also
    satisfies q = 1; the rest of q = 1 is the smooth boundary stratum. As
    q ≥ (z|z), a point with (z|z) ≥ 1 + tol is exterior before h² is formed.
    """
    point = z if isinstance(z, LieBallPoint) else LieBallPoint(z)
    h = point.hermitian
    if h - 1.0 >= _STRATUM_TOL:
        return EXTERIOR
    babs = abs(point.bilinear)
    q = h + np.sqrt(max(h * h - babs * babs, 0.0))
    if abs(h - 1.0) < _STRATUM_TOL and abs(babs - 1.0) < _STRATUM_TOL:
        return SHILOV
    if abs(q - 1.0) < _STRATUM_TOL:
        return SMOOTH_BOUNDARY
    if q < 1.0 - _STRATUM_TOL:
        return INTERIOR
    return EXTERIOR


def _block_size(r) -> int:
    r = read_int(r, "block size r", DimensionMismatch)
    if r < 1:
        raise DimensionMismatch(f"block size r must be >= 1, got {r}")
    return r


def symplectic_form(r: int) -> np.ndarray:
    """J = (0, e; −e, 0) in r×r blocks."""
    r = _block_size(r)
    return np.block([[np.zeros((r, r)), np.eye(r)], [-np.eye(r), np.zeros((r, r))]])


def symplectic_lie_algebra_basis(r: int) -> np.ndarray:
    """Basis of sp(r, ℝ): blocks (α, β; γ, −αᵀ) with β, γ symmetric."""
    r = _block_size(r)
    basis = []
    for i in range(r):
        for j in range(r):
            X = np.zeros((2 * r, 2 * r))
            X[i, j] = 1.0
            X[r + j, r + i] = -1.0
            basis.append(X)
    for i in range(r):
        for j in range(i, r):
            B = np.zeros((2 * r, 2 * r))
            B[i, r + j] = B[j, r + i] = 1.0
            basis.append(B)
            C = np.zeros((2 * r, 2 * r))
            C[r + i, j] = C[r + j, i] = 1.0
            basis.append(C)
    return np.stack(basis)


def _symplectic_residual(A: np.ndarray, k: np.ndarray):
    """|AᵀJA − J| and its rounding scale |A|ᵀ|J||A| + |J|, formed on the
    columns of A scaled by 2^-k, so that entry (i, j) is scaled by 2^-k_i-k_j."""
    J = symplectic_form(len(A) // 2)
    A, Jk = np.ldexp(A, -k), np.ldexp(J, -np.add.outer(k, k))
    return np.abs(A.T @ J @ A - Jk), np.abs(A).T @ np.abs(J) @ np.abs(A) + np.abs(Jk)


def _check_symplectic(A: np.ndarray) -> int:
    """r for a 2r x 2r A with |AᵀJA − J| ≤ tol (|A|ᵀ|J||A| + |J|) entrywise.

    An entry whose products pass the float range is formed again on columns
    scaled below 2^500; its scale, ≥ 2^-24 there, dwarfs any underflow loss.
    """
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] % 2 or not A.size:
        raise NotSymplectic(f"matrix shape {A.shape} is not 2r x 2r with r >= 1")
    with np.errstate(over="ignore", invalid="ignore"):
        resid, scale = _symplectic_residual(A, np.zeros(len(A), dtype=int))
    over = ~np.isfinite(scale)
    k = np.maximum(np.frexp(np.abs(A).max(axis=0))[1] - 500, 0)
    resid[over], scale[over] = (x[over] for x in _symplectic_residual(A, k))
    excess = resid - _SYMPLECTIC_TOL * scale
    i, j = np.unravel_index(np.argmax(excess), excess.shape)
    if excess[i, j] > 0:
        raise NotSymplectic(f"entry ({i}, {j}) of A^T J A - J is "
                            f"{resid[i, j] / scale[i, j]:.2e} of its rounding scale")
    return len(A) // 2


def siegel_action(A, z):
    """Möbius action A(z) = (az + b)(cz + d)⁻¹ on the Siegel half space.

    z is a complex symmetric r×r matrix; when its imaginary part is
    positive definite the image stays in the half space and that is
    verified on the result. It runs on z·2^-k and w·2^-m below 2^500 (see
    ``algebra.below_2_500``); an image past the float range raises.
    """
    A = read_real(A, "symplectic matrix")
    z = require_finite(np.asarray(z, dtype=complex), "Siegel point")
    r = _check_symplectic(A)
    if z.shape != (r, r):
        raise DimensionMismatch(f"point shape {z.shape}, expected {(r, r)}")
    z, k = al.below_2_500(z)
    if np.linalg.norm(z - z.T) > 1e-8 * max(2.0 ** -k, np.linalg.norm(z)):
        raise DimensionMismatch("Siegel point must be a symmetric matrix")
    a, b = A[:r, :r], A[:r, r:] * 2.0 ** -k
    c, d = A[r:, :r], A[r:, r:] * 2.0 ** -k
    denom = c @ z + d
    try:
        sv = np.linalg.svd(denom, compute_uv=False)
        # relative to sv[0] alone: at A = J, cz + d = -z is fine at any scale
        if sv[-1] <= 1e-12 * sv[0]:
            raise SingularDenominator(
                f"cz + d has smallest singular value {sv[-1]:.2e}")
        w = np.linalg.solve(denom.T, (a @ z + b).T).T
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"Möbius action solve failed: {exc}") from exc
    if not np.all(np.isfinite(w)):
        raise NumericalFailure("the Möbius image passes the float range")
    w, m = al.below_2_500(w)
    w = 0.5 * (w + w.T)
    if np.all(np.linalg.eigvalsh((z - z.conj().T) / 2j) > 0):  # z is in the half space
        lo = np.min(np.linalg.eigvalsh((w - w.conj().T) / 2j))
        scale = max(2.0 ** -m, np.linalg.norm(w))
        if lo < -1e-9 * scale:
            raise NumericalFailure(
                f"image left the Siegel half space (min imag eigenvalue "
                f"{lo / scale:.2e} of max(1, |w|))")
    return np.ldexp(w.view(float), m).view(complex)


def isotropy_dimension(s) -> int:
    """Nullity of {X ∈ sp(r,ℝ) : αs + sαᵀ = 0, β + sγs = 0} at a cone point.

    These are the linearized stabilizer equations of the boundary point s
    under the Siegel Möbius action; s must be a nonzero rank-deficient
    positive semidefinite symmetric matrix (a proper cone boundary point).
    The nullity is invariant under s ↦ t·s but the rows mix s and s² terms,
    so s is divided by its largest entry before the rank decision.
    """
    s = read_real(s, "cone boundary point")
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise NotInLightCone(f"expected a square matrix, got shape {s.shape}")
    r = s.shape[0]
    scale = np.max(np.abs(s), initial=0.0)
    if scale == 0:
        raise NotInLightCone("zero matrix is not a cone boundary point")
    s = s / scale
    if np.linalg.norm(s - s.T) > _CONE_POINT_TOL:
        raise NotInLightCone("matrix is not symmetric")
    eig = np.linalg.eigvalsh(s)
    if eig[0] < -_CONE_POINT_TOL:
        raise NotInLightCone(f"matrix has a negative eigenvalue {eig[0] * scale:.2e}")
    if eig[0] > _CONE_POINT_TOL:
        raise NotInLightCone("matrix has full rank, interior cone point")
    basis = symplectic_lie_algebra_basis(r)
    m = len(basis)
    alpha, beta, gamma = basis[:, :r, :r], basis[:, :r, r:], basis[:, r:, :r]
    c1 = alpha @ s + s @ alpha.transpose(0, 2, 1)
    c2 = beta + s @ gamma @ s
    return m - al.numeric_rank_only(
        np.concatenate([c1.reshape(m, -1), c2.reshape(m, -1)], axis=1))
