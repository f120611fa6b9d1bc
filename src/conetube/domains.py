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
    z = np.asarray(z, dtype=complex)
    out = z.copy()
    out[1:] = 1j * z[1:]
    return out


def ball_to_spin(w):
    w = np.asarray(w, dtype=complex)
    out = w.copy()
    out[1:] = -1j * w[1:]
    return out


@dataclass
class LieBallPoint:
    """ℂ^m coordinates with the two forms (z|z) and ⟨z,z⟩ computed from them."""

    coords: np.ndarray
    hermitian: float = field(init=False)
    bilinear: complex = field(init=False)

    def __post_init__(self):
        self.coords = np.atleast_1d(np.asarray(self.coords, dtype=complex))
        if self.coords.ndim != 1 or self.coords.size == 0:
            raise DimensionMismatch("Lie ball point must be a nonempty vector")
        require_finite(self.coords, "Lie ball point")
        self.hermitian = float(np.real(np.vdot(self.coords, self.coords)))
        self.bilinear = complex(np.sum(self.coords ** 2))


def lie_ball_membership(z) -> str:
    """Classify against D = {(z|z) + sqrt((z|z)² − |⟨z,z⟩|²) < 1}.

    The Shilov stratum (z|z) = |⟨z,z⟩| = 1 is tested first since it also
    satisfies q = 1; the rest of q = 1 is the smooth boundary stratum.
    """
    point = z if isinstance(z, LieBallPoint) else LieBallPoint(z)
    h = point.hermitian
    babs = abs(point.bilinear)
    q = h + np.sqrt(max(h * h - babs * babs, 0.0))
    if abs(h - 1.0) < _STRATUM_TOL and abs(babs - 1.0) < _STRATUM_TOL:
        return SHILOV
    if abs(q - 1.0) < _STRATUM_TOL:
        return SMOOTH_BOUNDARY
    if q < 1.0 - _STRATUM_TOL:
        return INTERIOR
    return EXTERIOR


def symplectic_form(r: int) -> np.ndarray:
    """J = (0, e; −e, 0) in r×r blocks."""
    J = np.zeros((2 * r, 2 * r))
    J[:r, r:] = np.eye(r)
    J[r:, :r] = -np.eye(r)
    return J


def symplectic_lie_algebra_basis(r: int) -> np.ndarray:
    """Basis of sp(r, ℝ): blocks (α, β; γ, −αᵀ) with β, γ symmetric."""
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


def _check_symplectic(A: np.ndarray) -> int:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] % 2 or not A.size:
        raise NotSymplectic(f"matrix shape {A.shape} is not 2r x 2r with r >= 1")
    r = A.shape[0] // 2
    J = symplectic_form(r)
    resid = np.linalg.norm(A.T @ J @ A - J)
    scale = max(1.0, np.linalg.norm(A) ** 2)
    if resid > _SYMPLECTIC_TOL * scale:
        raise NotSymplectic(f"A^T J A - J has norm {resid:.2e}")
    return r


def siegel_action(A, z):
    """Möbius action A(z) = (az + b)(cz + d)⁻¹ on the Siegel half space.

    z is a complex symmetric r×r matrix; when its imaginary part is
    positive definite the image stays in the half space and that is
    verified on the result.
    """
    A = require_finite(np.asarray(A, dtype=float), "symplectic matrix")
    z = require_finite(np.asarray(z, dtype=complex), "Siegel point")
    r = _check_symplectic(A)
    if z.shape != (r, r):
        raise DimensionMismatch(f"point shape {z.shape}, expected {(r, r)}")
    if np.linalg.norm(z - z.T) > 1e-8 * max(1.0, np.linalg.norm(z)):
        raise DimensionMismatch("Siegel point must be a symmetric matrix")
    a, b = A[:r, :r], A[:r, r:]
    c, d = A[r:, :r], A[r:, r:]
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
    w = 0.5 * (w + w.T)
    input_upper = np.all(np.linalg.eigvalsh((z - z.conj().T) / 2j) > 0)
    if input_upper:
        lo = np.min(np.linalg.eigvalsh((w - w.conj().T) / 2j))
        if lo < -1e-9 * max(1.0, np.linalg.norm(w)):
            raise NumericalFailure(
                f"image left the Siegel half space (min imag eigenvalue {lo:.2e})")
    return w


def isotropy_dimension(s) -> int:
    """Nullity of {X ∈ sp(r,ℝ) : αs + sαᵀ = 0, β + sγs = 0} at a cone point.

    These are the linearized stabilizer equations of the boundary point s
    under the Siegel Möbius action; s must be a nonzero rank-deficient
    positive semidefinite symmetric matrix (a proper cone boundary point).
    The nullity is invariant under s ↦ t·s but the rows mix s and s² terms,
    so s is divided by its largest entry before the rank decision.
    """
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise NotInLightCone(f"expected a square matrix, got shape {s.shape}")
    require_finite(s, "cone boundary point")
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
