"""CR geometry of tube manifolds M = C_{p,q} ⊕ iV over cone orbits.

C_{p,q} is the set of elements with p positive and q negative eigenvalues.
Every orbit is represented by the canonical base point

    a = Σ_{j<=p} j e_j  -  Σ_{k<=q} (p + k + 1/2) e_{p+k}

over the standard frame: its eigenvalues are pairwise distinct where nonzero
and no two of them cancel, so L(a) is invertible on the holomorphic tangent
space (condition that makes the closed Levi form below well defined).

With ρ = p + q and the joint Peirce blocks of the base point, the complex
Peirce spaces are E_1 (both indices nonzero), E_{1/2} (exactly one nonzero)
and E_0 (both zero); then

* T_aC = V_1 ⊕ V_{1/2} and H_aM = E_1 ⊕ E_{1/2},
* Levi form Λ_a(v, w) = E_0-component of v* ∘ (L(a)|_H)^{-1} w,
* Levi kernel = E_1, computed here as a numeric nullspace,
* β(v, u) = P(a, v*) (P(a)|_{E_1})^{-1} u for v in E_{1/2}, u in E_1,

and the kernel chain H⁰ ⊃ H¹ ⊃ H² … decides the nondegeneracy order. All
subspace bases returned are orthonormal with respect to the trace form.

Every rank here is decided by ``algebra.numeric_rank`` on one dense
matrix built by a single contraction over those bases, not pair by pair.
With T the structure tensor, B_H and B_0 the bases of H_aM and E_0 and G
the trace Gram matrix, the Levi matrix is T contracted with the E_0
coordinate rows B_0 G Π_E0, then with conj B_H and L(a)|_H^{-1} B_H; the
β matrix stacks P(a, v*) over the E_{1/2} basis and applies it to
(P(a)|_{E_1})^{-1} of the kernel rows. ``levi_form`` and ``beta_map`` stay
the validated single-pair functions and the tests' oracles for both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import algebra as al
from . import spectral as sp
from .errors import (
    BlockViolation,
    ConditionStarViolated,
    InvalidSignature,
    NotInHolomorphicTangent,
    NumericalFailure,
)

MEMBERSHIP_TOL = 1e-8


@dataclass
class SubspaceBasis:
    """Rows span a subspace of E; rows are orthonormal for the trace form."""

    label: str
    vectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]


@dataclass
class TubeOrbit:
    """Canonical base point of C_{p,q} with all Peirce machinery cached."""

    algebra: al.AlgebraDescriptor
    p: int
    q: int
    base_point: np.ndarray
    eigenvalues: np.ndarray
    frame: np.ndarray
    joint: sp.JointPeirceData
    support: np.ndarray
    pi_e1: np.ndarray
    pi_half: np.ndarray
    pi_e0: np.ndarray
    linv_h: np.ndarray
    pinv_e1: np.ndarray
    basis_h: np.ndarray = field(repr=False)
    basis_e1: np.ndarray = field(repr=False)
    basis_half: np.ndarray = field(repr=False)
    basis_e0: np.ndarray = field(repr=False)

    @property
    def rho(self) -> int:
        return self.p + self.q

    @property
    def rho_prime(self) -> int:
        return self.algebra.rank - self.rho


@dataclass
class NondegeneracyResult:
    """Kernel chain outcome; ``order`` is None when the chain never dies."""

    order: int | None
    finitely_nondegenerate: bool
    chain_dims: list[int]
    note: str | None = None


def condition_star_holds(eigenvalues, tol: float = 1e-10) -> bool:
    """True when λ_j + λ_k = 0 only happens with λ_j = λ_k = 0."""
    lam = np.asarray(eigenvalues, dtype=float)
    scale = max(1.0, float(np.max(np.abs(lam))) if lam.size else 1.0)
    for j in range(len(lam)):
        for k in range(j, len(lam)):
            if abs(lam[j] + lam[k]) <= tol * scale:
                if abs(lam[j]) > tol * scale or abs(lam[k]) > tol * scale:
                    return False
    return True


def _gram_orthonormal_rows(algebra, projector, expected_dim):
    """Trace-form-orthonormal rows spanning the range of a real projector."""
    chol = np.linalg.cholesky(al.trace_gram(algebra))
    rank, vh = al.numeric_rank((chol.T @ projector).T)
    if rank != expected_dim:
        raise NumericalFailure(
            f"projector rank {rank} differs from the block dimension {expected_dim}")
    return np.linalg.solve(chol.T, vh[:rank].T).T


def cr_dimensions(algebra: al.AlgebraDescriptor, p: int, q: int) -> dict:
    """Closed-form CR dimension, codimension and Levi kernel dimension."""
    r, n = algebra.rank, algebra.peirce_constant
    if p < 0 or q < 0 or p + q > r:
        raise InvalidSignature(f"(p, q) = ({p}, {q}) exceeds rank {r}")
    rho = p + q
    rho_p = r - rho
    return {
        "crdim": rho + math.comb(rho, 2) * n + rho * rho_p * n,
        "crcodim": rho_p + math.comb(rho_p, 2) * n,
        "levi_kernel_dim": rho + math.comb(rho, 2) * n,
    }


def make_orbit(algebra: al.AlgebraDescriptor, p: int, q: int,
               tol: float = sp.SPECTRAL_TOL) -> TubeOrbit:
    """Build the canonical base point of C_{p,q} and cache its Peirce data."""
    r = algebra.rank
    if p < 0 or q < 0 or p + q > r:
        raise InvalidSignature(f"(p, q) = ({p}, {q}) exceeds rank {r}")
    frame = al.standard_frame(algebra)
    lam = np.zeros(r)
    lam[:p] = np.arange(1, p + 1, dtype=float)
    lam[p:p + q] = -(p + 1.5 + np.arange(q, dtype=float))
    order = np.argsort(lam, kind="stable")[::-1]
    lam, frame = lam[order], frame[order]
    if not condition_star_holds(lam):
        raise ConditionStarViolated(f"base point eigenvalues {lam} cancel pairwise")
    a = lam @ frame

    joint = sp.joint_peirce(algebra, frame, tol=tol)
    nonzero = lam != 0.0
    dim = algebra.dim
    pi_e1 = np.zeros((dim, dim))
    pi_half = np.zeros((dim, dim))
    pi_e0 = np.zeros((dim, dim))
    linv_h = np.zeros((dim, dim))
    pinv_e1 = np.zeros((dim, dim))
    for (j, k), pjk in joint.projections.items():
        if nonzero[j] and nonzero[k]:
            pi_e1 += pjk
            linv_h += 2.0 / (lam[j] + lam[k]) * pjk
            pinv_e1 += 1.0 / (lam[j] * lam[k]) * pjk
        elif nonzero[j] or nonzero[k]:
            pi_half += pjk
            nz = lam[j] if nonzero[j] else lam[k]
            linv_h += 2.0 / nz * pjk
        else:
            pi_e0 += pjk
    support = frame[nonzero].sum(axis=0) if np.any(nonzero) else np.zeros(dim)

    dims = cr_dimensions(algebra, p, q)
    d_e1 = dims["levi_kernel_dim"]
    d_half = dims["crdim"] - d_e1
    d_e0 = dims["crcodim"]
    basis_e1 = _gram_orthonormal_rows(algebra, pi_e1, d_e1)
    basis_half = _gram_orthonormal_rows(algebra, pi_half, d_half)
    basis_e0 = _gram_orthonormal_rows(algebra, pi_e0, d_e0)
    basis_h = np.vstack([basis_e1, basis_half]) if d_e1 + d_half else np.zeros((0, dim))

    orbit = TubeOrbit(algebra, p, q, a, lam, frame, joint, support,
                      pi_e1, pi_half, pi_e0, linv_h, pinv_e1,
                      basis_h, basis_e1, basis_half, basis_e0)
    sig = sp.orbit_signature(algebra, a) if p + q else sp.Signature(0, 0)
    if (sig.p, sig.q) != (p, q):
        raise NumericalFailure(f"constructed base point classifies as {sig}")
    return orbit


def tangent_data(orbit: TubeOrbit) -> dict[str, SubspaceBasis]:
    """Trace-orthonormal bases of T_aC (real), H_aM (complex) and E_0."""
    return {
        "T_aC": SubspaceBasis("T_aC", orbit.basis_h.copy()),
        "H_aM": SubspaceBasis("H_aM", orbit.basis_h.astype(complex)),
        "E_0": SubspaceBasis("E_0", orbit.basis_e0.astype(complex)),
    }


def _check_rows_in_subspace(rows, projector, tol, error, what):
    """Raise ``error`` unless every row lies in the range of ``projector``."""
    resid = np.linalg.norm(rows - rows @ projector.T, axis=1)
    bad = np.flatnonzero(resid > tol * np.maximum(1.0, np.linalg.norm(rows, axis=1)))
    if bad.size:
        i = bad[0]
        raise error(f"{what}, row {i}: residual {resid[i]:.2e} "
                    f"outside tolerance {tol:.1e}")
    return rows


def _check_in_subspace(orbit, v, projector, tol, error, what):
    """:func:`_check_rows_in_subspace` for one element, coerced first."""
    v = al.as_element(orbit.algebra, v)
    return _check_rows_in_subspace(v[None], projector, tol, error, what)[0]


def levi_form(orbit: TubeOrbit, v, w, tol: float = MEMBERSHIP_TOL) -> np.ndarray:
    """Λ_a(v, w) = E_0-part of v* ∘ (L(a)|_H)^{-1} w.

    Conjugate linear in v, complex linear in w; both arguments must lie in
    H_aM = E_1 ⊕ E_{1/2}. The value represents the class mod H_aM through
    the identification E/H_aM ≅ E_0.
    """
    pi_h = orbit.pi_e1 + orbit.pi_half
    v = _check_in_subspace(orbit, v, pi_h, tol, NotInHolomorphicTangent,
                           "first Levi argument")
    w = _check_in_subspace(orbit, w, pi_h, tol, NotInHolomorphicTangent,
                           "second Levi argument")
    u = orbit.linv_h @ w
    val = al.jordan_product(orbit.algebra, np.conj(v), u)
    return orbit.pi_e0 @ val


def _levi_matrix(orbit: TubeOrbit) -> np.ndarray:
    """Λ_a on every pair of H_aM basis rows, as one (m·m0, m) matrix.

    Entry [i·m0 + k, j] is the k-th E_0 coordinate of Λ_a(h_i, h_j), the
    same number :func:`levi_form` gives for that pair.
    """
    algebra = orbit.algebra
    basis_h = _check_rows_in_subspace(orbit.basis_h, orbit.pi_e1 + orbit.pi_half,
                                      MEMBERSHIP_TOL, NotInHolomorphicTangent,
                                      "Levi argument")
    m, m0 = basis_h.shape[0], orbit.basis_e0.shape[0]
    coord = orbit.basis_e0 @ al.trace_gram(algebra) @ orbit.pi_e0
    t_e0 = al.multiplication_table(algebra) @ coord.T  # (d, d, m0)
    left = np.tensordot(np.conj(basis_h), t_e0, axes=(1, 0))  # (m, d, m0)
    right = basis_h @ orbit.linv_h.T  # rows (L(a)|_H)^{-1} h_j
    return (left.transpose(0, 2, 1) @ right.T).reshape(m * m0, m)


def levi_kernel(orbit: TubeOrbit) -> SubspaceBasis:
    """Numeric nullspace of the Levi form on H_aM (no block shortcut).

    The Levi form on all basis pairs is one contraction of the structure
    tensor (see :func:`_levi_matrix`); the kernel is its nullspace from
    ``algebra.numeric_rank``.
    """
    basis_h = orbit.basis_h
    if basis_h.shape[0] == 0:
        return SubspaceBasis("levi_kernel", np.zeros((0, orbit.algebra.dim), dtype=complex))
    if orbit.basis_e0.shape[0] == 0:
        return SubspaceBasis("levi_kernel", basis_h.astype(complex))
    rank, vh = al.numeric_rank(_levi_matrix(orbit))
    return SubspaceBasis("levi_kernel", (vh.conj()[rank:] @ basis_h).astype(complex))


def beta_map(orbit: TubeOrbit, v, u, tol: float = MEMBERSHIP_TOL) -> np.ndarray:
    """β(v, u) = P(a, v*) (P(a)|_{E_1})^{-1} u, antilinear in v.

    v must lie in E_{1/2} and u in E_1; the value lies in E_{1/2} again.
    """
    v = _check_in_subspace(orbit, v, orbit.pi_half, tol, BlockViolation,
                           "beta first argument (E_1/2)")
    u = _check_in_subspace(orbit, u, orbit.pi_e1, tol, BlockViolation,
                           "beta second argument (E_1)")
    w = orbit.pinv_e1 @ u
    return al.pquad(orbit.algebra, orbit.base_point, np.conj(v)) @ w


def _beta_matrix(orbit: TubeOrbit, kernel: np.ndarray) -> np.ndarray:
    """β on every pair (E_{1/2} basis row, kernel row), as one (h·d, k) matrix.

    Entry [i·d + c, j] is coordinate c of β(half_i, kernel_j), the same
    number :func:`beta_map` gives for that pair.
    """
    algebra = orbit.algebra
    half = _check_rows_in_subspace(orbit.basis_half, orbit.pi_half,
                                   MEMBERSHIP_TOL, BlockViolation,
                                   "beta first argument (E_1/2)")
    kernel = _check_rows_in_subspace(kernel, orbit.pi_e1, MEMBERSHIP_TOL,
                                     BlockViolation, "beta second argument (E_1)")
    ops = al._lmul_basis(algebra)
    a = orbit.base_point
    v_star = np.conj(half)
    l_a = al.lmul(algebra, a)
    l_v = np.tensordot(v_star, ops, axes=(1, 0))  # (h, d, d): L(v_i*)
    a_v = v_star @ np.tensordot(a, al.multiplication_table(algebra), axes=(0, 0))
    # P[i] = P(a, v_i*) = L(a)L(v_i*) + L(v_i*)L(a) - L(a∘v_i*)
    P = l_a @ l_v + l_v @ l_a - np.tensordot(a_v, ops, axes=(1, 0))
    w = kernel @ orbit.pinv_e1.T  # rows (P(a)|_{E_1})^{-1} u_j
    return (P @ w.T).reshape(half.shape[0] * algebra.dim, kernel.shape[0])


def nondegeneracy_order(orbit: TubeOrbit) -> NondegeneracyResult:
    """Kernel chain H⁰ = H_aM ⊃ H¹ = Levi kernel ⊃ H² = right β-kernel ⊃ …

    Each step past the Levi kernel builds β on all pairs of E_{1/2} basis
    rows and current kernel rows as one contraction (see :func:`_beta_matrix`)
    and keeps its nullspace from ``algebra.numeric_rank``. Returns the first
    k with H^k = 0. By convention the totally real orbit (ρ = 0) has order
    0; when the chain stabilises at a nonzero dimension (the open orbit)
    the result carries ``order = None``.
    """
    if orbit.rho == 0:
        return NondegeneracyResult(0, True, [0],
                                   "totally real: order 0 by convention")
    chain = [orbit.basis_h.shape[0]]
    kernel = levi_kernel(orbit).vectors
    chain.append(kernel.shape[0])
    while chain[-1] > 0:
        if chain[-1] == chain[-2]:
            note = ("open orbit: NotFinitelyNondegenerate by convention"
                    if orbit.rho_prime == 0 else
                    "kernel chain stabilised at nonzero dimension")
            return NondegeneracyResult(None, False, chain, note)
        if orbit.basis_half.shape[0]:
            rank, vh = al.numeric_rank(_beta_matrix(orbit, kernel))
            kernel = vh.conj()[rank:] @ kernel
        chain.append(kernel.shape[0])
    return NondegeneracyResult(len(chain) - 1, True, chain)


def minimality_check(orbit: TubeOrbit) -> bool:
    """Bracket-generation test: do HM-sections span T_aM = T_aC ⊕ iV at a?

    Sections ξ_v(z) = Re(z) ∘ v are tangent to M and span H near a for v
    ranging over E, and they stay linear in Re z under brackets, so each
    round only produces fields z ↦ Φ Re(z) with Φ a complex matrix. The
    loop adds bracket values while the real span of values at the base
    point grows; it stops at the target dimension (minimal) or at a fixed
    point below it (not minimal). The span is kept as ``numeric_rank``'s
    orthonormal rows, and each round stacks only its new values onto them.
    """
    algebra = orbit.algebra
    dim = algebra.dim
    a = orbit.base_point
    target = dim + orbit.basis_h.shape[0]

    ops = al._lmul_basis(algebra)
    gens = np.concatenate([ops, 1j * ops])  # L(b_i), L(i b_i)

    def real_rows(values):
        return np.concatenate([values.real, values.imag], axis=1)

    rank, span = al.numeric_rank(real_rows(gens @ a))
    if rank >= target:
        return True

    fields = gens
    for _ in range(2 * dim):
        real_actions = np.einsum("gab,b->ga", fields.real, a)
        applied = np.einsum("hab,gb->gha", gens, real_actions)
        applied_sym = np.einsum("gab,hb->gha", fields, (gens.real @ a))
        new_vals = (applied - applied_sym).reshape(-1, dim)
        new_rank, span = al.numeric_rank(
            np.concatenate([span[:rank], real_rows(new_vals)]))
        if new_rank >= target:
            return True
        if new_rank == rank:
            return False
        rank = new_rank
        if gens.shape[0] * fields.shape[0] > 20000:
            raise NumericalFailure("bracket generation exceeded the field budget")
        # deepen: next round brackets generators against the new fields
        new_fields = (np.einsum("hab,gbc->ghac", gens, fields.real)
                      - np.einsum("gab,hbc->ghac", fields, gens.real))
        fields = new_fields.reshape(-1, dim, dim)
    raise NumericalFailure("minimality loop failed to stabilise")


def aut_germ_dimension(algebra: al.AlgebraDescriptor, p: int, q: int) -> int:
    """Dimension of the infinitesimal CR automorphisms of the orbit tube germ.

    Only defined for degenerate nonzero signatures 0 < p + q < rank.
    """
    r, n = algebra.rank, algebra.peirce_constant
    rho = p + q
    if not 0 < rho < r:
        raise InvalidSignature(
            f"germ dimension needs 0 < p + q < rank, got ({p}, {q}) at rank {r}")
    rho_p = r - rho
    if algebra.family == "albert":
        # 79 = dim of the cone's linear automorphism algebra on H_3(O);
        # equals 72 + 8 rho' in the hypersurface case rho' = 1
        return 79 + rho_p + 8 * math.comb(rho_p, 2)
    return n * (r * r + math.comb(rho_p, 2) - 2) + math.comb(n, 2) + rho_p + 2


def aut1_basis(orbit: TubeOrbit) -> list:
    """Weight-one fields i{zvz}∂_z with v in V_0; count equals CR codim."""
    if not 0 < orbit.rho < orbit.algebra.rank:
        raise InvalidSignature("weight-one stabiliser basis needs 0 < rho < rank")
    from .fields import GradedField
    dim = orbit.algebra.dim
    out = []
    for row in orbit.basis_e0:
        out.append(GradedField(u=np.zeros(dim), A=np.zeros((dim, dim)),
                               w=row.real.copy()))
    return out
