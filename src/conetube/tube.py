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
The standard frame's π_jk, and a basis of each V_jk, are stacked once per
algebra, m = r(r+1)/2 of each; the three block projectors and both inverses
are one contraction of five weight rows with the (m, dim, dim) table, and
the block bases are picked from the rows (see ``make_orbit``).

Every rank here is decided by ``algebra.numeric_rank`` on dense matrices
built by single contractions over those bases, not pair by pair.
With T the structure tensor, B_H and B_0 the bases of H_aM and E_0 and G
the trace Gram matrix, the Levi matrix is T contracted with the E_0
coordinate rows B_0 G, then with conj B_H and L(a)|_H^{-1} B_H; the
β matrix stacks P(a, v*) over the E_{1/2} basis and applies it to
(P(a)|_{E_1})^{-1} of the kernel rows. ``levi_form`` and ``beta_map`` stay
the validated single-pair functions and the tests' oracles for both.

A ``TubeOrbit`` is frozen and its arrays are read-only, so the batched
matrices use the blocks ``make_orbit`` built unchecked. Membership checks
remain on what comes from outside or from a rank decision: the arguments
of ``levi_form`` and ``beta_map``, and the kernel rows of ``_beta_matrix``.

Minimality needs no bracket generation: the brackets of HM-sections have
values gl(Ω)·a ⊕ i·𝒜a at a, with 𝒜 the associative algebra generated by
L(V) (see ``minimality_check``). At the base point the first equals L(V)·a,
the rank of the rows L(b_i)a; the second is the rank of the closure of
span{a} under every L(b_i), grown until it stops, which takes at most dim
passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import algebra as al
from . import spectral as sp
from .errors import (
    BlockViolation,
    InvalidSignature,
    NonFiniteInput,
    NotInHolomorphicTangent,
    NumericalFailure,
)

MEMBERSHIP_TOL = 1e-8


@dataclass(frozen=True)
class TubeOrbit:
    """Canonical base point of C_{p,q} with all Peirce machinery cached.

    Built only by :func:`make_orbit`. Frozen, and every array is the
    orbit's own read-only copy, so the Peirce blocks cannot drift from the
    base point; copy an array to change it.
    """

    algebra: al.AlgebraDescriptor
    p: int
    q: int
    base_point: np.ndarray
    eigenvalues: np.ndarray
    frame: np.ndarray
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


def condition_star_holds(eigenvalues) -> bool:
    """True when λ_j + λ_k = 0 only happens with λ_j = λ_k = 0."""
    lam = np.asarray(eigenvalues, dtype=float)
    if not np.all(np.isfinite(lam)):
        # NaN fails every comparison below and would read as "no pair cancels"
        raise NonFiniteInput("eigenvalue list has a NaN or infinite entry")
    cut = 1e-10 * np.max(np.abs(lam), initial=1.0)
    nonzero = np.abs(lam) > cut
    cancels = np.abs(np.add.outer(lam, lam)) <= cut
    return not np.any(cancels & (nonzero[:, None] | nonzero))


def _gram_orthonormal_rows(chol, projector, expected_dim):
    """Trace-form-orthonormal rows spanning the range of a real projector.

    ``chol`` is the Cholesky factor of the trace Gram matrix.
    """
    rank, vh = al.numeric_rank((chol.T @ projector).T)
    if rank != expected_dim:
        raise NumericalFailure(
            f"projector rank {rank} differs from the block dimension {expected_dim}")
    try:
        return np.linalg.solve(chol.T, vh[:rank].T).T
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"trace-orthonormal solve failed: {exc}") from exc


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


@lru_cache(maxsize=None)
def _standard_joint_peirce(algebra: al.AlgebraDescriptor):
    """Checked joint Peirce data of the standard frame, once per algebra.

    Returns read-only ``(frame, pairs, stack, rows, row_pair)``, shared by all
    callers: ``pairs`` is the (m, 2) array of the ``joint_peirce`` keys (j, k),
    in their order, ``stack[i]`` is π_jk of ``pairs[i]``, and the ``rows`` with
    ``row_pair == i`` are a trace-orthonormal basis of its V_jk (the V_jk are
    mutually trace-orthogonal).
    """
    joint = sp.joint_peirce(algebra, al.standard_frame(algebra))
    pairs = np.array(list(joint.projections))
    stack = np.stack(list(joint.projections.values()))
    dims = np.where(pairs[:, 0] == pairs[:, 1], 1, algebra.peirce_constant)
    try:
        chol = np.linalg.cholesky(al.trace_gram(algebra))
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"trace Gram factorisation failed: {exc}") from exc
    rows = np.vstack([_gram_orthonormal_rows(chol, pjk, d) for pjk, d in zip(stack, dims)])
    row_pair = np.repeat(np.arange(len(pairs)), dims)
    for arr in (joint.frame, pairs, stack, rows, row_pair):
        arr.flags.writeable = False
    return joint.frame, pairs, stack, rows, row_pair


def make_orbit(algebra: al.AlgebraDescriptor, p: int, q: int) -> TubeOrbit:
    """Build the canonical base point of C_{p,q} and cache its Peirce data.

    The standard frame's joint Peirce projections and per-pair bases are
    built and checked once per algebra. V_jk lies in E_1, E_{1/2} or E_0 as
    two, one or none of λ_j, λ_k are nonzero; on it L(a) acts as
    (λ_j + λ_k)/2 and P(a) as λ_j λ_k. So one contraction of five weight rows
    over the pairs with the stacked π_jk gives π_E1, π_½, π_E0, (L(a)|_H)^{-1}
    and (P(a)|_{E_1})^{-1}, and each block's basis is the rows of its pairs.
    No factorisation or spectral check runs per call: the base point
    satisfies condition * and has signature (p, q) by construction. Every
    array stored is marked read-only in a frozen orbit.
    """
    cr_dimensions(algebra, p, q)  # raises InvalidSignature for a bad (p, q)
    standard, pairs, stack, rows, row_pair = _standard_joint_peirce(algebra)
    lam = np.zeros(algebra.rank)  # eigenvalues on the standard frame
    lam[:p] = np.arange(1, p + 1, dtype=float)
    lam[p:p + q] = -(p + 1.5 + np.arange(q, dtype=float))
    order = np.argsort(lam, kind="stable")[::-1]
    eigenvalues, frame = lam[order], standard[order]
    a = eigenvalues @ frame

    # the pairs {j, k} are unordered, so the standard frame's order serves
    # as well as the sorted one; with one λ zero, λ_j + λ_k is the other
    lam_jk = lam[pairs]
    nonzero = np.count_nonzero(lam_jk, axis=1)
    weights = np.zeros((5, len(pairs)))
    weights[:3] = nonzero == np.array([[2], [1], [0]])
    np.divide(2.0, lam_jk.sum(axis=1), out=weights[3], where=nonzero > 0)
    np.divide(1.0, lam_jk.prod(axis=1), out=weights[4], where=nonzero == 2)
    pi_e1, pi_half, pi_e0, linv_h, pinv_e1 = np.tensordot(weights, stack, axes=1)

    kind = nonzero[row_pair]  # boolean indexing copies: the bases are the orbit's own
    basis_e1, basis_half, basis_e0 = rows[kind == 2], rows[kind == 1], rows[kind == 0]
    basis_h = np.vstack([basis_e1, basis_half])
    arrays = (a, eigenvalues, frame, pi_e1, pi_half, pi_e0, linv_h, pinv_e1,
              basis_h, basis_e1, basis_half, basis_e0)
    for arr in arrays:
        arr.flags.writeable = False
    return TubeOrbit(algebra, p, q, *arrays)


def _check_rows_in_subspace(rows, projector, error, what):
    """Raise ``error`` unless every row lies in the range of ``projector``."""
    resid = np.linalg.norm(rows - rows @ projector.T, axis=1)
    scale = np.maximum(1.0, np.linalg.norm(rows, axis=1))
    bad = np.flatnonzero(resid > MEMBERSHIP_TOL * scale)
    if bad.size:
        i = bad[0]
        raise error(f"{what}, row {i}: residual {resid[i]:.2e} "
                    f"outside tolerance {MEMBERSHIP_TOL:.1e}")
    return rows


def _check_in_subspace(orbit, v, projector, error, what):
    """:func:`_check_rows_in_subspace` for one element, coerced first."""
    v = al.as_element(orbit.algebra, v)
    return _check_rows_in_subspace(v[None], projector, error, what)[0]


def levi_form(orbit: TubeOrbit, v, w) -> np.ndarray:
    """Λ_a(v, w) = E_0-part of v* ∘ (L(a)|_H)^{-1} w.

    Conjugate linear in v, complex linear in w; both arguments must lie in
    H_aM = E_1 ⊕ E_{1/2}. The value represents the class mod H_aM through
    the identification E/H_aM ≅ E_0.
    """
    pi_h = orbit.pi_e1 + orbit.pi_half
    v = _check_in_subspace(orbit, v, pi_h, NotInHolomorphicTangent,
                           "first Levi argument")
    w = _check_in_subspace(orbit, w, pi_h, NotInHolomorphicTangent,
                           "second Levi argument")
    u = orbit.linv_h @ w
    val = al.jordan_product(orbit.algebra, np.conj(v), u)
    return orbit.pi_e0 @ val


def _levi_matrix(orbit: TubeOrbit) -> np.ndarray:
    """Λ_a on every pair of H_aM basis rows, as one (m·m0, m) matrix.

    Entry [i·m0 + k, j] is the k-th E_0 coordinate of Λ_a(h_i, h_j), the
    same number :func:`levi_form` gives for that pair.
    """
    algebra, basis_h = orbit.algebra, orbit.basis_h
    m, m0 = basis_h.shape[0], orbit.basis_e0.shape[0]
    coord = orbit.basis_e0 @ al.trace_gram(algebra)
    t_e0 = al.multiplication_table(algebra) @ coord.T  # (d, d, m0)
    left = np.tensordot(np.conj(basis_h), t_e0, axes=(1, 0))  # (m, d, m0)
    right = basis_h @ orbit.linv_h.T  # rows (L(a)|_H)^{-1} h_j
    return (left.transpose(0, 2, 1) @ right.T).reshape(m * m0, m)


def levi_kernel(orbit: TubeOrbit) -> np.ndarray:
    """Numeric nullspace of the Levi form on H_aM (no block shortcut).

    The Levi form on all basis pairs is one contraction of the structure
    tensor (see :func:`_levi_matrix`); the kernel is its nullspace from
    ``algebra.numeric_rank``, returned as trace-orthonormal complex rows of
    shape (k, dim).
    """
    basis_h = orbit.basis_h
    if basis_h.shape[0] == 0:
        return np.zeros((0, orbit.algebra.dim), dtype=complex)
    if orbit.basis_e0.shape[0] == 0:
        return basis_h.astype(complex)
    rank, vh = al.numeric_rank(_levi_matrix(orbit))
    return (vh.conj()[rank:] @ basis_h).astype(complex)


def beta_map(orbit: TubeOrbit, v, u) -> np.ndarray:
    """β(v, u) = P(a, v*) (P(a)|_{E_1})^{-1} u, antilinear in v.

    v must lie in E_{1/2} and u in E_1; the value lies in E_{1/2} again.
    """
    v = _check_in_subspace(orbit, v, orbit.pi_half, BlockViolation,
                           "beta first argument (E_1/2)")
    u = _check_in_subspace(orbit, u, orbit.pi_e1, BlockViolation,
                           "beta second argument (E_1)")
    w = orbit.pinv_e1 @ u
    return al.pquad(orbit.algebra, orbit.base_point, np.conj(v)) @ w


def _beta_matrix(orbit: TubeOrbit, kernel: np.ndarray) -> np.ndarray:
    """β on every pair (E_{1/2} basis row, kernel row), as one (h·d, k) matrix.

    Entry [i·d + c, j] is coordinate c of β(half_i, kernel_j), the same
    number :func:`beta_map` gives for that pair.
    """
    algebra = orbit.algebra
    kernel = _check_rows_in_subspace(kernel, orbit.pi_e1, BlockViolation,
                                     "beta second argument (E_1)")
    ops = al._lmul_basis(algebra)
    v_star = np.conj(orbit.basis_half)
    l_a = al.lmul(algebra, orbit.base_point)
    l_v = np.tensordot(v_star, ops, axes=(1, 0))  # (h, d, d): L(v_i*)
    a_v = v_star @ l_a.T  # rows a∘v_i*
    # P[i] = P(a, v_i*) = L(a)L(v_i*) + L(v_i*)L(a) - L(a∘v_i*)
    P = l_a @ l_v + l_v @ l_a - np.tensordot(a_v, ops, axes=(1, 0))
    w = kernel @ orbit.pinv_e1.T  # rows (P(a)|_{E_1})^{-1} u_j
    return (P @ w.T).reshape(v_star.shape[0] * algebra.dim, kernel.shape[0])


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
    kernel = levi_kernel(orbit)
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
    """Do brackets of HM-sections span T_aM = T_aC ⊕ iV at a?

    Sections ξ_v(z) = Re(z) ∘ v span H near a, and every bracket of them is
    a field z ↦ (A + iB) Re z. The bracket Φ₂ Re Φ₁ − Φ₁ Re Φ₂ sends the
    pairs (A₁, B₁), (A₂, B₂) to (A₂A₁ − A₁A₂, B₂A₁ − B₁A₂), and the
    generators are (L(v), 0) and (0, L(v)). So the bracket algebra is
    (gl(Ω), 0) ⊕ (0, 𝒜), with gl(Ω) = L(V) + [L(V), L(V)] and 𝒜 the
    associative algebra generated by L(V) (it contains L(e) = I). Its values
    at a span gl(Ω)·a ⊕ i·𝒜a, where 𝒜a is the smallest L(V)-invariant
    subspace containing a: one rank for the first, a rank closure for the
    second.

    The first needs no commutators: L(V)·a = gl(Ω)·a at the canonical base
    point. Condition * makes L(a) invertible on T_aC = V₁ ⊕ V_{1/2}, and
    L(x)a = L(a)x, so L(V)·a = L(a)V = T_aC. And L(V)·a ⊆ gl(Ω)·a ⊆ T_aC,
    the tangent space of the orbit at a.
    """
    dim = orbit.algebra.dim
    table = al.multiplication_table(orbit.algebra)  # (x @ table)[i] = b_i ∘ x
    # rows L(b_i) a; their span is gl(Ω)·a, and also span{a} grown once
    real_rank, vh = al.numeric_rank(orbit.base_point @ table)
    closure_rank = real_rank
    while closure_rank < dim:  # the rank grows on every pass: at most dim passes
        grown, vh = al.numeric_rank((vh[:closure_rank] @ table).reshape(-1, dim))
        if grown <= closure_rank:
            break
        closure_rank = grown
    return real_rank + closure_rank >= dim + orbit.basis_h.shape[0]


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
