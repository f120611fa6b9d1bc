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
A basis of each of the m = r(r+1)/2 joint Peirce spaces V_jk of the
standard frame is stacked once per algebra; the block bases are picked
from these rows (see ``make_orbit``).

Every rank here is decided by ``algebra.numeric_rank`` on dense matrices
gathered from one structure tensor, not built pair by pair. The rows r_s
(one trace-orthonormal basis of each V_jk) are also cached once per
algebra as t[a, b, c] = (r_a ∘ r_b | r_c), symmetric in its three indices
(see ``_peirce_structure``). On the rows L(a) and P(a) are diagonal, with
μ_s = (λ_j + λ_k)/2 and κ_s = λ_j λ_k on a row of V_jk, and the r-th row
coordinate of P(a, r_i) r_s is (μ_r + μ_s − μ_i) t[i, s, r]. So the Levi
matrix is the gather t[H, E_0, H] over μ_H, and the β matrix is the gather
t[E_1, E_{1/2}, E_{1/2}], weighted so, contracted with the kernel's E_1
coordinates over κ and mapped back to V. ``levi_form`` and ``beta_map``
stay the validated single-pair functions and the tests' oracles for both.

A ``TubeOrbit`` is frozen and its arrays are read-only, so the batched
matrices use the rows, μ and κ ``make_orbit`` stored unchecked. Membership
checks remain on what comes from outside or from a rank decision: the
arguments of ``levi_form`` and ``beta_map``, and the kernel rows of
``_beta_matrix``. The dense d×d projectors that ``levi_form`` and
``beta_map`` read are built on their first read; ``analyze`` never reads
them.

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
from functools import cached_property, lru_cache

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


def _dense_block(i: int, doc: str) -> property:
    return property(lambda self: self._dense_blocks[i], doc=doc)


@dataclass(frozen=True)
class TubeOrbit:
    """Canonical base point of C_{p,q} with all Peirce machinery cached.

    Built only by :func:`make_orbit`. Frozen, and every array is the
    orbit's own read-only copy, so the Peirce blocks cannot drift from the
    base point; copy an array to change it.

    ``row_index`` lists the algebra's Peirce rows (see
    ``_standard_joint_peirce``) block by block, E_1 first, then E_{1/2}, then
    E_0; ``mu`` and ``kappa`` are the eigenvalues of L(a) and P(a) on those
    rows, and the four bases are the rows themselves, in that order. The
    dense projectors ``pi_e1``, ``pi_half``, ``pi_e0`` and the inverses
    ``linv_h`` = (L(a)|_H)^{-1}, ``pinv_e1`` = (P(a)|_{E_1})^{-1} are
    read-only (dim, dim) arrays built on the first read of any of them.
    """

    algebra: al.AlgebraDescriptor
    p: int
    q: int
    base_point: np.ndarray
    eigenvalues: np.ndarray
    frame: np.ndarray
    row_index: np.ndarray = field(repr=False)
    mu: np.ndarray = field(repr=False)
    kappa: np.ndarray = field(repr=False)
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

    @cached_property
    def _dense_blocks(self) -> np.ndarray:
        """π_E1, π_½, π_E0, (L(a)|_H)^{-1}, (P(a)|_{E_1})^{-1}, stacked.

        V_jk lies in E_1, E_{1/2} or E_0 as two, one or none of λ_j, λ_k are
        nonzero, and on it L(a) acts as (λ_j + λ_k)/2 and P(a) as λ_j λ_k: one
        contraction of five weight rows with the stacked π_jk of a fresh
        ``joint_peirce`` on the standard frame.
        """
        joint = sp.joint_peirce(self.algebra, al.standard_frame(self.algebra))
        stack = np.stack(list(joint.projections.values()))
        # the pairs {j, k} are unordered, so the standard frame's order serves
        # as well as the sorted one; with one λ zero, λ_j + λ_k is the other
        lam = _standard_eigenvalues(self.algebra.rank, self.p, self.q)
        lam_jk = lam[np.array(list(joint.projections))]
        nonzero = np.count_nonzero(lam_jk, axis=1)
        weights = np.zeros((5, len(stack)))
        weights[:3] = nonzero == np.array([[2], [1], [0]])
        np.divide(2.0, lam_jk.sum(axis=1), out=weights[3], where=nonzero > 0)
        np.divide(1.0, lam_jk.prod(axis=1), out=weights[4], where=nonzero == 2)
        blocks = np.tensordot(weights, stack, axes=1)
        blocks.flags.writeable = False
        return blocks

    pi_e1 = _dense_block(0, "Projector onto E_1, read-only.")
    pi_half = _dense_block(1, "Projector onto E_{1/2}, read-only.")
    pi_e0 = _dense_block(2, "Projector onto E_0, read-only.")
    linv_h = _dense_block(3, "(L(a)|_H)^{-1}, zero on E_0, read-only.")
    pinv_e1 = _dense_block(4, "(P(a)|_{E_1})^{-1}, zero off E_1, read-only.")


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
    """Checked joint Peirce rows of the standard frame, once per algebra.

    Returns read-only ``(frame, pairs, rows, row_pair)``, shared by all
    callers: ``pairs`` is the (m, 2) array of the ``joint_peirce`` keys (j, k),
    in their order, and the ``rows`` with ``row_pair == i`` are a
    trace-orthonormal basis of V_jk for ``pairs[i]`` (the V_jk are mutually
    trace-orthogonal). The π_jk themselves are not kept: nothing on the
    ``analyze`` path reads them.
    """
    joint = sp.joint_peirce(algebra, al.standard_frame(algebra))
    pairs = np.array(list(joint.projections))
    dims = np.where(pairs[:, 0] == pairs[:, 1], 1, algebra.peirce_constant)
    try:
        chol = np.linalg.cholesky(al.trace_gram(algebra))
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"trace Gram factorisation failed: {exc}") from exc
    rows = np.vstack([_gram_orthonormal_rows(chol, pjk, d)
                      for pjk, d in zip(joint.projections.values(), dims)])
    row_pair = np.repeat(np.arange(len(pairs)), dims)
    for arr in (joint.frame, pairs, rows, row_pair):
        arr.flags.writeable = False
    return joint.frame, pairs, rows, row_pair


@lru_cache(maxsize=None)
def _peirce_structure(algebra: al.AlgebraDescriptor) -> np.ndarray:
    """t[a, b, c] = (r_a ∘ r_b | r_c) over the Peirce rows r, once per algebra.

    Read-only and shared. The trace form is associative and the product
    commutative, so t is symmetric in its three indices. Built as one
    (dim, dim²) product with the multiplication table, then slab by slab in
    place: no second dim³ array is made.
    """
    rows = _standard_joint_peirce(algebra)[2]
    d = algebra.dim
    coord = rows @ al.trace_gram(algebra)  # coord @ x: the row coordinates of x
    t = (rows @ al.multiplication_table(algebra).reshape(d, d * d)).reshape(d, d, d)
    for slab in t:
        slab[...] = rows @ slab @ coord.T
    t.flags.writeable = False
    return t


def _standard_eigenvalues(rank: int, p: int, q: int) -> np.ndarray:
    """Eigenvalues of the canonical base point on the standard frame, unsorted."""
    lam = np.zeros(rank)
    lam[:p] = np.arange(1, p + 1, dtype=float)
    lam[p:p + q] = -(p + 1.5 + np.arange(q, dtype=float))
    return lam


def make_orbit(algebra: al.AlgebraDescriptor, p: int, q: int) -> TubeOrbit:
    """Build the canonical base point of C_{p,q} and its Peirce data.

    A trace-orthonormal basis of each joint Peirce space V_jk of the standard
    frame is built and checked once per algebra. A row of V_jk lies in E_1, E_{1/2}
    or E_0 as two, one or none of λ_j, λ_k are nonzero, and L(a) and P(a)
    act on it as μ = (λ_j + λ_k)/2 and κ = λ_j λ_k. So the orbit is the rows
    sorted by block, with their μ and κ: no factorisation, spectral check
    or dense operator is built per call. The base point satisfies condition
    * and has signature (p, q) by construction. Every array stored is marked
    read-only in a frozen orbit.
    """
    cr_dimensions(algebra, p, q)  # raises InvalidSignature for a bad (p, q)
    standard, pairs, rows, row_pair = _standard_joint_peirce(algebra)
    lam = _standard_eigenvalues(algebra.rank, p, q)
    order = np.argsort(lam, kind="stable")[::-1]
    eigenvalues, frame = lam[order], standard[order]
    a = eigenvalues @ frame

    lam_rows = lam[pairs[row_pair]]  # (dim, 2): the λ_j, λ_k of each row
    nonzero = np.count_nonzero(lam_rows, axis=1)
    row_index = np.argsort(-nonzero, kind="stable")  # E_1, E_{1/2}, E_0
    lam_rows = lam_rows[row_index]
    mu, kappa = lam_rows.sum(axis=1) / 2, lam_rows.prod(axis=1)
    basis = rows[row_index]  # a copy: the bases are the orbit's own
    for arr in (a, eigenvalues, frame, row_index, mu, kappa, basis):
        arr.flags.writeable = False
    m1, m = np.count_nonzero(nonzero == 2), np.count_nonzero(nonzero)
    return TubeOrbit(algebra, p, q, a, eigenvalues, frame, row_index, mu, kappa,
                     basis[:m], basis[:m1], basis[m1:m], basis[m:])


def _check_rows_in_subspace(rows, projected, error, what):
    """Raise ``error`` unless every row equals its projection ``projected``."""
    resid = np.linalg.norm(rows - projected, axis=1)
    scale = np.maximum(1.0, np.linalg.norm(rows, axis=1))
    bad = np.flatnonzero(resid > MEMBERSHIP_TOL * scale)
    if bad.size:
        i = bad[0]
        raise error(f"{what}, row {i}: residual {resid[i]:.2e} "
                    f"outside tolerance {MEMBERSHIP_TOL:.1e}")
    return rows


def _check_in_subspace(orbit, v, projector, error, what):
    """Coerce one element and check it lies in the range of ``projector``."""
    v = al.as_element(orbit.algebra, v)[None]
    return _check_rows_in_subspace(v, v @ projector.T, error, what)[0]


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
    same number :func:`levi_form` gives for that pair. The rows are real and
    (L(a)|_H)^{-1} h_j = h_j/μ_j, so it is (h_i ∘ h_j | e0_k)/μ_j, read off
    the symmetric structure tensor as t[h_i, e0_k, h_j]/μ_j.
    """
    m, m0 = orbit.basis_h.shape[0], orbit.basis_e0.shape[0]
    h_idx, e0_idx = orbit.row_index[:m], orbit.row_index[m:]
    levi = _peirce_structure(orbit.algebra).take(h_idx, 0).take(e0_idx, 1).take(h_idx, 2)
    levi /= orbit.mu[:m]
    return levi.reshape(m * m0, m)


def levi_kernel(orbit: TubeOrbit) -> np.ndarray:
    """Numeric nullspace of the Levi form on H_aM (no block shortcut).

    The Levi form on all basis pairs is one gather from the rows' structure
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
    number :func:`beta_map` gives for that pair. With u_j = Σ_s c_js e1_s,
    (P(a)|_{E_1})^{-1} u_j = Σ_s c_js/κ_s e1_s, and the r-th row coordinate
    of P(a, half_i) e1_s is (μ_r + μ_s − μ_i) t[half_i, e1_s, r]. β lies in
    E_{1/2} by the Peirce rules, so r runs over the E_{1/2} rows, and the
    result is mapped back to V through them.
    """
    m1, m = orbit.basis_e1.shape[0], orbit.basis_h.shape[0]
    e1_idx, half_idx = orbit.row_index[:m1], orbit.row_index[m1:m]
    basis_e1, basis_half = orbit.basis_e1, orbit.basis_half
    coef = kernel @ (basis_e1 @ al.trace_gram(orbit.algebra)).T  # the c_js
    _check_rows_in_subspace(kernel, coef @ basis_e1, BlockViolation,
                            "beta second argument (E_1)")
    mu_e1, mu_half = orbit.mu[:m1], orbit.mu[m1:m]
    # [s, i, r]: the r-th row coordinate of P(a, half_i) e1_s
    p_rows = _peirce_structure(orbit.algebra).take(e1_idx, 0).take(half_idx, 1) \
        .take(half_idx, 2)
    p_rows *= mu_e1[:, None, None] + mu_half - mu_half[:, None]
    beta = (coef / orbit.kappa[:m1]) @ p_rows.reshape(m1, -1)  # [j, i·h + r]
    h, k = len(half_idx), kernel.shape[0]
    return (beta.reshape(k * h, h) @ basis_half).reshape(k, h * orbit.algebra.dim).T


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
    """Dimension of the isotropy at a of the infinitesimal CR automorphisms.

    These are the infinitesimal CR automorphisms of the orbit tube's germ at
    its base point a that vanish at a. For the light-cone tube, hol(M, a) =
    so(2,3) has dimension 10 and M has dimension 5, so the isotropy has 5.

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
