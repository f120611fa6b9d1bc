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
* Levi kernel = E_1,
* β(v, u) = P(a, v*) (P(a)|_{E_1})^{-1} u for v in E_{1/2}, u in E_1,

and the kernel chain H⁰ ⊃ H¹ ⊃ H² … decides the nondegeneracy order. All
bases returned are trace-orthonormal rows of the m = r(r+1)/2 joint Peirce
spaces V_jk of the standard frame, taken from ``algebra.peirce_blocks``, the
one place the coordinate layout is read.

No rank is decided at the base point. L(a) and P(a) are diagonal on those
rows, so the kernel chain and minimality's closure 𝒜a are sums of whole
blocks, read off the table's block ``graph``; the Peirce rules V_ij ∘ V_jk
⊆ V_ik (i, j, k distinct) and V_ij ∘ V_ij ⊆ V_ii + V_jj say which of its
entries can be true. ``levi_form`` and ``beta_map`` stay the validated
single-pair functions, in coordinates on the orbit's rows; ranked by
``numeric_rank``, their matrices are the tests' oracle of the chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import algebra as al
from .errors import (
    BlockViolation,
    InvalidSignature,
    NotInHolomorphicTangent,
    NumericalFailure,
    require_finite,
)
from .fields import GradedField, gl_omega_span

MEMBERSHIP_TOL = 1e-8


@dataclass(frozen=True)
class TubeOrbit:
    """Canonical base point of C_{p,q} and its Peirce rows.

    Built only by :func:`make_orbit`. Frozen, and every array is the orbit's
    own read-only copy; copy an array to change it. The bases are the Peirce
    rows sorted E_1, E_{1/2}, E_0 (``basis_h`` is the first two).
    """

    algebra: al.AlgebraDescriptor
    p: int
    q: int
    base_point: np.ndarray
    eigenvalues: np.ndarray
    frame: np.ndarray
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


def cr_dimensions(algebra: al.AlgebraDescriptor, p: int, q: int) -> dict:
    """Closed-form CR dimension, codimension and Levi kernel dimension."""
    r, n = algebra.rank, algebra.peirce_constant
    if min(p, q) < 0:
        raise InvalidSignature(f"(p, q) = ({p}, {q}): {'p' if p < 0 else 'q'} is negative")
    if p + q > r:
        raise InvalidSignature(f"(p, q) = ({p}, {q}) exceeds rank {r}")
    rho = p + q
    rho_p = r - rho
    return {
        "crdim": rho + math.comb(rho, 2) * n + rho * rho_p * n,
        "crcodim": rho_p + math.comb(rho_p, 2) * n,
        "levi_kernel_dim": rho + math.comb(rho, 2) * n,
    }


def _standard_eigenvalues(rank: int, p: int, q: int) -> np.ndarray:
    """Eigenvalues of the canonical base point on the standard frame, unsorted."""
    lam = np.zeros(rank)
    lam[:p] = np.arange(1, p + 1, dtype=float)
    lam[p:p + q] = -(p + 1.5 + np.arange(q, dtype=float))
    return lam


def _pair_class(algebra: al.AlgebraDescriptor, p: int, q: int) -> np.ndarray:
    """Per pair (j, k), how many of λ_j, λ_k are nonzero: 2, 1 or 0 as V_jk
    lies in E_1, E_{1/2} or E_0. λ_j ≠ 0 iff j < p + q on the standard frame.
    """
    return np.count_nonzero(al.peirce_blocks(algebra).pairs < p + q, axis=1)


def _row_order(algebra: al.AlgebraDescriptor, p: int, q: int):
    """Each Peirce row's ``_pair_class``, and the stable order that sorts the
    rows E_1, E_{1/2}, E_0: the order of every orbit basis."""
    row_class = _pair_class(algebra, p, q)[al.peirce_blocks(algebra).row_block]
    return row_class, np.argsort(-row_class, kind="stable")


def _row_eigenvalues(orbit: TubeOrbit) -> np.ndarray:
    """(λ_j, λ_k) for each row of the orbit's bases, V_jk its block, in order."""
    blocks = al.peirce_blocks(orbit.algebra)
    row_order = _row_order(orbit.algebra, orbit.p, orbit.q)[1]
    lam = _standard_eigenvalues(orbit.algebra.rank, orbit.p, orbit.q)
    return lam[blocks.pairs[blocks.row_block[row_order]]]


def make_orbit(algebra: al.AlgebraDescriptor, p: int, q: int) -> TubeOrbit:
    """Build the canonical base point of C_{p,q} and its Peirce data.

    The orbit is the rows of ``algebra.peirce_blocks``, built once per
    algebra, sorted by ``_row_order``: no factorisation, spectral check or
    dense operator is built per call. The base point satisfies condition *
    and has signature (p, q) by construction. Every array stored is marked
    read-only in a frozen orbit.
    """
    cr_dimensions(algebra, p, q)  # raises InvalidSignature for a bad (p, q)
    lam = _standard_eigenvalues(algebra.rank, p, q)
    order = np.argsort(lam, kind="stable")[::-1]
    eigenvalues, frame = lam[order], al.standard_frame(algebra)[order]
    a = eigenvalues @ frame

    row_class, row_order = _row_order(algebra, p, q)
    basis = al.peirce_blocks(algebra).rows[row_order]  # a copy: the orbit's own
    for arr in (a, eigenvalues, frame, basis):
        arr.flags.writeable = False
    m1, m = np.count_nonzero(row_class == 2), np.count_nonzero(row_class)
    return TubeOrbit(algebra, p, q, a, eigenvalues, frame,
                     basis[:m], basis[:m1], basis[m1:m], basis[m:])


def _check_in_subspace(orbit, v, rows, error, what):
    """Coerce one element; raise ``error`` unless it lies in the span of the
    trace-orthonormal ``rows``. Returns it and its coordinates on them."""
    v = require_finite(al.as_element(orbit.algebra, v), what)
    coord = rows @ (al.trace_gram(orbit.algebra) @ v)
    resid = np.linalg.norm(v - coord @ rows)
    if resid > MEMBERSHIP_TOL * max(1.0, np.linalg.norm(v)):
        raise error(f"{what}: residual {resid:.2e} "
                    f"outside tolerance {MEMBERSHIP_TOL:.1e}")
    return v, coord


def levi_form(orbit: TubeOrbit, v, w) -> np.ndarray:
    """Λ_a(v, w) = E_0-part of v* ∘ (L(a)|_H)^{-1} w.

    Conjugate linear in v, complex linear in w; both arguments must lie in
    H_aM = E_1 ⊕ E_{1/2}. The value represents the class mod H_aM through
    the identification E/H_aM ≅ E_0. On the row of V_jk, L(a) acts as
    (λ_j + λ_k)/2.
    """
    h, e0 = orbit.basis_h, orbit.basis_e0
    v, _ = _check_in_subspace(orbit, v, h, NotInHolomorphicTangent,
                              "first Levi argument")
    w, coord = _check_in_subspace(orbit, w, h, NotInHolomorphicTangent,
                                  "second Levi argument")
    mu = _row_eigenvalues(orbit)[:len(h)].sum(axis=1) / 2
    val = al.jordan_product(orbit.algebra, np.conj(v), (coord / mu) @ h)
    return (e0 @ (al.trace_gram(orbit.algebra) @ val)) @ e0


def _levi_kernel_pairs(orbit: TubeOrbit) -> tuple[np.ndarray, np.ndarray]:
    """The orbit's ``_pair_class`` and the mask of the Levi kernel's blocks.

    On Peirce rows with L(a)h_j = μ_j h_j, Λ_a(h_i, h_j) is the E_0 part of
    h_i ∘ h_j/μ_j. So the kernel is the H blocks y with no g[x, z, y], x in
    H, z in E_0: by the Peirce rules the E_1 blocks; an E_{1/2} one raises.
    """
    blocks = al.peirce_blocks(orbit.algebra)
    cls = _pair_class(orbit.algebra, orbit.p, orbit.q)
    h = cls > 0
    kernel = h & ~blocks.graph[np.ix_(h, cls == 0)].any(axis=(0, 1))
    stray = np.flatnonzero(kernel & (cls == 1))
    if stray.size:
        j, k = blocks.pairs[stray[0]]
        raise NumericalFailure(
            f"E_1/2 block V_{j}{k} has no Levi link to E_0, against the Peirce rules")
    return cls, kernel


def levi_kernel(orbit: TubeOrbit) -> np.ndarray:
    """Levi kernel on H_aM as trace-orthonormal complex rows, shape (k, dim).

    The Peirce rows of the E_1 blocks, as the block graph finds them (see
    :func:`_levi_kernel_pairs`; the cut's margin is in ``algebra.peirce_blocks``):
    empty when ρ = 0, all of H_aM on the open orbit, where E_0 = 0.
    """
    blocks = al.peirce_blocks(orbit.algebra)
    return blocks.rows[_levi_kernel_pairs(orbit)[1][blocks.row_block]].astype(complex)


def beta_map(orbit: TubeOrbit, v, u) -> np.ndarray:
    """β(v, u) = P(a, v*) (P(a)|_{E_1})^{-1} u, antilinear in v.

    v must lie in E_{1/2} and u in E_1; the value lies in E_{1/2} again. On
    the row of V_jk in E_1, P(a) acts as λ_j λ_k.
    """
    v, _ = _check_in_subspace(orbit, v, orbit.basis_half, BlockViolation,
                              "beta first argument (E_1/2)")
    u, coord = _check_in_subspace(orbit, u, orbit.basis_e1, BlockViolation,
                                  "beta second argument (E_1)")
    kappa = _row_eigenvalues(orbit)[:len(coord)].prod(axis=1)
    w = (coord / kappa) @ orbit.basis_e1
    return al.pquad(orbit.algebra, orbit.base_point, np.conj(v)) @ w


def nondegeneracy_order(orbit: TubeOrbit) -> NondegeneracyResult:
    """Kernel chain H⁰ = H_aM ⊃ H¹ = Levi kernel ⊃ H² = right β-kernel ⊃ …

    Each H^k is a sum of whole blocks read off the block graph of
    ``algebra.peirce_blocks``, with no rank. On Peirce rows coordinate r of
    β(half_i, e1_s) is (μ_s + μ_r − μ_i) t[i, s, r]/κ_s, so each step drops
    the kernel blocks s with g[s, i, r] for some E_{1/2} blocks i, r: there
    the Peirce rules make the weight λ_j or λ_k of s = V_jk, never 0.
    Returns the first k with H^k = 0. The
    totally real orbit (ρ = 0) has order 0 by convention; a chain that
    stabilises at a nonzero dimension (the open orbit) gives ``order = None``.
    """
    if orbit.rho == 0:
        return NondegeneracyResult(0, True, [0],
                                   "totally real: order 0 by convention")
    blocks = al.peirce_blocks(orbit.algebra)
    cls, kernel = _levi_kernel_pairs(orbit)
    half = cls == 1
    beta_linked = blocks.graph[:, half][:, :, half].any(axis=(1, 2))
    chain = [orbit.basis_h.shape[0], int(blocks.sizes[kernel].sum())]
    while chain[-1] > 0:
        if chain[-1] == chain[-2]:
            note = ("open orbit: NotFinitelyNondegenerate by convention"
                    if orbit.rho_prime == 0 else
                    "kernel chain stabilised at nonzero dimension")
            return NondegeneracyResult(None, False, chain, note)
        kernel &= ~beta_linked
        chain.append(int(blocks.sizes[kernel].sum()))
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
    subspace containing a.

    At the canonical base point condition * makes L(a) invertible on T_aC =
    V₁ ⊕ V_{1/2}, and L(x)a = L(a)x, so L(V)·a = L(a)V = T_aC ⊇ gl(Ω)·a:
    the orbit is minimal iff 𝒜a = V. 𝒜 holds every L(e_j), hence every joint
    Peirce projection, so 𝒜a is the sum of its parts in the blocks. It holds
    the H blocks, and is grown through the graph (with x, every z with
    g[x, y, z] for some y) until it stops, at most m passes. On every orbit
    the tests run it reaches all of V iff ρ > 0. The cut's margin is in
    ``algebra.peirce_blocks``.
    """
    graph = al.peirce_blocks(orbit.algebra).graph
    closure = _pair_class(orbit.algebra, orbit.p, orbit.q) > 0
    while True:
        grown = closure | graph[closure].any(axis=(0, 1))
        if np.array_equal(grown, closure):
            return bool(closure.all())
        closure = grown


def aut_germ_dimension(algebra: al.AlgebraDescriptor, p: int, q: int) -> int:
    """Dimension of the isotropy at a of the infinitesimal CR automorphisms.

    These are the infinitesimal CR automorphisms of the orbit tube's germ at
    its base point a that vanish at a: dim gl(Ω) + crcodim, as hol(M, a) =
    {iu + Az + iP(z)w} has dimension 2·dim V + dim gl(Ω) and M has 2·dim V −
    crcodim. dim gl(Ω) is :func:`conetube.fields.gl_omega_span`'s rank, as in
    ``dim_table``. For the light-cone tube, hol(M, a) = so(2,3) has
    dimension 10 and M has dimension 5, so the isotropy has 5.

    Only defined for degenerate nonzero signatures 0 < p + q < rank.
    """
    if not 0 < p + q < algebra.rank:
        raise InvalidSignature(f"germ dimension needs 0 < p + q < rank, "
                               f"got ({p}, {q}) at rank {algebra.rank}")
    return gl_omega_span(algebra).dim_gl_omega + cr_dimensions(algebra, p, q)["crcodim"]


def aut1_basis(orbit: TubeOrbit) -> list:
    """Weight-one fields i{zvz}∂_z with v in V_0; count equals CR codim."""
    if not 0 < orbit.rho < orbit.algebra.rank:
        raise InvalidSignature("weight-one stabiliser basis needs 0 < rho < rank")
    dim = orbit.algebra.dim
    return [GradedField(u=np.zeros(dim), A=np.zeros((dim, dim)), w=row.copy())
            for row in orbit.basis_e0]
