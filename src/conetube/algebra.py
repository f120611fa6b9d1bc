"""Simple Euclidean Jordan algebras and their basic operator calculus.

Five families are constructible, keyed by the strings used everywhere in this
package (CLI, JSON, tests):

======== ============================ ===== ================== =================
family   algebra                      rank  Peirce constant n  dimension
======== ============================ ===== ================== =================
spin     R ⊕ R^{n+1}, spin factor     2     any n >= 1         n + 2
hermR    H_r(R), real symmetric       r>=1  1                  r(r+1)/2
hermC    H_r(C), complex Hermitian    r>=1  2                  r^2
hermH    H_r(H), quaternion Hermitian r>=1  4                  r(2r-1)
albert   H_3(O), octonion Hermitian   3     8                  27
======== ============================ ===== ================== =================

Coordinates
-----------
Hermitian families use the diagonal matrix units first (j = 0..r-1), then for
each pair j < k in lexicographic order the n symmetrised off-diagonal units:
coordinate (j, k, d) is the matrix with the d-th K_n basis vector at (j, k)
and its conjugate at (k, j). K_n is R, C, H or the octonions for n = 1, 2, 4,
8: R^n with unit e_0 and conjugation x̄ = (x_0, -x_1, ..., -x_{n-1}), so that
x x̄ = |x|² e_0, and the product of the Cayley–Dickson doubling

    (a, b)(c, d) = (ac - d̄b, da + bc̄),    conj(a, b) = (ā, -b),

which gives ij = k, jk = i, ki = j in H. The spin factor uses coordinates (s, u) in
R ⊕ R^{n+1} with product

    (s, u)∘(t, v) = (st + <u, v>, sv + tu),   unit e = (1, 0).

This is H_2(K_n) in disguise: [[α, u], [ū, β]] ↦ (s, u_0, u) with
s = (α+β)/2 and u_0 = (α-β)/2 is an isomorphism of algebras.

The joint Peirce spaces V_jk of :func:`standard_frame` are coordinate
blocks: V_jj = ℝe_j, and V_jk for j < k is spanned by the n units of the
pair, (j, k, ·) in a Hermitian family and u_1..u_n in the spin factor,
whose e_0, e_1 = (1, ±1, 0)/2 are not coordinate axes. :func:`peirce_blocks`
is the one place this layout is read: it turns it into the table of
blocks, rows and block products that ``tube`` reads, with no projector.

Elements are plain numpy vectors of coordinates; real vectors live in V and
complex vectors in its complexification E = V ⊕ iV. All operators returned
here are dense matrices acting on coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import (ClassificationError, DimensionMismatch, NumericalFailure,
                     SingularElement, require_finite)

FAMILIES = ("spin", "hermR", "hermC", "hermH", "albert")

_HERM_PEIRCE = {"hermR": 1, "hermC": 2, "hermH": 4}

# Smallest singular value of P(z), relative to the largest, below which
# jordan_inverse calls z singular.
INVERSE_DET_TOL = 1e-10

# Singular values at most this fraction of the largest count as zero.
RANK_REL_CUT = 1e-8


@dataclass(frozen=True)
class AlgebraDescriptor:
    """Immutable key identifying one algebra on the classification list."""

    family: str
    rank: int
    peirce_constant: int
    dim: int

    def __repr__(self):  # compact, used in error messages and reports
        return f"Algebra({self.family}, r={self.rank}, n={self.peirce_constant})"


def make_algebra(family: str, rank: int | None = None,
                 peirce_constant: int | None = None) -> AlgebraDescriptor:
    """Validate (family, rank, n) against the classification and build a key.

    Omitted arguments are filled with the family's forced value where one
    exists (spin rank 2; Hermitian Peirce constants 1/2/4; albert 3 and 8).
    """
    if family not in FAMILIES:
        raise ClassificationError(
            f"unknown family {family!r}; expected one of {FAMILIES}")
    if family == "spin":
        rank = 2 if rank is None else rank
        if rank != 2:
            raise ClassificationError("spin factors have rank 2")
        if peirce_constant is None or peirce_constant < 1:
            raise ClassificationError("spin factor needs a Peirce constant n >= 1")
        n = int(peirce_constant)
    elif family == "albert":
        rank = 3 if rank is None else rank
        n = 8 if peirce_constant is None else int(peirce_constant)
        if rank != 3 or n != 8:
            raise ClassificationError("the exceptional algebra has rank 3, n = 8")
    else:
        n = _HERM_PEIRCE[family] if peirce_constant is None else int(peirce_constant)
        if n != _HERM_PEIRCE[family]:
            raise ClassificationError(
                f"{family} forces Peirce constant {_HERM_PEIRCE[family]}, got {n}")
        if rank is None or rank < 1:
            raise ClassificationError(f"{family} needs a rank >= 1")
    rank = int(rank)
    dim = rank + (rank * (rank - 1) // 2) * n
    return AlgebraDescriptor(family, rank, n, dim)


def desk_algebras() -> list[AlgebraDescriptor]:
    """The fixed finite catalogue exercised by reports and acceptance runs."""
    out = [make_algebra("spin", 2, n) for n in range(1, 9)]
    out += [make_algebra("hermR", r) for r in range(2, 6)]
    out += [make_algebra("hermC", r) for r in range(2, 6)]
    out += [make_algebra("hermH", r) for r in range(2, 4)]
    out.append(make_algebra("albert"))
    return out


# ---------------------------------------------------------------------------
# basis bookkeeping


def _herm_pairs(r: int) -> list[tuple[int, int]]:
    return [(j, k) for j in range(r) for k in range(j + 1, r)]


@lru_cache(maxsize=None)
def _herm_index(r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only index table (j, k, d) of rank r, built on first use.

    j and k are the rows and columns of the pairs of :func:`_herm_pairs`,
    in that order, and d is ``arange(r)``, the diagonal.
    """
    pairs = np.array(_herm_pairs(r), dtype=int).reshape(-1, 2)
    table = (pairs[:, 0].copy(), pairs[:, 1].copy(), np.arange(r))
    for index in table:
        index.setflags(write=False)
    return table


def _conjugation_signs(n: int) -> np.ndarray:
    signs = -np.ones(n)
    signs[0] = 1.0
    return signs


def _composition_table(n: int) -> np.ndarray:
    """Structure tensor of K_n, (xy)_p = Σ K[m, q, p] x_m y_q, by doubling K_1."""
    table = np.ones((1, 1, 1))
    while len(table) < n:
        m = len(table)
        swapped = table.transpose(1, 0, 2)  # swapped[i, j] = e_j e_i
        conj = _conjugation_signs(m)[:, None]  # on the second factor
        big = np.zeros((2 * m, 2 * m, 2 * m))
        big[:m, :m, :m] = table  # (a,0)(c,0) = (ac, 0)
        big[:m, m:, m:] = swapped  # (a,0)(0,d) = (0, da)
        big[m:, :m, m:] = table * conj  # (0,b)(c,0) = (0, b c̄)
        big[m:, m:, :m] = -swapped * conj  # (0,b)(0,d) = (-d̄ b, 0)
        table = big
    return table


def _herm_basis_matrices(rank: int, n: int) -> np.ndarray:
    """All basis elements as K_n-valued matrices, shape (dim, r, r, n)."""
    r = rank
    dim = r + (r * (r - 1) // 2) * n
    basis = np.zeros((dim, r, r, n))
    for j in range(r):
        basis[j, j, j, 0] = 1.0
    conj = _conjugation_signs(n)
    idx = r
    for (j, k) in _herm_pairs(r):
        for d in range(n):
            basis[idx, j, k, d] = 1.0
            basis[idx, k, j, d] = conj[d]
            idx += 1
    return basis


@lru_cache(maxsize=None)
def multiplication_table(algebra: AlgebraDescriptor) -> np.ndarray:
    """Structure tensor T with (x∘y)_c = Σ T[a, b, c] x_a y_b. Cached.

    T is the only d³ array kept per algebra. Every other module contracts it
    through :func:`_lmul_stack`, the stack of L(x)ᵀ, and ``einsum("cii->c",
    T)`` is the trace vector. :func:`jordan_product` keeps its einsum, as
    ``y @ L(x)ᵀ`` rounds differently and moves albert frames.

    Hermitian families take the K_n-matrix product of every basis pair in
    one contraction and read coordinate c off entry (I[c], J[c], D[c]) of
    the symmetrised product. Every summand is 0 or ±1, so the table is
    exact.
    """
    if algebra.family == "spin":
        dim = algebra.dim
        T = np.zeros((dim, dim, dim))
        T[0, 0, 0] = 1.0
        for i in range(1, dim):
            T[0, i, i] = 1.0
            T[i, 0, i] = 1.0
            T[i, i, 0] = 1.0
        T.setflags(write=False)
        return T
    r, n = algebra.rank, algebra.peirce_constant
    basis = _herm_basis_matrices(r, n)
    tk = _composition_table(n)
    j, k, d = _herm_index(r)
    I = np.concatenate([d, np.repeat(j, n)])
    J = np.concatenate([d, np.repeat(k, n)])
    D = np.concatenate([np.zeros(r, dtype=int), np.tile(np.arange(n), len(j))])
    prod = np.einsum("aijm,bjln,mnp->abilp", basis, basis, tk, optimize=True)
    prod = prod[:, :, I, J, D]
    # written in C order: the gather leaves prod's c axis outermost, and
    # T.reshape(d, d * d) must be a view, not a copy of T per L(x)
    T = np.add(prod, prod.transpose(1, 0, 2), out=np.empty(prod.shape))
    T *= 0.5
    T.setflags(write=False)
    return T


def _lmul_stack(algebra: AlgebraDescriptor, xs, transposed=False) -> np.ndarray:
    """C-contiguous L(x) for each x in xs of shape (..., dim); L(x)ᵀ if ``transposed``."""
    d = algebra.dim
    lt = xs @ multiplication_table(algebra).reshape(d, d * d)
    lt = lt.reshape(lt.shape[:-1] + (d, d))
    return lt if transposed else np.ascontiguousarray(lt.swapaxes(-1, -2))


@lru_cache(maxsize=None)
def trace_gram(algebra: AlgebraDescriptor) -> np.ndarray:
    """Gram matrix of the trace form: G[a, b] = tr L(b_a ∘ b_b).

    This is the associative normalisation: every L(a) is self-adjoint for
    it, Peirce spaces are orthogonal, and on a simple algebra it equals
    (dim/rank) times the generic trace form. The non-associative candidate
    tr(L(x)L(y)) differs by a tr(x)tr(y) term and fails both properties.
    """
    T = multiplication_table(algebra)
    G = np.einsum("abc,c->ab", T, np.einsum("cii->c", T))  # symmetric, as T is in a, b
    G.setflags(write=False)
    return G


def _unit_support(algebra: AlgebraDescriptor) -> slice:
    """The coordinates where the unit is 1; it is 0 on all others."""
    return slice(0, 1 if algebra.family == "spin" else algebra.rank)


def unit(algebra: AlgebraDescriptor) -> np.ndarray:
    e = np.zeros(algebra.dim)
    e[_unit_support(algebra)] = 1.0
    return e


def standard_frame(algebra: AlgebraDescriptor) -> np.ndarray:
    """A fixed frame of minimal idempotents, rows of shape (rank, dim)."""
    frame = np.zeros((algebra.rank, algebra.dim))
    if algebra.family == "spin":
        frame[0, 0] = frame[1, 0] = 0.5
        frame[0, 1] = 0.5
        frame[1, 1] = -0.5
    else:
        for j in range(algebra.rank):
            frame[j, j] = 1.0
    return frame


class PeirceBlocks(NamedTuple):
    """The joint Peirce blocks V_jk of :func:`standard_frame`, m = r(r+1)/2.

    ``pairs`` are the (m, 2) keys (j, k), j <= k, of ``spectral.joint_peirce``
    in its order, and ``sizes`` the dimensions, 1 if j = k and n if j < k.
    ``rows`` is a trace-orthonormal basis of V, block by block, and
    ``row_block`` each row's index into ``pairs``. ``graph[x, y, z]`` says
    whether V_x ∘ V_y meets V_z; it is symmetric in its three axes.
    """

    pairs: np.ndarray
    sizes: np.ndarray
    rows: np.ndarray
    row_block: np.ndarray
    graph: np.ndarray


@lru_cache(maxsize=None)
def peirce_blocks(algebra: AlgebraDescriptor) -> PeirceBlocks:
    """The Peirce block table of the standard frame, cached and read-only.

    V_jj is spanned by e_j, and the V_jk with j < k, in order, by the last
    dim − r coordinate units, n each; each row is scaled to trace norm 1.
    Entry [x, y, z] of the graph is the norm of block (x, y, z) of
    t[a, b, c] = (r_a ∘ r_b | r_c) over the rows r, cut against the largest
    by :func:`above_rank_cut`. t is the stack L(r_a)ᵀ of :func:`_lmul_stack`
    between the rows and their coordinates, squared and summed by blocks.
    Over the desk, hermR r=6, 7, 12, hermC r=6, 10 and hermH r=4, 6 kept
    norms are ≥ 0.35 of the largest, dropped ones ≤ 1.4e-16.
    """
    r, n, d = algebra.rank, algebra.peirce_constant, algebra.dim
    pairs = np.transpose(np.triu_indices(r))
    on_diag = pairs[:, 0] == pairs[:, 1]
    sizes = np.where(on_diag, 1, n)
    row_block = np.repeat(np.arange(len(pairs)), sizes)
    rows = np.zeros((d, d))
    rows[on_diag[row_block]] = standard_frame(algebra)
    rows[~on_diag[row_block], r:] = np.eye(d - r)
    gram = trace_gram(algebra)
    rows /= np.sqrt(np.einsum("ab,bc,ac->a", rows, gram, rows))[:, None]

    coord = rows @ gram  # coord @ x: the row coordinates of x
    t = np.square(rows @ _lmul_stack(algebra, rows, transposed=True) @ coord.T)
    for axis in range(3):
        t = np.add.reduceat(t, np.cumsum(sizes) - sizes, axis=axis)
    graph = above_rank_cut(np.sqrt(t), np.sqrt(t.max()))
    blocks = PeirceBlocks(pairs, sizes, rows, row_block, graph)
    for arr in blocks:
        arr.flags.writeable = False
    return blocks


# ---------------------------------------------------------------------------
# element plumbing


def as_element(algebra: AlgebraDescriptor, x) -> np.ndarray:
    """Coerce to a coordinate vector; complex dtype is kept, else float."""
    arr = np.asarray(x)
    if arr.shape != (algebra.dim,):
        raise DimensionMismatch(
            f"expected {algebra.dim} coordinates for {algebra}, got shape {arr.shape}")
    if np.iscomplexobj(arr):
        return arr.astype(complex)
    return arr.astype(float)


def as_real_element(algebra: AlgebraDescriptor, x) -> np.ndarray:
    arr = as_element(algebra, x)
    if np.iscomplexobj(arr):
        if np.max(np.abs(arr.imag)) > 0:
            raise DimensionMismatch("expected a real element of V")
        arr = arr.real
    return arr


# ---------------------------------------------------------------------------
# core operations


def jordan_product(algebra: AlgebraDescriptor, x, y) -> np.ndarray:
    """x∘y, complex-bilinear on E = V ⊕ iV."""
    x = as_element(algebra, x)
    y = as_element(algebra, y)
    # order="C" sums over a and b inside each c; einsum's default loops over
    # c innermost on T's C layout, which is slower at the benchmark's sizes
    return np.einsum("abc,a,b->c", multiplication_table(algebra), x, y, order="C")


def lmul(algebra: AlgebraDescriptor, x) -> np.ndarray:
    """Multiplication operator L(x) with L(x) y = x∘y."""
    return _lmul_stack(algebra, as_element(algebra, x))


def pquad(algebra: AlgebraDescriptor, x, y=None) -> np.ndarray:
    """Quadratic representation P(x) = 2L(x)² - L(x²), or its polarisation

    P(x, y) = L(x)L(y) + L(y)L(x) - L(x∘y), so that P(x, x) = P(x).
    """
    Lx = lmul(algebra, x)
    if y is None:
        xx = jordan_product(algebra, x, x)
        return 2.0 * (Lx @ Lx) - lmul(algebra, xx)
    Ly = lmul(algebra, y)
    xy = jordan_product(algebra, x, y)
    return Lx @ Ly + Ly @ Lx - lmul(algebra, xy)


def trace_form(algebra: AlgebraDescriptor, x, y) -> float | complex:
    """(x|y) = tr L(x∘y); positive definite on V, bilinear on E.

    All multiplication operators L(a) are self-adjoint with respect to
    this form, equivalently (x∘z|y) = (z|x∘y).
    """
    x = as_element(algebra, x)
    y = as_element(algebra, y)
    val = x @ trace_gram(algebra) @ y
    return val if np.iscomplexobj(val) else float(val)


def generic_trace(algebra: AlgebraDescriptor, x) -> float | complex:
    """Sum of eigenvalues; equals (rank/dim) tr L(x) on a simple algebra."""
    Lx = lmul(algebra, x)
    val = np.trace(Lx) * algebra.rank / algebra.dim
    return val if np.iscomplexobj(val) else float(val)


def star(algebra: AlgebraDescriptor, z) -> np.ndarray:
    """Conjugate-linear involution of E fixing V: (x + iy)* = x - iy."""
    return np.conj(as_element(algebra, z))


def jordan_inverse(algebra: AlgebraDescriptor, z) -> np.ndarray:
    """Solve P(z) w = z; raises SingularElement when P(z) is singular.

    Singularity is decided on the smallest singular value of P(z) relative
    to the largest. A determinant test would be scale and dimension
    fragile: |det P(t·e)| = t^(2 dim) crosses any fixed cutoff for healthy
    invertible elements once the algebra is large. Both run on z·2^-e, 2^e
    the power of two just above max|z|, and w is scaled back exactly, so
    (2^k z)⁻¹ = 2^-k z⁻¹ bit for bit; a w beyond the float range raises
    NumericalFailure.
    """
    z = require_finite(as_element(algebra, z), "element")
    exp = np.frexp(np.abs(z.view(float)).max())[1]  # view: both parts of a complex z
    z = np.ldexp(z.view(float), -exp).view(z.dtype)
    P = pquad(algebra, z)
    try:
        sv = np.linalg.svd(P, compute_uv=False)
        if sv[0] <= 0.0 or sv[-1] <= INVERSE_DET_TOL * sv[0]:
            raise SingularElement(
                f"quadratic representation has relative smallest singular value "
                f"{0.0 if sv[0] <= 0 else sv[-1] / sv[0]:.2e} for {algebra}")
        w = np.linalg.solve(P, z)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"Jordan inverse solve failed: {exc}") from exc
    # compare exponents, so that an overflow raises before ldexp warns
    if np.frexp(np.abs(w.view(float)).max())[1] - exp > 1024:
        raise NumericalFailure(f"the Jordan inverse overflows for {algebra}")
    return np.ldexp(w.view(float), -exp).view(w.dtype)


def triple_product(algebra: AlgebraDescriptor, x, y, z) -> np.ndarray:
    """Jordan triple product {x y z} = P(x, z) y*."""
    ystar = star(algebra, y)
    return pquad(algebra, x, z) @ ystar


# ---------------------------------------------------------------------------
# matrix realisations (Hermitian families only)


def element_to_matrix(algebra: AlgebraDescriptor, x) -> np.ndarray:
    """Hermitian matrix realisation used by the spectral routines.

    hermR gives a real symmetric r x r matrix, hermC a complex Hermitian
    r x r matrix, hermH a complex Hermitian 2r x 2r matrix whose 2 x 2
    blocks are the images [[a, b], [-b̄, ā]] of the quaternions a + bj.
    The indices come from the read-only table of :func:`_herm_index`,
    built once per rank: the diagonal d and the pairs (j, k) of
    :func:`_herm_pairs` are written with one index scatter each, the
    mirror of :func:`matrix_to_element`. A hermH diagonal block is x·I,
    so x·0 (a signed zero) sits beside x. Spin and albert have no complex
    matrix model here and raise ClassificationError.
    """
    x = as_real_element(algebra, x)
    fam = algebra.family
    if fam not in ("hermR", "hermC", "hermH"):
        raise ClassificationError(f"no complex matrix realisation for family {fam!r}")
    r = algebra.rank
    j, k, d = _herm_index(r)
    off = x[r:]
    if fam == "hermH":
        M = np.zeros((2 * r, 2 * r), dtype=complex)
        flat = M.reshape(-1)  # diagonal, then the two entries beside it per block
        flat[::2 * r + 1].reshape(r, 2)[:] = x[:r, None]
        flat[1::4 * r + 2] = flat[2 * r::4 * r + 2] = x[:r] * 0.0
        block = np.empty((len(j), 2, 2), dtype=complex)
        a, b = block[:, 0, 0], block[:, 0, 1]
        np.add(off[0::4], 1j * off[1::4], out=a)
        np.add(off[2::4], 1j * off[3::4], out=b)
        np.conjugate(a, out=block[:, 1, 1])
        np.negative(np.conjugate(b, out=block[:, 1, 0]), out=block[:, 1, 0])
        B = M.reshape(r, 2, r, 2).swapaxes(1, 2)  # view of the 2 x 2 blocks
        B[j, k] = block
        B[k, j] = block.conj().swapaxes(-1, -2)
        return M
    entry = off if fam == "hermR" else off[0::2] + 1j * off[1::2]
    M = np.zeros((r, r), dtype=entry.dtype)
    M[d, d] = x[:r]
    M[j, k] = entry
    M[k, j] = np.conj(entry)
    return M


def matrix_to_element(algebra: AlgebraDescriptor, M: np.ndarray) -> np.ndarray:
    """Inverse of :func:`element_to_matrix` (Hermitian part is implied).

    M may be a stack of shape (..., s, s), giving (..., dim), with s = r,
    or 2r for hermH; another trailing shape raises DimensionMismatch. The
    pairs (j, k) of the per-rank table of :func:`_herm_index` are read
    with one index gather, each as the mean of entry (j, k) and the
    conjugate transpose of entry (k, j). For hermH the entries are the
    2 x 2 blocks [[a, b], [-b̄, ā]] of the quaternions a + bj, and a, b are
    each the mean of their two copies.
    """
    fam = algebra.family
    if fam not in ("hermR", "hermC", "hermH"):
        raise ClassificationError(f"no complex matrix realisation for family {fam!r}")
    M = np.asarray(M)
    r = algebra.rank
    s = 2 * r if fam == "hermH" else r
    if M.shape[-2:] != (s, s):
        raise DimensionMismatch(
            f"expected {s} x {s} matrices for {algebra}, got shape {M.shape}")
    j, k, _ = _herm_index(r)
    x = np.empty(M.shape[:-2] + (algebra.dim,))
    if fam == "hermH":
        B = M.reshape(M.shape[:-2] + (r, 2, r, 2)).swapaxes(-3, -2)  # 2 x 2 blocks
        D = np.diagonal(M, axis1=-2, axis2=-1)  # block (d, d) holds D[2d], D[2d + 1]
        x[..., :r] = (0.5 * (D[..., 0::2] + D[..., 1::2])).real
        block = 0.5 * (B[..., j, k, :, :] + B[..., k, j, :, :].conj().swapaxes(-1, -2))
        ab = np.empty(block.shape[:-1], dtype=complex)  # (a, b) of each pair
        np.add(block[..., 0, 0], np.conjugate(block[..., 1, 1]), out=ab[..., 0])
        np.subtract(block[..., 0, 1], np.conjugate(block[..., 1, 0]), out=ab[..., 1])
        ab *= 0.5
        x[..., r:] = ab.reshape(x.shape[:-1] + (-1,)).view(float)
        return x
    x[..., :r] = np.diagonal(M, axis1=-2, axis2=-1).real
    entry = 0.5 * (M[..., j, k] + np.conj(M[..., k, j]))
    if fam == "hermR":
        x[..., r:] = entry.real
    else:
        x[..., r::2] = entry.real
        x[..., r + 1::2] = entry.imag
    return x


def below_2_500(x: np.ndarray) -> tuple[np.ndarray, int]:
    """(x·2^-k, k) for the least k >= 0 that puts every entry below 2^500.

    Squares, pair sums and norms of x·2^-k stay finite; 2^-k scales exactly."""
    top = np.maximum(np.abs(x.real), np.abs(x.imag)).max(initial=0.0)
    k = max(int(np.frexp(top)[1]) - 500, 0)
    return x * 2.0 ** -k, k


def above_rank_cut(values: np.ndarray, largest) -> np.ndarray:
    """values > RANK_REL_CUT · largest: the one cut behind every rank decision."""
    return values > RANK_REL_CUT * largest


def _ranked_svd(M: np.ndarray, svd) -> tuple[int, np.ndarray | None]:
    """Rank of M and the ``vh`` that ``svd`` returns beside its singular values.

    ``svd`` maps a matrix to (s, vh) or (s, None). The rank counts the s
    above RANK_REL_CUT times the largest; a failed or non-finite SVD raises
    NumericalFailure.
    """
    try:
        s, vh = svd(M)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"rank decision failed: {exc}") from exc
    if s.size and not np.isfinite(s[0]):
        raise NumericalFailure(f"rank decision on a matrix with singular value {s[0]}")
    rank = int(np.count_nonzero(above_rank_cut(s, s[0]))) if s.size else 0
    return rank, vh


def numeric_rank(M: np.ndarray) -> tuple[int, np.ndarray]:
    """Numeric rank of M and its right singular vectors, from one thin SVD.

    The rank counts singular values above RANK_REL_CUT times the largest.
    ``vh[:rank]`` spans the row space; with at least as many rows as
    columns, ``vh.conj()[rank:]`` spans the nullspace. Only callers that
    read ``vh`` use this: :func:`numeric_rank_only` makes the same decision
    from the singular values alone, at less than half the cost.
    """
    return _ranked_svd(M, lambda M: np.linalg.svd(M, full_matrices=False)[1:])


def numeric_rank_only(M: np.ndarray) -> int:
    """``numeric_rank(M)[0]`` from the singular values alone."""
    return _ranked_svd(M, lambda M: (np.linalg.svd(M, compute_uv=False), None))[0]
