"""Polynomial vector fields f(z)∂ = (iu + Az + iP(z)w)∂ on the tube domain.

The fields split into weights -1, 0, +1 under the Euler field δ = z∂: the
constant parts iu (u real) integrate to translations, the linear parts Az
with A in gl(Ω) = L(V) ⊕ [L(V), L(V)] to cone automorphisms, and iP(z)w to
the nonaffine one-parameter groups. The bracket convention is

    [f∂, g∂] = (g'f - f'g) ∂,

so ad(δ) really has eigenvalues (-1, 0, +1) on the three graded pieces.
``bracket`` is a closed form in the coefficients; the tests compare it with
g'f - f'g evaluated at sample points and check that its linear coefficient
stays inside gl(Ω).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import algebra as al
from . import spectral as sp
from .errors import (
    ConditionStarViolated,
    DimensionMismatch,
    FlowSingularity,
    IndexOutOfRange,
    InvalidBound,
    NumericalFailure,
    read_int,
    read_real,
    require_finite,
)

_CLOSURE_REL_TOL = 1e-8


@dataclass(eq=False)
class GradedField:
    """Coefficients of f(z) = iu + Az + iP(z)w with u, w in V and A real."""

    u: np.ndarray
    A: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        self.u, self.A, self.w = (read_real(x, f"field coefficient {name}") for x, name
                                  in ((self.u, "u"), (self.A, "A"), (self.w, "w")))
        shape = self.u.shape
        if len(shape) != 1 or self.A.shape != shape * 2 or self.w.shape != shape:
            raise DimensionMismatch(
                f"field coefficients disagree: u {self.u.shape}, "
                f"A {self.A.shape}, w {self.w.shape}")


def euler_field(algebra: al.AlgebraDescriptor) -> GradedField:
    """δ = z∂, the grading element."""
    d = algebra.dim
    return GradedField(np.zeros(d), np.eye(d), np.zeros(d))


def _check_field(algebra: al.AlgebraDescriptor, *fields: GradedField):
    if any(f.u.shape[0] != algebra.dim for f in fields):
        raise DimensionMismatch("field does not live on this algebra")


def evaluate_field(algebra: al.AlgebraDescriptor, field: GradedField, z):
    _check_field(algebra, field)
    z = al.as_element(algebra, z)
    return (1j * field.u + field.A @ z
            + 1j * (al.pquad(algebra, z) @ field.w))


def _mmat(algebra, u, w):
    """M(u, w) = L(u∘w) + L(u)L(w) - L(w)L(u), the matrix of z ↦ P(z, u)w."""
    lu, lw = al.lmul(algebra, u), al.lmul(algebra, w)
    return al.lmul(algebra, al.jordan_product(algebra, u, w)) + lu @ lw - lw @ lu


def field_derivative(algebra: al.AlgebraDescriptor, field: GradedField, z):
    """Jacobian matrix f'(z) = A + 2i M(z, w), with M as in :func:`_mmat`."""
    _check_field(algebra, field)
    z = al.as_element(algebra, z)
    return field.A + 2j * _mmat(algebra, z, field.w)


@dataclass(frozen=True, eq=False)
class GlOmegaSpan:
    """gl(Ω) = L(V) ⊕ Der(V) inside gl(V): two dimensions, and rows on request.

    ``pairs`` stacks the seeded uniform (x_i, y_i), shape (2, N, dim), whose
    commutators [L(x_i), L(y_i)] span Der(V). :func:`gl_omega_span` caches
    one span per algebra, so the span is frozen and its arrays read-only.
    """

    algebra: al.AlgebraDescriptor
    pairs: np.ndarray
    dim_der: int
    dim_gl_omega: int

    @cached_property
    def rows(self) -> np.ndarray:
        """Orthonormal flat basis of gl(Ω), shape (dim_gl_omega, dim²), read-only.

        Built on the first read from one ``numeric_rank`` of the flattened
        L(b_a) and [L(x_i), L(y_i)]; a rank other than ``dim_gl_omega``
        raises NumericalFailure. On the desk and the four benchmark
        large-rank algebras the kept singular values are ≥ 5.3e-2·s₀ and the
        dropped ones ≤ 9.7e-16·s₀.
        """
        d = self.algebra.dim
        ops, lx, ly = (al._lmul_stack(self.algebra, v) for v in (np.eye(d), *self.pairs))
        rank, vh = al.numeric_rank(np.concatenate(
            [ops.reshape(d, -1), (lx @ ly - ly @ lx).reshape(len(lx), -1)]))
        if rank != self.dim_gl_omega:
            raise NumericalFailure(
                f"L(V) and the seeded commutators have rank {rank}, "
                f"expected dim gl(Ω) = {self.dim_gl_omega}")
        rows = vh[:rank].copy()
        rows.setflags(write=False)
        return rows

    def contains(self, mat: np.ndarray) -> bool:
        d = self.algebra.dim
        if np.shape(mat) != (d, d):
            raise DimensionMismatch(f"expected a {d} x {d} matrix, got shape {np.shape(mat)}")
        flat = np.ravel(mat)
        resid = np.linalg.norm(flat - self.rows.T @ (self.rows @ flat))
        return resid <= _CLOSURE_REL_TOL * max(1.0, np.linalg.norm(flat))


def _commutators_at(algebra: al.AlgebraDescriptor, xs: np.ndarray,
                    ys: np.ndarray, lps: np.ndarray) -> np.ndarray:
    """Values [L(x_i), L(y_i)]p = x_i∘(y_i∘p) − y_i∘(x_i∘p) at each probe p.

    ``lps`` stacks L(p)ᵀ for s probes, shape (s, dim, dim). The result has
    one row per pair and one dim-wide block per probe. y_i∘p and x_i∘p come
    from one matmul each; multiplying them by L(x_i) and L(y_i) is one
    batched matmul each, with the L(·)ᵀ stacks of ``algebra._lmul_stack``.
    """
    yp, xp = (np.swapaxes(v @ lps, 0, 1) for v in (ys, xs))  # (pairs, s, dim)
    out = yp @ al._lmul_stack(algebra, xs, transposed=True)
    out -= xp @ al._lmul_stack(algebra, ys, transposed=True)
    return out.reshape(len(xs), -1)


def _uniform(rng: random.Random, shape: tuple) -> np.ndarray:
    """Entries uniform in [−1, 1) from one ``rng.randbytes`` call.

    Each entry is the top 53 bits of one little-endian 64-bit word, so a
    seeded ``random.Random`` gives the same array on every platform.
    """
    words = np.frombuffer(rng.randbytes(8 * math.prod(shape)), dtype="<u8")
    return ((words >> 11) * 2.0 ** -52 - 1.0).reshape(shape)


@lru_cache(maxsize=None)
def gl_omega_span(algebra: al.AlgebraDescriptor) -> GlOmegaSpan:
    """dim Der(V) and dim gl(Ω), ranked on X ↦ (X e, X p_1, …, X p_s).

    x ∧ y ↦ [L(x), L(y)] maps Λ²V onto Der(V), so commutators of seeded
    pairs span it. The commutators are ranked by their values at seeded
    probes p_i, never as dim² matrices, and every rank is decided on
    singular values alone. Pairs and probes have entries uniform in
    [−1, 1), drawn from ``random.Random(0)`` and ``random.Random(1)``.
    - After a batch raises the rank, probes are added one at a time until
      one adds no rank: then every X in the span that the values miss
      kills a generic element, so X = 0, and the values are faithful. A
      rank equal to the number of pairs is faithful already, and no probe
      can raise it, so that probe is not ranked.
    - Batches of dim pairs are added until one leaves the rank at the
      probes found so far where it was. The rank without the last probe
      lies between the two equal ranks, so the last probe adds no rank
      for the larger set of pairs either: the values stay faithful, and
      the batch left the span where it was.
    - Derivations kill e, and L(x)e = x. So L(b_a) and the commutators,
      both evaluated at (e, p_1, …, p_s), must have rank dim V + dim Der(V);
      anything else raises NumericalFailure.
    On the desk, the four benchmark large-rank algebras, hermR r=8, 12,
    hermC r=7, 9, 10 and hermH r=5, 6, every kept singular value is
    ≥ 1.5e-3·s₀ and every dropped one ≤ 4.3e-16·s₀. The fixed seeds make
    the result deterministic.
    """
    d = algebra.dim
    rng, probe_rng = random.Random(0), random.Random(1)

    def probe():
        # L(p)ᵀ for one more probe p, shape (1, dim, dim)
        return al._lmul_stack(algebra, _uniform(probe_rng, (1, d)), transposed=True)

    xs = ys = np.zeros((0, d))
    lps, values, rank = probe(), np.zeros((0, d)), 0
    while True:
        bx, by = _uniform(rng, (2, d, d))
        values = np.concatenate([values, _commutators_at(algebra, bx, by, lps)])
        xs, ys = np.concatenate([xs, bx]), np.concatenate([ys, by])
        new_rank = al.numeric_rank_only(values)
        if new_rank <= rank:
            break
        rank = new_rank
        while True:
            lps = np.concatenate([lps, probe()])
            values = np.hstack([values, _commutators_at(algebra, xs, ys, lps[-1:])])
            if rank == len(values):
                break  # one row per pair: this probe cannot add rank
            new_rank = al.numeric_rank_only(values)
            if new_rank <= rank:
                break
            rank = new_rank
    lmul_values = np.hstack([np.eye(d), *lps])
    der_values = np.hstack([np.zeros((len(values), d)), values])
    dim_gl = al.numeric_rank_only(np.concatenate([lmul_values, der_values]))
    if dim_gl != d + rank:
        raise NumericalFailure(
            f"span of L(V) and derivations has rank {dim_gl}, "
            f"expected {d} + {rank}")
    pairs = np.stack([xs, ys])
    pairs.setflags(write=False)
    return GlOmegaSpan(algebra, pairs, rank, dim_gl)


def bracket(algebra: al.AlgebraDescriptor, f1: GradedField,
            f2: GradedField) -> GradedField:
    """[f1∂, f2∂] = (f2'f1 - f1'f2)∂, returned in graded coefficients.

    The degree-one coefficient uses M(u, w) of :func:`_mmat`.
    """
    _check_field(algebra, f1, f2)
    u1, a1, w1 = f1.u, f1.A, f1.w
    u2, a2, w2 = f2.u, f2.A, f2.w

    u_out = a2 @ u1 - a1 @ u2
    a_out = (a2 @ a1 - a1 @ a2 - 2.0 * _mmat(algebra, u1, w2)
             + 2.0 * _mmat(algebra, u2, w1))
    e = al.unit(algebra)
    l1e = al.lmul(algebra, a1 @ e)
    l2e = al.lmul(algebra, a2 @ e)
    w_out = a2 @ w1 - a1 @ w2 + 2.0 * (l1e @ w2) - 2.0 * (l2e @ w1)
    return GradedField(u_out, a_out, w_out)


def random_field(algebra: al.AlgebraDescriptor, rng) -> GradedField:
    """Gaussian sample of 𝔥: u, w standard normal, A a random gl(Ω) element."""
    span = gl_omega_span(algebra)
    coeffs = rng.standard_normal(span.rows.shape[0])
    A = (coeffs @ span.rows).reshape(algebra.dim, algebra.dim)
    return GradedField(rng.standard_normal(algebra.dim), A,
                       rng.standard_normal(algebra.dim))


def dim_table(algebra: al.AlgebraDescriptor) -> dict:
    """Numerically computed dimensions of the graded automorphism algebra.

    Reads only the two dimensions of :func:`gl_omega_span`, so it builds
    no orthonormal rows and no dim²-wide array. The sl rows subtract the
    one-dimensional center of gl(Ω); the full field algebra adds
    translations and quadratic fields, 2·dim V in total. The bounded
    realization has the same semisimple part, hence the equal sl_D column.
    """
    span = gl_omega_span(algebra)
    sl = span.dim_gl_omega - 1
    return {
        "dim_der": span.dim_der,
        "dim_sl_omega": sl,
        "dim_aut_H": 2 * algebra.dim + span.dim_gl_omega,
        "dim_sl_D": sl,
    }


def expected_dim_table(algebra: al.AlgebraDescriptor) -> dict:
    """Closed forms for the same dimensions, for cross-checking.

    At rank 1 every family is V = ℝ: no derivations, gl(Ω) = ℝ, and the
    tube is the upper half-plane with aut = sl(2, ℝ).
    """
    r, n = algebra.rank, algebra.peirce_constant
    family = algebra.family
    if r == 1:
        return {"dim_der": 0, "dim_sl_omega": 0, "dim_aut_H": 3, "dim_sl_D": 0}
    der = {
        "spin": n * (n + 1) // 2,
        "hermR": r * (r - 1) // 2,
        "hermC": r * r - 1,
        "hermH": r * (2 * r + 1),
        "albert": 52,
    }[family]
    if family == "albert":
        sl, aut = 78, 133
    else:
        sl = n * (r * r - 2) + math.comb(n, 2) + 1
        aut = {
            "spin": (n + 3) * (n + 4) // 2,
            "hermR": r * (2 * r + 1),
            "hermC": 4 * r * r - 1,
            "hermH": 2 * r * (4 * r - 1),
        }[family]
    return {
        "dim_der": der,
        "dim_sl_omega": sl,
        "dim_aut_H": aut,
        "dim_sl_D": sl,
    }


@dataclass
class VanishingReport:
    """Vanishing of f(a) (value_zero) and of f'(a) (one_jet_zero) at a."""

    value_zero: bool
    one_jet_zero: bool
    f_value: np.ndarray
    f_prime: np.ndarray


def vanishing_conditions(algebra: al.AlgebraDescriptor, field: GradedField,
                         a) -> VanishingReport:
    """Vanishing of f and f' at a real point a whose spectrum satisfies (*).

    f(a) = 0 splits into the real part Aa = 0 and imaginary part
    u + P(a)w = 0. The derivative vanishes exactly when A = 0 and w lies
    in the Peirce-zero space of the support idempotent of a, so both flags
    are decided from the coefficients alone; the report also carries the
    directly evaluated f(a) and f'(a) for independent confirmation.
    """
    _check_field(algebra, field)
    a = al.as_real_element(algebra, a)
    data = sp.spectral_decompose(algebra, a)
    if not sp.condition_star_holds(data.eigenvalues):
        raise ConditionStarViolated(
            f"spectrum {data.eigenvalues} has cancelling eigenvalue pairs")
    tol = 1e-9
    scale = max(1.0, float(np.linalg.norm(a)))
    real_part = field.A @ a
    imag_part = field.u + al.pquad(algebra, a) @ field.w
    value_zero = (np.linalg.norm(real_part) <= tol * scale
                  and np.linalg.norm(imag_part) <= tol * scale)
    support = data.frame[sp._signature(data.eigenvalues)[1]].sum(axis=0)
    pi0 = sp.peirce_projections(algebra, support).pi0
    one_jet_zero = bool(np.linalg.norm(field.A) <= tol
                        and np.linalg.norm(field.w - pi0 @ field.w) <= tol)
    f_value = real_part + 1j * imag_part
    f_prime = field_derivative(algebra, field, a)
    return VanishingReport(value_zero, one_jet_zero, f_value, f_prime)


@dataclass
class NonresonanceResult:
    nonresonant: bool
    exact: bool
    bound: int
    witness: tuple | None = None


def _multi_indices(length: int, total: int):
    """All m ≥ 0 with |m| = total, first component descending."""
    if length == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for rest in _multi_indices(length - 1, total - head):
            yield (head,) + rest


def monomial_weight(m, j: int, eigenvalues) -> complex:
    """Σ m_i λ_i − λ_j for a multi-index m and a 1-based component j, summed
    on λ·2^-k below 2^500: only a weight past the float range raises."""
    lam = require_finite(np.asarray(eigenvalues, dtype=complex), "eigenvalue list")
    m = read_real(m, "multi-index")
    j = read_int(j, "component", IndexOutOfRange)
    if m.shape != lam.shape:
        raise DimensionMismatch(
            f"multi-index length {m.shape} does not match {lam.shape} eigenvalues")
    if not 1 <= j <= lam.size:
        raise IndexOutOfRange(f"component {j} outside 1..{lam.size}")
    lam, k = al.below_2_500(lam)
    with np.errstate(over="ignore", invalid="ignore"):
        w = m @ lam - lam[j - 1]
        w = complex(np.ldexp(w.real, k), np.ldexp(w.imag, k))
    if not np.isfinite(w):
        raise NumericalFailure(f"monomial weight of {m.tolist()} passes the float range")
    return w


def nonresonant(eigenvalues, bound: int) -> NonresonanceResult:
    """Search Σ m_i λ_i = λ_j over 2 ≤ |m| ≤ bound.

    The verdict is exact when the search provably exhausts all resonance
    candidates: all real parts on one side of zero and the bound at least
    max|Re λ| / min|Re λ|. A found witness is always exact. The search runs
    on λ·2^-k below 2^500 (see ``algebra.below_2_500``), so no weight
    overflows, and a ratio past the float range is never within the bound.
    """
    lam = require_finite(np.asarray(eigenvalues, dtype=complex), "eigenvalue list")
    if lam.ndim != 1 or lam.size == 0:
        raise DimensionMismatch("eigenvalue list must be a nonempty vector")
    bound = read_int(bound, "resonance bound", InvalidBound)
    if bound < 2:
        raise InvalidBound(f"resonance search needs bound >= 2, got {bound}")
    scaled, k = al.below_2_500(lam)
    cut = 1e-9 * max(2.0 ** -k, float(np.max(np.abs(scaled))))
    for total in range(2, bound + 1):
        for m in _multi_indices(lam.size, total):
            weights = np.asarray(m, dtype=float) @ scaled - scaled
            hits = np.nonzero(np.abs(weights) <= cut)[0]
            if hits.size:
                return NonresonanceResult(False, True, bound,
                                          (m, int(hits[0]) + 1))
    re = lam.real
    if np.all(re > 0) or np.all(re < 0):
        # any resonance needs |m| * min|Re| <= max|Re|, so the search
        # below this bound is exhaustive; bound >= x is bound >= ceil(x)
        with np.errstate(over="ignore"):
            exact = bool(bound >= np.max(np.abs(re)) / np.min(np.abs(re)))
    else:
        exact = False
    return NonresonanceResult(True, exact, bound)


def diagonal_flow_coefficients(v, c, t: float):
    """Closed-form flow of ż_j = i v_j z_j² through z(0) = c, per coordinate.

    Solves to z_j(t) = c_j / (1 − i v_j c_j t); the pole is reported as a
    FlowSingularity instead of returning an overflow, and a quotient past
    the float range next to it as a NumericalFailure.

    v c t can overflow where the quotient is finite. Where the plain formula
    could overflow, numerator and denominator are divided by 2^s ≥ |v c t|,
    and v and t are scaled by powers of two 2^-a and 2^-b with a + b = s, so
    that no product passes 2^1023. Elsewhere a = b = s = 0, and the plain
    formula runs unchanged.
    """
    # NaN passes the pole test below and would come back as nan+nanj
    v, t = np.atleast_1d(read_real(v, "flow rate")), read_real(t, "flow time")
    c = np.atleast_1d(require_finite(np.asarray(c, dtype=complex), "start value"))
    if v.ndim != 1 or c.ndim != 1 or t.ndim:
        raise DimensionMismatch("flow rates and start values must be vectors and the time "
                                f"a scalar, got shapes {v.shape}, {c.shape} and {t.shape}")
    if v.shape != c.shape:
        raise DimensionMismatch(f"rate shape {v.shape} != start shape {c.shape}")
    # 2^k bounds each factor; a zero gets a k that bounds every product by 0
    kv, kc, kt = (np.where(f == 0, -4096, np.frexp(f)[1])
                  for f in (v, np.maximum(abs(c.real), abs(c.imag)), t))
    plain = (kv + kc <= 1023) & (kv + kc + kt <= 1023)
    s = np.where(plain, 0, np.maximum(kv + kc + kt, 0))
    a = np.where(plain, 0, np.maximum(kv + kc - 1023, 0))
    denom = np.ldexp(1.0, -s) - 1j * np.ldexp(v, -a) * c * np.ldexp(t, a - s)
    bad = np.abs(denom) < np.ldexp(1e-12, -s)
    if np.any(bad):
        raise FlowSingularity(
            f"flow reaches a pole at t = {t} in component {int(np.nonzero(bad)[0][0])}")
    num = np.empty_like(c)
    num.real = np.ldexp(c.real, -s)
    num.imag = np.ldexp(c.imag, -s)
    with np.errstate(over="ignore", invalid="ignore"):
        g = num / denom
    bad = ~np.isfinite(g)
    if np.any(bad):
        raise NumericalFailure(f"flow coefficient passes the float range at t = {t} "
                               f"in component {int(np.nonzero(bad)[0][0])}")
    return g


def diagonal_flow(algebra: al.AlgebraDescriptor, frame, v_coeffs, c_coeffs,
                  t: float):
    """Flow of the field iP(z)w∂ with w = Σ v_j e_j through c = Σ c_j e_j.

    The field is tangent to the diagonal span of the frame, where the ODE
    decouples into scalar Riccati equations with the closed-form solution
    of diagonal_flow_coefficients. Returns the complex element Σ g_j(t) e_j.
    """
    frame = read_real(frame, "frame")
    if frame.ndim != 2 or frame.shape[1] != algebra.dim:
        raise DimensionMismatch(f"frame shape {frame.shape} does not fit dim {algebra.dim}")
    g = diagonal_flow_coefficients(v_coeffs, c_coeffs, t)
    if g.shape[0] != frame.shape[0]:
        raise DimensionMismatch("coefficient count does not match the frame")
    return g @ frame.astype(complex)
