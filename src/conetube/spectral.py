"""Spectral decompositions, generic minors, orbit signatures, Peirce theory.

Every real element x decomposes as x = Σ λ_j e_j over a frame of mutually
orthogonal minimal idempotents summing to the unit. The eigenvalue routes are
family specific:

* spin factors have the closed form λ = s ± |u| with frame (1, ±u/|u|)/2;
* hermR/hermC/hermH eigendecompose the Hermitian matrix realisation, of
  size 2r x 2r for hermH, and take the frame straight from the orthonormal
  eigenvectors, which give minimal idempotents even for repeated
  eigenvalues. A hermH spectrum comes in pairs (v, Jv) spanning one
  quaternionic line, so r eigenvectors on distinct lines are picked;
* albert solves the rank-3 characteristic polynomial obtained from power
  traces by Newton's identities and builds one Lagrange idempotent per root
  cluster from powers of x. A cluster of multiplicity 2 is split in closed
  form (see below); the frame is then purified, and every eigenvalue is the
  Rayleigh value tr(x ∘ e_j), which is exact on an exact frame.

albert's only split is of a rank-2 idempotent c, and the Peirce-1 subalgebra
V_1(c) = P(c)V is then a spin factor (Faraut–Korányi, Analysis on Symmetric
Cones, ch. IV): the trace-free part u of any of its elements has u ∘ u = μc,
so (c ± u/√μ)/2 are two orthogonal minimal idempotents summing to c. No
candidate is searched and no random number is drawn.

Every route decomposes x·2^-e, where 2^e is the power of two just above
max|x|, and the eigenvalues are multiplied back by 2^e once at the end. So
every family is exactly equivariant under x -> 2^k x: the frame bytes stay
the same and the eigenvalues scale exactly, from subnormal elements up to
those whose eigenvalues overflow, which raise NumericalFailure.

orbit_signature reads only the eigenvalues and builds no support. One rule,
_signature, decides which eigenvalues count as positive, negative or zero,
and refuses the borderline band; support_idempotent, the orbit command and
fields.vanishing_conditions sum the support over the frame members it marks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import algebra as al
from .errors import (
    BorderlineSpectrum,
    InvalidFrame,
    NonFiniteInput,
    NotIdempotent,
    NumericalFailure,
    require_finite,
)

# The one spectral tolerance, fixed: no function or command takes another.
# It bounds the frame and reconstruction residuals of every decomposition and
# the frame and idempotency checks of the Peirce projections, and it is the
# sign cut of orbit_signature, relative to the largest eigenvalue magnitude,
# with the band (SPECTRAL_TOL/10, SPECTRAL_TOL) refused as borderline.
SPECTRAL_TOL = 1e-8

# polynomial-root noise on an m-fold root scales like eps^(1/m), so the
# rank-3 route merges roots closer than this, relative to the largest
_ROOT_CLUSTER_REL_GAP = 2e-4

# J(v1, v2) = (-v̄2, v̄1) is conj((v2, v1) * _J_SIGNS) on each 2-block
_J_SIGNS = np.array([-1, 1])


class Signature(NamedTuple):
    p: int
    q: int


@dataclass
class SpectralData:
    """Eigenvalues (descending) and frame rows with x = Σ λ_j frame[j]."""

    eigenvalues: np.ndarray
    frame: np.ndarray


@dataclass
class PeirceData:
    """Projections onto the eigenspaces of L(c) at 1, 1/2, 0."""

    pi1: np.ndarray
    pi_half: np.ndarray
    pi0: np.ndarray
    dims: tuple[int, int, int]


@dataclass
class JointPeirceData:
    """Joint Peirce projections of a frame, keyed by pairs j <= k (0-based)."""

    projections: dict[tuple[int, int], np.ndarray]
    dims: dict[tuple[int, int], int]


# ---------------------------------------------------------------------------
# albert eigenvalues via Newton's identities


def _power_traces(algebra, x):
    """(tr x, tr x², …, tr x^r) for r the rank of the algebra."""
    traces = np.empty(algebra.rank)
    power = x
    for k in range(algebra.rank):
        traces[k] = al.generic_trace(algebra, power)
        if k + 1 < algebra.rank:
            power = al.jordan_product(algebra, power, x)
    return traces


def _char_roots(p):
    """Eigenvalues of x in a rank-m algebra from p = (tr x, …, tr x^m)."""
    m = len(p)
    e = np.zeros(m + 1)
    e[0] = 1.0
    for k in range(1, m + 1):
        acc = 0.0
        for i in range(1, k + 1):
            acc += (-1) ** (i - 1) * e[k - i] * p[i - 1]
        e[k] = acc / k
    coeffs = np.array([(-1) ** k * e[k] for k in range(m + 1)])
    roots = np.roots(coeffs)
    # repeated roots of a degree-m polynomial carry imaginary noise up to
    # roughly eps^(1/m); anything above that is a genuine failure
    if np.max(np.abs(roots.imag)) > 1e-4 * max(1.0, np.max(np.abs(roots))):
        raise NumericalFailure("complex roots in a formally real spectrum")
    roots = np.sort(roots.real)[::-1]
    # a couple of Newton polish steps on the characteristic polynomial
    deriv = np.polyder(coeffs)
    for _ in range(2):
        vals = np.polyval(coeffs, roots)
        dervals = np.polyval(deriv, roots)
        safe = np.abs(dervals) > 1e-30
        roots[safe] -= vals[safe] / dervals[safe]
    return roots


def _refine_cluster_values(power_traces, values, mults):
    """Newton-polish cluster representatives against exact power traces.

    With known multiplicities the values solve Σ_i m_i μ_i^k = p_k for
    k = 1..s; the Jacobian is a generalized Vandermonde matrix, nonsingular
    for separated clusters, so two or three steps reach machine precision
    even when the raw polynomial roots only carried eps^(1/mult) accuracy.
    """
    mu = np.asarray(values, dtype=float).copy()
    m = np.asarray(mults, dtype=float)
    s = len(mu)
    p = np.asarray(power_traces[:s], dtype=float)
    for _ in range(4):
        F = np.array([np.sum(m * mu ** k) - p[k - 1] for k in range(1, s + 1)])
        J = np.array([[k * m[i] * mu[i] ** (k - 1) for i in range(s)]
                      for k in range(1, s + 1)])
        try:
            step = np.linalg.solve(J, F)
        except np.linalg.LinAlgError:
            break
        mu -= step
        if np.max(np.abs(step)) < 1e-14 * max(1.0, np.max(np.abs(mu))):
            break
    return mu


def _cluster(values, gap):
    """Group a descending array into runs separated by more than ``gap``."""
    groups = [[0]]
    for i in range(1, len(values)):
        if values[groups[-1][-1]] - values[i] <= gap:
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


def _lagrange_idempotents(algebra, x, values):
    """Idempotents ∏_{k≠j}(x - μ_k e)/(μ_j - μ_k) for the distinct values μ_j."""
    e = al.unit(algebra)
    out = []
    for j, mu in enumerate(values):
        prod = e
        denom = 1.0
        for k, nu in enumerate(values):
            if k == j:
                continue
            prod = al.jordan_product(algebra, prod, x - nu * e)
            denom *= mu - nu
        out.append(prod / denom)
    return out


def _split_idempotent(algebra, c, m):
    """Split an idempotent of rank m <= 2 into m minimal orthogonal idempotents.

    For m = 2, V_1(c) is a spin factor: u, the largest trace-free part of a
    column of P(c), has u∘u = μc, and the frame of c is (c ± u/√μ)/2.
    """
    if m == 1:
        return [c]
    pc = al.pquad(algebra, c)
    # generic traces of every column of P(c) in one product
    T = al.multiplication_table(algebra)
    traces = np.einsum("cii->c", T) * (algebra.rank / algebra.dim)
    free = pc - np.outer(c, traces @ pc / m)
    u = free[:, np.argmax(np.linalg.norm(free, axis=0))]
    f = u / math.sqrt(traces @ al.jordan_product(algebra, u, u) / m)
    return [(c + f) / 2, (c - f) / 2]


def _purify_frame(algebra, frame):
    """Push an approximate frame onto an exact one.

    Newton's idempotent iteration c ← 3c² - 2c³ converges quadratically;
    projecting each member into the joint Peirce-0 space of the already
    purified ones restores mutual orthogonality at the same rate.
    """
    e = al.unit(algebra)
    rows = []
    used = np.zeros_like(e)
    for j in range(frame.shape[0]):
        c = frame[j]
        if j:
            c = al.pquad(algebra, e - used) @ c
        for _ in range(3):
            cc = al.jordan_product(algebra, c, c)
            c = 3.0 * cc - 2.0 * al.jordan_product(algebra, c, cc)
        used = used + c
        rows.append(c)
    return np.vstack(rows)


# ---------------------------------------------------------------------------
# spectral decomposition


def _frame_products(algebra, frame):
    """All products frame[j] ∘ frame[k] = frame[k] L(frame[j])ᵀ, shape (r, r, dim)."""
    return frame @ al._lmul_stack(algebra, frame, transposed=True)


def _validate_spectral(algebra, eigenvalues, frame, x):
    r, d = frame.shape
    resid = _frame_products(algebra, frame)
    # idempotency residuals on the diagonal, orthogonality off it; the diagonal
    # is a strided view of the C-contiguous resid, so the -= lands in resid
    resid.reshape(r * r, d)[::r + 1] -= frame
    total = frame.sum(axis=0)
    total[al._unit_support(algebra)] -= 1.0  # total is now Σ e_j - e
    worst = max(float(abs(resid).max()), float(abs(total).max()))
    recon = float(abs(eigenvalues @ frame - x).max())
    if worst > SPECTRAL_TOL or recon > SPECTRAL_TOL * float(abs(eigenvalues).max()):
        raise NumericalFailure(
            f"frame residual {worst:.2e}, reconstruction residual {recon:.2e} "
            f"exceed tolerance {SPECTRAL_TOL:.1e} for {algebra}")


def _matrix_eigh(algebra: al.AlgebraDescriptor, x):
    """Eigenvalues and eigenvectors of the Hermitian matrix realisation of x.

    spectral_decompose passes x scaled to max|x| in [1/2, 1), so the matrix
    has entries of order one and LAPACK never rescales it, which would cost
    the last bit of a tiny eigenvalue.
    """
    try:
        return np.linalg.eigh(al.element_to_matrix(algebra, x))
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"Hermitian eigensolver failed: {exc}") from exc


def _quaternionic_lines(w, U):
    """One eigenvector per quaternionic line of the 2r x 2r realisation.

    Each pick is the eigenvector with the largest remainder outside the
    lines (v, Jv) picked so far, J(v1, v2) = (-v̄2, v̄1) on every 2-block;
    the remainder is the next v, and w[i] its eigenvalue. v and Jv are
    written into one preallocated basis; nothing is picked before the
    first pick, so its remainder is U itself.
    """
    n = U.shape[0]
    picked = np.empty((n, n), dtype=U.dtype)  # columns v, Jv, v, Jv, ...
    chosen = []
    rest = U
    for m in range(0, n, 2):
        if m:
            P = picked[:, :m]
            rest = U - P @ (P.conj().T @ U)
        norms = np.linalg.norm(rest, axis=0)
        i = int(norms.argmax())
        v = np.divide(rest[:, i], norms[i], out=picked[:, m])
        jv = picked[:, m + 1].reshape(-1, 2)
        np.conjugate(np.multiply(v.reshape(-1, 2)[:, ::-1], _J_SIGNS, out=jv), out=jv)
        chosen.append(i)
    return w[chosen], picked[:, 0::2]


def _albert_clusters(algebra, x):
    """(Lagrange idempotent, multiplicity) of each characteristic-root cluster."""
    # the frame of x equals the frame of its trace-free part, whose
    # eigenvalue spread is order one after normalisation; recentering
    # keeps the characteristic-root route away from clustered roots
    e = al.unit(algebra)
    lam_mean = float(al.generic_trace(algebra, x)) / algebra.rank
    xc = x - lam_mean * e
    nrm = float(np.linalg.norm(xc))
    if nrm <= 1e-14 * abs(lam_mean):
        return [(c, 1) for c in al.standard_frame(algebra)]
    y = xc / nrm
    traces = _power_traces(algebra, y)
    roots = _char_roots(traces)
    scale = max(1.0, float(np.max(np.abs(roots))))
    groups = _cluster(roots, _ROOT_CLUSTER_REL_GAP * scale)
    if len(groups) == 1:
        raise NumericalFailure("trace-free unit element reported a triple eigenvalue")
    mults = [len(g) for g in groups]
    values = _refine_cluster_values(
        traces, [float(np.mean(roots[g])) for g in groups], mults)
    return list(zip(_lagrange_idempotents(algebra, y, values), mults))


def spectral_decompose(algebra: al.AlgebraDescriptor, x) -> SpectralData:
    """Frame decomposition x = Σ λ_j e_j with eigenvalues descending."""
    x = al.as_real_element(algebra, x)
    big = float(np.abs(x).max())
    if not math.isfinite(big):
        raise NonFiniteInput(f"element of {algebra} has a NaN or infinite entry")
    _, exp = math.frexp(big)
    x = np.ldexp(x, -exp)  # every route sees max|x| in [1/2, 1)
    fam = algebra.family

    if fam == "spin":
        s, uvec = x[0], x[1:]
        unorm = float(np.linalg.norm(uvec))
        if unorm == 0.0:
            frame = al.standard_frame(algebra)
            eigenvalues = np.array([s, s])
        else:
            direction = uvec / unorm
            plus = 0.5 * np.concatenate(([1.0], direction))
            minus = 0.5 * np.concatenate(([1.0], -direction))
            frame = np.vstack([plus, minus])
            eigenvalues = np.array([s + unorm, s - unorm])
    elif fam in ("hermR", "hermC", "hermH"):
        w, U = _matrix_eigh(algebra, x)
        if fam == "hermH":
            w, U = _quaternionic_lines(w, U)
        order = np.argsort(w)[::-1]
        eigenvalues = w[order]
        V = U[:, order].T  # row i is the eigenvector of eigenvalues[i]
        frame = al.matrix_to_element(algebra, V[:, :, None] * V[:, None, :].conj())
        if fam == "hermH":
            frame *= 2.0  # v v* is half of its line's projector v v* + Jv (Jv)*
    else:  # albert
        frame = np.vstack([piece for c, mult in _albert_clusters(algebra, x)
                           for piece in _split_idempotent(algebra, c, mult)])
        frame = _purify_frame(algebra, frame)
        # Rayleigh values are exact on exact frames
        eigenvalues = np.array([
            al.generic_trace(algebra, al.jordan_product(algebra, x, c))
            for c in frame])

    order = np.argsort(eigenvalues, kind="stable")[::-1]
    eigenvalues = eigenvalues[order]
    frame = frame[order]
    _validate_spectral(algebra, eigenvalues, frame, x)
    # compare exponents, so that an overflow raises before ldexp warns
    if math.frexp(float(np.abs(eigenvalues).max()))[1] + exp > 1024:
        raise NumericalFailure(f"an eigenvalue overflows for {algebra}")
    return SpectralData(np.ldexp(eigenvalues, exp), frame)


# ---------------------------------------------------------------------------
# minors, signatures, supports


def _minors(eigenvalues) -> np.ndarray:
    """Elementary symmetric functions N_1..N_r of the eigenvalues.

    Finite eigenvalues can still have products past the float range, and
    np.poly overflows without a warning, so a minor that is not finite raises.
    """
    coeffs = np.poly(eigenvalues)  # t^r + c_1 t^{r-1} + ... ; c_k = (-1)^k N_k
    minors = np.array([(-1) ** k * coeffs[k] for k in range(1, len(eigenvalues) + 1)])
    bad = np.flatnonzero(~np.isfinite(minors))
    if bad.size:
        raise NumericalFailure(f"generic minor N_{bad[0] + 1} overflows the float range")
    return minors


def generic_minors(algebra: al.AlgebraDescriptor, x) -> tuple[np.ndarray, float]:
    """(N_1..N_r, N): j-th elementary symmetric functions of the eigenvalues.

    With this normalisation N = N_r is the product of all eigenvalues and
    N(e) = 1; N_j vanishes identically on elements of rank below j.
    """
    minors = _minors(spectral_decompose(algebra, x).eigenvalues)
    return minors, float(minors[-1])


def _signature(eigenvalues) -> tuple[Signature, list[bool]]:
    """The rule of orbit_signature: (p, q), and which eigenvalues it counts.

    Each eigenvalue is taken relative to the largest magnitude. It counts as
    positive from SPECTRAL_TOL up, as negative from -SPECTRAL_TOL down, and as
    zero up to SPECTRAL_TOL/10 in magnitude; the open band between is refused
    as borderline.
    The rule runs over Python floats: at rank 2 to 7 a numpy pass costs
    several times more. The mask marks the frame members of the support.
    """
    tol = SPECTRAL_TOL
    lam = eigenvalues.tolist()
    scale = max(map(abs, lam))
    rel = [v / scale for v in lam] if scale else lam
    band = [v for v in rel if tol / 10 < abs(v) < tol]
    if band:
        raise BorderlineSpectrum(
            f"eigenvalue ratio(s) {np.array(band)} inside the ({tol/10:.0e}, {tol:.0e}) band")
    sig = Signature(sum(v >= tol for v in rel), sum(v <= -tol for v in rel))
    return sig, [abs(v) >= tol for v in rel]


def orbit_signature(algebra: al.AlgebraDescriptor, x) -> Signature:
    """Orbit label (p, q): counts of positive/negative eigenvalues.

    Eigenvalues are compared against SPECTRAL_TOL relative to the largest
    magnitude; anything in the band (SPECTRAL_TOL/10, SPECTRAL_TOL) is
    refused as borderline.
    """
    return _signature(spectral_decompose(algebra, x).eigenvalues)[0]


def orbit_count(rank: int) -> int:
    """Number of cone-closure orbits: one per signature p + q <= rank."""
    return math.comb(rank + 2, 2)


def condition_star_holds(eigenvalues) -> bool:
    """True when λ_j + λ_k = 0 only happens with λ_j = λ_k = 0."""
    # NaN fails every comparison below and would read as "no pair cancels"
    lam = require_finite(np.asarray(eigenvalues, dtype=float), "eigenvalue list")
    lam, k = al.below_2_500(lam)  # no pair sum passes the float range
    cut = 1e-10 * np.max(np.abs(lam), initial=2.0 ** -k)
    nonzero = np.abs(lam) > cut
    cancels = np.abs(np.add.outer(lam, lam)) <= cut
    return not np.any(cancels & (nonzero[:, None] | nonzero))


def support_idempotent(algebra: al.AlgebraDescriptor, x) -> np.ndarray:
    """Sum of the frame idempotents belonging to nonzero eigenvalues."""
    sd = spectral_decompose(algebra, x)
    return sd.frame[_signature(sd.eigenvalues)[1]].sum(axis=0)


# ---------------------------------------------------------------------------
# Peirce decompositions


def peirce_projections(algebra: al.AlgebraDescriptor, c) -> PeirceData:
    """Projections onto V_1, V_{1/2}, V_0 for a single idempotent c.

    L(c) has spectrum in {1, 1/2, 0}, so the projections are the quadratic
    polynomials in L(c) interpolating each eigenvalue; no eigensolver runs.
    """
    c = require_finite(al.as_real_element(algebra, c), "idempotent")
    cs, k = al.below_2_500(c)  # c∘c past the float range would pass as inf <= inf
    scale = max(2.0 ** -k, float(np.max(np.abs(cs)))) ** 2
    resid = np.max(np.abs(al.jordan_product(algebra, cs, cs) - 2.0 ** -k * cs))
    if resid > SPECTRAL_TOL * scale:
        raise NotIdempotent(f"c∘c − c is {resid / scale:.2e} of max(1, max|c|)²")
    L = al.lmul(algebra, c)
    L2 = L @ L
    eye = np.eye(algebra.dim)
    pi1 = 2.0 * L2 - L
    pi_half = 4.0 * (L - L2)
    pi0 = eye - 3.0 * L + 2.0 * L2
    dims = tuple(int(round(float(np.trace(p)))) for p in (pi1, pi_half, pi0))
    return PeirceData(pi1, pi_half, pi0, dims)


def _check_frame(algebra, frame):
    frame = np.asarray(frame, dtype=float)
    if frame.shape != (algebra.rank, algebra.dim):
        raise InvalidFrame(
            f"frame must be {algebra.rank} x {algebra.dim}, got {frame.shape}")
    require_finite(frame, "frame")
    e = al.unit(algebra)
    r, d = frame.shape
    resid = _frame_products(algebra, frame)
    resid.reshape(r * r, d)[::r + 1] -= frame  # a view, as in _validate_spectral
    worst = np.abs(resid).max(axis=2)
    for j in range(r):
        if worst[j, j] > SPECTRAL_TOL:
            raise InvalidFrame(f"frame member {j} is not idempotent")
        if abs(al.generic_trace(algebra, frame[j]) - 1.0) > 1e-6:
            raise InvalidFrame(f"frame member {j} is not minimal")
        for k in range(j + 1, r):
            if worst[j, k] > SPECTRAL_TOL:
                raise InvalidFrame(f"frame members {j}, {k} are not orthogonal")
    if np.max(np.abs(frame.sum(axis=0) - e)) > SPECTRAL_TOL:
        raise InvalidFrame("frame does not sum to the unit")
    return frame


def joint_peirce(algebra: al.AlgebraDescriptor, frame) -> JointPeirceData:
    """Joint Peirce projections π_jk for a full frame (0-based keys, j <= k).

    π_jj = 2 L_j² - L_j and π_jk = 4 L_j L_k with L_j = L(e_j); the L_j
    commute, all projections are polynomial and sum to the identity. The
    L_j are stacked once, and every product L_j L_k comes from one batched
    matmul over the pairs of ``np.triu_indices(r)``, which is the key order.
    """
    frame = _check_frame(algebra, frame)
    ls = al._lmul_stack(algebra, frame)  # (r, dim, dim)
    j, k = np.triu_indices(algebra.rank)
    stack = ls[j] @ ls[k]
    diag = j == k
    stack[~diag] *= 4.0
    stack[diag] = 2.0 * stack[diag] - ls
    if np.max(np.abs(stack.sum(axis=0) - np.eye(algebra.dim))) > SPECTRAL_TOL * algebra.rank:
        raise InvalidFrame("joint Peirce projections do not resolve the identity")
    keys = list(zip(j.tolist(), k.tolist()))
    dims = np.rint(np.trace(stack, axis1=1, axis2=2)).astype(int).tolist()
    return JointPeirceData(dict(zip(keys, stack)), dict(zip(keys, dims)))
