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
  cluster from powers of x. It splits every idempotent of multiplicity
  m > 1 into m minimal ones, purifies the frame, and takes every eigenvalue
  from the Rayleigh value tr(x ∘ e_j), which is exact on an exact frame.

Repeated-root splitting works inside the Peirce-1 subalgebra V_1(c) of the
degenerate idempotent c: a deterministic candidate list (coordinate basis
vectors, then Gaussian vectors from a fixed seed) is projected into V_1(c)
and the candidate whose subalgebra spectrum separates best is used to build
minimal Lagrange idempotents.
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
    NotIdempotent,
    NumericalFailure,
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


class Signature(NamedTuple):
    p: int
    q: int


@dataclass
class SpectralData:
    """Eigenvalues (descending) and frame rows with x = Σ λ_j frame[j]."""

    algebra: al.AlgebraDescriptor
    eigenvalues: np.ndarray
    frame: np.ndarray

    @property
    def rank(self) -> int:
        return len(self.eigenvalues)


@dataclass
class PeirceData:
    """Projections onto the eigenspaces of L(c) at 1, 1/2, 0."""

    algebra: al.AlgebraDescriptor
    idempotent: np.ndarray
    pi1: np.ndarray
    pi_half: np.ndarray
    pi0: np.ndarray
    dims: tuple[int, int, int]


@dataclass
class JointPeirceData:
    """Joint Peirce projections of a frame, keyed by pairs j <= k (0-based)."""

    algebra: al.AlgebraDescriptor
    frame: np.ndarray
    projections: dict[tuple[int, int], np.ndarray]
    dims: dict[tuple[int, int], int]


# ---------------------------------------------------------------------------
# eigenvalues inside a subalgebra via Newton's identities


def _power_traces(algebra, x, m):
    traces = np.empty(m)
    power = x
    for k in range(m):
        traces[k] = al.generic_trace(algebra, power)
        if k + 1 < m:
            power = al.jordan_product(algebra, power, x)
    return traces


def _char_roots(p):
    """Eigenvalues of x inside a rank-m subalgebra from p = (tr x, …, tr x^m)."""
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


def _split_candidates(algebra):
    dim = algebra.dim
    for i in range(dim):
        vec = np.zeros(dim)
        vec[i] = 1.0
        yield vec
    rng = np.random.default_rng(0)
    for _ in range(16):
        yield rng.standard_normal(dim)


def _lagrange_idempotents(algebra, x, values, unit_elem):
    """Idempotents ∏_{k≠j}(x - μ_k u)/(μ_j - μ_k); x, u in one subalgebra."""
    out = []
    for j, mu in enumerate(values):
        prod = unit_elem
        denom = 1.0
        for k, nu in enumerate(values):
            if k == j:
                continue
            prod = al.jordan_product(algebra, prod, x - nu * unit_elem)
            denom *= mu - nu
        out.append(prod / denom)
    return out


def _split_idempotent(algebra, c, m):
    """Split an idempotent of rank m into m minimal orthogonal idempotents."""
    if m == 1:
        return [c]
    pi1 = al.pquad(algebra, c)
    best = None
    for cand in _split_candidates(algebra):
        y = pi1 @ cand
        scale = np.max(np.abs(y))
        if scale < 1e-10:
            continue
        try:
            roots = _char_roots(_power_traces(algebra, y, m))
        except NumericalFailure:
            continue
        spread = roots[0] - roots[-1]
        if spread <= 1e-10 * max(1.0, scale):
            continue
        gap = np.min(np.diff(roots[::-1])) / spread
        if best is None or gap > best[0]:
            best = (gap, y, roots)
        if gap > 0.1:
            break
    if best is None or best[0] < 1e-3:
        raise NumericalFailure(
            f"could not separate a rank-{m} idempotent in {algebra}")
    _, y, roots = best
    pieces = _lagrange_idempotents(algebra, y, roots, c)
    out = []
    for piece in pieces:
        rank = int(round(al.generic_trace(algebra, piece)))
        if rank != 1:
            raise NumericalFailure("separating candidate produced a non-minimal piece")
        out.append(piece)
    return out


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
    """All products frame[j] ∘ frame[k], shape (r, r, dim), in one contraction."""
    return np.tensordot(frame, frame @ al.multiplication_table(algebra), axes=(1, 0))


def _validate_spectral(algebra, eigenvalues, frame, x):
    scale = float(np.max(np.abs(eigenvalues)))
    e = al.unit(algebra)
    r = len(frame)
    resid = _frame_products(algebra, frame)
    # idempotency residuals on the diagonal, orthogonality off it
    resid[range(r), range(r)] -= frame
    worst = max(float(np.max(np.abs(resid))),
                float(np.max(np.abs(frame.sum(axis=0) - e))))
    recon = float(np.max(np.abs(eigenvalues @ frame - x)))
    if worst > SPECTRAL_TOL or recon > SPECTRAL_TOL * scale:
        raise NumericalFailure(
            f"frame residual {worst:.2e}, reconstruction residual {recon:.2e} "
            f"exceed tolerance {SPECTRAL_TOL:.1e} for {algebra}")


def _matrix_eigh(algebra: al.AlgebraDescriptor, x):
    """Eigenvalues and eigenvectors of the Hermitian matrix realisation of x.

    x is first divided by an exact power of two, so the matrix has entries
    of order one and LAPACK never rescales it (which would cost the last bit
    of a tiny eigenvalue); the eigenvalues are multiplied back exactly.
    """
    _, exp = math.frexp(float(np.max(np.abs(x))))
    try:
        w, U = np.linalg.eigh(al.element_to_matrix(algebra, np.ldexp(x, -exp)))
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"Hermitian eigensolver failed: {exc}") from exc
    return np.ldexp(w, exp), U


def _quaternionic_lines(w, U):
    """One eigenvector per quaternionic line of the 2r x 2r realisation.

    Each pick is the eigenvector with the largest remainder outside the
    lines (v, Jv) picked so far, J(v1, v2) = (-v̄2, v̄1) on every 2-block;
    the remainder is the next v, and w[i] its eigenvalue.
    """
    picked = np.zeros((U.shape[0], 0), dtype=U.dtype)  # columns v, Jv, v, Jv, ...
    chosen = []
    for _ in range(U.shape[0] // 2):
        rest = U - picked @ (picked.conj().T @ U)
        norms = np.linalg.norm(rest, axis=0)
        i = int(np.argmax(norms))
        v = rest[:, i] / norms[i]
        jv = np.conj(v.reshape(-1, 2)[:, ::-1] * [-1, 1]).reshape(-1)
        picked = np.column_stack([picked, v, jv])
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
    traces = _power_traces(algebra, y, algebra.rank)
    roots = _char_roots(traces)
    scale = max(1.0, float(np.max(np.abs(roots))))
    groups = _cluster(roots, _ROOT_CLUSTER_REL_GAP * scale)
    if len(groups) == 1:
        raise NumericalFailure("trace-free unit element reported a triple eigenvalue")
    mults = [len(g) for g in groups]
    values = _refine_cluster_values(
        traces, [float(np.mean(roots[g])) for g in groups], mults)
    return list(zip(_lagrange_idempotents(algebra, y, values, e), mults))


def spectral_decompose(algebra: al.AlgebraDescriptor, x) -> SpectralData:
    """Frame decomposition x = Σ λ_j e_j with eigenvalues descending."""
    x = al.as_real_element(algebra, x)
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
    return SpectralData(algebra, eigenvalues, frame)


# ---------------------------------------------------------------------------
# minors, signatures, supports


def _minors(eigenvalues) -> np.ndarray:
    """Elementary symmetric functions N_1..N_r of the eigenvalues."""
    coeffs = np.poly(eigenvalues)  # t^r + c_1 t^{r-1} + ... ; c_k = (-1)^k N_k
    return np.array([(-1) ** k * coeffs[k] for k in range(1, len(eigenvalues) + 1)])


def generic_minors(algebra: al.AlgebraDescriptor, x) -> tuple[np.ndarray, float]:
    """(N_1..N_r, N): j-th elementary symmetric functions of the eigenvalues.

    With this normalisation N = N_r is the product of all eigenvalues and
    N(e) = 1; N_j vanishes identically on elements of rank below j.
    """
    minors = _minors(spectral_decompose(algebra, x).eigenvalues)
    return minors, float(minors[-1])


def _signature_and_support(sd: SpectralData) -> tuple[Signature, np.ndarray]:
    """Orbit label and support idempotent of one decomposition; see orbit_signature."""
    tol = SPECTRAL_TOL
    scale = float(np.max(np.abs(sd.eigenvalues)))
    rel = sd.eigenvalues / scale if scale else sd.eigenvalues
    in_band = (np.abs(rel) > tol / 10) & (np.abs(rel) < tol)
    if np.any(in_band):
        raise BorderlineSpectrum(
            f"eigenvalue ratio(s) {rel[in_band]} inside the ({tol/10:.0e}, {tol:.0e}) band")
    sig = Signature(int(np.sum(rel >= tol)), int(np.sum(rel <= -tol)))
    return sig, sd.frame[np.abs(rel) >= tol].sum(axis=0)


def orbit_signature(algebra: al.AlgebraDescriptor, x) -> Signature:
    """Orbit label (p, q): counts of positive/negative eigenvalues.

    Eigenvalues are compared against SPECTRAL_TOL relative to the largest
    magnitude; anything in the band (SPECTRAL_TOL/10, SPECTRAL_TOL) is
    refused as borderline.
    """
    return _signature_and_support(spectral_decompose(algebra, x))[0]


def orbit_count(rank: int) -> int:
    """Number of cone-closure orbits: one per signature p + q <= rank."""
    return math.comb(rank + 2, 2)


def support_idempotent(algebra: al.AlgebraDescriptor, x) -> np.ndarray:
    """Sum of the frame idempotents belonging to nonzero eigenvalues."""
    return _signature_and_support(spectral_decompose(algebra, x))[1]


# ---------------------------------------------------------------------------
# Peirce decompositions


def peirce_projections(algebra: al.AlgebraDescriptor, c) -> PeirceData:
    """Projections onto V_1, V_{1/2}, V_0 for a single idempotent c.

    L(c) has spectrum in {1, 1/2, 0}, so the projections are the quadratic
    polynomials in L(c) interpolating each eigenvalue; no eigensolver runs.
    """
    c = al.as_real_element(algebra, c)
    cc = al.jordan_product(algebra, c, c)
    if np.max(np.abs(cc - c)) > SPECTRAL_TOL * max(1.0, float(np.max(np.abs(c))) ** 2):
        raise NotIdempotent(f"c∘c differs from c by {np.max(np.abs(cc - c)):.2e}")
    L = al.lmul(algebra, c)
    L2 = L @ L
    eye = np.eye(algebra.dim)
    pi1 = 2.0 * L2 - L
    pi_half = 4.0 * (L - L2)
    pi0 = eye - 3.0 * L + 2.0 * L2
    dims = tuple(int(round(float(np.trace(p)))) for p in (pi1, pi_half, pi0))
    return PeirceData(algebra, c, pi1, pi_half, pi0, dims)


def _check_frame(algebra, frame):
    frame = np.asarray(frame, dtype=float)
    if frame.shape != (algebra.rank, algebra.dim):
        raise InvalidFrame(
            f"frame must be {algebra.rank} x {algebra.dim}, got {frame.shape}")
    e = al.unit(algebra)
    prods = _frame_products(algebra, frame)
    for j in range(algebra.rank):
        if np.max(np.abs(prods[j, j] - frame[j])) > SPECTRAL_TOL:
            raise InvalidFrame(f"frame member {j} is not idempotent")
        if abs(al.generic_trace(algebra, frame[j]) - 1.0) > 1e-6:
            raise InvalidFrame(f"frame member {j} is not minimal")
        for k in range(j + 1, algebra.rank):
            if np.max(np.abs(prods[j, k])) > SPECTRAL_TOL:
                raise InvalidFrame(f"frame members {j}, {k} are not orthogonal")
    if np.max(np.abs(frame.sum(axis=0) - e)) > SPECTRAL_TOL:
        raise InvalidFrame("frame does not sum to the unit")
    return frame


def joint_peirce(algebra: al.AlgebraDescriptor, frame) -> JointPeirceData:
    """Joint Peirce projections π_jk for a full frame (0-based keys, j <= k).

    π_jj = 2 L_j² - L_j and π_jk = 4 L_j L_k; the L(e_j) commute, all
    projections are polynomial and sum to the identity.
    """
    frame = _check_frame(algebra, frame)
    r = algebra.rank
    Ls = [al.lmul(algebra, frame[j]) for j in range(r)]
    projections: dict[tuple[int, int], np.ndarray] = {}
    dims: dict[tuple[int, int], int] = {}
    total = np.zeros((algebra.dim, algebra.dim))
    for j in range(r):
        for k in range(j, r):
            if j == k:
                pjk = 2.0 * (Ls[j] @ Ls[j]) - Ls[j]
            else:
                pjk = 4.0 * (Ls[j] @ Ls[k])
            projections[(j, k)] = pjk
            dims[(j, k)] = int(round(float(np.trace(pjk))))
            total += pjk
    if np.max(np.abs(total - np.eye(algebra.dim))) > SPECTRAL_TOL * algebra.rank:
        raise InvalidFrame("joint Peirce projections do not resolve the identity")
    return JointPeirceData(algebra, frame, projections, dims)
