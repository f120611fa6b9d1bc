"""Real composition algebras K_n for n in {1, 2, 4, 8}.

K_n is R^n with a bilinear product, unit e_0 and conjugation
x̄ = (x_1, -x_2, ..., -x_n), normalised so that x x̄ = (x|x) e_0 with the
standard inner product. The tables are produced by Cayley–Dickson doubling

    (a, b)(c, d) = (a c - d̄ b,  d a + b c̄),    conj(a, b) = (ā, -b),

which yields R, C, H (with ij = k, jk = i, ki = j) and the octonions.
Products are stored as structure tensors T with (xy)_k = Σ T[i, j, k] x_i y_j.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

COMPOSITION_DIMS = (1, 2, 4, 8)


@lru_cache(maxsize=None)
def multiplication_tensor(n: int) -> np.ndarray:
    """Structure tensor of K_n, shape (n, n, n). Cached, read-only."""
    if n not in COMPOSITION_DIMS:
        raise ValueError(f"no composition algebra of dimension {n}")
    table = np.zeros((1, 1, 1))
    table[0, 0, 0] = 1.0
    m = 1
    while m < n:
        table = _double(table)
        m *= 2
    table.setflags(write=False)
    return table


def _double(table: np.ndarray) -> np.ndarray:
    """The table of K_2m from that of K_m, one block per pair of halves."""
    m = table.shape[0]
    swapped = table.transpose(1, 0, 2)  # swapped[i, j] = e_j e_i
    conj = conjugation_signs(m)[:, None]  # on the second factor
    big = np.zeros((2 * m, 2 * m, 2 * m))
    big[:m, :m, :m] = table  # (a,0)(c,0) = (ac, 0)
    big[:m, m:, m:] = swapped  # (a,0)(0,d) = (0, da)
    big[m:, :m, m:] = table * conj  # (0,b)(c,0) = (0, b c̄)
    big[m:, m:, :m] = -swapped * conj  # (0,b)(0,d) = (-d̄ b, 0)
    return big


@lru_cache(maxsize=None)
def conjugation_signs(n: int) -> np.ndarray:
    signs = -np.ones(n)
    signs[0] = 1.0
    signs.setflags(write=False)
    return signs

