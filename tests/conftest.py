"""Shared fixtures."""

import numpy as np
import pytest

from conetube import spectral as sp


@pytest.fixture
def break_linalg(monkeypatch):
    """Make the named ``numpy.linalg`` function raise ``LinAlgError``."""

    def patch(name):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError(f"injected {name} failure")

        monkeypatch.setattr(np.linalg, name, fail)

    return patch


def _per_call_blocks(A, orb):
    """π_E1, π_½, π_E0, L(a)|_H⁻¹ and P(a)|_E1⁻¹ from a fresh joint_peirce
    on the orbit's sorted frame: dense (dim, dim) references for the
    orbit's rows and for levi_form and beta_map."""
    joint = sp.joint_peirce(A, orb.frame)
    lam = orb.eigenvalues
    nonzero = lam != 0.0
    pi_e1, pi_half, pi_e0, linv_h, pinv_e1 = (np.zeros((A.dim, A.dim)) for _ in range(5))
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
    return pi_e1, pi_half, pi_e0, linv_h, pinv_e1


@pytest.fixture
def dense_blocks():
    """``dense_blocks(A, orbit)``: the orbit's five dense Peirce operators."""
    return _per_call_blocks
