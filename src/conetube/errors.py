"""Typed exceptions shared by all conetube modules.

Every error belongs to one of two groups, and the group is its type: an
``InputError`` (bad descriptors, wrong shapes, invalid signatures, NaN or
infinite input) or a ``NumericalError`` (singular operators, residuals
above tolerance). The command line maps the group to its exit code.

Caller input is read here: ``require_finite`` refuses NaN and infinity,
``read_real`` reads an array that must be real, and ``read_int`` a count.
"""

import numpy as np


class ConetubeError(Exception):
    """Base class for every error raised by this package."""


class InputError(ConetubeError):
    """The input is refused; the command line exits 2."""


class NumericalError(ConetubeError):
    """A numerical step failed on a valid input; the command line exits 3."""


class ClassificationError(InputError):
    """Family/rank/Peirce-constant triple is not on the classification list."""


class DimensionMismatch(InputError):
    """An element's coordinate vector does not match the algebra dimension."""


class NonFiniteInput(InputError):
    """An input coordinate is NaN or infinite."""


class SingularElement(NumericalError):
    """Quadratic representation is singular; the element has no inverse."""


class NumericalFailure(NumericalError):
    """A residual exceeded tolerance after the documented procedure."""


class BorderlineSpectrum(NumericalError):
    """An eigenvalue sits inside the undecidable band around zero."""


class NotIdempotent(InputError):
    """Peirce decomposition requested for an element with c∘c ≠ c."""


class InvalidFrame(InputError):
    """A claimed frame fails idempotency/orthogonality/completeness checks."""


class InvalidSignature(InputError):
    """Signature (p, q) is out of range for the algebra's rank."""


class NotInHolomorphicTangent(InputError):
    """Levi form argument lies outside E_1 ⊕ E_{1/2} beyond tolerance."""


class BlockViolation(InputError):
    """beta map argument lies outside its required Peirce block."""


class ConditionStarViolated(InputError):
    """Base point has eigenvalues with λ_j + λ_k = 0 but λ_j, λ_k ≠ 0."""


class InvalidBound(InputError):
    """Resonance search requested with a degree bound below 2."""


class IndexOutOfRange(InputError):
    """Weight index j outside 1..len(spectrum) or multi-index length wrong."""


class FlowSingularity(NumericalError):
    """A diagonal flow denominator 1 - i v c t vanished."""


class NotSymplectic(InputError):
    """Matrix fails Aᵀ J A = J beyond tolerance."""


class SingularDenominator(NumericalError):
    """cz + d is not invertible at the requested point."""


class NotInLightCone(InputError):
    """Isotropy requested at a matrix that is not a cone boundary point."""


def require_finite(arr, what: str):
    """Return ``arr``; raise NonFiniteInput if any entry is NaN or infinite.

    NaN fails every comparison, so a check that reads it would pass it on.
    """
    if not np.all(np.isfinite(arr)):
        raise NonFiniteInput(f"{what} has a NaN or infinite entry")
    return arr


def read_real(x, what: str) -> np.ndarray:
    """x as a float array; DimensionMismatch for a nonzero imaginary part,
    NonFiniteInput for a NaN or infinite entry."""
    arr = np.asarray(x)
    if np.iscomplexobj(arr) and np.any(arr.imag != 0):
        raise DimensionMismatch(f"expected a real {what}")
    return require_finite(np.asarray(arr.real, dtype=float), what)


def read_int(x, what: str, error: type[InputError]) -> int:
    """x as an int if it is an int or a numpy integer, never a bool; else ``error``."""
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
        raise error(f"{what} must be an integer, got {x!r}")
    return int(x)
