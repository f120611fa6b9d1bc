"""Typed exceptions shared by all conetube modules.

Two broad groups matter for the command line wrapper: input errors (bad
descriptors, wrong shapes, invalid signatures) and numerical failures
(singular operators, residuals above tolerance). ``INPUT_ERRORS`` and
``NUMERICAL_ERRORS`` collect them so the CLI can map exceptions to exit
codes without enumerating classes twice.
"""


class ConetubeError(Exception):
    """Base class for every error raised by this package."""


class ClassificationError(ConetubeError):
    """Family/rank/Peirce-constant triple is not on the classification list."""


class DimensionMismatch(ConetubeError):
    """An element's coordinate vector does not match the algebra dimension."""


class NonFiniteInput(ConetubeError):
    """An input coordinate is NaN or infinite."""


class SingularElement(ConetubeError):
    """Quadratic representation is singular; the element has no inverse."""


class NumericalFailure(ConetubeError):
    """A residual exceeded tolerance after the documented procedure."""


class BorderlineSpectrum(ConetubeError):
    """An eigenvalue sits inside the undecidable band around zero."""


class NotIdempotent(ConetubeError):
    """Peirce decomposition requested for an element with c∘c ≠ c."""


class InvalidFrame(ConetubeError):
    """A claimed frame fails idempotency/orthogonality/completeness checks."""


class InvalidSignature(ConetubeError):
    """Signature (p, q) is out of range for the algebra's rank."""


class NotInHolomorphicTangent(ConetubeError):
    """Levi form argument lies outside E_1 ⊕ E_{1/2} beyond tolerance."""


class BlockViolation(ConetubeError):
    """beta map argument lies outside its required Peirce block."""


class ConditionStarViolated(ConetubeError):
    """Base point has eigenvalues with λ_j + λ_k = 0 but λ_j, λ_k ≠ 0."""


class InvalidBound(ConetubeError):
    """Resonance search requested with a degree bound below 2."""


class IndexOutOfRange(ConetubeError):
    """Weight index j outside 1..len(spectrum) or multi-index length wrong."""


class FlowSingularity(ConetubeError):
    """A diagonal flow denominator 1 - i v c t vanished."""


class NotSymplectic(ConetubeError):
    """Matrix fails Aᵀ J A = J beyond tolerance."""


class SingularDenominator(ConetubeError):
    """cz + d is not invertible at the requested point."""


class NotInLightCone(ConetubeError):
    """Isotropy requested at a matrix that is not a cone boundary point."""


INPUT_ERRORS = (
    ClassificationError,
    DimensionMismatch,
    NonFiniteInput,
    NotIdempotent,
    InvalidFrame,
    InvalidSignature,
    NotInHolomorphicTangent,
    BlockViolation,
    ConditionStarViolated,
    InvalidBound,
    IndexOutOfRange,
    NotSymplectic,
    NotInLightCone,
)

NUMERICAL_ERRORS = (
    SingularElement,
    NumericalFailure,
    BorderlineSpectrum,
    FlowSingularity,
    SingularDenominator,
)
