"""Numerical Jordan algebra toolkit for tube CR manifolds over cone orbits.

The package computes, for each simple formally real Jordan algebra, the
CR invariants of the tube manifolds sitting over the linear-automorphism
orbits of the symmetric cone: Levi kernels, finite nondegeneracy orders,
minimality, and the dimensions of the relevant field algebras, together
with Cayley-type maps between the tube, ball, and Siegel realizations.
"""

from types import ModuleType as _ModuleType

from .errors import (
    BlockViolation,
    BorderlineSpectrum,
    ClassificationError,
    ConditionStarViolated,
    ConetubeError,
    DimensionMismatch,
    FlowSingularity,
    IndexOutOfRange,
    InputError,
    InvalidBound,
    InvalidFrame,
    InvalidSignature,
    NonFiniteInput,
    NotIdempotent,
    NotInHolomorphicTangent,
    NotInLightCone,
    NotSymplectic,
    NumericalError,
    NumericalFailure,
    SingularDenominator,
    SingularElement,
)
from .algebra import (
    AlgebraDescriptor,
    as_element,
    as_real_element,
    desk_algebras,
    element_to_matrix,
    generic_trace,
    jordan_inverse,
    jordan_product,
    lmul,
    make_algebra,
    matrix_to_element,
    multiplication_table,
    pquad,
    standard_frame,
    star,
    trace_form,
    trace_gram,
    triple_product,
    unit,
)
from .spectral import (
    JointPeirceData,
    PeirceData,
    Signature,
    SpectralData,
    condition_star_holds,
    generic_minors,
    joint_peirce,
    orbit_count,
    orbit_signature,
    peirce_projections,
    spectral_decompose,
    support_idempotent,
)
from .tube import (
    NondegeneracyResult,
    TubeOrbit,
    aut1_basis,
    aut_germ_dimension,
    beta_map,
    cr_dimensions,
    levi_form,
    levi_kernel,
    make_orbit,
    minimality_check,
    nondegeneracy_order,
)
from .fields import (
    GlOmegaSpan,
    GradedField,
    NonresonanceResult,
    VanishingReport,
    bracket,
    diagonal_flow,
    diagonal_flow_coefficients,
    dim_table,
    euler_field,
    evaluate_field,
    expected_dim_table,
    field_derivative,
    gl_omega_span,
    monomial_weight,
    nonresonant,
    random_field,
    vanishing_conditions,
)
from .domains import (
    EXTERIOR,
    INTERIOR,
    SHILOV,
    SMOOTH_BOUNDARY,
    LieBallPoint,
    ball_to_spin,
    cayley,
    inverse_cayley,
    isotropy_dimension,
    lie_ball_membership,
    siegel_action,
    spin_to_ball,
    symplectic_form,
    symplectic_lie_algebra_basis,
)
from .serialize import (
    descriptor_to_json,
    dumps_canonical,
    element_from_json,
)

__version__ = "0.1.0"

# every name imported above, and no submodule
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
