"""Package-wide checks: the import layer, and input refusals across modules."""

import ast
import graphlib
import warnings
from pathlib import Path
from types import ModuleType

import numpy as np
import pytest

import conetube as ct
from conetube import domains as dm
from conetube import fields as fl
from conetube import serialize as sz
from conetube import spectral as sp

PACKAGE = Path(ct.__file__).parent


def _package_imports():
    """Module name -> (its parsed tree, the package modules it imports)."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        deps = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                deps.update([node.module] if node.module else
                            (alias.name for alias in node.names))
        out[path.stem] = tree, deps
    return out


def test_imports_sit_at_module_level_and_form_no_cycle():
    modules = _package_imports()
    graph = {name: deps for name, (_, deps) in modules.items()}
    assert set().union(*graph.values()) <= set(graph)
    tuple(graphlib.TopologicalSorter(graph).static_order())  # raises CycleError
    for name, (tree, _) in modules.items():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = [node.lineno for node in ast.walk(fn)
                         if isinstance(node, (ast.Import, ast.ImportFrom))]
                assert not inner, f"{name}.{fn.name} imports at lines {inner}"


def test_serialize_reads_only_algebra_and_errors():
    # the JSON writer and readers know no module above the algebra
    assert _package_imports()["serialize"][1] == {"algebra", "errors"}


_HERM2 = ct.make_algebra("hermR", rank=2)
_HERM3 = ct.make_algebra("hermR", rank=3)

REFUSALS = {
    "flow-frame-width": (
        lambda: fl.diagonal_flow(_HERM2, np.zeros((2, 4)), [1.0, 1.0], [1j, 1j], 0.1),
        ct.DimensionMismatch, "frame shape (2, 4) does not fit dim 3"),
    "bracket-other-algebra": (
        lambda: fl.bracket(_HERM2, fl.euler_field(_HERM3), fl.euler_field(_HERM3)),
        ct.DimensionMismatch, "field does not live on this algebra"),
    "element-not-array": (
        lambda: sz.element_from_json(_HERM2, {"x": 1}),
        ct.DimensionMismatch, "element must be a JSON array"),
    "matrix-not-list": (
        lambda: sz.matrix_from_json(3),
        ct.DimensionMismatch, "matrix must be a JSON array of rows"),
    "lie-ball-empty": (
        lambda: dm.LieBallPoint([]),
        ct.DimensionMismatch, "Lie ball point must be a nonempty vector"),
    "siegel-point-shape": (
        lambda: dm.siegel_action(np.eye(4), np.zeros((3, 3))),
        ct.DimensionMismatch, "point shape (3, 3), expected (2, 2)"),
    "isotropy-not-square": (
        lambda: dm.isotropy_dimension(np.zeros((2, 3))),
        ct.NotInLightCone, "expected a square matrix, got shape (2, 3)"),
    "siegel-not-symplectic": (
        lambda: dm.siegel_action(np.diag([1e11, 1.0]), np.array([[1j]])),
        ct.NotSymplectic, "entry (0, 1) of A^T J A - J is 1.00e+00 of its rounding scale"),
    "aut1-open-orbit": (
        lambda: ct.aut1_basis(ct.make_orbit(_HERM2, 2, 0)),
        ct.InvalidSignature, "weight-one stabiliser basis needs 0 < rho < rank"),
    # counts are ints or numpy ints, never floats or bools
    "spin-fractional-n": (
        lambda: ct.make_algebra("spin", 2, 2.5),
        ct.ClassificationError, "Peirce constant must be an integer, got 2.5"),
    "hermR-fractional-rank": (
        lambda: ct.make_algebra("hermR", 2.7),
        ct.ClassificationError, "rank must be an integer, got 2.7"),
    "hermR-bool-rank": (
        lambda: ct.make_algebra("hermR", True),
        ct.ClassificationError, "rank must be an integer, got True"),
    "orbit-bool-p": (
        lambda: ct.make_orbit(_HERM3, True, 0),
        ct.InvalidSignature, "p must be an integer, got True"),
    "cr-float-p": (
        lambda: ct.cr_dimensions(_HERM2, 1.0, 0),
        ct.InvalidSignature, "p must be an integer, got 1.0"),
    "germ-float-q": (
        lambda: ct.aut_germ_dimension(_HERM3, 1, 0.0),
        ct.InvalidSignature, "q must be an integer, got 0.0"),
    "weight-bool-j": (
        lambda: fl.monomial_weight([1, 1], True, [1.0, 2.0]),
        ct.IndexOutOfRange, "component must be an integer, got True"),
    "weight-fractional-j": (
        lambda: fl.monomial_weight([1, 1], 1.5, [1.0, 2.0]),
        ct.IndexOutOfRange, "component must be an integer, got 1.5"),
    "nonresonant-fractional-bound": (
        lambda: fl.nonresonant([1.0, 2.0], 2.5),
        ct.InvalidBound, "resonance bound must be an integer, got 2.5"),
    "orbit-count-fractional": (
        lambda: sp.orbit_count(2.5),
        ct.ClassificationError, "rank must be an integer, got 2.5"),
    "orbit-count-negative": (
        lambda: sp.orbit_count(-3),
        ct.ClassificationError, "rank must be >= 0, got -3"),
    "symplectic-form-fractional": (
        lambda: dm.symplectic_form(1.5),
        ct.DimensionMismatch, "block size r must be an integer, got 1.5"),
    "symplectic-form-zero": (
        lambda: dm.symplectic_form(0),
        ct.DimensionMismatch, "block size r must be >= 1, got 0"),
    "symplectic-basis-zero": (
        lambda: dm.symplectic_lie_algebra_basis(0),
        ct.DimensionMismatch, "block size r must be >= 1, got 0"),
    # arrays that must be real refuse an imaginary part, NaN and infinity
    "joint-peirce-complex-frame": (
        lambda: sp.joint_peirce(_HERM2, ct.standard_frame(_HERM2) + 1e-3j),
        ct.DimensionMismatch, "expected a real frame"),
    "siegel-complex-matrix": (
        lambda: dm.siegel_action((1 + 1j) * np.eye(2), [[1j]]),
        ct.DimensionMismatch, "expected a real symplectic matrix"),
    "isotropy-complex-array": (
        lambda: dm.isotropy_dimension(np.diag([1.0, 0.0]) + 1e-3j),
        ct.DimensionMismatch, "expected a real cone boundary point"),
    "isotropy-complex-list": (
        lambda: dm.isotropy_dimension([[1, 0], [0, 1j]]),
        ct.DimensionMismatch, "expected a real cone boundary point"),
    "star-complex": (
        lambda: sp.condition_star_holds(np.array([1 + 1j, -1 + 1j])),
        ct.DimensionMismatch, "expected a real eigenvalue list"),
    "field-complex-u": (
        lambda: fl.GradedField(1j * np.ones(3), np.eye(3), np.zeros(3)),
        ct.DimensionMismatch, "expected a real field coefficient u"),
    "field-nan-u": (
        lambda: fl.GradedField(np.full(3, np.nan), np.eye(3), np.zeros(3)),
        ct.NonFiniteInput, "field coefficient u has a NaN or infinite entry"),
    "flow-complex-frame": (
        lambda: fl.diagonal_flow(_HERM2, 1j * ct.standard_frame(_HERM2),
                                 [1.0, 1.0], [1j, 1j], 0.1),
        ct.DimensionMismatch, "expected a real frame"),
    "flow-complex-rate": (
        lambda: fl.diagonal_flow_coefficients([1 + 1j], [1j], 1.0),
        ct.DimensionMismatch, "expected a real flow rate"),
    "weight-complex-multi-index": (
        lambda: fl.monomial_weight([1j, 1], 1, [1.0, 2.0]),
        ct.DimensionMismatch, "expected a real multi-index"),
    "weight-nan-multi-index": (
        lambda: fl.monomial_weight([np.nan, 1], 1, [1.0, 2.0]),
        ct.NonFiniteInput, "multi-index has a NaN or infinite entry"),
    "weight-nan-eigenvalue": (
        lambda: fl.monomial_weight([1, 1], 1, [np.nan, 1.0]),
        ct.NonFiniteInput, "eigenvalue list has a NaN or infinite entry"),
    # a field of another algebra, and shapes that used to answer
    "evaluate-other-algebra": (
        lambda: fl.evaluate_field(_HERM2, fl.euler_field(_HERM3), np.ones(3)),
        ct.DimensionMismatch, "field does not live on this algebra"),
    "derivative-other-algebra": (
        lambda: fl.field_derivative(_HERM2, fl.euler_field(_HERM3), np.ones(3)),
        ct.DimensionMismatch, "field does not live on this algebra"),
    "vanishing-other-algebra": (
        lambda: fl.vanishing_conditions(_HERM2, fl.euler_field(_HERM3), [1.0, 2.0, 0.0]),
        ct.DimensionMismatch, "field does not live on this algebra"),
    "gl-omega-contains-wrong-shape": (
        lambda: fl.gl_omega_span(_HERM2).contains(np.eye(2)),
        ct.DimensionMismatch, "expected a 3 x 3 matrix, got shape (2, 2)"),
    "star-not-a-vector": (
        lambda: sp.condition_star_holds([[1.0, -1.0]]),
        ct.DimensionMismatch, "eigenvalue list must be a vector, got shape (1, 2)"),
    "flow-not-vectors": (
        lambda: fl.diagonal_flow_coefficients([[1.0]], [[1j]], 1.0),
        ct.DimensionMismatch,
        "flow rates and start values must be vectors and the time a scalar, "
        "got shapes (1, 1), (1, 1) and ()"),
    "flow-complex-time": (
        lambda: fl.diagonal_flow_coefficients([1.0], [1j], 1j),
        ct.DimensionMismatch, "expected a real flow time"),
}


@pytest.mark.parametrize("call, error, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusals_raise_their_typed_error(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


def test_numpy_integers_are_counts():
    assert ct.make_algebra("hermC", np.int64(3)) == ct.make_algebra("hermC", 3)
    assert ct.cr_dimensions(_HERM2, np.int64(1), 0) == ct.cr_dimensions(_HERM2, 1, 0)


def test_star_import_binds_all_and_no_module():
    namespace = {}
    exec("from conetube import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(ct.__all__)
    assert len(namespace) == 97
    assert not [name for name, value in namespace.items() if isinstance(value, ModuleType)]


LARGE_FINITE = {
    "peirce-1e155": (
        lambda: sp.peirce_projections(_HERM3, [1e155, 0, 0, 0, 0, 0]), ct.NotIdempotent),
    "peirce-1e308": (
        lambda: sp.peirce_projections(_HERM3, [1e308, 0, 0, 0, 0, 0]), ct.NotIdempotent),
    "star-equal": (lambda: sp.condition_star_holds([1e308, 1e308]), True),
    "star-cancel": (lambda: sp.condition_star_holds([1e308, -1e308]), False),
    "weight-1e308": (lambda: fl.monomial_weight([2, 0], 1, [1e308, 1]), 1e308),
    "weight-past-range": (
        lambda: fl.monomial_weight([3, 0], 1, [1e308, 1]), ct.NumericalFailure),
    "nonresonant-1e308": (
        lambda: fl.nonresonant([1e308, 1e308], 2), fl.NonresonanceResult(True, True, 2)),
    "nonresonant-ratio-past-range": (
        lambda: fl.nonresonant([1e300, 1e-300 + 1e300j], 2),
        fl.NonresonanceResult(True, False, 2)),
    "lie-ball-1e200": (lambda: dm.lie_ball_membership([1e200, 0]), dm.EXTERIOR),
    "lie-ball-bilinear-cancels": (
        lambda: dm.LieBallPoint([1e200 + 1e200j, 0]).bilinear.real, 0.0),
}


@pytest.mark.parametrize("call, want", LARGE_FINITE.values(), ids=LARGE_FINITE.keys())
def test_large_finite_input_ends_in_a_verdict_or_a_typed_error(call, want):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if isinstance(want, type):
            with pytest.raises(want):
                call()
        else:
            assert call() == want
