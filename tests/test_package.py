"""Package-wide checks: the import layer, and input refusals across modules."""

import ast
import graphlib
import warnings
from pathlib import Path

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
}


@pytest.mark.parametrize("call, error, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusals_raise_their_typed_error(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


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
