"""The canonical JSON writer, and the element and matrix readers."""

import json

import numpy as np
import pytest

import conetube as ct
from conetube import cli
from conetube import serialize as sz


def test_format_float():
    assert sz.format_float(0.5) == "0.5"
    assert sz.format_float(-0.0) == "0"
    assert sz.format_float(1e-9) == "1e-09"
    assert sz.format_float(1 / 3) == "0.333333333333"
    assert sz.format_float(2.0) == "2"


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_floats_have_no_json_form(value):
    with pytest.raises(ct.NumericalFailure):
        sz.format_float(value)
    with pytest.raises(ct.NumericalFailure):
        sz.dumps_canonical({"x": [1.0, value]})


def test_codecs_reject_non_finite_entries():
    A = ct.make_algebra("hermR", rank=2)
    for bad in ([float("nan"), 0.0, 1.0], [[1.0, float("inf")], 0.0, 1.0]):
        with pytest.raises(ct.NonFiniteInput):
            sz.element_from_json(A, bad)
    with pytest.raises(ct.NonFiniteInput):
        sz.matrix_from_json([[1.0, float("-inf")], [0.0, 1.0]])


def test_dumps_canonical_is_valid_json():
    payload = {
        "name": "x",
        "ok": True,
        "missing": None,
        "count": 3,
        "value": 0.1 + 0.2,
        "z": 1 + 2j,
        "vec": np.array([1.0, -0.0, 2.5]),
        "nested": [{"a": 1}, (2, 3)],
    }
    text = sz.dumps_canonical(payload)
    parsed = json.loads(text)
    assert parsed["z"] == [1, 2]
    assert parsed["vec"] == [1, 0, 2.5]
    assert parsed["nested"] == [{"a": 1}, [2, 3]]


def test_dumps_canonical_strings_and_scalar_types():
    # strings and keys get the bytes of json.dumps; bool is no int, numpy
    # scalars and str subclasses encode as their plain types
    class Label(str):
        pass

    for text in ("plain", 'quote " and \\', "tab\tnew\nline", "\x00\x1f", "é ∂ 😀"):
        assert sz.dumps_canonical(text) == json.dumps(text)
        assert sz.dumps_canonical({text: 1}) == "{" + json.dumps(text) + ":1}"
        assert sz.dumps_canonical(Label(text)) == json.dumps(text)
    assert sz.dumps_canonical({1: True, 2.5: False, None: 0}) == \
        '{"1":true,"2.5":false,"None":0}'
    assert sz.dumps_canonical([np.int64(-3), np.float64(0.25), np.complex128(1 - 2j),
                               np.float32(-0.0)]) == "[-3,0.25,[1,-2],0]"
    with pytest.raises(TypeError):
        sz.dumps_canonical(np.bool_(True))


def test_dumps_canonical_deterministic():
    obj = {"b": [0.1, 0.2 + 0.3j], "a": {"k": np.arange(3)}}
    assert sz.dumps_canonical(obj) == sz.dumps_canonical(obj)


def test_dumps_canonical_preserves_key_order():
    text = sz.dumps_canonical({"zeta": 1, "alpha": 2})
    assert text.index("zeta") < text.index("alpha")


def test_descriptor_round_trip():
    for A in ct.desk_algebras():
        data = sz.descriptor_to_json(A)
        assert set(data) == {"family", "rank", "n"}
        back = json.loads(sz.dumps_canonical(data))
        assert ct.make_algebra(back["family"], back["rank"], back["n"]) == A


def test_element_round_trip_real():
    A = ct.make_algebra("hermR", rank=3)
    rng = np.random.default_rng(501)
    x = rng.standard_normal(A.dim)
    data = json.loads(sz.dumps_canonical(x))
    assert all(isinstance(v, float) for v in data)
    back = sz.element_from_json(A, data)
    np.testing.assert_allclose(back, x, rtol=1e-11)
    assert back.dtype == float


def test_element_round_trip_complex():
    A = ct.make_algebra("hermR", rank=2)
    z = np.array([1 + 2j, 0.5j, -1.0])
    data = json.loads(sz.dumps_canonical(z))
    assert data == [[1, 2], [0, 0.5], [-1, 0]]
    back = sz.element_from_json(A, data)
    np.testing.assert_allclose(back, z)


def test_element_from_json_flattens_real_pairs():
    A = ct.make_algebra("hermR", rank=2)
    back = sz.element_from_json(A, [[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    assert back.dtype == float
    np.testing.assert_allclose(back, [1.0, 2.0, 3.0])


def test_element_from_json_checks_length():
    A = ct.make_algebra("hermR", rank=2)
    with pytest.raises(ct.DimensionMismatch):
        sz.element_from_json(A, [1.0, 2.0])


def test_matrix_from_json():
    M = sz.matrix_from_json([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_allclose(M, [[1, 2], [3, 4]])
    Mc = sz.matrix_from_json([[[0.0, 1.0]]], allow_complex=True)
    assert Mc[0, 0] == 1j
    with pytest.raises(ct.DimensionMismatch):
        sz.matrix_from_json([[[0.0, 1.0]]], allow_complex=False)
    with pytest.raises(ct.DimensionMismatch):
        sz.matrix_from_json([[1.0], [2.0, 3.0]])


_ELEMENT_ENTRY_ERROR = "element entries must be numbers or [re, im] pairs, got "
_HERM_R2 = ct.make_algebra("hermR", rank=2)


@pytest.mark.parametrize("parse, data, want", [
    # a number, or an [re, im] pair; anything else names the bad entry as JSON
    pytest.param("element", [1, 2, -3], [1.0, 2.0, -3.0], id="element-ints"),
    pytest.param("element", [0.5, -1.25, 2e3], [0.5, -1.25, 2000.0], id="element-floats"),
    pytest.param("element", [[1, 2], 0.5, [0.0, -1]], [1 + 2j, 0.5, -1j], id="element-pairs"),
    pytest.param("element", [1, [1, 2, 3], 0], _ELEMENT_ENTRY_ERROR + "[1, 2, 3]",
                 id="element-triple-entry"),
    pytest.param("element", [1, "2", 0], _ELEMENT_ENTRY_ERROR + '"2"', id="element-string"),
    pytest.param("element", [1, None, 0], _ELEMENT_ENTRY_ERROR + "null", id="element-null"),
    pytest.param("element", [1, [1, "2"], 0], _ELEMENT_ENTRY_ERROR + '[1, "2"]',
                 id="element-string-in-pair"),
    pytest.param("real matrix", [[1, 2], [-3, 4]], [[1.0, 2.0], [-3.0, 4.0]], id="real-ints"),
    pytest.param("real matrix", [[0.5, -1.25]], [[0.5, -1.25]], id="real-floats"),
    pytest.param("real matrix", [[[0, 1], 2]], "bad matrix entry [0, 1]", id="real-pair-entry"),
    pytest.param("real matrix", [[[1.0, 0.0]]], "bad matrix entry [1.0, 0.0]",
                 id="real-float-pair-entry"),
    pytest.param("real matrix", [[1, "2"]], 'bad matrix entry "2"', id="real-string"),
    pytest.param("real matrix", [[None]], "bad matrix entry null", id="real-null"),
    pytest.param("real matrix", [[1.0], [2.0, 3.0]], "matrix rows have unequal lengths",
                 id="real-ragged"),
    pytest.param("complex matrix", [[[0, 1], 2], [3, [4.5, -1]]], [[1j, 2], [3, 4.5 - 1j]],
                 id="complex-pairs"),
    pytest.param("complex matrix", [[[1, 0], 2.5]], [[1.0, 2.5]], id="complex-one-row"),
    pytest.param("complex matrix", [[[1, 2, 3]]], "bad matrix entry [1, 2, 3]",
                 id="complex-triple-entry"),
    pytest.param("complex matrix", [["x"]], 'bad matrix entry "x"', id="complex-string"),
    pytest.param("complex matrix", [[None, 1]], "bad matrix entry null", id="complex-null"),
    pytest.param("complex matrix", [[[0, 1]], [1, 2]], "matrix rows have unequal lengths",
                 id="complex-ragged"),
    # JSON true and false load as bool, a subclass of int: refused, not 1 and 0
    pytest.param("element", [True, 2, 3], _ELEMENT_ENTRY_ERROR + "true", id="element-true"),
    pytest.param("element", [1, [0.5, False], 0], _ELEMENT_ENTRY_ERROR + "[0.5, false]",
                 id="element-false-in-pair"),
    pytest.param("real matrix", [[1, 0], [0, True]], "bad matrix entry true", id="real-true"),
    pytest.param("complex matrix", [[[False, 1]]], "bad matrix entry [false, 1]",
                 id="complex-false-in-pair"),
    # an entry with no JSON form is named by its repr
    pytest.param("element", [1, 2j, 0], _ELEMENT_ENTRY_ERROR + '"2j"',
                 id="element-python-complex"),
])
def test_json_entry_parsing(parse, data, want):
    def call():
        if parse == "element":
            return sz.element_from_json(_HERM_R2, data)
        return sz.matrix_from_json(data, allow_complex=parse == "complex matrix")

    if isinstance(want, str):
        with pytest.raises(ct.DimensionMismatch) as exc:
            call()
        assert str(exc.value) == want
        return
    got = call()
    want = np.array(want)
    assert got.dtype == (complex if np.iscomplexobj(want) else float)
    np.testing.assert_array_equal(got, want)


def test_spectral_to_json(capsys):
    """The spectral report reaches dumps_canonical with its arrays as they are."""
    A = ct.make_algebra("hermR", rank=3)
    x = np.zeros(A.dim)
    x[0], x[1] = 1.0, -2.0
    argv = ["spectral", "--family", "hermR", "--rank", "3",
            "--element", json.dumps(x.tolist()), "--json"]
    assert cli.main(argv) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["descriptor"]["family"] == "hermR"
    assert len(out["eigenvalues"]) == 3
    assert "projections" not in out
    assert cli.main(argv + ["--projections"]) == 0
    text = capsys.readouterr().out
    out = json.loads(text)
    assert out["block_dims"]["1,2"] == 1
    assert text.rstrip("\n") == sz.dumps_canonical(out)
