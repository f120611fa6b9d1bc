"""Command-line interface: exit codes, report content, JSON determinism."""

import hashlib
import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from conetube import algebra as al
from conetube import cli
from conetube import domains as dm
from conetube import errors
from conetube import fields as fl
from conetube import serialize as sz
from conetube import spectral as sp
from conetube import tube as tb
from conetube.cli import main


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_single_row(capsys):
    code, out, _ = run(["table", "--family", "hermC", "--rank", "3"], capsys)
    assert code == 0
    row = next(line for line in out.splitlines() if "hermC" in line)
    assert "16" in row and "35" in row and "PASS" in row


def test_table_full_desk(capsys):
    code, out, _ = run(["table"], capsys)
    assert code == 0
    assert out.count("PASS") == 19
    assert "FAIL" not in out


def test_table_albert_row(capsys):
    code, out, _ = run(["table", "--family", "albert", "--json"], capsys)
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["computed"] == {"dim_der": 52, "dim_sl_omega": 78,
                                   "dim_aut_H": 133, "dim_sl_D": 78}
    assert rows[0]["pass"] is True


@pytest.mark.parametrize("family", ["hermR", "hermC", "hermH"])
def test_table_at_rank_one(family, capsys):
    # V = ℝ in every family; hermH r=1 once got the sp(1) closed form and FAIL
    code, out, _ = run(["table", "--family", family, "--rank", "1", "--json"], capsys)
    assert code == 0
    row, = json.loads(out)
    want = {"dim_der": 0, "dim_sl_omega": 0, "dim_aut_H": 3, "dim_sl_D": 0}
    assert row["computed"] == row["expected"] == want
    assert row["pass"] is True


def test_table_rank_cap(capsys):
    code, _, err = run(["table", "--family", "hermR", "--rank", "7"], capsys)
    assert code == 2
    assert "input error" in err


@pytest.mark.parametrize("argv", [
    ["table", "--family", "albert", "--rank", "2"],
    ["table", "--family", "spin", "--rank", "5"],
    ["table", "--family", "hermR", "--rank", "3", "--n", "2"],
    ["table", "--family", "hermC", "--n", "7"],
    ["table", "--rank", "3"],
], ids=["albert-rank", "spin-rank", "hermR-n", "hermC-n", "rank-without-family"])
def test_table_refuses_values_off_the_classification(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2
    assert "input error" in err
    assert out == ""


def test_analyze_light_cone(capsys):
    code, out, _ = run(["analyze", "--family", "hermR", "--rank", "2",
                        "--p", "1", "--q", "0", "--json"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["nondegeneracy_order"] == 2
    assert rep["aut_germ_dim"] == 5
    assert rep["aut1_dim"] == 1
    assert rep["minimal"] is True
    assert rep["chain_dims"] == [2, 1, 0]


def test_analyze_hermC_mixed_orbit(capsys):
    code, out, _ = run(["analyze", "--family", "hermC", "--rank", "3",
                        "--p", "1", "--q", "1", "--json"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["crdim"] == 8
    assert rep["crcodim"] == 1
    assert rep["levi_kernel_dim"] == 4
    assert rep["nondegeneracy_order"] == 2


def test_analyze_totally_real(capsys):
    code, out, _ = run(["analyze", "--family", "hermR", "--rank", "2",
                        "--p", "0", "--q", "0", "--json"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["minimal"] is False
    assert rep["aut_germ_dim"] is None
    assert any("totally real" in n for n in rep["notices"])


def test_analyze_human_report_has_elapsed(capsys):
    code, out, _ = run(["analyze", "--family", "hermR", "--rank", "2",
                        "--p", "1", "--q", "0"], capsys)
    assert code == 0
    assert "elapsed" in out
    assert "aut germ dim    5" in out


def test_analyze_rejects_bad_signature(capsys):
    code, _, err = run(["analyze", "--family", "hermR", "--rank", "2",
                        "--p", "2", "--q", "1"], capsys)
    assert code == 2
    assert "input error" in err


def test_orbit_example(capsys):
    code, out, _ = run(["orbit", "--family", "hermR", "--rank", "3",
                        "--element", "[1,-2,0,0,0,0]", "--json"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["p"] == 1 and rep["q"] == 1
    assert rep["support"] == [1, 1, 0, 0, 0, 0]


def test_orbit_decomposes_once(monkeypatch, capsys):
    # signature, minors and support all come from one decomposition
    calls = []
    decompose = sp.spectral_decompose

    def counting(*args, **kwargs):
        calls.append(args)
        return decompose(*args, **kwargs)

    monkeypatch.setattr(sp, "spectral_decompose", counting)
    code, _, _ = run(["orbit", "--family", "hermR", "--rank", "3",
                      "--element", "[1,-2,0,0,0,0]", "--json"], capsys)
    assert code == 0
    assert len(calls) == 1


def test_orbit_element_from_file(tmp_path, capsys):
    path = tmp_path / "element.json"
    path.write_text("[1, -2, 0, 0, 0, 0]")
    code, out, _ = run(["orbit", "--family", "hermR", "--rank", "3",
                        "--element", str(path), "--json"], capsys)
    assert code == 0
    assert json.loads(out)["p"] == 1


def test_orbit_missing_file(capsys):
    code, _, err = run(["orbit", "--family", "hermR", "--rank", "3",
                        "--element", "/nonexistent/element.json"], capsys)
    assert code == 2
    assert "input error" in err


def test_orbit_bad_json_reports_position(capsys):
    code, _, err = run(["orbit", "--family", "hermR", "--rank", "3",
                        "--element", "[1, oops]"], capsys)
    assert code == 2
    assert "line 1" in err and "column" in err


def test_orbit_borderline_exit_three(capsys):
    code, _, err = run(["orbit", "--family", "hermR", "--rank", "2",
                        "--element", "[1, 5e-9, 0]"], capsys)
    assert code == 3
    assert "numerical failure" in err


@pytest.mark.parametrize("element, p, q, support", [
    ("[1,1e-8,0]", 2, 0, [1, 1, 0]),
    ("[1,-1e-8,0]", 1, 1, [1, 1, 0]),
    ("[1,1e-9,0]", 1, 0, [1, 0, 0]),
    ("[1,-1e-9,0]", 1, 0, [1, 0, 0]),
    ("[0,0,0]", 0, 0, [0, 0, 0]),
])
def test_orbit_signature_rule_edges(element, p, q, support, capsys):
    # a ratio of exactly ±1e-8 counts, ±1e-9 is zero, and zero is (0, 0)
    code, out, _ = run(["orbit", "--family", "hermR", "--rank", "2",
                        "--element", element, "--json"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert (rep["p"], rep["q"], rep["support"]) == (p, q, support)


@pytest.mark.parametrize("element, ratios", [("[1,5e-9,0]", "[5.e-09]"),
                                             ("[1,-5e-9,0]", "[-5.e-09]")])
def test_orbit_band_message(element, ratios, capsys):
    code, out, err = run(["orbit", "--family", "hermR", "--rank", "2",
                          "--element", element, "--json"], capsys)
    assert code == 3 and out == ""
    assert err == (f"numerical failure: eigenvalue ratio(s) {ratios} "
                   "inside the (1e-09, 1e-08) band\n")


@pytest.mark.parametrize("family_args, element", [
    (["--family", "spin", "--n", "3"], "[NaN,1,0,0,0]"),
    (["--family", "spin", "--n", "3"], "[Infinity,1,0,0,0]"),
    (["--family", "albert"], "[" + ",".join(["NaN"] * 27) + "]"),
], ids=["spin-nan", "spin-inf", "albert-nan"])
def test_orbit_rejects_non_finite_element(family_args, element, capsys):
    # json.loads accepts NaN and Infinity; they must stop at the input boundary
    code, out, err = run(["orbit", *family_args, "--element", element, "--json"],
                         capsys)
    assert code == 2
    assert "input error" in err and "NaN or infinite" in err
    assert out == ""


def test_spectral_diag_example(capsys):
    code, out, _ = run(["spectral", "--family", "hermR", "--rank", "3",
                        "--element", "[1,-2,0,0,0,0]", "--json"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["eigenvalues"] == [1, 0, -2]


def test_spectral_projections_flag(capsys):
    argv = ["spectral", "--family", "hermR", "--rank", "2", "--element", "[3,1,0]", "--json"]
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert not {"projections", "block_dims"} & set(json.loads(out))
    code, out, _ = run(argv + ["--projections"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["block_dims"] == {"0,0": 1, "0,1": 1, "1,1": 1}
    assert sum(rep["block_dims"].values()) == 3


def _listed(a):
    """An array as plain lists: one float per real entry, [re, im] per complex one."""
    a = np.asarray(a)
    if a.ndim > 1:
        return [_listed(row) for row in a]
    if np.iscomplexobj(a):
        return [[float(v.real), float(v.imag)] for v in a]
    return [float(v) for v in a]


def _descriptor(A):
    return {"family": A.family, "rank": A.rank, "n": A.peirce_constant}


def _spectral_layout(A, x):
    sd = sp.spectral_decompose(A, x)
    joint = sp.joint_peirce(A, sd.frame)
    return {"descriptor": _descriptor(A), "eigenvalues": _listed(sd.eigenvalues),
            "frame": _listed(sd.frame),
            "projections": {f"{j},{k}": _listed(m)
                            for (j, k), m in sorted(joint.projections.items())},
            "block_dims": {f"{j},{k}": int(d) for (j, k), d in sorted(joint.dims.items())}}


def _orbit_layout(A, x):
    sig = sp.orbit_signature(A, x)
    minors, norm = sp.generic_minors(A, x)
    return {"descriptor": _descriptor(A), "p": sig.p, "q": sig.q,
            "minors": _listed(minors), "generic_norm": float(norm),
            "support": _listed(sp.support_idempotent(A, x))}


def _flow_layout(A, v, c, t):
    return {"descriptor": _descriptor(A), "t": t,
            "coefficients": _listed(fl.diagonal_flow_coefficients(v, c, t)),
            "element": _listed(fl.diagonal_flow(A, al.standard_frame(A), v, c, t))}


_ELEMENTS = {
    "hermR": (["--family", "hermR", "--rank", "3"], al.make_algebra("hermR", rank=3),
              [2, 1, -1, 0.5, 0.25, -0.5]),
    "hermC": (["--family", "hermC", "--rank", "3"], al.make_algebra("hermC", rank=3),
              [2, 1, -1, 0.5, 0, 0.25, 0, -0.5, 0.125]),
    "spin": (["--family", "spin", "--n", "3"], al.make_algebra("spin", peirce_constant=3),
             [1, 0.5, -0.25, 2, 0.125]),
}
_J2 = np.block([[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]])
_Z2 = np.array([[1 + 2j, 0.5], [0.5, 1j]])
_S3 = np.array([[2.0, 1.0, 0.0], [1.0, 0.5, 0.0], [0.0, 0.0, 0.0]])

_LAYOUTS = {
    **{f"spectral-{name}": (["spectral", "--projections", *fam, "--element", json.dumps(x)],
                            lambda A=A, x=x: _spectral_layout(A, np.array(x, dtype=float)))
       for name, (fam, A, x) in _ELEMENTS.items()},
    **{f"orbit-{name}": (["orbit", *fam, "--element", json.dumps(x)],
                         lambda A=A, x=x: _orbit_layout(A, np.array(x, dtype=float)))
       for name, (fam, A, x) in _ELEMENTS.items()},
    "flow-hermR": (["flow", "--v", "1,2", "--c", "i,1+2i", "--t", "0.25"],
                   lambda: _flow_layout(al.make_algebra("hermR", rank=2),
                                        [1.0, 2.0], [1j, 1 + 2j], 0.25)),
    "flow-hermC": (["flow", "--family", "hermC", "--v", "1,0.5", "--c", "2-i,3i",
                    "--t", "-0.5"],
                   lambda: _flow_layout(al.make_algebra("hermC", rank=2),
                                        [1.0, 0.5], [2 - 1j, 3j], -0.5)),
    "siegel-action": (["siegel", "--matrix", json.dumps(_J2.tolist()), "--z",
                       json.dumps([[[v.real, v.imag] for v in row] for row in _Z2])],
                      lambda: {"result": _listed(dm.siegel_action(_J2, _Z2))}),
    "siegel-isotropy": (["siegel", "--isotropy", "--s", json.dumps(_S3.tolist())],
                        lambda: {"s": _listed(_S3),
                                 "isotropy_dimension": dm.isotropy_dimension(_S3),
                                 "sp_dim": 21}),
}


@pytest.mark.parametrize("argv, layout", _LAYOUTS.values(), ids=_LAYOUTS.keys())
def test_json_layout_of_array_reports(argv, layout, capsys):
    # arrays go into reports as they are; the JSON is that of plain lists of
    # floats and [re, im] pairs, built here from the library calls
    code, out, err = run(argv + ["--json"], capsys)
    assert (code, err) == (0, "")
    assert out == sz.dumps_canonical(layout()) + "\n"


def test_nondegen_spin(capsys):
    code, out, _ = run(["nondegen", "--family", "spin", "--n", "3",
                        "--p", "1", "--q", "0", "--json"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["order"] == 2
    assert rep["chain_dims"] == [4, 1, 0]
    assert rep["minimal"] is True


def test_flow_example(capsys):
    code, out, _ = run(["flow", "--v", "1", "--c", "i", "--t", "1"], capsys)
    assert code == 0
    assert out.strip() == "g_1(1) = 0.5i"


def test_flow_json(capsys):
    code, out, _ = run(["flow", "--v", "1,2", "--c", "i,1+2i", "--t", "0.25",
                        "--json"], capsys)
    assert code == 0
    rep = json.loads(out)
    g = ct_flow_oracle([1.0, 2.0], [1j, 1 + 2j], 0.25)
    got = [complex(re, im) for re, im in rep["coefficients"]]
    np.testing.assert_allclose(got, g, atol=1e-12)


def ct_flow_oracle(v, c, t):
    v = np.asarray(v, dtype=float)
    c = np.asarray(c, dtype=complex)
    return c / (1 - 1j * v * c * t)


def test_flow_pole_exit_three(capsys):
    code, _, err = run(["flow", "--v", "1", "--c=-i", "--t", "1"], capsys)
    assert code == 3
    assert "numerical failure" in err


def test_flow_past_the_float_limit(capsys):
    # v c t = 1e400 overflows; c / (1 − i v c t) is about 1e-200 i
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(["flow", "--v", "1e200", "--c", "1e200", "--t", "1"], capsys)
    assert (code, out, err) == (0, "g_1(1) = 1e-200i\n", "")


def test_flow_quotient_past_the_float_range_exits_three(capsys):
    # |1 − i v c t| ≈ 2e-12 passes the pole cut; the quotient ≈ 5e311 does not fit
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(["flow", "--v", "1e-300", "--c=-1e300i",
                              "--t", "1.000000000002"], capsys)
    assert (code, out) == (3, "")
    assert err == ("numerical failure: flow coefficient passes the float range "
                   "at t = 1.000000000002 in component 0\n")


@pytest.mark.parametrize("matrix, z, want", [
    ("[[1,0],[0,1]]", "[[[0,1e200]]]", (0, "1e+200i\n", "")),
    ("[[1,0],[0,1]]", "[[[0,1e308]]]", (0, "1e+308i\n", "")),
    ("[[2,0],[0,0.5]]", "[[[0,1e308]]]",
     (3, "", "numerical failure: the Möbius image passes the float range\n")),
    ("[[1e200,0],[0,1e-200]]", "[[[0,1e-300]]]", (0, "1e+100i\n", "")),
    ("[[1e200,0],[0,1e-200]]", "[[[0,1]]]",
     (3, "", "numerical failure: the Möbius image passes the float range\n")),
], ids=["1e200", "1e308", "4e308", "diag-1e200", "diag-1e200-at-i"])
def test_siegel_on_huge_points_prints_or_exits_three(matrix, z, want, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["siegel", "--matrix", matrix, "--z", z], capsys) == want


def test_flow_mismatched_lengths(capsys):
    code, _, err = run(["flow", "--v", "1,2", "--c", "i"], capsys)
    assert code == 2


def test_siegel_isotropy_example(capsys):
    code, out, _ = run(["siegel", "--isotropy", "--s", "diag(1,0)", "--json"],
                       capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["isotropy_dimension"] == 5
    assert rep["sp_dim"] == 10


def test_siegel_isotropy_scaled_point(capsys):
    code, out, _ = run(["siegel", "--isotropy", "--s", "diag(1e4,0)", "--json"],
                       capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["isotropy_dimension"] == 5
    assert rep["s"] == [[10000, 0], [0, 0]]


_ORBIT_C11 = ["orbit", "--family", "hermR", "--rank", "3",
              "--element", "[1,-2,0,0,0,0]", "--json"]
_FLOW = ["flow", "--v", "1,0.5", "--c", "i,1"]


@pytest.mark.parametrize("argv", [
    ["siegel", "--isotropy", "--s", "diag(nan,0)"],
    ["siegel", "--isotropy", "--s", "diag(1,x)"],
    _FLOW + ["--t", "nan"],
    _FLOW + ["--t=-inf"],
    ["flow", "--v", "nan,0.5", "--c", "i,1"],
    ["flow", "--v", "1,x", "--c", "i,1"],
    ["flow", "--v", "1,0.5", "--c", "nan,1"],
    ["flow", "--v", "1,0.5", "--c", "i,1+nani"],
    # an exponent without digits, not 2e + i or 1e - i
    _FLOW[:3] + ["2e+i,1"],
    _FLOW[:3] + ["1e-i,1"],
    # the spectral tolerance is fixed, so no command takes --tol
    ["table", "--family", "hermR", "--rank", "2", "--tol", "1e-6"],
    _FLOW + ["--tol", "1e-6"],
    ["analyze", "--family", "hermR", "--rank", "2", "--p", "1", "--q", "0",
     "--tol", "1e-6"],
    ["spectral", "--family", "hermR", "--rank", "3", "--element", "[1,-2,0,0,0,0]",
     "--tol", "1e-6"],
    _ORBIT_C11 + ["--tol", "1e-6"],
    ["nondegen", "--family", "spin", "--n", "3", "--p", "1", "--q", "0",
     "--tol", "1e-6"],
    ["siegel", "--isotropy", "--s", "diag(1,0)", "--tol", "1e-6"],
])
def test_rejects_bad_numeric_options(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the option itself
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert "error" in captured.err
    assert captured.out == ""


def test_siegel_action_subcommand(capsys):
    z = [[[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]]
    code, out, _ = run(["siegel", "--matrix", json.dumps(np.eye(4).tolist()),
                        "--z", json.dumps(z), "--json"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["result"] == z


def test_siegel_requires_arguments(capsys):
    code, _, err = run(["siegel"], capsys)
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["siegel", "--isotropy", "--s", "diag(1,0)", "--matrix", "[[1]]"],
    ["siegel", "--isotropy", "--s", "diag(1,0)", "--z", "[[[0,1]]]"],
    ["siegel", "--s", "diag(1,0)", "--matrix", json.dumps(np.eye(2).tolist()),
     "--z", "[[[0,1]]]"],
], ids=["isotropy-matrix", "isotropy-z", "action-s"])
def test_siegel_refuses_flags_of_the_other_mode(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2
    assert err.startswith("input error") and ", not " in err
    assert out == ""


_SIEGEL_Z = json.dumps([[[0, 1], [0, 0]], [[0, 0], [0, 1]]])


@pytest.mark.parametrize("argv, bad", [
    (["spectral", "--family", "hermR", "--rank", "2", "--element", "[true,2,3]"], "true"),
    (["orbit", "--family", "hermR", "--rank", "2", "--element", "[1,[2,false],3]"],
     "[2, false]"),
    (["siegel", "--isotropy", "--s", "[[1,0],[0,false]]"], "false"),
    (["siegel", "--matrix", json.dumps(np.eye(4).tolist()).replace("1.0", "true", 1),
      "--z", _SIEGEL_Z], "true"),
    (["siegel", "--matrix", json.dumps(np.eye(4).tolist()),
      "--z", _SIEGEL_Z.replace("1", "true", 1)], "[0, true]"),
], ids=["spectral-element", "orbit-pair", "siegel-s", "siegel-matrix", "siegel-z"])
def test_json_booleans_are_not_numbers(argv, bad, capsys):
    # JSON true and false are refused where a number is due, and named as
    # typed; with 1 and 0 in their place the same command runs
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("input error") and err.rstrip().endswith(bad)
    numeric = [arg.replace("true", "1").replace("false", "0") for arg in argv]
    assert run(numeric, capsys)[0] == 0


def test_out_of_memory_input_is_an_input_error():
    # spin n = 100000 asks for a (d, d, d) table of about 7 PiB, beyond the
    # address space: the allocation is refused at once and touches no memory
    proc = subprocess.run([sys.executable, "-m", "conetube", "analyze", "--family", "spin",
                           "--n", "100000", "--p", "1", "--q", "0"],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("input error: too large for memory")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("p, q, name", [(-1, 0, "p"), (0, -2, "q"), (-1, -1, "p")])
def test_negative_signature_entry_is_named(p, q, name, capsys):
    code, _, err = run(["analyze", "--family", "hermR", "--rank", "3",
                        "--p", str(p), "--q", str(q)], capsys)
    assert code == 2
    assert f"(p, q) = ({p}, {q}): {name} is negative" in err
    assert "exceeds" not in err


ANALYZE_ARGV = ["analyze", "--family", "hermR", "--rank", "2", "--p", "1",
                "--q", "0", "--json"]


@pytest.mark.parametrize("name, argv, message", [
    ("svd", ANALYZE_ARGV, "rank decision failed"),
    ("eigh", ["spectral", "--family", "hermR", "--rank", "2",
              "--element", "[3,1,0]"], "eigensolver failed"),
    ("eigh", ["orbit", "--family", "hermH", "--rank", "2",
              "--element", "[1,2,0,0,0,0]"], "eigensolver failed"),
    ("solve", ["siegel", "--matrix", json.dumps(np.eye(4).tolist()),
               "--z", "[[[0,1],[0,0]],[[0,0],[0,1]]]"], "Möbius action solve failed"),
    ("svd", ["siegel", "--matrix", json.dumps(np.eye(4).tolist()),
             "--z", "[[[0,1],[0,0]],[[0,0],[0,1]]]"], "Möbius action solve failed"),
], ids=["analyze-svd", "spectral-eigh", "orbit-eigh", "siegel-solve", "siegel-svd"])
def test_linalg_failure_exits_three(name, argv, message, break_linalg, capsys):
    break_linalg(name)
    # a cold analyze ranks only in gl_omega_span, cached once per algebra;
    # clearing that cache reaches its SVDs
    fl.gl_omega_span.cache_clear()
    code, out, err = run(argv, capsys)
    assert code == 3
    assert err.startswith("numerical failure: ") and message in err
    assert out == ""


_NOT_UTF8 = "<a file that is not UTF-8>"


@pytest.mark.parametrize("argv", [
    ["analyze", "--p", "1", "--q", "0"],
    ["table", "--family", "spin", "--n", "9"],
    ["flow", "--v", "1,2", "--c", "i,i", "--rank", "3"],
    ["flow", "--v", "1", "--c", "2e+i"],
    ["spectral", "--family", "hermR", "--rank", "2", "--element", _NOT_UTF8],
    ["spectral", "--family", "hermR", "--rank", "2",
     "--element", "[" * 100_000 + "]" * 100_000],
], ids=["analyze-no-family", "table-spin-n9", "flow-rank", "flow-exponent",
        "element-not-utf8", "element-deep"])
def test_refusal_exits_two(argv, tmp_path, capsys):
    path = tmp_path / "element.json"
    path.write_bytes(b"\xff\xfe[1, 0, 0]")
    argv = [str(path) if arg == _NOT_UTF8 else arg for arg in argv]
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("input error: ")


_GROUP_EXITS = {errors.InputError: (2, "input error: "),
                errors.NumericalError: (3, "numerical failure: ")}
_ERROR_CLASSES = [cls for cls in vars(errors).values()
                  if isinstance(cls, type) and issubclass(cls, errors.ConetubeError)
                  and cls not in (errors.ConetubeError, *_GROUP_EXITS)]


def test_error_classes_are_all_found():
    assert len(_ERROR_CLASSES) == 18


@pytest.mark.parametrize("cls", _ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_error_group_sets_exit_code(cls, monkeypatch, capsys):
    groups = [group for group in _GROUP_EXITS if issubclass(cls, group)]
    assert len(groups) == 1
    code, prefix = _GROUP_EXITS[groups[0]]

    def fail(algebra):
        raise cls("injected")

    monkeypatch.setattr(fl, "dim_table", fail)
    assert run(["table", "--family", "hermR", "--rank", "2"], capsys) == (
        code, "", prefix + "injected\n")


def test_unknown_family_exits_two(capsys):
    with pytest.raises(SystemExit) as err:
        main(["table", "--family", "hermO"])
    assert err.value.code == 2


def test_json_outputs_reparse_and_revalidate(capsys):
    # round trip: the JSON element of `orbit` feeds back into `spectral`
    code, out, _ = run(["orbit", "--family", "hermR", "--rank", "3",
                        "--element", "[1,-2,0,0,0,0]", "--json"], capsys)
    support = json.dumps(json.loads(out)["support"])
    code, out, _ = run(["spectral", "--family", "hermR", "--rank", "3",
                        "--element", support, "--json"], capsys)
    assert code == 0
    assert json.loads(out)["eigenvalues"] == [1, 1, 0]


def test_json_byte_determinism_in_process(capsys):
    args = ["analyze", "--family", "spin", "--n", "4", "--p", "1", "--q", "1",
            "--json"]
    _, first, _ = run(args, capsys)
    _, second, _ = run(args, capsys)
    assert first == second


def test_json_byte_determinism_subprocess():
    cmd = [sys.executable, "-m", "conetube", "analyze", "--family", "hermC",
           "--rank", "2", "--p", "1", "--q", "0", "--json"]
    first = subprocess.run(cmd, capture_output=True, check=True).stdout
    second = subprocess.run(cmd, capture_output=True, check=True).stdout
    assert first == second
    json.loads(first)


def test_dim_table_and_analyze_leave_numpy_random_unimported():
    code = """if True:
        import sys
        import conetube as ct
        from conetube import cli
        for A in ct.desk_algebras():
            assert ct.dim_table(A) == ct.expected_dim_table(A), A
        assert cli.main(["analyze", "--family", "hermH", "--rank", "3",
                         "--p", "1", "--q", "1", "--json"]) == 0
        assert "numpy.random" not in sys.modules, "numpy.random imported"
    """
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_multiplication_table_is_the_only_cached_cube():
    # after a cold analyze, spectral --projections and one lmul, everything
    # the package still holds is T and arrays far smaller than it
    code = """if True:
        import gc, json, os, tracemalloc
        import numpy as np
        import conetube as ct
        from conetube import cli
        tracemalloc.start(64)
        A = ct.make_algebra("hermC", rank=8)
        argv = ["--family", "hermC", "--rank", "8", "--json"]
        assert cli.main(["analyze", *argv, "--p", "3", "--q", "2"]) == 0
        x = json.dumps([float(v) for v in range(1, 9)] + [0.5] * (A.dim - 8))
        assert cli.main(["spectral", *argv, "--element", x, "--projections"]) == 0
        ct.lmul(A, np.linspace(-1.0, 1.0, A.dim))
        gc.collect()
        package = os.path.join(os.path.dirname(ct.__file__), "*")
        snap = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.Filter(True, package, all_frames=True)])
        print(sum(t.size for t in snap.traces) / ct.multiplication_table(A).nbytes)
    """
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout.split()[-1]) < 1.5


def test_one_parser_serves_every_call_like_a_fresh_interpreter(capsys):
    sequence = [
        ANALYZE_ARGV,
        ["analyze", "--family", "hermR", "--rank", "2", "--p", "1"],  # no --q
        ["nondegen", "--family", "spin", "--n", "3", "--p", "1", "--q", "1", "--json"],
        ["spectral", "--family", "hermR", "--rank", "3", "--element", "[1,-2,0,0,0,0]",
         "--json"],
        ["table", "--family", "hermC", "--rank", "2", "--json"],
        ANALYZE_ARGV + ["--tol", "1e-6"],  # no such option: exit 2
    ]
    cli._build_parser.cache_clear()
    in_process = []
    for argv in sequence:
        try:
            code = main(list(argv))
        except SystemExit as exc:  # the parse error
            code = exc.code
        captured = capsys.readouterr()
        in_process.append((code, captured.out, captured.err))
    assert cli._build_parser.cache_info().misses == 1
    assert [code for code, _, _ in in_process] == [0, 2, 0, 0, 0, 2]
    for argv, outcome in zip(sequence, in_process):
        fresh = subprocess.run([sys.executable, "-m", "conetube", *argv],
                               capture_output=True, text=True)
        assert (fresh.returncode, fresh.stdout, fresh.stderr) == outcome, argv


def _strict_json(text):
    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("argv", [
    ["table", "--family", "hermC", "--rank", "2"],
    ["analyze", "--family", "hermR", "--rank", "2", "--p", "1", "--q", "0"],
    ["spectral", "--family", "hermH", "--rank", "2", "--element",
     "[1,-2,0,0,0,0]", "--projections"],
    ["orbit", "--family", "albert", "--element", json.dumps([1.0] * 3 + [0.0] * 24)],
    ["nondegen", "--family", "spin", "--n", "3", "--p", "2", "--q", "0"],
    ["flow", "--v", "1,0.5", "--c", "i,1+2i"],
    ["siegel", "--isotropy", "--s", "diag(1,0)"],
], ids=lambda argv: argv[0])
def test_every_subcommand_prints_json_or_text(argv, capsys):
    code, out, err = run(argv + ["--json"], capsys)
    assert code == 0 and err == ""
    assert out.endswith("\n") and out.count("\n") == 1
    _strict_json(out)

    code, out, err = run(argv, capsys)
    assert code == 0 and err == "" and out.strip()
    with pytest.raises(ValueError):
        _strict_json(out)
    for line in out.splitlines():
        assert not line.lstrip().startswith(("{", "[")), line


@pytest.mark.parametrize("element", [
    "[1e-8,0,1e-8,0,0,0]", "[0,0,1e-8,0,0,0]", "[0,0,1e-7,0,0,0]"])
def test_orbit_small_hermH_element(element, capsys):
    # eigenvalues of order 1e-8 with opposite signs: the orbit is (1,1)
    code, out, _ = run(["orbit", "--family", "hermH", "--rank", "2",
                        "--element", element, "--json"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert (rep["p"], rep["q"]) == (1, 1)


def test_orbit_overflowing_eigenvalue_exits_three(capsys):
    # every entry is finite, but the eigenvalues of this albert element are not
    element = "[" + ",".join(["1e308"] * 27) + "]"
    code, out, err = run(["orbit", "--family", "albert", "--element", element, "--json"],
                         capsys)
    assert code == 3
    assert "numerical failure" in err and "overflows" in err
    assert out == ""


@pytest.mark.parametrize("text, value", [
    ("i", 1j), ("+i", 1j), ("-i", -1j), ("1+i", 1 + 1j), ("2-i", 2 - 1j),
    (" - i ", -1j), ("1+2i", 1 + 2j), ("3", 3 + 0j)])
def test_parse_complex_scalar(text, value):
    assert cli._parse_complex_scalar(text) == value


def test_orbit_overflowing_minor_exits_three(capsys):
    # the eigenvalues are finite, so spectral answers; their product is not
    argv = ["--family", "hermR", "--rank", "2", "--element", "[1e200,1e200,0]", "--json"]
    code, out, err = run(["orbit"] + argv, capsys)
    assert code == 3
    assert "numerical failure: generic minor N_2 overflows" in err
    assert out == ""
    code, out, _ = run(["spectral"] + argv, capsys)
    assert code == 0
    assert json.loads(out)["eigenvalues"] == [1e200, 1e200]


# sha256 over exit code and stdout of `analyze --json` and `nondegen --json` on
# every orbit of the desk, and of the algebras above it that the benchmark's
# large-rank workload runs. The reports hold only ints, bools and strings, so
# the digests are the same on every platform. A change that alters these bytes
# updates the digest and says so in CHANGES.md.
DESK_JSON_SHA256 = "5c3425d3549ea9c74188a117292616a647f56f934ff8432925a03a3e4046d7f6"
LARGE_RANK_JSON_SHA256 = "8fbcf7927442bd49a1cf432003e120428d4a6a535a8de2497df9f185280a68ec"


def _family_args(A):
    size = (["--n", str(A.peirce_constant)] if A.family == "spin" else
            [] if A.family == "albert" else ["--rank", str(A.rank)])
    return ["--family", A.family, *size]


def _analyze_and_nondegen_digest(algebras, capsys):
    digest = hashlib.sha256()
    count = 0
    for A in algebras:
        for p in range(A.rank + 1):
            for q in range(A.rank + 1 - p):
                for command in ("analyze", "nondegen"):
                    code, out, _ = run([command, *_family_args(A),
                                        "--p", str(p), "--q", str(q), "--json"], capsys)
                    digest.update(f"{code}\n{out}".encode())
                    count += 1
    return count, digest.hexdigest()


def test_desk_analyze_and_nondegen_json_bytes(capsys):
    assert _analyze_and_nondegen_digest(al.desk_algebras(), capsys) \
        == (2 * 178, DESK_JSON_SHA256)


def test_desk_analyze_never_builds_gl_omega_rows(monkeypatch, capsys):
    # dim_table needs only the two dimensions of gl(Omega), not its rows
    def refuse(span):
        raise AssertionError(f"GlOmegaSpan.rows read for {span.algebra}")

    fl.gl_omega_span.cache_clear()
    monkeypatch.setattr(fl.GlOmegaSpan, "rows", property(refuse))
    assert _analyze_and_nondegen_digest(al.desk_algebras(), capsys) \
        == (2 * 178, DESK_JSON_SHA256)


def _large_rank():
    return [al.make_algebra(family, rank=r)
            for family, r in (("hermR", 6), ("hermR", 7), ("hermC", 6), ("hermH", 4))]


def test_large_rank_analyze_and_nondegen_json_bytes(capsys):
    assert _analyze_and_nondegen_digest(_large_rank(), capsys) \
        == (2 * 107, LARGE_RANK_JSON_SHA256)


def test_analyze_never_builds_dense_projectors(monkeypatch, capsys):
    # the kernel chain and minimality are read off each algebra's block graph,
    # on Peirce rows read off the coordinate layout: even from cold caches, no
    # joint_peirce (the only builder of dense π_jk) runs for any verdict
    al.peirce_blocks.cache_clear()

    def refuse(algebra, frame):
        raise AssertionError(f"dense Peirce projectors built for {algebra}")

    monkeypatch.setattr(sp, "joint_peirce", refuse)
    assert _analyze_and_nondegen_digest(al.desk_algebras(), capsys) \
        == (2 * 178, DESK_JSON_SHA256)
    assert _analyze_and_nondegen_digest(_large_rank(), capsys) \
        == (2 * 107, LARGE_RANK_JSON_SHA256)


def test_warm_desk_analyze_runs_no_svd(break_linalg, capsys):
    # once each algebra's caches are built, no verdict of analyze or nondegen
    # takes a rank: every SVD raising leaves the bytes as they are
    for A in al.desk_algebras():
        assert run(["analyze", *_family_args(A), "--p", "1", "--q", "0", "--json"],
                   capsys)[0] == 0
    break_linalg("svd")
    assert _analyze_and_nondegen_digest(al.desk_algebras(), capsys) \
        == (2 * 178, DESK_JSON_SHA256)


def test_aut1_dim_on_every_degenerate_desk_orbit(capsys):
    checked = 0
    for A in al.desk_algebras():
        for p in range(A.rank + 1):
            for q in range(A.rank + 1 - p):
                if not 0 < p + q < A.rank:
                    continue
                code, out, _ = run(["analyze", *_family_args(A), "--p", str(p),
                                    "--q", str(q), "--json"], capsys)
                assert code == 0
                rep = json.loads(out)
                orb = tb.make_orbit(A, p, q)
                assert rep["aut1_dim"] == len(tb.aut1_basis(orb)) == rep["crcodim"] \
                    == orb.basis_e0.shape[0] > 0, (A, p, q)
                checked += 1
    assert checked == 88  # of the 178 desk orbits
