"""Command-line front end.

Subcommands: table, analyze, spectral, orbit, nondegen, flow, siegel.
Exit codes: 0 on success (for ``table``: all rows PASS), 2 on a parse
error, an ``InputError``, an ``OSError`` or a ``MemoryError``, 3 on a
``NumericalError``. Each ``cmd_*`` function returns
(exit code, report, text lines) and prints nothing; ``main`` alone chooses
between the canonical JSON of the report (``--json``) and the text lines.
JSON output renders floats with 12 significant digits and is byte-identical
across runs for identical inputs; wall-clock timing appears only in the
human-readable report for that reason.

The argument parser is built once per process, at the first ``main`` call;
later calls only parse.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import lru_cache

import numpy as np

from . import algebra as al
from . import domains as dm
from . import fields as fl
from . import serialize as sz
from . import spectral as sp
from . import tube as tb
from .errors import DimensionMismatch, InputError, NumericalError, require_finite

_TABLE_RANK_CAP = 5
_TABLE_SPIN_CAP = 8


def _fmt(x: float) -> str:
    return sz.format_float(float(x))


def _fmt_complex(c: complex) -> str:
    c = complex(c)
    if c.imag == 0:
        return _fmt(c.real)
    imag = f"{_fmt(abs(c.imag))}i"
    if c.real == 0:
        return imag if c.imag > 0 else f"-{imag}"
    sign = "+" if c.imag > 0 else "-"
    return f"{_fmt(c.real)} {sign} {imag}"


def _parse_complex_scalar(text: str) -> complex:
    """'i', '-i', '1+2i', …: Python's complex() with i for j; anything else is refused."""
    try:
        return complex(text.strip().replace(" ", "").replace("i", "j"))
    except ValueError as exc:
        raise DimensionMismatch(f"cannot parse complex number {text!r}") from exc


def _parse_complex_list(text: str) -> np.ndarray:
    return np.asarray([_parse_complex_scalar(t) for t in text.split(",")])


def _load_json_arg(text: str):
    """Inline JSON, or the path of a UTF-8 JSON file; unreadable JSON is refused."""
    stripped = text.strip()
    try:
        if stripped.startswith("[") or stripped.startswith("{"):
            return json.loads(stripped)
        with open(text, "r", encoding="utf-8") as fh:
            return json.loads(fh.read())
    except json.JSONDecodeError as exc:
        raise DimensionMismatch(f"invalid JSON at line {exc.lineno} "
                                f"column {exc.colno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise DimensionMismatch(f"{text} is not UTF-8 text: {exc.reason}") from exc
    except RecursionError as exc:
        raise DimensionMismatch("JSON nested too deeply") from exc


def _algebra_from_args(args) -> al.AlgebraDescriptor:
    if args.family is None:
        raise DimensionMismatch("--family is required for this command")
    return al.make_algebra(args.family, rank=args.rank, peirce_constant=args.n)


def _parse_s_matrix(text: str) -> np.ndarray:
    stripped = text.strip()
    if stripped.startswith("diag(") and stripped.endswith(")"):
        try:
            return np.diag([float(t) for t in stripped[5:-1].split(",")])
        except ValueError as exc:
            raise DimensionMismatch(f"cannot parse --s {text!r}") from exc
    return sz.matrix_from_json(_load_json_arg(text)).astype(float)


def _table_rows(args):
    """The desk rows of --family, with any --rank or --n put in and checked."""
    if args.family is None and (args.rank, args.n) != (None, None):
        raise DimensionMismatch("table takes --rank and --n only with --family")
    rows = dict.fromkeys(al.make_algebra(
        a.family, args.rank if args.rank is not None else a.rank,
        args.n if args.n is not None else a.peirce_constant)
        for a in al.desk_algebras() if args.family in (None, a.family))
    if any(a.family == "spin" and a.peirce_constant > _TABLE_SPIN_CAP for a in rows):
        raise DimensionMismatch(f"table covers spin n <= {_TABLE_SPIN_CAP}")
    if any(a.rank > _TABLE_RANK_CAP for a in rows):
        raise DimensionMismatch(f"table covers Hermitian ranks r <= {_TABLE_RANK_CAP}")
    return list(rows)


def cmd_table(args):
    rows = []
    all_pass = True
    for algebra in _table_rows(args):
        got = fl.dim_table(algebra)
        want = fl.expected_dim_table(algebra)
        ok = got == want
        all_pass &= ok
        rows.append((algebra, got, want, ok))
    report = [{"descriptor": sz.descriptor_to_json(a), "computed": g,
               "expected": w, "pass": ok} for a, g, w, ok in rows]
    header = (f"{'algebra':<22}{'der(V)':>8}{'sl(Omega)':>11}"
              f"{'aut(H)':>8}{'sl(D)':>7}  status")
    lines = [header, "-" * len(header)]
    for a, g, w, ok in rows:
        label = f"{a.family} r={a.rank} n={a.peirce_constant}"
        status = "PASS" if ok else f"FAIL (expected {w})"
        lines.append(f"{label:<22}{g['dim_der']:>8}{g['dim_sl_omega']:>11}"
                     f"{g['dim_aut_H']:>8}{g['dim_sl_D']:>7}  {status}")
    return (0 if all_pass else 3), report, lines


def _order_label(nd):
    return nd.order if nd.order is not None else "NotFinitelyNondegenerate"


def _analysis_report(algebra, p, q):
    orbit = tb.make_orbit(algebra, p, q)
    dims = tb.cr_dimensions(algebra, p, q)
    nd = tb.nondegeneracy_order(orbit)
    minimal = tb.minimality_check(orbit)
    rho = orbit.rho
    notices = []
    if nd.note:
        notices.append(nd.note)
    if 0 < rho < algebra.rank:
        germ = tb.aut_germ_dimension(algebra, p, q)
        aut1 = orbit.basis_e0.shape[0]
    else:
        germ = None
        aut1 = None
        kind = "totally real" if rho == 0 else "open"
        notices.append(f"germ-automorphism dimension undefined for the "
                       f"{kind} orbit (rank {rho})")
    report = {
        "descriptor": sz.descriptor_to_json(algebra),
        "signature": {"p": p, "q": q},
        "rank": rho,
        "corank": orbit.rho_prime,
        "crdim": dims["crdim"],
        "crcodim": dims["crcodim"],
        "levi_kernel_dim": nd.chain_dims[1] if rho else 0,
        "nondegeneracy_order": _order_label(nd),
        "chain_dims": nd.chain_dims,
        "minimal": minimal,
        "aut_germ_dim": germ,
        "aut1_dim": aut1,
        "dim_table": fl.dim_table(algebra),
    }
    if notices:
        report["notices"] = notices
    return report


def cmd_analyze(args):
    algebra = _algebra_from_args(args)
    started = time.perf_counter()
    report = _analysis_report(algebra, args.p, args.q)
    elapsed_ms = 1000.0 * (time.perf_counter() - started)
    lines = [
        f"algebra         {algebra!r}",
        f"signature       (p, q) = ({args.p}, {args.q})   "
        f"rank {report['rank']}, corank {report['corank']}",
        f"CR dimensions   crdim {report['crdim']}, crcodim {report['crcodim']}",
        f"Levi kernel     dim {report['levi_kernel_dim']}",
        f"nondegeneracy   order {report['nondegeneracy_order']}, "
        f"chain {report['chain_dims']}",
        f"minimal         {'yes' if report['minimal'] else 'no'}",
    ]
    if report["aut_germ_dim"] is not None:
        lines.append(f"aut germ dim    {report['aut_germ_dim']}")
        lines.append(f"aut1 dim        {report['aut1_dim']}")
    lines += [f"note            {note}" for note in report.get("notices", ())]
    lines.append(f"elapsed         {elapsed_ms:.1f} ms")
    return 0, report, lines


def cmd_spectral(args):
    algebra = _algebra_from_args(args)
    x = sz.element_from_json(algebra, _load_json_arg(args.element))
    data = sp.spectral_decompose(algebra, x)
    joint = sp.joint_peirce(algebra, data.frame) if args.projections else None
    lines = [f"algebra      {algebra!r}",
             "eigenvalues  " + ", ".join(_fmt(v) for v in data.eigenvalues)]
    lines += [f"e_{i + 1}          [" + ", ".join(_fmt(v) for v in row) + "]"
              for i, row in enumerate(data.frame)]
    if joint is not None:
        dims = ", ".join(f"V_{j + 1}{k + 1}:{d}"
                         for (j, k), d in sorted(joint.dims.items()))
        lines.append(f"block dims   {dims}")
    return 0, sz.spectral_to_json(algebra, data, joint), lines


def cmd_orbit(args):
    algebra = _algebra_from_args(args)
    x = sz.element_from_json(algebra, _load_json_arg(args.element))
    sd = sp.spectral_decompose(algebra, x)
    sig, support = sp._signature_and_support(sd)
    minors = sp._minors(sd.eigenvalues)
    report = {
        "descriptor": sz.descriptor_to_json(algebra),
        "p": sig.p,
        "q": sig.q,
        "minors": [float(v) for v in minors],
        "generic_norm": float(minors[-1]),
        "support": sz.element_to_json(support),
    }
    lines = [f"algebra       {algebra!r}",
             f"signature     (p, q) = ({sig.p}, {sig.q})",
             "minors        " + ", ".join(_fmt(v) for v in minors),
             f"generic norm  {_fmt(minors[-1])}"]
    return 0, report, lines


def cmd_nondegen(args):
    algebra = _algebra_from_args(args)
    orbit = tb.make_orbit(algebra, args.p, args.q)
    nd = tb.nondegeneracy_order(orbit)
    minimal = tb.minimality_check(orbit)
    report = {
        "descriptor": sz.descriptor_to_json(algebra),
        "signature": {"p": args.p, "q": args.q},
        "order": _order_label(nd),
        "chain_dims": nd.chain_dims,
        "finitely_nondegenerate": nd.finitely_nondegenerate,
        "minimal": minimal,
    }
    lines = [f"algebra   {algebra!r}",
             f"order     {report['order']}",
             f"chain     {nd.chain_dims}",
             f"minimal   {'yes' if minimal else 'no'}"]
    if nd.note:
        report["note"] = nd.note
        lines.append(f"note      {nd.note}")
    return 0, report, lines


def cmd_flow(args):
    try:
        v = np.asarray([float(t) for t in args.v.split(",")])
    except ValueError as exc:
        raise DimensionMismatch(f"cannot parse --v {args.v!r}") from exc
    c = _parse_complex_list(args.c)
    require_finite(np.concatenate([v, c, [args.t]]), "--v, --c or --t")
    if v.shape != c.shape:
        raise DimensionMismatch(
            f"--v has {v.size} entries but --c has {c.size}")
    family = args.family or "hermR"
    rank = args.rank if args.rank is not None else v.size
    algebra = al.make_algebra(family, rank=rank, peirce_constant=args.n)
    if rank != v.size:
        raise DimensionMismatch(
            f"rank {rank} does not match {v.size} flow coefficients")
    frame = al.standard_frame(algebra)
    coeffs = fl.diagonal_flow_coefficients(v, c, args.t)
    element = fl.diagonal_flow(algebra, frame, v, c, args.t)
    report = {
        "descriptor": sz.descriptor_to_json(algebra),
        "t": args.t,
        "coefficients": [sz.complex_pair(g) for g in coeffs],
        "element": sz.element_to_json(element),
    }
    lines = [f"g_{j + 1}({_fmt(args.t)}) = {_fmt_complex(g)}"
             for j, g in enumerate(coeffs)]
    return 0, report, lines


def cmd_siegel(args):
    if args.isotropy:
        if args.s is None or args.matrix is not None or args.z is not None:
            raise DimensionMismatch("--isotropy takes --s, not --matrix or --z")
        s = _parse_s_matrix(args.s)
        dim = dm.isotropy_dimension(s)
        r = s.shape[0]
        report = {
            "s": [sz.element_to_json(row) for row in s],
            "isotropy_dimension": dim,
            "sp_dim": r * (2 * r + 1),
        }
        return 0, report, [f"isotropy dimension  {dim}",
                           f"dim sp({r},R)        {r * (2 * r + 1)}"]
    if args.matrix is None or args.z is None or args.s is not None:
        raise DimensionMismatch(
            "siegel needs either --isotropy --s or --matrix with --z, not both")
    A = sz.matrix_from_json(_load_json_arg(args.matrix)).astype(float)
    z = sz.matrix_from_json(_load_json_arg(args.z), allow_complex=True)
    w = dm.siegel_action(A, z)
    report = {"result": [[sz.complex_pair(v) for v in row] for row in w]}
    return 0, report, ["  ".join(_fmt_complex(v) for v in row) for row in w]


def _add_common(sub, signature=False, element=False):
    sub.add_argument("--family", choices=list(al.FAMILIES))
    sub.add_argument("--rank", type=int)
    sub.add_argument("--n", type=int)
    if signature:
        sub.add_argument("--p", type=int, required=True)
        sub.add_argument("--q", type=int, required=True)
    if element:
        sub.add_argument("--element", required=True,
                         help="element coordinates: inline JSON or a file path")
    sub.add_argument("--json", action="store_true")


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand; built once and shared by all ``main`` calls."""
    parser = argparse.ArgumentParser(
        prog="conetube",
        description="Jordan-algebraic CR invariants of tube manifolds "
                    "over symmetric cone orbits")
    subs = parser.add_subparsers(dest="command", required=True)

    t = subs.add_parser("table", help="dimension table vs closed forms")
    _add_common(t)
    t.set_defaults(func=cmd_table)

    a = subs.add_parser("analyze", help="full CR invariant report of an orbit")
    _add_common(a, signature=True)
    a.set_defaults(func=cmd_analyze)

    s = subs.add_parser("spectral", help="spectral decomposition of an element")
    _add_common(s, element=True)
    s.add_argument("--projections", action="store_true",
                   help="include joint Peirce projections")
    s.set_defaults(func=cmd_spectral)

    o = subs.add_parser("orbit", help="orbit signature and generic minors")
    _add_common(o, element=True)
    o.set_defaults(func=cmd_orbit)

    nd = subs.add_parser("nondegen", help="nondegeneracy order and minimality")
    _add_common(nd, signature=True)
    nd.set_defaults(func=cmd_nondegen)

    f = subs.add_parser("flow", help="closed-form diagonal flow of iP(z)w")
    _add_common(f)
    f.add_argument("--v", required=True, help="rate coefficients, e.g. '1,0.5'")
    f.add_argument("--c", required=True,
                   help="start coefficients, e.g. 'i,1+2i'")
    f.add_argument("--t", type=float, default=1.0)
    f.set_defaults(func=cmd_flow)

    g = subs.add_parser("siegel", help="Siegel half-space action / isotropy")
    g.add_argument("--isotropy", action="store_true")
    g.add_argument("--s", help="cone boundary point, 'diag(…)' or JSON matrix")
    g.add_argument("--matrix", help="symplectic matrix, inline JSON or file")
    g.add_argument("--z", help="Siegel point, JSON matrix of [re,im] pairs")
    g.add_argument("--json", action="store_true")
    g.set_defaults(func=cmd_siegel)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code, report, lines = args.func(args)
        if args.json:
            print(sz.dumps_canonical(report))
        else:
            for line in lines:
                print(line)
        return code
    except (InputError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"input error: too large for memory: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
