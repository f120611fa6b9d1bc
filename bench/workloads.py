"""Inputs, operations and output checks of the three benchmark workloads.

desk_analyze        one op = one `conetube analyze --json` call through
                    `cli.main` for one orbit of `algebra.desk_algebras()`.
orbit_census        one op = one `spectral.orbit_signature` call on a
                    transported element of known signature.
large_rank_analyze  the desk_analyze op on Hermitian algebras above the desk.

Every output is checked against closed forms written out here, not against
a stored copy of an earlier output. `failed` tells a typed ConetubeError
(exit code 2 or 3 from the CLI) from an answer; `check` returns what is
wrong with an answer, or None.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from conetube import algebra as al
from conetube import cli
from conetube import fields as fl
from conetube import spectral as sp
from conetube.errors import ConetubeError

LARGE_RANK = (("hermR", 6), ("hermR", 7), ("hermC", 6), ("hermH", 4))

# orbit_census: elements per signature per round, and the transport margin.
# y is scaled so that every eigenvalue of y has magnitude at most 1/2, hence
# g = e + y has spectrum in [1/2, 3/2] and P(g) maps each orbit onto itself.
CENSUS_SAMPLES = 8
TRANSPORT_MARGIN = 0.5
LAMBDA_RANGE = (0.5, 2.0)

# Rank-one albert elements hit a fault of the characteristic-root route on
# about 1% of inputs, so their inputs do not depend on --seed: each round
# uses the same fixed stream. FIXED_STREAM indices 0..CENSUS_SAMPLES-1 pass;
# the indices below fail every time and are counted as failed ops. They
# are the only inputs of any workload on which an op may fail.
FIXED_STREAM = 0xA1BE
ALBERT_KNOWN_FAILURES = ((1, 0, 146), (0, 1, 35), (0, 1, 556))


@dataclass(frozen=True)
class Op:
    """One timed operation: `argv` for analyze ops, `element` for census ops.

    `may_fail` marks an input that hits a known fault of the program.
    """

    label: str
    algebra: al.AlgebraDescriptor
    p: int
    q: int
    argv: tuple = ()
    element: np.ndarray | None = None
    may_fail: bool = False


def algebras(workload: str) -> list[al.AlgebraDescriptor]:
    if workload == "large_rank_analyze":
        return [al.make_algebra(family, rank) for family, rank in LARGE_RANK]
    return al.desk_algebras()


def setup(workload: str) -> None:
    """Build the tables the workload's algebras need (timed as setup_s)."""
    for algebra in algebras(workload):
        al.multiplication_table(algebra)
        al.trace_gram(algebra)
        if workload != "orbit_census":
            fl.dim_table(algebra)


def signatures(algebra: al.AlgebraDescriptor) -> list[tuple[int, int]]:
    r = algebra.rank
    return [(p, q) for p in range(r + 1) for q in range(r + 1 - p)]


def _label(algebra, p, q) -> str:
    size = f"n={algebra.peirce_constant}" if algebra.family == "spin" else f"r={algebra.rank}"
    return f"{algebra.family} {size} ({p},{q})"


def analyze_argv(algebra, p, q) -> tuple:
    argv = ["analyze", "--family", algebra.family]
    if algebra.family == "spin":
        argv += ["--n", str(algebra.peirce_constant)]
    elif algebra.family != "albert":
        argv += ["--rank", str(algebra.rank)]
    return tuple(argv + ["--p", str(p), "--q", str(q), "--json"])


def transported_element(algebra, p, q, rng) -> np.ndarray:
    """P(g)·Σ λ_j c_j with p positive and q negative λ_j, |λ_j| in LAMBDA_RANGE."""
    r = algebra.rank
    lam = np.zeros(r)
    mags = rng.uniform(*LAMBDA_RANGE, size=r)
    slots = rng.permutation(r)
    lam[slots[:p]] = mags[:p]
    lam[slots[p:p + q]] = -mags[p:p + q]
    x0 = lam @ al.standard_frame(algebra)
    y = rng.standard_normal(algebra.dim)
    # (y|y) = (dim/rank) Σ μ_i², so this bounds every |μ_i| by the margin
    y *= TRANSPORT_MARGIN / math.sqrt(
        float(y @ al.trace_gram(algebra) @ y) * r / algebra.dim)
    g = al.unit(algebra) + y
    return al.pquad(algebra, g) @ x0


def _albert_fixed(algebra, p, q, index, may_fail=False) -> Op:
    rng = np.random.default_rng([FIXED_STREAM, p, q, index])
    return Op(f"albert ({p},{q}) fixed#{index}", algebra, p, q,
              element=transported_element(algebra, p, q, rng), may_fail=may_fail)


def census_ops(seed: int) -> list[Op]:
    rng = np.random.default_rng(seed)
    ops = []
    for algebra in al.desk_algebras():
        for p, q in signatures(algebra):
            for k in range(CENSUS_SAMPLES):
                if algebra.family == "albert" and p + q == 1:
                    ops.append(_albert_fixed(algebra, p, q, k))
                else:
                    ops.append(Op(f"{_label(algebra, p, q)} #{k}", algebra, p, q,
                                  element=transported_element(algebra, p, q, rng)))
    albert = al.make_algebra("albert")
    ops += [_albert_fixed(albert, p, q, i, may_fail=True)
            for p, q, i in ALBERT_KNOWN_FAILURES]
    return ops


def analyze_ops(workload: str, seed: int) -> list[Op]:
    """Every orbit of the workload's algebras, in an order drawn from the seed."""
    ops = [Op(_label(a, p, q), a, p, q, argv=analyze_argv(a, p, q))
           for a in algebras(workload) for p, q in signatures(a)]
    order = np.random.default_rng(seed).permutation(len(ops))
    return [ops[i] for i in order]


def make_ops(workload: str, seed: int) -> list[Op]:
    if workload == "orbit_census":
        return census_ops(seed)
    return analyze_ops(workload, seed)


# ---------------------------------------------------------------------------
# running one op


def run_op(op: Op):
    """Run one op; returns (exit code, stdout, stderr) or a census outcome."""
    if op.element is None:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(op.argv))
        return code, out.getvalue(), err.getvalue()
    try:
        return sp.orbit_signature(op.algebra, op.element)
    except ConetubeError as exc:
        return exc


# ---------------------------------------------------------------------------
# closed forms and checks


def dim_v(algebra) -> int:
    r, n = algebra.rank, algebra.peirce_constant
    return r + math.comb(r, 2) * n


def dim_der(algebra) -> int:
    """der(V): so(n+1), so(r), su(r), sp(r) or f4."""
    r, n = algebra.rank, algebra.peirce_constant
    return {
        "spin": (n + 1) * n // 2,
        "hermR": r * (r - 1) // 2,
        "hermC": r * r - 1,
        "hermH": r * (2 * r + 1),
        "albert": 52,
    }[algebra.family]


def expected_report(algebra, p, q) -> dict:
    """Every field of the analyze report that the paper fixes in closed form."""
    r, n = algebra.rank, algebra.peirce_constant
    rho, rho_p = p + q, r - p - q
    crdim = rho + math.comb(rho, 2) * n + rho * rho_p * n
    crcodim = rho_p + math.comb(rho_p, 2) * n
    kernel = rho + math.comb(rho, 2) * n
    gl = dim_v(algebra) + dim_der(algebra)
    want = {
        "descriptor": {"family": algebra.family, "rank": r, "n": n},
        "signature": {"p": p, "q": q},
        "rank": rho,
        "corank": rho_p,
        "crdim": crdim,
        "crcodim": crcodim,
        "levi_kernel_dim": kernel,
        "dim_table": {"dim_der": dim_der(algebra), "dim_sl_omega": gl - 1,
                      "dim_aut_H": 2 * dim_v(algebra) + gl, "dim_sl_D": gl - 1},
    }
    if rho == 0:
        want.update(nondegeneracy_order=0, chain_dims=[0], minimal=False,
                    aut_germ_dim=None, aut1_dim=None)
    elif rho < r:
        want.update(nondegeneracy_order=2, chain_dims=[crdim, kernel, 0],
                    minimal=True, aut_germ_dim=gl + crcodim, aut1_dim=crcodim)
    else:
        want.update(nondegeneracy_order="NotFinitelyNondegenerate",
                    chain_dims=[dim_v(algebra)] * 2, minimal=True,
                    aut_germ_dim=None, aut1_dim=None)
    return want


def _refuse_constant(token):
    raise ValueError(f"non-finite number {token}")


def failed(op: Op, outcome) -> bool:
    """Whether the op ended in a typed ConetubeError instead of an answer."""
    if op.element is not None:
        return isinstance(outcome, ConetubeError)
    return outcome[0] in (2, 3)


def failure_text(outcome) -> str:
    if isinstance(outcome, ConetubeError):
        return f"{type(outcome).__name__}: {outcome}"
    code, _, err = outcome
    return f"exit {code}: {err.strip()}"


def check(op: Op, outcome) -> str | None:
    """What is wrong with the answer of an op that did not fail, or None."""
    if op.element is not None:
        got = tuple(outcome)
        if got != (op.p, op.q) or not all(type(v) is int for v in got):
            return f"{op.label}: signature {got}, built as ({op.p}, {op.q})"
        return None
    code, text, _ = outcome
    if code != 0:
        return f"{op.label}: exit code {code}"
    try:
        report = json.loads(text, parse_constant=_refuse_constant)
    except ValueError as exc:
        return f"{op.label}: output is not strict JSON ({exc})"
    for key, value in expected_report(op.algebra, op.p, op.q).items():
        # compare as JSON so that true and 1, or 2 and 2.0, stay distinct
        if json.dumps(report.get(key), sort_keys=True) != json.dumps(value, sort_keys=True):
            return f"{op.label}: {key} = {report.get(key)!r}, expected {value!r}"
    return None
