"""Tube CR invariants: Levi form, kernel chain, minimality, germ dimensions.

The two bracket oracles below pin the analytic meaning of levi_form and
beta_map. The sections xi^v(z) = Re(z)∘v span the holomorphic tangent
distribution near the base point, and eta^w(z) = ¼ P(z+z̄)w generates the
second kernel step; both brackets are evaluated exactly (the sections are
polynomial in z), so the comparisons run at 1e-9.
"""

import dataclasses
import math

import numpy as np
import pytest

import conetube as ct
from conetube import algebra as al
from conetube import spectral as sp
from conetube import tube as tb

ORACLE_TOL = 1e-9
N_PAIRS = 100

DESK = ct.desk_algebras()
LARGE_RANK = [ct.make_algebra(family, rank=r)
              for family, r in (("hermR", 6), ("hermR", 7), ("hermC", 6), ("hermH", 4))]


def _degenerate_orbits(A):
    return [(p, q) for p in range(A.rank + 1) for q in range(A.rank + 1 - p)
            if 0 < p + q < A.rank]


def _all_orbits(A):
    return [(p, q) for p in range(A.rank + 1) for q in range(A.rank + 1 - p)]


def _rand_section(orbit, rng, basis):
    coeff = rng.standard_normal(basis.shape[0]) \
        + 1j * rng.standard_normal(basis.shape[0])
    return coeff @ basis


def test_condition_star():
    assert sp.condition_star_holds(np.array([1.0, 2.0, -1.5]))
    assert not sp.condition_star_holds(np.array([1.0, -1.0, 2.0]))
    assert sp.condition_star_holds(np.array([1.0, 0.0, 0.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_condition_star_rejects_non_finite(bad):
    with pytest.raises(ct.NonFiniteInput):
        sp.condition_star_holds([bad, 1.0])


def _poisoned(arr, bad):
    arr = np.array(arr, dtype=complex if np.iscomplexobj(arr) else float)
    arr.flat[0] = bad
    return arr


_A3 = ct.make_algebra("hermR", rank=3)
_ORB11 = tb.make_orbit(_A3, 1, 1)
_ENTRY_POINTS = {
    "jordan_inverse": lambda bad: ct.jordan_inverse(_A3, _poisoned(ct.unit(_A3), bad)),
    "cayley": lambda bad: ct.cayley(_A3, _poisoned(ct.unit(_A3), bad)),
    "inverse_cayley": lambda bad: ct.inverse_cayley(_A3, _poisoned(np.zeros(_A3.dim), bad)),
    "siegel-A": lambda bad: ct.siegel_action(_poisoned(ct.symplectic_form(2), bad),
                                             1j * np.eye(2)),
    "siegel-z": lambda bad: ct.siegel_action(ct.symplectic_form(2),
                                             _poisoned(1j * np.eye(2), bad)),
    "peirce_projections": lambda bad: ct.peirce_projections(
        _A3, _poisoned(ct.standard_frame(_A3)[0], bad)),
    "joint_peirce": lambda bad: ct.joint_peirce(_A3, _poisoned(ct.standard_frame(_A3), bad)),
    "levi_form": lambda bad: ct.levi_form(_ORB11, _ORB11.basis_h[0],
                                          _poisoned(_ORB11.basis_h[1], bad)),
    "beta_map": lambda bad: ct.beta_map(_ORB11, _poisoned(_ORB11.basis_half[0], bad),
                                        _ORB11.basis_e1[0]),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("name", list(_ENTRY_POINTS))
def test_entry_points_refuse_non_finite(name, bad):
    # a NaN passes every tolerance test, so each must refuse it up front
    with pytest.raises(ct.NonFiniteInput, match="NaN or infinite"):
        _ENTRY_POINTS[name](bad)


def test_levi_form_and_beta_map_match_dense_reference(dense_blocks):
    # coordinates on the orbit's rows against the dense formulas of a fresh
    # joint_peirce, on every degenerate desk and large-rank orbit; an input
    # is refused iff the dense projector of its block moves it
    rng = np.random.default_rng(233)
    for A in DESK + LARGE_RANK:
        for (p, q) in _degenerate_orbits(A):
            orb = ct.make_orbit(A, p, q)
            pi_e1, pi_half, pi_e0, linv_h, pinv_e1 = dense_blocks(A, orb)
            for _ in range(3):
                v, w = (_rand_section(orb, rng, orb.basis_h) for _ in range(2))
                want = pi_e0 @ ct.jordan_product(A, np.conj(v), linv_h @ w)
                np.testing.assert_allclose(ct.levi_form(orb, v, w), want, rtol=0,
                                           atol=1e-12 * np.abs(want).max())
                v = _rand_section(orb, rng, orb.basis_half)
                u = _rand_section(orb, rng, orb.basis_e1)
                want = ct.pquad(A, orb.base_point, np.conj(v)) @ (pinv_e1 @ u)
                np.testing.assert_allclose(ct.beta_map(orb, v, u), want, rtol=0,
                                           atol=1e-12 * np.abs(want).max())
            h, half, e1 = orb.basis_h[0], orb.basis_half[0], orb.basis_e1[0]
            checks = ((pi_e1 + pi_half, lambda x: ct.levi_form(orb, x, h),
                       ct.NotInHolomorphicTangent),
                      (pi_e1 + pi_half, lambda x: ct.levi_form(orb, h, x),
                       ct.NotInHolomorphicTangent),
                      (pi_half, lambda x: ct.beta_map(orb, x, e1), ct.BlockViolation),
                      (pi_e1, lambda x: ct.beta_map(orb, half, x), ct.BlockViolation))
            for x in (e1, half, orb.basis_e0[0], rng.standard_normal(A.dim)):
                for proj, call, error in checks:
                    if np.linalg.norm(x - proj @ x) \
                            > tb.MEMBERSHIP_TOL * max(1.0, np.linalg.norm(x)):
                        with pytest.raises(error):
                            call(x)
                    else:
                        call(x)


def test_cached_standard_projections_are_read_only():
    # the rows are read off the coordinate layout of algebra.py; the dense
    # joint_peirce stays their reference, so a change to that layout fails here
    for A in DESK + LARGE_RANK + [ct.make_algebra(f, rank=1)
                                  for f in ("hermR", "hermC", "hermH")]:
        blocks = al.peirce_blocks(A)
        pairs, sizes, rows, row_pair = blocks.pairs, blocks.sizes, blocks.rows, blocks.row_block
        for arr in blocks:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr.flat[0] = 1
        m = math.comb(A.rank + 1, 2)
        assert pairs.shape == (m, 2) and sizes.shape == (m,)
        assert rows.shape == (A.dim, A.dim) and row_pair.shape == (A.dim,)
        joint = sp.joint_peirce(A, al.standard_frame(A))
        assert [tuple(pair) for pair in pairs.tolist()] == list(joint.projections), A
        assert sizes.tolist() == list(joint.dims.values())
        # the per-pair rows: trace-orthonormal, as many per pair as the
        # block's dimension, each in the range of its π_jk
        G = ct.trace_gram(A)
        np.testing.assert_allclose(rows @ G @ rows.T, np.eye(A.dim), atol=1e-12,
                                   err_msg=repr(A))
        assert np.bincount(row_pair, minlength=m).tolist() == list(joint.dims.values())
        stack = np.array(list(joint.projections.values()))
        np.testing.assert_allclose(np.einsum("aij,aj->ai", stack[row_pair], rows), rows,
                                   atol=1e-12, err_msg=repr(A))
        # what make_orbit stores is its own, and read-only
        orb = ct.make_orbit(A, *_all_orbits(A)[1])
        for arr in (orb.base_point, orb.frame, orb.eigenvalues, orb.basis_h,
                    orb.basis_e1, orb.basis_half, orb.basis_e0):
            assert not arr.flags.writeable
            assert not any(np.shares_memory(arr, cached) for cached in blocks)


def _condition_star_pair_loop(lam):
    """condition_star_holds as a loop over the pairs j <= k."""
    cut = 1e-10 * max([1.0] + [abs(v) for v in lam])
    for j in range(len(lam)):
        for k in range(j, len(lam)):
            if abs(lam[j] + lam[k]) <= cut and max(abs(lam[j]), abs(lam[k])) > cut:
                return False
    return True


def test_condition_star_matches_pair_loop():
    rng = np.random.default_rng(151)
    verdicts = set()
    for _ in range(2000):
        r = int(rng.integers(0, 8))
        scale = 10.0 ** rng.integers(-3, 6)
        lam = scale * rng.uniform(-1.0, 1.0, size=r)
        lam[rng.random(r) < 0.2] = 0.0
        if r >= 2:
            # a pair that nearly cancels, just inside or outside the cut
            j, k = rng.choice(r, size=2, replace=False)
            cut = 1e-10 * max(1.0, float(np.max(np.abs(lam))))
            lam[k] = -lam[j] + rng.choice([-1.5, -0.5, 0.0, 0.5, 1.5]) * cut
        want = _condition_star_pair_loop(lam.tolist())
        assert sp.condition_star_holds(lam) == want, lam
        verdicts.add(want)
    assert verdicts == {True, False}


def test_base_point_eigenvalues():
    # positive entries 1..p, negative entries -(p+3/2), -(p+5/2), ...
    A = ct.make_algebra("hermR", rank=5)
    orb = ct.make_orbit(A, 2, 2)
    lam = np.sort(orb.eigenvalues)[::-1]
    np.testing.assert_allclose(lam[:2], [2.0, 1.0])
    assert abs(lam[2]) < 1e-12
    np.testing.assert_allclose(lam[3:], [-3.5, -4.5])
    assert sp.condition_star_holds(orb.eigenvalues)


def test_cr_dimension_formulas():
    for A in DESK:
        n = A.peirce_constant
        for (p, q) in _all_orbits(A):
            rho = p + q
            rho_p = A.rank - rho
            dims = ct.cr_dimensions(A, p, q)
            assert dims["crdim"] == rho + math.comb(rho, 2) * n \
                + rho * rho_p * n
            assert dims["crcodim"] == rho_p + math.comb(rho_p, 2) * n
            assert dims["levi_kernel_dim"] == rho + math.comb(rho, 2) * n


def test_orbit_subspace_dims():
    for A in DESK + LARGE_RANK:
        for (p, q) in _all_orbits(A):
            orb = ct.make_orbit(A, p, q)
            dims = ct.cr_dimensions(A, p, q)
            assert orb.basis_h.shape[0] == dims["crdim"]
            assert orb.basis_e0.shape[0] == dims["crcodim"]
            assert orb.basis_e1.shape[0] == dims["levi_kernel_dim"]
            total = orb.basis_e1.shape[0] + orb.basis_half.shape[0] \
                + orb.basis_e0.shape[0]
            assert total == A.dim


def test_orbit_basis_orthonormal(dense_blocks):
    # rows are orthonormal for the trace form and lie in their blocks
    for A in DESK + LARGE_RANK:
        G = ct.trace_gram(A)
        for (p, q) in _all_orbits(A):
            orb = ct.make_orbit(A, p, q)
            pi_e1, pi_half, pi_e0 = dense_blocks(A, orb)[:3]
            for basis, proj in ((orb.basis_e1, pi_e1),
                                (orb.basis_half, pi_half),
                                (orb.basis_e0, pi_e0)):
                if basis.shape[0] == 0:
                    continue
                gram = basis @ G @ basis.T
                np.testing.assert_allclose(gram, np.eye(basis.shape[0]),
                                           atol=1e-10)
                np.testing.assert_allclose(basis @ proj.T, basis, atol=1e-8)


def test_base_point_has_its_signature_and_condition_star():
    # make_orbit checks neither per call: both hold by construction
    for A in DESK + LARGE_RANK:
        for (p, q) in _all_orbits(A):
            orb = ct.make_orbit(A, p, q)
            assert sp.condition_star_holds(orb.eigenvalues)
            if p + q:
                sig = sp.orbit_signature(A, orb.base_point)
                assert (sig.p, sig.q) == (p, q)


def test_invalid_signature():
    A = ct.make_algebra("hermR", rank=2)
    with pytest.raises(ct.InvalidSignature):
        ct.make_orbit(A, 2, 1)
    with pytest.raises(ct.InvalidSignature):
        ct.aut_germ_dimension(A, 2, 0)
    with pytest.raises(ct.InvalidSignature):
        ct.aut_germ_dimension(A, 0, 0)
    with pytest.raises(ct.InvalidSignature):
        ct.aut_germ_dimension(A, -1, 2)  # 0 < p + q < rank, but p < 0


def test_levi_form_bracket_oracle(dense_blocks):
    # Levi form == transverse part of the section bracket at the base point
    rng = np.random.default_rng(211)
    for A in DESK:
        for (p, q) in _degenerate_orbits(A)[:3]:
            orb = ct.make_orbit(A, p, q)
            a = orb.base_point
            _, _, pi_e0, linv_h, _ = dense_blocks(A, orb)
            pairs = N_PAIRS // 10 if A.dim > 15 else N_PAIRS
            for _ in range(pairs):
                v = _rand_section(orb, rng, orb.basis_h)
                w = _rand_section(orb, rng, orb.basis_h)
                lv, lw = linv_h @ v, linv_h @ w
                b1 = ct.jordan_product(A, ct.jordan_product(A, a, lv.real), lw) \
                    - ct.jordan_product(A, ct.jordan_product(A, a, lw.real), lv)
                b2 = ct.jordan_product(A, ct.jordan_product(A, a, (1j * lv).real), lw) \
                    - ct.jordan_product(A, ct.jordan_product(A, a, lw.real), 1j * lv)
                bracket_val = pi_e0 @ (b1 + 1j * b2)
                assert np.max(np.abs(bracket_val - ct.levi_form(orb, v, w))) \
                    < ORACLE_TOL


def test_levi_form_hermitian_symmetry():
    rng = np.random.default_rng(223)
    A = ct.make_algebra("hermC", rank=3)
    orb = ct.make_orbit(A, 1, 1)
    for _ in range(20):
        v = _rand_section(orb, rng, orb.basis_h)
        w = _rand_section(orb, rng, orb.basis_h)
        lhs = ct.levi_form(orb, v, w)
        rhs = np.conj(ct.levi_form(orb, w, v))
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_levi_form_vanishes_on_e1():
    rng = np.random.default_rng(227)
    for A in (ct.make_algebra("hermR", rank=3),
              ct.make_algebra("spin", peirce_constant=5)):
        for (p, q) in _degenerate_orbits(A)[:2]:
            orb = ct.make_orbit(A, p, q)
            if orb.basis_e1.shape[0] == 0:
                continue
            u = _rand_section(orb, rng, orb.basis_e1)
            v = _rand_section(orb, rng, orb.basis_h)
            np.testing.assert_allclose(ct.levi_form(orb, u, v), 0.0,
                                       atol=1e-10)
            np.testing.assert_allclose(ct.levi_form(orb, v, u), 0.0,
                                       atol=1e-10)


def test_levi_form_rejects_bad_input(dense_blocks):
    A = ct.make_algebra("hermR", rank=2)
    orb = ct.make_orbit(A, 1, 0)
    pi_e1, pi_half = dense_blocks(A, orb)[:2]
    outside = ct.unit(A) - pi_e1 @ ct.unit(A) - pi_half @ ct.unit(A)
    if np.max(np.abs(outside)) > 1e-9:
        with pytest.raises(ct.NotInHolomorphicTangent):
            ct.levi_form(orb, outside.astype(complex), orb.basis_h[0])


def test_levi_kernel_dimension():
    for A in DESK:
        n = A.peirce_constant
        for (p, q) in _degenerate_orbits(A):
            orb = ct.make_orbit(A, p, q)
            kernel = ct.levi_kernel(orb)
            rho = p + q
            assert kernel.shape[0] == rho + math.comb(rho, 2) * n
            # kernel members annihilate the Levi form against all of H
            if kernel.shape[0]:
                v = kernel[0]
                for h in orb.basis_h[:5]:
                    assert np.max(np.abs(ct.levi_form(orb, v, h))) < 1e-8


def test_beta_map_bracket_oracle():
    # beta(a∘v, P(a)w) equals the antiholomorphic part of [xi^v, eta^w]
    rng = np.random.default_rng(229)
    for A in DESK:
        for (p, q) in _degenerate_orbits(A)[:3]:
            orb = ct.make_orbit(A, p, q)
            if orb.basis_half.shape[0] == 0 or orb.basis_e1.shape[0] == 0:
                continue
            a = orb.base_point
            for _ in range(10):
                v = _rand_section(orb, rng, orb.basis_half)
                w = (_rand_section(orb, rng, orb.basis_e1)).real

                def xi_eta_bracket(vv):
                    # [xi^v, eta^w] at a for polynomial sections, exact
                    term1 = ct.pquad(
                        A, a, ct.jordan_product(A, a, vv + np.conj(vv))) @ w
                    term2 = ct.jordan_product(A, ct.pquad(A, a) @ w, vv)
                    return term1 - term2

                t_v = xi_eta_bracket(v)
                t_iv = xi_eta_bracket(1j * v)
                anti = 0.5 * (t_v + 1j * t_iv)
                direct = ct.beta_map(orb, ct.jordan_product(A, a, v),
                                     ct.pquad(A, a) @ w)
                assert np.max(np.abs(anti - direct)) < ORACLE_TOL


def test_beta_map_rejects_blocks():
    A = ct.make_algebra("hermC", rank=3)
    orb = ct.make_orbit(A, 1, 1)
    v_half = orb.basis_half[0]
    u_e1 = orb.basis_e1[0]
    with pytest.raises(ct.BlockViolation):
        ct.beta_map(orb, u_e1, u_e1)
    with pytest.raises(ct.BlockViolation):
        ct.beta_map(orb, v_half, v_half)


# one degenerate orbit per family first; past spin (rank 2, so ρ = 1) each has
# a Levi kernel of dimension > 1, so the β matrix has more than one column.
# Then the other 83 degenerate desk orbits and a seeded 10 of the 76 above it.
BATCHED_ORBITS = [
    (ct.make_algebra("spin", peirce_constant=4), (1, 0)),
    (ct.make_algebra("hermR", rank=3), (1, 1)),
    (ct.make_algebra("hermC", rank=3), (2, 0)),
    (ct.make_algebra("hermH", rank=3), (1, 1)),
    (ct.make_algebra("albert"), (0, 2)),
]
BATCHED_ORBITS += [(A, sig) for A in DESK for sig in _degenerate_orbits(A)
                   if (A, sig) not in BATCHED_ORBITS]
_LARGE_DEGENERATE = [(A, sig) for A in LARGE_RANK for sig in _degenerate_orbits(A)]
BATCHED_ORBITS += [_LARGE_DEGENERATE[i] for i in sorted(np.random.default_rng(401).choice(
    len(_LARGE_DEGENERATE), size=10, replace=False))]


def _first_of_each_family():
    first = {}
    for A in DESK:
        first.setdefault(A.family, A)
    assert len(first) == 5
    return list(first.values())


@pytest.mark.parametrize("spec, sig", BATCHED_ORBITS)
def test_batched_matrices_match_per_pair_oracles(spec, sig):
    # the chain read off the block graph against the nullities of the Levi
    # and β matrices built pair by pair from levi_form and beta_map
    orb = ct.make_orbit(spec, *sig)
    basis_h, half = orb.basis_h, orb.basis_half
    coord = orb.basis_e0 @ ct.trace_gram(orb.algebra)
    levi_ref = np.array([
        np.concatenate([coord @ ct.levi_form(orb, vi, wj) for vi in basis_h])
        for wj in basis_h]).T
    rank, vh = al.numeric_rank(levi_ref)
    kernel = vh.conj()[rank:] @ basis_h
    beta_ref = np.array([
        np.concatenate([ct.beta_map(orb, vi, uj) for vi in half])
        for uj in kernel]).T
    beta_nullity = kernel.shape[0] - al.numeric_rank(beta_ref)[0]
    assert ct.nondegeneracy_order(orb).chain_dims \
        == [basis_h.shape[0], kernel.shape[0], beta_nullity]
    # levi_kernel's rows span the same space as the numeric nullspace
    rows = ct.levi_kernel(orb)
    assert rows.shape[0] == kernel.shape[0] == al.numeric_rank(np.vstack([kernel, rows]))[0]


def test_peirce_structure_is_read_only_and_symmetric():
    for A in DESK + LARGE_RANK:
        g = al.peirce_blocks(A).graph
        m = math.comb(A.rank + 1, 2)
        assert g.shape == (m, m, m) and g.dtype == bool
        assert al.peirce_blocks(A).graph is g  # once per algebra
        assert not g.flags.writeable
        with pytest.raises(ValueError):
            g.flat[0] = True
        for axes in ((1, 0, 2), (0, 2, 1), (2, 1, 0), (1, 2, 0), (2, 0, 1)):
            assert np.array_equal(g, g.transpose(axes)), (A, axes)


def test_peirce_structure_matches_trace_form_of_products():
    # the graph is the block norms of (r_a ∘ r_b | r_c), cut at RANK_REL_CUT
    # times the largest, with kept norms >= 0.35 and dropped <= 1.4e-16 of it
    for A in _first_of_each_family():
        table = al.peirce_blocks(A)
        pairs, rows, row_pair = table.pairs, table.rows, table.row_block
        t = np.array([[[ct.trace_form(A, ct.jordan_product(A, ra, rb), rc)
                        for rc in rows] for rb in rows] for ra in rows])
        blocks = [row_pair == i for i in range(len(pairs))]
        norm = np.array([[[np.linalg.norm(t[np.ix_(x, y, z)]) for z in blocks]
                          for y in blocks] for x in blocks])
        norm /= norm.max()
        g = table.graph
        np.testing.assert_array_equal(g, norm > al.RANK_REL_CUT, err_msg=repr(A))
        assert norm[g].min() >= 0.35 and norm[~g].max(initial=0.0) <= 1.4e-16, A


def _peirce_rule(x, y, z):
    """Does V_x ∘ V_y meet V_z, from the pair indices alone?

    True iff the three blocks are {V_ij, V_jk, V_ik} (i, j, k distinct),
    {V_ij, V_ij, V_ii} (i ≠ j) or {V_ii, V_ii, V_ii}.
    """
    diag = [b for b in (x, y, z) if b[0] == b[1]]
    off = [b for b in (x, y, z) if b[0] != b[1]]
    if len(diag) == 3:
        return x == y == z
    if len(diag) == 1:
        return off[0] == off[1] and diag[0][0] in off[0]
    return not diag and len({*x, *y, *z}) == 3 and len({x, y, z}) == 3


def test_block_graph_is_the_peirce_rule_graph():
    # spin n=1 is on the desk
    for A in DESK + LARGE_RANK + [ct.make_algebra(f, rank=1)
                                  for f in ("hermR", "hermC", "hermH")]:
        blocks = al.peirce_blocks(A)
        pairs = [tuple(pair) for pair in blocks.pairs.tolist()]
        want = np.array([[[_peirce_rule(x, y, z) for z in pairs] for y in pairs]
                         for x in pairs])
        np.testing.assert_array_equal(blocks.graph, want, err_msg=repr(A))


def test_orbits_refuse_assignment_and_in_place_writes():
    # the orbit's bases are the Peirce rows its blocks are read from, so no
    # orbit may be edited after make_orbit: not a field, not an array entry
    for A in _first_of_each_family():
        orb = ct.make_orbit(A, *_degenerate_orbits(A)[0])
        arrays = []
        for f in dataclasses.fields(orb):
            value = getattr(orb, f.name)
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(orb, f.name, value)
            if isinstance(value, np.ndarray):
                arrays.append(f.name)
                with pytest.raises(ValueError):
                    value[...] = 0
        assert arrays == ["base_point", "eigenvalues", "frame", "basis_h", "basis_e1",
                          "basis_half", "basis_e0"]
        # no dense operator is held on an orbit, as a field or otherwise
        for name in ("_dense_blocks", "pi_e1", "pi_half", "pi_e0", "linv_h", "pinv_e1"):
            assert not hasattr(orb, name), name


def test_batched_checks_reject_rows_outside_their_block(monkeypatch):
    # a graph that cuts every link of one E_1/2 block leaves it in the Levi
    # kernel, which the Peirce rules forbid
    spec, (p, q) = BATCHED_ORBITS[1]
    orb = ct.make_orbit(spec, p, q)
    blocks = al.peirce_blocks(spec)
    y = int(np.flatnonzero(tb._pair_class(spec, p, q) == 1)[0])
    g = blocks.graph.copy()
    g[y], g[:, y], g[:, :, y] = False, False, False
    monkeypatch.setattr(al, "peirce_blocks", lambda algebra: blocks._replace(graph=g))
    j, k = blocks.pairs[y]
    for verdict in (ct.levi_kernel, ct.nondegeneracy_order):
        with pytest.raises(ct.NumericalFailure, match=f"V_{j}{k} has no Levi link"):
            verdict(orb)


def test_nondegeneracy_order_two_everywhere():
    for A in DESK:
        for (p, q) in _degenerate_orbits(A):
            orb = ct.make_orbit(A, p, q)
            res = ct.nondegeneracy_order(orb)
            assert res.finitely_nondegenerate
            assert res.order == 2
            assert res.chain_dims[-1] == 0
            assert all(a > b for a, b in zip(res.chain_dims,
                                             res.chain_dims[1:]))


def test_nondegeneracy_light_cone_chain():
    # boundary of the 3-dim light cone: chain 2 > 1 > 0
    A = ct.make_algebra("hermR", rank=2)
    orb = ct.make_orbit(A, 1, 0)
    res = ct.nondegeneracy_order(orb)
    assert res.chain_dims == [2, 1, 0]
    assert res.order == 2


def test_nondegeneracy_edge_conventions():
    A = ct.make_algebra("hermR", rank=3)
    res0 = ct.nondegeneracy_order(ct.make_orbit(A, 0, 0))
    assert res0.order == 0
    assert res0.note is not None
    res_open = ct.nondegeneracy_order(ct.make_orbit(A, 2, 1))
    assert res_open.order is None
    assert not res_open.finitely_nondegenerate
    assert "convention" in res_open.note


def test_minimality():
    above_desk = [ct.make_algebra("hermR", rank=6), ct.make_algebra("hermH", rank=4)]
    for A in DESK + above_desk:
        for (p, q) in _all_orbits(A):
            orb = ct.make_orbit(A, p, q)
            assert ct.minimality_check(orbit=orb) is (p + q > 0)


def _field_bracket(phi1, phi2):
    """Bracket of the fields z ↦ Φ Re z; exact, both are linear in Re z."""
    return phi2 @ phi1.real - phi1 @ phi2.real


@pytest.mark.parametrize("family, rank, sig", [
    ("hermR", 2, (1, 0)), ("hermC", 3, (1, 1)), ("albert", 3, (1, 0))])
def test_minimality_span_matches_explicit_brackets(family, rank, sig):
    # Values at a of generators L(x) + iL(y) and of their depth-1 and
    # depth-2 brackets, at random x, y: a multilinear map's values at
    # generic points span its image. They must span gl(Ω)·a ⊕ i·V.
    A = ct.make_algebra(family, rank=rank)
    orb = ct.make_orbit(A, *sig)
    a, d = orb.base_point, A.dim
    rng = np.random.default_rng(331)

    def generator():
        x, y = rng.standard_normal((2, d))
        return ct.lmul(A, x) + 1j * ct.lmul(A, y)

    fields = []
    for _ in range(2 * d):
        x, y, z = generator(), generator(), generator()
        fields += [x, _field_bracket(x, y), _field_bracket(x, _field_bracket(y, z))]
    values = np.array([f @ a for f in fields])
    got = np.concatenate([values.real, values.imag], axis=1)
    gl_a = ct.gl_omega_span(A).rows.reshape(-1, d, d) @ a
    want = np.block([[gl_a, np.zeros_like(gl_a)], [np.zeros((d, d)), np.eye(d)]])
    ranks = [al.numeric_rank(m)[0] for m in (got, want, np.concatenate([got, want]))]
    assert ranks == [d + orb.basis_h.shape[0]] * 3
    assert ct.minimality_check(orb) is True


def test_aut_germ_dimension_closed_forms():
    # spin boundary cases d = 3..10 give C(d, 2) + 2; light cone gives 5
    assert ct.aut_germ_dimension(ct.make_algebra("hermR", rank=2), 1, 0) == 5
    for n in range(1, 9):
        A = ct.make_algebra("spin", peirce_constant=n)
        d = n + 2
        assert ct.aut_germ_dimension(A, 1, 0) == math.comb(d, 2) + 2
        assert ct.aut_germ_dimension(A, 0, 1) == math.comb(d, 2) + 2
    assert ct.aut_germ_dimension(ct.make_algebra("albert"), 1, 1) == 80


def test_aut_germ_identity():
    # germ dimension = dim gl(Omega) + CR codimension on every orbit, with
    # dim gl(Omega) from the closed form, not from the ranked span
    for A in DESK + LARGE_RANK:
        gl_dim = ct.expected_dim_table(A)["dim_sl_omega"] + 1
        for (p, q) in _degenerate_orbits(A):
            crcodim = ct.cr_dimensions(A, p, q)["crcodim"]
            assert ct.aut_germ_dimension(A, p, q) == gl_dim + crcodim, (A, p, q)


def test_aut1_basis():
    A = ct.make_algebra("hermC", rank=3)
    orb = ct.make_orbit(A, 1, 1)
    fields = ct.aut1_basis(orb)
    dims = ct.cr_dimensions(A, 1, 1)
    assert len(fields) == dims["crcodim"]
    for f in fields:
        assert np.max(np.abs(f.A)) == 0
        assert np.max(np.abs(f.u)) == 0
