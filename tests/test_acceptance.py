"""Acceptance suite: one test per shipping criterion, one verdict line each.

Every criterion below is exercised at its stated tolerance against the desk
catalogue (spin n=1..8, hermR/hermC rank 2..5, hermH rank 2..3, albert).
The prints summarise the measured quantity next to the asserted bound so a
verbose run reads as a checklist.
"""

import math
import time

import numpy as np

import conetube as ct
from conetube import fields as fl

DESK = ct.desk_algebras()

ORACLE_TOL = 1e-9
FLOW_TOL = 1e-6
CENSUS_SAMPLES = 500
ORACLE_PAIRS = 100
JACOBI_TRIPLES = 100
RANK_CUTOFF = 1e-8


def _degenerate_orbits(A):
    return [(p, q) for p in range(A.rank + 1) for q in range(A.rank + 1 - p)
            if 0 < p + q < A.rank]


def _all_orbits(A):
    return [(p, q) for p in range(A.rank + 1) for q in range(A.rank + 1 - p)]


def _rand_section(rng, basis):
    coeff = rng.standard_normal(basis.shape[0]) \
        + 1j * rng.standard_normal(basis.shape[0])
    return coeff @ basis


def test_criterion_1_dimension_table():
    start = time.perf_counter()
    for A in DESK:
        computed = fl.dim_table(A)
        expected = fl.expected_dim_table(A)
        assert computed == expected, f"{A}: {computed} != {expected}"
    albert = fl.dim_table(ct.make_algebra("albert"))
    assert (albert["dim_der"], albert["dim_sl_omega"], albert["dim_aut_H"]) \
        == (52, 78, 133)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"criterion 1 PASS: dimension table matches closed forms on "
          f"{len(DESK)} algebras in {elapsed:.2f}s (< 60s)")


def test_criterion_2_orbit_census():
    rng = np.random.default_rng(20260815)
    for A in DESK:
        r = A.rank
        seen = set()
        for _ in range(CENSUS_SAMPLES):
            sig = ct.orbit_signature(A, rng.standard_normal(A.dim))
            seen.add((sig.p, sig.q))
        frame = ct.standard_frame(A)
        for p in range(r + 1):
            for q in range(r + 1 - p):
                x = frame[:p].sum(axis=0) - frame[p:p + q].sum(axis=0)
                sig = ct.orbit_signature(A, x)
                assert (sig.p, sig.q) == (p, q)
                seen.add((sig.p, sig.q))
        assert seen == {(p, q) for p in range(r + 1)
                        for q in range(r + 1 - p)}
        assert len(seen) == math.comb(r + 2, 2)
    print(f"criterion 2 PASS: {CENSUS_SAMPLES} random elements per algebra "
          f"plus representatives hit all C(r+2,2) signatures")


def test_criterion_3_levi_kernel_dimensions():
    checked = 0
    for A in DESK:
        n = A.peirce_constant
        for (p, q) in _all_orbits(A):
            orb = ct.make_orbit(A, p, q)
            rho = p + q
            expected = rho + math.comb(rho, 2) * n
            assert ct.levi_kernel(orb).shape[0] == expected, (A, p, q)
            checked += 1
    print(f"criterion 3 PASS: numeric Levi kernel dimension equals "
          f"rho + C(rho,2)n on all {checked} desk orbits")


def test_criterion_4_two_nondegeneracy_and_minimality():
    checked = 0
    for A in DESK:
        for (p, q) in _degenerate_orbits(A):
            orb = ct.make_orbit(A, p, q)
            nd = ct.nondegeneracy_order(orb)
            assert nd.order == 2, (A, p, q, nd.order)
            assert nd.chain_dims[-1] == 0
            assert len(nd.chain_dims) == 3
            assert ct.minimality_check(orb) is True
            checked += 1
    print(f"criterion 4 PASS: every degenerate desk orbit ({checked} total) "
          f"is exactly 2-nondegenerate and minimal")


def test_criterion_5_germ_dimensions():
    light_cone = ct.make_algebra("hermR", rank=2)
    assert ct.aut_germ_dimension(light_cone, 1, 0) == 5
    for n in range(1, 9):
        A = ct.make_algebra("spin", peirce_constant=n)
        d = n + 2
        assert ct.aut_germ_dimension(A, 1, 0) == math.comb(d, 2) + 2, d
    albert = ct.make_algebra("albert")
    assert ct.aut_germ_dimension(albert, 2, 0) == 80
    assert ct.aut_germ_dimension(albert, 1, 1) == 80
    checked = 0
    for A in DESK:
        gl_dim = fl.gl_omega_span(A).dim_gl_omega
        for (p, q) in _degenerate_orbits(A):
            crcodim = ct.cr_dimensions(A, p, q)["crcodim"]
            assert ct.aut_germ_dimension(A, p, q) == gl_dim + crcodim, (A, p, q)
            checked += 1
    print(f"criterion 5 PASS: germ dimensions (light cone 5, spin C(d,2)+2, "
          f"albert 80) and gl identity on {checked} orbits")


def test_criterion_6a_levi_form_oracle(dense_blocks):
    rng = np.random.default_rng(31)
    worst = 0.0
    for A in DESK:
        for (p, q) in _degenerate_orbits(A):
            orb = ct.make_orbit(A, p, q)
            a = orb.base_point
            _, _, pi_e0, linv_h, _ = dense_blocks(A, orb)
            for _ in range(ORACLE_PAIRS):
                v = _rand_section(rng, orb.basis_h)
                w = _rand_section(rng, orb.basis_h)
                lv, lw = linv_h @ v, linv_h @ w
                b1 = ct.jordan_product(A, ct.jordan_product(A, a, lv.real), lw) \
                    - ct.jordan_product(A, ct.jordan_product(A, a, lw.real), lv)
                b2 = ct.jordan_product(A, ct.jordan_product(A, a, (1j * lv).real), lw) \
                    - ct.jordan_product(A, ct.jordan_product(A, a, lw.real), 1j * lv)
                bracket_val = pi_e0 @ (b1 + 1j * b2)
                dev = np.max(np.abs(bracket_val - ct.levi_form(orb, v, w)))
                worst = max(worst, dev)
    assert worst < ORACLE_TOL
    print(f"criterion 6a PASS: Levi closed form vs section bracket, "
          f"max deviation {worst:.2e} (< 1e-9)")


def test_criterion_6b_beta_map_oracle():
    rng = np.random.default_rng(37)
    worst = 0.0
    for A in DESK:
        for (p, q) in _degenerate_orbits(A):
            orb = ct.make_orbit(A, p, q)
            if orb.basis_half.shape[0] == 0 or orb.basis_e1.shape[0] == 0:
                continue
            a = orb.base_point
            for _ in range(20):
                v = _rand_section(rng, orb.basis_half)
                w = (_rand_section(rng, orb.basis_e1)).real

                def xi_eta_bracket(vv):
                    term1 = ct.pquad(
                        A, a, ct.jordan_product(A, a, vv + np.conj(vv))) @ w
                    term2 = ct.jordan_product(A, ct.pquad(A, a) @ w, vv)
                    return term1 - term2

                anti = 0.5 * (xi_eta_bracket(v) + 1j * xi_eta_bracket(1j * v))
                direct = ct.beta_map(orb, ct.jordan_product(A, a, v),
                                     ct.pquad(A, a) @ w)
                worst = max(worst, np.max(np.abs(anti - direct)))
    assert worst < ORACLE_TOL
    print(f"criterion 6b PASS: beta map vs antiholomorphic bracket part, "
          f"max deviation {worst:.2e} (< 1e-9)")


def test_criterion_6c_flow_vs_rk4():
    A = ct.make_algebra("hermR", rank=3)
    frame = ct.standard_frame(A)
    v = np.array([1.0, -0.7, 0.3])
    c = np.array([0.2 + 0.5j, -0.4 + 1.0j, 0.9 - 0.3j])
    w = v @ frame
    z = (c @ frame).astype(complex)

    def rhs(state):
        return 1j * (ct.pquad(A, state) @ w)

    steps = 2000
    h = 1.0 / steps
    worst = 0.0
    for k in range(steps):
        k1 = rhs(z)
        k2 = rhs(z + 0.5 * h * k1)
        k3 = rhs(z + 0.5 * h * k2)
        k4 = rhs(z + h * k3)
        z = z + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        t = (k + 1) * h
        exact = ct.diagonal_flow(A, frame, v, c, t)
        worst = max(worst, np.max(np.abs(z - exact)))
    assert worst < FLOW_TOL
    print(f"criterion 6c PASS: diagonal flow vs order-4 integration on "
          f"t in [0,1], max deviation {worst:.2e} (< 1e-6)")


def test_criterion_6d_unit_rate_flow_law():
    grid = np.linspace(0.0, 1.0, 11)
    worst = 0.0
    for t in grid:
        g = ct.diagonal_flow_coefficients([1.0], [1j], float(t))[0]
        worst = max(worst, abs(g - 1j / (1.0 + t)))
    assert worst < 1e-15
    g1 = ct.diagonal_flow_coefficients([1.0], [1j], 1.0)[0]
    assert g1 == 0.5j
    print(f"criterion 6d PASS: unit-rate flow matches i(1+t)^-1 "
          f"(deviation {worst:.1e}), g_1(1) = i/2 exactly")


def test_criterion_7_field_algebra():
    rng = np.random.default_rng(41)
    worst = 0.0
    for A in DESK:
        for _ in range(JACOBI_TRIPLES):
            f, g, h = (fl.random_field(A, rng) for _ in range(3))
            fg = fl.bracket(A, f, g)
            gf = fl.bracket(A, g, f)
            anti = max(np.max(np.abs(fg.u + gf.u)),
                       np.max(np.abs(fg.A + gf.A)),
                       np.max(np.abs(fg.w + gf.w)))
            gh = fl.bracket(A, g, h)
            hf = fl.bracket(A, h, f)
            jac_u = fl.bracket(A, fg, h)
            jac_v = fl.bracket(A, gh, f)
            jac_w = fl.bracket(A, hf, g)
            jac = max(np.max(np.abs(jac_u.u + jac_v.u + jac_w.u)),
                      np.max(np.abs(jac_u.A + jac_v.A + jac_w.A)),
                      np.max(np.abs(jac_u.w + jac_v.w + jac_w.w)))
            scale = max(1.0, np.max(np.abs(fg.A)), np.max(np.abs(gh.A)),
                        np.max(np.abs(hf.A)))
            worst = max(worst, anti, jac / scale)
    assert worst < ORACLE_TOL

    for A in DESK:
        d = A.dim
        zero_v = np.zeros(d)
        zero_m = np.zeros((d, d))
        rows = []
        for i in range(d):
            u = np.zeros(d)
            u[i] = 1.0
            f_minus = fl.GradedField(u=u, A=zero_m, w=zero_v)
            same = fl.bracket(A, f_minus,
                              fl.GradedField(u=np.roll(u, 1), A=zero_m,
                                             w=zero_v))
            assert np.max(np.abs(same.u)) == 0.0
            assert np.max(np.abs(same.A)) == 0.0
            assert np.max(np.abs(same.w)) == 0.0
            for j in range(d):
                w = np.zeros(d)
                w[j] = 1.0
                f_plus = fl.GradedField(u=zero_v, A=zero_m, w=w)
                if i == 0:
                    pp = fl.bracket(A, f_plus,
                                    fl.GradedField(u=zero_v, A=zero_m,
                                                   w=np.roll(w, 1)))
                    assert np.max(np.abs(pp.u)) == 0.0
                    assert np.max(np.abs(pp.A)) == 0.0
                    assert np.max(np.abs(pp.w)) == 0.0
                rows.append(fl.bracket(A, f_minus, f_plus)
                            .A.reshape(-1))
        stack = np.stack(rows)
        sv = np.linalg.svd(stack, compute_uv=False)
        rank = int(np.sum(sv > RANK_CUTOFF * sv[0]))
        assert rank == fl.gl_omega_span(A).dim_gl_omega, A
    print(f"criterion 7 PASS: antisymmetry/Jacobi max residual {worst:.2e} "
          f"(< 1e-9), degree-(-1,+1) brackets span gl, like degrees commute")


def test_criterion_8_siegel_isotropy_and_cocycle():
    rng = np.random.default_rng(43)
    for _ in range(20):
        u = rng.standard_normal(2)
        while np.linalg.norm(u) < 0.3:
            u = rng.standard_normal(2)
        s = np.outer(u, u)
        assert ct.isotropy_dimension(s) == 5

    def random_symplectic(r):
        J = np.block([[np.zeros((r, r)), np.eye(r)],
                      [-np.eye(r), np.zeros((r, r))]])
        b = rng.standard_normal((r, r))
        b = 0.5 * (b + b.T)
        trans = np.block([[np.eye(r), b], [np.zeros((r, r)), np.eye(r)]])
        m = rng.standard_normal((r, r)) + np.eye(r) * 2.0
        blockdiag = np.block([[m, np.zeros((r, r))],
                              [np.zeros((r, r)), np.linalg.inv(m).T]])
        return trans @ J @ blockdiag @ trans.T @ J.T

    worst = 0.0
    r = 2
    for _ in range(20):
        g1 = random_symplectic(r)
        g2 = random_symplectic(r)
        b = rng.standard_normal((r, r))
        z = 0.5 * (b + b.T) + 1j * (np.eye(r) * 2.0)
        lhs = ct.siegel_action(g1 @ g2, z)
        rhs = ct.siegel_action(g1, ct.siegel_action(g2, z))
        worst = max(worst, np.max(np.abs(lhs - rhs)))
    assert worst < ORACLE_TOL
    print(f"criterion 8 PASS: 20 rank-1 isotropy dimensions equal 5, "
          f"cocycle deviation {worst:.2e} (< 1e-9)")


def test_criterion_9_nonresonance_verdicts():
    single = fl.nonresonant([1.0], bound=5)
    assert single.nonresonant is True and single.exact is True
    pair = fl.nonresonant([1.0, 2.0], bound=3)
    assert pair.nonresonant is False and pair.exact is True
    m, j = pair.witness
    assert tuple(m) == (2, 0) and j == 2
    print("criterion 9 PASS: {1} nonresonant exactly, {1,2} resonant with "
          "witness m=(2,0) against the second eigenvalue")
