"""CR invariants of tube manifolds over cone orbits.

Each degenerate orbit C_{p,q} with 0 < p+q < rank carries a tube
M = C_{p,q} + iV whose Levi form degenerates along a Peirce block, yet the
kernel chain always terminates after exactly two steps.

Run as: python3 demos/03_tube_cr_invariants.py
"""

import numpy as np

import conetube as ct


NOISE_BOUND = 1e-12


def _below(what, value):
    """Print whether a value that is zero in exact arithmetic stays below the
    bound; its digits are rounding noise, not data."""
    print(f"  {what} < {NOISE_BOUND:g}:",
          "yes" if value < NOISE_BOUND else f"no ({value:.2e})")


def main():
    rng = np.random.default_rng(3)

    print("== light cone in C^3 ==")
    A = ct.make_algebra("hermR", rank=2)
    orb = ct.make_orbit(A, 1, 0)
    print("  base point", orb.base_point, " eigenvalues", orb.eigenvalues)
    dims = ct.cr_dimensions(A, 1, 0)
    print("  crdim", dims["crdim"], " crcodim", dims["crcodim"],
          " levi kernel", dims["levi_kernel_dim"])
    nd = ct.nondegeneracy_order(orb)
    print("  kernel chain", nd.chain_dims, " order", nd.order,
          " minimal", ct.minimality_check(orb))
    print("  germ automorphism dimension",
          ct.aut_germ_dimension(A, 1, 0))

    print()
    print("== Levi form on a mixed-signature orbit ==")
    B = ct.make_algebra("hermC", rank=3)
    orb2 = ct.make_orbit(B, 1, 1)
    v = (rng.standard_normal(orb2.basis_h.shape[0])
         + 1j * rng.standard_normal(orb2.basis_h.shape[0])) @ orb2.basis_h
    w = (rng.standard_normal(orb2.basis_h.shape[0])
         + 1j * rng.standard_normal(orb2.basis_h.shape[0])) @ orb2.basis_h
    lam_vw = ct.levi_form(orb2, v, w)
    lam_wv = ct.levi_form(orb2, w, v)
    _below("hermitian symmetry deviation", np.max(np.abs(lam_vw - np.conj(lam_wv))))
    kernel = ct.levi_kernel(orb2)
    print("  numeric kernel dimension", kernel.shape[0],
          " closed form", ct.cr_dimensions(B, 1, 1)["levi_kernel_dim"])
    u = kernel[0]
    _below("kernel vector's Levi form against v",
           np.max(np.abs(ct.levi_form(orb2, u, v))))

    print()
    print("== order is 2 on every degenerate orbit ==")
    for fam, kw in (("spin", {"peirce_constant": 6}),
                    ("hermH", {"rank": 3}),
                    ("albert", {})):
        C = ct.make_algebra(fam, **kw)
        for p in range(C.rank):
            for q in range(C.rank - p):
                if not 0 < p + q < C.rank:
                    continue
                nd = ct.nondegeneracy_order(ct.make_orbit(C, p, q))
                print(f"  {fam:6s} ({p},{q}) chain {nd.chain_dims}"
                      f" -> order {nd.order}")

    print()
    print("== germ dimensions grow with the algebra ==")
    for n in range(1, 9):
        S = ct.make_algebra("spin", peirce_constant=n)
        d = n + 2
        print(f"  spin light cone in C^{d}: aut germ"
              f" {ct.aut_germ_dimension(S, 1, 0)}")
    O = ct.make_algebra("albert")
    print("  albert hypersurface orbit: aut germ",
          ct.aut_germ_dimension(O, 2, 0))


if __name__ == "__main__":
    main()
