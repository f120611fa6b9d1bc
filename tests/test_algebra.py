"""Core Jordan algebra operations across the classification list."""

import math

import numpy as np
import pytest

import conetube as ct
from conetube import algebra as al

JORDAN_TOL = 1e-10
PQUAD_TOL = 1e-12
N_RANDOM = 100

DESK = ct.desk_algebras()


def _rand(algebra, rng):
    x = rng.standard_normal(algebra.dim)
    return x / max(np.linalg.norm(x), 1.0)


def _rand_complex(algebra, rng):
    return _rand(algebra, rng) + 1j * _rand(algebra, rng)


def test_classification_dims():
    cases = {
        ("spin", 2, 5): 7,
        ("hermR", 4, 1): 10,
        ("hermC", 3, 2): 9,
        ("hermH", 3, 4): 15,
        ("albert", 3, 8): 27,
    }
    for (fam, r, n), d in cases.items():
        A = ct.make_algebra(fam, rank=r, peirce_constant=n)
        assert A.dim == d
        assert d == r + math.comb(r, 2) * n


def test_desk_catalogue():
    assert len(DESK) == 19
    assert {a.family for a in DESK} == set(al.FAMILIES)
    spins = [a for a in DESK if a.family == "spin"]
    assert [a.peirce_constant for a in spins] == list(range(1, 9))
    assert max(a.rank for a in DESK) == 5


def test_make_algebra_rejects_bad_input():
    with pytest.raises(ct.ClassificationError):
        ct.make_algebra("hermO")
    with pytest.raises(ct.ClassificationError):
        ct.make_algebra("spin", rank=3, peirce_constant=2)
    with pytest.raises(ct.ClassificationError):
        ct.make_algebra("spin")
    with pytest.raises(ct.ClassificationError):
        ct.make_algebra("hermH", rank=2, peirce_constant=2)
    with pytest.raises(ct.ClassificationError):
        ct.make_algebra("albert", rank=4)
    with pytest.raises(ct.ClassificationError):
        ct.make_algebra("hermR")


def test_element_coercion():
    A = ct.make_algebra("hermR", rank=2)
    with pytest.raises(ct.DimensionMismatch):
        al.as_element(A, [1.0, 2.0])
    with pytest.raises(ct.DimensionMismatch):
        al.as_real_element(A, np.array([1.0, 2.0, 1j]))
    x = al.as_real_element(A, np.array([1, 2, 3], dtype=complex))
    assert x.dtype == float


def test_unit_is_neutral():
    rng = np.random.default_rng(11)
    for A in DESK:
        e = ct.unit(A)
        x = _rand(A, rng)
        np.testing.assert_allclose(ct.jordan_product(A, e, x), x, atol=1e-12)
        np.testing.assert_allclose(ct.jordan_product(A, e, e), e, atol=1e-12)


def test_product_commutative():
    rng = np.random.default_rng(17)
    for A in DESK:
        x, y = _rand(A, rng), _rand(A, rng)
        np.testing.assert_allclose(ct.jordan_product(A, x, y),
                                   ct.jordan_product(A, y, x), atol=1e-13)


def test_jordan_identity():
    # x∘(y∘x²) = (x∘y)∘x² on 100 unit-scale samples per algebra
    rng = np.random.default_rng(23)
    for A in DESK:
        for _ in range(N_RANDOM):
            x, y = _rand(A, rng), _rand(A, rng)
            xx = ct.jordan_product(A, x, x)
            lhs = ct.jordan_product(A, x, ct.jordan_product(A, y, xx))
            rhs = ct.jordan_product(A, ct.jordan_product(A, x, y), xx)
            assert np.max(np.abs(lhs - rhs)) < JORDAN_TOL


def test_power_associativity():
    # x²∘x² agrees with x∘(x∘x²)
    rng = np.random.default_rng(29)
    for A in DESK:
        for _ in range(20):
            x = _rand(A, rng)
            xx = ct.jordan_product(A, x, x)
            x3 = ct.jordan_product(A, x, xx)
            np.testing.assert_allclose(ct.jordan_product(A, xx, xx),
                                       ct.jordan_product(A, x, x3),
                                       atol=JORDAN_TOL)


def test_spin_product_closed_form():
    rng = np.random.default_rng(31)
    A = ct.make_algebra("spin", peirce_constant=6)
    for _ in range(50):
        x, y = _rand(A, rng), _rand(A, rng)
        s, u = x[0], x[1:]
        t, v = y[0], y[1:]
        direct = np.concatenate([[s * t + u @ v], s * v + t * u])
        np.testing.assert_allclose(ct.jordan_product(A, x, y), direct,
                                   atol=1e-14)


@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_composition_tables_are_normed_and_alternative(n):
    # K_n = R, C, H, O: unit e_0, |xy| = |x||y|, x x̄ = |x|² e_0, x(xy) = (xx)y,
    # and associative up to H; the octonions are not
    K = al._composition_table(n)
    conj = al._conjugation_signs(n)

    def mul(x, y):
        return np.einsum("mqp,m,q->p", K, x, y)

    e0 = np.eye(n)[0]
    rng = np.random.default_rng(59)
    worst_associator = 0.0
    for _ in range(200):
        x, y, z = rng.standard_normal((3, n))
        np.testing.assert_allclose(mul(e0, x), x, rtol=0, atol=1e-13)
        np.testing.assert_allclose(mul(x, e0), x, rtol=0, atol=1e-13)
        np.testing.assert_allclose(np.linalg.norm(mul(x, y)),
                                   np.linalg.norm(x) * np.linalg.norm(y), rtol=1e-13)
        np.testing.assert_allclose(mul(x, conj * x), (x @ x) * e0, rtol=0, atol=1e-13)
        np.testing.assert_allclose(mul(x, mul(x, y)), mul(mul(x, x), y),
                                   rtol=0, atol=1e-13)
        associator = np.abs(mul(mul(x, y), z) - mul(x, mul(y, z))).max()
        worst_associator = max(worst_associator, associator)
    if n <= 4:
        assert worst_associator <= 1e-13
    else:
        assert worst_associator > 1.0


def test_matrix_realisation_oracle():
    # product and quadratic map match (XY+YX)/2 and A X A on matrices
    rng = np.random.default_rng(37)
    hermitian = [A for A in DESK if A.family in ("hermR", "hermC", "hermH")]
    for A in hermitian + [ct.make_algebra("hermC", rank=6),
                          ct.make_algebra("hermH", rank=4)]:
        for _ in range(25):
            x, y = _rand(A, rng), _rand(A, rng)
            X = ct.element_to_matrix(A, x)
            Y = ct.element_to_matrix(A, y)
            prod = ct.matrix_to_element(A, 0.5 * (X @ Y + Y @ X))
            np.testing.assert_allclose(ct.jordan_product(A, x, y), prod,
                                       atol=1e-12)
            quad = ct.matrix_to_element(A, X @ Y @ X)
            np.testing.assert_allclose(ct.pquad(A, x) @ y, quad, atol=1e-12)


def test_matrix_round_trip():
    rng = np.random.default_rng(41)
    for fam, r in (("hermR", 4), ("hermC", 4), ("hermH", 3)):
        A = ct.make_algebra(fam, rank=r)
        x = _rand(A, rng)
        back = ct.matrix_to_element(A, ct.element_to_matrix(A, x))
        np.testing.assert_allclose(back, x, atol=1e-14)
    with pytest.raises(ct.ClassificationError):
        ct.element_to_matrix(ct.make_algebra("albert"),
                             np.zeros(27))



def _matrix_to_element_loop(A, M):
    """Reference: one (j, k) pair at a time, one matrix at a time."""
    r = A.rank
    x = np.zeros(A.dim)
    idx = r
    for (j, k) in al._herm_pairs(r):
        if A.family == "hermH":
            upper = M[2 * j: 2 * j + 2, 2 * k: 2 * k + 2]
            block = 0.5 * (upper + M[2 * k: 2 * k + 2, 2 * j: 2 * j + 2].conj().T)
            a = 0.5 * (block[0, 0] + np.conj(block[1, 1]))
            b = 0.5 * (block[0, 1] - np.conj(block[1, 0]))
            x[idx:idx + 4] = a.real, a.imag, b.real, b.imag
            idx += 4
        else:
            entry = 0.5 * (M[j, k] + np.conj(M[k, j]))
            x[idx] = entry.real
            if A.family == "hermC":
                x[idx + 1] = entry.imag
            idx += A.peirce_constant
    for j in range(r):
        if A.family == "hermH":
            x[j] = 0.5 * np.trace(M[2 * j: 2 * j + 2, 2 * j: 2 * j + 2]).real
        else:
            x[j] = M[j, j].real
    return x


def test_matrix_to_element_matches_loop_on_stacks():
    # bit for bit against the pair loop, on stacks of non-Hermitian matrices
    rng = np.random.default_rng(47)
    for fam, r in (("hermR", 1), ("hermR", 4), ("hermC", 1), ("hermC", 3),
                   ("hermH", 1), ("hermH", 3)):
        A = ct.make_algebra(fam, rank=r)
        mats = np.stack([ct.element_to_matrix(A, _rand(A, rng)) for _ in range(6)])
        mats = mats + 1e-3 * rng.standard_normal(mats.shape)
        want = np.stack([_matrix_to_element_loop(A, M) for M in mats])
        got = ct.matrix_to_element(A, mats.reshape((2, 3) + mats.shape[1:]))
        assert got.shape == (2, 3, A.dim)
        assert got.reshape(6, A.dim).tobytes() == want.tobytes()
        assert ct.matrix_to_element(A, mats[0]).tobytes() == want[0].tobytes()
    with pytest.raises(ct.ClassificationError):
        ct.matrix_to_element(ct.make_algebra("spin", peirce_constant=2),
                             np.eye(2))


@pytest.mark.parametrize("family, rank, shape, want", [
    ("hermC", 3, (2, 2), "3 x 3"),
    ("hermR", 2, (3, 3), "2 x 2"),
    ("hermH", 2, (3, 3), "4 x 4"),
    ("hermH", 2, (5, 2, 2), "4 x 4"),
    ("hermR", 2, (4,), "2 x 2"),
])
def test_matrix_to_element_refuses_misshapen_stacks(family, rank, shape, want):
    A = ct.make_algebra(family, rank=rank)
    with pytest.raises(ct.DimensionMismatch) as info:
        ct.matrix_to_element(A, np.zeros(shape))
    assert str(info.value) == f"expected {want} matrices for {A}, got shape {shape}"


def test_herm_index_tables_are_shared_and_read_only():
    for r in (1, 2, 5):
        table = al._herm_index(r)
        assert al._herm_index(r) is table
        j, k, d = table
        assert list(zip(j.tolist(), k.tolist())) == al._herm_pairs(r)
        assert d.tolist() == list(range(r))
        for index in table:
            with pytest.raises(ValueError):
                index[...] = 0


def _element_to_matrix_loop(A, x):
    """Reference: one (j, k) pair at a time, hermH blocks [[a, b], [-b̄, ā]]."""
    r = A.rank
    if A.family == "hermR":
        M = np.zeros((r, r))
    else:
        M = np.zeros((2 * r, 2 * r) if A.family == "hermH" else (r, r), dtype=complex)
    idx = r
    for (j, k) in al._herm_pairs(r):
        if A.family == "hermH":
            a = x[idx] + 1j * x[idx + 1]
            b = x[idx + 2] + 1j * x[idx + 3]
            block = np.array([[a, b], [-np.conj(b), np.conj(a)]])
            M[2 * j: 2 * j + 2, 2 * k: 2 * k + 2] = block
            M[2 * k: 2 * k + 2, 2 * j: 2 * j + 2] = block.conj().T
        else:
            M[j, k] = x[idx] if A.family == "hermR" else x[idx] + 1j * x[idx + 1]
            M[k, j] = np.conj(M[j, k])
        idx += A.peirce_constant
    for j in range(r):
        if A.family == "hermH":
            M[2 * j: 2 * j + 2, 2 * j: 2 * j + 2] = x[j] * np.eye(2)
        else:
            M[j, j] = x[j]
    return M


def test_element_to_matrix_matches_loop_with_signed_zeros():
    # bit for bit against the pair loop, zero entries of either sign included
    rng = np.random.default_rng(53)
    for fam, ranks in (("hermR", (1, 2, 5)), ("hermC", (1, 3, 4)),
                       ("hermH", (1, 2, 3))):
        for r in ranks:
            A = ct.make_algebra(fam, rank=r)
            for _ in range(10):
                x = _rand(A, rng)
                zero = rng.random(A.dim) < 0.3
                x[zero] = np.where(rng.random(zero.sum()) < 0.5, 0.0, -0.0)
                want = _element_to_matrix_loop(A, x)
                got = ct.element_to_matrix(A, x)
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()


def test_pquad_definition():
    # P(x) = 2 L(x)² - L(x²) entrywise, and P(x, x) = P(x)
    rng = np.random.default_rng(43)
    for A in DESK:
        x = _rand(A, rng)
        Lx = ct.lmul(A, x)
        Lxx = ct.lmul(A, ct.jordan_product(A, x, x))
        np.testing.assert_allclose(ct.pquad(A, x), 2 * Lx @ Lx - Lxx,
                                   atol=PQUAD_TOL)
        np.testing.assert_allclose(ct.pquad(A, x, x), ct.pquad(A, x),
                                   atol=PQUAD_TOL)


def test_lmul_comes_from_the_multiplication_table():
    # L(b_a) is T[a] transposed, C-contiguous; a stack of L(x) and of L(x)ᵀ
    # holds the same bits as lmul on each x. T is in C order, so building
    # L(x) never copies it
    rng = np.random.default_rng(41)
    for A in DESK:
        T = ct.multiplication_table(A)
        assert T.flags.c_contiguous
        for a in range(A.dim):
            La = ct.lmul(A, np.eye(A.dim)[a])
            assert La.flags.c_contiguous
            np.testing.assert_array_equal(La, T[a].T)
        xs = rng.standard_normal((3, A.dim))
        stack = al._lmul_stack(A, xs)
        stack_t = al._lmul_stack(A, xs, transposed=True)
        for x, L, Lt in zip(xs, stack, stack_t):
            assert ct.lmul(A, x).tobytes() == L.tobytes() == Lt.T.copy().tobytes()


def test_fundamental_formula():
    # P(P(x)y) = P(x) P(y) P(x) on a few samples per algebra
    rng = np.random.default_rng(47)
    for A in DESK:
        for _ in range(5):
            x, y = _rand(A, rng), _rand(A, rng)
            Px = ct.pquad(A, x)
            lhs = ct.pquad(A, Px @ y)
            rhs = Px @ ct.pquad(A, y) @ Px
            np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_trace_form_matches_operator_trace():
    # (x|y) = tr L(x∘y), which is (dim/rank) times the eigenvalue sum
    rng = np.random.default_rng(53)
    for A in DESK:
        x, y = _rand(A, rng), _rand(A, rng)
        direct = np.trace(ct.lmul(A, ct.jordan_product(A, x, y)))
        assert abs(ct.trace_form(A, x, y) - direct) < 1e-12
        scaled = A.dim / A.rank * ct.generic_trace(A, ct.jordan_product(A, x, y))
        assert abs(ct.trace_form(A, x, y) - scaled) < 1e-12


def test_trace_form_self_adjoint_and_definite():
    # (x∘z|y) = (z|x∘y): every L(x) is self-adjoint for the trace form
    rng = np.random.default_rng(59)
    for A in DESK:
        for _ in range(20):
            x, y, z = _rand(A, rng), _rand(A, rng), _rand(A, rng)
            lhs = ct.trace_form(A, ct.jordan_product(A, x, z), y)
            rhs = ct.trace_form(A, z, ct.jordan_product(A, x, y))
            assert abs(lhs - rhs) < 1e-11
        gram = ct.trace_gram(A)
        np.testing.assert_allclose(gram, gram.T, atol=1e-13)
        assert np.min(np.linalg.eigvalsh(gram)) > 0


def test_trace_form_unit_norm():
    for A in DESK:
        e = ct.unit(A)
        assert abs(ct.trace_form(A, e, e) - A.dim) < 1e-12


def test_trace_form_positive_on_samples():
    rng = np.random.default_rng(60)
    for A in DESK:
        for _ in range(N_RANDOM):
            x = rng.standard_normal(A.dim)
            assert ct.trace_form(A, x, x) > 0


def test_generic_trace_values():
    for A in DESK:
        assert abs(ct.generic_trace(A, ct.unit(A)) - A.rank) < 1e-12
        frame = ct.standard_frame(A)
        for row in frame:
            assert abs(ct.generic_trace(A, row) - 1.0) < 1e-12


def test_cone_self_duality():
    # interior points P(x)e + eps·e have pairwise positive trace form
    rng = np.random.default_rng(61)
    for A in DESK:
        pts = []
        for _ in range(50):
            x = _rand(A, rng)
            pts.append(ct.pquad(A, x) @ ct.unit(A) + 1e-6 * ct.unit(A))
        pts = np.array(pts)
        vals = np.array([[ct.trace_form(A, p, q) for q in pts] for p in pts])
        assert np.min(vals) > 0


def test_star_involution():
    rng = np.random.default_rng(67)
    A = ct.make_algebra("hermC", rank=3)
    z = _rand_complex(A, rng)
    w = _rand_complex(A, rng)
    np.testing.assert_allclose(ct.star(A, ct.star(A, z)), z)
    prod = ct.jordan_product(A, z, w)
    np.testing.assert_allclose(
        ct.star(A, prod),
        ct.jordan_product(A, ct.star(A, z), ct.star(A, w)), atol=1e-13)


def test_triple_product_symmetry():
    rng = np.random.default_rng(71)
    for A in (ct.make_algebra("spin", peirce_constant=4),
              ct.make_algebra("hermC", rank=3)):
        x = _rand_complex(A, rng)
        y = _rand_complex(A, rng)
        z = _rand_complex(A, rng)
        np.testing.assert_allclose(ct.triple_product(A, x, y, z),
                                   ct.triple_product(A, z, y, x), atol=1e-12)
        # {x y x} = P(x) y*
        np.testing.assert_allclose(
            ct.triple_product(A, x, y, x),
            ct.pquad(A, x) @ np.conj(y), atol=1e-12)


def test_jordan_inverse():
    rng = np.random.default_rng(73)
    for A in DESK:
        e = ct.unit(A)
        np.testing.assert_allclose(ct.jordan_inverse(A, e), e, atol=1e-12)
        x = _rand(A, rng) + 3.0 * e
        w = ct.jordan_inverse(A, x)
        np.testing.assert_allclose(ct.jordan_product(A, x, w), e, atol=1e-9)
        np.testing.assert_allclose(ct.pquad(A, x) @ w, x, atol=1e-9)


def test_jordan_inverse_singular():
    A = ct.make_algebra("hermR", rank=3)
    c = ct.standard_frame(A)[0]
    with pytest.raises(ct.SingularElement):
        ct.jordan_inverse(A, c)
    with pytest.raises(ct.SingularElement):
        ct.jordan_inverse(A, np.zeros(A.dim))


@pytest.mark.filterwarnings("error")
def test_jordan_inverse_at_extreme_scales():
    A = ct.make_algebra("hermR", rank=2)
    # P(z) overflows on the first and underflows to 0 on the second
    np.testing.assert_allclose(ct.jordan_inverse(A, [1e300, 1e300, 0.0]),
                               [1e-300, 1e-300, 0.0], rtol=1e-15)
    np.testing.assert_allclose(ct.jordan_inverse(A, [1e-170, 2e-170, 0.0]),
                               [1e170, 5e169, 0.0], rtol=1e-15)
    with pytest.raises(ct.NumericalFailure, match="overflows"):
        ct.jordan_inverse(A, [1e-310, 1e-310, 0.0])


def _scale2(x, k):
    """x·2^k, exact on both parts of a complex x."""
    return np.ldexp(x.view(float), k).view(x.dtype)


@pytest.mark.filterwarnings("error")
def test_jordan_inverse_is_exactly_power_of_two_equivariant():
    rng = np.random.default_rng(401)
    for fam, r in (("spin", 2), ("hermR", 3), ("hermC", 3), ("hermH", 2), ("albert", 3)):
        A = ct.make_algebra(fam, rank=r, peirce_constant=3 if fam == "spin" else None)
        x = _rand(A, rng) + 3.0 * ct.unit(A)
        for z in (x, x + 1j * _rand(A, rng)):
            w = ct.jordan_inverse(A, z)
            for k in (-600, -1, 1, 600):
                got = ct.jordan_inverse(A, _scale2(z, k))
                assert got.tobytes() == _scale2(w, -k).tobytes(), (A, z.dtype, k)


def test_jordan_inverse_solve_failure(break_linalg):
    break_linalg("solve")
    A = ct.make_algebra("hermR", rank=3)
    with pytest.raises(ct.NumericalFailure, match="Jordan inverse"):
        ct.jordan_inverse(A, ct.unit(A))


def test_jordan_inverse_svd_failure(break_linalg):
    break_linalg("svd")
    A = ct.make_algebra("hermR", rank=3)
    with pytest.raises(ct.NumericalFailure, match="Jordan inverse"):
        ct.jordan_inverse(A, ct.unit(A))


def test_complex_bilinearity():
    rng = np.random.default_rng(79)
    A = ct.make_algebra("hermH", rank=2)
    z = _rand_complex(A, rng)
    w = _rand_complex(A, rng)
    lhs = ct.jordan_product(A, (2 + 1j) * z, w)
    np.testing.assert_allclose(lhs, (2 + 1j) * ct.jordan_product(A, z, w),
                               atol=1e-13)


@pytest.mark.parametrize("rows, cols, rank", [
    (12, 5, 3),   # tall: reduced to its QR factor first
    (4, 9, 2),    # wide
    (6, 6, 4),    # square, rank deficient
    (6, 6, 6),    # square, full rank
    (0, 5, 0),    # no rows
    (7, 3, 0),    # all zero
])
@pytest.mark.parametrize("dtype", [float, complex])
def test_numeric_rank(rows, cols, rank, dtype):
    rng = np.random.default_rng([rows, cols, rank])

    def factor(shape):
        f = rng.standard_normal(shape)
        return f + 1j * rng.standard_normal(shape) if dtype is complex else f

    M = factor((rows, rank)) @ factor((rank, cols))
    got, vh = al.numeric_rank(M)
    assert got == rank
    assert al.numeric_rank_only(M) == got
    span = vh[:rank]
    np.testing.assert_allclose(span @ span.conj().T, np.eye(rank), atol=1e-12)
    np.testing.assert_allclose(M @ span.conj().T @ span, M, atol=1e-10)
    if rows >= cols:
        assert vh.shape == (cols, cols)
        np.testing.assert_allclose(vh @ vh.conj().T, np.eye(cols), atol=1e-12)
        np.testing.assert_allclose(M @ vh.conj()[rank:].T, 0.0, atol=1e-10)
    if rows > cols:
        # the QR step keeps the singular values and the row space
        _, s_plain, vh_plain = np.linalg.svd(M, full_matrices=False)
        np.testing.assert_allclose(np.linalg.norm(M @ vh.conj().T, axis=0),
                                   s_plain, atol=1e-12 * s_plain[0])
        plain = vh_plain[:rank]
        np.testing.assert_allclose(span.conj().T @ span, plain.conj().T @ plain,
                                   atol=1e-12)


def test_numeric_rank_rejects_nan():
    M = np.ones((4, 3))
    M[1, 2] = np.nan
    for rank_of in (al.numeric_rank, al.numeric_rank_only):
        with pytest.raises(ct.NumericalFailure):
            rank_of(M)
