"""Exact linear algebra: elimination, Kronecker/vec, charpoly, eigen data."""

import itertools
import math
import random

import pytest

from matspan import (
    DimensionMismatch,
    FieldMismatch,
    Mat,
    NotSquare,
    Poly,
    canonical_field,
    charpoly,
    companion,
    eigen_data,
    eigen_items_in,
    embed,
    embed_mat,
    factor,
    hstack,
    is_cyclic,
    kron,
    left_nullspace,
    make_prime_field,
    minpoly,
    poly_at_matrix,
    rank,
    right_nullspace,
    splitting_degree_over_prime,
    unvec,
    vec,
    vstack,
)

F2 = make_prime_field(2)
F3 = make_prime_field(3)
F5 = make_prime_field(5)


def rand_mat(field, rows, cols, rng):
    q = field.order
    return Mat(
        field, rows, cols, tuple(field.elem(rng.randrange(q)) for _ in range(rows * cols))
    )


def rand_monic(field, deg, rng):
    return Poly.from_ints(
        field, [rng.randrange(field.order) for _ in range(deg)] + [1]
    )


def charpoly_leibniz(m):
    # reference: expand det(xI - M) over all permutations; fine for dim <= 4
    n = m.rows
    field = m.field
    ents = [[Poly.constant(-m[i, j]) for j in range(n)] for i in range(n)]
    for i in range(n):
        ents[i][i] = ents[i][i] + Poly.x(field)
    total = Poly.zero(field)
    for perm in itertools.permutations(range(n)):
        inversions = sum(
            1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b]
        )
        term = Poly.one(field)
        for i in range(n):
            term = term * ents[i][perm[i]]
        if inversions % 2:
            term = -term
        total = total + term
    return total


# -- construction and arithmetic ---------------------------------------------


def test_constructors_and_access():
    m = Mat.from_rows(F3, [[1, 2], [0, 1]])
    assert (m.rows, m.cols) == (2, 2)
    assert m[0, 1] == F3.elem(2)
    assert m.row(1) == (F3.zero, F3.one)
    assert m.col(0) == (F3.one, F3.zero)
    assert Mat.unit(F3, 2, 3, 1, 2)[1, 2] == F3.one
    assert Mat.unit(F3, 2, 3, 1, 2)[0, 0] == F3.zero
    with pytest.raises(IndexError):
        m[2, 0]
    with pytest.raises(DimensionMismatch):
        Mat(F3, 2, 2, (F3.zero,) * 3)
    with pytest.raises(DimensionMismatch):
        Mat.from_rows(F3, [[1, 2], [1]])


def test_matmul_and_transpose():
    a = Mat.from_rows(F5, [[1, 2, 0], [0, 1, 3]])
    b = Mat.from_rows(F5, [[1, 0], [2, 1], [0, 4]])
    prod = a @ b
    assert prod.row_list() == [
        [F5.elem(0), F5.elem(2)],
        [F5.elem(2), F5.elem(3)],
    ]
    assert (a @ b).T == b.T @ a.T
    with pytest.raises(DimensionMismatch):
        b @ Mat.identity(F5, 3)
    with pytest.raises(FieldMismatch):
        a @ Mat.identity(F3, 3)


def test_mixed_field_entries_raise():
    # a Mat built directly from entries of two fields: the int kernels of
    # rank and @ check the owner of every entry, zeros included
    for field, other in ((F3, F5), (F2, F5)):
        mixed = Mat(field, 2, 2, (field.one, other.zero, field.zero, field.one))
        with pytest.raises(FieldMismatch):
            rank(mixed)
        with pytest.raises(FieldMismatch):
            mixed @ Mat.identity(field, 2)
        with pytest.raises(FieldMismatch):
            Mat.identity(field, 2) @ mixed
    # ==, hash and the memo caches compare keys, which check owners too:
    # a GF(3) matrix holding a GF(5) entry is not equal to a GF(3) one
    # and is not answered from the cache of one
    same = Mat(F3, 1, 1, (F3.one,))
    mixed = Mat(F3, 1, 1, (F5.one,))
    charpoly(same)
    for op in (lambda: mixed == same, lambda: same == mixed, lambda: hash(mixed),
               lambda: charpoly(mixed), lambda: minpoly(mixed)):
        with pytest.raises(FieldMismatch):
            op()


def test_powers_and_scaling():
    m = Mat.from_rows(F3, [[1, 1], [0, 1]])
    assert (m ** 0) == Mat.identity(F3, 2)
    assert (m ** 3)[0, 1] == F3.elem(0)  # (I + N)^3 = I + 3N = I mod 3
    assert m.scale(F3.elem(2)) == m + m
    with pytest.raises(NotSquare):
        Mat.zeros(F3, 2, 3) ** 2
    with pytest.raises(ValueError):
        m ** -1


def test_equality_and_hash():
    a = Mat.identity(F2, 2)
    b = Mat.from_rows(F2, [[1, 0], [0, 1]])
    assert a == b and hash(a) == hash(b)
    assert a != Mat.zeros(F2, 2, 2)
    assert len({a, b, Mat.zeros(F2, 2, 2)}) == 2


def test_stacking():
    a = Mat.from_rows(F3, [[1, 2]])
    b = Mat.from_rows(F3, [[0, 1]])
    assert vstack([a, b]).row_list() == [[F3.one, F3.elem(2)], [F3.zero, F3.one]]
    assert hstack([a.T, b.T]) == vstack([a, b]).T
    with pytest.raises(DimensionMismatch):
        vstack([a, Mat.identity(F3, 3)])
    with pytest.raises(FieldMismatch):
        hstack([a, Mat.from_rows(F5, [[1]])])
    with pytest.raises(ValueError):
        hstack([])


# -- rank and nullspaces -------------------------------------------------------


def test_rank_examples():
    assert rank(Mat.identity(F5, 3)) == 3
    assert rank(Mat.zeros(F5, 2, 5)) == 0
    assert rank(Mat.from_rows(F2, [[1, 1], [1, 1]])) == 1
    assert rank(Mat.from_rows(F3, [[1, 2, 0], [2, 4, 0]])) == 1  # 4 reduces to 1
    assert rank(Mat.zeros(F5, 0, 3)) == 0


def test_rank_transpose_invariance():
    rng = random.Random(0x5EED01)
    for _ in range(100):
        m = rand_mat(F3, rng.randrange(1, 5), rng.randrange(1, 5), rng)
        assert rank(m) == rank(m.T)


def test_right_nullspace():
    assert right_nullspace(Mat.identity(F3, 2)) == []
    basis = right_nullspace(Mat.zeros(F3, 2, 2))
    assert len(basis) == 2
    m = Mat.from_rows(F3, [[1, 2], [2, 4]])
    basis = right_nullspace(m)
    assert len(basis) == 1
    assert (m @ basis[0]).is_zero()
    # 0x3 matrix has full nullspace
    assert len(right_nullspace(Mat.zeros(F3, 0, 3))) == 3


def test_left_nullspace():
    m = Mat.from_rows(F3, [[0, 1], [0, 0]])
    basis = left_nullspace(m)
    assert len(basis) == 1
    u = basis[0]
    assert (u.rows, u.cols) == (1, 2)
    assert [e.coeffs[0] for e in u.entries] == [0, 1]
    assert (u @ m).is_zero()


def test_nullspace_random_membership():
    rng = random.Random(0x5EED02)
    for _ in range(100):
        m = rand_mat(F5, rng.randrange(1, 5), rng.randrange(1, 5), rng)
        rbasis = right_nullspace(m)
        assert rank(m) + len(rbasis) == m.cols
        for v in rbasis:
            assert (m @ v).is_zero()
        for u in left_nullspace(m):
            assert (u @ m).is_zero()
        # echelon basis vectors are independent by construction
        if rbasis:
            stacked = hstack(rbasis)
            assert rank(stacked) == len(rbasis)


# -- Kronecker and vec ---------------------------------------------------------


def test_kron_examples():
    assert kron(Mat.identity(F2, 2), Mat.identity(F2, 3)) == Mat.identity(F2, 6)
    c = Mat.from_rows(F5, [[3]])
    b = Mat.from_rows(F5, [[1, 2], [0, 4]])
    assert kron(c, b) == b.scale(F5.elem(3))
    a = Mat.from_rows(F5, [[0, 1], [2, 0]])
    k = kron(a, b)
    assert (k.rows, k.cols) == (4, 4)
    assert k[0, 2] == F5.one  # a[0,1] * b[0,0]
    assert k[2, 1] == F5.elem(4)  # a[1,0] * b[0,1]


def test_kron_mixed_product():
    rng = random.Random(0x5EED03)
    for _ in range(200):
        ra, ka, ca = (rng.randrange(1, 4) for _ in range(3))
        rb, kb, cb = (rng.randrange(1, 4) for _ in range(3))
        a = rand_mat(F5, ra, ka, rng)
        c = rand_mat(F5, ka, ca, rng)
        b = rand_mat(F5, rb, kb, rng)
        d = rand_mat(F5, kb, cb, rng)
        assert kron(a, b) @ kron(c, d) == kron(a @ c, b @ d)


def test_vec_column_stacking():
    m = Mat.from_rows(F5, [[1, 2], [3, 4]])
    assert [e.coeffs[0] for e in vec(m).entries] == [1, 3, 2, 4]
    assert unvec(vec(m), 2, 2) == m
    with pytest.raises(DimensionMismatch):
        unvec(vec(m), 3, 2)


def test_vec_kron_identity():
    # vec(M X N) = (N^T kron M) vec(X)
    rng = random.Random(0x5EED04)
    for _ in range(200):
        r, s, t, u = (rng.randrange(1, 4) for _ in range(4))
        m = rand_mat(F3, r, s, rng)
        x = rand_mat(F3, s, t, rng)
        n = rand_mat(F3, t, u, rng)
        assert vec(m @ x @ n) == kron(n.T, m) @ vec(x)


# -- characteristic polynomial ---------------------------------------------


def test_charpoly_examples():
    assert charpoly(Mat.zeros(F3, 2, 2)) == Poly.from_ints(F3, [0, 0, 1])
    d = Mat.from_rows(F5, [[2, 0], [0, 3]])
    expect = Poly.from_ints(F5, [1, 0, 1])  # (x-2)(x-3) = x^2 - 5x + 6 = x^2 + 1
    assert charpoly(d) == expect
    assert charpoly(Mat.zeros(F5, 0, 0)) == Poly.one(F5)
    with pytest.raises(NotSquare):
        charpoly(Mat.zeros(F3, 2, 3))


def test_charpoly_companion_roundtrip():
    rng = random.Random(0x5EED05)
    for field in (F2, F5):
        for _ in range(50):
            f = rand_monic(field, rng.randrange(1, 7), rng)
            m = companion(f)
            assert charpoly(m) == f
            assert minpoly(m) == f  # companion matrices are cyclic
            assert is_cyclic(m)


def test_charpoly_against_leibniz():
    rng = random.Random(0x5EED06)
    f4 = canonical_field(2, 2)
    for field in (F2, F3, F5, f4):
        for _ in range(25):
            n = rng.randrange(1, 5)
            m = rand_mat(field, n, n, rng)
            got = charpoly(m)
            assert got == charpoly_leibniz(m)
            assert got.is_monic() and got.degree == n


def test_cayley_hamilton():
    rng = random.Random(0x5EED07)
    for _ in range(500):
        field = (F2, F3, F5)[rng.randrange(3)]
        n = rng.randrange(1, 6)
        m = rand_mat(field, n, n, rng)
        assert poly_at_matrix(charpoly(m), m).is_zero()


# -- minimal polynomial and cyclicity ------------------------------------------


def test_minpoly_examples():
    assert minpoly(Mat.identity(F3, 2)) == Poly.from_ints(F3, [2, 1])  # x - 1
    nil = Mat.from_rows(F2, [[0, 1], [0, 0]])
    assert minpoly(nil) == Poly.from_ints(F2, [0, 0, 1])
    d = Mat.from_rows(F5, [[1, 0, 0], [0, 1, 0], [0, 0, 2]])
    assert minpoly(d) == Poly.from_ints(F5, [4, 1]) * Poly.from_ints(F5, [3, 1])
    with pytest.raises(NotSquare):
        minpoly(Mat.zeros(F3, 1, 2))


def block_diag(*blocks):
    field = blocks[0].field
    n = sum(b.rows for b in blocks)
    rows = [[field.zero] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i in range(b.rows):
            rows[off + i][off : off + b.cols] = b.row(i)
        off += b.rows
    return Mat.from_rows(field, rows)


def test_minpoly_divides_charpoly():
    rng = random.Random(0x5EED08)
    mats = []
    for _ in range(200):
        field = (F2, F3)[rng.randrange(2)]
        n = rng.randrange(1, 5)
        mats.append(rand_mat(field, n, n, rng))
    # factors whose exponent in the minimal polynomial is below their
    # multiplicity: repeated blocks, scalars and nilpotent shifts
    for field in (F2, F3, canonical_field(2, 2), canonical_field(3, 2)):
        for n in range(1, 4):
            blk = rand_mat(field, n, n, rng)
            shift = companion(Poly.from_ints(field, [0] * n + [1]))
            mats += [
                rand_mat(field, n + 1, n + 1, rng),
                block_diag(blk, blk),
                block_diag(blk, blk, rand_mat(field, 1, 1, rng)),
                Mat.identity(field, n + 1).scale(field.random_elem(rng)),
                block_diag(shift, shift),
                block_diag(companion(Poly.from_ints(field, [0] * (n + 1) + [1])), shift),
            ]
    strict = 0
    for m in mats:
        mu, chi = minpoly(m), charpoly(m)
        assert mu.is_monic() and (chi % mu).is_zero()
        assert poly_at_matrix(mu, m).is_zero()
        for g, _ in factor(mu):
            assert not poly_at_matrix(mu // g, m).is_zero()  # minimal
        strict += mu.degree < chi.degree
    assert strict >= 60  # five of the six structured kinds, at least


def test_is_cyclic_examples():
    assert is_cyclic(companion(Poly.from_ints(F2, [1, 1, 1])))
    assert not is_cyclic(Mat.identity(F2, 2))
    assert is_cyclic(Mat.from_rows(F2, [[0, 0], [1, 0]]))
    assert is_cyclic(Mat.zeros(F3, 1, 1))
    with pytest.raises(NotSquare):
        is_cyclic(Mat.zeros(F3, 3, 2))


def test_cyclic_iff_simple_eigenspaces():
    # exhaustive 2x2 check over the two smallest prime fields
    for field in (F2, F3):
        q = field.order
        for bits in range(q ** 4):
            vals, rest = [], bits
            for _ in range(4):
                rest, v = divmod(rest, q)
                vals.append(v)
            m = Mat.from_rows(field, [vals[:2], vals[2:]])
            ed = eigen_data(m)
            assert is_cyclic(m) == all(it.geom_mult == 1 for it in ed.items)


def test_poly_at_matrix_values():
    m = Mat.from_rows(F3, [[0, 1], [2, 0]])
    f = Poly.from_ints(F3, [1, 0, 1])  # x^2 + 1 = charpoly here
    assert poly_at_matrix(f, m).is_zero()
    assert poly_at_matrix(Poly.one(F3), m) == Mat.identity(F3, 2)
    assert poly_at_matrix(Poly.zero(F3), m).is_zero()
    with pytest.raises(FieldMismatch):
        poly_at_matrix(Poly.one(F5), m)


# -- eigen data ------------------------------------------------------------------


def test_eigen_data_nilpotent():
    m = Mat.from_rows(F2, [[0, 0], [1, 0]])
    ed = eigen_data(m)
    assert ed.field is F2 and ed.dim == 2
    assert len(ed.items) == 1
    it = ed.items[0]
    assert it.value.is_zero()
    assert (it.alg_mult, it.geom_mult) == (2, 1)
    # u M = (u1, 0) so the left kernel is spanned by (1, 0); M v = (0, v0)^T
    assert [e.coeffs[0] for e in it.left_basis[0].entries] == [1, 0]
    assert [e.coeffs[0] for e in it.right_basis[0].entries] == [0, 1]


def test_eigen_data_identity():
    ed = eigen_data(Mat.identity(F3, 2))
    assert len(ed.items) == 1
    assert ed.items[0].alg_mult == 2 and ed.items[0].geom_mult == 2
    assert ed.items[0].value == F3.one


def test_eigen_data_splitting_field():
    m = companion(Poly.from_ints(F2, [1, 1, 1]))
    ed = eigen_data(m)
    assert ed.field.order == 4
    assert len(ed.items) == 2
    vals = {it.value for it in ed.items}
    assert len(vals) == 2
    for it in ed.items:
        # both roots satisfy x^2 = x + 1
        assert it.value * it.value == it.value + ed.field.one
        assert (it.alg_mult, it.geom_mult) == (1, 1)
    assert splitting_degree_over_prime(m) == 2


def test_eigen_items_in_larger_field():
    m = companion(Poly.from_ints(F2, [1, 1, 1]))
    f16 = canonical_field(2, 4)
    items = eigen_items_in(m, f16)
    m16 = embed_mat(m, f16)
    for it in items:
        for u in it.left_basis:
            assert u @ m16 == u.scale(it.value)
        for v in it.right_basis:
            assert m16 @ v == v.scale(it.value)
    assert {it.value for it in items} == {
        embed(it.value, f16) for it in eigen_data(m).items
    }


def test_rank_invariant_under_embedding():
    # Over a prime field rank and @ compute on ints (GF(2) rows packed into
    # ints); embedded in GF(p^2) the same matrices take the Elem path.
    rng = random.Random(0x5EED09)
    f4 = canonical_field(2, 2)
    for _ in range(60):
        m = rand_mat(F2, rng.randrange(1, 5), rng.randrange(1, 5), rng)
        assert rank(embed_mat(m, f4)) == rank(m)
    pairs = []  # (a, b) with a @ b defined
    for p in (2, 3, 46337):
        f = make_prime_field(p)
        for _ in range(25):
            # low-rank products as well as random matrices; 0 dimensions too
            r, k, c, inner = (rng.randrange(0, 7) for _ in range(4))
            a = rand_mat(f, r, inner, rng) @ rand_mat(f, inner, k, rng)
            pairs.append((a, rand_mat(f, k, c, rng)))
    # GF(2) rows wider than one 64-bit word once packed
    wide = rand_mat(F2, 30, 7, rng) @ rand_mat(F2, 7, 130, rng)
    pairs.append((wide, rand_mat(F2, 130, 3, rng)))
    pairs.append((rand_mat(F2, 80, 90, rng), rand_mat(F2, 90, 2, rng)))
    pairs.append((rand_mat(F2, 20, 100, rng), rand_mat(F2, 100, 70, rng)))
    for a, b in pairs:
        ext = canonical_field(a.field.p, 2)
        a_e, b_e = embed_mat(a, ext), embed_mat(b, ext)
        assert rank(a_e) == rank(a)
        assert rank(a_e.T) == rank(a.T)
        assert a_e @ b_e == embed_mat(a @ b, ext)
    assert rank(wide) <= 7 and rank(pairs[-2][0]) > 64
    # GF(p^2) exceeds the order bound for these p: compare with Elem dot
    # products and the Elem elimination behind right_nullspace.  All
    # entries p - 1 make the unreduced dot products exceed 2^32 (65521)
    # and 2^64 (2^31 - 1).
    for p, bound in ((65521, 2**32), (2**31 - 1, 2**64)):
        f = make_prime_field(p)
        top = f.elem(p - 1)
        assert 8 * (p - 1) ** 2 > bound
        full = Mat(f, 3, 8, (top,) * 24)
        cases = [(full, full.T)]
        for _ in range(10):
            r, k, c, inner = (rng.randrange(0, 7) for _ in range(4))
            a = rand_mat(f, r, inner, rng) @ rand_mat(f, inner, k, rng)
            cases.append((a, rand_mat(f, k, c, rng)))
        for a, b in cases:
            assert rank(a) == a.cols - len(right_nullspace(a))
            prod = a @ b
            for i in range(a.rows):
                for j in range(b.cols):
                    want = sum((x * y for x, y in zip(a.row(i), b.col(j))), f.zero)
                    assert prod[i, j] == want
        assert (full @ full.T)[0, 0] == f.elem(8)
