"""Hand cases for the independent checks in oracle.py.

    python3 -m unittest discover -s benchmarks -p "test_*.py"
"""

from __future__ import annotations

import random
import unittest
from itertools import product

import oracle

F2 = oracle.ExtField(2)
F3 = oracle.ExtField(3)
F4 = oracle.ExtField(2, (1, 1, 1))        # x^2 + x + 1
F16 = oracle.ExtField(2, (1, 1, 0, 0, 1))  # x^4 + x + 1


def elems(field, rows):
    return [[field.elem(x) for x in row] for row in rows]


def shift(field, m, n):
    """A shifts down, B shifts up, S is the (0, 0) unit: the products are
    exactly the matrix units."""
    a = [[1 if i == j + 1 else 0 for j in range(m)] for i in range(m)]
    b = [[1 if j == i + 1 else 0 for j in range(n)] for i in range(n)]
    s = [[1 if (i, j) == (0, 0) else 0 for j in range(n)] for i in range(m)]
    return elems(field, a), elems(field, b), elems(field, s)


def brute_span_size(a, b, s):
    """Number of distinct sums of subsets of {A^i S B^j} over GF(2)."""
    def mul(x, y):
        return tuple(tuple(sum(x[i][t] * y[t][j] for t in range(len(y))) % 2
                           for j in range(len(y[0]))) for i in range(len(x)))
    prods = []
    sj = s
    for j in range(2):
        t = sj
        for i in range(2):
            prods.append(t)
            t = mul(a, t)
        sj = mul(sj, b)
    sums = set()
    for mask in product((0, 1), repeat=len(prods)):
        acc = [[0, 0], [0, 0]]
        for bit, mat in zip(mask, prods):
            if bit:
                acc = [[(acc[i][j] + mat[i][j]) % 2 for j in range(2)] for i in range(2)]
        sums.add(tuple(map(tuple, acc)))
    return len(sums)


class ProductsRank(unittest.TestCase):
    def test_shift_instances_span(self):
        for field in (F2, F3, oracle.ExtField(101), F4):
            for m, n in ((1, 1), (2, 3), (4, 2), (3, 3)):
                with self.subTest(p=field.p, degree=field.degree, m=m, n=n):
                    self.assertEqual(oracle.products_rank(field, *shift(field, m, n)), m * n)

    def test_zero_middle_matrix_spans_nothing(self):
        for field in (F2, F3, F4):
            a, b, _ = shift(field, 3, 2)
            s = elems(field, [[0, 0]] * 3)
            self.assertEqual(oracle.products_rank(field, a, b, s), 0)

    def test_brute_force_span_counts_gf2_2x2(self):
        mats = [((w, x), (y, z)) for w, x, y, z in product((0, 1), repeat=4)]
        for a, b, s in product(mats, repeat=3):
            rank = oracle.products_rank(F2, *(elems(F2, m) for m in (a, b, s)))
            self.assertEqual(2 ** rank, brute_span_size(a, b, s), (a, b, s))

    def test_rank_over_gf4(self):
        w = (0, 1)  # the class of x, a root of x^2 + x + 1
        w2 = F4.mul(w, w)
        self.assertEqual(w2, (1, 1))
        self.assertEqual(oracle.rank(F4, [[F4.one, w], [w, w2]]), 1)
        self.assertEqual(oracle.rank(F4, [[F4.one, w], [w, F4.one]]), 2)
        self.assertEqual(F4.mul(w, F4.inv(w)), F4.one)

    def test_prime_entries_rank_the_same_in_an_extension(self):
        rng = random.Random(5)
        for _ in range(20):
            rows = [[rng.randrange(2) for _ in range(5)] for _ in range(4)]
            self.assertEqual(oracle.rank(F2, elems(F2, rows)),
                             oracle.rank(F16, elems(F16, rows)))


class SplittingDegree(unittest.TestCase):
    @staticmethod
    def companion(coeffs, p):
        """Companion matrix of the monic polynomial with the given lower
        coefficients, constant term first."""
        n = len(coeffs)
        return [[1 if i == j + 1 else 0 for j in range(n - 1)] + [-coeffs[i] % p]
                for i in range(n)]

    def test_known_polynomials_over_gf2(self):
        cases = (
            ((1, 1), 2),               # x^2 + x + 1
            ((1, 1, 0), 3),            # x^3 + x + 1
            ((1, 0, 1, 1, 1), 5),      # x^5 + x^4 + x^3 + x^2 + 1
            ((0, 1), 1),               # x^2 + x = x(x + 1)
            ((1, 0, 1, 0), 2),         # x^4 + x^2 + 1 = (x^2 + x + 1)^2
        )
        for coeffs, want in cases:
            with self.subTest(coeffs=coeffs):
                self.assertEqual(oracle.splitting_degree(self.companion(coeffs, 2), 2), want)

    def test_product_of_coprime_degrees(self):
        # (x^2 + x + 1)(x^3 + x + 1) = x^5 + x^4 + 1 over GF(2)
        self.assertEqual(oracle.splitting_degree(self.companion((1, 0, 0, 0, 1), 2), 2), 6)

    def test_diagonal_and_identity(self):
        self.assertEqual(oracle.splitting_degree([[1, 0], [0, 2]], 3), 1)
        self.assertEqual(oracle.splitting_degree([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 5), 1)

    def test_charpoly_matches_determinants(self):
        p = 7
        rng = random.Random(3)
        for _ in range(30):
            a = [[rng.randrange(p) for _ in range(3)] for _ in range(3)]
            chi = oracle.charpoly(a, p)
            self.assertEqual(len(chi), 4)
            for t in range(p):
                m = [[(t if i == j else 0) - a[i][j] for j in range(3)] for i in range(3)]
                det = (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                       - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                       + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])) % p
                value = sum(c * t ** k for k, c in enumerate(chi)) % p
                self.assertEqual(value, det)


class Witness(unittest.TestCase):
    def test_diagonal_witness_over_gf3(self):
        a = elems(F3, [[1, 0], [0, 2]])
        b = elems(F3, [[1, 0], [0, 2]])
        s = elems(F3, [[0, 1], [1, 0]])
        one, zero, two = F3.elem(1), F3.elem(0), F3.elem(2)
        oracle.check_witness(F3, a, b, s, F3, one, one, [one, zero], [one, zero], zero)
        bad = [
            (two, one, [one, zero], [one, zero], zero),    # wrong alpha
            (one, one, [zero, zero], [one, zero], zero),   # u = 0
            (one, two, [one, zero], [zero, one], zero),    # uSv = 1
            (one, one, [one, zero], [one, zero], one),     # reported value not 0
        ]
        for case in bad:
            with self.subTest(case=case), self.assertRaises(oracle.CheckFailed):
                oracle.check_witness(F3, a, b, s, F3, *case)

    def test_prime_instance_with_witness_in_gf4(self):
        # A = companion(x^2 + x + 1) has eigenvalues w, w^2 in GF(4); with
        # S = 0 every eigenvector pair is a witness
        a = elems(F2, [[0, 1], [1, 1]])
        s = elems(F2, [[0, 0], [0, 0]])
        a4 = elems(F4, [[0, 1], [1, 1]])
        pairs = []
        for u in product(F4.elements(), repeat=2):
            if not any(any(x) for x in u):
                continue
            ua = [F4.add(F4.mul(u[0], a4[0][j]), F4.mul(u[1], a4[1][j])) for j in range(2)]
            for lam in F4.elements():
                if ua == [F4.mul(lam, x) for x in u]:
                    pairs.append((lam, list(u)))
        self.assertTrue(pairs)
        lam, u = pairs[0]
        oracle.check_witness(F2, a, a, s, F4, lam, lam, u, u, F4.zero)
        s1 = elems(F2, [[1, 0], [0, 1]])
        with self.assertRaises(oracle.CheckFailed):
            oracle.check_witness(F2, a, a, s1, F4, lam, lam, u, u, F4.zero)

    def test_extension_instance_embeds_into_gf16(self):
        # over GF(4): A = diag(w, 1), B = [1], S = (0, 1)^T; u = e_0 with
        # alpha = an image of w in GF(16), v = 1, beta = 1, uSv = 0
        w = (0, 1)
        a = [[w, F4.zero], [F4.zero, F4.one]]
        b = [[F4.one]]
        s = [[F4.zero], [F4.one]]
        roots = [c for c in F16.elements()
                 if not any(F16.add(F16.add(F16.mul(c, c), c), F16.one))]
        self.assertEqual(len(roots), 2)
        for rho in roots:
            oracle.check_witness(F4, a, b, s, F16, rho, F16.one,
                                 [F16.one, F16.zero], [F16.one], F16.zero)
        with self.assertRaises(oracle.CheckFailed):
            oracle.check_witness(F4, a, b, s, F16, F16.one, F16.one,
                                 [F16.one, F16.zero], [F16.one], F16.zero)


if __name__ == "__main__":
    unittest.main()
