"""Checks of matspan's answers that share no code with matspan.

Everything here works on plain Python ints.  A prime-field element is an
int in [0, p); an element of F_p[x]/(m) is a tuple of deg(m) ints,
constant term first.  Matrices are lists of rows.

- ``products_rank``: rank of the mn x mn products matrix over F_p, or
  over F_p[x]/(m) when a modulus is given.
- ``check_witness``: a violating pair checked by substitution.
- ``splitting_degree``: degree over F_p of the splitting field of a
  matrix's characteristic polynomial, used to pick inputs.
"""

from __future__ import annotations

import math
from itertools import product


class CheckFailed(Exception):
    """An answer of the program disagrees with an independent check."""


# -- polynomials over F_p: int lists, constant term first, no trailing zeros


def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _psub(a, b, p):
    n = max(len(a), len(b))
    a = list(a) + [0] * (n - len(a))
    b = list(b) + [0] * (n - len(b))
    return _trim([(x - y) % p for x, y in zip(a, b)])


def _pmul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim([c % p for c in out])


def _pdivmod(a, b, p):
    a = _trim([c % p for c in a])
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    q = [0] * max(len(a) - db, 0)
    while a and len(a) - 1 >= db:
        k = len(a) - 1 - db
        c = a[-1] * inv % p
        q[k] = c
        for i, bc in enumerate(b):
            a[k + i] = (a[k + i] - c * bc) % p
        _trim(a)
    return _trim(q), a


def _pgcd(a, b, p):
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        a, b = b, _pdivmod(a, b, p)[1]
    if not a:
        return a
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _ppow_mod(a, e, f, p):
    result = [1]
    a = _pdivmod(a, f, p)[1]
    while e:
        if e & 1:
            result = _pdivmod(_pmul(result, a, p), f, p)[1]
        a = _pdivmod(_pmul(a, a, p), f, p)[1]
        e >>= 1
    return result


def charpoly(rows, p):
    """det(xI - M) over F_p: Hessenberg reduction, then the recurrence on
    the leading principal minors."""
    n = len(rows)
    h = [[x % p for x in r] for r in rows]
    for j in range(n - 2):
        piv = next((i for i in range(j + 1, n) if h[i][j]), None)
        if piv is None:
            continue
        if piv != j + 1:
            h[piv], h[j + 1] = h[j + 1], h[piv]
            for r in h:
                r[piv], r[j + 1] = r[j + 1], r[piv]
        inv = pow(h[j + 1][j], -1, p)
        for i in range(j + 2, n):
            t = h[i][j] * inv % p
            if t:
                h[i] = [(x - t * y) % p for x, y in zip(h[i], h[j + 1])]
                for r in h:
                    r[j + 1] = (r[j + 1] + t * r[i]) % p
    minors = [[1]]
    for k in range(n):
        cur = _pmul([-h[k][k] % p, 1], minors[k], p)
        prod = 1
        for i in range(k - 1, -1, -1):
            prod = prod * h[i + 1][i] % p
            if not prod:
                break
            c = h[i][k] * prod % p
            if c:
                cur = _psub(cur, [c * x for x in minors[i]], p)
        minors.append(cur)
    return minors[n]


def splitting_degree(rows, p):
    """Smallest d such that every eigenvalue of the matrix lies in F_{p^d}.

    Step d strips from the characteristic polynomial every irreducible
    factor of degree d, all multiplicities included; the answer is the lcm
    of the degrees met.
    """
    f = charpoly(rows, p)
    rest = list(f)
    xp = [0, 1]
    degrees = []
    d = 0
    while len(rest) > 1:
        d += 1
        xp = _ppow_mod(xp, p, f, p)
        g = _pgcd(rest, _psub(xp, [0, 1], p), p)
        if len(g) > 1:
            degrees.append(d)
            while len(g) > 1:
                rest = _pdivmod(rest, g, p)[0]
                g = _pgcd(rest, g, p)
    return math.lcm(*degrees) if degrees else 1


# -- arithmetic in F_p[x]/(m) ----------------------------------------------


class ExtField:
    """F_p[x]/(m) for a monic modulus m given constant term first; with
    m = None it is the prime field, elements still being 1-tuples."""

    def __init__(self, p, modulus=None):
        self.p = p
        self.modulus = None if modulus is None else tuple(modulus)
        self.degree = 1 if modulus is None else len(modulus) - 1
        self.zero = (0,) * self.degree
        self.one = (1,) + (0,) * (self.degree - 1)

    def elem(self, value):
        """An int (prime field) or a coefficient list, as a tuple."""
        if isinstance(value, int):
            return (value % self.p,) + (0,) * (self.degree - 1)
        out = tuple(int(c) % self.p for c in value)
        if len(out) != self.degree:
            raise CheckFailed(f"element {value!r} has the wrong length")
        return out

    def add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def sub(self, a, b):
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def mul(self, a, b):
        p, d = self.p, self.degree
        if d == 1:
            return (a[0] * b[0] % p,)
        prod = [0] * (2 * d - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        m = self.modulus
        for k in range(2 * d - 2, d - 1, -1):
            c = prod[k] % p
            if c:
                for i in range(d + 1):
                    prod[k - d + i] -= c * m[i]
        return tuple(c % p for c in prod[:d])

    def inv(self, a):
        if not any(a):
            raise ZeroDivisionError("inverse of zero")
        # a^(q - 2) = a^(-1) in a field of order q
        e = self.p ** self.degree - 2
        acc, base = self.one, a
        while e:
            if e & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            e >>= 1
        return acc

    def elements(self):
        return product(range(self.p), repeat=self.degree)


def _matmul(field, a, b):
    cols = len(b[0])
    out = []
    for row in a:
        out_row = []
        for j in range(cols):
            acc = field.zero
            for t, x in enumerate(row):
                if any(x):
                    acc = field.add(acc, field.mul(x, b[t][j]))
            out_row.append(acc)
        out.append(out_row)
    return out


def _rank_gf2(rows):
    pivots = {}
    for row in rows:
        r = 0
        for j, x in enumerate(row):
            if x:
                r |= 1 << j
        while r:
            top = r.bit_length() - 1
            if top not in pivots:
                pivots[top] = r
                break
            r ^= pivots[top]
    return len(pivots)


def _rank_mod_p(rows, p):
    rows = [list(r) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        prow = [x * inv % p for x in rows[rank][c:]]
        for i in range(rank + 1, len(rows)):
            t = rows[i][c]
            if t:
                rows[i][c:] = [(x - t * y) % p for x, y in zip(rows[i][c:], prow)]
        rank += 1
    return rank


def rank(field, rows):
    """Rank of a matrix of field elements (tuples) by elimination."""
    if field.degree == 1:
        ints = [[x[0] for x in r] for r in rows]
        return _rank_gf2(ints) if field.p == 2 else _rank_mod_p(ints, field.p)
    rows = [list(r) for r in rows]
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if any(rows[i][c])), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = field.inv(rows[r][c])
        prow = [field.mul(x, inv) for x in rows[r]]
        for i in range(r + 1, len(rows)):
            t = rows[i][c]
            if any(t):
                rows[i] = [field.sub(x, field.mul(t, y)) for x, y in zip(rows[i], prow)]
        r += 1
    return r


def _matmul_mod_p(a, b, p):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) % p for col in bt] for row in a]


def products_rank(field, a, b, s):
    """Rank of the matrix whose columns are vec(A^i S B^j), 0 <= i < m,
    0 <= j < n.  a, b, s are lists of rows of field elements (tuples)."""
    m, n = len(a), len(b)
    prime = field.degree == 1
    if prime:
        a, b, s = ([[x[0] for x in row] for row in mat] for mat in (a, b, s))

    def mul(x, y):
        return _matmul_mod_p(x, y, field.p) if prime else _matmul(field, x, y)

    cols = []
    sj = s
    for j in range(n):
        if j:
            sj = mul(sj, b)
        t = sj
        for i in range(m):
            if i:
                t = mul(a, t)
            cols.append([t[r][c] for c in range(n) for r in range(m)])
    if not prime:
        return rank(field, cols)
    return _rank_gf2(cols) if field.p == 2 else _rank_mod_p(cols, field.p)


# -- witnesses ------------------------------------------------------------


def _embeddings(src, dst):
    """Every image of src's generator in dst: the roots there of src's
    modulus, found by trying each element of dst in turn."""
    if src.degree == 1 or src.modulus == dst.modulus:
        return [None]
    if dst.degree % src.degree or dst.p ** dst.degree > 1 << 16:
        raise CheckFailed(f"no embedding search from degree {src.degree} "
                          f"into degree {dst.degree} over p={dst.p}")
    roots = []
    for cand in dst.elements():
        acc = dst.zero
        for c in reversed(src.modulus):
            acc = dst.add(dst.mul(acc, cand), dst.elem(c))
        if not any(acc):
            roots.append(cand)
    return roots


def _embed(src, dst, rho, x):
    if rho is None:
        return x + (0,) * (dst.degree - len(x)) if src.degree == 1 else x
    acc, power = dst.zero, dst.one
    for c in x:
        acc = dst.add(acc, dst.mul(dst.elem(c), power))
        power = dst.mul(power, rho)
    return acc


def check_witness(src, a, b, s, dst, alpha, beta, u, v, value):
    """Raise CheckFailed unless u != 0, v != 0, uA = alpha u, Bv = beta v
    and uSv = 0 = value, with A, B, S carried from src into dst.

    a, b, s hold src elements; alpha, beta, value, u (length m) and
    v (length n) hold dst elements.  Any embedding of src into dst will
    do, since each proves that the family does not span.
    """
    if not any(any(x) for x in u) or not any(any(x) for x in v):
        raise CheckFailed("witness has a zero eigenvector")
    if any(value):
        raise CheckFailed(f"witness reports uSv = {value}, not zero")
    problems = []
    for rho in _embeddings(src, dst):
        lift = [[[_embed(src, dst, rho, x) for x in row] for row in mat]
                for mat in (a, b, s)]
        a_e, b_e, s_e = lift
        ua = _matmul(dst, [u], a_e)[0]
        bv = [r[0] for r in _matmul(dst, b_e, [[x] for x in v])]
        usv = _matmul(dst, _matmul(dst, [u], s_e), [[x] for x in v])[0][0]
        if ua != [dst.mul(alpha, x) for x in u]:
            problems.append("uA != alpha u")
        elif bv != [dst.mul(beta, x) for x in v]:
            problems.append("Bv != beta v")
        elif any(usv):
            problems.append("uSv != 0")
        else:
            return
    raise CheckFailed("witness fails substitution: " + ", ".join(problems))
