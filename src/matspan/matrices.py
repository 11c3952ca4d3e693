"""Exact dense linear algebra over finite fields.

Matrices are immutable, own a field, and may be empty (zero rows or
columns); ranks and nullspaces of empty matrices follow the usual
conventions.  Eigenvalue data is computed exactly in a splitting field
built over the same prime field.  The minimal polynomial, cyclicity and
eigen data all rest on one factorization of the characteristic
polynomial, and every elimination over an extension field is `_rref`.

`Mat` and `Elem` are the public boundary, but over a prime field `@` and
`rank` compute on the entries as plain ints in [0, p): a product takes
one reduction per output entry, after the whole dot product, and rank
eliminates on int rows, over GF(2) with each row packed into one int and
reduced by XOR.  Extension fields use the `Elem` arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from operator import mul
from typing import Iterable, Sequence

from .errors import (
    DimensionMismatch,
    FieldMismatch,
    NotSquare,
    SelfCheckError,
    ZeroPolynomial,
)
from .fields import Elem, Field
from .polys import (
    Poly,
    _factor_default,
    _roots_of_irreducible,
    canonical_field,
    embed,
)


class Mat:
    """A rows x cols matrix with entries in one field, stored row-major."""

    __slots__ = ("field", "rows", "cols", "entries", "_key")

    def __init__(self, field: Field, rows: int, cols: int, entries: tuple):
        if len(entries) != rows * cols:
            raise DimensionMismatch(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}"
            )
        self.field = field
        self.rows = rows
        self.cols = cols
        self.entries = entries
        self._key = None

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_rows(cls, field: Field, rows: Sequence[Sequence]) -> "Mat":
        r = len(rows)
        c = len(rows[0]) if r else 0
        ents = []
        for row in rows:
            if len(row) != c:
                raise DimensionMismatch("ragged rows")
            for v in row:
                ents.append(field.elem(v))
        return cls(field, r, c, tuple(ents))

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "Mat":
        return cls(field, rows, cols, (field.zero,) * (rows * cols))

    @classmethod
    def identity(cls, field: Field, n: int) -> "Mat":
        z, o = field.zero, field.one
        ents = [z] * (n * n)
        for i in range(n):
            ents[i * n + i] = o
        return cls(field, n, n, tuple(ents))

    @classmethod
    def unit(cls, field: Field, rows: int, cols: int, i: int, j: int) -> "Mat":
        ents = [field.zero] * (rows * cols)
        ents[i * cols + j] = field.one
        return cls(field, rows, cols, tuple(ents))

    @classmethod
    def row_vec(cls, field: Field, values: Sequence) -> "Mat":
        return cls.from_rows(field, [list(values)])

    @classmethod
    def col_vec(cls, field: Field, values: Sequence) -> "Mat":
        return cls.from_rows(field, [[v] for v in values])

    # -- access ----------------------------------------------------------

    def __getitem__(self, ij) -> Elem:
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry ({i}, {j}) of a {self.rows}x{self.cols} matrix")
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> tuple:
        return self.entries[j :: self.cols] if self.cols else ()

    def row_list(self):
        c = self.cols
        return [list(self.entries[i * c : (i + 1) * c]) for i in range(self.rows)]

    # -- arithmetic --------------------------------------------------------

    def _check(self, other):
        if not isinstance(other, Mat):
            raise TypeError(f"expected Mat, got {type(other).__name__}")
        if other.field is not self.field:
            raise FieldMismatch(f"mixing matrices over {self.field} and {other.field}")

    def __add__(self, other):
        self._check(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch(
                f"adding {self.rows}x{self.cols} and {other.rows}x{other.cols}"
            )
        return Mat(
            self.field,
            self.rows,
            self.cols,
            tuple(a + b for a, b in zip(self.entries, other.entries)),
        )

    def __sub__(self, other):
        self._check(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch(
                f"subtracting {self.rows}x{self.cols} and {other.rows}x{other.cols}"
            )
        return Mat(
            self.field,
            self.rows,
            self.cols,
            tuple(a - b for a, b in zip(self.entries, other.entries)),
        )

    def __neg__(self):
        return Mat(self.field, self.rows, self.cols, tuple(-a for a in self.entries))

    def __matmul__(self, other):
        self._check(other)
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"multiplying {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        n, k, m = self.rows, self.cols, other.cols
        field = self.field
        if field.degree == 1:
            p = field.p
            a, b = _residues(self), _residues(other)
            arows = [a[i * k : (i + 1) * k] for i in range(n)]
            bcols = [b[j::m] for j in range(m)]
            out = [
                Elem(field, (sum(map(mul, row, col)) % p,))
                for row in arows
                for col in bcols
            ]
            return Mat(field, n, m, tuple(out))
        zero = field.zero
        a, b = self.entries, other.entries
        out = []
        for i in range(n):
            arow = a[i * k : (i + 1) * k]
            for j in range(m):
                acc = zero
                for t in range(k):
                    x = arow[t]
                    if x:
                        acc = acc + x * b[t * m + j]
                out.append(acc)
        return Mat(field, n, m, tuple(out))

    def scale(self, c: Elem) -> "Mat":
        if c.field is not self.field:
            raise FieldMismatch("scalar from a different field")
        return Mat(self.field, self.rows, self.cols, tuple(c * a for a in self.entries))

    def __pow__(self, e: int):
        if self.rows != self.cols:
            raise NotSquare("powers need a square matrix")
        if e < 0:
            raise ValueError("matrix powers take non-negative exponents")
        acc = Mat.identity(self.field, self.rows)
        base = self
        while e:
            if e & 1:
                acc = acc @ base
            base = base @ base
            e >>= 1
        return acc

    @property
    def T(self) -> "Mat":
        out = []
        for j in range(self.cols):
            for i in range(self.rows):
                out.append(self.entries[i * self.cols + j])
        return Mat(self.field, self.cols, self.rows, tuple(out))

    def is_zero(self) -> bool:
        return all(e.is_zero() for e in self.entries)

    def _check_entries(self):
        field = self.field
        for e in self.entries:
            if e.field is not field:
                raise FieldMismatch(f"entry of {e.field} in a matrix over {field}")

    def key(self):
        """(field token, shape, coefficients): what ==, hash and the memo
        caches compare, so an entry of another field raises here."""
        if self._key is None:
            self._check_entries()
            flat = tuple(c for e in self.entries for c in e.coeffs)
            self._key = (self.field.token, self.rows, self.cols, flat)
        return self._key

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"Mat({self.rows}x{self.cols} over {self.field})"


def hstack(mats: Sequence[Mat]) -> Mat:
    if not mats:
        raise ValueError("hstack of nothing")
    field, rows = mats[0].field, mats[0].rows
    for m in mats[1:]:
        if m.field is not field:
            raise FieldMismatch("hstack over different fields")
        if m.rows != rows:
            raise DimensionMismatch("hstack with differing row counts")
    out = []
    for i in range(rows):
        for m in mats:
            out.extend(m.row(i))
    return Mat(field, rows, sum(m.cols for m in mats), tuple(out))


def vstack(mats: Sequence[Mat]) -> Mat:
    if not mats:
        raise ValueError("vstack of nothing")
    field, cols = mats[0].field, mats[0].cols
    ents = []
    for m in mats:
        if m.field is not field:
            raise FieldMismatch("vstack over different fields")
        if m.cols != cols:
            raise DimensionMismatch("vstack with differing column counts")
        ents.extend(m.entries)
    return Mat(field, sum(m.rows for m in mats), cols, tuple(ents))


def embed_mat(m: Mat, target: Field) -> Mat:
    """Entrywise canonical embedding into an extension field."""
    if m.field is target:
        return m
    return Mat(target, m.rows, m.cols, tuple(embed(e, target) for e in m.entries))


def add_scalar(m: Mat, c: Elem) -> Mat:
    """M + cI for a square M; add_scalar(-M, lam) is the shift lam*I - M."""
    n = m.rows
    ents = list(m.entries)
    for i in range(n):
        ents[i * n + i] = ents[i * n + i] + c
    return Mat(m.field, n, n, tuple(ents))


# -- elimination -----------------------------------------------------------


def _residues(m: Mat) -> list:
    """The entries of a prime-field matrix as ints in [0, p), row-major."""
    m._check_entries()
    return [e.coeffs[0] for e in m.entries]


def _rank_gf2(rows) -> int:
    """Rank of 0/1 int rows: each row packed into one int, reduced by XOR
    against stored rows with distinct lowest set bits."""
    pivots = {}
    for row in rows:
        v = int("".join(map(str, row)) or "0", 2)
        while v:
            low = v & -v
            b = pivots.get(low)
            if b is None:
                pivots[low] = v
                break
            v ^= b
    return len(pivots)


def _rank_mod_p(rows, ncols: int, p: int) -> int:
    """Rank of int rows over F_p by Gaussian elimination."""
    nrows = len(rows)
    r = 0
    for c in range(ncols):
        for piv in range(r, nrows):
            if rows[piv][c]:
                break
        else:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        # row i becomes row i + t * tail, with t its entry in column c
        inv = pow(prow[c], -1, p)
        tail = [-y * inv % p for y in prow[c:]]
        for i in range(r + 1, nrows):
            ri = rows[i]
            t = ri[c]
            if t:
                ri[c:] = [(x + t * y) % p for x, y in zip(ri[c:], tail)]
        r += 1
        if r == nrows:
            break
    return r


def rank(m: Mat) -> int:
    """Rank by exact Gaussian elimination."""
    if m.field.degree == 1:
        ents, c = _residues(m), m.cols
        rows = [ents[i * c : (i + 1) * c] for i in range(m.rows)]
        if m.field.p == 2:
            return _rank_gf2(rows)
        return _rank_mod_p(rows, c, m.field.p)
    return len(_rref(m.row_list(), m.cols))


def _rref(rows, ncols):
    """In-place reduced row echelon form; returns the pivot columns."""
    r = 0
    pivots = []
    for c in range(ncols):
        piv = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][c].inv()
        if not (inv.field.degree == 1 and inv.coeffs[0] == 1):
            rows[r] = [e * inv for e in rows[r]]
        prow = rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                t = rows[i][c]
                ri = rows[i]
                for j in range(c, ncols):
                    if prow[j]:
                        ri[j] = ri[j] - t * prow[j]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    del rows[r:]
    return pivots


def right_nullspace(m: Mat):
    """Basis of {v : Mv = 0} as column vectors, in reduced echelon form."""
    rows = m.row_list()
    pivots = _rref(rows, m.cols)
    pivset = set(pivots)
    free = [c for c in range(m.cols) if c not in pivset]
    field = m.field
    basis_rows = []
    for fc in free:
        v = [field.zero] * m.cols
        v[fc] = field.one
        for r_i, pc in enumerate(pivots):
            v[pc] = -rows[r_i][fc]
        basis_rows.append(v)
    _rref(basis_rows, m.cols)
    return [Mat.col_vec(field, v) for v in basis_rows]


def left_nullspace(m: Mat):
    """Basis of {u : uM = 0} as row vectors, in reduced echelon form."""
    return [v.T for v in right_nullspace(m.T)]


# -- Kronecker products and column stacking ---------------------------------


def kron(a: Mat, b: Mat) -> Mat:
    """Kronecker product: the block matrix of a's entries scaling b."""
    if a.field is not b.field:
        raise FieldMismatch("Kronecker product over different fields")
    ra, ca, rb, cb = a.rows, a.cols, b.rows, b.cols
    rows, cols = ra * rb, ca * cb
    zero = a.field.zero
    out = [zero] * (rows * cols)
    for i in range(ra):
        for j in range(ca):
            x = a.entries[i * ca + j]
            if not x:
                continue
            base = (i * rb) * cols + j * cb
            for k in range(rb):
                off = base + k * cols
                for l in range(cb):
                    y = b.entries[k * cb + l]
                    if y:
                        out[off + l] = x * y
    return Mat(a.field, rows, cols, tuple(out))


def vec(m: Mat) -> Mat:
    """Stack columns: entry (i, j) lands at position i + rows*j."""
    out = []
    for j in range(m.cols):
        for i in range(m.rows):
            out.append(m.entries[i * m.cols + j])
    return Mat(m.field, m.rows * m.cols, 1, tuple(out))


def unvec(x: Mat, rows: int, cols: int) -> Mat:
    """Inverse of vec for the given shape."""
    if x.cols != 1 or x.rows != rows * cols:
        raise DimensionMismatch(
            f"cannot reshape {x.rows}x{x.cols} into {rows}x{cols}"
        )
    out = []
    for i in range(rows):
        for j in range(cols):
            out.append(x.entries[i + rows * j])
    return Mat(x.field, rows, cols, tuple(out))


# -- characteristic and minimal polynomials ---------------------------------


def _hessenberg(m: Mat):
    """A similarity copy in upper Hessenberg form, as a row list."""
    n = m.rows
    h = m.row_list()
    for j in range(n - 2):
        piv = None
        for i in range(j + 1, n):
            if h[i][j]:
                piv = i
                break
        if piv is None:
            continue
        if piv != j + 1:
            h[piv], h[j + 1] = h[j + 1], h[piv]
            for row in h:
                row[piv], row[j + 1] = row[j + 1], row[piv]
        inv = h[j + 1][j].inv()
        for i in range(j + 2, n):
            t = h[i][j]
            if t:
                t = t * inv
                ri, rp = h[i], h[j + 1]
                for c in range(j, n):
                    if rp[c]:
                        ri[c] = ri[c] - t * rp[c]
                # the inverse column operation keeps similarity
                for r in range(n):
                    if h[r][i]:
                        h[r][j + 1] = h[r][j + 1] + t * h[r][i]
    return h


@lru_cache(maxsize=8192)
def charpoly(m: Mat) -> Poly:
    """det(xI - M), computed via Hessenberg reduction and the
    last-column expansion recurrence.  Monic of degree equal to the
    dimension; the empty matrix gives 1."""
    if m.rows != m.cols:
        raise NotSquare(f"characteristic polynomial of a {m.rows}x{m.cols} matrix")
    n = m.rows
    field = m.field
    if n == 0:
        return Poly.one(field)
    h = _hessenberg(m)
    polys = [Poly.one(field)]
    for k in range(1, n + 1):
        term = Poly(field, (-h[k - 1][k - 1], field.one)) * polys[k - 1]
        prod = field.one
        for i in range(k - 2, -1, -1):
            prod = prod * h[i + 1][i]
            if prod.is_zero():
                break
            c = h[i][k - 1] * prod
            if c:
                term = term - Poly.constant(c) * polys[i]
        polys.append(term)
    return polys[n]


@lru_cache(maxsize=8192)
def minpoly(m: Mat) -> Poly:
    """Minimal polynomial, from the factored characteristic polynomial.

    For a factor g of multiplicity k the kernel of g(M)^e grows with e
    until it is the whole generalized eigenspace, of dimension k*deg g;
    the exponent of g in the minimal polynomial is the least such e.
    """
    if m.rows != m.cols:
        raise NotSquare(f"minimal polynomial of a {m.rows}x{m.cols} matrix")
    n = m.rows
    result = Poly.one(m.field)
    for g, k in _factor_default(charpoly(m)):
        result = result * g
        if k > 1:
            gm = poly_at_matrix(g, m)
            power = gm
            while rank(power) != n - k * g.degree:
                power = power @ gm
                result = result * g
    return result


@lru_cache(maxsize=8192)
def is_cyclic(m: Mat) -> bool:
    """Whether the minimal polynomial equals the characteristic one."""
    if m.rows != m.cols:
        raise NotSquare(f"cyclicity of a {m.rows}x{m.cols} matrix")
    return minpoly(m).degree == m.rows


def poly_at_matrix(f: Poly, m: Mat) -> Mat:
    """Evaluate a polynomial at a square matrix by Horner's scheme."""
    if m.rows != m.cols:
        raise NotSquare("polynomial evaluation needs a square matrix")
    if f.field is not m.field:
        raise FieldMismatch("polynomial and matrix over different fields")
    n = m.rows
    acc = Mat.zeros(m.field, n, n)
    for c in reversed(f.coeffs):
        acc = acc @ m
        if c:
            acc = add_scalar(acc, c)
    return acc


def companion(f: Poly) -> Mat:
    """Companion matrix of a monic polynomial of degree at least 1."""
    if f.is_zero():
        raise ZeroPolynomial("companion of the zero polynomial")
    if not f.is_monic():
        raise ValueError("companion matrix needs a monic polynomial")
    n = f.degree
    if n < 1:
        raise ValueError("companion matrix needs degree at least 1")
    field = f.field
    ents = [field.zero] * (n * n)
    for i in range(1, n):
        ents[i * n + (i - 1)] = field.one
    for i in range(n):
        ents[i * n + (n - 1)] = -f.coeffs[i]
    return Mat(field, n, n, tuple(ents))


# -- eigenvalue data ---------------------------------------------------------


@dataclass(frozen=True)
class EigenItem:
    value: Elem
    alg_mult: int
    geom_mult: int
    left_basis: tuple
    right_basis: tuple


@dataclass(frozen=True)
class EigenData:
    dim: int
    field: Field  # the splitting field the items live in
    items: tuple


def _eigen_items_direct(m: Mat, ext: Field):
    """Eigen structure of m computed directly in ext, which must contain
    every eigenvalue."""
    m_e = embed_mat(m, ext)
    items = []
    total = 0
    for g, mult in _factor_default(charpoly(m)):
        for lam in _roots_of_irreducible(g, ext):
            shifted = add_scalar(-m_e, lam)
            lbasis = left_nullspace(shifted)
            rbasis = right_nullspace(shifted)
            geom = len(rbasis)
            if len(lbasis) != geom or not (1 <= geom <= mult):
                raise SelfCheckError("inconsistent eigenspace dimensions")
            for u in lbasis:
                if u @ m_e != u.scale(lam):
                    raise SelfCheckError("left eigenvector verification failed")
            for v in rbasis:
                if m_e @ v != v.scale(lam):
                    raise SelfCheckError("right eigenvector verification failed")
            items.append(EigenItem(lam, mult, geom, tuple(lbasis), tuple(rbasis)))
            total += mult
    if total != m.rows:
        raise SelfCheckError("algebraic multiplicities do not sum to the dimension")
    return tuple(items)


@lru_cache(maxsize=4096)
def eigen_data(m: Mat) -> EigenData:
    """Exact eigenvalue data over the smallest canonical splitting field.

    Eigenvalues are listed factor by factor in canonical factor order,
    each factor's roots sorted by coefficient vector; bases are in
    reduced echelon form and verified exactly.
    """
    if m.rows != m.cols:
        raise NotSquare(f"eigen data of a {m.rows}x{m.cols} matrix")
    field = m.field
    deg = splitting_degree_over_prime(m)
    ext = field if deg == field.degree else canonical_field(field.p, deg)
    return EigenData(m.rows, ext, _eigen_items_direct(m, ext))


def eigen_items_in(m: Mat, ext: Field):
    """Eigen structure of m presented in the given common extension.

    Over a prime base field the cached splitting-field data is reused and
    carried across by the canonical embedding; over an extension base the
    structure is recomputed directly in ext, which keeps every object a
    single embedding hop from its owner.
    """
    field = m.field
    if field.degree == 1:
        ed = eigen_data(m)
        if ed.field is ext:
            return ed.items
        return tuple(
            EigenItem(
                embed(it.value, ext),
                it.alg_mult,
                it.geom_mult,
                tuple(embed_mat(u, ext) for u in it.left_basis),
                tuple(embed_mat(v, ext) for v in it.right_basis),
            )
            for it in ed.items
        )
    return _eigen_items_direct(m, ext)


def splitting_degree_over_prime(m: Mat) -> int:
    """Degree over the prime field of the splitting field of charpoly(m)."""
    facs = _factor_default(charpoly(m))
    if not facs:
        return m.field.degree
    return m.field.degree * math.lcm(*[g.degree for g, _ in facs])
