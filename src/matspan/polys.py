"""Univariate polynomials over finite fields, factorization, embeddings.

This module also owns field construction beyond the prime case: building
extensions from a validated modulus, the registry of canonical fields
(smallest-modulus representatives used as splitting fields), and the
cached embeddings between compatible fields.

Roots are found one way for every field size and every owner: factoring
yields irreducibles, and the roots of an irreducible f over F_q in an
extension K are one root split off by Cantor-Zassenhaus in K itself plus
its conjugates under x -> x^q.  Embeddings use the same routine on the
source modulus.

Modular powers (``pow_mod``, the irreducibility test, distinct-degree
factoring and the random splitting steps, the characteristic-2 trace
included) run on packed integers: a residue of F_q[x]/(g) is one Python
int holding one w-bit slot per F_p digit, a product is one integer
multiply, and reduction folds the high slots by precomputed powers of x
and of the field generator before it reduces every slot mod p once.  w
comes from a proven bound on the slot sums, so no carry ever crosses
into the next slot (see ``_ResidueRing``).
"""

from __future__ import annotations

import math
import random
import threading
from functools import lru_cache
from itertools import product
from typing import Iterable, Optional

from .errors import (
    BaseNotPrime,
    DivisionByZero,
    EmbeddingUnavailable,
    FieldMismatch,
    NotIrreducible,
    Overflow,
    SelfCheckError,
    ZeroPolynomial,
)
from .fields import MAX_ORDER, Elem, Field, make_prime_field

# Fixed seeds keep the randomized splitting steps reproducible run to run.
_FACTOR_SEED = 0x5EEDF00D
_ROOT_SEED = 0xE713ED


class Poly:
    """A univariate polynomial with coefficients in one field.

    Coefficients are stored constant term first with no trailing zeros;
    the zero polynomial has an empty coefficient tuple and degree -1.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: Iterable[Elem]):
        cs = list(coeffs)
        while cs and cs[-1].is_zero():
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, field: Field) -> "Poly":
        return cls(field, ())

    @classmethod
    def one(cls, field: Field) -> "Poly":
        return cls(field, (field.one,))

    @classmethod
    def x(cls, field: Field) -> "Poly":
        return cls(field, (field.zero, field.one))

    @classmethod
    def constant(cls, c: Elem) -> "Poly":
        return cls(c.field, (c,))

    @classmethod
    def from_ints(cls, field: Field, ints: Iterable[int]) -> "Poly":
        return cls(field, tuple(field.elem(c) for c in ints))

    # -- basic queries ----------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.field.one

    def leading(self) -> Elem:
        if not self.coeffs:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def _check(self, other):
        if not isinstance(other, Poly):
            raise TypeError(f"expected Poly, got {type(other).__name__}")
        if other.field is not self.field:
            raise FieldMismatch(
                f"mixing polynomials over {self.field} and {other.field}"
            )

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(self.field, out)

    def __sub__(self, other):
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        z = self.field.zero
        out = []
        for i in range(n):
            x = self.coeffs[i] if i < len(self.coeffs) else z
            y = other.coeffs[i] if i < len(other.coeffs) else z
            out.append(x - y)
        return Poly(self.field, out)

    def __neg__(self):
        return Poly(self.field, tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        self._check(other)
        if self.is_zero() or other.is_zero():
            return Poly.zero(self.field)
        z = self.field.zero
        out = [z] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, x in enumerate(self.coeffs):
            if not x.is_zero():
                for j, y in enumerate(other.coeffs):
                    if not y.is_zero():
                        out[i + j] = out[i + j] + x * y
        return Poly(self.field, out)

    def __divmod__(self, other):
        self._check(other)
        if other.is_zero():
            raise DivisionByZero("polynomial division by zero")
        if self.degree < other.degree:
            return Poly.zero(self.field), self
        z = self.field.zero
        rem = list(self.coeffs)
        db = other.degree
        inv_lead = other.coeffs[-1].inv()
        q = [z] * (len(rem) - db)
        for k in range(len(rem) - db - 1, -1, -1):
            c = rem[k + db] * inv_lead
            if not c.is_zero():
                q[k] = c
                for i, bc in enumerate(other.coeffs):
                    rem[k + i] = rem[k + i] - c * bc
        return Poly(self.field, q), Poly(self.field, rem[:db])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self) -> "Poly":
        if self.is_zero():
            raise ZeroPolynomial("cannot normalize the zero polynomial")
        lead = self.coeffs[-1]
        if lead == self.field.one:
            return self
        inv = lead.inv()
        return Poly(self.field, tuple(c * inv for c in self.coeffs))

    def derivative(self) -> "Poly":
        f = self.field
        out = []
        for i in range(1, len(self.coeffs)):
            k = i % f.p
            if k == 0:
                out.append(f.zero)
            elif k == 1:
                out.append(self.coeffs[i])
            else:
                out.append(f.elem(k) * self.coeffs[i])
        return Poly(f, out)

    def __call__(self, x: Elem) -> Elem:
        """Evaluate at x, embedding coefficients into x's field if needed."""
        if x.field is not self.field:
            lifted = embed_poly(self, x.field)
            return lifted(x)
        acc = self.field.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.field is other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field.token, tuple(c.coeffs for c in self.coeffs)))

    def __repr__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c.is_zero():
                continue
            cs = repr(c)
            if i == 0:
                parts.append(cs)
            else:
                xs = "x" if i == 1 else f"x^{i}"
                parts.append(xs if cs == "1" else f"{cs}*{xs}")
        return " + ".join(parts)


def poly_key(f: Poly):
    """Canonical sort key: degree, then coefficient vectors constant first."""
    return (f.degree, tuple(c.coeffs for c in f.coeffs))


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic greatest common divisor; gcd(0, 0) is 0."""
    if f.field is not g.field:
        raise FieldMismatch("gcd of polynomials over different fields")
    a, b = f, g
    while not b.is_zero():
        a, b = b, a % b
    if a.is_zero():
        return a
    return a.monic()


def _repunit(n: int, width: int) -> int:
    """An int with bit 0 set in each of n slots of the given width."""
    return ((1 << (width * n)) - 1) // ((1 << width) - 1)


class _ResidueRing:
    """F_q[x]/(g) for q = p^D and deg g = k >= 1, each residue one int.

    Kronecker substitution: the F_p digit j of the coefficient of x^i sits
    in the w-bit slot i*W + j, with W = 2D - 1 slots per x-block, so the
    digit products of two residues (y-degree at most 2D - 2 in a block,
    x-degree at most 2k - 2) land in distinct slots of one integer
    product.  Reduction is delayed: the y-slots j >= D of every block are
    folded at once by y^j mod m(y), the blocks t >= k one by one by
    x^t mod g, the y-slots once more, and only then is every slot reduced
    mod p.  Every digit, of the operands and of the folds, is at most
    p - 1.  So after the first y-fold a slot of x-block i is at most
    n_i * c1, where n_i <= k counts the pairs of x-degrees summing to i
    and sum(n_i for i >= k) = k(k-1)/2; after the x-fold it is at most c2,
    and after the second y-fold at most B, where

        c1 = (p-1)^2 (D + (p-1) D(D-1)/2)
        c2 = c1 (k + (p-1) D k(k-1)/2)
        B  = c2 (1 + (p-1)(D-1)).

    The product itself is at most k D (p-1)^2 <= c2 <= B in every slot, so
    w = B.bit_length() bits hold every slot at every step and no carry
    crosses into the next one.  Residues are canonical: equal residues are
    equal ints.
    """

    __slots__ = ("mod", "k", "_p", "_w", "_span", "_digit", "_low",
                 "_slot0", "_low_y", "_low_x", "_digits", "_shifts",
                 "_x_folds", "_y_folds")

    def __init__(self, mod: Poly):
        field = mod.field
        p, d, k = field.p, field.degree, mod.degree
        c1 = (p - 1) ** 2 * (d + (p - 1) * d * (d - 1) // 2)
        c2 = c1 * (k + (p - 1) * d * k * (k - 1) // 2)
        w = (c2 * (1 + (p - 1) * (d - 1))).bit_length()
        span = w * (2 * d - 1)
        self.mod, self.k, self._p, self._w, self._span = mod, k, p, w, span
        self._digit = (1 << w) - 1
        self._low = (1 << (w * d)) - 1  # the y-slots below D of one block
        blocks = _repunit(2 * k - 1, span)
        self._slot0 = blocks * self._digit
        self._low_y = blocks * self._low
        self._low_x = (1 << (span * k)) - 1
        self._digits = _repunit(d, w) * _repunit(k, span)
        self._shifts = [i * span + j * w for i in range(k) for j in range(d)]
        self._y_folds = []
        if d > 1:  # y^j mod m(y) for j = D .. 2D - 2
            m = field.modulus[:-1]
            y = [-c % p for c in m]
            for _ in range(d - 1):
                self._y_folds.append(sum(c << (j * w) for j, c in enumerate(y)))
                y = [(lo - y[-1] * c) % p for lo, c in zip([0] + y[:-1], m)]
        # x^t mod g for t = k .. 2k - 2, each from the one before
        self._x_folds = []
        if k > 1:
            self._x_folds.append(self.pack(-Poly(field, mod.monic().coeffs[:-1])))
            for _ in range(k - 2):
                self._x_folds.append(self._reduce(self._x_folds[-1] << span))

    def pack(self, f: Poly) -> int:
        """The residue of f, which must have degree below k."""
        span, w = self._span, self._w
        r = 0
        for i, c in enumerate(f.coeffs):
            for j, v in enumerate(c.coeffs):
                if v:
                    r |= v << (i * span + j * w)
        return r

    def unpack(self, r: int) -> Poly:
        field = self.mod.field
        digit, w, d = self._digit, self._w, field.degree
        coeffs = []
        for i in range(self.k):
            block = r >> (i * self._span)
            coeffs.append(Elem(field, tuple(block >> (j * w) & digit for j in range(d))))
        return Poly(field, coeffs)

    def _fold_y(self, r: int) -> int:
        out = r & self._low_y
        for j, yj in enumerate(self._y_folds, len(self._y_folds) + 1):
            out += (r >> (j * self._w) & self._slot0) * yj
        return out

    def _reduce(self, r: int) -> int:
        if self._y_folds:
            r = self._fold_y(r)
        out = r & self._low_x
        high = r >> (self._span * self.k)
        for xt in self._x_folds:
            if not high:
                break
            out += (high & self._low) * xt
            high >>= self._span
        if self._y_folds:
            out = self._fold_y(out)
        if self._p == 2:
            return out & self._digits
        p, digit = self._p, self._digit
        r = 0
        for s in self._shifts:
            r |= (out >> s & digit) % p << s
        return r

    def mul(self, a: int, b: int) -> int:
        return self._reduce(a * b)

    def pow(self, a: int, e: int) -> int:
        """a^e for e >= 1, by square and multiply."""
        r = a
        for bit in bin(e)[3:]:
            r = self._reduce(r * r)
            if bit == "1":
                r = self._reduce(r * a)
        return r


def pow_mod(base: Poly, e: int, mod: Poly) -> Poly:
    """base**e reduced modulo mod; e = 0 gives 1.

    Binary exponentiation in the packed residue ring of F_q[x]/(mod)
    (``_ResidueRing``): each product is one integer multiply, and the
    slots are wide enough, by a proven bound on their sums, that no carry
    passes between digits before the single reduction mod p.
    """
    if e < 0:
        raise ValueError("exponent must be non-negative")
    base = base % mod
    if e == 0:
        return Poly.one(base.field)
    if base.is_zero():
        return base
    ring = _ResidueRing(mod)
    return ring.unpack(ring.pow(ring.pack(base), e))


def _prime_divisors(n: int):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_irreducible(f: Poly) -> bool:
    """Deterministic irreducibility test over any constructed field.

    Uses the degree-divisor characterization: f of degree n over F_q is
    irreducible iff x^(q^n) = x mod f and gcd(x^(q^(n/r)) - x, f) = 1 for
    every prime r dividing n.
    """
    if f.is_zero():
        raise ZeroPolynomial("irreducibility of the zero polynomial")
    n = f.degree
    if n == 0:
        return False
    if n == 1:
        return True
    if f.coeffs[0].is_zero():
        return False
    q = f.field.order
    x = Poly.x(f.field)
    ring = _ResidueRing(f)
    checkpoints = {n // r for r in _prime_divisors(n)}
    start = cur = ring.pack(x)
    for i in range(1, n + 1):
        cur = ring.pow(cur, q)
        if i in checkpoints:
            if poly_gcd(ring.unpack(cur) - x, f).degree != 0:
                return False
    return cur == start


def smallest_irreducible(base: Field, d: int) -> Poly:
    """Lexicographically first monic irreducible of degree d over a prime field.

    Candidates are ordered by their coefficient vector, constant term
    first, under the canonical residue order.
    """
    if base.degree != 1:
        raise BaseNotPrime(f"{base} is not a prime field")
    if d < 1:
        raise ValueError("degree must be at least 1")
    if base.p**d > MAX_ORDER:
        raise Overflow(
            f"extension order {base.p}^{d} exceeds the bound {MAX_ORDER}"
        )
    if d == 1:
        return Poly.x(base)
    # a zero constant term leaves the factor x, so start it at 1
    for tail in product(range(1, base.p), *[range(base.p)] * (d - 1)):
        cand = Poly.from_ints(base, list(tail) + [1])
        if is_irreducible(cand):
            return cand
    raise SelfCheckError("no irreducible polynomial found")  # unreachable


def make_extension(base: Field, modulus: Poly) -> Field:
    """Construct F_p[x]/(modulus) over a prime field."""
    if base.degree != 1:
        raise BaseNotPrime(f"{base} is not a prime field")
    if modulus.field is not base:
        raise FieldMismatch("modulus is not a polynomial over the base field")
    d = modulus.degree
    if d < 2:
        raise ValueError("extension modulus must have degree at least 2")
    if not modulus.is_monic():
        raise ValueError("extension modulus must be monic")
    if base.p**d > MAX_ORDER:
        raise Overflow(
            f"extension order {base.p}^{d} exceeds the bound {MAX_ORDER}"
        )
    if not is_irreducible(modulus):
        raise NotIrreducible(f"modulus {modulus} is reducible over {base}")
    return Field(base.p, d, tuple(c.coeffs[0] for c in modulus.coeffs))


# -- canonical fields ----------------------------------------------------

_canonical_lock = threading.Lock()
_canonical_registry: dict = {}


def canonical_field(p: int, d: int) -> Field:
    """The shared F_{p^d} defined by the smallest irreducible modulus.

    Repeated calls return the same object, so elements from independent
    computations interoperate.
    """
    key = (p, d)
    with _canonical_lock:
        got = _canonical_registry.get(key)
    if got is not None:
        return got
    base = make_prime_field(p)
    if d == 1:
        field = base
    else:
        # smallest_irreducible proves its result irreducible, so the
        # checks of make_extension would only repeat that proof
        modulus = smallest_irreducible(base, d)
        field = Field(p, d, tuple(c.coeffs[0] for c in modulus.coeffs))
    with _canonical_lock:
        return _canonical_registry.setdefault(key, field)


def compositum(f1: Field, f2: Field) -> Field:
    """A smallest common extension both fields embed into."""
    if f1.p != f2.p:
        raise FieldMismatch("fields of different characteristic")
    if f1 is f2:
        return f1
    if f2.degree % f1.degree == 0 and f1.degree % f2.degree != 0:
        return f2
    if f1.degree % f2.degree == 0:
        return f1
    d = math.lcm(f1.degree, f2.degree)
    if f1.p**d > MAX_ORDER:
        raise Overflow(
            f"compositum order {f1.p}^{d} exceeds the bound {MAX_ORDER}"
        )
    return canonical_field(f1.p, d)


# -- embeddings ----------------------------------------------------------

_embed_lock = threading.Lock()
_embed_cache: dict = {}


def _lift_ints(ints, target: Field) -> Poly:
    """Prime-field coefficients viewed as constants of the target field."""
    pad = (0,) * (target.degree - 1)
    return Poly(target, tuple(Elem(target, (c % target.p,) + pad) for c in ints))


def _embedding_powers(source: Field, target: Field):
    """Rows of the embedding map: coefficient vectors of rho^i in target.

    rho is the canonical image of the source generator, chosen as the
    lexicographically smallest root of the source modulus in the target.
    Cached per (source, target) pair so the embedding is one fixed
    homomorphism across all calls.
    """
    key = (source.token, target.token)
    with _embed_lock:
        got = _embed_cache.get(key)
    if got is not None:
        return got
    mod_t = _lift_ints(source.modulus, target)
    rho = _irreducible_roots(mod_t, target, target.p)[0]
    rows = []
    acc = target.one
    for _ in range(source.degree):
        rows.append(acc.coeffs)
        acc = acc * rho
    rows = tuple(rows)
    with _embed_lock:
        return _embed_cache.setdefault(key, rows)


def embed(a: Elem, target: Field) -> Elem:
    """The canonical image of a in an extension of its owner."""
    source = a.field
    if source is target:
        return a
    if source.p != target.p:
        raise EmbeddingUnavailable(
            f"no embedding between characteristics {source.p} and {target.p}"
        )
    if source.degree == 1:
        return Elem(target, (a.coeffs[0],) + (0,) * (target.degree - 1))
    if target.degree % source.degree != 0:
        raise EmbeddingUnavailable(
            f"{source} does not embed into {target}: degree does not divide"
        )
    rows = _embedding_powers(source, target)
    p = target.p
    out = [0] * target.degree
    for c, row in zip(a.coeffs, rows):
        if c:
            for j, r in enumerate(row):
                if r:
                    out[j] = (out[j] + c * r) % p
    return Elem(target, tuple(out))


def embed_poly(f: Poly, target: Field) -> Poly:
    if f.field is target:
        return f
    return Poly(target, tuple(embed(c, target) for c in f.coeffs))


# -- factorization --------------------------------------------------------


def _pth_root_poly(f: Poly) -> Poly:
    """For f with zero derivative, the g with g(x)^p = f(x)."""
    field = f.field
    p = field.p
    e = p ** (field.degree - 1)  # a -> a^(p^(d-1)) inverts Frobenius
    out = []
    for i in range(0, len(f.coeffs), p):
        out.append(f.coeffs[i] ** e)
    return Poly(field, out)


def _squarefree_parts(f: Poly, mult: int, parts: list):
    # f monic of positive degree; appends (squarefree monic, multiplicity)
    df = f.derivative()
    if df.is_zero():
        _squarefree_parts(_pth_root_poly(f), mult * f.field.p, parts)
        return
    c = poly_gcd(f, df)
    w = f // c
    i = 1
    while w.degree > 0:
        y = poly_gcd(w, c)
        z = w // y
        if z.degree > 0:
            parts.append((z, mult * i))
        w = y
        c = c // y
        i += 1
    if c.degree > 0:
        _squarefree_parts(_pth_root_poly(c), mult * f.field.p, parts)


def _distinct_degree(g: Poly):
    """Split a monic squarefree g into (degree, product-of-that-degree) parts."""
    field = g.field
    q = field.order
    out = []
    x = Poly.x(field)
    cur = x % g
    ring = None
    d = 0
    while g.degree >= 2 * (d + 1):
        d += 1
        if ring is None or ring.mod is not g:
            ring = _ResidueRing(g)
        cur = ring.unpack(ring.pow(ring.pack(cur), q))
        h = poly_gcd(cur - x, g)
        if h.degree > 0:
            out.append((d, h))
            g = g // h
            cur = cur % g
    if g.degree > 0:
        out.append((g.degree, g))
    return out


def _random_split(ring: _ResidueRing, d: int, rng) -> Poly:
    """One random Cantor-Zassenhaus step: a monic divisor of h = ring.mod.

    h is a product of distinct irreducibles of degree d over a field of
    order q.  For a random a of degree below deg h the divisor is
    gcd(a, h) if that is proper, else gcd(Tr(a), h) in characteristic 2
    and gcd(a^((q^d-1)/2) - 1, h) otherwise.  Callers repeat the step
    until the divisor is proper, which happens about every other draw,
    and share one ring of residues mod h across the repeats.
    """
    h = ring.mod
    field = h.field
    a = Poly(field, tuple(field.random_elem(rng) for _ in range(h.degree)))
    g = poly_gcd(a, h)
    if 0 < g.degree < h.degree:
        return g
    t = ring.pack(a)
    if field.p == 2:
        # the absolute trace of a, summed over its Frobenius images mod h;
        # digits mod 2 add slot by slot as XOR
        acc = t
        for _ in range(field.degree * d - 1):
            t = ring.mul(t, t)
            acc ^= t
        return poly_gcd(ring.unpack(acc), h)
    b = ring.unpack(ring.pow(t, (field.order**d - 1) // 2))
    return poly_gcd(b - Poly.one(field), h)


def _equal_degree_split(h: Poly, d: int, rng, out: list):
    """Split h, a product of distinct irreducibles of degree d, completely."""
    if h.degree == d:
        out.append(h.monic())
        return
    ring = _ResidueRing(h)
    g = _random_split(ring, d, rng)
    while not 0 < g.degree < h.degree:
        g = _random_split(ring, d, rng)
    _equal_degree_split(g, d, rng, out)
    _equal_degree_split(h // g, d, rng, out)


def factor(f: Poly, rng: Optional[random.Random] = None):
    """Factor f into monic irreducibles with multiplicities.

    Returns a list of (factor, multiplicity) pairs in canonical order
    (degree, then coefficient vectors).  The product of the factors
    equals f divided by its leading coefficient.  The randomness used by
    equal-degree splitting comes from the supplied generator; the default
    is a fixed-seed generator, so results are deterministic.
    """
    if f.is_zero():
        raise ZeroPolynomial("cannot factor the zero polynomial")
    if rng is None:
        rng = random.Random(_FACTOR_SEED)
    if f.degree == 0:
        return []
    parts: list = []
    _squarefree_parts(f.monic(), 1, parts)
    found: dict = {}
    for g, mult in parts:
        for d, h in _distinct_degree(g):
            irr: list = []
            _equal_degree_split(h, d, rng, irr)
            for piece in irr:
                found[piece] = found.get(piece, 0) + mult
    return sorted(found.items(), key=lambda it: poly_key(it[0]))


@lru_cache(maxsize=4096)
def _factor_default(f: Poly):
    return tuple(factor(f))


# -- root finding ---------------------------------------------------------


def _split_off_root(f: Poly, rng) -> Elem:
    """One root of f, given that f splits into distinct linear factors."""
    while f.degree > 1:
        ring = _ResidueRing(f)
        g = _random_split(ring, 1, rng)
        while not 0 < g.degree < f.degree:
            g = _random_split(ring, 1, rng)
        f = g if 2 * g.degree <= f.degree else f // g
    return -(f.monic().coeffs[0])


def _irreducible_roots(f: Poly, field: Field, q: int) -> tuple:
    """All roots of f in field, sorted by coefficient vector.

    f must be irreducible over the subfield of order q and have its
    degree dividing [field : F_q], so that it splits into distinct
    linear factors in field.  One root r is split off by Cantor-Zassenhaus;
    the others are its conjugates r^q, r^(q^2), ..., r^(q^(deg f - 1)).
    """
    f = embed_poly(f, field)
    roots = [_split_off_root(f, random.Random(_ROOT_SEED))]
    for _ in range(f.degree - 1):
        roots.append(roots[-1] ** q)
    if len(set(roots)) != f.degree or any(f(r) for r in roots):
        raise SelfCheckError(f"expected {f.degree} distinct roots of {f}")
    return tuple(sorted(roots, key=lambda e: e.coeffs))


@lru_cache(maxsize=8192)
def _roots_of_irreducible(g: Poly, ext: Field):
    """All roots in ext of an irreducible g, sorted by coefficient vector.

    Assumes deg(g) divides [ext : owner]; the roots are found in ext
    directly, whatever the owner of g.
    """
    return _irreducible_roots(g, ext, g.field.order)


def roots_in(f: Poly, ext: Field):
    """All roots of f lying in ext, repeated per multiplicity.

    Roots are listed factor by factor in canonical factor order, each
    factor's roots sorted by coefficient vector.
    """
    if f.is_zero():
        raise ZeroPolynomial("roots of the zero polynomial")
    owner = f.field
    if ext.p != owner.p or ext.degree % owner.degree != 0:
        raise EmbeddingUnavailable(f"{owner} does not embed into {ext}")
    rel_degree = ext.degree // owner.degree
    out = []
    for g, mult in _factor_default(f):
        if rel_degree % g.degree != 0:
            continue  # this factor has no roots down in ext
        for r in _roots_of_irreducible(g, ext):
            out.extend([r] * mult)
    return out
