"""Counting products of the two-sided family and outer-product fibers."""

from __future__ import annotations

from .errors import BudgetExceeded, DimensionMismatch, InvalidOrder
from .fields import is_prime
from .matrices import Mat
from .span import _check_triple

DEFAULT_BUDGET = 2 ** 24


def _prime_power_base(q: int):
    if q < 2:
        return None
    p = q
    for c in range(2, q):
        if c * c > q:
            break
        if q % c == 0:
            p = c
            break
    if not is_prime(p):
        return None
    n = q
    while n % p == 0:
        n //= p
    return p if n == 1 else None


def cardinality_formula(q: int, h: int, k: int) -> int:
    """(q^h - 1)(q^k - 1)/(q - 1) + 1: the number of distinct matrices
    x(A) S y(B) over F_q with deg x < h and deg y < k, when the products
    A^i S B^j span the matrix space (and h, k are at most the dimensions).
    They are then the distinct outer products x y^T of coefficient
    vectors: the zero matrix plus (q^h - 1)(q^k - 1)/(q - 1) others."""
    if _prime_power_base(q) is None:
        raise InvalidOrder(f"{q} is not a prime power")
    if h < 0 or k < 0:
        raise ValueError("exponent counts must be nonnegative")
    return (q ** h - 1) * (q ** k - 1) // (q - 1) + 1


def enumerate_products(a: Mat, b: Mat, s: Mat, h: int, k: int,
                       budget: int = DEFAULT_BUDGET) -> int:
    """Count distinct matrices x(A) S y(B) with deg x < h', deg y < k',
    where h' and k' are h and k clamped to the matrix dimensions (higher
    powers add nothing by Cayley-Hamilton).  Polynomials are enumerated
    coefficient-lexicographically, x outer, y inner.  Raises
    BudgetExceeded (carrying the required count) if q^(h'+k') exceeds
    the budget."""
    _check_triple(a, b, s)
    if h < 0 or k < 0:
        raise ValueError("exponent counts must be nonnegative")
    field = a.field
    m, n = a.rows, b.rows
    if m == 0 or n == 0:
        raise DimensionMismatch("enumeration needs nonempty matrices")
    h = min(h, m)
    k = min(k, n)
    required = field.order ** (h + k)
    if required > budget:
        raise BudgetExceeded(
            f"enumeration needs {required} evaluations, budget is {budget}",
            required=required,
        )
    if h == 0 or k == 0:
        # one side is the zero polynomial, so only the zero product occurs
        return 1
    apows = []
    cur = s
    for i in range(h):
        if i:
            cur = a @ cur
        apows.append(cur)
    bpows = []
    cur = Mat.identity(field, n)
    for j in range(k):
        if j:
            cur = cur @ b
        bpows.append(cur)
    elems = list(field.elements())
    seen = set()
    zero = Mat.zeros(field, m, n)

    def key_of(mat):
        return tuple(e.coeffs for e in mat.entries)

    def x_values():
        stack = [(0, zero)]
        # depth-first over coefficient tuples in lex order
        while stack:
            idx, acc = stack.pop()
            if idx == h:
                yield acc
                continue
            for c in reversed(elems):
                term = acc if c.is_zero() else acc + apows[idx].scale(c)
                stack.append((idx + 1, term))
    for xs in x_values():
        for ycoeffs in _lex_tuples(elems, k):
            acc = zero
            for j, c in enumerate(ycoeffs):
                if not c.is_zero():
                    acc = acc + (xs @ bpows[j]).scale(c)
            seen.add(key_of(acc))
    return len(seen)


def _lex_tuples(elems, length):
    if length == 0:
        yield ()
        return
    for head in elems:
        for tail in _lex_tuples(elems, length - 1):
            yield (head,) + tail


def outer_product_fibers(h: int, k: int, q: int, budget: int = DEFAULT_BUDGET):
    """Fiber sizes of (x, y) -> x y^T over F_q^h x F_q^k.

    Returns (zero_fiber, nonzero_fiber): the zero matrix is hit by
    q^h + q^k - 1 pairs, and every nonzero outer product by exactly
    q - 1.  Verified by exhaustive enumeration; unequal nonzero fibers
    would mean a defect and raise.  nonzero_fiber is 0 when no nonzero
    product exists."""
    from .errors import SelfCheckError
    from .polys import canonical_field

    p = _prime_power_base(q)
    if p is None:
        raise InvalidOrder(f"{q} is not a prime power")
    if h < 0 or k < 0:
        raise ValueError("vector lengths must be nonnegative")
    required = q ** (h + k)
    if required > budget:
        raise BudgetExceeded(
            f"census needs {required} pairs, budget is {budget}",
            required=required,
        )
    d = 0
    n = q
    while n > 1:
        n //= p
        d += 1
    field = canonical_field(p, max(d, 1))
    elems = list(field.elements())

    def vectors(length):
        return _lex_tuples(elems, length)

    fibers = {}
    for x in vectors(h):
        for y in vectors(k):
            kkey = tuple((xi * yj).coeffs for xi in x for yj in y)
            fibers[kkey] = fibers.get(kkey, 0) + 1
    zero_key = tuple(field.zero.coeffs for _ in range(h * k))
    zero_fiber = fibers.pop(zero_key, 0)
    if zero_fiber != q ** h + q ** k - 1:
        raise SelfCheckError(
            f"zero fiber has {zero_fiber} pairs, expected {q ** h + q ** k - 1}"
        )
    if not fibers:
        return zero_fiber, 0
    sizes = set(fibers.values())
    if sizes != {q - 1}:
        raise SelfCheckError(f"nonzero fibers are not uniform: {sorted(sizes)}")
    return zero_fiber, q - 1
