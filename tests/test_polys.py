import random
from itertools import product

import pytest

from matspan import (
    BaseNotPrime,
    EmbeddingUnavailable,
    NotIrreducible,
    Overflow,
    Poly,
    ZeroPolynomial,
    canonical_field,
    compositum,
    embed,
    embed_poly,
    factor,
    is_irreducible,
    make_extension,
    make_prime_field,
    poly_gcd,
    roots_in,
    smallest_irreducible,
)
from matspan.polys import pow_mod

F2 = canonical_field(2, 1)
F3 = canonical_field(3, 1)
F5 = canonical_field(5, 1)


def test_gcd_monic():
    # gcd(x^2 - 1, x - 1) over F_5
    f = Poly.from_ints(F5, [4, 0, 1])
    g = Poly.from_ints(F5, [4, 1])
    assert poly_gcd(f, g) == Poly.from_ints(F5, [4, 1])
    # scaling either input must not change the monic gcd
    assert poly_gcd(f * Poly.constant(F5.elem(3)), g) == Poly.from_ints(F5, [4, 1])


def test_divmod():
    f = Poly.from_ints(F3, [0, 0, 0, 1])      # x^3
    g = Poly.from_ints(F3, [1, 0, 1])         # x^2 + 1
    q, r = divmod(f, g)
    assert q == Poly.x(F3)
    assert r == Poly.from_ints(F3, [0, 2])    # -x


def test_eval_in_extension():
    f = Poly.from_ints(F2, [1, 1, 1])
    f4 = canonical_field(2, 2)
    assert f(f4.gen()).is_zero()
    assert f(F2.one) == F2.one


def test_derivative():
    f = Poly.from_ints(F3, [1, 2, 0, 1])      # x^3 + 2x + 1
    assert f.derivative() == Poly.from_ints(F3, [2])  # 3x^2 + 2 = 2


def _pow_by_repeated_multiplication(base, e, mod):
    result = Poly.one(base.field)
    base = base % mod
    while e:
        if e & 1:
            result = result * base % mod
        base = base * base % mod
        e >>= 1
    return result


def test_pow_mod_matches_repeated_multiplication():
    rng = random.Random(2024)
    orders = ((2, 1), (3, 1), (65521, 1), (2**31 - 1, 1), (2, 4), (3, 5),
              (5, 6), (2, 15), (46337, 2))
    for p, d in orders:
        field = canonical_field(p, d)
        q = field.order
        top = field.elem([p - 1] * d)  # every F_p digit at its largest
        for k in range(1, 7):
            mod = Poly(field, [field.random_elem(rng) for _ in range(k)] + [field.one])
            exps = (0, 1, 2, q, (q**k - 1) // 2, rng.randrange(q * q), rng.randrange(q * q))
            degree = k + rng.randrange(k + 2)
            cases = [
                (Poly.zero(field), exps),
                (Poly(field, [field.random_elem(rng) for _ in range(degree)] + [field.one]),
                 exps),
                # reduces to the residue whose F_p digits are all p - 1: its
                # products have the largest slot sums the packed ring holds
                (Poly(field, [top] * k) + mod * Poly.x(field), (1, 2, 3)),
            ]
            for base, es in cases:
                assert base.degree >= k or base.is_zero()
                for e in es:
                    want = _pow_by_repeated_multiplication(base, e, mod)
                    assert pow_mod(base, e, mod) == want, (p, d, k, e)


def test_is_irreducible_examples():
    assert is_irreducible(Poly.from_ints(F2, [1, 1, 1]))
    assert not is_irreducible(Poly.from_ints(F2, [1, 0, 1]))
    assert is_irreducible(Poly.from_ints(F3, [1, 0, 1]))
    assert not is_irreducible(Poly.one(F2))
    with pytest.raises(ZeroPolynomial):
        is_irreducible(Poly.zero(F2))


def test_smallest_irreducible():
    assert smallest_irreducible(F2, 2) == Poly.from_ints(F2, [1, 1, 1])
    assert smallest_irreducible(F2, 1) == Poly.x(F2)
    # oracle: first monic quadratic over F_3 in lex coefficient order with
    # no root; quadratics without roots are irreducible
    best = None
    for c0, c1 in product(range(3), repeat=2):
        f = Poly.from_ints(F3, [c0, c1, 1])
        if all(not f(F3.elem(v)).is_zero() for v in range(3)):
            best = f
            break
    assert best == Poly.from_ints(F3, [1, 0, 1])
    assert smallest_irreducible(F3, 2) == best


def test_smallest_irreducible_pinned_moduli():
    # moduli found by walking every candidate, zero constant terms included
    pinned = {
        (2, 16): [1] + [0] * 10 + [1, 0, 1, 0, 1, 1],
        (2, 20): [1] + [0] * 16 + [1, 0, 0, 1],
        (3, 10): [1] + [0] * 7 + [2, 0, 1],
        (101, 4): [1, 0, 0, 1, 1],
        (46337, 2): [1, 1, 1],
    }
    for (p, d), coeffs in pinned.items():
        base = make_prime_field(p)
        assert smallest_irreducible(base, d) == Poly.from_ints(base, coeffs)
    big = make_prime_field(2**31 - 1)
    assert smallest_irreducible(big, 1) == Poly.x(big)


def test_make_extension_errors():
    with pytest.raises(NotIrreducible):
        make_extension(F2, Poly.from_ints(F2, [1, 0, 1]))
    f4 = canonical_field(2, 2)
    with pytest.raises(BaseNotPrime):
        make_extension(f4, Poly.from_ints(f4, [1, 1, 1]))
    with pytest.raises(ValueError):
        make_extension(F2, Poly.from_ints(F2, [1, 1]))  # degree 1
    with pytest.raises(Overflow):
        smallest_irreducible(F2, 40)


def test_factor_examples():
    facs = factor(Poly.from_ints(F2, [1, 0, 1]))
    assert facs == [(Poly.from_ints(F2, [1, 1]), 2)]
    facs = factor(Poly.from_ints(F2, [0, 1, 0, 0, 1]))  # x^4 + x
    assert facs == [
        (Poly.x(F2), 1),
        (Poly.from_ints(F2, [1, 1]), 1),
        (Poly.from_ints(F2, [1, 1, 1]), 1),
    ]
    with pytest.raises(ZeroPolynomial):
        factor(Poly.zero(F2))


def test_factor_field_polynomial():
    # x^9 - x over F_3 is the product of all monic irreducibles of degree
    # dividing 2, each exactly once
    f = Poly.from_ints(F3, [0, 2] + [0] * 7 + [1])
    facs = factor(f)
    assert all(mult == 1 for _, mult in facs)
    degrees = sorted(g.degree for g, _ in facs)
    assert degrees == [1, 1, 1, 2, 2, 2]
    prod = Poly.one(F3)
    for g, _ in facs:
        assert is_irreducible(g)
        prod = prod * g
    assert prod == f


def test_factor_remultiply_random():
    rng = random.Random(1009)
    for field in (F2, F3, F5):
        count = 0
        while count < 170:
            deg = rng.randint(1, 8)
            coeffs = [field.random_elem(rng) for _ in range(deg)]
            coeffs.append(field.one)
            f = Poly(field, coeffs)
            facs = factor(f)
            prod = Poly.one(field)
            nfac = 0
            for g, mult in facs:
                assert g.is_monic() and is_irreducible(g)
                nfac += mult
                for _ in range(mult):
                    prod = prod * g
            assert prod == f
            # irreducibility agrees with the factorization shape
            assert is_irreducible(f) == (len(facs) == 1 and facs[0][1] == 1
                                         and facs[0][0] == f)
            count += 1


def test_roots_in_examples():
    f = Poly.from_ints(F2, [1, 1, 1])
    f4 = canonical_field(2, 2)
    rts = roots_in(f, f4)
    g = f4.gen()
    assert sorted(r.coeffs for r in rts) == sorted([g.coeffs, (g * g).coeffs])
    assert roots_in(f, F2) == []
    f8 = canonical_field(2, 3)
    assert roots_in(f, f8) == []
    # oracle for the F_8 case: direct evaluation at all 8 elements
    fe = embed_poly(f, f8)
    assert all(not fe(a).is_zero() for a in f8.elements())


def _monic_irreducibles(field, degree):
    for tail in product(list(field.elements()), repeat=degree):
        g = Poly(field, list(tail) + [field.one])
        if is_irreducible(g):
            yield g


def test_roots_of_irreducibles_match_evaluation():
    # reference: evaluate at every element of the smallest field holding
    # the roots, and of one twice as large where that stays small
    cases = [(F2, d) for d in (2, 3, 4)] + [(F3, d) for d in (2, 3, 4)]
    cases += [(canonical_field(2, 2), 2), (canonical_field(3, 2), 2)]
    for owner, d in cases:
        degrees = [owner.degree * d]
        if owner.order ** (2 * d) <= 729:
            degrees.append(2 * owner.degree * d)
        for g in _monic_irreducibles(owner, d):
            for e in degrees:
                ext = canonical_field(owner.p, e)
                ge = embed_poly(g, ext)
                want = [a for a in ext.elements() if ge(a).is_zero()]
                assert roots_in(g, ext) == want, (g, ext)


def test_roots_counted_with_multiplicity():
    rng = random.Random(4242)
    import math
    for field in (F2, F3):
        for _ in range(40):
            deg = rng.randint(1, 6)
            coeffs = [field.random_elem(rng) for _ in range(deg)]
            coeffs.append(field.one)
            f = Poly(field, coeffs)
            ell = math.lcm(*[g.degree for g, _ in factor(f)])
            ext = canonical_field(field.p, ell)
            rts = roots_in(f, ext)
            assert len(rts) == deg
            fe = embed_poly(f, ext)
            for r in rts:
                assert fe(r).is_zero()


def test_embed_exhaustive_f4_to_f16():
    f4 = canonical_field(2, 2)
    f16 = canonical_field(2, 4)
    els = list(f4.elements())
    images = [embed(a, f16) for a in els]
    assert len(set(images)) == len(els)  # injective
    for a, ia in zip(els, images):
        for b, ib in zip(els, images):
            assert ia + ib == embed(a + b, f16)
            assert ia * ib == embed(a * b, f16)
    assert embed(f4.one, f16) == f16.one
    # the generator's image satisfies the source modulus
    h = embed(f4.gen(), f16)
    assert h * h + h + f16.one == f16.zero


def test_embed_random_f9_to_f81():
    f9 = canonical_field(3, 2)
    f81 = canonical_field(3, 4)
    rng = random.Random(5)
    for _ in range(100):
        a = f9.random_elem(rng)
        b = f9.random_elem(rng)
        assert embed(a, f81) * embed(b, f81) == embed(a * b, f81)
        assert embed(a, f81) + embed(b, f81) == embed(a + b, f81)


def test_embed_generator_images_pinned():
    # the smallest root of the source modulus, as found by evaluation
    pinned = {
        (2, 2, 4): (0, 1, 0, 1),
        (2, 2, 6): (0, 0, 0, 1, 1, 1),
        (2, 3, 6): (0, 1, 0, 1, 0, 0),
        (2, 4, 8): (0, 0, 0, 1, 0, 1, 0, 1),
        (2, 3, 12): (1, 0, 0, 0, 1, 1, 0, 1, 0, 0, 0, 0),
        (2, 5, 10): (0, 1, 0, 0, 0, 0, 0, 1, 1, 0),
        (3, 2, 4): (0, 1, 2, 0),
        (3, 3, 6): (0, 1, 1, 1, 2, 2),
        (3, 4, 8): (0, 0, 1, 1, 1, 2, 2, 2),
        (5, 2, 4): (1, 0, 3, 1),
        (7, 2, 4): (1, 0, 4, 1),
        (2, 5, 15): (0, 0, 0, 0, 0, 1, 0, 1, 1, 1, 0, 1, 0, 1, 0),
        (2, 8, 16): (0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 0, 1, 0, 1),
        (3, 5, 10): (0, 0, 0, 0, 0, 0, 1, 0, 0, 0),
        (5, 3, 6): (0, 4, 4, 2, 4, 4),
        (7, 3, 6): (0, 0, 1, 0, 0, 0),
    }
    for (p, d1, d2), image in pinned.items():
        got = embed(canonical_field(p, d1).gen(), canonical_field(p, d2))
        assert got.coeffs == image, (p, d1, d2)


def test_embed_unavailable():
    f4 = canonical_field(2, 2)
    f8 = canonical_field(2, 3)
    with pytest.raises(EmbeddingUnavailable):
        embed(f4.gen(), f8)


def test_embed_prime_constants():
    f64 = canonical_field(2, 6)
    assert embed(F2.one, f64) == f64.one
    assert embed(F2.zero, f64).is_zero()


def test_compositum():
    f4 = canonical_field(2, 2)
    f8 = canonical_field(2, 3)
    comp = compositum(f4, f8)
    assert comp is canonical_field(2, 6)
    assert compositum(f4, f4) is f4
    assert compositum(F2, f8) is f8
    f16 = canonical_field(2, 4)
    assert compositum(f4, f16) is f16


def test_poly_zero_sentinel():
    z = Poly.zero(F3)
    assert z.degree == -1
    assert (z + z).degree == -1
    f = Poly.from_ints(F3, [1, 1])
    assert f + Poly.from_ints(F3, [2, 2]) == Poly.zero(F3)
