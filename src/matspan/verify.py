"""Self-check suites: exhaustive and randomized cross-validation of every
criterion against an independent route.

Each suite returns (passed, detail).  The runner adds timing and converts
unexpected exceptions into failures instead of crashing the batch.  Seeds
are fixed so every run sees the same instances.
"""

from __future__ import annotations

import random
import time
import warnings
from dataclasses import dataclass
from itertools import product

from .counting import cardinality_formula, enumerate_products, outer_product_fibers
from .errors import Overflow
from .instances import (
    _random_mat,
    irreducible_pair_instance,
    random_cyclic_instance,
    shift_instance,
)
from .matrices import (
    Mat,
    charpoly,
    companion,
    embed_mat,
    minpoly,
    unvec,
    vec,
)
from .polys import Poly, canonical_field, poly_gcd, roots_in, smallest_irreducible
from .span import (
    _diag_eigen_pair,
    combination_eigenvalues,
    commutator_test_2x2,
    diagonalizable_span_dimension,
    generator_combination,
    generator_combination_matrix,
    irreducible_pair_criterion,
    pbh_test,
    span_dimension,
    span_verdict,
    spans_full,
    vandermonde_factorization_check,
)

_PBH_SEED = 0x9B41
_SAMPLED_SEED = 0x7A3F11
_SQFREE_SEED = 0xD1A60
_COMBO_SEED = 0xC0167


@dataclass
class SuiteResult:
    name: str
    passed: bool
    detail: str
    elapsed: float
    gating: bool


def _check_witness(report, a: Mat, b: Mat, s: Mat):
    wit = report.witness
    if wit is None:
        return True
    ext = wit.u.field
    a_e = embed_mat(a, ext)
    b_e = embed_mat(b, ext)
    s_e = embed_mat(s, ext)
    if wit.u.is_zero() or wit.v.is_zero():
        return False
    if wit.u @ a_e != wit.u.scale(wit.alpha):
        return False
    if b_e @ wit.v != wit.v.scale(wit.beta):
        return False
    val = (wit.u @ s_e @ wit.v).entries[0]
    return val.is_zero() and wit.value_uSv == val


def suite_theorem_exhaustive_gf2(seed=None):
    field = canonical_field(2, 1)
    els = list(field.elements())
    mats = [Mat(field, 2, 2, tuple(c)) for c in product(els, repeat=4)]
    bad = 0
    first = ""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for a in mats:
            for b in mats:
                for s in mats:
                    rep = span_verdict(a, b, s)
                    if not rep.consistency_ok:
                        bad += 1
                        if not first:
                            first = f"a={a.row_list()} b={b.row_list()} s={s.row_list()}"
    total = len(mats) ** 3
    if bad:
        return False, f"{bad}/{total} disagreements, first at {first}"
    return True, f"{total} triples, rank and criterion agree on all"


def suite_theorem_sampled(seed=None):
    rng = random.Random(_SAMPLED_SEED if seed is None else seed)
    f3 = canonical_field(3, 1)
    f2 = canonical_field(2, 1)
    bad = 0
    bad_wit = 0
    checked = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(10000):
            a = _random_mat(f3, 2, 2, rng)
            b = _random_mat(f3, 2, 2, rng)
            s = _random_mat(f3, 2, 2, rng)
            rep = span_verdict(a, b, s)
            checked += 1
            if not rep.consistency_ok:
                bad += 1
            if not _check_witness(rep, a, b, s):
                bad_wit += 1
        # exhaustive 2x3 companion block: every monic pair, every middle
        els = list(f2.elements())
        bodies_a = [companion(Poly(f2, list(c) + [f2.one]))
                    for c in product(els, repeat=2)]
        bodies_b = [companion(Poly(f2, list(c) + [f2.one]))
                    for c in product(els, repeat=3)]
        middles = [Mat(f2, 2, 3, c) for c in product(els, repeat=6)]
        for a in bodies_a:
            for b in bodies_b:
                for s in middles:
                    rep = span_verdict(a, b, s)
                    checked += 1
                    if not rep.consistency_ok:
                        bad += 1
                    if not _check_witness(rep, a, b, s):
                        bad_wit += 1
    if bad or bad_wit:
        return False, f"{bad} disagreements, {bad_wit} bad witnesses of {checked}"
    return True, f"{checked} triples agree, all witnesses verified"


def suite_shift_example(seed=None):
    checked = 0
    for p in (2, 3):
        field = canonical_field(p, 1)
        for m in range(2, 6):
            for n in range(2, 6):
                inst = shift_instance(field, m, n)
                if span_dimension(inst.a, inst.b, inst.s) != m * n:
                    return False, f"shift instance p={p} m={m} n={n} not full"
                sj = inst.s
                for j in range(n):
                    if j:
                        sj = sj @ inst.b
                    t = sj
                    for i in range(m):
                        if i:
                            t = inst.a @ t
                        if t != Mat.unit(field, m, n, i, j):
                            return False, (
                                f"p={p} m={m} n={n}: product ({i},{j}) is not "
                                f"the matrix unit"
                            )
                checked += 1
    return True, f"{checked} shift instances produce exactly the matrix units"


def suite_pbh_random(seed=None):
    base = _PBH_SEED if seed is None else seed
    checked = 0
    for p in (2, 3, 5):
        field = canonical_field(p, 1)
        rng = random.Random(base + p)
        for _ in range(1000):
            dim = rng.randint(1, 4)
            kc = rng.randint(1, 3)
            h = _random_mat(field, dim, dim, rng)
            k = _random_mat(field, dim, kc, rng)
            mu = minpoly(h)
            answers = set()
            for d in range(mu.degree, dim + 1):
                answers.add(pbh_test(h, k, d))
            if len(answers) != 1:
                return False, f"p={p}: verdict depends on the depth d"
            checked += 1
    return True, f"{checked} random pairs, both rank characterizations agree"


def suite_squarefree_dimension(seed=None):
    rng = random.Random(_SQFREE_SEED if seed is None else seed)
    fields = [canonical_field(p, 1) for p in (5, 7, 11)]
    collected = 0
    rejected = 0
    idx = 0
    while collected < 200:
        field = fields[idx % 3]
        idx += 1
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        a = _random_mat(field, m, m, rng)
        b = _random_mat(field, n, n, rng)
        square_free = True
        for mat in (a, b):
            chi = charpoly(mat)
            if poly_gcd(chi, chi.derivative()).degree != 0:
                square_free = False
                break
        if not square_free:
            continue
        s = _random_mat(field, m, n, rng)
        try:
            u, v, ext = _diag_eigen_pair(a, b)
        except Overflow:
            # splitting compositum above the order bound; draw again
            rejected += 1
            continue
        d1 = diagonalizable_span_dimension(a, b, s)
        d2 = span_dimension(a, b, s)
        if d1 != d2:
            return False, (
                f"p={field.p} m={m} n={n}: nonzero count {d1} but rank {d2}"
            )
        if not vandermonde_factorization_check(a, b, s, u, v):
            return False, f"p={field.p} m={m} n={n}: factorization identity fails"
        collected += 1
    return True, (
        f"200 square-free instances agree on both routes "
        f"({rejected} oversized splitting fields redrawn)"
    )


def suite_irreducible_criterion(seed=None):
    field = canonical_field(2, 1)
    one = field.one
    zero = field.zero
    f_deg2 = Poly(field, [one, one, one])          # x^2 + x + 1
    f_deg3 = Poly(field, [one, one, zero, one])    # x^3 + x + 1
    a = companion(f_deg2)
    b = companion(f_deg3)
    if not irreducible_pair_criterion(a, b):
        return False, "coprime 2x3 pair rejected by the criterion"
    els = list(field.elements())
    nonzero = 0
    for entries in product(els, repeat=6):
        s = Mat(field, 2, 3, entries)
        if s.is_zero():
            continue
        nonzero += 1
        if not spans_full(a, b, s):
            return False, f"coprime pair fails to span at s={s.row_list()}"
    b2 = companion(f_deg2)
    if irreducible_pair_criterion(a, b2):
        return False, "2x2 pair with gcd 2 accepted by the criterion"
    ident = Mat.identity(field, 2)
    if spans_full(a, b2, ident):
        return False, "expected non-spanning middle matrix spans anyway"
    return True, (
        f"all {nonzero} nonzero s span for the coprime pair; "
        f"gcd-2 pair rejected with an explicit non-spanning s"
    )


def suite_cardinality_grid(seed=None):
    checked = 0
    for q, m, n in ((2, 2, 3), (2, 3, 4), (3, 2, 3)):
        field = canonical_field(q, 1)
        a = companion(smallest_irreducible(field, m))
        b = companion(smallest_irreducible(field, n))
        s = Mat.unit(field, m, n, 0, 0)
        if not spans_full(a, b, s):
            return False, f"q={q} m={m} n={n}: coprime instance fails to span"
        for h in range(m + 1):
            for k in range(n + 1):
                got = enumerate_products(a, b, s, h, k)
                want = cardinality_formula(q, h, k)
                if got != want:
                    return False, (
                        f"q={q} h={h} k={k}: enumerated {got}, formula {want}"
                    )
                checked += 1
    return True, f"{checked} grid points, enumeration matches the closed form"


def suite_outer_fibers(seed=None):
    for q, h, k in ((2, 1, 1), (2, 2, 2), (3, 2, 2)):
        zero_fiber, nonzero = outer_product_fibers(h, k, q)
        if zero_fiber != q ** h + q ** k - 1:
            return False, f"q={q} h={h} k={k}: zero fiber {zero_fiber}"
        if nonzero != q - 1:
            return False, f"q={q} h={h} k={k}: nonzero fiber {nonzero}"
        images = (q ** h - 1) * (q ** k - 1) // (q - 1)
        if zero_fiber + images * nonzero != q ** (h + k):
            return False, f"q={q} h={h} k={k}: fibers do not partition the pairs"
    return True, "fiber census matches the closed form on all three grids"


def suite_commutator_gf3(seed=None):
    field = canonical_field(3, 1)
    els = list(field.elements())
    mats = [Mat(field, 2, 2, tuple(c)) for c in product(els, repeat=4)]
    invertible = 0
    for a in mats:
        for b in mats:
            det_inv, crit = commutator_test_2x2(a, b)
            # odd characteristic: commutator_test_2x2 raises on any mismatch
            if det_inv:
                invertible += 1
    total = len(mats) ** 2
    return True, f"{total} pairs, invertible commutator in {invertible} cases"


def suite_commutator_gf2(seed=None):
    field = canonical_field(2, 1)
    els = list(field.elements())
    mats = [Mat(field, 2, 2, tuple(c)) for c in product(els, repeat=4)]
    agree = 0
    disagree = 0
    example = ""
    for a in mats:
        for b in mats:
            det_inv, crit = commutator_test_2x2(a, b)
            if det_inv == crit:
                agree += 1
            else:
                disagree += 1
                if not example:
                    example = f"a={a.row_list()} b={b.row_list()}"
    total = agree + disagree
    if disagree:
        detail = (
            f"characteristic 2 equivalence fails: {disagree}/{total} pairs "
            f"disagree, first at {example}"
        )
    else:
        detail = f"characteristic 2 equivalence holds on all {total} pairs"
    return True, detail


def suite_combination_consistency(seed=None):
    rng = random.Random(_COMBO_SEED if seed is None else seed)
    f2 = canonical_field(2, 1)
    f3 = canonical_field(3, 1)
    for i in range(500):
        field = f2 if i % 2 else f3
        m = rng.randint(1, 3)
        n = rng.randint(1, 3)
        z = _random_mat(field, m, n, rng)
        a = _random_mat(field, m, m, rng)
        b = _random_mat(field, n, n, rng)
        s = _random_mat(field, m, n, rng)
        direct = generator_combination(z, a, b, s)
        op = generator_combination_matrix(z, a, b)
        if direct != unvec(op @ vec(s), m, n):
            return False, f"operator matrix disagrees with the direct sum at #{i}"
    for i in range(100):
        field = f2 if i % 2 else f3
        m = rng.randint(1, 3)
        n = rng.randint(1, 3)
        inst = irreducible_pair_instance(field, m, n, rng.randrange(2 ** 30))
        z = _random_mat(field, m, n, rng)
        vals = combination_eigenvalues(z, inst.a, inst.b)
        ext = vals[0].field
        chi = charpoly(generator_combination_matrix(z, inst.a, inst.b))
        rts = roots_in(chi, ext)
        if len(rts) != m * n:
            return False, f"eigen instance #{i}: operator polynomial did not split"
        if sorted(e.coeffs for e in vals) != sorted(e.coeffs for e in rts):
            return False, f"eigen instance #{i}: eigenvalue multisets differ"
    return True, "500 operator identities and 100 eigenvalue multisets agree"


_SUITES = (
    ("theorem-exhaustive-gf2", suite_theorem_exhaustive_gf2, True),
    ("theorem-sampled", suite_theorem_sampled, True),
    ("shift-example", suite_shift_example, True),
    ("pbh-random", suite_pbh_random, True),
    ("squarefree-dimension", suite_squarefree_dimension, True),
    ("irreducible-criterion", suite_irreducible_criterion, True),
    ("cardinality-grid", suite_cardinality_grid, True),
    ("outer-fibers", suite_outer_fibers, True),
    ("commutator-gf3", suite_commutator_gf3, True),
    ("commutator-gf2", suite_commutator_gf2, False),
    ("combination-consistency", suite_combination_consistency, True),
)

QUICK_SUITES = ("theorem-exhaustive-gf2", "cardinality-grid")


def suite_names(level: str = "full"):
    if level == "quick":
        return list(QUICK_SUITES)
    if level == "full":
        return [name for name, _, _ in _SUITES]
    raise ValueError(f"unknown level {level!r}")


def run_suite(name: str, seed=None) -> SuiteResult:
    for sname, fn, gating in _SUITES:
        if sname == name:
            start = time.monotonic()
            try:
                passed, detail = fn(seed=seed)
            except Exception as exc:  # a crash is a failure, not an abort
                passed = False
                detail = f"raised {type(exc).__name__}: {exc}"
            elapsed = time.monotonic() - start
            return SuiteResult(name, passed, detail, elapsed, gating)
    raise ValueError(f"unknown suite {name!r}")


def run_suites(level: str = "full", seed=None):
    return [run_suite(name, seed=seed) for name in suite_names(level)]
