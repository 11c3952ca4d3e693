"""Bit-for-bit determinism of the exact answers on a fixed sweep.

The records of span_verdict (witness, its field's modulus and its vectors
included), eigen_data, minpoly and pbh_test are hashed and compared with a
recorded digest.  A change that alters a witness, a canonical modulus, an
eigenvalue order or an eigenvector basis fails here; if the new output is
intended, it must update DIGEST and say why.
"""

import hashlib
import json
import warnings

from matspan import (
    MatSpanError,
    canonical_field,
    eigen_data,
    irreducible_pair_instance,
    make_prime_field,
    minpoly,
    pbh_test,
    random_cyclic_instance,
    random_instance,
    span_verdict,
)

DIGEST = "18dc62bcf21d28a453c2df516b685a1ca52b903f149868f157a194c209cdd007"

FIELDS = ((2, 1), (3, 1), (2, 2), (5, 1))
KINDS = (random_instance, random_cyclic_instance, irreducible_pair_instance)


def _field(f):
    return [f.p, f.degree, list(f.modulus) if f.degree > 1 else None]


def _mat(m):
    return [m.rows, m.cols, _field(m.field), [list(e.coeffs) for e in m.entries]]


def _attempt(fn):
    # a typed library error, such as Overflow, is part of the record
    try:
        return fn()
    except MatSpanError as exc:
        return type(exc).__name__


def _verdict(a, b, s):
    rep = span_verdict(a, b, s)
    w = rep.witness
    return [
        rep.span_dim, rep.spans_full, rep.a_cyclic, rep.b_cyclic,
        rep.condition_c, rep.consistency_ok,
        None if w is None else [
            _field(w.u.field), list(w.alpha.coeffs), list(w.beta.coeffs),
            _mat(w.u), _mat(w.v), list(w.value_uSv.coeffs),
        ],
    ]


def _eigen(m):
    ed = eigen_data(m)
    return [ed.dim, _field(ed.field), [
        [list(it.value.coeffs), it.alg_mult, it.geom_mult,
         [_mat(u) for u in it.left_basis], [_mat(v) for v in it.right_basis]]
        for it in ed.items
    ]]


def _record(inst):
    a, b, s = inst.a, inst.b, inst.s
    return {
        "verdict": _attempt(lambda: _verdict(a, b, s)),
        "eigen_data": _attempt(lambda: _eigen(a)),
        "minpoly": [list(c.coeffs) for c in minpoly(a).coeffs],
        "pbh_test": _attempt(lambda: pbh_test(a, s)),
    }


def sweep_records():
    out = []
    for p, d in FIELDS:
        field = canonical_field(p, d)
        for m in range(1, 4):
            for n in range(1, 4):
                for seed in (0, 1):
                    for kind in KINDS:
                        key = [p, d, m, n, seed, kind.__name__]
                        out.append([key, _record(kind(field, m, n, seed))])
    # irreducible pairs whose splitting fields, GF(2^12) and GF(3^10), send
    # the root finder into large fields
    for p, m, n in ((2, 3, 4), (3, 2, 5)):
        inst = irreducible_pair_instance(canonical_field(p, 1), m, n, 0)
        out.append([[p, 1, m, n, 0, "irreducible_pair_instance"], _record(inst)])
    # a splitting field of order 101^6 is past the bound: "Overflow"
    inst = random_instance(make_prime_field(101), 3, 3, 1)
    out.append([[101, 1, 3, 3, 1, "random_instance"], _record(inst)])
    return out


def sweep_digest():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a route disagreement must not pass
        text = json.dumps(sweep_records(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def test_outputs_match_recorded_digest():
    assert sweep_digest() == DIGEST
