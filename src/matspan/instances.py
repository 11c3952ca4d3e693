"""Problem instances: a field plus the triple (A, B, S), with a strict
JSON wire format and seeded generators.

Wire format:

    {
      "field": {"p": 3, "degree": 2, "modulus": [1, 0, 1]},
      "A": [[...], ...],
      "B": [[...], ...],
      "S": [[...], ...]
    }

Prime-field entries are plain ints in [0, p); extension entries are
coefficient lists of length degree, constant term first.  degree and
modulus may be omitted (degree defaults to 1; modulus to the canonical
one).  Out-of-range values are rejected, never reduced.

Parsed fields are interned: the same textual field always yields the
same Field object, so instances read from separate files interoperate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import FieldError, ParseError
from .fields import Field
from .matrices import Mat, companion
from .polys import Poly, canonical_field, is_irreducible, make_extension

# explicit non-canonical moduli, keyed by (p, coefficient tuple)
_parsed_extensions: dict = {}


@dataclass(frozen=True)
class Instance:
    field: Field
    a: Mat
    b: Mat
    s: Mat


def _expect_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{path}: expected an integer, got {value!r}")
    return value


def _parse_field(obj, path: str) -> Field:
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: expected an object")
    unknown = set(obj) - {"p", "degree", "modulus"}
    if unknown:
        raise ParseError(f"{path}: unknown keys {sorted(unknown)}")
    if "p" not in obj:
        raise ParseError(f"{path}: missing 'p'")
    p = _expect_int(obj["p"], f"{path}.p")
    degree = _expect_int(obj.get("degree", 1), f"{path}.degree")
    if degree < 1:
        raise FieldError(f"{path}.degree: must be at least 1")
    try:
        base = canonical_field(p, 1)
    except Exception as exc:
        raise FieldError(f"{path}.p: {exc}") from exc
    if "modulus" not in obj:
        if degree == 1:
            return base
        try:
            return canonical_field(p, degree)
        except Exception as exc:
            raise FieldError(f"{path}: {exc}") from exc
    raw = obj["modulus"]
    if degree == 1:
        raise FieldError(f"{path}.modulus: not allowed for a prime field")
    if not isinstance(raw, list) or len(raw) != degree + 1:
        raise ParseError(
            f"{path}.modulus: expected a list of {degree + 1} coefficients"
        )
    coeffs = []
    for i, c in enumerate(raw):
        c = _expect_int(c, f"{path}.modulus[{i}]")
        if not 0 <= c < p:
            raise ParseError(f"{path}.modulus[{i}]: {c} out of range for p={p}")
        coeffs.append(c)
    try:
        canon = canonical_field(p, degree)
    except Exception as exc:
        raise FieldError(f"{path}: {exc}") from exc
    if tuple(coeffs) == canon.modulus:
        return canon
    key = (p, tuple(coeffs))
    got = _parsed_extensions.get(key)
    if got is not None:
        return got
    modulus = Poly(base, [base.elem(c) for c in coeffs])
    try:
        field = make_extension(base, modulus)
    except Exception as exc:
        raise FieldError(f"{path}.modulus: {exc}") from exc
    return _parsed_extensions.setdefault(key, field)


def _parse_entry(field: Field, value, path: str):
    if field.degree == 1:
        v = _expect_int(value, path)
        if not 0 <= v < field.p:
            raise ParseError(f"{path}: {v} out of range for p={field.p}")
        return field.elem(v)
    if not isinstance(value, list) or len(value) != field.degree:
        raise ParseError(
            f"{path}: expected a coefficient list of length {field.degree}"
        )
    out = []
    for i, c in enumerate(value):
        c = _expect_int(c, f"{path}[{i}]")
        if not 0 <= c < field.p:
            raise ParseError(f"{path}[{i}]: {c} out of range for p={field.p}")
        out.append(c)
    return field.elem(out)


def _parse_matrix(field: Field, obj, path: str) -> Mat:
    if not isinstance(obj, list) or not obj:
        raise ParseError(f"{path}: expected a nonempty list of rows")
    width = None
    rows = []
    for i, row in enumerate(obj):
        if not isinstance(row, list) or not row:
            raise ParseError(f"{path}[{i}]: expected a nonempty row")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ParseError(f"{path}[{i}]: ragged row, expected {width} entries")
        rows.append([_parse_entry(field, v, f"{path}[{i}][{j}]")
                     for j, v in enumerate(row)])
    return Mat.from_rows(field, rows)


def parse_instance(obj) -> Instance:
    if not isinstance(obj, dict):
        raise ParseError("instance: expected a JSON object")
    unknown = set(obj) - {"field", "A", "B", "S"}
    if unknown:
        raise ParseError(f"instance: unknown keys {sorted(unknown)}")
    for key in ("field", "A", "B", "S"):
        if key not in obj:
            raise ParseError(f"instance: missing '{key}'")
    field = _parse_field(obj["field"], "field")
    a = _parse_matrix(field, obj["A"], "A")
    b = _parse_matrix(field, obj["B"], "B")
    s = _parse_matrix(field, obj["S"], "S")
    if a.rows != a.cols:
        raise ParseError(f"A: must be square, got {a.rows}x{a.cols}")
    if b.rows != b.cols:
        raise ParseError(f"B: must be square, got {b.rows}x{b.cols}")
    if s.rows != a.rows or s.cols != b.rows:
        raise ParseError(
            f"S: must be {a.rows}x{b.rows} to match A and B, got {s.rows}x{s.cols}"
        )
    return Instance(field, a, b, s)


def _dump_field(field: Field) -> dict:
    """The wire-format field object; the modulus actually in use is
    always echoed for extension fields so round-trips are exact."""
    out = {"p": field.p, "degree": field.degree}
    if field.degree > 1:
        out["modulus"] = list(field.modulus)
    return out


def _dump_entry(e):
    if e.field.degree == 1:
        return e.coeffs[0]
    return list(e.coeffs)


def _dump_matrix(m: Mat):
    return [[_dump_entry(e) for e in m.row(i)] for i in range(m.rows)]


def dump_instance(inst: Instance) -> dict:
    """JSON-ready dict in the wire format."""
    return {
        "field": _dump_field(inst.field),
        "A": _dump_matrix(inst.a),
        "B": _dump_matrix(inst.b),
        "S": _dump_matrix(inst.s),
    }


def _random_mat(field: Field, rows: int, cols: int, rng) -> Mat:
    return Mat(field, rows, cols,
               tuple(field.random_elem(rng) for _ in range(rows * cols)))


def _random_monic(field: Field, degree: int, rng) -> Poly:
    coeffs = [field.random_elem(rng) for _ in range(degree)]
    coeffs.append(field.one)
    return Poly(field, coeffs)


def _random_irreducible(field: Field, degree: int, rng) -> Poly:
    while True:
        f = _random_monic(field, degree, rng)
        if is_irreducible(f):
            return f


def shift_instance(field: Field, m: int, n: int) -> Instance:
    """A shifts coordinates down, B shifts them up, S hits only the
    (0, 0) corner; then A^i S B^j is exactly the (i, j) matrix unit."""
    if m < 1 or n < 1:
        raise ValueError("dimensions must be positive")
    a = Mat.zeros(field, m, m)
    ae = list(a.entries)
    for i in range(1, m):
        ae[i * m + (i - 1)] = field.one
    b = Mat.zeros(field, n, n)
    be = list(b.entries)
    for j in range(1, n):
        be[(j - 1) * n + j] = field.one
    return Instance(field,
                    Mat(field, m, m, tuple(ae)),
                    Mat(field, n, n, tuple(be)),
                    Mat.unit(field, m, n, 0, 0))


def random_cyclic_instance(field: Field, m: int, n: int, seed: int) -> Instance:
    """Companion matrices of random monic polynomials (hence cyclic) with
    a random nonzero middle matrix."""
    if m < 1 or n < 1:
        raise ValueError("dimensions must be positive")
    rng = random.Random(seed)
    a = companion(_random_monic(field, m, rng))
    b = companion(_random_monic(field, n, rng))
    while True:
        s = _random_mat(field, m, n, rng)
        if not s.is_zero():
            return Instance(field, a, b, s)


def irreducible_pair_instance(field: Field, m: int, n: int, seed: int) -> Instance:
    """Companions of random irreducible polynomials plus a random nonzero
    middle matrix."""
    if m < 1 or n < 1:
        raise ValueError("dimensions must be positive")
    rng = random.Random(seed)
    a = companion(_random_irreducible(field, m, rng))
    b = companion(_random_irreducible(field, n, rng))
    while True:
        s = _random_mat(field, m, n, rng)
        if not s.is_zero():
            return Instance(field, a, b, s)


def random_instance(field: Field, m: int, n: int, seed: int) -> Instance:
    if m < 1 or n < 1:
        raise ValueError("dimensions must be positive")
    rng = random.Random(seed)
    return Instance(field,
                    _random_mat(field, m, m, rng),
                    _random_mat(field, n, n, rng),
                    _random_mat(field, m, n, rng))
