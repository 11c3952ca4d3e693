"""Criteria for when the products A^i S B^j span the full matrix space.

The central object is the square matrix whose columns are the stacked
products; its rank is the span dimension.  The rank criterion is checked
against the eigenvector characterization: the span is everything exactly
when both matrices are cyclic and no left eigenvector u of A and right
eigenvector v of B have uSv = 0.  Both routes are always computed and a
disagreement is surfaced, never reconciled silently.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

from .errors import (
    DimensionMismatch,
    DTooSmall,
    FieldMismatch,
    LemmaViolation,
    Not2x2,
    NotEigenvectors,
    NotIrreducible,
    NotDiagonalizableCyclic,
    NotSquare,
    PropositionViolation,
)
from .fields import Elem, Field
from .matrices import (
    Mat,
    add_scalar,
    charpoly,
    eigen_data,
    eigen_items_in,
    embed_mat,
    hstack,
    is_cyclic,
    kron,
    minpoly,
    rank,
    splitting_degree_over_prime,
    vec,
    vstack,
)
from .polys import (
    Poly,
    _roots_of_irreducible,
    canonical_field,
    is_irreducible,
    poly_gcd,
)


@dataclass(frozen=True)
class Witness:
    """A violating eigenvector pair: uA = alpha u, Bv = beta v, uSv = 0.

    All members live in one common extension field.
    """

    alpha: Elem
    beta: Elem
    u: Mat
    v: Mat
    value_uSv: Elem


@dataclass(frozen=True)
class SpanReport:
    m: int
    n: int
    span_dim: int
    spans_full: bool
    a_cyclic: bool
    b_cyclic: bool
    condition_c: bool
    witness: Optional[Witness]
    consistency_ok: bool


def _check_triple(a: Mat, b: Mat, s: Mat):
    if a.rows != a.cols:
        raise NotSquare(f"left factor must be square, got {a.rows}x{a.cols}")
    if b.rows != b.cols:
        raise NotSquare(f"right factor must be square, got {b.rows}x{b.cols}")
    if s.field is not a.field or b.field is not a.field:
        raise FieldMismatch("the three matrices must share one field")
    if s.rows != a.rows or s.cols != b.rows:
        raise DimensionMismatch(
            f"middle matrix is {s.rows}x{s.cols}, expected {a.rows}x{b.rows}"
        )


def products_matrix(a: Mat, b: Mat, s: Mat) -> Mat:
    """The mn x mn matrix whose column i + m*j is vec(A^i S B^j).

    The first index runs fastest, matching the position of entry (i, j)
    under column stacking.
    """
    _check_triple(a, b, s)
    m, n = a.rows, b.rows
    mn = m * n
    cols = [None] * mn
    sj = s
    for j in range(n):
        if j:
            sj = sj @ b
        t = sj
        for i in range(m):
            if i:
                t = a @ t
            cols[i + m * j] = vec(t).entries
    out = []
    for r in range(mn):
        for c in range(mn):
            out.append(cols[c][r])
    return Mat(a.field, mn, mn, tuple(out))


def span_dimension(a: Mat, b: Mat, s: Mat) -> int:
    """Dimension of span{A^i S B^j : 0 <= i < m, 0 <= j < n}."""
    return rank(products_matrix(a, b, s))


def spans_full(a: Mat, b: Mat, s: Mat) -> bool:
    return span_dimension(a, b, s) == a.rows * b.rows


def _common_eigen_field(a: Mat, b: Mat) -> Field:
    field = a.field
    deg = math.lcm(splitting_degree_over_prime(a), splitting_degree_over_prime(b))
    if deg == field.degree:
        return field
    return canonical_field(field.p, deg)


def _pair_value(u: Mat, s_e: Mat, v: Mat) -> Elem:
    return ((u @ s_e) @ v).entries[0]


def _kernel_vector(basis, value) -> Mat:
    """A nonzero vector of span(basis[0], basis[1]) on which the linear
    functional value vanishes: basis[0] itself, or w1*basis[0] - w0*basis[1]
    with w0, w1 the values of the two."""
    b0, b1 = basis[0], basis[1]
    w0 = value(b0)
    if w0.is_zero():
        return b0
    return b0.scale(value(b1)) - b1.scale(w0)


def coupling_condition(a: Mat, b: Mat, s: Mat):
    """Check uSv != 0 for every left eigenvector u of A and right
    eigenvector v of B, over a common splitting extension.

    Returns (True, None) or (False, witness).  When an eigenspace has
    dimension at least two the linear functional u -> uSv on it has a
    nontrivial kernel, so a violating pair always exists and a kernel
    witness is returned immediately.  Otherwise eigenvalue pairs are
    scanned in canonical order and the first violation wins.
    """
    _check_triple(a, b, s)
    m, n = a.rows, b.rows
    if m == 0 or n == 0:
        raise DimensionMismatch("eigenvector coupling needs nonempty matrices")
    ext = _common_eigen_field(a, b)
    items_a = eigen_items_in(a, ext)
    items_b = eigen_items_in(b, ext)
    s_e = embed_mat(s, ext)
    for it in items_a:
        if it.geom_mult >= 2:
            other = items_b[0]
            v = other.right_basis[0]
            u = _kernel_vector(it.left_basis, lambda x: _pair_value(x, s_e, v))
            return False, Witness(it.value, other.value, u, v, _pair_value(u, s_e, v))
    for it in items_b:
        if it.geom_mult >= 2:
            other = items_a[0]
            u = other.left_basis[0]
            v = _kernel_vector(it.right_basis, lambda x: _pair_value(u, s_e, x))
            return False, Witness(other.value, it.value, u, v, _pair_value(u, s_e, v))
    for ita in items_a:
        u = ita.left_basis[0]
        us = u @ s_e
        for itb in items_b:
            v = itb.right_basis[0]
            val = (us @ v).entries[0]
            if val.is_zero():
                return False, Witness(ita.value, itb.value, u, v, val)
    return True, None


def span_verdict(a: Mat, b: Mat, s: Mat) -> SpanReport:
    """Full report: span dimension by rank, the eigenvector criterion,
    and whether the two agreed.  consistency_ok = False means a defect
    in this library, so it is also emitted as a warning."""
    _check_triple(a, b, s)
    m, n = a.rows, b.rows
    if m == 0 or n == 0:
        raise DimensionMismatch("the span verdict needs nonempty matrices")
    dim = span_dimension(a, b, s)
    full = dim == m * n
    a_cyc = is_cyclic(a)
    b_cyc = is_cyclic(b)
    cond, wit = coupling_condition(a, b, s)
    ok = full == (a_cyc and b_cyc and cond)
    if not ok:
        warnings.warn(
            f"span criterion disagreement: rank says {full}, "
            f"criterion says {a_cyc and b_cyc and cond}",
            stacklevel=2,
        )
    return SpanReport(
        m=m,
        n=n,
        span_dim=dim,
        spans_full=full,
        a_cyclic=a_cyc,
        b_cyclic=b_cyc,
        condition_c=cond,
        witness=wit,
        consistency_ok=ok,
    )


def pbh_test(h: Mat, k: Mat, d: Optional[int] = None) -> bool:
    """Reachability of (H, K) checked two independent ways.

    The Krylov route asks whether [K HK ... H^(d-1)K] has full row rank
    over the base field; the eigenvalue route asks whether [xI - H, K]
    has full row rank at every eigenvalue of H over the splitting field.
    Any d at least deg(minpoly(H)) is admissible; the default is the
    dimension.  The two answers are compared and a mismatch raises,
    because they are provably equal.
    """
    if h.rows != h.cols:
        raise NotSquare(f"pbh test needs a square first matrix, got {h.rows}x{h.cols}")
    if k.field is not h.field:
        raise FieldMismatch("matrices over different fields")
    if k.rows != h.rows:
        raise DimensionMismatch(
            f"second matrix has {k.rows} rows, expected {h.rows}"
        )
    p_dim = h.rows
    if d is None:
        d = p_dim
    mu = minpoly(h)
    if d < mu.degree:
        raise DTooSmall(f"depth {d} below deg(minpoly) = {mu.degree}")
    if d == 0:
        krylov_full = p_dim == 0
    else:
        blocks = []
        cur = k
        for i in range(d):
            if i:
                cur = h @ cur
            blocks.append(cur)
        krylov_full = rank(hstack(blocks)) == p_dim
    ed = eigen_data(h)
    ext = ed.field
    h_e = embed_mat(h, ext)
    k_e = embed_mat(k, ext)
    eig_full = True
    for it in ed.items:
        pencil = hstack([add_scalar(-h_e, it.value), k_e])
        if rank(pencil) != p_dim:
            eig_full = False
            break
    if krylov_full != eig_full:
        raise LemmaViolation(
            f"rank characterizations disagree: krylov={krylov_full} eigen={eig_full}"
        )
    return krylov_full


def _recover_eigenvalue(vec_mat: Mat, image: Mat) -> Elem:
    # vec_mat nonzero; image must be a scalar multiple of it
    idx = None
    for i, e in enumerate(vec_mat.entries):
        if e:
            idx = i
            break
    if idx is None:
        raise NotEigenvectors("zero vector supplied as an eigenvector")
    lam = image.entries[idx] / vec_mat.entries[idx]
    if image != vec_mat.scale(lam):
        raise NotEigenvectors("vector is not an eigenvector")
    return lam


def vandermonde_factorization_check(a: Mat, b: Mat, s: Mat, u: Mat, v: Mat) -> bool:
    """Verify the eigenvector compression identity of the products matrix.

    With U stacking left eigenvectors of A (rows) and V collecting right
    eigenvectors of B (columns), compressing the products matrix R by
    (V^T kron U) must equal diag(vec(USV)) times the Kronecker product of
    the row-Vandermonde matrices of the recovered eigenvalues.  Inputs
    are verified to be genuine eigenvectors first.
    """
    _check_triple(a, b, s)
    ext = u.field
    if v.field is not ext:
        raise FieldMismatch("eigenvector blocks over different fields")
    m, n = a.rows, b.rows
    if u.cols != m or v.rows != n:
        raise DimensionMismatch("eigenvector blocks do not conform")
    a_e = embed_mat(a, ext)
    b_e = embed_mat(b, ext)
    s_e = embed_mat(s, ext)
    alphas = []
    for i in range(u.rows):
        row = Mat(ext, 1, m, u.row(i))
        alphas.append(_recover_eigenvalue(row, row @ a_e))
    betas = []
    for j in range(v.cols):
        col = Mat(ext, n, 1, v.col(j))
        betas.append(_recover_eigenvalue(col, b_e @ col))
    r_e = embed_mat(products_matrix(a, b, s), ext)
    lhs = kron(v.T, u) @ r_e
    dvec = vec(u @ s_e @ v).entries
    one = ext.one

    def vdm(values, width):
        rows = []
        for lam in values:
            acc = one
            row = []
            for _ in range(width):
                row.append(acc)
                acc = acc * lam
            rows.append(row)
        return Mat.from_rows(ext, rows) if rows else Mat.zeros(ext, 0, width)

    kw = kron(vdm(betas, n), vdm(alphas, m))
    scaled = []
    for r in range(kw.rows):
        c = dvec[r]
        scaled.extend(e * c for e in kw.row(r))
    rhs = Mat(ext, kw.rows, kw.cols, tuple(scaled))
    return lhs == rhs


def _diag_eigen_pair(a: Mat, b: Mat):
    """Eigenrow/eigencolumn pair (U, V) for square-free characteristic
    polynomials, in the canonical eigenvalue order, plus their field."""
    ext = _common_eigen_field(a, b)
    items_a = eigen_items_in(a, ext)
    items_b = eigen_items_in(b, ext)
    u = vstack([it.left_basis[0] for it in items_a])
    v = hstack([it.right_basis[0] for it in items_b])
    return u, v, ext


def diagonalizable_span_dimension(a: Mat, b: Mat, s: Mat) -> int:
    """Span dimension as the number of nonzero entries of USV, valid when
    both characteristic polynomials are square-free."""
    _check_triple(a, b, s)
    for mat, name in ((a, "left"), (b, "right")):
        chi = charpoly(mat)
        if poly_gcd(chi, chi.derivative()).degree != 0:
            raise NotDiagonalizableCyclic(
                f"characteristic polynomial of the {name} factor is not square-free"
            )
    u, v, ext = _diag_eigen_pair(a, b)
    prod = u @ embed_mat(s, ext) @ v
    return sum(1 for e in prod.entries if e)


def commutator_test_2x2(a: Mat, b: Mat):
    """(det[A,B] != 0, cyclic-and-coupling with S = I) for 2x2 matrices.

    In odd characteristic the two booleans are provably equal and any
    disagreement raises.  In characteristic 2 the equivalence is checked
    empirically elsewhere, so the raw pair is returned as is.
    """
    for mat in (a, b):
        if mat.rows != 2 or mat.cols != 2:
            raise Not2x2(f"expected 2x2 matrices, got {mat.rows}x{mat.cols}")
    if b.field is not a.field:
        raise FieldMismatch("matrices over different fields")
    c = a @ b - b @ a
    det = c.entries[0] * c.entries[3] - c.entries[1] * c.entries[2]
    det_invertible = not det.is_zero()
    ident = Mat.identity(a.field, 2)
    criterion = (
        is_cyclic(a) and is_cyclic(b) and coupling_condition(a, b, ident)[0]
    )
    if det_invertible != criterion and a.field.p != 2:
        raise PropositionViolation(
            f"commutator invertibility {det_invertible} but criterion {criterion}"
        )
    return det_invertible, criterion


def _irreducible_charpolys(a: Mat, b: Mat):
    """The characteristic polynomials of a and b, checked irreducible."""
    chis = (charpoly(a), charpoly(b))
    for chi, name in zip(chis, ("left", "right")):
        if not is_irreducible(chi):
            raise NotIrreducible(
                f"characteristic polynomial of the {name} factor is reducible"
            )
    return chis


def irreducible_pair_criterion(a: Mat, b: Mat) -> bool:
    """With both characteristic polynomials irreducible, every nonzero S
    spans exactly when the dimensions are coprime; returns that verdict."""
    if b.field is not a.field:
        raise FieldMismatch("matrices over different fields")
    _irreducible_charpolys(a, b)
    return math.gcd(a.rows, b.rows) == 1


def generator_combination(z: Mat, a: Mat, b: Mat, s: Mat) -> Mat:
    """The weighted sum of products: sum z[i][j] A^i S B^j."""
    _check_triple(a, b, s)
    m, n = a.rows, b.rows
    if z.field is not a.field:
        raise FieldMismatch("weights over a different field")
    if z.rows != m or z.cols != n:
        raise DimensionMismatch(f"weights are {z.rows}x{z.cols}, expected {m}x{n}")
    acc = Mat.zeros(a.field, m, n)
    t = s
    for i in range(m):
        if i:
            t = a @ t
        w = t
        for j in range(n):
            if j:
                w = w @ b
            zij = z.entries[i * n + j]
            if zij:
                acc = acc + w.scale(zij)
    return acc


def generator_combination_matrix(z: Mat, a: Mat, b: Mat) -> Mat:
    """Matrix of S -> sum z[i][j] A^i S B^j on stacked columns:
    sum z[i][j] (B^j)^T kron A^i."""
    if a.rows != a.cols or b.rows != b.cols:
        raise NotSquare("the outer factors must be square")
    if z.field is not a.field or b.field is not a.field:
        raise FieldMismatch("matrices over different fields")
    m, n = a.rows, b.rows
    if z.rows != m or z.cols != n:
        raise DimensionMismatch(f"weights are {z.rows}x{z.cols}, expected {m}x{n}")
    mn = m * n
    acc = Mat.zeros(a.field, mn, mn)
    apows = []
    cur = Mat.identity(a.field, m)
    for i in range(m):
        if i:
            cur = cur @ a
        apows.append(cur)
    bt = b.T
    btj = Mat.identity(a.field, n)
    for j in range(n):
        if j:
            btj = btj @ bt
        for i in range(m):
            zij = z.entries[i * n + j]
            if zij:
                acc = acc + kron(btj, apows[i]).scale(zij)
    return acc


def combination_eigenvalues(z: Mat, a: Mat, b: Mat):
    """Eigenvalues of the weighted-products map when both characteristic
    polynomials are irreducible: the values sum z[i][j] alpha^i beta^j
    over eigenvalue pairs (alpha, beta), in canonical pair order."""
    if b.field is not a.field or z.field is not a.field:
        raise FieldMismatch("matrices over different fields")
    chi_a, chi_b = _irreducible_charpolys(a, b)
    m, n = a.rows, b.rows
    if z.rows != m or z.cols != n:
        raise DimensionMismatch(f"weights are {z.rows}x{z.cols}, expected {m}x{n}")
    ext = _common_eigen_field(a, b)
    alphas = _roots_of_irreducible(chi_a, ext)
    betas = _roots_of_irreducible(chi_b, ext)
    z_e = embed_mat(z, ext)
    out = []
    for alpha in alphas:
        apows = []
        acc = ext.one
        for _ in range(m):
            apows.append(acc)
            acc = acc * alpha
        for beta in betas:
            bpows = []
            acc = ext.one
            for _ in range(n):
                bpows.append(acc)
                acc = acc * beta
            val = ext.zero
            for i in range(m):
                for j in range(n):
                    zij = z_e.entries[i * n + j]
                    if zij:
                        val = val + zij * apows[i] * bpows[j]
            out.append(val)
    return out
