"""Exact linear algebra over the rationals for small dense matrices.

`nullspace` works on integer numpy arrays: fraction-free Gauss-Jordan
elimination (Bareiss 1968) keeps every entry an integer minor of the input,
so the rank and the kernel come out of one exact integer pass.  The
remaining routines work on plain nested lists of ``fractions.Fraction``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, List, Sequence

import numpy as np

Matrix = List[List[Fraction]]
Vector = List[Fraction]


def _to_matrix(rows: Iterable[Sequence]) -> Matrix:
    return [[Fraction(x) for x in row] for row in rows]


def zero_one_minor_bound_squared(n: int) -> Fraction:
    """B^2 = (n+1)^(n+1) / 4^n, B the bound on every minor of a 0/1 matrix
    with n columns: a k x k minor is at most (k+1)^((k+1)/2) / 2^k."""
    return Fraction((n + 1) ** (n + 1), 4 ** n)


def _integer_array(matrix: Iterable[Sequence[int]]) -> np.ndarray:
    """The matrix as int64 when Hadamard's bound shows that no product of
    two of its minors, nor their difference, can overflow; else as Python
    ints (object dtype).

    With n columns and entries at most top in absolute value, every minor
    is at most (sqrt(n) top)^n.  When every entry is 0 or 1 the sharper
    bound `zero_one_minor_bound_squared` applies, so the elimination stays
    in int64 up to 22 columns (the general bound allows 15)."""
    m = np.asarray(matrix)
    if m.dtype.kind not in "iu":
        # Python ints past int64 come back as object or float64
        m = np.asarray(matrix, dtype=object)
    n_cols = m.shape[1]
    if ((m == 0) | (m == 1)).all():
        fits = 2 * zero_one_minor_bound_squared(n_cols) < 2 ** 63
    else:
        top = max(int(m.max(initial=0)), -int(m.min(initial=0)))
        fits = 2 * (n_cols * top * top) ** n_cols < 2 ** 63
    return m.astype(np.int64) if fits else m.astype(object)


def nullspace(matrix: Iterable[Sequence[int]]) -> List[Vector]:
    """Basis of the rational kernel of an integer matrix, one vector per
    free column: the free column's entry is 1, the other free entries are 0
    (the basis read off the reduced row echelon form).

    Fraction-free Gauss-Jordan: each step multiplies every other row by the
    new pivot, subtracts the pivot row times that row's entry in the pivot
    column and divides exactly by the previous pivot.  At the end every pivot entry equals the last pivot d and the
    pivot rows are d times the reduced row echelon form."""
    matrix = list(matrix)
    if not matrix:
        return []
    m = _integer_array(matrix)
    n_rows, n_cols = m.shape
    pivots: List[int] = []
    prev = 1
    for c in range(n_cols):
        r = len(pivots)
        nonzero = m[r:, c].nonzero()[0]
        if nonzero.size == 0:
            continue
        p = r + int(nonzero[0])
        row = m[p].copy()
        m[p] = m[r]
        m[r] = row
        pivot = row[c]
        # the pivot row itself comes out as zero and is put back
        m = (pivot * m - m[:, c, None] * row) // prev
        m[r] = row
        prev = pivot
        pivots.append(c)
        if len(pivots) == n_rows:
            break
    d = int(prev)
    basis: List[Vector] = []
    for fc in (c for c in range(n_cols) if c not in pivots):
        v = [Fraction(0)] * n_cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = Fraction(-int(m[r, fc]), d)
        basis.append(v)
    return basis


# mat_mul, char_poly, poly_eval and integer_roots have no caller in the
# package since the spherical functions come from float diagonalisation.
# perfbench/tracer.py patches char_poly and integer_roots by name, so they
# stay until the benchmark drops those spans.


def mat_mul(a: Iterable[Sequence], b: Iterable[Sequence]) -> Matrix:
    bm = _to_matrix(b)
    cols = list(zip(*bm))
    return [[sum((Fraction(x) * y for x, y in zip(row, col)), Fraction(0)) for col in cols] for row in a]


def char_poly(matrix: Iterable[Sequence]) -> List[Fraction]:
    """Characteristic polynomial coefficients [c_0, ..., c_{d-1}, 1].

    Faddeev-LeVerrier recursion; exact for rational input.
    """
    a = _to_matrix(matrix)
    d = len(a)
    # c[k] is the coefficient of lambda^{d-k}; c[0] = 1
    c = [Fraction(0)] * (d + 1)
    c[0] = Fraction(1)
    m = [[Fraction(0)] * d for _ in range(d)]
    for k in range(1, d + 1):
        # M_k = A (M_{k-1} + c_{k-1} I)
        tmp = [row[:] for row in m]
        for i in range(d):
            tmp[i][i] += c[k - 1]
        m = mat_mul(a, tmp)
        trace = sum((m[i][i] for i in range(d)), Fraction(0))
        c[k] = -trace / k
    return list(reversed(c))


def poly_eval(coeffs: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + Fraction(c)
    return acc


def integer_roots(coeffs: Sequence[Fraction], bound: int) -> List[int] | None:
    """All roots of a monic rational polynomial, if every root is an
    integer in [-bound, bound]; otherwise None.

    Returned with multiplicity, ascending.
    """
    cs = [Fraction(c) for c in coeffs]
    degree = len(cs) - 1
    roots: List[int] = []
    for cand in range(-bound, bound + 1):
        x = Fraction(cand)
        while len(cs) > 1 and poly_eval(cs, x) == 0:
            # synthetic division by (t - cand)
            out = []
            acc = Fraction(0)
            for c in reversed(cs):
                acc = acc * x + c
                out.append(acc)
            # out holds Horner partial sums; quotient coeffs are all but last
            quot = list(reversed(out[:-1]))
            cs = quot
            roots.append(cand)
    if len(roots) != degree:
        return None
    return sorted(roots)
