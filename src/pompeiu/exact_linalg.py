"""Exact linear algebra over the rationals for small dense matrices.

Everything here works on plain nested lists of ``fractions.Fraction`` (or
ints, which are promoted).  Matrices are small (a few dozen rows at most),
so straightforward Gaussian elimination is plenty.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, List, Sequence

Matrix = List[List[Fraction]]
Vector = List[Fraction]


def _to_matrix(rows: Iterable[Sequence]) -> Matrix:
    return [[Fraction(x) for x in row] for row in rows]


def row_echelon(matrix: Iterable[Sequence]) -> tuple[Matrix, List[int]]:
    """Reduce to row echelon form; returns (echelon matrix, pivot columns)."""
    m = _to_matrix(matrix)
    if not m:
        return m, []
    n_rows, n_cols = len(m), len(m[0])
    pivots: List[int] = []
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(n_rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return m, pivots


def nullspace(matrix: Iterable[Sequence]) -> List[Vector]:
    """Basis of the rational kernel (one vector per free column)."""
    m = _to_matrix(matrix)
    if not m:
        return []
    n_cols = len(m[0])
    reduced, pivots = row_echelon(m)
    free = [c for c in range(n_cols) if c not in pivots]
    basis: List[Vector] = []
    for fc in free:
        v = [Fraction(0)] * n_cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -reduced[r][fc]
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
