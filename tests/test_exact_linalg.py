from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pompeiu import exact_linalg as xla


def _reference_nullspace(rows):
    """Kernel basis from the reduced row echelon form, by Gauss-Jordan
    elimination in Fractions: one vector per free column."""
    m = [[Fraction(x) for x in row] for row in rows]
    n_cols = len(m[0])
    pivots = []
    for c in range(n_cols):
        r = len(pivots)
        p = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    basis = []
    for fc in (c for c in range(n_cols) if c not in pivots):
        v = [Fraction(0)] * n_cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][fc]
        basis.append(v)
    return basis


def _matrices(entries, max_rows, max_cols):
    return st.integers(1, max_cols).flatmap(lambda n: st.lists(
        st.lists(entries, min_size=n, max_size=n), min_size=1, max_size=max_rows))


@settings(max_examples=80, deadline=None)
@given(_matrices(st.integers(0, 1), 30, 26))
def test_nullspace_matches_fraction_reference_01(rows):
    assert xla.nullspace(rows) == _reference_nullspace(rows)


@settings(max_examples=80, deadline=None)
@given(_matrices(st.integers(-10 ** 6, 10 ** 6), 8, 8),
       st.integers(-3, 3), st.integers(-3, 3))
def test_nullspace_matches_fraction_reference_large_entries(rows, a, b):
    # append a dependent column a * col0 + b * col_last half of the time
    if a % 2:
        rows = [row + [a * row[0] + b * row[-1]] for row in rows]
    assert xla.nullspace(rows) == _reference_nullspace(rows)


def test_nullspace_dtype_follows_hadamard_bound():
    assert xla._integer_array([[1, 0, 1, 1]]).dtype.kind == "i"
    assert xla._integer_array([[1] * 26]).dtype.kind == "O"
    assert xla._integer_array([[10 ** 6, 1], [0, 1]]).dtype.kind == "O"


def test_nullspace_dtype_follows_01_hadamard_bound():
    # a k x k minor of a 0/1 matrix is at most (k+1)^((k+1)/2) / 2^k
    assert xla._integer_array([[1] * 22, [0] * 22]).dtype == np.int64
    assert xla._integer_array([[1] * 23, [0] * 23]).dtype == object
    # one entry outside {0, 1} brings back the general bound
    assert xla._integer_array([[1] * 15 + [0]]).dtype == np.int64
    assert xla._integer_array([[1] * 15 + [2]]).dtype == object
    assert xla._integer_array([[1] * 15 + [-1]]).dtype == object


@settings(max_examples=60, deadline=None)
@given(st.integers(16, 22).flatmap(lambda n: st.lists(
    st.lists(st.integers(0, 1), min_size=n, max_size=n), min_size=1, max_size=30)))
def test_nullspace_01_in_int64_from_16_to_22_columns(rows):
    assert xla._integer_array(rows).dtype == np.int64
    assert xla.nullspace(rows) == _reference_nullspace(rows)


def _sylvester_01():
    """The 15 x 15 0/1 matrix of the Sylvester Hadamard matrix of order 16:
    drop the first row and column, send +1 to 0 and -1 to 1."""
    h = np.array([[1]])
    for _ in range(4):
        h = np.block([[h, h], [h, -h]])
    return (1 - h[1:, 1:]) // 2


def test_nullspace_sylvester_01_matrix_reaches_the_bound():
    b = _sylvester_01()
    assert round(abs(np.linalg.det(b))) == 16 ** 8 // 2 ** 15
    for m in (b, np.hstack([b, b[:, :7]])):       # 15 and 22 columns
        rows = m.tolist()
        assert xla._integer_array(rows).dtype == np.int64
        assert xla.nullspace(rows) == _reference_nullspace(rows)


def test_nullspace_kernel_vectors_annihilate_rows():
    rows = [[1, 1, 0, 0], [0, 1, 1, 0], [1, 0, -1, 0]]
    basis = xla.nullspace(rows)
    assert len(basis) == 2
    for v in basis:
        assert all(sum(r * x for r, x in zip(row, v)) == 0 for row in rows)
