"""The convolution algebra of K-biinvariant measures on a finite group.

Measures are stored as per-element densities with respect to counting
measure, constant on K-double cosets, so one coefficient per double-coset
class.  With this normalization the unit of the algebra is the measure of
density 1/|K| on K (the biinvariant average of the point mass at the
identity), and that measure is idempotent under convolution.

Spherical functions are the normalized joint eigenfunctions of the
commuting convolution operators given by the class-indicator basis; they
satisfy  avg_{k in K} f(xky) = f(x) f(y)  and f(identity) = 1.  They come
from one pipeline: float, then certified exact.  The operators are jointly
diagonalised in floating point.  When every eigenvalue rounds to an
integer, the rounded eigenvalues give every value as a rational, and that
table is kept (marked exact) only if it satisfies the functional equation
exactly, in scaled integers, on double-coset representatives.  Otherwise
the float table is kept, after the same check against
SPHERICAL_RESIDUAL_TOL.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .groups import CosetSpace

SPHERICAL_RESIDUAL_TOL = 1e-10
EIG_CLUSTER_TOL = 1e-8

__all__ = [
    "BiinvariantMeasure",
    "SphericalFunction",
    "NotGelfandPairError",
    "hecke_structure",
    "unit_measure",
    "class_indicator",
    "delta_sharp",
    "measure_from_function",
    "project_biinvariant",
    "convolve",
    "is_gelfand_pair",
    "gelfand_witness",
    "spherical_functions",
    "check_spherical",
    "phi_hom",
    "reverse_measure",
    "reverse_function",
    "spherical_table_csv",
]


class NotGelfandPairError(Exception):
    """The biinvariant convolution algebra is not commutative."""

    def __init__(self, space, witness):
        self.space = space
        self.witness = witness
        a, b = witness
        labels = space.group.element_labels
        super().__init__(
            f"{space.name}: convolution not commutative; witnessing double-coset "
            f"representatives {labels[a]!r}, {labels[b]!r}")


@dataclass(frozen=True)
class BiinvariantMeasure:
    """K-biinvariant measure, one per-element density per double-coset class."""

    space: CosetSpace
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != self.space.double_cosets.num_classes:
            raise ValueError("coefficient count != double-coset class count")

    def density(self) -> np.ndarray:
        """Per-element densities expanded to a vector on the whole group."""
        dcp = self.space.double_cosets
        return np.asarray([complex(self.coeffs[c]) for c in dcp.class_of])

    def one_norm(self) -> float:
        dcp = self.space.double_cosets
        return float(sum(abs(complex(c)) * s
                         for c, s in zip(self.coeffs, dcp.class_sizes)))

    def scaled(self, factor) -> "BiinvariantMeasure":
        return BiinvariantMeasure(self.space, tuple(factor * c for c in self.coeffs))

    def is_exact(self) -> bool:
        return all(isinstance(c, (int, Fraction)) for c in self.coeffs)


@dataclass(frozen=True)
class SphericalFunction:
    """Value table on double-coset classes, normalized to 1 at the identity
    class, together with its eigenvalue under each class-indicator operator."""

    space: CosetSpace
    values: tuple
    eigenvalue_tuple: tuple
    exact: bool

    def on_group(self) -> list:
        class_of = self.space.double_cosets.class_of
        return [self.values[c] for c in class_of]


class _HeckeStructure:
    """Per-space data, kept on the space: operator matrices, commutativity,
    sphericals."""

    def __init__(self, space: CosetSpace):
        self.space = space
        dcp = space.double_cosets
        self.d = dcp.num_classes
        group = space.group
        mul, inv = group.mul, group.inv
        class_of = dcp.class_of
        reps = np.asarray(dcp.representatives, dtype=np.int32)
        members = [np.nonzero(class_of == j)[0].astype(np.int32) for j in range(self.d)]
        # op[j][k, i] = #{ y in class j : rep_k y^{-1} in class i }
        op = np.zeros((self.d, self.d, self.d), dtype=np.int64)
        for j in range(self.d):
            idx = class_of[mul[np.ix_(reps, inv[members[j]])]]
            flat = idx + self.d * np.arange(self.d)[:, None]
            op[j] = np.bincount(flat.ravel(), minlength=self.d * self.d).reshape(self.d, self.d)
        self.op = op
        self.inverse_class = dcp.inverse_class(group)
        self.class_sizes = dcp.class_sizes
        self._witness = self._find_witness()
        self._sphericals: list[SphericalFunction] | None = None

    def _find_witness(self):
        # commutativity of the basis: op[j, k, i] equals op[i, k, j]
        diff = self.op != self.op.transpose(2, 1, 0)
        if not diff.any():
            return None
        bad = np.argwhere(diff.any(axis=1))
        j, i = min((int(a), int(b)) for a, b in bad)
        dcp = self.space.double_cosets
        return (dcp.representatives[j], dcp.representatives[i])

    @property
    def commutative(self) -> bool:
        return self._witness is None

    def sphericals(self) -> list[SphericalFunction]:
        if self._witness is not None:
            raise NotGelfandPairError(self.space, self._witness)
        if self._sphericals is None:
            vectors = _joint_eigenvectors_float(self.op)
            # (op[j] @ v)[0] for every j and v at once
            lam = np.asarray(vectors) @ self.op[:, 0, :].T.astype(complex)
            funcs = self._certified_exact(lam)
            if funcs is None:
                funcs = self._checked_float(vectors, lam)
            funcs.sort(key=lambda f: tuple(
                (round(float(complex(e).real), 9), round(float(complex(e).imag), 9))
                for e in f.eigenvalue_tuple))
            self._sphericals = funcs
        return self._sphericals

    def _certified_exact(self, lam: np.ndarray) -> list[SphericalFunction] | None:
        """Rational sphericals from integer eigenvalues, or None.

        Convolving with the indicator of class j and reading off the
        identity class gives lambda_j = |C_j| f(inverse of class j), so an
        all-integer spectrum fixes every value as a fraction.  The table is
        kept only when it satisfies the functional equation exactly."""
        tol = EIG_CLUSTER_TOL * (1.0 + np.abs(self.op).sum(axis=2).max(axis=1))
        rounded = np.rint(lam.real)
        if np.any(np.abs(lam - rounded) > tol):
            return None
        eig_rows = rounded.astype(np.int64).tolist()
        values = []
        for row in eig_rows:
            v = [Fraction(0)] * self.d
            for j, (num, size) in enumerate(zip(row, self.class_sizes)):
                v[self.inverse_class[j]] = Fraction(num, size)
            values.append(tuple(v))
        if len(set(values)) != len(values) or not self._certify_exact(values):
            return None
        return [SphericalFunction(self.space, v, tuple(Fraction(num) for num in row), True)
                for v, row in zip(values, eig_rows)]

    def _certify_exact(self, values) -> bool:
        """True when every rational class-value table in values satisfies the
        functional equation exactly, checked on double-coset representatives."""
        dcp = self.space.double_cosets
        table, scale = _scaled_integers(values, self.space.k_size)
        return _equation_excess(self.space, table[:, dcp.class_of],
                                dcp.representatives, scale) == 0

    def _checked_float(self, vectors, lam: np.ndarray) -> list[SphericalFunction]:
        table = np.asarray(vectors, dtype=complex)[:, self.space.double_cosets.class_of]
        reps = self.space.double_cosets.representatives
        res = _equation_excess(self.space, table, reps) / self.space.k_size
        if res > SPHERICAL_RESIDUAL_TOL:
            raise RuntimeError(
                f"spherical candidate failed functional equation "
                f"(residual {res:.3e}) on {self.space.name}")
        return [SphericalFunction(self.space, v, tuple(complex(e) for e in row), False)
                for v, row in zip(vectors, lam)]


def _scaled_integers(rows, k_size: int) -> tuple[np.ndarray, int]:
    """Rows of rationals as (integer table, scale) with table = scale * rows,
    scale the lcm of the denominators.  The table holds Python ints when
    the functional-equation terms could overflow int64."""
    scale = math.lcm(*(x.denominator for row in rows for x in row))
    ints = [[x.numerator * (scale // x.denominator) for x in row] for row in rows]
    top = max(abs(x) for row in ints for x in row)
    dtype = np.int64 if k_size * top * (top + scale) < 2 ** 62 else object
    return np.asarray(ints, dtype=dtype), scale


def _equation_excess(space: CosetSpace, table: np.ndarray, points, scale=1):
    """max over x, y in points of |scale * sum_{k in K} t(xky) - |K| t(x) t(y)|
    over the rows t of table (values on the group).

    A table t = scale * f turns the functional equation of f into this
    integer identity, so the check is exact for integer tables.  For a
    biinvariant f the double-coset representatives are enough as points:
    f(k1 a k2 k k3 b k4) averages over k to the value at a, b."""
    mul = space.group.mul
    points = np.asarray(points, dtype=np.intp)
    acc = np.zeros(table.shape[:-1] + (len(points), len(points)), dtype=table.dtype)
    for k in space.k_members:
        acc += table[..., mul[mul[points, k][:, None], points[None, :]]]
    at = table[..., points]
    excess = scale * acc - space.k_size * at[..., :, None] * at[..., None, :]
    return np.abs(excess).max()


def _apply_row0(matrix, v):
    """(matrix @ v)[0]; v is normalized so this is the eigenvalue."""
    if any(isinstance(x, Fraction) for x in v):
        return sum((Fraction(int(a)) * x for a, x in zip(matrix[0], v)), Fraction(0))
    return complex(np.asarray(matrix[0], dtype=complex) @ np.asarray(v, dtype=complex))


def _joint_eigenvectors_float(op: np.ndarray):
    d = op.shape[0]
    subspaces = [np.eye(d, dtype=complex)]
    for j in range(1, d):
        if all(q.shape[1] == 1 for q in subspaces):
            break
        scale = EIG_CLUSTER_TOL * (1.0 + float(abs(op[j]).sum(axis=1).max()))
        refined = []
        for q in subspaces:
            if q.shape[1] == 1:
                refined.append(q)
                continue
            bq = op[j].astype(complex) @ q
            m, *_ = np.linalg.lstsq(q, bq, rcond=None)
            eigvals, eigvecs = np.linalg.eig(m)
            order = np.lexsort((eigvals.imag, eigvals.real))
            groups: list[list[int]] = []
            for idx in order:
                if groups and abs(eigvals[idx] - eigvals[groups[-1][-1]]) < scale:
                    groups[-1].append(idx)
                else:
                    groups.append([idx])
            for g in groups:
                block = q @ eigvecs[:, g]
                qn, _ = np.linalg.qr(block)
                refined.append(qn)
        subspaces = refined
    out = []
    for q in subspaces:
        if q.shape[1] != 1:
            raise RuntimeError("joint eigenspace refinement did not separate "
                               "all characters; algebra may be degenerate")
        v = q[:, 0]
        if abs(v[0]) < 1e-12 * np.linalg.norm(v):
            raise RuntimeError("joint eigenvector vanishes at the identity class")
        v = v / v[0]
        vals = [complex(x) for x in v]
        vals[0] = 1.0 + 0.0j     # exact by construction; drop division residue
        out.append(tuple(vals))
    return out


def hecke_structure(space: CosetSpace) -> _HeckeStructure:
    return space.cached("hecke", _HeckeStructure)


# ---------------------------------------------------------------------------
# measure constructors


def unit_measure(space: CosetSpace) -> BiinvariantMeasure:
    """The algebra unit: density 1/|K| on K, i.e. coefficient 1 there."""
    coeffs = [Fraction(0)] * space.double_cosets.num_classes
    coeffs[int(space.double_cosets.class_of[space.group.identity])] = Fraction(1, space.k_size)
    return BiinvariantMeasure(space, tuple(coeffs))


def class_indicator(space: CosetSpace, class_index: int) -> BiinvariantMeasure:
    coeffs = [Fraction(0)] * space.double_cosets.num_classes
    coeffs[class_index] = Fraction(1)
    return BiinvariantMeasure(space, tuple(coeffs))


def delta_sharp(space: CosetSpace, g: int) -> BiinvariantMeasure:
    """Biinvariant average of the point mass at g: density 1/|KgK| there."""
    dcp = space.double_cosets
    c = int(dcp.class_of[g])
    coeffs = [Fraction(0)] * dcp.num_classes
    coeffs[c] = Fraction(1, dcp.class_sizes[c])
    return BiinvariantMeasure(space, tuple(coeffs))


def measure_from_function(space: CosetSpace, values: Sequence,
                          tol: float = 0.0) -> BiinvariantMeasure:
    """Interpret a density table on the group as a biinvariant measure.

    Raises ValueError if the table is not constant on double cosets
    (to within tol; default exact)."""
    dcp = space.double_cosets
    coeffs = []
    for j, rep in enumerate(dcp.representatives):
        ref = values[rep]
        for x in np.nonzero(dcp.class_of == j)[0]:
            if tol == 0.0:
                ok = values[int(x)] == ref
            else:
                ok = abs(complex(values[int(x)]) - complex(ref)) <= tol
            if not ok:
                raise ValueError("density not constant on double cosets")
        coeffs.append(ref)
    return BiinvariantMeasure(space, tuple(coeffs))


# ---------------------------------------------------------------------------
# operations


def project_biinvariant(space: CosetSpace, f: Sequence) -> list:
    """Average f over K on both sides: x -> avg_{l,k} f(l x k).

    Exact when the input values are ints/Fractions."""
    mul = space.group.mul
    n = space.group.order
    k_members = space.k_members
    k_size = space.k_size
    right = [_avg(f[mul[x, k]] for k in k_members) for x in range(n)]
    return [_avg(right[mul[k, x]] for k in k_members) for x in range(n)]


def _avg(items):
    items = list(items)
    total = items[0]
    for x in items[1:]:
        total = total + x
    if isinstance(total, (int, Fraction)):
        return Fraction(total, len(items)) if isinstance(total, int) \
            else total / len(items)
    return total / len(items)


def convolve(mu: BiinvariantMeasure, nu: BiinvariantMeasure) -> BiinvariantMeasure:
    """Convolution of biinvariant measures via the class structure constants."""
    if mu.space is not nu.space:
        raise ValueError("measures live on different spaces")
    st = hecke_structure(mu.space)
    d = st.d
    a, b = mu.coeffs, nu.coeffs
    exact = mu.is_exact() and nu.is_exact()
    zero = Fraction(0) if exact else 0j
    out = [zero] * d
    for i in range(d):
        if a[i] == 0:
            continue
        for j in range(d):
            if b[j] == 0:
                continue
            w = a[i] * b[j]
            col = st.op[j, :, i]
            for k in range(d):
                if col[k]:
                    out[k] = out[k] + w * int(col[k])
    return BiinvariantMeasure(mu.space, tuple(out))


def gelfand_witness(space: CosetSpace):
    """None when the algebra is commutative, else a pair of element indices
    (double-coset representatives) whose indicators fail to commute."""
    return hecke_structure(space)._witness


def is_gelfand_pair(space: CosetSpace) -> bool:
    return gelfand_witness(space) is None


def spherical_functions(space: CosetSpace) -> list[SphericalFunction]:
    """All spherical functions of the pair, in a deterministic order.

    Raises NotGelfandPairError when the algebra is not commutative."""
    return hecke_structure(space).sphericals()


def check_spherical(space: CosetSpace, f: Sequence) -> float:
    """Max over x, y of |avg_K f(xky) - f(x) f(y)| for a value table on G.

    Exact (then rounded to float) when the values are ints/Fractions."""
    if len(f) != space.group.order:
        raise ValueError("value table length != group order")
    points = np.arange(space.group.order)
    if all(isinstance(x, (int, Fraction)) for x in f):
        table, scale = _scaled_integers([[Fraction(x) for x in f]], space.k_size)
        excess = _equation_excess(space, table[0], points, scale)
        return float(Fraction(int(excess), space.k_size * scale * scale))
    table = np.asarray([complex(x) for x in f])
    return float(_equation_excess(space, table, points) / space.k_size)


def phi_hom(f: SphericalFunction, mu: BiinvariantMeasure):
    """The algebra homomorphism attached to f, evaluated at mu: the pairing
    of f with the reversed measure, sum_x f(x^{-1}) d mu(x)."""
    if f.space is not mu.space:
        raise ValueError("function and measure live on different spaces")
    st = hecke_structure(f.space)
    exact = f.exact and mu.is_exact()
    total = Fraction(0) if exact else 0j
    for i in range(st.d):
        if mu.coeffs[i] == 0:
            continue
        term = mu.coeffs[i] * st.class_sizes[i] * f.values[st.inverse_class[i]]
        total = total + term
    return total


def reverse_measure(mu: BiinvariantMeasure) -> BiinvariantMeasure:
    """The image of mu under x -> x^{-1}."""
    st = hecke_structure(mu.space)
    return BiinvariantMeasure(mu.space,
                              tuple(mu.coeffs[st.inverse_class[i]] for i in range(st.d)))


def reverse_function(f: SphericalFunction) -> SphericalFunction:
    """x -> f(x^{-1}); spherical whenever f is."""
    st = hecke_structure(f.space)
    values = tuple(f.values[st.inverse_class[i]] for i in range(st.d))
    eigs = tuple(_apply_row0(st.op[j], values) for j in range(st.d))
    return SphericalFunction(f.space, values, eigs, f.exact)


def spherical_table_csv(space: CosetSpace) -> str:
    """CSV table of spherical function values, one row per double coset."""
    funcs = spherical_functions(space)
    dcp = space.double_cosets
    labels = space.group.element_labels
    lines = ["class_representative," + ",".join(f"f{i}" for i in range(len(funcs)))]
    for j, rep in enumerate(dcp.representatives):
        row = [labels[rep]]
        for f in funcs:
            z = complex(f.values[j])
            row.append(f"{z.real:.12g}{z.imag:+.12g}j")
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
