"""The convolution algebra of K-biinvariant measures on a finite group.

Measures are stored as per-element densities with respect to counting
measure, constant on K-double cosets, so one coefficient per double-coset
class.  With this normalization the unit of the algebra is the measure of
density 1/|K| on K (the biinvariant average of the point mass at the
identity), and that measure is idempotent under convolution.

Spherical functions are the normalized joint eigenfunctions of the
commuting convolution operators given by the class-indicator basis; they
satisfy  avg_{k in K} f(xky) = f(x) f(y)  and f(identity) = 1.  On Z_n
over any K and D_n over one reflection they come in closed form, else from
one eigensolve of a generic element sum_j a_j op[j], a fixed complex draw:
distinct characters differ on some basis element, hence on a generic
combination.  The d^3 structure constants op[j][k, i] are kept as one
sorted table of the at most d n nonzero ones, counted from the d x n
orbital table; `combine` contracts it with coefficients, and commutativity
compares it with the table of the transposes op[i][k, j], counted the same
way.  A float table is certified by residual over gap.  When every
eigenvalue rounds to an integer, they give every value as a rational,
kept (marked exact) only if the scaled integer values satisfy every
eigen-equation op[j] f = lambda_j f exactly, on the same sorted table.
So no table reads the multiplication table; `check_spherical`, the
functional equation on all of G, is the independent reference.

The per-space Hecke structure keeps them as arrays, one row per function,
sorted by eigenvalue: `phi_matrix`, the eigenvalues |C_c| f(c^{-1}) under
the class operators, which are the homomorphism Phi_f at the class
indicators (contracted with a measure by `phi_hom`), and `class_values`,
the values on the classes, which the convolution decider reads along the
orbital table.  Both are integers on an exact space (the values scaled)
and complex otherwise; the public `SphericalFunction` tuples are read
from them.  The measure-algebra operations compute in one dtype, picked
by `_algebra_arrays`: Fractions in an object array when every input is
exact, complex otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Sequence

import numpy as np

from .groups import BugTrapError, CosetSpace, check_work_budget

SPHERICAL_RESIDUAL_TOL = 1e-10  # most residual over eigenvalue gap of a float eigenvector
EIG_CLUSTER_TOL = 1e-8          # least eigenvalue gap of the generic element, relative to it
_BLOCK = 2 ** 18        # most eigen-equation terms gathered at once

__all__ = [
    "BiinvariantMeasure",
    "SphericalFunction",
    "NotGelfandPairError",
    "hecke_structure",
    "unit_measure",
    "class_indicator",
    "delta_sharp",
    "measure_from_function",
    "convolve",
    "is_gelfand_pair",
    "gelfand_witness",
    "spherical_functions",
    "check_spherical",
    "phi_hom",
    "reverse_measure",
    "reverse_function",
]


class NotGelfandPairError(Exception):
    """The biinvariant convolution algebra is not commutative."""

    def __init__(self, space, witness):
        self.space = space
        self.witness = witness
        a, b = witness
        label = space.group.label
        super().__init__(
            f"{space.name}: convolution not commutative; witnessing double-coset "
            f"representatives {label(a)!r}, {label(b)!r}")


@dataclass(frozen=True)
class BiinvariantMeasure:
    """K-biinvariant measure, one per-element density per double-coset class."""

    space: CosetSpace
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != self.space.double_cosets.num_classes:
            raise ValueError("coefficient count != double-coset class count")


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
    """Per-space data, kept on the space: the operators as one sorted table
    of their nonzero counts, commutativity, sphericals."""

    def __init__(self, space: CosetSpace):
        self.space = space
        dcp = space.double_cosets
        self.d = d = dcp.num_classes
        group = space.group
        check_work_budget(d ** 3, f"{group.name} with {d} double cosets: the Hecke operators")
        # op[j][k, i] = #{y in class j : rep_k y^-1 in class i}.  y^-1 runs
        # over the |K| elements of each coset c with orb[0, c] = j*, and
        # rep_k y^-1 then lies in class orb[r_k, c], r_k the coset of rep_k^-1
        orb = space.orbitals
        r = space.coset_of[group.inv[list(dcp.representatives)]]
        self.inverse_class = tuple(orb[0, r].tolist())
        self.class_sizes = dcp.class_sizes
        # so coset c counts |K| at the flat key (j d + k) d + i: op holds the
        # counts at the keys, sorted, at most d n of them, and 0 elsewhere
        j, k = np.asarray(self.inverse_class)[orb[0]], np.arange(d)[:, None]
        self.keys, counts = np.unique((j * d + k) * d + orb[r], return_counts=True)
        self.counts = space.k_size * counts
        # commutative iff the same places keyed (i d + k) d + j count the same table
        twin, twin_counts = np.unique((orb[r] * d + k) * d + j, return_counts=True)
        self._witness = None
        if not (np.array_equal(twin, self.keys) and np.array_equal(twin_counts, counts)):
            # the keys where the two differ, told apart with their counts (at
            # most n), are symmetric in (j, i): the least j d + i is the least pair
            m = space.num_cosets + 1
            odd = np.setxor1d(self.keys * m + counts, twin * m + twin_counts, assume_unique=True) // m
            j, i = divmod(int((odd // (d * d) * d + odd % d).min()), d)
            self._witness = (dcp.representatives[j], dcp.representatives[i])

    def combine(self, a: np.ndarray) -> np.ndarray:
        """sum_j a_j op[j] as a d x d array [k, i] in a's dtype: each count
        times its a_j, summed into its (k, i) in increasing j."""
        d = self.d
        out = np.zeros(d * d, dtype=a.dtype)
        np.add.at(out, self.keys % (d * d), a[self.keys // (d * d)] * self.counts)
        return out.reshape(d, d)

    @cached_property
    def _spherical_table(self) -> tuple[np.ndarray, np.ndarray, bool]:
        """(phi_matrix, class_values, exact), rows sorted by the eigenvalues
        rounded to 9 digits (real, then imaginary part, in class order): the
        integer table when every lambda_j = |C_j| f(inverse of class j) is
        an integer and it certifies exactly, the float one otherwise."""
        if self._witness is not None:
            raise NotGelfandPairError(self.space, self._witness)
        closed = self._closed_form()
        vectors = _certify(*closed) if closed else _eigenvectors_float(
            self.combine(_generic_coefficients(self.d)), self.class_sizes)
        # (op[j] @ v)[0] = |C_j| v[j*], and every row of op[j] sums to |C_j|
        inv, sizes = list(self.inverse_class), np.asarray(self.class_sizes)
        phi = vectors.take(inv, axis=1) * sizes + 0j      # -0 becomes +0
        values, exact = vectors, False
        rounded = np.rint(phi.real)
        if np.all(np.abs(phi - rounded) <= EIG_CLUSTER_TOL * (1.0 + sizes)):
            ints = rounded.astype(np.int64)
            # class c holds lambda at the inverse class (an involution) over
            # its size, here times the lcm L of the sizes; each |KgK| divides
            # |K|^2, so no term of the check exceeds |G| |K|^2 in int64
            scaled = ints[:, inv] * (math.lcm(*self.class_sizes) // sizes[inv])
            if len(np.unique(ints, axis=0)) == len(ints) and self._joint(scaled, ints):
                phi, values, exact = ints, scaled, True
        key = np.round(phi.astype(complex).view(float), 9)
        order = np.lexsort(key.T[::-1])
        return phi[order], values[order], exact

    # phi_matrix[i, c] = |C_c| f_i(c^{-1}) and class_values[i, c] = f_i(c):
    # integers on an exact space (the values scaled), complex otherwise
    phi_matrix = property(lambda self: self._spherical_table[0])
    class_values = property(lambda self: self._spherical_table[1])
    exact = property(lambda self: self._spherical_table[2])

    @cached_property
    def sphericals(self) -> list[SphericalFunction]:
        """The spherical functions, in the order of the rows of phi_matrix."""
        values, eigenvalues = self.class_values.tolist(), self.phi_matrix.tolist()
        if self.exact:
            scale = values[0][0]        # every f is 1 at the identity class
            values = [[Fraction(x, scale) for x in row] for row in values]
            eigenvalues = [map(Fraction, row) for row in eigenvalues]
        return [SphericalFunction(self.space, tuple(v), tuple(e), self.exact)
                for v, e in zip(values, eigenvalues)]

    def _closed_form(self) -> tuple | None:
        """`_certify`'s arguments on Z_n over any K or D_n over one reflection,
        else None: with j a coset's place on the rotation's walk from K, t = j
        or min(j, N - j) (N cosets), classes the level sets of t, row k exp(2
        pi i k t / N) or cos(2 pi k t / N) (Terras 1999), A = op[class of 1]."""
        space, (family, rotation) = self.space, self.space.group.rotation or (None, 0)
        # D_n lists its n rotations first: K is one reflection iff its second element is none
        if family is None or family == "dihedral" and \
                space.k_members[1:2] < (space.group.order // 2,):
            return None
        n, step, walk = space.num_cosets, space.action[rotation].tolist(), [0]
        while len(walk) < n:
            walk.append(step[walk[-1]])
        j, classes, at = np.argsort(walk), space.orbitals[0], np.zeros(self.d, dtype=np.int64)
        at[classes] = t = np.minimum(j, n - j) if family == "dihedral" else j
        if len(set(walk)) < n or self.d != t.max() + 1 or not np.array_equal(at[classes], t):
            raise BugTrapError(f"{space.name}: the classes are not those of the rotation's walk")
        angle = 2 * np.pi * (np.arange(self.d)[:, None] * at % n) / n
        values = np.exp(1j * angle) if family == "cyclic" else np.cos(angle) + 0j
        d, s, sizes = self.d, classes[walk[1 % n]], np.asarray(self.class_sizes)
        lo, hi = np.searchsorted(self.keys, [s * d * d, (s + 1) * d * d])
        ki = self.keys[lo:hi] % (d * d)     # k d + i in order, a run for each k
        image = np.add.reduceat(values[:, ki % d] * self.counts[lo:hi],
                                np.flatnonzero(np.diff(ki // d, prepend=-1)), axis=1)
        return values, image, image[:, 0], np.sqrt(sizes), sizes[s]   # mu = (op[s] f)[0] / 1

    def _joint(self, table: np.ndarray, eigenvalues: np.ndarray) -> bool:
        """Whether sum_i op[j][k, i] t_i = lambda_j t_k for every row t of
        the integer table, its row lambda of eigenvalues, every j and every
        k: one reduceat of count * t_i over the runs of (j, k) in the sorted
        keys, rows in blocks of at most _BLOCK gathered terms.  Every (j, k)
        has a run, since each row of op[j] sums to |C_j|.  With the algebra
        commutative, the rows of eigenvalues distinct and no row of the
        table zero, it makes the rows scaled values of the d characters."""
        d = self.d
        i = self.keys % d
        starts = np.flatnonzero(np.diff(self.keys // d, prepend=-1))
        step = max(1, _BLOCK // len(self.keys))
        for s in range(0, len(table), step):
            t, lam = table[s:s + step], eigenvalues[s:s + step]
            # the block's sums stay unnamed, so none outlives its comparison
            if not np.array_equal(np.add.reduceat(t[:, i] * self.counts, starts, axis=1),
                                  (lam[:, :, None] * t[:, None, :]).reshape(len(t), -1)):
                return False
        return True


def _scaled_integers(values, k_size: int) -> tuple[np.ndarray, int]:
    """Rationals as (integer array, scale) with array = scale * values,
    scale the lcm of the denominators.  The array holds Python ints when
    the terms of `check_spherical` could overflow int64."""
    values = [Fraction(x) for x in values]
    scale = math.lcm(*(x.denominator for x in values))
    ints = [x.numerator * (scale // x.denominator) for x in values]
    top = max(map(abs, ints))
    dtype = np.int64 if k_size * top * (top + scale) < 2 ** 62 else object
    return np.asarray(ints, dtype=dtype), scale


def _generic_coefficients(d: int) -> np.ndarray:
    """The coefficients a of the generic element sum_j a_j op[j]: a fixed
    complex draw, the second and third blocks of d normals of default_rng(0)
    (skipping the first keeps the tables of earlier releases bit for bit).
    Complex coefficients spread its eigenvalues over the plane; on a
    symmetric pair, where every character is real, real ones crowd them."""
    real, imag = np.random.default_rng(0).standard_normal((3, d))[1:]
    return real + 1j * imag


def _eigenvectors_float(generic: np.ndarray, class_sizes) -> np.ndarray:
    """The eigenvectors of the generic element, one row each, certified and
    normalized to 1 at the identity class (a bug trap where one vanishes)."""
    root = np.sqrt(np.asarray(class_sizes, dtype=float))
    eigvals, eigvecs = np.linalg.eig(generic * root[:, None] / root)
    vectors = eigvecs.T / root
    _certify(vectors, vectors @ generic.T, eigvals, root, np.abs(generic).sum(axis=1).max())
    if np.any(np.abs(eigvecs[0]) < 1e-12):
        raise BugTrapError("spherical eigenvector vanishes at the identity class")
    vectors /= vectors[:, :1]
    vectors[:, 0] = 1.0     # exact by construction; drop division residue
    return vectors


def _certify(vectors, images, eigvals, root, size) -> np.ndarray:
    """vectors, unless a bug trap: in the L2 coordinates root v, A (of largest
    absolute row sum size) is normal, so row v is within angle r/gap of an
    eigenvector, r = |A v - mu v| / |v| and gap mu's distance to the rest
    (Davis & Kahan, 1970), spherical if the spectrum is simple.  Traps: a
    least gap below EIG_CLUSTER_TOL * (1 + size), an r/gap above SPHERICAL_RESIDUAL_TOL."""
    gaps = (np.abs(eigvals[:, None] - eigvals) + np.diag(np.full(len(eigvals), np.inf))).min(axis=1)
    relative = gaps.min() / (1.0 + size)
    if relative < EIG_CLUSTER_TOL:
        raise BugTrapError(f"the generic Hecke element does not separate the characters "
                           f"(smallest relative eigenvalue gap {relative:.1e})")
    ratio = np.linalg.norm((images - eigvals[:, None] * vectors) * root, axis=1) \
        / np.linalg.norm(vectors * root, axis=1) / gaps
    worst = ratio.argmax()
    if ratio[worst] > SPHERICAL_RESIDUAL_TOL:
        raise BugTrapError(f"spherical eigenvector not certified by its residual: "
                           f"r/gap {ratio[worst]:.1e} at eigenvalue gap {gaps[worst]:.1e}")
    return vectors


def hecke_structure(space: CosetSpace) -> _HeckeStructure:
    return space.cached("hecke", _HeckeStructure)


def _nonzero(coeffs: np.ndarray) -> np.ndarray:
    """Indices of the nonzero coefficients; [0] when there is none, so that
    a contraction over them never runs empty and keeps the algebra's dtype.
    Contracting over these alone spares a sparse exact measure a Fraction
    product for every zero."""
    idx = np.flatnonzero(coeffs != 0)
    return idx if idx.size else np.zeros(1, dtype=np.intp)


def _algebra_arrays(*tables) -> list[np.ndarray]:
    """The tables as arrays of the measure algebra's one dtype: Fractions in
    an object array when every entry is an int or a Fraction, complex
    otherwise."""
    arrays = [np.asarray(t, dtype=object) for t in tables]
    if all(isinstance(x, (int, Fraction)) for a in arrays for x in a.flat):
        to_fraction = np.frompyfunc(Fraction, 1, 1)
        return [to_fraction(a) for a in arrays]
    return [a.astype(complex) for a in arrays]


# ---------------------------------------------------------------------------
# measure constructors


def unit_measure(space: CosetSpace) -> BiinvariantMeasure:
    """The algebra unit: density 1/|K| on K, i.e. coefficient 1 there."""
    coeffs = [Fraction(0)] * space.double_cosets.num_classes
    coeffs[int(space.double_cosets.class_of[space.group.identity])] = Fraction(1, space.k_size)
    return BiinvariantMeasure(space, tuple(coeffs))


def class_indicator(space: CosetSpace, class_index: int) -> BiinvariantMeasure:
    coeffs = [Fraction(0)] * space.double_cosets.num_classes
    if not 0 <= class_index < len(coeffs):
        raise ValueError(f"class index {class_index} out of range")
    coeffs[class_index] = Fraction(1)
    return BiinvariantMeasure(space, tuple(coeffs))


def delta_sharp(space: CosetSpace, g: int) -> BiinvariantMeasure:
    """Biinvariant average of the point mass at g: density 1/|KgK| there."""
    if not 0 <= g < space.group.order:
        raise ValueError(f"group element {g} out of range")
    dcp = space.double_cosets
    c = int(dcp.class_of[g])
    coeffs = [Fraction(0)] * dcp.num_classes
    coeffs[c] = Fraction(1, dcp.class_sizes[c])
    return BiinvariantMeasure(space, tuple(coeffs))


def measure_from_function(space: CosetSpace, values: Sequence,
                          tol: float = 0.0) -> BiinvariantMeasure:
    """Interpret a density table on the group as a biinvariant measure.

    Raises ValueError if the table is not one entry per group element, or
    not constant on double cosets (to within tol; default exact)."""
    dcp = space.double_cosets
    table, = _algebra_arrays(values)
    if table.shape != (space.group.order,):
        raise ValueError(f"density table of shape {table.shape}, not ({space.group.order},)")
    reps = np.asarray(dcp.representatives)
    ref = table[reps[dcp.class_of]]
    ok = table == ref if tol == 0.0 else np.abs(table - ref) <= tol
    if not np.all(ok):
        raise ValueError("density not constant on double cosets")
    return BiinvariantMeasure(space, tuple(table[reps]))


# ---------------------------------------------------------------------------
# operations


def convolve(mu: BiinvariantMeasure, nu: BiinvariantMeasure) -> BiinvariantMeasure:
    """Convolution of biinvariant measures via the class structure constants:
    out[k] = sum_{i,j} mu_i nu_j op[j, k, i]."""
    if mu.space is not nu.space:
        raise ValueError("measures live on different spaces")
    a, b = _algebra_arrays(mu.coeffs, nu.coeffs)
    return BiinvariantMeasure(mu.space, tuple(hecke_structure(mu.space).combine(b) @ a))


def gelfand_witness(space: CosetSpace):
    """None when the algebra is commutative, else a pair of element indices
    (double-coset representatives) whose indicators fail to commute."""
    return hecke_structure(space)._witness


def is_gelfand_pair(space: CosetSpace) -> bool:
    return gelfand_witness(space) is None


def spherical_functions(space: CosetSpace) -> list[SphericalFunction]:
    """All spherical functions of the pair, in a deterministic order.

    Raises NotGelfandPairError when the algebra is not commutative."""
    return hecke_structure(space).sphericals


def check_spherical(space: CosetSpace, f: Sequence) -> float:
    """Max over x, y of |avg_K f(xky) - f(x) f(y)| for a value table on G,
    the functional equation read off the multiplication table: a reference
    independent of how the spherical functions are found and certified.

    Exact (then rounded to float) when the values are ints/Fractions: with
    t = scale * f, scale the lcm of the denominators, it is the integer
    max |scale sum_{k in K} t(xky) - |K| t(x) t(y)| over |K| scale^2."""
    group = space.group
    if len(f) != group.order:
        raise ValueError("value table length != group order")
    check_work_budget(group.order ** 2, f"{group.name}: the functional-equation check")
    exact = all(isinstance(x, (int, Fraction)) for x in f)
    t, scale = _scaled_integers(f, space.k_size) if exact else \
        (np.asarray([complex(x) for x in f]), 1)
    mul = group.mul
    total = sum(t[mul[mul[:, k]]] for k in space.k_members)
    excess = np.abs(scale * total - space.k_size * t[:, None] * t).max()
    if exact:
        return float(Fraction(int(excess), space.k_size * scale * scale))
    return float(excess / space.k_size)


def phi_hom(f: SphericalFunction, mu: BiinvariantMeasure):
    """The algebra homomorphism attached to f, evaluated at mu: the pairing
    of f with the reversed measure, sum_x f(x^{-1}) d mu(x) = sum_c mu_c
    lambda_{f,c}, in the algebra's dtype, summed over the nonzero
    coefficients of mu only."""
    if f.space is not mu.space:
        raise ValueError("function and measure live on different spaces")
    table, coeffs = _algebra_arrays(f.eigenvalue_tuple, mu.coeffs)
    ic = _nonzero(coeffs)
    return table[ic] @ coeffs[ic]


def reverse_measure(mu: BiinvariantMeasure) -> BiinvariantMeasure:
    """The image of mu under x -> x^{-1}."""
    st = hecke_structure(mu.space)
    return BiinvariantMeasure(mu.space,
                              tuple(mu.coeffs[st.inverse_class[i]] for i in range(st.d)))


def reverse_function(f: SphericalFunction) -> SphericalFunction:
    """x -> f(x^{-1}); spherical whenever f is."""
    st = hecke_structure(f.space)
    values = tuple(f.values[c] for c in st.inverse_class)
    table, = _algebra_arrays(f.values)
    # eigenvalue (op[j] @ values)[0] = |C_j| values[j*] = |C_j| f(class j)
    return SphericalFunction(f.space, values, tuple(table * st.class_sizes), f.exact)
