"""Decide the Pompeiu property for a subset E of a finite homogeneous
space G/K, three independent ways:

* rank oracle -- straight from the definition: the translates of E give a
  0/1 matrix over the cosets whose rational kernel is the space of
  functions integrating to zero over every translate;
* spectral -- E fails exactly when some spherical function annihilates
  every generator of the right ideal spanned by the reversed lifted
  indicator convolved with the coset indicators;
* convolution -- E fails exactly when some spherical function f satisfies
  f * (reversed lifted indicator) = 0 identically on G.

The three verdicts must agree on every Gelfand-pair instance; any
disagreement is a bug, never silently resolved.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import exact_linalg as xla
from .groups import CosetSpace, check_work_budget
from .hecke import (BiinvariantMeasure, SphericalFunction, hecke_structure,
                    spherical_functions)

PHI_ZERO_TOL = 1e-9
CONV_ZERO_TOL = 1e-9
SWEEP_COSET_CAP = 20

__all__ = [
    "EmptySetError",
    "PompeiuInstance",
    "DecisionReport",
    "SweepRow",
    "SweepResult",
    "pompeiu_oracle",
    "ideal_generators",
    "zero_set",
    "zero_set_ideal",
    "pompeiu_spectral",
    "pompeiu_convolution",
    "radial_shortcut",
    "enumerate_all",
    "recheck_witness",
]


class EmptySetError(ValueError):
    """Decision procedures require a nonempty subset."""


@dataclass(frozen=True)
class PompeiuInstance:
    space: CosetSpace
    subset: frozenset

    def __post_init__(self):
        for c in self.subset:
            if not 0 <= int(c) < self.space.num_cosets:
                raise ValueError(f"coset index {c} out of range")

    def require_nonempty(self):
        if not self.subset:
            raise EmptySetError("subset of cosets must be nonempty")


@dataclass
class DecisionReport:
    verdict: str                      # "Pompeiu" | "NotPompeiu"
    method: str                       # "oracle" | "spectral" | "convolution"
    witness: dict | None
    seconds: float = 0.0

    @property
    def has_property(self) -> bool:
        return self.verdict == "Pompeiu"


def _instance(space_or_instance, subset=None) -> PompeiuInstance:
    if isinstance(space_or_instance, PompeiuInstance):
        return space_or_instance
    return PompeiuInstance(space_or_instance, frozenset(int(c) for c in subset))


# ---------------------------------------------------------------------------
# oracle

def translate_matrix(inst: PompeiuInstance) -> np.ndarray:
    """0/1 constraint rows, one per group element g: row g is the indicator
    of the translate gE, since c lies in gE exactly when g^{-1}c lies in E.

    The integral of a coset function over gE genuinely depends on g, not
    just on the coset gK (the rows collapse to the transversal only when
    the lifted indicator of E is biinvariant), so every group element
    contributes a row.  Repeated rows are kept: neither they nor the row
    order change the kernel or the reduced row echelon basis that
    `nullspace` returns, and removing them cost more than it saved.
    """
    space = inst.space
    indicator = np.zeros(space.num_cosets, dtype=np.int64)
    indicator[sorted(inst.subset)] = 1
    return indicator[space.action[space.group.inv]]


def pompeiu_oracle(space_or_instance, subset=None) -> DecisionReport:
    """Definition-level decision: the subset has the property iff the
    translate matrix has trivial kernel.  One fraction-free integer
    elimination gives the exact rational kernel; the rank is the coset
    count minus its dimension."""
    inst = _instance(space_or_instance, subset)
    inst.require_nonempty()
    space = inst.space
    check_work_budget(space.group.order * space.num_cosets ** 2,
                      f"{space.group.name} with {space.num_cosets} cosets: "
                      "the oracle's elimination")
    t0 = time.perf_counter()
    matrix = translate_matrix(inst)
    kernel = xla.nullspace(matrix)
    if not kernel:
        return DecisionReport("Pompeiu", "oracle", None, time.perf_counter() - t0)
    h = kernel[0]
    scale = math.lcm(*(x.denominator for x in h))
    scaled = np.asarray([x.numerator * (scale // x.denominator) for x in h], dtype=object)
    if np.any(np.asarray(matrix, dtype=object) @ scaled):
        raise RuntimeError("oracle kernel witness failed recheck")
    witness = {"kernel": [float(x) for x in h]}
    return DecisionReport("NotPompeiu", "oracle", witness, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# ideal machinery

class _DecisionCache:
    """The per-space tables that only the spectral and convolution deciders
    use; both read the Phi table and the value tables on G from the Hecke
    structure (`hecke.hecke_structure`).

    generators[c, j] = #{k in K : k rep_j^{-1} lies in coset c} is the
    ideal generator of coset c for the identity, on the double-coset
    representatives.  Translating by t^{-1} carries the generator of coset c
    for the transversal element t onto that of coset t^{-1}c for the
    identity; shift[r, c] is the coset t_r^{-1}c.  Every row is checked
    biinvariant on the whole group here, once, which covers its translates
    and every sum of rows, so no subset is checked again."""

    def __init__(self, space: CosetSpace):
        spherical_functions(space)      # raises NotGelfandPairError up front
        group, n = space.group, space.group.order
        reps = np.asarray(space.double_cosets.representatives, dtype=np.int32)
        class_of = space.double_cosets.class_of
        # density[c, x] = #{k in K : k x^{-1} lies in coset c}
        k_arr = np.asarray(space.k_members, dtype=np.int32)
        cosets = space.coset_of[group.mul[np.ix_(k_arr, group.inv)]]
        density = np.bincount((cosets * n + np.arange(n)).ravel(),
                              minlength=space.num_cosets * n).reshape(-1, n)
        if not np.array_equal(density, density[:, reps[class_of]]):
            raise RuntimeError("ideal generator is not biinvariant")
        self.generators = density[:, reps]
        self.shift = space.action[group.inv[list(space.transversal)]]


def _vanishing(values: np.ndarray, tol) -> np.ndarray:
    """Elementwise zero test: exact on integer tables, below tol on
    complex ones."""
    if values.dtype.kind in "iO":
        return values == 0
    return np.abs(values) < tol


def _cache(space: CosetSpace) -> _DecisionCache:
    return space.cached("decision", _DecisionCache)


def _generator_rows(inst: PompeiuInstance) -> np.ndarray:
    """Class-coefficient rows of the ideal generators, one per transversal
    element t: the sum over c in E of the generator of coset t^{-1}c."""
    cache = _cache(inst.space)
    return cache.generators[cache.shift[:, sorted(inst.subset)]].sum(axis=1)


def ideal_generators(space_or_instance, subset=None) -> list[BiinvariantMeasure]:
    """One biinvariant measure per transversal element g: the reversed
    lifted indicator of E convolved with the indicator of the coset gK."""
    inst = _instance(space_or_instance, subset)
    inst.require_nonempty()
    rows = _generator_rows(inst)
    return [BiinvariantMeasure(inst.space, tuple(Fraction(int(v)) for v in row))
            for row in rows]


def zero_set(mu: BiinvariantMeasure,
             funcs: Sequence[SphericalFunction] | None = None) -> frozenset:
    """Indices of spherical functions whose homomorphism kills mu."""
    if funcs is None:
        funcs = spherical_functions(mu.space)
    phi = hecke_structure(mu.space).phi(funcs, mu)
    hits = _vanishing(phi, PHI_ZERO_TOL * (1.0 + mu.one_norm()))
    return frozenset(int(i) for i in np.nonzero(hits)[0])


def _common_zeros(space: CosetSpace, rows: np.ndarray) -> frozenset:
    """Indices of the spherical functions whose homomorphism kills every
    measure with class coefficients in rows, one measure per row."""
    st = hecke_structure(space)
    phi = st.phi_matrix @ rows.T                # one column per measure
    tol = PHI_ZERO_TOL * (1.0 + (np.abs(rows) * st.class_sizes).sum(axis=1))
    alive = _vanishing(phi, tol).all(axis=1)
    return frozenset(int(i) for i in np.nonzero(alive)[0])


def zero_set_ideal(space_or_instance, subset=None) -> frozenset:
    """Common zero set of the ideal generators (they generate, and the
    homomorphisms are multiplicative, so the generators suffice)."""
    inst = _instance(space_or_instance, subset)
    inst.require_nonempty()
    return _common_zeros(inst.space, _generator_rows(inst))


def pompeiu_spectral(space_or_instance, subset=None) -> DecisionReport:
    """E has the property iff no spherical function kills the whole ideal."""
    inst = _instance(space_or_instance, subset)
    inst.require_nonempty()
    t0 = time.perf_counter()
    zs = zero_set_ideal(inst)
    if not zs:
        return DecisionReport("Pompeiu", "spectral", None, time.perf_counter() - t0)
    funcs = spherical_functions(inst.space)
    idx = min(zs)
    witness = {"spherical_index": idx,
               "values": [_c2pair(v) for v in funcs[idx].values]}
    return DecisionReport("NotPompeiu", "spectral", witness, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# convolution criterion


def _annihilating(table: np.ndarray, space: CosetSpace, subset) -> np.ndarray:
    """For each row f of table (values on G): whether x -> sum_{z in lifted}
    f(xz) vanishes identically, lifted the elements whose coset is in
    subset."""
    indicator = np.zeros(space.num_cosets, dtype=bool)
    indicator[sorted(subset)] = True
    lifted = np.nonzero(indicator[space.coset_of])[0]
    conv = table[:, space.group.mul[:, lifted]].sum(axis=2)
    tol = CONV_ZERO_TOL * (1 + len(lifted))
    return _vanishing(conv, tol).all(axis=1)


def pompeiu_convolution(space_or_instance, subset=None) -> DecisionReport:
    """E has the property iff no spherical function convolves the reversed
    lifted indicator to zero; checked exhaustively on the group."""
    inst = _instance(space_or_instance, subset)
    inst.require_nonempty()
    t0 = time.perf_counter()
    space = inst.space
    hits = np.nonzero(_annihilating(hecke_structure(space).on_group, space,
                                    inst.subset))[0]
    if hits.size == 0:
        return DecisionReport("Pompeiu", "convolution", None,
                              time.perf_counter() - t0)
    i = int(hits[0])
    witness = {"spherical_index": i,
               "values": [_c2pair(v) for v in spherical_functions(space)[i].values]}
    return DecisionReport("NotPompeiu", "convolution", witness,
                          time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# shortcut for biinvariant lifted indicators


def _biinvariant_lift(space: CosetSpace, subset) -> np.ndarray | None:
    """The indicator of E on the cosets when E is a union of K-orbits, else
    None.  The lifted indicator of E is always right K-invariant; it is
    left K-invariant exactly when k.c lies in E for every k in K and c in
    E, which is one gather on the action table."""
    inside = np.zeros(space.num_cosets, dtype=bool)
    inside[sorted(subset)] = True
    k_arr = np.asarray(space.k_members, dtype=np.intp)
    if not inside[space.action[np.ix_(k_arr, np.nonzero(inside)[0])]].all():
        return None
    return inside


def radial_shortcut(space_or_instance, subset=None) -> DecisionReport | None:
    """Single-measure decision, available when the lifted indicator is
    already biinvariant; returns None when not applicable."""
    inst = _instance(space_or_instance, subset)
    inst.require_nonempty()
    space = inst.space
    inside = _biinvariant_lift(space, inst.subset)
    if inside is None:
        return None
    t0 = time.perf_counter()
    # class coefficients of the reversed indicator x -> [x^{-1} lies in E~]
    reps = np.asarray(space.double_cosets.representatives)
    coeffs = inside[space.coset_of[space.group.inv[reps]]].astype(np.int64)
    zs = _common_zeros(space, coeffs[None, :])
    if not zs:
        return DecisionReport("Pompeiu", "radial-shortcut", None,
                              time.perf_counter() - t0)
    funcs = spherical_functions(space)
    idx = min(zs)
    witness = {"spherical_index": idx,
               "values": [_c2pair(v) for v in funcs[idx].values]}
    return DecisionReport("NotPompeiu", "radial-shortcut", witness,
                          time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# sweep


@dataclass(frozen=True)
class SweepRow:
    bitmask: int
    subset: tuple
    oracle: bool
    spectral: bool
    convolution: bool
    witness: str

    @property
    def agree(self) -> bool:
        return self.oracle == self.spectral == self.convolution


@dataclass
class SweepResult:
    space_name: str
    rows: list
    seconds: float

    @property
    def disagreements(self) -> int:
        return sum(1 for r in self.rows if not r.agree)

    @property
    def pompeiu_count(self) -> int:
        return sum(1 for r in self.rows if r.oracle)

    def summary(self) -> dict:
        return {
            "space": self.space_name,
            "subsets": len(self.rows),
            "pompeiu": self.pompeiu_count,
            "not_pompeiu": len(self.rows) - self.pompeiu_count,
            "disagreements": self.disagreements,
        }


def _decide_row(space: CosetSpace, bitmask: int) -> SweepRow:
    subset = frozenset(c for c in range(space.num_cosets) if bitmask >> c & 1)
    inst = PompeiuInstance(space, subset)
    oracle = pompeiu_oracle(inst)
    spectral = pompeiu_spectral(inst)
    conv = pompeiu_convolution(inst)
    if spectral.witness is not None:
        wit = f"spherical:{spectral.witness['spherical_index']}"
    elif oracle.witness is not None:
        wit = "kernel"
    else:
        wit = ""
    return SweepRow(bitmask, tuple(sorted(subset)), oracle.has_property,
                    spectral.has_property, conv.has_property, wit)


def enumerate_all(space: CosetSpace, max_size: int | None = None) -> SweepResult:
    """Run all three deciders over every nonempty subset of the cosets
    (optionally bounded in size), one after another in one thread, and
    tabulate agreement."""
    if space.num_cosets > SWEEP_COSET_CAP:
        raise ValueError(
            f"{space.num_cosets} cosets exceeds the exhaustive cap {SWEEP_COSET_CAP}")
    if max_size is not None and max_size < 1:
        raise ValueError(f"max subset size must be >= 1, got {max_size}")
    t0 = time.perf_counter()
    spherical_functions(space)          # raises NotGelfandPairError up front
    masks = [m for m in range(1, 1 << space.num_cosets)
             if max_size is None or bin(m).count("1") <= max_size]
    rows = [_decide_row(space, m) for m in masks]
    return SweepResult(space.name, rows, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# witness rechecking


def recheck_witness(space_or_instance, subset, report: DecisionReport | None = None) -> bool:
    """Verify a NotPompeiu witness independently of how it was produced."""
    if report is None:
        report = subset
        inst = _instance(space_or_instance, None)
    else:
        inst = _instance(space_or_instance, subset)
    if report.witness is None:
        return False
    space = inst.space
    if "kernel" in report.witness:
        # one constraint per translate gE, over every g in G
        h = np.asarray(report.witness["kernel"], dtype=float)
        totals = h[space.action[:, sorted(inst.subset)]].sum(axis=1)
        return bool(np.all(np.abs(totals) <= 1e-9 * (1 + len(inst.subset))))
    idx = report.witness["spherical_index"]
    table = hecke_structure(space).on_group[idx:idx + 1]
    return bool(_annihilating(table, space, inst.subset)[0])


def _c2pair(v) -> list:
    z = complex(v)
    return [z.real, z.imag]
