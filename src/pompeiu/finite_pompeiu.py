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

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import exact_linalg as xla
from .groups import CosetSpace, check_function_invariance, lift_set
from .hecke import (BiinvariantMeasure, SphericalFunction,
                    measure_from_function, phi_hom, spherical_functions)

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

    @property
    def sorted_subset(self) -> tuple:
        return tuple(sorted(int(c) for c in self.subset))

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

_MOD_P = 1_000_000_007


def translate_matrix(inst: PompeiuInstance) -> list[list[int]]:
    """0/1 constraint rows, one per distinct translate gE over all g in G.

    The integral of a coset function over gE genuinely depends on g, not
    just on the coset gK (the rows collapse to the transversal only when
    the lifted indicator of E is biinvariant), so every group element
    contributes a row; duplicates are dropped.
    """
    space = inst.space
    subset = sorted(inst.subset)
    seen = set()
    rows = []
    for g in range(space.group.order):
        translated = frozenset(int(space.action[g, c]) for c in subset)
        if translated in seen:
            continue
        seen.add(translated)
        rows.append([1 if c in translated else 0 for c in range(space.num_cosets)])
    rows.sort(reverse=True)
    return rows


def _rank_mod_p(rows: list[list[int]], p: int = _MOD_P) -> int:
    m = np.asarray(rows, dtype=np.int64) % p
    n_rows, n_cols = m.shape
    r = 0
    for c in range(n_cols):
        pivot = None
        for i in range(r, n_rows):
            if m[i, c]:
                pivot = i
                break
        if pivot is None:
            continue
        m[[r, pivot]] = m[[pivot, r]]
        inv = pow(int(m[r, c]), p - 2, p)
        m[r] = m[r] * inv % p
        mask = m[r + 1:, c] != 0
        if mask.any():
            m[r + 1:][mask] = (m[r + 1:][mask] - np.outer(m[r + 1:, c][mask], m[r])) % p
        r += 1
        if r == n_rows:
            break
    return r


def pompeiu_oracle(space_or_instance, subset=None) -> DecisionReport:
    """Definition-level decision: the subset has the property iff the
    translate matrix has trivial kernel (exact rational rank)."""
    inst = _instance(space_or_instance, subset)
    inst.require_nonempty()
    t0 = time.perf_counter()
    matrix = translate_matrix(inst)
    # full rank mod a large prime certifies full rational rank
    if _rank_mod_p(matrix) == inst.space.num_cosets:
        return DecisionReport("Pompeiu", "oracle", None, time.perf_counter() - t0)
    kernel = xla.nullspace(matrix)
    if not kernel:
        # rank collapsed mod p only; rational rank is authoritative
        return DecisionReport("Pompeiu", "oracle", None, time.perf_counter() - t0)
    h = kernel[0]
    for row in matrix:
        if sum((Fraction(r) * x for r, x in zip(row, h)), Fraction(0)) != 0:
            raise RuntimeError("oracle kernel witness failed recheck")
    witness = {"kernel": [float(x) for x in h]}
    return DecisionReport("NotPompeiu", "oracle", witness, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# ideal machinery

class _DecisionCache:
    """Per-space tables for the spectral and convolution deciders."""

    def __init__(self, space: CosetSpace):
        from .hecke import hecke_structure
        self.funcs = spherical_functions(space)
        self.exact = all(f.exact for f in self.funcs)
        st = hecke_structure(space)
        class_of = space.double_cosets.class_of
        self.reps = np.asarray(space.double_cosets.representatives, dtype=np.int32)
        self.sizes = np.asarray(st.class_sizes, dtype=np.float64)
        values = np.asarray([[complex(v) for v in f.values] for f in self.funcs])
        inv_class = np.asarray(st.inverse_class, dtype=np.int32)
        # Phi_i(mu) = sum_c coeff_c |C_c| f_i(inverse class of c)
        self.phi_matrix = values[:, inv_class] * self.sizes[None, :]
        self.on_group = values[:, class_of]
        self.class_of = class_of


def _cache(space: CosetSpace) -> _DecisionCache:
    return space.cached("decision", _DecisionCache)


def _generator_rows(inst: PompeiuInstance) -> np.ndarray:
    """Class-coefficient rows of the ideal generators, one per transversal
    element; integer densities, verified constant on double cosets."""
    space = inst.space
    group = space.group
    lifted = lift_set(space, inst.subset)
    mask = np.zeros(group.order, dtype=np.int64)
    mask[sorted(lifted)] = 1
    k_arr = np.asarray(space.k_members, dtype=np.int32)
    cache = _cache(space)
    rows = np.empty((len(space.transversal), len(cache.reps)), dtype=np.int64)
    for r, t in enumerate(space.transversal):
        coset_members = group.mul[t, k_arr]
        # density at x: #{ y in tK : y x^{-1} in lifted }
        w = group.mul[np.ix_(coset_members, group.inv)]
        density = mask[w].sum(axis=0)
        if not np.array_equal(density, density[cache.reps][cache.class_of]):
            raise RuntimeError("ideal generator is not biinvariant")
        rows[r] = density[cache.reps]
    return rows


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
    exact = mu.is_exact()
    tol = PHI_ZERO_TOL * (1.0 + mu.one_norm())
    hits = set()
    for i, f in enumerate(funcs):
        val = phi_hom(f, mu)
        if (exact and f.exact and val == 0) or \
                (not (exact and f.exact) and abs(complex(val)) < tol):
            hits.add(i)
    return frozenset(hits)


def zero_set_ideal(space_or_instance, subset=None) -> frozenset:
    """Common zero set of the ideal generators (they generate, and the
    homomorphisms are multiplicative, so the generators suffice)."""
    inst = _instance(space_or_instance, subset)
    inst.require_nonempty()
    cache = _cache(inst.space)
    if cache.exact:
        funcs = cache.funcs
        common = frozenset(range(len(funcs)))
        for mu in ideal_generators(inst):
            common = common & zero_set(mu, funcs)
            if not common:
                break
        return common
    rows = _generator_rows(inst)
    alive = np.ones(len(cache.funcs), dtype=bool)
    for row in rows:
        phi = cache.phi_matrix @ row.astype(np.float64)
        one_norm = float((np.abs(row) * cache.sizes).sum())
        alive &= np.abs(phi) < PHI_ZERO_TOL * (1.0 + one_norm)
        if not alive.any():
            break
    return frozenset(int(i) for i in np.nonzero(alive)[0])


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


def _annihilates(space: CosetSpace, f: SphericalFunction, lifted: frozenset) -> bool:
    """True when  x -> sum_{z in lifted} f(xz)  vanishes identically."""
    lifted_list = sorted(lifted)
    if f.exact:
        table = f.on_group()
        mul = space.group.mul
        for x in range(space.group.order):
            total = sum((table[int(mul[x, z])] for z in lifted_list), Fraction(0))
            if total != 0:
                return False
        return True
    table = np.asarray([complex(v) for v in f.on_group()])
    idx = space.group.mul[:, lifted_list]
    conv = table[idx].sum(axis=1)
    return bool(np.abs(conv).max() < CONV_ZERO_TOL * (1 + len(lifted_list)))


def pompeiu_convolution(space_or_instance, subset=None) -> DecisionReport:
    """E has the property iff no spherical function convolves the reversed
    lifted indicator to zero; checked exhaustively on the group."""
    inst = _instance(space_or_instance, subset)
    inst.require_nonempty()
    t0 = time.perf_counter()
    space = inst.space
    cache = _cache(space)
    lifted_list = sorted(lift_set(space, inst.subset))
    if cache.exact:
        for i, f in enumerate(cache.funcs):
            if _annihilates(space, f, frozenset(lifted_list)):
                witness = {"spherical_index": i,
                           "values": [_c2pair(v) for v in f.values]}
                return DecisionReport("NotPompeiu", "convolution", witness,
                                      time.perf_counter() - t0)
        return DecisionReport("Pompeiu", "convolution", None,
                              time.perf_counter() - t0)
    idx = space.group.mul[:, lifted_list]
    conv = cache.on_group[:, idx].sum(axis=2)
    row_max = np.abs(conv).max(axis=1)
    tol = CONV_ZERO_TOL * (1 + len(lifted_list))
    hits = np.nonzero(row_max < tol)[0]
    if hits.size == 0:
        return DecisionReport("Pompeiu", "convolution", None,
                              time.perf_counter() - t0)
    i = int(hits[0])
    witness = {"spherical_index": i,
               "values": [_c2pair(v) for v in cache.funcs[i].values]}
    return DecisionReport("NotPompeiu", "convolution", witness,
                          time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# shortcut for biinvariant lifted indicators


def radial_shortcut(space_or_instance, subset=None) -> DecisionReport | None:
    """Single-measure decision, available when the lifted indicator is
    already biinvariant; returns None when not applicable."""
    inst = _instance(space_or_instance, subset)
    inst.require_nonempty()
    space = inst.space
    lifted = lift_set(space, inst.subset)
    indicator = [1 if g in lifted else 0 for g in range(space.group.order)]
    if not check_function_invariance(space, indicator, "bi"):
        return None
    t0 = time.perf_counter()
    inv = space.group.inv
    reversed_vals = [Fraction(indicator[int(inv[x])]) for x in range(space.group.order)]
    mu = measure_from_function(space, reversed_vals)
    zs = zero_set(mu)
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


def enumerate_all(space: CosetSpace, max_size: int | None = None,
                  workers: int = 1) -> SweepResult:
    """Run all three deciders over every nonempty subset of the cosets
    (optionally bounded in size) and tabulate agreement."""
    if space.num_cosets > SWEEP_COSET_CAP:
        raise ValueError(
            f"{space.num_cosets} cosets exceeds the exhaustive cap {SWEEP_COSET_CAP}")
    t0 = time.perf_counter()
    spherical_functions(space)          # raises NotGelfandPairError up front
    masks = [m for m in range(1, 1 << space.num_cosets)
             if max_size is None or bin(m).count("1") <= max_size]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(lambda m: _decide_row(space, m), masks))
    else:
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
    funcs = spherical_functions(space)
    return _annihilates(space, funcs[idx], lift_set(space, inst.subset))


def _c2pair(v) -> list:
    z = complex(v)
    return [z.real, z.imag]
