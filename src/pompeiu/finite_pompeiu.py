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

Each decider is one array kernel over a B x n 0/1 matrix of subsets, one
row per subset; the single-subset functions (`pompeiu_oracle`,
`pompeiu_spectral`, `pompeiu_convolution`) run them with B = 1.  Both
spherical kernels gather the indicators of t^{-1}E over the transversal
elements t, multiply them by one table with a row per coset and test the
sums in `_vanishing`, the one zero test (`recheck_witness` uses it too):
exact on an exact space, else below ZERO_TOL (1 + m |E|), m the mass of a
row.  The oracle's one test, the translate test, eliminates the translate
matrix M modulo PRIME = 2^31 - 1: full rank there proves full rational
rank (a minor nonzero modulo PRIME is nonzero), and up to 22 columns a
deficiency there is rational too (`_rank_exact`).  A sweep runs one
elimination per batch and computes no kernel; `pompeiu_oracle` tries a
candidate kernel (`zero_set_vector`), then takes its witness from
`exact_linalg.nullspace` when the test finds a deficiency.

The three criteria are invariant under translation, so `enumerate_all`
decides only the least mask of each G-orbit, found by walking the
generators (`_orbit_labels`), and every other mask copies its verdicts
and witness.  A sink gets the masks in chunks, as columns: the int64
masks in increasing order, their packed int32 codes, and a dict from
each code of the chunk to its (oracle, spectral, convolution, witness).

The three verdicts must agree on every Gelfand-pair instance; any
disagreement, like any failed internal check (`BugTrapError`), is a bug,
never silently resolved.  An instance checks its subset once, when built;
a report is a frozen value, the decision and its witness, with no timing.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import exact_linalg as xla
from .groups import BugTrapError, CosetSpace, check_work_budget, orbit_minima
from .hecke import hecke_structure, spherical_functions

ZERO_TOL = 1e-9
SWEEP_COSET_CAP = 20
# Elements in the B x |G| x n translate matrices of one batch of a sweep,
# and in the B x n masks of one chunk that the sweep hands to its sink.
SCAN_CHUNK = 1 << 17
# The modulus of the oracle's eliminations: below 2^31, so that each
# difference of two products of residues fits int64.
PRIME = 2 ** 31 - 1

__all__ = [
    "EmptySetError",
    "BugTrapError",
    "PompeiuInstance",
    "DecisionReport",
    "SweepResult",
    "pompeiu_oracle",
    "pompeiu_spectral",
    "pompeiu_convolution",
    "zero_set_vector",
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
        if not self.subset:
            raise EmptySetError("subset of cosets must be nonempty")
        for c in self.subset:
            if isinstance(c, bool) or not isinstance(c, numbers.Integral):  # numpy integers too
                raise ValueError(f"coset index {c!r} is not an integer")
            if not 0 <= c < self.space.num_cosets:
                raise ValueError(f"coset index {c} out of range")

    @cached_property
    def _convolution_zero_set(self) -> np.ndarray:
        """Per spherical function, whether it convolves the reversed lifted
        indicator of E to zero: computed once per instance, for both
        `pompeiu_convolution` and `zero_set_vector`."""
        return _convolution_zeros(self.space, _bits(self))[0].all(axis=0)


@dataclass(frozen=True)
class DecisionReport:
    verdict: str                      # "Pompeiu" | "NotPompeiu"
    method: str                       # "oracle" | "spectral" | "convolution"
    witness: dict | None

    @property
    def has_property(self) -> bool:
        return self.verdict == "Pompeiu"


def _instance(space_or_instance, subset=None) -> PompeiuInstance:
    if isinstance(space_or_instance, PompeiuInstance):
        return space_or_instance
    return PompeiuInstance(space_or_instance, frozenset(subset))


def _bits(inst: PompeiuInstance) -> np.ndarray:
    """The subset as a 1 x n 0/1 matrix, the kernels' input with B = 1."""
    bits = np.zeros((1, inst.space.num_cosets), dtype=np.int64)
    bits[0, sorted(inst.subset)] = 1
    return bits


# ---------------------------------------------------------------------------
# oracle

def _translates(space: CosetSpace) -> np.ndarray:
    """Gather index of the translate matrices: bits[:, _translates(space)]
    holds, for each subset E, the 0/1 matrix whose row g is the indicator
    of gE, since c lies in gE exactly when g^{-1}c lies in E.  Built once
    per space and kept on it, beside the decision tables."""
    return space.cached("translates", lambda space: space.action[space.group.inv])


def translate_matrix(inst: PompeiuInstance) -> np.ndarray:
    """0/1 constraint rows, one per group element g: row g is the indicator
    of the translate gE.

    The integral of a coset function over gE genuinely depends on g, not
    just on the coset gK (the rows collapse to the transversal only when
    the lifted indicator of E is biinvariant), so every group element
    contributes a row.  Repeated rows are kept: neither they nor the row
    order change the kernel or the reduced row echelon basis that
    `nullspace` returns, and removing them cost more than it saved.
    """
    return _bits(inst)[0, _translates(inst.space)]


def _check_oracle_budget(space: CosetSpace) -> None:
    check_work_budget(space.group.order * space.num_cosets ** 2,
                      f"{space.group.name} with {space.num_cosets} cosets: "
                      "the oracle's elimination")


def _rank_exact(n: int) -> bool:
    """Whether the rank modulo PRIME of every 0/1 matrix with n columns is
    its rational rank, all its minors being below PRIME: up to 22 columns."""
    return xla.zero_one_minor_bound_squared(n) < PRIME ** 2


def _translate_full_rank(space: CosetSpace, bits: np.ndarray) -> np.ndarray:
    """The translate test, per subset: whether the translate matrix has full
    column rank modulo PRIME.  True proves full rational rank; False proves
    a rational deficiency when `_rank_exact` holds."""
    return _full_rank_mod(bits[:, _translates(space)], PRIME)


def _full_rank_mod(a: np.ndarray, p: int) -> np.ndarray:
    """Per matrix of a fresh int64 stack of residues mod p, of at least as
    many rows as columns: whether it has full column rank mod p.  No
    division: each step sets every row below the pivot row to pivot * row
    - entry * pivot_row (mod p), scaling it by the nonzero pivot."""
    full = np.ones(len(a), dtype=bool)
    batch = np.arange(len(a))
    while a.shape[2]:
        nonzero = a[:, :, 0] != 0
        full &= nonzero.any(axis=1)
        pick = nonzero.argmax(axis=1)
        pivot_row = a[batch, pick]
        a[batch, pick] = a[:, 0]        # rows 1.. are now the other rows
        rest = a[:, 1:, 1:] * pivot_row[:, :1, None]
        rest -= a[:, 1:, :1] * pivot_row[:, None, 1:]
        rest -= rest // p * p
        a = rest
    return full


def pompeiu_oracle(space_or_instance, subset=None, kernel=None) -> DecisionReport:
    """Definition-level decision: the subset has the property iff the
    translate matrix has trivial kernel.  A candidate kernel, an integer
    array not all 0 summing to 0 over every translate gE, is the witness;
    else the translate test proves full rank; on a deficiency modulo PRIME
    the exact kernel decides, and its first vector, rechecked in integers
    against every translate, is the witness.  Up to 22 columns that
    deficiency is proven, so a trivial kernel there is a bug; past 22
    columns the kernel decides alone."""
    inst = _instance(space_or_instance, subset)
    space = inst.space
    _check_oracle_budget(space)
    translates = space.action[:, sorted(inst.subset)]
    if kernel is not None and np.any(kernel) and not np.any(kernel[translates].sum(axis=1)):
        return DecisionReport("NotPompeiu", "oracle", {"kernel": [float(x) for x in kernel]})
    if _translate_full_rank(space, _bits(inst))[0]:
        return DecisionReport("Pompeiu", "oracle", None)
    kernel = xla.nullspace(translate_matrix(inst))
    if not kernel:
        if _rank_exact(space.num_cosets):
            raise BugTrapError("exact kernel is trivial on a certified rank deficiency")
        return DecisionReport("Pompeiu", "oracle", None)
    h = kernel[0]
    if np.any(np.asarray(h, dtype=object)[translates].sum(axis=1)):
        raise BugTrapError("oracle kernel witness failed recheck")
    return DecisionReport("NotPompeiu", "oracle", {"kernel": [float(x) for x in h]})


# ---------------------------------------------------------------------------
# spherical criteria

class _DecisionCache:
    """The per-coset tables of the two spherical deciders, rows c in G/K:
    phi[c], the Phi values of the ideal generator of coset c for the
    identity, generators[c] @ phi_matrix.T, and conv[c], |K| times the
    spherical functions on the class of c, class_values[:, orbitals[0]].T.
    A row's mass, its value at f = 1, is |K| in conv and |K|^2 in phi:
    sum_j generators[c, j] |C_j| = |K| sum_u #{k in K : k u = c} = |K|^2.
    A complex table is kept as interleaved real and imaginary columns: real
    rows times it, viewed as complex, give the complex product, which numpy
    would hand to several BLAS threads at a sweep batch's size.

    generators[c, j] = #{k in K : k rep_j^{-1} lies in coset c} is the
    ideal generator of coset c for the identity, on the double-coset
    representatives: the density #{k in K : k u = c} at u, the coset of
    rep_j^{-1}.  Every density column is checked constant on the K-orbits
    of u here, once, which makes every row biinvariant, with every sum of
    rows, so no subset is checked again."""

    def __init__(self, space: CosetSpace):
        spherical_functions(space)      # raises NotGelfandPairError up front
        n = space.num_cosets
        reps = list(space.double_cosets.representatives)
        density = np.bincount((space.action[list(space.k_members)] * n + np.arange(n)).ravel(),
                              minlength=n * n).reshape(n, n)
        # column u against the column of the least coset of its K-orbit
        if not np.array_equal(density, density[:, space.coset_of[reps][space.orbitals[0]]]):
            raise BugTrapError("ideal generator is not biinvariant")
        self.generators = density[:, space.coset_of[space.group.inv[reps]]]
        structure = hecke_structure(space)
        tables = (self.generators @ structure.phi_matrix.T,
                  space.k_size * structure.class_values[:, space.orbitals[0]].T)
        self.phi, self.conv = (np.ascontiguousarray(t).view(float) if t.dtype.kind == "c"
                               else t for t in tables)


def _vanishing(values: np.ndarray, mass, size) -> np.ndarray:
    """The one zero test, elementwise: exact on int64 values, else below
    ZERO_TOL (1 + mass size), mass the value of a row at f = 1, size |E|."""
    if values.dtype.kind == "i":
        return values == 0
    return np.abs(values) < ZERO_TOL * (1.0 + mass * size)


def _cache(space: CosetSpace) -> _DecisionCache:
    return space.cached("decision", _DecisionCache)


def _row_zeros(space: CosetSpace, bits: np.ndarray, table: np.ndarray, mass: int) -> np.ndarray:
    """B x transversal x spherical functions: whether row r of subset E,
    the sum of the rows of a per-coset table of the given mass over the
    cosets of t_r^{-1}E, vanishes.  translates[b, r] is the indicator of
    t_r^{-1}E: c lies there exactly when t_r c lies in E.  The product
    needs no blocks: a sweep batch's translates hold B n n <= B |G| n <=
    SCAN_CHUNK entries, its products at most twice as many (two columns a
    spherical function, at most n)."""
    translates = bits[:, space.action[list(space.transversal)]]
    values = translates @ table
    if table.dtype.kind == "f":
        values = values.view(complex)
    return _vanishing(values, mass, bits.sum(axis=1)[:, None, None])


def _spectral_zeros(space: CosetSpace, bits: np.ndarray) -> np.ndarray:
    """Per t_r: whether f_i's homomorphism kills the ideal generator of E
    for t_r, the sum over c in E of the generator of coset c for t_r.
    Translating by t_r^{-1} carries that onto the generator of coset
    t_r^{-1}c for the identity, so its Phi values are row r of the phi
    table.  E fails exactly when some f_i kills every row."""
    return _row_zeros(space, bits, _cache(space).phi, space.k_size ** 2)


def _convolution_zeros(space: CosetSpace, bits: np.ndarray) -> np.ndarray:
    """Per t_r: whether f_i convolves the reversed lifted indicator of E to
    zero at every x with x^{-1} in t_r K.  Over z in t_c K the convolution
    sum_{z in lifted E} f(xz) is |K| f_i(x t_c), |K| times f_i on the class
    orb[r, c] = orb[0, t_r^{-1}c]: the sum is row r of the conv table, and
    it vanishes on G exactly when it does at every r."""
    return _row_zeros(space, bits, _cache(space).conv, space.k_size)


def _spherical_report(method: str, space: CosetSpace, zeros: np.ndarray) -> DecisionReport:
    """NotPompeiu with the first spherical function flagged in zeros as the
    witness, or Pompeiu when none is."""
    hits = np.flatnonzero(zeros)
    if hits.size == 0:
        return DecisionReport("Pompeiu", method, None)
    witness = {"spherical_index": int(hits[0]),
               "values": [_c2pair(v) for v in spherical_functions(space)[hits[0]].values]}
    return DecisionReport("NotPompeiu", method, witness)


def pompeiu_spectral(space_or_instance, subset=None) -> DecisionReport:
    """E has the property iff no spherical function kills the whole ideal."""
    inst = _instance(space_or_instance, subset)
    zeros = _spectral_zeros(inst.space, _bits(inst))[0].all(axis=0)
    return _spherical_report("spectral", inst.space, zeros)


def pompeiu_convolution(space_or_instance, subset=None) -> DecisionReport:
    """E has the property iff no spherical function convolves the reversed
    lifted indicator to zero; checked exhaustively on the group."""
    inst = _instance(space_or_instance, subset)
    return _spherical_report("convolution", inst.space, inst._convolution_zero_set)


def zero_set_vector(space_or_instance, subset=None) -> np.ndarray | None:
    """L sum_{i in Z} f_i on the cosets, Z the convolution zero set of E and
    L the lcm of the class sizes (None if Z is empty): int64, as Galois maps
    Z to itself (Bannai & Ito 1984, ch. II), else a bug trap; |Z| L at K,
    and in the translate matrix's kernel iff every f_i in Z is."""
    inst = _instance(space_or_instance, subset)
    zeros = inst._convolution_zero_set
    if not zeros.any():
        return None
    st = hecke_structure(inst.space)    # exact values are scaled by L already
    total = st.class_values[zeros][:, inst.space.orbitals[0]].sum(axis=0) * (
        1 if st.exact else math.lcm(*st.class_sizes))
    ints = np.rint(total.real)
    if np.abs(total - ints).max() > 0.25:
        raise BugTrapError("the zero set's sum is not an integer vector")
    return ints.astype(np.int64)


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
    """Single-measure decision when the lifted indicator E~ is biinvariant,
    None otherwise.  Then the identity's ideal generator, row 0 of the
    spectral zeros, is |K| times the reversed indicator [x^{-1} in E~]: it
    counts the k in K with k x^{-1} in E~, all of them or none."""
    inst = _instance(space_or_instance, subset)
    if _biinvariant_lift(inst.space, inst.subset) is None:
        return None
    zeros = _spectral_zeros(inst.space, _bits(inst))[0, 0]
    return _spherical_report("radial-shortcut", inst.space, zeros)


# ---------------------------------------------------------------------------
# sweep

@dataclass(frozen=True)
class SweepResult:
    """The counts of a sweep; its rows go to the sink of `enumerate_all`."""
    space_name: str
    subsets: int
    pompeiu_count: int
    disagreements: int

    def summary(self) -> dict:
        return {"space": self.space_name, "subsets": self.subsets,
                "pompeiu": self.pompeiu_count,
                "not_pompeiu": self.subsets - self.pompeiu_count,
                "disagreements": self.disagreements}


def _orbit_labels(space: CosetSpace) -> np.ndarray:
    """label[m], the least mask of the G-orbit of mask m (bit c is coset c),
    as int32.  image, s.m for every m, is rebuilt for each generator s in
    each round: memory does not grow with the generators."""
    n = space.num_cosets
    image = np.zeros(1 << n, dtype=np.int32)

    def images():
        for bits in 1 << space.action[list(space.group.generators)]:
            for c in range(n):
                image[1 << c:2 << c] = image[:1 << c] | bits[c]
            yield image
    return orbit_minima(1 << n, images)


def _decide(space: CosetSpace, bits: np.ndarray) -> np.ndarray:
    """The three deciders on a batch of subsets, packed in one code per
    subset: bit 0 is the oracle's full rank, bits 1-15 and 16 on are 1 +
    the first spherical function that the spectral and the convolution
    criterion flag (0 for none).  The oracle is the translate test, one
    elimination for the whole batch."""
    if not _rank_exact(space.num_cosets):
        raise BugTrapError(f"PRIME does not exceed Hadamard's bound for "
                           f"{space.num_cosets} columns")
    full = _translate_full_rank(space, bits)
    spectral = _spectral_zeros(space, bits).all(axis=1)
    conv = _convolution_zeros(space, bits).all(axis=1)
    # argmax + 1 is the first flag + 1, and any() zeroes it when none is set
    return (full | (spectral.argmax(axis=1) + 1) * spectral.any(axis=1) << 1
            | (conv.argmax(axis=1) + 1) * conv.any(axis=1) << 16)


def _verdicts(code: int, labels: list) -> tuple:
    """(oracle, spectral, convolution, witness) of a packed code."""
    oracle, spectral, conv = bool(code & 1), code >> 1 & 0x7FFF, code >> 16
    witness = labels[spectral - 1] if spectral else "" if oracle else "kernel"
    return oracle, not spectral, not conv, witness


def enumerate_all(space: CosetSpace, max_size: int | None = None,
                  sink=None) -> SweepResult:
    """Run all three deciders over every nonempty subset of the cosets
    (optionally bounded in size), in one thread, and count agreement.
    sink, when given, gets chunks of at most SCAN_CHUNK // n masks (at
    least one) as sink(masks, codes, verdicts): the int64 bitmasks in
    increasing order, their packed int32 codes (`_decide`), and a dict from
    each of those codes to its (oracle, spectral, convolution, witness).

    Only the masks that are their own orbit label are decided, in batches
    whose translate matrices hold at most SCAN_CHUNK elements (at least one
    subset).  A size bound keeps whole orbits, and every mask takes the
    code of its label."""
    n = space.num_cosets
    if n > SWEEP_COSET_CAP:
        raise ValueError(f"{n} cosets exceeds the exhaustive cap {SWEEP_COSET_CAP}")
    if max_size is not None and max_size < 1:
        raise ValueError(f"max subset size must be >= 1, got {max_size}")
    names = [f"spherical:{i}" for i in range(len(spherical_functions(space)))]
    _check_oracle_budget(space)
    label = _orbit_labels(space)
    # the masks of at most max_size bits, less mask 0, the empty set
    kept = np.flatnonzero(np.bitwise_count(np.arange(1 << n)) <= (max_size or n))[1:]
    reps = kept[label[kept] == kept]
    code = np.zeros(1 << n, dtype=np.int32)
    per_batch = max(1, SCAN_CHUNK // (space.group.order * n))
    for i in range(0, len(reps), per_batch):
        batch = reps[i:i + per_batch]
        code[batch] = _decide(space, batch[:, None] >> np.arange(n) & 1)
    pompeiu = disagreements = 0
    rows = max(1, SCAN_CHUNK // n)
    for i in range(0, len(kept), rows):
        masks = kept[i:i + rows]
        codes = code[label[masks]]
        values, counts = np.unique(codes, return_counts=True)
        verdicts = {value: _verdicts(value, names) for value in values.tolist()}
        for (oracle, spectral, conv, _), count in zip(verdicts.values(), counts.tolist()):
            pompeiu += oracle * count
            disagreements += (not oracle == spectral == conv) * count
        if sink is not None:
            sink(masks, codes, verdicts)
    return SweepResult(space.name, len(kept), pompeiu, disagreements)


# ---------------------------------------------------------------------------
# witness rechecking

def recheck_witness(inst: PompeiuInstance, report: DecisionReport) -> bool:
    """Verify a NotPompeiu witness for inst against the definition itself:
    as a function h on the cosets, nonzero, it sums to zero over every
    translate gE (exactly on integers).  A kernel is h as printed; a
    spherical f gives h(c) = f on the class of c, and sum_{z in lifted E}
    f(xz), |K| times the sum of h over xE, is tested at mass |K|, and its
    printed values to ZERO_TOL against f's.  A malformed witness is refused."""
    if report.witness is None:
        return False
    space, size, witness = inst.space, len(inst.subset), report.witness
    try:
        kernel = "kernel" in witness
        h = np.asarray(witness["kernel" if kernel else "values"], dtype=float)
        idx, mass = (None, 1) if kernel else (witness["spherical_index"], space.k_size)
    except (KeyError, TypeError, ValueError):
        return False
    if not kernel:
        values = hecke_structure(space).class_values
        if not (isinstance(idx, numbers.Integral) and not isinstance(idx, bool)
                and 0 <= idx < len(values) and h.shape == (len(values), 2)
                and (abs(h @ [1, 1j] - values[idx] / values[0, 0]) < ZERO_TOL).all()):
            return False
        h = values[idx, space.orbitals[0]]
    if h.shape != (space.num_cosets,) or not h.any():
        return False
    sums = h[space.action[:, sorted(inst.subset)]].sum(axis=1)
    return bool(_vanishing(mass * sums, mass, size).all())


def _c2pair(v) -> list:
    z = complex(v)
    return [z.real, z.imag]
