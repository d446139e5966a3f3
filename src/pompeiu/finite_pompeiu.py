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
`pompeiu_spectral`, `pompeiu_convolution`) run them with B = 1.  The
oracle's one test, the translate test, eliminates the translate matrix M
modulo PRIME = 2^31 - 1: full rank there proves full rational rank (a
minor nonzero modulo PRIME is nonzero), and up to 22 columns a deficiency
there is rational too (`_rank_exact`).  A sweep runs one elimination per
batch and computes no kernel; `pompeiu_oracle` takes its witness from
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
from dataclasses import dataclass

import numpy as np

from . import exact_linalg as xla
from .groups import BugTrapError, CosetSpace, check_work_budget
from .hecke import hecke_structure, spherical_functions

PHI_ZERO_TOL = 1e-9
CONV_ZERO_TOL = 1e-9
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
            if not 0 <= int(c) < self.space.num_cosets:
                raise ValueError(f"coset index {c} out of range")


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
    return PompeiuInstance(space_or_instance, frozenset(int(c) for c in subset))


def _bits(inst: PompeiuInstance) -> np.ndarray:
    """The subset as a 1 x n 0/1 matrix, the kernels' input with B = 1."""
    bits = np.zeros((1, inst.space.num_cosets), dtype=np.int64)
    bits[0, sorted(inst.subset)] = 1
    return bits


def _support(bits: np.ndarray) -> np.ndarray:
    """The cosets that lie in at least one of the subsets."""
    return np.flatnonzero(bits.any(axis=0))


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


def pompeiu_oracle(space_or_instance, subset=None) -> DecisionReport:
    """Definition-level decision: the subset has the property iff the
    translate matrix has trivial kernel.  The translate test proves full
    rank; on a deficiency modulo PRIME the exact kernel decides, and its
    first vector, rechecked in integers against every translate, is the
    witness.  Up to 22 columns that deficiency is proven, so a trivial
    kernel there is a bug; past 22 columns the kernel decides alone."""
    inst = _instance(space_or_instance, subset)
    space = inst.space
    _check_oracle_budget(space)
    if _translate_full_rank(space, _bits(inst))[0]:
        return DecisionReport("Pompeiu", "oracle", None)
    matrix = translate_matrix(inst)
    kernel = xla.nullspace(matrix)
    if not kernel:
        if _rank_exact(space.num_cosets):
            raise BugTrapError("exact kernel is trivial on a certified rank deficiency")
        return DecisionReport("Pompeiu", "oracle", None)
    h = kernel[0]
    scale = math.lcm(*(x.denominator for x in h))
    scaled = np.asarray([x.numerator * (scale // x.denominator) for x in h],
                        dtype=object)
    if np.any(np.asarray(matrix, dtype=object) @ scaled):
        raise BugTrapError("oracle kernel witness failed recheck")
    witness = {"kernel": [float(x) for x in h]}
    return DecisionReport("NotPompeiu", "oracle", witness)


# ---------------------------------------------------------------------------
# ideal machinery

class _DecisionCache:
    """The per-space tables of the spectral decider and the radial
    shortcut: the Phi table of the Hecke structure
    (`hecke.hecke_structure`) in product form, and the ideal generators.

    generators[c, j] = #{k in K : k rep_j^{-1} lies in coset c} is the
    ideal generator of coset c for the identity, on the double-coset
    representatives: the density #{k in K : k u = c} at u, the coset of
    rep_j^{-1}.  Translating by t^{-1} carries the generator of coset c
    for the transversal element t onto that of coset t^{-1}c for the
    identity; shift[r, c] is the coset t_r^{-1}c, for r in G/K.  Every
    density column is checked constant on the K-orbits of u here, once,
    which makes every row biinvariant, with its translates and every sum
    of rows, so no subset is checked again."""

    def __init__(self, space: CosetSpace):
        spherical_functions(space)      # raises NotGelfandPairError up front
        group, n = space.group, space.num_cosets
        reps = list(space.double_cosets.representatives)
        density = np.bincount((space.action[list(space.k_members)] * n + np.arange(n)).ravel(),
                              minlength=n * n).reshape(n, n)
        # column u against the column of the least coset of its K-orbit
        if not np.array_equal(density, density[:, space.coset_of[reps][space.orbitals[0]]]):
            raise BugTrapError("ideal generator is not biinvariant")
        self.generators = density[:, space.coset_of[group.inv[reps]]]
        self.shift = space.action[group.inv[list(space.transversal)]]
        self.class_sizes = np.asarray(space.double_cosets.class_sizes)
        # The Phi table, transposed.  A complex one is kept as interleaved
        # real and imaginary columns: real rows times it, viewed as
        # complex, give the complex product, which numpy would hand to
        # several BLAS threads at a sweep batch's size.
        phi = hecke_structure(space).phi_matrix.T
        if phi.dtype.kind == "c":
            phi = np.stack([phi.real, phi.imag], axis=2).reshape(len(phi), -1)
        self.phi_table = phi


def _vanishing(values: np.ndarray, tol) -> np.ndarray:
    """Elementwise zero test: exact on the int64 tables of an exact space,
    below tol on complex ones."""
    if values.dtype.kind == "i":
        return values == 0
    return np.abs(values) < tol


def _cache(space: CosetSpace) -> _DecisionCache:
    return space.cached("decision", _DecisionCache)


def _generator_rows(space: CosetSpace, bits: np.ndarray) -> np.ndarray:
    """Class-coefficient rows of the ideal generators, B x |transversal| x
    classes: row r of subset E is the sum over c in E of the generator of
    coset t_r^{-1}c.  One product over the cosets of the support, so the
    table it gathers covers those cosets only: at most 20 in a sweep, |E|
    when B = 1."""
    cache = _cache(space)
    support = _support(bits)
    return (bits[:, support] @ cache.generators[cache.shift[:, support]]).transpose(1, 0, 2)


def _common_zeros(space: CosetSpace, rows: np.ndarray) -> np.ndarray:
    """B x spherical functions: whether the homomorphism of f_i kills every
    measure of batch b, one measure per row of rows[b] (class
    coefficients), each tested against its own tolerance.

    The measures go through the Phi table in blocks of at most SCAN_CHUNK
    multiply-adds, so that the tables stay small and each product runs on
    one BLAS thread."""
    cache = _cache(space)
    flat = rows.reshape(-1, rows.shape[2])
    tol = PHI_ZERO_TOL * (1.0 + (np.abs(flat) * cache.class_sizes).sum(axis=1))
    table = cache.phi_table
    step = max(1, SCAN_CHUNK // table.size)
    zeros = []
    for i in range(0, len(flat), step):
        phi = flat[i:i + step] @ table
        if table.dtype.kind == "f":
            phi = phi.view(complex)
        zeros.append(_vanishing(phi, tol[i:i + step, None]))
    return np.concatenate(zeros).reshape(rows.shape[0], rows.shape[1], -1).all(axis=1)


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
    zeros = _common_zeros(inst.space, _generator_rows(inst.space, _bits(inst)))[0]
    return _spherical_report("spectral", inst.space, zeros)


# ---------------------------------------------------------------------------
# convolution criterion


def _annihilating(table: np.ndarray, space: CosetSpace, subset) -> np.ndarray:
    """For each row f of table (values on G): whether x -> sum_{z in lifted}
    f(xz) vanishes identically, lifted the elements whose coset is in
    subset.  The definition, element by element; `recheck_witness` holds
    the deciders to it.  The x run in blocks whose gather holds at most
    SCAN_CHUNK values, one block when the whole gather fits."""
    lifted = np.nonzero(np.isin(space.coset_of, sorted(subset)))[0]
    mul = space.group.mul
    step = max(1, SCAN_CHUNK // (len(table) * len(lifted)))
    conv = np.concatenate([table[:, mul[x:x + step, lifted]].sum(axis=2)
                           for x in range(0, len(mul), step)], axis=1)
    tol = CONV_ZERO_TOL * (1 + len(lifted))
    return _vanishing(conv, tol).all(axis=1)


def _convolution_zeros(space: CosetSpace, bits: np.ndarray) -> np.ndarray:
    """B x spherical functions: whether f_i convolves the reversed lifted
    indicator of subset b to zero on all of G.

    The convolution sum_{z in lifted E} f(xz) is grouped by coset: over
    z in t_c K it is |K| f_i(x t_c), which for x^{-1} in t_r K is |K| times
    f_i on the class orb[r, c].  So conv[b, i, r] is that sum over c in E,
    one column of the orbital table per coset of the support, and it
    vanishes on G exactly when it does at every r in G/K."""
    class_values = hecke_structure(space).class_values
    orb = space.orbitals
    conv = np.zeros((len(bits), len(class_values), space.num_cosets), dtype=class_values.dtype)
    for c in _support(bits):
        np.add(conv, class_values[:, orb[:, c]] * space.k_size, out=conv,
               where=bits[:, c, None, None] == 1)
    tol = CONV_ZERO_TOL * (1 + bits.sum(axis=1) * space.k_size)
    return _vanishing(conv, tol[:, None, None]).all(axis=2)


def pompeiu_convolution(space_or_instance, subset=None) -> DecisionReport:
    """E has the property iff no spherical function convolves the reversed
    lifted indicator to zero; checked exhaustively on the group."""
    inst = _instance(space_or_instance, subset)
    zeros = _convolution_zeros(inst.space, _bits(inst))[0]
    return _spherical_report("convolution", inst.space, zeros)


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
    space = inst.space
    inside = _biinvariant_lift(space, inst.subset)
    if inside is None:
        return None
    # class coefficients of the reversed indicator x -> [x^{-1} lies in E~]
    reps = np.asarray(space.double_cosets.representatives)
    coeffs = inside[space.coset_of[space.group.inv[reps]]].astype(np.int64)
    zeros = _common_zeros(space, coeffs[None, None, :])[0]
    return _spherical_report("radial-shortcut", space, zeros)


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
    each round: memory does not grow with the generators.  Labels start at
    m and fall to masks of the orbit, label[s.m] and label[label[m]], until
    label[m] <= label[s.m] <= ... <= label[s^k.m] = label[m] for every s."""
    n = space.num_cosets
    image = np.zeros(1 << n, dtype=np.int32)
    label, last = np.arange(1 << n, dtype=np.int32), None
    while not np.array_equal(label, last):
        last = label
        for bits in 1 << space.action[list(space.group.generators)]:
            for c in range(n):
                image[1 << c:2 << c] = image[:1 << c] | bits[c]
            label = np.minimum(label, label[image])
        label = label[label]
    return label


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
    spectral = _common_zeros(space, _generator_rows(space, bits))
    conv = _convolution_zeros(space, bits)
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
    """Verify a NotPompeiu witness for inst against the definition itself."""
    if report.witness is None:
        return False
    space = inst.space
    if "kernel" in report.witness:
        # one constraint per translate gE, over every g in G
        h = np.asarray(report.witness["kernel"], dtype=float)
        totals = h[space.action[:, sorted(inst.subset)]].sum(axis=1)
        return bool(np.all(np.abs(totals) <= 1e-9 * (1 + len(inst.subset))))
    idx = report.witness["spherical_index"]
    table = hecke_structure(space).class_values[idx:idx + 1, space.double_cosets.class_of]
    return bool(_annihilating(table, space, inst.subset)[0])


def _c2pair(v) -> list:
    z = complex(v)
    return [z.real, z.imag]
