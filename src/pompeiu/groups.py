"""Finite groups as dense multiplication tables, with coset spaces and
double cosets.

Elements are integers ``0..order-1`` with the identity at index 0.  The
construction order is deterministic (residue order for cyclic groups,
lexicographic one-line order for symmetric groups, breadth-first discovery
for generated permutation groups), so element and coset indices are stable
across runs.

Every group carries a generating set, which must generate its table.  The
families' tables are associative by construction: residue arithmetic, or
composition, each row filled along the Cayley graph by a checked left
translation.  Light's test proves any table associative up to order 256;
a raw table above that, given through the Python API, is only sampled.

A coset space reads the table once, for its action on the cosets.  Its
double cosets are the K-orbits on the cosets and its orbitals the G-orbits
on pairs of cosets, so K-biinvariant data is built on n cosets, not |G|.
"""

from __future__ import annotations

import json
import numbers
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

DEFAULT_ORDER_CAP = 5040
# Most Hecke structure constants (d^3, d the number of double-coset
# classes, counted a block of d x d slices at a time) and largest
# elimination (group order x cosets^2 entry updates) that the finite
# deciders will start.  With K = {e} both are n^3 for Z_n: Z_215 decides,
# Z_216 is refused.  Z_200 and Z_215 peak at 55 MB RSS on x86-64 Linux.
WORK_BUDGET = 10 ** 7

__all__ = [
    "FiniteGroup",
    "CosetSpace",
    "DoubleCosetPartition",
    "GroupSpecError",
    "WORK_BUDGET",
    "check_work_budget",
    "build_group",
    "build_coset_space",
    "double_cosets",
    "lift_set",
    "check_function_invariance",
    "subgroup_closure",
    "load_group_spec",
]


class GroupSpecError(ValueError):
    """Raised for malformed group specifications or cap violations."""


class BugTrapError(RuntimeError):
    """An internal check failed: a bug, never a verdict.  Defined here,
    where no other module of the package is imported, so that every module
    can raise it."""


def check_work_budget(size: int, what: str) -> None:
    """Raise GroupSpecError when size, the entries of an array or the steps
    of an elimination about to be started, exceeds WORK_BUDGET."""
    if size > WORK_BUDGET:
        raise GroupSpecError(f"{what} has size {size}, over the work budget "
                             f"of {WORK_BUDGET}")


_SPEC_KINDS = {"an object": Mapping, "a list": (list, tuple),
               "an integer": numbers.Integral, "a number": numbers.Real}


def _spec_value(value, what: str, kind: str):
    """value if it is kind (a key of _SPEC_KINDS) and no bool, else GroupSpecError naming what."""
    if isinstance(value, bool) or not isinstance(value, _SPEC_KINDS[kind]):
        raise GroupSpecError(f"{what} must be {kind}, got {value!r}")
    return value


def _spec_field(spec, key: str, kind: str):
    """spec[key] checked by _spec_value; GroupSpecError if spec has no key."""
    if key not in spec:
        raise GroupSpecError(f"spec is missing required field {key!r}")
    return _spec_value(spec[key], key, kind)


def _integers(value, what: str) -> list[int]:
    return [int(_spec_value(x, f"{what} entry", "an integer"))
            for x in _spec_value(value, what, "a list")]


# ---------------------------------------------------------------------------
# permutation helpers (0-based one-line images)

def _compose(p: tuple, q: tuple) -> tuple:
    # (p q)(i) = p(q(i))
    return tuple(p[j] for j in q)


def cycle_label(p: Sequence[int]) -> str:
    """Cycle notation with 1-based points; identity is 'e'."""
    seen = [False] * len(p)
    parts = []
    for start in range(len(p)):
        if seen[start] or p[start] == start:
            seen[start] = True
            continue
        cyc = []
        i = start
        while not seen[i]:
            seen[i] = True
            cyc.append(str(i + 1))
            i = p[i]
        parts.append("(" + " ".join(cyc) + ")")
    return "".join(parts) if parts else "e"


# ---------------------------------------------------------------------------
# core types


class FiniteGroup:
    """Multiplication-table group with identity 0 and a generating set of
    element indices; immutable after construction.  The generators must
    generate the table, and prove it associative by Light's test up to order
    256; above that, 10 000 random triples are checked."""

    # one-line images of the elements, in element order, for a group built
    # from permutations; None otherwise
    perms: tuple | None = None

    def __init__(self, mul: np.ndarray, name: str,
                 element_labels: Sequence[str] | None,
                 generators: Sequence[int]):
        mul = np.asarray(mul, dtype=np.int32)
        if mul.ndim != 2 or mul.shape[0] != mul.shape[1]:
            raise GroupSpecError("multiplication table must be square")
        self.order = int(mul.shape[0])
        self.mul = mul
        self.mul.setflags(write=False)
        self.identity = 0
        self.name = name
        if element_labels is not None and len(element_labels) != self.order:
            raise GroupSpecError("element_labels length != order")
        self._labels = tuple(element_labels) if element_labels else None
        self.generators = tuple(int(s) for s in generators)
        self.inv = self._validate()
        self.inv.setflags(write=False)

    def _validate(self) -> np.ndarray:
        """Check the group axioms and return the inverse table."""
        n = self.order
        mul = self.mul
        if mul.min() < 0 or mul.max() >= n:
            raise GroupSpecError("multiplication table entries out of range")
        e = self.identity
        if not (np.array_equal(mul[e], np.arange(n)) and np.array_equal(mul[:, e], np.arange(n))):
            raise GroupSpecError("index 0 is not a two-sided identity")
        gens = self.generators
        if not gens or not all(0 <= s < n for s in gens):
            raise GroupSpecError("generators must be element indices")
        # breadth-first walk x -> x s from the identity, with inverses
        # carried along as (a s)^-1 = s^-1 a^-1 (checked below)
        cols = mul[:, list(gens)].T.tolist()
        rows_inv = mul[(mul[list(gens)] == e).argmax(axis=1)].tolist()
        inv = [e] + [-1] * (n - 1)
        walk = [e]
        for a in walk:
            for col, row_inv in zip(cols, rows_inv):
                b = col[a]
                if inv[b] < 0:
                    inv[b] = row_inv[inv[a]]
                    walk.append(b)
        if len(walk) < n:
            raise GroupSpecError(f"the generators generate {len(walk)} of {n} elements")
        if n <= 256:
            # Light's test: the elements s with (xs)y == x(sy) for all x, y
            # are closed under products, so the generators suffice
            for s in gens:
                if not np.array_equal(mul[mul[:, s]], mul[:, mul[s]]):
                    raise GroupSpecError("multiplication table is not associative")
        else:
            rng = np.random.default_rng(0)
            a, b, c = rng.integers(0, n, size=(3, 10_000))
            if not np.array_equal(mul[mul[a, b], c], mul[a, mul[b, c]]):
                raise GroupSpecError("multiplication table is not associative")
        inv = np.asarray(inv, dtype=np.int32)
        if not np.all(mul[np.arange(n), inv] == e):
            raise GroupSpecError("inverse table inconsistent")
        return inv

    @property
    def element_labels(self) -> tuple:
        """One label per element: the given labels, else the cycle notation
        of a group built from permutations, else the index."""
        if self._labels is None:
            self._labels = tuple(cycle_label(p) for p in self.perms) \
                if self.perms is not None else tuple(str(i) for i in range(self.order))
        return self._labels

    def label(self, g: int) -> str:
        if self._labels is None and self.perms is not None:
            return cycle_label(self.perms[g])
        return self.element_labels[g]

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, order={self.order})"


@dataclass(frozen=True)
class DoubleCosetPartition:
    """Partition of a group into K-double cosets KxK."""

    class_of: np.ndarray          # element index -> class index
    representatives: tuple        # smallest element index per class
    class_sizes: tuple

    @property
    def num_classes(self) -> int:
        return len(self.representatives)


class CosetSpace:
    """A group together with a subgroup K, the left cosets gK, the natural
    left action of the group on them, the double cosets KxK (the K-orbits
    on the cosets) and the orbital table."""

    def __init__(self, group: FiniteGroup, k_generators: Iterable[int],
                 name: str | None = None):
        self.group = group
        self.k_members = tuple(subgroup_closure(group, k_generators))
        self.k_size = len(self.k_members)
        mul = group.mul
        n = group.order
        coset_of = np.full(n, -1, dtype=np.int32)
        transversal = []
        k_arr = np.asarray(self.k_members, dtype=np.int32)
        for g in range(n):
            if coset_of[g] >= 0:
                continue
            c = len(transversal)
            transversal.append(g)
            coset_of[mul[g, k_arr]] = c
        self.transversal = tuple(transversal)
        self.coset_of = coset_of
        self.coset_of.setflags(write=False)
        self.num_cosets = len(transversal)
        t_arr = np.asarray(transversal, dtype=np.int32)
        self.action = coset_of[mul[:, t_arr]]
        self.action.setflags(write=False)
        self.name = name or f"{group.name}/{self.subgroup_label()}"
        self._cache: dict = {}

    def subgroup_label(self) -> str:
        gens = [g for g in self.k_members if g != self.group.identity]
        if not gens:
            return "<e>"
        return "<" + ",".join(self.group.label(g) for g in gens) + ">"

    @property
    def double_cosets(self) -> DoubleCosetPartition:
        return self.cached("double_cosets", CosetSpace._compute_double_cosets)

    def cached(self, key: str, build):
        """Per-space data, built by build(self) on first use and kept on the
        space, so that it is released together with the space."""
        value = self._cache.get(key)
        if value is None:
            value = self._cache[key] = build(self)
        return value

    def _compute_double_cosets(self) -> DoubleCosetPartition:
        # KxK is the union of the cosets in the K-orbit of xK.  Orbits are
        # numbered by their least coset, whose transversal element is the
        # least element of KxK.
        least = self.action[list(self.k_members)].min(axis=0)
        cosets, orbit_of, counts = np.unique(least, return_inverse=True, return_counts=True)
        return DoubleCosetPartition(orbit_of.astype(np.int32)[self.coset_of],
                                    tuple(np.asarray(self.transversal)[cosets].tolist()),
                                    tuple((self.k_size * counts).tolist()))

    @property
    def orbitals(self) -> np.ndarray:
        """orb[r, c], the class of t_r^-1 t_c, names the G-orbit of the pair
        of cosets (r, c); row 0 holds the class of each coset."""
        def build(space):
            t = list(space.transversal)
            return space.double_cosets.class_of[t][space.action[space.group.inv[t]]]
        return self.cached("orbitals", build)

    def __repr__(self) -> str:
        return f"CosetSpace({self.name}, cosets={self.num_cosets})"


# ---------------------------------------------------------------------------
# constructors


def _table_from_perms(perms: list[tuple], generators: Sequence[tuple],
                      name: str) -> FiniteGroup:
    """The table of the permutations perms, perms[0] the identity, that the
    given generators generate; labels are the cycle notation, written out on
    first use.

    An element is known by its images of a base, the shortest run of
    leading points whose images tell all elements apart (2 points for a
    dihedral group, n - 1 for S_n), keyed as digits base npts.  Such a key
    may wrap int64, so each generator's left translation x -> s x is looked
    up by key and checked on the full images.  Rows are filled along a
    breadth-first walk of the Cayley graph: row s a is row a mapped by x -> s x."""
    n = len(perms)
    npts = len(perms[0])
    arr = np.asarray(perms, dtype=np.int64)
    if not np.array_equal(arr[0], np.arange(npts)):
        raise GroupSpecError("the first permutation must be the identity")
    weights = (npts ** np.arange(npts)).astype(np.int64)
    keys = np.zeros(n, dtype=np.int64)
    for m in range(1, npts + 1):
        keys += arr[:, m - 1] * weights[m - 1]
        if np.unique(keys).size == n:
            break
    else:
        raise GroupSpecError("repeated permutations in a group table")
    order = np.argsort(keys, kind="stable")
    images = np.asarray(generators, dtype=np.int64)[:, arr]   # s o x, each s, x
    found = np.searchsorted(keys[order], images[:, :, :m] @ weights[:m])
    left = order[np.minimum(found, n - 1)]
    if not np.array_equal(arr[left], images):
        raise GroupSpecError("the permutations are not closed under composition")
    mul = np.empty((n, n), dtype=np.int32)
    mul[0] = np.arange(n)
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    walk = [0]
    for a in walk:
        for trans in left:
            b = trans[a]
            if not seen[b]:
                seen[b] = True
                mul[b] = trans[mul[a]]
                walk.append(b)
    if len(walk) < n:
        raise GroupSpecError("the generators do not generate the permutations")
    group = FiniteGroup(mul, name, None, left[:, 0])
    group.perms = tuple(perms)
    return group


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise GroupSpecError("cyclic order must be >= 1")
    idx = np.arange(n, dtype=np.int32)
    mul = (idx[:, None] + idx[None, :]) % n
    return FiniteGroup(mul, f"Z{n}", [str(i) for i in range(n)], [1 % n])


def dihedral_group(n: int) -> FiniteGroup:
    """Symmetries of the regular n-gon, order 2n, as permutations of
    the n vertices.  Requires n >= 3 for the representation to be faithful."""
    if n < 3:
        raise GroupSpecError("dihedral parameter must be >= 3")
    # the rotations i -> i + k, then the reflections i -> k - i
    perms = [tuple((i + k) % n for i in range(n)) for k in range(n)] \
        + [tuple((k - i) % n for i in range(n)) for k in range(n)]
    return _table_from_perms(perms, [perms[1], perms[n]], f"D{n}")


def symmetric_group(n: int, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    import itertools
    import math
    if n < 1:
        raise GroupSpecError("symmetric parameter must be >= 1")
    if math.factorial(n) > order_cap:
        raise GroupSpecError(f"order {math.factorial(n)} exceeds cap {order_cap}")
    perms = list(itertools.permutations(range(n)))
    # the transposition (1 2), which is e for n = 1, and the n-cycle
    swap = tuple(range(min(n, 2)))[::-1] + tuple(range(2, n))
    cycle = tuple(range(1, n)) + (0,)
    return _table_from_perms(perms, [swap, cycle], f"S{n}")


def group_from_permutations(generators: Sequence[Sequence[int]],
                            order_cap: int = DEFAULT_ORDER_CAP,
                            name: str = "perm") -> FiniteGroup:
    """Closure of the given 0-based one-line permutations under composition."""
    gens = []
    for g in generators:
        t = tuple(int(x) for x in g)
        if sorted(t) != list(range(len(t))):
            raise GroupSpecError(f"not a permutation of 0..{len(t) - 1}: {g}")
        gens.append(t)
    if not gens:
        raise GroupSpecError("at least one generator required")
    npts = len(gens[0])
    if any(len(g) != npts for g in gens):
        raise GroupSpecError("generators must permute a common domain")
    elements = [tuple(range(npts))]
    seen = set(elements)
    for p in elements:
        for g in gens:
            q = _compose(p, g)
            if q not in seen:
                if len(elements) >= order_cap:
                    raise GroupSpecError(f"generated order exceeds cap {order_cap}")
                seen.add(q)
                elements.append(q)
    return _table_from_perms(elements, gens, name)


def build_group(spec: dict, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Build from a spec dict: {"family": ..., "n": ..., "generators": ...}."""
    family = _spec_value(spec, "group spec", "an object").get("family")
    if family in ("cyclic", "dihedral", "symmetric"):
        n = int(_spec_field(spec, "n", "an integer"))
    if family in ("cyclic", "dihedral"):
        order = n if family == "cyclic" else 2 * n
        if order > order_cap:
            raise GroupSpecError(f"order {order} exceeds cap {order_cap}")
        return cyclic_group(n) if family == "cyclic" else dihedral_group(n)
    if family == "symmetric":
        return symmetric_group(n, order_cap=order_cap)
    if family == "permutations":
        gens = _spec_field(spec, "generators", "a list")
        return group_from_permutations([_integers(g, "generator") for g in gens],
                                       order_cap=order_cap)
    raise GroupSpecError(f"unknown group family: {family!r}")


def subgroup_closure(group: FiniteGroup, generators: Iterable[int]) -> list[int]:
    """Sorted element indices of the subgroup generated by the given elements."""
    mul = group.mul
    gens = sorted({int(g) for g in generators} | {group.identity})
    for g in gens:
        if not 0 <= g < group.order:
            raise GroupSpecError(f"generator index {g} out of range")
    members = [group.identity]
    seen = set(members)
    for x in members:
        for g in gens:
            y = int(mul[x, g])
            if y not in seen:
                seen.add(y)
                members.append(y)
    return sorted(members)


def build_coset_space(group: FiniteGroup, k_generators: Iterable[int]) -> CosetSpace:
    return CosetSpace(group, k_generators)


def double_cosets(space: CosetSpace) -> DoubleCosetPartition:
    return space.double_cosets


# ---------------------------------------------------------------------------
# set lifting and invariance checks


def lift_set(space: CosetSpace, cosets: Iterable[int]) -> frozenset:
    """All group elements whose coset lies in the given coset-index set."""
    wanted = set(int(c) for c in cosets)
    for c in wanted:
        if not 0 <= c < space.num_cosets:
            raise ValueError(f"coset index {c} out of range")
    return frozenset(np.flatnonzero(np.isin(space.coset_of, list(wanted))).tolist())


def check_function_invariance(space: CosetSpace, f: Sequence, side: str) -> bool:
    """Exact invariance of a value table on the group under K.

    side 'right' tests f(xk) = f(x), 'left' tests f(kx) = f(x), 'bi' both.
    """
    if len(f) != space.group.order:
        raise ValueError("value table length != group order")
    mul = space.group.mul
    if side not in ("left", "right", "bi"):
        raise ValueError(f"side must be left|right|bi, got {side!r}")
    table = np.asarray(f)
    k = np.asarray(space.k_members)
    if side != "left" and np.any(table[mul[:, k]] != table[:, None]):
        return False
    if side != "right" and np.any(table[mul[k, :]] != table[None, :]):
        return False
    return True


# ---------------------------------------------------------------------------
# JSON spec files


def load_group_spec(source) -> tuple[FiniteGroup, list[int]]:
    """Read a group spec (path or dict); returns (group, subgroup generator
    element indices).

    Format: {"family": "cyclic|dihedral|symmetric|permutations", "n": int,
    "generators": [[image,...],...], "subgroup_generators": [...]}.
    Subgroup generators are residues for the cyclic family and 0-based
    one-line permutation images otherwise.
    """
    spec = source
    if isinstance(source, (str, Path)):
        with open(source) as fh:
            spec = json.load(fh)
    group = build_group(spec)
    sub = _spec_value(spec.get("subgroup_generators", []), "subgroup_generators", "a list")
    k_gens: list[int] = []
    if spec.get("family") == "cyclic":
        k_gens = [r % group.order for r in _integers(sub, "subgroup_generators")]
    elif sub:
        lookup = {p: i for i, p in enumerate(group.perms)}
        for p in sub:
            t = tuple(_integers(p, "subgroup generator"))
            if t not in lookup:
                raise GroupSpecError(f"subgroup generator {p} not in group")
            k_gens.append(lookup[t])
    return group, k_gens
