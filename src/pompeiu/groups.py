"""Finite groups as dense multiplication tables, with coset spaces and
double cosets.

Elements are integers ``0..order-1`` with the identity at index 0.  The
construction order is deterministic (residue order for cyclic groups,
lexicographic one-line order for symmetric groups, breadth-first discovery
for generated permutation groups), so element and coset indices are stable
across runs.

Every group is built along one path: the one-line images of its elements
(a multiplication table is its own, row g the map x -> g x) and a
generating set.  Each generator's left translation is checked to be
composition on the full images, which for a table is Light's test, and one
breadth-first walk of the Cayley graph fills the table and must reach every
element, so every table is proved associative.

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
# classes, of which only the at most d x cosets nonzero are counted) and
# largest elimination (group order x cosets^2 entry updates) that the finite
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


def _cayley_table(images: np.ndarray, generators: np.ndarray) -> tuple:
    """Read-only (mul, inv) and the generators' indices for the elements
    whose one-line images are the rows of images, under composition, and the
    generators given by their images; GroupSpecError unless they are a group.

    An element is known by its images of a base, the shortest run of leading
    points whose images tell all rows apart (1 point for a table, n - 1 for
    S_n), keyed as digits base npts.  Such a key may wrap int64, so each
    generator's left translation x -> s x is looked up by key and checked on
    the full images: for a table, Light's test.  One breadth-first walk of
    the Cayley graph fills the rows, row s a being row a mapped by x -> s x,
    so the rows are products of generators, closed under composition, which
    is associative, and a group once each row holds the identity."""
    n, npts = images.shape
    if images.min() < 0 or images.max() >= npts:
        raise GroupSpecError("group table entries out of range")
    if not np.array_equal(images[0], np.arange(npts)):
        raise GroupSpecError("index 0 is not the identity")
    weights = (npts ** np.arange(npts)).astype(np.int64)
    keys = np.zeros(n, dtype=np.int64)
    for m in range(1, npts + 1):
        keys += images[:, m - 1] * weights[m - 1]
        sorted_keys, order = np.unique(keys, return_index=True)
        if len(order) == n:
            break
    else:
        raise GroupSpecError("repeated rows in a group table")
    step = max(1, (1 << 18) // npts)
    left = []
    for s in generators:
        found = np.searchsorted(sorted_keys, s[images[:, :m]] @ weights[:m])
        left.append(order[np.minimum(found, n - 1)].astype(np.int32))
        # s o x on the full images, in blocks of about 2^18 entries
        if not all(np.array_equal(images[left[-1][i:i + step]], s[images[i:i + step]])
                   for i in range(0, n, step)):
            raise GroupSpecError("the rows are not closed under composition "
                                 "(for a multiplication table: not associative)")
    mul = np.empty((n, n), dtype=np.int32)
    mul[0] = np.arange(n)
    seen = np.arange(n) == 0
    walk = [0]
    for a in walk:
        for trans in left:
            b = trans[a]
            if not seen[b]:
                seen[b] = True
                trans.take(mul[a], out=mul[b], mode="clip")  # in range: no check
                walk.append(b)
    if len(walk) < n:
        raise GroupSpecError(f"the generators do not generate the group: they "
                             f"generate {len(walk)} of {n} elements")
    inv = mul.argmin(axis=1).astype(np.int32)
    if not np.all(mul[np.arange(n), inv] == 0):
        raise GroupSpecError("inverse table inconsistent")
    mul.setflags(write=False)
    inv.setflags(write=False)
    return mul, inv, tuple(int(trans[0]) for trans in left)


# ---------------------------------------------------------------------------
# core types


class FiniteGroup:
    """Multiplication-table group with identity 0 and a generating set of
    element indices; immutable after construction.  The table is the image
    array of its left-regular representation, so _cayley_table proves it a
    group that the generators generate, associativity included."""

    # one-line images of the elements, row g for element g, as a read-only
    # int32 array for a group built from permutations; None otherwise
    perms: np.ndarray | None = None

    def __init__(self, mul: np.ndarray, name: str,
                 element_labels: Sequence[str] | None,
                 generators: Sequence[int]):
        table = np.asarray(mul, dtype=np.int32)
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise GroupSpecError("multiplication table must be square")
        # the walk fills the table of the rows x -> g x: this one if g e = g
        if not np.array_equal(table[:, 0], np.arange(len(table))):
            raise GroupSpecError("index 0 is not a two-sided identity")
        gens = [int(s) for s in generators]
        if not gens or not all(0 <= s < len(table) for s in gens):
            raise GroupSpecError("generators must be element indices")
        self._build(table, name, element_labels, table[gens])

    def _build(self, images: np.ndarray, name: str,
               element_labels: Sequence[str] | None, generators: np.ndarray):
        """Build from the one-line images of the elements and of the generators."""
        self.order = len(images)
        self.identity = 0
        self.name = name
        if element_labels is not None and len(element_labels) != self.order:
            raise GroupSpecError("element_labels length != order")
        self._labels = tuple(element_labels) if element_labels else None
        self.mul, self.inv, self.generators = _cayley_table(images, generators)

    @property
    def element_labels(self) -> tuple:
        """One label per element: the given labels, else the cycle notation
        of a group built from permutations, else the index."""
        if self._labels is None:
            self._labels = tuple(cycle_label(p) for p in self.perms.tolist()) \
                if self.perms is not None else tuple(str(i) for i in range(self.order))
        return self._labels

    def label(self, g: int) -> str:
        if self._labels is None and self.perms is not None:
            return cycle_label(self.perms[g].tolist())
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
        # each coset gK is named by its least element, in increasing order; the
        # products gk in blocks of about 2^18 (2^20 put S7/S6's peak 2.6 MB up)
        step = max(1, (1 << 18) // self.k_size)
        least = [mul[i:i + step].take(self.k_members, axis=1).min(axis=1)
                 for i in range(0, group.order, step)]
        t_arr, coset_of = np.unique(np.concatenate(least), return_inverse=True)
        self.transversal = tuple(t_arr.tolist())
        self.coset_of = coset_of.astype(np.int32)
        self.coset_of.setflags(write=False)
        self.num_cosets = len(t_arr)
        self.action = self.coset_of[mul.take(t_arr, axis=1)]
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


def _table_from_perms(perms, generators, name: str) -> FiniteGroup:
    """The group of the permutation rows perms, perms[0] the identity, that
    the generators generate; labels are the cycle notation, written on first use."""
    group = object.__new__(FiniteGroup)
    group.perms = np.asarray(perms, dtype=np.int32)
    group.perms.setflags(write=False)
    group._build(group.perms, name, None, np.asarray(generators, dtype=np.int32))
    return group


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise GroupSpecError("cyclic order must be >= 1")
    # row k, (k + x) mod n, is a window of the residues written twice
    twice = np.tile(np.arange(n, dtype=np.int32), 2)
    mul = np.lib.stride_tricks.sliding_window_view(twice, n)[:n]
    return FiniteGroup(mul, f"Z{n}", [str(i) for i in range(n)], [1 % n])


def dihedral_group(n: int) -> FiniteGroup:
    """Symmetries of the regular n-gon, order 2n, as permutations of
    the n vertices.  Requires n >= 3 for the representation to be faithful."""
    if n < 3:
        raise GroupSpecError("dihedral parameter must be >= 3")
    # the rotations i -> i + k, then the reflections i -> k - i
    k, i = np.arange(n, dtype=np.int32)[:, None], np.arange(n, dtype=np.int32)
    perms = np.concatenate([(i + k) % n, (k - i) % n])
    return _table_from_perms(perms, perms[[1, n]], f"D{n}")


def symmetric_group(n: int, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    import itertools
    if n < 1:
        raise GroupSpecError("symmetric parameter must be >= 1")
    # refuse as soon as a partial product k! passes the cap, so a huge n
    # never computes (or prints) its factorial
    order = 1
    for k in range(2, n + 1):
        order *= k
        if order > order_cap:
            shown = order if k == n else f"{n}!"
            raise GroupSpecError(f"order {shown} exceeds cap {order_cap}")
    perms = np.asarray(list(itertools.permutations(range(n))), dtype=np.int32)
    # the transposition (1 2), which is e for n = 1, and the n-cycle
    swap = tuple(range(min(n, 2)))[::-1] + tuple(range(2, n))
    cycle = tuple(range(1, n)) + (0,)
    return _table_from_perms(perms, [swap, cycle], f"S{n}")


def group_from_permutations(generators: Sequence[Sequence[int]],
                            order_cap: int = DEFAULT_ORDER_CAP,
                            name: str = "perm") -> FiniteGroup:
    """Closure of the given 0-based one-line permutations under composition."""
    gens = [tuple(int(x) for x in g) for g in generators]
    for g in gens:
        if sorted(g) != list(range(len(g))):
            raise GroupSpecError(f"not a permutation of 0..{len(g) - 1}: {list(g)}")
    if not gens:
        raise GroupSpecError("at least one generator required")
    npts = len(gens[0])
    if any(len(g) != npts for g in gens):
        raise GroupSpecError("generators must permute a common domain")
    elements = [tuple(range(npts))]
    seen = set(elements)
    for p in elements:
        for g in gens:
            q = tuple(p[j] for j in g)                     # p o g
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
    else:
        for p in sub:
            row = _integers(p, "subgroup generator")
            same = len(row) == group.perms.shape[1] and (group.perms == row).all(axis=1)
            if not np.any(same):
                raise GroupSpecError(f"subgroup generator {p} not in group")
            k_gens.append(int(np.argmax(same)))
    return group, k_gens
