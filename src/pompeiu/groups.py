"""Finite groups as dense multiplication tables, with coset spaces and
double cosets.

Elements are integers ``0..order-1`` with the identity at index 0.  The
construction order is deterministic (residue order for cyclic groups,
lexicographic one-line order for symmetric groups, breadth-first discovery
for generated permutation groups), so element and coset indices are stable
across runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

DEFAULT_ORDER_CAP = 5040
# Largest d^3 array (d the number of double-coset classes) and largest
# elimination (group order x cosets^2 entry updates) that the finite
# deciders will start.  With K = {e} both are n^3 for Z_n: Z_215 decides,
# Z_216 is refused, long before the 5040-element order cap.  Z_200 peaks
# at about 0.5 GB.
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


def check_work_budget(size: int, what: str) -> None:
    """Raise GroupSpecError when size, the entries of an array or the steps
    of an elimination about to be started, exceeds WORK_BUDGET."""
    if size > WORK_BUDGET:
        raise GroupSpecError(f"{what} has size {size}, over the work budget "
                             f"of {WORK_BUDGET}")


# ---------------------------------------------------------------------------
# permutation helpers (0-based one-line images)

def _compose(p: tuple, q: tuple) -> tuple:
    # (p q)(i) = p(q(i))
    return tuple(p[j] for j in q)


def _perm_inverse(p: tuple) -> tuple:
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


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
    """Multiplication-table group; immutable after construction."""

    # one-line images of the elements, in element order, for a group built
    # from permutations; None otherwise
    perms: tuple | None = None

    def __init__(self, mul: np.ndarray, name: str = "G",
                 element_labels: Sequence[str] | None = None):
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
        self.inv = self._build_inverse_table()
        self.inv.setflags(write=False)
        self._validate()

    def _build_inverse_table(self) -> np.ndarray:
        inv = np.full(self.order, -1, dtype=np.int32)
        rows, cols = np.nonzero(self.mul == self.identity)
        inv[rows] = cols
        if np.any(inv < 0):
            raise GroupSpecError("some element has no right inverse")
        return inv

    def _validate(self) -> None:
        n = self.order
        mul = self.mul
        if mul.min() < 0 or mul.max() >= n:
            raise GroupSpecError("multiplication table entries out of range")
        e = self.identity
        if not (np.array_equal(mul[e], np.arange(n)) and np.array_equal(mul[:, e], np.arange(n))):
            raise GroupSpecError("index 0 is not a two-sided identity")
        if not np.all(mul[np.arange(n), self.inv] == e):
            raise GroupSpecError("inverse table inconsistent")
        if n <= 256:
            # (ab)c == a(bc), checked exhaustively one a at a time
            for a in range(n):
                if not np.array_equal(mul[mul[a], :], mul[a][mul]):
                    raise GroupSpecError("multiplication table is not associative")
        else:
            rng = np.random.default_rng(0)
            a, b, c = rng.integers(0, n, size=(3, 10_000))
            if not np.array_equal(mul[mul[a, b], c], mul[a, mul[b, c]]):
                raise GroupSpecError("multiplication table is not associative")

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

    def inverse_class(self, group: FiniteGroup) -> tuple:
        """class index of {x^-1 : x in class i}, one per class."""
        return tuple(int(self.class_of[group.inv[r]]) for r in self.representatives)


class CosetSpace:
    """A group together with a subgroup K, the left cosets gK and the
    natural left action of the group on them."""

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
        self._double_cosets: DoubleCosetPartition | None = None
        self._cache: dict = {}

    def subgroup_label(self) -> str:
        gens = [g for g in self.k_members if g != self.group.identity]
        if not gens:
            return "<e>"
        return "<" + ",".join(self.group.label(g) for g in gens) + ">"

    @property
    def double_cosets(self) -> DoubleCosetPartition:
        if self._double_cosets is None:
            self._double_cosets = self._compute_double_cosets()
        return self._double_cosets

    def cached(self, key: str, build):
        """Per-space data, built by build(self) on first use and kept on the
        space, so that it is released together with the space."""
        value = self._cache.get(key)
        if value is None:
            value = self._cache[key] = build(self)
        return value

    def _compute_double_cosets(self) -> DoubleCosetPartition:
        mul = self.group.mul
        n = self.group.order
        k_arr = np.asarray(self.k_members, dtype=np.int32)
        class_of = np.full(n, -1, dtype=np.int32)
        reps, sizes = [], []
        for x in range(n):
            if class_of[x] >= 0:
                continue
            orbit = np.unique(mul[np.ix_(k_arr, mul[x, k_arr])])
            class_of[orbit] = len(reps)
            reps.append(x)
            sizes.append(int(orbit.size))
        return DoubleCosetPartition(class_of, tuple(reps), tuple(sizes))

    def __repr__(self) -> str:
        return f"CosetSpace({self.name}, cosets={self.num_cosets})"


# ---------------------------------------------------------------------------
# constructors


def _table_from_perms(perms: list[tuple], name: str) -> FiniteGroup:
    """The table of a group of permutations, with the cycle notation of each
    element as its label (written out on first use).

    An element is known by its images of a base, the shortest run of
    leading points whose images tell all elements apart (2 points for a
    dihedral group, n - 1 for S_n), keyed as digits base npts.  A key that
    wraps int64 is only a hash, but one that is injective on the group
    (checked) is all the lookup needs, since every product is an element."""
    n = len(perms)
    npts = len(perms[0])
    arr = np.asarray(perms, dtype=np.int64)
    weights = (npts ** np.arange(npts)).astype(np.int64)
    keys = np.zeros(n, dtype=np.int64)
    for m in range(1, npts + 1):
        keys += arr[:, m - 1] * weights[m - 1]
        if np.unique(keys).size == n:
            break
    else:
        raise GroupSpecError("repeated permutations in a group table")
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    base = np.ascontiguousarray(arr[:, :m])
    mul = np.empty((n, n), dtype=np.int32)
    for a in range(n):
        prod_keys = arr[a][base] @ weights[:m]   # row a composed with every b
        mul[a] = order[np.searchsorted(sorted_keys, prod_keys)]
    group = FiniteGroup(mul, name=name)
    group.perms = tuple(perms)
    return group


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise GroupSpecError("cyclic order must be >= 1")
    idx = np.arange(n, dtype=np.int32)
    mul = (idx[:, None] + idx[None, :]) % n
    return FiniteGroup(mul, name=f"Z{n}", element_labels=[str(i) for i in range(n)])


def dihedral_group(n: int) -> FiniteGroup:
    """Symmetries of the regular n-gon, order 2n, as permutations of
    the n vertices.  Requires n >= 3 for the representation to be faithful."""
    if n < 3:
        raise GroupSpecError("dihedral parameter must be >= 3")
    rot = tuple((i + 1) % n for i in range(n))
    ref = tuple((-i) % n for i in range(n))
    perms = []
    r = tuple(range(n))
    for _ in range(n):
        perms.append(r)
        r = _compose(rot, r)
    r = ref
    for _ in range(n):
        perms.append(r)
        r = _compose(rot, r)
    return _table_from_perms(perms, name=f"D{n}")


def symmetric_group(n: int, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    import itertools
    import math
    if n < 1:
        raise GroupSpecError("symmetric parameter must be >= 1")
    if math.factorial(n) > order_cap:
        raise GroupSpecError(f"order {math.factorial(n)} exceeds cap {order_cap}")
    perms = list(itertools.permutations(range(n)))
    return _table_from_perms(perms, name=f"S{n}")


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
    identity = tuple(range(npts))
    seen = {identity: 0}
    elements = [identity]
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = _compose(p, g)
                if q not in seen:
                    if len(elements) >= order_cap:
                        raise GroupSpecError(f"generated order exceeds cap {order_cap}")
                    seen[q] = len(elements)
                    elements.append(q)
                    nxt.append(q)
        frontier = nxt
    return _table_from_perms(elements, name=name)


def build_group(spec: dict, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Build from a spec dict: {"family": ..., "n": ..., "generators": ...}."""
    family = spec.get("family")
    if family in ("cyclic", "dihedral"):
        n = int(spec["n"])
        order = n if family == "cyclic" else 2 * n
        if order > order_cap:
            raise GroupSpecError(f"order {order} exceeds cap {order_cap}")
        return cyclic_group(n) if family == "cyclic" else dihedral_group(n)
    if family == "symmetric":
        return symmetric_group(int(spec["n"]), order_cap=order_cap)
    if family == "permutations":
        return group_from_permutations(spec["generators"], order_cap=order_cap)
    raise GroupSpecError(f"unknown group family: {family!r}")


def subgroup_closure(group: FiniteGroup, generators: Iterable[int]) -> list[int]:
    """Sorted element indices of the subgroup generated by the given elements."""
    mul = group.mul
    members = {group.identity}
    frontier = [group.identity]
    gens = sorted({int(g) for g in generators} | {group.identity})
    for g in gens:
        if not 0 <= g < group.order:
            raise GroupSpecError(f"generator index {g} out of range")
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = int(mul[x, g])
                if y not in members:
                    members.add(y)
                    nxt.append(y)
        frontier = nxt
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
    return frozenset(g for g in range(space.group.order)
                     if int(space.coset_of[g]) in wanted)


def check_function_invariance(space: CosetSpace, f: Sequence, side: str) -> bool:
    """Exact invariance of a value table on the group under K.

    side 'right' tests f(xk) = f(x), 'left' tests f(kx) = f(x), 'bi' both.
    """
    if len(f) != space.group.order:
        raise ValueError("value table length != group order")
    mul = space.group.mul
    if side not in ("left", "right", "bi"):
        raise ValueError(f"side must be left|right|bi, got {side!r}")
    for x in range(space.group.order):
        for k in space.k_members:
            if side in ("right", "bi") and f[mul[x, k]] != f[x]:
                return False
            if side in ("left", "bi") and f[mul[k, x]] != f[x]:
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
    if isinstance(source, (str, Path)):
        with open(source) as fh:
            spec = json.load(fh)
    else:
        spec = dict(source)
    group = build_group(spec)
    sub = spec.get("subgroup_generators", [])
    k_gens: list[int] = []
    if spec.get("family") == "cyclic":
        for r in sub:
            k_gens.append(int(r) % group.order)
    elif sub:
        if group.perms is None:
            raise GroupSpecError("subgroup generators by permutation require a "
                                 "permutation-constructed group")
        lookup = {p: i for i, p in enumerate(group.perms)}
        for p in sub:
            t = tuple(int(x) for x in p)
            if t not in lookup:
                raise GroupSpecError(f"subgroup generator {p} not in group")
            k_gens.append(lookup[t])
    return group, k_gens
