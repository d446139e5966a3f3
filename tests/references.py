"""Element-by-element references that the tests hold the package to: each
computes from the definition, on group elements or one measure at a time,
what the package computes on cosets, classes or batches of subsets; the
quadrature rule of one simplex at a time; the radial profile one ball at a
time; and the radial root search one bisection step per profile call.
`random_coset_spaces` is the seeded corpus of random spaces that the
deciders are held to."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from pompeiu import euclidean
from pompeiu import finite_pompeiu as fp
from pompeiu.bessel import ball3_profile, j1_over_z
from pompeiu.finite_pompeiu import ZERO_TOL, _instance
from pompeiu.groups import (CosetSpace, GroupSpecError, build_group,
                            group_from_permutations)
from pompeiu.hecke import (BiinvariantMeasure, SphericalFunction,
                           _algebra_arrays, hecke_structure, phi_hom,
                           spherical_functions)
from pompeiu.shapes import Ball, DisjointUnion


# The corpus of random coset spaces: its seed and sizes are fixed.
CORPUS_SEED = 2026
CORPUS_PERMUTATION_SPACES, CORPUS_FAMILY_SPACES = 200, 100
CORPUS_ORDER_CAP, CORPUS_COSET_CAP, CORPUS_SUBSETS = 720, 40, 3


def random_coset_spaces():
    """The seeded corpus: CORPUS_PERMUTATION_SPACES groups generated by 1-3
    random permutations of 3-8 points, then CORPUS_FAMILY_SPACES random
    members of the cyclic, dihedral and symmetric families, each over the
    subgroup K that 0-2 random elements generate.  A draw of more than
    CORPUS_ORDER_CAP elements or CORPUS_COSET_CAP cosets is drawn again.
    Yields (space, subsets): CORPUS_SUBSETS nonempty subsets of the cosets,
    each coset in with probability 1/2, the last a union of K-orbits."""
    rng = np.random.default_rng(CORPUS_SEED)
    made = 0
    while made < CORPUS_PERMUTATION_SPACES + CORPUS_FAMILY_SPACES:
        if made < CORPUS_PERMUTATION_SPACES:
            points = int(rng.integers(3, 9))
            gens = [rng.permutation(points).tolist() for _ in range(rng.integers(1, 4))]
            try:
                group = group_from_permutations(gens, order_cap=CORPUS_ORDER_CAP)
            except GroupSpecError:
                continue
        else:
            family, lo, hi = [("cyclic", 1, 61), ("dihedral", 3, 31), ("symmetric", 1, 7)][
                rng.integers(3)]
            group = build_group({"family": family, "n": int(rng.integers(lo, hi))})
        space = CosetSpace(group, rng.integers(group.order, size=rng.integers(0, 3)).tolist())
        if space.num_cosets > CORPUS_COSET_CAP:
            continue
        made += 1
        n, classes = space.num_cosets, space.double_cosets.class_of[list(space.transversal)]
        subsets = []
        while len(subsets) < CORPUS_SUBSETS:
            last = len(subsets) == CORPUS_SUBSETS - 1
            picked = rng.random(classes.max() + 1 if last else n) < 0.5
            subset = np.flatnonzero(picked[classes] if last else picked)
            if subset.size:
                subsets.append(frozenset(subset.tolist()))
        yield space, subsets


def rebuilt(space: CosetSpace) -> CosetSpace:
    """The space built again from the permutations of its group's
    generators (its elements' one-line images, or the rows of the table of
    a group with none), in reverse order, or from the inverse of a lone
    generator: another numbering of the elements, and no family tag.  K's
    generators are carried over as permutations."""
    group = space.group
    images = group.perms if group.perms is not None else group.mul
    gens = [images[g] for g in group.generators][::-1]
    if len(gens) == 1:
        gens = [np.argsort(gens[0])]
    again = group_from_permutations(gens, order_cap=group.order)
    index = {row.tobytes(): i for i, row in enumerate(np.asarray(again.perms, dtype=np.int32))}
    return CosetSpace(again, [index[np.asarray(images[k], dtype=np.int32).tobytes()]
                              for k in space.k_generators])


def class_convolution(space: CosetSpace, a: int, b: int) -> np.ndarray:
    """The convolution of the indicators of the double cosets KaK and KbK
    on G, counted on the group table: at x, the number of y in KaK with
    y^{-1} x in KbK.  The structure constants of the algebra are its values
    on the double cosets, so the indicators commute iff it is symmetric in
    a and b."""
    group, class_of = space.group, space.double_cosets.class_of
    ys = np.flatnonzero(class_of == class_of[a])
    return (class_of[group.mul[group.inv[ys]]] == class_of[b]).sum(axis=0)


def zero_test_ratios(inst) -> tuple[np.ndarray, np.ndarray]:
    """Every entry that the spectral and the convolution decider test for 0
    on a float space, at the scale of its tolerance: |value| / (1 + mass
    |E|) for row r of each decider's per-coset table summed over the cosets
    of t_r^{-1}E, the rows of mass |K|^2 and |K|, as (spectral, convolution)
    arrays."""
    space, cache = inst.space, fp._cache(inst.space)
    inside = np.isin(space.action[list(space.transversal)], sorted(inst.subset)).astype(float)
    return tuple(np.abs((inside @ table).view(complex)) / (1.0 + mass * len(inst.subset))
                 for table, mass in ((cache.phi, space.k_size ** 2),
                                     (cache.conv, space.k_size)))


def table_identity_faults(space: CosetSpace) -> list[str]:
    """The identities behind the one zero test of the spherical deciders,
    on every coset of a Gelfand pair: each ideal generator row has mass
    generators @ class_sizes = |K|^2, and the spectral table is |K| times
    the convolution table, exactly on integer tables (phi L = |K| conv, L
    the lcm of the class sizes, by which the integer class values are
    scaled) and to 1e-12 of the largest entry on float ones.  The faults
    found, named by the space."""
    cache, k, sizes = fp._cache(space), space.k_size, space.double_cosets.class_sizes
    faults = []
    if not (cache.generators @ np.asarray(sizes) == k * k).all():
        faults.append(f"{space.name}: an ideal generator row's mass is not |K|^2")
    if cache.phi.dtype.kind == "i":
        same = np.array_equal(cache.phi * math.lcm(*sizes), k * cache.conv)
    else:
        same = np.abs(cache.phi - k * cache.conv).max() <= 1e-12 * np.abs(cache.phi).max()
    if not same:
        faults.append(f"{space.name}: the spectral table is not |K| times the convolution table")
    return faults


def lift_set(space: CosetSpace, cosets: Iterable[int]) -> frozenset:
    """All group elements whose coset lies in the given coset-index set."""
    wanted = set(int(c) for c in cosets)
    for c in wanted:
        if not 0 <= c < space.num_cosets:
            raise ValueError(f"coset index {c} out of range")
    return frozenset(np.flatnonzero(np.isin(space.coset_of, list(wanted))).tolist())


def subgroup_closure(group, generators: Iterable[int]) -> list[int]:
    """Sorted element indices of the subgroup generated by the given
    elements: a breadth-first walk of products on the table."""
    members, seen = [group.identity], {group.identity}
    for x in members:
        for g in generators:
            y = int(group.mul[x, g])
            if y not in seen:
                seen.add(y)
                members.append(y)
    return sorted(members)


def least_in_coset(group, k_members: Sequence[int]) -> np.ndarray:
    """Per element x, the least element of its coset xK: min over k of xk."""
    return group.mul[:, list(k_members)].min(axis=1)


def least_in_double_coset(group, k_members: Sequence[int]) -> np.ndarray:
    """Per element x, the least element of KxK: the least over k in K of
    the least element of the coset kxK."""
    return least_in_coset(group, k_members)[group.mul[list(k_members)]].min(axis=0)


def simplex_nodes(simplex: np.ndarray, order: int):
    """Tensor Gauss nodes on one triangle or tetrahedron through the
    collapsed map, each dimension written out, weighted by its own |det|."""
    t, w = np.polynomial.legendre.leggauss(order)
    u = (t + 1.0) / 2.0
    wu = w / 2.0
    v = simplex
    if len(v) == 3:
        A, B = np.meshgrid(u, u, indexing="ij")
        WA, WB = np.meshgrid(wu, wu, indexing="ij")
        pts = (v[0][None, :]
               + A.ravel()[:, None] * (v[1] - v[0])[None, :]
               + (A * B).ravel()[:, None] * (v[2] - v[1])[None, :])
        area2 = abs(np.linalg.det(np.stack([v[1] - v[0], v[2] - v[0]])))
        return pts, (WA * WB * A).ravel() * area2
    A, B, C = np.meshgrid(u, u, u, indexing="ij")
    WA, WB, WC = np.meshgrid(wu, wu, wu, indexing="ij")
    pts = (v[0][None, :]
           + A.ravel()[:, None] * (v[1] - v[0])[None, :]
           + (A * B).ravel()[:, None] * (v[2] - v[1])[None, :]
           + (A * B * C).ravel()[:, None] * (v[3] - v[2])[None, :])
    vol6 = abs(np.linalg.det(np.stack([v[1] - v[0], v[2] - v[0], v[3] - v[0]])))
    return pts, (WA * WB * WC * A * A * B).ravel() * vol6


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


def project_biinvariant(space: CosetSpace, f: Sequence) -> list:
    """Average f over K on both sides: x -> avg_{l,k} f(l x k).

    Exact (Fractions) when the input values are ints/Fractions, complex
    otherwise."""
    mul = space.group.mul
    k = np.asarray(space.k_members)
    table, = _algebra_arrays(f)
    right = table[mul[:, k]].sum(axis=1) / space.k_size
    return list(right[mul[k, :]].sum(axis=0) / space.k_size)


def ideal_generators(space_or_instance, subset=None) -> list[BiinvariantMeasure]:
    """One biinvariant measure per transversal element t: the reversed
    lifted indicator of E convolved with the indicator of the coset tK,
    whose coefficient at the class of x is #{k in K : t k x^{-1} in E~},
    counted on the group table."""
    inst = _instance(space_or_instance, subset)
    space = inst.space
    mul, inv = space.group.mul, space.group.inv
    lifted = lift_set(space, inst.subset)
    return [BiinvariantMeasure(space, tuple(
                Fraction(sum(int(mul[mul[t, k], inv[x]]) in lifted for k in space.k_members))
                for x in space.double_cosets.representatives))
            for t in space.transversal]


def zero_set(mu: BiinvariantMeasure,
             funcs: Sequence[SphericalFunction] | None = None) -> frozenset:
    """Indices of spherical functions whose homomorphism kills mu: exactly,
    when Phi_f(mu) is a Fraction, else to within ZERO_TOL times one
    plus the one-norm of mu."""
    if funcs is None:
        funcs = spherical_functions(mu.space)
    sizes = mu.space.double_cosets.class_sizes
    tol = ZERO_TOL * (1.0 + sum(abs(complex(c)) * s for c, s in zip(mu.coeffs, sizes)))
    phi = [phi_hom(f, mu) for f in funcs]
    return frozenset(i for i, v in enumerate(phi)
                     if (v == 0 if isinstance(v, Fraction) else abs(v) < tol))


def zero_set_ideal(space_or_instance, subset=None) -> frozenset:
    """Common zero set of the ideal generators (they generate, and the
    homomorphisms are multiplicative, so the generators suffice): the
    intersection of their zero sets."""
    return frozenset.intersection(*(zero_set(mu) for mu in
                                    ideal_generators(space_or_instance, subset)))


def convolution_zero_set(space: CosetSpace, subset) -> frozenset:
    """Indices of the spherical functions f that convolve the reversed
    lifted indicator of E to zero: x -> sum_{z in lifted E} f(xz) vanishes
    at every x in G, counted on the group table; exactly on the integer
    tables of an exact space, else to within ZERO_TOL times one plus
    the number of lifted elements."""
    table = hecke_structure(space).class_values[:, space.double_cosets.class_of]
    lifted = sorted(lift_set(space, subset))
    conv = table[:, space.group.mul[:, lifted]].sum(axis=2)
    if conv.dtype.kind == "i":
        zeros = conv == 0
    else:
        zeros = np.abs(conv) < ZERO_TOL * (1 + len(lifted))
    return frozenset(np.flatnonzero(zeros.all(axis=1)).tolist())


def radial_profile(shape, lam):
    """The transform of a radial shape at frequency magnitudes lam, each
    ball's closed form on its own: 2 pi r^2 J1(x)/x in the plane and 4 pi
    r^3 (sin x - x cos x)/x^3 in 3-space at x = lam r.  A ball is its term,
    an annulus its outer ball's term less its inner ball's, and a union the
    sum of its members' from 0, in order."""
    w = np.asarray(lam, dtype=complex)

    def ball(r):
        if shape.dim == 2:
            return 2.0 * math.pi * r * r * j1_over_z(w * r)
        return 4.0 * math.pi * r ** 3 * ball3_profile(w * r)

    def member(m):
        return ball(m.radius) if isinstance(m, Ball) else ball(m.outer) - ball(m.inner)
    return sum(map(member, shape.members)) if isinstance(shape, DisjointUnion) else member(shape)


def bisect_brackets(shape, a: np.ndarray, b: np.ndarray,
                    fa: np.ndarray) -> np.ndarray:
    """The brackets [a, b] of the real profile bisected together, fa the
    profile at a, one `radial_profile` call per step on the midpoints of
    the brackets still open.  Each bracket halves while b - a > BISECT_TOL
    and its midpoint lies strictly between a and b, ends at a midpoint
    where the profile is exactly 0, and otherwise ends at its final
    midpoint."""
    a, b, fa = a.astype(float), b.astype(float), fa.astype(float)
    roots = 0.5 * (a + b)

    def open_(i):
        return (b[i] - a[i] > euclidean.BISECT_TOL) & (a[i] < roots[i]) & (roots[i] < b[i])
    live = np.nonzero(open_(slice(None)))[0]
    while live.size:
        m = 0.5 * (a[live] + b[live])
        fm = euclidean.radial_profile(shape, m).real
        exact = fm == 0.0
        roots[live[exact]] = m[exact]
        left = fa[live] * fm < 0
        b[live[left]] = m[left]
        right = ~left & ~exact
        a[live[right]] = m[right]
        fa[live[right]] = fm[right]
        live = live[~exact]
        roots[live] = 0.5 * (a[live] + b[live])
        live = live[open_(live)]
    return roots
