"""Element-by-element references that the tests hold the package to: each
computes from the definition, on group elements or one measure at a time,
what the package computes on cosets, classes or batches of subsets; and
the radial root search one bisection step per profile call."""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from pompeiu import euclidean
from pompeiu.finite_pompeiu import CONV_ZERO_TOL, PHI_ZERO_TOL, _instance
from pompeiu.groups import CosetSpace
from pompeiu.hecke import (BiinvariantMeasure, SphericalFunction,
                           _algebra_arrays, hecke_structure, phi_hom,
                           spherical_functions)


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
    when Phi_f(mu) is a Fraction, else to within PHI_ZERO_TOL times one
    plus the one-norm of mu."""
    if funcs is None:
        funcs = spherical_functions(mu.space)
    sizes = mu.space.double_cosets.class_sizes
    tol = PHI_ZERO_TOL * (1.0 + sum(abs(complex(c)) * s for c, s in zip(mu.coeffs, sizes)))
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
    tables of an exact space, else to within CONV_ZERO_TOL times one plus
    the number of lifted elements."""
    table = hecke_structure(space).class_values[:, space.double_cosets.class_of]
    lifted = sorted(lift_set(space, subset))
    conv = table[:, space.group.mul[:, lifted]].sum(axis=2)
    if conv.dtype.kind == "i":
        zeros = conv == 0
    else:
        zeros = np.abs(conv) < CONV_ZERO_TOL * (1 + len(lifted))
    return frozenset(np.flatnonzero(zeros.all(axis=1)).tolist())

def bisect_brackets(shape, a: np.ndarray, b: np.ndarray,
                    fa: np.ndarray) -> np.ndarray:
    """The brackets [a, b] of the real profile bisected together, fa the
    profile at a, one `radial_profile` call per step on the midpoints of
    the brackets still open.  Each bracket halves while b - a > BISECT_TOL,
    ends at a midpoint where the profile is exactly 0, and otherwise ends
    at its final midpoint."""
    a, b, fa = a.astype(float), b.astype(float), fa.astype(float)
    roots = 0.5 * (a + b)
    live = np.nonzero(b - a > euclidean.BISECT_TOL)[0]
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
        live = live[b[live] - a[live] > euclidean.BISECT_TOL]
    return roots
