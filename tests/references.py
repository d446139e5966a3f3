"""Element-by-element references that the tests hold the package to: each
computes from the definition, on group elements or one measure at a time,
what the package computes on cosets, classes or batches of subsets."""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from pompeiu.finite_pompeiu import (PHI_ZERO_TOL, _bits, _common_zeros,
                                    _generator_rows, _instance)
from pompeiu.groups import CosetSpace
from pompeiu.hecke import (BiinvariantMeasure, SphericalFunction,
                           _algebra_arrays, phi_hom, spherical_functions)


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
    """One biinvariant measure per transversal element g: the reversed
    lifted indicator of E convolved with the indicator of the coset gK."""
    inst = _instance(space_or_instance, subset)
    rows = _generator_rows(inst.space, _bits(inst))[0]
    return [BiinvariantMeasure(inst.space, tuple(Fraction(int(v)) for v in row))
            for row in rows]


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
    homomorphisms are multiplicative, so the generators suffice)."""
    inst = _instance(space_or_instance, subset)
    zeros = _common_zeros(inst.space, _generator_rows(inst.space, _bits(inst)))[0]
    return frozenset(np.flatnonzero(zeros).tolist())
