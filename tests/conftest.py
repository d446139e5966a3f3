import numpy as np
import pytest

from pompeiu.groups import build_coset_space, build_group, group_from_permutations


class NoTable:
    """Stands in for a multiplication table that must not be read."""

    def __getitem__(self, key):
        raise AssertionError("group.mul was read")


def cyclic_space(n):
    return build_coset_space(build_group({"family": "cyclic", "n": n}), [])


def symmetric_space(n, fixed_point=None):
    """S_n with K = {e} or the stabilizer of a point."""
    g = build_group({"family": "symmetric", "n": n})
    if fixed_point is None:
        return build_coset_space(g, [])
    gens = [i for i, p in enumerate(g.perms)
            if p[fixed_point] == fixed_point]
    return build_coset_space(g, gens)


def dihedral_space(n):
    """D_n (order 2n) with K generated by one reflection."""
    g = build_group({"family": "dihedral", "n": n})
    reflection = (-np.arange(n)) % n
    idx = int(np.flatnonzero((g.perms == reflection).all(axis=1))[0])
    return build_coset_space(g, [idx])


def untagged_cyclic_space(n):
    """Z_n over K = {e}, built from the permutation x -> x + 1: no rotation
    tag, so its spherical functions come from the eigensolve."""
    return build_coset_space(group_from_permutations([[(i + 1) % n for i in range(n)]]), [])


def untagged_dihedral_space(n):
    """D_n over the reflection i -> -i, built from permutations: untagged."""
    reflection = [(-i) % n for i in range(n)]
    g = group_from_permutations([[(i + 1) % n for i in range(n)], reflection])
    return build_coset_space(g, [int(np.flatnonzero((g.perms == reflection).all(axis=1))[0])])


def acceptance_suite():
    """The desk-scale suite: (Z_n, e) for n=2..12, (S_3, S_2), (S_4, S_3),
    (D_n, reflection) for n=3..6."""
    spaces = [cyclic_space(n) for n in range(2, 13)]
    spaces.append(symmetric_space(3, fixed_point=2))
    spaces.append(symmetric_space(4, fixed_point=3))
    spaces.extend(dihedral_space(n) for n in range(3, 7))
    return spaces


def _set_stabilizer(group, points):
    """Indices of the permutations that map the set points onto itself."""
    return [i for i, p in enumerate(group.perms) if {p[x] for x in points} == set(points)]


def orbital_test_spaces():
    """The acceptance suite, D24 with a reflection, Z24, and S_n over the
    stabilizer of a point (n = 5, 6, 7) or of a 2-set (n = 5, 7), one at a
    time, so that at most one S7 table is alive."""
    yield from acceptance_suite()
    yield dihedral_space(24)
    yield cyclic_space(24)
    for n, sets in ((5, ([4], [3, 4])), (6, ([5],)), (7, ([6], [5, 6]))):
        g = build_group({"family": "symmetric", "n": n})
        for points in sets:
            yield build_coset_space(g, _set_stabilizer(g, points))


@pytest.fixture(scope="session")
def z8_space():
    return cyclic_space(8)


@pytest.fixture(scope="session")
def s3_space():
    return symmetric_space(3, fixed_point=2)


@pytest.fixture(scope="session")
def s4_space():
    return symmetric_space(4, fixed_point=3)


@pytest.fixture(scope="session")
def d6_space():
    return dihedral_space(6)
