import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pompeiu import groups
from pompeiu.groups import (FiniteGroup, GroupSpecError, build_coset_space,
                            build_group, cycle_label, load_group_spec,
                            subgroup_closure)

from conftest import (acceptance_suite, cyclic_space, dihedral_space,
                      orbital_test_spaces, symmetric_space)
from references import check_function_invariance, lift_set


def test_cyclic_8_table():
    g = build_group({"family": "cyclic", "n": 8})
    assert g.order == 8
    assert g.mul[3, 7] == 2
    assert g.element_labels[5] == "5"


def test_dihedral_6_order():
    assert build_group({"family": "dihedral", "n": 6}).order == 12


def test_symmetric_3_from_generators():
    g = build_group({"family": "permutations",
                     "generators": [[1, 0, 2], [1, 2, 0]]})
    # independent closure count: multiply tuples until stable
    elems = {(0, 1, 2)}
    gens = [(1, 0, 2), (1, 2, 0)]
    while True:
        new = {tuple(p[q[i]] for i in range(3)) for p in elems for q in gens}
        if new <= elems:
            break
        elems |= new
    assert g.order == len(elems) == 6


def test_generated_order_cap():
    with pytest.raises(GroupSpecError, match="cap"):
        build_group({"family": "permutations",
                     "generators": [[1, 2, 3, 4, 0]]}, order_cap=3)


@pytest.mark.parametrize("spec", [
    {"family": "cyclic", "n": 5041},
    {"family": "dihedral", "n": 2521},
])
def test_order_cap_checked_before_building(spec, monkeypatch):
    def no_table(n):
        raise AssertionError(f"built a group past the cap for n={n}")
    monkeypatch.setattr(groups, "cyclic_group", no_table)
    monkeypatch.setattr(groups, "dihedral_group", no_table)
    with pytest.raises(GroupSpecError, match="exceeds cap 5040"):
        build_group(spec)


def test_order_cap_boundary():
    assert build_group({"family": "cyclic", "n": 10}, order_cap=10).order == 10
    assert build_group({"family": "dihedral", "n": 5}, order_cap=10).order == 10
    for spec in ({"family": "cyclic", "n": 11}, {"family": "dihedral", "n": 6}):
        with pytest.raises(GroupSpecError, match="cap 10"):
            build_group(spec, order_cap=10)


def test_symmetric_order_cap_names_the_order():
    """S8 prints its order; past it the order is named n!, never computed,
    so n = 1700 (whose n! has more digits than Python prints) and n = 10^6
    are refused at once, as cap violations."""
    with pytest.raises(GroupSpecError, match="^order 40320 exceeds cap 5040$"):
        build_group({"family": "symmetric", "n": 8})
    assert build_group({"family": "symmetric", "n": 7}).order == 5040
    for n in (1700, 10 ** 6):
        with pytest.raises(GroupSpecError, match=f"^order {n}! exceeds cap 5040$"):
            build_group({"family": "symmetric", "n": n})


def test_generators_must_share_domain():
    with pytest.raises(GroupSpecError):
        build_group({"family": "permutations", "generators": [[1, 0], [1, 2, 0]]})
    with pytest.raises(GroupSpecError, match="not a permutation"):
        build_group({"family": "permutations", "generators": [[0, 0, 1]]})


@pytest.mark.parametrize("spec", [
    {"family": "cyclic", "n": 9},
    {"family": "dihedral", "n": 5},
    {"family": "symmetric", "n": 4},
])
def test_group_axioms_exhaustive(spec):
    g = build_group(spec)
    n = g.order
    mul = g.mul
    assert np.array_equal(mul[0], np.arange(n))
    assert np.array_equal(mul[:, 0], np.arange(n))
    assert np.all(mul[np.arange(n), g.inv] == 0)
    # associativity on every triple
    assert np.array_equal(mul[mul, :], mul[:, mul])


def test_identity_is_element_zero():
    for spec in ({"family": "cyclic", "n": 5},
                 {"family": "dihedral", "n": 4},
                 {"family": "symmetric", "n": 3}):
        g = build_group(spec)
        assert g.element_labels[0] in ("0", "e")


def test_cycle_labels():
    assert cycle_label((1, 0, 2)) == "(1 2)"
    assert cycle_label((1, 2, 0)) == "(1 2 3)"
    assert cycle_label((0, 1, 2)) == "e"
    assert cycle_label((1, 0, 3, 2)) == "(1 2)(3 4)"


def test_coset_space_s3():
    space = symmetric_space(3, fixed_point=2)
    assert space.num_cosets == 3
    assert len(space.transversal) == 3
    # the action is the natural one on 3 points: verify directly from
    # coset membership, independently of the stored table
    g = space.group
    for x in range(g.order):
        for c in range(3):
            expected = int(space.coset_of[g.mul[x, space.transversal[c]]])
            assert space.action[x, c] == expected


def test_coset_space_trivial_subgroup():
    space = cyclic_space(6)
    assert space.num_cosets == 6
    assert np.array_equal(space.action, space.group.mul)


def test_d6_has_six_cosets():
    assert dihedral_space(6).num_cosets == 6


def test_action_laws_exhaustive_small():
    for space in (symmetric_space(3, fixed_point=2), dihedral_space(4)):
        g = space.group
        for a in range(g.order):
            for b in range(g.order):
                ab = g.mul[a, b]
                for c in range(space.num_cosets):
                    assert space.action[ab, c] == space.action[a, space.action[b, c]]


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
def test_action_law_randomized_d8(a, b, c):
    space = dihedral_space(8)
    g = space.group
    a, b, c = a % g.order, b % g.order, c % space.num_cosets
    assert space.action[g.mul[a, b], c] == space.action[a, space.action[b, c]]


def test_action_law_randomized_s5():
    # order 120 > 64: sampled triples instead of the exhaustive check
    space = symmetric_space(5, fixed_point=4)
    g = space.group
    rng = np.random.default_rng(17)
    a = rng.integers(0, g.order, 10_000)
    b = rng.integers(0, g.order, 10_000)
    c = rng.integers(0, space.num_cosets, 10_000)
    assert np.array_equal(space.action[g.mul[a, b], c],
                          space.action[a, space.action[b, c]])


def test_double_cosets_z8_singletons(z8_space):
    dcp = z8_space.double_cosets
    assert dcp.num_classes == 8
    assert set(dcp.class_sizes) == {1}


def test_double_cosets_s3(s3_space):
    dcp = s3_space.double_cosets
    assert dcp.num_classes == 2
    assert sorted(dcp.class_sizes) == [2, 4]
    # independent orbit computation straight from the multiplication table
    g = s3_space.group
    k = s3_space.k_members
    orbits = set()
    for x in range(g.order):
        orbits.add(frozenset(int(g.mul[a, g.mul[x, b]]) for a in k for b in k))
    assert len(orbits) == 2
    for orbit in orbits:
        classes = {int(dcp.class_of[e]) for e in orbit}
        assert len(classes) == 1


def test_double_cosets_d6(d6_space):
    assert d6_space.double_cosets.num_classes == 4


def test_double_cosets_partition_group():
    """Class j is the double coset K rep_j K, element by element, with
    rep_j its least element; the class sizes add up to |G|.  The orbital
    table holds the class of t_r^-1 t_c."""
    for space in orbital_test_spaces():
        g, dcp = space.group, space.double_cosets
        k = np.asarray(space.k_members)
        assert sum(dcp.class_sizes) == g.order, space.name
        for j, rep in enumerate(dcp.representatives):
            orbit = np.unique(g.mul[np.ix_(k, g.mul[rep, k])])
            assert np.array_equal(np.flatnonzero(dcp.class_of == j), orbit), space.name
            assert (dcp.class_sizes[j], orbit[0]) == (orbit.size, rep), space.name
        t = np.asarray(space.transversal)
        assert np.array_equal(space.orbitals, dcp.class_of[g.mul[np.ix_(g.inv[t], t)]]), \
            space.name


def test_abelian_trivial_k_classes_match_cosets():
    space = cyclic_space(10)
    assert space.double_cosets.num_classes == space.num_cosets


def test_lift_set_cases(s3_space):
    assert lift_set(s3_space, set()) == frozenset()
    everything = lift_set(s3_space, range(s3_space.num_cosets))
    assert everything == frozenset(range(s3_space.group.order))
    lifted = lift_set(s3_space, {0})
    labels = {s3_space.group.element_labels[i] for i in lifted}
    assert labels == {"e", "(1 2)"}
    with pytest.raises(ValueError, match="out of range"):
        lift_set(s3_space, {99})


def test_lift_size_multiple_of_k(d6_space):
    lifted = lift_set(d6_space, {0, 2, 3})
    assert len(lifted) == 3 * d6_space.k_size


@settings(max_examples=40, deadline=None)
@given(st.sets(st.integers(0, 5), min_size=1))
def test_lift_is_right_invariant(subset):
    space = dihedral_space(6)
    lifted = lift_set(space, subset)
    table = [1 if g in lifted else 0 for g in range(space.group.order)]
    assert check_function_invariance(space, table, "right")


def test_function_invariance_cases(s3_space):
    g = s3_space.group
    constant = [3.5] * g.order
    for side in ("left", "right", "bi"):
        assert check_function_invariance(s3_space, constant, side)
    single = [0] * g.order
    single[g.element_labels.index("(1 2 3)")] = 1
    assert not check_function_invariance(s3_space, single, "bi")
    with pytest.raises(ValueError):
        check_function_invariance(s3_space, constant, "sideways")


def test_lift_and_invariance_match_loops():
    """lift_set and check_function_invariance, one gather each, against the
    loops over G and G x K that define them, on Fraction, int and float
    tables that are left-, right-, bi- or not invariant."""
    rng = random.Random(3)
    for space in acceptance_suite() + [dihedral_space(8)]:
        mul, order = space.group.mul, space.group.order
        for _ in range(4):
            subset = {c for c in range(space.num_cosets) if rng.random() < 0.5}
            lifted = lift_set(space, subset)
            assert lifted == frozenset(
                g for g in range(order) if int(space.coset_of[g]) in subset)
            right = [Fraction(int(g in lifted), 3) for g in range(order)]
            left = [right[int(space.group.inv[g])] for g in range(order)]
            noise = [rng.choice([0.5, 1.5]) for _ in range(order)]
            for table in (right, left, [int(x * 3) for x in right], noise):
                for side in ("left", "right", "bi"):
                    expected = all(
                        (side == "left" or table[mul[x, k]] == table[x])
                        and (side == "right" or table[mul[k, x]] == table[x])
                        for x in range(order) for k in space.k_members)
                    assert check_function_invariance(space, table, side) == expected


def test_subgroup_closure_s4(s4_space):
    g = s4_space.group
    assert len(subgroup_closure(g, [])) == 1
    assert len(s4_space.k_members) == 6


def test_load_group_spec_roundtrip(tmp_path):
    path = tmp_path / "g.json"
    path.write_text('{"family": "dihedral", "n": 4, '
                    '"subgroup_generators": [[0, 3, 2, 1]]}')
    group, k_gens = load_group_spec(path)
    assert group.order == 8
    space = build_coset_space(group, k_gens)
    assert space.num_cosets == 4


def test_load_group_spec_cyclic_residues():
    group, k_gens = load_group_spec(
        {"family": "cyclic", "n": 12, "subgroup_generators": [4]})
    space = build_coset_space(group, k_gens)
    assert space.k_size == 3
    assert space.num_cosets == 4


def test_spec_readers_take_tuples_and_numpy_integers():
    group, k_gens = load_group_spec({"family": "cyclic", "n": np.int64(12),
                                     "subgroup_generators": (np.int64(4),)})
    assert (group.order, k_gens) == (12, [4])
    group, k_gens = load_group_spec({"family": "permutations",
                                     "generators": ((1, 0, 2), (1, 2, 0)),
                                     "subgroup_generators": ((1, 0, 2),)})
    assert (group.order, group.perms[k_gens[0]].tolist()) == (6, [1, 0, 2])


@pytest.mark.parametrize("spec,field", [
    ({"family": "cyclic", "n": value}, "n must be an integer")
    for value in (True, 2.5, "6", None, [6])] + [
    ({"family": "dihedral", "n": 4, "subgroup_generators": None}, "subgroup_generators must be a list"),
    ({"family": "cyclic", "n": 4, "subgroup_generators": ["1"]}, "subgroup_generators entry"),
    ({"family": "permutations", "generators": [[1, 0, 2], 5]}, "generator must be a list"),
    ({"family": "permutations", "generators": [[1.0, 0, 2]]}, "generator entry"),
    ({"family": "symmetric", "n": 3, "subgroup_generators": [[1, 0, False]]},
     "subgroup generator entry"),
    ("cyclic", "group spec must be an object"),
])
def test_spec_fields_of_the_wrong_type_are_refused(spec, field):
    with pytest.raises(GroupSpecError, match=field):
        load_group_spec(spec) if isinstance(spec, dict) else build_group(spec)


def test_load_group_spec_rejects_stranger():
    with pytest.raises(GroupSpecError):
        load_group_spec({"family": "symmetric", "n": 3,
                         "subgroup_generators": [[1, 0, 3, 2]]})


@pytest.mark.parametrize("spec", [
    {"family": "dihedral", "n": 17},
    {"family": "dihedral", "n": 40},
    {"family": "symmetric", "n": 5},
    {"family": "permutations",
     "generators": [list(range(1, 18)) + [0], [(-i) % 18 for i in range(18)]]},
], ids=["D17", "D40", "S5", "perm18"])
def test_table_from_perms_matches_composition(spec):
    """Each product is looked up by its images of a base of leading points;
    on 17 or more points the keys wrap int64, and the table must still be
    the composition of the permutations."""
    g = build_group(spec)
    assert len(np.unique(g.perms, axis=0)) == g.order
    a, b = np.random.default_rng(1).integers(0, g.order, size=(2, 2000))
    assert np.array_equal(g.perms[g.mul[a, b]],
                          np.take_along_axis(g.perms[a], g.perms[b], axis=1))


def test_labels_are_written_on_first_use():
    g = build_group({"family": "dihedral", "n": 5})
    assert g._labels is None
    assert g.label(5) == "(2 5)(3 4)"
    assert g._labels is None
    assert g.element_labels[5] == "(2 5)(3 4)" and g.element_labels[0] == "e"


def test_repeated_permutations_are_refused():
    with pytest.raises(GroupSpecError, match="repeated"):
        groups._table_from_perms([(0, 1, 2), (1, 0, 2), (0, 1, 2)],
                                 [(1, 0, 2)], "bad")


@pytest.mark.parametrize("perms, gens, message", [
    ([(0, 1, 2), (1, 0, 2), (0, 2, 1)], [(1, 0, 2), (0, 2, 1)], "not closed"),
    ([(0, 1, 2), (1, 0, 2), (0, 2, 1)], [(1, 0, 2), (0, 2, 1), (1, 2, 0)],
     "not closed"),
    (list(itertools.permutations(range(3))), [(1, 0, 2)], "do not generate"),
    ([(1, 0, 2), (0, 1, 2)], [(1, 0, 2)], "identity"),
], ids=["product-missing", "generator-missing", "subgroup", "identity-not-first"])
def test_bad_permutation_lists_are_spec_errors(perms, gens, message):
    """A list not closed under composition, a generator outside the list,
    generators of a proper subgroup and an identity not listed first are
    spec errors: every product is checked on its full images, not only on
    the base."""
    with pytest.raises(GroupSpecError, match=message):
        groups._table_from_perms(perms, gens, "x")


@pytest.mark.parametrize("n, row, cols", [(5, 3, [7, 9]), (6, 5, [100, 200])],
                         ids=["S5", "S6"])
def test_validate_proves_associativity(n, row, cols):
    """Swapping two entries of a row of S_n keeps the identity and every
    inverse, so only the associativity proof can reject the table; S6, of
    order 720, shows that the proof covers raw tables of every order."""
    g = build_group({"family": "symmetric", "n": n})
    mul = g.mul.copy()
    mul[row, cols] = mul[row, cols[::-1]]
    assert np.array_equal(mul[0], np.arange(g.order))
    assert np.array_equal(mul[:, 0], np.arange(g.order))
    assert np.all(mul[np.arange(g.order), g.inv] == 0)
    with pytest.raises(GroupSpecError, match="not associative"):
        FiniteGroup(mul, "bad", None, g.generators)


def test_cosets_are_numbered_by_their_least_element():
    """Coset c is named by t_c, the least element of t_c K, and the t_c
    increase with c."""
    for space in orbital_test_spaces():
        t = np.asarray(space.transversal)
        assert np.all(np.diff(t) > 0), space
        members = space.group.mul[np.ix_(t, space.k_members)]
        assert np.array_equal(members.min(axis=1), t), space
        assert np.array_equal(space.coset_of[t], np.arange(space.num_cosets)), space


@pytest.mark.parametrize("mul, message", [
    ([[0, 1, 2], [2, 0, 1], [1, 2, 0]], "two-sided identity"),
    ([[0, 1], [1, 1]], "inverse"),
], ids=["left-identity-only", "monoid"])
def test_raw_tables_that_are_not_groups_are_refused(mul, message):
    """The rows of the first table are the rotations of Z3, a group under
    composition, yet 1 * 0 = 2: only the check of column 0 tells that the
    table is not theirs.  The second is closed and associative, {e, z} with
    z z = z, but z has no inverse."""
    with pytest.raises(GroupSpecError, match=message):
        FiniteGroup(np.array(mul), "bad", None, [1])


def test_validate_requires_generators_of_the_whole_table():
    g = build_group({"family": "symmetric", "n": 5})
    assert FiniteGroup(g.mul, "S5", None, g.generators).order == 120
    with pytest.raises(GroupSpecError, match="generate 2 of 120"):
        FiniteGroup(g.mul, "S5", None, g.generators[:1])
    with pytest.raises(GroupSpecError, match="element indices"):
        FiniteGroup(g.mul, "S5", None, [120])


def _dihedral_perms(n):
    rot = tuple((i + 1) % n for i in range(n))
    perms = []
    for start in (tuple(range(n)), tuple((-i) % n for i in range(n))):
        r = start
        for _ in range(n):
            perms.append(r)
            r = tuple(rot[j] for j in r)
    return perms


@pytest.mark.parametrize("spec", [
    *({"family": "symmetric", "n": n} for n in range(1, 7)),
    *({"family": "dihedral", "n": n} for n in range(3, 41)),
    {"family": "permutations",
     "generators": [list(range(1, 18)) + [0], [(-i) % 18 for i in range(18)]]},
], ids=lambda spec: spec["family"][0].upper() + str(spec.get("n", 18)))
def test_permutation_tables_are_composition(spec):
    """Every entry of the table, against the composed permutations, in the
    element order of the constructors: itertools order for S_n, rotations
    then reflections for D_n, breadth-first discovery for generators."""
    g = build_group(spec)
    assert g.perms.dtype == np.int32 and not g.perms.flags.writeable
    if spec["family"] == "symmetric":
        assert np.array_equal(g.perms, list(itertools.permutations(range(spec["n"]))))
    elif spec["family"] == "dihedral":
        assert np.array_equal(g.perms, _dihedral_perms(spec["n"]))
    else:
        assert g.perms[:3].tolist() == [list(range(18))] + spec["generators"]
    perms = g.perms
    assert len(np.unique(perms, axis=0)) == g.order
    composed = perms[np.arange(g.order)[:, None, None], perms[None, :, :]]
    assert np.array_equal(perms[g.mul], composed)


@pytest.mark.parametrize("n", range(1, 31))
def test_cyclic_tables_are_addition(n):
    g = build_group({"family": "cyclic", "n": n})
    residues = np.arange(n)
    assert np.array_equal(g.mul, (residues[:, None] + residues[None, :]) % n)
    assert np.array_equal(g.inv, (-residues) % n)


def test_s7_table_is_composition():
    """S7 on 20 000 sampled pairs plus row 0 and column 0."""
    g = build_group({"family": "symmetric", "n": 7})
    assert np.array_equal(g.perms, list(itertools.permutations(range(7))))
    perms = g.perms
    a, b = np.random.default_rng(7).integers(0, g.order, size=(2, 20_000))
    every, zero = np.arange(g.order), np.zeros(g.order, dtype=int)
    a, b = np.concatenate([a, zero, every]), np.concatenate([b, every, zero])
    assert np.array_equal(perms[g.mul[a, b]],
                          np.take_along_axis(perms[a], perms[b], axis=1))
    assert np.array_equal(perms[g.inv], np.argsort(perms, axis=1))
