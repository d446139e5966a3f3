import cmath
import gc
import re
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pompeiu import exact_linalg, groups, hecke
from pompeiu.finite_pompeiu import pompeiu_convolution, pompeiu_spectral
from pompeiu.groups import (BugTrapError, build_coset_space, build_group,
                            group_from_permutations)
from pompeiu.hecke import (BiinvariantMeasure, NotGelfandPairError,
                           check_spherical, class_indicator, convolve,
                           delta_sharp, gelfand_witness, hecke_structure,
                           is_gelfand_pair, measure_from_function, phi_hom,
                           reverse_function, reverse_measure,
                           spherical_functions, unit_measure)

from conftest import (acceptance_suite, cyclic_space, dihedral_space,
                      orbital_test_spaces, symmetric_space, untagged_cyclic_space,
                      untagged_dihedral_space)
from references import project_biinvariant


def _pair(f, u):
    return sum(a * b for a, b in zip(f, u))


def _dense_op(space):
    """The d x d x d operators op[j, k, i]: the structure's sorted nonzero
    counts at their flat keys (j d + k) d + i, and 0 elsewhere."""
    st = hecke_structure(space)
    op = np.zeros(st.d ** 3, dtype=np.int64)
    op[st.keys] = st.counts
    return op.reshape(st.d, st.d, st.d)


def _f21_space():
    """F21 = <(0 1 2 3 4 5 6), x -> 2x mod 7> over the stabilizer of 0:
    d = 3 with the two nontrivial double cosets inverse to each other, and
    non-abelian, so neither self-paired nor abelian, yet a Gelfand pair."""
    g = group_from_permutations([[1, 2, 3, 4, 5, 6, 0], [0, 2, 4, 6, 1, 3, 5]])
    return build_coset_space(g, [i for i, p in enumerate(g.perms) if p[0] == 0])


def test_projection_fixes_constants(s3_space):
    f = [2.5] * s3_space.group.order
    assert project_biinvariant(s3_space, f) == f


def test_projection_idempotent(d6_space):
    rng = np.random.default_rng(0)
    f = list(rng.normal(size=d6_space.group.order))
    once = project_biinvariant(d6_space, f)
    twice = project_biinvariant(d6_space, once)
    assert np.allclose(once, twice)


def test_projection_s3_example(s3_space):
    g = s3_space.group
    f = [0] * g.order
    target = g.element_labels.index("(1 2 3)")
    f[target] = 1
    proj = project_biinvariant(s3_space, f)
    assert proj[target] == Fraction(1, 4)
    # independent double-sum oracle
    k = s3_space.k_members
    for x in range(g.order):
        direct = Fraction(sum(f[g.mul[g.mul[l, x], r]] for l in k for r in k),
                          len(k) ** 2)
        assert proj[x] == direct


def test_projection_self_adjoint(d6_space):
    rng = np.random.default_rng(3)
    n = d6_space.group.order
    for _ in range(20):
        f = rng.normal(size=n)
        u = rng.normal(size=n)
        lhs = _pair(f, project_biinvariant(d6_space, list(u)))
        rhs = _pair(project_biinvariant(d6_space, list(f)), u)
        assert abs(lhs - rhs) < 1e-12


def test_unit_is_convolution_identity(s3_space):
    unit = unit_measure(s3_space)
    rng = np.random.default_rng(1)
    coeffs = tuple(complex(a, b) for a, b in rng.normal(size=(2, 2)).T)
    mu = BiinvariantMeasure(s3_space, coeffs)
    left = convolve(unit, mu)
    right = convolve(mu, unit)
    assert np.allclose([complex(c) for c in left.coeffs], coeffs)
    assert np.allclose([complex(c) for c in right.coeffs], coeffs)


def test_normalized_subgroup_indicator_idempotent(s3_space, d6_space, s4_space):
    for space in (s3_space, d6_space, s4_space):
        u = unit_measure(space)
        assert convolve(u, u).coeffs == u.coeffs


def test_cyclic_convolution_is_shift(z8_space):
    dcp = z8_space.double_cosets
    m1 = class_indicator(z8_space, int(dcp.class_of[1]))
    m2 = class_indicator(z8_space, int(dcp.class_of[2]))
    out = convolve(m1, m2)
    expected = [Fraction(0)] * 8
    expected[int(dcp.class_of[3])] = Fraction(1)
    assert list(out.coeffs) == expected


def test_convolution_associative_small_bases():
    for space in (symmetric_space(3, fixed_point=2), dihedral_space(6),
                  cyclic_space(6)):
        d = space.double_cosets.num_classes
        assert d <= 8
        basis = [class_indicator(space, j) for j in range(d)]
        for a in basis:
            for b in basis:
                ab = convolve(a, b)
                assert all(type(x) is Fraction for x in ab.coeffs)
                for c in basis:
                    assert convolve(ab, c).coeffs == convolve(a, convolve(b, c)).coeffs


def test_sparse_convolution_matches_dense_and_stays_exact():
    """convolve over the sorted nonzero counts equals the dense contraction,
    and exact inputs, the zero measure included, still give Fractions;
    phi_hom contracts over the nonzero coefficients only."""
    space = cyclic_space(12)
    structure, op = hecke_structure(space), _dense_op(space)
    d = space.double_cosets.num_classes
    zero = BiinvariantMeasure(space, tuple(Fraction(0) for _ in range(d)))
    measures = [zero, class_indicator(space, 3),
                BiinvariantMeasure(space, tuple(Fraction(j % 3, 2) for j in range(d)))]
    f = spherical_functions(space)[1]
    for a in measures:
        for b in measures:
            out = convolve(a, b).coeffs
            dense = np.asarray(b.coeffs, dtype=object) @ (
                op @ np.asarray(a.coeffs, dtype=object))
            assert out == tuple(dense)
            assert all(type(x) is Fraction for x in out)
        assert abs(complex(phi_hom(f, a)) - sum(
            complex(f.values[structure.inverse_class[c]]) * size * complex(m)
            for c, (m, size) in enumerate(zip(a.coeffs, structure.class_sizes)))) < 1e-12


def test_hecke_operators_match_their_definition():
    """op[j][k, i] = #{y in C_j : rep_k y^-1 in C_i}, counted on the group
    table, on Gelfand pairs and on the spaces where commutativity fails."""
    for space in [*orbital_test_spaces(), _f21_space(), *_non_gelfand_spaces()]:
        g, dcp = space.group, space.double_cosets
        d = dcp.num_classes
        classes = dcp.class_of[g.mul[np.ix_(list(dcp.representatives), g.inv)]]   # [k, y]
        expected = np.zeros((d, d, d), dtype=np.int64)
        np.add.at(expected, (dcp.class_of[None, :], np.arange(d)[:, None], classes), 1)
        assert np.array_equal(_dense_op(space), expected), space.name
        st = hecke_structure(space)
        assert np.all(np.diff(st.keys) > 0) and np.all(st.counts > 0), space.name


def test_gelfand_pairs():
    for n in (3, 5, 8):
        assert is_gelfand_pair(cyclic_space(n))
    assert is_gelfand_pair(symmetric_space(3, fixed_point=2))
    assert is_gelfand_pair(dihedral_space(6))
    assert is_gelfand_pair(symmetric_space(4, fixed_point=3))


def test_f21_is_a_gelfand_pair_neither_self_paired_nor_abelian():
    """On F21 over the stabilizer of 0 the operators commute although the
    two nontrivial double cosets are inverse to each other and the group is
    not abelian; the three spherical functions hold to 1e-12, two of them
    complex, -1/6 +- i sqrt(7)/6 on the class of 1."""
    space = _f21_space()
    g = space.group
    assert space.double_cosets.num_classes == 3
    assert hecke_structure(space).inverse_class == (0, 2, 1)
    assert not np.array_equal(g.mul, g.mul.T)
    assert is_gelfand_pair(space)
    funcs = spherical_functions(space)
    assert len(funcs) == 3
    for f in funcs:
        assert check_spherical(space, f.on_group()) < 1e-12
    shift = int(np.flatnonzero(g.perms[:, 0] == 1)[0])     # some x with x(0) = 1
    at_one = sorted((complex(f.values[space.double_cosets.class_of[shift]]) for f in funcs),
                    key=lambda z: z.imag)
    expected = [complex(-1, -np.sqrt(7)) / 6, 1, complex(-1, np.sqrt(7)) / 6]
    assert np.allclose(at_one, expected, rtol=0, atol=1e-12)


def test_not_gelfand_with_witness():
    space = symmetric_space(3)          # trivial K, nonabelian group
    assert not is_gelfand_pair(space)
    a, b = gelfand_witness(space)
    da, db = delta_sharp(space, a), delta_sharp(space, b)
    assert convolve(da, db).coeffs != convolve(db, da).coeffs
    with pytest.raises(NotGelfandPairError, match="not commutative"):
        spherical_functions(space)


def _non_gelfand_spaces():
    """S3, S4, D4 and D6 over {e}, S5 over the S3 of <(1 2), (2 3)>, and
    AGL(1, 13) = <x -> x + 1, x -> 2x> over <x -> 8x + 2>, where the least
    non-commuting pair of classes shows only as two nonzero counts that
    differ, op[j, k, i] != op[i, k, j]."""
    yield symmetric_space(3)
    yield symmetric_space(4)
    for n in (4, 6):
        yield build_coset_space(build_group({"family": "dihedral", "n": n}), [])
    s5 = build_group({"family": "symmetric", "n": 5})
    swaps = [(1, 0, 2, 3, 4), (0, 2, 1, 3, 4)]
    yield build_coset_space(s5, [int(np.flatnonzero((s5.perms == p).all(axis=1))[0])
                                 for p in swaps])
    x = np.arange(13)
    agl = group_from_permutations([(x + 1) % 13, 2 * x % 13])
    yield build_coset_space(agl, np.flatnonzero((agl.perms == (8 * x + 2) % 13).all(axis=1)))


def test_gelfand_witness_is_the_least_non_commuting_pair():
    """The witness is the least pair of classes (j, i) with op[j, k, i] !=
    op[i, k, j] for some k, op[j][k, i] = #{y in C_j : rep_k y^-1 in C_i}
    counted on the group table, and the error names its representatives."""
    for space in _non_gelfand_spaces():
        g, dcp = space.group, space.double_cosets
        reps, d = dcp.representatives, dcp.num_classes
        op = np.zeros((d, d, d), dtype=np.int64)
        for k, rep in enumerate(reps):
            for y in range(g.order):
                op[dcp.class_of[y], k, dcp.class_of[g.mul[rep, g.inv[y]]]] += 1
        j, i = min((j, i) for j in range(d) for i in range(d)
                   if any(op[j, k, i] != op[i, k, j] for k in range(d)))
        assert gelfand_witness(space) == (reps[j], reps[i]), space.name
        labels = g.element_labels
        with pytest.raises(NotGelfandPairError) as err:
            spherical_functions(space)
        assert str(err.value) == (
            f"{space.name}: convolution not commutative; witnessing double-coset "
            f"representatives {labels[reps[j]]!r}, {labels[reps[i]]!r}")


def test_structure_build_peaks_near_the_table_it_keeps(monkeypatch):
    """Building the sorted table of Z400 over {e} (d = 400, 160000 keys)
    and its commutativity test holds at most 4.5 times the kept table."""
    monkeypatch.setattr(groups, "WORK_BUDGET", 10 ** 9)
    space = cyclic_space(400)
    space.orbitals                      # built before the trace starts
    tracemalloc.start()
    try:
        structure = hecke._HeckeStructure(space)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert structure._witness is None and len(structure.keys) == 400 ** 2
    assert peak <= 4.5 * (structure.keys.nbytes + structure.counts.nbytes)


def test_spherical_functions_are_characters_on_cyclic():
    for n in (5, 8, 12):
        space = cyclic_space(n)
        funcs = spherical_functions(space)
        assert len(funcs) == n
        class_of = space.double_cosets.class_of
        found = set()
        for k in range(n):
            target = [cmath.exp(2j * cmath.pi * k * x / n) for x in range(n)]
            for i, f in enumerate(funcs):
                table = [complex(f.values[class_of[x]]) for x in range(n)]
                if max(abs(a - b) for a, b in zip(table, target)) < 1e-9:
                    found.add(i)
                    break
        assert len(found) == n


def test_spherical_functions_s3(s3_space):
    funcs = spherical_functions(s3_space)
    assert len(funcs) == 2
    values = sorted(tuple(f.values) for f in funcs)
    assert values == [(1, Fraction(-1, 2)), (1, 1)]
    assert all(f.exact for f in funcs)


def test_spherical_functions_s4(s4_space):
    values = sorted(tuple(f.values) for f in spherical_functions(s4_space))
    assert values == [(1, Fraction(-1, 3)), (1, 1)]


def test_constant_function_always_spherical():
    for space in (cyclic_space(7), dihedral_space(5),
                  symmetric_space(4, fixed_point=3)):
        funcs = spherical_functions(space)
        assert any(all(abs(complex(v) - 1) < 1e-10 for v in f.values)
                   for f in funcs)
        assert len(funcs) == space.double_cosets.num_classes


def test_spherical_count_residual_and_reversal(d6_space):
    funcs = spherical_functions(d6_space)
    assert len(funcs) == 4
    for f in funcs:
        assert complex(f.values[0]) == 1
        assert check_spherical(d6_space, f.on_group()) < 1e-12
        rev = reverse_function(f)
        assert check_spherical(d6_space, rev.on_group()) < 1e-12


def test_spherical_eigen_tuples_distinct(d6_space, z8_space):
    for space in (d6_space, z8_space):
        tuples = [tuple(complex(e) for e in f.eigenvalue_tuple)
                  for f in spherical_functions(space)]
        for i in range(len(tuples)):
            for j in range(i + 1, len(tuples)):
                assert max(abs(a - b) for a, b in zip(tuples[i], tuples[j])) > 1e-6


def test_sphericals_linearly_independent(d6_space):
    funcs = spherical_functions(d6_space)
    m = np.asarray([[complex(v) for v in f.values] for f in funcs])
    assert np.linalg.matrix_rank(m) == len(funcs)


def test_check_spherical_trivial_cases(s3_space):
    n = s3_space.group.order
    assert check_spherical(s3_space, [1] * n) == 0
    assert check_spherical(s3_space, [0] * n) == 0  # zero solves the equation
    # ... but is not spherical: every spherical function has f(e) = 1
    assert all(complex(f.values[0]) == 1 for f in spherical_functions(s3_space))


def test_check_spherical_exact_beyond_int64(s3_space):
    """A constant c gives |c - c^2| exactly, also when c's denominator
    squared overflows 64-bit integers."""
    n = s3_space.group.order
    for c in (Fraction(1, 3), Fraction(1, 10 ** 12), Fraction(10 ** 12 + 1, 10 ** 12)):
        assert check_spherical(s3_space, [c] * n) == float(abs(c - c * c))


def test_phi_unit_is_one(d6_space):
    unit = unit_measure(d6_space)
    for f in spherical_functions(d6_space):
        assert abs(complex(phi_hom(f, unit)) - 1) < 1e-12


def test_phi_multiplicative(d6_space):
    rng = np.random.default_rng(5)
    d = d6_space.double_cosets.num_classes
    funcs = spherical_functions(d6_space)
    for _ in range(15):
        mu = BiinvariantMeasure(d6_space, tuple(rng.normal(size=d)
                                                + 1j * rng.normal(size=d)))
        nu = BiinvariantMeasure(d6_space, tuple(rng.normal(size=d)
                                                + 1j * rng.normal(size=d)))
        conv = convolve(mu, nu)
        for f in funcs:
            lhs = complex(phi_hom(f, conv))
            rhs = complex(phi_hom(f, mu)) * complex(phi_hom(f, nu))
            assert abs(lhs - rhs) < 1e-10 * (1 + abs(rhs))
    # exact inputs stay exact: Fraction coefficients and values, equal
    assert all(f.exact for f in funcs)
    for _ in range(5):
        mu, nu = (BiinvariantMeasure(d6_space, tuple(
            Fraction(int(p), int(q)) for p, q in zip(rng.integers(-9, 10, d),
                                                     rng.integers(1, 10, d))))
            for _ in range(2))
        conv = convolve(mu, nu)
        assert all(type(x) is Fraction for x in conv.coeffs)
        for f in funcs:
            lhs = phi_hom(f, conv)
            assert type(lhs) is Fraction
            assert lhs == phi_hom(f, mu) * phi_hom(f, nu)


def test_phi_sign_convention_pinned(z8_space):
    """The value at the point mass at 1 fixes the reversal convention."""
    class_of = z8_space.double_cosets.class_of
    target = [cmath.exp(2j * cmath.pi * 2 * x / 8) for x in range(8)]
    funcs = spherical_functions(z8_space)
    f2 = next(f for f in funcs
              if max(abs(complex(f.values[class_of[x]]) - target[x])
                     for x in range(8)) < 1e-9)
    mu = class_indicator(z8_space, int(class_of[1]))
    assert abs(complex(phi_hom(f2, mu)) - (-1j)) < 1e-12


def test_phi_matches_dft(z8_space):
    rng = np.random.default_rng(11)
    u = rng.normal(size=8)
    mu = measure_from_function(z8_space, list(u))
    dft = np.fft.fft(u)
    class_of = z8_space.double_cosets.class_of
    for f in spherical_functions(z8_space):
        # identify the character index from its value at 1
        w = complex(f.values[class_of[1]])
        k = round(np.angle(w) * 8 / (2 * np.pi)) % 8
        assert abs(complex(phi_hom(f, mu)) - dft[k]) < 1e-9


def test_reverse_involutions(d6_space):
    rng = np.random.default_rng(9)
    d = d6_space.double_cosets.num_classes
    mu = BiinvariantMeasure(d6_space, tuple(rng.normal(size=d)))
    assert reverse_measure(reverse_measure(mu)).coeffs == mu.coeffs
    for f in spherical_functions(d6_space):
        assert reverse_function(reverse_function(f)).values == f.values
    ones = spherical_functions(d6_space)
    const = next(f for f in ones if all(complex(v) == 1 for v in f.values))
    assert reverse_function(const).values == const.values


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 10))
def test_unit_phi_always_one(n):
    space = cyclic_space(n)
    unit = unit_measure(space)
    for f in spherical_functions(space):
        assert abs(complex(phi_hom(f, unit)) - 1) < 1e-10


def test_measure_from_function_rejects_non_biinvariant(s3_space):
    table = [0] * s3_space.group.order
    table[s3_space.group.element_labels.index("(1 2 3)")] = 1
    with pytest.raises(ValueError, match="not constant"):
        measure_from_function(s3_space, table)


def test_delta_sharp_density(s3_space):
    g = s3_space.group.element_labels.index("(1 2 3)")
    mu = delta_sharp(s3_space, g)
    cls = int(s3_space.double_cosets.class_of[g])
    assert mu.coeffs[cls] == Fraction(1, 4)
    assert sum(c * s for c, s in zip(mu.coeffs, s3_space.double_cosets.class_sizes)) == 1


def test_space_mismatch_raises(s3_space, d6_space):
    with pytest.raises(ValueError, match="different spaces"):
        convolve(unit_measure(s3_space), unit_measure(d6_space))
    f = spherical_functions(s3_space)[0]
    with pytest.raises(ValueError, match="different spaces"):
        phi_hom(f, unit_measure(d6_space))


# ---------------------------------------------------------------------------
# the spherical pipeline: one eigensolve, exact certification


def _larger_pairs():
    """S5/S4, S5/(S3 x S2), D24 with a reflection, Z20 and Z24."""
    s5 = symmetric_space(5)
    young = [i for i, p in enumerate(s5.group.perms) if set(p[:3]) == {0, 1, 2}]
    return [symmetric_space(5, fixed_point=4),
            build_coset_space(s5.group, young),
            dihedral_space(24), cyclic_space(20), cyclic_space(24)]


def test_dihedral_sphericals_are_cosines():
    """D_n over the stabilizer of a vertex: the spherical functions are
    g -> cos(2 pi k g(0) / n) for k = 0..n/2, each found to 1e-12."""
    for n in range(3, 41):
        space = dihedral_space(n)
        funcs = spherical_functions(space)
        assert len(funcs) == n // 2 + 1
        class_of = space.double_cosets.class_of
        vertex = [p[0] for p in space.group.perms]
        found = set()
        for k in range(n // 2 + 1):
            target = [np.cos(2 * np.pi * k * v / n) for v in vertex]
            for i, f in enumerate(funcs):
                table = [complex(f.values[c]) for c in class_of]
                if max(abs(a - b) for a, b in zip(table, target)) < 1e-12:
                    found.add(i)
                    break
        assert len(found) == len(funcs), n


def test_complex_draw_separates_crowded_real_spectra():
    """On D_n with a reflection every spherical function is real, so a real
    combination of the operators would have d real eigenvalues, and for
    these n two of them would crowd (relative gap 3.5e-7 to 9.2e-6).  The
    complex draw spreads them over the plane and gives the cosines of
    `test_dihedral_sphericals_are_cosines`.  The closed form is switched
    off, so that these tagged spaces reach the eigensolve."""
    for n in (56, 157, 164, 191, 199):
        space = dihedral_space(n)
        hecke_structure(space)._closed_form = lambda: None
        funcs = spherical_functions(space)
        assert len(funcs) == n // 2 + 1 and not hecke_structure(space).exact
        vertex = np.array([p[0] for p in space.group.perms])
        table = np.array([[complex(v) for v in f.on_group()] for f in funcs])
        cosines = np.cos(2 * np.pi * np.arange(n // 2 + 1)[:, None] * vertex / n)
        assert np.abs(table[:, None, :] - cosines[None]).max(axis=2).min(axis=1).max() < 1e-9


def test_moved_eigenvector_value_is_a_bug_trap(monkeypatch):
    """A float eigenvector with one class value moved by 1e-6 leaves the
    generic element's eigen-equation by far more than its eigenvalue gap
    allows: a bug trap naming r/gap and the gap, never a table.  Z20 and
    D24 are built from permutations, untagged, so they reach the eigensolve."""
    solve = np.linalg.eig

    def moved(a):
        eigvals, eigvecs = solve(a)
        eigvecs[1, 3] += 1e-6
        return eigvals, eigvecs
    monkeypatch.setattr(hecke.np.linalg, "eig", moved)
    for space in (untagged_cyclic_space(20), untagged_dihedral_space(24)):
        with pytest.raises(BugTrapError) as err:
            spherical_functions(space)
        assert re.fullmatch(r"spherical eigenvector not certified by its residual: "
                            r"r/gap \S+ at eigenvalue gap \S+", str(err.value)), str(err.value)
        assert "_spherical_table" not in vars(hecke_structure(space))


def _tagged_spaces():
    """Z1..Z40 over {e}, <2>, <3>, <4> and <6>, and D3..D40 over the
    reflections i -> -i, i -> 2 - i and i -> 1 - i (an edge reflection for
    even n): the spaces whose spherical functions come in closed form."""
    for n in range(1, 41):
        g = build_group({"family": "cyclic", "n": n})
        for k in (None, 2, 3, 4, 6):
            yield build_coset_space(g, [] if k is None else [k % n])
    for n in range(3, 41):
        g = build_group({"family": "dihedral", "n": n})
        for a in (0, 2, 1):
            reflection = (a - np.arange(n)) % n
            yield build_coset_space(g, [int(np.flatnonzero((g.perms == reflection).all(axis=1))[0])])


def test_closed_form_tables_equal_the_eigensolve():
    """On every tagged space the closed-form table is the eigensolve's: the
    same rows in the same order, to 1e-12, and the same exact flag."""
    for space in _tagged_spaces():
        closed = hecke_structure(space)._spherical_table
        twin = hecke_structure(build_coset_space(space.group, space.k_generators))
        twin._closed_form = lambda: None
        assert closed[2] == twin._spherical_table[2], space
        for a, b in zip(closed[:2], twin._spherical_table[:2]):
            assert a.shape == b.shape and np.abs(a - b).max(initial=0) <= 1e-12, space


def test_tagged_spaces_never_call_the_eigensolve(monkeypatch):
    """A tagged space builds its table without np.linalg.eig; S5/(S3 x S2)
    and Z20 built from a permutation, untagged, still call it."""
    def refuse(a):
        raise AssertionError("np.linalg.eig called")
    monkeypatch.setattr(hecke.np.linalg, "eig", refuse)
    for space in _tagged_spaces():
        assert len(spherical_functions(space)) == space.double_cosets.num_classes
    s5 = build_group({"family": "symmetric", "n": 5})
    young = [i for i, p in enumerate(s5.perms) if set(p[:3]) == {0, 1, 2}]
    for space in (build_coset_space(s5, young), untagged_cyclic_space(20)):
        assert space.group.rotation is None
        with pytest.raises(AssertionError, match="eig called"):
            spherical_functions(space)


def test_moved_closed_form_value_is_a_bug_trap(monkeypatch):
    """A closed-form class value moved by 1e-6 leaves the eigen-equation of
    the rotation's class operator by far more than its eigenvalue gap
    allows: a bug trap naming r/gap, never a table."""
    closed_form = hecke._HeckeStructure._closed_form

    def moved(self):
        closed = closed_form(self)
        closed[0][1, 3] += 1e-6     # the values, after their images under op[s]
        return closed
    monkeypatch.setattr(hecke._HeckeStructure, "_closed_form", moved)
    for space in (cyclic_space(20), dihedral_space(24)):
        with pytest.raises(BugTrapError) as err:
            spherical_functions(space)
        assert re.fullmatch(r"spherical eigenvector not certified by its residual: "
                            r"r/gap \S+ at eigenvalue gap \S+", str(err.value)), str(err.value)
        assert "_spherical_table" not in vars(hecke_structure(space))


def test_a_walk_that_misses_the_classes_is_a_bug_trap():
    """A cyclic tag forced on D6 over a reflection, whose classes pair
    coset j with coset -j, is refused, never read as a cyclic table."""
    space = untagged_dihedral_space(6)
    space.group.rotation = ("cyclic", 1)    # element 1, the first generator
    with pytest.raises(BugTrapError, match="the classes are not those of the rotation's walk"):
        spherical_functions(space)


class _Unreadable:
    def __getitem__(self, index):
        raise AssertionError("multiplication table read")


def _z2_power(m):
    """(Z2)^m over K = {e}, from m disjoint transpositions: d = 2^m classes."""
    swaps = [list(range(2 * m)) for _ in range(m)]
    for i, p in enumerate(swaps):
        p[2 * i], p[2 * i + 1] = 2 * i + 1, 2 * i
    return build_coset_space(group_from_permutations(swaps), [])


def test_spherical_tables_never_read_the_multiplication_table(monkeypatch):
    """A float table is certified by its eigensolve or its closed form
    alone, an exact one by its eigen-equations on the sorted Hecke table:
    none reads group.mul."""
    spaces = [cyclic_space(20), dihedral_space(24), dihedral_space(56), untagged_cyclic_space(20)]
    exact = [symmetric_space(4, fixed_point=3), symmetric_space(7, fixed_point=6), _z2_power(6)]
    for space in spaces + exact:
        monkeypatch.setattr(space.group, "mul", _Unreadable())
        assert len(spherical_functions(space)) == space.double_cosets.num_classes
        assert hecke_structure(space).exact == (space in exact)


def test_sphericals_sorted_by_rounded_eigenvalues():
    def key(f):
        return tuple((round(complex(e).real, 9), round(complex(e).imag, 9))
                     for e in f.eigenvalue_tuple)
    spaces = [cyclic_space(n) for n in range(1, 41)]
    spaces += [dihedral_space(n) for n in range(3, 41)]
    spaces += acceptance_suite() + _larger_pairs()
    for space in spaces:
        keys = [key(f) for f in spherical_functions(space)]
        assert keys == sorted(keys)
        assert len(keys) == space.double_cosets.num_classes


def _cyclic_pair_coefficients(d):
    """op[1] + op[d - 1] on Z_d: character k and -k share the eigenvalue
    2 cos(2 pi k / d), so the element separates no such pair."""
    a = np.zeros(d)
    a[[1, d - 1]] = 1.0
    return a


@pytest.mark.parametrize("coefficients, spaces", [
    (lambda d: np.eye(d)[0], lambda: [untagged_cyclic_space(8), untagged_dihedral_space(6),
                                      symmetric_space(4, fixed_point=3)]),
    (_cyclic_pair_coefficients, lambda: [untagged_cyclic_space(n) for n in (3, 8, 20)]),
])
def test_non_separating_element_is_a_bug_trap(coefficients, spaces, monkeypatch):
    """An element that gives two characters one eigenvalue has eigenvectors
    that need not be spherical: a bug trap naming the eigenvalue gap, never
    a table.  The cyclic and dihedral spaces are built from permutations,
    untagged, so they reach the eigensolve."""
    monkeypatch.setattr(hecke, "_generic_coefficients", coefficients)
    for space in spaces():
        for _ in range(2):
            with pytest.raises(BugTrapError) as err:
                spherical_functions(space)
            assert re.fullmatch(r"the generic Hecke element does not separate the characters "
                                r"\(smallest relative eigenvalue gap \S+\)", str(err.value)), \
                str(err.value)
        assert "_spherical_table" not in vars(hecke_structure(space))
        assert "sphericals" not in vars(hecke_structure(space))


def test_phi_table_entries_are_phi_hom_of_class_indicators():
    """phi_matrix[i, c] = phi_hom(f_i, indicator of class c): exactly and as
    a Fraction on exact spaces, to 1e-12 on the others.  Both equal the
    eigenvalue of f_i under the class-c operator, which the diagonalisation
    reads off op, apart from the values."""
    spaces = acceptance_suite() + [symmetric_space(5, fixed_point=4),
                                   dihedral_space(24), cyclic_space(20)]
    for space in spaces:
        st = hecke_structure(space)
        funcs = spherical_functions(space)
        d = space.double_cosets.num_classes
        assert st.phi_matrix.shape == (len(funcs), d)
        for c in range(d):
            indicator = class_indicator(space, c)
            for i, f in enumerate(funcs):
                value = phi_hom(f, indicator)
                if st.exact:
                    assert type(value) is Fraction
                    assert value == int(st.phi_matrix[i, c]) == f.eigenvalue_tuple[c]
                else:
                    assert abs(complex(value) - st.phi_matrix[i, c]) < 1e-12
                    assert abs(st.phi_matrix[i, c] - f.eigenvalue_tuple[c]) < 1e-9


def test_representative_certification_holds_on_whole_group():
    for space in acceptance_suite() + _larger_pairs():
        st = hecke_structure(space)
        funcs = spherical_functions(space)
        assert len(funcs) == space.double_cosets.num_classes
        if funcs[0].exact:
            assert st._joint(st.class_values, st.phi_matrix)
        for f in funcs:
            res = check_spherical(space, f.on_group())
            if f.exact:
                assert res == 0
            else:
                assert res < 1e-12
    exact = [spherical_functions(s)[0].exact for s in _larger_pairs()]
    assert exact == [True, True, False, False, False]


def test_certification_rejects_shifted_value():
    """A table with one value moved by 1/|G| (scaled by |G|), or paired with
    its eigenvalue rows reversed, leaves the eigen-equations."""
    for space in acceptance_suite() + _larger_pairs():
        st = hecke_structure(space)
        if st.exact and st.d > 1:
            assert not st._joint(st.class_values, st.phi_matrix[::-1])
    for space in (symmetric_space(4, fixed_point=3), _larger_pairs()[1]):
        funcs = spherical_functions(space)
        st = hecke_structure(space)
        n = space.group.order
        table, phi = st.class_values, st.phi_matrix
        assert st._joint(n * table, phi)
        for i in range(len(funcs)):
            for c in range(space.double_cosets.num_classes):
                moved = n * table
                moved[i, c] += table[i, 0]
                assert not st._joint(moved, phi)
                values = [list(f.values) for f in funcs]
                values[i][c] += Fraction(1, n)
                shifted = [values[i][k] for k in space.double_cosets.class_of]
                assert check_spherical(space, shifted) > 0


def _bits(a):
    return a.dtype.str, a.shape, a.tolist() if a.dtype == object else a.tobytes()


def _blocked_tables():
    """Witness, or tables, exactness and eigen-equation verdicts, of fresh
    spaces, a non-Gelfand one among them."""
    out = []
    for space in acceptance_suite() + _larger_pairs() + [symmetric_space(4)]:
        st = hecke_structure(space)
        if st._witness is not None:
            out.append(st._witness)
            continue
        table, phi = st.class_values, st.phi_matrix
        joint = (st._joint(table, phi), st._joint(table + 1, phi)) if st.exact else None
        out.append((_bits(phi), _bits(table), st.exact, joint))
    return out


@pytest.mark.parametrize("block", [1, 2 ** 62], ids=["one", "all"])
def test_blocks_change_no_bit(block, monkeypatch):
    """The eigen-equations checked one row at a time or all rows at once
    give the witness, tables and verdicts of the default block, bit for
    bit."""
    expected = _blocked_tables()
    assert any(t[-1] == (True, False) for t in expected)
    monkeypatch.setattr(hecke, "_BLOCK", block)
    assert _blocked_tables() == expected


def test_exact_and_float_paths_skip_char_poly(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("characteristic polynomial computed")
    monkeypatch.setattr(exact_linalg, "char_poly", forbidden)
    monkeypatch.setattr(exact_linalg, "integer_roots", forbidden)
    s6 = symmetric_space(6, fixed_point=5)
    funcs = spherical_functions(s6)
    assert [f.values for f in funcs] == [(1, Fraction(-1, 5)), (1, 1)]
    assert all(f.exact for f in funcs)
    z64 = cyclic_space(64)
    funcs = spherical_functions(z64)
    assert len(funcs) == 64
    assert not any(f.exact for f in funcs)


def test_spaces_release_their_caches():
    refs = []
    for _ in range(200):
        space = cyclic_space(6)
        spherical_functions(space)
        pompeiu_spectral(space, {0, 3})
        pompeiu_convolution(space, {0, 3})
        refs.append(weakref.ref(space))
    del space
    gc.collect()
    assert [r for r in refs if r() is not None] == []
