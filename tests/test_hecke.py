import cmath
import gc
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pompeiu import exact_linalg
from pompeiu.finite_pompeiu import pompeiu_convolution, pompeiu_spectral
from pompeiu.groups import build_coset_space
from pompeiu.hecke import (BiinvariantMeasure, NotGelfandPairError,
                           check_spherical, class_indicator, convolve,
                           delta_sharp, gelfand_witness, hecke_structure,
                           is_gelfand_pair, measure_from_function, phi_hom,
                           project_biinvariant, reverse_function,
                           reverse_measure, spherical_functions,
                           spherical_table_csv, unit_measure)

from conftest import (acceptance_suite, cyclic_space, dihedral_space,
                      symmetric_space)


def _pair(f, u):
    return sum(a * b for a, b in zip(f, u))


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
                for c in basis:
                    assert convolve(ab, c).coeffs == convolve(a, convolve(b, c)).coeffs


def test_gelfand_pairs():
    for n in (3, 5, 8):
        assert is_gelfand_pair(cyclic_space(n))
    assert is_gelfand_pair(symmetric_space(3, fixed_point=2))
    assert is_gelfand_pair(dihedral_space(6))
    assert is_gelfand_pair(symmetric_space(4, fixed_point=3))


def test_not_gelfand_with_witness():
    space = symmetric_space(3)          # trivial K, nonabelian group
    assert not is_gelfand_pair(space)
    a, b = gelfand_witness(space)
    da, db = delta_sharp(space, a), delta_sharp(space, b)
    assert convolve(da, db).coeffs != convolve(db, da).coeffs
    with pytest.raises(NotGelfandPairError, match="not commutative"):
        spherical_functions(space)


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


def test_spherical_csv_export(d6_space):
    text = spherical_table_csv(d6_space)
    lines = text.strip().splitlines()
    assert lines[0].startswith("class_representative,")
    assert len(lines) == 1 + d6_space.double_cosets.num_classes


def test_space_mismatch_raises(s3_space, d6_space):
    with pytest.raises(ValueError, match="different spaces"):
        convolve(unit_measure(s3_space), unit_measure(d6_space))
    f = spherical_functions(s3_space)[0]
    with pytest.raises(ValueError, match="different spaces"):
        phi_hom(f, unit_measure(d6_space))


# ---------------------------------------------------------------------------
# the spherical pipeline: float diagonalisation, exact certification


def _larger_pairs():
    """S5/S4, S5/(S3 x S2), D24 with a reflection, Z20 and Z24."""
    s5 = symmetric_space(5)
    young = [i for i, p in enumerate(s5.group._perms) if set(p[:3]) == {0, 1, 2}]
    return [symmetric_space(5, fixed_point=4),
            build_coset_space(s5.group, young),
            dihedral_space(24), cyclic_space(20), cyclic_space(24)]


def test_representative_certification_holds_on_whole_group():
    for space in acceptance_suite() + _larger_pairs():
        st = hecke_structure(space)
        funcs = spherical_functions(space)
        assert len(funcs) == space.double_cosets.num_classes
        if funcs[0].exact:
            assert st._certify_exact([f.values for f in funcs])
        for f in funcs:
            res = check_spherical(space, f.on_group())
            if f.exact:
                assert res == 0
            else:
                assert res < 1e-12
    exact = [spherical_functions(s)[0].exact for s in _larger_pairs()]
    assert exact == [True, True, False, False, False]


def test_certification_rejects_shifted_value():
    for space in (symmetric_space(4, fixed_point=3), _larger_pairs()[1]):
        funcs = spherical_functions(space)
        st = hecke_structure(space)
        n = space.group.order
        for i in range(len(funcs)):
            for c in range(space.double_cosets.num_classes):
                values = [list(f.values) for f in funcs]
                values[i][c] += Fraction(1, n)
                assert not st._certify_exact(values)
                shifted = [values[i][k] for k in space.double_cosets.class_of]
                assert check_spherical(space, shifted) > 0


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
