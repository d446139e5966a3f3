from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pompeiu.finite_pompeiu import (DecisionReport, EmptySetError,
                                    PompeiuInstance, enumerate_all,
                                    ideal_generators, pompeiu_convolution,
                                    pompeiu_oracle, pompeiu_spectral,
                                    radial_shortcut, recheck_witness,
                                    zero_set, zero_set_ideal)
from pompeiu.groups import lift_set
from pompeiu.hecke import (BiinvariantMeasure, convolve, phi_hom,
                           spherical_functions, unit_measure)

from conftest import cyclic_space, dihedral_space, symmetric_space


def _dft_pompeiu(n, subset):
    """Independent oracle for (Z_n, {e}): E fails exactly when the DFT of
    its indicator has a zero."""
    ind = np.zeros(n)
    ind[sorted(subset)] = 1.0
    return not np.any(np.abs(np.fft.fft(ind)) < 1e-9)


# ---------------------------------------------------------------------------
# oracle


def test_oracle_full_space_fails(s3_space):
    report = pompeiu_oracle(s3_space, set(range(s3_space.num_cosets)))
    assert report.verdict == "NotPompeiu"
    kernel = report.witness["kernel"]
    assert abs(sum(kernel)) < 1e-12   # witness is mean-zero


def test_oracle_single_coset_passes(s3_space, d6_space):
    for space in (s3_space, d6_space):
        assert pompeiu_oracle(space, {0}).verdict == "Pompeiu"


def test_oracle_s3_pairs_pass(s3_space):
    for subset in ({0, 1}, {0, 2}, {1, 2}):
        assert pompeiu_oracle(s3_space, subset).verdict == "Pompeiu"


def test_oracle_matches_numpy_rank(d6_space):
    from pompeiu.finite_pompeiu import translate_matrix
    for bitmask in range(1, 1 << d6_space.num_cosets, 7):
        subset = {c for c in range(d6_space.num_cosets) if bitmask >> c & 1}
        inst = PompeiuInstance(d6_space, frozenset(subset))
        rows = np.asarray(translate_matrix(inst), dtype=float)
        full = np.linalg.matrix_rank(rows) == d6_space.num_cosets
        assert (pompeiu_oracle(inst).verdict == "Pompeiu") == full


def test_empty_set_rejected(z8_space):
    for decide in (pompeiu_oracle, pompeiu_spectral, pompeiu_convolution,
                   radial_shortcut, ideal_generators, zero_set_ideal):
        with pytest.raises(EmptySetError):
            decide(z8_space, set())


# ---------------------------------------------------------------------------
# ideal generators and zero sets


def test_generators_biinvariant_and_shift_invariant_zero_sets(z8_space):
    gens = ideal_generators(z8_space, {0, 3})
    assert len(gens) == 8
    sets = {zero_set(mu) for mu in gens}
    assert len(sets) == 1     # shifts share one zero set on a cyclic group


def test_generators_full_space_uniform(s3_space):
    gens = ideal_generators(s3_space, set(range(3)))
    for mu in gens:
        assert len(set(mu.coeffs)) == 1
        assert mu.coeffs[0] == s3_space.k_size


def test_generator_identity_coset_is_idempotent_multiple(s3_space):
    gens = ideal_generators(s3_space, {0})
    unit = unit_measure(s3_space)
    mu = gens[0]
    ratio = mu.coeffs[0] / unit.coeffs[0]
    assert ratio != 0
    assert tuple(c / ratio for c in mu.coeffs) == unit.coeffs


def test_zero_set_of_unit_empty(d6_space):
    assert zero_set(unit_measure(d6_space)) == frozenset()


def test_zero_set_uniform_measure(z8_space):
    uniform = BiinvariantMeasure(z8_space, tuple(Fraction(1) for _ in range(8)))
    zs = zero_set(uniform)
    assert len(zs) == 7    # everything except the constant function
    funcs = spherical_functions(z8_space)
    constant = next(i for i, f in enumerate(funcs)
                    if all(abs(complex(v) - 1) < 1e-9 for v in f.values))
    assert constant not in zs


def test_zero_set_z8_even_indicator(z8_space):
    from pompeiu.hecke import measure_from_function
    mu = measure_from_function(z8_space, [1, 0, 0, 0, 1, 0, 0, 0])
    zs = zero_set(mu)
    assert len(zs) == 4
    funcs = spherical_functions(z8_space)
    class_of = z8_space.double_cosets.class_of
    for i in zs:
        # the killed characters are exactly the odd ones: f(4) = -1
        assert abs(complex(funcs[i].values[class_of[4]]) + 1) < 1e-9


def test_zero_set_scale_invariance(z8_space):
    from pompeiu.hecke import measure_from_function
    mu = measure_from_function(z8_space, [1, 0, 0, 0, 1, 0, 0, 0])
    base = zero_set(mu)
    for c in (2, Fraction(-3, 7), 0.001 + 2j):
        assert zero_set(mu.scaled(c)) == base


def test_phi_homomorphism_on_ideal(d6_space):
    rng = np.random.default_rng(2)
    funcs = spherical_functions(d6_space)
    gens = ideal_generators(d6_space, {0, 2})
    d = d6_space.double_cosets.num_classes
    for mu in gens[:3]:
        rho = BiinvariantMeasure(d6_space, tuple(rng.normal(size=d)))
        conv = convolve(mu, rho)
        for f in funcs:
            lhs = complex(phi_hom(f, conv))
            rhs = complex(phi_hom(f, mu)) * complex(phi_hom(f, rho))
            assert abs(lhs - rhs) < 1e-9 * (1 + abs(rhs))


# ---------------------------------------------------------------------------
# spectral and convolution deciders


@pytest.mark.parametrize("n,subset,expected", [
    (8, {0, 1}, "NotPompeiu"),      # character k=4 kills it
    (8, {0, 1, 2}, "Pompeiu"),      # gcd(3,8)=1: geometric sums never vanish
    (6, {0, 2, 4}, "NotPompeiu"),   # vanishes unless 3 | k
])
def test_spectral_cyclic_examples(n, subset, expected):
    space = cyclic_space(n)
    assert pompeiu_spectral(space, subset).verdict == expected
    assert _dft_pompeiu(n, subset) == (expected == "Pompeiu")


def test_convolution_agrees_exhaustively(s3_space):
    for bitmask in range(1, 8):
        subset = {c for c in range(3) if bitmask >> c & 1}
        a = pompeiu_spectral(s3_space, subset).verdict
        b = pompeiu_convolution(s3_space, subset).verdict
        assert a == b


def test_constant_function_never_witnesses(z8_space):
    lifted = lift_set(z8_space, {0, 4})
    funcs = spherical_functions(z8_space)
    constant = next(f for f in funcs
                    if all(abs(complex(v) - 1) < 1e-9 for v in f.values))
    table = [complex(v) for v in constant.on_group()]
    conv = [sum(table[z8_space.group.mul[x, z]] for z in sorted(lifted))
            for x in range(8)]
    assert min(abs(v) for v in conv) > 1.9   # = |E~| everywhere


def test_convolution_witness_z8(z8_space):
    report = pompeiu_convolution(z8_space, {0, 4})
    assert report.verdict == "NotPompeiu"
    class_of = z8_space.double_cosets.class_of
    funcs = spherical_functions(z8_space)
    f = funcs[report.witness["spherical_index"]]
    table = [complex(f.values[class_of[x]]) for x in range(8)]
    conv = [table[x] + table[(x + 4) % 8] for x in range(8)]
    assert max(abs(v) for v in conv) < 1e-9


# ---------------------------------------------------------------------------
# shortcut


def test_shortcut_always_applicable_with_trivial_k(z8_space):
    for subset in ({0}, {0, 4}, {1, 2, 3}):
        report = radial_shortcut(z8_space, subset)
        assert report is not None
        assert report.verdict == pompeiu_spectral(z8_space, subset).verdict


def test_shortcut_identity_coset(s3_space):
    report = radial_shortcut(s3_space, {0})
    assert report is not None
    assert report.verdict == "Pompeiu"


def test_shortcut_not_applicable(s3_space):
    assert radial_shortcut(s3_space, {1}) is None


# ---------------------------------------------------------------------------
# sweeps and agreement


def test_sweep_s3(s3_space):
    result = enumerate_all(s3_space)
    assert len(result.rows) == 7
    assert result.pompeiu_count == 6
    assert result.disagreements == 0
    full = next(r for r in result.rows if r.bitmask == 7)
    assert not full.oracle


def test_sweep_z4_matches_dft():
    space = cyclic_space(4)
    result = enumerate_all(space)
    assert len(result.rows) == 15
    assert result.disagreements == 0
    for row in result.rows:
        assert row.oracle == _dft_pompeiu(4, row.subset)


def test_sweep_z8_matches_dft(z8_space):
    result = enumerate_all(z8_space)
    assert result.disagreements == 0
    for row in result.rows:
        assert row.oracle == _dft_pompeiu(8, row.subset)


def test_sweep_d6(d6_space):
    result = enumerate_all(d6_space)
    assert len(result.rows) == 63
    assert result.disagreements == 0


def test_sweep_max_size(d6_space):
    result = enumerate_all(d6_space, max_size=2)
    assert all(len(r.subset) <= 2 for r in result.rows)
    assert len(result.rows) == 6 + 15


def test_sweep_workers_deterministic(d6_space):
    serial = enumerate_all(d6_space)
    threaded = enumerate_all(d6_space, workers=4)
    assert [r.bitmask for r in serial.rows] == [r.bitmask for r in threaded.rows]
    assert [(r.oracle, r.spectral, r.convolution, r.witness) for r in serial.rows] \
        == [(r.oracle, r.spectral, r.convolution, r.witness) for r in threaded.rows]


def test_sweep_size_cap():
    space = cyclic_space(21)
    with pytest.raises(ValueError, match="cap"):
        enumerate_all(space)


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.sets(st.integers(0, 5), min_size=1, max_size=5))
def test_verdict_translation_invariant(g, subset):
    space = dihedral_space(6)
    g = g % space.group.order
    translated = frozenset(int(space.action[g, c]) for c in subset)
    a = pompeiu_spectral(space, subset).verdict
    b = pompeiu_spectral(space, translated).verdict
    assert a == b


def test_witnesses_reverify(z8_space, s3_space, d6_space):
    for space in (z8_space, s3_space, d6_space):
        for bitmask in range(1, 1 << space.num_cosets):
            subset = frozenset(c for c in range(space.num_cosets)
                               if bitmask >> c & 1)
            inst = PompeiuInstance(space, subset)
            spectral = pompeiu_spectral(inst)
            if spectral.verdict == "NotPompeiu":
                assert recheck_witness(inst, spectral)
                oracle = pompeiu_oracle(inst)
                assert oracle.verdict == "NotPompeiu"
                assert recheck_witness(inst, oracle)


def test_kernel_witness_rechecked_against_every_translate():
    """On S4/S3 with E = {1} the transversal moves coset 1 only to cosets 0
    and 1, so a unit vector on coset 2 or 3 is orthogonal to those
    translates. Other group elements move coset 1 there, so neither vector
    is a witness."""
    space = symmetric_space(4, fixed_point=0)
    inst = PompeiuInstance(space, frozenset({1}))
    reached = {int(space.action[t, 1]) for t in space.transversal}
    outside = [c for c in range(space.num_cosets) if c not in reached]
    assert outside == [2, 3]
    for c in outside:
        h = [0.0] * space.num_cosets
        h[c] = 1.0
        residual = max(abs(h[int(space.action[g, 1])])
                       for g in range(space.group.order))
        assert residual == 1.0
        report = DecisionReport("NotPompeiu", "oracle", {"kernel": h})
        assert not recheck_witness(inst, report)


def test_zero_set_ideal_examples(z8_space, s3_space):
    assert zero_set_ideal(s3_space, {0}) == frozenset()
    zs = zero_set_ideal(z8_space, {0, 4})
    assert len(zs) == 4
    full = zero_set_ideal(s3_space, {0, 1, 2})
    assert len(full) == 1    # all non-constant sphericals (there is one)


def test_verdict_not_monotone_in_subset():
    """The property is NOT monotone under inclusion, in either direction;
    pinned here so nobody 'simplifies' a decider with that assumption."""
    space = cyclic_space(4)
    assert pompeiu_spectral(space, {0}).verdict == "Pompeiu"
    assert pompeiu_spectral(space, {0, 2}).verdict == "NotPompeiu"
    assert pompeiu_spectral(space, {0, 1, 2}).verdict == "Pompeiu"
