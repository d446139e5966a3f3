import functools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pompeiu import exact_linalg, groups
from pompeiu import finite_pompeiu as fp
from pompeiu.exact_linalg import nullspace
from pompeiu.finite_pompeiu import (DecisionReport, EmptySetError,
                                    PompeiuInstance, _biinvariant_lift,
                                    enumerate_all, pompeiu_convolution,
                                    pompeiu_oracle, pompeiu_spectral,
                                    radial_shortcut, recheck_witness)
from pompeiu.groups import BugTrapError, GroupSpecError, build_coset_space, build_group
from pompeiu.hecke import (BiinvariantMeasure, check_spherical, convolve,
                           hecke_structure, phi_hom, spherical_functions,
                           unit_measure)

from conftest import (NoTable, acceptance_suite, cyclic_space, dihedral_space,
                      orbital_test_spaces, symmetric_space)
from references import (check_function_invariance, convolution_zero_set,
                        ideal_generators, lift_set, zero_set, zero_set_ideal)


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


def test_non_integer_coset_index_rejected():
    """A coset index that is not an integer is a ValueError, in the
    single-subset deciders and in PompeiuInstance: 3.7 is not read as 3.
    numpy integers are indices."""
    space = cyclic_space(6)
    for subset in ([0, 3.7], [0, "1"], [np.float64(3.0)]):
        for decide in (pompeiu_oracle, pompeiu_spectral, pompeiu_convolution):
            with pytest.raises(ValueError, match="not an integer"):
                decide(space, subset)
    for subset in ({1.5}, {"1"}):
        with pytest.raises(ValueError, match="not an integer"):
            PompeiuInstance(space, frozenset(subset))
    assert pompeiu_oracle(space, np.array([0, 3])).verdict == "NotPompeiu"
    inst = PompeiuInstance(space, frozenset({np.int64(0), np.int32(3)}))
    assert pompeiu_spectral(inst).verdict == "NotPompeiu"


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
        assert zero_set(BiinvariantMeasure(mu.space, tuple(c * x for x in mu.coeffs))) == base


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


def test_exact_spaces_decide_on_integer_tables():
    """No exact verdict passes through a float tolerance: the spectral and
    convolution tables of an exact space hold integers."""
    from conftest import acceptance_suite
    kinds = set()
    for space in acceptance_suite():
        tables = hecke_structure(space)
        kind = "iO" if tables.exact else "c"
        assert tables.phi_matrix.dtype.kind in kind
        assert tables.class_values.dtype.kind in kind
        kinds.add(tables.exact)
    assert kinds == {True, False}


def _sampled_instances(per_space=12):
    """Seeded subsets of every acceptance-suite space and of S5/S4, D24 with
    a reflection and Z20."""
    from conftest import acceptance_suite
    rng = np.random.default_rng(5)
    spaces = acceptance_suite() + [symmetric_space(5, fixed_point=4),
                                   dihedral_space(24), cyclic_space(20)]
    for space in spaces:
        for _ in range(per_space):
            mask = rng.random(space.num_cosets) < 0.5
            mask[rng.integers(space.num_cosets)] = True
            yield PompeiuInstance(space, frozenset(np.flatnonzero(mask).tolist()))


def test_spectral_rows_match_reference_generators():
    """Row r of the spectral kernel is the reference ideal generator of t_r,
    #{k in K : t_r k x^{-1} in E~} at the double-coset representatives x:
    the translates times the generator table give its counts, and the
    kernel's zeros on that row are its zero set, per subset."""
    for inst in _sampled_instances():
        space, bits = inst.space, fp._bits(inst)
        gens = ideal_generators(inst)
        translates = bits[:, space.action[list(space.transversal)]]
        assert (translates @ fp._cache(space).generators)[0].tolist() == \
            [[int(c) for c in mu.coeffs] for mu in gens]
        zeros = fp._spectral_zeros(space, bits)[0]
        assert [set(np.flatnonzero(row).tolist()) for row in zeros] == \
            [zero_set(mu) for mu in gens], space.name


def test_spherical_deciders_peak_under_5_mb_on_z215():
    """Z215 with K = {e} and every other coset, after a warm-up call that
    builds the per-space tables: each spherical decider holds one 215 x
    215 gather of translates and its products, and peaks under 5 MB
    traced.  Its verdict is the DFT's."""
    space, subset = cyclic_space(215), set(range(0, 215, 2))
    for decide in (pompeiu_spectral, pompeiu_convolution):
        decide(space, subset)
        tracemalloc.start()
        try:
            report = decide(space, subset)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.has_property == _dft_pompeiu(215, subset)
        assert peak < 5 * 2 ** 20, (decide.__name__, peak / 2 ** 20)


def test_generator_table_matches_its_definition():
    """generators[c, j] = #{k in K : k rep_j^{-1} lies in coset c}, counted
    on the group table."""
    for space in orbital_test_spaces():
        g = space.group
        reps = list(space.double_cosets.representatives)
        cosets = space.coset_of[g.mul[np.ix_(space.k_members, g.inv[reps])]]    # [k, j]
        expected = (cosets == np.arange(space.num_cosets)[:, None, None]).sum(axis=1)
        assert np.array_equal(fp._cache(space).generators, expected), space.name


def _without_table(space, monkeypatch):
    """The space with its spherical functions built, which certifies them
    on the group table, and the table then made unreadable."""
    spherical_functions(space)
    monkeypatch.setattr(space.group, "mul", NoTable())
    return space


def test_sweep_reads_no_group_table(monkeypatch):
    """Past the spherical functions, a sweep works on G/K alone: with the
    table unreadable, every suite space gives the rows of a fresh copy."""
    for fresh, space in zip(acceptance_suite(), acceptance_suite()):
        expected = _sweep_rows(fresh)
        assert _sweep_rows(_without_table(space, monkeypatch)) == expected, space.name


def test_single_subset_deciders_read_no_group_table(monkeypatch):
    """The oracle, the spectral and convolution deciders and the radial
    shortcut give the verdicts and witnesses of a fresh copy with the table
    unreadable, on sampled subsets of S5/S4, D24 and Z20, each space's
    K-orbit unions among them."""
    rng = np.random.default_rng(11)
    for build in (functools.partial(symmetric_space, 5, fixed_point=4),
                  functools.partial(dihedral_space, 24), functools.partial(cyclic_space, 20)):
        fresh, space = build(), _without_table(build(), monkeypatch)
        classes = space.double_cosets.class_of[list(space.transversal)]
        subsets = [np.flatnonzero(rng.random(space.num_cosets) < 0.5) for _ in range(8)]
        subsets += [np.flatnonzero(np.isin(classes, rng.choice(classes.max() + 1, size=2)))
                    for _ in range(4)]
        shortcuts = 0
        for subset in (set(s.tolist()) for s in subsets if len(s)):
            for decide in (pompeiu_oracle, pompeiu_spectral, pompeiu_convolution,
                           radial_shortcut):
                expected, report = decide(fresh, subset), decide(space, subset)
                assert (report is None) == (expected is None), space.name
                if report is not None:
                    assert (report.verdict, report.witness) == \
                        (expected.verdict, expected.witness), space.name
                    shortcuts += decide is radial_shortcut
        assert shortcuts >= 4, space.name


def test_translate_matrix_keeps_every_translate_and_the_kernel():
    """Row g is the indicator of gE, and the kernel basis is the one of the
    distinct rows in descending order.  The gather index behind the rows is
    built once per space and kept on it."""
    from pompeiu.exact_linalg import nullspace
    from pompeiu.finite_pompeiu import translate_matrix
    for inst in _sampled_instances():
        space = inst.space
        matrix = translate_matrix(inst)
        assert fp._translates(space) is fp._translates(space)
        assert matrix.shape == (space.group.order, space.num_cosets)
        for g in range(space.group.order):
            translate = {int(space.action[g, c]) for c in inst.subset}
            assert set(np.flatnonzero(matrix[g]).tolist()) == translate
        distinct = sorted({tuple(int(v) for v in row) for row in matrix},
                          reverse=True)
        assert nullspace(matrix) == nullspace(distinct)


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


def _shortcut_reference(space):
    """The shortcut decided element by element, as a function of the subset:
    None unless the lifted indicator is biinvariant, else the smallest index
    of a spherical function f with sum_c mu_c |C_c| f(c^{-1}) = 0, mu the
    reversed lifted indicator, summed per class in Fraction or complex;
    -1 when there is none."""
    group, dcp = space.group, space.double_cosets
    funcs = spherical_functions(space)
    inverse_class = [int(dcp.class_of[group.inv[rep]]) for rep in dcp.representatives]
    terms = [[size * f.values[inverse_class[c]] for c, size in enumerate(dcp.class_sizes)]
             for f in funcs]

    def decide(subset):
        lifted = lift_set(space, subset)
        indicator = [1 if g in lifted else 0 for g in range(group.order)]
        if not check_function_invariance(space, indicator, "bi"):
            return None
        reversed_values = [indicator[group.inv[x]] for x in range(group.order)]
        mu = [reversed_values[rep] for rep in dcp.representatives]
        assert all(reversed_values[x] == mu[dcp.class_of[x]] for x in range(group.order))
        tol = 1e-9 * (1 + sum(m * s for m, s in zip(mu, dcp.class_sizes)))
        for i, f in enumerate(funcs):
            total = Fraction(0) if f.exact else 0j
            for c, m in enumerate(mu):
                if m:
                    total += terms[i][c]
            if (f.exact and total == 0) or (not f.exact and abs(total) < tol):
                return i
        return -1

    return decide


def _shortcut_instances():
    """Every subset of every acceptance-suite space, then 200 seeded subsets
    each of S5/S4, D24 with a reflection and Z20: every other one a union of
    K-orbits, where the shortcut applies, the rest any subset."""
    for space in acceptance_suite():
        for bitmask in range(1, 1 << space.num_cosets):
            yield space, [c for c in range(space.num_cosets) if bitmask >> c & 1]
    rng = np.random.default_rng(8)
    for space in (symmetric_space(5, fixed_point=4), dihedral_space(24),
                  cyclic_space(20)):
        orbits = {frozenset(space.action[space.k_members, c].tolist())
                  for c in range(space.num_cosets)}
        orbits = sorted(sorted(o) for o in orbits)
        for draw in range(200):
            if draw % 2:
                picked = rng.random(len(orbits)) < 0.5
                picked[rng.integers(len(orbits))] = True
                yield space, sorted(c for o, p in zip(orbits, picked) if p for c in o)
            else:
                mask = rng.random(space.num_cosets) < 0.5
                mask[rng.integers(space.num_cosets)] = True
                yield space, np.flatnonzero(mask).tolist()


def test_shortcut_matches_elementwise_reference():
    """Verdict and witness index of the shortcut, read off the Phi table,
    equal the per-class sums over the element-by-element measure."""
    applicable = 0
    references = {}
    for space, subset in _shortcut_instances():
        if space not in references:
            references[space] = _shortcut_reference(space)
        expected = references[space](subset)
        report = radial_shortcut(space, subset)
        if expected is None:
            assert report is None, (space.name, subset)
            continue
        applicable += 1
        if expected < 0:
            assert report.verdict == "Pompeiu", (space.name, subset)
        else:
            assert report.verdict == "NotPompeiu", (space.name, subset)
            assert report.witness["spherical_index"] == expected
    assert applicable > 4500


# ---------------------------------------------------------------------------
# sweeps and agreement


def _sweep_rows(space, max_size=None, chunks=None):
    """The rows of a sweep, (bitmask, oracle, spectral, convolution,
    witness), decoded from the chunks its sink receives through the
    verdicts of each code.  chunks, when given, gets the number of masks
    of each chunk."""
    rows = []

    def sink(masks, codes, verdicts):
        if chunks is not None:
            chunks.append(len(masks))
        rows.extend((mask,) + verdicts[code] for mask, code in zip(masks.tolist(), codes.tolist()))
    enumerate_all(space, max_size, sink)
    return rows


def _cosets(mask):
    return tuple(c for c in range(mask.bit_length()) if mask >> c & 1)


def test_sweep_s3(s3_space):
    result = enumerate_all(s3_space)
    assert result.subsets == 7
    assert result.pompeiu_count == 6
    assert result.disagreements == 0
    full = next(r for r in _sweep_rows(s3_space) if r[0] == 7)
    assert not full[1]


def test_sweep_z4_matches_dft():
    space = cyclic_space(4)
    rows = _sweep_rows(space)
    assert len(rows) == 15
    assert enumerate_all(space).disagreements == 0
    for mask, oracle, *_ in rows:
        assert oracle == _dft_pompeiu(4, _cosets(mask))


def test_sweep_z8_matches_dft(z8_space):
    assert enumerate_all(z8_space).disagreements == 0
    for mask, oracle, *_ in _sweep_rows(z8_space):
        assert oracle == _dft_pompeiu(8, _cosets(mask))


def test_sweep_d6(d6_space):
    result = enumerate_all(d6_space)
    assert result.subsets == 63
    assert result.disagreements == 0


def test_sweep_max_size(d6_space):
    rows = _sweep_rows(d6_space, max_size=2)
    assert all(len(_cosets(r[0])) <= 2 for r in rows)
    assert len(rows) == enumerate_all(d6_space, max_size=2).subsets == 6 + 15
    with pytest.raises(ValueError, match="max subset size"):
        enumerate_all(d6_space, max_size=0)


def test_sweep_size_cap():
    space = cyclic_space(21)
    with pytest.raises(ValueError, match="cap"):
        enumerate_all(space)


# ---------------------------------------------------------------------------
# batched sweep against a per-subset reference


def _reference_rows(space, oracle=None):
    """The sweep's rows decided one subset at a time, by the per-subset
    formulas on the group table: the exact kernel of the translate matrix
    (row g the indicator of gE), the ideal generator rows #{k in K :
    t k x^{-1} in E~} at the double-coset representatives x, summed from
    their per-coset counts, against the Phi table, and the convolution with
    the lifted indicator summed element by element on G.  oracle(subset),
    when given, replaces the exact kernel's verdict."""
    structure = hecke_structure(space)
    mul, inv = space.group.mul, space.group.inv
    sizes = np.asarray(space.double_cosets.class_sizes)
    on_group = np.asarray([f.on_group() for f in spherical_functions(space)],
                          dtype=object if structure.exact else complex)
    # per_coset[c, t, x] = #{k in K : t k x^{-1} lies in coset c}
    products = mul[mul[np.ix_(space.transversal, space.k_members)][:, :, None],
                   inv[list(space.double_cosets.representatives)]]
    per_coset = (space.coset_of[products] == np.arange(space.num_cosets)[:, None, None, None]
                 ).sum(axis=2)

    def zero(values, tol):
        return values == 0 if structure.exact else np.abs(values) < tol

    rows = []
    for mask in range(1, 1 << space.num_cosets):
        subset = [c for c in range(space.num_cosets) if mask >> c & 1]
        indicator = np.zeros(space.num_cosets, dtype=np.int64)
        indicator[subset] = 1
        full = oracle(subset) if oracle else not nullspace(indicator[space.action[inv]])
        gens = per_coset[subset].sum(axis=0)
        tol = fp.PHI_ZERO_TOL * (1 + (gens * sizes).sum(axis=1))
        spectral = np.flatnonzero(zero(structure.phi_matrix @ gens.T, tol).all(axis=1))
        lifted = np.flatnonzero(indicator[space.coset_of])
        conv = on_group[:, mul[:, lifted]].sum(axis=2)
        conv_zero = zero(conv, fp.CONV_ZERO_TOL * (1 + len(lifted))).all(axis=1)
        witness = (f"spherical:{spectral[0]}" if spectral.size
                   else "" if full else "kernel")
        rows.append((mask, full, not spectral.size, not conv_zero.any(), witness))
    return rows


@functools.cache
def _reference_sweeps():
    """(space, reference rows) for every acceptance-suite space, D8 with a
    reflection and Z13."""
    spaces = acceptance_suite() + [dihedral_space(8), cyclic_space(13)]
    return [(space, _reference_rows(space)) for space in spaces]


@functools.cache
def _least_translates(space):
    """The least mask of the orbit of every mask under G, by brute force:
    walk the masks upward, and give every translate gE of each unmarked
    one its mask."""
    least = [None] * (1 << space.num_cosets)
    for mask in range(1 << space.num_cosets):
        if least[mask] is None:
            for g in range(space.group.order):
                least[sum(1 << int(space.action[g, c]) for c in _cosets(mask))] = mask
    return least


def _orbit_representatives(space):
    """The least mask of every orbit of G on the nonempty subsets."""
    return [mask for mask, least in enumerate(_least_translates(space)) if mask == least][1:]


def _burnside_count(space):
    """The number of orbits of G on all subsets of the cosets, the empty
    one included, by Burnside's lemma: the mean over g of 2^(cycles of g)."""
    total = 0
    for perm in space.action.tolist():
        seen, cycles = set(), 0
        for start in range(len(perm)):
            cycles += start not in seen
            while start not in seen:
                seen.add(start)
                start = perm[start]
        total += 2 ** cycles
    assert total % space.group.order == 0
    return total // space.group.order


def _s6_on_3_sets():
    """S6 acting on the 20 three-point subsets of six points, K = S3 x S3
    the stabilizer of {0, 1, 2}: |G| = 720."""
    group = build_group({"family": "symmetric", "n": 6})
    return build_coset_space(group, [i for i, p in enumerate(group.perms.tolist())
                                     if set(p[:3]) == {0, 1, 2}])


def test_orbit_labels_are_the_least_translates():
    """The generator labels equal the least translate, by brute force, on
    every acceptance-suite space and on D16 with a reflection.  The labels,
    the empty set's included, number the orbits that Burnside's lemma
    counts there and on S6/(S3xS3), 2136.  Sink chunks no longer depend
    on |G|: the 210 subsets of at most 2 of the 20 cosets of S6/(S3xS3)
    come in one chunk."""
    for space in acceptance_suite() + [dihedral_space(16)]:
        label = fp._orbit_labels(space)
        assert label.dtype == np.int32
        assert label.tolist() == _least_translates(space), space.name
        assert len(np.unique(label)) == _burnside_count(space), space.name
    s6 = _s6_on_3_sets()
    assert len(np.unique(fp._orbit_labels(s6))) == _burnside_count(s6) == 2136
    chunks = []
    assert len(_sweep_rows(s6, max_size=2, chunks=chunks)) == 20 + 190
    assert chunks == [210]


# The kernels that every sweep batch runs on all its subsets.
DECIDERS = ("_translate_full_rank", "_spectral_zeros", "_convolution_zeros")


def _decided_masks(monkeypatch):
    """Per decider kernel of DECIDERS, the masks of every subset it was given."""
    decided = {name: [] for name in DECIDERS}
    for name, masks in decided.items():
        def recorded(space, bits, kernel=getattr(fp, name), masks=masks):
            masks.extend((bits << np.arange(bits.shape[1])).sum(axis=1).tolist())
            return kernel(space, bits)
        monkeypatch.setattr(fp, name, recorded)
    return decided


def _counting_nullspace(monkeypatch):
    calls = []

    def counted(matrix):
        calls.append(1)
        return nullspace(matrix)
    monkeypatch.setattr(exact_linalg, "nullspace", counted)
    return calls


def _recorded_eliminations(monkeypatch):
    """(prime, number of matrices) for every modular elimination."""
    eliminations = []
    eliminate = fp._full_rank_mod

    def recorded(a, p):
        eliminations.append((p, len(a)))
        return eliminate(a, p)
    monkeypatch.setattr(fp, "_full_rank_mod", recorded)
    return eliminations


def test_sweep_rows_match_per_subset_reference(monkeypatch):
    """Every row (three verdicts and the witness column) of every subset of
    every acceptance-suite space, of D8 and of Z13 equals the per-subset
    reference. Each of the three deciders, the translate test included,
    gets exactly the least mask of every orbit, once, and the sweep
    computes no kernel."""
    decided = _decided_masks(monkeypatch)
    for space, expected in _reference_sweeps():
        calls = _counting_nullspace(monkeypatch)
        for masks in decided.values():
            masks.clear()
        assert _sweep_rows(space) == expected, space.name
        assert calls == [], space.name
        reps = _orbit_representatives(space)
        assert all(decided[name] == reps for name in DECIDERS), space.name


def test_sweep_decides_one_subset_per_orbit(monkeypatch):
    """Z16 and D16 with a reflection, decided on the orbit representatives
    only: each decider gets the 4115 necklaces or 2249 bracelets of 16
    beads (nonempty), and every row of Z16 equals the per-subset reference,
    with the DFT for the exact kernel."""
    z16, d16 = cyclic_space(16), dihedral_space(16)
    decided = _decided_masks(monkeypatch)
    for space, orbits in ((z16, 4115), (d16, 2249)):
        for masks in decided.values():
            masks.clear()
        rows = _sweep_rows(space)
        reps = _orbit_representatives(space)
        assert len(reps) == orbits
        assert all(decided[name] == reps for name in DECIDERS), space.name
        if space is z16:
            assert rows == _reference_rows(z16, functools.partial(_dft_pompeiu, 16))


def test_each_sweep_chunk_runs_one_elimination(monkeypatch):
    """A batch decides the oracle of all its subsets with one elimination
    modulo PRIME, the translate test's."""
    eliminations = _recorded_eliminations(monkeypatch)
    per_batch = []
    decide = fp._decide

    def recorded(space, bits):
        before = len(eliminations)
        codes = decide(space, bits)
        per_batch.append(len(eliminations) - before)
        return codes
    monkeypatch.setattr(fp, "_decide", recorded)
    for space, _ in _reference_sweeps():
        _sweep_rows(space)
    assert set(per_batch) == {1}
    assert {p for p, _ in eliminations} == {fp.PRIME}


@pytest.mark.parametrize("per_batch", [1, 5, 97])
def test_sweep_chunk_boundaries(per_batch, monkeypatch):
    """With a small element budget the orbit representatives are decided
    in ceil(representatives / per_batch) batches (one or five subsets each
    on the spaces of at most 8 cosets, 97 on the larger ones), no batch's
    translate matrices exceed the budget, the sink gets chunks of
    max(1, budget // n) masks (the last one fewer), and the rows, also
    under a size bound, stay the same."""
    sizes = []
    decide = fp._decide

    def recorded(space, bits):
        sizes.append(bits.size * space.group.order)
        return decide(space, bits)
    monkeypatch.setattr(fp, "_decide", recorded)
    for space, expected in _reference_sweeps():
        if (space.num_cosets > 8) != (per_batch == 97):
            continue
        per_subset = space.group.order * space.num_cosets
        budget = per_batch * per_subset + per_subset // 2
        monkeypatch.setattr(fp, "SCAN_CHUNK", budget)
        step = max(1, budget // space.num_cosets)
        for max_size in (None, 2):
            bound = space.num_cosets if max_size is None else max_size
            sizes.clear()
            chunks = []
            assert _sweep_rows(space, max_size, chunks) == [
                r for r in expected if len(_cosets(r[0])) <= bound], space.name
            reps = [m for m in _orbit_representatives(space) if len(_cosets(m)) <= bound]
            assert len(sizes) == math.ceil(len(reps) / per_batch)
            assert max(sizes) <= budget
            assert set(chunks[:-1]) <= {step} and 0 < chunks[-1] <= step
    monkeypatch.setattr(fp, "SCAN_CHUNK", 1)
    sizes.clear()
    chunks = []
    assert len(_sweep_rows(cyclic_space(5), chunks=chunks)) == 31
    # at least one subset per batch and one mask per chunk; the 7
    # necklaces of 5 beads decided
    assert sizes == [25] * len(_orbit_representatives(cyclic_space(5))) == [25] * 7
    assert chunks == [1] * 31


def _is_prime(n):
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_prime_is_a_prime_below_2_31():
    assert fp.PRIME < 2 ** 31 and _is_prime(fp.PRIME)


def test_one_prime_decides_the_rank_of_every_sweep():
    """Every sweep has at most SWEEP_COSET_CAP columns, and up to there
    every minor of a 0/1 matrix is below PRIME."""
    assert all(fp._rank_exact(n) for n in range(1, fp.SWEEP_COSET_CAP + 1))


def test_zero_one_minor_bound_by_brute_force():
    """Every 0/1 matrix of order k <= 4 has det^2 <= (k+1)^(k+1) / 4^k, the
    bound that makes one prime exact; the largest det^2 is 1, 1, 4 and 9
    (the bound is reached at k = 1 and 3). One prime decides the rank of
    22 columns, not of 23."""
    largest = []
    for k in range(1, 5):
        bits = (np.arange(1 << k * k)[:, None] >> np.arange(k * k)) & 1
        dets = np.rint(np.linalg.det(bits.reshape(-1, k, k).astype(float)))
        largest.append(int((dets ** 2).max()))
        assert largest[-1] <= exact_linalg.zero_one_minor_bound_squared(k)
    assert largest == [1, 1, 4, 9]
    assert exact_linalg.zero_one_minor_bound_squared(3) == 4
    assert fp._rank_exact(22) and not fp._rank_exact(23)


def test_z20_oracle_column_equals_the_exact_kernel(monkeypatch):
    """On Z20 up to size 4 the oracle column equals the emptiness of each
    subset's exact kernel, from eliminations modulo PRIME alone. A rank
    deficiency such as (1 + x)(1 + x^10) = {0, 1, 10, 11} is proven by the
    translate test. (No triple of Z20 is rank-deficient: three 20th roots
    of unity never sum to zero.)"""
    space = cyclic_space(20)
    eliminations = _recorded_eliminations(monkeypatch)
    rows = _sweep_rows(space, max_size=4)
    assert len(rows) == 20 + 190 + 1140 + 4845
    assert {p for p, _ in eliminations} == {fp.PRIME}
    translates = space.action[space.group.inv]
    for mask, oracle, *_ in rows:
        indicator = np.zeros(space.num_cosets, dtype=np.int64)
        indicator[list(_cosets(mask))] = 1
        assert oracle == (not nullspace(indicator[translates])), _cosets(mask)
    assert not next(r for r in rows if _cosets(r[0]) == (0, 1, 10, 11))[1]


def test_too_small_a_prime_raises(monkeypatch):
    """With PRIME = 2^13 - 1 one prime decides the rank of 12 columns but
    not of the 20 of Z20: the sweep raises instead of returning an
    unproven verdict, and the single-subset oracle lets the exact kernel
    decide."""
    monkeypatch.setattr(fp, "PRIME", 2 ** 13 - 1)
    assert fp._rank_exact(12) and not fp._rank_exact(20)
    with pytest.raises(RuntimeError, match="Hadamard"):
        enumerate_all(cyclic_space(20), max_size=4)
    report = pompeiu_oracle(cyclic_space(20), {0, 1, 10, 11})
    assert report.verdict == "NotPompeiu" and report.witness["kernel"]
    assert pompeiu_oracle(cyclic_space(20), {0, 1, 2}).verdict == "Pompeiu"


def test_certified_deficiency_with_trivial_kernel_raises(monkeypatch):
    """A certified rank deficiency whose exact kernel comes back empty is a
    bug, never a Pompeiu verdict."""
    monkeypatch.setattr(exact_linalg, "nullspace", lambda matrix: [])
    with pytest.raises(RuntimeError, match="certified rank deficiency"):
        pompeiu_oracle(cyclic_space(8), {0, 4})


def test_empty_exact_kernel_past_22_columns_decides_pompeiu(monkeypatch):
    """Past 22 columns a deficiency modulo PRIME proves nothing, so an
    empty exact kernel there is a Pompeiu verdict: Z24 with E = {0}, the
    translate test made to report a deficiency."""
    monkeypatch.setattr(fp, "_translate_full_rank", lambda space, bits: np.array([False]))
    assert not fp._rank_exact(24)
    assert pompeiu_oracle(cyclic_space(24), {0}) == DecisionReport("Pompeiu", "oracle", None)


def test_kernel_witness_that_fails_its_recheck_raises(monkeypatch):
    """On Z6 with E = {0, 3} an exact kernel of e_0 sums to 1 over E."""
    monkeypatch.setattr(exact_linalg, "nullspace",
                        lambda matrix: [[Fraction(1)] + [Fraction(0)] * 5])
    with pytest.raises(BugTrapError, match="^oracle kernel witness failed recheck$"):
        pompeiu_oracle(cyclic_space(6), {0, 3})


def test_recheck_of_a_report_without_witness_is_false():
    inst = PompeiuInstance(cyclic_space(6), frozenset({0}))
    report = pompeiu_oracle(inst)
    assert report.witness is None and not recheck_witness(inst, report)


def _raise_on_call(matrix):
    raise AssertionError("nullspace called on a certified subset")


def test_full_rank_check_skips_the_exact_kernel(monkeypatch):
    """A full-rank subset is settled by the translate test alone, also on
    D24 with a reflection, whose 24 columns are past the int64 bound of the
    exact kernel."""
    monkeypatch.setattr(exact_linalg, "nullspace", _raise_on_call)
    cases = [(dihedral_space(24), {0}), (dihedral_space(24), {0, 1, 3}),
             (dihedral_space(24), {0, 5, 7, 11}), (cyclic_space(20), {0, 1, 2}),
             (symmetric_space(5, fixed_point=4), {0, 1})]
    for space, subset in cases:
        assert pompeiu_oracle(space, subset).verdict == "Pompeiu"


def test_rank_deficient_check_returns_the_kernel_witness():
    """A rank-deficient subset gets the first vector of the exact kernel
    basis of its translate matrix, and recheck_witness accepts it."""
    from pompeiu.finite_pompeiu import translate_matrix
    cases = [(dihedral_space(24), {0, 12}), (dihedral_space(24), set(range(24))),
             (dihedral_space(24), {1, 2, 3, 4}), (cyclic_space(20), {0, 10}),
             (cyclic_space(20), {0, 4, 8, 12, 16}), (dihedral_space(6), {0, 3})]
    for space, subset in cases:
        inst = PompeiuInstance(space, frozenset(subset))
        report = pompeiu_oracle(inst)
        assert report.verdict == "NotPompeiu"
        expected = nullspace(translate_matrix(inst))[0]
        assert report.witness["kernel"] == [float(x) for x in expected]
        assert recheck_witness(inst, report)


def test_zero_set_vector_proves_every_flagged_subset(monkeypatch):
    """On every subset of Z12, D6 and S4/S3 over a point stabilizer, and on
    seeded subsets of Z24 and D24, a subset that the convolution decider
    flags gets an integer vector, |Z| L at K, that the oracle takes as its
    witness without the exact kernel; a subset with no zero gets none."""
    monkeypatch.setattr(exact_linalg, "nullspace", _raise_on_call)
    rng = np.random.default_rng(5)
    cases = [(space, range(1, 1 << space.num_cosets)) for space in
             (cyclic_space(12), dihedral_space(6), symmetric_space(4, fixed_point=3))]
    cases += [(space, rng.integers(1, 1 << 24, 40)) for space in (cyclic_space(24), dihedral_space(24))]
    proved = 0
    for space, masks in cases:
        for mask in masks:
            inst = PompeiuInstance(space, frozenset(_cosets(int(mask))))
            kernel = fp.zero_set_vector(inst)
            if pompeiu_convolution(inst).verdict == "Pompeiu":
                assert kernel is None
                continue
            assert kernel.dtype == np.int64 and kernel[0] % math.lcm(
                *space.double_cosets.class_sizes) == 0 and kernel[0] > 0
            report = pompeiu_oracle(inst, kernel=kernel)
            assert report.witness == {"kernel": kernel.tolist()}
            assert recheck_witness(inst, report)
            proved += 1
    assert proved > 300


def test_zero_set_missing_a_galois_conjugate_is_a_bug_trap(monkeypatch):
    """E = {0, 6} on Z12 is killed by the characters of odd k.  Dropping
    one non-real character from that zero set leaves its conjugate -k
    unpaired, a sum with imaginary parts of size 1: a bug trap."""
    space = cyclic_space(12)
    values = hecke_structure(space).class_values
    zeros = fp._convolution_zeros

    def drop_one(space, bits):
        flagged = zeros(space, bits)
        i = next(i for i in np.flatnonzero(flagged[0].all(axis=0))
                 if np.abs(values[i].imag).max() > 0.5)
        flagged[..., i] = False
        return flagged
    assert fp.zero_set_vector(space, {0, 6}) is not None
    monkeypatch.setattr(fp, "_convolution_zeros", drop_one)
    with pytest.raises(BugTrapError, match="not an integer vector"):
        fp.zero_set_vector(space, {0, 6})


def test_failing_candidate_falls_back_to_the_exact_kernel():
    """A candidate with one entry moved by +1 sums to 1 over some translate:
    the oracle refuses it and returns today's verdict and exact-kernel
    witness."""
    cases = [(cyclic_space(20), {0, 10}), (dihedral_space(24), {0, 12}),
             (dihedral_space(6), {0, 3}), (symmetric_space(5, fixed_point=4), {0, 1, 2, 3, 4})]
    for space, subset in cases:
        inst = PompeiuInstance(space, frozenset(subset))
        kernel = fp.zero_set_vector(inst)
        kernel[1] += 1
        report = pompeiu_oracle(inst, kernel=kernel)
        assert report == pompeiu_oracle(inst)
        assert report.witness["kernel"] == [float(x) for x in nullspace(fp.translate_matrix(inst))[0]]


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


def _spherical_witness(space, i, index=None):
    """The witness a report prints for spherical function i: its index
    (index, when given, in its place) and its values as [re, im] pairs."""
    values = [[complex(v).real, complex(v).imag] for v in spherical_functions(space)[i].values]
    return {"spherical_index": i if index is None else index, "values": values}


def _rechecked(inst):
    """The spherical indices whose witness recheck_witness accepts for inst."""
    return {i for i in range(len(spherical_functions(inst.space))) if recheck_witness(
        inst, DecisionReport("NotPompeiu", "convolution", _spherical_witness(inst.space, i)))}


def test_spherical_recheck_matches_the_convolution_definition():
    """recheck_witness sums f over every translate gE on the cosets; the
    reference sums f(xz) over z in lifted E for every x in G, on the group
    table.  They agree on every spherical function and nonempty subset of
    every acceptance-suite space (90 483 pairs), on S6/S5 with E = {0, 2,
    3} and with all six cosets (exact tables), and on sampled subsets of
    S5/S4, D24 with a reflection and Z20."""
    pairs = 0
    for space in acceptance_suite():
        n = space.num_cosets
        for mask in range(1, 1 << n):
            inst = PompeiuInstance(space, frozenset(c for c in range(n) if mask >> c & 1))
            assert _rechecked(inst) == convolution_zero_set(space, inst.subset), \
                (space.name, inst.subset)
            pairs += len(spherical_functions(space))
    assert pairs == 90483
    space = symmetric_space(6, fixed_point=0)
    assert hecke_structure(space).class_values.dtype.kind == "i"
    for subset, expected in (({0, 2, 3}, set()), (set(range(6)), {0})):
        assert _rechecked(PompeiuInstance(space, frozenset(subset))) == expected \
            == convolution_zero_set(space, subset)
    for inst in _sampled_instances():
        assert _rechecked(inst) == convolution_zero_set(inst.space, inst.subset), inst.space.name


@pytest.mark.parametrize("space,subset,witness", [
    (cyclic_space(5), {0}, {"kernel": [0.0] * 5}),
    (cyclic_space(5), {0}, {"kernel": [0.0] * 5 + [1.0]}),
    (cyclic_space(6), {0, 3}, _spherical_witness(cyclic_space(6), 5, index=-1)),
    (cyclic_space(6), {0, 3}, _spherical_witness(cyclic_space(6), 4, index=-2)),
    (cyclic_space(6), {0, 3}, _spherical_witness(cyclic_space(6), 0, index=6)),
    (cyclic_space(6), {0, 3}, _spherical_witness(cyclic_space(6), 1, index=7)),
], ids=["zero-kernel", "kernel-of-length-6", "index-minus-1", "index-minus-2", "index-6",
        "index-7"])
def test_recheck_refuses_forged_witnesses(space, subset, witness):
    """A kernel that is zero or not of length n, or a spherical index
    outside 0..d-1, is no witness: the translate sums read only the first
    n entries of a vector, and index -2 would read function 4, which does
    vanish over every translate of {0, 3}.  Each forged index prints the
    values of the function it would read if it wrapped."""
    inst = PompeiuInstance(space, frozenset(subset))
    assert not recheck_witness(inst, DecisionReport("NotPompeiu", "oracle", witness))


def test_recheck_refuses_a_report_whose_printed_values_are_corrupted():
    """On Z6 with E = {0, 3} the spectral witness, function 0, rechecks;
    with every printed value replaced by [9.0, 9.0], or one value moved by
    1e-6, it does not, though its index still names a function that
    vanishes over every translate."""
    inst = PompeiuInstance(cyclic_space(6), frozenset({0, 3}))
    report = pompeiu_spectral(inst)
    assert report.witness["spherical_index"] == 0 and recheck_witness(inst, report)
    values = report.witness["values"]
    for corrupted in ([[9.0, 9.0]] * len(values), [[values[0][0] + 1e-6, values[0][1]],
                                                    *values[1:]]):
        forged = DecisionReport("NotPompeiu", "spectral",
                                {"spherical_index": 0, "values": corrupted})
        assert not recheck_witness(inst, forged)


_Z6_WITNESS = _spherical_witness(cyclic_space(6), 0)


@pytest.mark.parametrize("witness", [
    {"spherical_index": 0.0, "values": _Z6_WITNESS["values"]},
    {},
    {"spherical_index": "x", "values": _Z6_WITNESS["values"]},
    {"spherical_index": None, "values": _Z6_WITNESS["values"]},
    {"spherical_index": 0},
    {"spherical_index": 0, "values": _Z6_WITNESS["values"][:5]},
    {"spherical_index": 0, "values": _Z6_WITNESS["values"] + [[1.0, 0.0]]},
    {"spherical_index": 0, "values": [v[0] for v in _Z6_WITNESS["values"]]},
    {"spherical_index": 0, "values": [[1.0, 0.0, 0.0]] * 6},
    {"spherical_index": 0, "values": [[1.0, 0.0]] * 5 + [[1.0]]},
    {"spherical_index": 0, "values": "values"},
    {"kernel": [1.0, -1.0, 1.0, -1.0, 1.0]},
    {"kernel": [1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0]},
    {"kernel": [[1.0], [-1.0]] * 3},
    {"kernel": [1.0, [-1.0]] * 3},
    {"kernel": ["one"] * 6},
    {"kernel": None},
    [0.0] * 6,
    7,
], ids=["index-float", "empty", "index-str", "index-none", "no-values", "values-short",
        "values-long", "values-real-only", "values-triples", "values-ragged", "values-str",
        "kernel-short", "kernel-long", "kernel-column", "kernel-ragged", "kernel-str",
        "kernel-none", "list", "int"])
def test_recheck_returns_false_on_a_malformed_witness(witness):
    """On Z6 with E = {0, 3}, which is not Pompeiu, a witness of the wrong
    shape or type is refused with False instead of an exception: beside
    each malformed spherical witness the well-formed one, function 0,
    rechecks, and so would a kernel of alternating signs of length 6."""
    inst = PompeiuInstance(cyclic_space(6), frozenset({0, 3}))
    assert recheck_witness(inst, DecisionReport("NotPompeiu", "spectral", _Z6_WITNESS))
    assert recheck_witness(inst, DecisionReport("NotPompeiu", "oracle",
                                                {"kernel": [1.0, -1.0] * 3}))
    assert recheck_witness(inst, DecisionReport("NotPompeiu", "spectral", witness)) is False


def test_recheck_accepts_the_witnesses_beside_the_forgeries():
    """The real witnesses on Z6 with E = {0, 3} recheck: the oracle's kernel
    and the spherical functions 0, 3 and 4, which vanish over every
    translate."""
    inst = PompeiuInstance(cyclic_space(6), frozenset({0, 3}))
    for decide in (pompeiu_oracle, pompeiu_spectral, pompeiu_convolution):
        assert recheck_witness(inst, decide(inst))
    assert _rechecked(inst) == {0, 3, 4}


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


# ---------------------------------------------------------------------------
# work budget


def _fresh_z6():
    return cyclic_space(6)      # |G| = n = d = 6: every size is 6^3 = 216


@pytest.mark.parametrize("decide", [pompeiu_oracle, pompeiu_spectral,
                                    pompeiu_convolution])
def test_work_budget_boundary(decide, monkeypatch):
    """A size exactly at the budget runs; a size one past it raises the
    typed GroupSpecError before anything is allocated (the oracle's
    elimination, the Hecke operator tensor)."""
    monkeypatch.setattr(groups, "WORK_BUDGET", 216)
    assert decide(_fresh_z6(), {0, 3}).verdict == "NotPompeiu"
    monkeypatch.setattr(groups, "WORK_BUDGET", 215)
    with pytest.raises(GroupSpecError, match="over the work budget of 215"):
        decide(_fresh_z6(), {0, 3})


def test_work_budget_oracle_counts_every_translate(monkeypatch):
    """The oracle's matrix has one row per group element: S3/S2 has 6 rows
    and 3 cosets, so 6 * 3^2 = 54 entry updates, while d^3 = 8."""
    monkeypatch.setattr(groups, "WORK_BUDGET", 54)
    assert pompeiu_oracle(symmetric_space(3, fixed_point=2), {0}).verdict
    monkeypatch.setattr(groups, "WORK_BUDGET", 53)
    space = symmetric_space(3, fixed_point=2)
    with pytest.raises(GroupSpecError, match="oracle"):
        pompeiu_oracle(space, {0})
    assert pompeiu_spectral(space, {0}).verdict == "Pompeiu"


def test_work_budget_functional_equation_check(monkeypatch):
    """check_spherical on all |G| points accumulates |G|^2 entries."""
    space = _fresh_z6()
    ones = [1] * 6
    monkeypatch.setattr(groups, "WORK_BUDGET", 36)
    assert check_spherical(space, ones) == 0.0
    monkeypatch.setattr(groups, "WORK_BUDGET", 35)
    with pytest.raises(GroupSpecError, match="functional-equation"):
        check_spherical(space, ones)


def test_biinvariance_gather_matches_reference():
    """The shortcut's one-gather test (E a union of K-orbits on the cosets)
    equals the element-by-element biinvariance of the lifted indicator, on
    every subset of every acceptance-suite space."""
    applicable = 0
    for space in acceptance_suite():
        for bitmask in range(1, 1 << space.num_cosets):
            subset = [c for c in range(space.num_cosets) if bitmask >> c & 1]
            lifted = lift_set(space, subset)
            indicator = [1 if g in lifted else 0 for g in range(space.group.order)]
            expected = check_function_invariance(space, indicator, "bi")
            inside = _biinvariant_lift(space, subset)
            assert (inside is not None) == expected, (space.name, subset)
            if inside is not None:
                applicable += 1
                assert np.flatnonzero(inside).tolist() == subset
    assert 4000 < applicable < 8315     # K = {e} always applies, D_n not
