"""The deciders on the seeded corpus of random coset spaces
(`references.random_coset_spaces`): on every Gelfand pair the three agree,
every NotPompeiu witness passes its recheck, the radial shortcut agrees
wherever it applies, the exact flag survives a rebuild of the space from
its permutations, and the two spherical tables keep the identities of
`references.table_identity_faults`; every other space is refused with a
witness pair whose double-coset indicators do not commute.  On a float
space no zero test of a spherical decider comes within MARGIN of its
tolerance."""

import numpy as np

from pompeiu import finite_pompeiu as fp
from pompeiu.finite_pompeiu import (PompeiuInstance, pompeiu_convolution, pompeiu_oracle,
                                    pompeiu_spectral, radial_shortcut, recheck_witness,
                                    zero_set_vector)
from pompeiu.hecke import NotGelfandPairError, hecke_structure, spherical_functions

from references import (CORPUS_SUBSETS, class_convolution, random_coset_spaces, rebuilt,
                        table_identity_faults, zero_test_ratios)

# On the corpus the float zero tests read below 8.5e-16 or above 2.5e-4 of
# their scale, against tolerances of 1e-9.
MARGIN = 1e3


def test_the_corpus_of_random_spaces():
    faults, gelfand, floats, refused, shortcuts, decided = [], 0, 0, 0, 0, 0
    for space, subsets in random_coset_spaces():
        try:
            spherical_functions(space)
        except NotGelfandPairError as err:
            refused += 1
            a, b = err.witness
            if np.array_equal(class_convolution(space, a, b), class_convolution(space, b, a)):
                faults.append(f"{space.name}: witness pair {err.witness} commutes")
            continue
        gelfand += 1
        exact = hecke_structure(space).exact
        floats += not exact
        if hecke_structure(rebuilt(space)).exact != exact:
            faults.append(f"{space.name}: the exact flag moved on a rebuild")
        faults += table_identity_faults(space)
        for subset in subsets:
            inst, decided = PompeiuInstance(space, subset), decided + 1
            if not exact:
                for ratios in zero_test_ratios(inst):
                    if ((fp.ZERO_TOL / MARGIN <= ratios) & (ratios <= fp.ZERO_TOL * MARGIN)).any():
                        faults.append(f"{space.name} {sorted(subset)}: a zero test within "
                                      f"{MARGIN:g} of its tolerance {fp.ZERO_TOL:g}")
            spectral, conv = pompeiu_spectral(inst), pompeiu_convolution(inst)
            candidate = None if conv.has_property else zero_set_vector(inst)
            oracle = pompeiu_oracle(inst, kernel=candidate)
            if not oracle.verdict == spectral.verdict == conv.verdict:
                faults.append(f"{space.name} {sorted(subset)}: the deciders disagree")
            for report in (oracle, spectral, conv):
                if not report.has_property and not recheck_witness(inst, report):
                    faults.append(f"{space.name} {sorted(subset)}: {report.method} witness fails")
            shortcut = radial_shortcut(inst)
            if shortcut is not None:
                shortcuts += 1
                if shortcut.verdict != oracle.verdict:
                    faults.append(f"{space.name} {sorted(subset)}: the shortcut disagrees")
    assert faults == []
    assert gelfand >= 150 and floats >= 40 and refused > 0
    assert shortcuts >= gelfand and decided == CORPUS_SUBSETS * gelfand
