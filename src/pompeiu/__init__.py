"""Pompeiu-property decision procedures.

Finite side: multiplication-table groups, coset spaces, the biinvariant
convolution algebra with its spherical functions, and three independent
deciders (rank oracle, spectral, convolution) that must agree.

Euclidean side: Fourier-Laplace transforms of balls, annuli, polytopes and
disjoint unions at complex frequencies, rotation-orbit vanishing tests,
failure-frequency searches, and direct rigid-motion integral checks.
"""

from .groups import (FiniteGroup, CosetSpace, DoubleCosetPartition,
                     GroupSpecError, build_group, build_coset_space,
                     double_cosets, lift_set, check_function_invariance,
                     load_group_spec)
from .hecke import (BiinvariantMeasure, SphericalFunction, NotGelfandPairError,
                    project_biinvariant, convolve, is_gelfand_pair,
                    gelfand_witness, spherical_functions, check_spherical,
                    phi_hom, reverse_measure, reverse_function, unit_measure,
                    class_indicator, delta_sharp, measure_from_function)
from .finite_pompeiu import (EmptySetError, PompeiuInstance, DecisionReport,
                             pompeiu_oracle, ideal_generators, zero_set,
                             zero_set_ideal, pompeiu_spectral,
                             pompeiu_convolution, radial_shortcut,
                             enumerate_all, recheck_witness)
from .shapes import Ball, Annulus, Polytope, DisjointUnion, parse_set, load_set_spec
from .euclidean import (RigidMotion, spherical_phi,
                        fourier_laplace, radial_profile,
                        complex_sphere_vanishes, find_failure_lambdas,
                        convolution_test, pompeiu_integral_check,
                        euclid_decide, random_motions, rotation_directions)
from .quadrature import QuadratureError, integrate_over

__version__ = "0.1.0"
