import mpmath
import numpy as np
import pytest
import scipy.special

from pompeiu.bessel import (_MODULUS_PHASE, SERIES_RADIUS, ball3_profile, besselj0,
                            besselj1, j1_over_z, sinc)

# reference values frozen from the integral oracle below (and agreeing
# with scipy.special to all shown digits)
J0_AT_2 = 0.22389077914123567
J1_AT_2 = 0.5767248077568734
J0_AT_14_5 = 0.08754486801037622
J1_AT_14_5 = 0.19342946359604696
J0_AT_2_PLUS_1J = 0.18785372808246172 - 0.6461694351539807j
J1_AT_2_PLUS_1J = 0.7906233925534283 - 0.07993269416777605j
J0_AT_12_1_PLUS_07J = 0.09215472209419289 + 0.16313586898317334j

J1_ZEROS = [3.8317059702075123, 7.015586669815619,
            10.173468135062722, 13.323691936314223, 16.470630050877633]


def oracle_jn(n, z, points=2048):
    """J_n(z) = average over the circle of exp(i(z sin t - n t))."""
    t = 2.0 * np.pi * np.arange(points) / points
    return complex(np.mean(np.exp(1j * (complex(z) * np.sin(t) - n * t))))


@pytest.mark.parametrize("x", list(np.linspace(0.0, 30.0, 61))
                         + [11.9, 11.99, 12.0, 12.01, 12.1])
def test_j0_j1_match_integral_oracle_real(x):
    assert abs(complex(besselj0(x)) - oracle_jn(0, x)) < 1e-10
    assert abs(complex(besselj1(x)) - oracle_jn(1, x)) < 1e-10


def test_frozen_values_real():
    assert abs(complex(besselj0(2.0)) - J0_AT_2) < 1e-12
    assert abs(complex(besselj1(2.0)) - J1_AT_2) < 1e-12
    assert abs(complex(besselj0(14.5)) - J0_AT_14_5) < 1e-12
    assert abs(complex(besselj1(14.5)) - J1_AT_14_5) < 1e-12


def test_frozen_values_complex():
    assert abs(complex(besselj0(2 + 1j)) - J0_AT_2_PLUS_1J) < 1e-12
    assert abs(complex(besselj1(2 + 1j)) - J1_AT_2_PLUS_1J) < 1e-12
    assert abs(complex(besselj0(12.1 + 0.7j)) - J0_AT_12_1_PLUS_07J) < 1e-11


def test_complex_strip_against_oracle():
    rng = np.random.default_rng(4)
    for _ in range(60):
        z = complex(rng.uniform(-25, 25), rng.uniform(-4, 4))
        scale = max(1.0, abs(oracle_jn(0, z)))
        assert abs(complex(besselj0(z)) - oracle_jn(0, z)) < 1e-10 * scale
        assert abs(complex(besselj1(z)) - oracle_jn(1, z)) < 1e-10 * scale


def test_matches_scipy_on_real_axis():
    xs = np.linspace(0.01, 40.0, 217)
    assert np.abs(besselj0(xs) - scipy.special.j0(xs)).max() < 1e-10
    assert np.abs(besselj1(xs) - scipy.special.j1(xs)).max() < 1e-10


def test_error_against_mpmath():
    """Per kernel, the largest absolute error on a grid of real [0, 60]
    (5.7e-13 for J0 at 11.59 and 5.5e-13 for J1 at 11.84, both in the power
    series; J1(z)/z 4.7e-14) and the largest relative error on seeded
    points of the strip |Re z| <= 20, |Im z| <= 5 (8.6e-12 for J0, 8.2e-12
    for J1 and J1(z)/z, all at 11.59 - 3.15j, just past the seam)."""
    xs = np.linspace(0.0, 60.0, 6001)
    rng = np.random.default_rng(0)
    zs = rng.uniform(-20.0, 20.0, 400) + 1j * rng.uniform(-5.0, 5.0, 400)
    for kernel, exact, real_bound, strip_bound in (
            (besselj0, lambda z: mpmath.besselj(0, z), 6e-13, 9e-12),
            (besselj1, lambda z: mpmath.besselj(1, z), 6e-13, 9e-12),
            (j1_over_z, lambda z: mpmath.besselj(1, z) / z if z else 0.5, 5e-14, 9e-12)):
        ref = np.array([float(exact(x)) for x in xs])
        assert np.abs(kernel(xs) - ref).max() <= real_bound
        ref = np.array([complex(exact(z)) for z in zs])
        assert (np.abs(kernel(zs) - ref) / np.abs(ref)).max() <= strip_bound


def test_modulus_phase_tables_against_50_digits():
    """Every coefficient of M and theta / w in `_MODULUS_PHASE`, which the
    module derives from Hankel's P and Q in float64, within 1e-15 relative
    of a 50-digit derivation by another route: M^2 in closed form (DLMF
    10.18.17), M by the series square root, and theta from the Wronskian
    M^2 theta'(x) = 2 / (pi x), which makes theta' = 1 / S for M^2 =
    2 / (pi x) S(1/x^2)."""
    with mpmath.workdps(50):
        for nu in (0, 1):
            modulus, phase = _MODULUS_PHASE[nu]
            terms = max(len(modulus), len(phase) + 1)
            s = [mpmath.mpf(1)]                     # S = sum_k s_k w^2k
            for k in range(1, terms):
                s.append(s[-1] * mpmath.mpf(2 * k - 1) / (2 * k)
                         * (4 * nu * nu - (2 * k - 1) ** 2) / 4)
            root = [mpmath.mpf(1)]                  # sqrt(S)
            inverse = [mpmath.mpf(1)]               # 1 / S
            for k in range(1, terms):
                root.append((s[k] - sum(root[i] * root[k - i] for i in range(1, k))) / 2)
                inverse.append(-sum(s[i] * inverse[k - i] for i in range(1, k + 1)))
            # theta = x - (nu/2 + 1/4) pi - sum_k inverse[k] w^(2k-1) / (2k - 1)
            exact = ([mpmath.sqrt(2 / mpmath.pi) * c for c in root[:len(modulus)]],
                     [-inverse[k] / (2 * k - 1) for k in range(1, len(phase) + 1)])
            for shipped, ref in zip((modulus, phase), exact):
                for got, want in zip(shipped, ref, strict=True):
                    assert abs(got - want) <= 1e-15 * abs(want), (nu, got, want)


def test_negative_reflection():
    for z in (3.0, 7.5 + 2.2j, 15.0 - 1.0j):
        assert abs(complex(besselj0(-z)) - complex(besselj0(z))) < 1e-13
        assert abs(complex(besselj1(-z)) + complex(besselj1(z))) < 1e-13


def test_array_and_scalar_shapes():
    xs = np.array([0.0, 1.0, 20.0])
    out = besselj0(xs)
    assert out.shape == (3,)
    assert np.isscalar(complex(besselj0(2.0)))
    assert abs(out[0] - 1.0) < 1e-15


def test_j1_over_z_even_and_regular():
    assert abs(complex(j1_over_z(0.0)) - 0.5) < 1e-15
    assert abs(complex(j1_over_z(1e-9)) - 0.5) < 1e-12
    for z in (2.7, 1.5 - 0.4j):
        assert abs(complex(j1_over_z(z)) - complex(besselj1(z)) / z) < 1e-14
        assert abs(complex(j1_over_z(z)) - complex(j1_over_z(-z))) < 1e-15


def test_sinc_values():
    assert complex(sinc(0.0)) == 1.0
    assert abs(complex(sinc(np.pi))) < 1e-15
    assert abs(complex(sinc(2.0)) - np.sin(2.0) / 2.0) < 1e-15
    # series/direct branch continuity
    assert abs(complex(sinc(9.9e-7)) - complex(sinc(1.01e-6))) < 1e-12


def test_ball3_profile_branches():
    for u in (0.3, 0.49, 0.51, 2.0, 11.0):
        direct = (np.sin(u) - u * np.cos(u)) / u ** 3
        assert abs(complex(ball3_profile(u)) - direct) < 1e-14
    assert abs(complex(ball3_profile(0.0)) - 1.0 / 3.0) < 1e-15


def test_j1_zeros_by_independent_bisection():
    """Bracketed bisection on this package's J1 agrees with the frozen
    zeros and with scipy's."""
    scipy_zeros = scipy.special.jn_zeros(1, 5)
    for frozen, ref in zip(J1_ZEROS, scipy_zeros):
        assert abs(frozen - ref) < 1e-10
    for root in J1_ZEROS:
        a, b = root - 0.02, root + 0.02
        fa = float(complex(besselj1(a)).real)
        assert fa * float(complex(besselj1(b)).real) < 0
        for _ in range(60):
            m = 0.5 * (a + b)
            fm = float(complex(besselj1(m)).real)
            if fa * fm <= 0:
                b = m
            else:
                a, fa = m, fm
        assert abs(0.5 * (a + b) - root) < 1e-10


KERNELS = [besselj0, besselj1, j1_over_z, sinc, ball3_profile]


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.__name__)
def test_real_input_is_evaluated_in_real_arithmetic(kernel):
    """A float argument gives float values matching the real part of the
    complex evaluation to 1e-14 relative, on both sides of SERIES_RADIUS,
    at the branch points and at negative arguments; complex stays complex,
    and a scalar equals the same argument in an array."""
    from pompeiu.bessel import SERIES_RADIUS
    xs = np.concatenate([np.linspace(-30.0, 30.0, 6001),
                         [SERIES_RADIUS, -SERIES_RADIUS, 11.999999, 12.000001,
                          0.0, 1e-9, 5e-7, 0.49, 0.51]])
    real = kernel(xs)
    assert real.dtype == np.float64
    ref = kernel(xs.astype(complex))
    assert ref.dtype == np.complex128
    # near a zero of the kernel both sides carry an absolute rounding error
    # of about 1e-17, so values below 1e-3 are compared at the scale 1e-3
    scale = np.maximum(np.abs(ref.real), 1e-3)
    assert np.all(np.abs(real - ref.real) <= 1e-14 * scale)
    for x in (2.0, -13.5, 3):
        assert isinstance(kernel(x), np.floating)
        assert isinstance(kernel(complex(x)), np.complexfloating)
        assert kernel(x) == kernel(np.array([x]))[0]


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.__name__)
def test_large_complex_array_equals_scalar_calls(kernel):
    """Each entry of a complex array has the bits of the scalar call at its
    argument, also where a branch gets 17 000 entries, past the 16 384 at
    which numpy starts to reuse temporaries in place."""
    rng = np.random.default_rng(7)
    bands = [(1e-9, 1e-6), (1e-6, 0.5), (0.5, SERIES_RADIUS), (SERIES_RADIUS, 80.0)]
    radius = np.concatenate([rng.uniform(lo, hi, 17_000) for lo, hi in bands])
    z = radius * np.exp(1j * rng.uniform(-np.pi, np.pi, len(radius)))
    batch = kernel(z)
    assert batch.dtype == np.complex128
    sample = np.arange(0, len(z), 17)
    scalar = np.array([kernel(complex(x)) for x in z[sample]])
    assert np.array_equal(batch[sample].view(np.int64).reshape(-1, 2),
                          scalar.view(np.int64).reshape(-1, 2))
