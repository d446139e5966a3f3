import math

import mpmath
import numpy as np
import pytest
import scipy.optimize
import scipy.special

import pompeiu.euclidean as euclidean
from pompeiu.euclidean import (ComplexVector, RigidMotion,
                               complex_sphere_vanishes, convolution_test,
                               euclid_decide, exp_divided_difference,
                               find_failure_lambdas, fourier_laplace,
                               pompeiu_integral_check, radial_profile,
                               random_motions, rotation_directions,
                               spherical_phi)
from pompeiu.quadrature import QuadratureError, integrate_over
from pompeiu.shapes import Annulus, Ball, DisjointUnion, Polytope

J1_1 = 3.8317059702075123
PI_J1_2 = 1.8118344191919792          # pi * J1(2), the disk transform at (2,0)

DISK = Ball(1.0, 2)
BALL3 = Ball(1.0, 3)
SQUARE = Polytope([[0, 0], [1, 0], [1, 1], [0, 1]])
TRIANGLE = Polytope([[0, 0], [1, 0], [0, 1]])


def _rot2(theta):
    return np.array([[math.cos(theta), -math.sin(theta)],
                     [math.sin(theta), math.cos(theta)]])


def _separable_box(z):
    """Transform of the unit square/cube, one factor per axis; each factor
    computed by a short series when small to avoid oracle cancellation."""
    out = 1.0 + 0j
    for zi in z:
        w = -1j * complex(zi)
        if abs(w) < 1e-3:
            out *= 1 + w / 2 + w * w / 6 + w ** 3 / 24 + w ** 4 / 120
        else:
            out *= (np.exp(w) - 1) / w
    return out


# ---------------------------------------------------------------------------
# spherical functions phi


def test_phi_at_origin_is_one():
    for dim in (2, 3):
        for lam in (0.0, 1.0, 3.5 + 1.2j):
            assert abs(complex(spherical_phi(lam, np.zeros(dim), dim)) - 1) < 1e-14


def test_phi_sinc_zero():
    val = spherical_phi(1.0, np.array([np.pi, 0.0, 0.0]), 3)
    assert abs(complex(val)) < 1e-15


def test_phi_plane_matches_circle_quadrature():
    x = np.array([0.6, -0.8])       # |x| = 1
    theta = 2 * np.pi * np.arange(512) / 512
    for lam in (3.0, 0.5 - 0.2j):
        direct = np.mean(np.exp(1j * lam * (x[0] * np.cos(theta)
                                            + x[1] * np.sin(theta))))
        assert abs(complex(spherical_phi(lam, x, 2)) - direct) < 1e-10


def test_phi_sphere_matches_quadrature():
    from pompeiu.quadrature import sphere_average
    x = np.array([0.3, -1.1, 0.4])
    for lam in (2.0, 1.0 + 0.5j):
        direct = sphere_average(lambda w: np.exp(1j * lam * (w @ x)))
        assert abs(complex(spherical_phi(lam, x, 3)) - direct) < 1e-10


def test_phi_radial_in_x():
    lam = 2.3
    for dim in (2, 3):
        x = np.zeros(dim)
        x[0] = 1.7
        y = np.zeros(dim)
        y[-1] = 1.7
        assert abs(complex(spherical_phi(lam, x, dim))
                   - complex(spherical_phi(lam, y, dim))) < 1e-14


def test_phi_entire_in_lambda():
    """Finite-difference Cauchy-Riemann residual on a lambda grid."""
    x = np.array([1.2, 0.5])
    h = 1e-5
    for lam in np.linspace(0.5, 12.0, 24):
        du = (complex(spherical_phi(lam + h, x, 2))
              - complex(spherical_phi(lam - h, x, 2))) / (2 * h)
        dv = (complex(spherical_phi(lam + 1j * h, x, 2))
              - complex(spherical_phi(lam - 1j * h, x, 2))) / (2j * h)
        assert abs(du - dv) < 1e-6


def test_phi_rejects_bad_dimension():
    with pytest.raises(ValueError, match="dimension"):
        spherical_phi(1.0, np.zeros(4), 4)


# ---------------------------------------------------------------------------
# divided differences and transforms


def test_divided_difference_basics():
    assert abs(exp_divided_difference([0.0]) - 1.0) < 1e-15
    assert abs(exp_divided_difference([0.0, 0.0]) - 1.0) < 1e-15
    assert abs(exp_divided_difference([0.0, 0.0, 0.0]) - 0.5) < 1e-15
    a, b = 1.3, -0.4
    direct = (math.exp(a) - math.exp(b)) / (a - b)
    assert abs(exp_divided_difference([a, b]) - direct) < 1e-13


def test_divided_difference_branch_consistency():
    rng = np.random.default_rng(8)
    for scale in (1e-7, 0.1, 0.7, 1.2, 5.0, 40.0):
        base = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        nodes = [base + scale * complex(a, b)
                 for a, b in rng.uniform(-1, 1, size=(3, 2))]
        # reference via 60-digit-free pairwise recursion on well-spread
        # nodes, or the series; compare against a shifted evaluation
        shift = 0.31 - 0.12j
        lhs = exp_divided_difference([x + shift for x in nodes])
        rhs = np.exp(shift) * exp_divided_difference(nodes)
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


def _mp_divided_difference(nodes):
    """exp[x_0, ..., x_k] at 50 digits: the Lagrange form for distinct nodes,
    the corner of the exponential of the bidiagonal matrix otherwise."""
    with mpmath.workdps(50):
        xs = [mpmath.mpc(complex(v)) for v in nodes]
        m = len(xs)
        if len(set(complex(v) for v in nodes)) == m:
            total = mpmath.mpc(0)
            for i in range(m):
                denom = mpmath.mpc(1)
                for j in range(m):
                    if j != i:
                        denom *= xs[i] - xs[j]
                total += mpmath.exp(xs[i]) / denom
            return complex(total)
        a = mpmath.matrix(m, m)
        for i in range(m):
            a[i, i] = xs[i]
            if i + 1 < m:
                a[i, i + 1] = 1
        return complex(mpmath.expm(a)[0, m - 1])


def _regime(x):
    """The regime the kernel documents for one row of nodes."""
    if np.abs(x - x.mean()).max() <= 0.8:
        return "series"
    gaps = [abs(a - b) for i, a in enumerate(x) for b in x[i + 1:]]
    return "lagrange" if min(gaps) >= 0.5 else "matrix"


def _node_rows(m, kind, rng):
    """Rows of m nodes of one kind (purely imaginary, real or complex):
    clustered, well spread, exactly confluent and near-confluent pairs."""
    unit = {"imag": 1j, "real": 1.0, "complex": (1 + 1j) / math.sqrt(2)}[kind]
    rows = []
    for scale in (0.05, 0.3, 2.0, 12.0, 45.0):
        for pair in (None, 0.0, 1e-9, 1e-5, 0.3):
            t = rng.uniform(-scale, scale, m)
            if kind == "complex":
                x = t + 1j * rng.uniform(-scale, scale, m)
            else:
                x = t * unit
            if pair is not None:
                x[1] = x[0] + pair * unit
            rows.append(x)
    rows.append(np.full(m, 3.0 * unit))              # fully confluent
    rows.append(np.array([0.0, 0.0] + [5.0] * (m - 2)) * unit)
    return np.asarray(rows, dtype=complex)


@pytest.mark.parametrize("m", [3, 4])
@pytest.mark.parametrize("kind", ["imag", "real", "complex"])
def test_divided_difference_batch_matches_mpmath(m, kind):
    rows = _node_rows(m, kind, np.random.default_rng(10 * m + len(kind)))
    got = exp_divided_difference(rows)
    assert got.shape == (len(rows),)
    assert {_regime(x) for x in rows} == {"series", "lagrange", "matrix"}
    for x, value in zip(rows, got):
        ref = _mp_divided_difference(x)
        assert abs(value - ref) <= 1e-12 * abs(ref), (x, value, ref)
        assert exp_divided_difference(x) == pytest.approx(value, rel=1e-14)


MOVED_SQUARE = Polytope(np.array([[0, 0], [1, 0], [1, 1], [0, 1]]) @ _rot2(0.7).T
                        + [0.4, -1.1])


@pytest.mark.parametrize("shape", [
    MOVED_SQUARE,
    DisjointUnion([TRIANGLE, Polytope([[2, 2], [3, 2], [2.5, 3], [2, 3]])]),
    DISK,
], ids=["polytope", "polytope-union", "disk"])
def test_batched_transform_equals_row_by_row(shape):
    rng = np.random.default_rng(4)
    z = rng.uniform(-15, 15, (300, 2)) + 1j * rng.uniform(-2, 2, (300, 2))
    batch = fourier_laplace(shape, z)
    assert batch.shape == (300,)
    rows = np.array([fourier_laplace(shape, row) for row in z])
    np.testing.assert_allclose(batch, rows, rtol=1e-13, atol=1e-13 * shape.volume)


def _box_orbit_max(lams, rotation, count):
    """Closed-form orbit maxima of R [0,1]^d + t: the transform's modulus
    is prod |sinc(w / 2)| at w = lam R^T u."""
    dirs = rotation_directions(rotation.shape[0], count)
    w = np.asarray(lams)[:, None, None] * (dirs @ rotation)[None]
    return np.abs(np.sinc(w / (2.0 * np.pi))).prod(axis=2).max(axis=1)


@pytest.mark.parametrize("dim,lam_hi,samples", [(2, 18.5, 64), (3, 7.4, 200)])
def test_polytope_landscape_matches_moved_box_across_chunks(dim, lam_hi, samples,
                                                            monkeypatch):
    """37 frequencies: a grid that is not a multiple of the block in either
    dimension; with 200 directions the cube's orbit also spans two blocks.
    No block holds more than SCAN_CHUNK (frequency, direction, simplex)
    triples."""
    rng = np.random.default_rng(dim)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    rot = q * np.sign(np.linalg.det(q))
    unit = np.array([[(k >> i) & 1 for i in range(dim)] for k in range(2 ** dim)])
    box = Polytope(unit @ rot.T + rng.uniform(-1, 1, dim))
    grid = lam_hi / 37
    triples = samples * len(box.simplices())
    assert 37 * triples % euclidean.SCAN_CHUNK != 0
    assert (triples > euclidean.SCAN_CHUNK) == (dim == 3)
    blocks = []

    def recorded(shape, z):
        blocks.append(len(z) * len(box.simplices()))
        return fourier_laplace(shape, z)

    monkeypatch.setattr(euclidean, "fourier_laplace", recorded)
    report = euclid_decide(box, (0.0, lam_hi), grid=grid,
                           rotation_samples=samples, collect_landscape=True)
    assert sum(blocks) == 37 * triples
    assert max(blocks) <= euclidean.SCAN_CHUNK
    monkeypatch.undo()
    lams, mags = np.array(report.landscape).T
    assert len(lams) == 37
    ref = _box_orbit_max(lams, rot, samples)
    assert np.abs(mags - ref).max() <= 1e-12 * ref.min()
    for lam, mag in report.landscape[::9]:
        check = complex_sphere_vanishes(box, lam, samples)
        assert check.max_magnitude == pytest.approx(mag, rel=1e-13)


def test_orbit_maximum_keeps_the_first_direction_across_blocks(monkeypatch):
    """With blocks of 8 directions, a maximum shared by directions 13 and
    21 (in the second and third blocks) and a constant orbit both report
    the first direction reaching the maximum."""
    monkeypatch.setattr(euclidean, "SCAN_CHUNK", 8)
    dirs = rotation_directions(2, 30)
    values = np.zeros(30)
    values[[13, 21]] = 5.0

    def by_direction(shape, z):
        angle = np.arctan2(z[:, 1].real, z[:, 0].real) % (2 * np.pi)
        return values[np.rint(angle / (2 * np.pi / 30)).astype(int) % 30] + 0j

    monkeypatch.setattr(euclidean, "fourier_laplace", by_direction)
    check = complex_sphere_vanishes(TRIANGLE, 1.5, rotation_samples=30)
    assert check.max_magnitude == 5.0
    assert check.worst_direction == tuple(dirs[13])
    values[:] = 2.0
    check = complex_sphere_vanishes(TRIANGLE, 1.5, rotation_samples=30)
    assert check.worst_direction == tuple(dirs[0])


def test_orbit_maximum_passes_over_nan(monkeypatch):
    """A NaN value never becomes the maximum; an orbit of NaN values only
    reports NaN, which does not count as vanishing."""
    monkeypatch.setattr(euclidean, "fourier_laplace", lambda shape, z: np.where(
        np.arange(len(z)) % 2 == 0, np.nan, 3.0 + 0j))
    check = complex_sphere_vanishes(TRIANGLE, 1.5, rotation_samples=6)
    assert check.max_magnitude == 3.0
    assert check.worst_direction == tuple(rotation_directions(2, 6)[1])
    monkeypatch.setattr(euclidean, "fourier_laplace",
                        lambda shape, z: np.full(len(z), np.nan + 0j))
    check = complex_sphere_vanishes(TRIANGLE, 1.5)
    assert math.isnan(check.max_magnitude) and not check.vanishes


def test_complex_extra_lambda_past_imag_cap_raises():
    with pytest.raises(ValueError, match="cap"):
        euclid_decide(SQUARE, (0, 1), grid=0.5, extra_lambdas=[2.0 + 60.0j])


class _Reached(Exception):
    pass


@pytest.mark.parametrize("shape,scan", [(BALL3, "radial_profile"),
                                        (SQUARE, "_orbit_maxima")])
def test_grid_cap_boundary(shape, scan, monkeypatch):
    """(hi - lo) / grid = 10^6 passes the cap and reaches the scan (stubbed
    out here); one more step is refused before anything is allocated."""
    assert euclidean.MAX_GRID_POINTS == 10 ** 6

    def reached(*args):
        raise _Reached

    monkeypatch.setattr(euclidean, scan, reached)
    with pytest.raises(_Reached):
        euclid_decide(shape, (0.0, 500000.0), grid=0.5)
    with pytest.raises(ValueError, match="cap"):
        euclid_decide(shape, (0.0, 500000.5), grid=0.5)
    with pytest.raises(ValueError, match="cap"):
        euclid_decide(shape, (0.0, 20.0), grid=1e-15)


def test_transform_at_zero_is_volume():
    union = DisjointUnion([Ball(1.0, 2), Annulus(2.0, 3.0, 2)])
    for shape in (DISK, BALL3, SQUARE, TRIANGLE, Annulus(1.0, 2.0, 2), union):
        val = fourier_laplace(shape, np.zeros(shape.dim))
        assert abs(val - shape.volume) < 1e-12


def test_square_closed_form_value():
    val = fourier_laplace(SQUARE, [math.pi, math.pi])
    assert abs(val - (-4.0 / math.pi ** 2)) < 1e-14


class _UnconvergingShape:
    """A rule of order q has q^dim zero-width nodes, and the estimate never
    settles.  A rule past order 512 or 2^23 nodes fails the test instead of
    being allocated."""

    def __init__(self, dim):
        self.dim = dim
        self.orders = []

    def quad_nodes(self, order):
        nodes = order ** self.dim
        assert order <= 512 and nodes <= 2 ** 23, \
            f"built a rule of order {order} with {nodes} nodes"
        self.orders.append(order)
        return np.empty((nodes, 0)), np.ones(nodes)


@pytest.mark.parametrize("dim,last_order", [(2, 512), (3, 128)])
def test_quadrature_stops_at_order_cap_and_node_budget(dim, last_order):
    shape = _UnconvergingShape(dim)
    with pytest.raises(QuadratureError, match=f"by order {last_order} "):
        integrate_over(shape, lambda p: np.full(len(p), float(len(p))))
    assert shape.orders[-1] == last_order


def test_disk_transform_value_and_quadrature():
    val = fourier_laplace(DISK, [2.0, 0.0])
    assert abs(val - PI_J1_2) < 1e-12
    oracle = integrate_over(DISK, lambda p: np.exp(-2j * p[:, 0]), 1e-10)
    assert abs(val - oracle) < 1e-8


def test_square_matches_separable_oracle():
    rng = np.random.default_rng(12)
    for _ in range(100):
        z = rng.uniform(-20, 20, 2) + 1j * rng.uniform(-2, 2, 2)
        assert abs(fourier_laplace(SQUARE, z) - _separable_box(z)) < 1e-10


def test_square_phase_collisions():
    for a in (1e-8, 1e-4, 0.3, 0.82, 2.0, 17.0):
        z = np.array([a, a], dtype=complex)
        assert abs(fourier_laplace(SQUARE, z) - _separable_box(z)) < 1e-11


def test_cube_transform_matches_separable():
    cube = Polytope([[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)])
    rng = np.random.default_rng(3)
    for _ in range(25):
        z = rng.uniform(-8, 8, 3) + 1j * rng.uniform(-1, 1, 3)
        assert abs(fourier_laplace(cube, z) - _separable_box(z)) < 1e-10


def test_ball_transforms_match_quadrature():
    rng = np.random.default_rng(21)
    for shape in (DISK, BALL3, Annulus(1.0, 2.0, 2)):
        for _ in range(12):
            z = (rng.uniform(-6, 6, shape.dim)
                 + 1j * rng.uniform(-1, 1, shape.dim))
            oracle = integrate_over(
                shape, lambda p: np.exp(-1j * (p @ z)), 1e-9)
            assert abs(fourier_laplace(shape, z) - oracle) < 1e-8


def test_rotation_identity():
    rng = np.random.default_rng(5)
    for _ in range(25):
        theta = rng.uniform(0, 2 * np.pi)
        rot = _rot2(theta)
        z = rng.uniform(-8, 8, 2) + 1j * rng.uniform(-1.5, 1.5, 2)
        lhs = fourier_laplace(SQUARE.rotated(rot), z)
        rhs = fourier_laplace(SQUARE, rot.T @ z)
        assert abs(lhs - rhs) < 1e-10
        # radial shapes are rotation invariant outright
        assert abs(fourier_laplace(DISK, z) - fourier_laplace(DISK, rot.T @ z)) < 1e-10


def test_translation_identity_polytope():
    rng = np.random.default_rng(6)
    for _ in range(25):
        t = rng.uniform(-2, 2, 2)
        z = rng.uniform(-8, 8, 2) + 1j * rng.uniform(-1.5, 1.5, 2)
        lhs = fourier_laplace(SQUARE.translated(t), z)
        rhs = np.exp(-1j * (z @ t)) * fourier_laplace(SQUARE, z)
        assert abs(lhs - rhs) < 1e-10


def test_translation_identity_ball_by_quadrature():
    rng = np.random.default_rng(7)
    for _ in range(6):
        t = rng.uniform(-1, 1, 2)
        z = rng.uniform(-4, 4, 2) + 1j * rng.uniform(-0.5, 0.5, 2)
        shifted = integrate_over(
            DISK, lambda p: np.exp(-1j * ((p + t) @ z)), 1e-9)
        assert abs(shifted - np.exp(-1j * (z @ t)) * fourier_laplace(DISK, z)) < 1e-8


def test_radial_transform_depends_only_on_bilinear_square():
    pairs = [
        (np.array([3.0, 4.0]), np.array([5.0, 0.0])),
        (np.array([3.0, 4.0j]), np.array([np.sqrt(-7.0 + 0j), 0.0])),
        (np.array([1.0 + 1.0j, 1.0 - 1.0j]), np.array([1.0, 1.0j])),
    ]
    for z1, z2 in pairs:
        s1 = complex(z1 @ z1)
        s2 = complex(z2 @ z2)
        assert abs(s1 - s2) < 1e-12
        assert abs(fourier_laplace(DISK, z1) - fourier_laplace(DISK, z2)) < 1e-10
        assert abs(fourier_laplace(BALL3, np.append(z1, 0.0))
                   - fourier_laplace(BALL3, np.append(z2, 0.0))) < 1e-10


def test_imag_cap_enforced():
    with pytest.raises(ValueError, match="cap"):
        fourier_laplace(DISK, [0.0, 60.0j])
    val = fourier_laplace(DISK, [0.0, 60.0j], imag_cap=100.0)
    assert np.isfinite(abs(val))


def test_complex_vector_bilinear_square():
    v = ComplexVector.of([3.0, 4.0j])
    assert v.dim == 2
    assert abs(v.bilinear_square - (9.0 - 16.0)) < 1e-15
    assert abs(fourier_laplace(DISK, v)
               - fourier_laplace(DISK, v.as_array())) < 1e-15


# ---------------------------------------------------------------------------
# orbit vanishing


def test_orbit_vanishes_on_disk_at_bessel_zero():
    check = complex_sphere_vanishes(DISK, J1_1)
    assert check.vanishes
    assert check.max_magnitude < 1e-9


def test_orbit_does_not_vanish_off_zero():
    check = complex_sphere_vanishes(DISK, 3.0)
    assert not check.vanishes
    assert abs(check.max_magnitude - math.pi * abs(scipy.special.j1(3.0))
               * 2 / 3.0) < 1e-10


@pytest.mark.parametrize("lam", [1.0, 2.5, 7.1])
def test_orbit_square_never_vanishes(lam):
    check = complex_sphere_vanishes(SQUARE, lam)
    assert not check.vanishes
    assert check.max_magnitude > 1e-6 * SQUARE.volume


def test_orbit_rejects_zero():
    with pytest.raises(ValueError, match="lambda = 0"):
        complex_sphere_vanishes(DISK, 0.0)


def test_rotation_directions_are_unit():
    for dim, count in ((2, 64), (3, 72)):
        dirs = rotation_directions(dim, count)
        assert dirs.shape == (count, dim)
        assert np.abs(np.linalg.norm(dirs, axis=1) - 1).max() < 1e-12
        assert len(np.unique(np.round(dirs, 9), axis=0)) == count


# ---------------------------------------------------------------------------
# failure-frequency search


def test_disk_failure_lambdas_match_bessel_zeros():
    roots = find_failure_lambdas(DISK, (0, 20))
    expected = scipy.special.jn_zeros(1, 6)
    assert len(roots) == 6
    for got, want in zip(roots, expected):
        assert abs(got - want) < 1e-8


def test_dilation_covariance():
    roots1 = find_failure_lambdas(Ball(1.0, 2), (0, 10))
    roots2 = find_failure_lambdas(Ball(2.0, 2), (0, 5))
    for a, b in zip(roots2, roots1):
        assert abs(a - b / 2.0) < 1e-8


def test_nonradial_rejected():
    with pytest.raises(ValueError, match="radial"):
        find_failure_lambdas(SQUARE, (0, 20))


def test_annulus_roots_match_scipy_profile():
    shape = Annulus(1.0, 2.0, 2)
    roots = find_failure_lambdas(shape, (0, 10))

    def profile(lam):
        return 2 * np.pi * (2 * scipy.special.j1(2 * lam)
                            - scipy.special.j1(lam)) / lam

    assert roots
    for root in roots:
        ref = scipy.optimize.brentq(profile, root - 0.02, root + 0.02,
                                    xtol=1e-12)
        assert abs(root - ref) < 1e-8


def test_ball3_roots_solve_tan_equation():
    roots = find_failure_lambdas(BALL3, (0, 15))
    assert len(roots) == 4
    for root in roots:
        assert abs(math.sin(root) - root * math.cos(root)) < 1e-8


def test_radial_union_profile_is_sum():
    union = DisjointUnion([Ball(1.0, 2), Annulus(2.0, 3.0, 2)])
    lam = 1.7
    val = radial_profile(union, lam)
    parts = (radial_profile(Ball(1.0, 2), lam)
             + radial_profile(Annulus(2.0, 3.0, 2), lam))
    assert abs(val - parts) < 1e-12
    roots = find_failure_lambdas(union, (0, 8))
    assert roots    # the union of rings still fails somewhere
    for root in roots:
        assert complex_sphere_vanishes(union, root).vanishes


def test_count_limits_roots():
    roots = find_failure_lambdas(DISK, (0, 20), count=2)
    assert len(roots) == 2


# ---------------------------------------------------------------------------
# convolution and rigid-motion checks


def _sample_ring(count=25, radius=3.0, dim=2):
    pts = [np.zeros(dim)]
    for u in rotation_directions(dim, count - 1):
        pts.append(u * radius * 0.9)
    return np.asarray(pts)


def test_convolution_vanishes_at_witness():
    assert convolution_test(DISK, J1_1, _sample_ring()) < 1e-6


def test_convolution_nonzero_off_witness():
    assert convolution_test(DISK, 3.0, _sample_ring()) > 1e-2


def test_convolution_at_zero_gives_volume():
    for shape in (DISK, SQUARE):
        val = convolution_test(shape, 0.0, [np.zeros(2)])
        assert abs(val - shape.volume) < 1e-10


def test_integral_check_disk():
    assert pompeiu_integral_check(DISK, J1_1, count=30, seed=7) < 1e-6
    assert pompeiu_integral_check(DISK, 3.0, count=5, seed=7) > 1e-2


def test_integral_check_identity_motion():
    identity = [RigidMotion(np.eye(2), np.zeros(2))]
    val = pompeiu_integral_check(SQUARE, 0.0, motions=identity)
    assert abs(val - SQUARE.volume) < 1e-10


def test_integral_check_requires_seed():
    with pytest.raises(ValueError, match="seed"):
        pompeiu_integral_check(DISK, 1.0, count=3)
    with pytest.raises(ValueError, match="motions or a seeded count"):
        pompeiu_integral_check(DISK, 1.0)


def test_random_motions_deterministic():
    a = random_motions(3, 4, seed=11)
    b = random_motions(3, 4, seed=11)
    for ma, mb in zip(a, b):
        assert np.array_equal(ma.rotation, mb.rotation)
        assert np.array_equal(ma.translation, mb.translation)


def test_rigid_motion_validation():
    with pytest.raises(ValueError, match="orthogonal"):
        RigidMotion(np.array([[1.0, 0.1], [0.0, 1.0]]), np.zeros(2))
    with pytest.raises(ValueError, match="determinant"):
        RigidMotion(np.array([[1.0, 0.0], [0.0, -1.0]]), np.zeros(2))


# ---------------------------------------------------------------------------
# decisions


def test_decide_disk():
    report = euclid_decide(DISK, (0, 20))
    assert report.verdict == "NotPompeiu"
    assert abs(report.lambda_witnesses[0] - J1_1) < 1e-8
    assert all(w > 0 for w in report.lambda_witnesses)


def test_decide_square_coarse():
    report = euclid_decide(SQUARE, (0, 20), grid=0.5, collect_landscape=True)
    assert report.verdict == "NoFailureFoundInRange"
    assert not report.lambda_witnesses
    assert min(mag for _, mag in report.landscape) > 1e-6 * SQUARE.volume
    assert report.caveat


def test_decide_annulus():
    report = euclid_decide(Annulus(1.0, 2.0, 2), (0, 10))
    assert report.verdict == "NotPompeiu"
    assert len(report.lambda_witnesses) >= 4


def test_decide_workers_deterministic():
    serial = euclid_decide(SQUARE, (0, 6), grid=0.5, collect_landscape=True)
    threaded = euclid_decide(SQUARE, (0, 6), grid=0.5, collect_landscape=True,
                             workers=4)
    assert serial.landscape == threaded.landscape
    assert serial.lambda_witnesses == threaded.lambda_witnesses


def test_landscape_reuses_the_radial_profile(monkeypatch):
    """The landscape of a radial shape is read off the profile values of
    the root search, not evaluated a second time."""
    import pompeiu.euclidean as euclidean
    rings = DisjointUnion([Ball(1.0, 2), Annulus(2.0, 3.0, 2)])
    calls = []

    def counted(shape, lam):
        calls.append(lam)
        return radial_profile(shape, lam)

    monkeypatch.setattr(euclidean, "radial_profile", counted)
    plain = euclid_decide(rings, (0, 10), grid=0.1)
    n_plain = len(calls)
    calls.clear()
    with_landscape = euclid_decide(rings, (0, 10), grid=0.1,
                                   collect_landscape=True)
    assert len(calls) == n_plain
    assert with_landscape.lambda_witnesses == plain.lambda_witnesses
    assert [lam for lam, _ in with_landscape.landscape] == pytest.approx(
        np.arange(0.1, 10.05, 0.1))
    for lam, mag in with_landscape.landscape:
        assert mag == abs(radial_profile(rings, lam))


def test_decide_extra_candidates():
    report = euclid_decide(DISK, (0, 2), extra_lambdas=[J1_1])
    assert report.verdict == "NotPompeiu"
    assert any(abs(w - J1_1) < 1e-9 for w in report.lambda_witnesses)
    benign = euclid_decide(DISK, (0, 2), extra_lambdas=[1.0 + 0.5j])
    assert benign.verdict == "NoFailureFoundInRange"
