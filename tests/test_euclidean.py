import math
import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.optimize
import scipy.special
from scipy.spatial import ConvexHull

import pompeiu.euclidean as euclidean
from pompeiu.euclidean import (RigidMotion, complex_sphere_vanishes,
                               convolution_test, euclid_decide,
                               exp_divided_difference, find_failure_lambdas,
                               fourier_laplace, pompeiu_integral_check,
                               radial_profile, random_motions,
                               rotation_directions, spherical_phi)
import pompeiu.shapes as shapes
from pompeiu.quadrature import QuadratureError, integrate_over
from pompeiu.shapes import Annulus, Ball, DisjointUnion, Polytope
from references import bisect_brackets

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


def _sphere_average(f, n: int = 64) -> complex:
    """Average of f over the unit 2-sphere: Gauss-Legendre in the polar
    cosine, equispaced trapezoid in azimuth."""
    u, wu = np.polynomial.legendre.leggauss(n)
    phi = 2.0 * np.pi * np.arange(2 * n) / (2 * n)
    sin_pol = np.sqrt(1.0 - u ** 2)
    x = np.outer(sin_pol, np.cos(phi))
    y = np.outer(sin_pol, np.sin(phi))
    z = np.outer(u, np.ones_like(phi))
    vals = f(np.stack([x.ravel(), y.ravel(), z.ravel()], axis=1)).reshape(x.shape)
    return complex((wu @ vals).sum() / (2.0 * len(phi)))


def test_phi_sphere_matches_quadrature():
    x = np.array([0.3, -1.1, 0.4])
    for lam in (2.0, 1.0 + 0.5j):
        direct = _sphere_average(lambda w: np.exp(1j * lam * (w @ x)))
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
    """exp[x_0, ..., x_k] at 50 digits: the Lagrange form when the nodes are
    pairwise farther apart than 1e-20 of their size, the corner of the
    exponential of the bidiagonal matrix otherwise, where the Lagrange
    form would cancel to nothing."""
    with mpmath.workdps(50):
        xs = [mpmath.mpc(complex(v)) for v in nodes]
        m = len(xs)
        size = max([mpmath.mpf(1)] + [abs(x) for x in xs])
        if all(abs(a - b) > 1e-20 * size for i, a in enumerate(xs) for b in xs[i + 1:]):
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


def _spread(x):
    """The largest distance of a row of nodes from their mean, and the
    smallest gap between two of them."""
    gaps = [abs(a - b) for i, a in enumerate(x) for b in x[i + 1:]]
    return np.abs(x - x.mean()).max(), min(gaps)


def _regime(x):
    """The regime the kernel documents for one row of nodes."""
    dev, gap = _spread(x)
    if dev <= euclidean.SERIES_RADIUS:
        return "series"
    return "lagrange" if gap >= 0.5 else "split"


def _boundary_rows(m, unit):
    """Rows on either side of each regime boundary, to 1e-9: spread
    SERIES_RADIUS (1 -+ 1e-9) with well spread nodes and with a close pair
    (series against Lagrange and split), and smallest gap 0.5 (1 -+ 1e-9)
    past the series radius (Lagrange against split)."""
    rows = []
    for base in (np.linspace(-1.0, 1.0, m), np.array([0.0, 0.01, 1.0, 1.7][:m])):
        for side in (1 - 1e-9, 1 + 1e-9):
            rows.append(base * (euclidean.SERIES_RADIUS * side / _spread(base)[0]))
    base = np.array([0.0, 1.0, 8.0, 17.0][:m])
    for side in (1 - 1e-9, 1 + 1e-9):
        rows.append(base * (0.5 * side / _spread(base)[1]))
    return [row * unit for row in rows]


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
    # two close pairs far apart: at m = 4 each half of the first split
    # still holds a close pair and a far node, and is split again
    for far_pairs in ([0.0, 0.01, 6.0, 6.01], [-20.0, -19.9, 20.0, 20.2]):
        rows.append(np.array(far_pairs[:m]) * unit)
    rows.extend(_boundary_rows(m, unit))
    return np.asarray(rows, dtype=complex)


@pytest.mark.parametrize("m", [3, 4])
@pytest.mark.parametrize("kind", ["imag", "real", "complex"])
def test_divided_difference_batch_matches_mpmath(m, kind):
    rows = _node_rows(m, kind, np.random.default_rng(10 * m + len(kind)))
    got = exp_divided_difference(rows)
    assert got.shape == (len(rows),)
    assert {_regime(x) for x in rows} == {"series", "lagrange", "split"}
    for x, value in zip(rows, got):
        ref = _mp_divided_difference(x)
        assert abs(value - ref) <= 1e-12 * abs(ref), (x, value, ref)
        assert exp_divided_difference(x) == pytest.approx(value, rel=1e-14)


def _record_columns(monkeypatch):
    """Record the node count and the dtype of the nodes t = lam q of every
    `_divided_differences` call, the recursive ones included."""
    calls = []
    inner = euclidean._divided_differences

    def recorded(lam, q, *entries):
        calls.append((len(q), np.result_type(lam, q)))
        return inner(lam, q, *entries)

    monkeypatch.setattr(euclidean, "_divided_differences", recorded)
    return calls


@pytest.mark.parametrize("kind", ["imag", "real", "complex"])
def test_two_close_pairs_far_apart_split_twice(kind, monkeypatch):
    """The rows `_node_rows` adds for this go through both levels of split
    (their values are held to 50 digits by the batch test), in real
    arithmetic at every level when the nodes are on the imaginary axis and
    in complex arithmetic otherwise."""
    unit = {"imag": 1j, "real": 1.0, "complex": (1 + 1j) / math.sqrt(2)}[kind]
    calls = _record_columns(monkeypatch)
    for row in ([0.0, 0.01, 6.0, 6.01], [-20.0, -19.9, 20.0, 20.2]):
        calls.clear()
        exp_divided_difference(np.array(row) * unit)
        assert [size for size, _ in calls] == [4, 3, 2]
        want = np.float64 if kind == "imag" else np.complex128
        assert all(dtype == want for _, dtype in calls), calls


def test_two_nodes():
    """The centred series for a narrow pair (gap at most 4, twice
    SERIES_RADIUS), the Lagrange form for a wider one; the gaps include
    1.6 (1 -+ 1e-9) and both sides of the boundary 4."""
    assert exp_divided_difference([0.0, 0.0]) == 1.0
    ref = _mp_divided_difference([0.0, 1e-300])
    assert abs(exp_divided_difference([0.0, 1e-300]) - ref) <= 1e-15 * abs(ref)
    # e^-1500 underflows and sinh(750) overflows: no inf * 0
    assert exp_divided_difference([-1500.0, 0.0]) == pytest.approx(1 / 1500, rel=1e-15)
    rows = []
    for unit in (1.0, 1j, (3 + 4j) / 5):
        for gap in (1e-12, 0.3, 1.5, 1.6 * (1 - 1e-9), 1.6 * (1 + 1e-9), 1.7,
                    4 * (1 - 1e-9), 4 * (1 + 1e-9), 40.0):
            rows.append([0.7 - 0.4j, 0.7 - 0.4j + gap * unit])
    rows = np.array(rows)
    assert {_regime(x) for x in rows} == {"series", "lagrange"}
    for x, value in zip(rows, exp_divided_difference(rows)):
        ref = _mp_divided_difference(x)
        assert abs(value - ref) <= 1e-12 * abs(ref), (x, value, ref)


def test_two_nodes_on_the_imaginary_axis(monkeypatch):
    """The narrow and wide pairs of `test_two_nodes` moved onto the
    imaginary axis, where they run in real arithmetic: the centred series
    on t = -i x up to a gap of 4, the Lagrange form past it."""
    calls = _record_columns(monkeypatch)
    gaps = (1e-12, 0.3, 1.5, 1.6 * (1 - 1e-9), 1.6 * (1 + 1e-9), 1.7,
            4 * (1 - 1e-9), 4 * (1 + 1e-9), 40.0)
    rows = np.array([[-0.4j, (gap - 0.4) * 1j] for gap in gaps])
    assert {_regime(x) for x in rows} == {"series", "lagrange"}
    for x, value in zip(rows, exp_divided_difference(rows)):
        ref = _mp_divided_difference(x)
        assert abs(value - ref) <= 1e-12 * abs(ref), (x, value, ref)
    assert calls == [(2, np.float64)]


MOVED_SQUARE = Polytope(np.array([[0, 0], [1, 0], [1, 1], [0, 1]]) @ _rot2(0.7).T
                        + [0.4, -1.1])
MOVED_CUBE = Polytope(np.array([[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)])
                      @ np.linalg.qr(np.random.default_rng(3).standard_normal((3, 3)))[0].T
                      + [0.3, -0.8, 1.1])


@pytest.mark.parametrize("shape", [MOVED_SQUARE, MOVED_CUBE], ids=["square", "cube"])
def test_real_frequencies_give_the_complex_transform(shape, monkeypatch):
    """A real z is kept real down to the divided differences; the values
    are complex and equal those at the same z passed as a complex array."""
    calls = _record_columns(monkeypatch)
    z = np.random.default_rng(6).uniform(-15, 15, (300, shape.dim))
    values = fourier_laplace(shape, z)
    assert calls and all(dtype == np.float64 for _, dtype in calls)
    assert values.dtype == np.complex128
    assert isinstance(fourier_laplace(shape, z[0]), complex)
    np.testing.assert_allclose(values, fourier_laplace(shape, z.astype(complex)), rtol=1e-14)


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


def _record_blocks(monkeypatch):
    """Record the frequencies and directions of every block the orbit scan
    evaluates."""
    blocks = []
    inner = euclidean._orbit_values

    def recorded(shape, lams, dirs):
        blocks.append((len(lams), len(dirs)))
        return inner(shape, lams, dirs)

    monkeypatch.setattr(euclidean, "_orbit_values", recorded)
    return blocks


@pytest.mark.parametrize("dim,lam_hi,samples,chunk", [
    pytest.param(2, 18.5, 64, 2048, id="2-18.5-64"),
    pytest.param(3, 7.4, 400, 2048, id="3-7.4-400"),
    pytest.param(2, 18.5, 1000, None, id="2-18.5-1000"),
    pytest.param(3, 7.4, 3000, None, id="3-7.4-3000"),
    pytest.param(3, 7.4, 400, 97, id="3-7.4-400-97"),
])
def test_polytope_landscape_matches_moved_box_across_chunks(dim, lam_hi, samples, chunk,
                                                            monkeypatch):
    """37 frequencies: a grid that is not a multiple of the block in either
    dimension.  In blocks of 2048 triples the square's orbit (one direction
    per antipodal pair of 64) spans two blocks of directions and the cube's
    (6 tetrahedra, all 400 directions) many; in blocks of SCAN_CHUNK the
    square's orbit of 1000 spans three and the cube's of 3000 many; in
    blocks of 97 the cube's grid also spans three blocks of frequencies.  No
    block holds more than its bound of (frequency, direction, simplex)
    triples."""
    if chunk is not None:
        monkeypatch.setattr(euclidean, "SCAN_CHUNK", chunk)
    chunk = euclidean.SCAN_CHUNK
    rng = np.random.default_rng(dim)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    rot = q * np.sign(np.linalg.det(q))
    unit = np.array([[(k >> i) & 1 for i in range(dim)] for k in range(2 ** dim)])
    box = Polytope(unit @ rot.T + rng.uniform(-1, 1, dim))
    grid = lam_hi / 37
    per_dir = len(box.simplices())
    assert per_dir == (2 if dim == 2 else 6)
    triples = (samples // 2 if dim == 2 else samples) * per_dir
    assert 37 * triples % chunk != 0
    assert (triples > chunk) == (dim == 3)
    blocks = _record_blocks(monkeypatch)
    report = euclid_decide(box, (0.0, lam_hi), grid=grid,
                           rotation_samples=samples, collect_landscape=True)
    sizes = [lams * dirs * per_dir for lams, dirs in blocks]
    assert sum(sizes) == 37 * triples
    assert max(sizes) <= chunk
    assert len(blocks) > 1
    assert (max(lams for lams, _ in blocks) < 37) == (37 * per_dir > chunk)
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
    21 (in the second and third blocks of the 23 scanned, one per antipodal
    pair of 46) and a constant orbit both report the first direction
    reaching the maximum."""
    monkeypatch.setattr(euclidean, "SCAN_CHUNK", 8)
    dirs = rotation_directions(2, 46)
    values = np.zeros(46)
    values[[13, 21]] = 5.0
    seen = []

    def by_direction(shape, lams, block):
        angle = np.arctan2(block[:, 1], block[:, 0]) % (2 * np.pi)
        index = np.rint(angle / (2 * np.pi / 46)).astype(int) % 46
        seen.append(index)
        return np.broadcast_to(values[index] + 0j, (len(lams), len(block)))

    monkeypatch.setattr(euclidean, "_orbit_values", by_direction)
    check = complex_sphere_vanishes(TRIANGLE, 1.5, rotation_samples=46)
    assert [b.tolist() for b in seen] == [list(range(0, 8)), list(range(8, 16)),
                                          list(range(16, 23))]
    assert check.max_magnitude == 5.0
    assert check.worst_direction == tuple(dirs[13])
    values[:] = 2.0
    check = complex_sphere_vanishes(TRIANGLE, 1.5, rotation_samples=46)
    assert check.worst_direction == tuple(dirs[0])


def test_circle_directions_come_in_exact_antipodal_halves():
    """An even count ends with the negation of its first half, bit for bit,
    which differs from cos/sin of the equispaced angles by rounding alone
    (at most 8 units of 2^-52 on these unit vectors); an odd count is
    cos/sin itself."""
    for count in (2, 30, 64, 63):
        theta = 2.0 * np.pi * np.arange(count) / count
        trig = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        dirs = rotation_directions(2, count)
        assert np.abs(dirs - trig).max() <= 8 * np.spacing(1.0)
        if count % 2:
            assert np.array_equal(dirs, trig)
        else:
            assert np.array_equal(dirs[count // 2:], -dirs[:count // 2])
            assert np.array_equal(dirs[:count // 2], trig[:count // 2])


def _random_polygon(seed):
    return Polytope(np.random.default_rng(seed).uniform(-1.5, 1.5, (9, 2)))


@pytest.mark.parametrize("shape", [
    _random_polygon(1), _random_polygon(2), MOVED_SQUARE,
    DisjointUnion([_random_polygon(3), Polytope(_random_polygon(4).vertices + 4.0)]),
], ids=["polygon-1", "polygon-2", "moved-square", "union"])
def test_halved_orbit_scan_equals_the_full_orbit(shape):
    """At real frequencies the scan of one direction per antipodal pair
    gives the maximum of |transform| over all 64 directions, evaluated
    directly by the scan's block evaluator, to 1e-15 relative, and by
    `fourier_laplace` at the points lam u, whose nodes -(lam u).v round
    differently from the scan's lam (-u.v), to 1e-13."""
    lams = np.linspace(0.3, 25.0, 41)
    dirs = rotation_directions(2, 64)
    got, worst = euclidean._orbit_maxima(shape, lams, dirs)
    assert worst.max() < 32
    full = np.abs(euclidean._orbit_values(shape, lams, dirs)).max(axis=1)
    assert np.all(np.abs(got - full) <= 1e-15 * full)
    z = (lams[:, None, None] * dirs[None]).reshape(-1, 2)
    points = np.abs(fourier_laplace(shape, z)).reshape(len(lams), 64).max(axis=1)
    assert np.all(np.abs(got - points) <= 1e-13 * points)


def test_complex_frequencies_and_odd_counts_scan_every_direction(monkeypatch):
    """Only a real frequency on exactly antipodal directions is halved: a
    complex frequency, an odd count, the 3-D lattice and directions that
    are antipodal only to rounding scan every direction."""
    rows = []
    inner = euclidean._orbit_values

    def counted(shape, lams, dirs):
        rows.append(len(lams) * len(dirs))
        return inner(shape, lams, dirs)

    monkeypatch.setattr(euclidean, "_orbit_values", counted)
    cube = Polytope([[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)])
    for shape, lam, count, scanned in [(TRIANGLE, 2.0, 64, 32),
                                       (TRIANGLE, 2.0 + 0j, 64, 32),
                                       (TRIANGLE, 2.0 + 0.5j, 64, 64),
                                       (TRIANGLE, 2.0, 63, 63),
                                       (cube, 2.0, 72, 72)]:
        rows.clear()
        complex_sphere_vanishes(shape, lam, count)
        assert sum(rows) == scanned, (lam, count)
    theta = 2.0 * np.pi * np.arange(64) / 64
    rows.clear()
    euclidean._orbit_maxima(TRIANGLE, np.array([2.0]),
                            np.stack([np.cos(theta), np.sin(theta)], axis=1))
    assert sum(rows) == 64
    rows.clear()
    euclid_decide(TRIANGLE, (0.0, 2.0), grid=0.5, rotation_samples=64)
    assert sum(rows) == 4 * 32


def _centroid_cone_transform(poly, z):
    """The transform summed over the cone from the centroid to every hull
    triangle, as the polytope was split before the vertex fan."""
    hull = ConvexHull(poly.vertices)
    center = poly.vertices.mean(axis=0)
    total = 0
    for face in hull.simplices:
        verts = np.vstack([center, poly.vertices[face]])
        det = abs(np.linalg.det(verts[1:] - verts[0]))
        total = total + det * exp_divided_difference(-1j * (z @ verts.T))
    return total


_CUBE = [[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)]
_TETRA = [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]


@pytest.mark.parametrize("vertices,count", [
    (_CUBE, 6),
    (np.array(_CUBE) @ np.linalg.qr(np.random.default_rng(3).standard_normal((3, 3)))[0].T
     + [0.3, -0.8, 1.1], 6),
    (_TETRA, 1),
    ([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]], 4),
    (np.random.default_rng(5).standard_normal((14, 3)), None),
], ids=["cube", "moved-cube", "tetrahedron", "octahedron", "random"])
def test_vertex_fan_partitions_the_polytope(vertices, count):
    """The fan from vertices[0] keeps one tetrahedron per hull triangle off
    the facets through that vertex (6 for a cube, 1 for a tetrahedron), none
    of them flat; their volumes sum to the hull's, and transforms equal the
    centroid-cone split's."""
    poly = Polytope(vertices)
    hull = ConvexHull(poly.vertices)
    if count is None:       # points in general position: every facet a triangle
        count = int((~(hull.simplices == 0).any(axis=1)).sum())
    tets = np.stack(poly.simplices())
    assert len(tets) == count
    assert np.array_equal(tets[:, 0], np.broadcast_to(poly.vertices[0], (count, 3)))
    vols = np.abs(np.linalg.det(tets[:, 1:] - tets[:, :1])) / 6.0
    assert vols.min() > 1e-9 * poly.volume
    assert abs(vols.sum() - poly.volume) <= 1e-12 * poly.volume
    rng = np.random.default_rng(len(tets))
    z = rng.uniform(-9, 9, (200, 3)) + 1j * rng.uniform(-2, 2, (200, 3))
    np.testing.assert_allclose(fourier_laplace(poly, z), _centroid_cone_transform(poly, z),
                               rtol=1e-12, atol=1e-12 * poly.volume)


def test_orbit_maximum_passes_over_nan(monkeypatch):
    """A NaN value never becomes the maximum; an orbit of NaN values only
    reports NaN, which does not count as vanishing."""
    monkeypatch.setattr(euclidean, "_orbit_values", lambda shape, lams, dirs: np.where(
        np.arange(len(dirs)) % 2 == 0, np.nan, 3.0 + 0j) * np.ones((len(lams), 1)))
    check = complex_sphere_vanishes(TRIANGLE, 1.5, rotation_samples=6)
    assert check.max_magnitude == 3.0
    assert check.worst_direction == tuple(rotation_directions(2, 6)[1])
    monkeypatch.setattr(euclidean, "_orbit_values",
                        lambda shape, lams, dirs: np.full((len(lams), len(dirs)), np.nan + 0j))
    check = complex_sphere_vanishes(TRIANGLE, 1.5)
    assert math.isnan(check.max_magnitude) and not check.vanishes


def _mp_orbit_maximum(shape, lam, dirs):
    """max over the rows u of dirs of |transform at lam u| at 50 digits: a
    polytope's simplices by `_mp_divided_difference` at the nodes
    i lam (-u.v), radial members by their closed forms."""
    def value(member, u):
        if isinstance(member, DisjointUnion):
            return sum(value(part, u) for part in member.members)
        if isinstance(member, Ball):
            w = mpmath.mpc(lam) * member.radius
            if member.dim == 2:
                return 2 * mpmath.pi * member.radius ** 2 * mpmath.besselj(1, w) / w
            return 4 * mpmath.pi * member.radius ** 3 * (mpmath.sin(w) - w * mpmath.cos(w)) / w ** 3
        m = member.simplices().shape[1]
        total = 0
        for verts, det in zip(member.simplices(), member.simplex_dets):
            q = -(u @ verts.T)
            with mpmath.workdps(50):
                total += det * mpmath.mpc(_mp_divided_difference(1j * lam * q))
        return total

    with mpmath.workdps(50):
        return max(float(abs(value(shape, u))) for u in dirs)


def _boundary_frequencies(shape, dirs):
    """Frequencies lam at which |lam| times a column constant of the scan
    crosses a regime boundary to 1e-9 on either side: the spread of the
    nodes q = -u.v of a (direction, simplex) column from their mean at
    SERIES_RADIUS, and the smallest gap of a column with a close pair at
    0.5 (past the series radius there), each at the smallest such frequency
    and the largest below 40."""
    polytopes = [m for m in getattr(shape, "members", [shape]) if isinstance(m, Polytope)]
    q = np.concatenate([-(dirs @ p.simplices().transpose(0, 2, 1)).reshape(-1, p.dim + 1)
                        for p in polytopes])
    dev = np.abs(q - q.mean(axis=1, keepdims=True)).max(axis=1)
    gap = np.min([np.abs(q[:, a] - q[:, b]) for a in range(q.shape[1])
                  for b in range(a + 1, q.shape[1])], axis=0)
    close = 0.5 / gap[(dev > 4 * gap * euclidean.SERIES_RADIUS) & (gap > 0.5 / 40)]
    wide = euclidean.SERIES_RADIUS / dev
    crossings = [wide.min(), wide[wide < 40].max(), close.min(), close.max()]
    lams = np.array([x * side for x in crossings for side in (1 - 1e-9, 1 + 1e-9)])
    return lams, q, dev, gap


@pytest.mark.parametrize("shape,count", [
    (_random_polygon(1), 64),
    (MOVED_CUBE, 16),
    (DisjointUnion([TRIANGLE, Polytope([[2, 2], [3, 2], [2.5, 3], [2, 3]])]), 64),
    (DisjointUnion([Ball(0.5, 2), Polytope(_random_polygon(4).vertices + 4.0)]), 64),
], ids=["polygon", "polyhedron", "polytope-union", "disk-polygon-union"])
def test_orbit_scan_matches_fifty_digits_across_regime_boundaries(shape, count):
    """The orbit maxima of the scan against `_mp_orbit_maximum`, to 1e-12
    relative, at real and complex frequencies, on grids holding every
    regime boundary of the scan's columns to 1e-9 on either side: the
    columns at those frequencies take all three regimes."""
    dirs = rotation_directions(shape.dim, count)
    lams, q, dev, gap = _boundary_frequencies(shape, dirs)
    lams = np.concatenate([lams, [0.37, 7.5]])
    size = np.abs(lams)[:, None]
    series = size * dev <= euclidean.SERIES_RADIUS
    lagrange = ~series & (size * gap >= 0.5)
    assert series.any() and lagrange.any() and (~series & ~lagrange).any()
    for grid in (lams, lams * (0.6 + 0.8j)):
        got, _ = euclidean._orbit_maxima(shape, grid, dirs)
        ref = [_mp_orbit_maximum(shape, lam, dirs) for lam in grid]
        assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref)), (grid, got, ref)


def test_orbit_scan_at_extreme_frequencies_stays_finite():
    """At 1e-12, 1e12 and 3e15 the scan meets no overflow, division by zero
    or invalid operation (numpy would warn of each) and gives finite maxima:
    a split half with a confluent pair (the triangle's edge orthogonal to a
    direction) takes the series at any frequency, whose powers of lam would
    overflow unscaled.  At 1e-12 the maximum is the volume."""
    shape = DisjointUnion([TRIANGLE, Polytope([[2, 2], [3, 2], [2.5, 3], [2, 3]])])
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        got, _ = euclidean._orbit_maxima(shape, np.array([1e-12, 1e12, 3e15]),
                                         rotation_directions(2, 64))
    assert np.isfinite(got).all() and (got > 0).all()
    assert got[0] == pytest.approx(shape.volume, rel=1e-12)


@pytest.mark.parametrize("shape", [TRIANGLE, DISK], ids=["triangle", "disk"])
def test_orbit_checks_refuse_invalid_input(shape, monkeypatch):
    """A count of rotation samples below 1 and a frequency that is not
    finite raise ValueError, before any scan; so does a non-finite extra
    frequency of euclid_decide."""
    monkeypatch.setattr(euclidean, "_orbit_maxima", None)
    for count in (0, -1, -64):
        with pytest.raises(ValueError, match=r"rotation samples must be in 1\.\."):
            complex_sphere_vanishes(shape, 1.5, rotation_samples=count)
    for lam in (math.nan, math.inf, -math.inf, complex(1.0, math.nan), complex(math.inf, 1.0)):
        with pytest.raises(ValueError, match="must be finite"):
            complex_sphere_vanishes(shape, lam)
        with pytest.raises(ValueError, match="must be finite"):
            euclid_decide(shape, (0, 1), grid=0.5, extra_lambdas=[2.0, lam])


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


@pytest.mark.parametrize("grid", [0.0, -0.5, math.nan, math.inf])
def test_failure_search_refuses_a_bad_grid_step(grid):
    """The radial search shares `euclid_decide`'s grid check: a step that
    is not finite and positive is a ValueError, not a division by zero or
    numpy's arange error."""
    with pytest.raises(ValueError, match="grid step must be finite and positive"):
        find_failure_lambdas(DISK, (0, 20), grid=grid)


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


def test_reports_are_hashable_values():
    """A report holds only tuples: two equal decisions are equal and hash
    equal, with or without a landscape, and nothing in one can change."""
    first, second = euclid_decide(DISK, (0, 5)), euclid_decide(DISK, (0, 5))
    assert first == second and hash(first) == hash(second)
    landscape = euclid_decide(DISK, (0, 5), collect_landscape=True)
    assert hash(landscape) == hash(euclid_decide(DISK, (0, 5), collect_landscape=True))
    assert landscape != first
    assert dict(first.tolerances) == {"vanish": euclidean.DEFAULT_VANISH_TOL,
                                      "quadrature": euclidean.DEFAULT_TOL,
                                      "bisect": euclidean.BISECT_TOL}


# ---------------------------------------------------------------------------
# array radial search and shared quadrature rules


RINGS = DisjointUnion([Ball(1.0, 2), Annulus(2.0, 3.0, 2)])
# the radial shapes and ranges of the euclid-radial-witnesses benchmark
RADIAL_WORKLOAD = [(DISK, 20.0), (BALL3, 20.0), (Annulus(1.0, 2.0, 2), 20.0),
                   (RINGS, 10.0), (Annulus(2.0, 3.0, 3), 6.0)]


def _bits(values):
    return np.asarray(values, dtype=complex).view(np.int64)


@pytest.mark.parametrize("shape,hi", RADIAL_WORKLOAD)
def test_array_radial_profile_is_bit_identical_to_scalar_calls(shape, hi):
    xs = euclidean._frequency_grid((0.0, hi), euclidean.DEFAULT_GRID)
    batch = radial_profile(shape, xs)
    assert batch.dtype == np.complex128 and batch.shape == xs.shape
    scalar = [radial_profile(shape, float(x)) for x in xs]
    assert all(type(v) is complex for v in scalar)
    assert np.array_equal(_bits(batch), _bits(scalar))


@pytest.mark.parametrize("shape", [DISK, BALL3], ids=["disk", "ball3"])
def test_large_complex_radial_profile_is_bit_identical_to_scalar_calls(shape):
    """30 000 complex frequencies, past the 16 384 entries at which numpy
    starts to reuse temporaries in place: every tenth entry has the bits of
    the scalar call."""
    lams = np.arange(1, 30_001) * 0.05 + 0.3j
    batch = radial_profile(shape, lams)
    sample = np.arange(0, len(lams), 10)
    scalar = [radial_profile(shape, complex(x)) for x in lams[sample]]
    assert np.array_equal(_bits(batch[sample]), _bits(scalar))


def _scalar_roots(profile, lam_range, grid, count=None):
    """The search one value at a time: each grid value, then each bracket
    bisected on its own until it is shorter than BISECT_TOL or meets an
    exact zero at a midpoint."""
    def f(lam):
        return profile(lam).real
    xs = euclidean._frequency_grid(lam_range, grid)
    vals = [f(float(x)) for x in xs]
    roots = []
    for i in range(len(xs) - 1):
        a, b, fa, fb = float(xs[i]), float(xs[i + 1]), vals[i], vals[i + 1]
        if fa == 0.0:
            roots.append(a)
            continue
        if fa * fb < 0:
            fa = f(a)
            while b - a > euclidean.BISECT_TOL:
                m = 0.5 * (a + b)
                fm = f(m)
                if fm == 0.0:
                    break
                if fa * fm < 0:
                    b = m
                else:
                    a, fa = m, fm
            else:
                m = 0.5 * (a + b)
            roots.append(m)
        if count is not None and len(roots) >= count:
            break
    if vals and vals[-1] == 0.0 and (count is None or len(roots) < count):
        roots.append(float(xs[-1]))
    return roots


@pytest.mark.parametrize("shape,hi", RADIAL_WORKLOAD)
def test_all_at_once_bisection_equals_scalar_reference(shape, hi):
    def profile(lam):
        return radial_profile(shape, lam)
    for count in (None, 1, 3):
        got = find_failure_lambdas(shape, (0.0, hi), count=count)
        assert got == _scalar_roots(profile, (0.0, hi), euclidean.DEFAULT_GRID, count)
        assert all(type(r) is float for r in got)


# disk and annulus (3, 3.02): a shell 1/151 of its outer radius wide
DISK_AND_THIN_RING = DisjointUnion([DISK, Annulus(3.0, 3.02, 2)])


@pytest.mark.parametrize("grid", [0.013, 0.05, 0.1])
@pytest.mark.parametrize("shape,hi", RADIAL_WORKLOAD + [(DISK_AND_THIN_RING, 20.0)],
                         ids=["disk", "ball3", "annulus", "rings", "annulus3", "disk+ring"])
def test_heap_bisection_equals_the_step_by_step_reference(shape, hi, grid, monkeypatch):
    """Roots bisected on the heap of BISECT_LEVELS levels of midpoints per
    profile call have the bits of one profile call per step
    (`references.bisect_brackets`), with and without a count; the search
    makes the grid call, ceil(30 / BISECT_LEVELS) heap calls at most (no
    bracket of these grids takes more than 30 steps) and the orbit check."""
    profile = euclidean.radial_profile
    for count in (None, 3):
        calls = []
        monkeypatch.setattr(euclidean, "radial_profile",
                            lambda shape, lam: calls.append(lam) or profile(shape, lam))
        got = find_failure_lambdas(shape, (0.0, hi), count=count, grid=grid)
        assert len(calls) <= 2 + math.ceil(30 / euclidean.BISECT_LEVELS)
        monkeypatch.setattr(euclidean, "_bisect_brackets", bisect_brackets)
        want = find_failure_lambdas(shape, (0.0, hi), count=count, grid=grid)
        monkeypatch.undo()
        assert got and [r.hex() for r in got] == [r.hex() for r in want]


def test_heap_bisection_ends_each_bracket_at_its_own_depth(monkeypatch):
    """A stub profile, x - root on [i, i + 1) times a sign alternating with
    i, over six brackets: an exact zero at the heap's second level (0.25
    in [0, 1]), 2 steps, 29 steps (across six heaps), 14 steps, none (a
    bracket already shorter than BISECT_TOL) and an exact zero at the
    second level of the second heap (6 + 37/128, the 7th midpoint of
    [6, 7]).  The heap and the step-by-step reference give the same bits."""
    a = np.array([0.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    b = a + np.array([1.0, 3e-10, 0.05, 2.0 ** -20, 5e-11, 1.0])
    roots = np.array([0.25, 2 + 1e-10, 3.0123, 4 + 3e-7, 5 + 2e-11, 6 + 37 / 128])
    root_on, sign_on = np.zeros(7), np.zeros(7)     # by floor(x)
    root_on[a.astype(int)], sign_on[a.astype(int)] = roots, [1, -1, 1, -1, 1, -1]
    calls = []

    def stub(shape, lam):
        calls.append(np.size(lam))
        i = np.floor(lam).astype(int)
        return (lam - root_on[i]) * sign_on[i] + 0j

    monkeypatch.setattr(euclidean, "radial_profile", stub)
    fa = stub(None, a).real
    calls.clear()
    got = euclidean._bisect_brackets(None, a, b, fa)
    heap_calls, calls[:] = len(calls), []
    want = bisect_brackets(None, a, b, fa)
    assert [r.hex() for r in got] == [r.hex() for r in want]
    assert got[0] == 0.25 and got[5] == 6 + 37 / 128 and got[4] == 0.5 * (a[4] + b[4])
    assert (np.abs(got - roots) < 1e-10).all()
    assert heap_calls == 6 and len(calls) == 29


@pytest.mark.parametrize("shape,hi,levels", [(DISK, 600.0, 3), (Annulus(1.0, 2.0, 2), 200.0, 4),
                                              (RINGS, 2000.0, 1)],
                         ids=["disk-190", "annulus-126", "rings-1909"])
def test_heap_bisection_takes_fewer_levels_on_many_brackets(shape, hi, levels, monkeypatch):
    """With many brackets a call takes the levels whose heap stays within
    BISECT_POINTS points (190 brackets: 3 levels, 126: 4, 1909: 1), so a
    0.05-wide bracket's 29 steps take ceil(29 / levels) calls; the roots
    have the bits of the step-by-step reference."""
    xs = np.arange(0.0, hi + 1e-9, 0.05)
    vals = radial_profile(shape, xs).real
    i = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
    profile, sizes = euclidean.radial_profile, []
    monkeypatch.setattr(euclidean, "radial_profile",
                        lambda shape, lam: sizes.append(np.size(lam)) or profile(shape, lam))
    got = euclidean._bisect_brackets(shape, xs[i], xs[i + 1], vals[i])
    assert sizes == [len(i) * (2 ** levels - 1)] * math.ceil(29 / levels)
    assert max(sizes) <= max(euclidean.BISECT_POINTS, len(i))
    want = bisect_brackets(shape, xs[i], xs[i + 1], vals[i])
    assert [r.hex() for r in got] == [r.hex() for r in want]


@pytest.mark.parametrize("shape, profile", [
    (Ball(1.0), scipy.special.j1),
    (Ball(1.0, 3), lambda x: np.sin(x) - x * np.cos(x)),
], ids=["disk", "ball3"])
def test_bisection_ends_where_an_ulp_exceeds_the_tolerance(shape, profile, monkeypatch):
    """Above 2^19 one ulp of lambda, 2^-33, exceeds BISECT_TOL, so a bracket
    one ulp wide has its midpoint on an end; it stops there.  The roots in
    600000:600010, J1's zeros for the disk and those of sin x - x cos x
    for the 3-D ball, are found within two ulps, in a few profile calls."""
    calls, radial_profile = [], euclidean.radial_profile

    def counted(shape, lams):
        calls.append(len(lams))
        assert len(calls) < 100, "the bisection does not end"
        return radial_profile(shape, lams)
    monkeypatch.setattr(euclidean, "radial_profile", counted)
    roots = euclidean.find_failure_lambdas(shape, (600000.0, 600010.0))
    xs = np.linspace(600000.0, 600010.0, 201)
    want = [scipy.optimize.brentq(profile, x0, x1, xtol=1e-12)
            for x0, x1 in zip(xs, xs[1:]) if profile(x0) * profile(x1) < 0]
    assert len(roots) == len(want) == 3
    assert np.max(np.abs(np.subtract(roots, want))) <= 2 ** -32
    monkeypatch.setattr(euclidean, "radial_profile", radial_profile)
    a, b = np.array([600000.0]), np.array([np.nextafter(600000.0, np.inf)])
    for bisect in (euclidean._bisect_brackets, bisect_brackets):
        assert bisect(shape, a, b, radial_profile(shape, a).real)[0] in (a[0], b[0])


def test_bisection_takes_exact_zeros_on_the_grid_and_at_midpoints(monkeypatch):
    """A stub profile with exact zeros at a grid point, at the first
    midpoint of a bracket and at the last grid point, next to an ordinary
    root: the array search and the scalar reference agree bit for bit."""
    xs = euclidean._frequency_grid((0.0, 3.0), 0.1)
    zeros = [xs[5], 0.5 * (xs[12] + xs[13]), xs[20] + 0.0123, xs[-1]]

    def stub(shape, lam):
        out = 1.0
        for z in zeros:
            out = out * (lam - z)
        return out + 0j

    monkeypatch.setattr(euclidean, "radial_profile", stub)
    monkeypatch.setattr(euclidean, "DEFAULT_VANISH_TOL", math.inf)  # every root vanishes
    for count in (None, 1, 2, 3, 4, 5):
        got = find_failure_lambdas(DISK, (0.0, 3.0), count=count, grid=0.1)
        want = _scalar_roots(lambda lam: stub(None, lam), (0.0, 3.0), 0.1, count)
        assert got == want
    full = find_failure_lambdas(DISK, (0.0, 3.0), grid=0.1)
    assert full[0] == xs[5] and full[1] == zeros[1] and full[-1] == xs[-1]
    assert abs(full[2] - zeros[2]) < 1e-10


def test_integrate_over_rows_match_one_call_per_integrand():
    fns = [lambda p: np.exp(-2j * p[:, 0]),
           lambda p: np.cos(3.0 * p[:, 1]),
           lambda p: spherical_phi(3.0, p + np.array([0.5, -0.2]), 2)]
    for shape in (DISK, SQUARE, Annulus(1.0, 2.0, 2)):
        together = integrate_over(shape, lambda p, idx: (fns[i](p) for i in idx),
                                  1e-10, len(fns))
        assert isinstance(together, list) and len(together) == 3
        for f, val in zip(fns, together):
            single = integrate_over(shape, f, 1e-10)
            assert type(single) is complex
            assert abs(val - single) < 1e-10


class _CountingShape:
    """A one-point rule of weight 1 per order; the integrands see the order
    through the number of points, len(p) = order."""

    dim = 1

    def quad_nodes(self, order):
        return np.zeros((order, 1)), np.full(order, 1.0 / order)


def test_integrate_over_rows_raise_when_one_integrand_never_settles():
    calls = {"flat": 0, "growing": 0, "settles": 0}

    def flat(p):
        calls["flat"] += 1
        return np.ones(len(p))

    def growing(p):
        calls["growing"] += 1
        return np.full(len(p), float(len(p)))

    def settles(p):
        calls["settles"] += 1
        return np.full(len(p), 1.0 + 1.0 / len(p) ** 2)

    fns = [flat, growing, settles]
    with pytest.raises(QuadratureError, match="1 of 3 integrands"):
        integrate_over(_CountingShape(), lambda p, idx: (fns[i](p) for i in idx),
                       1e-3, len(fns))
    # each settled integrand stops being evaluated at its own order
    assert calls["flat"] == 2
    assert calls["settles"] < calls["growing"]
    assert calls["growing"] == 7            # orders 8, 16, ..., 512


@pytest.mark.parametrize("shape", [DISK, SQUARE], ids=["disk", "square"])
@pytest.mark.parametrize("lam,point", [
    (3.0, [math.nan, 0.0]), (3.0, [0.0, math.inf]), (math.nan, [0.0, 0.0]),
    (-math.inf, [0.0, 0.0]), (complex(2.0, math.nan), [0.5, 0.0]),
    ([3.0, math.inf], [0.5, 0.0]),
], ids=["nan-point", "inf-point", "nan-lam", "inf-lam", "nan-imag", "inf-in-array"])
def test_convolution_test_refuses_non_finite_input(shape, lam, point, monkeypatch):
    """A frequency or sample point that is not finite is refused before
    any rule is built; before, a NaN point doubled to order 512 and raised
    QuadratureError with a last delta of 0."""
    monkeypatch.setattr(euclidean, "integrate_over", None)
    with pytest.raises(ValueError, match="must be finite"):
        convolution_test(shape, lam, [[0.0, 0.0], point])


def test_integrate_over_reports_a_nan_step_as_nan():
    """An integrand that is NaN never settles, and the error says its last
    delta was nan, not 0, whatever steps the other integrands took."""
    def rows(p, idx):
        return (np.full(len(p), math.nan if i == 1 else float(len(p))) for i in idx)

    for count in (2, 3):
        with pytest.raises(QuadratureError, match=f"last delta nan, {count} of {count} "):
            integrate_over(DISK, rows, 1e-8, count)
    with pytest.raises(QuadratureError, match="last delta nan, 1 of 1 "):
        integrate_over(DISK, lambda p: np.full(len(p), math.nan))


def test_convolution_test_complex_lambda_stays_complex(monkeypatch):
    pts = _sample_ring(5, 1.5)
    lam = 1.0 + 0.5j
    seen = []
    orig = euclidean.besselj0

    def recording(z):
        seen.append(np.asarray(z).dtype)
        return orig(z)

    monkeypatch.setattr(euclidean, "besselj0", recording)
    val = convolution_test(DISK, lam, pts, 1e-10)
    assert seen and all(d == np.complex128 for d in seen)
    ref = max(abs(integrate_over(
        DISK, lambda p, x=x: orig(lam * np.linalg.norm(p + x, axis=1)), 1e-10))
        for x in pts)
    assert abs(val - ref) < 1e-9
    seen.clear()
    assert convolution_test(DISK, J1_1, pts) < 1e-6
    assert seen and all(d == np.float64 for d in seen)


def test_spherical_phi_real_lambda_is_real_and_same_radius():
    rng = np.random.default_rng(3)
    for dim, kernel in ((2, euclidean.besselj0), (3, euclidean.sinc)):
        p = rng.uniform(-4.0, 4.0, (1000, dim))
        val = spherical_phi(2.5, p, dim)
        assert val.dtype == np.float64
        assert np.array_equal(val, kernel(2.5 * np.linalg.norm(p, axis=-1)))


def test_integral_check_is_one_integration(monkeypatch):
    seen = []
    orig = euclidean.integrate_over

    def counting(shape, integrand, tol, count=None):
        seen.append(count)
        return orig(shape, integrand, tol, count)

    monkeypatch.setattr(euclidean, "integrate_over", counting)
    motions = random_motions(2, 4, seed=3)
    val = pompeiu_integral_check(DISK, 3.0, motions=motions)
    assert seen == [8]
    lam = 3.0
    ref = max(abs(orig(DISK, lambda p, m=m, f=f: f(m.apply(p))))
              for m in motions
              for f in (lambda p: spherical_phi(lam, p, 2),
                        lambda p: np.exp(1j * lam * p[:, 0])))
    assert abs(val - ref) < 1e-8


class _RuleCounter:
    """A shape whose full rules are counted."""

    def __init__(self, shape):
        self.shape, self.dim, self.orders = shape, shape.dim, []
        self.is_radial = shape.is_radial

    def quad_nodes(self, order):
        self.orders.append(order)
        return self.shape.quad_nodes(order)


def _count_polar_rules(monkeypatch):
    """The orders of the polar rules built from here on, in a list."""
    orders, build = [], shapes.PolarRule.quad_nodes

    def counted(self, order):
        orders.append(order)
        return build(self, order)

    monkeypatch.setattr(shapes.PolarRule, "quad_nodes", counted)
    return orders


def test_integrate_over_zero_integrands_builds_no_rule():
    shape = _RuleCounter(DISK)
    assert integrate_over(shape, lambda p, idx: iter(()), 1e-8, 0) == []
    assert shape.orders == []


def test_integrate_over_rows_must_match_the_pending_integrands():
    with pytest.raises(ValueError):
        integrate_over(DISK, lambda p, idx: [np.ones(len(p))], 1e-8, 2)


RINGS = DisjointUnion([DISK, Annulus(2.0, 3.0, 2)])
ANNULUS3 = Annulus(2.0, 3.0, 3)


@pytest.mark.parametrize("block", [1, 1536, None])
@pytest.mark.parametrize("shape,lams", [
    (DISK, [J1_1, 1.3 + 0.2j, 3.0, J1_1, 7.0155866698156, 0.0]),
    (RINGS, [2.1, 4.5 + 0.2j, 5.0, 2.1, 6.5 - 0.1j, 2.1, 7.0 + 0.3j, 8.0 + 0.5j, 9.0 - 0.2j]),
    (ANNULUS3, [1.2396787044126543, 2.0 + 0.1j, 4.9, 1.2396787044126543]),
], ids=["disk", "rings", "annulus3"])
def test_convolution_test_array_equals_scalar_calls(shape, lams, block, monkeypatch):
    """One residual per frequency, bit for bit the scalar call's, whatever
    the blocks: complex frequencies among real ones, a repeated one, and
    blocks of one row, of a few rows and of the default size.  On the
    rings, five complex frequencies share a block of complex kernel
    entries."""
    if block is not None:
        monkeypatch.setattr(euclidean, "RESIDUAL_BLOCK", block)
    pts = np.random.default_rng(4).uniform(-3.0, 3.0, (5, shape.dim))
    got = convolution_test(shape, np.array(lams), pts)
    assert got.dtype == np.float64 and got.shape == (len(lams),)
    want = [convolution_test(shape, lam, pts) for lam in lams]
    assert all(type(w) is float for w in want)
    assert got.tolist() == want


def test_convolution_test_without_frequencies_builds_no_rule(monkeypatch):
    """Neither the polar rule of a radial shape nor the full rule of a
    polytope is built."""
    orders = _count_polar_rules(monkeypatch)
    got = convolution_test(DISK, np.array([], dtype=complex), _sample_ring())
    assert got.shape == (0,) and orders == []
    square = _RuleCounter(SQUARE)
    got = convolution_test(square, np.array([], dtype=complex), _sample_ring())
    assert got.shape == (0,) and square.orders == []


ANNULUS = Annulus(1.0, 2.0, 2)


@pytest.mark.parametrize("shape,witness", [
    (DISK, J1_1), (BALL3, 4.493409457909064),
    (ANNULUS, None), (ANNULUS3, 1.2396787044126543), (RINGS, None),
], ids=["disk", "ball3", "annulus", "annulus3", "rings"])
def test_convolution_test_on_the_polar_rule_equals_the_full_rule(shape, witness):
    """On a radial shape each residual, integrated on the polar rule about
    the sample point x, is within 1e-12 of the full rule's integral at x:
    at a witness, at the off-root frequencies 3.0 and 5.5 and at a complex
    frequency."""
    if witness is None:
        witness = find_failure_lambdas(shape, (0.0, 4.0), count=1)[0]
    lams = [witness, 3.0, 5.5, 2.0 + 0.3j]
    pts = np.random.default_rng(5).uniform(-3.0, 3.0, (3, shape.dim))
    pts[0] = 0.0
    for x in pts:
        got = convolution_test(shape, np.array(lams), [x])
        for lam, val in zip(lams, got):
            full = integrate_over(shape, lambda p: spherical_phi(lam, p + x, shape.dim))
            assert abs(val - abs(full)) < 1e-12, (lam, x, val, abs(full))


# radial shapes whose residuals have a closed form: disk, annuli 1/2 and
# 1/20 of their outer radius wide, the rings, disk and annulus (3, 3.02); the
# 3-D ball and annuli 1/3 and 1/30 wide
CLOSED_FORM_SHAPES = [DISK, ANNULUS, Annulus(1.9, 2.0, 2), RINGS, DISK_AND_THIN_RING,
                      BALL3, ANNULUS3, Annulus(2.9, 3.0, 3)]


def _closed_form_gap(shape):
    """Largest distance of the residual at x from |phi_lam(x) F(lam)|, F
    the radial profile, over lam in {3, 7.5, 12.3, 19.9, 2 + 0.3i} and x at
    |x| in {0, 0.7, 2.5, 5, 8} on the diagonal and, on the first axis, at
    each boundary radius R of the shape, where the polar rule's split
    points 0 and |a - R| coincide."""
    lams = np.array([3.0, 7.5, 12.3, 19.9, 2.0 + 0.3j])
    unit = np.full(shape.dim, 1.0 / math.sqrt(shape.dim))
    boundary = {r for m in getattr(shape, "members", (shape,))
                for r in m.radial_interval() if r > 0}
    points = [r * unit for r in (0.0, 0.7, 2.5, 5.0, 8.0)]
    points += [r * np.eye(shape.dim)[0] for r in sorted(boundary)]
    gap = 0.0
    for x in points:
        got = convolution_test(shape, lams, [x])
        phi = np.array([spherical_phi(lam, x, shape.dim) for lam in lams])
        want = np.abs(phi * radial_profile(shape, lams))
        gap = max(gap, float(np.abs(got - want).max()))
    return gap


@pytest.mark.parametrize("shape", CLOSED_FORM_SHAPES,
                         ids=["disk", "annulus", "annulus-1/20", "rings", "disk+ring",
                              "ball3", "annulus3", "annulus3-1/30"])
def test_residuals_match_the_closed_form(shape):
    """For a radial E, the integral over E of phi_lam(x + y) dy is
    phi_lam(x) F_E(lam): Graf's addition theorem in the plane (Watson,
    Treatise on Bessel Functions, 11.3), Funk-Hecke in 3-space.  Each
    residual is within 1e-9 of it."""
    assert _closed_form_gap(shape) < 1e-9


def test_closed_form_catches_a_stalled_radial_count(monkeypatch):
    """Not vacuous: with the polar rule held at 32 nodes a piece at orders 8
    and 16, two successive estimates share their radii, the doubling test
    settles early and the disk's residuals miss the closed form by more
    than ten times the bound of `test_residuals_match_the_closed_form`."""
    nodes = shapes.gauss_nodes
    monkeypatch.setattr(shapes, "gauss_nodes", lambda count: nodes(max(32, count // 2)))
    assert _closed_form_gap(DISK) > 1e-8


class _UnsplitPolarRule(shapes.PolarRule):
    """The polar rule on as many pieces, of equal width, of [0, a + R_max]:
    the square-root ends of the measure fall inside pieces."""

    def __init__(self, shape, radii):
        super().__init__(shape, radii)
        self.edges = np.linspace(0.0, self.edges[:, -1], self.edges.shape[1], axis=1)


@pytest.mark.parametrize("shape", [DISK, BALL3], ids=["disk", "ball3"])
def test_closed_form_needs_the_breakpoint_split(shape, monkeypatch):
    """Not vacuous: without the split at |a - R| and a + R the measure's
    square-root kinks fall inside pieces, Gauss-Legendre converges only
    algebraically there, and the residuals do not settle to 1e-8 by order
    512 (2048 nodes a piece)."""
    monkeypatch.setattr(euclidean, "PolarRule", _UnsplitPolarRule)
    with pytest.raises(QuadratureError, match="by order 512 "):
        _closed_form_gap(shape)


@pytest.mark.parametrize("shape", [DISK, BALL3, ANNULUS, ANNULUS3, RINGS],
                         ids=["disk", "ball3", "annulus", "annulus3", "rings"])
def test_convolution_test_builds_no_full_rule_on_a_radial_shape(shape, monkeypatch):
    """A radial shape's residuals build polar rules only: the shape's
    quad_nodes is never called."""
    def refuse(self, order):
        raise AssertionError("full rule built")

    for kind in (Ball, Annulus, DisjointUnion):
        monkeypatch.setattr(kind, "quad_nodes", refuse)
    orders = _count_polar_rules(monkeypatch)
    res = convolution_test(shape, np.array([3.0, 1.0 + 0.5j]),
                           _sample_ring(3, 1.5, shape.dim))
    assert res.shape == (2,) and orders


def test_convolution_residual_pass_streams_its_rows():
    """All residuals of the 3-D annulus (2, 3) over (0, 6] in one call stay
    under 0.6 MiB of traced memory: 0.40 MiB measured (numpy 2.4), all at
    the order-16 polar rule of 16 sample points (4 pieces of 64 nodes
    each), plus a margin of 0.2 MiB.  The same call without blocks, every
    pending row of an order at once, peaks at 0.88 MiB; when each witness
    had an integration of its own on the full rule, the largest call
    peaked at 44.5 MiB."""
    witnesses = find_failure_lambdas(ANNULUS3, (0.0, 6.0))
    assert len(witnesses) == 5
    lo, hi = ANNULUS3.bounding_box()
    span = float(np.linalg.norm(hi - lo))
    pts = np.random.default_rng(1).uniform(-span, span, size=(16, 3))
    tracemalloc.start()
    try:
        res = convolution_test(ANNULUS3, np.array(witnesses), pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (res < 1e-6 * ANNULUS3.volume).all()
    assert peak < 0.6 * 2 ** 20, peak / 2 ** 20
