"""Numerical Pompeiu machinery on the plane and in 3-space.

The key objects: the rotation-averaged exponentials phi_lambda (spherical
averages, Bessel/sinc closed forms), the Fourier-Laplace transform of a
shape's indicator at complex frequencies, vanishing tests on the rotation
orbit of a frequency vector (which, for an analytic transform, certifies
vanishing on the full complex quadric z.z = lambda^2), sign-change root
searches on radial profiles, and direct convolution / rigid-motion
integral checks that re-verify every candidate failure frequency.

Every shape's search reads one landscape, lam -> the largest |F| on the
orbit of lam e1 (|profile(lam)| if radial), for its witnesses and CSV.
Transforms are evaluated in batches, by one dispatcher over the shapes,
`_orbit_values`, which both `fourier_laplace` (at lam = 1) and the orbit
scan call: a radial member is its signed balls' profile, summed member by
member.  A polytope's divided differences run on t = -z.v over simplices
fanned from one vertex, in real arithmetic at a real z.  The orbit scan
writes t = lam q, q = -u.v fixed per direction u and simplex, and forms
series coefficients, Lagrange weights and splits once per such column for
all frequencies of a block of at most SCAN_CHUNK triples.
It takes one direction per antipodal pair at a real frequency (|F(-z)| =
|F(z)|) and keeps a running maximum per frequency: memory stays flat however
long the grid.  A search of more than MAX_GRID_POINTS grid steps, or orbit
directions, is refused with ValueError.

The radial search is in arrays too: one `radial_profile` call covers the
whole grid (each entry bit-identical to a scalar call, so witnesses do not
depend on how the grid is cut), and all sign-change brackets are bisected
together, one call on the heap of up to BISECT_LEVELS levels of midpoints.
All convolution residuals are one adaptive integration of phi_lam(x + y) per
sample point x and frequency lam, the pending lam on each rule in blocks of
RESIDUAL_BLOCK entries (real and complex lam in separate blocks, a real lam
in real arithmetic), each row summed as it comes.  On a polytope |x + y| is
computed once per rule and x.  On a radial shape the integrand is
phi_lam(r) on the sphere of radius r about -x, so the rule is the shape's
`PolarRule`: radii r and weights that carry the measure of each sphere
inside the shape, S x N for the S sample points, split where a sphere
touches a boundary.  A report is a frozen value, with no timing.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .bessel import _as_array, ball3_profile, besselj0, j1_over_z, sinc
from .groups import BugTrapError
from .quadrature import DEFAULT_TOL, integrate_over
from .shapes import (Annulus, Ball, DisjointUnion, EuclideanSet, PolarRule,
                     Polytope)

DEFAULT_IMAG_CAP = 50.0
DEFAULT_VANISH_TOL = 1e-6
DEFAULT_GRID = 0.05
DEFAULT_LAMBDA_RANGE = (0.0, 20.0)
BISECT_TOL = 1e-10
# Bisection steps per radial_profile call, on the heap of 2^levels - 1
# midpoints of every open bracket: at 5 levels a 0.05-wide bracket takes 6
# calls, not 29.  The five radial benchmark shapes (5-12 brackets; 2 vCPUs,
# median of 40 interleaved runs) took 23.5, 14.7, 10.5, 9.3, 8.8, 9.6, 11.8
# and 12.7 ms at 1-8 levels.  Many brackets take fewer levels, a heap within
# BISECT_POINTS points: the 636 of a disk over 0:2000 took 6.2 ms at 2048 (2
# levels), 6.7 ms one step a call and 20.7 ms at 5 levels.
BISECT_LEVELS, BISECT_POINTS = 5, 2048
ROTATION_SAMPLES = {2: 64, 3: 72}
# Radius and depth of the divided differences' centred series (see _series).
SERIES_RADIUS, SERIES_TERMS = 2.0, 28
# (frequency, direction, simplex) triples per block of the orbit scan.  The
# polytope benchmark at seed 1 (2 vCPUs, two 4 s runs each) read 14 000-15 100,
# 15 400-16 600, 17 900-19 400, 19 600-21 000 and 19 000-21 600 frequencies/s at
# 2^12-2^16, at a peak RSS of 83.7-83.8, 83.7-83.8, 83.8-83.9, 84.2 and 85.9-86.1
# MB: 2^14 is the largest block within the per-row kernel's 83.7-83.9 MB.
SCAN_CHUNK = 1 << 14
# Most grid steps, (hi - lo) / grid, of one search, and most orbit directions.
MAX_GRID_POINTS = 10 ** 6
# Kernel entries (frequencies x nodes) per besselj0/sinc call of the residual
# quadrature.  The kernels are elementwise, so a block only batches them and
# the residuals do not depend on its size.  One seed-1 round of the radial
# benchmark in-process (2 vCPUs, best of 10 rounds, 4 fresh processes each)
# took 0.053-0.055, 0.051-0.054 and 0.053-0.055 s at 2^12, 2^13 and 2^14
# entries, peaking at 80.3-80.6, 80.7-80.8 and 81.4-81.5 MB: the polar rules
# stop at order 16 or 32, 128-384 nodes per sample point.
RESIDUAL_BLOCK = 1 << 13

__all__ = [
    "RigidMotion",
    "OrbitCheck",
    "EuclidReport",
    "spherical_phi",
    "fourier_laplace",
    "radial_profile",
    "complex_sphere_vanishes",
    "find_failure_lambdas",
    "convolution_test",
    "pompeiu_integral_check",
    "euclid_decide",
    "rotation_directions",
    "random_motions",
]


@dataclass(frozen=True)
class RigidMotion:
    """x -> rotation @ x + translation, with rotation in SO(n)."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=float)
        t = np.asarray(self.translation, dtype=float)
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)
        n = r.shape[0]
        if r.shape != (n, n) or t.shape != (n,):
            raise ValueError("rotation/translation dimensions disagree")
        if np.abs(r.T @ r - np.eye(n)).max() > 1e-12:
            raise ValueError("rotation is not orthogonal to 1e-12")
        if abs(np.linalg.det(r) - 1.0) > 1e-12:
            raise ValueError("rotation determinant is not +1")

    def apply(self, points: np.ndarray) -> np.ndarray:
        return points @ self.rotation.T + self.translation


# ---------------------------------------------------------------------------
# spherical functions of the motion group


def spherical_phi(lam: complex, x, dim: int):
    """Average of exp(i lam x.w) over unit directions w: J0(lam |x|) in the
    plane, sinc(lam |x|) in 3-space.  x may be one point or an N x dim
    batch; lam may be complex.  A real lam is evaluated in real arithmetic
    and gives real values."""
    if dim not in (2, 3):
        raise ValueError(f"unsupported dimension {dim}")
    pts = np.asarray(x, dtype=float)
    # |x| summed column by column: the values of np.linalg.norm, at less cost
    sq = pts[..., 0] * pts[..., 0]
    for i in range(1, pts.shape[-1]):
        sq += pts[..., i] * pts[..., i]
    r = np.sqrt(sq)
    lam = complex(lam)
    arg = (lam if lam.imag else lam.real) * r
    return besselj0(arg) if dim == 2 else sinc(arg)


# ---------------------------------------------------------------------------
# exponential divided differences (for polytope transforms)


def exp_divided_difference(nodes):
    """Divided difference of exp at each row of an N x m array of complex
    nodes, as N values; a 1-D list of nodes gives one complex.

    It is (-i)^(m-1) g[t] for g(t) = e^{it} at t = -i x, which is real at a
    real frequency (every node on the imaginary axis): such a batch runs in
    real arithmetic, any other in complex: `_divided_differences` at lam = 1.
    Rows within SERIES_RADIUS = 2 of their mean take the centred series: its
    terms sum to at most e^2 ~ 7.4 times the first, the tail past 28 to 9e-22.
    """
    x = np.asarray(nodes, dtype=complex)
    rows, m = x.reshape(-1, x.shape[-1]), x.shape[-1]
    t = rows.imag - 1j * rows.real if rows.real.any() else rows.imag
    # one node per row: the reductions over a row's nodes run on contiguous
    # arrays, about ten times faster than over the columns of t
    out = _divided_differences(np.ones(1), np.ascontiguousarray(t.T)) * (1, -1j, -1, 1j)[(m - 1) % 4]
    return complex(out[0]) if x.ndim == 1 else out


def _divided_differences(lam: np.ndarray, q: np.ndarray, l=None, c=None) -> np.ndarray:
    """g[lam q_0, ..., lam q_{m-1}] for g(t) = e^{it} at every frequency of the
    1-D lam and column of the m x P q (L P values, frequency-major), or at the
    entries (lam[l], q[:, c]); real arithmetic for real lam and q.  An entry's
    regime is set by |lam| times a constant of its column (McCurdy, Ng &
    Parlett, Math. Comp. 1984): `_series` when every node is within
    SERIES_RADIUS = 2 of their mean; the Lagrange form, weights per column,
    when the nodes are pairwise at least 0.5 apart; else a split on the
    farthest pair, g[T] = (g[T - {t_a}] - g[T - {t_b}]) / (t_b - t_a), all
    halves in one call.  Then |t_b - t_a| > 2 (the mean is in the hull), so a
    split does not grow the absolute error of its halves, and two nodes are
    never split (a gap over 4 is over 0.5): a tetrahedron splits at most twice."""
    m, n = q.shape
    if l is None:
        l, c = np.divmod(np.arange(len(lam) * n, dtype=np.int32), n)
    mean = q.sum(axis=0) / m
    # q_a - q_b for each pair a < b: the gaps and the farthest pair
    pairs = [(a, b) for a in range(m) for b in range(a + 1, m)]
    i, j = np.array(pairs, dtype=int).reshape(-1, 2).T
    diff = q[i] - q[j]
    gaps = np.abs(diff)
    series = np.abs(lam)[l] * np.abs(q - mean).max(axis=0)[c] <= SERIES_RADIUS
    lagrange = ~series & (np.abs(lam)[l] * gaps.min(axis=0, initial=np.inf)[c] >= 0.5)
    split = ~(series | lagrange)
    out = np.empty(len(l), dtype=complex)
    if split.any():
        ls, cs = l[split], c[split]
        cols, at = _distinct(cs, n)
        far = gaps[:, cols].argmax(axis=0)
        # row a of rest: the node indices without a
        rest = np.array([[k for k in range(m) if k != a] for a in range(m)])
        halves = q[rest[np.concatenate([i[far], j[far]])].T, np.concatenate([cols, cols])]
        h = _divided_differences(lam, halves, np.concatenate([ls, ls]),
                                 np.concatenate([at, at + len(cols)]))
        out[split] = (h[len(ls):] - h[:len(ls)]) / (lam[ls] * diff[far[at], cs])
    if series.any():
        out[series] = _series(lam, q - mean, mean, l[series], c[series])
    if lagrange.any():
        # sum_k e^{i lam q_k} / w_k / lam^(m - 1), w_k = prod_{j != k} (q_k - q_j)
        w = [np.prod([q[k] - q[j] for j in range(m) if j != k], axis=0) for k in range(m)]
        e, ce = lam[l[lagrange]], c[lagrange]
        out[lagrange] = sum(np.exp(1j * (e * q[k, ce])) / w[k][ce] for k in range(m)) / e ** (m - 1)
    return out


def _distinct(idx: np.ndarray, n: int):
    """The sorted distinct values of idx, in range(n), and each entry's place."""
    seen = np.zeros(n, dtype=bool)
    seen[idx] = True
    return np.flatnonzero(seen), (np.cumsum(seen, dtype=np.int32) - 1)[idx]


def _series(lam, deltas, mean, l, c):
    """i^k e^{i lam mean} sum_j (i lam)^j h_j(deltas) / (j+k)! at the entries
    (lam[l], column c), k + 1 nodes a column, h_j the complete homogeneous
    symmetric polynomial (of the first r + 1 deltas in row r of terms).  At
    |lam| max|deltas| <= R = SERIES_RADIUS term j is at most R^j / j! of the
    first, 1/k!: all sum to at most e^R ~ 7.4 of it, the tail past SERIES_TERMS
    to 2^28 / 28! ~ 9e-22 (an h_j can vanish, so the depth is fixed).  The
    coefficients are per column, all polynomials one product with the powers
    of lam, in bands of a factor 2^20 (one from 2^-10 to 2^10) scaled exactly
    to lam / 2^b and deltas * 2^b so that nothing overflows."""
    k = len(deltas) - 1
    if k == 1:      # h_j(d, -d) = d^j at even j, 0 at odd: the sum is sinc(lam d)
        return 1j * np.exp(1j * (lam[l] * mean[c])) * sinc(lam[l] * deltas[0, c])
    out = np.empty(len(l), dtype=complex)
    rows, row_at = _distinct(l, len(lam))
    band = 20 * ((np.frexp(np.abs(lam[rows]))[1] + 10) // 20)
    for b in np.unique(band).tolist():
        e = slice(None) if band.min() == b == band.max() else np.flatnonzero(band[row_at] == b)
        cols, at = _distinct(c[e], deltas.shape[1])
        d = deltas[:, cols] * 2.0 ** b
        coef = np.empty((SERIES_TERMS, len(cols)), dtype=d.dtype)
        coef[0], terms, step = 1.0, np.ones_like(d), np.empty_like(d)
        for j in range(1, SERIES_TERMS):        # running sums of d * the last terms
            np.add.accumulate(np.multiply(d, terms, out=step), axis=0, out=terms)
            coef[j] = terms[-1]
        coef /= np.array([math.factorial(j + k) for j in range(SERIES_TERMS)], dtype=float)[:, None]
        # the powers of lam / 2^b, and of 0 on the rows of other bands
        x = (np.where(band == b, lam[rows], 0) * 2.0 ** -b)[:, None] ** np.arange(SERIES_TERMS)
        if np.iscomplexobj(x) or np.iscomplexobj(d):
            out[e] = ((x * np.array([1, 1j, -1, -1j])[np.arange(SERIES_TERMS) % 4]) @ coef)[row_at[e], at]
        else:       # i^j is (-1)^(j // 2) on even j and i (-1)^(j // 2) on odd j
            x[:, 2::4] *= -1
            x[:, 3::4] *= -1
            out.real[e] = (x[:, 0::2] @ coef[0::2])[row_at[e], at]
            out.imag[e] = (x[:, 1::2] @ coef[1::2])[row_at[e], at]
    phase = 1j * (lam[l] * mean[c])
    out *= np.exp(phase, out=phase)
    return out * (1, 1j, -1, -1j)[k % 4]


# ---------------------------------------------------------------------------
# Fourier-Laplace transforms


def radial_profile(shape, lam):
    """fourier_laplace of a radial shape at any frequency vector of
    bilinear square lam^2: one complex for a scalar lam, a complex array
    for an array of them.  The shape is its signed balls, summed member by
    member from 0 in a union, where a ball of radius r gives 2 pi r^2 J1(x)/x
    in the plane and 4 pi r^3 (sin x - x cos x)/x^3 in 3-space, x = lam r.
    Each entry of an array is bit-identical to the scalar call at that lam."""
    if not shape.is_radial:
        raise ValueError("shape is not radial")
    w = np.asarray(lam, dtype=complex)
    members = getattr(shape, "members", None)
    vals = sum(_member_profile(m, w) for m in members) if members else _member_profile(shape, w)
    return complex(vals) if w.ndim == 0 else vals


def _member_profile(member, w):
    """A ball's profile, or an annulus's: its outer ball's less its hole's."""
    out = None
    for r, sign in member.balls():
        t = (2.0 * math.pi * r * r * j1_over_z(w * r) if member.dim == 2
             else 4.0 * math.pi * r ** 3 * ball3_profile(w * r))
        out = t if out is None else out + t if sign > 0 else out - t
    return out


def fourier_laplace(shape: EuclideanSet, z, imag_cap: float = DEFAULT_IMAG_CAP):
    """Integral over the shape of exp(-i z.x) at a complex frequency z, or
    at each row of an N x dim batch of frequencies (then N values).

    Closed forms throughout: Bessel/sinc profiles for radial shapes, exact
    simplex exponential divided differences for polytopes, all simplices of
    the whole batch in one divided-difference call: the orbit scan's
    `_orbit_values` at lam = 1, the rows of z as its directions.
    """
    zv = _as_array(z)    # a real z stays real
    if zv.ndim not in (1, 2) or zv.shape[-1] != shape.dim:
        raise ValueError(f"frequency must have {shape.dim} components")
    if zv.size and np.abs(zv.imag).max() > imag_cap:
        raise ValueError(f"imaginary parts exceed the cap {imag_cap}")
    rows = zv.reshape(-1, shape.dim)
    vals = _orbit_values(shape, np.ones(1), rows if np.imag(rows).any() else np.real(rows))[0]
    return complex(vals[0]) if zv.ndim == 1 else vals


# ---------------------------------------------------------------------------
# rotation orbits


def rotation_directions(dim: int, count: int) -> np.ndarray:
    """Deterministic unit directions: equispaced on the circle, an even
    count ending with the negation of its first half bit for bit, and a
    Fibonacci lattice on the 2-sphere."""
    if dim == 2:
        h = count // 2 if count % 2 == 0 else count
        theta = 2.0 * np.pi * np.arange(h) / count
        half = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        return np.concatenate([half, -half[:count - h]])
    if dim == 3:
        j = np.arange(count)
        z = 1.0 - (2.0 * j + 1.0) / count
        phi = j * math.pi * (3.0 - math.sqrt(5.0))
        rho = np.sqrt(1.0 - z ** 2)
        return np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=1)
    raise ValueError(f"unsupported dimension {dim}")


@dataclass(frozen=True)
class OrbitCheck:
    vanishes: bool
    max_magnitude: float
    worst_direction: tuple


def complex_sphere_vanishes(shape: EuclideanSet, lam: complex,
                            rotation_samples: int | None = None,
                            tol: float = DEFAULT_VANISH_TOL) -> OrbitCheck:
    """Evaluate the transform on the rotation orbit of lam * e1 and test
    whether it vanishes there (relative to the volume).  Vanishing on this
    real orbit certifies vanishing on the whole quadric z.z = lam^2, since
    the transform is analytic.  lam = 0 is rejected: the transform at the
    origin is the volume, which is positive.  So are a lam that is not
    finite and a count of rotation samples outside 1..MAX_GRID_POINTS."""
    lam = complex(lam)
    if not cmath.isfinite(lam):
        raise ValueError(f"frequency must be finite, got {lam}")
    if lam == 0:
        raise ValueError("lambda = 0 is never a failure frequency for a set "
                         "of positive volume")
    dirs = rotation_directions(shape.dim, _orbit_count(shape, rotation_samples))
    maxima, worst = _orbit_maxima(shape, np.array([lam]), dirs)
    mag = float(maxima[0])
    return OrbitCheck(mag < tol * shape.volume, mag, tuple(dirs[worst[0]]))


def _orbit_count(shape, rotation_samples: int | None) -> int:
    if rotation_samples is None:
        return ROTATION_SAMPLES[shape.dim]
    if not 1 <= rotation_samples <= MAX_GRID_POINTS:
        raise ValueError(f"rotation samples must be in 1..{MAX_GRID_POINTS}, got {rotation_samples}")
    return rotation_samples


def _orbit_maxima(shape, lams: np.ndarray, dirs: np.ndarray):
    """For each frequency lam of lams, the largest |transform| over the
    orbit points lam * u, u a row of dirs, and the index of the first
    direction reaching it (NaN values are passed over; a frequency with no
    other value gets NaN, which never counts as vanishing).

    At a real frequency |F(-z)| = |F(z)|, so only the first half of dirs is
    scanned when the second half negates it.  Frequency x direction x
    simplex triples go in blocks of at most SCAN_CHUNK (unless one transform
    value alone has more simplices), all frequencies in one block when they
    fit: memory does not grow with the grid."""
    if not np.imag(lams).any():
        lams = np.real(lams)
        h = len(dirs) // 2
        if np.array_equal(dirs[h:], -dirs[:h]):
            dirs = dirs[:h]
    elif np.abs(lams.imag).max() * np.abs(dirs).max() > DEFAULT_IMAG_CAP:
        raise ValueError(f"imaginary parts exceed the cap {DEFAULT_IMAG_CAP}")
    # values per direction: a polytope's simplices, 1 for a radial member
    per_dir = sum(len(m.simplices()) if isinstance(m, Polytope) else 1
                  for m in getattr(shape, "members", [shape]))
    cols = min(len(dirs), max(1, SCAN_CHUNK // (len(lams) * per_dir)))
    rows = max(1, SCAN_CHUNK // (cols * per_dir))
    best = np.full(len(lams), -np.inf)
    worst = np.zeros(len(lams), dtype=int)
    for r in range(0, len(lams), rows):
        lam = lams[r:r + rows]
        seg = slice(r, r + len(lam))
        for c in range(0, len(dirs), cols):
            mags = np.abs(_orbit_values(shape, lam, dirs[c:c + cols]))
            i = np.where(np.isnan(mags), -np.inf, mags).argmax(axis=1)
            top = mags[np.arange(len(lam)), i]
            gain = top > best[seg]
            best[seg] = np.where(gain, top, best[seg])
            worst[seg] = np.where(gain, c + i, worst[seg])
    best[best < 0] = np.nan
    return best, worst


def _orbit_values(shape, lams: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """The transform at lam * u, lam in lams and u a row of dirs, as L x D
    values: a polytope's nodes are t = lam q, q = -u.v for each vertex v of
    a simplex, one kernel call for all; a radial member is its profile at
    lam times the bilinear length sqrt(u.u); a union sums its members."""
    if isinstance(shape, Polytope):
        verts = shape.simplices()                       # S x m x dim
        s, m = verts.shape[:2]
        q = -(dirs @ verts.reshape(-1, shape.dim).T)    # D x S m
        dd = _divided_differences(lams, np.ascontiguousarray(q.reshape(-1, m).T))
        dets = shape.simplex_dets * (1, -1j, -1, 1j)[(m - 1) % 4]
        return dd.reshape(len(lams), len(dirs), s) @ dets
    if isinstance(shape, DisjointUnion):
        return sum(_orbit_values(m, lams, dirs) for m in shape.members)
    if not isinstance(shape, (Ball, Annulus)):
        raise TypeError(f"not a shape: {shape!r}")
    u = dirs.astype(complex, copy=False)        # u.u is bilinear, not Hermitian
    return radial_profile(shape, lams[:, None] * np.sqrt((u * u).sum(axis=1)))


# ---------------------------------------------------------------------------
# radial root search


def find_failure_lambdas(shape: EuclideanSet, lam_range: tuple,
                         count: int | None = None,
                         grid: float = DEFAULT_GRID) -> list[float]:
    """Real roots of the radial transform profile in the range, by
    sign-change bracketing and bisection; each root re-verified."""
    if not shape.is_radial:
        raise ValueError("failure-frequency search requires a radial shape")
    xs = _frequency_grid(lam_range, grid)
    return _bracketed_roots(shape, xs, radial_profile(shape, xs).real, count)


def _frequency_grid(lam_range: tuple, grid: float) -> np.ndarray:
    """The searched frequencies: steps of grid from max(lo, grid) to hi;
    lambda = 0 is excluded, since the transform there is the volume.  A
    grid step that is not finite and positive, a range of more than
    MAX_GRID_POINTS grid steps, or one that holds no grid point, raises
    ValueError before anything is allocated."""
    if not (math.isfinite(grid) and grid > 0):
        raise ValueError(f"grid step must be finite and positive, got {grid}")
    lo, hi = float(lam_range[0]), float(lam_range[1])
    steps = (hi - lo) / grid
    if steps > MAX_GRID_POINTS:
        raise ValueError(f"{lo:g}:{hi:g} at grid {grid:g} is {steps:.3g} "
                         f"frequencies, over the cap of {MAX_GRID_POINTS}")
    xs = np.arange(max(lo, grid), hi + grid / 2, grid)
    # the last point may pass hi by rounding (0:20 at grid 0.05 ends at
    # 20.000000000000004), which keeps it, or by up to half a step
    xs = xs[xs - hi < 1e-6 * grid]
    if not xs.size:
        raise ValueError(f"{lo:g}:{hi:g} at grid {grid:g} holds no frequency")
    return xs


def _bracketed_roots(shape, xs: np.ndarray, vals: np.ndarray,
                     count: int | None) -> list[float]:
    """Roots from the real profile values vals on the grid xs, in grid
    order: a grid point where the profile is exactly 0, or a sign change
    refined by bisection.  With a count, the search stops at the first
    grid point past the count with a nonzero value; the last grid point
    counts if its value is 0 and the count is not reached.  Every root is
    checked to vanish relative to the volume."""
    zero = vals[:-1] == 0.0
    bracket = ~zero & (vals[:-1] * vals[1:] < 0)
    hit = zero | bracket
    if count is not None:
        stop = np.nonzero(~zero & (np.cumsum(hit) >= count))[0]
        if stop.size:
            hit[stop[0] + 1:] = False
    idx = np.nonzero(hit)[0]
    found = xs[idx].astype(float)
    on_bracket = bracket[idx]
    found[on_bracket] = _bisect_brackets(shape, xs[idx[on_bracket]],
                                         xs[idx[on_bracket] + 1],
                                         vals[idx[on_bracket]])
    roots = found.tolist()
    if len(vals) and vals[-1] == 0.0 and (count is None or len(roots) < count):
        roots.append(float(xs[-1]))
    # the orbit check: on the rotation orbit of lam e1 the transform is the
    # profile at sqrt(z.z) = lam, so one profile call checks every root
    mags = np.abs(radial_profile(shape, np.asarray(roots, dtype=float)))
    for lam, mag in zip(roots, mags.tolist()):
        if not mag < DEFAULT_VANISH_TOL * shape.volume:
            raise BugTrapError(f"root {lam} failed the orbit vanishing check "
                               f"(max magnitude {mag:.3e})")
    return roots


def _bisect_brackets(shape, a: np.ndarray, b: np.ndarray,
                     fa: np.ndarray) -> np.ndarray:
    """Bisect every bracket [a, b] of the real profile at once, fa the
    profile at a.  Each bracket takes its own steps: it halves while b - a
    exceeds BISECT_TOL and one ulp of b (past 2^19 an ulp exceeds
    BISECT_TOL, and a bracket one ulp wide has its midpoint on an end),
    ends at a midpoint where the profile is exactly 0, and otherwise ends
    at its final midpoint.  One profile call evaluates the next levels of
    midpoints (BISECT_LEVELS, fewer past BISECT_POINTS points), each formed
    as its step would form it; the steps walk down."""
    a, b, fa = a.astype(float), b.astype(float), fa.astype(float)
    tol = np.maximum(BISECT_TOL, np.spacing(b))
    live = np.flatnonzero(b - a > tol)
    while live.size:
        levels = max(1, min(BISECT_LEVELS, int(math.log2(BISECT_POINTS / len(live) + 1))))
        lo, hi, mids = a[live], b[live], [0.5 * (a[live] + b[live])]
        for _ in range(levels - 1):     # node f's halves [lo, m], [m, hi]: 2f, 2f + 1
            lo, hi = np.array([lo, mids[-1]]).T.ravel(), np.array([mids[-1], hi]).T.ravel()
            mids.append(0.5 * (lo + hi))
        vals = radial_profile(shape, np.concatenate(mids)).real
        node, start = np.arange(len(live)), 0   # level's values: vals[start:]
        for m in mids:
            m, fm, start = m[node], vals[start + node], start + len(m)
            exact = fm == 0.0
            left = fa[live] * fm < 0
            right = ~left & ~exact
            b[live[left]] = m[left]
            a[live[right]], fa[live[right]] = m[right], fm[right]
            keep = ~exact & (b[live] - a[live] > tol[live])
            live, node = live[keep], (2 * node + right)[keep]
    return 0.5 * (a + b)                # an exact zero m leaves a, b as it found them


# ---------------------------------------------------------------------------
# convolution and direct integral checks


def convolution_test(shape: EuclideanSet, lam, sample_points,
                     tol: float = DEFAULT_TOL):
    """Max over the sample points x of |integral over the shape of
    phi_lam(x + y) dy|; zero exactly at failure frequencies.  One float for
    a scalar lam, one per entry for a 1-D array, each bit-identical to the
    scalar call, from one integration (see the module docstring).  A
    frequency or sample point that is not finite, or no sample point at
    all, raises ValueError."""
    if shape.dim not in (2, 3):
        raise ValueError(f"unsupported dimension {shape.dim}")
    lams = np.asarray(lam, dtype=complex)
    pts = np.atleast_2d(np.asarray(sample_points, dtype=float))
    if not (np.isfinite(lams).all() and np.isfinite(pts).all()):
        raise ValueError("frequencies and sample points must be finite")
    if not pts.size:
        raise ValueError("no sample points: a residual over none would read as 0")
    # real frequencies first, so that a block never mixes the two kinds
    order = np.argsort(lams.ravel().imag != 0, kind="stable")
    freqs = lams.ravel()[order]
    n, n_real, m = len(freqs), int((freqs.imag == 0).sum()), len(pts)
    kernel = besselj0 if shape.dim == 2 else sinc

    def polar_rows(r, idx):
        # integrand j * m + s is frequency freqs[j] on sample point s's radii r[s]
        idx = np.asarray(idx)
        per_block = max(1, RESIDUAL_BLOCK // r.shape[1])
        for kind in (idx[idx < n_real * m], idx[idx >= n_real * m]):
            for b in range(0, len(kind), per_block):
                j, s = np.divmod(kind[b:b + per_block], m)
                f = freqs[j]
                yield kernel((f if f.imag.any() else f.real)[:, None] * r[s])

    def rows(nodes, idx):
        # integrand s * n + j is sample point s at frequency freqs[j]
        sample, freq = np.divmod(np.asarray(idx), n)
        per_block = max(1, RESIDUAL_BLOCK // len(nodes))
        r, col = np.empty(len(nodes)), np.empty(len(nodes))
        for s in np.unique(sample):
            r.fill(0.0)     # r = |x + y| with the bits of spherical_phi: 0 + a == a
            for i in range(shape.dim):
                np.add(nodes[:, i], pts[s, i], out=col)
                r += np.multiply(col, col, out=col)
            np.sqrt(r, out=r)
            js = freq[sample == s]
            for kind in (js[js < n_real], js[js >= n_real]):
                for b in range(0, len(kind), per_block):
                    f = freqs[kind[b:b + per_block]]
                    yield from kernel(np.multiply.outer(f if f.imag.any() else f.real, r))

    if shape.is_radial:
        rule = PolarRule(shape, np.linalg.norm(pts, axis=1))
        vals = np.reshape(integrate_over(rule, polar_rows, tol, n * m), (n, m))
    else:
        vals = np.reshape(integrate_over(shape, rows, tol, m * n), (m, n)).T
    res = np.abs(vals).max(axis=1)[np.argsort(order)]
    return float(res[0]) if lams.ndim == 0 else res


def pompeiu_integral_check(shape: EuclideanSet, lam: complex,
                           motions=None, count: int | None = None,
                           seed: int | None = None,
                           translation_scale: float = 2.0,
                           tol: float = DEFAULT_TOL) -> float:
    """Max over rigid motions of |integral of f over the moved shape| for
    both test functions: the spherical average phi_lam and the plane wave
    exp(i lam x_1).  One adaptive integration serves every motion and
    test function, on shared rules.  No motion at all raises ValueError."""
    if motions is None:
        if count is None:
            raise ValueError("give either motions or a seeded count")
        if seed is None:
            raise ValueError("random motions require a seed")
        motions = random_motions(shape.dim, count, seed, translation_scale)
    motions, lam = list(motions), complex(lam)
    if not motions:
        raise ValueError("no rigid motions: a check over none would read as 0")
    tests = (lambda p: spherical_phi(lam, p, shape.dim),
             lambda p: np.exp(1j * lam * p[:, 0]))
    def rows(p, idx):   # integrand 2m + f: test function f on the shape moved by motion m
        return (tests[i % 2](motions[i // 2].apply(p)) for i in idx)
    vals = integrate_over(shape, rows, tol, 2 * len(motions))
    return max([0.0] + [abs(v) for v in vals])


def random_motions(dim: int, count: int, seed: int,
                   translation_scale: float = 2.0) -> list[RigidMotion]:
    """Seeded rigid motions: Haar-uniform rotations, uniform box translations."""
    if dim not in (2, 3):
        raise ValueError(f"unsupported dimension {dim}")
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        if dim == 2:
            a = rng.uniform(0.0, 2.0 * math.pi)
            rot = np.array([[math.cos(a), -math.sin(a)],
                            [math.sin(a), math.cos(a)]])
        else:
            q = rng.standard_normal(4)
            q /= np.linalg.norm(q)
            w, x, y, z = q
            rot = np.array([
                [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
            ])
        t = rng.uniform(-translation_scale, translation_scale, dim)
        out.append(RigidMotion(rot, t))
    return out


# ---------------------------------------------------------------------------
# decision procedure


@dataclass(frozen=True)
class EuclidReport:
    """A decision as a hashable value: tuples only."""
    verdict: str                      # "NotPompeiu" | "NoFailureFoundInRange"
    lambda_witnesses: tuple
    searched_range: tuple
    grid: float
    rotation_samples: int
    tolerances: tuple                 # (name, value) pairs
    caveat: str
    landscape: tuple | None = None    # (lambda, orbit maximum) pairs


_CAVEAT = ("search covers real frequencies in the given range plus any "
           "user-supplied complex candidates; no-failure-in-range does not "
           "certify the Pompeiu property")


def euclid_decide(shape: EuclideanSet, lam_range: tuple = DEFAULT_LAMBDA_RANGE,
                  grid: float = DEFAULT_GRID,
                  rotation_samples: int | None = None,
                  vanish_tol: float = DEFAULT_VANISH_TOL,
                  quad_tol: float = DEFAULT_TOL,
                  extra_lambdas=(),
                  collect_landscape: bool = False) -> EuclidReport:
    """Search the range for failure frequencies on one grid, reading one
    array of orbit maxima, which is also the landscape.  Radial shapes: the
    maxima are |profile|, the witnesses the roots bracketed on the real
    profile.  Other shapes: the grid points whose maxima are below
    vanish_tol times the volume and that the convolution test confirms.
    Extra frequencies follow, in the order given.  A verdict of
    NoFailureFoundInRange is deliberately weaker than "has the property".
    The scan runs in one thread."""
    for name, tol in (("vanishing", vanish_tol), ("quadrature", quad_tol)):
        if not (math.isfinite(tol) and tol > 0):
            raise ValueError(f"{name} tolerance must be finite and positive, got {tol}")
    if not float(lam_range[0]) < float(lam_range[1]):
        raise ValueError(f"empty frequency range {lam_range[0]}:{lam_range[1]}")
    count = _orbit_count(shape, rotation_samples)
    extra_lambdas = [complex(lam) for lam in extra_lambdas]
    if not all(map(cmath.isfinite, extra_lambdas)):
        raise ValueError(f"extra frequencies must be finite, got {extra_lambdas}")
    xs = _frequency_grid(lam_range, grid)
    if shape.is_radial:
        vals = radial_profile(shape, xs)
        mags = np.abs(vals)
        witnesses = _bracketed_roots(shape, xs, vals.real, None)
    else:
        mags, _ = _orbit_maxima(shape, xs, rotation_directions(shape.dim, count))
        witnesses = [x for x in xs[mags < vanish_tol * shape.volume].tolist()
                     if _confirm_candidate(shape, x, quad_tol, vanish_tol)]
    witnesses += [lam if lam.imag else lam.real for lam in extra_lambdas
                  if complex_sphere_vanishes(shape, lam, count, vanish_tol).vanishes
                  and _confirm_candidate(shape, lam, quad_tol, vanish_tol)]
    if any(complex(w) == 0 for w in witnesses):
        raise BugTrapError("a zero frequency leaked into the witness list")
    verdict = "NotPompeiu" if witnesses else "NoFailureFoundInRange"
    tolerances = (("vanish", vanish_tol), ("quadrature", quad_tol),
                  ("bisect", BISECT_TOL))
    return EuclidReport(verdict, tuple(witnesses), tuple(lam_range), grid, count,
                        tolerances, _CAVEAT,
                        tuple(zip(xs.tolist(), mags.tolist())) if collect_landscape else None)


def _confirm_candidate(shape, lam, quad_tol: float, vanish_tol: float) -> bool:
    lo, hi = shape.bounding_box()
    diam = float(np.linalg.norm(hi - lo))
    dirs = rotation_directions(shape.dim, 8 if shape.dim == 2 else 12)
    pts = np.concatenate([np.zeros((1, shape.dim)), dirs * 0.75 * diam])
    return convolution_test(shape, lam, pts, quad_tol) < vanish_tol * shape.volume
