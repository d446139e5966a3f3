"""Numerical Pompeiu machinery on the plane and in 3-space.

The key objects: the rotation-averaged exponentials phi_lambda (spherical
averages, Bessel/sinc closed forms), the Fourier-Laplace transform of a
shape's indicator at complex frequencies, vanishing tests on the rotation
orbit of a frequency vector (which, for an analytic transform, certifies
vanishing on the full complex quadric z.z = lambda^2), sign-change root
searches on radial profiles, and direct convolution / rigid-motion
integral checks that re-verify every candidate failure frequency.

Transforms are evaluated in batches: a polytope's value at N frequencies
comes from one `exp_divided_difference` call on the N x simplices rows of
nodes, the simplices fanned from one vertex.  The orbit scan of a
non-radial shape evaluates frequencies x directions x simplices in blocks
of at most SCAN_CHUNK triples, one direction per antipodal pair at a real
frequency (|F(-z)| = |F(z)|), keeping a running maximum per frequency, so
its memory stays flat whatever the grid.  A search of more than
MAX_GRID_POINTS grid steps, or orbit directions, is refused with ValueError.

The radial search is in arrays too: one `radial_profile` call covers the
whole grid (each entry bit-identical to a scalar call, so witnesses do not
depend on how the grid is cut), and all sign-change brackets are bisected
together, one call per step.  All convolution residuals are one adaptive
integration of phi_lam(x + y) per sample point x and frequency lam: |x + y|
once per rule and x, the pending lam on it in blocks of RESIDUAL_BLOCK
entries (real and complex lam in separate blocks, a real lam in real
arithmetic), each row summed as it comes.  On a radial shape the integral
depends on x only through |x|: x moves to (|x|, 0) and the rule is the
shape's `MeridianRule`, the full rule folded onto the meridian half-plane
(in 3-space without its azimuthal sum, 2 * order times fewer nodes; in the
plane on half of its angles).  A report is a frozen value, with no timing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bessel import ball3_profile, besselj0, j1_over_z, sinc
from .groups import BugTrapError
from .quadrature import DEFAULT_TOL, integrate_over
from .shapes import (Annulus, Ball, DisjointUnion, EuclideanSet,
                     MeridianRule, Polytope)

DEFAULT_IMAG_CAP = 50.0
DEFAULT_VANISH_TOL = 1e-6
DEFAULT_GRID = 0.05
DEFAULT_LAMBDA_RANGE = (0.0, 20.0)
BISECT_TOL = 1e-10
ROTATION_SAMPLES = {2: 64, 3: 72}
# (frequency, direction, simplex) triples per block of the orbit scan.  One
# round of the polytope benchmark (2 vCPUs, best of 4) took 0.30, 0.14, 0.12,
# 0.11 and 0.12 s at blocks of 256, 2048, 4096, 8192 and 65536 triples, at a
# peak RSS of 80, 82, 85, 90 and 94 MB: 2048 keeps within 2 MB of the floor.
SCAN_CHUNK = 2048
# Most grid steps, (hi - lo) / grid, of one search, and most orbit directions.
MAX_GRID_POINTS = 10 ** 6
# Kernel entries (frequencies x nodes) per besselj0/sinc call of the residual
# quadrature.  On the meridian rules, blocks of 2^14..2^20 took 0.36-0.51 s
# for the radial benchmark's residuals at seed 1 (2 vCPUs, 3 runs each, no
# trend past the noise) at a peak RSS of 82-85 MB, that of a process running
# no quadrature at all: the rules are at most a few 10^4 nodes.
RESIDUAL_BLOCK = 1 << 17

__all__ = [
    "ComplexVector",
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
class ComplexVector:
    """A complex frequency vector; the bilinear square is z.z (no
    conjugation), recomputed on every access."""

    coords: tuple

    @classmethod
    def of(cls, seq) -> "ComplexVector":
        return cls(tuple(complex(x) for x in seq))

    @property
    def dim(self) -> int:
        return len(self.coords)

    @property
    def bilinear_square(self) -> complex:
        return sum(z * z for z in self.coords)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.coords, dtype=complex)


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


def _expm_bidiagonal(rows: np.ndarray) -> np.ndarray:
    """Top-right entry of exp(A) for each row x of an N x m array, where A
    is the bidiagonal matrix with x on its diagonal and ones above it; that
    entry is the divided difference exp[x_0, ..., x_{m-1}].

    Scaling and squaring with a truncated Taylor series, each matrix scaled
    by its own power of two.  Only the upper triangle is held and only its
    nonzero products are formed, in the dense order, which keeps the bits;
    rows needing more squarings sort last, so that each squaring is a slice."""
    n, m = rows.shape
    norm = np.fmax(np.abs(rows).max(axis=1), 1.0) * m     # max |A_ij| * m
    s = np.where(norm > 0.5,
                 np.ceil(np.log2(np.fmax(norm, 0.5))).astype(int) + 1, 0)
    order = np.argsort(s, kind="stable")
    s = s[order]
    scale = 2.0 ** -s
    d = rows[order].T * scale
    # row off[b] + r holds (r, r + b); (A^2)[r, c] adds A[r, r+t] A[r+t, c] by t
    i, band = np.concatenate([[np.arange(m - b), [b] * (m - b)] for b in range(m)], axis=1)
    off = np.searchsorted(band, np.arange(m))
    pairs = [(f, f + i[f:], off[band[f:] - t] + i[f:] + t) for t, f in enumerate(off) if t]
    out = np.zeros((len(i), n), dtype=complex)
    out[:m] = 1.0
    term, dj, prev = out.copy(), d[i + band], off[band[m:] - 1] + i[m:]
    for k in range(1, 24):
        nxt = term * dj
        nxt[m:] += np.multiply(term[prev], scale)   # no product in place: see bessel
        term = nxt / k
        out += term
    for step in range(int(s.max(initial=0))):
        a = out[:, np.searchsorted(s, step, side="right"):]
        sq = np.multiply(a[i], a)                   # t = 0: A[r, r] A[r, c]
        for f, left, right in pairs:
            sq[f:] += np.multiply(a[left], a[right])
        a[...] = sq
    corner = np.empty(n, dtype=complex)
    corner[order] = out[-1]
    return corner


def exp_divided_difference(nodes):
    """Divided difference of exp at each row of an N x m array of complex
    nodes, as N values; a 1-D list of nodes gives one complex.

    Each row takes one of three regimes (McCurdy, Ng & Parlett, Math. Comp.
    1984): a centred series when the nodes are clustered (every node within
    0.8 of their mean), the Lagrange form when they are pairwise at least
    0.5 apart, and the exponential of the bidiagonal matrix with the nodes
    on its diagonal otherwise, which also handles confluent clusters.
    """
    x = np.asarray(nodes, dtype=complex)
    rows = x.reshape(-1, x.shape[-1])
    m = rows.shape[1]
    center = rows.mean(axis=1)
    deltas = rows - center[:, None]
    series = np.abs(deltas).max(axis=1) <= 0.8
    min_gap = np.full(len(rows), np.inf)
    for i in range(m):
        for j in range(i + 1, m):
            min_gap = np.fmin(min_gap, np.abs(rows[:, i] - rows[:, j]))
    lagrange = ~series & (min_gap >= 0.5)
    matrix = ~(series | lagrange)
    out = np.empty(len(rows), dtype=complex)
    if series.any():
        out[series] = np.exp(center[series]) * _centered_series(deltas[series])
    if lagrange.any():
        out[lagrange] = _lagrange_form(rows[lagrange])
    if matrix.any():
        out[matrix] = _expm_bidiagonal(rows[matrix])
    return complex(out[0]) if x.ndim == 1 else out


def _centered_series(deltas: np.ndarray) -> np.ndarray:
    # sum_j h_j(deltas) / (j + k)!  per row, with h_j the complete
    # homogeneous symmetric polynomials of the row's k + 1 entries, via the
    # standard variable-by-variable recurrence.  Individual h_j can vanish
    # (symmetric clusters), so the sum runs to a fixed depth rather than
    # stopping on a small term; at spread <= 0.8 the tail beyond 30 terms is
    # far below machine epsilon.
    max_terms = 30
    k = deltas.shape[1] - 1
    h = np.zeros((max_terms, len(deltas)), dtype=complex)
    h[0] = 1.0
    for d in deltas.T:
        for j in range(1, max_terms):
            h[j] += d * h[j - 1]
    fact = np.array([float(math.factorial(j + k)) for j in range(max_terms)])
    return (h / fact[:, None]).sum(axis=0)


def _lagrange_form(rows: np.ndarray) -> np.ndarray:
    """sum_i exp(x_i) / prod_{j != i} (x_i - x_j) per row of distinct nodes."""
    total = 0
    for i in range(rows.shape[1]):
        denom = 1.0
        for j in range(rows.shape[1]):
            if j != i:
                denom = denom * (rows[:, i] - rows[:, j])
        total = total + np.exp(rows[:, i]) / denom
    return total


# ---------------------------------------------------------------------------
# Fourier-Laplace transforms


def _radial_profile_w(shape, w):
    """Transform of a radial shape as a function of the (complex) frequency
    magnitude w, scalar or array; even and entire in w."""
    if isinstance(shape, Ball):
        r = shape.radius
        if shape.dim == 2:
            return 2.0 * math.pi * r * r * j1_over_z(w * r)
        return 4.0 * math.pi * r ** 3 * ball3_profile(w * r)
    if isinstance(shape, Annulus):
        return (_radial_profile_w(Ball(shape.outer, shape.dim), w)
                - _radial_profile_w(Ball(shape.inner, shape.dim), w))
    if isinstance(shape, DisjointUnion):
        return sum(_radial_profile_w(m, w) for m in shape.members)
    raise ValueError("shape is not radial")


def radial_profile(shape, lam):
    """fourier_laplace of a radial shape at any frequency vector of
    bilinear square lam^2: one complex for a scalar lam, a complex array
    for an array of them.  Each entry of an array is bit-identical to the
    scalar call at that lam."""
    if not shape.is_radial:
        raise ValueError("shape is not radial")
    w = np.asarray(lam, dtype=complex)
    vals = _radial_profile_w(shape, w)
    return complex(vals) if w.ndim == 0 else vals


def fourier_laplace(shape: EuclideanSet, z, imag_cap: float = DEFAULT_IMAG_CAP):
    """Integral over the shape of exp(-i z.x) at a complex frequency z, or
    at each row of an N x dim batch of frequencies (then N values).

    Closed forms throughout: Bessel/sinc profiles for radial shapes, exact
    simplex exponential divided differences for polytopes, all simplices of
    the whole batch in one divided-difference call.
    """
    zv = z.as_array() if isinstance(z, ComplexVector) else np.asarray(z, dtype=complex)
    if zv.ndim not in (1, 2) or zv.shape[-1] != shape.dim:
        raise ValueError(f"frequency must have {shape.dim} components")
    if zv.size and np.abs(zv.imag).max() > imag_cap:
        raise ValueError(f"imaginary parts exceed the cap {imag_cap}")
    vals = _transform_rows(shape, zv.reshape(-1, shape.dim))
    return complex(vals[0]) if zv.ndim == 1 else vals


def _transform_rows(shape, z: np.ndarray) -> np.ndarray:
    if shape.is_radial:
        s = (z * z).sum(axis=1)            # bilinear square, not Hermitian
        return _radial_profile_w(shape, np.sqrt(s))
    if isinstance(shape, Polytope):
        verts = np.stack(shape.simplices())             # S x m x dim
        dets = np.abs(np.linalg.det(verts[:, 1:] - verts[:, :1]))
        phases = -1j * (z @ verts.reshape(-1, shape.dim).T)
        dd = exp_divided_difference(phases.reshape(-1, verts.shape[1]))
        return (dd.reshape(len(z), len(verts)) * dets).sum(axis=1)
    if isinstance(shape, DisjointUnion):
        return sum(_transform_rows(m, z) for m in shape.members)
    raise TypeError(f"not a shape: {shape!r}")


def _simplex_count(shape) -> int:
    """Divided differences per transform value: a polytope's simplices,
    summed over a union's members; 1 for a radial shape."""
    if isinstance(shape, Polytope):
        return len(shape.simplices())
    if isinstance(shape, DisjointUnion):
        return sum(_simplex_count(m) for m in shape.members)
    return 1


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
    origin is the volume, which is positive."""
    lam = complex(lam)
    if lam == 0:
        raise ValueError("lambda = 0 is never a failure frequency for a set "
                         "of positive volume")
    count = ROTATION_SAMPLES[shape.dim] if rotation_samples is None else rotation_samples
    dirs = rotation_directions(shape.dim, count)
    maxima, worst = _orbit_maxima(shape, np.array([lam]), dirs)
    mag = float(maxima[0])
    return OrbitCheck(mag < tol * shape.volume, mag, tuple(dirs[worst[0]]))


def _orbit_maxima(shape, lams: np.ndarray, dirs: np.ndarray):
    """For each frequency lam of lams, the largest |transform| over the
    orbit points lam * u, u a row of dirs, and the index of the first
    direction reaching it (NaN values are passed over; a frequency with no
    other value gets NaN, which never counts as vanishing).

    At a real frequency |F(-z)| = |F(z)|, so only the first half of dirs is
    scanned when the second half negates it.  Frequency x direction x
    simplex triples go in blocks of at most SCAN_CHUNK (unless one transform
    value alone has more simplices): memory does not grow with the grid."""
    h = len(dirs) // 2
    if not np.imag(lams).any() and np.array_equal(dirs[h:], -dirs[:h]):
        dirs = dirs[:h]
    per_dir = _simplex_count(shape)
    cols = min(len(dirs), max(1, SCAN_CHUNK // per_dir))
    rows = max(1, SCAN_CHUNK // (cols * per_dir))
    best = np.full(len(lams), -np.inf)
    worst = np.zeros(len(lams), dtype=int)
    for r in range(0, len(lams), rows):
        lam = lams[r:r + rows]
        seg = slice(r, r + len(lam))
        for c in range(0, len(dirs), cols):
            z = lam[:, None, None] * dirs[None, c:c + cols]
            mags = np.abs(fourier_laplace(shape, z.reshape(-1, shape.dim)))
            mags = mags.reshape(len(lam), -1)
            i = np.where(np.isnan(mags), -np.inf, mags).argmax(axis=1)
            top = mags[np.arange(len(lam)), i]
            gain = top > best[seg]
            best[seg] = np.where(gain, top, best[seg])
            worst[seg] = np.where(gain, c + i, worst[seg])
    best[best < 0] = np.nan
    return best, worst


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
    range of more than MAX_GRID_POINTS grid steps, or one that holds no
    grid point, raises ValueError before anything is allocated."""
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
    profile at a: one profile call per step on the midpoints of the
    brackets still open.  Each bracket takes its own steps: it halves
    while b - a > BISECT_TOL, ends at a midpoint where the profile is
    exactly 0, and otherwise ends at its final midpoint."""
    a, b, fa = a.astype(float), b.astype(float), fa.astype(float)
    roots = 0.5 * (a + b)
    live = np.nonzero(b - a > BISECT_TOL)[0]
    while live.size:
        m = 0.5 * (a[live] + b[live])
        fm = radial_profile(shape, m).real
        exact = fm == 0.0
        roots[live[exact]] = m[exact]
        left = fa[live] * fm < 0
        b[live[left]] = m[left]
        right = ~left & ~exact
        a[live[right]] = m[right]
        fa[live[right]] = fm[right]
        live = live[~exact]
        roots[live] = 0.5 * (a[live] + b[live])
        live = live[b[live] - a[live] > BISECT_TOL]
    return roots


# ---------------------------------------------------------------------------
# convolution and direct integral checks


def convolution_test(shape: EuclideanSet, lam, sample_points,
                     tol: float = DEFAULT_TOL):
    """Max over the sample points x of |integral over the shape of
    phi_lam(x + y) dy|; zero exactly at failure frequencies.  One float for
    a scalar lam, one per entry for a 1-D array, each bit-identical to the
    scalar call, from one integration (see the module docstring)."""
    if shape.dim not in (2, 3):
        raise ValueError(f"unsupported dimension {shape.dim}")
    lams = np.asarray(lam, dtype=complex)
    pts = np.atleast_2d(np.asarray(sample_points, dtype=float))
    rule = shape
    if shape.is_radial:
        # the integral depends on x through |x| only: x goes to (|x|, 0) in
        # the meridian coordinates of the rule
        rule = MeridianRule(shape)
        pts = np.stack([np.linalg.norm(pts, axis=1), np.zeros(len(pts))], axis=1)
    # real frequencies first, so that a block never mixes the two kinds
    order = np.argsort(lams.ravel().imag != 0, kind="stable")
    freqs = lams.ravel()[order]
    n, n_real = len(freqs), int((freqs.imag == 0).sum())
    kernel = besselj0 if shape.dim == 2 else sinc

    def rows(nodes, idx):
        # integrand s * n + j is sample point s at frequency freqs[j]
        sample, freq = np.divmod(np.asarray(idx), n)
        per_block = max(1, RESIDUAL_BLOCK // len(nodes))
        r, col = np.empty(len(nodes)), np.empty(len(nodes))
        for s in np.unique(sample):
            r.fill(0.0)     # r = |x + y| with the bits of spherical_phi: 0 + a == a
            for i in range(rule.dim):
                np.add(nodes[:, i], pts[s, i], out=col)
                r += np.multiply(col, col, out=col)
            np.sqrt(r, out=r)
            js = freq[sample == s]
            for kind in (js[js < n_real], js[js >= n_real]):
                for b in range(0, len(kind), per_block):
                    f = freqs[kind[b:b + per_block]]
                    yield from kernel(np.multiply.outer(f if f.imag.any() else f.real, r))

    vals = integrate_over(rule, rows, tol, len(pts) * n)
    res = np.array([max([0.0] + [abs(vals[s * n + j]) for s in range(len(pts))])
                    for j in range(n)], dtype=float)[np.argsort(order)]
    return float(res[0]) if lams.ndim == 0 else res


def pompeiu_integral_check(shape: EuclideanSet, lam: complex,
                           motions=None, count: int | None = None,
                           seed: int | None = None,
                           translation_scale: float = 2.0,
                           tol: float = DEFAULT_TOL) -> float:
    """Max over rigid motions of |integral of f over the moved shape| for
    both test functions: the spherical average phi_lam and the plane wave
    exp(i lam x_1).  One adaptive integration serves every motion and
    test function, on shared rules."""
    if motions is None:
        if count is None:
            raise ValueError("give either motions or a seeded count")
        if seed is None:
            raise ValueError("random motions require a seed")
        motions = random_motions(shape.dim, count, seed, translation_scale)
    motions, lam = list(motions), complex(lam)
    tests = (lambda p: spherical_phi(lam, p, shape.dim),
             lambda p: np.exp(1j * lam * p[:, 0]))
    def rows(p, idx):   # integrand 2m + f: test function f on the shape moved by motion m
        return (tests[i % 2](motions[i // 2].apply(p)) for i in idx)
    vals = integrate_over(shape, rows, tol, 2 * len(motions))
    return max([0.0] + [abs(v) for v in vals])


def random_motions(dim: int, count: int, seed: int,
                   translation_scale: float = 2.0) -> list[RigidMotion]:
    """Seeded rigid motions: Haar-uniform rotations, uniform box translations."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        if dim == 2:
            a = rng.uniform(0.0, 2.0 * math.pi)
            rot = np.array([[math.cos(a), -math.sin(a)],
                            [math.sin(a), math.cos(a)]])
        elif dim == 3:
            q = rng.standard_normal(4)
            q /= np.linalg.norm(q)
            w, x, y, z = q
            rot = np.array([
                [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
            ])
        else:
            raise ValueError(f"unsupported dimension {dim}")
        t = rng.uniform(-translation_scale, translation_scale, dim)
        out.append(RigidMotion(rot, t))
    return out


# ---------------------------------------------------------------------------
# decision procedure


@dataclass(frozen=True)
class EuclidReport:
    verdict: str                      # "NotPompeiu" | "NoFailureFoundInRange"
    lambda_witnesses: list
    searched_range: tuple
    grid: float
    rotation_samples: int
    tolerances: dict
    caveat: str
    landscape: list | None = None


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
    """Search the range for failure frequencies.

    Radial shapes: bracketed root finding on the closed-form profile.
    Other shapes: rotation-orbit vanishing scan over the frequency grid,
    with any candidate confirmed by the convolution test.  A verdict of
    NoFailureFoundInRange is deliberately weaker than "has the property".
    The scan runs in one thread.
    """
    if not (math.isfinite(grid) and grid > 0):
        raise ValueError(f"grid step must be finite and positive, got {grid}")
    for name, tol in (("vanishing", vanish_tol), ("quadrature", quad_tol)):
        if not (math.isfinite(tol) and tol > 0):
            raise ValueError(f"{name} tolerance must be finite and positive, got {tol}")
    if not float(lam_range[0]) < float(lam_range[1]):
        raise ValueError(f"empty frequency range {lam_range[0]}:{lam_range[1]}")
    if rotation_samples is not None and not 1 <= rotation_samples <= MAX_GRID_POINTS:
        raise ValueError(f"rotation samples must be in 1..{MAX_GRID_POINTS}, got {rotation_samples}")
    count = ROTATION_SAMPLES[shape.dim] if rotation_samples is None else rotation_samples
    tolerances = {"vanish": vanish_tol, "quadrature": quad_tol,
                  "bisect": BISECT_TOL}
    landscape = [] if collect_landscape else None
    witnesses: list = []
    if shape.is_radial:
        xs = _frequency_grid(lam_range, grid)
        vals = radial_profile(shape, xs)
        witnesses = _bracketed_roots(shape, xs, vals.real, None)
        if collect_landscape:
            landscape.extend(zip(xs.tolist(), np.abs(vals).tolist()))
    else:
        xs = _frequency_grid(lam_range, grid)
        maxima, _ = _orbit_maxima(shape, xs, rotation_directions(shape.dim, count))
        threshold = vanish_tol * shape.volume
        for x, mag in zip(xs.tolist(), maxima.tolist()):
            if collect_landscape:
                landscape.append((x, mag))
            if mag < threshold and _confirm_candidate(shape, x, quad_tol, vanish_tol):
                witnesses.append(x)
    for lam in extra_lambdas:
        lam = complex(lam)
        check = complex_sphere_vanishes(shape, lam, count, vanish_tol)
        if check.vanishes and _confirm_candidate(shape, lam, quad_tol, vanish_tol):
            witnesses.append(lam if lam.imag else lam.real)
    if any(complex(w) == 0 for w in witnesses):
        raise BugTrapError("a zero frequency leaked into the witness list")
    verdict = "NotPompeiu" if witnesses else "NoFailureFoundInRange"
    return EuclidReport(verdict, witnesses, tuple(lam_range), grid, count,
                        tolerances, _CAVEAT, landscape)


def _confirm_candidate(shape, lam, quad_tol: float, vanish_tol: float) -> bool:
    lo, hi = shape.bounding_box()
    diam = float(np.linalg.norm(hi - lo))
    pts = [np.zeros(shape.dim)]
    for u in rotation_directions(shape.dim, 8 if shape.dim == 2 else 12):
        pts.append(u * 0.75 * diam)
    worst = convolution_test(shape, lam, np.asarray(pts), quad_tol)
    return worst < vanish_tol * shape.volume
