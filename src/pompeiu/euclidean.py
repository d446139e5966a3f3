"""Numerical Pompeiu machinery on the plane and in 3-space.

The key objects: the rotation-averaged exponentials phi_lambda (spherical
averages, Bessel/sinc closed forms), the Fourier-Laplace transform of a
shape's indicator at complex frequencies, vanishing tests on the rotation
orbit of a frequency vector (which, for an analytic transform, certifies
vanishing on the full complex quadric z.z = lambda^2), sign-change root
searches on radial profiles, and direct convolution / rigid-motion
integral checks that re-verify every candidate failure frequency.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .bessel import ball3_profile, besselj0, j1_over_z, sinc
from .quadrature import DEFAULT_TOL, integrate_over
from .shapes import Annulus, Ball, DisjointUnion, EuclideanSet, Polytope

DEFAULT_IMAG_CAP = 50.0
DEFAULT_VANISH_TOL = 1e-6
DEFAULT_GRID = 0.05
BISECT_TOL = 1e-10
ROTATION_SAMPLES = {2: 64, 3: 72}

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
    batch; lam may be complex."""
    if dim not in (2, 3):
        raise ValueError(f"unsupported dimension {dim}")
    pts = np.asarray(x, dtype=float)
    r = np.linalg.norm(pts, axis=-1)
    arg = complex(lam) * r
    return besselj0(arg) if dim == 2 else sinc(arg)


# ---------------------------------------------------------------------------
# exponential divided differences (for polytope transforms)


def _expm_triangular(a: np.ndarray) -> np.ndarray:
    """exp of a small upper-triangular matrix by scaling and squaring with
    a truncated Taylor series."""
    norm = float(np.abs(a).max()) * a.shape[0]
    s = max(0, int(math.ceil(math.log2(norm))) + 1) if norm > 0.5 else 0
    b = a / (2 ** s)
    out = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for k in range(1, 24):
        term = term @ b / k
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


def exp_divided_difference(nodes) -> complex:
    """Divided difference of exp at the given complex nodes.

    Three regimes: a centered series when the nodes are clustered, the
    Lagrange form when they are pairwise well separated, and the bidiagonal
    matrix exponential otherwise (which also handles confluent clusters).
    """
    xs = [complex(v) for v in nodes]
    k = len(xs) - 1
    if k == 0:
        return complex(np.exp(xs[0]))
    center = sum(xs) / len(xs)
    deltas = [x - center for x in xs]
    spread = max(abs(d) for d in deltas)
    if spread <= 0.8:
        return complex(np.exp(center)) * _centered_series(deltas, k)
    min_gap = min(abs(xs[i] - xs[j])
                  for i in range(len(xs)) for j in range(i + 1, len(xs)))
    if min_gap >= 0.5:
        total = 0j
        for i, xi in enumerate(xs):
            denom = 1.0 + 0j
            for j, xj in enumerate(xs):
                if j != i:
                    denom *= xi - xj
            total += complex(np.exp(xi)) / denom
        return total
    m = np.diag(np.asarray(xs, dtype=complex)) + np.diag(np.ones(k, dtype=complex), 1)
    return complex(_expm_triangular(m)[0, -1])


def _centered_series(deltas, k) -> complex:
    # sum_j h_j(deltas) / (j + k)!  with h_j the complete homogeneous
    # symmetric polynomials, via the standard variable-by-variable
    # recurrence.  Individual h_j can vanish (symmetric clusters), so the
    # sum runs to a fixed depth rather than stopping on a small term; at
    # spread <= 0.8 the tail beyond 30 terms is far below machine epsilon.
    max_terms = 30
    h = [1.0 + 0j]
    for d in deltas:
        new = [1.0 + 0j]
        for j in range(1, max_terms):
            prev = h[j] if j < len(h) else 0j
            new.append(prev + d * new[j - 1])
        h = new
    fact = math.factorial(k)
    total = 0j
    for j in range(max_terms):
        total += h[j] / fact
        fact *= (j + k + 1)
    return total


# ---------------------------------------------------------------------------
# Fourier-Laplace transforms


def _radial_profile_w(shape, w) -> complex:
    """Transform of a radial shape as a function of the (complex) frequency
    magnitude w; even and entire in w."""
    if isinstance(shape, Ball):
        r = shape.radius
        if shape.dim == 2:
            return complex(2.0 * math.pi * r * r * j1_over_z(w * r))
        return complex(4.0 * math.pi * r ** 3 * ball3_profile(w * r))
    if isinstance(shape, Annulus):
        return (_radial_profile_w(Ball(shape.outer, shape.dim), w)
                - _radial_profile_w(Ball(shape.inner, shape.dim), w))
    if isinstance(shape, DisjointUnion):
        return sum(_radial_profile_w(m, w) for m in shape.members)
    raise ValueError("shape is not radial")


def radial_profile(shape, lam) -> complex:
    """fourier_laplace of a radial shape at any frequency vector of
    bilinear square lam^2."""
    if not shape.is_radial:
        raise ValueError("shape is not radial")
    return _radial_profile_w(shape, complex(lam))


def fourier_laplace(shape: EuclideanSet, z, imag_cap: float = DEFAULT_IMAG_CAP) -> complex:
    """Integral over the shape of exp(-i z.x) at a complex frequency z.

    Closed forms throughout: Bessel/sinc profiles for radial shapes, exact
    simplex exponential divided differences for polytopes.
    """
    if isinstance(z, ComplexVector):
        zv = z.as_array()
    else:
        zv = np.asarray(z, dtype=complex)
    if zv.shape != (shape.dim,):
        raise ValueError(f"frequency must have {shape.dim} components")
    if np.abs(zv.imag).max() > imag_cap:
        raise ValueError(f"imaginary parts exceed the cap {imag_cap}")
    if shape.is_radial:
        s = complex(zv @ zv)               # bilinear square, not Hermitian
        return _radial_profile_w(shape, complex(np.sqrt(s)))
    if isinstance(shape, Polytope):
        total = 0j
        for simplex in shape.simplices():
            phases = [-1j * complex(zv @ v) for v in simplex]
            edges = simplex[1:] - simplex[0]
            det = abs(np.linalg.det(edges))
            total += det * exp_divided_difference(phases)
        return total
    if isinstance(shape, DisjointUnion):
        return sum(fourier_laplace(m, zv, imag_cap) for m in shape.members)
    raise TypeError(f"not a shape: {shape!r}")


# ---------------------------------------------------------------------------
# rotation orbits


def rotation_directions(dim: int, count: int) -> np.ndarray:
    """Deterministic unit directions: equispaced on the circle, a Fibonacci
    lattice on the 2-sphere."""
    if dim == 2:
        theta = 2.0 * np.pi * np.arange(count) / count
        return np.stack([np.cos(theta), np.sin(theta)], axis=1)
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
    tol: float


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
    threshold = tol * shape.volume
    worst_mag, worst_dir = -1.0, None
    for u in dirs:
        val = fourier_laplace(shape, lam * u.astype(complex))
        mag = abs(val)
        if mag > worst_mag:
            worst_mag, worst_dir = mag, u
    return OrbitCheck(worst_mag < threshold, worst_mag, tuple(worst_dir), tol)


# ---------------------------------------------------------------------------
# radial root search


def find_failure_lambdas(shape: EuclideanSet, lam_range: tuple,
                         count: int | None = None,
                         grid: float = DEFAULT_GRID) -> list[float]:
    """Real roots of the radial transform profile in the range, by
    sign-change bracketing and bisection; each root re-verified on the
    rotation orbit."""
    if not shape.is_radial:
        raise ValueError("failure-frequency search requires a radial shape")
    xs, vals = _profile_on_grid(shape, lam_range, grid)
    return _bracketed_roots(shape, xs, [v.real for v in vals], count)


def _profile_on_grid(shape, lam_range: tuple, grid: float):
    """The search grid of the range and the complex radial profile on it;
    lambda = 0 is excluded, since profile(0) is the volume."""
    lo, hi = float(lam_range[0]), float(lam_range[1])
    xs = np.arange(max(lo, grid), hi + grid / 2, grid)
    return xs, [radial_profile(shape, x) for x in xs]


def _bracketed_roots(shape, xs, vals, count: int | None) -> list[float]:
    """Roots from sign changes of the real profile values vals on the grid
    xs, each refined by bisection and checked on the rotation orbit."""
    profile = _real_profile(shape)
    roots: list[float] = []
    for i in range(len(xs) - 1):
        a, b, fa, fb = xs[i], xs[i + 1], vals[i], vals[i + 1]
        if fa == 0.0:
            roots.append(float(a))
            continue
        if fa * fb < 0:
            roots.append(_bisect(profile, float(a), float(b)))
        if count is not None and len(roots) >= count:
            break
    if vals and vals[-1] == 0.0 and (count is None or len(roots) < count):
        roots.append(float(xs[-1]))
    for lam in roots:
        check = complex_sphere_vanishes(shape, lam)
        if not check.vanishes:
            raise RuntimeError(f"root {lam} failed the orbit vanishing check "
                               f"(max magnitude {check.max_magnitude:.3e})")
    return roots


def _real_profile(shape):
    def profile(lam: float) -> float:
        val = radial_profile(shape, lam)
        return val.real
    return profile


def _bisect(f, a: float, b: float) -> float:
    fa = f(a)
    while b - a > BISECT_TOL:
        m = 0.5 * (a + b)
        fm = f(m)
        if fm == 0.0:
            return m
        if fa * fm < 0:
            b = m
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


# ---------------------------------------------------------------------------
# convolution and direct integral checks


def convolution_test(shape: EuclideanSet, lam: complex, sample_points,
                     tol: float = DEFAULT_TOL) -> float:
    """Max over the sample points x of |integral over the shape of
    phi_lam(x + y) dy|; zero exactly at failure frequencies."""
    if shape.dim not in (2, 3):
        raise ValueError(f"unsupported dimension {shape.dim}")
    worst = 0.0
    for x in np.atleast_2d(np.asarray(sample_points, dtype=float)):
        val = integrate_over(
            shape, lambda pts: spherical_phi(lam, pts + x, shape.dim), tol)
        worst = max(worst, abs(val))
    return worst


def pompeiu_integral_check(shape: EuclideanSet, lam: complex,
                           motions=None, count: int | None = None,
                           seed: int | None = None,
                           translation_scale: float = 2.0,
                           tol: float = DEFAULT_TOL) -> float:
    """Max over rigid motions of |integral of f over the moved shape| for
    both test functions: the spherical average phi_lam and the plane wave
    exp(i lam x_1)."""
    if motions is None:
        if count is None:
            raise ValueError("give either motions or a seeded count")
        if seed is None:
            raise ValueError("random motions require a seed")
        motions = random_motions(shape.dim, count, seed, translation_scale)
    lam = complex(lam)
    worst = 0.0
    for motion in motions:
        for f in (lambda p: spherical_phi(lam, p, shape.dim),
                  lambda p: np.exp(1j * lam * p[:, 0])):
            val = integrate_over(
                shape, lambda pts, fn=f: fn(motion.apply(pts)), tol)
            worst = max(worst, abs(val))
    return worst


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


@dataclass
class EuclidReport:
    verdict: str                      # "NotPompeiu" | "NoFailureFoundInRange"
    lambda_witnesses: list
    searched_range: tuple
    grid: float
    rotation_samples: int
    tolerances: dict
    caveat: str
    landscape: list | None = None
    seconds: float = 0.0


_CAVEAT = ("search covers real frequencies in the given range plus any "
           "user-supplied complex candidates; no-failure-in-range does not "
           "certify the Pompeiu property")


def euclid_decide(shape: EuclideanSet, lam_range: tuple = (0.0, 20.0),
                  grid: float = DEFAULT_GRID,
                  rotation_samples: int | None = None,
                  vanish_tol: float = DEFAULT_VANISH_TOL,
                  quad_tol: float = DEFAULT_TOL,
                  extra_lambdas=(),
                  collect_landscape: bool = False,
                  workers: int = 1) -> EuclidReport:
    """Search the range for failure frequencies.

    Radial shapes: bracketed root finding on the closed-form profile.
    Other shapes: rotation-orbit vanishing scan over the frequency grid,
    with any candidate confirmed by the convolution test.  A verdict of
    NoFailureFoundInRange is deliberately weaker than "has the property".
    workers is accepted and ignored: the scan runs in one thread, which
    measured faster than a thread pool at every width above 1.
    """
    if not (math.isfinite(grid) and grid > 0):
        raise ValueError(f"grid step must be finite and positive, got {grid}")
    if not float(lam_range[0]) < float(lam_range[1]):
        raise ValueError(f"empty frequency range {lam_range[0]}:{lam_range[1]}")
    if rotation_samples is not None and rotation_samples < 1:
        raise ValueError(f"rotation samples must be >= 1, got {rotation_samples}")
    t0 = time.perf_counter()
    count = ROTATION_SAMPLES[shape.dim] if rotation_samples is None else rotation_samples
    tolerances = {"vanish": vanish_tol, "quadrature": quad_tol,
                  "bisect": BISECT_TOL}
    landscape = [] if collect_landscape else None
    witnesses: list = []
    if shape.is_radial:
        xs, vals = _profile_on_grid(shape, lam_range, grid)
        witnesses = [float(x) for x in
                     _bracketed_roots(shape, xs, [v.real for v in vals], None)]
        if collect_landscape:
            landscape.extend((float(x), abs(v)) for x, v in zip(xs, vals))
    else:
        lo, hi = float(lam_range[0]), float(lam_range[1])
        for x in np.arange(max(lo, grid), hi + grid / 2, grid):
            x = float(x)
            check = complex_sphere_vanishes(shape, x, count, vanish_tol)
            if collect_landscape:
                landscape.append((x, check.max_magnitude))
            if check.vanishes and _confirm_candidate(shape, x, quad_tol, vanish_tol):
                witnesses.append(x)
    for lam in extra_lambdas:
        lam = complex(lam)
        check = complex_sphere_vanishes(shape, lam, count, vanish_tol)
        if check.vanishes and _confirm_candidate(shape, lam, quad_tol, vanish_tol):
            witnesses.append(lam if lam.imag else lam.real)
    if any(complex(w) == 0 for w in witnesses):
        raise RuntimeError("a zero frequency leaked into the witness list")
    verdict = "NotPompeiu" if witnesses else "NoFailureFoundInRange"
    return EuclidReport(verdict, witnesses, tuple(lam_range), grid, count,
                        tolerances, _CAVEAT, landscape,
                        time.perf_counter() - t0)


def _confirm_candidate(shape, lam, quad_tol: float, vanish_tol: float) -> bool:
    lo, hi = shape.bounding_box()
    diam = float(np.linalg.norm(hi - lo))
    pts = [np.zeros(shape.dim)]
    for u in rotation_directions(shape.dim, 8 if shape.dim == 2 else 12):
        pts.append(u * 0.75 * diam)
    worst = convolution_test(shape, lam, np.asarray(pts), quad_tol)
    return worst < vanish_tol * shape.volume
