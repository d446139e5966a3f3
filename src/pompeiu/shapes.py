"""Compact subsets of the plane or of 3-space: balls, annuli (both centered
at the origin), convex polytopes, and disjoint unions.

Every shape knows its exact volume, its bounding box, whether it is
invariant under all rotations, and how to produce mapped tensor quadrature
nodes of a given order for integrals over itself.  On a radial shape an
integrand that depends only on the distance to a point has a 1-D rule in
polar coordinates about that point, `PolarRule`.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .groups import _spec_field, _spec_value

__all__ = [
    "Ball",
    "Annulus",
    "Polytope",
    "DisjointUnion",
    "EuclideanSet",
    "PolarRule",
    "parse_set",
    "load_set_spec",
    "set_to_spec",
]


def _check_volume(shape, what: str) -> None:
    """ValueError naming what unless the shape's volume is positive and finite."""
    if not 0 < shape.volume < math.inf:
        fault = "overflows" if shape.volume else "underflows to 0"
        raise ValueError(f"{what}: its volume {fault}")


def _ball_volume(dim: int, radius: float) -> float:
    """The volume, inf when it overflows."""
    try:
        if dim == 2:
            return math.pi * radius ** 2
        if dim == 3:
            return 4.0 / 3.0 * math.pi * radius ** 3
    except OverflowError:
        return math.inf
    raise ValueError(f"unsupported dimension {dim}")


@dataclass(frozen=True)
class Ball:
    radius: float
    dim: int = 2

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError(f"unsupported dimension {self.dim}")
        if not 0 < self.radius < math.inf:
            raise ValueError("radius must be positive and finite")
        _check_volume(self, f"ball of radius {self.radius:g}")

    @property
    def volume(self) -> float:
        return _ball_volume(self.dim, self.radius)

    @property
    def is_radial(self) -> bool:
        return True

    def radial_interval(self) -> tuple:
        return (0.0, self.radius)

    def bounding_box(self):
        r = self.radius
        return (np.full(self.dim, -r), np.full(self.dim, r))

    def quad_nodes(self, order: int):
        return _radial_nodes(self.dim, 0.0, self.radius, order)


@dataclass(frozen=True)
class Annulus:
    inner: float
    outer: float
    dim: int = 2

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError(f"unsupported dimension {self.dim}")
        if not 0 < self.inner < self.outer < math.inf:
            raise ValueError("need 0 < inner < outer < inf")
        _check_volume(self, f"annulus of outer radius {self.outer:g}")

    @property
    def volume(self) -> float:
        return _ball_volume(self.dim, self.outer) - _ball_volume(self.dim, self.inner)

    @property
    def is_radial(self) -> bool:
        return True

    def radial_interval(self) -> tuple:
        return (self.inner, self.outer)

    def bounding_box(self):
        r = self.outer
        return (np.full(self.dim, -r), np.full(self.dim, r))

    def quad_nodes(self, order: int):
        return _radial_nodes(self.dim, self.inner, self.outer, order)


class Polytope:
    """Convex hull of the given vertices; dimension 2 or 3.

    Vertices are canonicalized through the hull, so interior points are
    dropped and the stored order is deterministic.
    """

    def __init__(self, vertices, dim: int | None = None):
        pts = np.asarray(vertices, dtype=float)
        if pts.ndim != 2 or pts.shape[1] not in (2, 3):
            raise ValueError("vertices must be an N x 2 or N x 3 array")
        self.dim = int(pts.shape[1]) if dim is None else int(dim)
        if self.dim != pts.shape[1]:
            raise ValueError("dim does not match vertex width")
        from scipy.spatial import ConvexHull    # here only: scipy is slow to import
        try:
            hull = ConvexHull(pts)
        except Exception as exc:
            # qhull's first line names the fault; the rest is its diagnostic dump
            first = str(exc).strip().split("\n")[0]
            raise ValueError(f"degenerate polytope: {first}") from None
        if self.dim == 2:
            self.vertices = v = pts[hull.vertices]      # counter-clockwise
            simplices = [v[[0, i, i + 1]] for i in range(1, len(v) - 1)]
        else:
            apex = hull.vertices.min()                  # vertices[0]
            self.vertices = pts[sorted(set(hull.vertices))]
            # a fan from the apex over the hull triangles off its facets (the
            # triangles of one facet share its equation exactly)
            through = hull.equations[(hull.simplices == apex).any(axis=1)]
            off = ~(hull.equations[:, None] == through).all(axis=2).any(axis=1)
            simplices = [pts[[apex, *s]] for s in hull.simplices[off]]
        # stacked once for the transform and the rule, with each one's |det|
        self._simplices = np.stack(simplices)
        self.simplex_dets = np.abs(np.linalg.det(self._simplices[:, 1:] - self._simplices[:, :1]))
        self._volume = float(hull.volume)

    @property
    def volume(self) -> float:
        return self._volume

    @property
    def is_radial(self) -> bool:
        return False

    def simplices(self):
        """Triangles (2-D) or tetrahedra (3-D) partitioning the polytope,
        fanned from vertices[0], as an S x (dim + 1) x dim array."""
        return self._simplices

    def bounding_box(self):
        return (self.vertices.min(axis=0), self.vertices.max(axis=0))

    def quad_nodes(self, order: int):
        """Tensor Gauss nodes u in [0, 1]^d on every simplex through the
        collapsed map v0 + sum_j u_1...u_j (v_j - v_(j-1)), of Jacobian
        u_1^(d-1) u_2^(d-2)... times the simplex's |det|."""
        d, (t, w) = self.dim, gauss_nodes(order)
        u, wu = (np.stack(np.meshgrid(*[x] * d, indexing="ij"), -1).reshape(-1, d)
                 for x in ((t + 1.0) / 2.0, w / 2.0))
        prods, pts = np.cumprod(u, axis=1), self._simplices[:, :1]
        for j, edge in enumerate(np.diff(self._simplices, axis=1).transpose(1, 0, 2)):
            pts = pts + prods[:, j, None] * edge[:, None]
        # w_1...w_d u_1^(d-1) u_2^(d-2)..., one factor at a time, left to right
        jac = functools.reduce(np.multiply, np.hstack(
            [wu, np.repeat(u[:, :-1], np.arange(d - 1, 0, -1), axis=1)]).T)
        return pts.reshape(-1, d), np.outer(self.simplex_dets, jac).ravel()

    def translated(self, shift) -> "Polytope":
        return Polytope(self.vertices + np.asarray(shift, dtype=float))

    def rotated(self, rotation) -> "Polytope":
        return Polytope(self.vertices @ np.asarray(rotation, dtype=float).T)

    def __repr__(self) -> str:
        return f"Polytope(dim={self.dim}, vertices={len(self.vertices)})"


class DisjointUnion:
    """Union of pairwise-disjoint member shapes.

    The members of a member union become members of this one, so the
    members are balls, annuli and polytopes.  Disjointness is checked with
    radial intervals for pairs of concentric radial members and with
    bounding boxes otherwise; an overlap raises.
    """

    def __init__(self, members):
        members = [leaf for m in members
                   for leaf in (m.members if isinstance(m, DisjointUnion) else (m,))]
        if not members:
            raise ValueError("union needs at least one member")
        dims = {m.dim for m in members}
        if len(dims) != 1:
            raise ValueError("union members must share a dimension")
        self.dim = dims.pop()
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                if not _disjoint(members[i], members[j]):
                    raise ValueError(f"union members {i} and {j} overlap")
        self.members = tuple(members)

    @property
    def volume(self) -> float:
        return sum(m.volume for m in self.members)

    @property
    def is_radial(self) -> bool:
        return all(m.is_radial for m in self.members)

    def bounding_box(self):
        los, his = zip(*(m.bounding_box() for m in self.members))
        return (np.min(los, axis=0), np.max(his, axis=0))

    def quad_nodes(self, order: int):
        pts, wts = zip(*(m.quad_nodes(order) for m in self.members))
        return np.vstack(pts), np.concatenate(wts)


EuclideanSet = Ball | Annulus | Polytope | DisjointUnion


class PolarRule:
    """For S sample points x, a rule for integrals over a radial shape of
    functions g of |x + y|: S x N radii r and weights w, sum_k w[s, k]
    g(r[s, k]) the integral for x_s.  About -x, g(r) is weighted by the
    measure of the sphere of radius r inside the shape, which depends on
    a = |x| (`radii`) and is a signed sum of ball terms (`_sphere_in_ball`).
    Each term has square-root ends at r = |a - R| and a + R, so [0, a +
    R_max] is split there, and r = r0 + h (1 - cos phi), h = (r1 - r0) / 2,
    maps phi in [0, pi] onto a piece [r0, r1] with analytic ends.  A piece
    has 4 order Gauss-Legendre nodes in phi: order doubling doubles the
    node count, and the rule's `dim` is 1."""

    dim = 1

    def __init__(self, shape: EuclideanSet, radii):
        self.shape = shape
        # the shape as a signed sum of balls: (radius, sign) pairs
        self._balls = [(r, sign) for m in getattr(shape, "members", (shape,))
                       for r, sign in zip(m.radial_interval()[::-1], (1.0, -1.0)) if r > 0]
        self._a = a = np.asarray(radii, dtype=float)[:, None]
        bound = np.array([r for r, _ in self._balls])
        self.edges = np.sort(np.hstack([np.zeros_like(a), np.abs(a - bound), a + bound]), axis=1)

    def quad_nodes(self, order: int):
        t, wt = gauss_nodes(4 * order)
        phi = np.pi / 2.0 * (t + 1.0)
        lo = self.edges[:, :-1, None]
        h = np.diff(self.edges, axis=1)[:, :, None] / 2.0
        r = (lo + h * (1.0 - np.cos(phi))).reshape(len(lo), -1)
        w = (h * (np.pi / 2.0 * wt * np.sin(phi))).reshape(len(lo), -1)
        w *= sum(sign * _sphere_in_ball(self.shape.dim, radius, self._a, r)
                 for radius, sign in self._balls)
        return r, w


def _sphere_in_ball(dim: int, radius: float, a: np.ndarray, r: np.ndarray):
    """Measure of the part of the sphere of radius r about a point at
    distance a from the origin that lies in the ball of the given radius R:
    all of it at r <= R - a, the cap of half-angle alpha, cos alpha = (r^2 +
    a^2 - R^2) / (2 a r), at |a - R| < r < a + R, none elsewhere.  The cap
    is 2 r alpha in the plane, alpha from atan2 of the factored 2 a r sin
    alpha, and pi r (R^2 - (r - a)^2) / a in 3-space; a = 0 has no cap."""
    p = (radius - r + a) * (radius + r - a)             # R^2 - (r - a)^2
    if dim == 2:
        whole = 2.0 * np.pi * r
        sine = np.sqrt(np.maximum(p * ((r + a - radius) * (r + a + radius)), 0.0))
        cap = 2.0 * r * np.arctan2(sine, r * r + a * a - radius * radius)
    else:
        whole = 4.0 * np.pi * r * r
        cap = np.pi * r * p / np.where(a > 0, a, 1.0)
    return np.where(r <= radius - a, whole, np.where(p > 0, cap, 0.0))


def _disjoint(a, b) -> bool:
    if a.is_radial and b.is_radial:
        (a0, a1), (b0, b1) = a.radial_interval(), b.radial_interval()
        return a1 <= b0 or b1 <= a0
    (alo, ahi), (blo, bhi) = a.bounding_box(), b.bounding_box()
    return bool(np.any(ahi <= blo) or np.any(bhi <= alo))


# ---------------------------------------------------------------------------
# quadrature node construction

_leggauss_cache: dict[int, tuple] = {}


def gauss_nodes(order: int):
    if order not in _leggauss_cache:
        _leggauss_cache[order] = np.polynomial.legendre.leggauss(order)
    return _leggauss_cache[order]


def _radial_order(r0: float, r1: float, order: int) -> int:
    """order >> k, k = min(2, floor(log2(r1 / (r1 - r0)))), at least
    min(order, 2) (exact for r^2): the angles need about lam * r1 points,
    the radii about lam * (r1 - r0).  A ball keeps order; from the start
    order 8 the count doubles with the order, as the doubling test needs."""
    return max(min(order, 2), order >> min(2, int(math.log2(r1 / (r1 - r0)))))


def _radial_nodes(dim: int, r0: float, r1: float, order: int):
    """Gauss radii on [r0, r1], of the balanced radial order, x 2 order
    angles (x order Gauss polar nodes in 3-space)."""
    t, wt = gauss_nodes(_radial_order(r0, r1, order))
    r, wr = (r1 - r0) / 2.0 * (t + 1.0) + r0, (r1 - r0) / 2.0 * wt
    n_ang = 2 * order
    theta = 2.0 * np.pi * np.arange(n_ang) / n_ang
    w_theta = 2.0 * np.pi / n_ang
    if dim == 2:
        pts = np.stack([np.outer(r, np.cos(theta)).ravel(),
                        np.outer(r, np.sin(theta)).ravel()], axis=1)
        wts = np.outer(wr * r, np.full(n_ang, w_theta)).ravel()
        return pts, wts
    u, wu = gauss_nodes(order)
    sin_pol = np.sqrt(1.0 - u ** 2)
    # r x u x theta tensor grid
    x = r[:, None, None] * sin_pol[None, :, None] * np.cos(theta)[None, None, :]
    y = r[:, None, None] * sin_pol[None, :, None] * np.sin(theta)[None, None, :]
    z = r[:, None, None] * u[None, :, None] * np.ones_like(theta)[None, None, :]
    wts = (wr * r ** 2)[:, None, None] * wu[None, :, None] * w_theta
    pts = np.stack([x.ravel(), y.ravel(), z.ravel()], axis=1)
    return pts, np.broadcast_to(wts, x.shape).ravel()


# ---------------------------------------------------------------------------
# JSON specs


def parse_set(spec: dict) -> EuclideanSet:
    """Build a shape from its JSON spec dict."""
    kind = _spec_value(spec, "shape spec", "an object").get("shape")
    dim = int(_spec_value(spec.get("dim", 2), "dim", "an integer"))

    def number(key):
        return float(_spec_field(spec, key, "a number"))
    if kind == "ball":
        return Ball(number("radius"), dim)
    if kind == "annulus":
        return Annulus(number("inner"), number("outer"), dim)
    if kind == "polytope":
        return Polytope([[_spec_value(x, "vertex coordinate", "a number")
                          for x in _spec_value(v, "vertex", "a list")]
                         for v in _spec_field(spec, "vertices", "a list")], dim)
    if kind == "union":
        union = DisjointUnion([parse_set(_spec_value(m, "union member", "an object"))
                               for m in _spec_field(spec, "members", "a list")])
        if "dim" in spec and union.dim != dim:
            raise ValueError(f"union of {union.dim}-D members given dim {dim}")
        return union
    raise ValueError(f"unknown shape kind: {kind!r}")


def load_set_spec(source) -> EuclideanSet:
    if isinstance(source, (str, Path)):
        with open(source) as fh:
            return parse_set(json.load(fh))
    return parse_set(source)


def set_to_spec(shape: EuclideanSet) -> dict:
    if isinstance(shape, Ball):
        return {"dim": shape.dim, "shape": "ball", "radius": shape.radius}
    if isinstance(shape, Annulus):
        return {"dim": shape.dim, "shape": "annulus",
                "inner": shape.inner, "outer": shape.outer}
    if isinstance(shape, Polytope):
        return {"dim": shape.dim, "shape": "polytope",
                "vertices": shape.vertices.tolist()}
    if isinstance(shape, DisjointUnion):
        return {"dim": shape.dim, "shape": "union",
                "members": [set_to_spec(m) for m in shape.members]}
    raise TypeError(f"not a shape: {shape!r}")
