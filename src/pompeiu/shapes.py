"""Compact subsets of the plane or of 3-space: balls, annuli (both centered
at the origin), convex polytopes, and disjoint unions.

Every shape knows its exact volume, its bounding box, whether it is
invariant under all rotations, and how to produce mapped tensor quadrature
nodes of a given order for integrals over itself.  A radial shape also
gives its rule folded onto the meridian half-plane, `MeridianRule`, for
integrands that depend only on the distance to a point.
"""

from __future__ import annotations

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
    "MeridianRule",
    "parse_set",
    "load_set_spec",
    "set_to_spec",
]


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
        if not math.isfinite(self.volume):
            raise ValueError(f"ball of radius {self.radius:g}: its volume overflows")

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

    def meridian_nodes(self, order: int):
        return _meridian_nodes(self.dim, 0.0, self.radius, order)


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
        if not math.isfinite(self.volume):
            raise ValueError(f"annulus of outer radius {self.outer:g}: its volume overflows")

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

    def meridian_nodes(self, order: int):
        return _meridian_nodes(self.dim, self.inner, self.outer, order)


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
        # stacked once for the transform, with the |det| of each one's edges
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
        pts, wts = [], []
        for simplex in self._simplices:
            p, w = _simplex_nodes(simplex, order)
            pts.append(p)
            wts.append(w)
        return np.vstack(pts), np.concatenate(wts)

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

    def meridian_nodes(self, order: int):
        pts, wts = zip(*(m.meridian_nodes(order) for m in self.members))
        return np.vstack(pts), np.concatenate(wts)


EuclideanSet = Ball | Annulus | Polytope | DisjointUnion


@dataclass(frozen=True)
class MeridianRule:
    """The rule of a radial shape folded onto its meridian half-plane.

    Put e = e_1.  An integrand that depends on y only through
    p = y.e and q = |y - p e| has the same integral over the shape on the
    2-column nodes (p, q) of `meridian_nodes` as on the full rule of
    `quad_nodes`: the 3-D rule's azimuthal sum, and in the plane the pair
    of mirror angles theta and -theta, are summed into the weights.  Its
    `dim` is the node width, 2, and order doubling multiplies its node
    count by about 4."""

    shape: EuclideanSet
    dim = 2

    def quad_nodes(self, order: int):
        return self.shape.meridian_nodes(order)


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


def _radii(r0: float, r1: float, order: int):
    """Gauss nodes and weights on [r0, r1], of the balanced radial order."""
    t, wt = gauss_nodes(_radial_order(r0, r1, order))
    return (r1 - r0) / 2.0 * (t + 1.0) + r0, (r1 - r0) / 2.0 * wt


def _radial_nodes(dim: int, r0: float, r1: float, order: int):
    """`_radii` x 2 order angles (x order Gauss polar nodes in 3-space)."""
    r, wr = _radii(r0, r1, order)
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


def _meridian_nodes(dim: int, r0: float, r1: float, order: int):
    """_radial_nodes, on the same radii, folded onto the half-plane q >= 0:
    nodes (p, q) with weights that carry the folded sum.  In the plane the
    angles theta_k and theta_{n-k} of the n = 2 order equispaced ones are
    mirror images, so k runs over 0..n/2 with weight 2 but at both ends;
    in 3-space the theta sum of the r x u x theta grid is 2 pi."""
    r, wr = _radii(r0, r1, order)
    if dim == 2:
        n_ang = 2 * order
        theta = 2.0 * np.pi * np.arange(order + 1) / n_ang
        w_theta = 2.0 * np.pi / n_ang
        fold = np.full(order + 1, 2.0 * w_theta)
        fold[[0, -1]] = w_theta
        pts = np.stack([np.outer(r, np.cos(theta)).ravel(),
                        np.outer(r, np.sin(theta)).ravel()], axis=1)
        return pts, np.outer(wr * r, fold).ravel()
    u, wu = gauss_nodes(order)
    pts = np.stack([np.outer(r, u).ravel(),
                    np.outer(r, np.sqrt(1.0 - u ** 2)).ravel()], axis=1)
    return pts, np.outer(wr * r ** 2, wu * (2.0 * np.pi)).ravel()


def _simplex_nodes(simplex: np.ndarray, order: int):
    """Tensor Gauss nodes on a triangle/tetrahedron via the collapsed map."""
    t, w = gauss_nodes(order)
    u = (t + 1.0) / 2.0
    wu = w / 2.0
    v = simplex
    if len(v) == 3:
        A, B = np.meshgrid(u, u, indexing="ij")
        WA, WB = np.meshgrid(wu, wu, indexing="ij")
        pts = (v[0][None, :]
               + A.ravel()[:, None] * (v[1] - v[0])[None, :]
               + (A * B).ravel()[:, None] * (v[2] - v[1])[None, :])
        area2 = abs(np.linalg.det(np.stack([v[1] - v[0], v[2] - v[0]])))
        wts = (WA * WB * A).ravel() * area2
        return pts, wts
    A, B, C = np.meshgrid(u, u, u, indexing="ij")
    WA, WB, WC = np.meshgrid(wu, wu, wu, indexing="ij")
    pts = (v[0][None, :]
           + A.ravel()[:, None] * (v[1] - v[0])[None, :]
           + (A * B).ravel()[:, None] * (v[2] - v[1])[None, :]
           + (A * B * C).ravel()[:, None] * (v[3] - v[2])[None, :])
    vol6 = abs(np.linalg.det(np.stack([v[1] - v[0], v[2] - v[0], v[3] - v[0]])))
    wts = (WA * WB * WC * A * A * B).ravel() * vol6
    return pts, wts


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
        return DisjointUnion([parse_set(_spec_value(m, "union member", "an object"))
                              for m in _spec_field(spec, "members", "a list")])
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
