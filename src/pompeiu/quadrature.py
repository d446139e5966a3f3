"""Adaptive integration over shapes by order doubling.

The integrands here (complex exponentials, spherical averages) are entire,
so the mapped tensor Gauss rules from the shapes module converge
geometrically; doubling the order until two successive estimates agree
gives a reliable error estimate.
"""

from __future__ import annotations

import numpy as np

DEFAULT_TOL = 1e-8
_START_ORDER = 8
_MAX_ORDER = 512
# most nodes in a rule: the 3-D radial rule of order 128 (2^22 nodes) fits,
# the next one (2^25) does not
_NODE_BUDGET = 2 ** 23


class QuadratureError(RuntimeError):
    """Adaptive order doubling failed to reach the requested tolerance."""


def integrate_over(shape, integrand, tol: float = DEFAULT_TOL) -> complex:
    """Integral over the shape of a vectorized integrand on N x dim points.

    Doubling the order multiplies the node count by about 2^dim; a rule
    past order _MAX_ORDER or _NODE_BUDGET nodes is never built."""
    order = _START_ORDER
    pts, wts = shape.quad_nodes(order)
    prev = complex(np.dot(wts.astype(complex), integrand(pts)))
    delta = float("inf")
    while 2 * order <= _MAX_ORDER and len(pts) * 2 ** shape.dim <= _NODE_BUDGET:
        order *= 2
        pts, wts = shape.quad_nodes(order)
        cur = complex(np.dot(wts.astype(complex), integrand(pts)))
        delta = abs(cur - prev)
        if delta < tol:
            return cur
        prev = cur
    raise QuadratureError(
        f"no convergence to {tol:g} by order {order} ({len(pts)} nodes, "
        f"last delta {delta:.3e})")


def sphere_average(f, n: int = 64) -> complex:
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
