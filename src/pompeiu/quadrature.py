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


class QuadratureError(RuntimeError):
    """Adaptive order doubling failed to reach the requested tolerance."""


def integrate_over(shape, integrand, tol: float = DEFAULT_TOL,
                   start_order: int = _START_ORDER) -> complex:
    """Integral over the shape of a vectorized integrand on N x dim points."""
    order = start_order
    pts, wts = shape.quad_nodes(order)
    prev = complex(np.dot(wts.astype(complex), integrand(pts)))
    while order <= _MAX_ORDER:
        order *= 2
        pts, wts = shape.quad_nodes(order)
        cur = complex(np.dot(wts.astype(complex), integrand(pts)))
        if abs(cur - prev) < tol:
            return cur
        prev = cur
    raise QuadratureError(
        f"no convergence to {tol:g} at order {_MAX_ORDER} (last delta "
        f"{abs(cur - prev):.3e})")


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
