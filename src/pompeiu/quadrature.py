"""Adaptive integration over shapes by order doubling.

The integrands here (complex exponentials, spherical averages) are entire,
so the mapped tensor Gauss rules from the shapes module converge
geometrically; doubling the order until two successive estimates agree
gives a reliable error estimate.  Several integrands over one shape share
each rule: it is built once per order, and each integrand is evaluated on
it, one at a time, until its own estimate settles.  Weights stay real, so
a real integrand is summed in real arithmetic.
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


def _weighted_sum(wts: np.ndarray, vals: np.ndarray) -> complex:
    if np.iscomplexobj(vals):
        return complex(wts @ vals.real, wts @ vals.imag)
    return complex(wts @ vals)


def integrate_over(shape, integrand, tol: float = DEFAULT_TOL):
    """Integral over the shape of a vectorized integrand on N x dim points,
    as one complex; given a list of integrands, the list of their
    integrals.

    Each integrand stops at the first doubling whose estimate moves by
    less than tol; the others carry on with the next rule.  Doubling the
    order multiplies the node count by about 2^dim; a rule past order
    _MAX_ORDER or _NODE_BUDGET nodes is never built, and QuadratureError
    is raised if any integrand has not settled by then."""
    fns = [integrand] if callable(integrand) else list(integrand)
    order = _START_ORDER
    pts, wts = shape.quad_nodes(order)
    prev = [_weighted_sum(wts, f(pts)) for f in fns]
    done: list = [None] * len(fns)
    pending = list(range(len(fns)))
    delta = float("inf")
    while pending and 2 * order <= _MAX_ORDER \
            and len(pts) * 2 ** shape.dim <= _NODE_BUDGET:
        order *= 2
        pts, wts = shape.quad_nodes(order)
        unsettled, delta = [], 0.0
        for i in pending:
            cur = _weighted_sum(wts, fns[i](pts))
            step = abs(cur - prev[i])
            if step < tol:
                done[i] = cur
            else:
                prev[i], delta = cur, max(delta, step)
                unsettled.append(i)
        pending = unsettled
    if pending:
        raise QuadratureError(
            f"no convergence to {tol:g} by order {order} ({len(pts)} nodes, "
            f"last delta {delta:.3e}, {len(pending)} of {len(fns)} integrands)")
    return done[0] if callable(integrand) else done


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
