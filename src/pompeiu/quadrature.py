"""Adaptive integration over shapes by order doubling.

The integrands here (complex exponentials, spherical averages) are entire,
so the mapped tensor Gauss rules from the shapes module converge
geometrically; doubling the order until two successive estimates agree
gives a reliable error estimate.  Many integrands over one shape share
each rule, built once per order: one call yields the rows of every
integrand still pending, each summed as it comes, and each integrand
stops at its own order.  Weights stay real, so a real integrand is summed
in real arithmetic.
"""

from __future__ import annotations

import numpy as np

DEFAULT_TOL = 1e-8
_START_ORDER = 8
_MAX_ORDER = 512
# most nodes in a rule: the 3-D ball's order-128 rule (2^22 nodes) fits, the
# next (2^25) does not; the largest built is the order-256 rule of a 3-D
# annulus a quarter as wide as its outer radius (2^23 nodes, 200 MB of points)
_NODE_BUDGET = 2 ** 23


class QuadratureError(RuntimeError):
    """Adaptive order doubling failed to reach the requested tolerance."""


def _weighted_sum(wts: np.ndarray, vals: np.ndarray) -> complex:
    if np.iscomplexobj(vals):
        return complex(wts @ vals.real, wts @ vals.imag)
    return complex(wts @ vals)


def integrate_over(shape, integrand, tol: float = DEFAULT_TOL,
                   count: int | None = None):
    """Integral over the shape of a vectorized integrand on N x dim points,
    as one complex.  With a count, integrand(pts, idx) yields the values on
    pts of each integrand in the ascending list idx (a subset of
    range(count)), one row per index in that order, and the list of the
    count integrals is returned; count = 0 builds no rule.

    Each integrand stops at the first doubling whose estimate moves by
    less than tol; the others carry on with the next rule.  Doubling the
    order multiplies the node count by about 2^dim; a rule past order
    _MAX_ORDER or _NODE_BUDGET nodes is never built, and QuadratureError
    is raised if any integrand has not settled by then."""
    rows = integrand if count is not None else lambda pts, idx: [integrand(pts)]
    total = 1 if count is None else count
    prev, done = [None] * total, [None] * total
    pending = list(range(total))
    order, nodes, delta = _START_ORDER // 2, 0, float("inf")
    while pending and 2 * order <= _MAX_ORDER \
            and nodes * 2 ** shape.dim <= _NODE_BUDGET:
        order *= 2
        pts, wts = shape.quad_nodes(order)
        nodes = len(pts)
        unsettled, delta = [], 0.0
        for i, vals in zip(pending, rows(pts, pending), strict=True):
            cur = _weighted_sum(wts, vals)
            step = float("inf") if prev[i] is None else abs(cur - prev[i])
            if step < tol:
                done[i] = cur
            else:
                prev[i], delta = cur, max(delta, step)
                unsettled.append(i)
        pending = unsettled
    if pending:
        raise QuadratureError(
            f"no convergence to {tol:g} by order {order} ({nodes} nodes, "
            f"last delta {delta:.3e}, {len(pending)} of {total} integrands)")
    return done[0] if count is None else done
