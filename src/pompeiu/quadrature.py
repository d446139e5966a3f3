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


def integrate_over(shape, integrand, tol: float = DEFAULT_TOL,
                   count: int | None = None):
    """Integral over the shape of a vectorized integrand on N x dim points,
    as one complex.  With a count, integrand(pts, idx) yields the values on
    pts of each integrand in the ascending list idx (a subset of
    range(count)), in that order, and the list of the count integrals is
    returned; count = 0 builds no rule.  A rule with one weight per node
    takes a row per integrand; one with S weight rows (`PolarRule`) takes
    blocks of rows and serves integrand i with weight row i mod S.  Each
    row is summed as it comes, a block's by (vals * w).sum(axis=1), which
    does not depend on the rows beside it.

    Each integrand stops at the first doubling whose estimate moves by
    less than tol; the others carry on with the next rule.  Doubling the
    order multiplies the node count by about 2^dim; a rule past order
    _MAX_ORDER or _NODE_BUDGET nodes is never built, and QuadratureError
    is raised if any integrand has not settled by then.  A NaN step is
    reported as NaN."""
    rows = integrand if count is not None else lambda pts, idx: [integrand(pts)]
    total = 1 if count is None else count
    prev, done, step = [None] * total, [None] * total, [0.0] * total
    pending = list(range(total))
    order, nodes = _START_ORDER // 2, 0
    while pending and 2 * order <= _MAX_ORDER \
            and nodes * 2 ** shape.dim <= _NODE_BUDGET:
        order *= 2
        pts, wts = shape.quad_nodes(order)
        nodes = wts.size
        for i, cur in zip(pending, _sums(wts, pending, rows(pts, pending)), strict=True):
            step[i] = float("inf") if prev[i] is None else abs(cur - prev[i])
            if step[i] < tol:
                done[i] = cur
            prev[i] = cur
        pending = [i for i in pending if done[i] is None]
    if pending:
        delta = np.max([step[i] for i in pending])      # nan if any step is
        raise QuadratureError(
            f"no convergence to {tol:g} by order {order} ({nodes} nodes, "
            f"last delta {delta:.3e}, {len(pending)} of {total} integrands)")
    return done[0] if count is None else done


def _sums(wts: np.ndarray, pending: list, values):
    """The weighted sum of each row of values, one complex per integrand."""
    at = 0
    for vals in values:
        if wts.ndim == 2:
            w = wts[np.asarray(pending[at:at + len(vals)]) % len(wts)]
            at += len(vals)
            yield from (complex(v) for v in (vals * w).sum(axis=1))
        elif np.iscomplexobj(vals):
            yield complex(wts @ vals.real, wts @ vals.imag)
        else:
            yield complex(wts @ vals)
