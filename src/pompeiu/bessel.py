"""Bessel functions J0 and J1 for real and complex arguments.

Power series inside |z| <= 12, large-argument (Hankel) expansion outside.
Both branches accept numpy arrays.  Every kernel here keeps the dtype of
its input: a real scalar or array is evaluated in real arithmetic and
gives float values, a complex one gives complex values, by the same code
(ints count as real).  The splitting radius keeps the series
cancellation below ~1e-12 while the asymptotic remainder at |z| = 12 is
already below 1e-13, so the two branches agree well inside the 1e-10
tolerances used elsewhere.  Arguments in the left half plane are reflected
with J0(-z) = J0(z), J1(-z) = -J1(z).
"""

from __future__ import annotations

import numpy as np

SERIES_RADIUS = 12.0
_SERIES_TERMS = 48
_ASYMPTOTIC_TERMS = 19

# Two rules keep every entry of an array bit-identical to the same argument
# evaluated alone, and the real path bit-identical to the real part of the
# complex one in the series: a product of two complex arrays is never
# formed in place (numpy's in-place complex multiply rounds a one-element
# array differently), and a division by a real constant is a product with
# its reciprocal (numpy divides a complex number by one that way).  So a
# product of two complex arrays names both factors: numpy turns a product
# with an unnamed temporary into an in-place one once the temporary holds
# 16 384 complex entries (256 KiB).


def _series(nu: int, z: np.ndarray) -> np.ndarray:
    # J_nu(z) = (z/2)^nu * sum_k (-z^2/4)^k / (k! (k+nu)!), nu = 0 or 1
    q = -(z * z) / 4.0
    term = np.ones_like(q)
    acc = np.ones_like(q)
    for k in range(1, _SERIES_TERMS):
        term = term * q
        term *= 1.0 / (k * (k + nu))
        acc += term
    return acc if nu == 0 else acc * z / 2.0


def _asymptotic(nu: int, z: np.ndarray) -> np.ndarray:
    mu = 4 * nu * nu
    p = np.ones_like(z)
    q = np.zeros_like(z)
    term = np.ones_like(z)
    for k in range(1, _ASYMPTOTIC_TERMS):
        term *= mu - (2 * k - 1) ** 2
        term *= 1.0 / (k * 8.0)
        term /= z
        # the k-th term goes to P (k even) or Q (k odd), added when k % 4 < 2
        acc = p if k % 2 == 0 else q
        if k % 4 < 2:
            acc += term
        else:
            acc -= term
    omega = z - (nu / 2.0 + 0.25) * np.pi
    cos, sin = np.cos(omega), np.sin(omega)
    wave = p * cos - q * sin
    amplitude = np.sqrt(2.0 / (np.pi * z))
    return amplitude * wave


def _as_array(z) -> np.ndarray:
    """z as a float or complex array, whichever holds it without loss."""
    z = np.asarray(z)
    return np.asarray(z, dtype=complex if z.dtype.kind == "c" else float)


def _kernel(z, inside, f_in, f_out):
    """f_in on the entries of z where inside(z) holds, f_out on the rest,
    for z a scalar or an array, in the dtype of z.  A branch that covers
    every entry runs on z itself, with no gather or scatter."""
    z = _as_array(z)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    mask = inside(z)
    if mask.all():
        out = f_in(z)
    elif not mask.any():
        out = f_out(z)
    else:
        out = np.empty_like(z)
        out[mask] = f_in(z[mask])
        out[~mask] = f_out(z[~mask])
    return out[0] if scalar else out


def _eval(nu: int, z):
    # reflect the left half plane: J0(-z) = J0(z), J1(-z) = -J1(z)
    z = _as_array(z)
    flip = z.real < 0
    if flip.any():
        z = np.where(flip, -z, z)
    out = _kernel(z, lambda z: np.abs(z) <= SERIES_RADIUS,
                  lambda z: _series(nu, z),
                  lambda z: _asymptotic(nu, z))
    if nu == 1 and flip.any():
        out = np.where(flip, -out, out)[()]
    return out


def besselj0(z):
    """J0 at real or complex z (scalar or array)."""
    return _eval(0, z)


def besselj1(z):
    """J1 at real or complex z (scalar or array)."""
    return _eval(1, z)


def j1_over_z(z):
    """J1(z)/z, an even entire function with value 1/2 at z = 0."""
    return _kernel(z, lambda z: np.abs(z) < 1e-8,
                   lambda z: 0.5 - z ** 2 / 16.0,
                   lambda z: besselj1(z) / z)


def sinc(z):
    """sin(z)/z with the removable singularity filled in."""
    def series(z):
        t2 = z ** 2
        return 1.0 - t2 / 6.0 + t2 * t2 / 120.0
    return _kernel(z, lambda z: np.abs(z) < 1e-6, series,
                   lambda z: np.sin(z) / z)


def ball3_profile(z):
    """(sin z - z cos z)/z^3, even and entire, value 1/3 at z = 0.

    This is the radial transform profile of the unit ball in three
    dimensions up to the 4*pi factor.
    """
    def series(z):
        neg_u2 = -z ** 2
        # sum_{k>=1} (-1)^{k+1} 2k u^{2k-2} / (2k+1)!
        term = np.full_like(neg_u2, 1.0 / 3.0)
        acc = term.copy()
        for k in range(2, 12):
            term = term * neg_u2 * (2 * k) / ((2 * k - 2) * (2 * k) * (2 * k + 1))
            acc = acc + term
        return acc
    def closed(z):
        cos = np.cos(z)
        return (np.sin(z) - z * cos) / z ** 3
    return _kernel(z, lambda z: np.abs(z) < 0.5, series, closed)
