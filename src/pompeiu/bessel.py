"""Bessel functions J0 and J1 for real and complex arguments.

Power series inside |z| <= 12, large-argument (Hankel) expansion outside,
both by Horner's rule on coefficient tables built once at import: the
series in z^2 with 30 terms, Hankel's P and Q in 1/z^2 with 19.  Both
branches accept numpy arrays.  Every kernel here keeps the dtype of its
input: a real scalar or array is evaluated in real arithmetic and gives
float values, a complex one gives complex values, by the same code (ints
count as real).  The splitting radius keeps the series cancellation below
~1e-12; the largest error is the expansion's just past it, 1.9e-12 for J0
at z = 12.01 and 3e-11 relative in the strip |Im z| <= 5, well inside
the 1e-10 tolerances used elsewhere.  Arguments in the left half plane are
reflected with J0(-z) = J0(z), J1(-z) = -J1(z).
"""

from __future__ import annotations

import math

import numpy as np

SERIES_RADIUS = 12.0

# J0(z) = sum_k c_k z^2k and J1(z) = z sum_k c_k z^2k, with c_k = (-1/4)^k
# / (k! (k+nu)! 2^nu), each an int ratio rounded once.  At |z| <= 12 the
# first term dropped, k = 30, is at most 36^30 / (30!)^2 ~ 7e-19.
_SERIES = [[(-1) ** k / (2 ** nu * 4 ** k * math.factorial(k) * math.factorial(k + nu))
            for k in range(30)] for nu in (0, 1)]
# Hankel's k-th term, k < 19, is a_k / z^k with a_k = (-1)^(k // 2) prod_{j<=k}
# (4 nu^2 - (2j-1)^2) / (8^k k!); even k make P, odd k Q, both times sqrt(2/pi).
_HANKEL = [[math.sqrt(2.0 / math.pi) * (-1) ** (k // 2)
            * (math.prod(4 * nu * nu - (2 * j - 1) ** 2 for j in range(1, k + 1))
               / (8 ** k * math.factorial(k))) for k in range(19)] for nu in (0, 1)]
# (sin z - z cos z)/z^3 = sum_k (-1)^k (2k+2) z^2k / (2k+3)!, 11 terms at |z| < 0.5
_BALL3 = [(-1) ** k * (2 * k + 2) / math.factorial(2 * k + 3) for k in range(11)]

# Every entry of an array keeps the bits of the same argument evaluated
# alone, and the real path those of the real part of the complex one in the
# series, because a product of two complex arrays is never formed in place:
# numpy's in-place complex multiply rounds a one-element array differently.
# So such a product names both factors: numpy turns a product with an
# unnamed temporary into an in-place one once the temporary holds 16 384
# complex entries (256 KiB).  Real products run in place.


def _horner(coefs, x: np.ndarray) -> np.ndarray:
    """sum_k coefs[k] x^k, each step in place when x is real."""
    acc = np.full_like(x, coefs[-1])
    for c in coefs[-2::-1]:
        if x.dtype.kind == "c":
            acc = acc * x
        else:
            acc *= x
        acc += c
    return acc


def _asymptotic(nu: int, z: np.ndarray, over_z: bool) -> np.ndarray:
    # sqrt(2 / (pi z)) (P cos(omega) - Q sin(omega)), divided by z with over_z
    w = 1.0 / z
    w2 = w * w
    p = _horner(_HANKEL[nu][0::2], w2)
    q = _horner(_HANKEL[nu][1::2], w2)
    q = q * w
    omega = z - (nu / 2.0 + 0.25) * np.pi
    cos, sin = np.cos(omega), np.sin(omega)
    wave = p * cos - q * sin
    amplitude = np.sqrt(w)
    if over_z:
        amplitude = amplitude * w
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


def _eval(nu: int, z, over_z: bool = False):
    """J_nu(z), or J1(z)/z with over_z, whose series has no z factor."""
    # reflect the left half plane: J0(-z) = J0(z), J1(-z) = -J1(z)
    z = _as_array(z)
    flip = z.real < 0
    if flip.any():
        z = np.where(flip, -z, z)

    def series(z):
        acc = _horner(_SERIES[nu], z * z)
        return acc * z if nu == 1 and not over_z else acc

    out = _kernel(z, lambda z: np.abs(z) <= SERIES_RADIUS, series,
                  lambda z: _asymptotic(nu, z, over_z))
    if nu == 1 and not over_z and flip.any():
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
    return _eval(1, z, over_z=True)


def sinc(z):
    """sin(z)/z with the removable singularity filled in."""
    return _kernel(z, lambda z: np.abs(z) < 1e-6,
                   lambda z: _horner((1.0, -1 / 6, 1 / 120), z * z),
                   lambda z: np.sin(z) / z)


def ball3_profile(z):
    """(sin z - z cos z)/z^3, even and entire, value 1/3 at z = 0.

    This is the radial transform profile of the unit ball in three
    dimensions up to the 4*pi factor.
    """
    def closed(z):
        cos = np.cos(z)
        return (np.sin(z) - z * cos) / z ** 3
    return _kernel(z, lambda z: np.abs(z) < 0.5,
                   lambda z: _horner(_BALL3, z * z), closed)
