"""Bessel functions J0 and J1 for real and complex arguments.

Power series inside |z| <= 12, large-argument expansion outside, both by
Horner's rule on coefficient tables built once at import.  The series is
in z^2 with 30 terms.  The expansion is in modulus-phase form (DLMF
10.18.17-18), J_nu(z) = sqrt(2/(pi z)) M cos(z - (nu/2 + 1/4) pi + theta),
so each entry takes one cosine: M = sqrt(P^2 + Q^2) is a series in 1/z^2
and theta = atan(Q/P) an odd series in 1/z, both derived in float64 from
Hankel's P and Q by power-series arithmetic, with 10 and 12 terms for J0
and 13 and 10 for J1.  Both branches accept numpy arrays.  Every kernel
here keeps the dtype of its input: a real scalar or array is evaluated in
real arithmetic and gives float values, a complex one gives complex
values, by the same code (ints count as real).  The splitting radius keeps
the series cancellation below ~1e-12.  On real [0, 60] the largest errors
are the series' just inside it, 5.7e-13 for J0 and 5.5e-13 for J1 (4.7e-14
for J1(z)/z), against 3.8e-13 and 4.1e-13 for the expansion; in the strip
|Im z| <= 5 the relative error is at most 8.6e-12, just past |z| = 12, well
inside the 1e-10 tolerances used elsewhere.  Arguments in the left half
plane are reflected with J0(-z) = J0(z), J1(-z) = -J1(z).
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
# Hankel's k-th term, k < 25, is a_k / z^k with a_k = (-1)^(k // 2) prod_{j<=k}
# (4 nu^2 - (2j-1)^2) / (8^k k!); even k make P, odd k Q, both times sqrt(2/pi).
_HANKEL = [[math.sqrt(2.0 / math.pi) * (-1) ** (k // 2)
            * (math.prod(4 * nu * nu - (2 * j - 1) ** 2 for j in range(1, k + 1))
               / (8 ** k * math.factorial(k))) for k in range(25)] for nu in (0, 1)]


def _modulus_phase(a, modulus_terms: int, phase_terms: int):
    """From P + Q = sum_k a_k w^k (P the even powers, Q the odd ones), the
    first coefficients of M = sqrt(P^2 + Q^2), a series in w^2, and of
    theta / w with theta = atan(Q/P), an odd series in w.  Power-series
    arithmetic in float64, truncated at len(a) terms: theta' = (P Q' - Q P')
    / M^2, integrated term by term."""
    n = len(a)

    def mul(x, y):
        return [sum(x[i] * y[k - i] for i in range(k + 1)) for k in range(n)]

    def div(x, y):
        out = []
        for k in range(n):
            out.append((x[k] - sum(out[i] * y[k - i] for i in range(k))) / y[0])
        return out

    p = [c if k % 2 == 0 else 0.0 for k, c in enumerate(a)]
    q = [c if k % 2 else 0.0 for k, c in enumerate(a)]
    m2 = [x + y for x, y in zip(mul(p, p), mul(q, q))]
    m = [math.sqrt(m2[0])]
    for k in range(1, n):
        m.append((m2[k] - sum(m[i] * m[k - i] for i in range(1, k))) / (2 * m[0]))
    dp, dq = ([k * c for k, c in enumerate(x)][1:] + [0.0] for x in (p, q))   # d/dw
    num = [x - y for x, y in zip(mul(p, dq), mul(q, dp))]
    theta = [0.0] + [c / (k + 1) for k, c in enumerate(div(num, m2)[:-1])]
    return m[0:2 * modulus_terms:2], theta[1:2 * phase_terms:2]


# Term counts (modulus, phase): the least error on real [12, 60] among 8..14
# and 7..14 terms that keep the relative error in the strip |Im z| <= 5 below 1e-11.
_MODULUS_PHASE = [_modulus_phase(_HANKEL[0], 10, 12), _modulus_phase(_HANKEL[1], 13, 10)]
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
    # sqrt(2 / (pi z)) M cos(omega + theta), divided by z with over_z
    modulus, phase = _MODULUS_PHASE[nu]
    w = 1.0 / z
    w2 = w * w
    m = _horner(modulus, w2)
    theta = _horner(phase, w2)
    theta = theta * w
    wave = np.cos(z - (nu / 2.0 + 0.25) * np.pi + theta)
    amplitude = np.sqrt(w)
    if over_z:
        amplitude = amplitude * w
    amplitude = amplitude * m
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
