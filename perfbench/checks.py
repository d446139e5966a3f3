"""Checks of the `pompeiu` CLI's outputs against computations made apart
from the program.

Nothing here imports `pompeiu`. The finite verdicts come from the group
specs' permutations: the discrete Fourier transform of the indicator for
cyclic groups, the rank of the translate matrix otherwise. The Euclidean
checks use closed-form transforms of boxes and the zeros of radial profiles
found with `scipy.special` and bracketing. Every check raises `CheckError`
on the first wrong value it finds.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
from scipy.optimize import brentq
from scipy.special import j1

SWEEP_HEADER = ["bitmask", "subset", "oracle", "spectral", "convolution",
                "agree", "witness"]
DFT_ZERO_TOL = 1e-8        # |DFT| of a 0/1 vector of length <= 24 at a zero
IDENTITY_TOL = 1e-12       # spherical functions are 1 at the identity
MODULUS_SLACK = 1e-9       # and bounded by 1 in modulus
LANDSCAPE_RTOL = 1e-9      # orbit maximum against the closed-form box transform
WITNESS_TOL = 1e-8         # witness frequency against the reference zero
ZERO_SCAN_STEP = 1e-3      # bracketing step for the reference zeros


class CheckError(Exception):
    """An output of the program disagrees with the independent reference."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _read_csv(path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _read_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# finite homogeneous spaces, rebuilt from the spec's permutations


def _compose(p: tuple, q: tuple) -> tuple:
    return tuple(p[i] for i in q)


def _elements(spec: dict) -> list[tuple]:
    """The group's elements as permutations, in the element order the CLI
    documents: residues for cyclic groups, one-line lexicographic order for
    symmetric groups, rotations then reflections for dihedral groups."""
    n = int(spec["n"])
    family = spec["family"]
    if family == "cyclic":
        return [tuple((i + a) % n for i in range(n)) for a in range(n)]
    if family == "symmetric":
        return list(itertools.permutations(range(n)))
    if family == "dihedral":
        return ([tuple((i + k) % n for i in range(n)) for k in range(n)]
                + [tuple((k - i) % n for i in range(n)) for k in range(n)])
    raise ValueError(f"no reference model for family {family!r}")


def _closure(generators: list[tuple], identity: tuple) -> set:
    members = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g in generators:
                y = _compose(x, g)
                if y not in members:
                    members.add(y)
                    nxt.append(y)
        frontier = nxt
    return members


def _rank(rows) -> int:
    """Exact rank over the rationals."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(rank + 1, len(m)):
            if m[i][c] != 0:
                f = m[i][c] / m[rank][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


class SpaceModel:
    """G/K rebuilt from a group spec: the cosets, numbered in the order in
    which the group's element list first meets them, and the action of G
    on them."""

    def __init__(self, spec: dict):
        elements = _elements(spec)
        identity = elements[0]
        n = len(identity)
        subgroup = spec.get("subgroup_generators", [])
        if spec["family"] == "cyclic":
            gens = [tuple((i + int(r)) % n for i in range(n)) for r in subgroup]
        else:
            gens = [tuple(int(x) for x in p) for p in subgroup]
        k_members = _closure(gens, identity)
        self.cyclic = spec["family"] == "cyclic" and len(k_members) == 1
        coset_of: dict[tuple, int] = {}
        transversal = []
        for g in elements:
            if g in coset_of:
                continue
            for k in k_members:
                coset_of[_compose(g, k)] = len(transversal)
            transversal.append(g)
        self.n_cosets = len(transversal)
        self.action = [[coset_of[_compose(g, t)] for t in transversal]
                       for g in elements]
        # K-orbits on G/K, i.e. the double cosets K\G/K
        self.k_orbits, seen = 0, set()
        for c in range(self.n_cosets):
            if c not in seen:
                self.k_orbits += 1
                seen.update(coset_of[_compose(k, transversal[c])] for k in k_members)
        self._verdicts: dict[tuple, bool] = {}

    def has_property(self, subset) -> bool:
        """E has the Pompeiu property iff the only function on G/K with zero
        sum over every translate gE is zero."""
        key = tuple(sorted(int(c) for c in subset))
        if key not in self._verdicts:
            if self.cyclic:
                indicator = np.zeros(self.n_cosets)
                indicator[list(key)] = 1.0
                verdict = bool(np.abs(np.fft.fft(indicator)).min() > DFT_ZERO_TOL)
            else:
                translates = ({row[e] for e in key} for row in self.action)
                rows = {tuple(int(c in t) for c in range(self.n_cosets))
                        for t in translates}
                verdict = _rank(sorted(rows)) == self.n_cosets
            self._verdicts[key] = verdict
        return self._verdicts[key]

    def sweep_verdicts(self) -> np.ndarray:
        """has_property for every bitmask 1 .. 2^n - 1, in bitmask order."""
        n = self.n_cosets
        masks = np.arange(1, 1 << n)
        if not self.cyclic:
            return np.array([self.has_property(
                [c for c in range(n) if m >> c & 1]) for m in masks])
        bits = (masks[:, None] >> np.arange(n)[None, :]) & 1
        return np.abs(np.fft.fft(bits.astype(float), axis=1)).min(axis=1) \
            > DFT_ZERO_TOL


def _bool(text: str, where: str) -> bool:
    _require(text in ("true", "false"), f"{where}: {text!r} is not a boolean")
    return text == "true"


def check_sweep(model: SpaceModel, csv_path, summary_path) -> None:
    """Every row's three verdicts against the reference, one row per
    nonempty subset, and a summary that counts the same."""
    n = model.n_cosets
    rows = _read_csv(csv_path)
    _require(rows and rows[0] == SWEEP_HEADER, f"{csv_path}: bad header")
    body = rows[1:]
    _require(len(body) == (1 << n) - 1,
             f"{csv_path}: {len(body)} rows, want {(1 << n) - 1}")
    want = model.sweep_verdicts()
    for mask, row in enumerate(body, start=1):
        where = f"{csv_path} row {mask}"
        _require(len(row) == len(SWEEP_HEADER), f"{where}: {len(row)} fields")
        bitmask, subset, oracle, spectral, conv, agree, witness = row
        _require(bitmask == str(mask), f"{where}: bitmask {bitmask}")
        _require(subset == "|".join(str(c) for c in range(n) if mask >> c & 1),
                 f"{where}: subset {subset!r}")
        expect = bool(want[mask - 1])
        for method, text in (("oracle", oracle), ("spectral", spectral),
                             ("convolution", conv)):
            _require(_bool(text, where) == expect,
                     f"{where}: {method} says {text}, reference says {expect}")
        _require(_bool(agree, where), f"{where}: agree is {agree}")
        if expect:
            _require(witness == "", f"{where}: witness {witness!r} on Pompeiu")
        else:
            ok = witness == "kernel" or (
                witness.startswith("spherical:")
                and witness[len("spherical:"):].isdigit()
                and int(witness[len("spherical:"):]) < model.k_orbits)
            _require(ok, f"{where}: witness {witness!r}")
    summary = _read_json(summary_path)
    pompeiu = int(want.sum())
    expected = {"command": "finite-sweep", "subsets": (1 << n) - 1,
                "pompeiu": pompeiu, "not_pompeiu": (1 << n) - 1 - pompeiu,
                "disagreements": 0}
    for key, value in expected.items():
        _require(summary.get(key) == value,
                 f"{summary_path}: {key} is {summary.get(key)!r}, want {value!r}")


def check_finite_report(model: SpaceModel, subset, report_path) -> None:
    """A `finite check` report: all three verdicts equal the reference, and
    a NotPompeiu witness is a spherical function on the K-orbits of G/K
    with value 1 at the identity and modulus at most 1."""
    rep = _read_json(report_path)
    expect = model.has_property(subset)
    _require(rep.get("command") == "finite-check", f"{report_path}: command")
    _require(rep.get("E") == sorted(int(c) for c in subset), f"{report_path}: E")
    _require(rep.get("agreement") is True, f"{report_path}: agreement false")
    _require(rep.get("verdicts") == {"oracle": expect, "spectral": expect,
                                     "convolution": expect},
             f"{report_path}: verdicts {rep.get('verdicts')}, reference {expect}")
    _require(rep.get("verdict") == ("Pompeiu" if expect else "NotPompeiu"),
             f"{report_path}: verdict {rep.get('verdict')}")
    witness = rep.get("witness")
    if expect:
        _require(witness is None, f"{report_path}: witness on a Pompeiu set")
        return
    _require(isinstance(witness, dict) and "values" in witness,
             f"{report_path}: NotPompeiu without spherical witness values")
    values = witness["values"]
    _require(len(values) == model.k_orbits,
             f"{report_path}: {len(values)} values, {model.k_orbits} K-orbits")
    re0, im0 = values[0]
    _require(abs(re0 - 1.0) <= IDENTITY_TOL and abs(im0) <= IDENTITY_TOL,
             f"{report_path}: identity value {values[0]}")
    for v in values:
        _require(math.hypot(v[0], v[1]) <= 1.0 + MODULUS_SLACK,
                 f"{report_path}: witness value {v} has modulus above 1")


# ---------------------------------------------------------------------------
# Euclidean shapes


def grid_count(lam_hi: float, grid: float) -> int:
    """Grid frequencies k * grid in (0, lam_hi]."""
    return int(round(lam_hi / grid))


def rotation_directions(dim: int, count: int) -> np.ndarray:
    """The orbit directions the CLI documents: equispaced on the circle, a
    Fibonacci lattice on the 2-sphere."""
    j = np.arange(count)
    if dim == 2:
        theta = 2.0 * np.pi * j / count
        return np.stack([np.cos(theta), np.sin(theta)], axis=1)
    z = 1.0 - (2.0 * j + 1.0) / count
    phi = j * math.pi * (3.0 - math.sqrt(5.0))
    rho = np.sqrt(1.0 - z ** 2)
    return np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=1)


def box_orbit_max(lams, rotation: np.ndarray, count: int) -> np.ndarray:
    """max over the orbit directions u of |transform of R [0,1]^d + t| at
    lam u.  The box's transform is a product of one-variable factors
    (1 - exp(-i w)) / (i w) at w = lam R^T u, whose modulus is
    |sinc(w / 2)|; the translation only changes the phase."""
    dirs = rotation_directions(rotation.shape[0], count)
    w = np.asarray(lams, dtype=float)[:, None, None] * (dirs @ rotation)[None]
    return np.abs(np.sinc(w / (2.0 * np.pi))).prod(axis=2).max(axis=1)


def _euclid_header(rep: dict, path, lam_hi: float, grid: float,
                   rotations: int | None, seed: int | None) -> None:
    _require(rep.get("command") == "euclid-decide", f"{path}: command")
    _require(rep.get("searched_range") == [0.0, lam_hi],
             f"{path}: searched range {rep.get('searched_range')}")
    _require(rep.get("grid") == grid, f"{path}: grid {rep.get('grid')}")
    if rotations is not None:
        _require(rep.get("rotation_samples") == rotations,
                 f"{path}: rotation samples {rep.get('rotation_samples')}")
    _require(rep.get("seed") == seed, f"{path}: seed {rep.get('seed')}")


def _landscape(path, lam_hi: float, grid: float) -> np.ndarray:
    rows = _read_csv(path)
    _require(rows and rows[0] == ["lambda", "orbit_max"], f"{path}: bad header")
    body = np.asarray([[float(a), float(b)] for a, b in rows[1:]])
    n = grid_count(lam_hi, grid)
    _require(body.shape == (n, 2), f"{path}: {len(rows) - 1} rows, want {n}")
    _require(np.abs(body[:, 0] - grid * np.arange(1, n + 1)).max() < 1e-9,
             f"{path}: frequencies off the grid")
    return body


def check_polytope(report_path, landscape_path, *, volume: float,
                   lam_hi: float, grid: float, rotations: int,
                   box_rotation: np.ndarray | None = None) -> None:
    """No failure found, every orbit maximum above 1e-6 * volume, and for a
    box every landscape row equal to the closed form over the same
    directions."""
    rep = _read_json(report_path)
    _euclid_header(rep, report_path, lam_hi, grid, rotations, None)
    _require(rep.get("verdict") == "NoFailureFoundInRange",
             f"{report_path}: verdict {rep.get('verdict')}")
    _require(rep.get("lambda_witnesses") == [], f"{report_path}: witnesses")
    body = _landscape(landscape_path, lam_hi, grid)
    floor = 1e-6 * volume
    _require(body[:, 1].min() > floor,
             f"{landscape_path}: orbit maximum {body[:, 1].min():.3e} "
             f"under {floor:.3e}")
    if box_rotation is not None:
        ref = box_orbit_max(body[:, 0], box_rotation, rotations)
        rel = np.abs(body[:, 1] - ref) / ref
        worst = int(rel.argmax())
        _require(rel[worst] <= LANDSCAPE_RTOL,
                 f"{landscape_path}: lambda {body[worst, 0]} orbit maximum "
                 f"{body[worst, 1]!r} vs closed form {ref[worst]!r}")


def radial_terms(spec: dict) -> list[tuple[int, float]]:
    """A radial shape as signed balls: (+1, r) per ball, (+1, outer) and
    (-1, inner) per annulus."""
    kind = spec["shape"]
    if kind == "ball":
        return [(1, float(spec["radius"]))]
    if kind == "annulus":
        return [(1, float(spec["outer"])), (-1, float(spec["inner"]))]
    if kind == "union":
        return [t for m in spec["members"] for t in radial_terms(m)]
    raise ValueError(f"not a radial shape: {kind!r}")


def radial_volume(terms, dim: int) -> float:
    c = math.pi if dim == 2 else 4.0 * math.pi / 3.0
    return sum(s * c * r ** dim for s, r in terms)


def _radial_profile(terms, dim: int):
    """A positive multiple of the transform at frequency lam > 0: the ball
    of radius r contributes 2 pi r J1(lam r) / lam in the plane and
    4 pi (sin(lam r) - lam r cos(lam r)) / lam^3 in space."""
    if dim == 2:
        return lambda lam: sum(s * r * j1(lam * r) for s, r in terms)
    return lambda lam: sum(s * (math.sin(lam * r) - lam * r * math.cos(lam * r))
                           for s, r in terms)


def radial_zeros(terms, dim: int, lam_lo: float, lam_hi: float) -> list[float]:
    """Real zeros of the radial profile in [lam_lo, lam_hi], bracketed on a
    grid of step ZERO_SCAN_STEP and polished with Brent's method."""
    f = _radial_profile(terms, dim)
    xs = np.linspace(lam_lo, lam_hi,
                     int(math.ceil((lam_hi - lam_lo) / ZERO_SCAN_STEP)) + 1)
    vals = [f(float(x)) for x in xs]
    zeros = []
    for a, b, fa, fb in zip(xs[:-1], xs[1:], vals[:-1], vals[1:]):
        if fa == 0.0:
            zeros.append(float(a))
        elif fa * fb < 0:
            zeros.append(brentq(f, float(a), float(b), xtol=1e-14, rtol=1e-15))
    if vals[-1] == 0.0:
        zeros.append(float(xs[-1]))
    return zeros


def check_radial(report_path, landscape_path, residuals_path, *, spec: dict,
                 lam_hi: float, grid: float, seed: int,
                 vanish_tol: float = 1e-6) -> None:
    """Witnesses equal, in number and to 1e-8, the profile's real zeros on
    the searched grid's span; each has a convolution residual below
    vanish_tol * volume."""
    rep = _read_json(report_path)
    _euclid_header(rep, report_path, lam_hi, grid, None, seed)
    dim = int(spec.get("dim", 2))
    terms = radial_terms(spec)
    ref = radial_zeros(terms, dim, grid, lam_hi)
    got = rep.get("lambda_witnesses")
    _require(isinstance(got, list) and len(got) == len(ref),
             f"{report_path}: {len(got or [])} witnesses, reference has {len(ref)}")
    for w, z in zip(got, ref):
        _require(abs(w - z) < WITNESS_TOL,
                 f"{report_path}: witness {w!r} vs reference zero {z!r}")
    _require(rep.get("verdict") == ("NotPompeiu" if ref else "NoFailureFoundInRange"),
             f"{report_path}: verdict {rep.get('verdict')}")
    _landscape(landscape_path, lam_hi, grid)
    rows = _read_csv(residuals_path)
    _require(rows and rows[0] == ["lambda", "conv_residual"],
             f"{residuals_path}: bad header")
    _require(len(rows) - 1 == len(ref),
             f"{residuals_path}: {len(rows) - 1} rows, {len(ref)} witnesses")
    limit = vanish_tol * radial_volume(terms, dim)
    for (lam, res), z in zip(rows[1:], ref):
        _require(abs(float(lam) - z) < WITNESS_TOL,
                 f"{residuals_path}: residual at {lam}, reference zero {z!r}")
        _require(float(res) < limit,
                 f"{residuals_path}: residual {res} at {lam} above {limit:.3e}")


def file_digest(paths) -> bytes:
    """The concatenated bytes of a command's output files."""
    return b"".join(Path(p).read_bytes() for p in paths)
