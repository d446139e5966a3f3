"""The benchmark's workloads.

Each workload turns a seed into spec files and the CLI commands of one
round. A round is the same list of commands every time it runs; each
command carries the work it does (subsets decided or grid frequencies
covered), the files it writes and the check of those files.
"""

from __future__ import annotations

import functools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

GRID = 0.05


@dataclass
class Command:
    argv: list
    work: int                     # subsets decided or grid frequencies covered
    outputs: list                 # files the command writes
    check: Callable[[], None]     # raises checks.CheckError on a wrong output
    label: str = ""


@dataclass
class Workload:
    name: str
    unit: str                     # what one item of work is
    build: Callable[[int, Path], list]


def _write(path: Path, spec: dict) -> str:
    path.write_text(json.dumps(spec))
    return str(path)


# ---------------------------------------------------------------------------
# finite spaces


def _stabilizer_generators(n: int, fixed: list) -> list:
    """Transpositions of consecutive points within each block of a
    partition of 0..n-1: they generate the block stabilizer's product of
    symmetric groups."""
    gens = []
    for block in fixed:
        for a, b in zip(block, block[1:]):
            p = list(range(n))
            p[a], p[b] = b, a
            gens.append(p)
    return gens


def _point_stabilizer(n: int, point: int) -> dict:
    others = [i for i in range(n) if i != point]
    return {"family": "symmetric", "n": n,
            "subgroup_generators": _stabilizer_generators(n, [others])}


def _dihedral(n: int, vertex: int) -> dict:
    """D_n with K generated by the reflection that fixes the given vertex."""
    return {"family": "dihedral", "n": n,
            "subgroup_generators": [[(2 * vertex - i) % n for i in range(n)]]}


def _cyclic(n: int) -> dict:
    return {"family": "cyclic", "n": n, "subgroup_generators": []}


def _sweep_command(name: str, spec: dict, n_cosets: int, workdir: Path) -> Command:
    from checks import SpaceModel, check_sweep
    group = _write(workdir / f"{name}.json", spec)
    out, summary = workdir / f"{name}.csv", workdir / f"{name}.summary.json"
    model = functools.cache(lambda: SpaceModel(spec))   # built by the first check
    return Command(
        ["finite", "sweep", "--group", group, "--out", str(out),
         "--summary", str(summary)],
        (1 << n_cosets) - 1, [out, summary],
        lambda: check_sweep(model(), out, summary), name)


def finite_sweep_suite(seed: int, workdir: Path) -> list:
    """`finite sweep` on every acceptance-suite space. The seed picks the
    point that K fixes in S3 and S4, the vertex that K's reflection fixes
    in D3..D6, and the order of the spaces."""
    rng = random.Random(seed)
    spaces = [(f"Z{n}", _cyclic(n), n) for n in range(2, 13)]
    spaces += [(f"S{n}", _point_stabilizer(n, rng.randrange(n)), n) for n in (3, 4)]
    spaces += [(f"D{n}", _dihedral(n, rng.randrange(n)), n) for n in range(3, 7)]
    rng.shuffle(spaces)
    return [_sweep_command(name, spec, n, workdir) for name, spec, n in spaces]


def _check_command(name: str, spec: dict, subset: list, workdir: Path) -> Command:
    from checks import SpaceModel, check_finite_report
    group = _write(workdir / f"{name}.json", spec)
    out = workdir / f"{name}.report.json"
    model = functools.cache(lambda: SpaceModel(spec))   # built by the first check
    return Command(
        ["finite", "check", "--group", group,
         "--set", ",".join(str(c) for c in subset), "--out", str(out)],
        1, [out], lambda: check_finite_report(model(), subset, out), name)


def _random_subset(rng: random.Random, n: int) -> list:
    while True:
        subset = [c for c in range(n) if rng.random() < 0.5]
        if subset:
            return subset


def _periodic_subset(rng: random.Random, n: int) -> list:
    """A nonempty union of cosets of a proper nontrivial subgroup of Z_n:
    its indicator's discrete Fourier transform has zeros, so it fails."""
    period = rng.choice([d for d in range(2, n) if n % d == 0])
    residues = _random_subset(rng, period)
    return [c for c in range(n) if c % period in residues]


def finite_check_pairs(seed: int, workdir: Path) -> list:
    """`finite check` on one seeded subset of each larger pair. Every check
    builds the Hecke structure and spherical functions anew.

    S5/S4 and S5/(S3 x S2) have integer spectra; Z20, Z24 and D24 with a
    reflection have root-of-unity spectra. The cyclic subsets are periodic,
    so their checks end in a NotPompeiu witness."""
    rng = random.Random(seed)
    points = list(range(5))
    rng.shuffle(points)
    pairs = [
        ("S5_S4", _point_stabilizer(5, points[0]), 5),
        ("S5_S3xS2", {"family": "symmetric", "n": 5,
                      "subgroup_generators": _stabilizer_generators(
                          5, [sorted(points[:3]), sorted(points[3:])])}, 10),
        ("D24", _dihedral(24, rng.randrange(24)), 24),
    ]
    commands = [_check_command(name, spec, _random_subset(rng, n), workdir)
                for name, spec, n in pairs]
    for n in (20, 24):
        commands.append(_check_command(f"Z{n}", _cyclic(n),
                                       _periodic_subset(rng, n), workdir))
    return commands


# ---------------------------------------------------------------------------
# Euclidean shapes

POLYTOPE_RANGE_2D = 20.0
POLYTOPE_RANGE_3D = 2.0
ROTATIONS = {2: 64, 3: 72}      # the CLI's default orbit sizes


def _rotation(rng: random.Random, dim: int) -> np.ndarray:
    if dim == 2:
        a = rng.uniform(0.0, 2.0 * math.pi)
        return np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
    w, x, y, z = (rng.gauss(0.0, 1.0) for _ in range(4))
    s = math.sqrt(w * w + x * x + y * y + z * z)
    w, x, y, z = w / s, x / s, y / s, z / s
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)]])


def _polytope_command(name, vertices, volume, lam_hi, is_box, rng, workdir):
    from checks import check_polytope, grid_count
    dim = len(vertices[0])
    rot = _rotation(rng, dim)
    shift = np.array([rng.uniform(-1.0, 1.0) for _ in range(dim)])
    moved = (np.asarray(vertices, dtype=float) @ rot.T + shift).tolist()
    spec = _write(workdir / f"{name}.json",
                  {"dim": dim, "shape": "polytope", "vertices": moved})
    out, land = workdir / f"{name}.report.json", workdir / f"{name}.landscape.csv"
    return Command(
        ["euclid", "decide", "--set", spec, "--lambda-range", f"0:{lam_hi:g}",
         "--grid", f"{GRID:g}", "--out", str(out), "--landscape", str(land)],
        grid_count(lam_hi, GRID), [out, land],
        lambda: check_polytope(out, land, volume=volume, lam_hi=lam_hi, grid=GRID,
                               rotations=ROTATIONS[dim],
                               box_rotation=rot if is_box else None), name)


def euclid_polytope_scan(seed: int, workdir: Path) -> list:
    """`euclid decide --landscape` on 2-D polytopes over (0, 20] and 3-D
    polytopes over (0, 2], all at grid 0.05. The seed moves every polytope
    by a rotation and a translation."""
    rng = random.Random(seed)
    hexagon = [[math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)] for k in range(6)]
    cube = [[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    tetra = [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]
    shapes = [
        ("square", [[0, 0], [1, 0], [1, 1], [0, 1]], 1.0, POLYTOPE_RANGE_2D, True),
        ("triangle", [[0, 0], [1, 0], [0, 1]], 0.5, POLYTOPE_RANGE_2D, False),
        ("hexagon", hexagon, 1.5 * math.sqrt(3.0), POLYTOPE_RANGE_2D, False),
        ("cube", cube, 1.0, POLYTOPE_RANGE_3D, True),
        ("tetrahedron", tetra, 8.0 / 3.0, POLYTOPE_RANGE_3D, False),
    ]
    return [_polytope_command(*s, rng, workdir) for s in shapes]


def _ball(r, dim=2):
    return {"dim": dim, "shape": "ball", "radius": r}


def _annulus(inner, outer, dim=2):
    return {"dim": dim, "shape": "annulus", "inner": inner, "outer": outer}


RADIAL_SHAPES = [
    ("disk", _ball(1.0), 20.0),
    ("ball3", _ball(1.0, 3), 20.0),
    ("annulus", _annulus(1.0, 2.0), 20.0),
    ("rings", {"dim": 2, "shape": "union",
               "members": [_ball(1.0), _annulus(2.0, 3.0)]}, 10.0),
    ("annulus3", _annulus(2.0, 3.0, 3), 6.0),
]


def _radial_command(name, spec, lam_hi, cli_seed, workdir):
    from checks import check_radial, grid_count
    path = _write(workdir / f"{name}.json", spec)
    out = workdir / f"{name}.report.json"
    land, res = workdir / f"{name}.landscape.csv", workdir / f"{name}.residuals.csv"
    return Command(
        ["euclid", "decide", "--set", path, "--lambda-range", f"0:{lam_hi:g}",
         "--grid", f"{GRID:g}", "--seed", str(cli_seed), "--out", str(out),
         "--landscape", str(land), "--residuals", str(res)],
        grid_count(lam_hi, GRID), [out, land, res],
        lambda: check_radial(out, land, res, spec=spec, lam_hi=lam_hi, grid=GRID,
                             seed=cli_seed), name)


def euclid_radial_witnesses(seed: int, workdir: Path) -> list:
    """`euclid decide --landscape --residuals --seed` on the shipped radial
    shapes and a 3-D annulus at grid 0.05, each twice. The seed draws each
    command's `--seed`, which places the residuals' sample points; two of
    them per shape make a round long enough to time steadily."""
    rng = random.Random(seed)
    return [_radial_command(f"{name}-{k}", spec, lam_hi, rng.randrange(1 << 31), workdir)
            for name, spec, lam_hi in RADIAL_SHAPES for k in (1, 2)]


WORKLOADS = {w.name: w for w in [
    Workload("finite-sweep-suite", "subsets", finite_sweep_suite),
    Workload("finite-check-pairs", "subsets", finite_check_pairs),
    Workload("euclid-polytope-scan", "frequencies", euclid_polytope_scan),
    Workload("euclid-radial-witnesses", "frequencies", euclid_radial_witnesses),
]}
