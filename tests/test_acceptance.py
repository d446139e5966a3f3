"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line each (run with -s to see them inline)."""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest
import scipy.special

import pompeiu
from pompeiu.euclidean import (complex_sphere_vanishes, convolution_test,
                               euclid_decide, find_failure_lambdas,
                               fourier_laplace, pompeiu_integral_check,
                               rotation_directions)
from pompeiu.finite_pompeiu import (PompeiuInstance, enumerate_all,
                                    pompeiu_spectral, radial_shortcut)
from pompeiu.hecke import check_spherical, reverse_function, spherical_functions
from pompeiu.shapes import Annulus, Ball, DisjointUnion, Polytope

from conftest import acceptance_suite

J1_ZEROS = [3.83170597, 7.01558667, 10.17346814, 13.32369194, 16.47063005]

DISK = Ball(1.0, 2)
SQUARE = Polytope([[0, 0], [1, 0], [1, 1], [0, 1]])
TRIANGLE = Polytope([[0, 0], [1, 0], [0, 1]])
SHIPPED_SHAPES = [
    DISK,
    Ball(1.0, 3),
    Annulus(1.0, 2.0, 2),
    SQUARE,
    TRIANGLE,
    DisjointUnion([Ball(1.0, 2), Annulus(2.0, 3.0, 2)]),
]


class criterion:
    def __init__(self, num, desc):
        self.num, self.desc = num, desc

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        dt = time.perf_counter() - self.t0
        print(f"[criterion {self.num}] {status} {self.desc} ({dt:.1f}s)")
        return False


@pytest.fixture(scope="module")
def suite():
    return acceptance_suite()


def test_criterion_1_three_way_agreement(suite):
    with criterion(1, "oracle/spectral/convolution agree on every subset "
                      "of every suite instance"):
        t0 = time.perf_counter()
        total_subsets = 0
        for space in suite:
            result = enumerate_all(space)
            assert result.disagreements == 0, \
                f"method disagreement on {space.name}"
            total_subsets += result.subsets
        elapsed = time.perf_counter() - t0
        assert total_subsets > 8000
        assert elapsed < 60.0, f"suite took {elapsed:.1f}s (budget 60s)"


def test_criterion_2_spherical_functions(suite):
    with criterion(2, "spherical functions: residual < 1e-12, value 1 at "
                      "identity, full count, reversal also spherical"):
        for space in suite:
            funcs = spherical_functions(space)
            assert len(funcs) == space.double_cosets.num_classes
            for f in funcs:
                assert complex(f.values[0]) == 1.0
                assert check_spherical(space, f.on_group()) < 1e-12
                rev = reverse_function(f)
                assert check_spherical(space, rev.on_group()) < 1e-12


def test_criterion_3_disk_failure():
    with criterion(3, "unit disk fails at the first five J1 zeros; "
                      "convolution and 100-motion integrals < 1e-6"):
        t0 = time.perf_counter()
        witnesses = find_failure_lambdas(DISK, (0, 20))
        assert len(witnesses) >= 5
        for got, want in zip(witnesses, J1_ZEROS):
            assert abs(got - want) < 1e-8, f"witness {got} vs {want}"
        samples = [np.zeros(2)] + [u * 2.7 for u in rotation_directions(2, 24)]
        for lam in witnesses[:5]:
            assert convolution_test(DISK, lam, samples) < 1e-6
            assert pompeiu_integral_check(DISK, lam, count=100, seed=2024) < 1e-6
        elapsed = time.perf_counter() - t0
        assert elapsed < 120.0, f"took {elapsed:.1f}s (budget 120s)"


def test_criterion_4_polytopes_never_vanish():
    with criterion(4, "unit square and triangle: orbit max exceeds "
                      "1e-6 * volume across the whole (0,20] grid"):
        t0 = time.perf_counter()
        for shape in (SQUARE, TRIANGLE):
            report = euclid_decide(shape, (0.0, 20.0), grid=0.05,
                                   rotation_samples=64,
                                   collect_landscape=True)
            assert report.verdict == "NoFailureFoundInRange"
            floor = 1e-6 * shape.volume
            worst = min(mag for _, mag in report.landscape)
            assert worst > floor, f"orbit max {worst} under {floor}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"took {elapsed:.1f}s (budget 60s)"


def test_criterion_5_transform_identities():
    with criterion(5, "rotation/translation/radial-square identities and "
                      "quadrature agreement, 200 trials each"):
        from pompeiu.quadrature import integrate_over
        rng = np.random.default_rng(99)

        for _ in range(200):        # rotation identity at 1e-10
            theta = rng.uniform(0, 2 * np.pi)
            rot = np.array([[math.cos(theta), -math.sin(theta)],
                            [math.sin(theta), math.cos(theta)]])
            z = rng.uniform(-10, 10, 2) + 1j * rng.uniform(-1.5, 1.5, 2)
            lhs = fourier_laplace(SQUARE.rotated(rot), z)
            rhs = fourier_laplace(SQUARE, rot.T @ z)
            assert abs(lhs - rhs) < 1e-10

        for _ in range(200):        # translation identity at 1e-10
            t = rng.uniform(-2, 2, 2)
            z = rng.uniform(-10, 10, 2) + 1j * rng.uniform(-1.5, 1.5, 2)
            lhs = fourier_laplace(TRIANGLE.translated(t), z)
            rhs = np.exp(-1j * (z @ t)) * fourier_laplace(TRIANGLE, z)
            assert abs(lhs - rhs) < 1e-10

        for _ in range(200):        # radial transforms see only z.z, 1e-10
            z1 = rng.uniform(-6, 6, 2) + 1j * rng.uniform(-1, 1, 2)
            theta = rng.uniform(0, 2 * np.pi)
            rot = np.array([[math.cos(theta), -math.sin(theta)],
                            [math.sin(theta), math.cos(theta)]])
            z2 = rot @ z1
            assert abs(complex(z1 @ z1) - complex(z2 @ z2)) < 1e-10
            assert abs(fourier_laplace(DISK, z1) - fourier_laplace(DISK, z2)) < 1e-10

        for i in range(200):        # closed form vs quadrature at 1e-8
            shape = DISK if i % 2 == 0 else SQUARE
            z = rng.uniform(-8, 8, 2) + 1j * rng.uniform(-1, 1, 2)
            oracle = integrate_over(shape, lambda p: np.exp(-1j * (p @ z)), 1e-9)
            assert abs(fourier_laplace(shape, z) - oracle) < 1e-8


def test_criterion_6_shortcut_matches_spectral(suite):
    with criterion(6, "single-measure shortcut equals the spectral verdict "
                      "whenever the lifted indicator is biinvariant"):
        applicable = 0
        for space in suite:
            for bitmask in range(1, 1 << space.num_cosets):
                subset = frozenset(c for c in range(space.num_cosets)
                                   if bitmask >> c & 1)
                inst = PompeiuInstance(space, subset)
                shortcut = radial_shortcut(inst)
                if shortcut is None:
                    continue
                applicable += 1
                assert shortcut.verdict == pompeiu_spectral(inst).verdict
        assert applicable > 4000    # trivial-K instances are all applicable


def test_criterion_7_zero_frequency_excluded():
    with criterion(7, "no zero-frequency witness; transform at 0 equals "
                      "the exact volume to 1e-12"):
        for shape in SHIPPED_SHAPES:
            val = fourier_laplace(shape, np.zeros(shape.dim))
            assert abs(val - shape.volume) < 1e-12
            report = euclid_decide(shape, (0.0, 5.0), grid=0.25)
            assert all(complex(w) != 0 for w in report.lambda_witnesses)
            with pytest.raises(ValueError):
                complex_sphere_vanishes(shape, 0.0)


def _child_env(**extra):
    """The environment of a child Python process: the directory holding the
    imported `pompeiu` package, made absolute, comes first on its
    PYTHONPATH, so the child runs the code under test whatever the caller's
    working directory and whether or not the package is installed; the
    caller's own PYTHONPATH entries follow it."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(pompeiu.__file__)))
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
                    if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path), **extra)


def _run_cli(args, width):
    """Run `python -m pompeiu.cli ARGS` with POMPEIU_THREADS=`width`."""
    proc = subprocess.run(
        [sys.executable, "-m", "pompeiu.cli", *args],
        env=_child_env(POMPEIU_THREADS=width), cwd=os.path.dirname(__file__),
        capture_output=True, text=True)
    assert proc.returncode == 0, (
        f"pompeiu.cli {' '.join(args[:2])} at width {width} exited "
        f"{proc.returncode}:\n{proc.stderr}")


def test_criterion_8_deterministic_outputs(tmp_path):
    with criterion(8, "byte-identical reports at parallelism widths 1, 4, 16"):
        group = tmp_path / "d6.json"
        group.write_text(json.dumps({
            "family": "dihedral", "n": 6,
            "subgroup_generators": [[0, 5, 4, 3, 2, 1]]}))
        shape = tmp_path / "square.json"
        shape.write_text(json.dumps({
            "dim": 2, "shape": "polytope",
            "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]}))
        blobs = []
        for width in ("1", "4", "16"):
            sweep = tmp_path / f"sweep_{width}.csv"
            summary = tmp_path / f"summary_{width}.json"
            _run_cli(["finite", "sweep",
                      "--group", str(group), "--out", str(sweep),
                      "--summary", str(summary), "--threads", width], width)
            report = tmp_path / f"euclid_{width}.json"
            land = tmp_path / f"land_{width}.csv"
            _run_cli(["euclid", "decide",
                      "--set", str(shape), "--lambda-range", "0:8",
                      "--grid", "0.1", "--seed", "5", "--threads", width,
                      "--out", str(report), "--landscape", str(land)], width)
            blobs.append((sweep.read_bytes(), summary.read_bytes(),
                          report.read_bytes(), land.read_bytes()))
        assert blobs[0] == blobs[1] == blobs[2]


def test_run_finite_suite_script():
    """scripts/run_finite_suite.py sweeps the whole acceptance suite and
    exits 0 with no disagreement."""
    script = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "scripts", "run_finite_suite.py")
    proc = subprocess.run([sys.executable, script], env=_child_env(),
                          cwd=os.path.dirname(__file__), capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "total disagreements: 0" in proc.stdout


def test_shape_landscape_script(tmp_path):
    """scripts/shape_landscape.py at grid 0.5 over (0, 6] exits 0, writes
    one landscape CSV per shape, finds no failure for either polytope and
    prints the disk's witnesses at the zeros of J1."""
    script = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "scripts", "shape_landscape.py")
    proc = subprocess.run([sys.executable, script, "--grid", "0.5", "--lambda-max", "6",
                           "--out-dir", str(tmp_path)], env=_child_env(),
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    names = ["disk", "ball3", "annulus", "square", "triangle", "rings"]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(f"{n}.csv" for n in names)
    for name in names:
        lines = (tmp_path / f"{name}.csv").read_text().splitlines()
        assert lines[0] == "lambda,orbit_max" and len(lines) == 13
    table = {line.split()[0]: line.split()[1:] for line in proc.stdout.splitlines()
             if line.split() and line.split()[0] in names}
    assert table["square"] == table["triangle"] == ["NoFailureFoundInRange"]
    assert table["disk"][0] == "NotPompeiu"
    witnesses = [float(w.rstrip(",")) for w in table["disk"][1:]]
    zeros = scipy.special.jn_zeros(1, 2)
    zeros = zeros[zeros <= 6.0]
    assert len(witnesses) == len(zeros) == 1
    assert np.all(np.abs(np.array(witnesses) - zeros) <= 1e-8)
