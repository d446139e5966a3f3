"""Each check accepts the CLI's real output and rejects a corrupted copy.

    python3 -m pytest -q perfbench/test_checks.py
"""

import csv
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from pompeiu.cli import main  # noqa: E402

import checks  # noqa: E402
import tracer  # noqa: E402
from checks import CheckError  # noqa: E402
from workloads import _dihedral, _rotation  # noqa: E402


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _write_rows(path, rows):
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


@pytest.mark.parametrize("spec", [
    {"family": "cyclic", "n": 6, "subgroup_generators": []},
    _dihedral(4, 1),
], ids=["Z6", "D4"])
def test_sweep_rejects_a_flipped_verdict(tmp_path, spec):
    group, out, summary = tmp_path / "g.json", tmp_path / "s.csv", tmp_path / "s.json"
    group.write_text(json.dumps(spec))
    assert main(["finite", "sweep", "--group", str(group), "--out", str(out),
                 "--summary", str(summary)]) == 0
    model = checks.SpaceModel(spec)
    checks.check_sweep(model, out, summary)
    rows = _rows(out)
    # flip a NotPompeiu row to a consistent Pompeiu row: all three
    # deciders, agree and the witness say so, only the reference does not
    i = next(i for i, r in enumerate(rows) if r[2] == "false")
    rows[i][2:7] = ["true", "true", "true", "true", ""]
    _write_rows(out, rows)
    with pytest.raises(CheckError, match="reference"):
        checks.check_sweep(model, out, summary)


def test_finite_check_rejects_identity_value_not_one(tmp_path):
    spec = {"family": "cyclic", "n": 8, "subgroup_generators": []}
    group, out = tmp_path / "g.json", tmp_path / "r.json"
    group.write_text(json.dumps(spec))
    assert main(["finite", "check", "--group", str(group), "--set", "0,4",
                 "--out", str(out)]) == 0
    model = checks.SpaceModel(spec)
    checks.check_finite_report(model, [0, 4], out)
    report = json.loads(out.read_text())
    assert report["verdict"] == "NotPompeiu"
    report["witness"]["values"][0] = [0.5, 0.0]
    out.write_text(json.dumps(report))
    with pytest.raises(CheckError, match="identity value"):
        checks.check_finite_report(model, [0, 4], out)


@pytest.mark.parametrize("dim, vertices, lam_hi", [
    (2, [[0, 0], [1, 0], [1, 1], [0, 1]], 2.0),
    (3, [[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)], 0.5),
], ids=["square", "cube"])
def test_polytope_rejects_a_scaled_landscape_value(tmp_path, dim, vertices, lam_hi):
    import random
    rot = _rotation(random.Random(7), dim)
    moved = (np.asarray(vertices, dtype=float) @ rot.T + 0.25).tolist()
    shape, out, land = tmp_path / "p.json", tmp_path / "r.json", tmp_path / "l.csv"
    shape.write_text(json.dumps({"dim": dim, "shape": "polytope", "vertices": moved}))
    assert main(["euclid", "decide", "--set", str(shape), "--lambda-range",
                 f"0:{lam_hi:g}", "--grid", "0.05", "--out", str(out),
                 "--landscape", str(land)]) == 0
    kwargs = dict(volume=1.0, lam_hi=lam_hi, grid=0.05,
                  rotations={2: 64, 3: 72}[dim], box_rotation=rot)
    checks.check_polytope(out, land, **kwargs)
    rows = _rows(land)
    rows[5][1] = repr(float(rows[5][1]) * 1.01)
    _write_rows(land, rows)
    with pytest.raises(CheckError, match="closed form"):
        checks.check_polytope(out, land, **kwargs)


def test_radial_rejects_a_moved_witness(tmp_path):
    spec = {"dim": 2, "shape": "ball", "radius": 1.0}
    shape, out = tmp_path / "d.json", tmp_path / "r.json"
    land, res = tmp_path / "l.csv", tmp_path / "res.csv"
    shape.write_text(json.dumps(spec))
    assert main(["euclid", "decide", "--set", str(shape), "--lambda-range", "0:8",
                 "--grid", "0.05", "--seed", "3", "--out", str(out),
                 "--landscape", str(land), "--residuals", str(res)]) == 0
    kwargs = dict(spec=spec, lam_hi=8.0, grid=0.05, seed=3)
    checks.check_radial(out, land, res, **kwargs)
    report = json.loads(out.read_text())
    assert len(report["lambda_witnesses"]) == 2     # j_{1,1}, j_{1,2}
    report["lambda_witnesses"][1] += 1e-6
    out.write_text(json.dumps(report))
    with pytest.raises(CheckError, match="reference zero"):
        checks.check_radial(out, land, res, **kwargs)


def test_reference_zeros_are_bessel_zeros():
    from scipy.special import jn_zeros
    zeros = checks.radial_zeros([(1, 2.0)], 2, 0.05, 20.0)
    np.testing.assert_allclose(zeros, jn_zeros(1, len(zeros)) / 2.0, rtol=1e-13)
    assert math.isclose(checks.radial_volume([(1, 2.0), (-1, 1.0)], 3),
                        4.0 / 3.0 * math.pi * 7.0)


def test_tracer_restores_every_name():
    import pompeiu.cli
    import pompeiu.finite_pompeiu
    import pompeiu.groups
    before = (pompeiu.cli.pompeiu_oracle, pompeiu.groups.CosetSpace.__init__)
    t = tracer.Tracer()
    t.install()
    try:
        assert pompeiu.cli.pompeiu_oracle is pompeiu.finite_pompeiu.pompeiu_oracle
        assert pompeiu.cli.pompeiu_oracle is not before[0]
    finally:
        t.uninstall()
    assert (pompeiu.cli.pompeiu_oracle, pompeiu.groups.CosetSpace.__init__) == before


def test_benchmark_json_names_the_reported_metrics():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["per_layer"]] == [m[0] for m in tracer.METRICS]
    assert [m["unit"] for m in bench["per_layer"]] == [m[1] for m in tracer.METRICS]
    assert {m["name"] for m in bench["end_to_end"]} == {
        "work_per_s", "setup_s", "peak_rss_mb"}
