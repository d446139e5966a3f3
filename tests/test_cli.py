import json

import pytest

from pompeiu.cli import RunConfig, main


@pytest.fixture
def z8_file(tmp_path):
    path = tmp_path / "z8.json"
    path.write_text(json.dumps({"family": "cyclic", "n": 8,
                                "subgroup_generators": []}))
    return str(path)


@pytest.fixture
def s3_file(tmp_path):
    path = tmp_path / "s3.json"
    path.write_text(json.dumps({"family": "symmetric", "n": 3,
                                "subgroup_generators": [[1, 0, 2]]}))
    return str(path)


@pytest.fixture
def disk_file(tmp_path):
    path = tmp_path / "disk.json"
    path.write_text(json.dumps({"dim": 2, "shape": "ball", "radius": 1.0}))
    return str(path)


def test_finite_check_not_pompeiu(z8_file, tmp_path):
    out = tmp_path / "report.json"
    code = main(["finite", "check", "--group", z8_file, "--set", "0,4",
                 "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["schema_version"] == 1
    assert report["verdict"] == "NotPompeiu"
    assert report["agreement"] is True
    assert report["verdicts"] == {"oracle": False, "spectral": False,
                                  "convolution": False}
    assert report["witness"]["spherical_index"] >= 0


def test_finite_check_pompeiu(s3_file, tmp_path):
    out = tmp_path / "report.json"
    code = main(["finite", "check", "--group", s3_file, "--set", "0,1",
                 "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["verdict"] == "Pompeiu"
    assert report["witness"] is None
    assert report["group"] == "S3"


def test_finite_check_not_gelfand(tmp_path, capsys):
    path = tmp_path / "s3t.json"
    path.write_text(json.dumps({"family": "symmetric", "n": 3,
                                "subgroup_generators": []}))
    code = main(["finite", "check", "--group", str(path), "--set", "0,1"])
    assert code == 4
    err = capsys.readouterr().err
    assert "not commutative" in err and "(1 2)" in err


def test_finite_check_parse_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["finite", "check", "--group", str(bad), "--set", "0"]) == 2
    missing = tmp_path / "missing.json"
    assert main(["finite", "check", "--group", str(missing), "--set", "0"]) == 2
    odd = tmp_path / "odd.json"
    odd.write_text(json.dumps({"family": "moebius", "n": 3}))
    assert main(["finite", "check", "--group", str(odd), "--set", "0"]) == 2


def test_finite_check_empty_set(z8_file):
    assert main(["finite", "check", "--group", z8_file, "--set", ""]) == 2


def test_finite_sweep(s3_file, tmp_path):
    out = tmp_path / "sweep.csv"
    summary = tmp_path / "summary.json"
    code = main(["finite", "sweep", "--group", s3_file, "--out", str(out),
                 "--summary", str(summary)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "bitmask,subset,oracle,spectral,convolution,agree,witness"
    assert len(lines) == 1 + 7
    info = json.loads(summary.read_text())
    assert info["pompeiu"] == 6
    assert info["disagreements"] == 0


def test_finite_sweep_size_cap(tmp_path):
    path = tmp_path / "z21.json"
    path.write_text(json.dumps({"family": "cyclic", "n": 21,
                                "subgroup_generators": []}))
    out = tmp_path / "sweep.csv"
    assert main(["finite", "sweep", "--group", str(path),
                 "--out", str(out)]) == 2


def test_finite_sweep_byte_identical(z8_file, tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"sweep_{tag}.csv"
        summary = tmp_path / f"sum_{tag}.json"
        assert main(["finite", "sweep", "--group", z8_file, "--out", str(out),
                     "--summary", str(summary)]) == 0
        outs.append((out.read_bytes(), summary.read_bytes()))
    assert outs[0] == outs[1]


def test_threads_env_caps_width(monkeypatch):
    monkeypatch.delenv("POMPEIU_THREADS", raising=False)
    assert RunConfig("finite-sweep", threads=4).workers() == 4
    assert RunConfig("finite-sweep", threads=0).workers() == 1
    monkeypatch.setenv("POMPEIU_THREADS", "16")
    assert RunConfig("finite-sweep").workers() == 1
    assert RunConfig("finite-sweep", threads=4).workers() == 4
    assert RunConfig("finite-sweep", threads=32).workers() == 16
    monkeypatch.setenv("POMPEIU_THREADS", "0")
    assert RunConfig("finite-sweep", threads=4).workers() == 1


def test_euclid_decide_disk(disk_file, tmp_path):
    out = tmp_path / "report.json"
    land = tmp_path / "landscape.csv"
    code = main(["euclid", "decide", "--set", disk_file,
                 "--lambda-range", "0:20", "--grid", "0.05",
                 "--rotations", "64", "--seed", "7",
                 "--out", str(out), "--landscape", str(land)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["verdict"] == "NotPompeiu"
    expected = [3.83170597, 7.01558667, 10.17346814, 13.32369194, 16.47063005]
    for got, want in zip(report["lambda_witnesses"], expected):
        assert abs(got - want) < 1e-6
    assert report["seed"] == 7
    assert "caveat" in report
    lines = land.read_text().splitlines()
    assert lines[0] == "lambda,orbit_max"
    assert len(lines) == 1 + 400


def test_euclid_decide_square_no_failure(tmp_path):
    spec = tmp_path / "square.json"
    spec.write_text(json.dumps({
        "dim": 2, "shape": "polytope",
        "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]}))
    out = tmp_path / "report.json"
    code = main(["euclid", "decide", "--set", str(spec),
                 "--lambda-range", "0:5", "--grid", "0.5", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["verdict"] == "NoFailureFoundInRange"
    assert report["lambda_witnesses"] == []


def test_euclid_residuals_require_seed(disk_file, tmp_path):
    out = tmp_path / "r.json"
    res = tmp_path / "residuals.csv"
    code = main(["euclid", "decide", "--set", disk_file,
                 "--lambda-range", "0:5", "--out", str(out),
                 "--residuals", str(res)])
    assert code == 2


def test_euclid_residuals_csv(disk_file, tmp_path):
    out = tmp_path / "r.json"
    res = tmp_path / "residuals.csv"
    code = main(["euclid", "decide", "--set", disk_file,
                 "--lambda-range", "0:8", "--seed", "3",
                 "--out", str(out), "--residuals", str(res)])
    assert code == 0
    lines = res.read_text().splitlines()
    assert lines[0] == "lambda,conv_residual"
    assert len(lines) >= 3
    for line in lines[1:]:
        _, residual = line.split(",")
        assert float(residual) < 1e-6


@pytest.fixture
def square_file(tmp_path):
    path = tmp_path / "square.json"
    path.write_text(json.dumps({
        "dim": 2, "shape": "polytope",
        "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]}))
    return str(path)


@pytest.mark.parametrize("shape,args", [
    ("disk", ["--grid", "0"]),
    ("disk", ["--grid", "-0.5"]),
    ("disk", ["--grid", "nan"]),
    ("disk", ["--lambda-range", "5:1"]),
    ("disk", ["--lambda-range", "3:3"]),
    ("square", ["--rotations", "-3"]),
    ("square", ["--rotations", "0"]),
])
def test_euclid_malformed_parameters_exit_2(shape, args, disk_file,
                                            square_file, tmp_path, capsys):
    spec = disk_file if shape == "disk" else square_file
    argv = ["euclid", "decide", "--set", spec, "--lambda-range", "0:1",
            "--grid", "0.5", *args, "--out", str(tmp_path / "r.json")]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_euclid_grid_cap_exit_2(tmp_path, capsys):
    spec = tmp_path / "ball3.json"
    spec.write_text(json.dumps({"dim": 3, "shape": "ball", "radius": 1.0}))
    assert main(["euclid", "decide", "--set", str(spec), "--grid", "1e-15",
                 "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "cap" in err
    assert "Traceback" not in err


def test_euclid_bad_spec(tmp_path):
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps({"dim": 2, "shape": "klein-bottle"}))
    assert main(["euclid", "decide", "--set", str(spec)]) == 2


def test_euclid_report_byte_identical(disk_file, tmp_path):
    blobs = []
    for tag in ("a", "b"):
        out = tmp_path / f"r_{tag}.json"
        assert main(["euclid", "decide", "--set", disk_file,
                     "--lambda-range", "0:10", "--seed", "1",
                     "--out", str(out)]) == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]


def test_stdout_default(z8_file, capsys):
    assert main(["finite", "check", "--group", z8_file, "--set", "0,1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "NotPompeiu"
