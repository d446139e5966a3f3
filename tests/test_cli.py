import contextlib
import csv
import io
import itertools
import json
import os
import re
import resource
import stat
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import pompeiu
from pompeiu import cli, euclidean, exact_linalg, finite_pompeiu, hecke
from pompeiu.cli import main
from pompeiu.bessel import besselj0
from pompeiu.finite_pompeiu import enumerate_all
from pompeiu.groups import CosetSpace, load_group_spec
from pompeiu.hecke import spherical_functions
from pompeiu.quadrature import integrate_over
from pompeiu.shapes import Ball, PolarRule, load_set_spec

from conftest import NoTable


def _cyclic_file(tmp_path, n):
    path = tmp_path / f"z{n}.json"
    path.write_text(json.dumps({"family": "cyclic", "n": n,
                                "subgroup_generators": []}))
    return str(path)


@pytest.fixture
def z8_file(tmp_path):
    return _cyclic_file(tmp_path, 8)


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


def test_finite_check_exits_3_when_its_witness_fails_the_recheck(
        z8_file, tmp_path, monkeypatch, capsys):
    """`finite check` rechecks the witness it prints against the definition:
    a spectral witness moved, index and printed values, to the constant
    spherical function, which annihilates no nonempty subset, is a bug trap
    and exits 3."""
    spectral = cli.pompeiu_spectral

    def wrong_witness(inst):
        report = spectral(inst)
        report.witness["spherical_index"] = next(
            i for i, f in enumerate(spherical_functions(inst.space))
            if all(abs(complex(v) - 1) < 1e-9 for v in f.values))
        report.witness["values"] = [[1.0, 0.0]] * len(report.witness["values"])
        return report
    monkeypatch.setattr(cli, "pompeiu_spectral", wrong_witness)
    out = tmp_path / "report.json"
    out.write_bytes(b"an earlier report\n")
    code = main(["finite", "check", "--group", z8_file, "--set", "0,4",
                 "--out", str(out)])
    assert code == 3
    assert capsys.readouterr().err == "error: the spectral witness failed its recheck\n"
    assert out.read_bytes() == b"an earlier report\n"


def _refuse_nullspace(matrix):
    raise AssertionError("nullspace called")


@pytest.mark.parametrize("spec, subset", [
    ({"family": "cyclic", "n": 200}, "0,1"),
    ({"family": "cyclic", "n": 215}, ",".join(map(str, range(0, 215, 2)))),
    ({"family": "cyclic", "n": 24}, "0,2,6,8,12,14,18,20"),
    ({"family": "dihedral", "n": 24, "subgroup_generators": [[(-i) % 24 for i in range(24)]]},
     "0,12"),
    ({"family": "symmetric", "n": 5, "subgroup_generators": [
        [1, 0, 2, 3, 4], [0, 2, 1, 3, 4], [0, 1, 2, 4, 3]]}, "0,1,3,6"),
], ids=["Z200", "Z215-evens", "Z24-periodic", "D24", "S5-S3xS2"])
def test_finite_check_needs_no_exact_kernel(spec, subset, tmp_path, monkeypatch):
    """`finite check` on a Gelfand pair needs no exact kernel: NotPompeiu
    is proved by the zero-set vector, and Z215 with every other coset is
    Pompeiu by the translate test.  With `nullspace` made to raise, each
    check exits 0 and writes the bytes of a run whose oracle is given no
    candidate."""
    group = tmp_path / "group.json"
    group.write_text(json.dumps(spec))
    argv = ["finite", "check", "--group", str(group), "--set", subset, "--out"]
    oracle = cli.pompeiu_oracle
    with monkeypatch.context() as patch:
        patch.setattr(cli, "pompeiu_oracle", lambda inst, kernel: oracle(inst))
        assert main(argv + [str(tmp_path / "default.json")]) == 0
    monkeypatch.setattr(exact_linalg, "nullspace", _refuse_nullspace)
    assert main(argv + [str(tmp_path / "proved.json")]) == 0
    assert (tmp_path / "proved.json").read_bytes() == (tmp_path / "default.json").read_bytes()


@pytest.mark.parametrize("command", [["check", "--set", "0,1,2,3,4,5"], ["sweep"]])
def test_finite_commands_read_no_group_table(command, tmp_path, monkeypatch):
    """Once the coset space is built, neither finite command reads the
    multiplication table: on S6/S5, a check of all six cosets (NotPompeiu,
    its spherical witness rechecked) and a full sweep exit 0 with the
    table made unreadable right after `CosetSpace.__init__`, and write the
    bytes of an unpatched run."""
    group = tmp_path / "s6_s5.json"
    group.write_text(json.dumps({"family": "symmetric", "n": 6, "subgroup_generators": [
        [0, 2, 1, 3, 4, 5], [0, 1, 3, 2, 4, 5], [0, 1, 2, 4, 3, 5], [0, 1, 2, 3, 5, 4]]}))

    def run(name):
        out, summary = tmp_path / f"{name}.out", tmp_path / f"{name}.summary.json"
        argv = ["finite", command[0], "--group", str(group), *command[1:], "--out", str(out)]
        if command[0] == "sweep":
            argv += ["--summary", str(summary)]
        assert main(argv) == 0
        return [path.read_bytes() for path in (out, summary) if path.exists()]

    expected = run("fresh")
    init = CosetSpace.__init__

    def init_then_hide_the_table(self, *args):
        init(self, *args)
        monkeypatch.setattr(self.group, "mul", NoTable())
    monkeypatch.setattr(CosetSpace, "__init__", init_then_hide_the_table)
    assert run("unreadable") == expected
    if command[0] == "check":
        report = json.loads(expected[0])
        assert report["verdict"] == "NotPompeiu" and "spherical_index" in report["witness"]


def test_bug_trap_exits_3_with_an_error_line(tmp_path, monkeypatch, capsys):
    """With PRIME = 2^13 - 1 the minors of the 20 columns of Z20 may reach
    the prime, so one prime no longer decides their rank. The sweep's bug
    trap exits 3 with an error line instead of a traceback, and writes no
    CSV: the first batch already raises."""
    monkeypatch.setattr(finite_pompeiu, "PRIME", 2 ** 13 - 1)
    out = tmp_path / "sweep.csv"
    code = main(["finite", "sweep", "--group", _cyclic_file(tmp_path, 20),
                 "--out", str(out), "--max-size", "4"])
    assert code == 3
    assert capsys.readouterr().err == (
        "error: PRIME does not exceed Hadamard's bound for 20 columns\n")
    assert not out.exists()


def test_memory_error_without_a_message_prints_out_of_memory(z8_file, monkeypatch, capsys):
    """A MemoryError raised with no message, as an allocation that fails
    under an address-space limit may raise, exits 2 with "out of memory"
    rather than an empty error line."""
    def exhausted(source):
        raise MemoryError()
    monkeypatch.setattr(cli, "load_group_spec", exhausted)
    assert main(["finite", "check", "--group", z8_file, "--set", "0"]) == 2
    assert capsys.readouterr().err == "error: out of memory\n"


def test_spherical_self_check_failure_exits_3(tmp_path, monkeypatch, capsys):
    """A float spherical table whose eigenvectors fail their residual check
    is a bug trap: with a negative tolerance every r/gap fails it, and a Z20
    `finite check` exits 3 with one error line instead of a traceback."""
    monkeypatch.setattr(hecke, "SPHERICAL_RESIDUAL_TOL", -1.0)
    code = main(["finite", "check", "--group", _cyclic_file(tmp_path, 20),
                 "--set", "0,5,10,15", "--out", str(tmp_path / "report.json")])
    assert code == 3
    assert re.fullmatch(r"error: spherical eigenvector not certified by its residual: "
                        r"r/gap \S+ at eigenvalue gap \S+\n", capsys.readouterr().err)


def test_orbit_check_failure_exits_3(disk_file, tmp_path, monkeypatch, capsys):
    """A radial root that fails the orbit vanishing check is a bug trap: with
    the check's tolerance at 0, so that no root vanishes, a disk `euclid
    decide` exits 3 with an error line instead of a traceback."""
    monkeypatch.setattr(euclidean, "DEFAULT_VANISH_TOL", 0.0)
    code = main(["euclid", "decide", "--set", disk_file, "--lambda-range", "0:5",
                 "--out", str(tmp_path / "report.json")])
    assert code == 3
    assert capsys.readouterr().err.startswith("error: root 3.83")


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


def test_finite_check_on_permutations_of_no_points_exits_2(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"family": "permutations", "generators": [[]]}))
    assert main(["finite", "check", "--group", str(path), "--set", "0"]) == 2
    assert "generators must permute at least one point" in capsys.readouterr().err


@pytest.mark.parametrize("npts, first", [(24, 20), (40, 30), (64, 60)])
def test_finite_check_on_s4_acting_on_late_points(npts, first, tmp_path):
    """S4 on points first..first+3 of npts, over the stabilizer S3 of the
    last, decides as S4 on 4 points does.  Its elements differ only from
    point first on, where weights npts^k in int64 would have wrapped to 0."""
    reports = []
    for size, lo in ((4, 0), (npts, first)):
        def cycle(*points):
            p = list(range(size))
            for a, b in zip(points, points[1:] + points[:1]):
                p[lo + a] = lo + b
            return p
        path = tmp_path / f"s4_on_{size}.json"
        path.write_text(json.dumps({"family": "permutations",
                                    "generators": [cycle(0, 1), cycle(0, 1, 2, 3)],
                                    "subgroup_generators": [cycle(0, 1), cycle(0, 1, 2)]}))
        assert main(["finite", "check", "--group", str(path), "--set", "0,1",
                     "--out", str(tmp_path / "report.json")]) == 0
        reports.append(json.loads((tmp_path / "report.json").read_text()))
        del reports[-1]["subgroup"]         # cycle labels name the points
    assert load_group_spec(str(path))[0].order == 24
    assert reports[1] == reports[0]


def test_finite_check_huge_symmetric_exits_2_at_once(tmp_path, capsys):
    """S_n for n = 10^6 is refused by the order cap without computing n!."""
    path = tmp_path / "s_huge.json"
    path.write_text(json.dumps({"family": "symmetric", "n": 10 ** 6}))
    start = time.perf_counter()
    code = main(["finite", "check", "--group", str(path), "--set", "0,1"])
    assert code == 2 and time.perf_counter() - start < 2
    assert "order 1000000! exceeds cap 5040" in capsys.readouterr().err


def test_finite_check_empty_set(z8_file):
    assert main(["finite", "check", "--group", z8_file, "--set", ""]) == 2


def test_finite_check_reports_the_decided_subset(z8_file, tmp_path):
    """A repeated index is decided once, and the report names the subset
    that was decided: --set 1,1,3 gives the report of --set 1,3."""
    reports = []
    for text in ("1,1,3", "1,3"):
        out = tmp_path / "report.json"
        assert main(["finite", "check", "--group", z8_file, "--set", text,
                     "--out", str(out)]) == 0
        reports.append(json.loads(out.read_text()))
    assert reports[0]["E"] == [1, 3]
    assert reports[0] == reports[1]


@pytest.mark.parametrize("n", [56, 157, 164])
def test_finite_check_on_crowded_real_spectra(n, tmp_path):
    """D56, D157 and D164 with a reflection, where real coefficients would
    crowd the generic element's real eigenvalues (relative gaps down to
    3.5e-7): `finite check` exits 0 and its three verdicts agree."""
    path = tmp_path / f"d{n}.json"
    path.write_text(json.dumps({"family": "dihedral", "n": n,
                                "subgroup_generators": [[(-i) % n for i in range(n)]]}))
    out = tmp_path / "report.json"
    for subset in ([0, 1, 3], list(range(0, n, 2))):
        assert main(["finite", "check", "--group", str(path), "--out", str(out),
                     "--set", ",".join(map(str, subset))]) == 0
        report = json.loads(out.read_text())
        assert report["agreement"] is True
        assert len(set(report["verdicts"].values())) == 1


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


def test_finite_sweep_size_cap(z8_file, tmp_path):
    """A sweep refused up front, past the 20-coset cap or with --max-size
    0, exits 2 and leaves the CSV already at --out as it was."""
    path = tmp_path / "z21.json"
    path.write_text(json.dumps({"family": "cyclic", "n": 21,
                                "subgroup_generators": []}))
    out = tmp_path / "sweep.csv"
    out.write_bytes(b"bitmask,subset\n1,0\n")
    assert main(["finite", "sweep", "--group", str(path),
                 "--out", str(out)]) == 2
    assert out.read_bytes() == b"bitmask,subset\n1,0\n"
    assert main(["finite", "sweep", "--group", z8_file, "--out", str(out),
                 "--max-size", "0"]) == 2
    assert out.read_bytes() == b"bitmask,subset\n1,0\n"


def _csv_reference(chunks) -> bytes:
    """The sweep CSV of the given (masks, codes, verdicts) chunks, written
    row by row with csv.writer, each subset spelled out from its mask."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["bitmask", "subset", "oracle", "spectral", "convolution",
                     "agree", "witness"])
    text = {False: "false", True: "true"}
    for masks, codes, verdicts in chunks:
        for mask, code in zip(masks.tolist(), codes.tolist()):
            oracle, spectral, conv, witness = verdicts[code]
            subset = "|".join(str(c) for c in range(mask.bit_length()) if mask >> c & 1)
            writer.writerow([mask, subset, text[oracle], text[spectral], text[conv],
                             text[oracle == spectral == conv], witness])
    return buf.getvalue().encode()


@pytest.mark.parametrize("spec, max_size, scan_chunk", [
    ({"family": "cyclic", "n": 1, "subgroup_generators": []}, None, None),
    ({"family": "cyclic", "n": 7, "subgroup_generators": []}, None, None),
    ({"family": "cyclic", "n": 11, "subgroup_generators": []}, None, None),
    ({"family": "cyclic", "n": 11, "subgroup_generators": []}, None, 1 << 10),
    ({"family": "symmetric", "n": 4,
      "subgroup_generators": [[1, 0, 2, 3], [0, 2, 1, 3]]}, None, None),
    ({"family": "dihedral", "n": 6,
      "subgroup_generators": [[(-i) % 6 for i in range(6)]]}, None, None),
    ({"family": "dihedral", "n": 6,
      "subgroup_generators": [[(-i) % 6 for i in range(6)]]}, 2, None),
], ids=["Z1", "Z7", "Z11", "Z11-chunks", "S4/S3", "D6-reflection", "D6-reflection-max2"])
def test_finite_sweep_csv_equals_csv_writer(spec, max_size, scan_chunk, tmp_path, monkeypatch):
    """The sweep writes each chunk with one write; its bytes are those of
    csv.writer on the rows that `enumerate_all` hands its sink.  Z1 has an
    empty low half-table.  Each space here sweeps in one chunk, but Z11
    with SCAN_CHUNK = 2^10 sweeps in 23 chunks of at most 93 masks."""
    if scan_chunk is not None:
        monkeypatch.setattr(finite_pompeiu, "SCAN_CHUNK", scan_chunk)
    group = tmp_path / "group.json"
    group.write_text(json.dumps(spec))
    chunks = []
    enumerate_all(CosetSpace(*load_group_spec(str(group))), max_size,
                  lambda *chunk: chunks.append(chunk))
    out = tmp_path / "sweep.csv"
    size = [] if max_size is None else ["--max-size", str(max_size)]
    assert main(["finite", "sweep", "--group", str(group), "--out", str(out),
                 "--summary", str(tmp_path / "summary.json"), *size]) == 0
    assert out.read_bytes() == _csv_reference(chunks)
    assert len(chunks) == (1 if scan_chunk is None else 23)


def test_finite_sweep_writes_every_witness_kind(tmp_path, monkeypatch):
    """Hand-made chunks of Z4 through the CLI's writer: codes whose
    witnesses are a kernel, a spherical function and none, subsets in the
    low half, the high half and both, and the header written once."""
    labels = [f"spherical:{i}" for i in range(4)]
    kernel, none, spherical = 0, 1, 3 << 1 | 3 << 16
    verdicts = {code: finite_pompeiu._verdicts(code, labels)
                for code in (kernel, none, spherical)}
    assert {v[3] for v in verdicts.values()} == {"kernel", "", "spherical:2"}
    chunks = [(np.array([1, 2, 12], dtype=np.int64),
               np.array([none, kernel, spherical], dtype=np.int32),
               {c: verdicts[c] for c in (none, kernel, spherical)}),
              (np.array([13, 15], dtype=np.int64),
               np.array([none, spherical], dtype=np.int32),
               {c: verdicts[c] for c in (none, spherical)})]

    def fake_sweep(space, max_size, sink):
        for chunk in chunks:
            sink(*chunk)
        return finite_pompeiu.SweepResult(space.name, 5, 3, 0)
    monkeypatch.setattr(cli, "enumerate_all", fake_sweep)
    out = tmp_path / "sweep.csv"
    assert main(["finite", "sweep", "--group", _cyclic_file(tmp_path, 4),
                 "--out", str(out), "--summary", str(tmp_path / "summary.json")]) == 0
    assert out.read_bytes() == _csv_reference(chunks)
    assert out.read_text().splitlines()[1:] == [
        "1,0,true,true,true,true,", "2,1,false,true,true,false,kernel",
        "12,2|3,false,false,false,true,spherical:2", "13,0|2|3,true,true,true,true,",
        "15,0|1|2|3,false,false,false,true,spherical:2"]


def test_finite_sweep_d16_reflection_counts(tmp_path):
    """The full sweep of D16 with K = one reflection: 16 cosets, every
    subset settled by the translate test, the counts of the per-subset
    kernel sweep it replaced."""
    path = tmp_path / "d16.json"
    path.write_text(json.dumps({"family": "dihedral", "n": 16,
                                "subgroup_generators": [[(-i) % 16 for i in range(16)]]}))
    summary = tmp_path / "summary.json"
    assert main(["finite", "sweep", "--group", str(path), "--out",
                 str(tmp_path / "sweep.csv"), "--summary", str(summary)]) == 0
    info = json.loads(summary.read_text())
    assert (info["subsets"], info["pompeiu"], info["not_pompeiu"],
            info["disagreements"]) == (65535, 48640, 16895, 0)


def test_finite_sweep_byte_identical(z8_file, tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"sweep_{tag}.csv"
        summary = tmp_path / f"sum_{tag}.json"
        assert main(["finite", "sweep", "--group", z8_file, "--out", str(out),
                     "--summary", str(summary)]) == 0
        outs.append((out.read_bytes(), summary.read_bytes()))
    assert outs[0] == outs[1]


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
    """--residuals without --seed is refused before any work: the report
    and the landscape already at their paths stay as they were."""
    out = tmp_path / "r.json"
    res = tmp_path / "residuals.csv"
    landscape = tmp_path / "landscape.csv"
    out.write_text("old report\n")
    landscape.write_text("old landscape\n")
    code = main(["euclid", "decide", "--set", disk_file,
                 "--lambda-range", "0:5", "--out", str(out),
                 "--landscape", str(landscape), "--residuals", str(res)])
    assert code == 2
    assert out.read_text() == "old report\n"
    assert landscape.read_text() == "old landscape\n"
    assert not res.exists()


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


def test_euclid_residuals_that_never_settle_exit_5(disk_file, tmp_path, capsys):
    """At a quadrature tolerance of 1e-300 no residual settles, and the
    polar rules stop at the order cap with QuadratureError: exit 5."""
    assert main(["euclid", "decide", "--set", disk_file, "--lambda-range", "0:4",
                 "--seed", "1", "--quad-tol", "1e-300", "--out", str(tmp_path / "r.json"),
                 "--residuals", str(tmp_path / "residuals.csv")]) == 5
    assert "no convergence to 1e-300 by order 512" in capsys.readouterr().err


def test_euclid_residuals_without_witnesses_build_no_rule(disk_file, tmp_path,
                                                          monkeypatch):
    """The disk has no failure frequency below 3.83: the residual CSV is its
    header alone, and no quadrature rule, full or polar, is built."""
    orders = []
    monkeypatch.setattr(Ball, "quad_nodes", lambda self, order: orders.append(order))
    monkeypatch.setattr(PolarRule, "quad_nodes", lambda self, order: orders.append(order))
    res = tmp_path / "residuals.csv"
    assert main(["euclid", "decide", "--set", disk_file, "--lambda-range", "0:3",
                 "--seed", "1", "--out", str(tmp_path / "r.json"),
                 "--residuals", str(res)]) == 0
    assert res.read_text() == "lambda,conv_residual\n" and orders == []


def test_euclid_residual_csv_equals_per_witness_integrations(tmp_path):
    """The residual CSV, from one batched call, equals a reference built
    here with one integration of besselj0(lam |x + y|) per witness and
    sample point, on the polar rule about x alone: the unit disk and the
    annulus (2, 3) over (0, 10]."""
    spec = tmp_path / "rings.json"
    spec.write_text(json.dumps({"dim": 2, "shape": "union", "members": [
        {"dim": 2, "shape": "ball", "radius": 1.0},
        {"dim": 2, "shape": "annulus", "inner": 2.0, "outer": 3.0}]}))
    out, res = tmp_path / "r.json", tmp_path / "residuals.csv"
    assert main(["euclid", "decide", "--set", str(spec), "--lambda-range", "0:10",
                 "--seed", "7", "--out", str(out), "--residuals", str(res)]) == 0
    witnesses = json.loads(out.read_text())["lambda_witnesses"]
    assert len(witnesses) == 9
    shape = load_set_spec(str(spec))
    lo, hi = shape.bounding_box()
    span = float(np.linalg.norm(hi - lo))
    pts = np.random.default_rng(7).uniform(-span, span, size=(16, 2))
    rules = [PolarRule(shape, [a]) for a in np.linalg.norm(pts, axis=1)]
    want = ["lambda,conv_residual"]
    for lam in witnesses:
        worst = max([0.0] + [abs(integrate_over(rule, lambda r: besselj0(lam * r), 1e-8))
                             for rule in rules])
        want.append(f"{lam:.10g},{worst:.12e}")
    assert res.read_text().splitlines() == want


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
    ("square", ["--rotations", "400000000"]),
    ("square", ["--rotations", "1000000000"]),
])
def test_euclid_malformed_parameters_exit_2(shape, args, disk_file, square_file,
                                            tmp_path, capsys, monkeypatch):
    """A malformed parameter exits 2 with one error line before any work:
    no direction table is built and the old report and landscape stay."""
    def no_directions(*args):
        raise AssertionError("direction table built")
    monkeypatch.setattr(euclidean, "rotation_directions", no_directions)
    spec = disk_file if shape == "disk" else square_file
    out, land = tmp_path / "r.json", tmp_path / "landscape.csv"
    out.write_text("old report\n")
    land.write_text("old landscape\n")
    argv = ["euclid", "decide", "--set", spec, "--lambda-range", "0:1",
            "--grid", "0.5", *args, "--out", str(out), "--landscape", str(land)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert out.read_text() == "old report\n"
    assert land.read_text() == "old landscape\n"


@pytest.mark.parametrize("args", [
    ["--quad-tol", "-1"], ["--quad-tol", "0"], ["--quad-tol", "nan"],
    ["--vanish-tol", "-1"], ["--vanish-tol", "0"], ["--vanish-tol", "nan"],
])
def test_euclid_bad_tolerances_exit_2(args, disk_file, tmp_path, capsys):
    """A tolerance that is not finite and positive is a malformed parameter:
    it is rejected before the search, not carried into the quadrature
    ladder or the report."""
    out = tmp_path / "r.json"
    argv = ["euclid", "decide", "--set", disk_file, "--lambda-range", "0:5",
            "--seed", "1", "--residuals", str(tmp_path / "res.csv"),
            *args, "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_euclid_search_stops_at_the_range_end(disk_file, tmp_path):
    """Over 0:3.7 at grid 2 the only grid point is 2: the witness 3.83 and
    a landscape row at 4 lie past the searched range."""
    out, land = tmp_path / "r.json", tmp_path / "landscape.csv"
    assert main(["euclid", "decide", "--set", disk_file, "--lambda-range", "0:3.7",
                 "--grid", "2", "--out", str(out), "--landscape", str(land)]) == 0
    report = json.loads(out.read_text())
    assert report["searched_range"] == [0.0, 3.7]
    assert report["verdict"] == "NoFailureFoundInRange"
    assert report["lambda_witnesses"] == []
    assert [r.split(",")[0] for r in land.read_text().splitlines()] == ["lambda", "2"]


def test_euclid_empty_grid_exit_2(disk_file, tmp_path, capsys):
    """0:5 at grid 10 holds no grid frequency: it is refused before any
    file is written, not reported as a search."""
    out, land = tmp_path / "r.json", tmp_path / "landscape.csv"
    out.write_text("old report\n")
    land.write_text("old landscape\n")
    assert main(["euclid", "decide", "--set", disk_file, "--lambda-range", "0:5",
                 "--grid", "10", "--out", str(out), "--landscape", str(land)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert out.read_text() == "old report\n"
    assert land.read_text() == "old landscape\n"


def test_euclid_nested_union_reports_as_the_flat_one(tmp_path, capsys):
    """A union holding a union decides as the union of their members, with
    a byte-identical report; an overlap inside the nested union exits 2."""
    ball = {"dim": 2, "shape": "ball", "radius": 1.0}
    ring = {"dim": 2, "shape": "annulus", "inner": 2.0, "outer": 3.0}
    specs = {"flat": [ball, ring],
             "nested": [{"dim": 2, "shape": "union", "members": [ball]}, ring],
             "overlap": [{"dim": 2, "shape": "union", "members": [ball]},
                         {"dim": 2, "shape": "annulus", "inner": 0.5, "outer": 3.0}]}
    codes, reports = {}, {}
    for name, members in specs.items():
        spec, out = tmp_path / f"{name}.json", tmp_path / f"{name}-r.json"
        spec.write_text(json.dumps({"dim": 2, "shape": "union", "members": members}))
        codes[name] = main(["euclid", "decide", "--set", str(spec), "--lambda-range",
                            "0:6", "--seed", "2", "--out", str(out)])
        reports[name] = out.read_bytes() if out.exists() else None
    assert codes == {"flat": 0, "nested": 0, "overlap": 2}
    assert reports["nested"] == reports["flat"]
    assert "Traceback" not in capsys.readouterr().err


def test_euclid_grid_cap_exit_2(tmp_path, capsys):
    spec = tmp_path / "ball3.json"
    spec.write_text(json.dumps({"dim": 3, "shape": "ball", "radius": 1.0}))
    assert main(["euclid", "decide", "--set", str(spec), "--grid", "1e-15",
                 "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "cap" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("spec", [
    {"dim": 2, "shape": "ball", "radius": 1e-300},
    {"dim": 3, "shape": "ball", "radius": 1e-110},
    {"dim": 2, "shape": "annulus", "inner": 1e-300, "outer": 2e-300},
], ids=["disk", "ball3", "annulus"])
def test_euclid_volume_that_underflows_exits_2(spec, tmp_path, capsys):
    """A positive radius whose volume rounds to 0 is refused, as one whose
    volume overflows is: every root checked against a volume of 0 fails."""
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(spec))
    assert main(["euclid", "decide", "--set", str(path), "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "volume underflows to 0" in err


def test_euclid_union_whose_dim_differs_from_its_members_exits_2(tmp_path, capsys):
    """A union's "dim", when given, must be its members' dimension; left
    out, the members' dimension is the union's."""
    ball3 = {"dim": 3, "shape": "ball", "radius": 1.0}
    codes = []
    for spec in ({"dim": 2, "shape": "union", "members": [ball3]},
                 {"dim": 3, "shape": "union", "members": [ball3]},
                 {"shape": "union", "members": [ball3]}):
        path = tmp_path / "union.json"
        path.write_text(json.dumps(spec))
        codes.append(main(["euclid", "decide", "--set", str(path), "--lambda-range", "0:5",
                           "--out", str(tmp_path / "r.json")]))
        if not codes[-1]:
            assert json.loads((tmp_path / "r.json").read_text())["set"]["dim"] == 3
    assert codes == [2, 0, 0]
    assert "union of 3-D members given dim 2" in capsys.readouterr().err


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


def _output_commands(z8_file, disk_file, paths):
    """A command writing each output kind, its paths taken from paths."""
    return [["finite", "check", "--group", z8_file, "--set", "0,4", "--out", paths["check"]],
            ["finite", "sweep", "--group", z8_file, "--out", paths["sweep"],
             "--summary", paths["summary"]],
            ["euclid", "decide", "--set", disk_file, "--lambda-range", "0:8", "--seed", "3",
             "--out", paths["decide"], "--landscape", paths["landscape"],
             "--residuals", paths["residuals"]]]


def test_outputs_rewritten_over_longer_files_equal_fresh_ones(z8_file, disk_file, tmp_path):
    """Every output kind (the two reports, sweep CSV and summary, landscape
    and residual CSVs) written over a longer file is cut to the bytes that
    a write to a fresh path gives: no tail of the old file is left."""
    kinds = ("check", "sweep", "summary", "decide", "landscape", "residuals")
    old, new = ({kind: tmp_path / f"{tag}_{kind}" for kind in kinds} for tag in ("old", "new"))
    filler = b"x,y\n" * 20000
    for path in old.values():
        path.write_bytes(filler)
    for paths in (old, new):
        for command in _output_commands(z8_file, disk_file, {k: str(p) for k, p in paths.items()}):
            assert main(command) == 0
    for kind in kinds:
        assert 0 < len(new[kind].read_bytes()) < len(filler)
        assert old[kind].read_bytes() == new[kind].read_bytes(), kind


def test_outputs_to_dev_null(z8_file, disk_file, tmp_path):
    """--out /dev/null works for `finite check`, `finite sweep` and `euclid
    decide`, and leaves /dev/null a character device."""
    paths = {kind: os.devnull for kind in ("check", "sweep", "decide")}
    paths.update({kind: str(tmp_path / kind) for kind in ("summary", "landscape", "residuals")})
    for command in _output_commands(z8_file, disk_file, paths):
        assert main(command) == 0
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


def test_finite_check_report_into_a_fifo(z8_file, tmp_path):
    """A report written into a FIFO reaches its reader whole: the FIFO is
    not cut (it cannot be) and the command exits 0."""
    fifo, fresh = tmp_path / "fifo", tmp_path / "fresh.json"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    try:
        assert main(["finite", "check", "--group", z8_file, "--set", "0,4",
                     "--out", str(fifo)]) == 0
    finally:
        with contextlib.suppress(OSError):      # free a reader still waiting to open
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
        reader.join(10)
    assert not reader.is_alive()
    assert main(["finite", "check", "--group", z8_file, "--set", "0,4",
                 "--out", str(fresh)]) == 0
    assert received == [fresh.read_bytes()]


def test_sweep_failing_at_its_second_chunk_leaves_the_rows_before_it(tmp_path, monkeypatch):
    """A sink that raises on the second chunk of a Z11 sweep (23 chunks at
    SCAN_CHUNK = 2^10) exits 2 and leaves exactly the header and the rows
    of the first chunk, over a full sweep's CSV, with no stale tail."""
    monkeypatch.setattr(finite_pompeiu, "SCAN_CHUNK", 1 << 10)
    group, out = _cyclic_file(tmp_path, 11), tmp_path / "sweep.csv"
    assert main(["finite", "sweep", "--group", group, "--out", str(out),
                 "--summary", str(tmp_path / "summary.json")]) == 0
    full = out.read_bytes()
    chunks = []

    def fail_at_the_second_chunk(space, max_size, sink):
        def second_raises(*chunk):
            if chunks:
                raise OSError("no space left on the device")
            chunks.append(chunk)
            sink(*chunk)
        return enumerate_all(space, max_size, second_raises)
    monkeypatch.setattr(cli, "enumerate_all", fail_at_the_second_chunk)
    assert main(["finite", "sweep", "--group", group, "--out", str(out),
                 "--summary", str(tmp_path / "summary.json")]) == 2
    assert len(chunks) == 1 and out.read_bytes() == _csv_reference(chunks)
    assert full.startswith(out.read_bytes()) and len(full) > len(out.read_bytes())


def test_stdout_default(z8_file, capsys):
    assert main(["finite", "check", "--group", z8_file, "--set", "0,1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "NotPompeiu"


def _child_env():
    """The environment of a child that imports the package under test first,
    with one BLAS thread, so that its memory does not depend on the core
    count."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(pompeiu.__file__)))
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path),
                OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")


def test_one_parser_per_process_leaks_nothing(z8_file, disk_file, tmp_path,
                                             monkeypatch, capsys):
    """`main` builds its parser once per process.  Commands run one after
    another in this process, each after one with other options or another
    outcome, print, exit and write what each prints, exits and writes in a
    fresh `python -m pompeiu.cli`."""
    commands = [
        ["finite", "sweep", "--group", z8_file, "--out", "a.csv", "--summary", "a.json",
         "--max-size", "2"],
        ["finite", "sweep", "--group", z8_file, "--out", "b.csv", "--summary", "b.json"],
        ["euclid", "decide", "--set", disk_file, "--lambda-range", "0:5", "--seed", "3",
         "--out", "c.json"],
        ["euclid", "decide", "--set", disk_file, "--lambda-range", "0:5", "--seed", "3"],
        ["finite", "check", "--group", z8_file, "--set", "0,99"],
        ["finite", "check", "--group", z8_file, "--set", "0,4"],
    ]
    here, fresh = tmp_path / "here", tmp_path / "fresh"
    here.mkdir()
    fresh.mkdir()
    monkeypatch.chdir(here)
    codes = []
    for args in commands:
        code = main(args)
        captured = capsys.readouterr()
        proc = subprocess.run([sys.executable, "-m", "pompeiu.cli", *args],
                              env=_child_env(), cwd=fresh, capture_output=True,
                              text=True, timeout=120)
        assert (code, captured.out, captured.err) == (
            proc.returncode, proc.stdout, proc.stderr), args
        codes.append(code)
    assert codes == [0, 0, 0, 0, 2, 0]
    assert sorted(os.listdir(here)) == sorted(os.listdir(fresh)) == [
        "a.csv", "a.json", "b.csv", "b.json", "c.json"]
    for name in os.listdir(here):
        assert (here / name).read_bytes() == (fresh / name).read_bytes(), name


def _run_limited(args, tmp_path, memory_mb=2500, timeout=60):
    """Run `python -m pompeiu.cli ARGS` in a child whose address space alone
    is capped at memory_mb, with the package under test first on its path."""
    limit = memory_mb * 1024 * 1024

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    return subprocess.run([sys.executable, "-m", "pompeiu.cli", *args],
                          env=_child_env(), cwd=tmp_path, preexec_fn=cap,
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("spec, memory_mb", [
    ({"family": "cyclic", "n": 400, "subgroup_generators": []}, 2500),
    ({"family": "cyclic", "n": 5040, "subgroup_generators": []}, 2500),
    ({"family": "dihedral", "n": 2520,
      "subgroup_generators": [[(-i) % 2520 for i in range(2520)]]}, 500),
], ids=["Z400", "Z5040", "D2520-reflection"])
def test_finite_check_past_the_work_budget_exits_2(spec, memory_mb, tmp_path):
    """Spaces whose oracle elimination or Hecke tensor exceeds the work
    budget stop with exit 2 and a typed message, within seconds and under
    the given address-space limit, instead of a MemoryError or a long run.
    D2520 with a reflection is refused under 500 MB: its 5040 dihedral
    permutations are one 50 MB int32 array."""
    group = tmp_path / "group.json"
    group.write_text(json.dumps(spec))
    proc = _run_limited(["finite", "check", "--group", str(group), "--set", "0,1"],
                        tmp_path, memory_mb=memory_mb)
    assert proc.returncode == 2, proc.stderr
    assert "over the work budget of 10000000" in proc.stderr
    assert "MemoryError" not in proc.stderr


@pytest.mark.parametrize("subset", ["0,2,3", "0,1,2,3,4,5,6"])
def test_finite_check_s7_over_s6(subset, tmp_path):
    """S7/S6 is S7 acting on 7 points.  E is Pompeiu exactly when the
    |G| x 7 matrix of the indicators of its translates gE has rank 7.  The
    translates of a k-subset are all the k-subsets, whichever point each
    coset is, so the matrix is built on the points themselves.  The check
    runs in a child, which keeps S7's 100 MB table out of this process."""
    group = tmp_path / "s7.json"
    group.write_text(json.dumps({
        "family": "symmetric", "n": 7,
        "subgroup_generators": [[1, 0, 2, 3, 4, 5, 6], [1, 2, 3, 4, 5, 0, 6]]}))
    out = tmp_path / "report.json"
    proc = _run_limited(["finite", "check", "--group", str(group), "--set", subset,
                         "--out", str(out)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    points = [int(c) for c in subset.split(",")]
    perms = np.asarray(list(itertools.permutations(range(7))))
    translates = np.zeros((len(perms), 7))
    translates[np.arange(len(perms))[:, None], perms[:, points]] = 1
    rank = np.linalg.matrix_rank(translates)
    report = json.loads(out.read_text())
    assert report["agreement"] is True
    assert report["verdict"] == ("Pompeiu" if rank == 7 else "NotPompeiu")


def test_finite_check_z200_still_decides(tmp_path):
    group = tmp_path / "z200.json"
    group.write_text(json.dumps({"family": "cyclic", "n": 200,
                                 "subgroup_generators": []}))
    out = tmp_path / "report.json"
    proc = _run_limited(["finite", "check", "--group", str(group), "--set", "0,100",
                         "--out", str(out)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    assert report["agreement"] and report["verdict"] == "NotPompeiu"


def test_finite_check_z215_fits_in_500_mb(tmp_path):
    """Z215 with K = {e}, the largest cyclic space the work budget admits,
    decides under a 500 MB address-space limit and writes the report it
    writes without one: no decision holds a d x d x d array."""
    args = ["finite", "check", "--group", _cyclic_file(tmp_path, 215), "--set", "0,1",
            "--out"]
    proc = _run_limited(args + [str(tmp_path / "limited.json")], tmp_path, memory_mb=500)
    assert proc.returncode == 0, proc.stderr
    subprocess.run([sys.executable, "-m", "pompeiu.cli", *args, str(tmp_path / "free.json")],
                   env=_child_env(), cwd=tmp_path, check=True, timeout=60)
    assert (tmp_path / "limited.json").read_bytes() == (tmp_path / "free.json").read_bytes()


def test_finite_check_out_of_memory_exits_2(tmp_path):
    """D2520 with a reflection under a 1000 MB address-space limit: one
    `error:` line and exit 2, not a traceback.  Its group and coset tables
    fit there (they peak near 290 MB), so the work budget refuses it; a
    MemoryError ends the same way, with exit 2 and one `error:` line."""
    group = tmp_path / "d2520.json"
    group.write_text(json.dumps({"family": "dihedral", "n": 2520,
                                 "subgroup_generators": [[(-i) % 2520 for i in range(2520)]]}))
    proc = _run_limited(["finite", "check", "--group", str(group), "--set", "0,1"],
                        tmp_path, memory_mb=1000)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1, proc.stderr
    assert "Traceback" not in proc.stderr


def _finite_specs():
    """The acceptance suite, D16 with a reflection and Z18 with K = {e}."""
    def dihedral(n):
        return {"family": "dihedral", "n": n,
                "subgroup_generators": [[(-i) % n for i in range(n)]]}
    return ([{"family": "cyclic", "n": n, "subgroup_generators": []}
             for n in (*range(2, 13), 18)]
            + [{"family": "symmetric", "n": 3, "subgroup_generators": [[1, 0, 2]]},
               {"family": "symmetric", "n": 4,
                "subgroup_generators": [[1, 0, 2, 3], [1, 2, 0, 3]]}]
            + [dihedral(n) for n in (3, 4, 5, 6, 16)])


def test_finite_commands_never_build_the_operators(tmp_path, monkeypatch):
    """`finite check` and `finite sweep` build the Hecke structure of their
    space and read its operators a slice at a time: neither leaves the
    d x d x d array `op` on it."""
    spaces = []

    def recording(*args):
        spaces.append(CosetSpace(*args))
        return spaces[-1]

    monkeypatch.setattr(cli, "CosetSpace", recording)
    group, out = tmp_path / "group.json", str(tmp_path / "out")
    for spec in _finite_specs():
        group.write_text(json.dumps(spec))
        for command in (["check", "--set", "0,1"], ["sweep"]):
            assert main(["finite", *command, "--group", str(group), "--out", out]) == 0
            assert "op" not in vars(spaces[-1]._cache["hecke"]), (spec, command)


def _dft_pompeiu_count(n):
    """Subsets of Z_n (K = {e}) whose indicator has no zero in its DFT,
    the independent count of those with the property."""
    count = 0
    for start in range(1, 1 << n, 1 << 14):
        masks = np.arange(start, min(start + (1 << 14), 1 << n))
        indicators = (masks[:, None] >> np.arange(n)) & 1
        count += int((np.abs(np.fft.fft(indicators, axis=1)).min(axis=1) >= 1e-9).sum())
    return count


def test_full_z18_sweep_streams_its_rows(tmp_path):
    """The full sweep of Z18 with K = {e} (262 143 subsets) holds no per-row
    list: the CLI's peak RSS stays under 150 MB. The child reads the peak
    of its own address space, VmHWM in /proc/self/status: its ru_maxrss
    starts from this process's peak, which a fork passes on and exec
    keeps. The counts match the DFT."""
    out, summary = tmp_path / "sweep.csv", tmp_path / "summary.json"
    script = ("import sys\n"
              "from pompeiu.cli import main\n"
              "code = main(sys.argv[1:])\n"
              "print(next(line.split()[1] for line in open('/proc/self/status')\n"
              "           if line.startswith('VmHWM:')))\n"
              "sys.exit(code)\n")
    proc = subprocess.run(
        [sys.executable, "-c", script, "finite", "sweep", "--group",
         _cyclic_file(tmp_path, 18), "--out", str(out), "--summary", str(summary)],
        env=_child_env(), cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    peak_mb = int(proc.stdout.split()[-1]) / 1024      # VmHWM is in kB
    assert peak_mb < 150, peak_mb
    info = json.loads(summary.read_text())
    pompeiu_count = _dft_pompeiu_count(18)
    assert (info["subsets"], info["pompeiu"], info["not_pompeiu"],
            info["disagreements"]) == ((1 << 18) - 1, pompeiu_count,
                                       (1 << 18) - 1 - pompeiu_count, 0)
    with open(out) as fh:
        assert sum(1 for _ in fh) == 1 << 18


def test_finite_commands_do_not_import_scipy(tmp_path):
    """scipy is imported only where a polytope is built: a child that
    imports the CLI and runs a Z6 `finite check` has no scipy module
    loaded."""
    assert _modules_loaded_by(tmp_path, "finite", "check", "--group", _cyclic_file(tmp_path, 6),
                              "--set", "0,3", "--out", str(tmp_path / "report.json")) == "[]"


def test_radial_residuals_import_neither_scipy_nor_mpmath(disk_file, tmp_path):
    """The Bessel kernels build their tables with `math` alone, the modulus
    and phase series by float64 arithmetic at import: a child that runs the
    disk's `euclid decide --residuals` past |z| = 12, where the profile
    takes the large-argument branch, has no scipy or mpmath module loaded."""
    assert _modules_loaded_by(tmp_path, "euclid", "decide", "--set", disk_file,
                              "--lambda-range", "0:14", "--seed", "1",
                              "--residuals", str(tmp_path / "res.csv"),
                              "--out", str(tmp_path / "report.json")) == "[]"


def _modules_loaded_by(tmp_path, *argv) -> str:
    """The scipy and mpmath modules loaded by a child that imports the CLI
    and runs argv through `main`, as the repr of a sorted list."""
    script = ("import sys\n"
              "from pompeiu.cli import main\n"
              "code = main(sys.argv[1:])\n"
              "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'mpmath')))\n"
              "sys.exit(code)\n")
    proc = subprocess.run([sys.executable, "-c", script, *argv], env=_child_env(),
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split("\n")[-2]


_UNION = {"dim": 2, "shape": "union", "members": [{"dim": 2, "shape": "ball", "radius": 1.0}, [1]]}


@pytest.mark.parametrize("command,spec", [
    ("finite", []),
    ("finite", None),
    ("euclid", []),
    ("euclid", None),
    ("euclid", _UNION),
    ("finite", {"family": "cyclic", "n": [6]}),
    ("finite", {"family": "cyclic", "n": 6, "subgroup_generators": 5}),
    ("finite", {"family": "permutations", "generators": 5}),
    ("euclid", {"dim": 2, "shape": "ball", "radius": None}),
    ("finite", "directory"),
    ("finite", {"family": "cyclic", "n": 6, "subgroup_generators": [2.5]}),
    ("finite", {"family": "cyclic", "n": True}),
    ("euclid", {"dim": 2, "shape": "polytope", "vertices": [[0, 0], [1, 0], [2, 0]]}),
    ("euclid", {"shape": "ball", "radius": 1e155}),
    ("euclid", {"dim": 3, "shape": "ball", "radius": 1e103}),
    ("euclid", {"dim": 2, "shape": "annulus", "inner": 1.0, "outer": 1e155}),
], ids=["group-list", "group-null", "shape-list", "shape-null", "union-member-list",
        "n-list", "subgroup-generators-int", "generators-int", "radius-null",
        "group-directory", "subgroup-generator-float", "n-true", "polytope-flat",
        "disk-volume-overflow", "ball-volume-overflow", "annulus-volume-overflow"])
def test_malformed_spec_exits_2(command, spec, tmp_path):
    """A spec that is not an object, a field of the wrong type, a path
    that is not a file, a flat polytope or a radial shape whose volume
    overflows exits 2 with one `error:` line, never a traceback (exit 1)
    or a silent reading (exit 0)."""
    proc = _run_spec(command, spec, tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1, proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command,spec,field", [
    ("finite", {"family": "cyclic"}, "n"),
    ("finite", {"family": "permutations"}, "generators"),
    ("euclid", {"dim": 2, "shape": "ball"}, "radius"),
    ("euclid", {"dim": 2, "shape": "union"}, "members"),
], ids=["group-n", "group-generators", "shape-radius", "shape-members"])
def test_missing_spec_field_is_named(command, spec, field, tmp_path):
    """A required field that is absent is named as missing, not as a bare key."""
    proc = _run_spec(command, spec, tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == f"error: spec is missing required field {field!r}\n"


def _run_spec(command, spec, tmp_path):
    """`finite check` or `euclid decide` in a child on spec written to a
    file (or on a directory for spec "directory")."""
    path = tmp_path / "spec"
    if spec == "directory":
        path.mkdir()
    else:
        path.write_text(json.dumps(spec))
    args = (["finite", "check", "--group", str(path), "--set", "0"] if command == "finite"
            else ["euclid", "decide", "--set", str(path), "--lambda-range", "0:5"])
    return subprocess.run([sys.executable, "-m", "pompeiu.cli", *args],
                          env=_child_env(), cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
