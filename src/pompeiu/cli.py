"""Batch front end: group/shape specs in, decision reports out.

Exit codes: 0 success, 2 malformed spec, parameter, size cap or work
budget, 3 method disagreement (a bug trap, never expected), 4 not a
Gelfand pair, 5 quadrature failure.  Reports are byte-stable for a fixed
config and seed.  Every command runs in one thread: --threads and the
POMPEIU_THREADS environment variable are accepted for old scripts and
ignored.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass

import numpy as np

from .euclidean import EuclidReport, convolution_test, euclid_decide
from .finite_pompeiu import (EmptySetError, PompeiuInstance, enumerate_all,
                             pompeiu_convolution, pompeiu_oracle,
                             pompeiu_spectral)
from .groups import CosetSpace, GroupSpecError, load_group_spec
from .hecke import NotGelfandPairError
from .quadrature import QuadratureError
from .shapes import load_set_spec, set_to_spec

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_SPEC = 2
EXIT_DISAGREE = 3
EXIT_NOT_GELFAND = 4
EXIT_QUADRATURE = 5


@dataclass
class RunConfig:
    command: str
    group_path: str | None = None
    set_path: str | None = None
    subset: tuple = ()
    out: str | None = None
    summary: str | None = None
    landscape: str | None = None
    residuals: str | None = None
    lam_range: tuple = (0.0, 20.0)
    grid: float = 0.05
    rotations: int | None = None
    vanish_tol: float = 1e-6
    quad_tol: float = 1e-8
    max_size: int | None = None
    seed: int | None = None


def _dump_json(payload: dict, path: str | None) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _write_csv(path: str, header: list, rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    with open(path, "w", newline="") as fh:
        fh.write(buf.getvalue())


# ---------------------------------------------------------------------------
# finite commands


def cmd_finite_check(config: RunConfig) -> int:
    group, k_gens = load_group_spec(config.group_path)
    space = CosetSpace(group, k_gens)
    inst = PompeiuInstance(space, frozenset(config.subset))
    oracle = pompeiu_oracle(inst)
    spectral = pompeiu_spectral(inst)
    conv = pompeiu_convolution(inst)
    agreement = oracle.verdict == spectral.verdict == conv.verdict
    witness = spectral.witness if spectral.witness is not None else oracle.witness
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "finite-check",
        "group": group.name,
        "subgroup": space.subgroup_label(),
        "E": sorted(inst.subset),
        "verdicts": {
            "oracle": oracle.has_property,
            "spectral": spectral.has_property,
            "convolution": conv.has_property,
        },
        "agreement": agreement,
        "verdict": oracle.verdict,
        "witness": witness,
    }
    _dump_json(payload, config.out)
    return EXIT_OK if agreement else EXIT_DISAGREE


def cmd_finite_sweep(config: RunConfig) -> int:
    group, k_gens = load_group_spec(config.group_path)
    space = CosetSpace(group, k_gens)
    result = enumerate_all(space, max_size=config.max_size)
    if config.out:
        rows = [[r.bitmask, "|".join(map(str, r.subset)),
                 str(r.oracle).lower(), str(r.spectral).lower(),
                 str(r.convolution).lower(), str(r.agree).lower(), r.witness]
                for r in result.rows]
        _write_csv(config.out,
                   ["bitmask", "subset", "oracle", "spectral", "convolution",
                    "agree", "witness"], rows)
    summary = {"schema_version": SCHEMA_VERSION,
               "command": "finite-sweep", **result.summary()}
    _dump_json(summary, config.summary)
    return EXIT_OK if result.disagreements == 0 else EXIT_DISAGREE


# ---------------------------------------------------------------------------
# euclidean command


def cmd_euclid(config: RunConfig) -> int:
    shape = load_set_spec(config.set_path)
    report: EuclidReport = euclid_decide(
        shape, config.lam_range, grid=config.grid,
        rotation_samples=config.rotations, vanish_tol=config.vanish_tol,
        quad_tol=config.quad_tol,
        collect_landscape=config.landscape is not None)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "euclid-decide",
        "set": set_to_spec(shape),
        "verdict": report.verdict,
        "lambda_witnesses": [float(complex(w).real) for w in report.lambda_witnesses
                             if complex(w).imag == 0],
        "searched_range": list(report.searched_range),
        "grid": report.grid,
        "rotation_samples": report.rotation_samples,
        "seed": config.seed,
        "tolerances": report.tolerances,
        "caveat": report.caveat,
    }
    complex_wits = [[complex(w).real, complex(w).imag]
                    for w in report.lambda_witnesses if complex(w).imag != 0]
    if complex_wits:
        payload["complex_witnesses"] = complex_wits
    _dump_json(payload, config.out)
    if config.landscape:
        _write_csv(config.landscape, ["lambda", "orbit_max"],
                   [[f"{lam:.10g}", f"{mag:.12e}"] for lam, mag in report.landscape])
    if config.residuals:
        if config.seed is None:
            raise ValueError("--residuals draws random sample points and "
                             "requires --seed")
        rng = np.random.default_rng(config.seed)
        lo, hi = shape.bounding_box()
        span = float(np.linalg.norm(hi - lo))
        pts = rng.uniform(-span, span, size=(16, shape.dim))
        rows = []
        for w in report.lambda_witnesses:
            res = convolution_test(shape, w, pts, config.quad_tol)
            rows.append([f"{float(complex(w).real):.10g}", f"{res:.12e}"])
        _write_csv(config.residuals, ["lambda", "conv_residual"], rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def _parse_range(text: str) -> tuple:
    try:
        lo, hi = text.split(":")
        return (float(lo), float(hi))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"range must look like 0:20, got {text!r}") from None


def _parse_subset(text: str) -> tuple:
    try:
        return tuple(int(x) for x in text.split(",") if x.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"subset must be comma-separated coset indices, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pompeiu",
        description="Pompeiu-property decisions on finite homogeneous "
                    "spaces and Euclidean shapes")
    sub = parser.add_subparsers(dest="domain", required=True)

    finite = sub.add_parser("finite", help="finite homogeneous spaces")
    fsub = finite.add_subparsers(dest="action", required=True)

    check = fsub.add_parser("check", help="decide one subset three ways")
    check.add_argument("--group", required=True, help="group spec JSON")
    check.add_argument("--set", required=True, type=_parse_subset,
                       help="comma-separated coset indices")
    check.add_argument("--out", default=None, help="report JSON (default stdout)")

    sweep = fsub.add_parser("sweep", help="exhaustive subset sweep")
    sweep.add_argument("--group", required=True)
    sweep.add_argument("--out", required=True, help="per-subset CSV")
    sweep.add_argument("--summary", default=None,
                       help="summary JSON (default stdout)")
    sweep.add_argument("--max-size", type=int, default=None)
    sweep.add_argument("--threads", type=int, default=1)

    euclid = sub.add_parser("euclid", help="Euclidean shapes")
    esub = euclid.add_subparsers(dest="action", required=True)
    decide = esub.add_parser("decide", help="search for failure frequencies")
    decide.add_argument("--set", required=True, help="shape spec JSON")
    decide.add_argument("--lambda-range", type=_parse_range, default=(0.0, 20.0))
    decide.add_argument("--grid", type=float, default=0.05)
    decide.add_argument("--rotations", type=int, default=None)
    decide.add_argument("--vanish-tol", type=float, default=1e-6)
    decide.add_argument("--quad-tol", type=float, default=1e-8)
    decide.add_argument("--seed", type=int, default=None)
    decide.add_argument("--threads", type=int, default=1)
    decide.add_argument("--out", default=None)
    decide.add_argument("--landscape", default=None,
                        help="CSV of (lambda, orbit max) rows")
    decide.add_argument("--residuals", default=None,
                        help="CSV of convolution residuals at the witnesses")
    return parser


def _config_from_args(args) -> RunConfig:
    """The run's settings; --threads is accepted and dropped here."""
    if args.domain == "finite" and args.action == "check":
        return RunConfig("finite-check", group_path=args.group,
                         subset=args.set, out=args.out)
    if args.domain == "finite" and args.action == "sweep":
        return RunConfig("finite-sweep", group_path=args.group, out=args.out,
                         summary=args.summary, max_size=args.max_size)
    return RunConfig("euclid-decide", set_path=args.set,
                     lam_range=args.lambda_range, grid=args.grid,
                     rotations=args.rotations, vanish_tol=args.vanish_tol,
                     quad_tol=args.quad_tol, seed=args.seed, out=args.out,
                     landscape=args.landscape, residuals=args.residuals)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    config = _config_from_args(args)
    handlers = {"finite-check": cmd_finite_check,
                "finite-sweep": cmd_finite_sweep,
                "euclid-decide": cmd_euclid}
    try:
        return handlers[config.command](config)
    except NotGelfandPairError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_GELFAND
    except QuadratureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_QUADRATURE
    except (GroupSpecError, EmptySetError, ValueError, KeyError,
            json.JSONDecodeError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPEC


if __name__ == "__main__":
    sys.exit(main())
