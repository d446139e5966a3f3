"""Batch front end: group/shape specs in, decision reports out.

Exit codes: 0 success, 2 malformed or unreadable spec, parameter, size
cap, work budget or memory, 3 a bug trap (a method disagreement, a witness
that fails its recheck or a failed internal check; never expected), 4 not
a Gelfand pair, 5 quadrature failure.  Reports are byte-stable for a
fixed config and seed.  Every command runs in one thread: --threads and
the POMPEIU_THREADS environment variable are accepted for old scripts and
ignored.  The argument parser is built once per process: `main` can run
many commands in one process, and parsing leaves the parser unchanged.
Output files are rewritten in place, then cut to the bytes written even
on an error (only SIGKILL or a power loss can leave an old tail).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import stat
import sys

import numpy as np

from .euclidean import (DEFAULT_GRID, DEFAULT_LAMBDA_RANGE, DEFAULT_VANISH_TOL,
                        EuclidReport, convolution_test, euclid_decide)
from .finite_pompeiu import (BugTrapError, PompeiuInstance, enumerate_all,
                             pompeiu_convolution, pompeiu_oracle,
                             pompeiu_spectral, recheck_witness, zero_set_vector)
from .groups import CosetSpace, load_group_spec
from .hecke import NotGelfandPairError
from .quadrature import DEFAULT_TOL, QuadratureError
from .shapes import load_set_spec, set_to_spec

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_SPEC = 2
EXIT_DISAGREE = 3
EXIT_NOT_GELFAND = 4
EXIT_QUADRATURE = 5


@contextlib.contextmanager
def _rewrite(path: str):
    """Opened without O_TRUNC, which makes ext4 flush the old blocks at close."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", newline="") as fh:
        try:
            yield fh
        finally:
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()


def _dump_json(payload: dict, path: str | None) -> None:
    with _rewrite(path) if path not in (None, "-") else contextlib.nullcontext(sys.stdout) as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


# ---------------------------------------------------------------------------
# finite commands


def cmd_finite_check(args: argparse.Namespace) -> int:
    group, k_gens = load_group_spec(args.group)
    space = CosetSpace(group, k_gens)
    inst = PompeiuInstance(space, frozenset(args.set))
    spectral = pompeiu_spectral(inst)
    conv = pompeiu_convolution(inst)
    oracle = pompeiu_oracle(inst, kernel=zero_set_vector(inst))
    agreement = oracle.verdict == spectral.verdict == conv.verdict
    shown = spectral if spectral.witness is not None else oracle
    witness = shown.witness
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
    if witness is not None and not recheck_witness(inst, shown):
        raise BugTrapError(f"the {shown.method} witness failed its recheck")
    _dump_json(payload, args.out)
    return EXIT_OK if agreement else EXIT_DISAGREE


SWEEP_HEADER = "bitmask,subset,oracle,spectral,convolution,agree,witness\n"
_TEXT = {False: "false", True: "true"}


def cmd_finite_sweep(args: argparse.Namespace) -> int:
    group, k_gens = load_group_spec(args.group)
    space = CosetSpace(group, k_gens)
    # The cosets of the low h and of the high n - h bits of a mask joined by
    # "|", as tables; lows[1], read when a high bit is set, ends each
    # nonempty low text with "|".
    n, h = space.num_cosets, space.num_cosets // 2
    low, high = (["|".join(str(c + shift) for c in range(width) if m >> c & 1)
                  for m in range(1 << width)] for shift, width in ((0, h), (h, n - h)))
    lows, low_bits = (low, [t + "|" if t else t for t in low]), (1 << h) - 1
    with contextlib.ExitStack() as files:
        out = []

        def write(masks, codes, verdicts):
            # Opened at the first chunk: a sweep refused up front keeps the
            # old file.  These are csv.writer's rows, as no field holds a
            # comma, a quote or a newline.
            if not out:
                out.append(files.enter_context(_rewrite(args.out)))
                out[0].write(SWEEP_HEADER)
            tails = {code: f",{_TEXT[o]},{_TEXT[s]},{_TEXT[c]},{_TEXT[o == s == c]},{w}\n"
                     for code, (o, s, c, w) in verdicts.items()}
            out[0].write("".join([f"{m},{lows[m > low_bits][m & low_bits]}{high[m >> h]}{tails[c]}"
                                  for m, c in zip(masks.tolist(), codes.tolist())]))
        result = enumerate_all(space, args.max_size, write)
    summary = {"schema_version": SCHEMA_VERSION,
               "command": "finite-sweep", **result.summary()}
    _dump_json(summary, args.summary)
    return EXIT_OK if result.disagreements == 0 else EXIT_DISAGREE


# ---------------------------------------------------------------------------
# euclidean command


def cmd_euclid(args: argparse.Namespace) -> int:
    if args.residuals and args.seed is None:
        raise ValueError("--residuals draws random sample points and "
                         "requires --seed")
    shape = load_set_spec(args.set)
    report: EuclidReport = euclid_decide(
        shape, args.lambda_range, grid=args.grid,
        rotation_samples=args.rotations, vanish_tol=args.vanish_tol,
        quad_tol=args.quad_tol,
        collect_landscape=args.landscape is not None)
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
        "seed": args.seed,
        "tolerances": dict(report.tolerances),
        "caveat": report.caveat,
    }
    complex_wits = [[complex(w).real, complex(w).imag]
                    for w in report.lambda_witnesses if complex(w).imag != 0]
    if complex_wits:
        payload["complex_witnesses"] = complex_wits
    _dump_json(payload, args.out)
    if args.landscape:
        with _rewrite(args.landscape) as fh:
            fh.write("".join(["lambda,orbit_max\n", *(
                f"{lam:.10g},{mag:.12e}\n" for lam, mag in report.landscape)]))
    if args.residuals:
        rng = np.random.default_rng(args.seed)
        lo, hi = shape.bounding_box()
        span = float(np.linalg.norm(hi - lo))
        pts = rng.uniform(-span, span, size=(16, shape.dim))
        wits = report.lambda_witnesses
        res = convolution_test(shape, np.asarray(wits, dtype=complex), pts, args.quad_tol)
        with _rewrite(args.residuals) as fh:
            fh.write("".join(["lambda,conv_residual\n", *(
                f"{complex(w).real:.10g},{r:.12e}\n" for w, r in zip(wits, res))]))
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


@functools.cache
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
    check.set_defaults(run=cmd_finite_check)

    sweep = fsub.add_parser("sweep", help="exhaustive subset sweep")
    sweep.add_argument("--group", required=True)
    sweep.add_argument("--out", required=True, help="per-subset CSV")
    sweep.add_argument("--summary", default=None,
                       help="summary JSON (default stdout)")
    sweep.add_argument("--max-size", type=int, default=None)
    sweep.add_argument("--threads", type=int, default=1)     # ignored
    sweep.set_defaults(run=cmd_finite_sweep)

    euclid = sub.add_parser("euclid", help="Euclidean shapes")
    esub = euclid.add_subparsers(dest="action", required=True)
    decide = esub.add_parser("decide", help="search for failure frequencies")
    decide.add_argument("--set", required=True, help="shape spec JSON")
    decide.add_argument("--lambda-range", type=_parse_range, default=DEFAULT_LAMBDA_RANGE)
    decide.add_argument("--grid", type=float, default=DEFAULT_GRID)
    decide.add_argument("--rotations", type=int, default=None)
    decide.add_argument("--vanish-tol", type=float, default=DEFAULT_VANISH_TOL)
    decide.add_argument("--quad-tol", type=float, default=DEFAULT_TOL)
    decide.add_argument("--seed", type=int, default=None)
    decide.add_argument("--threads", type=int, default=1)    # ignored
    decide.add_argument("--out", default=None)
    decide.add_argument("--landscape", default=None,
                        help="CSV of (lambda, orbit max) rows")
    decide.add_argument("--residuals", default=None,
                        help="CSV of convolution residuals at the witnesses")
    decide.set_defaults(run=cmd_euclid)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except NotGelfandPairError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_GELFAND
    except QuadratureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_QUADRATURE
    except BugTrapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DISAGREE
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_SPEC
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPEC


if __name__ == "__main__":
    sys.exit(main())
