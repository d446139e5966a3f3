#!/usr/bin/env python3
"""Failure-frequency landscapes for the canonical shapes.

Writes one CSV of (lambda, orbit max |transform|) per shape and prints the
witness table: the disk, ball, annulus and ring union fail on Bessel-zero
lattices, the polytopes never dip below the vanishing threshold.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pompeiu.euclidean import euclid_decide
from pompeiu.shapes import Annulus, Ball, DisjointUnion, Polytope

SHAPES = {
    "disk": Ball(1.0, 2),
    "ball3": Ball(1.0, 3),
    "annulus": Annulus(1.0, 2.0, 2),
    "square": Polytope([[0, 0], [1, 0], [1, 1], [0, 1]]),
    "triangle": Polytope([[0, 0], [1, 0], [0, 1]]),
    "rings": DisjointUnion([Ball(1.0, 2), Annulus(2.0, 3.0, 2)]),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="landscapes")
    parser.add_argument("--lambda-max", type=float, default=20.0)
    parser.add_argument("--grid", type=float, default=0.05)
    args = parser.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    print(f"{'shape':<10} {'verdict':<22} witnesses")
    for name, shape in SHAPES.items():
        report = euclid_decide(shape, (0.0, args.lambda_max), grid=args.grid,
                               collect_landscape=True)
        (out_dir / f"{name}.csv").write_text("".join(["lambda,orbit_max\n", *(
            f"{lam:.10g},{mag:.12e}\n" for lam, mag in report.landscape)]))
        witnesses = ", ".join(f"{float(w):.10f}" for w in report.lambda_witnesses)
        print(f"{name:<10} {report.verdict:<22} {witnesses}")
    print(f"\nlandscape CSVs written to {out_dir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
