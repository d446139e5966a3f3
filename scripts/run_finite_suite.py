#!/usr/bin/env python3
"""Run the desk-scale finite suite and tabulate three-way agreement.

Every nonempty subset of every suite instance is decided by the rank
oracle, the spectral criterion, and the convolution criterion; the three
verdicts must coincide everywhere.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from pompeiu.finite_pompeiu import enumerate_all

from conftest import acceptance_suite


def main() -> int:
    argparse.ArgumentParser(description=__doc__).parse_args()

    print(f"{'space':<22} {'subsets':>8} {'pompeiu':>8} {'fails':>7} "
          f"{'disagree':>9} {'secs':>7}")
    total_disagreements = 0
    t0 = time.perf_counter()
    for space in acceptance_suite():
        result = enumerate_all(space)
        s = result.summary()
        total_disagreements += s["disagreements"]
        print(f"{s['space']:<22} {s['subsets']:>8} {s['pompeiu']:>8} "
              f"{s['not_pompeiu']:>7} {s['disagreements']:>9} "
              f"{result.seconds:>7.2f}")
    print(f"\ntotal disagreements: {total_disagreements} "
          f"({time.perf_counter() - t0:.1f}s)")
    return 0 if total_disagreements == 0 else 3


if __name__ == "__main__":
    sys.exit(main())
