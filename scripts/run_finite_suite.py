#!/usr/bin/env python3
"""Run the desk-scale finite suite and tabulate three-way agreement.

Every nonempty subset of every suite instance gets the verdicts of the rank
oracle, the spectral criterion, and the convolution criterion; the three
must coincide everywhere.  `enumerate_all` decides one subset per orbit of
the group and gives the others its verdicts; this script needs only the
counts of its `SweepResult`, so it passes no row sink.
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
        start = time.perf_counter()
        r = enumerate_all(space)
        secs = time.perf_counter() - start
        total_disagreements += r.disagreements
        print(f"{r.space_name:<22} {r.subsets:>8} {r.pompeiu_count:>8} "
              f"{r.subsets - r.pompeiu_count:>7} {r.disagreements:>9} "
              f"{secs:>7.2f}")
    print(f"\ntotal disagreements: {total_disagreements} "
          f"({time.perf_counter() - t0:.1f}s)")
    return 0 if total_disagreements == 0 else 3


if __name__ == "__main__":
    sys.exit(main())
