#!/usr/bin/env python3
"""Tabulate the canonical series element three ways and show their spread.

Columns: ladder construction (transport + extrapolation), power-series
matching at 1/2, and the zeta-combination coefficients evaluated numerically.
Exits nonzero when the ladder and the matched series differ by more than
SPREAD_BOUND in any coefficient.
"""

import argparse
import sys

from selzeta.mzv import MZVIndex, mzv_eval
from selzeta.ncalg import all_words, grouplike_defect
from selzeta.transport import associator_numeric, associator_series, associator_symbolic

# the bound of the test suite's ladder-versus-series comparison; the ladder's
# fit sets the spread, which measures 1.8e-10, 2.5e-9, 2.8e-8 and 5.1e-7 at
# degrees 2 to 5
SPREAD_BOUND = 1e-6


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--degree", type=int, default=4)
    args = ap.parse_args()

    ladder = associator_numeric(args.degree).value
    matched = associator_series(args.degree)
    symbolic = associator_symbolic(args.degree)
    numeric_sym = symbolic.to_ncseries(1e-12)

    print(f"{'word':<8}{'ladder':>18}{'series-match':>18}{'zeta-combination':>22}   symbols")
    for w in all_words(args.degree):
        combo = symbolic[w]
        print(
            f"{w or '1':<8}{ladder[w]:>18.12f}{matched[w]:>18.12f}{numeric_sym[w]:>22.12f}   {combo}"
        )
    spread = max(abs(ladder[w] - matched[w]) for w in all_words(args.degree))
    print(f"\nladder vs series-match spread: {spread:.3e}")
    print(f"group-likeness defect (ladder): {grouplike_defect(ladder):.3e}")
    z2 = mzv_eval(MZVIndex((2,)))
    print(f"weight-2 coefficient + zeta(2): {ladder['XY'] + z2:+.3e}")
    if spread > SPREAD_BOUND:
        print(f"spread {spread:.3e} exceeds {SPREAD_BOUND:.0e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
