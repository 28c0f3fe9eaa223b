#!/usr/bin/env python3
"""Tabulate the canonical series element two ways and show their spread.

Columns: power-series matching at 1/2, and the zeta-combination
coefficients evaluated numerically, with their symbols.  Exits 1 when the
two differ by more than SPREAD_BOUND in any coefficient, and 2 with one
error line when --degree is outside 0..MAX_WEIGHT.
"""

import argparse
import sys

from selzeta.mzv import MZVIndex, associator_symbolic, mzv_eval
from selzeta.ncalg import all_words, associator_series, grouplike_defect

# the bound of the test suite's series-versus-symbolic comparison; rounding
# in the zeta evaluation sets the spread, which measures 4.4e-16, 6.7e-16,
# 8.9e-16 and 2.7e-15 at degrees 2 to 5
SPREAD_BOUND = 1e-10


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--degree", type=int, default=4)
    args = ap.parse_args()

    try:
        matched = associator_series(args.degree)
    except ValueError as exc:
        print(f"associator_table.py: error: {exc}", file=sys.stderr)
        return 2
    symbolic = associator_symbolic(args.degree)
    numeric_sym = symbolic.to_ncseries()

    print(f"{'word':<8}{'series-match':>18}{'zeta-combination':>22}   symbols")
    for w in all_words(args.degree):
        combo = symbolic[w]
        print(f"{w or '1':<8}{matched[w]:>18.12f}{numeric_sym[w]:>22.12f}   {combo}")
    spread = max(abs(matched[w] - numeric_sym[w]) for w in all_words(args.degree))
    print(f"\nseries-match vs zeta-combination spread: {spread:.3e}")
    print(f"group-likeness defect (series-match): {grouplike_defect(matched):.3e}")
    if args.degree >= 2:
        z2 = mzv_eval(MZVIndex((2,)))
        print(f"weight-2 coefficient + zeta(2): {matched['XY'] + z2:+.3e}")
    if spread > SPREAD_BOUND:
        print(f"spread {spread:.3e} exceeds {SPREAD_BOUND:.0e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
