#!/usr/bin/env python3
"""Walk through the four-vertex boundary-value identity step by step.

Shows the sampled exponents, the predicted regularized limit vectors at both
endpoints (Selberg integrals with a vertex removed), the regularized
transport of the level-3 connection (local solutions matched at 1/2), and the
projected identity defect.
"""

import argparse
import random

import numpy as np

from selzeta.braid import build_tower, sample_alpha
from selzeta.selberg import ExponentAssignment, boundary_face
from selzeta.transport import ConnectionPair, projection_identity_check, regularized_connection_matrix


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    alpha = sample_alpha(4, rng)
    falpha = {u: float(v) for u, v in alpha.items()}
    print("sampled exponents:")
    for u, v in sorted(falpha.items()):
        print(f"  alpha{u} = {v:.3f}")

    tower = build_tower(4, 3)
    rho_x = tower[3].mats[(1, 3)].evaluate(falpha)
    rho_y = tower[3].mats[(2, 3)].evaluate(falpha)
    print("\nlevel-3 residue matrices:")
    print("rho_x =\n", np.array_str(rho_x, precision=3))
    print("rho_y =\n", np.array_str(rho_y, precision=3))

    alpha_full = ExponentAssignment(falpha)
    v1, _ = boundary_face(4, alpha_full, [(1,), (2,), (3,)], 0, None)
    print("\nlimit vector at 0 (vertex 2 deleted, zeros on indices touching it):")
    print(" ", np.array_str(v1, precision=8))

    (v2_head,), _ = boundary_face(4, alpha_full, [(1,)], 1, None)
    print("limit vector at 1, projected component (vertex 3 merged into 2):")
    print(f"  {v2_head:.8f}")

    mono = regularized_connection_matrix(ConnectionPair(rho_x, rho_y))
    print("\nregularized transport matrix:")
    print(np.array_str(mono.value, precision=6))
    rhs = mono.value @ v1
    print(f"\nidentity: {v2_head:.8f}  vs  {rhs[0]:.8f}   (gap {abs(v2_head - rhs[0]):.2e})")

    rep = projection_identity_check(4, alpha)
    print(f"full check defect: {rep.defect:.3e}   (series-element variant {rep.defect_symbolic:.3e})")


if __name__ == "__main__":
    main()
