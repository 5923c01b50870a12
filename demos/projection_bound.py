"""Probe the orthogonal projection onto a two-generator span from below.

The projection is materialized on the joint probability space of the
generators, where it is an honest linear map we can apply to vectors.
Every estimate printed at the end is attained by a concrete input, so
the lower bound never overshoots the true L_p -> L_p norm; the dense
angle sweep serves as the independent cross-check.
"""

from fractions import Fraction

from lp_isoforge.analysis import (
    build_projection,
    projection_norm_grid_search,
    projection_norm_lower_bound,
)
from lp_isoforge.moments import IndependentSumSpec, SymmetricAtomVariable


def main() -> None:
    p = 4
    P = build_projection(
        [
            IndependentSumSpec([SymmetricAtomVariable(Fraction(1), Fraction(3, 4))]),
            IndependentSumSpec([SymmetricAtomVariable(Fraction(4), Fraction(1, 16))]),
        ]
    )
    print(f"joint space has {P.atom_count} atoms, span dimension {P.n}")
    print()

    g0 = P.basis[0]
    print(f"P g_0 == g_0: {P.apply(g0) == tuple(g0)}")
    ones = tuple(Fraction(1) for _ in range(P.atom_count))
    print(f"P 1 == 0:     {all(v == 0 for v in P.apply(ones))}")

    f = tuple(Fraction((7 * i * i + 3) % 11 - 5, 4) for i in range(P.atom_count))
    pf = P.apply(f)
    print(f"P (P f) == P f on a fixed test vector: {P.apply(pf) == pf}")
    ratio2 = P.norm(pf, 2) / P.norm(f, 2)
    print(f"L_2 ratio |Pf|_2 / |f|_2 = {float(ratio2):.6f}  (never above 1)")
    ratio4 = P.norm(pf, 4) / P.norm(f, 4)
    print(f"L_4 ratio for the same vector = {float(ratio4):.6f}")
    print()

    est = projection_norm_lower_bound(P, p, seed=0)
    grid = projection_norm_grid_search(P, p)
    print(f"attained lower bound for |P|_{p}: {float(est):.9f}")
    print(f"dense sweep over the span:        {grid:.9f}")
    print(f"gap: {abs(float(est) - grid):.2e}")
    print()
    print("a bound above 1 certifies the projection expands some vector;")
    print("the family of spans built by the certificate pushes this past")
    print("any fixed constant as the scale count grows.")


if __name__ == "__main__":
    main()
