"""Evaluate the moment polynomials the solver inverts, and test their Jacobian.

H_m collects the even moments of a sum of three-valued atoms as a
polynomial in the elementary symmetric functions of the squared scales.
Adding one more atom with scale j and mass nu gives F_m, the function
each certificate entry drives back to the target.  The Jacobian of the
system factors through a Vandermonde determinant in the mu variables,
which is what the nondegeneracy check exploits.

The coefficients C_{m,alpha} come as a plain triangle of integers,
C[m][alpha] for 0 <= alpha <= m <= k; the alpha = 0 column is 1 at
m = 0 and 0 below it.
"""

import math
from fractions import Fraction

from lp_isoforge.momentpoly import (
    cm_alpha_table,
    h_vector,
    jacobian_F,
    moment_vector_F,
    vandermonde_check,
)
from lp_isoforge.moments import (
    IndependentSumSpec,
    SymmetricAtomVariable,
    fold_even_moments,
    term_tables,
)


def main() -> None:
    k = 3
    C = cm_alpha_table(k)
    print(f"coefficient triangle for k = {k}, alpha = 0..m:")
    for m, row in enumerate(C):
        print(f"  C_{m},alpha = {list(row)}")
    print()

    mu = (Fraction(3, 4), Fraction(1, 2), Fraction(1, 4))
    spec = IndependentSumSpec(
        tuple(SymmetricAtomVariable(1, mi) for mi in mu)
    )
    print(f"mu = {mu}")
    # both sides are whole tables, every order at once; the fold reads
    # k from the length of the per-term tables
    hs = h_vector(mu)
    directs = fold_even_moments(term_tables(spec, k))
    for m in range(1, k + 1):
        h, direct = hs[m], directs[m]
        print(f"  H_{m}(mu) = {h}  engine says {direct}  equal: {h == direct}")
    print()

    j, nu = 3, Fraction(1, 500)
    extended = IndependentSumSpec(
        spec.terms + (SymmetricAtomVariable(j, nu),)
    )
    fs = moment_vector_F(j, mu, nu)
    directs = fold_even_moments(term_tables(extended, k))
    for m in range(1, k + 1):
        f, direct = fs[m - 1], directs[m]
        print(f"  F_{m}(mu; j = {j}, nu = {nu}) = {f}  equal: {f == direct}")
    print()

    jac = jacobian_F(j, mu, nu)
    print("Jacobian dF_m / dmu_beta (rows m, columns beta):")
    for row in jac.matrix:
        print("  " + "  ".join(str(v) for v in row))
    print()

    vc = vandermonde_check(mu)
    print(f"H-block determinant:      {vc.det_jacobian}")
    print(f"Vandermonde determinant:  {vc.det_vandermonde}")
    print(f"their ratio:              {vc.ratio}")
    diag = math.prod(C[m][m] for m in range(1, k + 1))
    print(f"|ratio| == product of diagonal coefficients C_mm = {diag}: "
          f"{abs(vc.ratio) == vc.expected_magnitude == diag}")
    print()
    print("distinct mu values make the Vandermonde factor nonzero, so the")
    print("Newton step stays invertible everywhere inside the solve ball.")


if __name__ == "__main__":
    main()
