"""Compute even moments of a symmetric sum two ways and watch them agree.

The fast path folds per-atom moment tables into the table of the sum,
every even order at once (the fold reads the highest order from the
tables' length, so only `term_tables` is told it); the even multinomial coefficients listed at
the end are what that fold adds up.  The slow path convolves the
underlying distributions and reads the moment off the support.  Both are
exact over the rationals, so agreement here means equality, not
closeness.
"""

from fractions import Fraction

from lp_isoforge.moments import (
    IndependentSumSpec,
    SymmetricAtomVariable,
    convolve,
    fold_even_moments,
    moment_coefficients,
    term_tables,
)


def main() -> None:
    spec = IndependentSumSpec(
        terms=(
            SymmetricAtomVariable(Fraction(1), Fraction(2, 3)),
            SymmetricAtomVariable(Fraction(1, 2), Fraction(1, 3)),
            SymmetricAtomVariable(Fraction(3), Fraction(1, 12)),
        )
    )

    print("sum of three symmetric three-valued atoms")
    for t in spec.terms:
        print(f"  scale {t.scale}  mass {t.mass}")
    print()

    dist = convolve(spec)
    print(f"convolved support has {len(dist.atoms)} points")
    print()

    moments = fold_even_moments(term_tables(spec, 4))
    for order in (2, 4, 6, 8):
        formula = moments[order // 2]
        oracle = dist.moment(order)
        flag = "ok" if formula == oracle else "MISMATCH"
        print(f"order {order}: formula {formula}")
        print(f"         oracle  {oracle}   [{flag}]")
    print()

    print("even multinomial coefficients for order 6, three terms:")
    for exponents, coeff in moment_coefficients(3, 3):
        print(f"  2k_i = {tuple(2 * e for e in exponents)}  coeff {coeff}")


if __name__ == "__main__":
    main()
