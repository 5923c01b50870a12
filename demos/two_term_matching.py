"""Tabulate the two-parameter fourth-moment matching and its exact residuals.

Each row pairs a three-valued atom against a reference sum whose second
and fourth moments it must reproduce.  The coefficients come out in
closed form, the printed shorthand drops terms of size 4/(n^2 log^2 n),
and the table keeps both: the exact residual of the closed form (zero)
and the residual you would see if you took the shorthand literally.
"""

from lp_isoforge.p4 import (
    build_p4_row,
    build_p4_table,
    render_p4_report,
    render_p4_text,
)


def main() -> None:
    n = 10
    row = build_p4_row(n)
    print(f"reference moments at n = {n}: A = {row.A}")
    print(f"                              B = {row.B}")
    print()

    rows = build_p4_table(12)
    print(render_p4_text(rows))
    print()

    r = rows[8]  # n = 10
    print(f"row n = {r.n}: exact residuals ({r.residual_2}, {r.residual_4})")
    print(f"  shorthand 4th-moment residual = {float(r.residual_4_printed):.6e}")
    print(f"  which is -4/(n^2 log^2 n) exactly, as a rational")
    print()
    print(render_p4_report(rows))


if __name__ == "__main__":
    main()
