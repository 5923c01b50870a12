"""The explicit order-4 pair: two-term generators matched by one 3-valued atom.

The generator on the Y-side is f = g + n**-0.5 * g' where g, g' are
independent symmetric three-valued variables with E|g| = 1/(n log^2 n)
and E|g'| = 1 (log is natural; `build_p4_row` rationalizes log^2 n once
per row at DEFAULT_PRECISION_BITS, and builds every value of the row
from that one exact Fraction).  Its moments are

    A = ||f||_2^2 = 1/(n log^2 n) + 1/n,
    B = ||f||_4^4 = 1/(n log^2 n) + 6/(n^2 log^2 n) + 1/n^2,

where B comes from the even-moment engine (mixed term 6 * m2 * m2', the
binom(4,2) cross coefficient).  A single symmetric atom a*h with mass nu
matches both moments iff a^2 nu = A and a^4 nu = B, i.e.

    a = (B/A)^(1/2),   nu = A^2 / B,

which is feasible (nu <= 1) for every n >= 2.  Residuals of this matched
pair vanish identically in exact arithmetic.

The printed closed forms that accompany the original derivation of this
pair,

    a_printed   = ((n + 2 + log^2 n) / (n (1 + log^2 n)))^(1/2),
    nu_printed  = (1 + 2 log^2 n + log^4 n) / (n log^2 n + 2 log^2 n + log^4 n),

match the 2nd moment exactly but miss the 4th: they are algebraically
consistent with a mixed coefficient of 2 instead of 6, which leaves a
residual of exactly -4/(n^2 log^2 n).  Both columns are carried side by
side and the discrepancy is quantified, not repaired: the moment-matched
column is the production pair.

Note the masses are used purely as moment bookkeeping: 1/(n log^2 n)
exceeds 1 at n = 2, so no probability space is constructed here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .errors import InfeasibleMassError
from .moments import fold_even_moments
from .numeric import (
    DEFAULT_PRECISION_BITS,
    Scalar,
    as_rational,
    mpf_to_fraction,
    real_to_str,
    to_mpf,
    workprec,
)

__all__ = [
    "P4PairRow",
    "log_sq",
    "match_three_valued",
    "build_p4_row",
    "build_p4_table",
    "render_p4_text",
    "render_p4_report",
]


def log_sq(n: int) -> Fraction:
    """log^2 n rationalized at DEFAULT_PRECISION_BITS (exact dyadic thereafter)."""
    if n < 2:
        raise ValueError(f"n must be >= 2 (log n must not vanish), got {n}")
    with workprec(DEFAULT_PRECISION_BITS):
        return mpf_to_fraction(mpmath.ln(n) ** 2)


def match_three_valued(A, B) -> tuple:
    """Scale and mass (a, nu) of the single atom with a^2 nu = A, a^4 nu = B.

    nu = A^2/B is exact; a = (B/A)^(1/2) is an mpf at DEFAULT_PRECISION_BITS
    (its exact square B/A is what every moment identity consumes).
    """
    A, B = as_rational(A), as_rational(B)
    if A <= 0 or B <= 0:
        raise ValueError("moments must be positive")
    nu = A * A / B
    if nu > 1:
        raise InfeasibleMassError(f"matched mass {nu} exceeds 1")
    with workprec(DEFAULT_PRECISION_BITS):
        a = mpmath.sqrt(to_mpf(B / A))
    return a, nu


@dataclass(frozen=True)
class P4PairRow:
    """One n: both candidate pairs and their exact moment-matching residuals.

    Residuals are computed from the exact squared scales (even moments
    never see the scale itself), so zeros here are identities, not small
    numbers.
    """

    n: int
    A: Fraction
    B: Fraction
    a: Scalar
    nu: Fraction
    a_printed: Scalar
    nu_printed: Fraction
    residual_2: Fraction
    residual_4: Fraction
    residual_2_printed: Fraction
    residual_4_printed: Fraction


def build_p4_row(n: int) -> P4PairRow:
    """Row n, every value from one rationalized L = log^2 n.

    A is the closed form directly; B is assembled by the even-moment
    engine from the per-term tables [1, m2, m4] with m2(g) = m4(g) =
    1/(n L) and m_{2l}(g') = n^-l (only the square of the scale enters
    even moments, and that square is exactly 1/n).  The printed forms
    are evaluated verbatim from the same L.
    """
    L = log_sq(n)
    mass_g = 1 / (n * L)
    A = mass_g + Fraction(1, n)
    B = fold_even_moments([[Fraction(1), mass_g, mass_g], [Fraction(1), Fraction(1, n), Fraction(1, n ** 2)]])[2]
    a, nu = match_three_valued(A, B)
    a_sq = B / A
    ap_sq = (n + 2 + L) / (n * (1 + L))
    nu_printed = (1 + 2 * L + L * L) / (n * L + 2 * L + L * L)
    with workprec(DEFAULT_PRECISION_BITS):
        a_printed = mpmath.sqrt(to_mpf(ap_sq))
    return P4PairRow(
        n=n,
        A=A,
        B=B,
        a=a,
        nu=nu,
        a_printed=a_printed,
        nu_printed=nu_printed,
        residual_2=a_sq * nu - A,
        residual_4=a_sq * a_sq * nu - B,
        residual_2_printed=ap_sq * nu_printed - A,
        residual_4_printed=ap_sq * ap_sq * nu_printed - B,
    )


def build_p4_table(N: int) -> list:
    """Rows n = 2..N (N-1 of them)."""
    if N < 2:
        raise ValueError(f"N must be >= 2, got {N}")
    return [build_p4_row(n) for n in range(2, N + 1)]


def render_p4_text(rows) -> str:
    """Aligned plain-text table of both columns and the printed-form residual."""
    digits = 10
    header = (
        f"{'n':>5}  {'A':>{digits + 3}}  {'B':>{digits + 3}}  "
        f"{'a':>{digits + 3}}  {'nu':>{digits + 3}}  "
        f"{'a_printed':>{digits + 3}}  {'nu_printed':>{digits + 3}}  "
        f"{'resid4_printed':>{digits + 5}}"
    )
    lines = [header, "-" * len(header)]

    def d(x):
        return mpmath.nstr(to_mpf(x), digits)

    with workprec(DEFAULT_PRECISION_BITS):
        for r in rows:
            lines.append(
                f"{r.n:>5}  {d(r.A):>{digits + 3}}  {d(r.B):>{digits + 3}}  "
                f"{d(r.a):>{digits + 3}}  {d(r.nu):>{digits + 3}}  "
                f"{d(r.a_printed):>{digits + 3}}  {d(r.nu_printed):>{digits + 3}}  "
                f"{d(r.residual_4_printed):>{digits + 5}}"
            )
    return "\n".join(lines)


def render_p4_report(rows) -> str:
    """Narrative summary: what matches, what does not, and by exactly how much."""
    first, last = rows[0], rows[-1]
    prec = DEFAULT_PRECISION_BITS
    with workprec(prec):
        gap_first = abs(to_mpf(first.a) - to_mpf(first.a_printed)) / to_mpf(first.a)
        gap_last = abs(to_mpf(last.a) - to_mpf(last.a_printed)) / to_mpf(last.a)
        lines = [
            "Moment-matching report for the order-4 pair",
            "",
            f"Rows n = {first.n}..{last.n} at {prec}-bit precision, natural log,",
            "log^2 n rationalized once per row so all residuals are exact rationals.",
            "",
            "Matched column (a, nu) = ((B/A)^(1/2), A^2/B):",
            f"  residual_2 = residual_4 = 0 exactly on every row "
            f"(checked on {len(rows)} rows).",
            "",
            "Printed closed-form column (a_printed, nu_printed):",
            "  the 2nd moment matches exactly on every row, but the 4th moment",
            "  residual equals -4/(n^2 log^2 n) exactly: the printed forms are",
            "  algebraically consistent with a mixed cross-moment coefficient of 2,",
            "  while the even-moment expansion of (g + n**-0.5 g')^4 carries",
            "  binom(4,2) = 6.  The defect decays like n^-2 log^-2 n but is nonzero",
            "  for every finite n, so the matched column is the production pair.",
            "",
            f"  n = {first.n}: residual_4_printed = "
            f"{mpmath.nstr(to_mpf(first.residual_4_printed), 8)} "
            f"(= -4/(n^2 log^2 n) = "
            f"{mpmath.nstr(to_mpf(Fraction(-4) / (first.n ** 2 * log_sq(first.n))), 8)})",
            f"  n = {last.n}: residual_4_printed = "
            f"{mpmath.nstr(to_mpf(last.residual_4_printed), 8)}",
            "",
        ]
        infeasible = [r.n for r in rows if r.nu_printed > 1]
        if infeasible:
            lines += [
                f"  (At n = {', '.join(str(n) for n in infeasible)} the printed mass "
                "nu_printed even exceeds 1, so it is not a probability mass at all; "
                "the matched nu stays in (0, 1] on every row.)",
                "",
            ]
        lines += [
            "Scale columns converge as n grows: relative |a - a_printed| / a is "
            f"{mpmath.nstr(gap_first, 6)} at n = {first.n} and "
            f"{mpmath.nstr(gap_last, 6)} at n = {last.n}.",
            "",
            f"Featured row n = {first.n}:",
            f"  A  = {real_to_str(first.A, prec)}",
            f"  B  = {real_to_str(first.B, prec)}",
            f"  a  = {real_to_str(first.a, prec)}",
            f"  nu = {real_to_str(first.nu, prec)}",
        ]
    return "\n".join(lines)
