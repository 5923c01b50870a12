"""Show where and why the default mass schedule runs out of admissible masses.

At every scale j the moment system F^(j)(mu, nu_j) = T is triangular in
the elementary symmetric functions of the masses, so its only candidate
solutions are the k roots of one exact polynomial P_j(x) = prod (x - mu_i)
(`mass_polynomial`).  A scale is feasible iff P_j has k distinct roots in
(delta, 1]; Sturm counts (`count_real_roots`) place every real root
exactly, so the demo can name the reason a scale fails: at p = 4 a root
crosses 0 at j = 9, at p = 6 two roots turn into a complex pair at
j = 48.  The builder records those scales in failed_js instead of
pretending.  The printed roots are mpmath approximations, for
illustration only; the verdicts rest on the exact counts.
"""

import mpmath

from lp_isoforge.analysis import uncomplemented_certificate
from lp_isoforge.momentpoly import mass_polynomial
from lp_isoforge.numeric import count_real_roots, frac_to_str, to_mpf
from lp_isoforge.solver import (
    ball_params,
    construct_pair,
    default_base_point,
    nu_schedule_value,
    target_h,
)


def root_counts(P, delta) -> dict:
    """Distinct real roots of P in each stretch of the line that matters."""
    bound = 1 + max(abs(c / P[0]) for c in P[1:])  # Cauchy: every root has |x| < bound
    return {
        "real": count_real_roots(P, -bound, bound),
        "<= 0": count_real_roots(P, -bound, 0),
        "(0, delta]": count_real_roots(P, 0, delta),
        "(delta, 1]": count_real_roots(P, delta, 1),
        "> 1": count_real_roots(P, 1, bound),
    }


def reason(counts: dict, k: int) -> str:
    if counts["(delta, 1]"] == k:
        return "admissible"
    if counts["real"] < k:
        return f"{counts['real']} distinct real roots < k = {k}"
    if counts["<= 0"]:
        return "a root crossed 0"
    if counts["(0, delta]"]:
        return "a root fell to delta or below"
    return "a root rose above 1"


def scan(p: int, js) -> None:
    k = p // 2
    mu_bar = default_base_point(k)
    ball = ball_params(mu_bar)
    target = target_h(mu_bar)
    print(f"p = {p} (k = {k}), delta = {frac_to_str(ball.delta)}, nu_j = (3/4) delta j^(2-p):")
    print("     j  real  <= 0  (0,delta]  (delta,1]  > 1   verdict; roots")
    for j in js:
        P = mass_polynomial(j, nu_schedule_value(ball, j), target)
        c = root_counts(P, ball.delta)
        with mpmath.workprec(256):
            roots = ", ".join(mpmath.nstr(r, 4) for r in mpmath.polyroots([to_mpf(x) for x in P]))
        print(
            f"  {j:4d}  {c['real']:4d}  {c['<= 0']:4d}  {c['(0, delta]']:9d}  "
            f"{c['(delta, 1]']:9d}  {c['> 1']:3d}   {reason(c, k)}; {roots}"
        )
    print()


def main() -> None:
    scan(4, range(1, 13))
    scan(6, range(44, 51))

    cert = construct_pair(4, 12)
    print(f"construct_pair(4, 12): solved {len(cert.entries)} scales")
    print(f"  failed_js = {cert.failed_js}")
    print(f"  complete  = {cert.complete}")
    print()
    print("the partial certificate still verifies on the scales it covers;")
    print("extending p = 4 past this window means leaving the delta / j^2")
    print("mass schedule, which the builder does not automate:")
    print()
    print(uncomplemented_certificate(cert).divergence_note)


if __name__ == "__main__":
    main()
