"""Build an L_6 subspace pair end to end, then verify everything we claimed.

Walks the whole pipeline: solve the moment-matching system for each
scale, inspect the residuals and the nu window, spot-check the isometry
on random coefficient vectors, write the certificate to disk, read it
back, and finish with the verifier's checks, whose last lines are the
summability results that separate the two spans.
"""

import tempfile
from pathlib import Path

from lp_isoforge.analysis import isometry_check, verify_certificate
from lp_isoforge.serialize import load_certificate, save_certificate
from lp_isoforge.solver import construct_pair


def main() -> None:
    p, j_max = 6, 12
    print(f"constructing a pair in L_{p} with scales j = 1 .. {j_max}")
    cert = construct_pair(p, j_max)
    print(f"solved {len(cert.entries)}/{j_max} scales, complete = {cert.complete}")
    print(f"ball: eps_bar {cert.ball.eps_bar}, M {cert.ball.M}, delta {cert.ball.delta}")
    print()

    print(f"worst residual across all entries: {float(cert.worst_residual):.3e}")
    e = cert.entry(5)
    lo = cert.ball.delta / 2 / 5 ** (p - 2)
    hi = cert.ball.delta / 5 ** (p - 2)
    print(f"entry j = 5: nu {e.nu}, window ({lo}, {hi})")
    print(f"            mu {tuple(f'{float(m):.10f}' for m in e.mu)}")
    print()

    iso = isometry_check(cert, trials=50, seed=1)
    print(f"isometry check on {iso.trials} random vectors, orders {iso.orders_checked}")
    print(f"  max relative defect {float(iso.max_rel_residual):.3e}")
    print(f"  a-priori bound      {float(iso.bound):.3e}")
    print(f"  within bound: {iso.within_bound}")
    print()

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pair.json"
        save_certificate(cert, path)
        again = load_certificate(path)
        print(f"saved {path.stat().st_size} bytes, round trip equal: {again == cert}")
    print()

    report = verify_certificate(again, trials=50, seed=1)
    for name, ok, detail in report.checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  [{detail}]" if detail else ""))
    print(f"verdict: {'PASS' if report.passed else 'FAIL'}")


if __name__ == "__main__":
    main()
