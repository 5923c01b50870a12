"""Acceptance gate: eleven end-to-end properties, each with a runtime budget.

One test per criterion, so `pytest -v` prints one pass/fail line for each.
Every check uses an oracle independent of the code path under test:
convolution for the moment engine, exact rational finite differences for
derivatives, the quadratic closed form for the Newton solver, a dense
grid search for the projection norm, and subprocess reruns for
determinism.
"""

import hashlib
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from mpmath import workprec

import lp_isoforge
from lp_isoforge.cli import main
from lp_isoforge.analysis import (
    build_projection,
    isometry_check,
    projection_norm_grid_search,
    projection_norm_lower_bound,
    uncomplemented_certificate,
    vpl_check,
)
from lp_isoforge.errors import LpIsoforgeError
from lp_isoforge.momentpoly import (
    cm_alpha_table,
    grad_table,
    h_vector,
    jacobian_F,
    moment_vector_F,
    vandermonde_check,
)
from lp_isoforge.moments import (
    IndependentSumSpec,
    SymmetricAtomVariable,
    convolve,
    fold_even_moments,
    term_tables,
)
from lp_isoforge.numeric import parse_real, to_mpf
from lp_isoforge.p4 import build_p4_table, log_sq, render_p4_report
from lp_isoforge.serialize import load_certificate, uncomplemented_to_dict
from lp_isoforge.solver import (
    ball_params,
    closed_form_k2,
    default_base_point,
    solve_mu,
    target_h,
)


def test_criterion_01_even_moment_engine_matches_convolution():
    t0 = time.monotonic()
    rng = random.Random(101)
    for _ in range(200):
        n = rng.randint(1, 4)
        k = rng.randint(1, 4)
        terms = []
        for _ in range(n):
            scale = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            den = rng.randint(1, 12)
            terms.append(SymmetricAtomVariable(scale, Fraction(rng.randint(1, den), den)))
        spec = IndependentSumSpec(terms)
        dist = convolve(spec)
        moments = fold_even_moments(term_tables(spec, k))
        for order in range(2, 2 * k + 1, 2):
            assert moments[order // 2] == dist.moment(order)
    assert time.monotonic() - t0 < 10


def test_criterion_02_mass_polynomials_match_direct_moments():
    t0 = time.monotonic()
    rng = random.Random(202)
    for _ in range(100):
        k = rng.randint(1, 4)
        mu = tuple(Fraction(rng.randint(1, 24), 24) for _ in range(k))
        nu = Fraction(rng.randint(1, 24), 24)
        j = rng.randint(1, 5)
        base = [SymmetricAtomVariable(1, m) for m in mu]
        h_spec = IndependentSumSpec(base)
        f_spec = IndependentSumSpec(base + [SymmetricAtomVariable(j, nu)])
        h_direct = fold_even_moments(term_tables(h_spec, k))
        f_direct = fold_even_moments(term_tables(f_spec, k))
        assert h_vector(mu) == h_direct
        assert moment_vector_F(j, mu, nu) == tuple(f_direct[1:])
    assert time.monotonic() - t0 < 10


def test_criterion_03_derivatives_and_vandermonde_ratio():
    t0 = time.monotonic()
    rng = random.Random(303)
    step = Fraction(1, 2 ** 64)
    tol = mpmath.mpf("1e-20")
    with workprec(256):
        for _ in range(50):
            k = rng.randint(2, 4)
            mu = tuple(Fraction(rng.randint(2, 40), 64) for _ in range(k))
            nu = Fraction(rng.randint(1, 32), 64)
            j = rng.randint(1, 5)
            m = rng.randint(1, k)
            beta = rng.randint(1, k)
            # the difference quotient is exact (polynomials at rational
            # points); only the final comparison is rounded
            up = list(mu)
            dn = list(mu)
            up[beta - 1] += step
            dn[beta - 1] -= step
            fd_h = (h_vector(up)[m] - h_vector(dn)[m]) / (2 * step)
            assert abs(to_mpf(grad_table(mu)[m][beta - 1] - fd_h)) < tol
            jac = jacobian_F(j, mu, nu)

            def F_m(point, nu_):
                return moment_vector_F(j, point, nu_)[m - 1]

            fd_f = (F_m(up, nu) - F_m(dn, nu)) / (2 * step)
            assert abs(to_mpf(jac.matrix[m - 1][beta - 1] - fd_f)) < tol
            fd_nu = (F_m(mu, nu + step) - F_m(mu, nu - step)) / (2 * step)
            assert abs(to_mpf(jac.nu_column[m - 1] - fd_nu)) < tol
    for k in (2, 3, 4):
        expected = math.prod(cm_alpha_table(k)[m][m] for m in range(1, k + 1))
        for _ in range(10):
            vals = set()
            while len(vals) < k:
                vals.add(Fraction(rng.randint(1, 999), 1000))
            chk = vandermonde_check(tuple(sorted(vals, reverse=True)))
            assert abs(chk.ratio) == expected
    assert time.monotonic() - t0 < 30


def test_criterion_04_p6_certificate_residuals_bracket_ordering(cert_p6_timed):
    cert, build_seconds = cert_p6_timed
    assert cert.complete and cert.p == 6 and len(cert.entries) == 20
    delta = cert.ball.delta
    tol = Fraction(1, 2 ** 128)
    for e in cert.entries:
        assert all(abs(r) < tol for r in e.residuals)
        assert delta / 2 / Fraction(e.j) ** 4 < e.nu < delta / Fraction(e.j) ** 4
        assert e.mu[0] > e.mu[1] > e.mu[2] > delta
    assert build_seconds < 60


def test_criterion_05_newton_matches_quadratic_closed_form():
    t0 = time.monotonic()
    rng = random.Random(505)
    mu_bar = default_base_point(2)
    ball = ball_params(mu_bar)
    target = target_h(mu_bar)
    tol = mpmath.mpf(2) ** -120
    solved = failed = 0
    with workprec(256):
        for _ in range(100):
            j = rng.randint(1, 20)
            nu = Fraction(rng.randint(501, 999), 1000) * ball.delta / j ** 2
            try:
                closed = closed_form_k2(j, nu, target)
            except LpIsoforgeError:
                closed = None
            try:
                res = solve_mu(j, nu, target, mu_bar, 256)
            except LpIsoforgeError:
                res = None
            # the two independent paths must agree on failure as well
            if closed is None or res is None:
                assert closed is None and res is None
                failed += 1
                continue
            solved += 1
            for a, b in zip(res.mu.values, closed.values):
                assert abs(to_mpf(a) - to_mpf(b)) < tol
    assert solved > 0 and failed > 0 and solved + failed == 100
    assert time.monotonic() - t0 < 30


def test_criterion_06_isometry_spot_check(cert_p6):
    t0 = time.monotonic()
    res = isometry_check(cert_p6, trials=100, seed=0)
    assert res.trials == 100
    assert res.max_rel_residual <= res.bound
    assert res.bound < Fraction(1, 2 ** 100)
    assert time.monotonic() - t0 < 60


def test_criterion_07_p4_table_exact_and_printed_residual():
    t0 = time.monotonic()
    rows = build_p4_table(100)
    assert len(rows) == 99
    for row in rows:
        assert row.residual_2 == 0 and row.residual_4 == 0
        L = log_sq(row.n)
        assert row.residual_4_printed == Fraction(-4) / (row.n * row.n * L)
        assert row.residual_4_printed != 0
    report = render_p4_report(rows)
    assert "-4/(n^2 log^2 n)" in report
    assert "binom(4,2) = 6" in report and "coefficient of 2" in report
    assert time.monotonic() - t0 < 10


def test_criterion_08_projection_identities_and_norm_oracle():
    t0 = time.monotonic()
    masses = default_base_point(3).values
    P3 = build_projection([IndependentSumSpec([SymmetricAtomVariable(1, m)]) for m in masses])
    assert P3.atom_count == 27
    rng = random.Random(808)
    for _ in range(100):
        f = tuple(
            Fraction(rng.randint(-60, 60), rng.randint(1, 60)) for _ in range(27)
        )
        Pf = P3.apply(f)
        assert P3.apply(Pf) == Pf
        assert P3.abs_power_moment(Pf, 2) <= P3.abs_power_moment(f, 2)
    for b in P3.basis:
        assert P3.apply(b) == tuple(b)
    assert P3.apply((Fraction(1),) * 27) == (Fraction(0),) * 27

    P2 = build_projection([IndependentSumSpec([SymmetricAtomVariable(1, m)]) for m in masses[:2]])
    est = projection_norm_lower_bound(P2, 4, seed=0)
    grid = projection_norm_grid_search(P2, 4)
    assert est >= 1
    assert abs(float(est) - grid) / grid < 0.01
    assert time.monotonic() - t0 < 30


def test_criterion_09_norm_product_bound():
    t0 = time.monotonic()
    for k in range(2, 7):
        chk = vpl_check(default_base_point(k))
        assert chk.holds and chk.lhs < chk.rhs
    chk2 = vpl_check((Fraction(2, 3), Fraction(1, 3)))
    with workprec(256):
        lhs_indep = to_mpf(Fraction(7, 3)) ** Fraction(1, 4) * (
            (to_mpf(2) ** to_mpf(Fraction(7, 3)) + 10) / 18
        ) ** Fraction(3, 4)
        rhs_indep = to_mpf(8) ** Fraction(1, 4)
        assert abs(chk2.lhs - lhs_indep) < 1e-6
        assert abs(chk2.rhs - rhs_indep) < 1e-6
    assert chk2.holds and chk2.lhs < chk2.rhs
    assert time.monotonic() - t0 < 10


def test_criterion_10_weight_sequence_hypotheses(cert_p6, cert_p4):
    t0 = time.monotonic()
    uc6 = uncomplemented_certificate(cert_p6)
    du6 = uncomplemented_to_dict(uc6, cert_p6.precision_bits)
    assert uc6.valid  # the sum nu_j tail bound holds exactly when valid
    assert uc6.sum_nu_total_bound == uc6.sum_nu_partial + uc6.sum_nu_tail_bound
    assert uc6.divergence_certified
    assert du6["comparator_partial_N"] == 10 ** 6
    assert float(du6["comparator_partial_sum"]) > float(du6["comparator_reference"]) > 13  # ln 1e6
    with workprec(256):
        # reported constant is sqrt(1/delta)
        constant = parse_real(du6["comparator_constant"], 256)
        assert abs(constant ** 2 * to_mpf(cert_p6.ball.delta) - 1) < mpmath.mpf(2) ** -100

    uc4 = uncomplemented_certificate(cert_p4)
    assert uc4.valid
    assert not uc4.divergence_certified
    assert "divergence not certified by this comparator" in uc4.divergence_note
    assert time.monotonic() - t0 < 10


def test_criterion_11_construct_is_byte_deterministic(tmp_path):
    # the subprocess runs in tmp_path, where a relative PYTHONPATH would
    # not resolve; point it at the src directory this package came from
    src_dir = Path(lp_isoforge.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src_dir))
    certs = []
    stdouts = []
    for name in ("first", "second"):
        workdir = tmp_path / name
        workdir.mkdir()
        proc = subprocess.run(
            [
                sys.executable, "-m", "lp_isoforge.cli",
                "construct", "--p", "6", "--j-max", "10", "--seed", "7",
            ],
            cwd=workdir,
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        certs.append((workdir / "certificate.json").read_bytes())
        stdouts.append(proc.stdout)
    assert certs[0] == certs[1]
    assert stdouts[0] == stdouts[1]


def test_construct_p6_certificate_bytes_pinned(tmp_path, capsys):
    # one moved mpf bit in the Newton iterates moves this hash; refresh it
    # only for an intended change to the solve
    out = tmp_path / "cert.json"
    assert main(["construct", "--p", "6", "--j-max", "5", "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "6c2773002ff763922cddd6052deac9ea60c2e18876d976a7b528b36410f3c85a"
    )


def test_construct_p4_ladder_certificate_bytes_pinned(tmp_path, capsys):
    # scales 5..8 are solved on the continuation ladder and 9..12 are
    # infeasible, so this pins the ladder's bytes and the failed list;
    # refresh it only for an intended change to the solve
    out = tmp_path / "cert.json"
    assert main(["construct", "--p", "4", "--j-max", "12", "--out", str(out)]) == 1
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "99b5b9c208cf58b0e5161c887f1516ca5ae32e94393c5d01ac4b2db021b50d98"
    )


def test_construct_p6_frontier_certificate_bytes_pinned(tmp_path, capsys):
    # scales 44..47 are solved on the continuation ladder after the direct
    # solve stalls, and 48 is the first infeasible scale, so this pins the
    # bytes of the p = 6 frontier; refresh it only for an intended change
    # to the solve
    out = tmp_path / "cert.json"
    assert main(["construct", "--p", "6", "--j-max", "48", "--out", str(out)]) == 1
    capsys.readouterr()
    cert = load_certificate(out)
    assert cert.failed_js == (48,)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "6826a1b20c7f8493ebfd699f4eb0b7c82bc9381abf821742df59504fc717194a"
    )


# the raw Newton kernel's loops run over k = p/2, so these pin the bytes at
# k = 4, 6 and 8 and at other precisions and schedule positions, and each
# pinned certificate verifies (the reader converts each mass at the
# certificate's own precision); refresh them only for an intended change to
# the solve
@pytest.mark.parametrize(
    "args, digest",
    [
        # a decimal flag is read exactly as 3/4, the default, never through
        # a float: the bytes of test_construct_p6_certificate_bytes_pinned
        (
            ["--p", "6", "--j-max", "5", "--nu-fraction", "0.75"],
            "6c2773002ff763922cddd6052deac9ea60c2e18876d976a7b528b36410f3c85a",
        ),
        (["--p", "8", "--j-max", "10"], "87f5234cbec9c9ff701ee8d351dd302ee90d67ffbfb35c7786d34a55579d854a"),
        (["--p", "12", "--j-max", "5"], "0fb1c93fe2bc5fc3969747ce96f8854b084692d96057ee4ceb005ea7f1c69ab2"),
        (["--p", "16", "--j-max", "3"], "a13e0835e1eaae110b4cda318996aa7e58dbc220005b7e689b7563c3c489f276"),
        (
            ["--p", "8", "--j-max", "10", "--precision", "128"],
            "b763aff88194fcc52d81dce1164625c597b2647533b02c734eb687e78536b4ab",
        ),
        (
            ["--p", "8", "--j-max", "10", "--precision", "512"],
            "c4ab7bf2eef7d05752dc2295bd42d257204c5365d2f89451d56fd635e68145ef",
        ),
        (
            ["--p", "8", "--j-max", "10", "--nu-fraction", "19/20"],
            "7ace89f9d4168aa3b3710d9aa65e141bf21329efdc86cff8d136445a72b721e5",
        ),
    ],
    ids=["p6-nu0.75", "p8", "p12", "p16", "p8-prec128", "p8-prec512", "p8-nu19/20"],
)
def test_construct_certificate_bytes_pinned_across_k(tmp_path, capsys, args, digest):
    out = tmp_path / "cert.json"
    assert main(["construct", *args, "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    assert main(["verify", str(out)]) == 0
    capsys.readouterr()
