"""Order-4 pair: Rosenthal moments, matching, and the printed-form defect."""

import math
from fractions import Fraction

import mpmath
import pytest
from mpmath import workprec

from lp_isoforge import p4
from lp_isoforge.errors import InfeasibleMassError
from lp_isoforge.moments import IndependentSumSpec, SymmetricAtomVariable, convolve
from lp_isoforge.numeric import DEFAULT_PRECISION_BITS, to_mpf
from lp_isoforge.p4 import (
    build_p4_row,
    build_p4_table,
    log_sq,
    match_three_valued,
    render_p4_report,
    render_p4_text,
)


def test_log_sq():
    with pytest.raises(ValueError):
        log_sq(1)
    with workprec(256):
        assert abs(to_mpf(log_sq(2)) - mpmath.ln(2) ** 2) < mpmath.mpf(2) ** -250


def test_rosenthal_a_frozen_n2():
    with workprec(256):
        want = 1 / (2 * mpmath.ln(2) ** 2) + mpmath.mpf(1) / 2
        assert abs(to_mpf(build_p4_row(2).A) - want) < mpmath.mpf(2) ** -240


def test_rosenthal_closed_forms_exact():
    for n in (2, 3, 10, 97):
        L = log_sq(n)
        row = build_p4_row(n)
        A, B = row.A, row.B
        mg = 1 / (n * L)
        assert A == mg + Fraction(1, n)
        assert B == mg + 6 * mg / n + Fraction(1, n * n)


def test_rosenthal_b_matches_convolution():
    # the second variable is a sign scaled by n^(-1/2), rational at square n,
    # so the convolution oracle is exact and must agree to the digit
    for n in (4, 9, 16, 25):
        L = log_sq(n)
        g = SymmetricAtomVariable(1, 1 / (n * L))
        gp = SymmetricAtomVariable(Fraction(1, math.isqrt(n)), 1)
        assert convolve(IndependentSumSpec([g, gp])).moment(4) == build_p4_row(n).B


def test_rosenthal_limits_monotone():
    # A*n = 1 + 1/log^2 n and B*n*log^2 n = 1 + 6/n + log^2 n / n both
    # decrease to 1 once n is past e^2
    prev_a = prev_b = None
    for n in (8, 16, 64, 256, 1024, 4096, 10000):
        L = log_sq(n)
        row = build_p4_row(n)
        an = row.A * n
        bn = row.B * n * L
        assert an > 1 and bn > 1
        if prev_a is not None:
            assert an < prev_a and bn < prev_b
        prev_a, prev_b = an, bn
    assert prev_a - 1 < Fraction(2, 100)
    assert prev_b - 1 < Fraction(2, 100)


def test_match_three_valued():
    a, nu = match_three_valued(Fraction(1, 3), Fraction(1, 3))
    assert a == 1 and nu == Fraction(1, 3)
    a, nu = match_three_valued(Fraction(1, 2), Fraction(1, 2))
    assert a == 1 and nu == Fraction(1, 2)
    with pytest.raises(InfeasibleMassError):
        match_three_valued(Fraction(1), Fraction(1, 2))
    with pytest.raises(ValueError):
        match_three_valued(Fraction(0), Fraction(1, 2))


def test_match_residuals_vanish_exactly():
    for n in (2, 5, 23):
        row = build_p4_row(n)
        assert row.residual_2 == 0
        assert row.residual_4 == 0
        assert 0 < row.nu <= 1


def test_printed_forms_identities():
    for n in (2, 3, 7, 40):
        L = log_sq(n)
        row = build_p4_row(n)
        # the printed pair matches the 2nd moment identically ...
        assert row.residual_2_printed == 0
        # ... and misses the 4th by the coefficient-2-vs-6 gap exactly
        assert row.residual_4_printed == Fraction(-4) / (n * n * L)
        # equivalently: its 4th moment carries the cross coefficient 2
        ap_sq = (n + 2 + L) / (n * (1 + L))
        assert ap_sq * ap_sq * row.nu_printed == 1 / (n * L) + 2 / (n * n * L) + Fraction(1, n * n)
        assert ap_sq * row.nu_printed == row.A


def test_printed_forms_numeric_n2():
    row = build_p4_row(2)
    with workprec(256):
        L = mpmath.ln(2) ** 2
        want_a = mpmath.sqrt((4 + L) / (2 * (1 + L)))
        assert abs(row.a_printed - want_a) < mpmath.mpf(2) ** -240
    # at n = 2 the printed mass is not even a probability
    assert row.nu_printed > 1


def test_row_takes_log_sq_once(monkeypatch):
    calls = []

    def counting_log_sq(n):
        calls.append(n)
        return log_sq(n)

    monkeypatch.setattr(p4, "log_sq", counting_log_sq)
    rows = build_p4_table(100)
    assert calls == list(range(2, 101)) == [r.n for r in rows]


def test_table_shape_and_decay():
    rows = build_p4_table(50)
    assert len(rows) == 49
    assert [r.n for r in rows] == list(range(2, 51))
    resid = [abs(r.residual_4_printed) for r in rows]
    assert all(a > b for a, b in zip(resid, resid[1:]))
    assert all(r.residual_4_printed < 0 for r in rows)

    def rel_gap(r):
        with workprec(DEFAULT_PRECISION_BITS):
            return abs(to_mpf(r.a) - to_mpf(r.a_printed)) / to_mpf(r.a)

    assert rel_gap(rows[0]) > rel_gap(rows[8]) > rel_gap(rows[-1])
    with pytest.raises(ValueError):
        build_p4_table(1)


def test_renderings():
    rows = build_p4_table(6)
    text = render_p4_text(rows)
    lines = text.splitlines()
    assert len(lines) == 2 + len(rows)
    assert "a_printed" in lines[0]
    report = render_p4_report(rows)
    assert "-4/(n^2 log^2 n)" in report
    assert "binom(4,2) = 6" in report
    assert "coefficient of 2" in report
