"""Round-trip and exactness guarantees of the numeric layer."""

import random
import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import workprec

from lp_isoforge.errors import SingularJacobianError
from lp_isoforge.numeric import (
    MAX_DECIMAL_EXPONENT,
    MAX_PRECISION_BITS,
    count_real_roots,
    det_exact,
    frac_to_str,
    mpf_to_fraction,
    parse_rational,
    parse_real,
    raw_elimination,
    real_to_str,
    to_mpf,
    validate_precision,
)


def test_to_mpf_correctly_rounded_rational():
    # 1/3 at 8 mantissa bits: 2^9/3 = 170.67 rounds to 171, so the nearest
    # representable is 171/512 (a float() detour would give a different bit)
    with workprec(8):
        x = to_mpf(Fraction(1, 3))
    assert mpf_to_fraction(x) == Fraction(171, 512)


def test_to_mpf_keeps_precision_outside_workprec():
    with workprec(256):
        fifth = to_mpf(Fraction(1, 5))
        third = mpmath.mpf(1) / 3
    with workprec(53):
        assert to_mpf(Fraction(1, 5), 256)._mpf_ == fifth._mpf_
        assert to_mpf(third, 256)._mpf_ == third._mpf_
    assert fifth._mpf_[3] == 256


def test_to_mpf_exact_on_dyadics():
    q = Fraction(12345, 2 ** 40)
    with workprec(256):
        assert mpf_to_fraction(to_mpf(q)) == q


def test_mpf_to_fraction_exact_binary():
    with workprec(53):
        x = mpmath.mpf(1) / 7
    f = mpf_to_fraction(x)
    with workprec(53):
        assert to_mpf(f) == x
    # the fraction is the dyadic the float stores, not a re-rounding
    assert f.denominator & (f.denominator - 1) == 0


@pytest.mark.parametrize("prec", [128, 192, 256, 320, MAX_PRECISION_BITS])
def test_real_string_round_trip_bit_exact(prec):
    rng = random.Random(prec)
    with workprec(prec):
        for _ in range(25):
            num = rng.getrandbits(prec) or 1
            x = to_mpf(Fraction(num, 3 ** 40)) * (-1) ** rng.randint(0, 1)
            s = real_to_str(x, prec)
            assert parse_real(s, prec)._mpf_ == x._mpf_


def test_parse_real_grammar():
    good = {"1.": 1, ".5": Fraction(1, 2), "-3333.0": -3333, "2.5e-3": Fraction(1, 400), "1.0e+3": 1000}
    for s, v in good.items():
        assert parse_real(s, 256)._mpf_ == to_mpf(Fraction(v), 256)._mpf_
    for bad in (".", "1.2.3", ".e5", " 1", "+1", "1E5", "1e", "inf", 5, "1" * 100000 + "x"):
        t0 = time.monotonic()
        with pytest.raises(ValueError):
            parse_real(bad, 256)
        assert time.monotonic() - t0 < 1  # the grammar's regex cannot backtrack quadratically


def test_real_to_str_accepts_fractions():
    s = real_to_str(Fraction(7, 3), 256)
    with workprec(256):
        assert parse_real(s, 256) == to_mpf(Fraction(7, 3))


def test_fraction_strings():
    assert frac_to_str(Fraction(-7, 3)) == "-7/3"
    assert frac_to_str(5) == "5/1"
    assert Fraction(frac_to_str(Fraction(-7, 3))) == Fraction(-7, 3)


def test_parse_rational_bounds_the_decimal_exponent():
    # inside the bound it is Fraction: decimals exact, floats their binary value
    for value in ("0.75", "3/4", " 1.5E-3 ", "1e0_0_1", "-2e+3", 0.1, 7):
        assert parse_rational(value) == Fraction(value)
    assert parse_rational("0.75") == Fraction(3, 4)
    t0 = time.monotonic()
    assert parse_rational(f"1e-{MAX_DECIMAL_EXPONENT}") == Fraction(1, 10 ** MAX_DECIMAL_EXPONENT)
    assert parse_rational(f"1e{MAX_DECIMAL_EXPONENT}") == 10 ** MAX_DECIMAL_EXPONENT
    # past it, or with an exponent too long to read, it fails before any Fraction
    for text in ("1e-4301", "1e4301", "1e-10000000", "1e-0_0_0_5000", "1e" + "9" * 5000):
        with pytest.raises(ValueError):
            parse_rational(text)
    assert time.monotonic() - t0 < 1
    # every refusal is a ValueError that names its reason
    with pytest.raises(ValueError, match="zero denominator"):
        parse_rational("1/0")
    for value in (float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="not a finite number"):
            parse_rational(value)


def test_validate_precision():
    assert validate_precision(128) == 128
    assert validate_precision(MAX_PRECISION_BITS) == MAX_PRECISION_BITS
    for bad in (0, 64, 127, -256, "256", 256.0, MAX_PRECISION_BITS + 1, 2 ** 40, 2 ** 70):
        with pytest.raises(ValueError):
            validate_precision(bad)


def test_to_mpf_rejects_floats():
    with pytest.raises(TypeError):
        to_mpf(0.1)


def test_det_exact_small_matrices():
    assert det_exact([[Fraction(1), Fraction(1)], [Fraction(3), Fraction(5)]]) == 2
    assert det_exact([[2]]) == 2
    assert det_exact([[1, 2], [2, 4]]) == 0
    # zero leading pivot forces a row swap
    assert det_exact([[0, 1, 2], [1, 0, 1], [2, 3, 0]]) == 8


def _raw(rows):
    return [[to_mpf(v, 256)._mpf_ for v in row] for row in rows]


def test_raw_elimination_det_matches_exact():
    rng = random.Random(3)
    for _ in range(10):
        m = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3)]
             for _ in range(3)]
        want = det_exact(m)
        got = mpmath.mp.make_mpf(raw_elimination(_raw(m), None, 256)[0])
        with workprec(256):
            assert abs(got - to_mpf(want)) <= abs(to_mpf(want)) * mpmath.mpf(2) ** -200 + mpmath.mpf(2) ** -240


def test_raw_elimination_rejects_singular():
    with pytest.raises(SingularJacobianError):
        raw_elimination(_raw([[1, 2], [2, 4]]), None, 256)


def test_raw_elimination_solves():
    _, x = raw_elimination(_raw([[1, 1], [3, 5]]), _raw([[3, 11]])[0], 256)
    with workprec(256):
        assert abs(mpmath.mp.make_mpf(x[0]) - 2) < mpmath.mpf(2) ** -250
        assert abs(mpmath.mp.make_mpf(x[1]) - 1) < mpmath.mpf(2) ** -250


def _mpf_elimination(rows, rhs):
    """The elimination in mpf operators at the context precision: the oracle."""
    n = len(rows)
    a = [list(row) for row in rows]
    b = list(rhs)
    max_entry = max(abs(v) for row in a for v in row)
    guard = mpmath.mpf(2) ** (-(mpmath.mp.prec // 2)) * (max_entry if max_entry > 0 else 1)
    det = mpmath.mpf(1)
    for col in range(n):
        pivot_row = max(range(col, n), key=lambda r: abs(a[r][col]))
        if abs(a[pivot_row][col]) <= guard:
            raise SingularJacobianError("singular")
        if pivot_row != col:
            a[col], a[pivot_row] = a[pivot_row], a[col]
            b[col], b[pivot_row] = b[pivot_row], b[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            factor = a[r][col] / a[col][col]
            for c in range(col, n):
                a[r][c] -= factor * a[col][c]
            b[r] -= factor * b[col]
    x = [mpmath.mpf(0)] * n
    for i in range(n - 1, -1, -1):
        acc = b[i]
        for j in range(i + 1, n):
            acc -= a[i][j] * x[j]
        x[i] = acc / a[i][i]
    return det, x


@pytest.mark.parametrize("prec", [128, 256, 512])
def test_raw_elimination_rounds_as_mpf_arithmetic(prec):
    # random k x k systems with ties in |a| (the first maximal row pivots)
    rng = random.Random(prec)
    for _ in range(40):
        n = rng.randint(1, 8)
        with workprec(prec):
            rows = [[to_mpf(Fraction(rng.choice([-1, 1]) * rng.randint(1, 6), rng.randint(1, 4))) / 3
                     for _ in range(n)] for _ in range(n)]
            rhs = [to_mpf(Fraction(rng.randint(-50, 50), rng.randint(1, 7))) for _ in range(n)]
            try:
                want = _mpf_elimination(rows, rhs)
            except SingularJacobianError:
                with pytest.raises(SingularJacobianError):
                    raw_elimination([[v._mpf_ for v in row] for row in rows], [v._mpf_ for v in rhs], prec)
                continue
        det, x = raw_elimination([[v._mpf_ for v in row] for row in rows], [v._mpf_ for v in rhs], prec)
        assert det == want[0]._mpf_
        assert x == [v._mpf_ for v in want[1]]


def _expand(roots, lead=1, extra=(1,)):
    """Coefficients, highest degree first, of lead * extra(x) * prod (x - r)."""
    coeffs = [Fraction(lead) * c for c in extra]
    for r in roots:
        coeffs = [a - r * b for a, b in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


small_rational = st.builds(Fraction, st.integers(-24, 24), st.integers(1, 6))


@settings(max_examples=150, deadline=None)
@given(
    roots=st.lists(small_rational, min_size=1, max_size=6),
    lead=st.sampled_from([1, -1, Fraction(7, 3), -5]),
    # (x^2 + 1)^2 and (x^2 - x + 1)^2: gcd(p, p') is not constant although
    # no real root repeats, so the chain is divided by it
    complex_pair=st.sampled_from([(1,), (1, 0, 1), (1, -1, 1), (1, 0, 2, 0, 1), (1, -2, 3, -2, 1)]),
    ends=st.data(),
)
def test_sturm_count_matches_distinct_roots(roots, lead, complex_pair, ends):
    # endpoints drawn from the roots themselves as often as from elsewhere,
    # so both closed and open ends of (lo, hi] are exercised
    endpoint = st.one_of(st.sampled_from(roots), small_rational)
    lo, hi = sorted((ends.draw(endpoint), ends.draw(endpoint)))
    got = count_real_roots(_expand(roots, lead, complex_pair), lo, hi)
    assert got == len({r for r in roots if lo < r <= hi})


def test_sturm_count_edge_cases():
    # x^2 (x - 1)^3 (x^2 + 1): distinct real roots 0 and 1
    p = _expand([0, 0, 1, 1, 1], extra=(1, 0, 1))
    assert count_real_roots(p, -1, 1) == 2
    assert count_real_roots(p, 0, 1) == 1
    assert count_real_roots(p, -1, 0) == 1
    assert count_real_roots(p, 1, 1) == 0
    assert count_real_roots([0, 0, 3], -10, 10) == 0  # leading zeros, a constant
    assert count_real_roots([2, -1], 0, Fraction(1, 2)) == 1
    with pytest.raises(ValueError):
        count_real_roots([0, 0], 0, 1)
    with pytest.raises(ValueError):
        count_real_roots([1, -1], 1, 0)
