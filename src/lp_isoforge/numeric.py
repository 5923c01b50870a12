"""Number substrate: exact rationals plus fixed-precision reals.

Two kinds of scalars flow through this package:

* exact rationals (`fractions.Fraction`, admitted by :func:`as_rational`
  from ints and Fractions only), used wherever the result must be exact
  (moment identities, certificate masses and residuals, bracket checks);
* binary floats of configurable precision (`mpmath.mpf`, its raw
  libmp tuple, or the solver's (m, e) integer pairs), used for the
  Newton iteration, square roots, fractional powers and the decimal
  encoding.

Precision discipline: every mpf computation runs inside an explicit
``workprec`` context and the precision in force is recorded alongside any
serialized value.  The hot loops run outside it: the solver's Newton
iteration and its elimination on (m, e) integer pairs, the value m * 2^e
(`solver` alone knows that format), and the projection ascent in
`analysis` on raw `mpmath.libmp` tuples.  Each passes the precision to
every operation explicitly and rounds to nearest exactly as the mpf
operator would inside ``workprec``, so their values are the mpf values
bit for bit.  Conversion from Fraction to mpf goes through
:func:`to_mpf`, built on ``mpmath.libmp.from_rational`` which rounds
correctly to nearest.  The implicit path, ``mpmathify(Fraction)``, which
mixed arithmetic such as ``Fraction * mpf`` takes, truncates instead (at
most 1 ulp off in mpmath 1.3); `ProjectionOperator.abs_power_moment`,
which takes even orders only, reaches it on mpf vectors and keeps it so
its values stay bit-identical.
Conversion the other way (:func:`mpf_to_fraction`) is exact because every
finite binary float is a dyadic rational.  Masses take it once, where they
enter: the solver's returned roots and the certificate reader.

Decimal serialization uses enough digits that parsing the string at the
same precision reproduces the identical mpf, so certificates survive a
round trip byte-for-byte: a mass written from its exact dyadic value and
read back converts to the same rational.

:func:`count_real_roots` counts the distinct real roots of a rational
polynomial in an interval by one Sturm chain on integer polynomials, built
by pseudo-division with positive multipliers and each remainder divided by
its content, so no coefficient grows as a Fraction's would; the chain is
divided by its last member, gcd(p, p'), only when that has positive degree.
"""

from __future__ import annotations

import math
import re
from decimal import Decimal
from fractions import Fraction
from typing import Sequence, Union

import mpmath
from mpmath import mp, mpf, workprec
from mpmath.libmp import from_rational, mpf_pos, prec_to_dps, round_nearest

Scalar = Union[int, Fraction, mpmath.mpf]

DEFAULT_PRECISION_BITS = 256
MIN_PRECISION_BITS = 128
# real_to_str writes prec_to_dps(prec) + 6 mantissa digits, and parse_real reads
# them through int(str), which refuses more than 4300; 8192 bits need 2471
MAX_PRECISION_BITS = 8192
# the largest |e| parse_rational reads in a decimal exponent: Fraction("1e-N")
# builds 10^N, and the same int(str) limit bounds the other digits of the text
MAX_DECIMAL_EXPONENT = 4300
_DECIMAL_EXPONENT = re.compile(r"[eE]([-+]?\d[\d_]*)\s*\Z")

__all__ = [
    "Scalar",
    "DEFAULT_PRECISION_BITS",
    "MIN_PRECISION_BITS",
    "MAX_PRECISION_BITS",
    "MAX_DECIMAL_EXPONENT",
    "workprec",
    "validate_precision",
    "as_rational",
    "parse_rational",
    "to_mpf",
    "mpf_to_fraction",
    "frac_to_str",
    "real_to_str",
    "parse_real",
    "det_exact",
    "count_real_roots",
]


def validate_precision(bits: int) -> int:
    """The one precision check: an integer in [MIN_PRECISION_BITS, MAX_PRECISION_BITS]."""
    if type(bits) is not int or not MIN_PRECISION_BITS <= bits <= MAX_PRECISION_BITS:
        raise ValueError(
            f"precision must be an integer in [{MIN_PRECISION_BITS}, {MAX_PRECISION_BITS}] "
            f"bits, got {bits!r}"
        )
    return bits


def as_rational(x) -> Fraction:
    """The one exactness rule: an int as a Fraction, a Fraction as itself, anything else a TypeError."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise TypeError(f"expected an int or a Fraction, got {type(x).__name__}")


def parse_rational(value) -> Fraction:
    """Fraction(value) for a number or its text, with a decimal exponent of at most MAX_DECIMAL_EXPONENT.

    The bound is checked on the text before any Fraction is built, so an
    exponent like 1e-10000000 fails at once (ValueError) instead of
    spending seconds on a ten-million-digit power of ten.  Anything within
    it parses as Fraction does: "0.75" is 3/4, a float its exact binary
    fraction, and an int, a "num/den" string or bad text as Fraction has it.
    Every refusal is a ValueError with its reason, a zero denominator and
    an infinite float included.
    """
    if isinstance(value, str):
        match = _DECIMAL_EXPONENT.search(value)
        # int() reads the exponent as Fraction would, and refuses over 4300 digits itself
        if match and abs(int(match[1])) > MAX_DECIMAL_EXPONENT:
            raise ValueError(f"decimal exponent exceeds {MAX_DECIMAL_EXPONENT} in magnitude")
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError("zero denominator") from None
    except OverflowError:
        raise ValueError("not a finite number") from None


def to_mpf(x: Scalar, prec: int | None = None) -> mpmath.mpf:
    """Convert x to mpf, correctly rounded at `prec` (current context if None).

    The result keeps all `prec` bits even outside a ``workprec(prec)``
    context: ``mp.make_mpf`` wraps the rounded value without re-rounding it.
    """
    if prec is None:
        prec = mp.prec
    if isinstance(x, mpmath.mpf):
        return mp.make_mpf(mpf_pos(x._mpf_, prec, round_nearest))
    if isinstance(x, int):
        x = Fraction(x)
    if isinstance(x, Fraction):
        return mp.make_mpf(from_rational(x.numerator, x.denominator, prec, round_nearest))
    raise TypeError(f"cannot convert {type(x).__name__} to mpf")


def mpf_to_fraction(x: mpmath.mpf) -> Fraction:
    """Exact rational value of a finite mpf; anything else is a TypeError."""
    if not isinstance(x, mpmath.mpf):
        raise TypeError(f"expected an mpf, got {type(x).__name__}")
    if not mpmath.isfinite(x):
        raise ValueError(f"cannot convert non-finite value {x} to Fraction")
    sign, man, exp, _ = x._mpf_
    if man == 0:
        return Fraction(0)
    fr = Fraction(man) * Fraction(2) ** exp
    return -fr if sign else fr


# ---------------------------------------------------------------------------
# string forms
# ---------------------------------------------------------------------------

def _int_to_str(n: int) -> str:
    # through decimal, which has no limit on the number of digits
    # (str(int) refuses more than sys.get_int_max_str_digits())
    return format(Decimal(n), "f")


def frac_to_str(q: Fraction | int) -> str:
    q = Fraction(q)
    return f"{_int_to_str(q.numerator)}/{_int_to_str(q.denominator)}"


def _serialization_digits(prec: int) -> int:
    # prec_to_dps underestimates on purpose; +6 guarantees the decimal
    # string pins down a unique mpf at the same precision.
    return prec_to_dps(prec) + 6


def real_to_str(x: Scalar, prec: int) -> str:
    """Decimal string that parses back to the identical mpf at `prec` bits."""
    with workprec(prec):
        v = to_mpf(x, prec)
        return mpmath.nstr(v, _serialization_digits(prec))


# what real_to_str writes: an optional sign, digits with at most one point,
# an optional exponent.  `$` also matches before one final newline.
_REAL = re.compile(r"-?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:e[+-]?[0-9]+)?$")


def parse_real(s: str, prec: int) -> mpmath.mpf:
    """The mpf at `prec` bits of a decimal string; anything else is a ValueError."""
    m = _REAL.match(s) if isinstance(s, str) else None
    if m is None:
        raise ValueError(f"not a decimal real: {s!r}")
    with workprec(prec):
        return mpf(m.group())


# ---------------------------------------------------------------------------
# small dense linear algebra (k x k with k <= 8; no library pulls its weight)
# ---------------------------------------------------------------------------

def det_exact(rows: Sequence[Sequence[int | Fraction]]) -> Fraction:
    """Determinant by Gaussian elimination over Q (Fraction division) of int or Fraction entries."""
    n = len(rows)
    a = [[as_rational(v) for v in row] for row in rows]
    if any(len(row) != n for row in a):
        raise ValueError("matrix must be square")
    sign = 1
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != col:
            a[col], a[pivot_row] = a[pivot_row], a[col]
            sign = -sign
        pivot = a[col][col]
        for r in range(col + 1, n):
            factor = a[r][col] / pivot
            for c in range(col, n):
                a[r][c] -= factor * a[col][c]
    det = Fraction(sign)
    for i in range(n):
        det *= a[i][i]
    return det


# ---------------------------------------------------------------------------
# real roots of rational polynomials (coefficients highest degree first)
# ---------------------------------------------------------------------------

def _pseudo_divmod(a: list, b: list) -> tuple:
    """(Q, R) with m a = Q b + R, m = |b[0]|^(deg a - deg b + 1), on integers.

    Each step scales by |b[0]| > 0, so Q and R are positive multiples of
    the quotient and remainder over Q and keep their signs everywhere.
    """
    scale, sign = abs(b[0]), (1 if b[0] > 0 else -1)
    rem = list(a)
    quot = []
    while len(rem) >= len(b):
        q = rem[0] * sign
        quot = [c * scale for c in quot] + [q]
        rem = [scale * r - q * c for r, c in zip(rem[1:], b[1:])] + [scale * r for r in rem[len(b):]]
    while rem and rem[0] == 0:
        rem.pop(0)
    return quot, rem


def _primitive(p: list) -> list:
    """p divided by its positive content: the same signs, the smallest integers."""
    g = math.gcd(*p)
    return [c // g for c in p] if g > 1 else p


def _derivative(p: list) -> list:
    deg = len(p) - 1
    return [c * (deg - i) for i, c in enumerate(p[:-1])]


def _sign_changes(chain: list, x: Fraction) -> int:
    """Sign changes of the chain's values at x, zeros skipped.

    An integer polynomial of degree d is evaluated at x = u/v as
    v^d P(u/v), which has the sign of P(x) since v > 0.
    """
    u, v = x.numerator, x.denominator
    changes = 0
    last = 0
    for poly in chain:
        value, v_power = 0, 1
        for c in poly:
            value = value * u + c * v_power
            v_power *= v
        if value:
            if last and (value > 0) != (last > 0):
                changes += 1
            last = value
    return changes


def count_real_roots(coeffs: Sequence, lo, hi) -> int:
    """Number of distinct real roots in (lo, hi] of a rational polynomial, exactly.

    Sturm's theorem on the chain p, p', -rem(p, p'), ... of integer
    polynomials (pseudo-remainders over their content: positive scalings),
    which ends in g = c gcd(p, p').  Over g it is a Sturm chain of p / g: at
    a root x its sign changes already equal their value just right of x and
    drop by one as x passes it, so V(lo) - V(hi) counts (lo, hi] even when an
    end is a root.  Off the roots of g the division scales every member
    alike, so it runs only when deg g > 0, that is, at a multiple root.
    """
    p = [as_rational(c) for c in coeffs]
    while p and p[0] == 0:
        p.pop(0)
    if not p:
        raise ValueError("the zero polynomial has no finite root count")
    lo, hi = as_rational(lo), as_rational(hi)
    if lo > hi:
        raise ValueError(f"empty interval ({lo}, {hi}]")
    den = math.lcm(*(c.denominator for c in p))
    p = _primitive([c.numerator * (den // c.denominator) for c in p])
    chain = [p, _primitive(_derivative(p))]
    while chain[-1]:
        chain.append([-c for c in _primitive(_pseudo_divmod(chain[-2], chain[-1])[1])])
    chain.pop()
    if len(chain[-1]) > 1:  # a multiple root: divide by g = gcd(p, p'), exactly
        chain = [_pseudo_divmod(c, chain[-1])[0] for c in chain]
    return _sign_changes(chain, lo) - _sign_changes(chain, hi)
