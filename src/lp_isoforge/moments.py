"""Even moments of sums of independent symmetric three-valued variables.

A symmetric three-valued variable f takes values +a, 0, -a with
P(f = a) = P(f = -a) = mass/2, so its moments are

    E f^(2l) = a^(2l) * mass,   E f^(2l+1) = 0.

For independent symmetric S and X every odd cross term of (S + X)^(2m)
vanishes, so the binomial expansion keeps only even parts:

    E (S + X)^(2m) = sum_{l=0}^{m} binom(2m, 2l) * E S^(2(m-l)) * E X^(2l).

`fold_even_moments` folds the summands in one at a time with this rule,
carrying the whole vector [E S^0, E S^2, ..., E S^(2k)] of the partial
sum as integers over one running denominator.  Each summand is an integer
row and costs O(k^2) integer multiplications, so n summands cost
O(n k^2), where expanding the multinomial

    E (sum f_j)^(2k)
        = sum_{k_1+...+k_n=k} (2k)! / prod_j (2k_j)! * prod_j E f_j^(2k_j)

term by term would visit O(n^k) supports.  Both give the same number;
`moment_coefficients` still lists the multinomial coefficients, and the
tests use it as a brute-force oracle for the fold.  Scales and masses are
exact rationals, so everything here is exact: coefficients are integers,
the fold adds integer rows and builds one Fraction per order.  Only
`abs_moment` at a fractional order leaves them, through mpf powers.

The layer exports whole tables, not single moments: `term_tables` gives
each summand's [1, E f^2, ..., E f^(2k)], the fold gives the sum's, and
a caller reads every order it needs from one fold.  `even_cumulants`
converts a table to its even cumulants; cumulants of independent
summands add, so many sums of the same summands under different scalings
cost one conversion per summand and then O(n k) per sum instead of a
fold each.  The way back is `integer_moment_map`: with each order's
cumulants over one denominator, it runs on integer numerators and
returns the moments times fixed common denominators, so such sums build
no Fraction at all.  Only `term_tables` takes the order k; the fold, the
cumulants and the integer map read it from their input, a table of
length k + 1 (all of one length, for the fold), and reject empty input.

`convolve` is the independent oracle for the same quantity: it builds the
full distribution of the sum by direct convolution (atoms merged on equal
values) and integrates powers against it.  The two routes share no code
beyond the scalar type, which is what makes the cross-check meaningful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import mpmath

from .errors import CapExceededError, DegenerateInputError
from .numeric import Scalar, as_rational, to_mpf

ATOM_CAP = 3 ** 16

__all__ = [
    "SymmetricAtomVariable",
    "IndependentSumSpec",
    "DiscreteDistribution",
    "ATOM_CAP",
    "even_multinomial",
    "moment_coefficients",
    "term_tables",
    "fold_even_moments",
    "even_cumulants",
    "integer_moment_map",
    "convolve",
    "abs_moment",
]


@dataclass(frozen=True)
class SymmetricAtomVariable:
    """Symmetric variable on {+scale, 0, -scale} with P(|f| = scale) = mass; both exact."""

    scale: Fraction
    mass: Fraction

    def __post_init__(self):
        scale, mass = as_rational(self.scale), as_rational(self.mass)
        if not scale > 0:
            raise DegenerateInputError(f"scale must be positive, got {self.scale}")
        if not (0 < mass <= 1):
            raise DegenerateInputError(f"mass must lie in (0, 1], got {self.mass}")
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "mass", mass)


@dataclass(frozen=True)
class IndependentSumSpec:
    """An ordered list of independent symmetric three-valued summands."""

    terms: tuple

    def __init__(self, terms: Sequence[SymmetricAtomVariable]):
        terms = tuple(terms)
        if not terms:
            raise DegenerateInputError("sum spec needs at least one term")
        if not all(isinstance(t, SymmetricAtomVariable) for t in terms):
            raise TypeError("terms must be SymmetricAtomVariable instances")
        object.__setattr__(self, "terms", terms)

    def __len__(self) -> int:
        return len(self.terms)


def _compositions(k: int, n: int) -> Iterator[tuple]:
    """All n-tuples of nonnegative integers summing to k, lexicographic."""
    if n == 1:
        yield (k,)
        return
    for first in range(k + 1):
        for rest in _compositions(k - first, n - 1):
            yield (first,) + rest


def even_multinomial(parts: tuple) -> int:
    """(2k)! / prod (2k_i)! via a telescoping product of even binomials."""
    remaining = 2 * sum(parts)
    coeff = 1
    for part in parts:
        coeff *= math.comb(remaining, 2 * part)
        remaining -= 2 * part
    return coeff


def moment_coefficients(k: int, n: int) -> list[tuple[tuple, int]]:
    """All compositions of k into n nonnegative parts with their coefficients."""
    if k < 0 or n < 1:
        raise ValueError("need k >= 0 and n >= 1")
    return [(comp, even_multinomial(comp)) for comp in _compositions(k, n)]


def term_tables(spec: IndependentSumSpec, k: int) -> list:
    """Per-term tables [1, E f^2, ..., E f^(2k)] of spec, fold input."""
    return [
        [Fraction(1)] + [t.scale ** (2 * l) * t.mass for l in range(1, k + 1)]
        for t in spec.terms
    ]


def _order(*tables) -> int:
    """k of tables [x_0, ..., x_k] (index l, order 2l); none, an empty or a ragged one is a ValueError."""
    if not tables or not tables[0] or any(len(t) != len(tables[0]) for t in tables):
        raise ValueError("need nonempty tables [x_0, ..., x_k], all of one length")
    return len(tables[0]) - 1


def fold_even_moments(tables) -> list:
    """[E S^0, E S^2, ..., E S^(2k)] for S the sum of independent terms.

    tables[i][l] = E f_i^(2l) for l = 1..k, k + 1 the length every table
    shares: ints or Fractions (`as_rational`), not necessarily from a
    probability-valid variable.  tables[i][0] is ignored (E f^0 = 1) but
    must be present so that index l addresses order 2l.  Each table becomes
    an integer row over the lcm d of its denominators (entry 0 is d), folded
    in on integer numerators over the running product of the d's with
    E (S + X)^(2m) = sum_l binom(2m, 2l) E S^(2(m-l)) E X^(2l):
    O(len(tables) * k^2) integer multiplications, then one Fraction per order.
    """
    k = _order(*tables)
    binoms = [[math.comb(2 * m, 2 * l) for l in range(m + 1)] for m in range(k + 1)]
    acc, den = [1] + [0] * k, 1
    for table in tables:
        entries = [as_rational(x) for x in table[1:]]
        d = math.lcm(*(x.denominator for x in entries))
        row = [d] + [x.numerator * (d // x.denominator) for x in entries]
        acc = [sum(c * acc[m - l] * row[l] for l, c in enumerate(binoms[m])) for m in range(k + 1)]
        den *= d
    return [Fraction(a, den) for a in acc]


def even_cumulants(table) -> list:
    """[0, kappa_2, ..., kappa_2k]: the even cumulants of an even-moment table.

    table[l] = E g^(2l) as in `fold_even_moments` (table[0] is taken as
    1).  Odd moments of a symmetric variable vanish, and with them its
    odd cumulants, so the moment-cumulant recursion keeps even orders:

        kappa_2m = E g^(2m) - sum_{l=1}^{m-1} binom(2m-1, 2l-1) kappa_2l E g^(2m-2l).

    Index l addresses order 2l, like the tables, up to k = len(table) - 1;
    kappa_0 = 0.  Exact for rational tables, O(k^2) operations.
    """
    k = _order(table)
    kappa = [0] * (k + 1)
    for m in range(1, k + 1):
        kappa[m] = table[m] - sum(math.comb(2 * m - 1, 2 * l - 1) * kappa[l] * table[m - l] for l in range(1, m))
    return kappa


def integer_moment_map(dens) -> tuple:
    """(Q, to_moments): the cumulant-to-moment map on integers.

    For cumulants kappa_2l = N_l / dens[l], l = 1..k = len(dens) - 1
    (dens[0] is ignored), put Q_0 = 1 and
    Q_m = lcm_{l=1..m} dens[l] Q_{m-l}.  Then Q_m E g^(2m) is an integer,
    and the inverse of `even_cumulants`,
    E g^(2m) = sum_{l=1}^{m} binom(2m-1, 2l-1) kappa_2l E g^(2m-2l),
    becomes

        Q_m E g^(2m) = sum_{l=1}^{m} f_{m,l} N_l (Q_{m-l} E g^(2m-2l)),
        f_{m,l} = binom(2m-1, 2l-1) Q_m / (dens[l] Q_{m-l}),

    with integer factors f_{m,l} computed here once.  `to_moments(N)`
    maps numerators [N_0, N_1, ..., N_k] (N_0 is ignored) to the integers
    [Q_0 E g^0, ..., Q_k E g^(2k)], O(k^2) integer operations and no
    gcd, so many sums that share the denominators cost no Fraction each.
    """
    k = _order(dens)
    q = [1]
    for m in range(1, k + 1):
        q.append(math.lcm(*(dens[l] * q[m - l] for l in range(1, m + 1))))
    factors = [
        [math.comb(2 * m - 1, 2 * l - 1) * q[m] // (dens[l] * q[m - l]) for l in range(1, m + 1)]
        for m in range(k + 1)
    ]

    def to_moments(nums) -> list:
        scaled = [1]
        for m in range(1, k + 1):
            scaled.append(sum(f * nums[l] * scaled[m - l] for l, f in enumerate(factors[m], 1)))
        return scaled

    return q, to_moments


def convolve(spec: IndependentSumSpec) -> "DiscreteDistribution":
    """Distribution of the sum by direct convolution, atoms merged on value.

    The product space has 3**n sign patterns; specs whose product space
    exceeds ATOM_CAP are rejected up front rather than ground through.
    """
    n = len(spec)
    if 3 ** n > ATOM_CAP:
        raise CapExceededError(f"product space 3^{n} exceeds the atom cap {ATOM_CAP}")
    dist: dict = {Fraction(0): Fraction(1)}
    for t in spec.terms:
        half = t.mass / 2
        stay = 1 - t.mass
        new: dict = {}
        for value, prob in dist.items():
            for delta, weight in ((t.scale, half), (-t.scale, half), (0, stay)):
                if weight == 0:
                    continue
                key = value + delta
                new[key] = new.get(key, Fraction(0)) + prob * weight
        dist = new
    atoms = tuple(sorted((v, p) for v, p in dist.items() if p != 0))
    return DiscreteDistribution(atoms)


@dataclass(frozen=True)
class DiscreteDistribution:
    """Finitely supported distribution: atoms are (value, prob), values strictly increasing."""

    atoms: tuple

    def __post_init__(self):
        atoms = tuple((as_rational(v), as_rational(p)) for v, p in self.atoms)
        if not atoms:
            raise DegenerateInputError("distribution needs at least one atom")
        if any(a >= b for (a, _), (b, _) in zip(atoms, atoms[1:])):
            raise DegenerateInputError("atom values must strictly increase")
        if any(p < 0 for _, p in atoms):
            raise DegenerateInputError("probabilities must be nonnegative")
        total = sum((p for _, p in atoms), Fraction(0))
        if total != 1:
            raise DegenerateInputError(f"probabilities sum to {total}, not 1")
        object.__setattr__(self, "atoms", atoms)

    def moment(self, order: int) -> Fraction:
        """E X^order, exact."""
        if order < 0:
            raise ValueError("order must be >= 0")
        return sum((p * v ** order for v, p in self.atoms), Fraction(0))


def abs_moment(dist: DiscreteDistribution, r) -> Scalar:
    """E |X|^r for rational r > 0; exact when r is an integer.

    Fractional r goes through mpf powers at the active working precision.
    """
    r = as_rational(r)
    if not r > 0:
        raise ValueError(f"r must be positive, got {r}")
    if r.denominator == 1:
        n = r.numerator
        return sum((p * abs(v) ** n for v, p in dist.atoms), Fraction(0))
    total = mpmath.mpf(0)
    rr = to_mpf(r)
    for v, p in dist.atoms:
        av = abs(to_mpf(v))
        if av == 0:
            continue
        total += to_mpf(p) * av ** rr
    return total
