"""Even-moment engine against its brute-force oracles: convolution and expansion."""

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import workprec

from lp_isoforge.errors import CapExceededError, DegenerateInputError
from lp_isoforge.moments import (
    DiscreteDistribution,
    IndependentSumSpec,
    SymmetricAtomVariable,
    abs_moment,
    convolve,
    even_cumulants,
    fold_even_moments,
    integer_moment_map,
    moment_coefficients,
    term_tables,
)
from lp_isoforge.numeric import to_mpf


def spec_of(pairs):
    return IndependentSumSpec([SymmetricAtomVariable(s, m) for s, m in pairs])


def sum_moments(spec, k):
    """[E S^0, E S^2, ..., E S^(2k)] by the even-moment fold."""
    return fold_even_moments(term_tables(spec, k))


def test_single_moment_values():
    g = SymmetricAtomVariable(1, Fraction(1, 3))
    table = term_tables(IndependentSumSpec([g]), 4)[0]
    # |g|^(2l) = |g| for a +-1/0 variable, any l; order 0 is 1
    assert table == [1] + [Fraction(1, 3)] * 4
    # brute force over the 3 atoms of (scale 2, mass 1/4): 2 * 16/8 = 4
    assert term_tables(spec_of([(2, Fraction(1, 4))]), 2)[0][2] == 4


def test_variable_validation():
    with pytest.raises(DegenerateInputError):
        SymmetricAtomVariable(0, Fraction(1, 2))
    with pytest.raises(DegenerateInputError):
        SymmetricAtomVariable(-1, Fraction(1, 2))
    with pytest.raises(DegenerateInputError):
        SymmetricAtomVariable(1, 0)
    with pytest.raises(DegenerateInputError):
        SymmetricAtomVariable(1, Fraction(3, 2))


def test_moment_coefficients_frozen():
    assert dict(moment_coefficients(2, 2)) == {(2, 0): 1, (1, 1): 6, (0, 2): 1}
    assert dict(moment_coefficients(1, 1)) == {(1,): 1}
    assert dict(moment_coefficients(3, 2)) == {(3, 0): 1, (2, 1): 15, (1, 2): 15, (0, 3): 1}


def test_moment_coefficients_factorial_identity():
    for k in range(1, 6):
        for n in range(1, 5):
            for comp, coeff in moment_coefficients(k, n):
                assert sum(comp) == k and len(comp) == n
                want = math.factorial(2 * k)
                for part in comp:
                    want //= math.factorial(2 * part)
                assert coeff == want


def test_sum_moment_frozen():
    s = spec_of([(1, Fraction(1, 2)), (1, Fraction(1, 3))])
    # brute force over the 9 atoms of the product space
    # (variance additivity at order 2)
    assert sum_moments(s, 2) == [1, Fraction(5, 6), Fraction(11, 6)]
    # single-term sum collapses to the term's own moment
    assert sum_moments(spec_of([(1, Fraction(2, 7))]), 5)[1:] == [Fraction(2, 7)] * 5


def test_convolve_frozen_atoms():
    d = convolve(spec_of([(1, Fraction(1, 2))]))
    assert d.atoms == (
        (Fraction(-1), Fraction(1, 4)),
        (Fraction(0), Fraction(1, 2)),
        (Fraction(1), Fraction(1, 4)),
    )
    # 9-case enumeration; the zero atom carries 8/24 + 2 * 1/24 = 5/12
    # (probabilities must total 1, which pins it)
    d = convolve(spec_of([(1, Fraction(1, 2)), (1, Fraction(1, 3))]))
    assert d.atoms == (
        (Fraction(-2), Fraction(1, 24)),
        (Fraction(-1), Fraction(1, 4)),
        (Fraction(0), Fraction(5, 12)),
        (Fraction(1), Fraction(1, 4)),
        (Fraction(2), Fraction(1, 24)),
    )
    # two fair signs: zero-probability atoms are dropped
    d = convolve(spec_of([(1, 1), (1, 1)]))
    assert d.atoms == (
        (Fraction(-2), Fraction(1, 4)),
        (Fraction(0), Fraction(1, 2)),
        (Fraction(2), Fraction(1, 4)),
    )


def test_convolve_cap():
    # 3^17 sign patterns exceed ATOM_CAP = 3^16; rejected before any atom is built
    many = spec_of([(1, Fraction(1, 2))] * 17)
    with pytest.raises(CapExceededError):
        convolve(many)


def test_distribution_rejects_unsorted_atoms():
    with pytest.raises(DegenerateInputError):
        DiscreteDistribution(((Fraction(1), Fraction(1, 2)), (Fraction(-1), Fraction(1, 2))))


def test_abs_moment_frozen():
    with workprec(256):
        # masses (2/3, 1/3): atoms +-2: 1/18, +-1: 5/18, 0: 1/3
        d = convolve(spec_of([(1, Fraction(2, 3)), (1, Fraction(1, 3))]))
        v = abs_moment(d, Fraction(4, 3))
        want = (to_mpf(2) ** to_mpf(Fraction(7, 3)) + 10) / 18
        assert abs(v - want) < mpmath.mpf(2) ** -240
        assert abs(v - mpmath.mpf("0.835538")) < 1e-6
        # masses (1/2, 1/3): atoms +-2: 1/24, +-1: 1/4, 0: 5/12
        d2 = convolve(spec_of([(1, Fraction(1, 2)), (1, Fraction(1, 3))]))
        v2 = abs_moment(d2, Fraction(4, 3))
        want2 = (to_mpf(2) ** to_mpf(Fraction(4, 3)) + 6) / 12
        assert abs(v2 - want2) < mpmath.mpf(2) ** -240
        assert abs(v2 - mpmath.mpf("0.709987")) < 1e-6


def test_abs_moment_even_order_consistency():
    d = convolve(spec_of([(2, Fraction(1, 5)), (1, Fraction(2, 3))]))
    s = spec_of([(2, Fraction(1, 5)), (1, Fraction(2, 3))])
    moments = sum_moments(s, 2)
    assert abs_moment(d, 2) == moments[1]
    assert abs_moment(d, 4) == moments[2]


def test_abs_moment_point_mass_at_zero():
    d = DiscreteDistribution(((Fraction(0), Fraction(1)),))
    assert abs_moment(d, 2) == 0
    with workprec(256):
        assert abs_moment(d, Fraction(4, 3)) == 0


def test_from_tables_covers_orders():
    assert fold_even_moments([[Fraction(1), Fraction(1, 2)]]) == [1, Fraction(1, 2)]
    # tables of unequal length, or none, or an empty one, have no order
    with pytest.raises(ValueError):
        fold_even_moments([[Fraction(1), Fraction(1, 2)], [Fraction(1), Fraction(1, 2), Fraction(1, 2)]])
    with pytest.raises(ValueError):
        fold_even_moments([])
    with pytest.raises(ValueError):
        fold_even_moments([[]])


def test_integer_moment_map_rejects_empty_input():
    with pytest.raises(ValueError):
        integer_moment_map([])


rational = st.fractions(min_value=Fraction(1, 30), max_value=1, max_denominator=30)
scale_rational = st.fractions(min_value=Fraction(1, 10), max_value=5, max_denominator=10)


@settings(max_examples=60, deadline=None)
@given(
    pairs=st.lists(st.tuples(scale_rational, rational), min_size=1, max_size=3),
    k=st.integers(min_value=1, max_value=3),
)
def test_engine_matches_convolution_oracle(pairs, k):
    s = spec_of(pairs)
    assert sum_moments(s, k)[k] == convolve(s).moment(2 * k)


@settings(max_examples=40, deadline=None)
@given(
    pairs=st.lists(st.tuples(scale_rational, rational), min_size=2, max_size=4),
    k=st.integers(min_value=1, max_value=3),
    seed=st.randoms(use_true_random=False),
)
def test_permutation_invariance(pairs, k, seed):
    shuffled = list(pairs)
    seed.shuffle(shuffled)
    assert sum_moments(spec_of(pairs), k) == sum_moments(spec_of(shuffled), k)


@settings(max_examples=40, deadline=None)
@given(pairs=st.lists(st.tuples(scale_rational, rational), min_size=1, max_size=3))
def test_convolve_symmetry(pairs):
    d = convolve(spec_of(pairs))
    negated = tuple(sorted((-v, p) for v, p in d.atoms))
    assert negated == d.atoms
    assert d.moment(1) == 0
    assert d.moment(3) == 0
    assert d.moment(5) == 0


def expand_even_moment(tables, k):
    """E (sum)^(2k) by the full multinomial sum over compositions of k."""
    total = Fraction(0)
    for comp, coeff in moment_coefficients(k, len(tables)):
        term = Fraction(coeff)
        for table, part in zip(tables, comp):
            if part:
                term *= table[part]
        total += term
    return total


table_entry = st.one_of(st.fractions(min_value=-5, max_value=5, max_denominator=12), st.integers(-5, 5))


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(min_value=0, max_value=4),
    tables=st.lists(st.lists(table_entry, min_size=5, max_size=5), min_size=1, max_size=6),
)
def test_fold_matches_multinomial_expansion(k, tables):
    folded = fold_even_moments([t[: k + 1] for t in tables])
    assert len(folded) == k + 1
    assert folded[0] == 1
    for m in range(1, k + 1):
        assert folded[m] == expand_even_moment(tables, m)


@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(min_value=1, max_value=4),
    tables=st.lists(st.lists(table_entry, min_size=5, max_size=5), min_size=1, max_size=4),
    zeroth=st.lists(table_entry, min_size=4, max_size=4),
)
def test_from_tables_ignores_zeroth_entry(k, tables, zeroth):
    tables = [t[: k + 1] for t in tables]
    mangled = [[z] + t[1:] for z, t in zip(zeroth, tables)]
    assert fold_even_moments(mangled) == fold_even_moments(tables)


def test_even_cumulants_frozen():
    # Rademacher (scale 1, mass 1): kappa_2 = 1, kappa_4 = 1 - 3 = -2, kappa_6 = 16
    assert even_cumulants([1, 1, 1, 1]) == [0, 1, -2, 16]
    # a centred Gaussian table (1, 3, 15) has kappa_2 alone
    assert even_cumulants([1, 1, 3, 15]) == [0, 1, 0, 0]
    # the order is the table's: k = 1 keeps kappa_2 alone, and an empty table has none
    assert even_cumulants([1, 1]) == [0, 1]
    with pytest.raises(ValueError):
        even_cumulants([])


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(min_value=1, max_value=6),
    tables=st.lists(st.lists(table_entry, min_size=7, max_size=7), min_size=1, max_size=5),
    coeffs=st.lists(st.integers(min_value=-4, max_value=4), min_size=5, max_size=5),
)
def test_cumulants_add_to_the_fold(k, tables, coeffs):
    def q_scaled_moments(kappa):
        # the integer map on the cumulants' own denominators: (Q, [Q_m E g^(2m)])
        kappa = [Fraction(x) for x in kappa]
        q, to_moments = integer_moment_map([x.denominator for x in kappa])
        return q, to_moments([x.numerator for x in kappa])

    def q_times(q, table):
        return [q_m * e for q_m, e in zip(q, table)]

    tables = [[Fraction(1)] + t[1 : k + 1] for t in tables]
    kappas = [even_cumulants(t) for t in tables]
    for t, kappa in zip(tables, kappas):
        q, moments = q_scaled_moments(kappa)
        assert moments == q_times(q, fold_even_moments([t]))
    # independent terms add cumulants, and c g has kappa_2l(c g) = c^(2l) kappa_2l(g)
    summed = [sum(c ** (2 * l) * kappa[l] for c, kappa in zip(coeffs, kappas)) for l in range(k + 1)]
    scaled = [[c ** (2 * l) * t[l] for l in range(k + 1)] for c, t in zip(coeffs, tables)]
    q, moments = q_scaled_moments(summed)
    assert moments == q_times(q, fold_even_moments(scaled))


# a centred Gaussian table v^l (2l-1)!! has kappa_2 = v and no higher cumulant
gaussian_table = st.fractions(min_value=Fraction(1, 12), max_value=5, max_denominator=12).map(
    lambda v: [Fraction(1)] + [math.prod(range(1, 2 * l, 2)) * v ** l for l in range(1, 7)]
)


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(min_value=1, max_value=6),
    tables=st.lists(
        st.one_of(st.lists(table_entry, min_size=7, max_size=7), gaussian_table), min_size=1, max_size=5
    ),
    coeffs=st.lists(st.integers(min_value=-4, max_value=4), min_size=5, max_size=5),
)
@example(k=3, tables=[[1, 1, 3, 15, 105, 945, 10395]], coeffs=[2, 0, 0, 0, 0])
def test_integer_moment_map_is_q_times_the_fold(k, tables, coeffs):
    # summed cumulants over one denominator per order, as isometry_check holds them
    tables = [[Fraction(1)] + list(map(Fraction, t[1 : k + 1])) for t in tables]
    kappas = [even_cumulants(t) for t in tables]
    dens = [math.lcm(*(kappa[l].denominator for kappa in kappas)) for l in range(k + 1)]
    nums = [sum(c ** (2 * l) * kappa[l] * dens[l] for c, kappa in zip(coeffs, kappas)) for l in range(k + 1)]
    assert all(n.denominator == 1 for n in map(Fraction, nums))
    q, to_moments = integer_moment_map(dens)
    scaled = [[c ** (2 * l) * t[l] for l in range(k + 1)] for c, t in zip(coeffs, tables)]
    moments = to_moments([int(n) for n in nums])
    assert all(type(x) is int for x in q + moments)
    assert moments == [q_m * e for q_m, e in zip(q, fold_even_moments(scaled))]
