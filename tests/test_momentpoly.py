"""Polynomial layer: C-table, symmetric functions, H/F, derivatives, rank."""

import dataclasses
import inspect
import math
import random
from fractions import Fraction
from itertools import combinations

import mpmath
import pytest
from mpmath import workprec

from lp_isoforge import momentpoly, solver
from lp_isoforge.errors import DegenerateInputError, NoSolutionError
from lp_isoforge.moments import (
    IndependentSumSpec,
    SymmetricAtomVariable,
    even_multinomial,
    fold_even_moments,
    moment_coefficients,
    term_tables,
)
from lp_isoforge.momentpoly import (
    MuVector,
    cm_alpha_table,
    grad_table,
    h_vector,
    jacobian_F,
    mass_polynomial,
    moment_vector_F,
    strictly_decreasing,
    vandermonde_check,
)
from lp_isoforge.numeric import count_real_roots, to_mpf
from lp_isoforge.solver import ball_params, closed_form_k2, default_base_point, nu_schedule_value, target_h

import momentpoly_oracle as oracle


def rand_mu(rng, k, max_den=40):
    return tuple(
        Fraction(rng.randint(1, max_den), max_den + rng.randint(0, max_den))
        for _ in range(k)
    )


def h_spec(mu):
    return IndependentSumSpec([SymmetricAtomVariable(1, m) for m in mu])


def sum_moments(spec, k):
    """[1, E S^2, ..., E S^(2k)] by the even-moment fold."""
    return fold_even_moments(term_tables(spec, k))


def f_spec(mu, j, nu):
    terms = [SymmetricAtomVariable(1, m) for m in mu]
    terms.append(SymmetricAtomVariable(j, nu))
    return IndependentSumSpec(terms)


def test_cm_table_frozen():
    t2 = cm_alpha_table(2)
    assert t2[1][1] == 1
    assert t2[2][1] == 1
    assert t2[2][2] == 6
    t3 = cm_alpha_table(3)
    # 6!/(2!2!2!) = 90
    assert t3[3][3] == 90
    # the whole triangle is a plain tuple, alpha = 0 column included
    assert t2 == ((1,), (0, 1), (0, 1, 6))
    assert t3 == ((1,), (0, 1), (0, 1, 6), (0, 1, 30, 90))
    for k in range(1, 7):
        assert cm_alpha_table(k)[1][1] == 1
        assert [row[0] for row in cm_alpha_table(k)] == [1] + [0] * k
    with pytest.raises(IndexError):
        t2[2][3]
    with pytest.raises(IndexError):
        t2[3][1]


def test_cm_table_matches_the_multinomial_oracle():
    # the table's recurrence against the definition: (2m)!/prod (2n_i)!
    # summed over compositions of m into alpha positive parts, each one a
    # composition of m - alpha into nonnegative parts shifted up by one
    # (alpha = 0 has only the empty composition, of m = 0)
    for k in range(1, 11):
        assert cm_alpha_table(k) == tuple(
            (int(m == 0),)
            + tuple(
                sum(even_multinomial(tuple(c + 1 for c in comp)) for comp, _ in moment_coefficients(m - alpha, alpha))
                for alpha in range(1, m + 1)
            )
            for m in range(k + 1)
        )


def diagonal_product(k):
    """prod_{m=1}^{k} C_{m,m}; the constant in the determinant identity."""
    C = cm_alpha_table(k)
    return math.prod(C[m][m] for m in range(1, k + 1))


def test_diagonal_product():
    assert diagonal_product(2) == 6
    assert diagonal_product(3) == 540


def test_order_comes_from_the_inputs():
    # k is the number of masses (of targets for mass_polynomial); no call names it
    for k in range(1, 9):
        mu = tuple(Fraction(k + 1 - i, k + 1) for i in range(1, k + 1))
        nu = Fraction(1, 100)
        target = moment_vector_F(2, mu, nu)
        assert len(h_vector(mu)) == len(grad_table(mu)) == k + 1
        assert len(target) == jacobian_F(2, mu, nu).k == k
        # the Jacobian holds its values only, not the j and nu it was given
        assert [f.name for f in dataclasses.fields(jacobian_F(2, mu, nu))] == ["matrix", "nu_column"]
        assert len(mass_polynomial(2, nu, target)) == k + 1
        if k >= 2:
            assert abs(vandermonde_check(mu).ratio) == diagonal_product(k)


def test_no_public_function_takes_a_table():
    for module in (momentpoly, solver):
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isfunction(obj):
                assert "table" not in inspect.signature(obj).parameters, f"{module.__name__}.{name}"
    assert "precision" not in inspect.signature(solver.closed_form_k2).parameters


def test_mu_vector_validation():
    v = MuVector((Fraction(2, 3), Fraction(1, 3)))
    assert strictly_decreasing(v.values)
    assert not strictly_decreasing(MuVector((Fraction(1, 3), Fraction(1, 3))).values)
    with pytest.raises(DegenerateInputError):
        MuVector(())
    with pytest.raises(DegenerateInputError):
        MuVector((Fraction(0),))
    with pytest.raises(DegenerateInputError):
        MuVector((Fraction(3, 2),))


def direct_elem_sym(values, alpha):
    """e_alpha by summing over all alpha-subsets."""
    return sum((math.prod(sub, start=Fraction(1)) for sub in combinations(values, alpha)), Fraction(0))


def test_elem_sym_frozen():
    # H = [1, e_1, C_{2,1} e_1 + C_{2,2} e_2, C_{3,1} e_1 + C_{3,2} e_2 + C_{3,3} e_3]
    mu = (Fraction(2, 3), Fraction(1, 3))
    e1, e2 = 1, Fraction(2, 9)
    assert h_vector(mu) == [1, e1, e1 + 6 * e2]
    # a zero third mass leaves e_1, e_2 and makes e_3 = 0
    assert h_vector(mu + (Fraction(0),))[3] == e1 + 30 * e2


def test_elem_sym_excl_frozen():
    # dH_m/dmu_beta = sum_alpha C_{m,alpha} P_{beta,alpha-1}, P the e's without mu_beta
    mu = (Fraction(2, 3), Fraction(1, 3))
    assert grad_table(mu)[2][0] == 1 + 6 * Fraction(1, 3)
    mu3 = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 4))
    assert grad_table(mu3)[3][1] == 1 + 30 * Fraction(3, 4) + 90 * Fraction(1, 8)


def test_elem_sym_excl_matches_direct_subsets():
    rng = random.Random(11)
    for k in (2, 3, 4, 5):
        t = cm_alpha_table(k)
        mu = rand_mu(rng, k)
        grad = grad_table(mu)
        assert grad[0] == [0] * k
        for beta in range(1, k + 1):
            rest = [mu[i] for i in range(k) if i != beta - 1]
            for m in range(1, k + 1):
                direct = sum(t[m][a] * direct_elem_sym(rest, a - 1) for a in range(1, m + 1))
                assert grad[m][beta - 1] == direct


def test_eval_h_frozen():
    mu = (Fraction(2, 3), Fraction(1, 3))
    assert h_vector(mu) == [1, 1, Fraction(7, 3)]
    assert h_vector(MuVector(mu)) == h_vector(mu)
    assert h_vector((Fraction(1, 2), Fraction(1, 3)))[2] == Fraction(11, 6)


def test_eval_h_matches_moments():
    rng = random.Random(7)
    for k in range(2, 6):
        for _ in range(5):
            mu = rand_mu(rng, k)
            assert h_vector(mu) == sum_moments(h_spec(mu), k)


def test_eval_f_frozen():
    mu = (Fraction(2, 3), Fraction(1, 3))
    assert moment_vector_F(3, mu, Fraction(0)) == tuple(h_vector(mu)[1:])
    assert moment_vector_F(2, (Fraction(2, 5),), Fraction(1, 7)) == (Fraction(2, 5) + 4 * Fraction(1, 7),)
    # brute-force E(h + g')^4 with g' mass 1/10 at scale 1
    assert moment_vector_F(1, mu, Fraction(1, 10))[1] == Fraction(91, 30)
    # nu outside [0, 1] and j < 1 are rejected
    for j, nu in ((1, Fraction(11, 10)), (1, Fraction(-1, 10)), (0, Fraction(1, 10))):
        with pytest.raises(ValueError):
            moment_vector_F(j, mu, nu)


def test_eval_f_matches_moments():
    rng = random.Random(13)
    for k in (2, 3, 4):
        for _ in range(4):
            mu = rand_mu(rng, k)
            j = rng.randint(1, 5)
            nu = Fraction(rng.randint(1, 30), 1000)
            assert moment_vector_F(j, mu, nu) == tuple(sum_moments(f_spec(mu, j, nu), k)[1:])


def test_grad_h_frozen():
    mu = (Fraction(2, 3), Fraction(1, 3))
    grad = grad_table(mu)
    assert grad[1] == [1, 1]
    # d/d mu_1 of (mu_1 + mu_2 + 6 mu_1 mu_2)
    assert grad[2][0] == 3


def finite_diff(fn, x, h):
    return (fn(x + h) - fn(x - h)) / (2 * h)


def test_grad_h_finite_differences():
    # an exact rational step: the difference quotient is exact (polynomials
    # at rational points), and only the final comparison is rounded
    rng = random.Random(17)
    step = Fraction(1, 2 ** 64)
    with workprec(256):
        for k in (2, 3, 4):
            for _ in range(3):
                mu = list(rand_mu(rng, k))
                for beta in range(1, k + 1):
                    m = rng.randint(1, k)

                    def h_of(x, _beta=beta, _m=m):
                        pt = list(mu)
                        pt[_beta - 1] = x
                        return h_vector(pt)[_m]

                    want = finite_diff(h_of, mu[beta - 1], step)
                    got = grad_table(mu)[m][beta - 1]
                    assert abs(to_mpf(got - want)) < mpmath.mpf(10) ** -20


def test_jacobian_frozen():
    mu = (Fraction(2, 3), Fraction(1, 3))
    jac = jacobian_F(1, mu, Fraction(0))
    assert jac.matrix == ((Fraction(1), Fraction(1)), (Fraction(3), Fraction(5)))
    # nu = 0 reduces every row to the gradient of H_m
    grad = grad_table(mu)
    for m in (1, 2):
        assert list(jac.matrix[m - 1]) == grad[m]


def test_jacobian_nu_column_finite_differences():
    # an exact rational step, as in test_grad_h_finite_differences
    rng = random.Random(19)
    step = Fraction(1, 2 ** 64)
    with workprec(256):
        for k in (2, 3):
            mu = rand_mu(rng, k)
            j = rng.randint(1, 4)
            nu0 = Fraction(1, 50)
            jac = jacobian_F(j, mu, nu0)
            for m in range(1, k + 1):
                def f_of(x, _m=m):
                    return moment_vector_F(j, mu, x)[_m - 1]

                want = finite_diff(f_of, nu0, step)
                assert abs(to_mpf(jac.nu_column[m - 1] - want)) < mpmath.mpf(10) ** -20


def _oracle_case(rng):
    """Masses of every kind the integer rows meet: zero, one, dyadic, non-dyadic."""
    def mass():
        kind = rng.randrange(4)
        if kind == 0:
            return Fraction(rng.randint(0, 1))
        if kind == 1:
            return Fraction(rng.randint(1, 2 ** 70), 2 ** rng.randint(60, 80))
        return Fraction(rng.randint(1, 10 ** 9), rng.randint(1, 10 ** 9))

    k = rng.randint(1, 9)
    nu = rng.choice([Fraction(0), Fraction(1), Fraction(rng.randint(1, 99), rng.randint(100, 999))])
    j = rng.choice([1, rng.randint(2, 100), rng.randint(1, 10 ** 6), 10 ** 6])
    return j, tuple(mass() for _ in range(k)), nu


def test_integer_rows_equal_the_generic_oracle():
    # one Fraction per entry from integer rows, against the scalar-generic
    # formulas term by term on Fractions: equal exactly
    rng = random.Random(36)
    ks = set()
    for _ in range(120):
        j, mu, nu = _oracle_case(rng)
        ks.add(len(mu))
        assert h_vector(mu) == oracle.h_vector(mu)
        assert grad_table(mu) == oracle.grad_table(mu)
        F = moment_vector_F(j, mu, nu)
        assert F == oracle.moment_vector_F(j, mu, nu)
        jac, want = jacobian_F(j, mu, nu), oracle.jacobian_F(j, mu, nu)
        assert (jac.matrix, jac.nu_column) == (want.matrix, want.nu_column)
        assert all(type(v) is Fraction for v in F + jac.nu_column + sum(jac.matrix, ()))
        want_P = [Fraction(1)]
        for v in mu:
            want_P = [a - v * b for a, b in zip(want_P + [0], [0] + want_P)]
        assert mass_polynomial(j, nu, F) == tuple(want_P)
    assert ks == set(range(1, 10))


def test_vandermonde_frozen():
    chk = vandermonde_check((Fraction(2, 3), Fraction(1, 3)))
    assert chk.det_jacobian == 2
    assert chk.det_vandermonde == Fraction(-1, 3)
    assert chk.ratio == -6
    assert chk.expected_magnitude == 6
    with pytest.raises(DegenerateInputError):
        vandermonde_check((Fraction(1, 2), Fraction(1, 2)))


def test_vandermonde_constant_magnitude():
    rng = random.Random(23)
    for k in (2, 3, 4):
        expect = diagonal_product(k)
        for _ in range(10):
            vals = set()
            while len(vals) < k:
                vals.add(Fraction(rng.randint(1, 999), 1000))
            mu = tuple(sorted(vals, reverse=True))
            chk = vandermonde_check(mu)
            assert abs(chk.ratio) == expect


def _horner(coeffs, x):
    value = Fraction(0)
    for c in coeffs:
        value = value * x + c
    return value


def test_mass_polynomial_recovers_rational_masses():
    # targets read off a known rational mass vector: forward substitution
    # must return exactly prod (x - mu_i)
    rng = random.Random(41)
    for _ in range(60):
        k = rng.randint(1, 5)
        mu = rand_mu(rng, k)
        nu = Fraction(rng.randint(0, 30), 30)
        j = rng.randint(1, 6)
        want = [Fraction(1)]
        for m in mu:
            want = [a - m * b for a, b in zip(want + [0], [0] + want)]
        target = moment_vector_F(j, mu, nu)
        assert mass_polynomial(j, nu, target) == tuple(want)


def test_mass_polynomial_validation():
    for j, nu, target in ((0, 0, (1, 1)), (1, 2, (1, 1)), (1, Fraction(-1, 2), (1, 1))):
        with pytest.raises(ValueError):
            mass_polynomial(j, nu, target)


def test_mass_polynomial_k2_matches_closed_form():
    # the quadratic formula is the independent oracle: it must fail exactly
    # where P_j has fewer than 2 distinct roots in the open interval (0, 1)
    mu_bar = default_base_point(2)
    ball = ball_params(mu_bar)
    target = target_h(mu_bar)
    tol = mpmath.mpf(2) ** -240
    outcomes = set()
    for j in range(1, 21):
        for fraction in (Fraction(51, 100), Fraction(3, 4), Fraction(99, 100)):
            nu = nu_schedule_value(ball, j, fraction)
            P = mass_polynomial(j, nu, target)
            inside = count_real_roots(P, 0, 1) - (_horner(P, 1) == 0)
            try:
                mu = closed_form_k2(j, nu, target)
            except NoSolutionError:
                assert inside < 2, (j, fraction)
                outcomes.add("infeasible")
                continue
            assert inside == 2, (j, fraction)
            outcomes.add("solved")
            hi, lo = mu.values
            with workprec(256):
                assert abs(to_mpf(-P[1]) - (hi + lo)) < tol
                assert abs(to_mpf(P[2]) - hi * lo) < tol
    assert outcomes == {"solved", "infeasible"}


def test_mass_polynomial_brackets_p6_certificate_masses(cert_p6):
    # each stored Newton mass sits next to a simple root of P_j: P_j changes
    # sign across it and (x-, x+] holds exactly one root.  The window is
    # +-64 ulp, not +-1: the Newton masses lie 0.6 to 48.7 ulp from the
    # exact roots (measured on this certificate); the residual tolerance
    # 2^-128 does not ask for more
    for e in cert_p6.entries:
        P = mass_polynomial(e.j, e.nu, cert_p6.target)
        for x in e.mu:
            _, _, exp, bc = to_mpf(x, cert_p6.precision_bits)._mpf_
            window = 64 * Fraction(2) ** (exp + bc - cert_p6.precision_bits)
            assert _horner(P, x - window) * _horner(P, x + window) < 0
            assert count_real_roots(P, x - window, x + window) == 1
