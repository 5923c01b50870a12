"""Newton construction against the k = 2 closed form and its own invariants."""

import dataclasses
import math
import random
import time
from fractions import Fraction
from itertools import product

import mpmath
import pytest
from mpmath import workprec
from mpmath.libmp import (
    from_man_exp,
    from_rational,
    mpf_add,
    mpf_div,
    mpf_gt,
    mpf_lt,
    mpf_mul,
    mpf_mul_int,
    mpf_sub,
    round_nearest,
)

from lp_isoforge import numeric, solver
from lp_isoforge.errors import (
    DegenerateInputError,
    LpIsoforgeError,
    NoSolutionError,
    SingularJacobianError,
)
from lp_isoforge.momentpoly import (
    MuVector,
    grad_table,
    mass_polynomial,
    moment_vector_F,
    strictly_decreasing,
)
from lp_isoforge.numeric import count_real_roots, det_exact, mpf_to_fraction, to_mpf
from lp_isoforge.solver import (
    DEFAULT_NU_FRACTION,
    HValues,
    ball_params,
    closed_form_k2,
    construct_pair,
    default_base_point,
    max_abs_residual,
    nu_schedule_value,
    solve_mu,
    target_h,
)

import momentpoly_oracle as oracle

MU2 = default_base_point(2)
TARGET2 = target_h(MU2)


def _pair(x):
    """The (m, e) pair of an mpf: its value m * 2^e."""
    sign, man, exp, _ = x._mpf_
    return -man if sign else man, exp


def _tup(x):
    """The libmp tuple of an (m, e) pair, exact: how results meet the mpf oracle."""
    return from_man_exp(*x)


def _operands(rng, prec):
    """Pairs with |m| < 2^prec: zeros, both signs, short and full mantissas,
    and exponents near each other or more than 2 prec apart."""
    out = [(0, 0), (0, 17), (1, 0), (-1, -3)]
    for _ in range(36):
        bits = rng.choice([1, 2, 40, prec // 2, prec - 1, prec])
        m = rng.getrandbits(bits) | 1 << (bits - 1)
        far = rng.choice([0, 0, -3 * prec, 3 * prec])
        out.append((rng.choice([-1, 1]) * m, rng.randint(-4, 4) - bits + far))
    for m, e in out[4:12]:
        out.append((-m, e))  # exact cancellation against its negative
        if abs(m).bit_length() + 3 <= prec:
            out.append((m << 3, e - 3))  # the same value as another pair
    return out


def _pair_cases(prec):
    """(x, y) operand pairs with the rounding edge cases among them."""
    rng = random.Random(prec)
    ops = _operands(rng, prec)
    cases = [(x, y) for x in ops for y in ops]
    half = 1 << (prec - 1)
    for r in (6, 7):  # the exact sum lies halfway: kept bits even, then odd
        cases.append(((half + r, 1), (1, 0)))
        cases.append(((-(half + r), 1), (-1, 0)))
    cases.append((((1 << prec) - 1, 1), (1, 0)))  # rounding up carries to 2^prec
    cases.append((((1 << prec) - 1, 0), ((1 << prec) - 1, 0)))
    for gap in (prec, prec + 1, prec + 2):  # a far term near half an ulp, at a power of two
        for m in ((1 << prec) - 1, half + 1, -half - 1, 1 - (1 << prec)):
            cases.append(((1, gap + prec - 1), (m, 0)))
    return cases


def _rationals(prec):
    """Non-dyadic rationals of both signs and ties of both parities at prec bits."""
    rng = random.Random(prec + 1)
    out = [Fraction(0), Fraction(1, 3), Fraction(-2, 7)]
    for _ in range(60):
        den = rng.getrandbits(rng.choice([2, 30, prec])) | 1
        out.append(Fraction(rng.choice([-1, 1]) * rng.getrandbits(rng.choice([1, prec, 3 * prec])), den))
    for r in (0, 1):  # 2^(prec-1) + r + 1/2: ties whose kept bits are even, then odd
        out.append(Fraction((1 << prec) + 2 * r + 1, 2))
    out.append(Fraction((1 << (prec + 1)) - 1, 2))  # a tie that carries to 2^prec
    out.append(Fraction((1 << (prec + 2)) - 1))  # above half, carries too
    return out


@pytest.mark.parametrize("prec", [128, 256, 320, 512])
def test_pair_arithmetic_rounds_as_libmp(prec):
    # each operation of the Newton loop's number format against its libmp
    # counterpart rounded to nearest, compared as exact libmp tuples
    rnd = round_nearest
    results = []
    for x, y in _pair_cases(prec):
        tx, ty = _tup(x), _tup(y)
        for got, want in (
            (solver._add(x, y, prec), mpf_add(tx, ty, prec, rnd)),
            (solver._sub(x, y, prec), mpf_sub(tx, ty, prec, rnd)),
            (solver._mul(x, y, prec), mpf_mul(tx, ty, prec, rnd)),
        ):
            assert _tup(got) == want, (x, y)
            results.append(got)
        if y[0]:
            got = solver._div(x, y, prec)
            assert _tup(got) == mpf_div(tx, ty, prec, rnd), (x, y)
            results.append(got)
        assert solver._lt(x, y) == mpf_lt(tx, ty), (x, y)
        assert solver._lt(y, x) == mpf_gt(tx, ty), (x, y)
    rng = random.Random(prec + 2)
    ints = [0, 1, -1, 3, 924, -(1 << prec) - 1] + [rng.getrandbits(2 * prec) for _ in range(5)]
    for x in _operands(rng, prec):
        for n in ints:
            got = solver._mul_int(x, n, prec)
            assert _tup(got) == mpf_mul_int(_tup(x), n, prec, rnd), (x, n)
            results.append(got)
    for q in _rationals(prec):
        got = solver._from_fraction(q, prec)
        assert _tup(got) == from_rational(q.numerator, q.denominator, prec, rnd), q
        assert solver._to_fraction(got) == mpf_to_fraction(to_mpf(q, prec))
        results.append(got)
    assert all(abs(m) < 1 << prec for m, _ in results)


@pytest.mark.parametrize("prec", [128, 256, 512])
def test_raw_system_rounds_as_mpf_arithmetic(prec):
    # the solver's raw F rows and Jacobian entries against the tests' generic
    # copy of moment_vector_F and jacobian_F run on mpf inside workprec, bit
    # for bit (momentpoly itself takes exact inputs only)
    rng = random.Random(prec)
    for k in range(2, 9):
        for j in sorted({1, 60, *rng.sample(range(2, 60), 3)}):
            with workprec(prec):
                mu = [to_mpf(Fraction(rng.randint(1, 2 ** prec), 2 ** prec)) for _ in range(k)]
                nu = to_mpf(Fraction(rng.randint(0, 10 ** 6), 10 ** rng.randint(6, 12)))
                want_f = [v._mpf_ for v in oracle.moment_vector_F(j, mu, nu)]
                want_jac = [[to_mpf(v)._mpf_ for v in row] for row in oracle.jacobian_F(j, mu, nu).matrix]
            system = solver._RawSystem(j, _pair(nu), k, prec)
            raw_mu = [_pair(v) for v in mu]
            e = system.elem_sym(raw_mu)
            assert [_tup(v) for v in system.moment_vector(e)] == want_f
            assert [[_tup(v) for v in row] for row in system.jacobian(raw_mu, e)] == want_jac


def _raw(rows):
    return [[_pair(to_mpf(v, 256)) for v in row] for row in rows]


def test_raw_elimination_det_matches_exact():
    rng = random.Random(3)
    for _ in range(10):
        m = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3)]
             for _ in range(3)]
        want = det_exact(m)
        got = mpmath.mp.make_mpf(_tup(solver._elimination(_raw(m), None, 256)[0]))
        with workprec(256):
            assert abs(got - to_mpf(want)) <= abs(to_mpf(want)) * mpmath.mpf(2) ** -200 + mpmath.mpf(2) ** -240


def test_raw_elimination_rejects_singular():
    with pytest.raises(SingularJacobianError):
        solver._elimination(_raw([[1, 2], [2, 4]]), None, 256)


def test_raw_elimination_solves():
    _, x = solver._elimination(_raw([[1, 1], [3, 5]]), _raw([[3, 11]])[0], 256)
    with workprec(256):
        assert abs(mpmath.mp.make_mpf(_tup(x[0])) - 2) < mpmath.mpf(2) ** -250
        assert abs(mpmath.mp.make_mpf(_tup(x[1])) - 1) < mpmath.mpf(2) ** -250


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
                    solver._elimination([[_pair(v) for v in row] for row in rows], [_pair(v) for v in rhs], prec)
                continue
        det, x = solver._elimination([[_pair(v) for v in row] for row in rows], [_pair(v) for v in rhs], prec)
        assert _tup(det) == want[0]._mpf_
        assert [_tup(v) for v in x] == [v._mpf_ for v in want[1]]


def test_max_abs_residual():
    assert max_abs_residual([]) == max_abs_residual([(), ()]) == 0
    assert max_abs_residual([(Fraction(1, 3), Fraction(-1, 2)), (Fraction(1, 4),)]) == Fraction(1, 2)


def test_worst_residual_reads_the_stored_rows(cert_p4):
    assert cert_p4.worst_residual == max(abs(r) for e in cert_p4.entries for r in e.residuals) > 0
    assert dataclasses.replace(cert_p4, entries=()).worst_residual == 0


def test_default_base_point():
    assert MU2.values == (Fraction(2, 3), Fraction(1, 3))
    assert default_base_point(3).values == (
        Fraction(3, 4), Fraction(2, 4), Fraction(1, 4),
    )
    for k in range(2, 9):
        bp = default_base_point(k)
        assert strictly_decreasing(bp.values)
        assert bp.values[0] < 1
    with pytest.raises(DegenerateInputError):
        default_base_point(1)


def test_target_values():
    assert TARGET2.values == (Fraction(1), Fraction(7, 3))
    t3 = target_h(default_base_point(3))
    assert t3.values[0] == Fraction(3, 2)


def test_hvalues_validation():
    with pytest.raises(DegenerateInputError):
        HValues(())
    with pytest.raises(DegenerateInputError):
        HValues((Fraction(1), Fraction(0)))


def test_ball_params_frozen_k2():
    ball = ball_params(MU2)
    # half-min-gap bound is 1/6; the fixed 3/4 safety factor gives 1/8
    assert ball.eps_bar == Fraction(1, 8)
    assert ball.eps == ball.eps_bar
    assert ball.M == 6
    assert ball.eps0 == Fraction(1, 48)
    assert ball.delta == Fraction(1, 48)


def test_ball_params_frozen_k3():
    ball = ball_params(default_base_point(3))
    assert ball.eps_bar == Fraction(3, 32)
    assert ball.M == Fraction(1155, 8)
    assert ball.delta == Fraction(1, 3080)


def test_ball_params_frozen_k4_to_k6():
    # recorded by maximizing over all 3^k points of the box grid {-1, 0, 1} * eps_bar
    frozen = {
        4: (Fraction(202909, 40), Fraction(1, 202909)),
        5: (Fraction(33877815, 128), Fraction(2, 33877815)),
        6: (Fraction(1710644355453, 87808), Fraction(1568, 2851073925755)),
    }
    for k, (M, delta) in frozen.items():
        ball = ball_params(default_base_point(k))
        assert (ball.M, ball.delta) == (M, delta)


def test_ball_params_matches_lattice_max():
    # M is read at the top corner; the maximum over a 4-point-per-axis
    # rational lattice of the whole box (both faces included) must equal it
    for k in (2, 3, 4):
        mu_bar = default_base_point(k)
        ball = ball_params(mu_bar)
        axes = [
            [v - ball.eps_bar + ball.eps_bar * Fraction(2 * t, 3) for t in range(4)]
            for v in mu_bar.values
        ]
        best = Fraction(0)
        for point in product(*axes):
            grads = grad_table(point)
            for m in range(2, k + 1):
                for l in range(1, m):
                    for beta in range(1, k + 1):
                        best = max(best, math.comb(2 * m, 2 * l) * grads[m - l][beta - 1])
        assert best == ball.M


def test_ball_params_lower_bound_and_validation():
    for k in (2, 3, 4):
        ball = ball_params(default_base_point(k))
        assert ball.M >= math.comb(2 * k, 2)
        assert ball.delta > 0


def test_ball_params_needs_two_masses():
    # k = 1: k - 1 is a divisor of eps0
    with pytest.raises(DegenerateInputError):
        ball_params(MuVector((Fraction(1, 2),)))


def test_nu_schedule():
    ball = ball_params(MU2)
    assert nu_schedule_value(ball, 1) == Fraction(3, 4) * Fraction(1, 48)
    assert nu_schedule_value(ball, 10) == Fraction(1, 6400)
    for bad in (Fraction(1, 2), Fraction(1), Fraction(2)):
        with pytest.raises(ValueError):
            nu_schedule_value(ball, 1, nu_fraction=bad)
    with pytest.raises(ValueError):
        nu_schedule_value(ball, 0)


def test_solve_mu_zero_nu_is_free():
    res = solve_mu(1, Fraction(0), TARGET2, MU2, 256)
    assert res.iterations == 0
    residuals = [f - t for f, t in zip(moment_vector_F(1, res.mu.values, Fraction(0)), TARGET2.values)]
    assert max(abs(r) for r in residuals) < Fraction(1, 2 ** 128)
    for got, want in zip(res.mu.values, MU2.values):
        assert got == mpf_to_fraction(to_mpf(want, 256))


def test_closed_form_recovers_base_point():
    mu = closed_form_k2(1, Fraction(0), TARGET2)
    assert abs(mu.values[0] - Fraction(2, 3)) < Fraction(1, 2 ** 250)
    assert abs(mu.values[1] - Fraction(1, 3)) < Fraction(1, 2 ** 250)


def test_a_mass_of_exactly_one_is_in_the_domain():
    # (1, 1/2) solves the k = 2 system for H = (3/2, 9/2) at nu = 0; masses
    # lie in (0, 1], so the closed form and Newton both return it
    target = HValues((Fraction(3, 2), Fraction(9, 2)))
    assert closed_form_k2(1, Fraction(0), target).values == (1, Fraction(1, 2))
    res = solve_mu(1, Fraction(0), target, (Fraction(1), Fraction(1, 2)))
    assert (res.mu.values, res.iterations) == ((1, Fraction(1, 2)), 0)


def test_closed_form_frozen_digits():
    # recomputed by hand: s = 0.99, q = 0.21232222, disc = 0.13081111,
    # sqrt(disc) = 0.36167819
    mu = closed_form_k2(1, Fraction(1, 100), TARGET2)
    assert abs(mu.values[0] - Fraction("0.675839")) < Fraction(1, 10 ** 6)
    assert abs(mu.values[1] - Fraction("0.314161")) < Fraction(1, 10 ** 6)


def test_solve_matches_closed_form_at_frozen_point():
    res = solve_mu(1, Fraction(1, 100), TARGET2, MU2, 256)
    mu = closed_form_k2(1, Fraction(1, 100), TARGET2)
    for a, b in zip(res.mu.values, mu.values):
        assert abs(a - b) < Fraction(1, 2 ** 128)


def test_residuals_survive_doubled_precision():
    res = solve_mu(3, Fraction(1, 500), TARGET2, MU2, 256)
    with workprec(512):
        for F, t in zip(moment_vector_F(3, res.mu.values, Fraction(1, 500)), TARGET2.values):
            assert abs(to_mpf(F - t)) < mpmath.mpf(2) ** (-128 + 4)


def test_closed_form_at_bracket_top():
    ball = ball_params(MU2)
    mu = closed_form_k2(1, ball.delta, TARGET2)
    assert 0 < mu.values[1] < mu.values[0] < 1


def test_closed_form_rejects_infeasible():
    # at j = 10 the pinned mass forces F_2 > H_2(mu_bar): no solution in (0,1)
    ball = ball_params(MU2)
    pinned = nu_schedule_value(ball, 10)
    with pytest.raises(NoSolutionError):
        closed_form_k2(10, pinned, TARGET2)
    # the bottom edge of the bracket is still feasible at j = 10
    mu = closed_form_k2(10, Fraction(1, 9600), TARGET2)
    assert abs(mu.values[0] - Fraction("0.94732")) < Fraction(1, 10 ** 4)
    assert abs(mu.values[1] - Fraction("0.042262")) < Fraction(1, 10 ** 4)


def test_solver_agrees_solution_is_gone():
    ball = ball_params(MU2)
    pinned = nu_schedule_value(ball, 10)
    with pytest.raises(LpIsoforgeError):
        solve_mu(10, pinned, TARGET2, MU2, 256)


def test_continuity_in_nu():
    ball = ball_params(MU2)
    prev_gap = None
    for t in range(1, 11):
        nu = ball.delta / 2 ** t
        res = solve_mu(1, nu, TARGET2, MU2, 256, ball=ball)
        gap = max(abs(v - w) for v, w in zip(res.mu.values, MU2.values))
        if prev_gap is not None:
            assert gap < prev_gap
        prev_gap = gap
    assert prev_gap < Fraction(1, 2 ** 12)


def test_construct_validation():
    # 6.0 is refused by the order check itself, before it reaches the base point
    for bad_p in (3, 5, 2, 0, 6.0):
        with pytest.raises(ValueError, match="p must be an even integer >= 4"):
            construct_pair(bad_p, 2)
    # a scale range past MAX_SCALE would write entries the reader refuses
    for bad_j_max in (0, 2.0, solver.MAX_SCALE + 1):
        with pytest.raises(ValueError, match="j_max must be an integer in"):
            construct_pair(6, bad_j_max)
    with pytest.raises(ValueError):
        construct_pair(6, 2, precision=64)


def test_certificate_p6_invariants(cert_p6):
    cert = cert_p6
    assert cert.p == 6 and cert.k == 3
    assert cert.complete
    assert len(cert.entries) == 20
    delta = cert.ball.delta
    prev_nu = None
    for e in cert.entries:
        lower = delta / 2 / Fraction(e.j) ** 4
        upper = delta / Fraction(e.j) ** 4
        assert lower < e.nu < upper
        assert all(a > b for a, b in zip(e.mu, e.mu[1:]))
        assert e.mu[-1] > delta
        # residuals are exact rationals re-evaluated from the stored dyadics
        for r in e.residuals:
            assert isinstance(r, Fraction)
            assert abs(r) < Fraction(1, 2 ** 128)
        assert e.jac_det != 0
        if prev_nu is not None:
            assert e.nu < prev_nu
        prev_nu = e.nu
    assert cert.entry(7).j == 7
    with pytest.raises(KeyError):
        cert.entry(99)


def test_certificate_p4_matches_closed_form(cert_p4):
    cert = cert_p4
    assert cert.complete
    for e in cert.entries:
        oracle = closed_form_k2(e.j, e.nu, cert.target)
        for a, b in zip(e.mu, oracle.values):
            assert abs(a - b) < Fraction(1, 2 ** 120)


def _ladder_spy(monkeypatch):
    """Record the scale of every continuation ladder construct_pair walks."""
    walked = []
    ladder = solver._continuation_solve

    def spy(j, *args):
        walked.append(j)
        return ladder(j, *args)

    monkeypatch.setattr(solver, "_continuation_solve", spy)
    return walked


def test_construct_p4_marks_infeasible_scales_partial(monkeypatch):
    # j = 5..8 leave the box and need the ladder; at j = 9..12 the exact
    # root count rules the scale out before any ladder step, and from
    # j = 13 the top moment (j^4 nu_j >= T_2) fails it before any solve
    walked = _ladder_spy(monkeypatch)
    solved = []
    real_solve = solver.solve_mu
    monkeypatch.setattr(solver, "solve_mu", lambda j, *args, **kw: solved.append(j) or real_solve(j, *args, **kw))
    cert = construct_pair(4, 20, 256)
    assert cert.failed_js == tuple(range(9, 21))
    assert [e.j for e in cert.entries] == list(range(1, 9))
    assert not cert.complete
    assert walked == [5, 6, 7, 8]
    assert sorted(set(solved)) == list(range(1, 13))


@pytest.mark.parametrize("p, first, scales", [(4, 13, 8), (6, 355, 20), (8, 14519, 20)])
def test_top_moment_bound_agrees_with_the_root_count(p, first, scales):
    # the README's first scale with j^p nu_j >= T_k under the default
    # schedule, and the Sturm count finds no admissible masses from there
    k = p // 2
    mu_bar = default_base_point(k)
    ball, target = ball_params(mu_bar), target_h(mu_bar)
    nus = {j: nu_schedule_value(ball, j) for j in range(first - 1, first + scales)}
    assert [j for j, nu in nus.items() if j ** p * nu >= target.values[-1]] == list(range(first, first + scales))
    for j in range(first, first + scales):
        assert count_real_roots(mass_polynomial(j, nus[j], target), ball.delta, 1) < k


def test_construct_p6_skips_ladder_past_frontier(monkeypatch):
    walked = _ladder_spy(monkeypatch)
    cert = construct_pair(6, 50, 256)
    assert cert.failed_js == (48, 49, 50)
    assert [e.j for e in cert.entries] == list(range(1, 48))
    assert walked == [44, 45, 46, 47]


def _first_mass_polynomial(k):
    """P_1 of the default schedule at k, with the ball it is counted in."""
    mu_bar = default_base_point(k)
    ball = ball_params(mu_bar)
    return mass_polynomial(1, nu_schedule_value(ball, 1, DEFAULT_NU_FRACTION), target_h(mu_bar)), ball


def test_root_count_at_p38_is_prompt():
    # the degree-19 P_1 of the default schedule: a remainder sequence over
    # Fractions stalled here for over a minute as its coefficients grew
    P, ball = _first_mass_polynomial(19)
    t0 = time.monotonic()
    assert count_real_roots(P, ball.delta, 1) == 19
    assert time.monotonic() - t0 < 10


@pytest.mark.parametrize("k", [2, 6, 19])
def test_root_count_runs_one_remainder_sequence(monkeypatch, k):
    # P_1 is square-free, so its own chain is the Sturm chain: one
    # pseudo-division per remainder, none for a gcd pass or a quotient
    P, ball = _first_mass_polynomial(k)
    calls = []
    real = numeric._pseudo_divmod
    monkeypatch.setattr(numeric, "_pseudo_divmod", lambda *a: calls.append(a) or real(*a))
    assert count_real_roots(P, ball.delta, 1) == k
    assert 0 < len(calls) <= len(P) - 1


def test_construct_rejects_bad_fraction():
    with pytest.raises(ValueError):
        construct_pair(4, 2, nu_fraction=Fraction(1, 3))


def test_construct_fails_an_unordered_solution_before_its_residuals(monkeypatch):
    # a solve that breaks mu_1 > mu_2 > delta goes to failed_js without
    # paying for the exact residual recheck or the jac_det elimination
    rechecked = []
    real_residuals = solver._exact_residuals
    monkeypatch.setattr(solver, "_exact_residuals", lambda *a: rechecked.append(a[0]) or real_residuals(*a))
    real_solve = solver.solve_mu

    def unordered_at_2(j, *args, **kwargs):
        result = real_solve(j, *args, **kwargs)
        if j == 2:
            return solver.SolveResult(mu=MuVector(result.mu.values[::-1]), iterations=result.iterations)
        return result

    monkeypatch.setattr(solver, "solve_mu", unordered_at_2)
    cert = construct_pair(4, 3, 256)
    assert cert.failed_js == (2,)
    assert [e.j for e in cert.entries] == [1, 3]
    assert rechecked == [1, 3]
