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

from lp_isoforge import numeric, solver
from lp_isoforge.errors import (
    DegenerateInputError,
    LpIsoforgeError,
    NoSolutionError,
)
from lp_isoforge.momentpoly import (
    MuVector,
    grad_table,
    jacobian_F,
    mass_polynomial,
    moment_vector_F,
    strictly_decreasing,
)
from lp_isoforge.numeric import count_real_roots, mpf_to_fraction, to_mpf
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

MU2 = default_base_point(2)
TARGET2 = target_h(MU2)


@pytest.mark.parametrize("prec", [128, 256, 512])
def test_raw_system_rounds_as_mpf_arithmetic(prec):
    # the solver's raw F rows and Jacobian entries against the exact layer's
    # moment_vector_F and jacobian_F run on mpf inside workprec, bit for bit
    rng = random.Random(prec)
    for k in range(2, 9):
        for j in sorted({1, 60, *rng.sample(range(2, 60), 3)}):
            with workprec(prec):
                mu = [to_mpf(Fraction(rng.randint(1, 2 ** prec), 2 ** prec)) for _ in range(k)]
                nu = to_mpf(Fraction(rng.randint(0, 10 ** 6), 10 ** rng.randint(6, 12)))
                want_f = [v._mpf_ for v in moment_vector_F(j, mu, nu)]
                want_jac = [[to_mpf(v)._mpf_ for v in row] for row in jacobian_F(j, mu, nu).matrix]
            system = solver._RawSystem(j, nu._mpf_, k, prec)
            raw_mu = [v._mpf_ for v in mu]
            e = system.elem_sym(raw_mu)
            assert system.moment_vector(e) == want_f
            assert system.jacobian(raw_mu, e) == want_jac


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
    # j = 5..8 leave the box and need the ladder; from j = 9 the exact root
    # count rules the scale out before any ladder step
    walked = _ladder_spy(monkeypatch)
    cert = construct_pair(4, 20, 256)
    assert cert.failed_js == tuple(range(9, 21))
    assert [e.j for e in cert.entries] == list(range(1, 9))
    assert not cert.complete
    assert walked == [5, 6, 7, 8]


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
