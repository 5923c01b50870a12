"""Matching mass vectors: make a perturbed sum isometric to a reference sum.

Fix even p = 2k and a strictly decreasing base mass vector
mu_bar_1 > ... > mu_bar_k > 0.  The reference system is the k unit-scale
variables with masses mu_bar; its moment targets are T_m = H_m(mu_bar).
For each scale j we add one extra atom of scale j and small mass nu_j and
ask for masses mu with

    F_m^(j)(mu, nu_j) = T_m,   m = 1, ..., k.

The inverse function theorem turns this into a well-posed root-finding
problem on an explicit box around mu_bar:

* eps_bar = (3/4) * (1/2) * min{gaps of mu_bar, mu_bar_k} keeps the box
  strictly inside the open cone of decreasing positive vectors (the 3/4
  is a fixed safety margin under the strict bound);
* M bounds |binom(2m,2l) j^(2l) dH_{m-l}/dmu_beta| / j^(2(k-1)) on the
  box; each dH_{m-l}/dmu_beta has nonnegative coefficients and the box
  lies in the positive orthant (eps_bar < mu_bar_k), so each is
  nondecreasing in every mass and peaks at the top corner mu_bar + eps_bar;
* eps0 = eps_bar / (M (k-1)) and delta = min(eps0, mu_bar_k - eps0)
  give the mass bracket delta/2 * j^(2-p) < nu_j < delta * j^(2-p).

That is all `ball_params` guarantees: for every j and every nu_j in the
bracket, the terms binom(2m,2l) nu_j j^(2l) dH_{m-l}/dmu_beta (1 <= l < m)
of the Jacobian of F^(j) are at most delta M <= eps_bar/(k-1) on the box.
No solution is promised: the mu-independent term nu_j j^(2k) of F_k is
nu_fraction * delta * j^2 on the schedule and grows without bound.

Whether a scale has one is decided exactly.  The system is triangular in
the elementary symmetric functions, so any solution's masses are the k
roots of one rational polynomial P_j (`momentpoly.mass_polynomial`), and
an admissible mass vector (strictly decreasing, above delta, inside
(0, 1]) exists iff P_j has k distinct roots in (delta, 1]
(`numeric.count_real_roots`).  Under the default schedule p = 4 has none
from j = 9 (a root crosses 0), p = 6 none from j = 48 (a complex pair),
p = 8 none from j = 784 (a complex pair), and p = 10 has every scale up
to j = 5000; `construct_pair` lists such scales in failed_js.

nu_j is pinned at nu_fraction * delta * j^(2-p) (default 3/4, an exact
rational strictly inside the bracket).  The masses themselves come from a
damped Newton iteration with the exact polynomial Jacobian, run at a
configured binary precision, and from a continuation ladder in nu only
where the root count says admissible masses exist; k = 2 additionally
has a quadratic-formula closed form used as an independent cross-check.

The iteration runs on raw `mpmath.libmp` tuples (sign, man, exp, bc):
`_RawSystem` evaluates F^(j) and its Jacobian from one elementary-
symmetric table per point, and `numeric.raw_elimination` solves each
Newton system and gives the stored jac_det.  Every operation is one libmp
call rounded to nearest at the working precision, on the operands of the
mpf expression in its order, so each iterate is bit for bit what
`momentpoly.moment_vector_F` and `jacobian_F` give on mpf inside
``workprec``; the tuples only skip mpf's per-operator overhead.

Everything that can be exact is exact: nu_j, delta, the targets, the
masses, and the certificate residuals.  `solve_mu` and `closed_form_k2`
return the exact dyadic values of their binary-float roots, converted
once per return, never per iterate; the residuals are re-evaluated in
rational arithmetic at those values rather than trusted from the float
loop.  Only the Newton loop and the stored jac_det are floats.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import mp
from mpmath.libmp import (
    fone,
    fzero,
    mpf_add,
    mpf_ge,
    mpf_gt,
    mpf_le,
    mpf_lt,
    mpf_mul,
    mpf_mul_int,
    mpf_neg,
    mpf_shift,
    mpf_sub,
    round_nearest,
    to_str,
)

from .errors import (
    DegenerateInputError,
    NewtonDivergenceError,
    NoSolutionError,
    SingularJacobianError,
)
from .momentpoly import (
    MuVector,
    cm_alpha_table,
    grad_table,
    h_vector,
    mass_polynomial,
    moment_vector_F,
    strictly_decreasing,
    validate_scale,
)
from .numeric import (
    DEFAULT_PRECISION_BITS,
    Scalar,
    as_rational,
    count_real_roots,
    mpf_to_fraction,
    raw_elimination,
    raw_max_abs,
    to_mpf,
    validate_precision,
    workprec,
)

DEFAULT_NU_FRACTION = Fraction(3, 4)
MAX_NEWTON_ITERS = 200
MAX_STEP_HALVINGS = 40
CONTINUATION_STEPS = 16
# the largest scale j construct solves and the certificate reader accepts:
# the verifier's exact tables grow with the digits of j
MAX_SCALE = 2 ** 32

__all__ = [
    "HValues",
    "BallParams",
    "SolveResult",
    "CertEntry",
    "ConstructionCertificate",
    "DEFAULT_NU_FRACTION",
    "MAX_SCALE",
    "validate_p",
    "validate_j_max",
    "validate_nu_fraction",
    "default_base_point",
    "target_h",
    "ball_params",
    "nu_schedule_value",
    "closed_form_k2",
    "decreasing_above",
    "max_abs_residual",
    "solve_mu",
    "construct_pair",
]


@dataclass(frozen=True)
class HValues:
    """Moment targets (H_1, ..., H_k) of the base point; exact rationals."""

    values: tuple

    def __post_init__(self):
        values = tuple(as_rational(v) for v in self.values)
        if not values or any(v <= 0 for v in values):
            raise DegenerateInputError("H values must be positive")
        object.__setattr__(self, "values", values)

    @property
    def k(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)


@dataclass(frozen=True)
class BallParams:
    """Geometry of the solvable box around the base point (all exact)."""

    mu_bar: MuVector
    eps_bar: Fraction
    eps: Fraction
    M: Fraction
    eps0: Fraction
    delta: Fraction

    @property
    def k(self) -> int:
        return self.mu_bar.k


def validate_p(p: int) -> int:
    """The order check of construct_pair: p an even integer >= 4."""
    if type(p) is not int or p % 2 != 0 or p < 4:
        raise ValueError(f"p must be an even integer >= 4, got {p}")
    return p


def validate_j_max(j_max: int) -> int:
    """The scale range check of construct_pair: j_max an integer in [1, MAX_SCALE]."""
    if type(j_max) is not int or not 1 <= j_max <= MAX_SCALE:
        raise ValueError(f"j_max must be an integer in [1, {MAX_SCALE}], got {j_max}")
    return j_max


def validate_nu_fraction(nu_fraction) -> Fraction:
    """The schedule position as a Fraction strictly inside (1/2, 1)."""
    nu_fraction = as_rational(nu_fraction)
    if not Fraction(1, 2) < nu_fraction < 1:
        raise ValueError(f"nu_fraction must lie strictly inside (1/2, 1), got {nu_fraction}")
    return nu_fraction


def default_base_point(k: int) -> MuVector:
    """mu_bar_i = (k+1-i)/(k+1): strictly decreasing, inside (0, 1), k >= 2."""
    if not isinstance(k, int) or k < 2:
        raise DegenerateInputError(f"k must be an integer >= 2, got {k}")
    return MuVector(tuple(Fraction(k + 1 - i, k + 1) for i in range(1, k + 1)))


def target_h(mu_bar: MuVector) -> HValues:
    return HValues(h_vector(mu_bar)[1:])


def ball_params(mu_bar: MuVector) -> BallParams:
    """Box radius and mass budget around mu_bar for the order p = 2k construction.

    k is the length of mu_bar, at least 2.  M is the largest
    binom(2m,2l) dH_{m-l}/dmu_beta (m = 2..k, l < m) on the box
    mu_bar +- eps_bar.  Each is a polynomial with nonnegative coefficients
    in positive masses, hence nondecreasing in every mass, so one gradient
    table at the top corner mu_bar + eps_bar gives M exactly.
    """
    k = mu_bar.k
    if k < 2:
        raise DegenerateInputError("need k >= 2 (k-1 appears as a divisor)")
    values = mu_bar.values
    if not strictly_decreasing(values):
        raise DegenerateInputError("mu_bar must be strictly decreasing")
    gaps = [values[i] - values[i + 1] for i in range(k - 1)]
    bound = Fraction(1, 2) * min(gaps + [values[-1]])
    eps_bar = Fraction(3, 4) * bound
    eps = eps_bar

    grad = grad_table([v + eps_bar for v in values])
    # H_0 is constant, so l = m contributes no gradient term
    M = max(
        math.comb(2 * m, 2 * l) * g
        for m in range(2, k + 1)
        for l in range(1, m)
        for g in grad[m - l]
    )
    if M <= 0:
        raise DegenerateInputError("mass budget degenerate: M = 0")
    eps0 = eps / (M * (k - 1))
    delta = min(eps0, values[-1] - eps0)
    if delta <= 0:
        raise DegenerateInputError("mass budget degenerate: delta <= 0")
    return BallParams(mu_bar=mu_bar, eps_bar=eps_bar, eps=eps, M=Fraction(M), eps0=eps0, delta=delta)


def nu_schedule_value(ball: BallParams, j: int, nu_fraction: Fraction = DEFAULT_NU_FRACTION) -> Fraction:
    """nu_j = nu_fraction * delta * j^(2-p) with p = 2 ball.k, exact and strictly inside the bracket."""
    validate_scale(j)
    return validate_nu_fraction(nu_fraction) * ball.delta / j ** (2 * ball.k - 2)


@dataclass(frozen=True)
class SolveResult:
    mu: MuVector  # the exact dyadic values of the converged iterate
    iterations: int


class _RawSystem:
    """F^(j)(., nu) and its Jacobian in mu on raw libmp tuples at `prec` bits.

    Each value equals moment_vector_F or jacobian_F evaluated on mpf
    inside ``workprec(prec)``, bit for bit: every +, - and * is one libmp
    call rounded to nearest at `prec`, on the same operands in the same
    order as the mpf expression, and the exact 0 and 1 of the Fraction
    code are fzero and fone.  So nu * binom(2m, 2l) * j^(2l) stays two
    roundings, computed once per (m, l) instead of once per use.
    """

    def __init__(self, j: int, nu, k: int, prec: int):
        rnd = round_nearest
        self.k = k
        self.prec = prec
        self.cm = cm_alpha_table(k)
        jsq = j * j
        self.coef = [None]  # coef[m][l] = nu * binom(2m, 2l) * j^(2l), 1 <= l <= m
        for m in range(1, k + 1):
            row = [None]
            jpow = 1
            for l in range(1, m + 1):
                jpow *= jsq
                row.append(mpf_mul_int(mpf_mul_int(nu, math.comb(2 * m, 2 * l), prec, rnd), jpow, prec, rnd))
            self.coef.append(row)

    def elem_sym(self, mu) -> list:
        """[e_0, ..., e_k] of the masses: the one table both F and the Jacobian read."""
        prec, rnd = self.prec, round_nearest
        e = [fone] + [fzero] * len(mu)
        top = 0
        for v in mu:
            top += 1
            for a in range(top, 0, -1):
                e[a] = mpf_add(e[a], mpf_mul(v, e[a - 1], prec, rnd), prec, rnd)
        return e

    def moment_vector(self, e) -> list:
        """[F_1, ..., F_k] from the masses' elementary-symmetric table e."""
        prec, rnd, cm = self.prec, round_nearest, self.cm
        h = [fone]
        for m in range(1, self.k + 1):
            acc = fzero
            for a in range(1, m + 1):
                acc = mpf_add(acc, mpf_mul_int(e[a], cm[m][a], prec, rnd), prec, rnd)
            h.append(acc)
        out = []
        for m in range(1, self.k + 1):
            acc = h[m]
            for l, c in enumerate(self.coef[m][1:], 1):
                acc = mpf_add(acc, mpf_mul(c, h[m - l], prec, rnd), prec, rnd)
            out.append(acc)
        return out

    def jacobian(self, mu, e) -> list:
        """Rows dF_m/dmu_beta, m = 1..k, from the masses and their table e."""
        prec, rnd, cm, k = self.prec, round_nearest, self.cm, self.k
        grad = [None] + [[] for _ in range(k)]  # grad[m][beta] = dH_m/dmu_beta
        for mu_beta in mu:
            excl = [fone]  # P_{beta,alpha} = e_alpha - mu_beta P_{beta,alpha-1}
            for alpha in range(1, k):
                excl.append(mpf_sub(e[alpha], mpf_mul(mu_beta, excl[alpha - 1], prec, rnd), prec, rnd))
            for m in range(1, k + 1):
                acc = fzero
                for a in range(1, m + 1):
                    acc = mpf_add(acc, mpf_mul_int(excl[a - 1], cm[m][a], prec, rnd), prec, rnd)
                grad[m].append(acc)
        rows = []
        for m in range(1, k + 1):
            row = list(grad[m])
            for l in range(1, m):
                c = self.coef[m][l]
                row = [mpf_add(r, mpf_mul(c, g, prec, rnd), prec, rnd) for r, g in zip(row, grad[m - l])]
            rows.append(row)
        return rows


def solve_mu(
    j: int,
    nu: Fraction,
    target: HValues,
    init,
    precision: int = DEFAULT_PRECISION_BITS,
    ball: BallParams | None = None,
) -> SolveResult:
    """Damped Newton for F^(j)(mu, nu) = target at exact nu, at `precision` bits.

    `init` holds k = target.k masses.  Convergence means
    max_m |F_m - T_m| < 2^-(precision/2), within MAX_NEWTON_ITERS iterations.
    A start that already meets the tolerance is returned unchanged with
    iterations = 0, so nu = 0 costs nothing.  Steps are halved until the
    sup-norm residual decreases (at most MAX_STEP_HALVINGS times) and,
    when `ball` is given, iterates are clipped into the box
    [mu_bar - eps_bar, mu_bar + eps_bar] coordinatewise.  The halving is
    what converges an unclipped solve from mu_bar at p = 4, j = 7 and 8,
    where a full step raises the residual.  After meeting the tolerance
    one extra full step is taken if it improves the residual further;
    Newton's quadratic tail makes that nearly free and leaves a wide
    margin under the certificate threshold.

    The iterates are raw libmp tuples (`_RawSystem`, `raw_elimination`),
    rounded exactly as mpf arithmetic inside ``workprec(precision)``
    rounds them.  The returned masses are the exact dyadic values of the
    last iterate.
    """
    validate_precision(precision)
    k = target.k
    init_values = tuple(init)
    if len(init_values) != k:
        raise ValueError(f"init must have length {k}")
    nu = validate_scale(j, as_rational(nu))

    prec, rnd = precision, round_nearest
    tol = mpf_shift(fone, -(precision // 2))
    system = _RawSystem(j, to_mpf(nu, prec)._mpf_, k, prec)
    tgt = [to_mpf(t, prec)._mpf_ for t in target]
    mu_cur = [to_mpf(v, prec)._mpf_ for v in init_values]
    bounds = None
    if ball is not None:
        bounds = [
            (to_mpf(v - ball.eps_bar, prec)._mpf_, to_mpf(v + ball.eps_bar, prec)._mpf_)
            for v in ball.mu_bar
        ]

    def clip(vals):
        if bounds is None:
            return vals
        out = []
        for v, (lo, hi) in zip(vals, bounds):
            v = lo if mpf_gt(lo, v) else v
            out.append(hi if mpf_lt(hi, v) else v)
        return out

    def residual(vals):
        """(F - T, e) at vals; e serves the Jacobian of the next step at this point."""
        e = system.elem_sym(vals)
        return [mpf_sub(f, t, prec, rnd) for f, t in zip(system.moment_vector(e), tgt)], e

    def newton_step(vals, e, g_vals):
        return raw_elimination(system.jacobian(vals, e), [mpf_neg(v) for v in g_vals], prec)[1]

    mu_cur = clip(mu_cur)
    g, e = residual(mu_cur)
    res = raw_max_abs(g, prec)
    iterations = 0

    while mpf_ge(res, tol):
        if iterations >= MAX_NEWTON_ITERS:
            raise NewtonDivergenceError(
                f"no convergence after {MAX_NEWTON_ITERS} iterations (j={j}, residual "
                f"{to_str(res, 6)})"
            )
        delta = newton_step(mu_cur, e, g)
        lam = fone
        accepted = None
        for _ in range(MAX_STEP_HALVINGS):
            cand = clip([mpf_add(m, mpf_mul(lam, d, prec, rnd), prec, rnd) for m, d in zip(mu_cur, delta)])
            g_cand, e_cand = residual(cand)
            res_cand = raw_max_abs(g_cand, prec)
            if mpf_lt(res_cand, res):
                accepted = (cand, g_cand, e_cand, res_cand)
                break
            lam = mpf_shift(lam, -1)
        if accepted is None:
            raise NewtonDivergenceError(f"step halving stalled (j={j}, residual {to_str(res, 6)})")
        mu_cur, g, e, res = accepted
        iterations += 1

    # polish: one more full step if it helps (residual drops ~quadratically);
    # a start that already met the tolerance is returned untouched
    if iterations and mpf_gt(res, fzero):
        try:
            delta = newton_step(mu_cur, e, g)
            cand = clip([mpf_add(m, d, prec, rnd) for m, d in zip(mu_cur, delta)])
            g_cand, _ = residual(cand)
            res_cand = raw_max_abs(g_cand, prec)
            if mpf_lt(res_cand, res):
                mu_cur, g, res = cand, g_cand, res_cand
                iterations += 1
        except SingularJacobianError:
            pass

    if any(mpf_le(v, fzero) or mpf_gt(v, fone) for v in mu_cur):
        raise NoSolutionError(
            f"converged outside the mass domain (j={j}, mu={[to_str(v, 8) for v in mu_cur]})"
        )
    return SolveResult(
        mu=MuVector(tuple(mpf_to_fraction(mp.make_mpf(v)) for v in mu_cur)),
        iterations=iterations,
    )


def closed_form_k2(j: int, nu: Fraction, target: HValues) -> MuVector:
    """Quadratic-formula solution for k = 2 at exact nu; independent of the Newton path.

    F_1 pins the sum s = e_1 = T_1 - nu j^2 and F_2 = e_1 + 6 e_2 + nu
    (6 j^2 e_1 + j^4) pins the product q = e_2, so mu_1, mu_2 are the
    roots of x^2 - s x + q.  Rejects nonpositive discriminants and roots
    outside (0, 1).  The roots are taken at DEFAULT_PRECISION_BITS and
    returned as the exact dyadic values of those floats.
    """
    if target.k != 2:
        raise ValueError("closed form applies to k = 2 only")
    nu = validate_scale(j, as_rational(nu))
    t1, t2 = target.values
    jsq = j * j
    s = t1 - nu * jsq
    q = (t2 - s - nu * (6 * jsq * s + jsq * jsq)) / 6
    disc = s * s - 4 * q
    if disc <= 0:
        raise NoSolutionError(f"discriminant {disc} is not positive")
    with workprec(DEFAULT_PRECISION_BITS):
        s_m = to_mpf(s)
        root = mpmath.sqrt(to_mpf(disc))
        hi = (s_m + root) / 2
        lo = (s_m - root) / 2
        if not (0 < lo < hi < 1):
            raise NoSolutionError(
                f"roots {mpmath.nstr(hi, 8)}, {mpmath.nstr(lo, 8)} not inside (0, 1)"
            )
        return MuVector((mpf_to_fraction(hi), mpf_to_fraction(lo)))


@dataclass(frozen=True)
class CertEntry:
    """One solved scale: the mass vector and the evidence it is a solution.

    `mu` holds exact dyadic Fractions and `residuals` exact rationals,
    re-evaluated from those masses, not carried over from the float
    iteration.  `jac_det` alone is an mpf: provenance the verifier does
    not recheck.
    """

    j: int
    nu: Fraction
    mu: tuple
    residuals: tuple
    jac_det: Scalar
    newton_iters: int


@dataclass(frozen=True)
class ConstructionCertificate:
    p: int
    precision_bits: int
    nu_fraction: Fraction
    ball: BallParams
    target: HValues
    entries: tuple
    failed_js: tuple = ()
    seed: int | None = None

    @property
    def k(self) -> int:
        """The number of masses per scale, p / 2."""
        return self.p // 2

    @property
    def missing_runs(self) -> tuple:
        """Runs (first, last) of unlisted scales below the largest listed one.

        A scale is listed when an entry or failed_js names it.  The runs are
        the gaps between the sorted listed scales, so the cost grows with
        the number of listed scales, not with the largest one.
        """
        listed = sorted({e.j for e in self.entries} | set(self.failed_js))
        return tuple((a + 1, b - 1) for a, b in zip([0] + listed, listed) if b - a > 1)

    @property
    def duplicated_js(self) -> tuple:
        """Scales listed more than once across the entries and failed_js."""
        counts = Counter([e.j for e in self.entries] + list(self.failed_js))
        return tuple(sorted(j for j, c in counts.items() if c > 1))

    @property
    def worst_residual(self) -> Fraction:
        """max |stored residual| over all entries, exact; 0 with no entries."""
        return max_abs_residual(e.residuals for e in self.entries)

    @property
    def complete(self) -> bool:
        """Every scale 1..J solved exactly once: no failed, missing or repeated j."""
        return not (self.failed_js or self.missing_runs or self.duplicated_js)

    def entry(self, j: int) -> CertEntry:
        for e in self.entries:
            if e.j == j:
                return e
        raise KeyError(f"no entry for j={j}")


def max_abs_residual(rows) -> Fraction:
    """max |r| over every residual row and order, exact; 0 when there are none."""
    return max((abs(r) for row in rows for r in row), default=Fraction(0))


def decreasing_above(mu: tuple, delta: Fraction) -> bool:
    """mu_1 > ... > mu_k > delta on exact values: the ordering every certified scale must meet."""
    return strictly_decreasing(mu) and mu[-1] > delta


def _exact_residuals(j: int, nu: Fraction, mu_values, target: HValues) -> tuple:
    return tuple(f - t for f, t in zip(moment_vector_F(j, mu_values, nu), target))


def construct_pair(
    p: int,
    j_max: int,
    precision: int = DEFAULT_PRECISION_BITS,
    nu_fraction: Fraction = DEFAULT_NU_FRACTION,
    seed: int | None = None,
) -> ConstructionCertificate:
    """Solve every scale j = 1..j_max and assemble the certificate.

    A direct solve from mu_bar is attempted first.  If Newton fails, the
    exact root count of P_j in (delta, 1] decides: fewer than k distinct
    roots means no admissible mass vector exists, and the scale goes to
    failed_js at once.  Otherwise nu is walked up a geometric ladder
    (nu_j * 2^(t - CONTINUATION_STEPS)) with each solution seeding the
    next.  Scales the ladder cannot solve, and solutions that break
    mu_1 > ... > mu_k > delta (checked before any residual is computed),
    go to failed_js too; the certificate is then partial, not discarded.
    """
    validate_p(p)
    validate_j_max(j_max)
    validate_precision(precision)
    nu_fraction = validate_nu_fraction(nu_fraction)
    k = p // 2
    mu_bar = default_base_point(k)
    ball = ball_params(mu_bar)
    target = target_h(mu_bar)

    entries = []
    failed = []
    for j in range(1, j_max + 1):
        nu_j = nu_schedule_value(ball, j, nu_fraction)
        try:
            result = solve_mu(j, nu_j, target, mu_bar, precision, ball=ball)
        except (NewtonDivergenceError, SingularJacobianError, NoSolutionError):
            if count_real_roots(mass_polynomial(j, nu_j, target), ball.delta, 1) < k:
                failed.append(j)
                continue
            try:
                result = _continuation_solve(j, nu_j, target, mu_bar, precision)
            except (NewtonDivergenceError, SingularJacobianError, NoSolutionError):
                failed.append(j)
                continue
        mu_sol = result.mu
        if not decreasing_above(mu_sol.values, ball.delta):
            failed.append(j)
            continue
        exact_res = _exact_residuals(j, nu_j, mu_sol.values, target)
        mu_raw = [to_mpf(v, precision)._mpf_ for v in mu_sol.values]
        system = _RawSystem(j, to_mpf(nu_j, precision)._mpf_, k, precision)
        jac_det, _ = raw_elimination(system.jacobian(mu_raw, system.elem_sym(mu_raw)), None, precision)
        entries.append(
            CertEntry(
                j=j,
                nu=nu_j,
                mu=mu_sol.values,
                residuals=exact_res,
                jac_det=mp.make_mpf(jac_det),
                newton_iters=result.iterations,
            )
        )
    return ConstructionCertificate(
        p=p,
        precision_bits=precision,
        nu_fraction=nu_fraction,
        ball=ball,
        target=target,
        entries=tuple(entries),
        failed_js=tuple(failed),
        seed=seed,
    )


def _continuation_solve(j, nu_j, target, mu_bar, precision) -> SolveResult:
    """Walk nu up a geometric ladder, unclipped.

    `construct_pair` runs it only after the direct solve failed and the
    exact root count showed that admissible masses exist at nu_j, so it
    finds masses rather than discovering that there are none.  The
    solution path can leave the Newton safety box long before it leaves
    the mass domain (the box only guarantees a nonsingular Jacobian; the
    certificate never requires box membership), so the ladder runs
    without clipping and relies on each step's solution seeding the next.
    A rung that fails raises its own error, and the scale is reported as
    failed.
    """
    init = mu_bar
    for t in range(1, CONTINUATION_STEPS + 1):
        nu_t = nu_j * Fraction(2) ** (t - CONTINUATION_STEPS)
        result = solve_mu(j, nu_t, target, init, precision, ball=None)
        init = result.mu
    return result
