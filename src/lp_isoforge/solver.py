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

Everything that can be exact is exact: nu_j, delta, the targets, and the
certificate residuals, which are re-evaluated in rational arithmetic at
the (dyadic) returned point rather than trusted from the float loop.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .errors import (
    DegenerateInputError,
    NewtonDivergenceError,
    NoSolutionError,
    SingularJacobianError,
)
from .momentpoly import (
    CmAlphaTable,
    MuVector,
    cm_alpha_table,
    grad_table,
    h_vector,
    jacobian_F,
    mass_polynomial,
    moment_vector_F,
)
from .numeric import (
    DEFAULT_PRECISION_BITS,
    Scalar,
    count_real_roots,
    det_mpf,
    mpf_to_fraction,
    solve_linear_mpf,
    to_mpf,
    validate_precision,
    workprec,
)

DEFAULT_NU_FRACTION = Fraction(3, 4)
MAX_NEWTON_ITERS = 200
MAX_STEP_HALVINGS = 40
CONTINUATION_STEPS = 16

__all__ = [
    "HValues",
    "BallParams",
    "SolveResult",
    "CertEntry",
    "ConstructionCertificate",
    "DEFAULT_NU_FRACTION",
    "validate_p",
    "validate_nu_fraction",
    "default_base_point",
    "target_h",
    "ball_params",
    "nu_schedule_value",
    "closed_form_k2",
    "decreasing_above",
    "solve_mu",
    "construct_pair",
]


@dataclass(frozen=True)
class HValues:
    """Moment targets (H_1, ..., H_k) of the base point; exact rationals."""

    values: tuple

    def __post_init__(self):
        values = tuple(Fraction(v) for v in self.values)
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
    if p % 2 != 0 or p < 4:
        raise ValueError(f"p must be an even integer >= 4, got {p}")
    return p


def validate_nu_fraction(nu_fraction) -> Fraction:
    """The schedule position as a Fraction strictly inside (1/2, 1)."""
    nu_fraction = Fraction(nu_fraction)
    if not Fraction(1, 2) < nu_fraction < 1:
        raise ValueError(f"nu_fraction must lie strictly inside (1/2, 1), got {nu_fraction}")
    return nu_fraction


def default_base_point(k: int) -> MuVector:
    """mu_bar_i = (k+1-i)/(k+1): strictly decreasing, inside (0, 1), k >= 2."""
    if not isinstance(k, int) or k < 2:
        raise DegenerateInputError(f"k must be an integer >= 2, got {k}")
    return MuVector(tuple(Fraction(k + 1 - i, k + 1) for i in range(1, k + 1)))


def target_h(mu_bar: MuVector, table: CmAlphaTable) -> HValues:
    return HValues(h_vector(mu_bar, table)[1:])


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
    values = tuple(Fraction(v) for v in mu_bar.values)
    if not mu_bar.strictly_decreasing:
        raise DegenerateInputError("mu_bar must be strictly decreasing")
    gaps = [values[i] - values[i + 1] for i in range(k - 1)]
    bound = Fraction(1, 2) * min(gaps + [values[-1]])
    eps_bar = Fraction(3, 4) * bound
    eps = eps_bar

    grad = grad_table([v + eps_bar for v in values], cm_alpha_table(k))
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
    nu_fraction = validate_nu_fraction(nu_fraction)
    if j < 1:
        raise ValueError("j must be >= 1")
    return nu_fraction * ball.delta / Fraction(j) ** (2 * ball.k - 2)


@dataclass(frozen=True)
class SolveResult:
    mu: MuVector
    residuals: tuple  # signed F_m - T_m at the returned point, mpf
    iterations: int


def solve_mu(
    j: int,
    nu: Fraction,
    target: HValues,
    init,
    table: CmAlphaTable,
    precision: int = DEFAULT_PRECISION_BITS,
    ball: BallParams | None = None,
) -> SolveResult:
    """Damped Newton for F^(j)(mu, nu) = target at exact nu, at `precision` bits.

    Convergence means max_m |F_m - T_m| < 2^-(precision/2), within
    MAX_NEWTON_ITERS iterations.
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
    """
    validate_precision(precision)
    k = table.k
    init_values = tuple(init)
    if len(init_values) != k:
        raise ValueError(f"init must have length {k}")

    with workprec(precision):
        tol_m = mpmath.mpf(2) ** (-(precision // 2))
        nu_m = to_mpf(Fraction(nu))
        tgt = [to_mpf(t) for t in target]
        mu_cur = [to_mpf(v) for v in init_values]
        lo = hi = None
        if ball is not None:
            lo = [to_mpf(Fraction(v) - ball.eps_bar) for v in ball.mu_bar]
            hi = [to_mpf(Fraction(v) + ball.eps_bar) for v in ball.mu_bar]

        def clip(vals):
            if lo is None:
                return vals
            return [min(max(v, l), h) for v, l, h in zip(vals, lo, hi)]

        def residual(vals):
            return [f - t for f, t in zip(moment_vector_F(j, vals, nu_m, table), tgt)]

        mu_cur = clip(mu_cur)
        g = residual(mu_cur)
        res = max(abs(v) for v in g)
        iterations = 0

        def newton_step(vals, g_vals):
            jac = jacobian_F(j, vals, nu_m, table)
            delta = solve_linear_mpf(jac.matrix, [-v for v in g_vals])
            return delta

        while res >= tol_m:
            if iterations >= MAX_NEWTON_ITERS:
                raise NewtonDivergenceError(
                    f"no convergence after {MAX_NEWTON_ITERS} iterations (j={j}, residual "
                    f"{mpmath.nstr(res, 6)})"
                )
            delta = newton_step(mu_cur, g)
            lam = mpmath.mpf(1)
            accepted = None
            for _ in range(MAX_STEP_HALVINGS):
                cand = clip([m + lam * d for m, d in zip(mu_cur, delta)])
                g_cand = residual(cand)
                res_cand = max(abs(v) for v in g_cand)
                if res_cand < res:
                    accepted = (cand, g_cand, res_cand)
                    break
                lam = lam / 2
            if accepted is None:
                raise NewtonDivergenceError(
                    f"step halving stalled (j={j}, residual {mpmath.nstr(res, 6)})"
                )
            mu_cur, g, res = accepted
            iterations += 1

        # polish: one more full step if it helps (residual drops ~quadratically);
        # a start that already met the tolerance is returned untouched
        if iterations and res > 0:
            try:
                delta = newton_step(mu_cur, g)
                cand = clip([m + d for m, d in zip(mu_cur, delta)])
                g_cand = residual(cand)
                res_cand = max(abs(v) for v in g_cand)
                if res_cand < res:
                    mu_cur, g, res = cand, g_cand, res_cand
                    iterations += 1
            except SingularJacobianError:
                pass

        if any(not 0 < v <= 1 for v in mu_cur):
            raise NoSolutionError(
                f"converged outside the mass domain (j={j}, "
                f"mu={[mpmath.nstr(v, 8) for v in mu_cur]})"
            )
        return SolveResult(
            mu=MuVector(tuple(mu_cur)),
            residuals=tuple(g),
            iterations=iterations,
        )


def closed_form_k2(j: int, nu: Fraction, target: HValues, precision: int = DEFAULT_PRECISION_BITS) -> MuVector:
    """Quadratic-formula solution for k = 2 at exact nu; independent of the Newton path.

    F_1 pins the sum s = e_1 = T_1 - nu j^2 and F_2 = e_1 + 6 e_2 + nu
    (6 j^2 e_1 + j^4) pins the product q = e_2, so mu_1, mu_2 are the
    roots of x^2 - s x + q.  Rejects nonpositive discriminants and roots
    outside (0, 1).
    """
    if target.k != 2:
        raise ValueError("closed form applies to k = 2 only")
    validate_precision(precision)
    t1, t2 = target.values
    nu = Fraction(nu)
    jsq = j * j
    s = t1 - nu * jsq
    q = (t2 - s - nu * (6 * jsq * s + jsq * jsq)) / 6
    disc = s * s - 4 * q
    if disc <= 0:
        raise NoSolutionError(f"discriminant {disc} is not positive")
    with workprec(precision):
        s_m = to_mpf(s)
        root = mpmath.sqrt(to_mpf(disc))
        hi = (s_m + root) / 2
        lo = (s_m - root) / 2
        if not (0 < lo < hi < 1):
            raise NoSolutionError(
                f"roots {mpmath.nstr(hi, 8)}, {mpmath.nstr(lo, 8)} not inside (0, 1)"
            )
        return MuVector((hi, lo))


@dataclass(frozen=True)
class CertEntry:
    """One solved scale: the mass vector and the evidence it is a solution.

    `residuals` are exact rationals, re-evaluated from the dyadic value of
    the stored mu, not carried over from the float iteration.
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
    def complete(self) -> bool:
        """Every scale 1..J solved exactly once: no failed, missing or repeated j."""
        return not (self.failed_js or self.missing_runs or self.duplicated_js)

    def entry(self, j: int) -> CertEntry:
        for e in self.entries:
            if e.j == j:
                return e
        raise KeyError(f"no entry for j={j}")


def decreasing_above(mu: tuple, delta: Fraction) -> bool:
    """mu_1 > ... > mu_k > delta on exact values: the ordering every certified scale must meet."""
    mu = tuple(mpf_to_fraction(v) for v in mu)
    return all(a > b for a, b in zip(mu, mu[1:])) and mu[-1] > delta


def _exact_residuals(j: int, nu: Fraction, mu_values, target: HValues, table: CmAlphaTable) -> tuple:
    mu_frac = tuple(mpf_to_fraction(v) for v in mu_values)
    return tuple(f - t for f, t in zip(moment_vector_F(j, mu_frac, nu, table), target))


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
    next.  Scales the ladder cannot solve are recorded in failed_js too,
    and the certificate is marked partial rather than discarded.
    """
    validate_p(p)
    if j_max < 1:
        raise ValueError(f"j_max must be >= 1, got {j_max}")
    validate_precision(precision)
    k = p // 2
    nu_fraction = Fraction(nu_fraction)
    mu_bar = default_base_point(k)
    table = cm_alpha_table(k)
    ball = ball_params(mu_bar)
    target = target_h(mu_bar, table)

    entries = []
    failed = []
    for j in range(1, j_max + 1):
        nu_j = nu_schedule_value(ball, j, nu_fraction)
        result = None
        try:
            result = solve_mu(j, nu_j, target, mu_bar, table, precision, ball=ball)
        except (NewtonDivergenceError, SingularJacobianError, NoSolutionError):
            if count_real_roots(mass_polynomial(j, nu_j, target, table), ball.delta, 1) < k:
                failed.append(j)
                continue
            try:
                result = _continuation_solve(j, nu_j, target, mu_bar, table, precision)
            except (NewtonDivergenceError, SingularJacobianError, NoSolutionError):
                failed.append(j)
                continue
        mu_sol = result.mu
        exact_res = _exact_residuals(j, nu_j, mu_sol.values, target, table)
        with workprec(precision):
            jac = jacobian_F(j, [to_mpf(v) for v in mu_sol.values], to_mpf(nu_j), table)
            jac_det = det_mpf(jac.matrix)
        if not decreasing_above(mu_sol.values, ball.delta):
            failed.append(j)
            continue
        entries.append(
            CertEntry(
                j=j,
                nu=nu_j,
                mu=mu_sol.values,
                residuals=exact_res,
                jac_det=jac_det,
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


def _continuation_solve(j, nu_j, target, mu_bar, table, precision) -> SolveResult:
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
        result = solve_mu(j, nu_t, target, init, table, precision, ball=None)
        init = result.mu
    return result
