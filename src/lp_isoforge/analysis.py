"""Verification layer: isometry spot checks, projections, series certificates.

Everything here consumes a ConstructionCertificate or a list of
generators and produces evidence:

* `isometry_check` compares even moments of random rational combinations
  of the reference generators h_j (masses mu_bar) against the perturbed
  generators f~_j (masses mu^(j) plus one atom of scale j, mass nu_j).
  Each generator enters as its whole even-moment table, one fold of the
  `moments` layer (`certificate_span` gives the f~_j tables), turned once
  into its even cumulants, O(n k^2) for n entries.  Cumulants of
  independent terms add and scale as c^(2l), so every order of a
  combination costs one integer dot product, O(n k) per trial.  h's
  cumulants share the f~_j's per-order denominators, fixed once per
  check, so one integer cumulant-to-moment map
  (`moments.integer_moment_map`) returns the tables of both sides times
  the same integer Q_m.  A trial builds no Fraction: the worst ratio is
  kept as a pair of integers and becomes one Fraction at the end.  Both
  sides are exact rationals, equal to a fold of the scaled tables, so the
  reported maximum relative residual is exact, and it is accompanied by a
  propagation bound: every term of the even-moment expansion is
  positive, so the relative error of the sum is at most the worst
  relative error of a factor, giving  max_rel <= (1 + eps_hat/H_min)^k - 1  with eps_hat the largest
  certificate residual and H_min the smallest moment target.

* `build_projection` realizes the orthogonal L_2 projection onto the
  span of the generators on the finite product space of their atom
  distributions.  In exact arithmetic it is exactly idempotent, fixes
  the generators, kills constants (generators have mean zero), and is a
  contraction in the 2-norm.  `projection_norm_lower_bound` turns it
  into an empirical L_p bound by normalized fixed-point ascent
  f <- psi_q(Pf), psi_q(x) = sign(x)|x|^(q-1), q = p/(p-1): at a
  maximizer of ||Pf||_p/||f||_p the optimality condition places the
  p-dual of f inside the range of P, so maximizers live in the family
  psi_q(span) that the iteration explores.  A dense angular grid search
  over that family is provided as an oracle for two-generator spans.

* `vpl_check` tests ||h||_p * ||h||_q <= C_k^(1/p) * ||h||_2^2 for the
  base generator, with C_k = sum_alpha binom(k,alpha) C_{k,alpha} (equal
  to H_k at all-ones masses).

* `uncomplemented_certificate` checks the mass-sequence hypotheses in
  exact arithmetic: nu_j inside (delta/2, delta) * j^(2-p), one
  comparison per entry; the weight bound on w_j = nu_j^(-1/p) / j,
  inside ((1/delta)^(1/p), (2/delta)^(1/p)) * j^(-2/p), is that bracket
  restated (w_j^p = 1/(nu_j j^p)), so it is not checked again; then
  convergence of sum nu_j via an explicit integral tail bound, and
  divergence of sum w_j^(2p/(p-2)) by comparison with
  (1/delta)^(2/(p-2)) * sum j^(-4/(p-2)), a series
  that diverges iff 4/(p-2) <= 1, i.e. p >= 6.  For p = 4 the
  comparator converges and the certificate says so instead of guessing.
  The weights and comparator values that only the `verify` JSON shows
  are computed by `serialize.uncomplemented_to_dict`; its 10^6-term
  comparator sum is computed once per (exponent, N) per process, so a
  one-shot CLI call still pays it (ROADMAP item 7 deletes it).

* `verify_certificate` rechecks a certificate from its stored values
  alone and returns a `VerifyReport`; the `verify` command renders it.
  `projection_report` does the same for the `project` command.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property, partial
from itertools import product
from math import comb, copysign, cos, gcd, lcm, pi, sin
from operator import mul

import mpmath
from mpmath.libmp import (
    fone,
    from_float,
    from_rational,
    fzero,
    mpf_abs,
    mpf_add,
    mpf_div,
    mpf_gt,
    mpf_mul,
    mpf_neg,
    mpf_pow,
    mpf_pow_int,
    mpf_shift,
    round_nearest,
)

from .errors import CapExceededError, DegenerateInputError
from .moments import (
    IndependentSumSpec,
    SymmetricAtomVariable,
    abs_moment,
    convolve,
    even_cumulants,
    fold_even_moments,
    integer_moment_map,
    term_tables,
)
from .momentpoly import MuVector, cm_alpha_table
from .numeric import (
    DEFAULT_PRECISION_BITS,
    Scalar,
    as_rational,
    real_to_str,
    to_mpf,
    workprec,
)
from .solver import ConstructionCertificate, ball_params, decreasing_above, default_base_point, max_abs_residual

SPACE_CAP = 3 ** 9
ASCENT_STARTS = 8  # random starts of the projection ascent, plus half as many span combinations
ASCENT_ITERS = 60  # fixed-point iterations per start
GRID_POINTS = 2000  # angles in the grid oracle's sweep
GRID_REFINE = 60  # ternary refinement steps around its best angle

__all__ = [
    "IsometryCheckResult",
    "ProjectionOperator",
    "ProjectionReport",
    "UncomplementedCertificate",
    "UncomplementedRow",
    "VerifyReport",
    "VplCheck",
    "SPACE_CAP",
    "reference_generator",
    "certificate_span",
    "isometry_check",
    "c_k_constant",
    "vpl_check",
    "build_projection",
    "projection_norm_lower_bound",
    "projection_norm_grid_search",
    "projection_report",
    "uncomplemented_certificate",
    "verify_certificate",
]


# ---------------------------------------------------------------------------
# finite spans and isometry
# ---------------------------------------------------------------------------

def reference_generator(mu_bar: MuVector) -> IndependentSumSpec:
    """h: k independent unit-scale atoms with the base masses mu_bar."""
    return IndependentSumSpec([SymmetricAtomVariable(1, m) for m in mu_bar.values])


def _moment_table(gen: IndependentSumSpec, k: int) -> tuple:
    """[E g^0, E g^2, ..., E g^(2k)] of one generator: one fold."""
    return tuple(fold_even_moments(term_tables(gen, k)))


def certificate_span(cert: ConstructionCertificate) -> tuple:
    """Moment tables [E f~_j^0, ..., E f~_j^p] of the f~_j side, one per entry.

    f~_j has masses mu^(j) plus one atom of scale j and mass nu_j.  The
    stored mu are exact dyadic rationals, so the tables are exact;
    nothing is trusted from the solve itself.
    """
    tables = []
    for e in cert.entries:
        terms = [SymmetricAtomVariable(1, v) for v in e.mu]
        if e.nu != 0:
            # nu = 0 would be an a.s.-zero summand; skip it rather than
            # build a degenerate variable
            terms.append(SymmetricAtomVariable(e.j, e.nu))
        tables.append(_moment_table(IndependentSumSpec(terms), cert.k))
    return tuple(tables)


def _reference_table(cert: ConstructionCertificate) -> tuple:
    """[E h^0, E h^2, ..., E h^p] for the reference generator h: one fold."""
    return _moment_table(reference_generator(cert.ball.mu_bar), cert.k)


def _residuals(cert: ConstructionCertificate, tables) -> tuple:
    """Exact table[m] - T_m, m = 1..k, one vector per certificate entry."""
    return tuple(tuple(table[m] - t for m, t in enumerate(cert.target.values, 1)) for table in tables)


@dataclass(frozen=True)
class IsometryCheckResult:
    max_rel_residual: Fraction
    bound: Fraction
    trials: int
    seed: int
    orders_checked: tuple

    @property
    def within_bound(self) -> bool:
        return self.max_rel_residual <= self.bound


def isometry_check(cert: ConstructionCertificate, trials: int = 100, seed: int = 0) -> IsometryCheckResult:
    """Exact relative moment residuals of random combinations, both spans.

    Coefficients are rational with entries in [-1, 1] and denominators
    <= 1000; each is scaled by the common denominator before evaluation
    (the relative residual is homogeneous, so this costs nothing and
    keeps the arithmetic in integers).  Every generator's moment table
    becomes its even cumulants once, O(n k^2) exact operations for n
    entries, held with h's over one common denominator D_l per order;
    cumulants of independent terms add and scale as c^(2l), so a trial
    costs one integer dot product per order, O(n k) in all, and one
    integer cumulant-to-moment map (`moments.integer_moment_map`, set up
    once per check) yields Q_m times every order 2m = 2..p of both spans.
    Over the shared Q_m the relative residual of order 2m is
    |P_m - R_m| / R_m, so the trial loop runs on integers alone; the one
    Fraction it builds is the reported maximum, the same exact rational
    the fold of the scaled tables gives.  The returned bound is the positivity propagation
    constant (1 + eps_hat/H_min)^k - 1; the residual can never exceed it
    while the certificate is honest.
    """
    if not cert.entries:
        raise DegenerateInputError("certificate has no solved entries")
    per = certificate_span(cert)
    return _sampled_isometry(cert, _reference_table(cert), per, max_abs_residual(_residuals(cert, per)), trials, seed)


def _sampled_isometry(cert, ref_table, per, eps_hat: Fraction, trials: int, seed: int) -> IsometryCheckResult:
    """isometry_check on precomputed tables, h's and the f~_j's, and the largest |residual| eps_hat."""
    k = cert.k
    n = len(per)
    h_min = min(cert.target.values)
    bound = (1 + eps_hat / h_min) ** k - 1

    # row 0 is h, rows 1..n the f~_j; order l: kappa_2l = nums[l][row] / dens[l],
    # one denominator per order shared by both sides
    kappas = [even_cumulants(t) for t in (ref_table, *per)]
    dens = [lcm(*(kappa[l].denominator for kappa in kappas)) for l in range(k + 1)]
    nums = [[kappa[l].numerator * (dens[l] // kappa[l].denominator) for kappa in kappas] for l in range(k + 1)]
    ref_nums = [row[0] for row in nums]
    per_nums = [row[1:] for row in nums]
    # one map returns Q_m E S^(2m) as integers, R_m for h and P_m for f~;
    # the relative residual is |P_m - R_m| / R_m, kept as a pair of integers
    _, to_moments = integer_moment_map(dens)

    rng = random.Random(seed)
    worst_num, worst_den = 0, 1
    for _ in range(trials):
        while True:
            c = []
            for _ in range(n):
                den = rng.randint(1, 1000)
                c.append((rng.randint(-den, den), den))
            if any(a for a, _ in c):
                break
        # scale by the lcm of the reduced denominators: every a/d * scale is an integer
        scale = lcm(*(d // gcd(a, d) for a, d in c))
        squares = [(a * scale // d) ** 2 for a, d in c]
        # K_2l = sum_j c_j^(2l) kappa_2l(g_j); every h_j has kappa(h)
        ref_sum = [0] * (k + 1)
        per_sum = [0] * (k + 1)
        powers = squares
        for l in range(1, k + 1):
            ref_sum[l] = ref_nums[l] * sum(powers)
            per_sum[l] = sum(map(mul, powers, per_nums[l]))
            powers = list(map(mul, powers, squares))
        for ref_m, per_m in zip(to_moments(ref_sum)[1:], to_moments(per_sum)[1:]):
            num = abs(per_m - ref_m)
            if num * worst_den > worst_num * ref_m:
                worst_num, worst_den = num, ref_m
    return IsometryCheckResult(
        max_rel_residual=Fraction(worst_num, worst_den),
        bound=bound,
        trials=trials,
        seed=seed,
        orders_checked=tuple(2 * m for m in range(1, k + 1)),
    )


# ---------------------------------------------------------------------------
# the C_k bound
# ---------------------------------------------------------------------------

def c_k_constant(k: int) -> int:
    """C_k = sum_{alpha=1}^{k} binom(k, alpha) C_{k,alpha}, an integer."""
    if k < 1:
        raise ValueError("k must be >= 1")
    row = cm_alpha_table(k)[k]
    return sum(comb(k, alpha) * row[alpha] for alpha in range(1, k + 1))


@dataclass(frozen=True)
class VplCheck:
    k: int
    p: int
    lhs: Scalar
    rhs: Scalar
    holds: bool


def vpl_check(mu_bar) -> VplCheck:
    """||h||_p * ||h||_q <= C_k^(1/p) * ||h||_2^2 for h with the k masses mu_bar.

    p = 2k and q = p/(p-1); mu_bar is a MuVector or a sequence of
    rationals.  The norms go through the convolution of the k unit atoms
    and abs_moment, not through H_k, so the two sides share no machinery.
    They are taken at DEFAULT_PRECISION_BITS, and `holds` allows an
    additive 2^-(DEFAULT_PRECISION_BITS/2) slack for the equality boundary
    (k = 1 is an exact equality that float rounding may tip either way);
    away from equality the margin is macroscopic and the slack is
    irrelevant.
    """
    mu = MuVector(tuple(mu_bar))
    k = mu.k
    p = 2 * k
    dist = convolve(reference_generator(mu))
    ck = c_k_constant(k)
    with workprec(DEFAULT_PRECISION_BITS):
        q = Fraction(p, p - 1)
        mp_p = abs_moment(dist, p)   # exact Fraction (even integer order)
        mq = abs_moment(dist, q)     # mpf
        m2 = abs_moment(dist, 2)     # exact Fraction
        # abs_moment returns an exact Fraction when q is integral (k = 1);
        # Fraction ** mpf would fall back to float pow and wreck the slack
        lhs = to_mpf(mp_p) ** (Fraction(1, p)) * (to_mpf(mq) ** (1 / to_mpf(q)))
        rhs = to_mpf(ck) ** (Fraction(1, p)) * to_mpf(m2)
        slack = mpmath.mpf(2) ** (-(DEFAULT_PRECISION_BITS // 2)) * max(mpmath.mpf(1), rhs)
        holds = bool(lhs <= rhs + slack)
    return VplCheck(k=k, p=p, lhs=lhs, rhs=rhs, holds=holds)


# ---------------------------------------------------------------------------
# projection on the finite product space
# ---------------------------------------------------------------------------

def _check_even(p: int) -> None:
    """The projection layer's order check: p an even integer >= 2."""
    if type(p) is not int or p < 2 or p % 2:
        raise ValueError(f"p must be an even integer >= 2, got {p!r}")


@dataclass(frozen=True)
class ProjectionOperator:
    """Orthogonal projection onto span{h_i} on the product of atom spaces.

    probs[a] is the probability of atom a; basis[i][a] the value of
    generator i there; norms_sq[i] = ||h_i||_2^2.  All exact for
    rational generator data, so P o P = P is an identity, not an
    approximation.

    P runs as one integer kernel: over a common denominator den,
    B[i][a] ~ basis[i][a] and W[i][a] ~ basis[i][a] probs[a] / norms_sq[i]
    are integers, and for f = F/L with integer F,
    (Pf)[a] = sum_i B[i][a] sum_a' F[a'] W[i][a'] / (den L).
    """

    probs: tuple
    basis: tuple
    norms_sq: tuple

    @property
    def atom_count(self) -> int:
        return len(self.probs)

    @property
    def n(self) -> int:
        return len(self.basis)

    def inner(self, f, g) -> Scalar:
        return sum((fa * ga * pa for fa, ga, pa in zip(f, g, self.probs)), Fraction(0))

    @cached_property
    def _tables(self) -> tuple:
        """(columns, W, den): columns[a][i] = B[i][a], the kernel's integer tables."""
        weights = [[v * pa / ns for v, pa in zip(b, self.probs)] for b, ns in zip(self.basis, self.norms_sq)]
        den_b = lcm(*(Fraction(v).denominator for b in self.basis for v in b))
        den_w = lcm(*(w.denominator for row in weights for w in row))
        columns = tuple(zip(*(tuple(int(v * den_b) for v in b) for b in self.basis)))
        W = tuple(tuple(int(w * den_w) for w in row) for row in weights)
        return columns, W, den_b * den_w

    def _apply_int(self, F) -> list:
        """N with (Pf)[a] = N[a] / (den L) for f = F/L, F a list of ints."""
        columns, W, _ = self._tables
        coeffs = [sum(x * w for x, w in zip(F, row)) for row in W]
        return [sum(c * b for c, b in zip(coeffs, col)) for col in columns]

    def apply(self, f) -> tuple:
        """Pf for a rational vector f (ints and Fractions), exact."""
        f = [as_rational(v) for v in f]
        if len(f) != self.atom_count:
            raise ValueError("function vector length mismatch")
        L = lcm(*(v.denominator for v in f))
        N = self._apply_int([v.numerator * (L // v.denominator) for v in f])
        den = self._tables[2] * L
        return tuple(Fraction(n, den) for n in N)

    def abs_power_moment(self, f, p: int) -> Scalar:
        """E |f|^p = E f^p against the atom probabilities, p even; exact for rational f."""
        _check_even(p)
        # mpf f: Fraction * mpf truncates pa; kept for bit-identity (the ascent mirrors it)
        return sum((pa * fa ** p for fa, pa in zip(f, self.probs)), Fraction(0))

    def norm(self, f, p: int) -> Scalar:
        return to_mpf(self.abs_power_moment(f, p)) ** (1 / to_mpf(p))


def build_projection(generators) -> ProjectionOperator:
    """Materialize the generators (IndependentSumSpecs) on their joint finite probability space.

    Raises CapExceededError when that space has more than SPACE_CAP atoms.
    """
    dists = [convolve(g) for g in generators]
    size = 1
    for d in dists:
        size *= len(d.atoms)
        if size > SPACE_CAP:
            raise CapExceededError(
                f"product space needs more than {SPACE_CAP} atoms"
            )
    probs = []
    basis = [[] for _ in dists]
    for combo in product(*[d.atoms for d in dists]):
        prob = Fraction(1)
        for i, (value, pa) in enumerate(combo):
            prob = prob * pa
            basis[i].append(value)
        probs.append(prob)
    norms_sq = tuple(sum((v * v * pa for v, pa in zip(b, probs)), Fraction(0)) for b in basis)
    if any(ns == 0 for ns in norms_sq):
        raise DegenerateInputError("a generator vanishes on the product space")
    return ProjectionOperator(probs=tuple(probs), basis=tuple(tuple(b) for b in basis), norms_sq=norms_sq)


def _per_magnitude(fn, vec, probs=None) -> tuple:
    """(fn(v) for v in vec) for fn odd in v, or (fn(v, pa) for v, pa in zip(vec, probs))
    for fn even in v, calling fn once per distinct |v| (and pa).

    vec holds kernel integers or raw mpf tuples.  Every rounded step of the
    ascent is odd or even under round-to-nearest, so this is bit for bit
    the per-atom map (see projection_norm_lower_bound).
    """
    cache = {}  # |v| (and pa) -> (fn at |v|, fn at -|v|)
    out = []
    for v, pa in zip(vec, probs or vec):
        if type(v) is int:
            neg, mag = v < 0, abs(v)
        else:
            neg, mag = v[0], (0,) + v[1:] if v[0] else v
        key = mag if probs is None else (mag, pa)
        both = cache.get(key)
        if both is None:
            r = fn(mag) if probs is None else fn(mag, pa)
            both = cache[key] = (r, mpf_neg(r) if probs is None else r)
        out.append(both[neg])
    return tuple(out)


def _raw_apply(P: ProjectionOperator, f, prec: int) -> tuple:
    """P f for raw mpf tuples f, each atom rounded once to nearest at `prec`
    bits: equal to to_mpf of P.apply on the exact values of f."""
    e = min((exp for _, man, exp, _ in f if man), default=0)
    F = [((-man if sign else man) << (exp - e)) if man else 0 for sign, man, exp, _ in f]
    den = P._tables[2]
    # f = F 2^e, so (Pf)[a] = N[a] 2^e / den; scaling by 2^e is exact
    return _per_magnitude(lambda n: mpf_shift(from_rational(n, den, prec, round_nearest), e), P._apply_int(F))


def _raw_norm(P: ProjectionOperator, p: int, prec: int):
    """f -> P.norm(f, p)._mpf_ on raw mpf tuples at `prec` bits, even p, bit for bit.

    Mirrors abs_power_moment's roundings: Fraction * mpf converts each
    probability with mpmath's default rounding, which truncates.
    """
    rnd = round_nearest
    with workprec(prec):
        inv_p = (1 / to_mpf(p))._mpf_
    probs = [from_rational(pa.numerator, pa.denominator, prec) for pa in P.probs]

    def term(fa, pa) -> tuple:
        return mpf_mul(mpf_pow_int(fa, p, prec, rnd), pa, prec, rnd)

    def norm(f) -> tuple:
        acc = fzero
        for t in _per_magnitude(term, f, probs):
            acc = mpf_add(acc, t, prec, rnd)
        return mpf_pow(acc, inv_p, prec, rnd)

    return norm


def _signed_power(vec, expo, prec: int) -> tuple:
    """psi: v -> sign(v) |v|^expo on raw mpf tuples at `prec` bits."""
    return _per_magnitude(
        lambda v: fzero if v == fzero else mpf_pow(mpf_abs(v, prec, round_nearest), expo, prec, round_nearest), vec
    )


def _climb(P: ProjectionOperator, p: int, f) -> tuple:
    """One start's ASCENT_ITERS-step fixed-point ascent: the best raw ratio
    ||Pg||_p / ||g||_p over its iterates, at least fone.  Module-level so a pool can run it."""
    rnd = round_nearest
    precision = DEFAULT_PRECISION_BITS
    norm = _raw_norm(P, p, precision)
    with workprec(precision):
        q_exp = to_mpf(Fraction(1, p - 1))._mpf_  # q - 1
    best = fone
    for _ in range(ASCENT_ITERS):
        g = _raw_apply(P, f, precision)
        ng = norm(g)
        nf = norm(f)
        if ng == fzero or nf == fzero:
            break
        ratio = mpf_div(ng, nf, precision, rnd)
        if mpf_gt(ratio, best):
            best = ratio
        nxt = _signed_power(g, q_exp, precision)
        nn = norm(nxt)
        if nn == fzero:
            break
        f = _per_magnitude(lambda v: mpf_div(v, nn, precision, rnd), nxt)
    return best


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _map_climbs(climb, start_vectors) -> list:
    """[climb(f) for f in start_vectors], on one forked worker per CPU when
    there is more than one, else in this process."""
    workers = min(_cpu_count(), len(start_vectors))
    if workers > 1:
        import multiprocessing  # lazily: importing the package must not load it
        import threading

        # fork only where it is safe: a daemonic process (a pool worker
        # itself) may not have children, and a child forked while another
        # thread holds a lock can deadlock on it
        if (
            "fork" in multiprocessing.get_all_start_methods()
            and not multiprocessing.current_process().daemon
            and threading.active_count() == 1
        ):
            with multiprocessing.get_context("fork").Pool(workers) as pool:
                return pool.map(climb, start_vectors, chunksize=1)
    return list(map(climb, start_vectors))


def projection_norm_lower_bound(P: ProjectionOperator, p: int, seed: int = 0) -> Scalar:
    """Lower bound for ||P||_{L_p -> L_p} by fixed-point ascent.

    The first candidate is the first generator, evaluated in exact
    arithmetic: P fixes it, so the bound starts at exactly 1 and the
    random starts can only raise it.  There are ASCENT_STARTS (8) random
    vectors and ASCENT_STARTS // 2 (4) random span combinations mapped
    through psi_q, all drawn from random.Random(seed).  Each start then
    iterates f <- psi_q(Pf) (q = p/(p-1)) ASCENT_ITERS (60) times at
    DEFAULT_PRECISION_BITS, tracking the best ratio ||Pf||_p / ||f||_p seen at
    any iterate.  Every reported value is a genuinely attained ratio,
    hence a valid lower bound.

    Iterates are raw mpf tuples: Pf is the exact integer kernel rounded
    once per atom, and every norm, power and quotient is the libmp call
    that the mpf operators on P.apply / P.norm would make, so the result
    is bit-identical to running them.  Each climb computes those rounded
    per-atom steps once per distinct magnitude (`_per_magnitude`): the
    space's atoms come in antipodal pairs of equal probability, the
    iterates after the first apply are odd on them, and round-to-nearest
    is symmetric, so an atom's step is its antipode's up to sign.  The
    norms' running sums still add every atom's term in atom order, so
    every bit stays.  At p = 6, n = 3 a step makes 14 calls where it made
    27, and the serial ascent takes about 0.7 s instead of 1.0 s (2-core
    x86-64, CPython 3.11, mpmath 1.3.0 on its pure-Python backend).

    The climbs are independent.  They run on one forked worker process
    per available CPU, capped at the 12 climbs, or in this process
    when there is one CPU, no fork start method, or forking is unsafe (the
    caller is a daemonic worker or runs other threads); there is no
    setting.
    The bound is the maximum of the per-start bests, so it is
    bit-identical at any CPU count.  The workers' memory is not part of
    this process's ru_maxrss.
    """
    _check_even(p)
    precision = DEFAULT_PRECISION_BITS
    rng = random.Random(seed)
    with workprec(precision):
        q_exp = to_mpf(Fraction(1, p - 1))._mpf_  # q - 1
        start_vectors = []
        for _ in range(ASCENT_STARTS):
            start_vectors.append(tuple(from_float(rng.uniform(-1, 1)) for _ in range(P.atom_count)))
        # random span combinations reach the maximizer family directly
        for _ in range(ASCENT_STARTS // 2):
            coeffs = [mpmath.mpf(rng.uniform(-1, 1)) for _ in P.basis]
            vec = []
            for a in range(P.atom_count):
                acc = mpmath.mpf(0)
                for ci, b in zip(coeffs, P.basis):
                    acc += ci * to_mpf(b[a])
                vec.append(acc._mpf_)
            start_vectors.append(_signed_power(vec, q_exp, precision))
    P._tables  # built here, so each pickled climb carries the kernel tables
    best = fone  # exact: P(basis[0]) == basis[0]
    for ratio in _map_climbs(partial(_climb, P, p), start_vectors):
        if mpf_gt(ratio, best):
            best = ratio
    return mpmath.mp.make_mpf(best)


def projection_norm_grid_search(P: ProjectionOperator, p: int) -> float:
    """Dense angular oracle for two-generator spans, float precision.

    Maximizers of ||Pf||_p/||f||_p have the form psi_q(w) with w in the
    span (the p-dual of a maximizer must lie in range(P)), so for two
    generators a single angle parametrizes the family: w = cos(phi) h_1
    + sin(phi) h_2.  A sweep of GRID_POINTS (2000) angles over [0, pi)
    plus GRID_REFINE (60) ternary refinement steps around the best angle
    pins the maximum far below the 1% comparison tolerance.
    """
    if P.n != 2:
        raise ValueError("grid oracle is for spans of exactly two generators")
    _check_even(p)
    probs = [float(v) for v in P.probs]
    b1 = [float(v) for v in P.basis[0]]
    b2 = [float(v) for v in P.basis[1]]
    n1 = float(P.norms_sq[0])
    n2 = float(P.norms_sq[1])
    qe = 1.0 / (p - 1)

    def ratio(phi: float) -> float:
        w = [b1[a] * cos(phi) + b2[a] * sin(phi) for a in range(len(probs))]
        f = [copysign(abs(v) ** qe, v) if v != 0 else 0.0 for v in w]
        c1 = sum(fa * ba * pa for fa, ba, pa in zip(f, b1, probs)) / n1
        c2 = sum(fa * ba * pa for fa, ba, pa in zip(f, b2, probs)) / n2
        pf = [c1 * b1[a] + c2 * b2[a] for a in range(len(probs))]
        num = sum(pa * abs(v) ** p for v, pa in zip(pf, probs)) ** (1.0 / p)
        den = sum(pa * abs(v) ** p for v, pa in zip(f, probs)) ** (1.0 / p)
        return num / den if den > 0 else 0.0

    step = pi / GRID_POINTS
    best_phi, best = 0.0, 0.0
    for i in range(GRID_POINTS):
        r = ratio(i * step)
        if r > best:
            best, best_phi = r, i * step
    lo, hi = best_phi - step, best_phi + step
    for _ in range(GRID_REFINE):
        m1 = lo + (hi - lo) / 3
        m2 = hi - (hi - lo) / 3
        if ratio(m1) < ratio(m2):
            lo = m1
        else:
            hi = m2
    return max(best, ratio((lo + hi) / 2))


@dataclass(frozen=True)
class ProjectionReport:
    """The (name, passed) checks of one span projection, in order, and its p-norm evidence."""

    masses: tuple  # generator i is one symmetric atom of scale 1 and mass masses[i]
    atoms: int
    checks: tuple
    bound: Scalar  # attained lower bound for ||P||_{L_p -> L_p}
    grid_oracle: float | None  # angle sweep, two generators only

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.checks)

    @property
    def relative_gap(self) -> float | None:
        """|bound - grid_oracle| / grid_oracle in floats; None without the oracle."""
        if self.grid_oracle is None:
            return None
        return abs(float(self.bound) - self.grid_oracle) / self.grid_oracle


def _trial_checks(P: ProjectionOperator, trials: int, seed: int) -> tuple:
    """(P(Pf) == Pf, ||Pf||_2 <= ||f||_2) on every one of `trials` random
    rational functions f from random.Random(seed), in integers.

    With f = F/L, F integer and L the lcm of f's denominators, Pf = N/(D L)
    for N = P._apply_int(F) and D the kernel's common denominator.  So
    P(Pf) == Pf is _apply_int(N) == D N, and the contraction is
    sum w N^2 <= D^2 sum w F^2, w the atom probabilities over their lcm.
    """
    D = P._tables[2]
    common = lcm(*(pa.denominator for pa in P.probs))
    w = [pa.numerator * (common // pa.denominator) for pa in P.probs]
    rng = random.Random(seed)
    idempotent = contraction = True
    for _ in range(trials):
        f = [(rng.randint(-100, 100), rng.randint(1, 50)) for _ in w]
        L = lcm(*(d for _, d in f))
        F = [a * (L // d) for a, d in f]
        N = P._apply_int(F)
        idempotent = idempotent and P._apply_int(N) == [D * x for x in N]
        contraction = contraction and sum(map(mul, w, map(mul, N, N))) <= D * D * sum(map(mul, w, map(mul, F, F)))
    return idempotent, contraction


def projection_report(p: int, n: int, trials: int = 100, seed: int = 0) -> ProjectionReport:
    """Project onto n unit-scale generators with masses from default_base_point, and check P.

    Checks, in order: idempotence, fixing each generator, killing
    constants, 2-norm contraction (the first and last on `trials` random
    rational functions from random.Random(seed)), and an attained p-norm
    lower bound >= 1 from projection_norm_lower_bound(seed).
    With n = 2 the angle sweep runs as an oracle.
    """
    masses = default_base_point(max(n, 2)).values[:n]
    P = build_projection([IndependentSumSpec([SymmetricAtomVariable(1, m)]) for m in masses])
    bound = projection_norm_lower_bound(P, p, seed=seed)
    idempotent, contraction = _trial_checks(P, trials, seed)
    checks = (
        (f"idempotent on {trials} random functions", idempotent),
        ("fixes every generator", all(P.apply(b) == tuple(b) for b in P.basis)),
        ("annihilates constants", not any(P.apply([Fraction(1)] * P.atom_count))),
        (f"2-norm contraction on {trials} random functions", contraction),
        ("p-norm lower bound >= 1", bound >= 1),
    )
    return ProjectionReport(
        masses=masses,
        atoms=P.atom_count,
        checks=checks,
        bound=bound,
        grid_oracle=projection_norm_grid_search(P, p) if n == 2 else None,
    )


# ---------------------------------------------------------------------------
# series hypotheses for the weight sequence, and the verifier
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UncomplementedRow:
    """One scale: nu_j and its exact bracket verdict.

    The weight bound (1/delta) j^-2 < w_j^p < (2/delta) j^-2 on
    w_j^p = 1/(nu_j j^p) is the bracket restated, so `bracket_ok` decides it.
    """

    j: int
    nu: Fraction
    bracket_ok: bool


@dataclass(frozen=True)
class UncomplementedCertificate:
    """Exact facts only; the tail bound on sum nu_j holds exactly when `valid`."""

    p: int
    delta: Fraction
    rows: tuple
    offending_js: tuple
    valid: bool
    sum_nu_partial: Fraction
    sum_nu_tail_bound: Fraction
    comparator_exponent: Fraction
    divergence_certified: bool
    divergence_note: str

    @property
    def sum_nu_total_bound(self) -> Fraction:
        return self.sum_nu_partial + self.sum_nu_tail_bound


def uncomplemented_certificate(cert: ConstructionCertificate) -> UncomplementedCertificate:
    """Certify the mass/weight sequence hypotheses from a certificate.

    The one exact check per entry is the bracket
    delta/2 * j^(2-p) < nu_j < delta * j^(2-p); `offending_js` lists the
    scales outside it.  The weight bound is the bracket restated: since
    w_j^p = 1/(nu_j j^p), (1/delta) j^-2 < w_j^p < (2/delta) j^-2 holds
    exactly when nu_j is inside its bracket.  Convergence of sum nu_j is
    certified with the integral tail bound delta * J^(3-p)/(p-3).
    Divergence of sum w_j^(2p/(p-2)) reduces to the comparator exponent
    4/(p-2): for p >= 6 it is <= 1 and the comparison series diverges;
    for p = 4 it equals 2 and this comparator proves nothing, which is
    reported verbatim rather than papered over.
    """
    p = cert.p
    delta = cert.ball.delta
    rows = []
    offending = []
    for e in cert.entries:
        j = e.j
        scale = Fraction(j) ** (p - 2)
        bracket_ok = delta / 2 / scale < e.nu < delta / scale
        if not bracket_ok:
            offending.append(j)
        rows.append(UncomplementedRow(j, e.nu, bracket_ok))
    J = max((e.j for e in cert.entries), default=0)
    sum_nu_partial = sum((e.nu for e in cert.entries), Fraction(0))
    # sum_{j>J} j^(2-p) < integral_J^inf x^(2-p) dx = J^(3-p)/(p-3)
    tail = delta * Fraction(1, J ** (p - 3) * (p - 3)) if J else Fraction(0)
    exponent = Fraction(4, p - 2)
    valid = not offending
    certified = valid and exponent <= 1
    if exponent == 1:
        note = (
            "comparator exponent 4/(p-2) = 1: the comparison series is the "
            "harmonic series times (1/delta)^(2/(p-2)); divergence certified."
        )
    elif exponent < 1:
        note = (
            f"comparator exponent 4/(p-2) = {exponent} < 1: comparison series "
            "diverges like N^(1-4/(p-2)); divergence certified."
        )
    else:
        note = (
            f"comparator exponent 4/(p-2) = {exponent} > 1: the comparison "
            "series converges, so divergence not certified by this "
            "comparator (consistent with the p >= 6 restriction). The "
            "alternative mass schedule nu_j ~ j^(-3/2) suggested for p = 4 "
            "is recorded as not automated here."
        )
    return UncomplementedCertificate(
        p=p,
        delta=delta,
        rows=tuple(rows),
        offending_js=tuple(offending),
        valid=valid,
        sum_nu_partial=sum_nu_partial,
        sum_nu_tail_bound=tail,
        comparator_exponent=exponent,
        divergence_certified=certified,
        divergence_note=note,
    )


@dataclass(frozen=True)
class VerifyReport:
    """The verifier's (name, passed, detail) checks, in order, and their evidence."""

    checks: tuple
    isometry: IsometryCheckResult | None  # None when there are no solved entries
    weights: UncomplementedCertificate

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


def verify_certificate(cert: ConstructionCertificate, trials: int = 100, seed: int = 0) -> VerifyReport:
    """Recheck a certificate from its stored values alone.

    Targets and residuals come from the even-moment fold, the ball from
    ball_params(mu_bar), the brackets from `uncomplemented_certificate`.
    Not rechecked: the provenance fields seed, newton_iters, jac_det and
    nu_fraction (each nu_j is held to its bracket, not to the schedule),
    and a dropped top scale J, since no j_max is stored.  A certificate
    with no solved entries fails the isometry line and has isometry None.
    """
    ref_table = _reference_table(cert)
    per = certificate_span(cert)
    residuals = _residuals(cert, per)
    worst = max_abs_residual(residuals)
    iso = _sampled_isometry(cert, ref_table, per, worst, trials, seed) if cert.entries else None
    uc = uncomplemented_certificate(cert)
    prec = cert.precision_bits
    issues = [] if ref_table[1:] == cert.target.values else ["target differs"]
    try:
        ball = ball_params(cert.ball.mu_bar)
        differ = [f.name for f in fields(ball) if getattr(ball, f.name) != getattr(cert.ball, f.name)]
        issues += [f"ball differs: {', '.join(differ)}"] if differ else []
    except DegenerateInputError as exc:
        issues.append(f"ball not recomputable: {exc}")
    bad_order = [e.j for e in cert.entries if not decreasing_above(e.mu, cert.ball.delta)]
    missing = [str(a) if a == b else f"{a}..{b}" for a, b in cert.missing_runs]
    gaps = (("failed scales", cert.failed_js), ("missing j", missing), ("duplicated j", cert.duplicated_js))

    iso_outcome = (False, "no solved entries") if iso is None else (
        iso.within_bound,
        f"max_rel = {real_to_str(iso.max_rel_residual, prec)}, bound = {real_to_str(iso.bound, prec)}",
    )

    def listed(*labelled) -> str:
        return "; ".join(f"{label}: [{', '.join(map(str, js))}]" for label, js in labelled if js)

    checks = [
        ("target moments match the base point", not issues, "; ".join(issues)),
        (
            "exact residuals below tolerance",
            worst < Fraction(1, 2 ** (prec // 2)),
            f"max |residual| = {real_to_str(worst, prec)}, tolerance 2^-{prec // 2}",
        ),
        ("stored residuals honest", all(r == tuple(e.residuals) for r, e in zip(residuals, cert.entries)), ""),
        ("nu_j inside (delta/2, delta) * j^(2-p)", uc.valid, listed(("offending j", uc.offending_js))),
        ("mu^(j) strictly decreasing above delta", not bad_order, listed(("offending j", bad_order))),
        ("certificate complete", cert.complete, listed(*gaps)),
        ("isometry residual within propagation bound", *iso_outcome),
        ("weight bounds from the mass bracket", uc.valid, ""),
        (
            "sum nu_j converges (tail bound)",
            uc.valid,
            f"total <= {real_to_str(uc.sum_nu_total_bound, prec)}",
        ),
    ]
    if cert.p >= 6:
        checks.append(("sum w_j^(2p/(p-2)) diverges (comparator)", uc.divergence_certified, uc.divergence_note))
    return VerifyReport(checks=tuple(checks), isometry=iso, weights=uc)
