"""Verification layer: moment tables, isometry, C_k bound, projection, weight series."""

import dataclasses
import math
import multiprocessing
import os
import random
import threading
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import workprec
from mpmath.libmp import from_rational, mpf_div, mpf_mul, mpf_pow_int, round_nearest

from lp_isoforge.analysis import (
    ProjectionOperator,
    build_projection,
    c_k_constant,
    certificate_span,
    isometry_check,
    projection_norm_grid_search,
    projection_norm_lower_bound,
    reference_generator,
    uncomplemented_certificate,
    verify_certificate,
    vpl_check,
)
from lp_isoforge import analysis
from lp_isoforge.analysis import _per_magnitude, _raw_apply, _raw_norm, _trial_checks
from lp_isoforge.errors import CapExceededError, DegenerateInputError, SchemaError
from lp_isoforge.momentpoly import cm_alpha_table, h_vector
from lp_isoforge.moments import IndependentSumSpec, SymmetricAtomVariable, fold_even_moments, term_tables
from lp_isoforge.numeric import frac_to_str, mpf_to_fraction, parse_real, real_to_str, to_mpf
from lp_isoforge.serialize import cert_from_dict, cert_to_dict, uncomplemented_to_dict
from lp_isoforge.solver import (
    BallParams,
    CertEntry,
    ConstructionCertificate,
    ball_params,
    closed_form_k2,
    construct_pair,
    default_base_point,
    target_h,
)


def build_span(masses):
    """One unit-scale atom generator per mass."""
    return [IndependentSumSpec([SymmetricAtomVariable(1, m)]) for m in masses]


def moment_table(gen, k):
    return fold_even_moments(term_tables(gen, k))


def combination_moments(tables, c, k):
    """[1, ||sum c_i g_i||_2^2, ..., ||sum c_i g_i||_2k^2k]: scaled tables, one fold."""
    return fold_even_moments([[ci ** (2 * l) * t[l] for l in range(k + 1)] for ci, t in zip(c, tables)])


def fold_isometry_oracle(cert, trials, seed):
    """(max_rel_residual, bound) of isometry_check by the per-trial fold of scaled tables.

    The same draws and scaling as isometry_check, but each trial folds the
    n scaled moment tables of each span instead of adding cumulants.
    """
    k = cert.k
    ref_table = moment_table(reference_generator(cert.ball.mu_bar), k)
    per = certificate_span(cert)
    eps_hat = max(abs(table[m] - t) for table in per for m, t in enumerate(cert.target.values, 1))
    bound = (1 + eps_hat / min(cert.target.values)) ** k - 1
    rng = random.Random(seed)
    worst = Fraction(0)
    for _ in range(trials):
        while True:
            c = []
            for _ in range(len(per)):
                den = rng.randint(1, 1000)
                c.append(Fraction(rng.randint(-den, den), den))
            if any(c):
                break
        scale = math.lcm(*(q.denominator for q in c))
        c_int = [int(q * scale) for q in c]
        ref_moments = combination_moments([ref_table] * len(per), c_int, k)
        per_moments = combination_moments(per, c_int, k)
        for m in range(1, k + 1):
            worst = max(worst, abs(per_moments[m] - ref_moments[m]) / ref_moments[m])
    return worst, bound


# ---------------------------------------------------------------------------
# moment tables and the isometry check
# ---------------------------------------------------------------------------

def test_span_norm_frozen():
    tables = [moment_table(g, 2) for g in build_span([Fraction(1, 2), Fraction(1, 3)])]
    assert combination_moments(tables, (1, 1), 2)[2] == Fraction(11, 6)
    assert combination_moments(tables, (0, 0), 2)[2] == 0
    single = [moment_table(g, 2) for g in build_span([Fraction(2, 7)])]
    for m in (1, 2):
        assert combination_moments(single, (1,), 2)[m] == Fraction(2, 7)


def test_span_norm_scales_coefficients():
    tables = [moment_table(g, 2) for g in build_span([Fraction(1, 2), Fraction(1, 3)])]
    # ||c1 g1 + c2 g2||_2^2 = c1^2/2 + c2^2/3
    assert combination_moments(tables, (Fraction(1, 2), Fraction(3, 4)), 1)[1] == (
        Fraction(1, 4) / 2 + Fraction(9, 16) / 3
    )


def degenerate_cert(k=3):
    """nu = 0 on every scale, masses exactly mu_bar: both spans coincide."""
    mu_bar = default_base_point(k)
    ball = ball_params(mu_bar)
    target = target_h(mu_bar)
    entries = tuple(
        CertEntry(
            j=j,
            nu=Fraction(0),
            mu=tuple(mu_bar.values),
            residuals=(Fraction(0),) * k,
            jac_det=Fraction(1),
            newton_iters=0,
        )
        for j in range(1, 5)
    )
    return ConstructionCertificate(
        p=2 * k, precision_bits=256, nu_fraction=Fraction(3, 4),
        ball=ball, target=target, entries=entries,
    )


def test_isometry_degenerate_certificate_is_exact():
    res = isometry_check(degenerate_cert(), trials=10, seed=4)
    assert res.max_rel_residual == 0
    assert res.bound == 0
    assert res.orders_checked == (2, 4, 6)
    assert fold_isometry_oracle(degenerate_cert(), 10, 4) == (0, 0)


# exact isometry_check(cert_p6, trials=25, seed=1), recorded from the
# support-enumeration kernel before the even-moment fold replaced it; a
# change to the draws, the scaling or the set of ratios moves them
P6_SEED1_RESIDUAL_NUM = int(
    "4519093604577044057723764820205878936840490448584624685344856129"
    "4218315317609353494330609350763932061043933648815107104730663595"
    "4452300722601826827744701504915339161470946740848349508730708329"
    "4152570813404823478972343745573809213450812641148399979517320819"
    "9187443935143965243717079520097097518368958567178657278532383712"
    "00509487899745567"
)
P6_SEED1_RESIDUAL_DEN = int(
    "3565234410199091062983688464967525071769627714371442724203630919"
    "4107855584547317287911733373216246716190697974263745980457357533"
    "4831487921236106376010978146015893682622538654011287175852281192"
    "7586749871073621305080054068093636118029018282584813519184354713"
    "9521714598335627096809778345242593163526845015057571806217582671"
    "5874588648607464718811372775836079795094741842477777509099435322"
    "863792093408569368887951360000"
)
P6_SEED1_BOUND_NUM = int(
    "4829952001334288069158961876994034468195803829677191896015481494"
    "6711829048053227776452436050938433745938082092659809843581590536"
    "9600791406413439259946355847708310741541619809652344438128720516"
    "0307472669415924174403688903538563974671929946631197757847807592"
    "7790316353128900790160714256482541006538943070804813667687898373"
    "8146181904241098564281436899148815774337856901496520424855180702"
    "3809948158890634849405538493205942624393122356600058141444381086"
    "2586986852340117202686230627097579520762247750381256979222759584"
    "7179609329463712907341989031804117042012641744599046094385399690"
    "86960102328119999509335505085439402345934736202279"
)
P6_SEED1_BOUND_DEN = int(
    "5213534483040583350461609010659091086663180430882308332399633603"
    "1629576043277749547166990753099314719251665875116538285336279784"
    "7517318454901978998800460430834262253195400791067352553078042564"
    "7084614159039242363715727105486243180677142503763103718578834648"
    "6020305621573231756261874718536730217814880893259262338718702810"
    "8611184707465316164128738532011250437961273109184496444076160651"
    "4786131017676061714642063054358551015786951433532145028846542462"
    "2788730402819327308004365172274708137968645221607951529625243861"
    "3854425360741746749751960644008380376987335774723214634880381917"
    "6076862520798377847342110103024606445118787831637665060811836047"
    "5040764636310968353244686473214722458513264173641629696000000"
)


def test_isometry_p6(cert_p6):
    res = isometry_check(cert_p6, trials=25, seed=1)
    assert res.max_rel_residual <= res.bound
    assert res.within_bound
    assert not dataclasses.replace(res, bound=res.max_rel_residual / 2).within_bound
    assert res.bound < Fraction(1, 2 ** 100)
    assert res.max_rel_residual == Fraction(P6_SEED1_RESIDUAL_NUM, P6_SEED1_RESIDUAL_DEN)
    assert res.bound == Fraction(P6_SEED1_BOUND_NUM, P6_SEED1_BOUND_DEN)


def test_isometry_on_closed_form_solutions(cert_p4):
    entries = []
    for e in cert_p4.entries:
        mu = closed_form_k2(e.j, e.nu, cert_p4.target)
        entries.append(dataclasses.replace(e, mu=tuple(mu.values)))
    cert = dataclasses.replace(cert_p4, entries=tuple(entries))
    res = isometry_check(cert, trials=25, seed=2)
    assert res.max_rel_residual < Fraction(1, 2 ** (128 - 6))


def test_single_coefficient_vectors_reproduce_residuals(cert_p6):
    k = cert_p6.k
    per = certificate_span(cert_p6)
    ref = [moment_table(reference_generator(cert_p6.ball.mu_bar), k)] * len(per)
    n = len(cert_p6.entries)
    for i, e in enumerate(cert_p6.entries[:5]):
        c = tuple(int(t == i) for t in range(n))
        per_moments = combination_moments(per, c, k)
        ref_moments = combination_moments(ref, c, k)
        for m in range(1, k + 1):
            # identical to the re-evaluated residual, as exact rationals
            assert per_moments[m] - cert_p6.target.values[m - 1] == e.residuals[m - 1]
            assert ref_moments[m] == cert_p6.target.values[m - 1]


SMALL_J_MAX = {4: 8, 6: 20, 8: 12, 10: 6, 12: 6, 16: 4}


@pytest.fixture(scope="module")
def small_certs(cert_p6):
    return {6: cert_p6, **{p: construct_pair(p, j_max, 256) for p, j_max in SMALL_J_MAX.items() if p != 6}}


# p = 10 and p = 16 reach orders 10 and 16, where the span's per-order
# cumulant denominators differ most
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("p", sorted(SMALL_J_MAX))
def test_isometry_check_equals_fold_oracle(small_certs, p, seed):
    cert = small_certs[p]
    assert len(cert.entries) == SMALL_J_MAX[p]
    for trials in (1, 40):
        res = isometry_check(cert, trials=trials, seed=seed)
        assert (res.max_rel_residual, res.bound) == fold_isometry_oracle(cert, trials, seed)
        assert 0 < res.max_rel_residual <= res.bound


def test_isometry_check_maps_both_spans_through_one_moment_map(cert_p6, monkeypatch):
    calls = []
    real_map = analysis.integer_moment_map

    def counting_map(dens):
        calls.append(dens)
        return real_map(dens)

    monkeypatch.setattr(analysis, "integer_moment_map", counting_map)
    res = isometry_check(cert_p6, trials=25, seed=1)
    assert len(calls) == 1
    assert res.max_rel_residual == Fraction(P6_SEED1_RESIDUAL_NUM, P6_SEED1_RESIDUAL_DEN)


def test_isometry_requires_entries():
    cert = dataclasses.replace(degenerate_cert(), entries=())
    with pytest.raises(DegenerateInputError):
        isometry_check(cert)


# ---------------------------------------------------------------------------
# the C_k bound
# ---------------------------------------------------------------------------

def test_c_k_frozen():
    assert c_k_constant(1) == 1
    assert c_k_constant(2) == 8
    t3 = cm_alpha_table(3)
    want = (
        3 * t3[3][1] + 3 * t3[3][2] + t3[3][3]
    )
    assert c_k_constant(3) == want


def test_c_k_equals_h_at_all_ones():
    for k in range(1, 7):
        ones = (Fraction(1),) * k
        assert c_k_constant(k) == h_vector(ones)[k]


def test_vpl_frozen_k2():
    chk = vpl_check(default_base_point(2))
    assert chk.holds
    with workprec(256):
        lhs_want = to_mpf(Fraction(7, 3)) ** Fraction(1, 4) * (
            (to_mpf(2) ** to_mpf(Fraction(7, 3)) + 10) / 18
        ) ** Fraction(3, 4)
        rhs_want = to_mpf(8) ** Fraction(1, 4)
        assert abs(chk.lhs - lhs_want) < 1e-6
        assert abs(chk.rhs - rhs_want) < 1e-6
        # leading digits, recomputed rather than trusted
        assert abs(chk.lhs - mpmath.mpf("1.080112")) < 1e-5
        assert abs(chk.rhs - mpmath.mpf("1.681793")) < 1e-5


def test_vpl_degenerate_k1_is_equality():
    mass = Fraction(2, 5)
    chk = vpl_check((mass,))
    assert chk.holds
    with workprec(256):
        assert abs(chk.lhs - to_mpf(mass)) < mpmath.mpf(2) ** -120
        assert abs(chk.rhs - to_mpf(mass)) < mpmath.mpf(2) ** -120


def test_vpl_scan():
    for k in range(2, 7):
        chk = vpl_check(default_base_point(k))
        assert chk.holds
        assert chk.lhs < chk.rhs


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------

def two_gen_projection():
    return build_projection(build_span([Fraction(1, 2), Fraction(1, 3)]))


def test_projection_fixes_generators():
    P = two_gen_projection()
    assert P.atom_count == 9 and P.n == 2
    for b in P.basis:
        assert P.apply(b) == tuple(b)


def test_projection_annihilates_constants():
    P = two_gen_projection()
    ones = (Fraction(1),) * P.atom_count
    assert P.apply(ones) == (Fraction(0),) * P.atom_count


def test_projection_kills_squared_generator():
    span = build_span([Fraction(1, 2)])
    P = build_projection(span)
    h_sq = tuple(v * v for v in P.basis[0])
    assert P.apply(h_sq) == (Fraction(0),) * P.atom_count


def test_projection_idempotent_on_indicators():
    P = two_gen_projection()
    for a in range(P.atom_count):
        e = tuple(Fraction(int(t == a)) for t in range(P.atom_count))
        once = P.apply(e)
        assert P.apply(once) == once


def test_projection_l2_contraction():
    P = two_gen_projection()
    rng = random.Random(5)
    for _ in range(50):
        f = tuple(
            Fraction(rng.randint(-100, 100), rng.randint(1, 100))
            for _ in range(P.atom_count)
        )
        pf = P.apply(f)
        assert P.abs_power_moment(pf, 2) <= P.abs_power_moment(f, 2)


def test_projection_cap():
    span = build_span([Fraction(1, 2)] * 10)
    with pytest.raises(CapExceededError):
        build_projection(span)


def test_norm_bound_range_start_is_one():
    span = build_span([Fraction(1, 2)])
    P = build_projection(span)
    with workprec(256):
        est = projection_norm_lower_bound(P, 2, seed=0)
        assert est >= 1
        assert est - 1 < mpmath.mpf(2) ** -100


def test_norm_bound_vs_grid_oracle():
    P = two_gen_projection()
    est = projection_norm_lower_bound(P, 4, seed=0)
    grid = projection_norm_grid_search(P, 4)
    assert est >= 1
    assert abs(float(est) - grid) / grid < 0.01
    with pytest.raises(ValueError):
        projection_norm_grid_search(build_projection(build_span([Fraction(1, 2)])), 4)


@pytest.mark.parametrize(
    "call",
    [
        lambda P: projection_norm_lower_bound(P, 3, seed=0),
        lambda P: projection_norm_grid_search(P, 3),
        lambda P: P.abs_power_moment([Fraction(1)] * P.atom_count, 3),
    ],
    ids=["lower bound", "grid search", "abs_power_moment"],
)
def test_projection_layer_rejects_odd_p(call):
    # the counterexamples live at even p only; the projection layer takes no other order
    with pytest.raises(ValueError, match="even integer"):
        call(two_gen_projection())


# non-dyadic atom probabilities: the two roundings of a probability differ
NON_DYADIC_MASSES = [
    (Fraction(1, 2), Fraction(1, 3)),
    (Fraction(5, 7), Fraction(2, 7), Fraction(1, 3)),
]


def reference_apply(P, f):
    """Pf as sum_i <f, h_i>/||h_i||^2 h_i in Fraction arithmetic."""
    coeffs = [P.inner(f, b) / ns for b, ns in zip(P.basis, P.norms_sq)]
    return tuple(sum((c * b[a] for c, b in zip(coeffs, P.basis)), Fraction(0)) for a in range(P.atom_count))


def random_mpf_vector(rng, size, zeros):
    """mpf entries of mixed magnitude and sign, `zeros` of them exactly 0."""
    f = [mpmath.mpf(rng.uniform(-1, 1)) / 3 * mpmath.mpf(2) ** rng.randint(-30, 30) for _ in range(size)]
    for a in rng.sample(range(size), zeros):
        f[a] = mpmath.mpf(0)
    return f


@pytest.mark.parametrize("masses", NON_DYADIC_MASSES, ids=["1/2,1/3", "5/7,2/7,1/3"])
def test_integer_apply_matches_rational_reference(masses):
    P = build_projection(build_span(masses))
    rng = random.Random(11)
    with workprec(256):
        for trial in range(20):
            f = [Fraction(rng.randint(-100, 100), rng.randint(1, 60)) for _ in range(P.atom_count)]
            assert P.apply(f) == reference_apply(P, f)
            x = random_mpf_vector(rng, P.atom_count, zeros=trial % 3)
            dyadic = [mpf_to_fraction(v) for v in x]
            want = reference_apply(P, dyadic)
            assert P.apply(dyadic) == want
            assert _raw_apply(P, [v._mpf_ for v in x], 256) == tuple(to_mpf(v)._mpf_ for v in want)


@pytest.mark.parametrize("p", [2, 4, 6])
@pytest.mark.parametrize("masses", NON_DYADIC_MASSES, ids=["1/2,1/3", "5/7,2/7,1/3"])
def test_raw_norm_matches_norm(masses, p):
    P = build_projection(build_span(masses))
    norm = _raw_norm(P, p, 256)
    rng = random.Random(p)
    with workprec(256):
        for trial in range(40):
            f = random_mpf_vector(rng, P.atom_count, zeros=trial % 4)
            assert norm([v._mpf_ for v in f]) == P.norm(f, p)._mpf_


def test_per_magnitude_equals_per_atom_map_once_per_magnitude():
    # mixed signs, repeated magnitudes, exact zeros; the probabilities split
    # one magnitude in two
    third = mpmath.mpf(1) / 3
    values = [third, -third, 0, 2 * third, -2 * third, 0, third, -third, -third, 5, 2 * third]
    vec = [to_mpf(v)._mpf_ for v in values]
    magnitudes = {abs(v) for v in values}
    probs = [from_rational(1, d, 256) for d in (4, 4, 2, 8, 8, 2, 4, 4, 16, 32, 8)]
    ints = [3, -3, 0, 10 ** 40, -(10 ** 40), 0, -3, 7]
    calls = []

    def spy(fn):
        def counted(*args):
            calls.append(args)
            return fn(*args)
        return counted

    odd_mpf = [
        lambda v: mpf_div(v, from_rational(7, 3, 256), 256, round_nearest),
        lambda v: mpf_pow_int(v, 3, 256, round_nearest),
    ]
    for fn in odd_mpf:
        calls.clear()
        assert _per_magnitude(spy(fn), vec) == tuple(fn(v) for v in vec)
        assert len(calls) == len(magnitudes)

    def rounded(n):
        return from_rational(n, 3 ** 50, 256, round_nearest)

    calls.clear()
    assert _per_magnitude(spy(rounded), ints) == tuple(rounded(n) for n in ints)
    assert len(calls) == len({abs(n) for n in ints})

    def term(v, pa):
        return mpf_mul(mpf_pow_int(v, 6, 256, round_nearest), pa, 256, round_nearest)

    calls.clear()
    assert _per_magnitude(spy(term), vec, probs) == tuple(term(v, pa) for v, pa in zip(vec, probs))
    assert len(calls) == len({(abs(v), pa) for v, pa in zip(values, probs)}) == len(magnitudes) + 1


def trial_checks_by_fractions(P, trials, seed):
    """The same two verdicts through P.apply and abs_power_moment."""
    rng = random.Random(seed)
    fs = [[Fraction(rng.randint(-100, 100), rng.randint(1, 50)) for _ in P.probs] for _ in range(trials)]
    pairs = [(f, P.apply(f)) for f in fs]
    return (
        all(P.apply(Pf) == Pf for _, Pf in pairs),
        all(P.abs_power_moment(Pf, 2) <= P.abs_power_moment(f, 2) for f, Pf in pairs),
    )


@pytest.mark.parametrize(
    "scale, want",
    # norms_sq scaled by 2 is P/2, by 1/2 is 2P: neither is idempotent, and 2P expands
    [(1, (True, True)), (2, (False, True)), (Fraction(1, 2), (False, False))],
    ids=["P", "P/2", "2P"],
)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_trial_checks_match_the_fraction_formulation(n, scale, want):
    P = build_projection(build_span(default_base_point(max(n, 2)).values[:n]))
    Q = ProjectionOperator(P.probs, P.basis, tuple(scale * ns for ns in P.norms_sq))
    for seed in range(4):
        assert _trial_checks(Q, 20, seed) == trial_checks_by_fractions(Q, 20, seed) == want


@pytest.mark.parametrize(
    "masses, p, seed, want",
    [
        # project --p 6 --n 3 --seed 0
        (
            (Fraction(3, 4), Fraction(1, 2), Fraction(1, 4)), 6, 0,
            (0, 74463078928774523059064894513689887948404508524156127379136282530576170425067, -255, 256),
        ),
        # project --p 4 --n 2 (non-dyadic probabilities)
        (
            (Fraction(2, 3), Fraction(1, 3)), 4, 0,
            (0, 64975984750209689446478421705877567924565296239869695642858630199332624037883, -255, 256),
        ),
        # project --p 8 --n 3 --seed 2
        (
            (Fraction(3, 4), Fraction(1, 2), Fraction(1, 4)), 8, 2,
            (0, 79979414414801889572905995951455296971480788884110164009426379139119985148127, -255, 256),
        ),
        # project --p 4 --n 2 --seed 5
        (
            (Fraction(2, 3), Fraction(1, 3)), 4, 5,
            (0, 16242330271692142052388046822908103530047111427882953907261641099789978349197, -253, 254),
        ),
    ],
    ids=["p6 n3", "p4 n2", "p8 n3 seed2", "p4 n2 seed5"],
)
def test_norm_bound_pinned(masses, p, seed, want, monkeypatch):
    # the first two were recorded with the serial Fraction round-trip
    # ascent, the last two with the raw ascent before its climbs shared
    # antipodal atoms; it must match bit for bit on any number of workers
    P = build_projection(build_span(masses))
    for workers in (1, 2, 5):
        monkeypatch.setattr(analysis, "_cpu_count", lambda: workers)
        assert projection_norm_lower_bound(P, p, seed=seed)._mpf_ == want


def test_norm_bound_leaves_no_workers_and_matches_serial(monkeypatch):
    made = []
    pool = multiprocessing.context.BaseContext.Pool
    monkeypatch.setattr(
        multiprocessing.context.BaseContext, "Pool", lambda ctx, *args: made.append(args) or pool(ctx, *args)
    )
    P = build_projection(build_span(NON_DYADIC_MASSES[1]))
    monkeypatch.setattr(analysis, "_cpu_count", lambda: 13)
    pooled = projection_norm_lower_bound(P, 4, seed=3)
    assert made == [(12,)]  # twelve climbs, so twelve workers
    assert multiprocessing.active_children() == []
    monkeypatch.setattr(analysis, "_cpu_count", lambda: 1)
    assert projection_norm_lower_bound(P, 4, seed=3)._mpf_ == pooled._mpf_


def test_cpu_count_reads_the_affinity_mask(monkeypatch):
    # `taskset -c 0` confines the ascent to one worker through this mask;
    # every other test sets the count itself
    if hasattr(os, "sched_getaffinity"):
        assert analysis._cpu_count() == len(os.sched_getaffinity(0))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    assert analysis._cpu_count() == 3


def bound_in_daemon(_):
    P = build_projection(build_span(NON_DYADIC_MASSES[0]))
    return projection_norm_lower_bound(P, 4, seed=0)._mpf_


def test_norm_bound_runs_serially_inside_a_pool_worker():
    # a daemonic worker may not fork children of its own
    with multiprocessing.get_context("fork").Pool(1) as pool:
        inside = pool.map(bound_in_daemon, [0])[0]
    assert inside == bound_in_daemon(0)


def test_norm_bound_does_not_fork_beside_other_threads(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("forked a pool while another thread ran")

    P = build_projection(build_span(NON_DYADIC_MASSES[0]))
    monkeypatch.setattr(analysis, "_cpu_count", lambda: 1)
    serial = projection_norm_lower_bound(P, 4, seed=0)._mpf_
    monkeypatch.setattr(multiprocessing.context.BaseContext, "Pool", no_pool)
    monkeypatch.setattr(analysis, "_cpu_count", lambda: 2)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait, args=(10,))
    waiter.start()
    try:
        beside = projection_norm_lower_bound(P, 4, seed=0)._mpf_
    finally:
        release.set()
        waiter.join(10)
    assert not waiter.is_alive()
    assert beside == serial


# ---------------------------------------------------------------------------
# weight-sequence certificate
# ---------------------------------------------------------------------------

def synthetic_cert(p, delta, nus, mu=None):
    k = p // 2
    mu_bar = default_base_point(k)
    real = ball_params(mu_bar)
    ball = BallParams(
        mu_bar=mu_bar, eps_bar=real.eps_bar, eps=real.eps,
        M=real.M, eps0=Fraction(delta), delta=Fraction(delta),
    )
    entries = tuple(
        CertEntry(
            j=j, nu=Fraction(nu), mu=mu or tuple(mu_bar.values),
            residuals=(Fraction(0),) * k, jac_det=Fraction(1), newton_iters=0,
        )
        for j, nu in nus
    )
    return ConstructionCertificate(
        p=p, precision_bits=256, nu_fraction=Fraction(3, 4),
        ball=ball, target=target_h(mu_bar), entries=entries,
    )


def test_uncomplemented_worked_example():
    # p = 6, delta = 1/10, nu_j = 0.075 j^-4: w_j^3 = nu_j^(-1/2) j^-3
    # = sqrt(40/3) / j > sqrt(10) / j, so partial sums beat sqrt(10) H_N
    delta = Fraction(1, 10)
    nus = [(j, Fraction(3, 40) / j ** 4) for j in range(1, 13)]
    uc = uncomplemented_certificate(synthetic_cert(6, delta, nus))
    du = uncomplemented_to_dict(uc, 256)
    assert uc.valid and not uc.offending_js
    assert all(r.bracket_ok for r in uc.rows) and all(row["bounds_ok"] for row in du["rows"])
    assert uc.divergence_certified
    assert uc.comparator_exponent == 1
    with workprec(256):
        assert abs(parse_real(du["comparator_constant"], 256) ** 2 - 10) < mpmath.mpf(2) ** -120
        for row in du["rows"]:
            w, w_lower, w_upper = (parse_real(row[key], 256) for key in ("w", "w_lower", "w_upper"))
            assert w ** 3 > mpmath.sqrt(10) / row["j"]
            assert w_lower < w < w_upper
    assert float(du["comparator_partial_sum"]) > float(du["comparator_reference"])
    assert float(du["comparator_reference"]) == pytest.approx(math.log(10 ** 6))


def test_uncomplemented_p6_real_certificate(cert_p6):
    uc = uncomplemented_certificate(cert_p6)
    assert uc.valid and uc.divergence_certified
    # sum nu_j is bounded by partial + integral tail, a finite total
    assert uc.sum_nu_total_bound == uc.sum_nu_partial + uc.sum_nu_tail_bound
    assert uc.sum_nu_total_bound < 1
    constant = uncomplemented_to_dict(uc, 256)["comparator_constant"]
    with workprec(256):
        assert abs(parse_real(constant, 256) ** 2 - 3080) < mpmath.mpf(2) ** -110
    assert "divergence certified" in uc.divergence_note


def test_uncomplemented_p4_defers(cert_p4):
    uc = uncomplemented_certificate(cert_p4)
    assert uc.valid  # brackets hold; only the divergence verdict is withheld
    assert not uc.divergence_certified
    assert uc.comparator_exponent == 2
    assert "divergence not certified by this comparator" in uc.divergence_note
    assert "j^(-3/2)" in uc.divergence_note
    assert "not automated" in uc.divergence_note
    assert "typo" in uncomplemented_to_dict(uc, 256)["typo_note"]


def test_uncomplemented_p8_exponent():
    ball_mu = default_base_point(4)
    delta = ball_params(ball_mu).delta
    nus = [(j, Fraction(3, 4) * delta / j ** 6) for j in range(1, 7)]
    uc = uncomplemented_certificate(synthetic_cert(8, delta, nus))
    assert uc.comparator_exponent == Fraction(2, 3)
    assert uc.divergence_certified
    du = uncomplemented_to_dict(uc, 256)
    assert float(du["comparator_partial_sum"]) > float(du["comparator_reference"])


def exact(value) -> bool:
    if type(value) is tuple:
        return all(map(exact, value))
    return type(value) in (int, bool, str, Fraction)


@pytest.mark.parametrize("p", [4, 6, 8])
def test_weight_certificate_is_exact(small_certs, p):
    # the verdict rests on exact facts; mpf weights and float sums are the payload's
    uc = uncomplemented_certificate(small_certs[p])
    inexact = [
        (f.name, getattr(obj, f.name))
        for obj in (uc, *uc.rows)
        for f in dataclasses.fields(obj)
        if f.name != "rows" and not exact(getattr(obj, f.name))
    ]
    assert inexact == []
    assert uc.rows and all(type(r) is analysis.UncomplementedRow for r in uc.rows)


def weight_bound_holds(p, j, delta, nu) -> bool:
    """The weight bound as once checked on p-th powers: (1/delta) j^-2 < w_j^p < (2/delta) j^-2."""
    w_p = 1 / (nu * Fraction(j) ** p)
    return (1 / delta) / j ** 2 < w_p < (2 / delta) / j ** 2


@st.composite
def bracket_cases(draw):
    """(p, delta, [(j, nu)]) with each nu at an end of its bracket, near it, or anywhere positive."""
    p = 2 * draw(st.integers(min_value=2, max_value=8))
    delta = draw(st.fractions(min_value=0, max_value=4, max_denominator=10 ** 6).filter(bool))
    js = draw(st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=8, unique=True))
    entries = []
    for j in js:
        lower, upper = delta / 2 / Fraction(j) ** (p - 2), delta / Fraction(j) ** (p - 2)
        nu = draw(
            st.sampled_from([lower, upper])
            | st.fractions(min_value=lower / 2, max_value=2 * upper)
            | st.fractions(min_value=0, max_value=10).filter(bool)
        )
        entries.append((j, nu))
    return p, delta, entries


@settings(max_examples=200, deadline=None)
@given(case=bracket_cases())
def test_bracket_decides_the_weight_bound(cert_p4, case):
    # the certificate decides each entry by the nu bracket alone; the old
    # p-th-power weight comparison stays here as the oracle it must equal
    p, delta, entries = case
    cert = dataclasses.replace(
        cert_p4,
        p=p,
        ball=dataclasses.replace(cert_p4.ball, delta=delta),
        entries=tuple(dataclasses.replace(cert_p4.entries[0], j=j, nu=nu) for j, nu in entries),
    )
    uc = uncomplemented_certificate(cert)
    expected = [weight_bound_holds(p, j, delta, nu) for j, nu in entries]
    assert [r.bracket_ok for r in uc.rows] == expected
    assert uc.offending_js == tuple(j for (j, _), ok in zip(entries, expected) if not ok)


def test_uncomplemented_flags_bracket_violation(cert_p6):
    bad = dataclasses.replace(
        cert_p6.entries[2], nu=cert_p6.ball.delta / Fraction(3) ** 4 * 2
    )
    entries = list(cert_p6.entries)
    entries[2] = bad
    cert = dataclasses.replace(cert_p6, entries=tuple(entries))
    uc = uncomplemented_certificate(cert)
    assert not uc.valid
    assert uc.offending_js == (3,)
    assert not uc.rows[2].bracket_ok


# ---------------------------------------------------------------------------
# the verifier
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_cert_dict():
    return cert_to_dict(construct_pair(6, 4, 256))


def test_verify_certificate_passes_honest_certificate(small_cert_dict):
    report = verify_certificate(cert_from_dict(small_cert_dict), trials=3)
    assert report.passed
    assert report.checks[0][0] == "target moments match the base point"
    assert len(report.checks) == 10
    assert report.isometry.trials == 3 and report.weights.valid


BALL_FIELDS = ("eps_bar", "eps", "M", "eps0", "delta")
MUTATIONS = BALL_FIELDS + (
    "mu_bar", "target", "nu", "mu", "residuals", "j", "failed_js", "drop", "k", "p", "precision_bits",
)


def _times(text, r):
    return frac_to_str(Fraction(text) * r)


def _mutate(d, field, i, r):
    """Edit one field that verify rechecks; "drop" spares the top scale (no j_max is stored)."""
    entry = d["entries"][i % len(d["entries"])]
    slot = i % d["k"]
    if field in BALL_FIELDS:
        d["ball"][field] = _times(d["ball"][field], r)
    elif field == "mu_bar":
        d["ball"]["mu_bar"][slot] = _times(d["ball"]["mu_bar"][slot], r)
    elif field == "target":
        d["target"][slot] = _times(d["target"][slot], r)
    elif field == "nu":
        entry["nu"] = _times(entry["nu"], r)
    elif field == "mu":
        prec = d["precision_bits"]
        entry["mu"][slot] = real_to_str(mpf_to_fraction(parse_real(entry["mu"][slot], prec)) * r, prec)
    elif field == "residuals":
        # far below the tolerance: only the honesty check can see it
        entry["residuals"][slot] = frac_to_str(Fraction(entry["residuals"][slot]) + r / 2 ** 300)
    elif field == "j":
        entry["j"] += 1 + i % 5
    elif field == "failed_js":
        d["failed_js"].append(1 + i % 8)
    elif field == "drop":
        del d["entries"][i % (len(d["entries"]) - 1)]
    elif field == "k":
        d["k"] += 1 if i % 2 else -1
    elif field == "p":
        d["p"] += 2 if i % 2 else -1
    else:
        d["precision_bits"] = (128, 192, 384, 512)[i % 4]


@settings(max_examples=40, deadline=None)
@given(
    field=st.sampled_from(MUTATIONS),
    i=st.integers(0, 11),
    r=st.fractions(Fraction(1, 40), 40, max_denominator=40).filter(lambda r: r != 1),
)
def test_single_field_mutation_never_passes(small_cert_dict, field, i, r):
    d = cert_to_dict(cert_from_dict(small_cert_dict))
    _mutate(d, field, i, r)
    assert d != small_cert_dict
    try:
        cert = cert_from_dict(d)
    except SchemaError:
        return
    assert not verify_certificate(cert, trials=2).passed
