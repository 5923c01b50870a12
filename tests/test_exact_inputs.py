"""One exactness rule at every exact entry point, and one rule per scale check.

numeric.as_rational takes an int or a Fraction and nothing else; each
boundary below goes through it, so a float, a bool, an mpf, a string or a
Decimal raises TypeError instead of becoming a binary expansion or a
parsed rational.  The conversion the other way, numeric.mpf_to_fraction,
takes an mpf and nothing else.
"""

from decimal import Decimal
from fractions import Fraction

import mpmath
import pytest

from lp_isoforge import solver
from lp_isoforge.analysis import build_projection, vpl_check
from lp_isoforge.momentpoly import (
    MuVector,
    grad_table,
    h_vector,
    jacobian_F,
    mass_polynomial,
    moment_vector_F,
)
from lp_isoforge.moments import (
    DiscreteDistribution,
    IndependentSumSpec,
    SymmetricAtomVariable,
    abs_moment,
    fold_even_moments,
)
from lp_isoforge.numeric import as_rational, count_real_roots, det_exact, mpf_to_fraction
from lp_isoforge.p4 import match_three_valued
from lp_isoforge.solver import (
    HValues,
    ball_params,
    closed_form_k2,
    construct_pair,
    default_base_point,
    nu_schedule_value,
    solve_mu,
    target_h,
    validate_nu_fraction,
)

MU2 = default_base_point(2)
TARGET2 = target_h(MU2)
HALF = Fraction(1, 2)
DIST = DiscreteDistribution(((Fraction(-1), HALF), (Fraction(1), HALF)))
PROJ = build_projection([IndependentSumSpec([SymmetricAtomVariable(1, HALF)])])

BOUNDARIES = {
    "as_rational": lambda x: as_rational(x),
    "MuVector": lambda x: MuVector((x,)),
    "SymmetricAtomVariable.scale": lambda x: SymmetricAtomVariable(x, HALF),
    "SymmetricAtomVariable.mass": lambda x: SymmetricAtomVariable(Fraction(1), x),
    "DiscreteDistribution.value": lambda x: DiscreteDistribution(((x, Fraction(1)),)),
    "DiscreteDistribution.prob": lambda x: DiscreteDistribution(((Fraction(0), x), (Fraction(1), HALF))),
    "abs_moment.r": lambda x: abs_moment(DIST, x),
    "fold_even_moments.entry": lambda x: fold_even_moments([[Fraction(1), x]]),
    "HValues": lambda x: HValues((x, Fraction(1))),
    "validate_nu_fraction": lambda x: validate_nu_fraction(x),
    "solve_mu.nu": lambda x: solve_mu(1, x, TARGET2, MU2),
    "solve_mu.init": lambda x: solve_mu(1, Fraction(0), TARGET2, (x, Fraction(1, 3))),
    "closed_form_k2.nu": lambda x: closed_form_k2(1, x, TARGET2),
    "h_vector.mu": lambda x: h_vector((x, HALF)),
    "grad_table.mu": lambda x: grad_table((x, HALF)),
    "moment_vector_F.mu": lambda x: moment_vector_F(1, (x, HALF), HALF),
    "moment_vector_F.nu": lambda x: moment_vector_F(1, MU2.values, x),
    "jacobian_F.mu": lambda x: jacobian_F(1, (x, HALF), HALF),
    "jacobian_F.nu": lambda x: jacobian_F(1, MU2.values, x),
    "mass_polynomial.nu": lambda x: mass_polynomial(1, x, TARGET2.values),
    "mass_polynomial.target": lambda x: mass_polynomial(1, Fraction(0), (x, Fraction(1))),
    "vpl_check": lambda x: vpl_check((x,)),
    "match_three_valued.A": lambda x: match_three_valued(x, HALF),
    "match_three_valued.B": lambda x: match_three_valued(HALF, x),
    "count_real_roots.coeffs": lambda x: count_real_roots([1, x], -1, 1),
    "count_real_roots.lo": lambda x: count_real_roots([1, -1], x, 1),
    "count_real_roots.hi": lambda x: count_real_roots([1, -1], 0, x),
    "ProjectionOperator.apply": lambda x: PROJ.apply([x] * PROJ.atom_count),
    "det_exact": lambda x: det_exact([[x, 1], [1, 2]]),
}
INEXACT = {
    "float": 0.5,
    "bool": True,
    "mpf": mpmath.mpf(0.5),
    "str": "1/2",
    "Decimal": Decimal("0.5"),
}


@pytest.mark.parametrize("value", INEXACT.values(), ids=INEXACT.keys())
@pytest.mark.parametrize("boundary", BOUNDARIES.values(), ids=BOUNDARIES.keys())
def test_exact_boundaries_reject_inexact_inputs(boundary, value):
    with pytest.raises(TypeError):
        boundary(value)


# mpf_to_fraction's own input is the mpf; the exact values are refused too
NOT_MPF = {**{name: x for name, x in INEXACT.items() if name != "mpf"}, "int": 1, "Fraction": HALF}


@pytest.mark.parametrize("value", NOT_MPF.values(), ids=NOT_MPF.keys())
def test_mpf_to_fraction_rejects_anything_but_an_mpf(value):
    with pytest.raises(TypeError):
        mpf_to_fraction(value)


def test_as_rational_passes_exact_values():
    q = Fraction(3, 7)
    assert as_rational(q) is q
    assert as_rational(-4) == Fraction(-4) and type(as_rational(-4)) is Fraction


SCALE_RULES = {
    "closed_form_k2 j = 0": lambda: closed_form_k2(0, Fraction(1, 100), TARGET2),
    "closed_form_k2 nu > 1": lambda: closed_form_k2(1, Fraction(2), TARGET2),
    "nu_schedule_value j = 1.5": lambda: nu_schedule_value(ball_params(MU2), 1.5),
    "nu_schedule_value j = True": lambda: nu_schedule_value(ball_params(MU2), True),
    "solve_mu j = 0": lambda: solve_mu(0, Fraction(0), TARGET2, MU2),
    "jacobian_F nu > 1": lambda: jacobian_F(1, MU2.values, Fraction(2)),
}


@pytest.mark.parametrize("call", SCALE_RULES.values(), ids=SCALE_RULES.keys())
def test_scale_rules_raise_value_error(call):
    # the rule itself, not a solver error (every package error is a ValueError)
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError


def test_construct_pair_checks_nu_fraction_before_any_work(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("construct_pair did work before checking nu_fraction")

    monkeypatch.setattr(solver, "ball_params", forbidden)
    monkeypatch.setattr(solver, "solve_mu", forbidden)
    with pytest.raises(TypeError):
        construct_pair(4, 1, nu_fraction=0.7)
    with pytest.raises(ValueError):
        construct_pair(4, 1, nu_fraction=Fraction(1, 3))
