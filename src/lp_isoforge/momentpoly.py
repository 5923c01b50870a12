"""Moment polynomials of mass vectors, their gradients, and determinants.

For unit-scale symmetric three-valued variables with masses
mu = (mu_1, ..., mu_k) the 2m-th moment of the sum is a polynomial in the
masses alone:

    H_m(mu) = sum_{alpha=1}^{m} C_{m,alpha} * e_alpha(mu),

where e_alpha is the elementary symmetric polynomial and

    C_{m,alpha} = sum_{n_1+...+n_alpha = m, n_i >= 1} (2m)! / prod (2n_i)!

counts ordered ways to distribute the moment order over a support of size
alpha.  (Each variable contributes the same factor mu_i regardless of its
positive exponent, which is why only the support size matters.)  Splitting
off the first part n_1 = n gives the recurrence `cm_alpha_table` uses:

    C_{m,1} = 1,   C_{m,alpha} = sum_{n=1}^{m-alpha+1} binom(2m, 2n) C_{m-n,alpha-1}.

Adding one extra summand of scale j and mass nu perturbs the moment to

    F_m^(j)(mu, nu) = H_m(mu)
        + nu * sum_{l=1}^{m} binom(2m, 2l) j^(2l) H_{m-l}(mu),   H_0 = 1.

Gradients are exact as well: with P_{beta,alpha} the elementary symmetric
polynomial in the masses excluding mu_beta,

    dH_m/dmu_beta = sum_{alpha=1}^{m} C_{m,alpha} * P_{beta,alpha-1}.

At nu = 0 the Jacobian of (F_1, ..., F_k) in mu factors through the
Vandermonde matrix of the masses: a lower-triangular change of basis with
diagonal C_{m,m} * (-1)^(m-1) multiplies V, so

    det J / det V = (-1)^(k(k-1)/2) * prod_{m=1}^{k} C_{m,m}

identically in mu.  `vandermonde_check` computes both determinants
independently and confirms the ratio, which exercises every coefficient
of the gradient layer at once.

The same triangular structure makes F^(j)(mu, nu) = T solvable in the
elementary symmetric functions by forward substitution:
`mass_polynomial` returns the exact P_j(x) = prod_i (x - mu_i) whose roots
are the only candidate masses at scale j.

The layer exports whole tables, not single entries: `h_vector` gives
[1, H_1, ..., H_k] and `grad_table` every dH_m/dmu_beta, each built from
one elementary-symmetric table of the masses.  F, the Jacobian and the
solver's targets and gradient bound are all reads of these two tables.
The solver's Newton iteration evaluates F and the Jacobian on (m, e)
integer pairs instead (`solver._RawSystem`); on mpf inputs the functions
here are its bit-for-bit oracle in the tests.

All functions evaluate exactly on Fraction inputs and in the active
mpmath precision on mpf inputs, except `mass_polynomial` and
`vandermonde_check`, which take rationals only; `validate_scale` checks
every j and nu.  None takes the order k: it is the number of masses (of
targets, for `mass_polynomial`), and each call builds its own C_{m,alpha}
table with `cm_alpha_table(k)`: a plain triangular tuple C of integers,
C[m][alpha] = C_{m,alpha} for 0 <= alpha <= m <= k, so the determinant
constant is math.prod(C[m][m] for m = 1..k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DegenerateInputError, SingularJacobianError
from .numeric import as_rational, det_exact

__all__ = [
    "MuVector",
    "JacobianF",
    "VandermondeCheck",
    "cm_alpha_table",
    "strictly_decreasing",
    "validate_scale",
    "mass_polynomial",
    "h_vector",
    "grad_table",
    "moment_vector_F",
    "jacobian_F",
    "vandermonde_check",
]


def cm_alpha_table(k: int) -> tuple:
    """The triangle C with C[m][alpha] = C_{m,alpha} for 0 <= alpha <= m <= k.

    The alpha = 0 column holds its true values, C_{0,0} = 1 and
    C_{m,0} = 0 for m >= 1 (m >= 1 has no composition into zero parts).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    C = [(1,)]
    for m in range(1, k + 1):
        row = [0, 1]
        for alpha in range(2, m + 1):
            row.append(sum(math.comb(2 * m, 2 * n) * C[m - n][alpha - 1] for n in range(1, m - alpha + 2)))
        C.append(tuple(row))
    return tuple(C)


def strictly_decreasing(values) -> bool:
    """Whether values[0] > values[1] > ... > values[-1]: the one ordering test of mass vectors."""
    return all(a > b for a, b in zip(values, values[1:]))


@dataclass(frozen=True)
class MuVector:
    """Mass vector mu_1, ..., mu_k, each an exact rational in (0, 1].

    The masses pass `numeric.as_rational`, so a float, an mpf, a bool or a
    string raises TypeError and every mass vector can be rechecked exactly.
    Solver roots enter as the exact dyadic values of their binary floats.
    `strictly_decreasing(mu.values)` tells whether mu_1 > mu_2 > ... > mu_k
    holds; most of the solver's theory needs it, but evaluation does not,
    so it is a test rather than a hard precondition.
    """

    values: tuple

    def __post_init__(self):
        values = tuple(as_rational(v) for v in self.values)
        if not values:
            raise DegenerateInputError("mu vector must be nonempty")
        for v in values:
            if not 0 < v <= 1:
                raise DegenerateInputError(f"masses must lie in (0, 1], got {v}")
        object.__setattr__(self, "values", values)

    @property
    def k(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)


def _elem_sym_all(values: tuple) -> list:
    """[e_0, e_1, ..., e_k] by the product recurrence, one pass, exact."""
    e = [Fraction(1)] + [Fraction(0)] * len(values)
    top = 0
    for v in values:
        top += 1
        for a in range(top, 0, -1):
            e[a] = e[a] + v * e[a - 1]
    return e


def validate_scale(j: int, nu=None):
    """The scale rules of F^(j): j a positive integer and, if given, nu in [0, 1], uncoerced; returns nu."""
    if type(j) is not int or j < 1:
        raise ValueError(f"j must be a positive integer, got {j!r}")
    if nu is not None and not 0 <= nu <= 1:
        raise ValueError(f"nu must lie in [0, 1], got {nu}")
    return nu


def mass_polynomial(j: int, nu, target) -> tuple:
    """Coefficients (1, -e_1, e_2, ..., (-1)^k e_k) of P_j(x) = prod_i (x - mu_i), exact.

    F_m^(j)(mu, nu) = T_m reads sum_{alpha <= m} a_{m,alpha} e_alpha(mu)
    = T_m - nu j^(2m) with a_{m,alpha} = C_{m,alpha} + nu sum_{l=1}^{m-alpha}
    binom(2m,2l) j^(2l) C_{m-l,alpha}.  The system is triangular and
    a_{m,m} = C_{m,m} != 0, so forward substitution gives the unique
    e^(j) = (e_1, ..., e_k): mu solves the scale-j system exactly when its
    masses are the k = len(target) roots of P_j, highest degree first here.
    """
    nu = validate_scale(j, as_rational(nu))
    target = tuple(as_rational(t) for t in target)
    k = len(target)
    C = cm_alpha_table(k)
    jsq = j * j
    e = [Fraction(1)]
    for m in range(1, k + 1):
        acc = target[m - 1] - nu * jsq ** m
        for alpha in range(1, m):
            a = C[m][alpha] + nu * sum(
                math.comb(2 * m, 2 * l) * jsq ** l * C[m - l][alpha] for l in range(1, m - alpha + 1)
            )
            acc -= a * e[alpha]
        e.append(acc / C[m][m])
    return tuple(-v if alpha % 2 else v for alpha, v in enumerate(e))


def _excl_row(values: tuple, beta: int, e: list) -> list:
    """[P_{beta,0}, ..., P_{beta,k-1}] sharing one e-table."""
    mu_beta = values[beta - 1]
    row = [Fraction(1)]
    for alpha in range(1, len(values)):
        # recurrence P_{beta,alpha} = e_alpha - mu_beta * P_{beta,alpha-1}
        row.append(e[alpha] - mu_beta * row[alpha - 1])
    return row


def _h_from(e: list, C: tuple) -> list:
    return [Fraction(1)] + [
        sum((C[m][a] * e[a] for a in range(1, m + 1)), Fraction(0)) for m in range(1, len(C))
    ]


def _grad_from(values: tuple, e: list, C: tuple) -> list:
    excl = [_excl_row(values, beta, e) for beta in range(1, len(values) + 1)]
    return [[Fraction(0)] * len(values)] + [
        [sum((C[m][a] * row[a - 1] for a in range(1, m + 1)), Fraction(0)) for row in excl]
        for m in range(1, len(C))
    ]


def h_vector(mu) -> list:
    """[H_0 = 1, H_1, ..., H_k] of the k = len(mu) masses, from one elementary-symmetric table."""
    values = tuple(mu)
    return _h_from(_elem_sym_all(values), cm_alpha_table(len(values)))


def grad_table(mu) -> list:
    """grad[m][beta-1] = dH_m/dmu_beta for m = 0..k, k = len(mu); row 0 is zero (H_0 = 1)."""
    values = tuple(mu)
    return _grad_from(values, _elem_sym_all(values), cm_alpha_table(len(values)))


def moment_vector_F(j: int, mu, nu) -> tuple:
    """(F_1^(j), ..., F_k^(j))(mu, nu), every F_m read from one H vector."""
    validate_scale(j, nu)
    h = h_vector(mu)
    jsq = j * j
    out = []
    for m in range(1, len(h)):
        acc = h[m]
        jpow = 1
        for l in range(1, m + 1):
            jpow *= jsq
            acc = acc + nu * math.comb(2 * m, 2 * l) * jpow * h[m - l]
        out.append(acc)
    return tuple(out)


@dataclass(frozen=True)
class JacobianF:
    """Jacobian of (F_1, ..., F_k) at (mu, nu) for a fixed extra scale j.

    `matrix[m-1][beta-1]` is dF_m/dmu_beta and `nu_column[m-1]` is
    dF_m/dnu.  Entries share the scalar type of the inputs.
    """

    matrix: tuple
    nu_column: tuple

    @property
    def k(self) -> int:
        return len(self.matrix)


def jacobian_F(j: int, mu, nu) -> JacobianF:
    validate_scale(j, nu)
    values = tuple(mu)
    k = len(values)
    C = cm_alpha_table(k)
    # one elementary-symmetric table serves both H and its gradient
    e = _elem_sym_all(values)
    gradH = _grad_from(values, e, C)
    hvals = _h_from(e, C)
    jsq = j * j
    matrix = []
    nu_column = []
    for m in range(1, k + 1):
        row = list(gradH[m])
        dnu = Fraction(0)
        jpow = 1
        for l in range(1, m + 1):
            jpow *= jsq
            c = math.comb(2 * m, 2 * l)
            dnu = dnu + c * jpow * hvals[m - l]
            if m - l >= 1:
                for b in range(k):
                    row[b] = row[b] + nu * c * jpow * gradH[m - l][b]
        matrix.append(tuple(row))
        nu_column.append(dnu)
    return JacobianF(matrix=tuple(matrix), nu_column=tuple(nu_column))


@dataclass(frozen=True)
class VandermondeCheck:
    det_jacobian: Fraction
    det_vandermonde: Fraction
    ratio: Fraction
    expected_magnitude: int


def vandermonde_check(mu) -> VandermondeCheck:
    """det J(mu, nu=0) against the Vandermonde determinant of the masses, exactly.

    Requires rational, strictly decreasing masses (the Vandermonde factor
    pairs are then nonzero).
    """
    values = tuple(mu)
    k = len(values)
    if not strictly_decreasing(values):
        raise DegenerateInputError("mu must be strictly decreasing for this check")
    det_j = det_exact(jacobian_F(1, values, Fraction(0)).matrix)
    det_v = Fraction(1)
    for i in range(k):
        for jj in range(i + 1, k):
            det_v *= values[jj] - values[i]
    if det_j == 0:
        raise SingularJacobianError("exact Jacobian determinant is zero")
    C = cm_alpha_table(k)
    return VandermondeCheck(det_j, det_v, det_j / det_v, math.prod(C[m][m] for m in range(1, k + 1)))
