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
integer pairs instead (`solver._RawSystem`); its bit-for-bit oracle is a
generic mpf copy of these formulas that the tests keep.

Every function is exact and takes exact inputs only: masses, nu and
targets pass `numeric.as_rational`, so a float, a bool or an mpf raises
TypeError, and `validate_scale` checks every j and nu.  The work is on
integer rows: the masses are integers n_i over their lcm D, so
e_alpha = E_alpha / D^alpha with E the elementary symmetric functions of
n, H_m D^m and dH_m/dmu_beta D^(m-1) are integers, the extra atom's sum is
one helper (`_shift`) shared by F, its Jacobian and `mass_polynomial`,
and each output entry is one Fraction built at the end.  None takes the
order k: it is the number of masses (of targets, for `mass_polynomial`),
and each call builds its own C_{m,alpha} table with `cm_alpha_table(k)`:
a plain triangular tuple C of integers, C[m][alpha] = C_{m,alpha} for
0 <= alpha <= m <= k, so the determinant constant is
math.prod(C[m][m] for m = 1..k).
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


def validate_scale(j: int, nu=None):
    """The scale rules of F^(j): j a positive integer and, if given, nu in [0, 1], uncoerced; returns nu."""
    if type(j) is not int or j < 1:
        raise ValueError(f"j must be a positive integer, got {j!r}")
    if nu is not None and not 0 <= nu <= 1:
        raise ValueError(f"nu must lie in [0, 1], got {nu}")
    return nu


def _shift(rows: list, w: int) -> list:
    """The extra atom's sum, entrywise: out[m] = sum_{l=1..m} binom(2m, 2l) w^l rows[m-l].

    With rows = H and w = j^2, nu * out[m] is what an extra atom of scale j
    and mass nu adds to H_m; rows scaled by D^m (or D^(m-1)) take w = j^2 D.
    """
    out = []
    for m in range(len(rows)):
        acc = [0] * len(rows[0])
        for l in range(1, m + 1):
            c = math.comb(2 * m, 2 * l) * w ** l
            acc = [s + c * r for s, r in zip(acc, rows[m - l])]
        out.append(acc)
    return out


def mass_polynomial(j: int, nu, target) -> tuple:
    """Coefficients (1, -e_1, e_2, ..., (-1)^k e_k) of P_j(x) = prod_i (x - mu_i), exact.

    F_m^(j)(mu, nu) = T_m reads sum_{alpha <= m} a_{m,alpha} e_alpha(mu)
    = T_m with e_0 = 1 and a = C + nu _shift(C, j^2), so a_{m,0} = nu j^(2m).
    The system is triangular and a_{m,m} = C_{m,m} != 0, so forward
    substitution gives the unique e^(j) = (e_1, ..., e_k): mu solves the
    scale-j system exactly when its masses are the k = len(target) roots
    of P_j, highest degree first here.
    """
    nu = validate_scale(j, as_rational(nu))
    target = tuple(as_rational(t) for t in target)
    k = len(target)
    C = cm_alpha_table(k)
    S = _shift([row + (0,) * (k + 1 - len(row)) for row in C], j * j)
    e = [Fraction(1)]
    for m in range(1, k + 1):
        acc = target[m - 1] - sum((C[m][a] + nu * S[m][a]) * e[a] for a in range(m))
        e.append(acc / C[m][m])
    return tuple(-v if alpha % 2 else v for alpha, v in enumerate(e))


def _integer_rows(mu) -> tuple:
    """(C, D, n, E, h): the masses as integers n_i over their lcm D, and h[m] = H_m(mu) D^m.

    E = [E_0, ..., E_k] are the elementary symmetric functions of n, so
    e_alpha(mu) = E_alpha / D^alpha and every h[m] is an integer.
    """
    values = [as_rational(v) for v in mu]
    C = cm_alpha_table(len(values))
    D = math.lcm(*(v.denominator for v in values))
    n = [v.numerator * (D // v.denominator) for v in values]
    E = [1] + [0] * len(n)
    for top, v in enumerate(n, 1):
        for a in range(top, 0, -1):
            E[a] += v * E[a - 1]
    return C, D, n, E, [sum(c * E[a] * D ** (m - a) for a, c in enumerate(C[m])) for m in range(len(C))]


def _grad_rows(C: tuple, D: int, n: list, E: list) -> list:
    """G[m][beta-1] = dH_m/dmu_beta D^(m-1), an integer; row 0 is zero (H_0 = 1).

    The e's without mu_beta scale as E does: Q_alpha = P_{beta,alpha} D^alpha
    follows Q_alpha = E_alpha - n_beta Q_{alpha-1}.
    """
    excl = []
    for v in n:
        q = [1]
        for a in range(1, len(n)):
            q.append(E[a] - v * q[-1])
        excl.append(q)
    return [[0] * len(n)] + [
        [sum(C[m][a] * q[a - 1] * D ** (m - a) for a in range(1, m + 1)) for q in excl] for m in range(1, len(C))
    ]


def h_vector(mu) -> list:
    """[H_0 = 1, H_1, ..., H_k] of the k = len(mu) masses, from one elementary-symmetric table."""
    _, D, _, _, h = _integer_rows(mu)
    return [Fraction(x, D ** m) for m, x in enumerate(h)]


def grad_table(mu) -> list:
    """grad[m][beta-1] = dH_m/dmu_beta for m = 0..k, k = len(mu); row 0 is zero (H_0 = 1)."""
    C, D, n, E, _ = _integer_rows(mu)
    return [[Fraction(g * D, D ** m) for g in row] for m, row in enumerate(_grad_rows(C, D, n, E))]


def moment_vector_F(j: int, mu, nu) -> tuple:
    """(F_1^(j), ..., F_k^(j))(mu, nu): with nu = a/b, F_m b D^m = b h[m] + a _shift(h, j^2 D)[m]."""
    nu = validate_scale(j, as_rational(nu))
    _, D, _, _, h = _integer_rows(mu)
    S = _shift([[x] for x in h], j * j * D)
    a, b = nu.numerator, nu.denominator
    return tuple(Fraction(b * h[m] + a * S[m][0], b * D ** m) for m in range(1, len(h)))


@dataclass(frozen=True)
class JacobianF:
    """Jacobian of (F_1, ..., F_k) at (mu, nu) for a fixed extra scale j.

    `matrix[m-1][beta-1]` is dF_m/dmu_beta and `nu_column[m-1]` is
    dF_m/dnu, every entry an exact Fraction.
    """

    matrix: tuple
    nu_column: tuple

    @property
    def k(self) -> int:
        return len(self.matrix)


def jacobian_F(j: int, mu, nu) -> JacobianF:
    """dF/dmu = G + nu _shift(G) and dF/dnu = _shift(h), G and h the integer rows of one table."""
    nu = validate_scale(j, as_rational(nu))
    C, D, n, E, h = _integer_rows(mu)
    G = _grad_rows(C, D, n, E)
    S = _shift([[x] + g for x, g in zip(h, G)], j * j * D)
    a, b = nu.numerator, nu.denominator
    return JacobianF(
        matrix=tuple(
            tuple(Fraction(b * g + a * s, b * D ** (m - 1)) for g, s in zip(G[m], S[m][1:])) for m in range(1, len(h))
        ),
        nu_column=tuple(Fraction(S[m][0], D ** m) for m in range(1, len(h))),
    )


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
