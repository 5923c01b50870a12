"""A generic copy of the moment-polynomial formulas, for the tests only.

`lp_isoforge.momentpoly` takes exact inputs only and computes on integer
rows.  These functions are the older scalar-generic form of the same
formulas: they evaluate in whatever scalar type they receive, exactly on
Fractions and in the active mpmath precision on mpf.  They serve two
checks:

* on mpf inside ``workprec``, every operation here is the one the
  solver's (m, e) kernel (`solver._RawSystem`) must round bit for bit;
* on Fractions, the integer-row functions of `momentpoly` must equal them.

Keep the operands and their order as they are: the mpf check depends on
them.
"""

import math
from fractions import Fraction

from lp_isoforge.momentpoly import JacobianF, cm_alpha_table, validate_scale


def elem_sym_all(values: tuple) -> list:
    """[e_0, e_1, ..., e_k] by the product recurrence, one pass."""
    e = [Fraction(1)] + [Fraction(0)] * len(values)
    top = 0
    for v in values:
        top += 1
        for a in range(top, 0, -1):
            e[a] = e[a] + v * e[a - 1]
    return e


def excl_row(values: tuple, beta: int, e: list) -> list:
    """[P_{beta,0}, ..., P_{beta,k-1}] sharing one e-table."""
    mu_beta = values[beta - 1]
    row = [Fraction(1)]
    for alpha in range(1, len(values)):
        # recurrence P_{beta,alpha} = e_alpha - mu_beta * P_{beta,alpha-1}
        row.append(e[alpha] - mu_beta * row[alpha - 1])
    return row


def h_from(e: list, C: tuple) -> list:
    return [Fraction(1)] + [
        sum((C[m][a] * e[a] for a in range(1, m + 1)), Fraction(0)) for m in range(1, len(C))
    ]


def grad_from(values: tuple, e: list, C: tuple) -> list:
    excl = [excl_row(values, beta, e) for beta in range(1, len(values) + 1)]
    return [[Fraction(0)] * len(values)] + [
        [sum((C[m][a] * row[a - 1] for a in range(1, m + 1)), Fraction(0)) for row in excl]
        for m in range(1, len(C))
    ]


def h_vector(mu) -> list:
    values = tuple(mu)
    return h_from(elem_sym_all(values), cm_alpha_table(len(values)))


def grad_table(mu) -> list:
    values = tuple(mu)
    return grad_from(values, elem_sym_all(values), cm_alpha_table(len(values)))


def moment_vector_F(j: int, mu, nu) -> tuple:
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


def jacobian_F(j: int, mu, nu) -> JacobianF:
    validate_scale(j, nu)
    values = tuple(mu)
    k = len(values)
    C = cm_alpha_table(k)
    e = elem_sym_all(values)
    gradH = grad_from(values, e, C)
    hvals = h_from(e, C)
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
