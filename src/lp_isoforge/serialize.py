"""Bit-faithful JSON for certificates and reports.

Conventions, fixed across every writer in the package:

* rationals serialize as "num/den" strings, reals as decimal strings
  carrying the full working precision: `real_to_str` writes enough digits
  that `parse_real` at the same precision reads back the identical
  binary float, so a certificate survives platforms and JSON libraries
  intact;
* key order is fixed by construction, output is `indent=2` with a
  trailing newline and carries no timestamps, so identical runs produce
  byte-identical files;
* certificates carry the schema id "lp-isoforge-cert/1"; `cert_from_dict`
  is the one reader and validator: it checks each field as it parses it
  and raises SchemaError naming the field.  It reads each real at the
  certificate's precision and converts each mass once, on entry, to the
  exact dyadic rational of that float; only jac_det stays a float.

This module is the package's one reader of input files: certificates and
the moment spec files of `load_moment_spec`.  `uncomplemented_to_dict`
computes the display values the exact weight certificate does not hold.
"""

from __future__ import annotations

import json
import re
from decimal import Decimal
from fractions import Fraction
from functools import cache
from math import log

import mpmath

from .errors import SchemaError
from .momentpoly import MuVector
from .moments import IndependentSumSpec, SymmetricAtomVariable
from .numeric import (
    DEFAULT_PRECISION_BITS,
    MAX_PRECISION_BITS,
    frac_to_str,
    mpf_to_fraction,
    parse_rational,
    parse_real,
    real_to_str,
    to_mpf,
    validate_precision,
    workprec,
)
from .solver import MAX_SCALE, BallParams, CertEntry, ConstructionCertificate, HValues

__all__ = [
    "CERT_SCHEMA_ID",
    "dumps_json",
    "dump_json",
    "load_json",
    "cert_to_dict",
    "cert_from_dict",
    "save_certificate",
    "load_certificate",
    "load_moment_spec",
    "isometry_to_dict",
    "uncomplemented_to_dict",
    "p4_row_to_dict",
    "p4_table_to_dict",
]

CERT_SCHEMA_ID = "lp-isoforge-cert/1"
_COMPARATOR_N = 10 ** 6  # terms in the divergence comparator's float partial sum
# the least mass the reader accepts: a mass's exact rational grows with its
# decimal exponent, and every mass construct writes lies above delta
_MIN_MASS = mpmath.ldexp(1, -MAX_PRECISION_BITS)


def dumps_json(obj) -> str:
    """Canonical rendering: insertion key order, indent 2, one trailing newline."""
    return json.dumps(obj, indent=2, sort_keys=False, ensure_ascii=True) + "\n"


def dump_json(obj, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dumps_json(obj))


def load_json(path) -> dict:
    """Parse a JSON file; unreadable or malformed input surfaces as SchemaError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SchemaError(f"{path}: cannot read: {exc}") from exc
    except ValueError as exc:  # malformed JSON, bad UTF-8, an integer over 4300 digits
        raise SchemaError(f"{path}: not valid JSON: {exc}") from exc


def cert_to_dict(cert: ConstructionCertificate) -> dict:
    prec = cert.precision_bits
    ball = cert.ball
    return {
        "schema": CERT_SCHEMA_ID,
        "p": cert.p,
        "k": cert.k,
        "precision_bits": prec,
        "seed": cert.seed,
        "nu_fraction": frac_to_str(cert.nu_fraction),
        "ball": {
            "mu_bar": [frac_to_str(v) for v in ball.mu_bar],
            "eps_bar": frac_to_str(ball.eps_bar),
            "eps": frac_to_str(ball.eps),
            "M": frac_to_str(ball.M),
            "eps0": frac_to_str(ball.eps0),
            "delta": frac_to_str(ball.delta),
        },
        "target": [frac_to_str(v) for v in cert.target],
        "entries": [
            {
                "j": e.j,
                "nu": frac_to_str(e.nu),
                "mu": [real_to_str(v, prec) for v in e.mu],
                "residuals": [frac_to_str(r) for r in e.residuals],
                "jac_det": real_to_str(e.jac_det, prec),
                "newton_iters": e.newton_iters,
            }
            for e in cert.entries
        ],
        "failed_js": list(cert.failed_js),
    }


_CERT_KEYS = ("schema", "p", "k", "precision_bits", "nu_fraction", "ball", "target", "entries", "failed_js")
_BALL_KEYS = ("mu_bar", "eps_bar", "eps", "M", "eps0", "delta")
_ENTRY_KEYS = ("j", "nu", "mu", "residuals", "jac_det", "newton_iters")
# what frac_to_str writes, denominator nonzero; `$` also matches before a final newline
_FRACTION = re.compile(r"(-?[0-9]+)(?:/(0*[1-9][0-9]*))?$")


def _object(value, name: str, keys: tuple, optional: tuple = ()) -> dict:
    if type(value) is not dict:
        raise SchemaError(f"{name} must be an object")
    missing = [key for key in keys if key not in value]
    unknown = [key for key in value if key not in keys and key not in optional]
    if missing or unknown:
        raise SchemaError(f"{name}: missing keys {missing}, unknown keys {unknown}")
    return value


def _integer(value, name: str, minimum: int | None = None, maximum: int | None = None) -> int:
    # type() rather than isinstance(): JSON true loads as a bool, 6.0 as a float
    if type(value) is int and (minimum is None or value >= minimum) and (maximum is None or value <= maximum):
        return value
    least = "" if minimum is None else f" >= {minimum}"
    most = "" if maximum is None else f" and <= {maximum}"
    # an integer of thousands of digits is named by its size, not spelled out
    got = f"an integer of {value.bit_length()} bits" if type(value) is int and value.bit_length() > 64 else repr(value)
    raise SchemaError(f"{name} must be an integer{least}{most}, got {got}")


def _list(value, name: str, k: int | None = None) -> list:
    if type(value) is not list:
        raise SchemaError(f"{name} must be a list")
    if k is not None and len(value) != k:
        raise SchemaError(f"{name} has length {len(value)}, expected k = {k}")
    return value


def _fraction(value, name: str) -> Fraction:
    match = _FRACTION.match(value) if type(value) is str else None
    if match is None:
        raise SchemaError(f"{name} must be a 'num/den' string with den > 0, got {value!r}")
    num, den = match.groups()
    # through decimal, which has no limit on the number of digits
    return Fraction(int(Decimal(num)), int(Decimal(den or "1")))


def _positive(value, name: str) -> Fraction:
    x = _fraction(value, name)
    if x <= 0:
        raise SchemaError(f"{name} = {x} must be > 0")
    return x


def _checked(name: str, build, *args):
    """build(*args), with the ValueError of a value it rejects raised as SchemaError."""
    try:
        return build(*args)
    except ValueError as exc:
        raise SchemaError(f"{name}: {exc}") from None


def cert_from_dict(data) -> ConstructionCertificate:
    """Rebuild a certificate, checking each field against lp-isoforge-cert/1 as it is parsed.

    Any deviation raises SchemaError naming the field: key sets, types and
    minima, string grammars, p = 2k, vector lengths k, and the domains
    j in [1, MAX_SCALE], mu in [2^-MAX_PRECISION_BITS, 1], nu in (0, 1],
    target > 0 and ball values > 0 (the verifier divides by nu and delta).
    A mass is bounded as a float, before it becomes an exact rational whose
    size grows with its exponent.  Field invariants (ball, brackets, ordering, residual
    size) are the verifier's job: it must be able to load a bad
    certificate in order to reject it.
    """
    _object(data, "certificate", _CERT_KEYS, optional=("seed",))
    if data["schema"] != CERT_SCHEMA_ID:
        raise SchemaError(f"schema is {data['schema']!r}, expected {CERT_SCHEMA_ID!r}")
    p = _integer(data["p"], "p")
    k = _integer(data["k"], "k", 2)
    if p != 2 * k:
        raise SchemaError(f"certificate has p = {p}, k = {k}; p must equal 2k")
    # before any real is parsed: an mpf at 2**40 bits would need about 128 GiB
    prec = _checked("precision_bits", validate_precision, data["precision_bits"])
    seed = data.get("seed")
    if seed is not None:
        _integer(seed, "seed")

    def fractions(value, name):
        return tuple(_fraction(s, f"{name}[{i}]") for i, s in enumerate(_list(value, name, k)))

    def masses(value, name):
        out = []
        for i, s in enumerate(_list(value, name, k)):
            x = _checked(f"{name}[{i}]", parse_real, s, prec)
            if not _MIN_MASS <= x <= 1:
                raise SchemaError(f"{name}[{i}] = {s} lies outside [2^-{MAX_PRECISION_BITS}, 1]")
            out.append(mpf_to_fraction(x))
        return tuple(out)

    ball = _object(data["ball"], "ball", _BALL_KEYS)
    entries = []
    for i, e in enumerate(_list(data["entries"], "entries")):
        _object(e, f"entries[{i}]", _ENTRY_KEYS)
        where = f"entry j={_integer(e['j'], f'entries[{i}].j', 1, MAX_SCALE)}"
        nu = _fraction(e["nu"], f"{where} nu")
        if not 0 < nu <= 1:
            raise SchemaError(f"{where} nu = {nu} lies outside (0, 1]")
        entries.append(
            CertEntry(
                j=e["j"],
                nu=nu,
                mu=_checked(f"{where} mu", MuVector, masses(e["mu"], f"{where} mu")).values,
                residuals=fractions(e["residuals"], f"{where} residuals"),
                jac_det=_checked(f"{where} jac_det", parse_real, e["jac_det"], prec),
                newton_iters=_integer(e["newton_iters"], f"{where} newton_iters", 0),
            )
        )
    return ConstructionCertificate(
        p=p,
        precision_bits=prec,
        nu_fraction=_fraction(data["nu_fraction"], "nu_fraction"),
        ball=BallParams(
            mu_bar=_checked("ball.mu_bar", MuVector, fractions(ball["mu_bar"], "ball.mu_bar")),
            **{key: _positive(ball[key], f"ball.{key}") for key in _BALL_KEYS[1:]},
        ),
        target=_checked("target", HValues, fractions(data["target"], "target")),
        entries=tuple(entries),
        failed_js=tuple(_integer(j, "failed_js item", 1, MAX_SCALE) for j in _list(data["failed_js"], "failed_js")),
        seed=seed,
    )


def save_certificate(cert: ConstructionCertificate, path) -> None:
    dump_json(cert_to_dict(cert), path)


def load_certificate(path) -> ConstructionCertificate:
    return cert_from_dict(load_json(path))


def _rational(value, name: str) -> Fraction:
    # type() rather than isinstance(): JSON true loads as a bool
    if type(value) not in (int, float, str):
        raise SchemaError(f"{name} must be a number or a 'num/den' string")
    try:
        return parse_rational(value)
    except ValueError as exc:
        raise SchemaError(f"{name}: not a rational value: {value!r} ({exc})") from None


# the largest order a moment spec may ask for: the fold costs O(n·k²) exact
# operations in k = order/2, and the oracle's moments grow with the order too
_MAX_MOMENT_ORDER = 256


def load_moment_spec(path) -> tuple:
    """(IndependentSumSpec, orders) from a moment spec file; any deviation raises SchemaError.

    The file is {"terms": [{"scale": .., "mass": ..}, ...], "orders": [..]},
    both lists nonempty, each term with exactly those two keys and each
    order even and at most _MAX_MOMENT_ORDER; see the README.
    """
    data = load_json(path)
    if type(data) is not dict or any(type(data.get(key)) is not list or not data[key] for key in ("terms", "orders")):
        raise SchemaError('moment spec must be {"terms": [...], "orders": [...]}, both lists nonempty')
    terms = []
    for i, row in enumerate(data["terms"]):
        row = _object(row, f"terms[{i}]", ("scale", "mass"))
        terms.append(
            _checked(
                "moment spec term",
                SymmetricAtomVariable,
                _rational(row["scale"], "scale"),
                _rational(row["mass"], "mass"),
            )
        )
    for order in data["orders"]:
        if type(order) is not int or not 0 <= order <= _MAX_MOMENT_ORDER or order % 2 != 0:
            raise SchemaError(f"orders must be even integers in [0, {_MAX_MOMENT_ORDER}], got {order!r}")
    return IndependentSumSpec(terms), tuple(data["orders"])


# ---------------------------------------------------------------------------
# report payloads (no schema ids; they are one-way outputs)
# ---------------------------------------------------------------------------

def isometry_to_dict(res, precision: int) -> dict:
    return {
        "max_rel_residual": real_to_str(res.max_rel_residual, precision),
        "max_rel_residual_exact": frac_to_str(res.max_rel_residual),
        "bound": real_to_str(res.bound, precision),
        "bound_exact": frac_to_str(res.bound),
        "within_bound": res.within_bound,
        "trials": res.trials,
        "seed": res.seed,
        "orders_checked": list(res.orders_checked),
    }


@cache
def _comparator_sums(exponent: Fraction, n: int) -> tuple[float, float]:
    """The float partial sum of j^(-exponent) over j = 1..n and its integral
    reference.  Both depend on p alone, so a process computes them once per
    (exponent, n); the key holds n so a changed _COMPARATOR_N is never served
    a stale sum."""
    # a plain running sum on purpose: math.fsum or builtin sum() (compensated
    # from Python 3.12) would change the float bits of comparator_partial_sum
    neg_exponent = -float(exponent)
    partial = 0.0
    for j in range(1, n + 1):
        partial += j ** neg_exponent
    if exponent == 1:
        reference = log(n)
    elif exponent < 1:
        reference = ((n + 1) ** (1 - float(exponent)) - 1) / (1 - float(exponent))
    else:
        reference = 0.0
    return partial, reference


def uncomplemented_to_dict(res, precision: int) -> dict:
    """The weight certificate plus display values that prove nothing, at
    `precision` bits: mpf weights w_j = nu_j^(-1/p) / j with their bracket,
    and the comparator's constant and float partial sum.  The 10^6-term
    partial sum depends on p alone and is computed once per (exponent, N)
    per process, so a one-shot CLI call still pays it; ROADMAP item 7
    deletes it."""
    p = res.p
    delta = res.delta
    exponent = res.comparator_exponent
    with workprec(precision):
        lower_c = to_mpf(1 / delta) ** (Fraction(1, p))
        upper_c = to_mpf(2 / delta) ** (Fraction(1, p))
        rows = []
        for r in res.rows:
            j = r.j
            w = to_mpf(r.nu) ** (-Fraction(1, p)) / j
            j_pow = mpmath.mpf(j) ** (-Fraction(2, p))
            rows.append(
                {
                    "j": j,
                    "nu": frac_to_str(r.nu),
                    "bracket_ok": r.bracket_ok,
                    "w": real_to_str(w, precision),
                    "w_lower": real_to_str(lower_c * j_pow, precision),
                    "w_upper": real_to_str(upper_c * j_pow, precision),
                    "bounds_ok": r.bracket_ok,
                }
            )
        constant = to_mpf(1 / delta) ** (Fraction(2, p - 2))
    partial, reference = _comparator_sums(exponent, _COMPARATOR_N)
    return {
        "p": p,
        "delta": frac_to_str(delta),
        "precision_bits": precision,
        "valid": res.valid,
        "offending_js": list(res.offending_js),
        "rows": rows,
        "sum_nu_partial": frac_to_str(res.sum_nu_partial),
        "sum_nu_tail_bound": frac_to_str(res.sum_nu_tail_bound),
        "sum_nu_total_bound": frac_to_str(res.sum_nu_total_bound),
        "convergence_certified": res.valid,
        "comparator_exponent": frac_to_str(exponent),
        "comparator_constant": real_to_str(constant, precision),
        "comparator_partial_N": _COMPARATOR_N,
        "comparator_partial_sum": repr(partial),
        "comparator_reference": repr(reference),
        "divergence_certified": res.divergence_certified,
        "divergence_note": res.divergence_note,
        "typo_note": (
            "The source derivation prints the divergence claim for this sum "
            "as '>= infinity'; that is read as 'diverges' and flagged here as "
            "a typo rather than silently reinterpreted."
        ),
    }


def p4_row_to_dict(row) -> dict:
    prec = DEFAULT_PRECISION_BITS
    return {
        "n": row.n,
        "A": frac_to_str(row.A),
        "B": frac_to_str(row.B),
        "a": real_to_str(row.a, prec),
        "nu": frac_to_str(row.nu),
        "a_printed": real_to_str(row.a_printed, prec),
        "nu_printed": frac_to_str(row.nu_printed),
        "residual_2": frac_to_str(row.residual_2),
        "residual_4": frac_to_str(row.residual_4),
        "residual_2_printed": frac_to_str(row.residual_2_printed),
        "residual_4_printed": frac_to_str(row.residual_4_printed),
    }


def p4_table_to_dict(rows) -> dict:
    return {
        "precision_bits": DEFAULT_PRECISION_BITS,
        "rows": [p4_row_to_dict(r) for r in rows],
    }
