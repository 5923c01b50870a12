"""Bit-faithful JSON for certificates and reports.

Conventions, fixed across every writer in the package:

* rationals serialize as "num/den" strings, reals as decimal strings
  carrying the full working precision (round-trip verified at parse
  time), so a certificate survives platforms and JSON libraries intact;
* key order is fixed by construction, output is `indent=2` with a
  trailing newline and carries no timestamps, so identical runs produce
  byte-identical files;
* certificates carry the schema id "lp-isoforge-cert/1" and are
  validated against CERT_SCHEMA before any field is interpreted.
"""

from __future__ import annotations

import json

import jsonschema

from .errors import DegenerateInputError, SchemaError
from .momentpoly import MuVector
from .numeric import frac_to_str, parse_fraction, parse_real, real_to_str, validate_precision
from .solver import BallParams, CertEntry, ConstructionCertificate, HValues

__all__ = [
    "CERT_SCHEMA_ID",
    "CERT_SCHEMA",
    "dumps_json",
    "dump_json",
    "load_json",
    "cert_to_dict",
    "cert_from_dict",
    "save_certificate",
    "load_certificate",
    "isometry_to_dict",
    "vpl_to_dict",
    "uncomplemented_to_dict",
    "p4_row_to_dict",
    "p4_table_to_dict",
]

CERT_SCHEMA_ID = "lp-isoforge-cert/1"

_FRACTION_STR = {"type": "string", "pattern": r"^-?[0-9]+(/[0-9]+)?$"}
_REAL_STR = {"type": "string", "pattern": r"^-?[0-9.]+(e[+-]?[0-9]+)?$"}

CERT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "$id": CERT_SCHEMA_ID,
    "type": "object",
    "required": [
        "schema",
        "p",
        "k",
        "precision_bits",
        "nu_fraction",
        "ball",
        "target",
        "entries",
        "failed_js",
    ],
    "additionalProperties": False,
    "properties": {
        "schema": {"const": CERT_SCHEMA_ID},
        "p": {"type": "integer", "minimum": 4},
        "k": {"type": "integer", "minimum": 2},
        "precision_bits": {"type": "integer", "minimum": 128},
        "seed": {"type": ["integer", "null"]},
        "nu_fraction": _FRACTION_STR,
        "ball": {
            "type": "object",
            "required": ["mu_bar", "eps_bar", "eps", "M", "eps0", "delta"],
            "additionalProperties": False,
            "properties": {
                "mu_bar": {"type": "array", "items": _FRACTION_STR, "minItems": 2},
                "eps_bar": _FRACTION_STR,
                "eps": _FRACTION_STR,
                "M": _FRACTION_STR,
                "eps0": _FRACTION_STR,
                "delta": _FRACTION_STR,
            },
        },
        "target": {"type": "array", "items": _FRACTION_STR, "minItems": 2},
        "entries": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["j", "nu", "mu", "residuals", "jac_det", "newton_iters"],
                "additionalProperties": False,
                "properties": {
                    "j": {"type": "integer", "minimum": 1},
                    "nu": _FRACTION_STR,
                    "mu": {"type": "array", "items": _REAL_STR, "minItems": 2},
                    "residuals": {"type": "array", "items": _FRACTION_STR, "minItems": 2},
                    "jac_det": _REAL_STR,
                    "newton_iters": {"type": "integer", "minimum": 0},
                },
            },
        },
        "failed_js": {"type": "array", "items": {"type": "integer", "minimum": 1}},
    },
}


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
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
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


def cert_from_dict(data) -> ConstructionCertificate:
    """Validate against CERT_SCHEMA and rebuild the certificate.

    p != 2k, a vector not of length k and masses outside mu in (0, 1],
    nu in [0, 1] raise SchemaError.  Field invariants (ball, brackets,
    ordering, residual size) are the verifier's job: it must be able to
    load a bad certificate in order to reject it.
    """
    try:
        jsonschema.validate(data, CERT_SCHEMA)
    except jsonschema.ValidationError as exc:
        raise SchemaError(f"certificate does not match {CERT_SCHEMA_ID}: {exc.message}") from exc
    k = data["k"]
    if data["p"] != 2 * k:
        raise SchemaError(f"certificate has p = {data['p']}, k = {k}; p must equal 2k")
    vectors = [("ball.mu_bar", data["ball"]["mu_bar"]), ("target", data["target"])]
    vectors += [(f"entry j={e['j']} {f}", e[f]) for e in data["entries"] for f in ("mu", "residuals")]
    for name, vec in vectors:
        if len(vec) != k:
            raise SchemaError(f"{name} has length {len(vec)}, expected k = {k}")
    prec = validate_precision(data["precision_bits"])
    try:
        ball = BallParams(
            mu_bar=MuVector(tuple(parse_fraction(s) for s in data["ball"]["mu_bar"])),
            eps_bar=parse_fraction(data["ball"]["eps_bar"]),
            eps=parse_fraction(data["ball"]["eps"]),
            M=parse_fraction(data["ball"]["M"]),
            eps0=parse_fraction(data["ball"]["eps0"]),
            delta=parse_fraction(data["ball"]["delta"]),
        )
        target = HValues(tuple(parse_fraction(s) for s in data["target"]))
        entries = tuple(
            CertEntry(
                j=e["j"],
                nu=parse_fraction(e["nu"]),
                mu=MuVector(tuple(parse_real(s, prec) for s in e["mu"])).values,
                residuals=tuple(parse_fraction(s) for s in e["residuals"]),
                jac_det=parse_real(e["jac_det"], prec),
                newton_iters=e["newton_iters"],
            )
            for e in data["entries"]
        )
    except DegenerateInputError as exc:
        raise SchemaError(f"certificate value out of range: {exc}") from exc
    bad_nu = [e.j for e in entries if not 0 <= e.nu <= 1]
    if bad_nu:
        raise SchemaError(f"nu outside [0, 1] at j = {bad_nu}")
    return ConstructionCertificate(
        p=data["p"],
        k=data["k"],
        precision_bits=prec,
        nu_fraction=parse_fraction(data["nu_fraction"]),
        ball=ball,
        target=target,
        entries=entries,
        failed_js=tuple(data["failed_js"]),
        seed=data.get("seed"),
    )


def save_certificate(cert: ConstructionCertificate, path) -> None:
    dump_json(cert_to_dict(cert), path)


def load_certificate(path) -> ConstructionCertificate:
    return cert_from_dict(load_json(path))


# ---------------------------------------------------------------------------
# report payloads (no schema ids; they are one-way outputs)
# ---------------------------------------------------------------------------

def isometry_to_dict(res, precision: int) -> dict:
    return {
        "max_rel_residual": real_to_str(res.max_rel_residual, precision),
        "max_rel_residual_exact": frac_to_str(res.max_rel_residual),
        "bound": real_to_str(res.bound, precision),
        "bound_exact": frac_to_str(res.bound),
        "within_bound": bool(res.max_rel_residual <= res.bound),
        "trials": res.trials,
        "seed": res.seed,
        "orders_checked": list(res.orders_checked),
    }


def vpl_to_dict(res) -> dict:
    return {
        "k": res.k,
        "p": res.p,
        "lhs": real_to_str(res.lhs, res.precision_bits),
        "rhs": real_to_str(res.rhs, res.precision_bits),
        "holds": res.holds,
        "precision_bits": res.precision_bits,
    }


def uncomplemented_to_dict(res) -> dict:
    prec = res.precision_bits
    return {
        "p": res.p,
        "delta": frac_to_str(res.delta),
        "precision_bits": prec,
        "valid": res.valid,
        "offending_js": list(res.offending_js),
        "rows": [
            {
                "j": r.j,
                "nu": frac_to_str(r.nu),
                "bracket_ok": r.bracket_ok,
                "w": real_to_str(r.w, prec),
                "w_lower": real_to_str(r.w_lower, prec),
                "w_upper": real_to_str(r.w_upper, prec),
                "bounds_ok": r.bounds_ok,
            }
            for r in res.rows
        ],
        "sum_nu_partial": frac_to_str(res.sum_nu_partial),
        "sum_nu_tail_bound": frac_to_str(res.sum_nu_tail_bound),
        "sum_nu_total_bound": frac_to_str(res.sum_nu_total_bound),
        "convergence_certified": res.convergence_certified,
        "comparator_exponent": frac_to_str(res.comparator_exponent),
        "comparator_constant": real_to_str(res.comparator_constant, prec),
        "comparator_partial_N": res.comparator_partial_N,
        "comparator_partial_sum": repr(res.comparator_partial_sum),
        "comparator_reference": repr(res.comparator_reference),
        "divergence_certified": res.divergence_certified,
        "divergence_note": res.divergence_note,
        "typo_note": res.typo_note,
    }


def p4_row_to_dict(row) -> dict:
    prec = row.precision_bits
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


def p4_table_to_dict(rows, precision: int) -> dict:
    return {
        "precision_bits": precision,
        "rows": [p4_row_to_dict(r) for r in rows],
    }
