"""Batch front end: build certificates, verify them, print tables.

Commands
--------
construct   solve the moment-matching system for j = 1..j_max and write
            a certificate JSON (exit 0 only if every scale solved)
verify      reload a certificate and recheck it from the stored values
            alone (analysis.verify_certificate); one PASS/FAIL line per
            check
p4          the two-generator table for p = 4 with the matched column
            and the printed closed forms side by side
moments     evaluate even moments of a sum described by a small JSON
            spec file, formula next to the convolution oracle
project     materialize the span projection on its product space, check
            the operator identities, and bound its p-norm from below

Every run is deterministic given its arguments: outputs carry no
timestamps, randomness flows from --seed, and files are written with a
fixed key order, so identical invocations produce identical bytes.
Exit codes: 0 all good, 1 a check or solve failed, 2 usage or schema.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .analysis import (
    FiniteSpan,
    _projection_identity_checks,
    build_projection,
    projection_norm_grid_search,
    projection_norm_lower_bound,
    verify_certificate,
)
from .errors import CapExceededError, LpIsoforgeError, SchemaError
from .moments import (
    IndependentSumSpec,
    SymmetricAtomVariable,
    convolve,
    even_moment_of_sum,
)
from .numeric import (
    DEFAULT_PRECISION_BITS,
    MIN_PRECISION_BITS,
    frac_to_str,
    parse_fraction,
    real_to_str,
)
from .p4 import build_p4_table, render_p4_report, render_p4_text
from .serialize import (
    dumps_json,
    isometry_to_dict,
    load_certificate,
    load_json,
    p4_table_to_dict,
    save_certificate,
    uncomplemented_to_dict,
)
from .solver import DEFAULT_NU_FRACTION, construct_pair, default_base_point

__all__ = ["RunConfig", "build_parser", "main"]

ENV_PRECISION = "LP_ISOFORGE_PRECISION"


@dataclass(frozen=True)
class RunConfig:
    """One parsed invocation; everything a command handler needs."""

    command: str
    p: int = 6
    j_max: int = 20
    n: int = 2
    precision_bits: int = DEFAULT_PRECISION_BITS
    seed: int = 0
    trials: int = 100
    nu_fraction: Fraction = DEFAULT_NU_FRACTION
    out: str | None = None
    fmt: str = "text"

    def __post_init__(self):
        if self.p % 2 != 0 or self.p < 4:
            raise ValueError(f"p must be an even integer >= 4, got {self.p}")
        if self.precision_bits < MIN_PRECISION_BITS:
            raise ValueError(f"precision must be >= {MIN_PRECISION_BITS} bits")


def _env_precision() -> int:
    raw = os.environ.get(ENV_PRECISION)
    if raw is None:
        return DEFAULT_PRECISION_BITS
    try:
        bits = int(raw)
    except ValueError:
        raise SchemaError(f"{ENV_PRECISION} must be an integer, got {raw!r}") from None
    if bits < MIN_PRECISION_BITS:
        raise SchemaError(f"{ENV_PRECISION} must be >= {MIN_PRECISION_BITS}, got {bits}")
    return bits


def _fraction_arg(text: str) -> Fraction:
    try:
        return parse_fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a fraction: {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lp-isoforge",
        description="Construct and verify isometric subspace pairs of L_p, p even.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add_common(sp, seed=False, trials=False):
        sp.add_argument(
            "--precision",
            type=int,
            default=None,
            help=f"working precision in bits (>= {MIN_PRECISION_BITS}; "
            f"default {ENV_PRECISION} or {DEFAULT_PRECISION_BITS})",
        )
        sp.add_argument("--out", default=None, help="write the report/certificate here")
        sp.add_argument(
            "--format",
            dest="fmt",
            choices=("json", "text"),
            default="text",
            help="stdout and --out rendering (default text)",
        )
        if seed:
            sp.add_argument("--seed", type=int, default=0, help="seed for all randomness")
        if trials:
            sp.add_argument("--trials", type=int, default=100, help="random spot checks to run")

    sp = sub.add_parser("construct", help="solve all scales and write a certificate")
    sp.add_argument("--p", type=int, required=True, help="even integer >= 4")
    sp.add_argument("--j-max", type=int, default=20, help="largest scale to solve (default 20)")
    sp.add_argument(
        "--nu-fraction",
        type=_fraction_arg,
        default=DEFAULT_NU_FRACTION,
        help="position of nu_j inside its bracket, strictly between 1/2 and 1 (default 3/4)",
    )
    add_common(sp, seed=True)

    sp = sub.add_parser("verify", help="recheck a certificate from its stored values")
    sp.add_argument("certificate", help="certificate JSON produced by construct")
    add_common(sp, seed=True, trials=True)

    sp = sub.add_parser("p4", help="p = 4 matched pair table, rows n = 2..N")
    sp.add_argument("--n", type=int, default=100, help="largest row (default 100)")
    add_common(sp)

    sp = sub.add_parser("moments", help="even moments of a sum from a JSON spec file")
    sp.add_argument("spec_file", help='JSON: {"terms": [{"scale": .., "mass": ..}], "orders": [..]}')
    add_common(sp)

    sp = sub.add_parser("project", help="span projection identities and p-norm bound")
    sp.add_argument("--p", type=int, default=4, help="even integer >= 4 (default 4)")
    sp.add_argument("--n", type=int, default=2, help="number of generators (default 2)")
    add_common(sp, seed=True, trials=True)

    return parser


def _config_from_args(args) -> RunConfig:
    precision = args.precision if args.precision is not None else _env_precision()
    if precision < MIN_PRECISION_BITS:
        raise SchemaError(f"precision must be >= {MIN_PRECISION_BITS} bits, got {precision}")
    return RunConfig(
        command=args.command,
        p=getattr(args, "p", 6),
        j_max=getattr(args, "j_max", 20),
        n=getattr(args, "n", 2),
        precision_bits=precision,
        seed=getattr(args, "seed", 0),
        trials=getattr(args, "trials", 100),
        nu_fraction=getattr(args, "nu_fraction", DEFAULT_NU_FRACTION),
        out=args.out,
        fmt=args.fmt,
    )


def _emit(cfg: RunConfig, text: str, payload: dict) -> None:
    rendered = dumps_json(payload) if cfg.fmt == "json" else text + "\n"
    sys.stdout.write(rendered)
    if cfg.out:
        with open(cfg.out, "w", encoding="ascii") as fh:
            fh.write(rendered)


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------

def cmd_construct(cfg: RunConfig) -> int:
    cert = construct_pair(
        cfg.p, cfg.j_max, cfg.precision_bits, cfg.nu_fraction, seed=cfg.seed
    )
    out = cfg.out or "certificate.json"
    save_certificate(cert, out)

    worst = Fraction(0)
    for e in cert.entries:
        for r in e.residuals:
            worst = max(worst, abs(r))
    summary = [
        f"certificate written to {out}",
        f"p = {cert.p} (k = {cert.k}), scales solved {len(cert.entries)}/{cfg.j_max}, "
        f"precision {cert.precision_bits} bits",
        f"delta = {frac_to_str(cert.ball.delta)}, nu_fraction = {frac_to_str(cert.nu_fraction)}",
        f"worst exact |residual| = {real_to_str(worst, cert.precision_bits)} "
        f"(tolerance 2^-{cert.precision_bits // 2})",
    ]
    if cert.failed_js:
        summary.append(f"FAILED scales: {list(cert.failed_js)} (certificate is partial)")
    payload = {
        "certificate": out,
        "complete": cert.complete,
        "p": cert.p,
        "k": cert.k,
        "entries": len(cert.entries),
        "failed_js": list(cert.failed_js),
        "worst_residual": real_to_str(worst, cert.precision_bits),
    }
    if cfg.fmt == "json":
        sys.stdout.write(dumps_json(payload))
    else:
        sys.stdout.write("\n".join(summary) + "\n")
    return 0 if cert.complete else 1


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(cfg: RunConfig, cert_path: str) -> int:
    cert = load_certificate(cert_path)
    report = verify_certificate(cert, trials=cfg.trials, seed=cfg.seed)
    lines = [
        f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  [{detail}]" if detail else "")
        for name, ok, detail in report.checks
    ]
    if cert.p == 4:
        lines.append(f"note  {report.weights.divergence_note}")
    verdict = "PASS" if report.passed else "FAIL"
    lines.append("verdict: " + verdict)
    payload = {
        "certificate": cert_path,
        "checks": [{"name": n, "pass": ok, "detail": d} for n, ok, d in report.checks],
        "isometry": None if report.isometry is None else isometry_to_dict(report.isometry, cert.precision_bits),
        "weights": uncomplemented_to_dict(report.weights),
        "verdict": verdict,
    }
    _emit(cfg, "\n".join(lines), payload)
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# p4
# ---------------------------------------------------------------------------

def cmd_p4(cfg: RunConfig) -> int:
    if cfg.n < 2:
        raise SchemaError(f"--n must be >= 2, got {cfg.n}")
    rows = build_p4_table(cfg.n, cfg.precision_bits)
    text = render_p4_text(rows) + "\n\n" + render_p4_report(rows)
    _emit(cfg, text, p4_table_to_dict(rows, cfg.precision_bits))
    return 0


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

def _rational_field(row: dict, key: str, required: bool = True):
    if key not in row:
        if required:
            raise SchemaError(f"moment spec term is missing {key!r}")
        return None
    value = row[key]
    if isinstance(value, bool):
        raise SchemaError(f"{key} must be a number or a 'num/den' string")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value) if "/" not in value else parse_fraction(value)
        except (ValueError, ZeroDivisionError):
            raise SchemaError(f"{key}: not a rational value: {value!r}") from None
    raise SchemaError(f"{key} must be a number or a 'num/den' string")


def cmd_moments(cfg: RunConfig, spec_path: str) -> int:
    data = load_json(spec_path)
    if not isinstance(data, dict) or "terms" not in data or "orders" not in data:
        raise SchemaError('moment spec must be {"terms": [...], "orders": [...]}')
    if not isinstance(data["terms"], list) or not data["terms"]:
        raise SchemaError("moment spec needs a nonempty terms list")
    if not isinstance(data["orders"], list) or not data["orders"]:
        raise SchemaError("moment spec needs a nonempty orders list")

    terms = []
    for row in data["terms"]:
        if not isinstance(row, dict):
            raise SchemaError("each term must be an object with scale and mass")
        terms.append(
            SymmetricAtomVariable(
                scale=_rational_field(row, "scale"),
                mass=_rational_field(row, "mass"),
                scale_sq=_rational_field(row, "scale_sq", required=False),
            )
        )
    orders = data["orders"]
    for order in orders:
        if not isinstance(order, int) or isinstance(order, bool) or order < 0 or order % 2 != 0:
            raise SchemaError(f"orders must be even integers >= 0, got {order!r}")

    spec = IndependentSumSpec(terms)
    note = ""
    dist = None
    try:
        dist = convolve(spec)
    except CapExceededError as exc:
        note = f"oracle skipped: {exc}"

    lines = [f"terms: {len(terms)}, atoms: {len(dist.atoms) if dist else 'over cap'}"]
    values = []
    for order in orders:
        formula = even_moment_of_sum(spec, order)
        row = {"order": order, "formula": frac_to_str(formula)}
        line = f"order {order}: formula {frac_to_str(formula)}"
        if dist is not None:
            oracle = dist.moment(order)
            row["oracle"] = frac_to_str(oracle)
            line += f"  oracle {frac_to_str(oracle)}"
        values.append(row)
        lines.append(line)
    if note:
        lines.append(note)
    payload = {"terms": len(terms), "values": values, "note": note}
    _emit(cfg, "\n".join(lines), payload)
    return 0


# ---------------------------------------------------------------------------
# project
# ---------------------------------------------------------------------------

def cmd_project(cfg: RunConfig) -> int:
    if cfg.n < 1:
        raise SchemaError(f"--n must be >= 1, got {cfg.n}")
    masses = default_base_point(max(cfg.n, 2)).values[: cfg.n]
    span = FiniteSpan.build(cfg.p, [[SymmetricAtomVariable(1, m)] for m in masses])
    P = build_projection(span)

    bound = projection_norm_lower_bound(P, cfg.p, seed=cfg.seed, precision=cfg.precision_bits)
    checks = _projection_identity_checks(P, cfg.trials, cfg.seed) + (
        ("p-norm lower bound >= 1", bound >= 1),
    )
    lines = [
        f"span: {cfg.n} generators, {P.atom_count} atoms, p = {cfg.p}",
        f"masses: {', '.join(frac_to_str(m) for m in masses)}",
    ]
    for name, ok in checks:
        lines.append(f"{'PASS' if ok else 'FAIL'}  {name}")
    payload = {
        "p": cfg.p,
        "generators": cfg.n,
        "atoms": P.atom_count,
        "checks": [{"name": n, "pass": ok} for n, ok in checks],
        "norm_lower_bound": real_to_str(bound, cfg.precision_bits),
    }
    lines.append(f"p-norm lower bound: {mpmath.nstr(bound, 12)}")
    if cfg.n == 2:
        grid = projection_norm_grid_search(P, cfg.p)
        gap = abs(float(bound) - grid) / grid
        lines.append(f"grid oracle: {grid:.12g}  (relative gap {gap:.3g})")
        payload["grid_oracle"] = repr(grid)
        payload["relative_gap"] = repr(gap)
    _emit(cfg, "\n".join(lines), payload)
    return 0 if all(ok for _, ok in checks) else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        if args.command == "construct":
            return cmd_construct(cfg)
        if args.command == "verify":
            return cmd_verify(cfg, args.certificate)
        if args.command == "p4":
            return cmd_p4(cfg)
        if args.command == "moments":
            return cmd_moments(cfg, args.spec_file)
        if args.command == "project":
            return cmd_project(cfg)
        parser.error(f"unknown command {args.command!r}")
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LpIsoforgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # bad configuration values (odd p, tiny precision) are usage errors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
