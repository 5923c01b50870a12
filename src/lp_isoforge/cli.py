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
            spec file (serialize.load_moment_spec), formula next to the
            convolution oracle
project     materialize the span projection on its product space, check
            the operator identities, and bound its p-norm from below
            (analysis.projection_report)

This module only parses arguments and renders results; every check of a
result lives in the library.  Each argument is checked once, while
parsing: --precision, --p, --j-max and --nu-fraction by the library's
own rule (numeric.validate_precision, solver.validate_p,
solver.validate_j_max, solver.validate_nu_fraction, with --nu-fraction's
text read by numeric.parse_rational), the other integer minimums by
_at_least.
Only construct takes --precision: p4 and project run at
DEFAULT_PRECISION_BITS, and verify at the certificate's precision.

Every run is deterministic given its arguments: outputs carry no
timestamps, randomness flows from --seed, and files are written with a
fixed key order, so identical invocations produce identical bytes.
Exit codes: 0 all good, 1 a check or solve failed (LpIsoforgeError),
2 a usage or schema error (SchemaError).  Both errors print one
`error:` line on stderr; any other exception is a bug and propagates.
"""

from __future__ import annotations

import argparse
import sys

import mpmath

from .analysis import projection_report, verify_certificate
from .errors import CapExceededError, LpIsoforgeError, SchemaError
from .moments import convolve, fold_even_moments, term_tables
from .numeric import (
    DEFAULT_PRECISION_BITS,
    MAX_PRECISION_BITS,
    MIN_PRECISION_BITS,
    frac_to_str,
    parse_rational,
    real_to_str,
    validate_precision,
)
from .p4 import build_p4_table, render_p4_report, render_p4_text
from .serialize import (
    dumps_json,
    isometry_to_dict,
    load_certificate,
    load_moment_spec,
    p4_table_to_dict,
    save_certificate,
    uncomplemented_to_dict,
)
from .solver import DEFAULT_NU_FRACTION, construct_pair, validate_j_max, validate_nu_fraction, validate_p

__all__ = ["build_parser", "main"]


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as SchemaError, so that main returns 2 instead of exiting."""

    def error(self, message):
        raise SchemaError(f"{self.prog}: {message}")


def _arg(parse, check):
    """argparse type: parse the text, then apply the library's check to the value."""

    def convert(text):
        try:
            return check(parse(text))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


def _at_least(minimum: int):
    def check(value: int) -> int:
        if value < minimum:
            raise ValueError(f"must be >= {minimum}, got {value}")
        return value

    return _arg(int, check)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lp-isoforge",
        description="Construct and verify isometric subspace pairs of L_p, p even.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add_common(sp, handler, seed=None, trials=False):
        sp.set_defaults(handler=handler)
        sp.add_argument("--out", default=None, help="write the report/certificate here")
        sp.add_argument(
            "--format",
            dest="fmt",
            choices=("json", "text"),
            default="text",
            help="stdout and --out rendering (default text)",
        )
        if seed:
            sp.add_argument("--seed", type=int, default=0, help=seed)
        if trials:
            sp.add_argument("--trials", type=_at_least(1), default=100, help="random spot checks to run")

    p_arg = _arg(int, validate_p)

    sp = sub.add_parser("construct", help="solve all scales and write a certificate")
    sp.add_argument("--p", type=p_arg, required=True, help="even integer >= 4")
    sp.add_argument("--j-max", type=_arg(int, validate_j_max), default=20, help="largest scale to solve (default 20)")
    sp.add_argument(
        "--nu-fraction",
        type=_arg(parse_rational, validate_nu_fraction),
        default=DEFAULT_NU_FRACTION,
        help="position of nu_j inside its bracket, strictly between 1/2 and 1 (default 3/4)",
    )
    sp.add_argument(
        "--precision",
        type=_arg(int, validate_precision),
        default=DEFAULT_PRECISION_BITS,
        help=f"working precision in bits, {MIN_PRECISION_BITS}..{MAX_PRECISION_BITS} "
        f"(default {DEFAULT_PRECISION_BITS})",
    )
    add_common(sp, cmd_construct, seed="recorded in the certificate only; construct draws no random number")

    sp = sub.add_parser("verify", help="recheck a certificate from its stored values")
    sp.add_argument("certificate", help="certificate JSON produced by construct")
    add_common(sp, cmd_verify, seed="seed for all randomness", trials=True)

    sp = sub.add_parser("p4", help="p = 4 matched pair table, rows n = 2..N")
    sp.add_argument("--n", type=_at_least(2), default=100, help="largest row (default 100)")
    add_common(sp, cmd_p4)

    sp = sub.add_parser("moments", help="even moments of a sum from a JSON spec file")
    sp.add_argument("spec_file", help='JSON: {"terms": [{"scale": .., "mass": ..}], "orders": [..]}')
    add_common(sp, cmd_moments)

    sp = sub.add_parser("project", help="span projection identities and p-norm bound")
    sp.add_argument("--p", type=p_arg, default=4, help="even integer >= 4 (default 4)")
    sp.add_argument("--n", type=_at_least(1), default=2, help="number of generators (default 2)")
    add_common(sp, cmd_project, seed="seed for all randomness", trials=True)

    return parser


def _emit(args, text: str, payload: dict) -> None:
    rendered = dumps_json(payload) if args.fmt == "json" else text + "\n"
    sys.stdout.write(rendered)
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(rendered)


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------

def cmd_construct(args) -> int:
    cert = construct_pair(args.p, args.j_max, args.precision, args.nu_fraction, seed=args.seed)
    out = args.out or "certificate.json"
    save_certificate(cert, out)

    worst = cert.worst_residual
    summary = [
        f"certificate written to {out}",
        f"p = {cert.p} (k = {cert.k}), scales solved {len(cert.entries)}/{args.j_max}, "
        f"precision {cert.precision_bits} bits",
        f"delta = {frac_to_str(cert.ball.delta)}, nu_fraction = {frac_to_str(cert.nu_fraction)}",
    ]
    if cert.entries:  # with no scale solved there is no residual to report
        summary.append(f"worst exact |residual| = {real_to_str(worst, cert.precision_bits)} "
                       f"(tolerance 2^-{cert.precision_bits // 2})")
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
    if args.fmt == "json":
        sys.stdout.write(dumps_json(payload))
    else:
        sys.stdout.write("\n".join(summary) + "\n")
    return 0 if cert.complete else 1


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    cert = load_certificate(args.certificate)
    report = verify_certificate(cert, trials=args.trials, seed=args.seed)
    lines = [
        f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  [{detail}]" if detail else "")
        for name, ok, detail in report.checks
    ]
    if cert.p == 4:
        lines.append(f"note  {report.weights.divergence_note}")
    verdict = "PASS" if report.passed else "FAIL"
    lines.append("verdict: " + verdict)
    # text output never reads the payload; its weights cost a 10^6-term loop,
    # run once per (exponent, N) per process, so a one-shot call still pays
    # it (ROADMAP item 7 deletes it)
    payload = None
    if args.fmt == "json":
        prec = cert.precision_bits
        payload = {
            "certificate": args.certificate,
            "checks": [{"name": n, "pass": ok, "detail": d} for n, ok, d in report.checks],
            "isometry": None if report.isometry is None else isometry_to_dict(report.isometry, prec),
            "weights": uncomplemented_to_dict(report.weights, prec),
            "verdict": verdict,
        }
    _emit(args, "\n".join(lines), payload)
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# p4
# ---------------------------------------------------------------------------

def cmd_p4(args) -> int:
    rows = build_p4_table(args.n)
    if args.fmt == "json":
        _emit(args, None, p4_table_to_dict(rows))
    else:
        _emit(args, render_p4_text(rows) + "\n\n" + render_p4_report(rows), None)
    return 0


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

def cmd_moments(args) -> int:
    spec, orders = load_moment_spec(args.spec_file)
    note = ""
    dist = None
    try:
        dist = convolve(spec)
    except CapExceededError as exc:
        note = f"oracle skipped: {exc}"

    lines = [f"terms: {len(spec)}, atoms: {len(dist.atoms) if dist else 'over cap'}"]
    k = max(orders) // 2
    moments = fold_even_moments(term_tables(spec, k))
    values = []
    for order in orders:
        formula = moments[order // 2]
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
    payload = {"terms": len(spec), "values": values, "note": note}
    _emit(args, "\n".join(lines), payload)
    return 0


# ---------------------------------------------------------------------------
# project
# ---------------------------------------------------------------------------

def cmd_project(args) -> int:
    report = projection_report(args.p, args.n, args.trials, args.seed)
    lines = [
        f"span: {args.n} generators, {report.atoms} atoms, p = {args.p}",
        f"masses: {', '.join(frac_to_str(m) for m in report.masses)}",
    ]
    lines += [f"{'PASS' if ok else 'FAIL'}  {name}" for name, ok in report.checks]
    lines.append(f"p-norm lower bound: {mpmath.nstr(report.bound, 12)}")
    payload = {
        "p": args.p,
        "generators": args.n,
        "atoms": report.atoms,
        "checks": [{"name": n, "pass": ok} for n, ok in report.checks],
        "norm_lower_bound": real_to_str(report.bound, DEFAULT_PRECISION_BITS),
    }
    grid = report.grid_oracle
    if grid is not None:
        lines.append(f"grid oracle: {grid:.12g}  (relative gap {report.relative_gap:.3g})")
        payload["grid_oracle"] = repr(grid)
        payload["relative_gap"] = repr(report.relative_gap)
    _emit(args, "\n".join(lines), payload)
    return 0 if report.passed else 1


def main(argv=None) -> int:
    """Run one command; usage and schema errors return 2, a failed solve or check 1."""
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LpIsoforgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
