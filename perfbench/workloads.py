"""The four benchmark workloads and the checks on every operation's output.

A workload is a fixed sequence of CLI operations (one "cycle").  Every
operation runs with ``--format json`` so its stdout can be parsed and
checked.  The workload seed goes to ``--seed`` of ``verify`` and
``project``, the only commands that consume randomness; ``construct``
always runs with ``--seed 0`` so certificate bytes never depend on it.

Checks that hold at every seed: exit code, certificate sha256, verdict and
the exact set of failing checks, isometry residual within its bound, the
bytes of the verify payload outside its seeded isometry part, all
projection checks passing.  At ``DEFAULT_SEED`` (and for operations that
take no seed) the whole JSON payload, with the certificate path replaced
by a placeholder, must also hash to its recorded reference, so a change
that moves a single output bit is counted as a failed operation.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

DEFAULT_SEED = 0
CERT = "{cert}"  # placeholder in argv for the workload's certificate path
PATH_PLACEHOLDER = '"<certificate>"'
REFERENCE_FILE = Path(__file__).with_name("reference.json")

# which metric each operation label feeds in the summary
OP_METRICS = {
    "construct": "construct_s",
    "verify": "verify_s",
    "project": "project_s",
    "p4": "p4_table_s",
}


@dataclass(frozen=True)
class Op:
    label: str
    argv: tuple
    exit_code: int
    seeded: bool  # consumes the workload seed
    expect: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    build: object  # (seed, **sizes) -> list of Op
    full: dict
    tiny: dict  # sizes for the smoke test

    def ops(self, seed: int, tiny: bool = False) -> list:
        return self.build(seed, **(self.tiny if tiny else self.full))


def _construct(p, j_max, failed=()):
    argv = ("construct", "--p", str(p), "--j-max", str(j_max), "--seed", "0", "--out", CERT)
    return Op("construct", argv, 1 if failed else 0, False, {"failed_js": list(failed)})


def _verify(seed, trials, failing=()):
    argv = ("verify", CERT, "--trials", str(trials), "--seed", str(seed))
    return Op("verify", argv, 1 if failing else 0, True, {"failing": sorted(failing)})


def _certify_p6(seed, j_max, trials):
    return [_construct(6, j_max), _verify(seed, trials)]


def _construct_p12(seed, p, j_max):
    return [_construct(p, j_max)]


def _project_p6(seed, n, trials):
    argv = ("project", "--p", "6", "--n", str(n), "--trials", str(trials), "--seed", str(seed))
    return [Op("project", argv, 0, True)]


def _p4_partial(seed, j_max, trials, rows):
    # p = 4 with the default mass schedule solves j = 1..8 only; the
    # partial certificate and its single failing check are expected output
    failed = tuple(range(9, j_max + 1))
    return [
        _construct(4, j_max, failed),
        _verify(seed, trials, ("certificate complete",) if failed else ()),
        Op("p4", ("p4", "--n", str(rows)), 0, False, {"rows": rows - 1}),
    ]


# why each workload was chosen is recorded in BENCHMARK.json and README.md
WORKLOADS = {
    "certify-p6": Workload(_certify_p6, {"j_max": 20, "trials": 100}, {"j_max": 3, "trials": 2}),
    # ball_params costs the same at every j_max, so the smoke size lowers p
    "construct-p12": Workload(_construct_p12, {"p": 12, "j_max": 20}, {"p": 8, "j_max": 3}),
    "project-p6": Workload(_project_p6, {"n": 3, "trials": 100}, {"n": 2, "trials": 2}),
    "p4-partial": Workload(
        _p4_partial,
        {"j_max": 20, "trials": 100, "rows": 100},
        {"j_max": 10, "trials": 2, "rows": 5},
    ),
}


def reference_key(workload: str, tiny: bool, label: str) -> str:
    return f"{workload}/{'tiny' if tiny else 'full'}/{label}"


def load_reference() -> dict:
    with open(REFERENCE_FILE, encoding="ascii") as fh:
        return json.load(fh)


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def payload_digest(stdout: str, cert_path: str) -> str:
    """sha256 of the JSON payload with the certificate path taken out."""
    text = stdout.replace(json.dumps(str(cert_path)), PATH_PLACEHOLDER)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def seed_free_digest(stdout: str) -> str:
    """sha256 of a verify payload without the certificate path and the seeded isometry part."""
    payload = json.loads(stdout)
    payload.pop("certificate", None)
    payload.pop("isometry", None)
    for check in payload.get("checks", []):
        if check["name"].startswith("isometry"):
            check["detail"] = ""
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()


def check_output(op: Op, key: str, seed: int, exit_code: int, stdout: str,
                 cert_path: str, reference: dict) -> list:
    """Problems found in one operation's output; empty when it is correct."""
    problems = []
    if exit_code != op.exit_code:
        problems.append(f"exit code {exit_code}, expected {op.exit_code}")
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError:
        return problems + ["stdout is not a JSON payload"]

    if op.label == "construct":
        if payload.get("failed_js") != op.expect["failed_js"]:
            problems.append(f"failed_js {payload.get('failed_js')}, expected {op.expect['failed_js']}")
        if payload.get("complete") is not (not op.expect["failed_js"]):
            problems.append("complete flag does not match failed_js")
        digest = sha256_file(cert_path) if Path(cert_path).is_file() else "missing"
        if digest != reference["certificate_sha256"].get(key):
            problems.append(f"certificate sha256 {digest} differs from the reference")
    elif op.label == "verify":
        failing = sorted(c["name"] for c in payload.get("checks", []) if not c["pass"])
        if failing != op.expect["failing"]:
            problems.append(f"failing checks {failing}, expected {op.expect['failing']}")
        verdict = "FAIL" if op.expect["failing"] else "PASS"
        if payload.get("verdict") != verdict:
            problems.append(f"verdict {payload.get('verdict')}, expected {verdict}")
        if seed_free_digest(stdout) != reference["seed_free_sha256"].get(key):
            problems.append("seed-independent part of the payload differs from the reference")
        iso = payload.get("isometry", {})
        if not Fraction(iso.get("max_rel_residual_exact", "1")) <= Fraction(iso.get("bound_exact", "0")):
            problems.append("isometry max_rel_residual exceeds its bound")
    elif op.label == "project":
        checks = payload.get("checks", [])
        if len(checks) != 5 or not all(c["pass"] for c in checks):
            problems.append(f"projection checks not all PASS: {checks}")
        if not Fraction(payload.get("norm_lower_bound", "0")) >= 1:
            problems.append("p-norm lower bound below 1")
    elif op.label == "p4":
        if len(payload.get("rows", [])) != op.expect["rows"]:
            problems.append(f"p4 table has {len(payload.get('rows', []))} rows")

    if not op.seeded or seed == DEFAULT_SEED:
        digest = payload_digest(stdout, cert_path)
        if digest != reference["payload_sha256"].get(key):
            problems.append(f"payload sha256 {digest} differs from the reference")
    return problems
