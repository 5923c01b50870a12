"""Exit codes, wire formats, and check lines of the lp-isoforge entry point."""

import argparse
import hashlib
import importlib
import inspect
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import lp_isoforge
import lp_isoforge.cli
from lp_isoforge.analysis import projection_report
from lp_isoforge.cli import build_parser, main
from lp_isoforge.numeric import real_to_str
from lp_isoforge.serialize import dump_json, load_certificate, load_json, save_certificate


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_moment_spec(tmp_path, terms, orders):
    path = tmp_path / "spec.json"
    dump_json({"terms": terms, "orders": orders}, path)
    return str(path)


def test_construct_p6(tmp_path, capsys):
    out = tmp_path / "cert.json"
    code, text, _ = run(
        capsys, "construct", "--p", "6", "--j-max", "6", "--out", str(out)
    )
    assert code == 0
    assert "scales solved 6/6" in text
    assert "delta = 1/3080" in text
    cert = load_certificate(out)
    assert cert.complete and cert.p == 6 and len(cert.entries) == 6


def test_construct_rejects_odd_p(tmp_path, capsys):
    code, _, err = run(capsys, "construct", "--p", "5", "--out", str(tmp_path / "c"))
    assert code == 2
    assert "error:" in err


def test_construct_rejects_low_precision(tmp_path, capsys):
    code, _, err = run(
        capsys, "construct", "--p", "6", "--precision", "64", "--out", str(tmp_path / "c")
    )
    assert code == 2
    assert "128" in err


def test_construct_p4_matches_library(tmp_path, capsys, cert_p4):
    out = tmp_path / "cert.json"
    code, _, _ = run(capsys, "construct", "--p", "4", "--j-max", "5", "--out", str(out))
    assert code == 0
    cert = load_certificate(out)
    # CLI records its seed but the solve itself is deterministic
    assert cert.entries == cert_p4.entries
    assert cert.ball == cert_p4.ball and cert.target == cert_p4.target


def test_construct_p4_partial_exit(tmp_path, capsys):
    out = tmp_path / "cert.json"
    code, text, _ = run(capsys, "construct", "--p", "4", "--j-max", "9", "--out", str(out))
    assert code == 1
    assert "FAILED scales: [9]" in text
    cert = load_certificate(out)
    assert cert.failed_js == (9,)
    assert [e.j for e in cert.entries] == list(range(1, 9))


def test_construct_with_no_scale_solved_reports_no_residual(tmp_path, capsys):
    # at 256 bits the single scale of p = 38 is counted feasible but not solved
    t0 = time.monotonic()
    code, text, _ = run(
        capsys, "construct", "--p", "38", "--j-max", "1", "--precision", "256", "--out", str(tmp_path / "c")
    )
    assert time.monotonic() - t0 < 5
    assert code == 1
    assert "scales solved 0/1" in text and "FAILED scales: [1]" in text
    assert "worst exact" not in text


def test_construct_and_verify_complete_certificate_at_k19(tmp_path, capsys):
    # the precision is given: at 320 bits both scales of p = 38 are solved
    cert = str(tmp_path / "cert.json")
    t0 = time.monotonic()
    code, text, _ = run(
        capsys, "construct", "--p", "38", "--j-max", "2", "--precision", "320", "--out", cert, "--format", "json"
    )
    assert time.monotonic() - t0 < 15
    assert code == 0
    payload = json.loads(text)
    assert payload["complete"] and payload["k"] == 19 and payload["failed_js"] == []
    t0 = time.monotonic()
    code, text, _ = run(capsys, "verify", cert, "--format", "json")
    assert time.monotonic() - t0 < 15
    assert code == 0
    payload = json.loads(text)
    assert payload["verdict"] == "PASS" and all(c["pass"] for c in payload["checks"])


def test_construct_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        code, _, _ = run(
            capsys, "construct", "--p", "6", "--j-max", "6", "--seed", "7", "--out", str(out)
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_fresh_p4(tmp_path, capsys, cert_p4):
    path = tmp_path / "cert.json"
    save_certificate(cert_p4, path)
    code, text, _ = run(capsys, "verify", str(path), "--trials", "10")
    assert code == 0
    assert "verdict: PASS" in text
    assert "FAIL" not in text
    # p = 4 gets the comparator caveat as a note, not as a check
    assert "note" in text
    assert "divergence not certified by this comparator" in text


def test_verify_fresh_p6(tmp_path, capsys, cert_p6):
    path = tmp_path / "cert.json"
    save_certificate(cert_p6, path)
    code, text, _ = run(capsys, "verify", str(path), "--trials", "10")
    assert code == 0
    assert "PASS  sum w_j^(2p/(p-2)) diverges (comparator)" in text
    assert "verdict: PASS" in text


def test_verify_flags_tampered_nu(tmp_path, capsys, cert_p4):
    path = tmp_path / "cert.json"
    save_certificate(cert_p4, path)
    data = load_json(path)
    data["entries"][2]["nu"] = "1/48"  # delta itself, far above the j = 3 bracket
    tampered = tmp_path / "tampered.json"
    dump_json(data, tampered)
    code, text, _ = run(capsys, "verify", str(tampered), "--trials", "5")
    assert code == 1
    assert "FAIL  nu_j inside (delta/2, delta) * j^(2-p)  [offending j: [3]]" in text
    assert "FAIL  stored residuals honest" in text
    assert "verdict: FAIL" in text


def _verify_edited(tmp_path, capsys, cert, edit, *extra):
    path = tmp_path / "cert.json"
    save_certificate(cert, path)
    data = load_json(path)
    edit(data)
    tampered = tmp_path / "tampered.json"
    dump_json(data, tampered)
    return run(capsys, "verify", str(tampered), "--trials", "5", *extra)


def test_verify_flags_missing_scale(tmp_path, capsys, cert_p6):
    code, text, _ = _verify_edited(
        tmp_path, capsys, cert_p6, lambda d: d.update(entries=[e for e in d["entries"] if e["j"] != 5])
    )
    assert code == 1
    assert "FAIL  certificate complete  [missing j: [5]]" in text
    assert "verdict: FAIL" in text


def test_verify_far_listed_scale_stays_small(tmp_path, capsys, cert_p6):
    # the gap below j = 10**9 is reported as one run, not enumerated
    code, text, _ = _verify_edited(tmp_path, capsys, cert_p6, lambda d: d.update(failed_js=[10 ** 9]))
    assert code == 1
    assert "FAIL  certificate complete  [failed scales: [1000000000]; missing j: [21..999999999]]" in text
    assert len(text.encode()) < 4096


def test_verify_flags_duplicated_scale(tmp_path, capsys, cert_p6):
    code, text, _ = _verify_edited(
        tmp_path, capsys, cert_p6, lambda d: d["entries"].insert(3, d["entries"][2])
    )
    assert code == 1
    assert "FAIL  certificate complete  [duplicated j: [3]]" in text
    assert "verdict: FAIL" in text


def test_verify_without_solved_entries_prints_checks(tmp_path, capsys, cert_p6):
    def drop_all(d):
        d.update(entries=[], failed_js=[1, 2, 3])

    code, text, err = _verify_edited(tmp_path, capsys, cert_p6, drop_all)
    assert code == 1 and err == ""
    assert "FAIL  certificate complete  [failed scales: [1, 2, 3]]" in text
    assert "FAIL  isometry residual within propagation bound  [no solved entries]" in text
    assert text.rstrip().endswith("verdict: FAIL")
    code, out, _ = _verify_edited(tmp_path, capsys, cert_p6, drop_all, "--format", "json")
    payload = json.loads(out)
    assert code == 1 and payload["isometry"] is None and payload["verdict"] == "FAIL"
    failing = {c["name"] for c in payload["checks"] if not c["pass"]}
    assert failing == {"certificate complete", "isometry residual within propagation bound"}


@pytest.mark.parametrize(
    "ball_edit, detail",
    [
        ({"M": "1/1", "eps0": "7/3", "eps_bar": "1/9"}, "ball differs: eps_bar, M, eps0"),
        ({"eps": "1/7"}, "ball differs: eps"),
    ],
    ids=["M eps0 eps_bar", "eps"],
)
def test_verify_recomputes_ball(tmp_path, capsys, cert_p6, ball_edit, detail):
    code, text, _ = _verify_edited(tmp_path, capsys, cert_p6, lambda d: d["ball"].update(ball_edit))
    assert code == 1
    assert f"FAIL  target moments match the base point  [{detail}]" in text
    assert "verdict: FAIL" in text


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: d.update(k=2),
        lambda d: d.update(k=4),
        lambda d: d.update(target=d["target"][:2]),
    ],
    ids=["k=2", "k=4", "short target"],
)
def test_verify_rejects_inconsistent_shape(tmp_path, capsys, cert_p6, edit):
    code, out, err = _verify_edited(tmp_path, capsys, cert_p6, edit)
    assert code == 2
    assert err.startswith("error:")
    assert out == ""


def test_verify_rejects_malformed_value(tmp_path, capsys, cert_p6, malformed_edit):
    # at once: a mass of 1e-400000 read past the reader's bound stalls the
    # verifier on its exact rational for minutes
    t0 = time.monotonic()
    code, out, err = _verify_edited(tmp_path, capsys, cert_p6, malformed_edit)
    assert time.monotonic() - t0 < 1
    assert code == 2
    assert err.startswith("error:")
    assert out == ""


def test_cli_imports_no_dependency_but_mpmath():
    # a fresh interpreter, so modules other tests imported do not count
    src_dir = Path(lp_isoforge.__file__).resolve().parent.parent
    code = (
        "import sys; before = set(sys.modules); import lp_isoforge.cli; "
        "print(sorted({m.partition('.')[0] for m in set(sys.modules) - before} "
        "- set(sys.stdlib_module_names)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(src_dir)),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['lp_isoforge', 'mpmath']\n"


def test_cli_import_loads_no_process_pool():
    # the projection ascent imports multiprocessing only when it forks workers
    src_dir = Path(lp_isoforge.__file__).resolve().parent.parent
    code = (
        "import sys; import lp_isoforge.cli; "
        "print(sorted(m for m in sys.modules if m.partition('.')[0] in ('multiprocessing', 'concurrent')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(src_dir)),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_pyproject_installs_the_script_and_the_package():
    # what `pip install` wires up: the lp-isoforge script calls cli.main,
    # and the package finder's directories hold the package
    import tomllib

    root = Path(__file__).resolve().parent.parent
    with open(root / "pyproject.toml", "rb") as fh:
        config = tomllib.load(fh)
    module, _, attr = config["project"]["scripts"]["lp-isoforge"].partition(":")
    assert getattr(importlib.import_module(module), attr) is main
    where = config["tool"]["setuptools"]["packages"]["find"]["where"]
    assert any((root / d / "lp_isoforge" / "__init__.py").is_file() for d in where)


def test_verify_json_payload(tmp_path, capsys, cert_p4):
    path = tmp_path / "cert.json"
    save_certificate(cert_p4, path)
    code, text, _ = run(
        capsys, "verify", str(path), "--trials", "5", "--format", "json"
    )
    assert code == 0
    payload = json.loads(text)
    assert payload["verdict"] == "PASS"
    assert all(c["pass"] for c in payload["checks"])
    assert payload["isometry"]["within_bound"] is True


def pinned_run(tmp_path, capsys, construct_argv, argv):
    """(exit code, sha256 of stdout with the certificate path replaced by "<cert>")."""
    cert = str(tmp_path / "cert.json")
    if construct_argv:
        # p = 4 has no admissible masses from j = 9, so that certificate is partial
        partial = construct_argv == ["--p", "4", "--j-max", "10"]
        assert main(["construct", *construct_argv, "--out", cert]) == (1 if partial else 0)
        capsys.readouterr()
    code, text, _ = run(capsys, *[cert if a == "<cert>" else a for a in argv])
    text = text.replace(json.dumps(cert), '"<cert>"')
    return code, hashlib.sha256(text.encode("ascii")).hexdigest()


@pytest.mark.parametrize("fmt, calls", [("text", 0), ("json", 1)])
def test_verify_renders_weights_only_for_json(tmp_path, capsys, monkeypatch, cert_p4, fmt, calls):
    # the weight payload costs mpf weights and, once per p, a 10^6-term float
    # loop that text output never shows
    path = tmp_path / "cert.json"
    save_certificate(cert_p4, path)
    seen = []
    real = lp_isoforge.cli.uncomplemented_to_dict
    monkeypatch.setattr(lp_isoforge.cli, "uncomplemented_to_dict", lambda *a: seen.append(a) or real(*a))
    out = tmp_path / "report"
    code, text, _ = run(capsys, "verify", str(path), "--trials", "5", "--format", fmt, "--out", str(out))
    assert code == 0 and out.read_text() == text
    assert len(seen) == calls


@pytest.mark.parametrize("fmt, calls", [("text", 1), ("json", 0)])
def test_p4_renders_text_only_for_text(capsys, monkeypatch, fmt, calls):
    # the table text and its report are discarded under JSON, the payload
    # under text
    seen = []
    for name in ("render_p4_text", "render_p4_report", "p4_table_to_dict"):
        real = getattr(lp_isoforge.cli, name)
        monkeypatch.setattr(lp_isoforge.cli, name, lambda *a, real=real, name=name: seen.append(name) or real(*a))
    code, text, _ = run(capsys, "p4", "--n", "5", "--format", fmt)
    assert code == 0 and text
    assert sorted(seen) == sorted(["render_p4_report", "render_p4_text"] * calls + ["p4_table_to_dict"] * (1 - calls))


# (construct argv, command argv, exit code, sha256 of the JSON payload with
# the certificate path replaced by "<cert>"); one moved byte of a check
# line, weight row or projection bound moves a hash, so refresh one only
# for an intended change to that payload
PINNED_PAYLOADS = {
    "verify-p6": (
        ["--p", "6", "--j-max", "5"], ["verify", "<cert>"], 0,
        "264bc8a6f3be0142d248d4d617f1aba946d02c7f8a1337a8bd220ff0f9d4e0ba",
    ),
    "verify-p4-partial": (
        ["--p", "4", "--j-max", "10"], ["verify", "<cert>"], 1,
        "ae4f45c93b59c5133853e4da82f14214e7f3c38af712958004b8ba684852b416",
    ),
    "verify-p8": (
        ["--p", "8", "--j-max", "5"], ["verify", "<cert>"], 0,
        "ff8a3b7c293847014ca33971da6b1ed5d6af431d64fe129d698e70c93b95b5ea",
    ),
    # k = 5 and k = 8: the orders where the span's per-order cumulant
    # denominators differ most
    "verify-p10": (
        ["--p", "10", "--j-max", "6"], ["verify", "<cert>"], 0,
        "ee4561c183eb5bd30b608c45c21cec1ac780bef8eea8af4bd7cd1bc09dbc5227",
    ),
    "verify-p16": (
        ["--p", "16", "--j-max", "4"], ["verify", "<cert>"], 0,
        "537b7c2c48630dcb95511430ffbd591c6ab90b1746a8b5b49e14294b58d1c18f",
    ),
    "project": (
        None, ["project", "--p", "4", "--n", "2", "--trials", "5"], 0,
        "3ee56f3c4385f0e5abd4f20b94bf139f8801ed038eb4bc4a924eb8617cd97217",
    ),
    "p4": (
        None, ["p4", "--n", "5"], 0,
        "2fcabea10e1931fbcd20abe24efa3297bb7f51fa64bd37d0f7885e59a9aeccbe",
    ),
}


@pytest.mark.parametrize(
    "construct_argv, argv, exit_code, digest", list(PINNED_PAYLOADS.values()), ids=list(PINNED_PAYLOADS)
)
def test_json_payload_bytes_pinned(tmp_path, capsys, construct_argv, argv, exit_code, digest):
    # a verify payload renders twice in one process: the first computes the
    # comparator sum, the second reads it from serialize's per-process cache
    lp_isoforge.serialize._comparator_sums.cache_clear()
    assert pinned_run(tmp_path, capsys, construct_argv, [*argv, "--format", "json"]) == (exit_code, digest)
    if argv[0] == "verify":
        assert pinned_run(tmp_path, capsys, None, [*argv, "--format", "json"]) == (exit_code, digest)
        assert lp_isoforge.serialize._comparator_sums.cache_info().misses == 1


# the same for the default text report of verify
PINNED_TEXT = {
    "verify-p6": (
        ["--p", "6", "--j-max", "5"], ["verify", "<cert>"], 0,
        "17ad463c2a985adf037e5067d5e7d41d23dc8022ad90d21f6bb29d7a2f838161",
    ),
    "verify-p4-partial": (
        ["--p", "4", "--j-max", "10"], ["verify", "<cert>"], 1,
        "a1582066b51ec7ad65b4ca5f8bc26eedf6777bb8246b7ac5bdf4139e3bc0f083",
    ),
}


@pytest.mark.parametrize(
    "construct_argv, argv, exit_code, digest", list(PINNED_TEXT.values()), ids=list(PINNED_TEXT)
)
def test_text_report_bytes_pinned(tmp_path, capsys, construct_argv, argv, exit_code, digest):
    assert pinned_run(tmp_path, capsys, construct_argv, argv) == (exit_code, digest)


def test_verify_truncated_certificate(tmp_path, capsys, cert_p4):
    path = tmp_path / "cert.json"
    save_certificate(cert_p4, path)
    path.write_text(path.read_text()[:80])
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2
    assert "error:" in err


def test_verify_missing_file(tmp_path, capsys):
    code, _, err = run(capsys, "verify", str(tmp_path / "nope.json"))
    assert code == 2
    assert "error:" in err


def test_moments_formula_vs_oracle(tmp_path, capsys):
    spec = write_moment_spec(
        tmp_path,
        [{"scale": 1, "mass": "1/2"}, {"scale": 1, "mass": "1/3"}],
        [2, 4],
    )
    code, text, _ = run(capsys, "moments", spec)
    assert code == 0
    assert "order 2: formula 5/6  oracle 5/6" in text
    assert "order 4: formula 11/6  oracle 11/6" in text
    # the README's sum.json example and the lines it documents
    spec = write_moment_spec(
        tmp_path,
        [{"scale": 1, "mass": "2/3"}, {"scale": "1/2", "mass": "1/3"}],
        [2, 4, 6],
    )
    assert run(capsys, "moments", spec) == (
        0,
        "terms: 2, atoms: 7\n"
        "order 2: formula 3/4  oracle 3/4\n"
        "order 4: formula 49/48  oracle 49/48\n"
        "order 6: formula 329/192  oracle 329/192\n",
        "",
    )


def test_moments_order_zero(tmp_path, capsys):
    spec = write_moment_spec(tmp_path, [{"scale": 1, "mass": "1/2"}, {"scale": 1, "mass": "1/3"}], [0, 2])
    code, text, _ = run(capsys, "moments", spec)
    assert code == 0
    assert "order 0: formula 1/1  oracle 1/1" in text
    assert "order 2: formula 5/6  oracle 5/6" in text


def test_moments_accepts_plain_numbers(tmp_path, capsys):
    spec = write_moment_spec(tmp_path, [{"scale": 2, "mass": 0.5}], [2])
    code, text, _ = run(capsys, "moments", spec)
    assert code == 0
    assert "order 2: formula 2/1  oracle 2/1" in text


def test_moments_rejects_odd_order(tmp_path, capsys):
    spec = write_moment_spec(tmp_path, [{"scale": 1, "mass": "1/2"}], [3])
    code, _, err = run(capsys, "moments", spec)
    assert code == 2
    assert "even integers" in err


def test_moments_rejects_missing_mass(tmp_path, capsys):
    spec = write_moment_spec(tmp_path, [{"scale": 1}], [2])
    code, _, err = run(capsys, "moments", spec)
    assert code == 2


def test_moments_rejects_bool_mass(tmp_path, capsys):
    spec = write_moment_spec(tmp_path, [{"scale": 1, "mass": True}], [2])
    code, _, err = run(capsys, "moments", spec)
    assert code == 2


@pytest.mark.parametrize(
    "term, order",
    [
        ({"scale": 1, "mass": 2}, 2),
        ({"scale": 1, "mass": float("inf")}, 2),
        ({"scale": "1/0", "mass": "1/2"}, 2),
        # the fold's cost grows as the square of the order; it is refused
        # before any moment is computed
        ({"scale": 1, "mass": "1/2"}, 20000),
    ],
    ids=["mass 2", "mass Infinity", "scale 1/0", "order 20000"],
)
def test_moments_rejects_bad_value(tmp_path, capsys, term, order):
    t0 = time.monotonic()
    code, out, err = run(capsys, "moments", write_moment_spec(tmp_path, [term], [order]))
    assert time.monotonic() - t0 < 1
    assert code == 2
    assert err.startswith("error:")
    assert out == ""


@pytest.mark.parametrize(
    "term",
    [
        # a squared scale of 1/9 + about 10^-79 next to scale 1/3: the terms
        # hold exactly scale and mass, so it cannot print a formula that
        # disagrees with the exact oracle
        {"scale": "1/3", "mass": "1/2", "scale_sq": "1" * 78 + "2/1" + "0" * 79},
        {"scale": "1/3", "mass": "1/2", "mas": "1/3"},
    ],
    ids=["scale_sq", "misspelled key"],
)
def test_moments_rejects_unknown_term_key(tmp_path, capsys, term):
    code, out, err = run(capsys, "moments", write_moment_spec(tmp_path, [term], [2]))
    assert code == 2
    assert err.startswith("error:") and "unknown keys" in err
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        lambda tmp: ("moments", write_moment_spec(tmp, [{"scale": 1, "mass": "1e-1000000"}], [2])),
        lambda tmp: ("construct", "--p", "6", "--nu-fraction", "1e-10000000"),
    ],
    ids=["moment spec mass 1e-1000000", "nu-fraction 1e-10000000"],
)
def test_huge_decimal_exponent_exits_two_at_once(tmp_path, capsys, argv):
    # Fraction("1e-N") builds 10^N; the exponent is bounded on the text first
    t0 = time.monotonic()
    code, out, err = run(capsys, *argv(tmp_path))
    assert time.monotonic() - t0 < 1
    assert code == 2 and out == ""
    assert err.startswith("error:") and "decimal exponent" in err


@pytest.mark.parametrize(
    "argv, reason",
    [
        (lambda tmp: ("moments", write_moment_spec(tmp, [{"scale": "1/0", "mass": "1/2"}], [2])), "zero denominator"),
        (lambda tmp: ("construct", "--p", "6", "--nu-fraction", "1/0"), "zero denominator"),
        (lambda tmp: ("moments", write_moment_spec(tmp, [{"scale": 1, "mass": float("inf")}], [2])), "not a finite"),
    ],
    ids=["moment spec scale 1/0", "nu-fraction 1/0", "moment spec mass Infinity"],
)
def test_unparsable_rational_names_its_reason(tmp_path, capsys, argv, reason):
    code, out, err = run(capsys, *argv(tmp_path))
    assert code == 2 and out == ""
    assert err.startswith("error:") and reason in err and "Fraction(" not in err


def test_decimal_exponent_bound_keeps_values_inside_it(tmp_path, capsys):
    spec = write_moment_spec(tmp_path, [{"scale": "1e-4300", "mass": "5e-1"}], [2])
    code, text, _ = run(capsys, "moments", spec)
    assert code == 0
    assert "order 2: formula 1/2" + "0" * 8600 + "  oracle" in text
    out = str(tmp_path / "cert.json")
    assert run(capsys, "construct", "--p", "6", "--j-max", "1", "--nu-fraction", "0.75e0", "--out", out)[0] == 0


def test_over_long_json_integer_exits_two(tmp_path, capsys, cert_p4):
    # json refuses an integer over 4300 digits with a bare ValueError
    cert = tmp_path / "cert.json"
    save_certificate(cert_p4, cert)
    text = cert.read_text()
    assert text.count('"precision_bits": 256,') == 1
    cert.write_text(text.replace('"precision_bits": 256,', '"precision_bits": 1' + "0" * 5000 + ","))
    spec = tmp_path / "spec.json"
    spec.write_text('{"terms": [{"scale": 1' + "0" * 5000 + ', "mass": "1/2"}], "orders": [2]}')
    for argv in (("verify", str(cert)), ("moments", str(spec))):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "not valid JSON" in err


def test_p4_row_counts(tmp_path, capsys):
    code, text, _ = run(capsys, "p4", "--n", "2", "--format", "json")
    assert code == 0
    assert len(json.loads(text)["rows"]) == 1
    code, text, _ = run(capsys, "p4", "--n", "50", "--format", "json")
    assert code == 0
    assert len(json.loads(text)["rows"]) == 49


def test_p4_text_report(capsys):
    code, text, _ = run(capsys, "p4", "--n", "5")
    assert code == 0
    assert "a_printed" in text
    assert "-4/(n^2 log^2 n)" in text


def test_p4_rejects_n_below_two(capsys):
    code, _, err = run(capsys, "p4", "--n", "1")
    assert code == 2


def test_project_two_generators(capsys):
    code, text, _ = run(capsys, "project", "--trials", "10")
    assert code == 0
    assert "FAIL" not in text
    assert "grid oracle:" in text


def test_project_single_generator_json(capsys):
    code, text, _ = run(
        capsys, "project", "--n", "1", "--trials", "10", "--format", "json"
    )
    assert code == 0
    payload = json.loads(text)
    assert all(c["pass"] for c in payload["checks"])
    assert "grid_oracle" not in payload
    assert float(payload["norm_lower_bound"]) >= 1.0


@pytest.mark.parametrize(
    "argv",
    [
        ("construct", "--p", "5"),
        ("construct", "--p", "6", "--precision", "127"),
        ("construct", "--p", "6", "--precision", "8193"),
        ("construct", "--p", "6", "--nu-fraction", "1/4"),
        ("construct", "--p", "6", "--j-max", "0"),
        ("construct", "--p", "6", "--j-max", "4294967297"),
        ("p4", "--n", "1"),
        ("project", "--n", "0"),
        ("project", "--trials", "-5"),
    ],
    ids=[
        "odd p", "precision 127", "precision above cap", "nu-fraction 1/4", "j-max 0", "j-max 2**32 + 1", "p4 n 1",
        "project n 0", "trials -5",
    ],
)
def test_usage_error_exits_two(tmp_path, capsys, argv):
    code, out, err = run(capsys, *argv, "--out", str(tmp_path / "out"))
    assert code == 2
    assert err.startswith("error:")
    assert out == ""
    assert not (tmp_path / "out").exists()


def test_precision_is_a_usage_error_where_nothing_reads_it(tmp_path, capsys, cert_p4):
    # verify works at the certificate's precision, moments is exact, and
    # project and p4 run at DEFAULT_PRECISION_BITS
    cert = tmp_path / "cert.json"
    save_certificate(cert_p4, cert)
    spec = write_moment_spec(tmp_path, [{"scale": 1, "mass": "1/2"}], [2])
    for argv in (
        ("verify", str(cert), "--trials", "2"),
        ("moments", spec),
        ("project", "--p", "4", "--n", "1", "--trials", "2"),
        ("p4", "--n", "3"),
    ):
        assert run(capsys, *argv)[0] == 0
        code, out, err = run(capsys, *argv, "--precision", "512")
        assert code == 2 and out == ""
        assert "unrecognized arguments: --precision 512" in err


def test_value_error_in_a_command_is_not_a_usage_error(monkeypatch, capsys):
    # a ValueError from inside the library is a bug: it propagates, never exit 2
    def broken(*args, **kwargs):
        raise ValueError("library bug")

    monkeypatch.setattr(lp_isoforge.cli, "construct_pair", broken)
    with pytest.raises(ValueError, match="library bug"):
        main(["construct", "--p", "6", "--j-max", "2"])


@pytest.mark.parametrize("n", [1, 2])
def test_project_payload_renders_projection_report(capsys, n):
    report = projection_report(4, n, trials=5, seed=3)
    code, text, _ = run(capsys, "project", "--n", str(n), "--trials", "5", "--seed", "3", "--format", "json")
    payload = json.loads(text)
    assert code == 0 and report.passed
    assert payload["checks"] == [{"name": name, "pass": ok} for name, ok in report.checks]
    assert payload["norm_lower_bound"] == real_to_str(report.bound, 256)
    assert payload.get("grid_oracle") == (None if n == 1 else repr(report.grid_oracle))
    assert payload.get("relative_gap") == (None if n == 1 else repr(report.relative_gap))


def test_out_file_mirrors_stdout(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, text, _ = run(
        capsys, "p4", "--n", "4", "--format", "json", "--out", str(out)
    )
    assert code == 0
    assert out.read_text() == text
    json.loads(text)


def handler_source(handler) -> str:
    """The handler's source plus that of each cli function it hands `args` to."""
    source = inspect.getsource(handler)
    helpers = sorted(set(re.findall(r"\b(\w+)\(args[,)]", source)))
    return source + "".join(inspect.getsource(getattr(lp_isoforge.cli, name)) for name in helpers)


def test_every_option_is_read_by_its_handler():
    # an option that parses but changes nothing misleads the user
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == {"construct", "verify", "p4", "moments", "project"}
    unread = [
        f"{name} {action.dest}"
        for name, sp in sub.choices.items()
        for action in sp._actions
        if not isinstance(action, argparse._HelpAction)
        and f"args.{action.dest}" not in handler_source(sp.get_default("handler"))
    ]
    assert unread == []
