"""Certificate JSON: byte stability, schema enforcement, lossless reals."""

import dataclasses
import json
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import workprec

from lp_isoforge import serialize
from lp_isoforge.analysis import isometry_check, uncomplemented_certificate
from lp_isoforge.errors import SchemaError
from lp_isoforge.momentpoly import MuVector
from lp_isoforge.numeric import frac_to_str, parse_real, real_to_str, to_mpf
from lp_isoforge.p4 import build_p4_table
from lp_isoforge.serialize import (
    CERT_SCHEMA_ID,
    cert_from_dict,
    cert_to_dict,
    dumps_json,
    isometry_to_dict,
    load_certificate,
    p4_table_to_dict,
    save_certificate,
    uncomplemented_to_dict,
)
from lp_isoforge.solver import construct_pair


def test_round_trip_is_identity(cert_p4):
    loaded = cert_from_dict(cert_to_dict(cert_p4))
    assert loaded == cert_p4
    assert loaded.ball.mu_bar == cert_p4.ball.mu_bar
    for a, b in zip(loaded.entries, cert_p4.entries):
        assert a.nu == b.nu and a.residuals == b.residuals
        with workprec(cert_p4.precision_bits):
            for x, y in zip(a.mu, b.mu):
                assert x == y  # bit-exact, not approximately


def test_round_trip_is_byte_stable(cert_p4, tmp_path):
    first = tmp_path / "cert.json"
    second = tmp_path / "cert2.json"
    save_certificate(cert_p4, first)
    save_certificate(load_certificate(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_serialized_form(cert_p4):
    d = cert_to_dict(cert_p4)
    assert d["schema"] == CERT_SCHEMA_ID == "lp-isoforge-cert/1"
    assert list(d) == [
        "schema", "p", "k", "precision_bits", "seed", "nu_fraction",
        "ball", "target", "entries", "failed_js",
    ]
    assert d["nu_fraction"] == "3/4"
    assert d["ball"]["delta"] == "1/48"
    assert d["target"] == ["1/1", "7/3"]
    assert all(e["j"] == i + 1 for i, e in enumerate(d["entries"]))


def test_dumps_json_format():
    s = dumps_json({"b": 1, "a": ["1/2"]})
    assert s.endswith("\n") and not s.endswith("\n\n")
    assert s.startswith('{\n  "b": 1,')  # insertion order, two-space indent
    assert s.isascii()
    json.loads(s)


def test_seed_and_failed_js_survive(cert_p4):
    cert = dataclasses.replace(cert_p4, seed=7, failed_js=(9, 11))
    loaded = cert_from_dict(cert_to_dict(cert))
    assert loaded.seed == 7
    assert loaded.failed_js == (9, 11)
    # absent seed becomes null and comes back as None
    assert cert_from_dict(cert_to_dict(cert_p4)).seed is None


def test_wrong_schema_id_rejected(cert_p4):
    d = cert_to_dict(cert_p4)
    d["schema"] = "lp-isoforge-cert/2"
    with pytest.raises(SchemaError):
        cert_from_dict(d)


def test_missing_field_rejected(cert_p4):
    d = cert_to_dict(cert_p4)
    del d["target"]
    with pytest.raises(SchemaError):
        cert_from_dict(d)


def test_unknown_field_rejected(cert_p4):
    d = cert_to_dict(cert_p4)
    d["comment"] = "lgtm"
    with pytest.raises(SchemaError):
        cert_from_dict(d)


def test_malformed_fraction_rejected(cert_p4):
    d = cert_to_dict(cert_p4)
    d["nu_fraction"] = "0.75"
    with pytest.raises(SchemaError):
        cert_from_dict(d)


def test_malformed_real_rejected(cert_p4):
    d = cert_to_dict(cert_p4)
    d["entries"][0]["jac_det"] = "not a number"
    with pytest.raises(SchemaError):
        cert_from_dict(d)


def test_k_not_half_p_rejected(cert_p4):
    d = cert_to_dict(cert_p4)
    d["k"] = 3
    with pytest.raises(SchemaError, match="p must equal 2k"):
        cert_from_dict(d)


def test_mu_bar_length_rejected(cert_p6):
    d = cert_to_dict(cert_p6)
    d["ball"]["mu_bar"] = d["ball"]["mu_bar"][:2]
    with pytest.raises(SchemaError, match="ball.mu_bar has length 2"):
        cert_from_dict(d)


def test_target_length_rejected(cert_p6):
    d = cert_to_dict(cert_p6)
    d["target"].append("1/1")
    with pytest.raises(SchemaError, match="target has length 4"):
        cert_from_dict(d)


@pytest.mark.parametrize("field", ["mu", "residuals"])
def test_entry_vector_length_rejected(cert_p6, field):
    d = cert_to_dict(cert_p6)
    d["entries"][1][field] = d["entries"][1][field][:2]
    with pytest.raises(SchemaError, match=f"entry j=2 {field} has length 2"):
        cert_from_dict(d)


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: d["ball"]["mu_bar"].__setitem__(0, "3/2"),
        lambda d: d["entries"][0]["mu"].__setitem__(0, "1.5"),
        lambda d: d["entries"][0].update(nu="-1/48"),
        lambda d: d["target"].__setitem__(0, "0/1"),
    ],
    ids=["mu_bar above 1", "mu above 1", "negative nu", "zero target"],
)
def test_values_outside_domain_rejected(cert_p4, edit):
    d = cert_to_dict(cert_p4)
    edit(d)
    with pytest.raises(SchemaError):
        cert_from_dict(d)


@pytest.mark.parametrize(
    "p, j_max, prec", [(4, 8, 256), (6, None, 256), (8, 4, 128), (8, 4, 512)], ids=["p4-ladder", "p6", "p8-128", "p8-512"]
)
def test_certificate_masses_are_exact(cert_p6, p, j_max, prec):
    # masses become exact dyadics once, where they enter (the solver's roots,
    # the reader); no mu, nu or residual is a float, built or reloaded.
    # p = 4 to j = 8 walks the continuation ladder at j = 5..8
    built = cert_p6 if j_max is None else construct_pair(p, j_max, prec)
    for cert in (built, cert_from_dict(cert_to_dict(built))):
        inexact = [(e.j, v) for e in cert.entries for v in (*e.mu, e.nu, *e.residuals) if type(v) is not Fraction]
        assert cert.entries and inexact == []
    for bad in (mpmath.mpf("0.5"), 0.5, True):
        with pytest.raises(TypeError):
            MuVector((bad,))


def test_malformed_value_rejected(cert_p6, malformed_edit):
    d = cert_to_dict(cert_p6)
    malformed_edit(d)
    with pytest.raises(SchemaError):
        cert_from_dict(d)


@settings(max_examples=200, deadline=None)
@given(
    prec=st.integers(128, 600),
    mantissa=st.integers(1, 2 ** 600),
    exponent=st.integers(-300, 100),
    negative=st.booleans(),
)
@example(prec=256, mantissa=999, exponent=-43, negative=False)  # 9.98999...e-41
@example(prec=256, mantissa=3333, exponent=0, negative=True)  # -3333.0
def test_real_strings_load_bit_exact(prec, mantissa, exponent, negative):
    # real_to_str output at any precision and decimal exponent is in the
    # grammar parse_real accepts, and loads back to the same bits
    x = to_mpf(Fraction(-mantissa if negative else mantissa) * Fraction(10) ** exponent, prec)
    s = real_to_str(x, prec)
    assert parse_real(s, prec)._mpf_ == x._mpf_


def test_integers_beyond_str_digit_limit(cert_p4):
    # 5071 and 5248 digits: str(int) and int(str) refuse more than 4300
    big = Fraction(7 ** 6000 + 1, 10 ** 5247 + 3)
    s = frac_to_str(big)
    num, den = s.split("/")
    assert (len(num), len(den)) == (5071, 5248)
    iso = dataclasses.replace(isometry_check(cert_p4, trials=2, seed=0), bound=big)
    assert isometry_to_dict(iso, cert_p4.precision_bits)["bound_exact"] == s
    d = cert_to_dict(cert_p4)
    d["ball"]["M"] = s
    assert cert_from_dict(d).ball.M == big


def test_truncated_file_rejected(cert_p4, tmp_path):
    path = tmp_path / "cert.json"
    save_certificate(cert_p4, path)
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    with pytest.raises(SchemaError):
        load_certificate(path)


def test_tampered_value_loads_but_differs(cert_p4):
    # shape-valid edits must load; catching them is the verifier's job
    d = cert_to_dict(cert_p4)
    d["entries"][0]["nu"] = "1/48"
    loaded = cert_from_dict(d)
    assert loaded.entries[0].nu == Fraction(1, 48) != cert_p4.entries[0].nu


def test_report_payload_shapes(cert_p4):
    iso = isometry_check(cert_p4, trials=5, seed=0)
    di = isometry_to_dict(iso, cert_p4.precision_bits)
    assert di["within_bound"] is True
    assert di["orders_checked"] == [2, 4]

    assert Fraction(di["max_rel_residual_exact"]) == iso.max_rel_residual
    assert Fraction(di["bound_exact"]) == iso.bound

    uc = uncomplemented_certificate(cert_p4)
    du = uncomplemented_to_dict(uc, cert_p4.precision_bits)
    assert du["valid"] is True
    assert len(du["rows"]) == len(cert_p4.entries)
    # repr round-trips the float; sum_{j <= 10^6} j^-2 = pi^2/6 - 1/10^6 + O(10^-12)
    assert repr(float(du["comparator_partial_sum"])) == du["comparator_partial_sum"]
    assert float(du["comparator_partial_sum"]) == pytest.approx(math.pi ** 2 / 6 - 1e-6, abs=1e-11)
    assert "not certified" in du["divergence_note"]
    json.loads(dumps_json(du))

    rows = build_p4_table(6)
    dt = p4_table_to_dict(rows)
    assert dt["precision_bits"] == 256
    assert len(dt["rows"]) == len(rows)
    assert dt["rows"][0]["n"] == rows[0].n
    assert dt["rows"][0]["residual_2_printed"] == "0/1"
    json.loads(dumps_json(dt))


@pytest.fixture
def comparator_sums():
    serialize._comparator_sums.cache_clear()
    yield serialize._comparator_sums
    serialize._comparator_sums.cache_clear()


@pytest.mark.parametrize("p", [4, 6, 8, 10, 12, 16])
def test_comparator_sums_cached_bit_for_bit(comparator_sums, p):
    exponent = Fraction(4, p - 2)
    uncached = comparator_sums.__wrapped__(exponent, serialize._COMPARATOR_N)
    for _ in range(2):  # a miss, then a hit
        cached = comparator_sums(exponent, serialize._COMPARATOR_N)
        assert [x.hex() for x in cached] == [x.hex() for x in uncached]
    assert comparator_sums.cache_info().misses == 1


def test_comparator_sums_once_per_p(comparator_sums):
    # two different p = 6 certificates render the same comparator values
    certs = [construct_pair(6, 3), construct_pair(6, 5, nu_fraction=Fraction(5, 9))]
    payloads = [uncomplemented_to_dict(uncomplemented_certificate(c), 256) for c in certs]
    assert comparator_sums.cache_info().misses == 1
    assert comparator_sums.cache_info().hits == 1
    assert payloads[0]["rows"] != payloads[1]["rows"]
    for key in ("comparator_partial_N", "comparator_partial_sum", "comparator_reference"):
        assert payloads[0][key] == payloads[1][key]


def test_comparator_sums_key_holds_n(comparator_sums, monkeypatch, cert_p4):
    uc = uncomplemented_certificate(cert_p4)
    uncomplemented_to_dict(uc, 256)
    monkeypatch.setattr(serialize, "_COMPARATOR_N", 10)
    du = uncomplemented_to_dict(uc, 256)
    partial = 0.0
    for j in range(1, 11):
        partial += j ** -2.0
    assert du["comparator_partial_N"] == 10
    assert du["comparator_partial_sum"] == repr(partial)
    assert comparator_sums.cache_info().misses == 2


def test_real_strings_carry_full_precision(cert_p4):
    d = cert_to_dict(cert_p4)
    e = cert_p4.entries[0]
    with workprec(cert_p4.precision_bits):
        for s, v in zip(d["entries"][0]["mu"], e.mu):
            assert mpmath.mpf(s) == v
