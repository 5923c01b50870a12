"""Shared fixtures: the two reference certificates, built once per session,
and the malformed certificate values every reader test must reject.

The p = 6 certificate is the expensive one (20 Newton solves at 256 bits);
its build time is recorded so the acceptance test can assert the runtime
budget against the real construction cost, wherever in the session it ran.
"""

import time

import pytest

from lp_isoforge.solver import construct_pair


@pytest.fixture(scope="session")
def cert_p6_timed():
    t0 = time.monotonic()
    cert = construct_pair(6, 20, 256)
    return cert, time.monotonic() - t0


@pytest.fixture(scope="session")
def cert_p6(cert_p6_timed):
    return cert_p6_timed[0]


@pytest.fixture(scope="session")
def cert_p4():
    # j_max = 5 keeps every scale solvable; large j at p = 4 has no
    # solution in the mass domain (see test_solver for the regression)
    return construct_pair(4, 5, 256)


# values the certificate reader must reject with SchemaError rather than
# let a ZeroDivisionError, TypeError or mpmath ValueError escape: zero
# denominators, integers written as floats, reals outside the decimal grammar,
# precisions above the cap (an OverflowError at 2**70, a MemoryError at
# 2**40 once the first real is parsed), a zero or negative delta or a
# zero nu, which the verifier divides by, and masses outside
# [2^-MAX_PRECISION_BITS, 1], whose exact rationals grow with the exponent
# (1e-400000 would stall the verifier, 1e400000000 the reader), and scales
# above MAX_SCALE
MALFORMED_EDITS = {
    "precision_bits 2**40": lambda d: d.update(precision_bits=2 ** 40),
    "precision_bits 2**70": lambda d: d.update(precision_bits=2 ** 70),
    "nu_fraction 1/0": lambda d: d.update(nu_fraction="1/0"),
    "ball.eps_bar 1/0": lambda d: d["ball"].update(eps_bar="1/0"),
    "entry nu 1/0": lambda d: d["entries"][0].update(nu="1/0"),
    "p float": lambda d: d.update(p=float(d["p"])),
    "j float": lambda d: d["entries"][0].update(j=1.0),
    "mu dot": lambda d: d["entries"][0]["mu"].__setitem__(0, "."),
    "jac_det two points": lambda d: d["entries"][0].update(jac_det="1.2.3"),
    "ball.delta 0/1": lambda d: d["ball"].update(delta="0/1"),
    "ball.delta -1/48": lambda d: d["ball"].update(delta="-1/48"),
    "entry nu 0/1": lambda d: d["entries"][0].update(nu="0/1"),
    "mu 1e-400000": lambda d: d["entries"][0]["mu"].__setitem__(0, "1e-400000"),
    "mu 1e400000000": lambda d: d["entries"][0]["mu"].__setitem__(0, "1e400000000"),
    # scales above MAX_SCALE: the verifier's exact tables grow with the digits
    # of j (j = 10**4000 took it 54 s)
    "j 10**4000": lambda d: d["entries"][-1].update(j=10 ** 4000),
    "failed_js item 2**32 + 1": lambda d: d.update(failed_js=[2 ** 32 + 1]),
}


@pytest.fixture(params=list(MALFORMED_EDITS.values()), ids=list(MALFORMED_EDITS))
def malformed_edit(request):
    return request.param
