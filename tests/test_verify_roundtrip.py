"""Every ``decide --json`` document passes ``verify``; forged gammas do not.

The gamma checks of ``verify`` run on integers (one common denominator,
Gauss's lemma for divisibility).  The forgeries below show they are no
looser than re-multiplying over Q: a cofactor coefficient off by 1/2
breaks the Bezout identity, gamma times (x + 1) with its cofactors scaled
to match keeps the identity but divides no longer, and 2*gamma with
doubled cofactors keeps both but is not monic.
"""

import contextlib
import copy
import io
import json
import sys
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from finsep.cli import run
from finsep.poly import IntPoly, format_poly

coefficients = st.integers(-12, 12)
# a shared factor with zero constant term makes most gammas nontrivial
common_factors = st.lists(coefficients, min_size=1, max_size=3).map(
    lambda c: IntPoly([0, *c])
)
multipliers = st.lists(coefficients, min_size=1, max_size=4).map(IntPoly)
presentations = st.tuples(
    common_factors,
    st.lists(st.tuples(multipliers, st.sampled_from((1, 2, 3, 6, 12))),
             min_size=1, max_size=4),
).map(lambda t: [t[0] * m * IntPoly((k,)) for m, k in t[1]]).filter(
    lambda rs: any(not r.is_zero() for r in rs)
)

SETTINGS = settings(
    max_examples=60, deadline=None, derandomize=True, database=None
)


def _run(argv, stdin_text=None) -> tuple[int, str]:
    out, saved = io.StringIO(), sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = run(argv)
    finally:
        sys.stdin = saved
    return rc, out.getvalue()


def _decide(relators) -> dict:
    argv = ["decide", "--json"]
    for r in relators:
        argv.append(f"--relator={format_poly(r)}")
    rc, doc = _run(argv)
    assert rc == 0
    return json.loads(doc)


def _verify(doc: dict) -> dict:
    rc, report = _run(["verify", "-", "--json"], json.dumps(doc))
    assert rc == 0
    return json.loads(report)


def _failed(doc: dict) -> list[str]:
    report = _verify(doc)
    failed = [c["name"] for c in report["checks"] if not c["ok"]]
    assert report["all_ok"] is False and failed
    return failed


def _scaled(poly_json: dict, multiplier: tuple) -> dict:
    """A JSON rational polynomial times a polynomial given ascending."""
    coeffs = [Fraction(c) for c in poly_json["coeffs"]]
    out = [Fraction(0)] * (len(coeffs) + len(multiplier) - 1) if coeffs else []
    for i, c in enumerate(coeffs):
        for j, m in enumerate(multiplier):
            out[i + j] += c * m
    return {"coeffs": [str(c) for c in out], "text": ""}


@SETTINGS
@given(presentations)
def test_decide_documents_verify(relators):
    report = _verify(_decide(relators))
    assert report["all_ok"] is True
    assert any(c["name"] == "gamma bezout identity" for c in report["checks"])


@SETTINGS
@given(presentations, st.data())
def test_forged_gamma_cofactor_is_invalid(relators, data):
    doc = _decide(relators)
    forged = copy.deepcopy(doc)
    j = data.draw(st.integers(0, len(forged["gamma_cofactors"]) - 1))
    coeffs = forged["gamma_cofactors"][j]["coeffs"]
    if coeffs:
        k = data.draw(st.integers(0, len(coeffs) - 1))
        coeffs[k] = str(Fraction(coeffs[k]) + Fraction(1, 2))
    else:
        coeffs.append("1/2")
    assert "gamma bezout identity" in _failed(forged)


@SETTINGS
@given(presentations)
def test_gamma_times_x_plus_one_is_invalid(relators):
    doc = _decide(relators)
    forged = copy.deepcopy(doc)
    forged["gamma"] = _scaled(doc["gamma"], (1, 1))
    forged["gamma_cofactors"] = [_scaled(c, (1, 1)) for c in doc["gamma_cofactors"]]
    failed = _failed(forged)
    # the identity and monicity survive; only divisibility gives it away
    assert "gamma divides every relator" in failed
    assert "gamma bezout identity" not in failed and "gamma is monic" not in failed


@SETTINGS
@given(presentations)
def test_gamma_not_monic_is_invalid(relators):
    doc = _decide(relators)
    forged = copy.deepcopy(doc)
    forged["gamma"] = _scaled(doc["gamma"], (2,))
    forged["gamma_cofactors"] = [_scaled(c, (2,)) for c in doc["gamma_cofactors"]]
    failed = _failed(forged)
    assert "gamma is monic" in failed and "gamma bezout identity" not in failed


# --- the verdict: separable, coefficient_gcd, its factorization, the reason --

def _witness(relators) -> dict:
    rc, doc = _run(["witness", "--json"]
                   + [f"--relator={format_poly(r)}" for r in relators])
    assert rc == 0
    return json.loads(doc)


def _check_names(doc: dict) -> set[str]:
    return {c["name"] for c in _verify(doc)["checks"]}


VERDICT = "separable is gcd squarefree and gamma integral"


@SETTINGS
@given(presentations)
def test_decide_documents_check_their_verdict(relators):
    doc = _decide(relators)
    names = _check_names(doc)
    assert {VERDICT, "coefficient gcd is the gcd of the relator coefficients"} <= names
    assert ("witness k is the coefficient gcd" in names) == doc["separable"]


@SETTINGS
@given(presentations)
def test_separable_witness_documents_verify(relators):
    doc = _witness(relators)
    report = _verify(doc)
    if doc["separable"]:
        assert report["all_ok"] is True
        assert {VERDICT, "witness k is the coefficient gcd",
                "membership certificate"} <= {c["name"] for c in report["checks"]}
    else:
        # a not-separable witness document carries no failure reason
        assert report["all_ok"] is False


def test_a_separable_verdict_flipped_to_not_separable_is_invalid():
    doc = _decide([IntPoly((0, -6, 6))])
    assert _verify(doc)["all_ok"] is True
    doc["separable"] = False
    del doc["witness"]
    assert set(_failed(doc)) == {VERDICT, "the data imply a failure reason"}


def test_a_non_squarefree_content_claimed_separable_is_invalid():
    # 4x^2 - 4x: the reason dropped, a witness k = 4, phi = x^2 - x added;
    # every certificate in it re-multiplies
    doc = _decide([IntPoly((0, -4, 4))])
    assert doc["separable"] is False
    del doc["failure_reason"]
    doc["separable"] = True
    poly = lambda *c: {"coeffs": list(c), "text": ""}
    doc["witness"] = {"k": 4, "phi": poly(0, -1, 1), "certificate": {
        "cofactors": [poly(1)], "claim": poly(0, -4, 4)}}
    assert _failed(doc) == [VERDICT]


@pytest.mark.parametrize("field,value,check", [
    ("coefficient_gcd", 3, "coefficient gcd is the gcd of the relator coefficients"),
    ("coefficient_gcd_factorization", [[6, 1]],
     "coefficient gcd factorization multiplies back with distinct primes"),
    ("coefficient_gcd_factorization", [[2, 1]],
     "coefficient gcd factorization multiplies back with distinct primes"),
    ("coefficient_gcd_factorization", [[2, 1], [3, 1], [2, 0]],
     "coefficient gcd factorization multiplies back with distinct primes"),
    ("coefficient_gcd_factorization", [[2, 10**18]],
     "coefficient gcd factorization multiplies back with distinct primes"),
])
def test_a_forged_coefficient_gcd_is_invalid(field, value, check):
    doc = _decide([IntPoly((0, -6, 6))])
    doc[field] = value
    assert check in _failed(doc)


TAIL = "tail coefficients are phi's descending tail"
SPLIT_PRIMES = "torsion split parts are distinct primes with product k"
SPLIT_BEZOUT = "torsion split p_i*k_i = k and sum z_i*k_i = 1"


@pytest.mark.parametrize("edit,failed", [
    (lambda d: d.update(tail_coefficients=[1]), [TAIL]),
    (lambda d: d.update(tail_coefficients=[]), [TAIL]),
    # 6 = 6 * 1 with 1 * 1 = 1 holds every identity, but 6 is not prime
    (lambda d: d["torsion_split"].update(parts=[[6, 1]], bezout=[1]), [SPLIT_PRIMES]),
    (lambda d: d["torsion_split"].update(bezout=[2, -1]), [SPLIT_BEZOUT]),
    (lambda d: d["torsion_split"].update(parts=[[2, 3], [3, 3]]), [SPLIT_BEZOUT]),
    (lambda d: d.pop("torsion_split"), [SPLIT_PRIMES, SPLIT_BEZOUT]),
])
def test_a_forged_witness_tail_or_torsion_split_is_invalid(edit, failed):
    # 6x^2 - 6x: k = 6, phi = x^2 - x, tail [-1], split 2*3 and 3*2
    doc = _witness([IntPoly((0, -6, 6))])
    assert {TAIL, SPLIT_PRIMES, SPLIT_BEZOUT} <= set(_check_names(doc))
    assert _verify(doc)["all_ok"] is True
    edit(doc)
    assert _failed(doc) == failed


def test_a_wrong_failure_reason_is_invalid():
    # 2x^2 + x has gcd 1 and gamma x^2 + x/2: the reason is the gamma's
    doc = _decide([IntPoly((0, 1, 2))])
    doc["failure_reason"]["kind"] = "non_squarefree_gcd"
    doc["failure_reason"]["prime"] = 2
    assert "failure reason is non_integer_gamma" in _failed(doc)


def test_a_malformed_verdict_is_an_input_error():
    doc = _decide([IntPoly((0, -6, 6))])
    for field, value in (("separable", "yes"), ("coefficient_gcd", "6"),
                         ("coefficient_gcd_factorization", [[2]])):
        forged = dict(doc, **{field: value})
        rc, _ = _run(["verify", "-"], json.dumps(forged))
        assert rc == 2, field
