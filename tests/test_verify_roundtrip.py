"""Every document with a certificate passes ``verify``; forged ones do not.

The gamma checks of ``verify`` run on integers (one common denominator,
Gauss's lemma for divisibility).  The forgeries below show they are no
looser than re-multiplying over Q: a cofactor coefficient off by 1/2
breaks the Bezout identity, gamma times (x + 1) with its cofactors scaled
to match keeps the identity but divides no longer, and 2*gamma with
doubled cofactors keeps both but is not monic.
"""

import ast
import contextlib
import copy
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from finsep import check
from finsep.cli import run
from finsep.ideal import Presentation, canonical_basis, membership, normal_form
from finsep.poly import IntPoly, RatPoly, format_poly

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
    """Exit code and stdout; a --json answer must be json.dumps(..., indent=2)."""
    out, saved = io.StringIO(), sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = run(argv)
    finally:
        sys.stdin = saved
    if rc == 0 and "--json" in argv:
        assert out.getvalue() == json.dumps(json.loads(out.getvalue()), indent=2) + "\n"
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
    return {"coeffs": [str(c) for c in out], "text": format_poly(RatPoly(out))}


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

def _check_names(doc: dict) -> set[str]:
    return {c["name"] for c in _verify(doc)["checks"]}


VERDICT = "separable is gcd squarefree and gamma integral"
SPLIT_PRIMES = "torsion split parts are distinct primes with product k"
SPLIT_BEZOUT = "torsion split p_i*k_i = k and sum z_i*k_i = 1"


@SETTINGS
@given(presentations)
def test_decide_documents_check_their_verdict(relators):
    doc = _decide(relators)
    names = _check_names(doc)
    assert {VERDICT, "coefficient gcd is the gcd of the relator coefficients"} <= names
    assert ("witness k is the coefficient gcd" in names) == doc["separable"]


@SETTINGS
@given(presentations)
def test_decide_documents_of_both_verdicts_verify(relators):
    # a separable document with k > 1 also carries the torsion split of k
    doc = _decide(relators)
    report = _verify(doc)
    assert report["all_ok"] is True
    names = {c["name"] for c in report["checks"]}
    if doc["separable"]:
        assert {VERDICT, "witness k is the coefficient gcd",
                "witness certificate"} <= names
        split = doc["witness"]["k"] > 1
        assert ({SPLIT_PRIMES, SPLIT_BEZOUT} <= names) == split == ("torsion_split" in doc)
    else:
        assert {VERDICT, f"failure reason is {doc['failure_reason']['kind']}"} <= names


def test_a_separable_verdict_flipped_to_not_separable_is_invalid():
    doc = _decide([IntPoly((0, -6, 6))])
    assert _verify(doc)["all_ok"] is True
    doc["separable"] = False
    del doc["witness"]
    assert set(_failed(doc)) == {VERDICT, "the data imply a failure reason"}


def test_a_non_squarefree_content_claimed_separable_is_invalid():
    # 4x^2 - 4x: the reason dropped, a witness k = 4, phi = x^2 - x and a
    # split 4 = 2 * 2 added; every certificate in it re-multiplies, but 4
    # has no split into distinct primes
    doc = _decide([IntPoly((0, -4, 4))])
    assert doc["separable"] is False
    del doc["failure_reason"]
    doc["separable"] = True
    poly = _poly_doc
    doc["witness"] = {"k": 4, "phi": poly(0, -1, 1), "certificate": {
        "cofactors": [poly(1)], "claim": poly(0, -4, 4)}}
    doc["torsion_split"] = {"parts": [[2, 2]], "bezout": [1]}
    assert _failed(doc) == [SPLIT_PRIMES, SPLIT_BEZOUT, VERDICT]


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


SQUAREFREE_FLAG = "coefficient gcd squarefree flag matches the factorization"
DENOMINATOR_LCM = "denominator lcm is the lcm of the gamma cofactor denominators"


@pytest.mark.parametrize("field,value,check", [
    ("coefficient_gcd_squarefree", False, SQUAREFREE_FLAG),
    ("denominator_lcm", 77, DENOMINATOR_LCM),
    ("denominator_lcm", 1, DENOMINATOR_LCM),
])
def test_a_forged_squarefree_flag_or_denominator_lcm_is_invalid(field, value, check):
    # 6x^2 - 6x: gcd 6 = 2 * 3 is squarefree, and gamma = x^2 - x has the
    # Bezout cofactor 1/6, so the denominator lcm is 6
    doc = _decide([IntPoly((0, -6, 6))])
    assert doc["coefficient_gcd_squarefree"] is True and doc["denominator_lcm"] == 6
    assert {SQUAREFREE_FLAG, DENOMINATOR_LCM} <= set(_check_names(doc))
    doc[field] = value
    assert _failed(doc) == [check]


TEXT = "every polynomial text is its coefficients formatted"


def test_a_polynomial_text_that_misreads_its_coefficients_is_invalid():
    # 6x^3 - 6x, 10x^2 + 4x: phi's, gamma's and a cofactor's coefficients
    # are kept, so every certificate still holds; only their texts say
    # otherwise.  Each is parsed by its kind checker before the text check
    edits = {("witness", "phi"): "x^7 + 5x", ("gamma",): "x^9",
             ("witness", "certificate", "cofactors", 0): "x^8"}
    for chosen in [[keys] for keys in edits] + [list(edits)]:
        doc = _decide([IntPoly((0, -6, 0, 6)), IntPoly((0, 4, 10))])
        assert doc["separable"] is True and _verify(doc)["all_ok"] is True
        assert TEXT in _check_names(doc)
        for keys in chosen:
            poly = doc
            for key in keys:
                poly = poly[key]
            poly["text"] = edits[keys]
        assert _failed(doc) == [TEXT]


def _polynomial_objects(doc: dict) -> list:
    values = (_at(doc, path) for path in _paths(doc))
    return [v for v in values if isinstance(v, dict) and "coeffs" in v]


def test_verify_parses_each_polynomial_once(monkeypatch):
    # a separable document (witness) and a not-separable one (failure
    # reason); the kind checkers and the text check share one parse
    parsed, parse = [], check._parse
    monkeypatch.setattr(check, "_parse", lambda obj: parsed.append(id(obj)) or parse(obj))
    for relators in ([IntPoly((0, -6, 0, 6)), IntPoly((0, 4, 10))], [IntPoly((0, 1, 2))]):
        doc = _decide(relators)
        parsed.clear()
        checks = check.check_document(doc)
        assert (TEXT, True) in checks and all(ok for _, ok in checks)
        assert sorted(parsed) == sorted(map(id, _polynomial_objects(doc)))


def _set_gamma(doc, value):
    doc["gamma"]["coeffs"][1] = value


def _set_gamma_cofactor(doc, value):
    doc["gamma_cofactors"][0]["coeffs"][0] = value


def _set_flagged(doc, value):
    doc["failure_reason"]["coefficient"] = value


@pytest.mark.parametrize("place", [_set_gamma, _set_gamma_cofactor, _set_flagged])
@pytest.mark.parametrize("value", [0.5, True, "0.5", "1e3", "1/0", "+1/2", " 1/2",
                                   "\u0661/\u0662"],
                         ids=["float", "bool", "decimal", "exponent", "zero denominator",
                              "plus sign", "space", "non-ASCII digits"])
def test_a_rational_coefficient_in_another_form_is_an_input_error(place, value,
                                                                  monkeypatch, capsys):
    # 2x^2 + x: gamma x^2 + (1/2)x, its cofactor 1/2, flagged coefficient
    # "1/2"; only a JSON integer or a string "n" or "n/d" of ASCII digits
    # is read
    doc = _decide([IntPoly((0, 1, 2))])
    place(doc, value)
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    assert run(["verify", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""


def test_a_rational_coefficient_may_be_a_json_integer():
    # gamma x^2 - x of a separable document, and x^2 + (1/2)x of a
    # not-separable one, with their integral coefficients as JSON integers
    for relators in ([IntPoly((0, -1, 1))], [IntPoly((0, 1, 2))]):
        doc = _decide(relators)
        gamma = doc["gamma"]
        gamma["coeffs"] = [c if "/" in c else int(c) for c in gamma["coeffs"]]
        assert _verify(doc)["all_ok"] is True


def test_a_not_squarefree_document_checks_its_flag():
    # 4x^2 - 4x: the gcd 4 = 2^2 is not squarefree, and the flag says so
    doc = _decide([IntPoly((0, -4, 4))])
    assert doc["coefficient_gcd_squarefree"] is False
    assert _verify(doc)["all_ok"] is True
    doc["coefficient_gcd_squarefree"] = True
    assert _failed(doc) == [SQUAREFREE_FLAG]


@pytest.mark.parametrize("edit,failed", [
    # 6 = 6 * 1 with 1 * 1 = 1 holds every identity, but 6 is not prime
    (lambda d: d["torsion_split"].update(parts=[[6, 1]], bezout=[1]), [SPLIT_PRIMES]),
    (lambda d: d["torsion_split"].update(bezout=[2, -1]), [SPLIT_BEZOUT]),
    (lambda d: d["torsion_split"].update(parts=[[2, 3], [3, 3]]), [SPLIT_BEZOUT]),
    (lambda d: d.pop("torsion_split"), [SPLIT_PRIMES, SPLIT_BEZOUT]),
])
def test_a_forged_torsion_split_is_invalid(edit, failed):
    # 6x^2 - 6x: k = 6, phi = x^2 - x, split 2*3 and 3*2
    doc = _decide([IntPoly((0, -6, 6))])
    assert {SPLIT_PRIMES, SPLIT_BEZOUT} <= set(_check_names(doc))
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
                         ("coefficient_gcd_factorization", [[2]]),
                         ("coefficient_gcd_squarefree", 1), ("denominator_lcm", "6")):
        forged = dict(doc, **{field: value})
        rc, _ = _run(["verify", "-"], json.dumps(forged))
        assert rc == 2, field


# --- one checker per document kind -------------------------------------------

def _document(command: str, relators, *extra: str) -> dict:
    rc, doc = _run([command, "--json", *extra]
                   + [f"--relator={format_poly(r)}" for r in relators])
    assert rc == 0
    return json.loads(doc)


@SETTINGS
@given(presentations, st.lists(multipliers, min_size=1, max_size=4), multipliers)
def test_basis_and_member_documents_verify(relators, cofactors, tail):
    # a combination of the relators is a member; x * tail is any polynomial
    # with zero constant term, and x is a non-member unless V holds it
    member = sum((c * r for c, r in zip(cofactors, relators)), IntPoly())
    for doc in (_document("basis", relators),
                *(_document("member", relators, f"--poly={format_poly(g)}")
                  for g in (tail.shift(1), member, IntPoly((0, 1))))):
        assert _verify(doc)["all_ok"] is True, doc["command"]


@SETTINGS
@given(presentations)
def test_invariants_documents_with_finite_torsion_verify(relators):
    doc = _document("invariants", relators)
    report = _verify(doc)
    if doc["torsion"] is None:
        # an infinite torsion is bound-relative and carries no certificate
        assert report["checked"] == 0
    else:
        assert report["all_ok"] is True
        assert "torsion is the torsion witness k" in {c["name"] for c in report["checks"]}


_NO_RELATOR = "the presentation has no nonzero relator and every invariant is null"


def test_a_no_relator_invariants_document_verifies():
    for relators in ([], [IntPoly()]):
        doc = _document("invariants", relators)
        assert list(doc)[3:] == list(check._INVARIANTS)  # every invariant is checked
        report = _verify(doc)
        assert report["all_ok"] is True
        assert [c["name"] for c in report["checks"]] == [
            _NO_RELATOR, "every polynomial text is its coefficients formatted"]


def test_a_forged_no_relator_invariants_document_is_invalid():
    doc = _document("invariants", [])
    doc["torsion"] = 1
    assert _failed(doc) == [_NO_RELATOR]
    # a correct record with its relators emptied
    doc = _document("invariants", [IntPoly((0, -1, 1))])
    doc["relators"] = []
    assert _failed(doc) == [_NO_RELATOR]


def _poly_doc(*coeffs) -> dict:
    """A JSON integer polynomial, its text matching its coefficients."""
    return {"coeffs": list(coeffs), "text": format_poly(IntPoly(coeffs))}


def test_a_member_claim_for_another_polynomial_is_invalid():
    doc = _document("member", [IntPoly((0, -1, 1))], "--poly=x^3 - x")
    assert _verify(doc)["all_ok"] is True
    doc["poly"] = _poly_doc(0, 5)
    assert _failed(doc) == ["normal form reconstruction",
                            "certificate claim is poly and member is true"]
    doc = _document("member", [IntPoly((0, -1, 1))], "--poly=x^3 - x")
    doc["member"] = False
    assert _failed(doc) == ["member is true exactly when the normal form is zero",
                            "certificate claim is poly and member is true"]


def test_a_basis_with_a_redundant_element_is_invalid():
    # x^3 - x^2 = x * (x^2 - x) lies in the ideal and re-multiplies, but its
    # lead does not properly divide the one below it and its tail -x^2 is
    # not reduced
    doc = _document("basis", [IntPoly((0, -1, 1))])
    basis = doc["basis"]
    basis["elements"].append(_poly_doc(0, 0, -1, 1))
    basis["element_cofactors"].append([_poly_doc(0, 1)])
    for row in basis["relator_quotients"]:
        row.append(_poly_doc())
    assert _failed(doc) == ["basis leads are positive and properly divide backward",
                            "basis tails are reduced"]


def test_a_basis_out_of_order_or_not_closed_is_invalid():
    # the relators 4x, 2x^2 + x themselves: leads 4 and 2, tails reduced,
    # but x * 4x = 4x^2 reduces to 2x, not zero, so the ideal holds 2x
    # and the staircase rows do not span it
    doc = _document("basis", [IntPoly((0, 4)), IntPoly((0, 1, 2))])
    one, zero = _poly_doc(1), _poly_doc()
    doc["basis"] = {"elements": [_poly_doc(0, 4), _poly_doc(0, 1, 2)],
                    "element_cofactors": [[one, zero], [zero, one]],
                    "relator_quotients": [[one, zero], [zero, one]]}
    assert _failed(doc) == ["basis consecutive shifts reduce to zero"]
    doc["basis"]["elements"].reverse()
    assert "basis degrees strictly ascend" in _failed(doc)


def test_a_zero_basis_element_is_a_failed_check():
    # a zero element has no lead to reduce by; the checks fail, none raises
    doc = _document("member", [IntPoly((0, 2))], "--poly=x")
    doc["basis"]["elements"][0]["coeffs"] = []
    assert {"basis leads are positive and properly divide backward",
            "normal form is reduced"} <= set(_failed(doc))


def test_an_unreduced_normal_form_is_invalid():
    doc = _document("member", [IntPoly((0, -1, 1))], "--poly=x^3 + x")
    assert doc["normal_form"]["coeffs"] == [0, 2]
    doc["normal_form"] = _poly_doc(0, 1, 0, 1)
    doc["quotients"] = [_poly_doc() for _ in doc["quotients"]]
    assert _failed(doc) == ["normal form is reduced"]


# x^3 - x, 6x^2 - 6x: the basis 6x^2 - 6x, x^3 - x; x^4 + 2x^2 has the
# normal form 3x^2, and x^4 - x^2 = x * (x^3 - x) is a member
GOLDEN_PAIR = [IntPoly((0, -1, 0, 1)), IntPoly((0, -6, 6))]
NONMEMBER, MEMBER = "x^4 + 2x^2", "x^4 - x^2"
RECONSTRUCTION = "normal form reconstruction"
ZERO = "member is true exactly when the normal form is zero"
CARRIES = "a member carries a certificate"
CLAIM = "certificate claim is poly and member is true"


def _bump(poly: dict, index: int) -> dict:
    """The JSON integer polynomial with one coefficient raised by 1."""
    coeffs = list(poly["coeffs"])
    coeffs[index] += 1
    return _poly_doc(*coeffs)


@pytest.mark.parametrize("poly,edit,failed", [
    (NONMEMBER, lambda d: d.update(normal_form=_poly_doc()), [RECONSTRUCTION, ZERO]),
    (NONMEMBER, lambda d: d.update(member=True), [ZERO, CARRIES]),
    (MEMBER, lambda d: d.update(member=False), [ZERO, CLAIM]),
    (NONMEMBER, lambda d: d["quotients"].__setitem__(1, _bump(d["quotients"][1], 1)),
     [RECONSTRUCTION]),
    (MEMBER, lambda d: d.update(certificate=None), [CARRIES]),
    (NONMEMBER, lambda d: d["basis"]["elements"].__setitem__(
        0, _bump(d["basis"]["elements"][0], 1)),
     ["basis elements lie in the relator ideal", "relators lie in the basis ideal",
      "basis consecutive shifts reduce to zero"]),
], ids=["non-member normal form zeroed", "non-member claimed", "member disclaimed",
        "quotient changed", "member certificate dropped", "basis element changed"])
def test_a_forged_member_document_is_invalid(poly, edit, failed):
    doc = _document("member", GOLDEN_PAIR, f"--poly={poly}")
    assert _verify(doc)["all_ok"] is True
    edit(doc)
    assert _failed(doc) == failed


def test_an_nf_document_is_an_input_error(tmp_path, capsys):
    # the document the retired nf command wrote: a member document's fields
    # without the verdict and its certificate
    doc = _document("member", GOLDEN_PAIR, f"--poly={NONMEMBER}")
    del doc["member"], doc["certificate"]
    doc["command"] = "nf"
    path = tmp_path / "nf.json"
    path.write_text(json.dumps(doc))
    assert run(["verify", str(path)]) == 2
    assert "no document kind is named 'nf'" in capsys.readouterr().err


# relators and polynomials of degree at most 6, with zero constant term
low_degree = st.lists(coefficients, min_size=1, max_size=6).map(lambda c: IntPoly([0, *c]))


@SETTINGS
@given(st.lists(low_degree, min_size=1, max_size=3), low_degree,
       st.lists(multipliers, min_size=3, max_size=3))
def test_member_documents_agree_with_the_library(relators, g, hs):
    # v is a member, and g + v has the normal form of g
    v = sum((h * r for h, r in zip(hs, relators)), IntPoly())
    p = Presentation(relators)
    basis = canonical_basis(p)
    docs = [_document("member", relators, f"--poly={format_poly(f)}")
            for f in (g, g + v, v)]
    for f, doc in zip((g, g + v, v), docs):
        assert _verify(doc)["all_ok"] is True
        assert doc["member"] is membership(f, p)[0]
        assert doc["normal_form"]["coeffs"] == list(normal_form(f, basis).coeffs)
    assert docs[1]["normal_form"] == docs[0]["normal_form"]
    assert docs[2]["member"] is True


_CANONICAL_SPLIT = ("minimal content is the content of the minimal polynomial, "
                    "whose lead is positive")


def test_forged_invariants_are_invalid():
    doc = _document("invariants", [IntPoly((0, 0, 2)), IntPoly((0, 0, 0, 1))])
    assert _verify(doc)["all_ok"] is True
    doc.update(torsion=999, algebraic_degree=7, torsion_exponent=42)
    assert _failed(doc) == ["torsion is the torsion witness k",
                            "algebraic degree <= torsion exponent <= deg phi",
                            "torsion exponent is the degree of the exponent witness phi",
                            "algebraic degree is the degree of the minimal polynomial"]
    doc = _document("invariants", [IntPoly((0, 0, 2)), IntPoly((0, 0, 0, 1))])
    doc["minimal_content"] += 1
    assert _failed(doc) == ["minimal content * primitive is the minimal polynomial",
                            _CANONICAL_SPLIT]


def test_a_raised_torsion_exponent_is_invalid():
    # the torsion witness's phi has degree 3, so only the exponent witness
    # pins the exponent 2; a forged exponent witness fails its own checks
    doc = _document("invariants", [IntPoly((0, -1, 0, 1)), IntPoly((0, -6, 6))])
    assert (doc["torsion_exponent"], doc["exponent_witness"]["phi"]["coeffs"]) == (2, [0, -1, 1])
    assert _verify(doc)["all_ok"] is True
    doc["torsion_exponent"] = 3
    assert _failed(doc) == ["torsion exponent is the degree of the exponent witness phi"]
    doc = _document("invariants", [IntPoly((0, -1, 0, 1)), IntPoly((0, -6, 6))])
    doc["exponent_witness"]["certificate"]["cofactors"][0] = _poly_doc(0, 1)
    assert _failed(doc) == ["exponent witness certificate"]
    doc = _document("invariants", [IntPoly((0, -1, 0, 1)), IntPoly((0, -6, 6))])
    doc["exponent_witness"]["phi"] = _poly_doc(0, -1, 2)
    assert _failed(doc) == ["exponent witness claim is k*phi",
                            "exponent witness phi is monic, zero constant",
                            "exponent witness k*phi is the minimal polynomial"]


def _negated(poly: dict) -> dict:
    return _poly_doc(*(-c for c in poly["coeffs"]))


def _negate_witness(witness: dict) -> None:
    """-k times the same phi: the claim and the cofactors negated too."""
    cert = witness["certificate"]
    witness["k"] = -witness["k"]
    cert["claim"] = _negated(cert["claim"])
    cert["cofactors"] = [_negated(c) for c in cert["cofactors"]]


def test_a_negated_torsion_is_invalid():
    # tau = 1 and d = 6 here, so the two witnesses differ; -k*phi lies in V
    # whenever k*phi does, and only the signs show the forgery
    relators = [IntPoly((0, -1, 0, 1)), IntPoly((0, -6, 6))]
    doc = _document("invariants", relators)
    assert (doc["torsion"], doc["minimal_content"]) == (1, 6)
    _negate_witness(doc["torsion_witness"])
    doc["torsion"] = -1
    assert _failed(doc) == ["torsion and minimal content are positive"]
    # every sign flipped at once: the exponent witness's -6*phi is no longer
    # the minimal polynomial either
    doc = _document("invariants", relators)
    for witness in ("torsion_witness", "exponent_witness"):
        _negate_witness(doc[witness])
    doc.update(torsion=-1, minimal_content=-6,
               minimal_primitive=_negated(doc["minimal_primitive"]))
    assert _failed(doc) == [_CANONICAL_SPLIT,
                            "torsion and minimal content are positive",
                            "exponent witness k*phi is the minimal polynomial"]


def test_a_minimal_polynomial_outside_the_ideal_is_invalid():
    # 6x^2 + 6x = 6 * (x^2 + x) agrees with every other field, but it does
    # not vanish at the generator: the exponent witness's claim is 6x^2 - 6x
    doc = _document("invariants", [IntPoly((0, -1, 0, 1)), IntPoly((0, -6, 6))])
    doc.update(minimal_polynomial=_poly_doc(0, 6, 6), minimal_primitive=_poly_doc(0, 1, 1))
    assert _failed(doc) == ["exponent witness k*phi is the minimal polynomial"]


def test_a_minimal_content_short_of_the_content_is_invalid():
    # 3 * (2x^2 - 2x) is still 6x^2 - 6x, but 3 is not its content
    doc = _document("invariants", [IntPoly((0, -1, 0, 1)), IntPoly((0, -6, 6))])
    assert doc["minimal_content"] == 6
    doc.update(minimal_content=3, minimal_primitive=_poly_doc(0, -2, 2))
    assert _failed(doc) == [_CANONICAL_SPLIT]


def test_a_negated_minimal_polynomial_is_invalid():
    # -6x^2 + 6x lies in V, as its exponent witness -6 * (x^2 - x) says,
    # and is 6 times its primitive part, but its lead is negative
    doc = _document("invariants", [IntPoly((0, -1, 0, 1)), IntPoly((0, -6, 6))])
    _negate_witness(doc["exponent_witness"])
    doc.update(minimal_polynomial=_negated(doc["minimal_polynomial"]),
               minimal_primitive=_negated(doc["minimal_primitive"]))
    assert doc["minimal_polynomial"]["coeffs"][-1] == -6
    assert _failed(doc) == [_CANONICAL_SPLIT]


@pytest.mark.parametrize("edit", [
    lambda d: d.pop("schema"),
    lambda d: d.update(schema="finsep/2"),
    lambda d: d.pop("command"),
    lambda d: d.update(command="verify"),
    lambda d: d.update(command=["decide"]),
    lambda d: d.pop("relators"),
])
def test_a_document_without_a_known_schema_and_command_is_an_input_error(edit):
    doc = _decide([IntPoly((0, -1, 1))])
    edit(doc)
    assert _run(["verify", "-"], json.dumps(doc))[0] == 2


def test_the_checker_imports_nothing_that_produces_certificates():
    tree = ast.parse(Path(check.__file__).read_text(encoding="utf-8"))
    helpers = {"gcd_list", "is_probable_prime", "MR_PROOF_BOUND"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            assert node.module in ("poly", "intarith"), node.module
            if node.module == "intarith":
                assert {a.name for a in node.names} <= helpers
        elif isinstance(node, ast.ImportFrom):
            assert node.module.split(".")[0] in sys.stdlib_module_names
        elif isinstance(node, ast.Import):
            for alias in node.names:
                assert alias.name.split(".")[0] in sys.stdlib_module_names


# --- mutated documents are input errors or failed checks, never faults -------

def _corpus() -> list[dict]:
    x2_x, six = IntPoly((0, -1, 1)), IntPoly((0, -6, 6))
    return [
        _decide([x2_x]), _decide([IntPoly((0, 1, 2))]), _decide([IntPoly((0, 0, 4))]),
        _decide([]), _decide([six]),
        _document("invariants", [x2_x.shift(1), six]),
        _document("basis", [IntPoly((0, 1, 0, 2)), IntPoly((0, 0, 1, 2))]),
        # monomial elements 2x and x^2: one perturbation makes an element zero
        _document("basis", [IntPoly((0, 2)), IntPoly((0, 0, 1))]),
        _document("member", [x2_x], "--poly=x^3 + x"),
        _document("member", [x2_x], "--poly=x^3 - x"),
        _document("member", [x2_x], "--poly=x"),
        _document("quotient", [x2_x], "--modulus=4"),
        _document("separate", [x2_x], "--target=x", "--bound=4"),
    ]


CORPUS = _corpus()


def _paths(value, path=()):
    """Every path into a JSON value, its own () included."""
    yield path
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield from _paths(child, (*path, key))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


OTHER_TYPES = (None, True, "x", 7, 1.5, [], {})


COMMANDS = ("decide", "invariants", "basis", "member", "quotient",
            "separate", "verify", "other", None, 7, [], {})


def _mutate(doc: dict, data) -> None:
    """One mutation: drop a field, change a JSON type, swap the command or
    perturb an integer."""
    mutation = data.draw(st.sampled_from(("drop", "retype", "command", "perturb")))
    paths = [p for p in _paths(doc) if p]
    ints = [p for p in paths if type(_at(doc, p)) is int]
    if mutation == "command" or not paths:
        doc["command"] = data.draw(st.sampled_from(COMMANDS))
    elif mutation == "perturb" and ints:
        path = data.draw(st.sampled_from(ints))
        _at(doc, path[:-1])[path[-1]] += data.draw(st.integers(-3, 3))
    else:
        path = data.draw(st.sampled_from(paths))
        parent = _at(doc, path[:-1])
        if mutation == "drop":
            del parent[path[-1]]
        else:
            old = parent[path[-1]]
            parent[path[-1]] = data.draw(st.sampled_from(
                [v for v in OTHER_TYPES if type(v) is not type(old)]))


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(range(len(CORPUS))), st.integers(1, 3), st.data())
def test_a_mutated_document_never_faults(index, mutations, data):
    # run catches input errors (exit 2) and faults of the program (exit 3);
    # anything else would escape it as a traceback
    doc = copy.deepcopy(CORPUS[index])
    for _ in range(mutations):
        _mutate(doc, data)
    rc, report = _run(["verify", "-", "--json"], json.dumps(doc))
    assert rc in (0, 2)
    if rc == 0:
        assert json.loads(report)["checked"] >= 0
