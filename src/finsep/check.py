"""Certificate checks of finsep documents, one checker per document kind.

``check_document`` looks a document's ``command`` up in ``KINDS`` and
returns that kind's named checks, each (name, ok), and when there are any,
one more: every polynomial's text is its coefficients formatted.  The
checks of one document share a ``_Reader``, so each polynomial is parsed
once, by whichever check reads it first.  A field
the kind must carry that is missing or of the wrong JSON type raises
``KeyError`` or ``ValueError``, an input error; a wrong value fails a
check.  The checks use polynomial arithmetic and formatting and the gcd
and primality helpers only, so no code that produced a certificate judges
it, and the library's own re-checks call ``is_combination``,
``relation_checks`` and ``split_checks``.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .intarith import MR_PROOF_BOUND, gcd_list, is_probable_prime
from .poly import IntPoly, RatPoly, clear_denominators, content_split, format_poly

SCHEMA = "finsep/1"

# the kinds of a negative verdict's failure reason
NO_RELATORS = "no_relators"
NON_SQUAREFREE_GCD = "non_squarefree_gcd"
NON_INTEGER_GAMMA = "non_integer_gamma"

# a rational coefficient's string form, as ``str(Fraction)`` writes it
_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _json(value, kind: type, what: str):
    """value, if its JSON type is kind (a bool is no int); else an input error."""
    if type(value) is not kind:
        raise ValueError(f"{what} is a {type(value).__name__}, not a {kind.__name__}")
    return value


def _fraction(value) -> Fraction:
    """A rational coefficient in the form ``cli`` writes it: a JSON integer,
    or a string "n" or "n/d" of ASCII digits, n with a leading "-" if
    negative, each read with ``int``."""
    if type(value) is int:
        return Fraction(value)
    match = _RATIONAL.fullmatch(_json(value, str, "a rational coefficient"))
    if match is None:
        raise ValueError(f"bad rational number {value!r:.50}")
    num, den = match.groups()
    try:
        return Fraction(int(num), int(den or 1))
    except ZeroDivisionError:
        raise ValueError(f"bad rational number {value!r}: zero denominator") from None


def _coeffs(obj) -> list:
    return _json(_json(obj, dict, "a polynomial").get("coeffs"), list, "coeffs")


def _parse(obj) -> IntPoly | RatPoly:
    """A polynomial {coeffs, text}: an IntPoly when every coefficient is a
    JSON integer, else a RatPoly."""
    coeffs = _coeffs(obj)
    if set(map(type, coeffs)) <= {int}:
        return IntPoly(coeffs)
    return RatPoly(map(_fraction, coeffs))


class _Reader(dict):
    """The polynomials of one document by the identity of their JSON
    objects, each parsed the first time a check asks for it."""

    def __call__(self, obj) -> IntPoly | RatPoly:
        poly = self.get(id(obj))
        if poly is None:
            poly = self[id(obj)] = _parse(obj)
        return poly

    def poly(self, obj) -> IntPoly:
        poly = self(obj)
        if type(poly) is RatPoly:
            raise ValueError("a coefficient of an integer polynomial is not an int")
        return poly

    def polys(self, value, what: str) -> list[IntPoly]:
        return [self.poly(p) for p in _json(value, list, what)]

    def ratpoly(self, obj) -> RatPoly:
        poly = self(obj)
        return poly if type(poly) is RatPoly else RatPoly(poly.coeffs)


def _pairs(value, what: str) -> list[tuple[int, int]]:
    pairs = [_json(t, list, what) for t in _json(value, list, what)]
    if any(len(t) != 2 for t in pairs):
        raise ValueError(f"{what} holds an entry that is not a pair")
    return [(_json(a, int, what), _json(b, int, what)) for a, b in pairs]


def is_combination(claim: IntPoly, cofactors, generators) -> bool:
    """Whether claim == sum(cofactors[i] * generators[i]); a cofactor list
    of another length than the generators' is rejected, never padded.
    The products are summed into one list that starts at -claim, a pass per
    nonzero generator coefficient (a generator's zero constant costs none)."""
    if len(cofactors) != len(generators):
        return False
    acc = [-x for x in claim.coeffs]
    for c, g in zip(cofactors, generators):
        c, g = c.coeffs, g.coeffs
        acc += [0] * (len(c) + len(g) - len(acc))
        for i, b in enumerate(g):
            if b:
                for t, a in enumerate(c, i):
                    acc[t] += a * b
    return not any(acc)


def relation_checks(name: str, certificate: str, k: int, phi: IntPoly,
                    claim: IntPoly, cofactors, relators) -> list:
    """The checks of k*phi in V, phi monic with zero constant; ``certificate``
    names the check that the cofactors re-multiply to the claim."""
    return [
        (f"{name} claim is k*phi", claim == phi.scale(k)),
        (f"{name} phi is monic, zero constant", phi.is_monic() and phi.constant == 0),
        (certificate, is_combination(claim, cofactors, relators)),
    ]


def _distinct_primes(numbers) -> bool:
    return len(set(numbers)) == len(numbers) and all(map(is_probable_prime, numbers))


def _primes(numbers) -> str:
    """How a check names them: Miller-Rabin proves primality only below its bound."""
    return "primes" if all(p < MR_PROOF_BOUND for p in numbers) else "probable primes"


def split_checks(k: int, parts, bezout) -> list:
    """The checks of a torsion split of k, parts (p_i, k_i) and Bezout z_i."""
    primes = [p for p, _ in parts]
    # a failed product skips Miller-Rabin, whose cost a forged prime sizes
    ok = math.prod(primes) == k and _distinct_primes(primes)
    checks = [(f"torsion split parts are distinct {_primes(primes)} with product k", ok)]
    ok = (all(p * c == k for p, c in parts) and len(bezout) == len(parts)
          and sum(z * c for z, (_, c) in zip(bezout, parts)) == 1)
    return checks + [("torsion split p_i*k_i = k and sum z_i*k_i = 1", ok)]


def _relation(w, name: str, certificate: str, relators,
              read) -> tuple[int, IntPoly, list]:
    """k, phi and the checks of a JSON relation {k, phi, certificate}."""
    w = _json(w, dict, name)
    phi = read.poly(w["phi"])
    cert = _json(w["certificate"], dict, "a certificate")
    claim = read.poly(cert["claim"])
    cofactors = read.polys(cert["cofactors"], "cofactors")
    k = _json(w["k"], int, f"{name} k")
    return k, phi, relation_checks(name, certificate, k, phi, claim, cofactors, relators)


def _factorization_check(factorization, g: int) -> tuple[bool, tuple[str, bool]]:
    """Whether a factorization of g is squarefree, and the check that it is one."""
    pairs = _pairs(factorization, "coefficient_gcd_factorization")
    rest = g
    for p, e in pairs:
        # p**e is formed only below 2^(2*bits(g)), so a forged exponent
        # cannot size it; a larger power does not divide g
        if p < 2 or e < 1 or e * (p.bit_length() - 1) > g.bit_length() or rest % p**e:
            rest = 0
            break
        rest //= p**e
    primes = [p for p, _ in pairs]
    # a failed product skips Miller-Rabin, whose cost a forged prime sizes
    ok = rest == 1 and _distinct_primes(primes)
    name = ("coefficient gcd factorization multiplies back with distinct "
            + _primes(primes))
    return ok and all(e == 1 for _, e in pairs), (name, ok)


def _gamma_checks(gamma: RatPoly, doc: dict, relators, read) -> list:
    """The checks that pin gamma as the monic gcd of the relators over Q,
    and the lcm of its cofactors' denominators."""
    cofactors = _json(doc["gamma_cofactors"], list, "gamma_cofactors")
    cofactors = [read.ratpoly(c) for c in cofactors]
    lcm = math.lcm(*(c.denominator for p in cofactors for c in p.coeffs))
    # one common denominator l carries the identity over to Z:
    # sum((l*c_j) * r_j) == l*gamma
    _, (l_gamma, *l_cofactors) = clear_denominators([gamma, *cofactors])
    # a monic common divisor that is also a combination of the relators is
    # their monic gcd over Q
    monic = gamma.is_monic()
    # by Gauss's lemma, gamma divides r over Q exactly when the primitive
    # part of l*gamma divides r over Z
    divides = monic and all(map(content_split(l_gamma).primitive.divides, relators))
    return [("gamma bezout identity", is_combination(l_gamma, l_cofactors, relators)),
            ("gamma is monic", monic),
            ("gamma divides every relator", divides),
            ("denominator lcm is the lcm of the gamma cofactor denominators",
             _json(doc["denominator_lcm"], int, "denominator_lcm") == lcm)]


def _reason_checks(reason: dict, gamma: RatPoly | None, relators) -> list:
    kind = reason["kind"]
    if kind == NO_RELATORS:
        return [("the presentation has no nonzero relator", not relators)]
    if kind == NON_SQUAREFREE_GCD:
        p = _json(reason["prime"], int, "the prime")
        ok = p > 1 and all(c % (p * p) == 0 for r in relators for c in r.coeffs)
        # Miller-Rabin proves primality only below its bound
        prime = "prime" if p < MR_PROOF_BOUND else "a probable prime"
        return [(f"{p}^2 divides every relator coefficient", ok),
                (f"{p} is {prime}", is_probable_prime(p))]
    if kind == NON_INTEGER_GAMMA:
        c = _fraction(reason["coefficient"])
        i = _json(reason["coefficient_index"], int, "coefficient_index")
        ok = gamma is not None and c.denominator != 1 and gamma[i] == c
        return [("flagged gamma coefficient is not an integer", ok)]
    return []


def _verdict(doc: dict, relators, separable: bool, k: int | None, read) -> list:
    """The checks that ``separable`` is the verdict the document's data imply.

    The coefficient gcd g is recomputed.  The factorization shows whether
    it is squarefree and gamma, pinned by its own checks, whether it is
    integral; without relators there is neither, and g = 0.  A separable
    document's witness k must be g, and a not-separable one needs the
    failure reason the data imply: no relators, then a square dividing g,
    then the lowest non-integer coefficient of gamma.
    """
    gamma = read.ratpoly(doc["gamma"]) if relators else None
    checks = _gamma_checks(gamma, doc, relators, read) if relators else []
    reason = None if separable else doc.get("failure_reason")
    if reason:
        checks += _reason_checks(_json(reason, dict, "failure_reason"), gamma, relators)
    g = gcd_list(c for r in relators for c in r.coeffs)
    ok = _json(doc["coefficient_gcd"], int, "coefficient_gcd") == g
    checks.append(("coefficient gcd is the gcd of the relator coefficients", ok))
    sqfree = False
    if relators:
        sqfree, check = _factorization_check(doc["coefficient_gcd_factorization"], g)
        flag = _json(doc["coefficient_gcd_squarefree"], bool, "the squarefree flag")
        checks += [check, ("coefficient gcd squarefree flag matches the factorization",
                           flag == sqfree)]
    integral = gamma is not None and gamma.is_integral()
    ok = separable == (sqfree and integral)
    checks.append(("separable is gcd squarefree and gamma integral", ok))
    if separable:
        return checks + [("witness k is the coefficient gcd", k == g)]
    if not relators:
        implied = NO_RELATORS
    elif not sqfree:
        implied = NON_SQUAREFREE_GCD
    elif not integral:
        implied = NON_INTEGER_GAMMA
    else:
        return checks + [("the data imply a failure reason", False)]
    ok = isinstance(reason, dict) and reason.get("kind") == implied
    if ok and implied == NON_INTEGER_GAMMA:
        # the reason flags the lowest non-integer coefficient
        ok = reason.get("coefficient_index") == next(
            i for i, c in enumerate(gamma.coeffs) if c.denominator != 1)
    return checks + [(f"failure reason is {implied}", ok)]


def _decide(doc: dict, relators, read) -> list:
    """The verdict, and a separable one's relation k*phi and, when k > 1
    or one is present, the torsion split of k (a missing one has no parts
    and fails both split checks)."""
    separable = _json(doc["separable"], bool, "separable")
    k, checks = None, []
    if separable:
        k, _, checks = _relation(doc["witness"], "witness", "witness certificate",
                                 relators, read)
    if separable and (k > 1 or "torsion_split" in doc):
        split = _json(doc.get("torsion_split", {}), dict, "torsion_split")
        parts = _pairs(split.get("parts", []), "torsion split parts")
        bezout = [_json(z, int, "a Bezout coefficient")
                  for z in _json(split.get("bezout", []), list, "torsion split bezout")]
        checks += split_checks(k, parts, bezout)
    return checks + _verdict(doc, relators, separable, k, read)


def _invariants(doc: dict, relators, read) -> list:
    """The torsion and exponent witnesses of a finite torsion, and what
    they bound: the exponent is the degree of a monic phi over some k, and
    no member of V lies below the algebraic degree.  An infinite torsion
    and minimality (no monic phi below the exponent, which needs the basis
    in the document) carry no certificate."""
    if doc["torsion_witness"] is None:
        return []
    k, phi, checks = _relation(doc["torsion_witness"], "torsion witness",
                               "torsion witness certificate", relators, read)
    _, phi_e, exponent_checks = _relation(doc["exponent_witness"], "exponent witness",
                                          "exponent witness certificate", relators, read)
    minimal = read.poly(doc["minimal_polynomial"])
    primitive = read.poly(doc["minimal_primitive"])
    content, degree, exponent, torsion = (_json(doc[f], int, f) for f in (
        "minimal_content", "algebraic_degree", "torsion_exponent", "torsion"))
    return checks + exponent_checks + [
        ("torsion is the torsion witness k", torsion == k),
        ("algebraic degree <= torsion exponent <= deg phi",
         degree <= exponent <= phi.degree),
        ("torsion exponent is the degree of the exponent witness phi",
         exponent == phi_e.degree),
        ("algebraic degree is the degree of the minimal polynomial",
         degree == minimal.degree),
        ("minimal content * primitive is the minimal polynomial",
         primitive.scale(content) == minimal),
    ]


def _reduces_to(p: IntPoly, elements, target: IntPoly) -> bool:
    """Whether p reduces to target: each term from the top, by the element
    of largest degree not above it, to the least-nonnegative residue of
    its lead.  A zero element has no lead to divide by."""
    if not all(elements):
        return False
    rem = list(p.coeffs)
    for d in range(len(rem) - 1, 0, -1):
        below = [e for e in elements if e.degree <= d]
        if below and rem[d]:
            e = max(below, key=lambda e: e.degree)
            k = rem[d] // e.lead
            for t, b in enumerate(e.coeffs, d - e.degree):
                rem[t] -= k * b
    return IntPoly(rem) == target


def _basis(doc: dict, relators, read) -> list:
    """The cofactors show that the elements span the relator ideal V.  The
    rest is the criterion ``ideal._complete`` proves (Kandri-Rody and Kapur,
    J. Symbolic Comput., 1988, univariate): ascending degrees, positive
    leads each properly dividing the one below it, and consecutive shifts
    x^(e-d) * t_d reducing to zero make the staircase rows an echelon basis
    of V, so normal forms are unique.  Reduced tails make the basis unique.
    """
    basis = _json(doc["basis"], dict, "basis")
    elements = read.polys(basis["elements"], "elements")
    element_cofactors = _json(basis["element_cofactors"], list, "element_cofactors")
    relator_quotients = _json(basis["relator_quotients"], list, "relator_quotients")
    ok = len(element_cofactors) == len(elements) and all(
        is_combination(e, read.polys(cof, "a cofactor list"), relators)
        for e, cof in zip(elements, element_cofactors))
    checks = [("basis elements lie in the relator ideal", ok)]
    ok = len(relator_quotients) == len(relators) and all(
        is_combination(r, read.polys(quots, "a quotient list"), elements)
        for r, quots in zip(relators, relator_quotients))
    checks.append(("relators lie in the basis ideal", ok))
    pairs = list(zip(elements, elements[1:]))
    ok = all(t.degree < u.degree for t, u in pairs)
    checks.append(("basis degrees strictly ascend", ok))
    ok = all(e.lead > 0 for e in elements) and all(
        t.lead > u.lead and t.lead % u.lead == 0 for t, u in pairs)
    checks.append(("basis leads are positive and properly divide backward", ok))
    ok = all(_reduces_to(t.shift(u.degree - t.degree), elements, IntPoly())
             for t, u in pairs)
    checks.append(("basis consecutive shifts reduce to zero", ok))
    tails = [IntPoly(e.coeffs[:-1]) for e in elements]
    ok = all(_reduces_to(t, elements, t) for t in tails)
    checks.append(("basis tails are reduced", ok))
    return checks


def _member(doc: dict, relators, read) -> list:
    """The basis and normal form checks: over a strong basis normal forms
    are unique, so g is a member exactly when its normal form is zero."""
    checks = _basis(doc, relators, read)
    elements = read.polys(doc["basis"]["elements"], "elements")
    g, nf = read.poly(doc["poly"]), read.poly(doc["normal_form"])
    member, cert = _json(doc["member"], bool, "member"), doc["certificate"]
    ok = is_combination(g - nf, read.polys(doc["quotients"], "quotients"), elements)
    checks += [("normal form reconstruction", ok),
               ("normal form is reduced", _reduces_to(nf, elements, nf)),
               ("member is true exactly when the normal form is zero",
                member == nf.is_zero()),
               ("a member carries a certificate", cert is not None or not member)]
    if cert is None:
        return checks
    cert = _json(cert, dict, "a certificate")
    claim = read.poly(cert["claim"])
    ok = is_combination(claim, read.polys(cert["cofactors"], "cofactors"), relators)
    return checks + [("membership certificate", ok), (
        "certificate claim is poly and member is true", member and claim == g)]


def _text_check(doc: dict, read) -> tuple[str, bool]:
    """The check that every polynomial {coeffs, text} in the document reads
    as its coefficients: its text is their ``format_poly``.  The reader
    parses only the polynomials no kind checker asked for."""
    ok, stack = True, [doc]
    while stack and ok:
        value = stack.pop()
        if isinstance(value, list):
            stack.extend(value)
        elif isinstance(value, dict) and "coeffs" in value:
            ok = format_poly(read(value)) == value.get("text")
        elif isinstance(value, dict):
            stack.extend(value.values())
    return ("every polynomial text is its coefficients formatted", ok)


# one checker per document kind; a quotient's structure and a separation
# carry no certificate yet
KINDS = {
    "decide": _decide,
    "invariants": _invariants,
    "basis": _basis,
    "member": _member,
    "quotient": lambda doc, relators, read: [],
    "separate": lambda doc, relators, read: [],
}


def check_document(doc) -> list[tuple[str, bool]]:
    """The named checks of a finsep document, by the kind its ``command`` names.

    The document must be a ``SCHEMA`` object with a known ``command`` and
    its ``relators``, else it is an input error.  As in
    ``ideal.Presentation``, zero relators are dropped and a constant term
    is an input error.
    """
    doc = _json(doc, dict, "the document")
    if doc.get("schema") != SCHEMA:
        raise ValueError(f"the document's schema is not {SCHEMA}")
    kind = doc.get("command")
    if not isinstance(kind, str) or kind not in KINDS:
        raise ValueError(f"no document kind is named {kind!r}")
    read = _Reader()
    relators = read.polys(doc["relators"], "relators")
    if any(r.constant for r in relators):
        raise ValueError("a relator has a nonzero constant term")
    checks = KINDS[kind](doc, [r for r in relators if r], read)
    # a kind that returns no check carries no certificate, and gains none
    return checks + [_text_check(doc, read)] if checks else checks
