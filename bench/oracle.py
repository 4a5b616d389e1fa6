"""Answers computed apart from finsep, and the checkers built on them.

Polynomials here are plain lists of ints (or Fractions), ascending by
degree, with no trailing zeros.  Nothing in this module imports finsep:
every checker re-derives the expected answer with its own arithmetic and
re-multiplies every certificate it is shown.  A checker raises
``CheckFailed`` on the first disagreement and otherwise returns the
largest coefficient bit length of the certificates it checked (None when
the answer carries no certificate).
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

NON_SQUAREFREE = "non_squarefree_gcd"
NON_INTEGER = "non_integer_gamma"


class CheckFailed(Exception):
    """An answer disagrees with the independent computation."""


def require(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# --- dense polynomial arithmetic -------------------------------------------


def trim(c) -> list:
    c = list(c)
    while c and not c[-1]:
        c.pop()
    return c


def add(a, b) -> list:
    n = max(len(a), len(b))
    return trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                 for i in range(n)])


def scale(a, k) -> list:
    return trim([k * x for x in a])


def mul(a, b) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return trim(out)


def combination(cofactors, polys) -> list:
    """sum(cofactors[i] * polys[i]); the counts must match exactly."""
    require(len(cofactors) == len(polys),
            f"{len(cofactors)} cofactors for {len(polys)} polynomials")
    total = []
    for c, p in zip(cofactors, polys):
        total = add(total, mul(c, p))
    return total


def monomial(coeff: int, degree: int) -> list:
    return trim([0] * degree + [coeff])


def x_power_minus_x(e: int) -> list:
    """x^e - x."""
    return add(monomial(1, e), [0, -1])


def evaluate(a, point) -> int:
    out = 0
    for c in reversed(a):
        out = out * point + c
    return out


def bits(polys) -> int:
    """Largest bit length of any coefficient in any of the polynomials."""
    return max((abs(c).bit_length() for p in polys for c in p), default=0)


def compose_in(gens, outer) -> list:
    """outer(gens): outer[(i, j)] is the coefficient of gens[0]^i * gens[1]^j ..."""
    total = []
    for exps, c in outer.items():
        term = [c]
        for g, e in zip(gens, exps):
            for _ in range(e):
                term = mul(term, g)
        total = add(total, term)
    return total


# --- integers ----------------------------------------------------------------


def content(polys) -> int:
    g = 0
    for p in polys:
        for c in p:
            g = math.gcd(g, c)
    return g


def factor(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 by plain trial division."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_prime(n: int) -> bool:
    return n >= 2 and factor(n) == {n: 1}


def is_squarefree(n: int) -> bool:
    return all(e == 1 for e in factor(n).values())


# --- polynomials over Q and over F_q -----------------------------------------


def _divmod_field(a, b, inverse):
    """Quotient and remainder of a by b over a field given by ``inverse``."""
    a = list(a)
    inv = inverse(b[-1])
    q = [0] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b):
        c = a[-1] * inv
        shift = len(a) - len(b)
        q[shift] = c
        for i, y in enumerate(b):
            a[shift + i] -= c * y
        a = trim(a)
    return q, a


def gcd_rational(polys) -> list:
    """Monic gcd over Q by the plain Euclid algorithm on Fractions."""
    g: list = []
    for p in polys:
        a, b = [Fraction(c) for c in p], g
        while b:
            a, b = b, _divmod_field(a, b, lambda c: 1 / c)[1]
        g = a
    return [c / g[-1] for c in g] if g else []


def gcd_mod(polys, q: int) -> list:
    """Monic gcd over F_q (q prime), coefficients in [0, q)."""
    inverse = lambda c: pow(c, -1, q)
    g: list = []
    for p in polys:
        a, b = trim([c % q for c in p]), g
        while b:
            r = _divmod_field(a, b, inverse)[1]
            a, b = b, trim([c % q for c in r])
        g = a
    if not g:
        return []
    inv = inverse(g[-1])
    return [c * inv % q for c in g]


def reduce_mod(a, modulus, q: int) -> list:
    """a mod (monic modulus) with coefficients reduced into [0, q)."""
    r = _divmod_field([c % q for c in a], modulus, lambda c: 1)[1]
    return trim([c % q for c in r])


# --- checkers: decide-cli ----------------------------------------------------


def _coeffs(obj) -> list:
    return trim(int(c) for c in obj["coeffs"])


def _ratcoeffs(obj) -> list:
    return trim(Fraction(c) for c in obj["coeffs"])


def expected_verdict(relators) -> dict:
    """The separability verdict recomputed from the criterion itself."""
    k = content(relators)
    gamma = gcd_rational(relators)
    out = {"content": k, "gamma": gamma, "separable": False}
    if not is_squarefree(k):
        out["kind"] = NON_SQUAREFREE
    else:
        bad = [i for i, c in enumerate(gamma) if c.denominator != 1]
        if bad:
            out["kind"] = NON_INTEGER
            out["index"] = bad[0]
        else:
            out["separable"] = True
    return out


def check_monic_relation(k, phi, cofactors, claim, relators) -> int:
    """k * phi vanishes at the generator: phi monic, no constant term."""
    require(phi and phi[-1] == 1, "phi is not monic")
    require(phi[0] == 0, "phi has a constant term")
    require(claim == scale(phi, k), "certificate claim is not k * phi")
    require(combination(cofactors, relators) == claim,
            "witness cofactors do not re-multiply to k * phi")
    return bits(cofactors)


def check_decide_doc(relators, rc: int, text: str, verify_rc: int,
                     verify_text: str) -> int | None:
    """Check one ``finsep decide --json`` document and its ``verify`` run."""
    require(rc == 0, f"decide exited {rc}")
    doc = json.loads(text)
    require([_coeffs(r) for r in doc["relators"]] == relators,
            "document relators differ from the input")
    want = expected_verdict(relators)
    require(doc["separable"] is want["separable"], "wrong verdict")
    require(doc["coefficient_gcd"] == want["content"], "wrong coefficient gcd")
    if "gamma" in doc:
        require(_ratcoeffs(doc["gamma"]) == want["gamma"], "wrong rational gcd")
        cofs = [_ratcoeffs(c) for c in doc["gamma_cofactors"]]
        require(combination(cofs, relators) == want["gamma"],
                "gamma Bezout cofactors do not re-multiply")
    cert_bits = None
    if want["separable"]:
        w = doc["witness"]
        require(w["k"] == want["content"], "witness k is not the content")
        cert = w["certificate"]
        cert_bits = check_monic_relation(
            w["k"], _coeffs(w["phi"]), [_coeffs(c) for c in cert["cofactors"]],
            _coeffs(cert["claim"]), relators)
    else:
        require("witness" not in doc, "witness on a negative verdict")
        reason = doc["failure_reason"]
        require(reason["kind"] == want["kind"], "wrong failure kind")
        if want["kind"] == NON_SQUAREFREE:
            p = reason["prime"]
            require(is_prime(p) and want["content"] % (p * p) == 0,
                    f"{p} is not a prime whose square divides the content")
        else:
            i = reason["coefficient_index"]
            require(i == want["index"], "wrong non-integral coefficient index")
            require(Fraction(reason["coefficient"]) == want["gamma"][i],
                    "wrong non-integral coefficient")
    require(verify_rc == 0, f"verify exited {verify_rc}")
    report = json.loads(verify_text)
    require(report["all_ok"] and report["checked"] > 0,
            "finsep verify did not report all valid")
    return cert_bits


# --- checkers: torsion-power -------------------------------------------------


def expected_torsion(family: str, e: int, c_or_p: int, m: int | None) -> dict:
    """Answers that follow from the construction of the presentation.

    ``scaled``: c * (x^e - x).  ``pair``: {x^e - x, p * (x^m - x)}, whose
    rational gcd is x^(g+1) - x with g = gcd(e-1, m-1); the Euclid gcd is
    computed as a cross-check of that formula.
    """
    if family == "scaled":
        c = c_or_p
        relators = [scale(x_power_minus_x(e), c)]
        return {"relators": relators, "separable": is_squarefree(c), "k": c,
                "witness_degree": e, "algebraic_degree": e,
                "minimal_polynomial": relators[0], "minimal_content": c,
                "torsion": c, "exponent": e}
    p = c_or_p
    relators = [x_power_minus_x(e), scale(x_power_minus_x(m), p)]
    degree = math.gcd(e - 1, m - 1) + 1
    gamma = gcd_rational(relators)
    require(gamma == [Fraction(c) for c in x_power_minus_x(degree)],
            "pair gcd formula disagrees with the Euclid gcd")
    return {"relators": relators, "separable": True, "k": 1,
            "witness_degree": e, "algebraic_degree": degree,
            "minimal_polynomial": scale(x_power_minus_x(degree), p),
            "minimal_content": p, "torsion": 1, "exponent": degree}


def _relation_bits(rel, relators) -> int:
    return check_monic_relation(
        rel.k, trim(rel.phi.coeffs),
        [trim(c.coeffs) for c in rel.certificate.cofactors],
        trim(rel.certificate.claim.coeffs), relators)


def check_torsion_decide(want: dict, verdict) -> int | None:
    require(verdict.separable is want["separable"], "wrong verdict")
    relators = want["relators"]
    if not want["separable"]:
        p = verdict.failure_reason.prime
        require(is_prime(p) and want["k"] % (p * p) == 0,
                f"{p} is not a prime whose square divides the content")
        return None
    w = verdict.positive_witness
    require(w.k == want["k"], "witness k is not the content")
    require(len(w.phi.coeffs) - 1 == want["witness_degree"],
            "witness phi has the wrong degree")
    return _relation_bits(w, relators)


def check_torsion_invariants(want: dict, inv) -> int:
    require(inv.algebraic_degree == want["algebraic_degree"],
            "wrong algebraic degree")
    require(trim(inv.minimal_polynomial.coeffs) == want["minimal_polynomial"],
            "wrong minimal polynomial")
    require(inv.minimal_content == want["minimal_content"],
            "wrong minimal content")
    require(inv.torsion == want["torsion"], "wrong torsion")
    require(inv.torsion_exponent == want["exponent"], "wrong torsion exponent")
    w = inv.torsion_witness
    require(w.k == want["torsion"], "torsion witness k is not the torsion")
    return _relation_bits(w, want["relators"])


# --- checkers: separate-sweep ------------------------------------------------


def _span_mod(vectors, q: int) -> dict[int, list]:
    """Row echelon of vectors over F_q, keyed by pivot position."""
    rows: dict[int, list] = {}
    for v in vectors:
        v = [c % q for c in v]
        for j in range(len(v) - 1, -1, -1):
            if not v[j]:
                continue
            if j not in rows:
                inv = pow(v[j], -1, q)
                rows[j] = [c * inv % q for c in v]
                break
            f = v[j]
            v = [(a - f * b) % q for a, b in zip(v, rows[j])]
    return rows


def _in_span(rows: dict[int, list], v, q: int) -> bool:
    v = [c % q for c in v]
    for j in range(len(v) - 1, -1, -1):
        if v[j]:
            if j not in rows:
                return False
            f = v[j]
            v = [(a - f * b) % q for a, b in zip(v, rows[j])]
    return True


def subring_mod(gens, modulus, q: int, dim: int) -> dict[int, list]:
    """F_q-span of everything generated by gens under +, - and *.

    Elements are coordinate vectors over x^1 .. x^dim of their remainders
    modulo the monic ``modulus``; the span is closed under products of its
    own basis vectors before it is returned.
    """
    vec = lambda p: [p[d] if d < len(p) else 0 for d in range(1, dim + 1)]
    poly = lambda v: trim([0] + list(v))
    rows = _span_mod([vec(reduce_mod(g, modulus, q)) for g in gens], q)
    done = False
    while not done:
        done = True
        basis = list(rows.values())
        for i, u in enumerate(basis):
            for v in basis[i:]:
                w = vec(reduce_mod(mul(poly(u), poly(v)), modulus, q))
                if not _in_span(rows, w, q):
                    rows = _span_mod(list(rows.values()) + [w], q)
                    done = False
    return rows


def check_separation(relator, target, gens, bound: int, p: int | None,
                     result) -> int | None:
    """Inside targets (p is None) must exhaust the bound; outside ones
    (target x, generator p*g) must separate at a prime modulus <= p."""
    if p is None:
        require(not result.found, "found a quotient separating a subring member")
        require(result.bound_exhausted == bound, "bound not exhausted")
        return None
    require(result.found, "no separating quotient for a non-member")
    q = result.modulus
    require(is_prime(q) and q <= p, f"modulus {q} is not a prime <= {p}")
    mod_poly = gcd_mod([relator], q)
    dim = len(mod_poly) - 2
    require(dim >= 1, "the quotient is the zero ring")
    # the quotient basis: in the extended ideal, and generating it
    basis = result.quotient.basis
    extended = [relator, [0, q]]
    elements = [trim(e.coeffs) for e in basis.elements]
    cofactors = [[trim(c.coeffs) for c in row] for row in basis.element_cofactors]
    for e, cof in zip(elements, cofactors, strict=True):
        require(combination(cof, extended) == e,
                "quotient basis cofactors do not re-multiply")
    for r, quots in zip(extended, basis.relator_quotients, strict=True):
        require(combination([trim(c.coeffs) for c in quots], elements) == r,
                "relator quotients do not re-multiply")
    require(elements[-1][-1] == 1, "quotient basis has no monic top")
    require(reduce_mod(elements[-1], mod_poly, q) == [],
            "monic top is not a multiple of the gcd mod q")
    rows = subring_mod(gens, mod_poly, q, dim)
    image = reduce_mod(target, mod_poly, q)
    image_vec = [image[d] if d < len(image) else 0 for d in range(1, dim + 1)]
    require(list(result.image_of_target) == image_vec, "wrong target image")
    require(not _in_span(rows, image_vec, q), "target lies in the subring image")
    require(len(result.subring_image) == q ** len(rows),
            "subring image has the wrong size")
    require(all(_in_span(rows, u, q) for u in result.subring_image),
            "subring image leaves the generated subring")
    return bits(c for row in cofactors for c in row)


# --- checkers: member-queries ------------------------------------------------


def check_membership(relators, g, is_member: bool, answer) -> int | None:
    member, cert = answer
    if not is_member:
        require(all(evaluate(r, 1) == 0 for r in relators) and evaluate(g, 1),
                "non-member construction is not certified")
        require(member is False and cert is None, "non-member reported a member")
        return None
    require(member is True, "member reported a non-member")
    cofactors = [trim(c.coeffs) for c in cert.cofactors]
    require(trim(cert.claim.coeffs) == g, "certificate claims another element")
    require(combination(cofactors, relators) == g,
            "membership cofactors do not re-multiply")
    return bits(cofactors)


def check_normal_forms(g, is_member: bool, nf_g, nf_shifted) -> None:
    """nf(g) and nf(g + member) agree; zero exactly for members; and since
    every relator vanishes at 1, nf(g)(1) == g(1)."""
    nf_g, nf_shifted = trim(nf_g.coeffs), trim(nf_shifted.coeffs)
    require(nf_g == nf_shifted, "normal form changed by adding a member")
    require((nf_g == []) == is_member, "normal form zero-ness is wrong")
    require(evaluate(nf_g, 1) == evaluate(g, 1), "normal form changed g(1)")
