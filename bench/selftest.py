"""Self-test of the benchmark's checkers: each must reject a corrupted answer.

    python3 bench/selftest.py

For every workload a few operations of each kind are run on finsep, the
true answer must pass its checker, and then each corruption of it must be
rejected: a flipped verdict, one changed cofactor coefficient, a truncated
cofactor list, a wrong torsion, and found=True for a target inside the
subring.  When sympy is installed, the oracle's rational gcd is also
compared with sympy's on the decide-cli corpus.  Exits 1 on any miss.
"""

from __future__ import annotations

import copy
import json
import sys
from dataclasses import replace

import oracle as O
from run import load_finsep
from workloads import WORKLOADS

SEED = 0
PER_KIND = 3


def bump(poly_cls, polys, index=0):
    """The cofactor tuple with coefficient 0 of polys[index] increased by 1."""
    out = list(polys)
    coeffs = list(out[index].coeffs) or [0]
    coeffs[0] += 1
    out[index] = poly_cls(coeffs)
    return tuple(out)


def decide_corruptions(fs, answer):
    rc, doc, vrc, report = answer
    good = json.loads(doc)

    def edited(edit):
        d = copy.deepcopy(good)
        edit(d)
        return rc, json.dumps(d), vrc, report

    yield "flipped verdict", edited(lambda d: d.update(separable=not d["separable"]))
    if "witness" in good:
        cofs = lambda d: d["witness"]["certificate"]["cofactors"]
        yield "changed cofactor", edited(lambda d: cofs(d)[0]["coeffs"].__setitem__(
            0, cofs(d)[0]["coeffs"][0] + 1))
        yield "truncated cofactors", edited(lambda d: cofs(d).pop())


def torsion_corruptions(fs, answer):
    IntPoly = fs.poly.IntPoly
    if hasattr(answer, "torsion"):
        yield "wrong torsion", replace(answer, torsion=answer.torsion + 1)
        w = answer.torsion_witness
    else:
        yield "flipped verdict", replace(answer, separable=not answer.separable)
        w = answer.positive_witness
        if w is None:
            return
    cert = w.certificate
    yield "changed cofactor", replace_witness(
        answer, replace(w, certificate=replace(cert, cofactors=bump(IntPoly, cert.cofactors))))
    yield "truncated cofactors", replace_witness(
        answer, replace(w, certificate=replace(cert, cofactors=cert.cofactors[:-1])))


def replace_witness(answer, w):
    if hasattr(answer, "torsion"):
        return replace(answer, torsion_witness=w)
    return replace(answer, positive_witness=w)


def separate_corruptions(fs, answer, op):
    d = op.data
    IntPoly = fs.poly.IntPoly
    if op.kind == "inside":
        presentation = fs.ideal.Presentation([IntPoly(d["relator"])])
        for q in range(2, d["bound"] + 1):
            ring = fs.quotients.build_quotient(presentation, q)
            if O.is_prime(q) and isinstance(ring, fs.quotients.FiniteRing):
                break
        yield "found=True inside the subring", fs.quotients.SeparationResult(
            found=True, quotient=ring, modulus=q,
            image_of_target=ring.image(IntPoly(d["target"])),
            subring_image=fs.quotients.subring_closure(
                ring, [IntPoly(g) for g in d["gens"]]),
            bound_exhausted=None)
        return
    yield "flipped verdict", replace(answer, found=False)
    basis = answer.quotient.basis
    rows = list(basis.element_cofactors)
    rows[-1] = bump(IntPoly, rows[-1])
    yield "changed cofactor", replace(answer, quotient=replace(
        answer.quotient, basis=replace(basis, element_cofactors=tuple(rows))))
    rows[-1] = basis.element_cofactors[-1][:-1]
    yield "truncated cofactors", replace(answer, quotient=replace(
        answer.quotient, basis=replace(basis, element_cofactors=tuple(rows))))


def member_corruptions(fs, answer, op):
    IntPoly = fs.poly.IntPoly
    if op.kind == "normal_form":
        nf, nf_shifted = answer
        yield "flipped verdict", (nf + IntPoly((0, 1)), nf_shifted + IntPoly((0, 1)))
        return
    member, cert = answer
    if not member:
        yield "flipped verdict", (True, fs.ideal.MembershipCertificate(
            cofactors=tuple(IntPoly() for _ in op.data["relators"]),
            claim=IntPoly(op.data["g"])))
        return
    yield "flipped verdict", (False, None)
    yield "changed cofactor", (True, replace(cert, cofactors=bump(IntPoly, cert.cofactors)))
    yield "truncated cofactors", (True, replace(cert, cofactors=cert.cofactors[:-1]))


CORRUPTIONS = {
    "decide-cli": lambda fs, a, op: decide_corruptions(fs, a),
    "torsion-power": lambda fs, a, op: torsion_corruptions(fs, a),
    "separate-sweep": separate_corruptions,
    "member-queries": member_corruptions,
}


def sample(ops):
    """The first PER_KIND operations of every kind (and fault flag)."""
    seen: dict = {}
    for op in ops:
        key = (op.kind, op.known_fault)
        if len(seen.setdefault(key, [])) < PER_KIND:
            seen[key].append(op)
    return [op for group in seen.values() for op in group]


def sympy_cross_check(ops) -> int:
    try:
        import sympy
    except ImportError:
        print("sympy not installed: rational gcd cross-check skipped")
        return 0
    x = sympy.Symbol("x")
    misses = 0
    for op in ops:
        f, g = (sympy.Poly(list(reversed(r)), x, domain="QQ")
                for r in op.data["relators"])
        want = [sympy.Rational(c) for c in reversed(sympy.gcd(f, g).monic().all_coeffs())]
        if O.gcd_rational(op.data["relators"]) != want:
            misses += 1
            print(f"MISS  sympy gcd disagrees on {op.data['texts']}")
    print(f"sympy rational gcd agrees on {len(ops) - misses} of {len(ops)} pairs")
    return misses


def main() -> int:
    fs = load_finsep()
    misses = checked = 0
    for name, wl in WORKLOADS.items():
        ops = wl.make(SEED)
        state = wl.prepare(fs, ops) if wl.prepare else None
        chosen = sample(ops)
        for op in chosen:
            answer = wl.run(fs, op, state)
            if op.known_fault:
                continue
            try:
                wl.check(op, answer)
            except O.CheckFailed as exc:
                misses += 1
                print(f"MISS  {name} {op.kind}: true answer rejected: {exc}")
                continue
            for label, bad in CORRUPTIONS[name](fs, answer, op):
                checked += 1
                try:
                    wl.check(op, bad)
                except O.CheckFailed as exc:
                    print(f"ok    {name} {op.kind} {label}: rejected ({exc})")
                except (KeyError, AttributeError, TypeError, ValueError) as exc:
                    print(f"ok    {name} {op.kind} {label}: rejected ({exc!r})")
                else:
                    misses += 1
                    print(f"MISS  {name} {op.kind} {label}: accepted")
        if name == "decide-cli":
            misses += sympy_cross_check([op for op in ops if not op.known_fault][:30])
    print(f"{checked} corrupted answers, {misses} misses")
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
