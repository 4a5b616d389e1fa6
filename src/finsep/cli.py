"""Command-line front end: expression parsing, dispatch, structured output.

Polynomials are written with integer literals (ASCII digits 0-9), the
single variable x, '^' for powers and +/- separators, e.g. "2x^3 - 4x".
Defining relations (and separation targets) must have zero constant term,
matching the rings this tool works with.  Every subcommand exits 0 when
the computation succeeds, whatever the verdict.  Exit 2 is for input and
usage errors only; exit 3 reports an internal fault (a result that failed
its own re-check, a ``SelfCheckError``), with ``internal error:`` on
stderr; exit 4 means the answer needs an integer factored beyond the
Pollard-rho effort budget (``FactoringBudgetError``), with ``factoring
budget exceeded:`` on stderr; exit 141 (128 + SIGPIPE) means the reader
of stdout went away, as with ``| head``, and prints nothing more.  A
degree above ``MAX_DEGREE``, a number written with more than
``MAX_COEFF_DIGITS`` digits or a modulus bound below 1 or above
``quotients.MAX_MODULUS_BOUND`` is an input error.
With --json the output follows a stable schema whose certificates can be
fed back to the ``verify`` subcommand.  Every document opens with
``schema``, ``command`` and, except for ``verify``, ``relators``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from functools import cache
from json.encoder import encode_basestring_ascii

from .intarith import FactoringBudgetError, SelfCheckError
from .poly import IntPoly, RatPoly, format_poly
from .ideal import (
    CanonicalBasis,
    ConstantTermError,
    MembershipCertificate,
    Presentation,
    canonical_basis,
    membership,
    reduce_with_quotients,
)
from .invariants import MonicRelation, ring_invariants
from .separability import (
    NON_INTEGER_GAMMA,
    NON_SQUAREFREE_GCD,
    NO_RELATORS,
    decide,
    torsion_split,
)
from .quotients import InfiniteQuotient, build_quotient, separate
from .check import SCHEMA, check_document

# the largest degree a parsed polynomial may have; its coefficient list is
# allocated whole, so the cap keeps the input from sizing that allocation
MAX_DEGREE = 100_000

# the most digits a coefficient or exponent may be written with; converting
# a digit run to an int takes time quadratic in its length, so the length
# is checked before the conversion
MAX_COEFF_DIGITS = 10_000


class PolySyntaxError(ValueError):
    """Input text is not a polynomial; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DegreeLimitError(ValueError):
    """Raised when a parsed polynomial's degree exceeds ``MAX_DEGREE``."""


class DigitLimitError(ValueError):
    """Raised when a number in a polynomial has more than ``MAX_COEFF_DIGITS`` digits."""


# one term: a sign, an ASCII coefficient, 'x', '^' and an exponent, each
# optional and each followed by optional whitespace.  [0-9] keeps out the
# other scripts' digits and the superscripts that str.isdigit accepts, and
# \s matches exactly the characters str.isspace accepts.
_TERM = re.compile(r"([+-]?)\s*([0-9]*)\s*(?:(x)\s*(?:(\^)\s*([0-9]*))?)?\s*")


def parse_poly(text: str) -> IntPoly:
    """Parse a polynomial expression; duplicate degrees merge by addition.

    Every term after the first opens with '+' or '-'.  A number's length
    is checked against ``MAX_COEFF_DIGITS`` before ``int`` reads it, and
    the degree against ``MAX_DEGREE`` before the coefficient list is
    allocated.
    """
    merged: dict[int, int] = {}
    n = len(text)
    pos = n - len(text.lstrip())
    if pos == n:
        raise PolySyntaxError("empty polynomial", n)
    while pos < n:
        m = _TERM.match(text, pos)
        sign, coeff, x, caret, exponent = m.groups()
        if merged and not sign:
            raise PolySyntaxError("expected '+' or '-' between terms", pos)
        for group in (2, 5):  # an absent group spans -1 to -1
            digits = m.end(group) - m.start(group)
            if digits > MAX_COEFF_DIGITS:
                raise DigitLimitError(
                    f"a number of {digits} digits exceeds the limit of "
                    f"{MAX_COEFF_DIGITS} digits (at position {m.start(group)})"
                )
        if caret and not exponent:
            raise PolySyntaxError("expected an exponent after '^'", m.start(5))
        if not (coeff or x):
            at = m.start(2)
            if text[at:at + 1].isalpha():
                raise PolySyntaxError(
                    f"only the variable 'x' is accepted, got {text[at]!r}", at
                )
            raise PolySyntaxError("expected a coefficient or 'x'", at)
        c = int(coeff) if coeff else 1
        degree = (int(exponent) if caret else 1) if x else 0
        merged[degree] = merged.get(degree, 0) + (-c if sign == "-" else c)
        pos = m.end()
    if merged.get(0, 0) != 0:
        raise ConstantTermError(
            "nonzero constant terms are forbidden: defining relations hold "
            "between powers of the generator only"
        )
    merged = {d: c for d, c in merged.items() if c}
    degree = max(merged, default=-1)
    if degree > MAX_DEGREE:
        raise DegreeLimitError(f"degree {degree} exceeds the limit of {MAX_DEGREE}")
    coeffs = [0] * (degree + 1)
    for d, c in merged.items():
        coeffs[d] = c
    return IntPoly(coeffs)


def _read_relator_file(path: str) -> list[IntPoly]:
    out = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                out.append(parse_poly(line))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return out


def _gather_presentation(args) -> Presentation:
    relators = []
    if args.file:
        relators.extend(_read_relator_file(args.file))
    for text in args.relator or []:
        relators.append(parse_poly(text))
    dropped = sum(1 for r in relators if r.is_zero())
    if dropped:
        print(
            f"warning: dropped {dropped} zero relator(s)", file=sys.stderr
        )
    return Presentation(relators)


def _encode(value) -> dict:
    """The JSON form of one library value, as a document carries it."""
    if isinstance(value, RatPoly):
        return {"coeffs": [str(c) for c in value.coeffs], "text": format_poly(value)}
    if isinstance(value, IntPoly):
        return {"coeffs": value.coeffs, "text": format_poly(value)}
    if isinstance(value, CanonicalBasis):
        return {"elements": value.elements, "element_cofactors": value.element_cofactors,
                "relator_quotients": value.relator_quotients}
    if isinstance(value, MembershipCertificate):
        return {"cofactors": value.cofactors, "claim": value.claim}
    if isinstance(value, MonicRelation):
        return {"k": value.k, "phi": value.phi, "certificate": value.certificate}
    raise TypeError(f"a {type(value).__name__} is not a JSON document value")


def _json_text(value, indent: str = "\n") -> str:
    """The bytes of ``json.dumps(value, indent=2, default=_encode)``: dicts
    with string keys, lists and tuples, strings, ints, bools, None and the
    library values ``_encode`` turns into these.  A sequence of plain ints
    is written with one join, so its coefficients are formatted at C speed."""
    kind = type(value)
    if kind is dict or kind is list or kind is tuple:
        brackets = "{}" if kind is dict else "[]"
        if not value:
            return brackets
        inner = indent + "  "
        if kind is dict:
            items = (f"{encode_basestring_ascii(k)}: {_json_text(v, inner)}"
                     for k, v in value.items())
        elif set(map(type, value)) == {int}:
            items = map(int.__repr__, value)
        else:
            items = (_json_text(v, inner) for v in value)
        return brackets[0] + inner + ("," + inner).join(items) + indent + brackets[1]
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    return _json_text(_encode(value), indent)


def _cmd_decide(args, p: Presentation) -> tuple[dict, list[str]]:
    """decide's verdict with its data; a separable one's witness k*phi and,
    for k > 1, the split of k into primes with a Bezout identity."""
    v = decide(p)
    fields = {"separable": v.separable, "coefficient_gcd": v.coefficient_gcd}
    lines = [f"separable: {'yes' if v.separable else 'no'}"]
    if v.squarefree_witness is not None:
        sf = v.squarefree_witness
        fields["coefficient_gcd_squarefree"] = sf.is_squarefree
        fields["coefficient_gcd_factorization"] = sf.factorization
        lines.append(
            f"condition (i): coefficient gcd {v.coefficient_gcd} "
            f"{'is' if sf.is_squarefree else 'is NOT'} squarefree"
        )
    if v.rational_gcd is not None:
        rg = v.rational_gcd
        fields["gamma"] = rg.gamma
        fields["gamma_cofactors"] = rg.cofactors
        fields["denominator_lcm"] = rg.denominator_lcm
        lines.append(
            f"condition (ii): rational gcd {format_poly(rg.gamma)} "
            f"{'has' if rg.gamma.is_integral() else 'does NOT have'} integer coefficients"
        )
    if v.failure_reason is not None:
        fr = v.failure_reason
        fields["failure_reason"] = {
            "kind": fr.kind,
            "prime": fr.prime,
            "coefficient_index": fr.coefficient_index,
            "coefficient": str(fr.coefficient) if fr.coefficient is not None else None,
        }
        if fr.kind == NO_RELATORS:
            lines.append("reason: no nonzero relators (free ring, transcendental generator)")
        elif fr.kind == NON_SQUAREFREE_GCD:
            lines.append(f"reason: {fr.prime}^2 divides the coefficient gcd")
        elif fr.kind == NON_INTEGER_GAMMA:
            lines.append(
                f"reason: gamma coefficient {fr.coefficient} at degree "
                f"{fr.coefficient_index} is not an integer"
            )
    w = v.positive_witness
    if w is not None:
        fields["witness"] = w
        lines.append(
            f"witness: {w.k} * ({format_poly(w.phi)}) vanishes at the generator"
        )
        if w.k > 1:
            split = torsion_split(v.squarefree_witness)
            fields["torsion_split"] = {
                "parts": split.parts, "bezout": split.bezout_coefficients,
            }
            lines.append(
                "prime split: "
                + ", ".join(f"(p={pi}, cofactor={ki})" for pi, ki in split.parts)
                + f"; bezout {list(split.bezout_coefficients)}"
            )
    return fields, lines


def _cmd_invariants(args, p: Presentation) -> tuple[dict, list[str]]:
    inv = ring_invariants(p)
    fmt = lambda x: "infinite" if x is None else x
    lines = [
        f"algebraic degree: {fmt(inv.algebraic_degree)}",
        f"minimal polynomial: "
        f"{format_poly(inv.minimal_polynomial) if inv.minimal_polynomial else 'none (transcendental)'}",
    ]
    if inv.minimal_polynomial is not None:
        lines.append(
            f"content * primitive: {inv.minimal_content} * ({format_poly(inv.minimal_primitive)})"
        )
    lines.append(f"torsion: {fmt(inv.torsion)}")
    lines.append(f"torsion exponent: {fmt(inv.torsion_exponent)}")
    if inv.torsion_witness is not None:
        w = inv.torsion_witness
        lines.append(f"witness: {w.k} * ({format_poly(w.phi)}) vanishes at the generator")
    return vars(inv), lines


def _cmd_basis(args, p: Presentation) -> tuple[dict, list[str]]:
    basis = canonical_basis(p)
    lines = [f"basis elements: {len(basis.elements)}"]
    lines += [f"  {format_poly(e)}" for e in basis.elements]
    return {"basis": basis}, lines


def _cmd_member(args, p: Presentation) -> tuple[dict, list[str]]:
    """The verdict on g in V, and the normal form that proves it either way:
    zero with cofactors over the relators, or nonzero and reduced against
    the basis, whose normal forms are unique."""
    g = parse_poly(args.poly)
    basis = canonical_basis(p)
    nf, quotients = reduce_with_quotients(g, basis)
    member, cert = membership(g, p) if nf.is_zero() else (False, None)
    fields = {
        "poly": g,
        "member": member,
        "certificate": cert,
        "normal_form": nf,
        "quotients": quotients,
        "basis": basis,
    }
    lines = [f"member: {'yes' if member else 'no'}", f"normal form: {format_poly(nf)}"]
    if cert:
        for c, r in zip(cert.cofactors, p.relators):
            lines.append(f"  ({format_poly(c)}) * ({format_poly(r)})")
    return fields, lines


def _cmd_quotient(args, p: Presentation) -> tuple[dict, list[str]]:
    ring = build_quotient(p, args.modulus)
    if isinstance(ring, InfiniteQuotient):
        fields = {
            "modulus": args.modulus,
            "finite": False,
            "obstruction": ring.obstruction,
        }
        lines = [
            f"quotient mod {args.modulus}: infinite",
            "no monic element in the reduced basis; degree ladder: "
            + ", ".join(f"lead {c} at degree {d}" for d, c in ring.obstruction),
        ]
        return fields, lines
    gen = ring.generator()
    action = [ring.to_poly(ring.image(IntPoly.term(1, d + 1)))
              for d in ring.standard_monomials]
    fields = {
        "modulus": args.modulus,
        "finite": True,
        "standard_monomials": ring.standard_monomials,
        "position_moduli": ring.position_moduli,
        "carrier_size": ring.carrier_size,
        "generator_image": gen,
        "generator_action": {str(d): img for d, img in zip(ring.standard_monomials, action)},
    }
    lines = [
        f"quotient mod {args.modulus}: finite, {ring.carrier_size} elements",
        "standard monomials: "
        + (
            ", ".join(
                f"x^{d} (coefficients mod {m})"
                for d, m in zip(ring.standard_monomials, ring.position_moduli)
            )
            or "none (zero ring)"
        ),
    ]
    for d, img in zip(ring.standard_monomials, action):
        lines.append(f"a * a^{d} = {format_poly(img)}")
    return fields, lines


def _cmd_separate(args, p: Presentation) -> tuple[dict, list[str]]:
    target = parse_poly(args.target)
    gens = [parse_poly(t) for t in args.gen or []]
    result = separate(p, target, gens, args.bound)
    fields = {
        "target": target,
        "generators": gens,
        "found": result.found,
        "modulus": result.modulus,
        "bound_exhausted": result.bound_exhausted,
    }
    if result.found:
        fields["image_of_target"] = result.image_of_target
        fields["subring_image"] = sorted(result.subring_image)
        lines = [
            f"separated at modulus {result.modulus}: target image "
            f"{format_poly(result.quotient.to_poly(result.image_of_target))} is outside the "
            f"subring image ({len(result.subring_image)} elements)",
        ]
    else:
        lines = [
            f"no separating quotient found up to modulus {result.bound_exhausted} "
            "(this is not a proof of non-separability)"
        ]
    return fields, lines


def _cmd_verify(args, _) -> tuple[dict, list[str]]:
    try:
        if args.input == "-":
            doc = json.load(sys.stdin)
        else:
            with open(args.input, encoding="utf-8") as fh:
                doc = json.load(fh)
    except RecursionError:
        # the decoder recurses once per nesting level of the input
        raise ValueError("the document nests too deeply to be read") from None
    checks = check_document(doc)
    # a document without a single certificate proves nothing
    all_ok = bool(checks) and all(ok for _, ok in checks)
    fields = {
        "checks": [{"name": name, "ok": ok} for name, ok in checks],
        "all_ok": all_ok,
        "checked": len(checks),
    }
    lines = [f"{'PASS' if ok else 'FAIL'}  {name}" for name, ok in checks]
    if not checks:
        lines.append("FAIL  the document carries no certificate")
    lines.append(f"verified {len(checks)} certificate check(s): "
                 f"{'all valid' if all_ok else 'INVALID'}")
    return fields, lines


# each argument is (flag or name, add_argument keywords)
_JSON_ARG = ("--json", dict(action="store_true", help="machine-readable output"))
_PRESENTATION_ARGS = (
    ("--relator", dict(action="append", metavar="EXPR",
                       help="defining relation, e.g. 'x^2 - x' (repeatable)")),
    ("--file", dict(metavar="PATH",
                    help="file with one polynomial per line ('#' starts a comment)")),
    _JSON_ARG,
)

# (name, help, arguments after the presentation's) for each subcommand
# that reads a presentation; verify reads a document instead
_COMMANDS = (
    ("decide", "run the separability criterion", ()),
    ("invariants", "algebraic degree, torsion, witnesses", ()),
    ("basis", "canonical basis of the relator ideal", ()),
    ("member", "ideal membership and normal form, with certificates",
     (("--poly", dict(required=True, metavar="EXPR")),)),
    ("quotient", "finite quotient ring structure",
     (("--modulus", dict(required=True, type=int)),)),
    ("separate", "search a separating finite quotient", (
        ("--target", dict(required=True, metavar="EXPR")),
        ("--gen", dict(action="append", metavar="EXPR", help="subring generator "
                       "(repeatable; none means the zero subring)")),
        ("--bound", dict(type=int, default=64, help="modulus bound (default 64)")),
    )),
)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it as is."""
    parser = argparse.ArgumentParser(
        prog="finsep",
        allow_abbrev=False,
        description="Decide finite separability of a monogenic ring "
        "presentation and compute its certificates.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, help_text, extra in _COMMANDS:
        sub = subs.add_parser(name, help=help_text, allow_abbrev=False)
        for flag, options in _PRESENTATION_ARGS + extra:
            sub.add_argument(flag, **options)
    sub = subs.add_parser("verify", allow_abbrev=False,
                          help="re-verify certificates from JSON output")
    for flag, options in (
        ("input", dict(help="JSON file produced with --json, or - for stdin")),
        _JSON_ARG,
    ):
        sub.add_argument(flag, **options)
    return parser


def _respond(args) -> None:
    """Run ``args.command`` and print its answer, as text or one document.

    The command is looked up by name when it runs, so a wrapper put on a
    ``_cmd_*`` function after the parser was built still applies.
    """
    p = None if args.command == "verify" else _gather_presentation(args)
    fields, lines = globals()[f"_cmd_{args.command}"](args, p)
    if not args.json:
        print("\n".join(lines))
        return
    doc = {"schema": SCHEMA, "command": args.command}
    if p is not None:
        doc["relators"] = p.relators
    print(_json_text(doc | fields))


def _quiet_stdout() -> None:
    """Point stdout at the null device, so that the interpreter's last flush
    of what is still buffered for a closed pipe cannot fail."""
    devnull = open(os.devnull, "w")
    try:
        os.dup2(devnull.fileno(), sys.stdout.fileno())
    except (OSError, ValueError):  # stdout is no file descriptor
        sys.stdout = devnull
    else:
        devnull.close()


# argparse takes a value that starts with "-" for an option, so a polynomial
# such as "-5x" given as its own argument is joined to its flag first
_EXPR_FLAGS = ("--relator", "--poly", "--target", "--gen")


def run(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in range(len(argv) - 1, 0, -1):
        value = argv[i]
        if argv[i - 1] in _EXPR_FLAGS and value[:1] == "-" and value[:2] != "--":
            argv[i - 1:i + 1] = [f"{argv[i - 1]}={value}"]
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse's exit: 2 for a usage error, 0 for --help
        return exc.code
    # certificate cofactors can exceed the int <-> str digit limit that
    # Python sets from 3.10.7 on; lift it for the command, restore it after
    limited = hasattr(sys, "set_int_max_str_digits")
    if limited:
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        _respond(args)
        # a closed pipe surfaces here rather than in the exit-time flush
        sys.stdout.flush()
        return 0
    except BrokenPipeError:
        _quiet_stdout()
        return 141
    except (ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SelfCheckError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except FactoringBudgetError as exc:
        print(f"factoring budget exceeded: {exc}", file=sys.stderr)
        return 4
    finally:
        if limited:
            sys.set_int_max_str_digits(saved)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
