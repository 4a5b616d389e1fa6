import io
import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import finsep

from finsep.poly import IntPoly, format_poly
from finsep.ideal import ConstantTermError
from finsep.intarith import MR_PROOF_BOUND, is_probable_prime
from finsep import cli
from finsep.cli import (
    MAX_COEFF_DIGITS,
    MAX_DEGREE,
    DegreeLimitError,
    DigitLimitError,
    PolySyntaxError,
    build_parser,
    parse_poly,
    run,
)
from finsep.quotients import MAX_MODULUS_BOUND


def ip(*ascending):
    return IntPoly(ascending)


# a separable pair whose certificate cofactors exceed 4300 decimal digits,
# Python's default limit for int <-> str conversion
DIGIT_LIMIT_PAIR = (
    (0, 1650, -2862, 3114, -1596, 3768, 2484, 5580, 4338, 3090, -5166),
    (0, 0, -282, 3252, 9120, 2646, -966, -3390, -294, 996, -8688, -1728, 2886),
)


def test_parse_examples():
    assert parse_poly("2x^3 - 4x") == ip(0, -4, 0, 2)
    assert parse_poly("x^2 - x") == ip(0, -1, 1)
    assert parse_poly("x") == ip(0, 1)
    assert parse_poly("-x") == ip(0, -1)
    assert parse_poly("  7x^2+   x ") == ip(0, 1, 7)
    assert parse_poly("+3x") == ip(0, 3)
    assert parse_poly("0") == IntPoly()


def test_parse_merges_duplicate_degrees():
    assert parse_poly("x + x") == ip(0, 2)
    assert parse_poly("x^2 - x^2 + x") == ip(0, 1)


def test_parse_rejects_constant_terms():
    with pytest.raises(ConstantTermError):
        parse_poly("x^2 + 1")
    with pytest.raises(ConstantTermError):
        parse_poly("5")
    # a zero constant term is fine
    assert parse_poly("x + 0") == ip(0, 1)


_OVER = "9" * (MAX_COEFF_DIGITS + 1)
_TOO_LONG = (f"a number of {MAX_COEFF_DIGITS + 1} digits exceeds the limit of "
             f"{MAX_COEFF_DIGITS} digits")
PARSE_ERRORS = [
    ("", PolySyntaxError, "empty polynomial (at position 0)"),
    ("   ", PolySyntaxError, "empty polynomial (at position 3)"),
    ("2x 3x", PolySyntaxError, "expected '+' or '-' between terms (at position 3)"),
    ("xx", PolySyntaxError, "expected '+' or '-' between terms (at position 1)"),
    ("2^3", PolySyntaxError, "expected '+' or '-' between terms (at position 1)"),
    ("x * 2", PolySyntaxError, "expected '+' or '-' between terms (at position 2)"),
    ("x^2 +", PolySyntaxError, "expected a coefficient or 'x' (at position 5)"),
    ("-", PolySyntaxError, "expected a coefficient or 'x' (at position 1)"),
    ("x^", PolySyntaxError, "expected an exponent after '^' (at position 2)"),
    ("x^ - x", PolySyntaxError, "expected an exponent after '^' (at position 3)"),
    ("x^\u0663 - x", PolySyntaxError, "expected an exponent after '^' (at position 2)"),
    ("x^2 + y", PolySyntaxError,
     "only the variable 'x' is accepted, got 'y' (at position 6)"),
    ("X", PolySyntaxError, "only the variable 'x' is accepted, got 'X' (at position 0)"),
    ("\u00b2x", PolySyntaxError, "expected a coefficient or 'x' (at position 0)"),
    (f"{_OVER}x - x", DigitLimitError, f"{_TOO_LONG} (at position 0)"),
    (f"x^{_OVER} - x", DigitLimitError, f"{_TOO_LONG} (at position 2)"),
    # the coefficient's length is checked before the exponent's
    (f"{_OVER}x^{_OVER}", DigitLimitError, f"{_TOO_LONG} (at position 0)"),
    (f"x^{MAX_DEGREE + 1}", DegreeLimitError,
     f"degree {MAX_DEGREE + 1} exceeds the limit of {MAX_DEGREE}"),
    ("x^2 + 1", ConstantTermError, "nonzero constant terms are forbidden: defining "
     "relations hold between powers of the generator only"),
]


@pytest.mark.parametrize("text, error, message", PARSE_ERRORS,
                         ids=[ascii(text[:12]) for text, _, _ in PARSE_ERRORS])
def test_parse_errors_keep_their_type_message_and_position(text, error, message):
    with pytest.raises(error) as e:
        parse_poly(text)
    assert type(e.value) is error
    assert str(e.value) == message


def test_whitespace_between_the_parts_of_a_term_is_ignored():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    polys = st.lists(st.integers(-10**6, 10**6), max_size=8).map(
        lambda c: IntPoly([0, *c]))
    runs = st.text(alphabet=" \t\u3000", max_size=3)

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(polys, st.data())
    def spaced_parse_is_the_poly(p, data):
        # the parts of a term: a sign, a number, 'x' and '^'
        parts = re.findall(r"[0-9]+|\S", format_poly(p))
        spaces = data.draw(st.lists(runs, min_size=len(parts) + 1,
                                    max_size=len(parts) + 1))
        text = spaces[0] + "".join(a + b for a, b in zip(parts, spaces[1:]))
        assert parse_poly(text) == p

    spaced_parse_is_the_poly()


def test_parse_accepts_ascii_digits_only(capsys):
    # an Arabic-Indic three and a superscript two pass str.isdigit; both
    # are syntax errors with a position, and exit 2 through the CLI
    for text, position in (("x^\u0663 - x", 2), ("\u00b2x", 0)):
        with pytest.raises(PolySyntaxError) as e:
            parse_poly(text)
        assert e.value.position == position
        assert run(["decide", "--relator", text]) == 2
        assert f"at position {position}" in capsys.readouterr().err


def test_parse_print_roundtrip():
    import random
    rng = random.Random(60)
    for _ in range(200):
        coeffs = [0] + [rng.randint(-9, 9) for _ in range(rng.randint(1, 6))]
        p = IntPoly(coeffs)
        if p.is_zero():
            continue
        parsed = parse_poly(format_poly(p))
        assert parsed == p
        assert parse_poly(format_poly(parsed)) == parsed


def test_run_decide_text(capsys):
    assert run(["decide", "--relator", "4x"]) == 0
    out = capsys.readouterr().out
    assert "separable: no" in out
    assert "2^2 divides" in out

    assert run(["decide", "--relator", "x^2 - x"]) == 0
    out = capsys.readouterr().out
    assert "separable: yes" in out and "witness" in out


def test_run_exit_codes(capsys):
    # verdicts exit 0 either way; usage errors are nonzero
    assert run(["decide", "--relator", "2x^2 + x"]) == 0
    capsys.readouterr()
    assert run(["decide", "--relator", "x^2 + 3"]) == 2
    assert "constant" in capsys.readouterr().err
    assert run(["decide", "--relator", "x + y"]) == 2
    assert "position" in capsys.readouterr().err


def test_run_returns_argparse_exit_codes_instead_of_raising(capsys):
    # usage errors exit 2 and --help exits 0, as from the command line
    assert run(["witness"]) == 2
    assert "invalid choice" in capsys.readouterr().err
    assert run(["decide", "--rel", "x"]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert run([]) == 2
    capsys.readouterr()
    assert run(["decide", "--help"]) == 0
    assert "--relator" in capsys.readouterr().out


def test_run_rejects_oversized_inputs_before_allocating(capsys):
    # one past each cap: the degree sizes a coefficient list, the modulus
    # bound a sieve; both are input errors, raised before either is built
    assert run(["decide", "--relator", f"x^{MAX_DEGREE + 1}"]) == 2
    assert "exceeds the limit" in capsys.readouterr().err
    assert run(["separate", "--relator", "x^2 - x", "--target", "x",
                "--bound", str(MAX_MODULUS_BOUND + 1)]) == 2
    assert "exceeds the limit" in capsys.readouterr().err
    assert parse_poly(f"x^{MAX_DEGREE}").degree == MAX_DEGREE


def test_run_rejects_a_modulus_bound_below_1(capsys):
    for bound in ("0", "-5"):
        assert run(["separate", "--relator", "x^2 - x", "--target", "x",
                    "--bound", bound]) == 2
        assert capsys.readouterr().err.startswith("error: modulus bound must be >= 1")


@pytest.mark.parametrize("command, flag, value, rest", [
    ("decide", "--relator", "-5x", []),
    ("decide", "--relator", "-x^2+x", ["--json"]),
    ("member", "--poly", "-x^2+x", ["--relator", "x^2 - x"]),
    ("separate", "--target", "-x", ["--relator", "x^2 - x", "--gen", "x"]),
    ("separate", "--gen", "-2x", ["--relator", "x^2 - x", "--target", "x"]),
])
def test_a_polynomial_with_a_leading_minus_may_follow_its_flag(command, flag, value,
                                                               rest, capsys):
    # argparse would read the value as an option; given as its own argument
    # it answers as it does when joined to its flag
    assert run([command, f"{flag}={value}", *rest]) == 0
    joined = capsys.readouterr().out
    assert run([command, flag, value, *rest]) == 0
    assert capsys.readouterr().out == joined
    # a value that starts with "--" is still an option
    assert run([command, flag, "--json", *rest]) == 2
    assert "expected one argument" in capsys.readouterr().err


# a presentation and the other arguments each subcommand needs to answer
RUNNABLE = {
    "decide": [], "invariants": [], "basis": [],
    "member": ["--poly", "x"], "quotient": ["--modulus", "4"],
    "separate": ["--target", "x", "--bound", "4"],
}


@pytest.mark.parametrize("command", [*RUNNABLE, "verify"])
def test_an_abbreviated_flag_is_a_usage_error(command, tmp_path, capsys):
    # a prefix of a flag is no flag, whatever its value starts with, so
    # that each spelling either works or fails the same way
    if command == "verify":
        path = tmp_path / "decide.json"
        assert run(["decide", "--relator", "x^2 - x", "--json"]) == 0
        path.write_text(capsys.readouterr().out)
        argv = ["verify", str(path)]
    else:
        argv = [command, "--relator", "x^2 - x", *RUNNABLE[command]]
    assert run(argv) == 0
    subcommands = next(a.choices for a in build_parser()._actions
                       if a.dest == "command")
    assert set(subcommands) == {*RUNNABLE, "verify"}
    flags = [f for a in subcommands[command]._actions for f in a.option_strings
             if f.startswith("--") and len(f) > 5]
    assert flags
    for flag in flags:
        for value in ("x", "-5x"):
            assert run([*argv, flag[:5], value]) == 2, (flag, value)
            assert "unrecognized arguments" in capsys.readouterr().err


def test_the_retired_witness_command_and_kind_are_usage_errors(tmp_path, capsys):
    assert run(["witness", "--relator", "6x^2 - 6x"]) == 2
    assert "invalid choice: 'witness'" in capsys.readouterr().err
    # a witness document, as finsep once wrote one, names a kind no more known
    assert run(["decide", "--relator", "6x^2 - 6x", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    w = doc.pop("witness")
    doc |= {"command": "witness", "k": w["k"], "tail_coefficients": [-1],
            "phi": w["phi"], "certificate": w["certificate"]}
    path = tmp_path / "witness.json"
    path.write_text(json.dumps(doc))
    assert run(["verify", str(path)]) == 2
    assert "no document kind is named 'witness'" in capsys.readouterr().err


def test_the_retired_nf_command_is_a_usage_error(capsys):
    # member answers with the normal form; nf is no alias of it
    assert run(["nf", "--relator", "x^2 - x", "--poly", "x^3 + x"]) == 2
    assert "invalid choice: 'nf'" in capsys.readouterr().err


def test_a_unit_witness_carries_no_torsion_split(capsys):
    assert run(["decide", "--relator", "x^2 - x", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["witness"]["k"] == 1 and "torsion_split" not in doc
    assert run(["decide", "--relator", "x^2 - x"]) == 0
    assert "prime split" not in capsys.readouterr().out


def test_decide_factors_the_coefficient_gcd_once(monkeypatch, capsys):
    # K = 1000003 * 1000033: condition (i) factors K, and the torsion split
    # reuses that factorization
    calls, factorize = [], finsep.intarith.factorize
    counted = lambda n: calls.append(n) or factorize(n)
    # every finsep module that holds it by name
    for module in [m for m in vars(finsep).values()
                   if getattr(m, "factorize", None) is factorize]:
        monkeypatch.setattr(module, "factorize", counted)
    K = 1000003 * 1000033
    assert run(["decide", "--relator", f"{K}x^2 - {K}x", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["torsion_split"]["parts"] == [[1000003, 1000033], [1000033, 1000003]]
    assert calls == [K]


def test_run_rejects_overlong_numbers_before_converting(capsys):
    # a digit run one past the cap is an input error naming the limit, for
    # a coefficient and for an exponent alike, raised before the run is
    # converted (outside ``run`` Python's own int/str digit limit would
    # raise first otherwise)
    longest, over = "1" + "0" * (MAX_COEFF_DIGITS - 1), "9" * (MAX_COEFF_DIGITS + 1)
    for text in (f"{over}x - x", f"x^{over} - x"):
        with pytest.raises(DigitLimitError, match=f"limit of {MAX_COEFF_DIGITS} digits"):
            parse_poly(text)
        assert run(["decide", f"--relator={text}"]) == 2
        assert f"exceeds the limit of {MAX_COEFF_DIGITS} digits" in capsys.readouterr().err
    assert run(["decide", f"--relator={longest}x^2 - {longest}x"]) == 0
    assert "separable: no" in capsys.readouterr().out


def test_run_internal_fault_exits_3(capsys, monkeypatch):
    # a certificate that fails its own re-check is an internal fault, not
    # an input error
    from finsep import ideal

    monkeypatch.setattr(ideal.MembershipCertificate, "verify",
                        lambda self, presentation: False)
    ideal.canonical_basis.cache_clear()
    try:
        assert run(["basis", "--relator", "x^2 - x"]) == 3
    finally:
        ideal.canonical_basis.cache_clear()
    err = capsys.readouterr().err
    assert err.startswith("internal error:")
    # so is a search that misses the relation that tau | k guarantees
    from finsep import separability

    monkeypatch.setattr(separability, "monic_multiple_search", lambda p, k: None)
    assert run(["decide", "--relator", "6x^2 - 6x"]) == 3
    assert capsys.readouterr().err.startswith("internal error: no monic multiple")


# relators whose minimal-polynomial content has a 134-bit composite cofactor,
# two primes too large for Pollard rho within its budget
RHO_STALL_PAIR = (
    "-40914x^8 - 3030x^7 + 30360x^6 - 16986x^5 - 14610x^4 + 7962x^3"
    " - 14178x^2 + 48696x",
    "49914x^10 + 88374x^9 + 43866x^8 - 30828x^7 - 37962x^6 - 25182x^5"
    " - 63798x^4 + 9054x^3 + 49398x^2",
)

# the degree-100 pair whose minimal-polynomial content has 233 bits
SPARSE_PAIR = ("6x^100 - 6x", "10x^99 + 4x^5")


def test_run_factoring_budget_exits_4(capsys):
    # condition (i) factors the coefficient gcd M, a product of two 67-bit
    # primes that Pollard rho does not split within its budget
    M = 11359719203640997809264524279390943911003
    start = time.perf_counter()
    assert run(["decide", "--relator", f"{M}x^2 - {M}x"]) == 4
    assert time.perf_counter() - start < 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("factoring budget exceeded:")


@pytest.mark.parametrize("pair, tau", [(SPARSE_PAIR, 2), (RHO_STALL_PAIR, 6)])
def test_invariants_factors_nothing(pair, tau, monkeypatch, tmp_path, capsys):
    # the torsion is the lead of the top basis element, so a content too
    # large to factor does not matter
    from finsep import ideal
    from finsep.intarith import factorize

    def no_factorize(n):
        raise AssertionError(f"factorize({n}) called")

    # every finsep module that holds it by name
    for module in [m for m in vars(finsep).values()
                   if getattr(m, "factorize", None) is factorize]:
        monkeypatch.setattr(module, "factorize", no_factorize)
    argv = ["invariants", "--relator", pair[0], "--relator", pair[1]]
    ideal.canonical_basis.cache_clear()
    start = time.perf_counter()
    assert run(argv) == 0
    assert time.perf_counter() - start < 1
    assert f"torsion: {tau}\n" in capsys.readouterr().out
    assert run([*argv, "--json"]) == 0
    doc = capsys.readouterr().out
    assert json.loads(doc)["torsion"] == tau
    path = tmp_path / "doc.json"
    path.write_text(doc)
    assert run(["verify", str(path)]) == 0
    assert "all valid" in capsys.readouterr().out


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_broken_pipe_is_not_an_input_error(capsys, monkeypatch):
    closed = _ClosedPipe()
    monkeypatch.setattr(sys, "stdout", closed)
    rc = run(["decide", "--relator", "x^40 - x", "--relator", "6x^30 - 6x",
              "--json"])
    quiet = sys.stdout
    assert quiet is not closed and quiet.name == os.devnull
    quiet.close()
    assert rc == 141
    assert capsys.readouterr().err == ""


def test_closed_pipe_exits_quietly():
    # a real pipe with no reader, and stdout buffered, so that the output
    # meets the closed pipe only when it is flushed
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "finsep.cli", "decide",
             "--relator", "x^2 - x", "--json"],
            stdout=write_end, stderr=subprocess.PIPE, check=False,
            env={**env, "PYTHONPATH": _src_path()},
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_a_wrapped_command_runs_after_the_parser_is_built(tmp_path, monkeypatch,
                                                          capsys):
    assert run(["decide", "--relator", "x^2 - x", "--json"]) == 0
    path = tmp_path / "decide.json"
    path.write_text(capsys.readouterr().out)
    build_parser()
    calls = []
    original = cli._cmd_verify

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(cli, "_cmd_verify", counting)
    assert run(["verify", str(path)]) == 0
    assert len(calls) == 1
    assert "all valid" in capsys.readouterr().out


def _src_path() -> str:
    """PYTHONPATH for a subprocess that imports this checkout's finsep."""
    src = str(Path(finsep.__file__).resolve().parent.parent)
    return os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))


def _fresh_run(argv, stdin_text=""):
    proc = subprocess.run(
        [sys.executable, "-m", "finsep.cli", *argv], input=stdin_text,
        capture_output=True, text=True, check=False,
        env={**os.environ, "PYTHONPATH": _src_path()},
    )
    return proc.returncode, proc.stdout


def test_consecutive_runs_share_no_state(capsys, monkeypatch):
    # each run on the one cached parser answers as a fresh process does
    two = ["decide", "--relator", "x^3 - x", "--relator", "6x^2 - 6x", "--json"]
    one = ["decide", "--relator", "2x^2 - 2x", "--json"]
    assert run(two) == 0
    doc_two = capsys.readouterr().out
    assert run(one) == 0
    doc_one = capsys.readouterr().out
    monkeypatch.setattr(sys, "stdin", io.StringIO(doc_one))
    assert run(["verify", "-"]) == 0
    report = capsys.readouterr().out
    assert json.loads(doc_one)["relators"] != json.loads(doc_two)["relators"]
    assert _fresh_run(two) == (0, doc_two)
    assert _fresh_run(one) == (0, doc_one)
    assert _fresh_run(["verify", "-"], doc_one) == (0, report)


def test_run_member_prints_its_verdict_and_normal_form(capsys):
    assert run(["member", "--relator", "x^2 - x", "--poly", "x^3 + x"]) == 0
    assert capsys.readouterr().out == "member: no\nnormal form: 2x\n"
    assert run(["member", "--relator", "x^2 - x", "--poly", "3x^2 - 3x"]) == 0
    assert capsys.readouterr().out == "member: yes\nnormal form: 0\n  (3) * (x^2 - x)\n"
    assert run(["member", "--relator", "x^2 - x", "--poly", "x"]) == 0
    assert capsys.readouterr().out == "member: no\nnormal form: x\n"


def test_a_non_member_query_divides_once(monkeypatch, capsys):
    # the normal form decides a non-member; membership would divide again
    from finsep import ideal
    relators = ["--relator", "6x^100 - 6x", "--relator", "10x^99 + 4x^5"]
    argv = ["member", *relators, "--poly", "x^300 + 7x^151 + x"]
    assert run(argv) == 0  # warms the basis cache
    capsys.readouterr()
    calls, divide = [], ideal._divide
    monkeypatch.setattr(ideal, "_divide", lambda *a: calls.append(1) or divide(*a))
    assert run(argv) == 0
    assert capsys.readouterr().out.startswith("member: no\n")
    assert len(calls) == 1


def test_text_mode_formats_only_what_it_prints(monkeypatch, capsys):
    # the basis document's cofactors and quotients are never formatted
    formatted = []
    monkeypatch.setattr(cli, "format_poly", lambda p: formatted.append(p) or format_poly(p))
    assert run(["basis", "--relator", "2x^3 + x", "--relator", "2x^3 + x^2"]) == 0
    assert capsys.readouterr().out == "basis elements: 2\n  3x\n  x^2 + 2x\n"
    assert formatted == [ip(0, 3), ip(0, 2, 1)]


def test_a_prime_square_gcd_is_split_without_rho(capsys):
    # p^2 * x for a 67-bit prime p: Pollard rho would need about sqrt(p) steps
    p = 143252349924571991197
    start = time.perf_counter()
    assert run(["decide", "--relator", f"{p * p}x", "--json"]) == 0
    assert time.perf_counter() - start < 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["separable"] is False
    assert doc["failure_reason"]["prime"] == p
    assert doc["coefficient_gcd_factorization"] == [[p, 2]]


def test_run_basis_json(capsys):
    assert run(["basis", "--relator", "2x^3 + x", "--relator", "2x^3 + x^2",
                "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "finsep/1"
    assert [e["text"] for e in doc["basis"]["elements"]] == ["3x", "x^2 + 2x"]


def test_run_relator_file(tmp_path, capsys):
    path = tmp_path / "rels.txt"
    path.write_text("# a comment\nx^3 - x\n\n6x^2 - 6x   # inline\n")
    assert run(["decide", "--file", str(path)]) == 0
    assert "separable: yes" in capsys.readouterr().out
    bad = tmp_path / "bad.txt"
    bad.write_text("x^2 - x\nx +\n")
    assert run(["decide", "--file", str(bad)]) == 2
    assert "bad.txt:2" in capsys.readouterr().err


def test_run_zero_relator_warns(capsys):
    assert run(["decide", "--relator", "x - x", "--relator", "x^2 - x"]) == 0
    captured = capsys.readouterr()
    assert "dropped 1 zero relator" in captured.err
    assert "separable: yes" in captured.out


def test_run_quotient(capsys):
    assert run(["quotient", "--relator", "x^2 - x", "--modulus", "2"]) == 0
    out = capsys.readouterr().out
    assert "finite, 2 elements" in out
    assert run(["quotient", "--modulus", "2"]) == 0
    assert "infinite" in capsys.readouterr().out


def test_run_separate(capsys):
    assert run(["separate", "--relator", "x^2 - x", "--target", "3x",
                "--gen", "2x", "--bound", "16"]) == 0
    assert "separated at modulus 2" in capsys.readouterr().out
    assert run(["separate", "--relator", "x^2 - x", "--target", "x",
                "--gen", "x", "--bound", "8"]) == 0
    assert "no separating quotient" in capsys.readouterr().out


def test_run_invariants_json(capsys):
    assert run(["invariants", "--relator", "2x^2", "--relator", "x^3",
                "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["algebraic_degree"] == 2
    assert doc["minimal_polynomial"]["coeffs"] == [0, 0, 2]
    assert doc["torsion"] == 1
    assert doc["torsion_exponent"] == 2
    assert doc["torsion_witness"]["certificate"]["claim"]["coeffs"] == [0, 0, 0, 1]


@pytest.mark.parametrize(
    "argv",
    [
        ["decide", "--relator", "x^2 - x", "--json"],
        ["decide", "--relator", "4x", "--json"],
        ["decide", "--relator", "2x^2 + x", "--json"],
        ["decide", "--relator", "x^3 - x", "--relator", "6x^2 - 6x", "--json"],
        ["member", "--relator", "x^2 - x", "--poly", "5x^2 - 5x", "--json"],
        ["basis", "--relator", "2x^3 + x", "--relator", "2x^3 + x^2", "--json"],
        ["member", "--relator", "x^2 - x", "--poly", "x^3 + x", "--json"],
        ["decide", "--relator", "6x", "--json"],
        ["invariants", "--relator", "2x^2 - 2x", "--relator", "x^3 - x^2",
         "--json"],
        ["decide", "--json"],
        ["decide", "--relator", format_poly(IntPoly(DIGIT_LIMIT_PAIR[0])),
         "--relator", format_poly(IntPoly(DIGIT_LIMIT_PAIR[1])), "--json"],
    ],
)
def test_json_certificates_reverify(argv, tmp_path, capsys):
    assert run(argv) == 0
    doc = capsys.readouterr().out
    path = tmp_path / "doc.json"
    path.write_text(doc)
    assert run(["verify", str(path), "--json"]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["all_ok"] is True
    assert result["checked"] >= 1


def test_run_restores_the_digit_limit(capsys):
    before = sys.get_int_max_str_digits()
    assert run(["decide", "--relator", format_poly(IntPoly(DIGIT_LIMIT_PAIR[0])),
                "--relator", format_poly(IntPoly(DIGIT_LIMIT_PAIR[1]))]) == 0
    assert "separable" in capsys.readouterr().out
    assert sys.get_int_max_str_digits() == before


def test_verify_catches_tampering(tmp_path, capsys):
    assert run(["member", "--relator", "x^2 - x", "--poly", "5x^2 - 5x",
                "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    doc["certificate"]["cofactors"][0]["coeffs"][0] = 17
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(doc))
    assert run(["verify", str(path), "--json"]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["all_ok"] is False


def _set_gamma_coefficient(doc):
    doc["gamma"]["coeffs"][1] = "1/0"


def _null_gamma_cofactors(doc):
    doc["gamma_cofactors"] = None


def _string_relators(doc):
    doc["relators"] = "x"


def _null_prime(doc):
    doc["failure_reason"] = {"kind": "non_squarefree_gcd", "prime": None}


@pytest.mark.parametrize(
    "malform",
    [_set_gamma_coefficient, _null_gamma_cofactors, _string_relators, _null_prime],
)
def test_verify_rejects_a_malformed_document(malform, tmp_path, capsys):
    # a malformed field is an input error (exit 2), never a traceback
    assert run(["decide", "--relator", "2x^2 + x", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    malform(doc)
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc))
    assert run(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert captured.out == ""


def test_verify_rejects_a_document_nested_too_deeply(tmp_path, capsys):
    # the JSON decoder recurses once per level; its RecursionError on the
    # input is an input error, alone or in one field of a valid document
    assert run(["decide", "--relator", "x^2 - x", "--json"]) == 0
    text = capsys.readouterr().out
    deep = "[" * 5000 + "]" * 5000
    path = tmp_path / "deep.json"
    for document in (deep, text.replace('"separable": true', f'"separable": {deep}')):
        assert deep in document
        path.write_text(document)
        assert run(["verify", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""


def test_verify_catches_a_forged_gamma(tmp_path, capsys):
    # x^2 - x, x^3 - x is separable; this gamma satisfies its Bezout
    # identity, (x + 1/2)(x^2 - x) = x^3 - (1/2)x^2 - (1/2)x, and has a
    # non-integer coefficient, but it divides neither relator
    assert run(["decide", "--relator", "x^2 - x", "--relator", "x^3 - x",
                "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    del doc["witness"]
    doc["separable"] = False
    doc["gamma"] = {"coeffs": ["0", "-1/2", "-1/2", "1"],
                    "text": "x^3 - (1/2)x^2 - (1/2)x"}
    doc["gamma_cofactors"] = [{"coeffs": ["1/2", "1"], "text": "x + (1/2)"},
                              {"coeffs": [], "text": "0"}]
    doc["denominator_lcm"] = 2
    doc["failure_reason"] = {"kind": "non_integer_gamma", "prime": None,
                             "coefficient_index": 1, "coefficient": "-1/2"}
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(doc))
    assert run(["verify", str(path), "--json"]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["all_ok"] is False
    failed = [c["name"] for c in result["checks"] if not c["ok"]]
    assert failed == ["gamma divides every relator"]
    assert run(["verify", str(path)]) == 0
    assert "INVALID" in capsys.readouterr().out
    # a gamma that is not monic fails on its own check
    doc["gamma"]["coeffs"] = ["0", "-2", "2"]
    doc["gamma_cofactors"][0]["coeffs"] = ["2"]
    path.write_text(json.dumps(doc))
    assert run(["verify", str(path), "--json"]) == 0
    result = json.loads(capsys.readouterr().out)
    failed = [c["name"] for c in result["checks"] if not c["ok"]]
    assert "gamma is monic" in failed and result["all_ok"] is False


def test_verify_checks_the_flagged_prime_is_prime(tmp_path, capsys):
    # 4^2 divides 16, so only a primality check rejects "prime": 4
    assert run(["decide", "--relator", "16x", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["failure_reason"]["prime"] == 2
    path = tmp_path / "decide.json"
    path.write_text(json.dumps(doc))
    assert run(["verify", str(path), "--json"]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["all_ok"] is True
    assert {"name": "2 is prime", "ok": True} in result["checks"]
    doc["failure_reason"]["prime"] = 4
    path.write_text(json.dumps(doc))
    assert run(["verify", str(path)]) == 0
    out = capsys.readouterr().out
    assert "FAIL  4 is prime" in out and "INVALID" in out
    # above the Miller-Rabin proof bound the check says what it proves
    p = next(n for n in range(MR_PROOF_BOUND, MR_PROOF_BOUND + 1000)
             if is_probable_prime(n))
    doc["relators"] = [{"coeffs": [0, p * p]}]
    doc["failure_reason"]["prime"] = p
    path.write_text(json.dumps(doc))
    assert run(["verify", str(path), "--json"]) == 0
    names = [c["name"] for c in json.loads(capsys.readouterr().out)["checks"]]
    assert f"{p} is a probable prime" in names


def test_verify_catches_a_forged_basis(tmp_path, capsys):
    # x is not in <2x^3 + x, 2x^3 + x^2>; emptied cofactor lists must not
    # let the claim through by pairing nothing with nothing
    assert run(["basis", "--relator", "2x^3 + x", "--relator", "2x^3 + x^2",
                "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    doc["basis"]["elements"] = [{"coeffs": [0, 1], "text": "x"}]
    doc["basis"]["element_cofactors"] = []
    doc["basis"]["relator_quotients"] = []
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(doc))
    assert run(["verify", str(path), "--json"]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["all_ok"] is False
    # the lone element x has the shape of a strong basis; only the
    # cofactors give the forgery away
    assert [c["name"] for c in result["checks"] if not c["ok"]] == [
        "basis elements lie in the relator ideal", "relators lie in the basis ideal"]
    # inner lists emptied instead: the cofactor counts no longer match
    doc["basis"]["element_cofactors"] = [[]]
    doc["basis"]["relator_quotients"] = [[], []]
    path.write_text(json.dumps(doc))
    assert run(["verify", str(path)]) == 0
    out = capsys.readouterr().out
    assert "FAIL" in out and "INVALID" in out
    # an element with a constant term is a failed check, not an input error
    doc["basis"]["elements"] = [{"coeffs": [1, 3], "text": "3x + 1"}]
    path.write_text(json.dumps(doc))
    assert run(["verify", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["all_ok"] is False


def test_verify_rejects_a_document_without_certificates(tmp_path, capsys):
    # a quotient's structure and a found separation carry no certificate,
    # so neither gains the text check
    for argv in (["quotient", "--relator", "x^2 - x", "--modulus", "2"],
                 ["separate", "--relator", "x^2 - x", "--target", "x"]):
        assert run(argv + ["--json"]) == 0
        path = tmp_path / "document.json"
        path.write_text(capsys.readouterr().out)
        assert run(["verify", str(path), "--json"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["checked"] == 0 and result["all_ok"] is False
        assert run(["verify", str(path)]) == 0
        assert "all valid" not in capsys.readouterr().out


def test_parser_rejects_missing_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


GOLDEN = Path(__file__).with_name("cli_golden.txt")


def _golden_blocks():
    """(command line, expected stdout) pairs from ``cli_golden.txt``.

    Each block opens with ``$ finsep <args>``; ``<args> | finsep verify ...``
    feeds the first command's stdout to ``verify``.
    """
    blocks = []
    for line in GOLDEN.read_text(encoding="utf-8").splitlines(keepends=True):
        if line.startswith("$ finsep "):
            blocks.append([line[len("$ finsep "):].rstrip("\n"), ""])
        else:
            blocks[-1][1] += line
    return blocks


def test_every_subcommand_prints_its_golden_document(monkeypatch, capsys):
    blocks = _golden_blocks()
    commands = set()
    for line, expected in blocks:
        stdin = ""
        for part in line.split(" | finsep "):
            argv = shlex.split(part)
            commands.add(argv[0])
            monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
            assert run(argv) == 0, line
            stdin = capsys.readouterr().out
        assert stdin == expected, line
    assert commands == {"decide", "invariants", "basis", "member", "quotient",
                        "separate", "verify"}


def test_the_document_writer_re_encodes_every_golden_document():
    # each --json block is json.dumps(..., indent=2), and so is its rewrite
    documents = [text for line, text in _golden_blocks()
                 if "--json" in line.split(" | finsep ")[-1]]
    assert len(documents) >= 9
    for text in documents:
        value = json.loads(text)
        assert json.dumps(value, indent=2) + "\n" == text
        assert cli._json_text(value) + "\n" == text
