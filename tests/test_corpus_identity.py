"""Every byte that decide and invariants print on a seeded corpus, pinned.

A seeded corpus of presentations runs through ``cli.run`` in process:
``decide`` and ``invariants``, in text and ``--json``, and every JSON
document through ``verify -`` and ``verify - --json``.  One SHA-256 covers
each invocation's argv, exit code, stdout and stderr, in order, so a change
to any answer, certificate, message or exit code of these commands moves
the digest.
"""

import contextlib
import hashlib
import io
import json
import random
import sys

from finsep import cli
from finsep.poly import IntPoly, format_poly
from test_cli import RHO_STALL_PAIR, SPARSE_PAIR

CONTENTS = (1, 2, 3, 4, 6, 8, 9, 12, 30, 36)

FIXED = [
    ["x^3 - x"],
    ["2x^2 + x"],
    ["6x^2 - 6x"],
    list(SPARSE_PAIR),
    list(RHO_STALL_PAIR),
    ["9699690x^2 - 9699690x", "690690x^3 - 690690x^2"],
    ["2x^2", "x^3"],
    [],
]

# 3264 invocations over the 408 presentations of ``_corpus``
DIGEST = "0d6e95e1f09f6424983b3b7a754f2196252958478e8b01b1cf6ad536680dc657"


def _corpus():
    """400 presentations of 0-3 relators, each of degree <= 6 with
    coefficients in [-9, 9] times a content from CONTENTS, then FIXED."""
    rng = random.Random(48)
    corpus = []
    for _ in range(400):
        relators = []
        for _ in range(rng.randint(0, 3)):
            coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(1, 6))]
            relator = IntPoly([0, *coeffs]).scale(rng.choice(CONTENTS))
            if not relator.is_zero():
                relators.append(format_poly(relator))
        corpus.append(relators)
    return corpus + FIXED


def _run(argv, stdin=""):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def test_decide_and_invariants_print_the_pinned_bytes():
    digest = hashlib.sha256()

    def record(argv, stdin=""):
        code, out, err = _run(argv, stdin)
        digest.update(json.dumps([argv, code, out, err]).encode() + b"\n")
        return code, out

    for relators in _corpus():
        flags = [arg for r in relators for arg in ("--relator", r)]
        for command in ("decide", "invariants"):
            record([command, *flags])
            code, doc = record([command, *flags, "--json"])
            if code == 0:
                record(["verify", "-"], doc)
                record(["verify", "-", "--json"], doc)
    assert digest.hexdigest() == DIGEST
