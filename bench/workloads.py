"""The four workloads: seeded corpora, the timed operation, its check.

A corpus is plain data (ints, lists of ints, strings) made from the seed
alone; finsep only ever sees it through ``run``.  Strata that drive the
cost of an operation (family, degree, exponent, modulus bound) are laid
out on a fixed grid, and the seed draws the coefficients and a jitter
inside each grid cell, so every seed gives distinct presentations of the
same overall difficulty.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import sys
from dataclasses import dataclass

import oracle as O

# A decide-cli input that fails on every run, as ascending coefficients:
# its witness cofactors exceed Python's 4300-digit int-to-str limit, which
# the CLI hits while formatting them, so `finsep decide` exits 2.  It is
# kept so that mending the fault shows as fewer failed operations.
DIGIT_LIMIT_INPUTS = (
    ([0, 1650, -2862, 3114, -1596, 3768, 2484, 5580, 4338, 3090, -5166],
     [0, 0, -282, 3252, 9120, 2646, -966, -3390, -294, 996, -8688, -1728, 2886]),
)

# A fixed degree-9 separable pair (f, g), run as 6f and 6(x^2 + x)g in
# every decide-cli round.  Its witness cofactors (10,108 bits) are the
# largest certificate of the workload on every seed, well below the digit
# limit, so cert_bits_max follows this input alone.
REFERENCE_INPUTS = (
    ([0, -780, 737, -598, 847, 546, 979, -628, 604, 557],
     [0, 625, -643, -506, -824, 938, 835, -911, 622, 741]),
)


@dataclass
class Op:
    """One timed operation: its inputs and whatever the check needs."""

    kind: str
    data: dict
    known_fault: bool = False


@dataclass
class Workload:
    name: str
    make: object          # (seed) -> list[Op]
    run: object           # (fs, op, state) -> answer; the timed part
    check: object         # (op, answer) -> certificate bits or None
    round_s: float        # nominal seconds of operation time per round
    prepare: object = None  # (fs, ops) -> state, counted in set-up
    cold: bool = True     # clear finsep's basis cache before each round
    output_bytes: object = None  # (answer) -> bytes of CLI output


# --- shared helpers ----------------------------------------------------------


def rand_poly(rng: random.Random, degree: int, bound: int, *, constant=False,
              primitive=False) -> list:
    """Random integer polynomial of exact degree, coefficients in [-bound, bound]."""
    while True:
        c = [rng.randint(-bound, bound) if constant else 0]
        c += [rng.randint(-bound, bound) for _ in range(degree - 1)]
        c.append(rng.choice((-1, 1)) * rng.randint(1, bound))
        if degree == 0:
            c = c[-1:]
        if not primitive or O.content([c]) == 1:
            return c


def to_text(p) -> str:
    """Descending-degree text such as '3x^2 - 1x' for the CLI."""
    terms = []
    for d in range(len(p) - 1, -1, -1):
        c = p[d]
        if c:
            mono = "" if d == 0 else ("x" if d == 1 else f"x^{d}")
            terms.append(("- " if c < 0 else "+ ") + f"{abs(c)}{mono}")
    text = " ".join(terms)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def jittered(rng: random.Random, i: int, n: int, lo: int, hi: int) -> int:
    """The i-th of n strata of [lo, hi], at a seeded point inside it."""
    return lo + int((i + rng.random()) * (hi - lo + 1) / n)


def distinct(rng, draw, seen: set):
    """Draw until the result's key is new; returns the drawn value."""
    while True:
        key, value = draw(rng)
        if key not in seen:
            seen.add(key)
            return value


# --- decide-cli --------------------------------------------------------------

# Separable pairs all have degree 6, so that the certificate-size median is
# taken within one population; the negative families sweep degrees 4..8.
DECIDE_DEGREES = (4, 5, 6, 7, 8)
SEPARABLE_DEGREE = 6
DECIDE_OPS = 105  # 7 cycles of (separable, non-squarefree, non-integral) x 5
X2_X = [0, 1, 1]          # x^2 + x
X_2X1 = [0, 1, 2]         # x(2x + 1)


def magnitude_poly(rng: random.Random, degree: int) -> list:
    """Primitive, zero constant term, coefficients of magnitude 500..1000."""
    while True:
        c = [0] + [rng.choice((-1, 1)) * rng.randint(500, 1000) for _ in range(degree)]
        if O.content([c]) == 1:
            return c


def decide_op(relators, known_fault=False) -> Op:
    return Op("decide", {"relators": relators,
                         "texts": [to_text(r) for r in relators]},
              known_fault=known_fault)


def make_decide(seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for i in range(DECIDE_OPS):
        family, d = i % 3, DECIDE_DEGREES[(i // 3) % len(DECIDE_DEGREES)]
        if family == 0:
            f = magnitude_poly(rng, SEPARABLE_DEGREE)
            g = magnitude_poly(rng, SEPARABLE_DEGREE)
            relators = [O.scale(f, 6), O.scale(O.mul(X2_X, g), 6)]
        elif family == 1:
            f = magnitude_poly(rng, d)
            g = magnitude_poly(rng, d)
            relators = [O.scale(f, 12), O.scale(O.mul(X2_X, g), 12)]
        else:
            h1 = rand_poly(rng, d - 2, 1000, constant=True)
            h2 = rand_poly(rng, d - 2, 1000, constant=True)
            relators = [O.mul(X_2X1, h1), O.mul(X_2X1, h2)]
        ops.append(decide_op(relators))
    for relators in REFERENCE_INPUTS:
        ops.insert(len(ops) // 3, decide_op([O.scale(relators[0], 6),
                                             O.scale(O.mul(X2_X, relators[1]), 6)]))
    for relators in DIGIT_LIMIT_INPUTS:
        ops.insert(2 * len(ops) // 3, decide_op(list(relators), known_fault=True))
    return ops


def _cli(fs, argv, stdin_text=None) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = fs.cli.run(argv)
    finally:
        sys.stdin = saved
    return rc, out.getvalue()


def run_decide(fs, op, state):
    argv = ["decide"]
    for t in op.data["texts"]:
        argv += ["--relator", t]
    rc, doc = _cli(fs, argv + ["--json"])
    if rc != 0:
        return rc, doc, None, ""
    vrc, report = _cli(fs, ["verify", "-", "--json"], stdin_text=doc)
    return rc, doc, vrc, report


def check_decide(op, answer):
    rc, doc, vrc, report = answer
    return O.check_decide_doc(op.data["relators"], rc, doc, vrc, report)


# --- torsion-power -----------------------------------------------------------

# (family, contents cycled over the strata, exponent range); decide and
# ring_invariants alternate over the cycle, so each family meets both.
TORSION_CLASSES = (
    ("scaled", (1,), (40, 80)),
    ("scaled", (2, 4, 3, 9, 6, 12, 5, 8, 10, 18, 7), (10, 20)),
    ("pair", (2, 3, 5, 7, 11, 13), (20, 44)),
)
TORSION_OPS = 120


def make_torsion(seed: int) -> list[Op]:
    rng = random.Random(seed)
    per_cell = TORSION_OPS // (2 * len(TORSION_CLASSES))
    seen: set = set()
    ops = []
    for i in range(TORSION_OPS):
        family, choices, (lo, hi) = TORSION_CLASSES[(i // 2) % len(TORSION_CLASSES)]
        stratum = i // (2 * len(TORSION_CLASSES))
        c = choices[(stratum + i) % len(choices)]

        def draw(rng):
            e = jittered(rng, stratum, per_cell, lo, hi)
            m = rng.randint(2, e - 1) if family == "pair" else None
            return (family, e, c, m), (e, m)

        e, m = distinct(rng, draw, seen)
        ops.append(Op("decide" if i % 2 == 0 else "invariants",
                      {"family": family, "e": e, "c": c, "m": m}))
    return ops


def _torsion_relators(d) -> list:
    if d["family"] == "scaled":
        return [O.scale(O.x_power_minus_x(d["e"]), d["c"])]
    return [O.x_power_minus_x(d["e"]), O.scale(O.x_power_minus_x(d["m"]), d["c"])]


def run_torsion(fs, op, state):
    p = fs.ideal.Presentation([fs.poly.IntPoly(r) for r in _torsion_relators(op.data)])
    if op.kind == "decide":
        return fs.separability.decide(p)
    return fs.invariants.ring_invariants(p)


def check_torsion(op, answer):
    d = op.data
    want = O.expected_torsion(d["family"], d["e"], d["c"], d["m"])
    if op.kind == "decide":
        return O.check_torsion_decide(want, answer)
    return O.check_torsion_invariants(want, answer)


# --- separate-sweep ----------------------------------------------------------

SEPARATE_DEGREES = (3, 4, 5, 6)
SEPARATE_BOUNDS = (64, 100)
SEPARATE_CONTENTS = (1, 2, 3, 6)
OUTSIDE_CONTENTS = (2, 3, 6)
OUTSIDE_PRIMES = (5, 7, 11)
SEPARATE_OPS = 100
SEPARATE_PATTERN = (True, False, False, False)  # inside the subring?


def make_separate(seed: int) -> list[Op]:
    rng = random.Random(seed)
    seen: set = set()
    ops = []
    n_inside = SEPARATE_OPS * sum(SEPARATE_PATTERN) // len(SEPARATE_PATTERN)
    inside_i = outside_i = 0
    for i in range(SEPARATE_OPS):
        inside = SEPARATE_PATTERN[i % len(SEPARATE_PATTERN)]
        d = SEPARATE_DEGREES[i % len(SEPARATE_DEGREES)]
        if inside:
            c = SEPARATE_CONTENTS[inside_i % len(SEPARATE_CONTENTS)]
        else:
            c = OUTSIDE_CONTENTS[(outside_i // 3) % len(OUTSIDE_CONTENTS)]

        def draw(rng):
            f = [0] + [rng.randint(-5, 5) for _ in range(d - 1)] + [1]
            return (tuple(f), c), f

        relator = O.scale(distinct(rng, draw, seen), c)
        if inside:
            bound = jittered(rng, inside_i, n_inside, *SEPARATE_BOUNDS)
            inside_i += 1
            gens = [rand_poly(rng, rng.randint(1, d - 1), 3) for _ in range(2)]
            outer = {(2, 0): rng.randint(1, 3), (1, 0): rng.randint(-3, 3),
                     (0, 1): rng.randint(1, 3), (1, 1): rng.randint(-2, 2)}
            target, p = O.compose_in(gens, outer), None
        else:
            # generator p*(x + P*h), P the product of the primes below p:
            # below p it generates x itself, so the search must reach p
            bound = rng.randint(*SEPARATE_BOUNDS)
            p = OUTSIDE_PRIMES[outside_i % len(OUTSIDE_PRIMES)]
            outside_i += 1
            below = math.prod(q for q in range(2, p) if O.is_prime(q))
            h = rand_poly(rng, rng.randint(1, d - 1), 3)
            gens = [O.scale(O.add([0, 1], O.scale(h, below)), p)]
            target = [0, 1]
        ops.append(Op("inside" if inside else "outside",
                      {"relator": relator, "target": target, "gens": gens,
                       "bound": bound, "p": p}))
    return ops


def run_separate(fs, op, state):
    d = op.data
    IntPoly = fs.poly.IntPoly
    return fs.quotients.separate(
        fs.ideal.Presentation([IntPoly(d["relator"])]), IntPoly(d["target"]),
        [IntPoly(g) for g in d["gens"]], d["bound"])


def check_separate(op, answer):
    d = op.data
    return O.check_separation(d["relator"], d["target"], d["gens"], d["bound"],
                              d["p"], answer)


# --- member-queries ----------------------------------------------------------

POOL_SIZE = 100
POOL_DEGREES = (4, 3)  # of the cofactors of x^2 - x in each relator
# A fixed presentation and member query run once per round.  Its
# certificate (959 bits) is the largest of the workload on every seed, so
# cert_bits_max follows this query alone.
REFERENCE_POOL = ([0, -506, 127, 160, -479, 46, -81, 733],
                  [0, -284, -302, 681, 491, 270, -856])
REFERENCE_QUERY = [0, 2184, -7988, -317, 11075, 630, 446, -11894, 5864]
MEMBER_OPS = 3000
# ops alternate membership and normal form; 3 of every 5 queries are members
MEMBER_PATTERN = (True, False, True, False, True)


def make_member(seed: int) -> list[Op]:
    rng = random.Random(seed)
    pool = []
    for _ in range(POOL_SIZE):
        pool.append([O.mul([0, -1, 1], rand_poly(rng, d, 1000, primitive=True))
                     for d in POOL_DEGREES])

    def member(relators):
        total = []
        for r in relators:
            h = rand_poly(rng, rng.randint(0, 1), 9, constant=True)
            total = O.add(total, O.mul(h, r))
        return total or member(relators)

    ops = []
    for i in range(MEMBER_OPS):
        relators = pool[i % POOL_SIZE]
        is_member = MEMBER_PATTERN[(i // 2) % len(MEMBER_PATTERN)]
        g = member(relators)
        if not is_member:
            g = O.add(g, O.monomial(rng.choice((-1, 1)) * rng.randint(1, 100),
                                    rng.randint(1, 8)))
        data = {"pool": i % POOL_SIZE, "relators": relators, "g": g,
                "member": is_member}
        if i % 2:
            data["shifted"] = O.add(g, member(relators))
        ops.append(Op("membership" if i % 2 == 0 else "normal_form", data))
    reference = {"pool": POOL_SIZE, "relators": list(REFERENCE_POOL),
                 "g": REFERENCE_QUERY, "member": True}
    ops.insert(len(ops) // 2, Op("membership", reference))
    return ops


def prepare_member(fs, ops):
    """Complete every pool basis, so queries read an already-built basis."""
    presentations = {}
    for op in ops:
        k = op.data["pool"]
        if k not in presentations:
            p = fs.ideal.Presentation([fs.poly.IntPoly(r) for r in op.data["relators"]])
            presentations[k] = p
            fs.ideal.canonical_basis(p)
    return presentations


def run_member(fs, op, state):
    d = op.data
    p = state[d["pool"]]
    g = fs.poly.IntPoly(d["g"])
    if op.kind == "membership":
        return fs.ideal.membership(g, p)
    basis = fs.ideal.canonical_basis(p)
    shifted = fs.poly.IntPoly(d["shifted"])
    return fs.ideal.normal_form(g, basis), fs.ideal.normal_form(shifted, basis)


def check_member(op, answer):
    d = op.data
    if op.kind == "membership":
        return O.check_membership(d["relators"], d["g"], d["member"], answer)
    O.check_normal_forms(d["g"], d["member"], *answer)
    return None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("decide-cli", make_decide, run_decide, check_decide, 3.1,
                 output_bytes=lambda a: len(a[1])),
        Workload("torsion-power", make_torsion, run_torsion, check_torsion, 1.2),
        Workload("separate-sweep", make_separate, run_separate, check_separate, 1.5),
        Workload("member-queries", make_member, run_member, check_member, 0.25,
                 prepare=prepare_member, cold=False),
    )
}
