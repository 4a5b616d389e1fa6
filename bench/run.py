"""Fixed-corpus benchmark for finsep.

    python3 bench/run.py --workload decide-cli --seed 1 --seconds 24 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 24

One run is one process with one thread in a closed loop: each operation
starts when the previous one returns.  The operations come from the
workload's corpus, made from ``--seed`` alone.  The run repeats whole
rounds of that corpus, clearing finsep's basis cache before each round
where the workload is meant to start cold.  ``--seconds`` fixes the number
of rounds: seconds divided by the round's nominal time (``round_s`` in
workloads.py, measured on the reference machine), rounded up, and at
least three, so every run with the same ``--seconds`` does the same work.
An operation's time is its least over the rounds.  Every answer is
checked against a computation made apart from finsep (see oracle.py),
outside the timed interval.

With ``--trace 0`` the last line of stdout is the JSON result with the
end-to-end metrics.  With ``--trace 1`` the run times one round untraced,
then the same round traced (tracing.py), and reports the per-layer
metrics; the spans go to bench/out/.  finsep is imported from ``src/``
next to this directory and nowhere else.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import statistics
import subprocess
import sys
import types
from pathlib import Path
from time import perf_counter

import tracing
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 7
MIN_ROUNDS = 3
MODULES = ("cli", "ideal", "intarith", "invariants", "poly", "quotients",
           "separability")
END_TO_END = (
    ("ops_per_s", "1/s"), ("latency_p50_ms", "ms"), ("latency_p90_ms", "ms"),
    ("setup_s", "s"), ("peak_rss_mb", "MB"), ("cert_bits_p50", "bits"),
    ("cert_bits_max", "bits"),
)


def load_finsep():
    """Import finsep afresh from this checkout's src/; returns its modules."""
    for name in [n for n in sys.modules if n == "finsep" or n.startswith("finsep.")]:
        del sys.modules[name]
    if not (SRC / "finsep" / "__init__.py").is_file():
        raise SystemExit(f"error: no finsep package under {SRC}")
    sys.path.insert(0, str(SRC))
    try:
        mods = {m: importlib.import_module(f"finsep.{m}") for m in MODULES}
    finally:
        sys.path.remove(str(SRC))
    origin = Path(sys.modules["finsep"].__file__).resolve().parent
    if origin != SRC / "finsep":
        raise SystemExit(f"error: finsep was imported from {origin}")
    return types.SimpleNamespace(**mods, basis_cache=mods["ideal"].canonical_basis)


def set_up(wl, seed: int):
    """Import, corpus, and (member-queries) the pool's bases; timed."""
    t0 = perf_counter()
    fs = load_finsep()
    ops = wl.make(seed)
    state = wl.prepare(fs, ops) if wl.prepare else None
    return perf_counter() - t0, fs, ops, state


class Round:
    """Latencies, certificate sizes and failures of one pass over the corpus."""

    def __init__(self):
        self.latencies: list[float] = []
        self.cert_bits: list[int] = []
        self.failed = 0
        self.unexpected: list[str] = []

    @property
    def timed(self) -> float:
        return sum(self.latencies)


def run_round(wl, fs, ops, state, checked: dict, tracer=None) -> Round:
    """Run every operation once, checking each answer after its timing.

    ``checked`` maps an operation to the hash and certificate size of an
    answer that passed its check in an earlier round; an equal answer
    (same hash) is not checked again.
    """
    out = Round()
    if wl.cold:
        fs.basis_cache.cache_clear()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        t0 = perf_counter()
        try:
            answer = wl.run(fs, op, state)
        except Exception as exc:  # a raise is a failed operation, not a crash
            answer = exc
        out.latencies.append(perf_counter() - t0)
        try:
            if isinstance(answer, Exception):
                raise RuntimeError(f"finsep raised {answer!r}")
            key = hash(answer)
            if checked.get(i, (None,))[0] != key:
                checked[i] = (key, wl.check(op, answer))
            bits = checked[i][1]
        except Exception as exc:  # any disagreement fails this operation
            out.failed += 1
            if not op.known_fault:
                out.unexpected.append(f"op {i} ({op.kind}): {exc}")
        else:
            # a mended known fault must not read as certificate growth
            if bits is not None and not op.known_fault:
                out.cert_bits.append(bits)
        if tracer is not None and wl.output_bytes and not isinstance(answer, Exception):
            tracer.add("cli.json_kb", wl.output_bytes(answer) / 1000)
    return out


def end_to_end(rounds: list[Round], setups: list[float]) -> dict:
    """Each operation's time is its least over the rounds, which come
    seconds apart: the time least disturbed by other load on the machine."""
    per_op = [min(ts) for ts in zip(*(r.latencies for r in rounds))]
    bits = rounds[0].cert_bits
    values = {
        "ops_per_s": len(per_op) / sum(per_op),
        "latency_p50_ms": 1000 * statistics.median(per_op),
        "latency_p90_ms": 1000 * statistics.quantiles(
            per_op, n=10, method="inclusive")[8],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "cert_bits_p50": statistics.median(bits),
        "cert_bits_max": max(bits),
    }
    return {n: {"value": values[n], "unit": u} for n, u in END_TO_END}


def measure(wl, seed: int, seconds: float, trace: bool):
    """Returns (rounds run, metrics)."""
    setups = []
    for _ in range(SETUP_REPEATS):
        dt, fs, ops, state = set_up(wl, seed)
        setups.append(dt)
    tracing.check_untraced(fs)
    gc.collect()
    if not trace:
        n = max(MIN_ROUNDS, math.ceil(seconds / wl.round_s))
        checked: dict = {}
        rounds = [run_round(wl, fs, ops, state, checked) for _ in range(n)]
        return rounds, end_to_end(rounds, setups)
    # one round untraced, then the same round traced from the same start
    plain = run_round(wl, fs, ops, state, {})
    tracer = tracing.Tracer(fs)
    tracer.install()
    try:
        if wl.prepare:
            fs.basis_cache.cache_clear()
            state = wl.prepare(fs, ops)
        traced = run_round(wl, fs, ops, state, {}, tracer)
    finally:
        tracer.uninstall()
    tracing.check_untraced(fs)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{wl.name}-seed{seed}.json")
    return [plain, traced], tracer.metrics(traced.timed - plain.timed)


def run_all(args) -> int:
    """Every workload in its own process; prints one table and one JSON."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    for name, res in results.items():
        print(f"{name}: attempted {res['attempted']}, failed {res['failed']}, "
              f"correct {res['correct']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:44s} {m['value']:>14.4f} {m['unit']}")
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    wl = WORKLOADS[args.workload]
    rounds, metrics = measure(wl, args.seed, args.seconds, bool(args.trace))
    unexpected = [line for r in rounds for line in r.unexpected]
    for line in unexpected[:10]:
        print(f"unexpected failure: {line}", file=sys.stderr)
    result = {
        "correct": not unexpected,
        "attempted": sum(len(r.latencies) for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
