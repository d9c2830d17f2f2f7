"""Child process of the strtool benchmark: one fresh interpreter per call.

Modes (run.py starts each one and waits for it):

  setup   --workload W --seed S    import strtool and build the workload's inputs, then exit
  cli     --trace T --out F -- ARGV   run strtool.cli.main(ARGV) in this process
  oracle  --seed S --iteration K --trace T [--smoke] --out F
                                   run one closure-oracle batch

With --trace 1 every public call listed in TRACED is wrapped from outside
the package (nothing under src/ changes) and recorded as a span: name,
start, end, parent span, run id.  Spans and counters stay in memory and are
written to --out when the call returns.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import random
import resource
import sys
import tempfile
import time
from collections import Counter

import strtool.cli
from strtool import independence, languages, logogram, sat, strings
from strtool.languages import FiniteLanguage, sigma_upto
from strtool.logogram import DecisionProblem
from strtool.strings import BINARY, TERNARY, PartialString

# Public calls recorded as spans, by layer.  The span name is "<layer>.<function>".
TRACED = {
    "sat": (sat, ("enumerate_echelon", "consistent_selection_count")),
    "logogram": (logogram, (
        "log_rel", "log_rel_naive", "problem_fingerprint", "load_logogram_cache",
        "save_logogram_cache", "verify_logogram_expansion", "logexp_closure_check",
    )),
    "independence": (independence, (
        "classify_all", "internal_independence", "strong_independence", "complete_independence",
        "irreducible", "sat_shape_report", "region_relations", "wizard_cover_report",
    )),
    "languages": (languages, ("check_expansion_laws", "expand_in")),
    "strings": (strings, ("reduce_strings",)),
}
# Calls whose growth of the process's peak RSS is recorded.
RSS_SPANS = ("logogram.ProblemIndex", "logogram.log_rel")


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _count_result(counts: Counter, name: str, result) -> None:
    if name == "sat.enumerate_echelon":
        counts["sat.enumerate_echelon.words"] += len(result.base)
    elif name == "logogram.log_rel":
        counts["logogram.log_rel.full_count"] += result.full_count
        counts["logogram.log_rel.reduced_count"] += len(result.reduced)
    elif name == "independence.complete_independence":
        counts["independence.complete_independence.subsets_checked"] += result.subsets_checked


class Tracer:
    """In-memory span recorder.  Spans nest because the traced process is single-threaded."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def wrap(self, name: str, fn):
        watch_rss = name in RSS_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": self.stack[-1] if self.stack else None, "run": self.run_id}
            self.stack.append(len(self.spans))
            self.spans.append(span)
            rss0 = _maxrss_kb() if watch_rss else 0
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self.stack.pop()
            if watch_rss:
                span["rss_growth_kb"] = _maxrss_kb() - rss0
            _count_result(self.counts, name, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every traced function in every strtool module that imported it."""
        modules = [m for n, m in sys.modules.items() if n == "strtool" or n.startswith("strtool.")]
        for layer, (home, names) in TRACED.items():
            for fname in names:
                orig = getattr(home, fname)
                wrapped = self.wrap(f"{layer}.{fname}", orig)
                for mod in modules:
                    if getattr(mod, fname, None) is orig:
                        setattr(mod, fname, wrapped)
        index_cls = logogram.ProblemIndex
        index_cls.__init__ = self.wrap("logogram.ProblemIndex", index_cls.__init__)

    def dump(self) -> dict:
        return {"run_id": self.run_id, "spans": self.spans, "counts": dict(self.counts)}


# --- closure-oracle inputs ---

def _random_words(rng: random.Random, alphabet, max_len: int, count: int) -> list[str]:
    possible = sum(len(alphabet.symbols) ** k for k in range(1, max_len + 1))
    words: set[str] = set()
    while len(words) < min(count, possible):
        n = rng.randint(1, max_len)
        words.add("".join(rng.choice(alphabet.symbols) for _ in range(n)))
    return sorted(words)


def _random_string_set(rng: random.Random, alphabet, cap: int) -> frozenset[PartialString]:
    out = set()
    for _ in range(rng.randint(0, 5)):
        entries = [(p, rng.choice(alphabet.symbols)) for p in range(1, cap + 1) if rng.random() < 0.4]
        out.add(PartialString.of(alphabet, entries))
    return frozenset(out)


# Batch composition, fixed so that every batch has the same mix of sizes.
FULL_BATCH = {"rounds": 12, "lengths": range(2, 8), "max_words": 48, "string_sets": 8, "law_samples": 60}
SMOKE_BATCH = {"rounds": 1, "lengths": range(2, 5), "max_words": 12, "string_sets": 2, "law_samples": 4}


def closure_batch(seed: int, iteration: int, smoke: bool) -> list[tuple]:
    """The seeded inputs of one closure-oracle batch: (kind, payload) items."""
    shape = SMOKE_BATCH if smoke else FULL_BATCH
    rng = random.Random(f"closure-oracle:{seed}:{iteration}")
    items: list[tuple] = [("laws", (shape["law_samples"], rng.randrange(2 ** 31)))]
    rounds = shape["rounds"]
    for r in range(rounds):
        count = shape["max_words"] * (r + 1) // rounds  # every batch has the same sizes
        for alphabet in (BINARY, TERNARY):
            for max_len in shape["lengths"]:
                words = _random_words(rng, alphabet, max_len, count)
                target = [w for w in words if rng.random() < 0.5]
                items.append(("problem", DecisionProblem(
                    base=FiniteLanguage.of(alphabet, words),
                    target=FiniteLanguage.of(alphabet, target),
                )))
        for _ in range(shape["string_sets"]):
            items.append(("logexp", _random_string_set(rng, BINARY, 2)))
    return items


def check_item(kind: str, payload, universe: FiniteLanguage) -> str | None:
    """Run one closure-oracle item; return None when every oracle agrees, else the reason."""
    if kind == "laws":
        samples, seed = payload
        report = languages.check_expansion_laws(samples, seed)
        return None if report.holds else f"expansion laws: {report.failures[:1]}"
    if kind == "logexp":
        report = logogram.logexp_closure_check(payload, universe)
        return None if report.holds else f"LogExp closure laws fail on {sorted(g.render() for g in payload)}"
    naive_full, naive_reduced = logogram.log_rel_naive(payload)
    engine = logogram.log_rel(payload, restrict="never", keep_full=True)
    if engine.full != naive_full or engine.reduced != naive_reduced:
        return "engine logogram differs from log_rel_naive"
    if strings.reduce_strings(engine.full) != engine.reduced:
        return "reduce_strings(full) differs from the reduced set"
    if not logogram.verify_logogram_expansion(payload):
        return "expanding the logogram does not recover the target"
    return None


# --- modes ---

def run_setup(args) -> int:
    if args.workload == "closure-oracle":
        closure_batch(args.seed, 0, args.smoke)
    elif args.workload == "logogram-cache":
        os.rmdir(tempfile.mkdtemp(prefix="cache-", dir="."))
    return 0


def run_cli(args) -> int:
    tracer = Tracer(args.run_id) if args.trace else None
    main = tracer.wrap("cli.main", strtool.cli.main) if tracer else strtool.cli.main
    if tracer:
        tracer.install()
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = main(args.argv)
    wall = time.perf_counter() - start
    record = {"exit": code, "stdout": out.getvalue(), "wall_s": wall}
    if tracer:
        record["trace"] = tracer.dump()
    _write(args.out, record)
    return 0


def run_oracle(args) -> int:
    tracer = Tracer(args.run_id) if args.trace else None
    items = closure_batch(args.seed, args.iteration, args.smoke)
    universe = sigma_upto(BINARY, 2)
    if tracer:
        tracer.install()
    failures = []
    start = time.perf_counter()
    for kind, payload in items:
        try:
            reason = check_item(kind, payload, universe)
        except Exception as exc:  # a raising item is a failed operation, not a benchmark crash
            reason = f"{type(exc).__name__}: {exc}"
        if reason is not None:
            failures.append(f"{kind}: {reason}")
    wall = time.perf_counter() - start
    record = {"attempted": len(items), "failures": failures, "wall_s": wall}
    if tracer:
        record["trace"] = tracer.dump()
    _write(args.out, record)
    return 0


def _write(path: str, record: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="mode", required=True)
    p_setup = sub.add_parser("setup")
    p_setup.add_argument("--workload", required=True)
    p_setup.add_argument("--seed", type=int, required=True)
    p_setup.add_argument("--smoke", action="store_true")
    p_cli = sub.add_parser("cli")
    p_oracle = sub.add_parser("oracle")
    p_oracle.add_argument("--seed", type=int, required=True)
    p_oracle.add_argument("--iteration", type=int, required=True)
    p_oracle.add_argument("--smoke", action="store_true")
    for p in (p_cli, p_oracle):
        p.add_argument("--trace", type=int, choices=(0, 1), default=0)
        p.add_argument("--run-id", default="run")
        p.add_argument("--out", required=True)
    p_cli.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    if args.mode == "cli" and args.argv[:1] == ["--"]:
        args.argv = args.argv[1:]
    return {"setup": run_setup, "cli": run_cli, "oracle": run_oracle}[args.mode](args)


if __name__ == "__main__":
    raise SystemExit(main())
