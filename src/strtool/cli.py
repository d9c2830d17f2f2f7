"""Command-line front end: logogram computation, verification suites, classification.

Commands:
  strtool logogram  --n N --m M [--reduced] | --base-file E --target-file F
  strtool verify    --suite {closure,logogram,sat,wizards,regions,events,all}
  strtool classify  --n N --m M --string S | --formula "1,3,-4;2,-3" --n 4

Exit codes: 0 pass, 1 verification failure, 2 usage or budget error.

Reports are byte-stable for a fixed config, seed and tool version: JSON
output carries no timings (wall-clock lines go to stderr) and every
collection is emitted in sorted order.  `to_json` alone fixes the JSON shape:
a report record's field names are its keys.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import sys
import time
from collections.abc import Iterator
from pathlib import Path

from . import __version__
from .languages import (
    BINARY,
    BudgetExceeded,
    FiniteLanguage,
    TERNARY,
    check_expansion_laws,
    load_language,
    random_language,
    random_string_set,
    sigma_exact,
    sigma_upto,
)
from .logogram import (
    DEFAULT_CANDIDATE_BUDGET,
    Analysis,
    CandidateSpace,
    DecisionProblem,
    ProblemIndex,
    auto_positions,
    echelon_fingerprint,
    load_logogram_cache,
    log_rel,
    log_rel_naive,
    logexp_closure_check,
    problem_fingerprint,
    save_logogram_cache,
    verify_logogram_expansion,
)
from .independence import (
    EventFamily,
    NotInReducedLogogram,
    WIZARD,
    atomic_constituents,
    classify,
    classify_all,
    complete_independence,
    completely_independent_events,
    internal_independence,
    irreducible,
    region_relations,
    sat_shape_report,
    strong_independence,
    wizard_cover_report,
)
from .sat import (
    DEFAULT_WORD_BUDGET,
    SAT_ALPHABET,
    EchelonSpec,
    check_word_budget,
    consistent_selection_count,
    effective_size,
    enumerate_echelon,
    is_bewitched,
    occurrence_size,
    parse_formula,
)
from .strings import PartialString

TOOL_NAME = "strtool"
SUITES = ("closure", "logogram", "sat", "wizards", "regions", "events", "all")
ECHELON_SUITES = ("sat", "wizards", "regions", "all")  # the suites that read --n and --m


class DefaultSize(int):
    """`verify`'s default --n and --m: an int, told apart by its type from a given value, which is a plain int."""


def positive_int(text: str) -> int:
    """An argparse type: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {value}")
    return value


def to_json(value: object) -> object:
    """The JSON form of a report value: a record (a NamedTuple) as a dict of its fields by name,
    a string by its rendering, a list or tuple as a list, a dict by its values; anything else as is."""
    if isinstance(value, PartialString):
        return value.render()
    if hasattr(value, "_asdict"):
        value = value._asdict()
    if isinstance(value, dict):
        return {key: to_json(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return list(map(to_json, value))
    return value


class CheckResult:
    def __init__(self, name: str, holds: bool, counts: dict | None = None,
                 counterexample: object = None, details: object = None) -> None:
        self.name = name
        self.holds = holds
        self.counts = {} if counts is None else counts
        self.counterexample = counterexample
        self.details = details
        self.elapsed = 0.0  # seconds since the previous check, set by run_suite

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "holds": self.holds,
            "partial": False,  # schema 1 carries the field; no check is ever partial
            "counts": self.counts,
            "counterexample": to_json(self.counterexample),  # a Counterexample record or a law failure's text
            "details": to_json(self.details),
        }


class VerificationReport:
    def __init__(self, config: dict, checks: list[CheckResult] | None = None, result: dict | None = None) -> None:
        self.config = config
        self.checks = [] if checks is None else checks
        self.result = result  # single-result commands (logogram, classify)

    @property
    def passed(self) -> bool:
        return all(c.holds for c in self.checks)

    def to_json(self) -> dict:
        out = {
            "schema": 1,
            "tool": {"name": TOOL_NAME, "version": __version__},
            "config": self.config,
            "checks": [c.to_json() for c in self.checks],
            "pass": self.passed,
        }
        if self.result is not None:
            out["result"] = self.result
        return out

    def to_text(self) -> str:
        lines = []
        for c in self.checks:
            status = "PASS" if c.holds else "FAIL"
            counts = ", ".join(f"{k}: {v}" for k, v in sorted(c.counts.items()))
            lines.append(f"{status} {c.name}" + (f" ({counts})" if counts else ""))
            if c.counterexample is not None:
                lines.append(f"  counterexample: {json.dumps(to_json(c.counterexample), sort_keys=True)}")
        if self.result is not None:
            for k, v in sorted(self.result.items()):
                if isinstance(v, list):
                    lines.append(f"{k}:")
                    lines.extend(f"  {item}" for item in v)
                else:
                    lines.append(f"{k}: {v}")
        if self.checks:
            lines.append(f"overall: {'pass' if self.passed else 'FAIL'}")
        return "\n".join(lines)


# --- shared fixtures ---

def toy_wizard_problem() -> DecisionProblem:
    """Four binary words of length two; the target misses "00" and splits into singleton regions."""
    labels = {"01": 1, "10": 2, "11": 4}
    return DecisionProblem(base=sigma_exact(BINARY, 2), target=FiniteLanguage.of(BINARY, labels), labels=labels)


def random_problem(rng: random.Random, alphabet, max_len: int, max_words: int = 16) -> DecisionProblem:
    while True:
        E = random_language(rng, alphabet, max_len, max_words)
        if E.words:
            break
    F = FiniteLanguage.of(alphabet, (w for w in sorted(E.words) if rng.random() < 0.5))
    return DecisionProblem(base=E, target=F)


def constituents_by_intersection(family: EventFamily) -> list[FiniteLanguage]:
    """Reference constituent construction: intersect every signed combination explicitly."""
    out = []
    m = len(family.events)
    for k in range(2 ** m):
        current = family.universe
        for j, E in enumerate(family.events):
            current = current.intersection(E) if (k >> j) & 1 else current.difference(E)
        if current.words:
            out.append(current)
    return out


# --- suites ---
# Each suite yields its checks in report order; run_suite times them.

def suite_closure(samples: int, seed: int) -> Iterator[CheckResult]:
    law = check_expansion_laws(samples, seed)
    yield CheckResult(
        name="closure-laws",
        holds=law.holds,
        counts={"samples": law.samples, "seed": law.seed, **law.checks},
        counterexample=law.failures[0] if law.failures else None,
    )

    rng = random.Random(seed + 1)
    universe = sigma_upto(BINARY, 2)
    rounds = max(20, min(100, samples // 10))
    ok = True
    for _ in range(rounds):
        H = random_string_set(rng, BINARY, 2)
        rep = logexp_closure_check(H, universe)
        ok = ok and rep.holds
    known = logexp_closure_check(
        frozenset({PartialString.parse(BINARY, "0")}),
        universe,
        partner=frozenset({PartialString.parse(BINARY, "1")}),
    )
    ok = ok and known.holds
    yield CheckResult(
        name="logexp-closure",
        holds=ok and bool(known.union_strict),
        counts={"string_sets": rounds + 1, "union_strict_found": int(bool(known.union_strict))},
        details={"collective_sample": known.collective_sample},
    )


def _oracle_agrees(problem: DecisionProblem, naive_budget: int) -> bool:
    naive_full, naive_reduced = log_rel_naive(problem, budget=naive_budget)
    plain = log_rel(problem, restrict="never", keep_full=True)
    if plain.full != naive_full or plain.reduced != naive_reduced:
        return False
    auto = log_rel(problem, restrict="auto", keep_full=True)
    return auto.reduced == naive_reduced


def suite_logogram(samples: int, seed: int) -> Iterator[CheckResult]:
    rng = random.Random(seed)
    alphabets = (BINARY, TERNARY)

    mismatches = 0
    problems = 0
    for i in range(samples):
        problem = random_problem(rng, alphabets[i % 2], max_len=rng.randint(2, 5))
        problems += 1
        if not _oracle_agrees(problem, naive_budget=4 ** 9):
            mismatches += 1
    for n, m in ((1, 1), (2, 1), (1, 2)):
        problem = enumerate_echelon(EchelonSpec(n, m))
        problems += 1
        if not _oracle_agrees(problem, naive_budget=4 ** 9):
            mismatches += 1
    yield CheckResult(
        name="logogram-oracle",
        holds=mismatches == 0,
        counts={"problems": problems, "mismatches": mismatches, "seed": seed},
    )

    failures = 0
    for i in range(samples):
        problem = random_problem(rng, alphabets[i % 2], max_len=rng.randint(2, 5))
        if not verify_logogram_expansion(problem):
            failures += 1
    for n, m in ((1, 1), (2, 1), (1, 2), (2, 2)):
        if not verify_logogram_expansion(enumerate_echelon(EchelonSpec(n, m))):
            failures += 1
    yield CheckResult(
        name="expansion-identity",
        holds=failures == 0,
        counts={"problems": samples + 4, "failures": failures, "seed": seed},
    )


def suite_sat(spec: EchelonSpec, analysis: Analysis) -> Iterator[CheckResult]:
    result = analysis.logogram
    oracle = consistent_selection_count(spec.n, spec.m)
    yield CheckResult(
        name="sat-count-oracle",
        holds=len(result.reduced) == oracle,
        counts={"reduced": len(result.reduced), "oracle": oracle},
    )

    shape = sat_shape_report(spec, result)
    yield CheckResult(
        name="sat-shape",
        holds=shape.holds,
        counts={"members": shape.members, "findings": len(shape.findings)},
        details=shape.findings or None,
    )

    verdicts = classify_all(analysis)
    wizard_count = sum(1 for v in verdicts if v.kind == WIZARD)
    yield CheckResult(
        name="sat-no-wizards",
        holds=wizard_count == 0,
        counts={
            "wizards": wizard_count,
            "proper": sum(1 for v in verdicts if v.kind == "ProperWitness"),
            "improper": sum(1 for v in verdicts if v.kind == "ImproperWitness"),
        },
        details={"per_string": verdicts},
    )

    inner = internal_independence(analysis)
    yield CheckResult(
        name="sat-internal",
        holds=inner.holds,
        counts={"pairs": inner.subsets_checked},
        counterexample=inner.counterexample,
    )

    strong = strong_independence(analysis)
    yield CheckResult(
        name="sat-strong",
        holds=strong.holds,
        counts={"members": strong.subsets_checked},
        counterexample=strong.counterexample,
    )

    yield CheckResult(
        name="independence-implication",
        holds=(not strong.holds) or inner.holds,
        counts={"strong": int(strong.holds), "internal": int(inner.holds)},
    )

    complete = complete_independence(analysis)
    yield CheckResult(
        name="sat-complete",
        holds=complete.holds,
        counts={"subsets": complete.subsets_checked},
        counterexample=complete.counterexample,
    )

    yield CheckResult(
        name="sat-irreducible",
        holds=irreducible(analysis),
        counts={"members": len(result.reduced)},
    )

    yield CheckResult(
        name="sat-expansion-identity",
        holds=verify_logogram_expansion(analysis),
        counts={"base": len(analysis.problem.base), "target": len(analysis.problem.target)},
    )


def suite_wizards(spec: EchelonSpec, analysis: Analysis) -> Iterator[CheckResult]:
    toy = wizard_cover_report(Analysis(toy_wizard_problem()))
    yield CheckResult(
        name="wizard-cover-toy",
        holds=toy.holds,
        counts={
            "wizards": toy.wizard_count,
            "proper_inclusions": sum(1 for f in toy.findings if f.proper),
        },
        details=toy.findings,
    )

    echelon_report = wizard_cover_report(analysis)
    yield CheckResult(
        name="wizard-cover-echelon",
        holds=echelon_report.holds,
        counts={"n": spec.n, "m": spec.m, "wizards": echelon_report.wizard_count},
    )


def suite_regions(spec: EchelonSpec, analysis: Analysis, ignore_bewitched: bool) -> Iterator[CheckResult]:
    report = region_relations(analysis, ignore_bewitched)
    yield CheckResult(
        name="region-relations",
        holds=report.holds,
        counts={
            "n": spec.n,
            "m": spec.m,
            "rows": len(report.rows),
            "vacuous": sum(1 for r in report.rows if r.vacuous),
            "ignore_bewitched": int(ignore_bewitched),
        },
        details=report.rows,
    )


def suite_events(samples: int, seed: int) -> Iterator[CheckResult]:
    universe = sigma_exact(BINARY, 2)

    one = EventFamily(universe, (FiniteLanguage.of(BINARY, ["00"]),))
    disjoint = EventFamily(universe, (FiniteLanguage.of(BINARY, ["00"]), FiniteLanguage.of(BINARY, ["01"])))
    venn = EventFamily(universe, (FiniteLanguage.of(BINARY, ["00", "01"]), FiniteLanguage.of(BINARY, ["01", "10"])))
    twin = EventFamily(universe, (FiniteLanguage.of(BINARY, ["00"]), FiniteLanguage.of(BINARY, ["00"])))
    examples_ok = (
        completely_independent_events(one)
        and not completely_independent_events(disjoint)
        and completely_independent_events(venn)
        and len(atomic_constituents(venn)) == 4
        and len(atomic_constituents(twin)) == 2
    )
    yield CheckResult(
        name="events-examples",
        holds=examples_ok,
        counts={"families": 4},
    )

    rng = random.Random(seed)
    mismatches = 0
    rounds = max(10, min(100, samples))
    for _ in range(rounds):
        base = random_language(rng, BINARY, 3, max_words=10)
        if not base.words:
            continue
        events = tuple(
            FiniteLanguage.of(BINARY, (w for w in sorted(base.words) if rng.random() < 0.5))
            for _ in range(rng.randint(1, 3))
        )
        family = EventFamily(base, events)
        fast = atomic_constituents(family)
        slow = constituents_by_intersection(family)
        if {frozenset(c.words) for c in fast} != {frozenset(c.words) for c in slow}:
            mismatches += 1
    yield CheckResult(
        name="events-constituents",
        holds=mismatches == 0,
        counts={"families": rounds, "mismatches": mismatches, "seed": seed},
    )


def admit_echelon(spec: EchelonSpec, budget: int, word_budget: int) -> None:
    """Refuse the echelon unless its 4**(n*m) body candidates fit budget and its 3**(n*m) words word_budget.

    Every walk of an echelon ranges over its body positions, so a larger
    space is refused here, before enumeration, instead of after it.
    """
    space = 4 ** (spec.n * spec.m)
    if space > budget:
        raise BudgetExceeded(f"echelon ({spec.n},{spec.m}) candidates", space, budget)
    check_word_budget(spec, word_budget)


def admitted_echelon(spec: EchelonSpec, budget: int, word_budget: int) -> DecisionProblem:
    """The echelon, enumerated only once `admit_echelon` accepts it."""
    admit_echelon(spec, budget, word_budget)
    return enumerate_echelon(spec, budget=word_budget)


def run_suite(cfg: dict) -> VerificationReport:
    """Run the chosen suites in report order; the echelon suites share one Analysis."""
    suite = cfg["suite"]
    started = time.perf_counter()
    suites = []
    if suite in ECHELON_SUITES:
        spec = EchelonSpec(cfg["n"], cfg["m"])
        analysis = Analysis(admitted_echelon(spec, cfg["budget"], cfg["word_budget"]), budget=cfg["budget"])
    if suite in ("closure", "all"):
        suites.append(suite_closure(cfg["samples"], cfg["seed"]))
    if suite in ("logogram", "all"):
        suites.append(suite_logogram(max(10, cfg["samples"] // 4), cfg["seed"]))
    if suite in ("sat", "all"):
        suites.append(suite_sat(spec, analysis))
    if suite in ("wizards", "all"):
        suites.append(suite_wizards(spec, analysis))
    if suite in ("regions", "all"):
        suites.append(suite_regions(spec, analysis, cfg["ignore_bewitched"]))
    if suite in ("events", "all"):
        suites.append(suite_events(cfg["samples"], cfg["seed"]))
    checks = []
    for check in itertools.chain(*suites):
        now = time.perf_counter()
        check.elapsed, started = now - started, now
        checks.append(check)
    return VerificationReport(config=cfg, checks=checks)


# --- commands ---

def default_cache_dir() -> Path:
    env = os.environ.get("STRTOOL_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / TOOL_NAME


def cmd_logogram(args: argparse.Namespace) -> tuple[VerificationReport, int]:
    given = [pair for pair in ((args.n, args.m), (args.base_file, args.target_file)) if pair != (None, None)]
    if len(given) != 1 or None in given[0]:
        raise ValueError("need exactly one of --n/--m or --base-file/--target-file")
    if args.n is not None:
        # keyed by its spec: the words are enumerated only on a cache miss
        spec = EchelonSpec(args.n, args.m)
        admit_echelon(spec, args.budget, args.word_budget)
        alphabet, positions, index = SAT_ALPHABET, spec.body_positions, None
        fingerprint = echelon_fingerprint(alphabet, spec.n, spec.m, positions)
    else:
        problem = DecisionProblem(base=load_language(args.base_file), target=load_language(args.target_file))
        index = ProblemIndex(problem.base)
        alphabet, positions = problem.alphabet, auto_positions(index)
        fingerprint = problem_fingerprint(problem, positions)

    cached = False
    result = None
    if not args.no_cache:
        result = load_logogram_cache(alphabet, args.cache_dir, positions, fingerprint)
        cached = result is not None
    if result is None:
        if index is None:  # an echelon, enumerated and indexed on a cache miss only
            problem = enumerate_echelon(spec, budget=args.word_budget)
            index = ProblemIndex(problem.base)
        result = log_rel(problem, space=CandidateSpace(index, positions, args.budget),
                         keep_full=False if args.reduced else None)
        if not args.no_cache:
            save_logogram_cache(result, args.cache_dir, fingerprint)

    payload = {
        "fingerprint": fingerprint,
        "candidate_space_size": result.candidate_space_size,
        "full_count": result.full_count,
        "reduced_count": len(result.reduced),
        "restricted": result.restricted,
        "cached": cached,
    }
    if args.reduced:
        payload["reduced"] = [g.render() for g in result.sorted_reduced()]
    report = VerificationReport(config=_config_echo(args), result=payload)
    return report, 0


def cmd_verify(args: argparse.Namespace) -> tuple[VerificationReport, int]:
    if args.suite == "all":
        args.ignore_bewitched = True  # all checks the region relations on proper witnesses only
    elif args.ignore_bewitched and args.suite != "regions":
        raise ValueError(f"--ignore-bewitched applies to --suite regions, not --suite {args.suite}")
    given = [f"--{key}" for key in ("n", "m") if type(getattr(args, key)) is int]
    if given and args.suite not in ECHELON_SUITES:
        raise ValueError(f"{'/'.join(given)}: the echelon size is read by --suite "
                         f"{', '.join(ECHELON_SUITES)}, not --suite {args.suite}")
    cfg = _config_echo(args)
    report = run_suite(cfg)
    return report, 0 if report.passed else 1


def cmd_classify(args: argparse.Namespace) -> tuple[VerificationReport, int]:
    cfg = _config_echo(args)
    if args.formula is not None:
        if args.n is None or args.m is not None or args.string is not None:
            raise ValueError("--formula takes --n and neither --m nor --string")
        inst = parse_formula(args.formula, args.n)
        payload = {
            "n": inst.n,
            "m": inst.m,
            "size": occurrence_size(inst),
            "effective_size": effective_size(inst),
            "bewitched": is_bewitched(inst),
        }
        return VerificationReport(config=cfg, result=payload), 0
    if args.string is None or args.n is None or args.m is None:
        raise ValueError("need --string with --n/--m, or --formula with --n")
    spec = EchelonSpec(args.n, args.m)
    problem = admitted_echelon(spec, args.budget, args.word_budget)
    g = PartialString.parse(problem.alphabet, args.string)
    try:
        verdict = classify(g, Analysis(problem, budget=args.budget))
    except NotInReducedLogogram as exc:
        payload = {"string": g.render(), "error": str(exc)}
        return VerificationReport(config=cfg, result=payload), 1
    return VerificationReport(config=cfg, result=to_json(verdict)), 0


def _config_echo(args: argparse.Namespace) -> dict:
    skip = {"func"}
    out = {"command": args.command, "tool_version": __version__}
    for key, value in sorted(vars(args).items()):
        if key in skip or key == "command":
            continue
        out[key] = str(value) if isinstance(value, Path) else value
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog=TOOL_NAME, description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--budget", type=int, default=DEFAULT_CANDIDATE_BUDGET,
                       help="candidate-space cap for logogram enumeration")
        p.add_argument("--word-budget", type=int, default=DEFAULT_WORD_BUDGET,
                       help="word cap for echelon enumeration")
        p.add_argument("--threads", type=int, default=1, help="accepted for compatibility; has no effect")
        p.add_argument("--format", choices=("text", "json"), default="text")

    p_log = sub.add_parser("logogram", help="compute a reduced logogram (cached)")
    p_log.add_argument("--n", type=int)
    p_log.add_argument("--m", type=int)
    p_log.add_argument("--base-file")
    p_log.add_argument("--target-file")
    p_log.add_argument("--reduced", "--reduced-only", dest="reduced", action="store_true",
                       help="print the reduced strings and skip storing the full set")
    p_log.add_argument("--cache-dir", type=Path, default=default_cache_dir())
    p_log.add_argument("--no-cache", action="store_true")
    common(p_log)
    p_log.set_defaults(func=cmd_logogram)

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("--suite", choices=SUITES, required=True)
    p_ver.add_argument("--n", type=int, default=DefaultSize(2), help="echelon suites only (default 2)")
    p_ver.add_argument("--m", type=int, default=DefaultSize(2), help="echelon suites only (default 2)")
    p_ver.add_argument("--samples", type=positive_int, default=200)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--ignore-bewitched", action="store_true")
    common(p_ver)
    p_ver.set_defaults(func=cmd_verify)

    p_cls = sub.add_parser("classify", help="classify a string or report a formula's sizes")
    p_cls.add_argument("--n", type=int)
    p_cls.add_argument("--m", type=int)
    p_cls.add_argument("--string")
    p_cls.add_argument("--formula")
    common(p_cls)
    p_cls.set_defaults(func=cmd_classify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        report, code = args.func(args)
        text = json.dumps(report.to_json(), indent=2, sort_keys=True) if args.format == "json" else report.to_text()
    except BudgetExceeded as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # the report is rendered whole before any of it is printed
        print(f"memory error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(text)
    print(f"elapsed: {time.perf_counter() - started:.2f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
