"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` (or `-rA`) to see the
per-criterion lines.
"""

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import strtool
from strtool.cli import _oracle_agrees, random_problem, to_json, toy_wizard_problem
from strtool.independence import (
    IMPROPER_WITNESS,
    WIZARD,
    classify_all,
    complete_independence,
    internal_independence,
    irreducible,
    region_relations,
    sat_shape_report,
    strong_independence,
    wizard_cover_report,
)
from strtool.languages import BINARY, TERNARY, check_expansion_laws
from strtool.logogram import Analysis, verify_logogram_expansion
from strtool.sat import (
    CnfInstance,
    EchelonSpec,
    consistent_selection_count,
    effective_size,
    encode,
    enumerate_echelon,
    is_bewitched,
    occurrence_size,
)
from strtool.strings import word_includes

ECHELONS = ((1, 1), (2, 1), (1, 2), (2, 2), (3, 2), (2, 3), (3, 3))
EXHAUSTIVE_ECHELONS = ((1, 1), (2, 1), (1, 2), (2, 2))
SEED = 20240901


def criterion(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number} failed: {detail}"


@pytest.fixture(scope="module")
def batteries():
    """Per-echelon problem, analysis, logogram result, and wall time, computed once."""
    out = {}
    for n, m in ECHELONS:
        started = time.perf_counter()
        problem = enumerate_echelon(EchelonSpec(n, m))
        analysis = Analysis(problem)
        result = analysis.logogram
        out[(n, m)] = {
            "problem": problem,
            "analysis": analysis,
            "result": result,
            "spec": EchelonSpec(n, m),
            "setup_elapsed": time.perf_counter() - started,
        }
    return out


def test_criterion_1_closure_laws():
    started = time.perf_counter()
    report = check_expansion_laws(1000, seed=SEED)
    elapsed = time.perf_counter() - started
    ok = report.holds and elapsed < 10.0
    criterion(1, ok, f"closure/expansion laws on 1000 seeded samples, {elapsed:.2f}s"
                     + (f"; failures: {report.failures[:2]}" if report.failures else ""))


def test_criterion_2_oracle_equivalence():
    rng = random.Random(SEED)
    bound = 4 ** 8
    mismatches = 0
    checked = 0
    for i in range(200):
        if i % 50 == 10:
            alphabet, max_len = BINARY, 8          # space 3**8, at the bound's scale
        elif i == 175:
            alphabet, max_len = TERNARY, 8         # space exactly 4**8
        else:
            alphabet = (BINARY, TERNARY)[i % 2]
            max_len = rng.randint(1, 5)
        problem = random_problem(rng, alphabet, max_len)
        space = (len(alphabet.symbols) + 1) ** problem.base.max_len
        assert space <= bound
        checked += 1
        if not _oracle_agrees(problem, naive_budget=bound):
            mismatches += 1
    for n, m in EXHAUSTIVE_ECHELONS:
        problem = enumerate_echelon(EchelonSpec(n, m))
        checked += 1
        if not _oracle_agrees(problem, naive_budget=4 ** 10):
            mismatches += 1
    criterion(2, mismatches == 0,
              f"naive-enumerator equivalence on {checked} problems, {mismatches} discrepancies")


def test_criterion_3_expansion_identity(batteries):
    rng = random.Random(SEED + 1)
    failures = 0
    for i in range(500):
        problem = random_problem(rng, (BINARY, TERNARY)[i % 2], max_len=rng.randint(1, 6),
                                 max_words=(8, 16, 48)[i % 3])
        if not verify_logogram_expansion(problem):
            failures += 1
    for key, bundle in batteries.items():
        if not verify_logogram_expansion(bundle["analysis"]):
            failures += 1
    criterion(3, failures == 0,
              f"logogram-expansion identity on 500 random problems + {len(batteries)} echelons, "
              f"{failures} failures")


def test_criterion_4_sat_structure(batteries):
    problems = []
    timings = []
    for (n, m), bundle in batteries.items():
        started = time.perf_counter()
        analysis, result = bundle["analysis"], bundle["result"]
        spec = bundle["spec"]

        verdicts = classify_all(analysis)
        wizards = sum(1 for v in verdicts if v.kind == WIZARD)
        if wizards:
            problems.append(f"({n},{m}): {wizards} wizards")

        shape = sat_shape_report(spec, result)
        if not shape.holds:
            problems.append(f"({n},{m}): shape findings {to_json(shape.findings)}")

        if not internal_independence(analysis).holds:
            problems.append(f"({n},{m}): internal independence fails")
        if not strong_independence(analysis).holds:
            problems.append(f"({n},{m}): strong independence fails")

        complete = complete_independence(analysis)
        if not complete.holds:
            problems.append(f"({n},{m}): complete independence fails: {complete.counterexample}")

        if not irreducible(analysis):
            problems.append(f"({n},{m}): reduced logogram not irreducible")

        oracle = consistent_selection_count(n, m)
        if len(result.reduced) != oracle:
            problems.append(f"({n},{m}): |reduced|={len(result.reduced)} oracle={oracle}")

        elapsed = bundle["setup_elapsed"] + (time.perf_counter() - started)
        timings.append(((n, m), elapsed))
        limit = 60.0 if (n, m) == (3, 3) else 5.0
        if elapsed > limit:
            problems.append(f"({n},{m}): took {elapsed:.1f}s > {limit}s")

    assert len(batteries[(2, 2)]["result"].reduced) == 12
    slowest = max(timings, key=lambda t: t[1])
    criterion(4, not problems,
              f"echelon structure claims on {len(batteries)} echelons "
              f"(slowest {slowest[0]}: {slowest[1]:.1f}s)"
              + (f"; issues: {problems}" if problems else ""))


def test_criterion_5_strong_implies_internal(batteries):
    zoo = [bundle["problem"] for bundle in batteries.values()]
    zoo.append(toy_wizard_problem())
    rng = random.Random(SEED + 2)
    zoo.extend(random_problem(rng, (BINARY, TERNARY)[i % 2], max_len=rng.randint(1, 4))
               for i in range(30))
    violations = 0
    for problem in zoo:
        analysis = Analysis(problem)
        strong = strong_independence(analysis)
        inner = internal_independence(analysis)
        if strong.holds and not inner.holds:
            violations += 1
    criterion(5, violations == 0,
              f"strong-implies-internal across {len(zoo)} problems, {violations} violations")


def test_criterion_6_region_relations(batteries):
    issues = []
    for n, m in ((2, 2), (3, 2)):
        report = region_relations(batteries[(n, m)]["analysis"], ignore_bewitched=True)
        if not report.holds:
            issues.append(f"({n},{m}): {[to_json(r) for r in report.rows if not r.disjoint]}")
    criterion(6, not issues, "filtered region disjointness and non-entanglement on (2,2) and (3,2)"
              + (f"; issues: {issues}" if issues else ""))


def test_criterion_7_worked_formula():
    inst = CnfInstance.of(4, [[1, 3, -4], [2, -3]])
    sizes_ok = occurrence_size(inst) == 4 and effective_size(inst) == 2 and is_bewitched(inst)
    word = encode(inst)
    problem = enumerate_echelon(EchelonSpec(4, 2))
    verdicts = classify_all(Analysis(problem))
    kinds = [v.kind for v in verdicts if word_includes(word, v.string)]
    ok = sizes_ok and IMPROPER_WITNESS in kinds
    criterion(7, ok, f"worked formula: size 4, effective 2, bewitched; "
                     f"{len(kinds)} substrings in echelon (4,2), kinds {sorted(set(kinds))}")


def test_criterion_8_wizard_union_cover():
    report = wizard_cover_report(Analysis(toy_wizard_problem()))
    proper_flags = [f.proper for f in report.findings]
    ok = report.holds and report.wizard_count > 0 and proper_flags == [False, False]
    criterion(8, ok, f"toy wizard union inclusion holds for {report.wizard_count} wizards; "
                     f"properness per wizard {proper_flags} (recorded finding)")


def test_criterion_9_byte_stable_reports():
    cmd = [sys.executable, "-m", "strtool", "verify", "--suite", "all",
           "--samples", "60", "--seed", "11", "--format", "json"]
    src = str(Path(strtool.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    first = subprocess.run(cmd, capture_output=True, check=False, env=env)
    second = subprocess.run(cmd, capture_output=True, check=False, env=env)
    ok = first.stdout == second.stdout and first.returncode == second.returncode == 0
    payload = json.loads(first.stdout) if ok else {}
    criterion(9, ok, f"two seeded runs byte-identical ({len(first.stdout)} bytes, "
                     f"{len(payload.get('checks', []))} checks)")
