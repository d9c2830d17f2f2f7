"""The immutable value types and report records: field equality, hash of the field tuple, no assignment or deletion.

`PartialString` hashes its entries alone (equal strings have equal entries), so its hash is one call.
"""

import pytest

from strtool.cli import toy_wizard_problem
from strtool.independence import (
    WIZARD,
    Counterexample,
    EventFamily,
    IndependenceVerdict,
    RegionRelationsReport,
    RegionRow,
    ShapeFinding,
    ShapeReport,
    StringVerdict,
    WizardCoverReport,
    WizardFinding,
)
from strtool.languages import FiniteLanguage
from strtool.logogram import DecisionProblem, LogExpReport, LogogramResult
from strtool.sat import CnfInstance, EchelonSpec, enumerate_echelon
from strtool.strings import BINARY, TERNARY, Alphabet, PartialString


def lang(*words: str) -> FiniteLanguage:
    return FiniteLanguage(BINARY, frozenset(words))


VALUES = {
    "Alphabet": (lambda: Alphabet(("0", "1", "2")), ("symbols",)),
    "PartialString": (lambda: PartialString(TERNARY, ((1, "0"), (3, "2"))), ("alphabet", "entries")),
    "FiniteLanguage": (lambda: lang("01", "1"), ("alphabet", "words")),
    "DecisionProblem": (lambda: DecisionProblem(lang("00", "01", "1"), lang("01")),
                        ("base", "target", "labels", "clauses")),
    "DecisionProblem-echelon": (lambda: enumerate_echelon(EchelonSpec(1, 1)), ("base", "target", "labels", "clauses")),
    "CnfInstance": (lambda: CnfInstance(2, 2, (frozenset({1, -2}), frozenset({2}))), ("n", "m", "clauses")),
    "EchelonSpec": (lambda: EchelonSpec(3, 2), ("n", "m")),
    "StringVerdict": (lambda: StringVerdict(PartialString(BINARY, ((2, "1"),)), WIZARD, (1, 3)),
                      ("string", "kind", "containing_regions")),
    "WizardFinding": (lambda: WizardFinding("_1", 3, True, False, True),
                      ("string", "witnesses", "union_holds", "proper", "witness_inside_wizard")),
    "EventFamily": (lambda: EventFamily(lang("0", "1", "01"), (lang("0"), lang("0", "01"))), ("universe", "events")),
    "RegionRow": (lambda: RegionRow(1, True, True, False, False, False, 2, 3),
                  ("index", "disjoint", "disjoint_unfiltered", "low_entangles_high", "high_entangles_low",
                   "vacuous", "low_size", "high_size")),
    "IndependenceVerdict": (lambda: IndependenceVerdict(True, 6), ("holds", "subsets_checked", "counterexample")),
    "IndependenceVerdict-failing": (lambda: IndependenceVerdict(False, 3, Counterexample(("1",), "x")),
                                    ("holds", "subsets_checked", "counterexample")),
    "Counterexample": (lambda: Counterexample(("1_", "_2"), "relative cylinders are comparable"),
                       ("strings", "reason")),
    "WizardCoverReport": (lambda: WizardCoverReport(True, 1, (WizardFinding("_1", 3, True, False, True),)),
                          ("holds", "wizard_count", "findings")),
    "ShapeFinding": (lambda: ShapeFinding("1_", ("clause 2 has 0 prescriptions",)), ("string", "problems")),
    "ShapeReport": (lambda: ShapeReport(False, 4, (ShapeFinding("1_", ("clause 2 has 0 prescriptions",)),)),
                    ("holds", "members", "findings")),
    "RegionRelationsReport": (lambda: RegionRelationsReport(True, True, (RegionRow(1, True, True, False, False,
                                                                                   False, 2, 3),)),
                              ("ignore_bewitched", "holds", "rows")),
    "LogogramResult": (lambda: LogogramResult(None, frozenset({PartialString(BINARY, ((2, "1"),))}), 3, 9, (1, 2),
                                              False, 0.5),
                       ("full", "reduced", "full_count", "candidate_space_size", "positions", "restricted",
                        "elapsed")),
    "LogExpReport": (lambda: LogExpReport(True, True, True, True, "_0", True),
                     ("extensive", "idempotent", "monotone", "holds", "collective_sample", "union_strict")),
}


@pytest.mark.parametrize("name", VALUES)
def test_value_type(name):
    make, fields = VALUES[name]
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    values = tuple(getattr(a, f) for f in fields)
    assert hash(a) == hash(b) == (hash(a.entries) if name == "PartialString" else hash(values))
    for f in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(a, f, None)
        with pytest.raises(AttributeError):
            delattr(a, f)
    assert tuple(getattr(a, f) for f in fields) == values


def test_labelled_problem_hashes_by_value():
    """hash(values) is no reference here: the labels are a dict.  Equal problems hash equal."""
    a, b = toy_wizard_problem(), toy_wizard_problem()
    assert a is not b and a == b and hash(a) == hash(b)
    relabelled = DecisionProblem(a.base, a.target, {"01": 1, "10": 2, "11": 6})
    assert relabelled != a and len({a, b, relabelled}) == 2
    for f in ("base", "target", "labels", "clauses", "extra"):
        with pytest.raises(AttributeError):
            setattr(a, f, None)
