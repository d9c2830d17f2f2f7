"""The immutable value types and report records: field equality, hash of the field tuple, no assignment or deletion."""

import copy
import pickle

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
                      ("string", "kind", "regions")),
    "WizardFinding": (lambda: WizardFinding("_1", 3, True, False, True),
                      ("string", "witnesses", "union_holds", "proper", "witness_inside_wizard")),
    "EventFamily": (lambda: EventFamily(lang("0", "1", "01"), (lang("0"), lang("0", "01"))), ("universe", "events")),
    "RegionRow": (lambda: RegionRow(1, True, True, False, False, False, 2, 3),
                  ("i", "disjoint", "disjoint_unfiltered", "low_entangles_high", "high_entangles_low",
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
                                              False),
                       ("full", "reduced", "full_count", "candidate_space_size", "positions", "restricted")),
    "LogExpReport": (lambda: LogExpReport(True, True, True, True, "_0", True),
                     ("extensive", "idempotent", "monotone", "holds", "collective_sample", "union_strict")),
}


@pytest.mark.parametrize("name", VALUES)
def test_value_type(name):
    make, fields = VALUES[name]
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    values = tuple(getattr(a, f) for f in fields)
    assert hash(a) == hash(b) == hash(values)
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


class TestStringValues:
    """`Alphabet` and `PartialString` are the tuples of their fields: tuple's equality and hash, read-only."""

    def test_alphabet_is_part_of_a_string_value(self):
        entries = ((1, "0"), (3, "1"))
        binary, ternary = PartialString(BINARY, entries), PartialString(TERNARY, entries)
        assert binary != ternary and not binary == ternary
        assert len({binary, ternary, PartialString(BINARY, entries)}) == 2
        assert PartialString.bottom(BINARY) != PartialString.bottom(TERNARY)
        assert BINARY != TERNARY and Alphabet.of("01") == BINARY and hash(Alphabet.of("01")) == hash(BINARY)

    def test_string_is_not_a_collection(self):
        g = PartialString(TERNARY, ((1, "0"), (3, "2")))
        for read in (iter, list, tuple, set, lambda g: (1, "0") in g, lambda g: TERNARY in g):
            with pytest.raises(TypeError):
                read(g)
        assert len(g) == 2 and g.entries == ((1, "0"), (3, "2"))

    def test_value_is_its_field_tuple(self):
        g = PartialString(TERNARY, ((1, "0"), (3, "2")))
        assert g == (TERNARY, ((1, "0"), (3, "2"))) and hash(g) == hash((TERNARY, g.entries))
        assert g[0] is g.alphabet is TERNARY and g[1] is g.entries
        assert BINARY == (("0", "1"),) and hash(BINARY) == hash((BINARY.symbols,)) and BINARY[0] is BINARY.symbols
        assert (BINARY < TERNARY) == (BINARY.symbols < TERNARY.symbols)
        assert len(BINARY) == 2 and list(BINARY) == ["0", "1"] and "1" in BINARY and "2" not in BINARY

    @pytest.mark.parametrize("value", [BINARY, PartialString(BINARY, ((2, "1"),))], ids=repr)
    def test_tuple_sequence_operations_raise(self, value):
        for op in (lambda v: v + v, lambda v: v + (1,), lambda v: (1,) + v, lambda v: v * 2, lambda v: 2 * v,
                   lambda v: v.count(v[0]), lambda v: v.index(v[0]), reversed):
            with pytest.raises(TypeError):
                op(value)

    @pytest.mark.parametrize("value", [BINARY, Alphabet.of("0123"), PartialString.bottom(BINARY),
                                       PartialString(TERNARY, ((1, "0"), (3, "2")))], ids=repr)
    def test_copy_and_pickle_round_trip(self, value):
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(twin) is type(value) and twin == value and hash(twin) == hash(value)
        if isinstance(value, PartialString):
            twin = pickle.loads(pickle.dumps(value))
            assert (twin.alphabet, twin.entries) == (value.alphabet, value.entries)

    def test_assignment_raises(self):
        g = PartialString(BINARY, ((2, "1"),))
        for target, field, value in ((g, "alphabet", TERNARY), (g, "entries", ()), (BINARY, "symbols", ("0",))):
            with pytest.raises(AttributeError):
                setattr(target, field, value)
            with pytest.raises(AttributeError):
                delattr(target, field)
        assert g == PartialString(BINARY, ((2, "1"),)) and BINARY.symbols == ("0", "1")
