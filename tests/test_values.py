"""The immutable value types and report records: field equality, hash of the field tuple, no assignment or deletion.

Every value type is a `strtool.strings.Value`, the tuple of its fields, and keeps frozen copies of its inputs.
"""

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
from strtool.languages import FiniteLanguage, sigma_exact
from strtool.logogram import Analysis, ClauseProduct, DecisionProblem, LogExpReport, LogogramResult
from strtool.sat import CnfInstance, EchelonSpec, enumerate_echelon, satisfies
from strtool.strings import BINARY, TERNARY, Alphabet, PartialString, Value


def lang(*words: str) -> FiniteLanguage:
    return FiniteLanguage(BINARY, frozenset(words))


VALUES = {
    "Alphabet": (lambda: Alphabet(("0", "1", "2")), ("symbols",)),
    "PartialString": (lambda: PartialString(TERNARY, ((1, "0"), (3, "2"))), ("alphabet", "entries")),
    "FiniteLanguage": (lambda: lang("01", "1"), ("alphabet", "words")),
    "ProductLanguage": (lambda: sigma_exact(BINARY, 2).masked(0b0110), ("alphabet", "words")),
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


def _read_product():
    product = sigma_exact(TERNARY, 2)
    product.words  # cached on the value
    return product


# Every `Value` type in each of its forms, a labelled problem and a read product language among them.
# Alphabets and strings are named by repr, the other forms by name.
STRING_FORMS = [BINARY, Alphabet.of("0123"), PartialString.bottom(BINARY), PartialString(BINARY, ((2, "1"),)),
                PartialString(TERNARY, ((1, "0"), (3, "2")))]
OTHER_FORMS = {
    **{name: make for name, (make, _) in VALUES.items()
       if isinstance(make(), Value) and not isinstance(make(), (Alphabet, PartialString))},
    "ProductLanguage-read": _read_product,
    "DecisionProblem-labelled": toy_wizard_problem,
}
EVERY_FORM = [*STRING_FORMS, *(make() for make in OTHER_FORMS.values())]
FORM_IDS = [*map(repr, STRING_FORMS), *OTHER_FORMS]


class TestStringValues:
    """`Alphabet` and `PartialString` are the tuples of their fields: tuple's equality and hash, read-only.

    The sequence operations and the copy and pickle round trips are checked on every `Value` type.
    """

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

    @pytest.mark.parametrize("value", EVERY_FORM, ids=FORM_IDS)
    def test_tuple_sequence_operations_raise(self, value):
        for op in (lambda v: v + v, lambda v: v + (1,), lambda v: (1,) + v, lambda v: v * 2, lambda v: 2 * v,
                   lambda v: v.count(v[0]), lambda v: v.index(v[0]), reversed):
            with pytest.raises(TypeError):
                op(value)

    @pytest.mark.parametrize("value", EVERY_FORM, ids=FORM_IDS)
    def test_copy_and_pickle_round_trip(self, value):
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(twin) is type(value) and twin == value and not twin != value and hash(twin) == hash(value)
            assert twin[:] == value[:]  # field by field

    def test_assignment_raises(self):
        g = PartialString(BINARY, ((2, "1"),))
        for target, field, value in ((g, "alphabet", TERNARY), (g, "entries", ()), (BINARY, "symbols", ("0",))):
            with pytest.raises(AttributeError):
                setattr(target, field, value)
            with pytest.raises(AttributeError):
                delattr(target, field)
        assert g == PartialString(BINARY, ((2, "1"),)) and BINARY.symbols == ("0", "1")


def test_every_value_type_is_a_value():
    """Only `ProductLanguage` has an instance dict: it caches its words and `is_full` there."""
    assert {type(value).__name__ for value in EVERY_FORM} == {
        "Alphabet", "PartialString", "FiniteLanguage", "ProductLanguage", "DecisionProblem", "CnfInstance",
        "EchelonSpec", "EventFamily"}
    assert {type(value).__name__ for value in EVERY_FORM if hasattr(value, "__dict__")} == {"ProductLanguage"}


def test_plain_and_product_languages_agree_both_ways():
    """`ProductLanguage` overrides `==`, so it must override `!=` too: tuple's `!=` does not negate an override."""
    plain, product = FiniteLanguage.of(BINARY, ["00", "01", "10", "11"]), sigma_exact(BINARY, 2)
    assert plain == product and product == plain and not plain != product and not product != plain
    assert hash(plain) == hash(product) and len({plain, product}) == 1
    other = product.masked(0b0111)
    assert plain != other and other != plain and not plain == other and not other == plain


class TestFrozenInputs:
    """A built value keeps frozen copies: changing the list, set or dict it was given changes nothing."""

    def test_problem_labels(self):
        labels = {"01": 1, "10": 2, "11": 4}
        problem = DecisionProblem(sigma_exact(BINARY, 2), FiniteLanguage.of(BINARY, labels), labels)
        before, held = hash(problem), {problem}
        labels["11"] = 0
        labels["00"] = 1
        assert hash(problem) == before and problem in held and problem == toy_wizard_problem()
        assert dict(problem.labels) == {"01": 1, "10": 2, "11": 4}
        assert Analysis(problem).region_masks == [0b0010, 0b0100, 0b1000]
        with pytest.raises(TypeError):
            problem.labels["11"] = 1

    def test_event_family(self):
        universe, events = lang("0", "1"), [lang("0")]
        family = EventFamily(universe, events)
        assert hash(family) == hash((universe, (lang("0"),)))
        events.append(lang("00"))  # outside the universe: the constructor would refuse it
        assert family.events == (lang("0"),)
        with pytest.raises(ValueError, match="subset of the universe"):
            EventFamily(universe, events)

    def test_cnf_clauses(self):
        clauses = [frozenset({1})]
        cnf = CnfInstance(1, 1, clauses)
        clauses.append(frozenset({-1}))
        assert (cnf.m, len(cnf.clauses)) == (1, 1) and satisfies(cnf, (1,))
        assert cnf == CnfInstance(1, 1, (frozenset({1}),)) and hash(cnf) == hash((1, 1, (frozenset({1}),)))

    def test_string_entries(self):
        entries = [(1, "0")]
        g = PartialString(BINARY, entries)
        entries.append((2, "1"))
        assert g.render() == "0" and len(g) == 1 and hash(g) == hash((BINARY, ((1, "0"),)))

    def test_alphabet_symbols(self):
        symbols = ["0", "1"]
        alphabet = Alphabet(symbols)
        symbols.append("2")
        assert alphabet == BINARY and hash(alphabet) == hash(BINARY)

    def test_language_words(self):
        words = {"0"}
        language = FiniteLanguage(BINARY, words)
        words.add("1")
        assert language.words == frozenset({"0"}) and hash(language) == hash(lang("0"))

    def test_clause_product_lists(self):
        echelon = enumerate_echelon(EchelonSpec(2, 2))
        lists = [[list(literal) for literal in clause] for clause in echelon.clauses.clauses]
        problem = DecisionProblem(echelon.base, echelon.target, clauses=ClauseProduct(echelon.clauses.regions, lists))
        assert problem == echelon and hash(problem) == hash(echelon)
        expected = Analysis(echelon).region_logograms[0]
        assert "______2_2" in {g.render() for g in expected}
        lists[0].clear()
        assert problem.clauses == echelon.clauses and Analysis(problem).region_logograms[0] == expected


def test_labels_are_ints_above_zero():
    base, target = sigma_exact(BINARY, 2), lang("01", "10", "11")
    for label in (-1, 1.0, 1.5, "1"):
        with pytest.raises(ValueError, match="int above 0"):
            DecisionProblem(base, target, {"01": label, "10": 2, "11": 4})
    assert DecisionProblem(base, target, {"01": 1, "10": 2, "11": 4}) == toy_wizard_problem()
