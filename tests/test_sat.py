import itertools
import random

import pytest

from strtool import cli
from strtool.cli import main
from strtool.independence import classify_all
from strtool.languages import BudgetExceeded, FiniteLanguage, bit_flags
from strtool.logogram import Analysis, DecisionProblem, ProblemIndex, log_rel_naive
from strtool.sat import (
    SAT_ALPHABET,
    CnfInstance,
    EchelonSpec,
    consistent_selection_count,
    decode,
    effective_size,
    encode,
    enumerate_echelon,
    is_bewitched,
    occurrence_size,
    parse_formula,
    satisfies,
    selection_strings,
    solutions,
)

PAPER_EXAMPLE = CnfInstance.of(4, [[1, 3, -4], [2, -3]])


def random_instance(rng: random.Random, max_n: int = 4, max_m: int = 3) -> CnfInstance:
    n = rng.randint(1, max_n)
    m = rng.randint(1, max_m)
    clauses = []
    for _ in range(m):
        clause = set()
        for var in range(1, n + 1):
            roll = rng.random()
            if roll < 0.3:
                clause.add(var)
            elif roll < 0.6:
                clause.add(-var)
        clauses.append(clause)
    return CnfInstance.of(n, clauses)


def label_by_assignment(spec: EchelonSpec):
    """Per-assignment labelling: decode every word and test it under each assignment (oracle)."""
    ys = solutions(spec.n)
    words, sat_words, region_words = [], [], [[] for _ in ys]
    for body in itertools.product("012", repeat=spec.n * spec.m):
        word = spec.prefix + "".join(body)
        words.append(word)
        inst = decode(word)
        satisfiable = False
        for j, y in enumerate(ys):
            if satisfies(inst, y):
                region_words[j].append(word)
                satisfiable = True
        if satisfiable:
            sat_words.append(word)
    return frozenset(words), frozenset(sat_words), [frozenset(ws) for ws in region_words]


def label_by_literals(spec: EchelonSpec) -> dict[str, int]:
    """Per-literal labelling: decode every word and AND over its clauses the OR of its literals' assignment sets.

    Bit j of a label stands for solutions(n)[j]; only the nonzero labels are kept.  It is
    the oracle where `label_by_assignment`, words x 2**n `satisfies` calls, costs too much
    (16 s on (9,1)), and it is checked against that oracle up to n = 7.
    """
    ys = solutions(spec.n)
    full = (1 << len(ys)) - 1
    true_under = {}
    for i in range(1, spec.n + 1):
        plain = sum(1 << j for j, y in enumerate(ys) if y[i - 1])
        true_under[i], true_under[-i] = plain, full ^ plain
    labels = {}
    for body in itertools.product("012", repeat=spec.n * spec.m):
        word = spec.prefix + "".join(body)
        label = full
        for clause in decode(word).clauses:
            some = 0
            for lit in clause:
                some |= true_under[lit]
            label &= some
        if label:
            labels[word] = label
    return labels


def word_level_echelon(spec: EchelonSpec) -> tuple[list[str], list[str]]:
    """The echelon's words and its satisfiable ones, built from its clause blocks (judge for the product form).

    Each of the 3^n clauses over n variables is encoded and decided once: its block is the
    body of `encode` of the one-clause formula, and its assignment mask has bit k set when
    `satisfies` holds under the k-th assignment of `solutions`.  A tuple of m clauses is the
    prefix (`encode` of m empty clauses, less its body) followed by its clauses' blocks, and
    it is satisfiable when the AND of their masks is nonzero.  With one clause only that
    matters, so its mask keeps just the first satisfying assignment.
    """
    n, m = spec.n, spec.m
    ys = solutions(n)
    blocks = []  # (block, assignment mask) per clause
    for codes in itertools.product((0, 1, 2), repeat=n):
        clause = CnfInstance.of(n, [[i if code == 1 else -i for i, code in enumerate(codes, 1) if code]])
        satisfied = (1 << k for k, y in enumerate(ys) if satisfies(clause, y))
        blocks.append((encode(clause)[-n:], sum(satisfied) if m > 1 else next(satisfied, 0)))
    rows = [("", (1 << len(ys)) - 1)]  # (body, AND of masks) per tuple of the clauses chosen so far
    for _ in range(m):
        rows = [(body + block, held & mask) for body, held in rows for block, mask in blocks]
    prefix = encode(CnfInstance.of(n, [[]] * m))[:-n * m]
    words = [prefix + body for body, _ in rows]
    return words, [word for word, (_, held) in zip(words, rows) if held]


# Every echelon of at most 3**9 words; (4,2) is among them.
SMALL_ECHELONS = [(n, m) for n in range(1, 10) for m in range(1, 10) if n * m <= 9]


def clause_region_masks(analysis: Analysis) -> list[int]:
    """Region j's mask on a clause product: the AND over clauses of the OR of the position masks of the
    clause's literals true under j (each region's closure, an echelon being prefix-free)."""
    product, index = analysis.problem.clauses, analysis.index
    masks = []
    for j in range(product.regions):
        mask = index.all_mask
        for clause in product.clauses:
            some = 0
            for pos, sym, lit in clause:
                if lit >> j & 1:
                    some |= index.pos_masks[pos - 1].get(sym, 0)
            mask &= some
        masks.append(mask)
    return list(map(index.closure_mask, masks))


def regions_of(problem):
    """The region word sets of an echelon, read from its clause region masks (judged by `label_by_assignment`)."""
    analysis = Analysis(problem)
    words = analysis.index.words
    return [frozenset(itertools.compress(words, bit_flags(mask))) for mask in clause_region_masks(analysis)]


class TestInstance:
    def test_validation(self):
        with pytest.raises(ValueError):
            CnfInstance.of(0, [[1]])
        with pytest.raises(ValueError):
            CnfInstance.of(2, [[3]])
        with pytest.raises(ValueError):
            CnfInstance.of(2, [[0]])
        with pytest.raises(ValueError, match="declared m=2 but got 1 clauses"):
            CnfInstance(2, 2, (frozenset({1}),))

    def test_well_formedness_flag(self):
        tautologicalish = CnfInstance.of(2, [[1, -1]])
        assert not tautologicalish.is_well_formed
        assert PAPER_EXAMPLE.is_well_formed

    def test_formula_grammar(self):
        assert parse_formula("1,3,-4;2,-3", 4) == PAPER_EXAMPLE
        empty_clause = parse_formula("1;;2", 2)
        assert empty_clause.m == 3 and frozenset() in empty_clause.clauses
        with pytest.raises(ValueError):
            parse_formula("", 2)
        with pytest.raises(ValueError):
            parse_formula("1,x", 2)


class TestEncoding:
    def test_clause_block(self):
        assert encode(CnfInstance.of(4, [[1, 3, -4]])) == "00001" + "01" + "1012"

    def test_paper_formula(self):
        assert encode(PAPER_EXAMPLE) == "00001001" + "1012" + "0120"

    def test_minimal_echelon(self):
        assert encode(CnfInstance.of(1, [[1]])) == "01011"
        assert decode("01011") == CnfInstance.of(1, [[1]])

    def test_decode_errors(self):
        with pytest.raises(ValueError):
            decode("0101")  # missing body
        with pytest.raises(ValueError):
            decode("1011")  # no leading zero block
        with pytest.raises(ValueError):
            decode("01013")  # bad code
        with pytest.raises(ValueError):
            decode("010111")  # body too long

    def test_unencodable_clause(self):
        with pytest.raises(ValueError):
            encode(CnfInstance.of(1, [[1, -1]]))

    def test_roundtrip_on_seeded_instances(self):
        rng = random.Random(6)
        for _ in range(1000):
            inst = random_instance(rng)
            assert decode(encode(inst)) == inst

    def test_position_formula(self):
        spec = EchelonSpec(4, 2)
        word = encode(PAPER_EXAMPLE)
        assert word[spec.position(1, 1) - 1] == "1"
        assert word[spec.position(1, 4) - 1] == "2"
        assert word[spec.position(2, 3) - 1] == "2"
        assert spec.word_length == len(word)

    def test_slot_inverts_position_on_the_body_alone(self):
        spec = EchelonSpec(4, 2)
        slots = {pos: spec.slot(pos) for pos in range(-1, spec.word_length + 3)}
        assert [pos for pos, slot in slots.items() if slot is not None] == list(spec.body_positions)
        assert all(spec.position(*slots[pos]) == pos for pos in spec.body_positions)
        for clause, var in ((0, 1), (3, 1), (1, 0), (1, 5)):
            with pytest.raises(ValueError, match=r"outside echelon \(4,2\)"):
                spec.position(clause, var)


class TestSolutions:
    def test_order(self):
        assert solutions(1) == [(0,), (1,)]
        assert solutions(2) == [(0, 0), (1, 0), (0, 1), (1, 1)]
        assert len(solutions(3)) == 8

    def test_satisfies(self):
        single = CnfInstance.of(1, [[1]])
        assert satisfies(single, (1,))
        assert not satisfies(single, (0,))
        empty = CnfInstance.of(1, [[]])
        assert not satisfies(empty, (0,)) and not satisfies(empty, (1,))
        assert satisfies(PAPER_EXAMPLE, (1, 1, 0, 0))

    def test_satisfies_needs_total_assignment(self):
        with pytest.raises(ValueError):
            satisfies(PAPER_EXAMPLE, (1, 1))


class TestEchelons:
    def test_small_counts(self):
        p11 = enumerate_echelon(EchelonSpec(1, 1))
        assert len(p11.base) == 3 and len(p11.target) == 2
        p21 = enumerate_echelon(EchelonSpec(2, 1))
        assert len(p21.base) == 9 and len(p21.target) == 8
        assert len(regions_of(p11)) == 2 and len(regions_of(p21)) == 4

    def test_regions_recompose_target(self):
        problem = enumerate_echelon(EchelonSpec(2, 2))
        union = frozenset().union(*regions_of(problem))
        assert union == problem.target.words
        for j, region in enumerate(regions_of(problem)):
            y = solutions(2)[j]
            assert region == {w for w in problem.base.words if satisfies(decode(w), y)}

    @pytest.mark.parametrize("n,m", [(n, m) for n, m in SMALL_ECHELONS if n <= 7])
    def test_labelling_matches_per_assignment_oracle(self, n, m):
        spec = EchelonSpec(n, m)
        problem = enumerate_echelon(spec)
        base, target, regions = label_by_assignment(spec)
        assert problem.base.words == base
        assert problem.target.words == target
        assert regions_of(problem) == regions
        analysis = Analysis(problem)
        assert clause_region_masks(analysis) == [analysis.index.word_mask(r) for r in regions]
        labels = label_by_literals(spec)
        assert [frozenset(w for w, label in labels.items() if label >> j & 1) for j in range(2 ** n)] == regions

    @pytest.mark.parametrize("n,m", [(2, 2), (3, 3)])
    def test_suites_build_no_word_set(self, monkeypatch, capsys, n, m):
        """The sat, regions and wizards suites read an echelon's base, target and index as masks only."""
        problems, indexes = [], []
        real_admitted, real_init = cli.admitted_echelon, ProblemIndex.__init__

        def admitted(*args):
            problems.append(real_admitted(*args))
            return problems[-1]

        def init(index, base):
            indexes.append(index)
            real_init(index, base)

        monkeypatch.setattr(cli, "admitted_echelon", admitted)
        monkeypatch.setattr(ProblemIndex, "__init__", init)
        for suite in ("sat", "regions", "wizards"):
            main(["verify", "--suite", suite, "--n", str(n), "--m", str(m)])
        capsys.readouterr()
        assert len(problems) == 3
        echelon_indexes = [index for index in indexes if any(index.language is p.base for p in problems)]
        assert len(echelon_indexes) == 3  # the wizards suite's toy problem has its own
        for problem in problems:
            assert "words" not in vars(problem.base) and "words" not in vars(problem.target)
        for index in echelon_indexes:
            assert "words" not in vars(index) and "ordinal" not in vars(index)

    def test_prefix_free(self):
        for spec in (EchelonSpec(1, 1), EchelonSpec(2, 1), EchelonSpec(2, 2)):
            base = enumerate_echelon(spec).base
            words = sorted(base.words)
            for a in words:
                for b in words:
                    if a != b:
                        assert not b.startswith(a)
            assert ProblemIndex(base).prefix_free

    def test_cross_echelon_prefixes_disambiguate(self):
        words = set()
        for spec in (EchelonSpec(1, 1), EchelonSpec(1, 2), EchelonSpec(2, 1)):
            words |= enumerate_echelon(spec).base.words
        ordered = sorted(words)
        assert not any(ordered[i + 1].startswith(ordered[i]) for i in range(len(ordered) - 1))

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            enumerate_echelon(EchelonSpec(4, 4))


class TestProductForm:
    """The product-form base and the mask target against an echelon built word by word."""

    @pytest.mark.parametrize("n,m", SMALL_ECHELONS + [(2, 6)])
    def test_reads_out_the_word_level_echelon(self, n, m):
        spec = EchelonSpec(n, m)
        problem = enumerate_echelon(spec)
        words, satisfiable = word_level_echelon(spec)
        for language, expected in ((problem.base, words), (problem.target, satisfiable)):
            plain = FiniteLanguage.of(SAT_ALPHABET, expected)
            assert len(language) == len(plain)
            assert "words" not in vars(language)  # the size is the mask's popcount
            assert language.ordered_words() == sorted(expected)  # product order is sorted order
            assert language == plain and plain == language
            assert hash(language) == hash(plain)
        assert problem.target.issubset(problem.base)

    def test_naive_oracle_reads_the_product_form_as_its_words(self):
        spec = EchelonSpec(3, 2)
        problem = enumerate_echelon(spec)
        words, satisfiable = word_level_echelon(spec)
        plain = DecisionProblem(FiniteLanguage.of(SAT_ALPHABET, words), FiniteLanguage.of(SAT_ALPHABET, satisfiable))
        assert log_rel_naive(problem, candidate_positions=spec.body_positions) == \
            log_rel_naive(plain, candidate_positions=spec.body_positions)


class TestClauseProduct:
    """An echelon's factored region artefacts against the word-level ones of its labelled twin."""

    @pytest.mark.parametrize("n,m", SMALL_ECHELONS)
    def test_factored_artefacts_match_word_level(self, n, m):
        spec = EchelonSpec(n, m)
        problem = enumerate_echelon(spec)
        labels = label_by_literals(spec)
        assert problem.labels is None and problem.target.words == labels.keys()
        factored = Analysis(problem)
        word_level = Analysis(DecisionProblem(problem.base, problem.target, labels))
        assert clause_region_masks(factored) == word_level.region_masks
        # the labelled twin walks its label masks through `bitset` and `extended`: a check on the clause rule
        assert factored.region_logograms == word_level.region_logograms
        strings = set(factored.members).union(*factored.region_logograms)
        for g in strings:
            cyl = factored.index.cylinder_mask(g)
            assert factored.regions_holding(g, cyl) == word_level.regions_holding(g, cyl), g.render()
        assert classify_all(factored) == classify_all(word_level)

    @pytest.mark.parametrize("suite", ["sat", "wizards", "regions"])
    def test_echelon_suites_build_no_region_mask(self, monkeypatch, capsys, suite):
        built = []
        real = Analysis.region_masks.func
        monkeypatch.setattr(Analysis, "region_masks", property(lambda self: built.append(self) or real(self)))
        filtered = ["--ignore-bewitched"] if suite == "regions" else []  # region walks, then `regions_holding`
        assert main(["verify", "--suite", suite, "--n", "3", "--m", "2", *filtered]) == 0
        assert all(analysis.problem.clauses is None for analysis in built)  # no echelon region mask
        assert bool(built) == (suite == "wizards")  # the toy wizard problem's label region masks are built


class TestEffectiveSize:
    def test_paper_values(self):
        assert occurrence_size(PAPER_EXAMPLE) == 4
        assert effective_size(PAPER_EXAMPLE) == 2
        assert is_bewitched(PAPER_EXAMPLE)

    def test_alternate_witness_assignment(self):
        # x4=0, x3=0 also forces the paper formula true
        partial = {4: 0, 3: 0}
        for clause in PAPER_EXAMPLE.clauses:
            assert any(
                (lit > 0 and partial.get(lit) == 1) or (lit < 0 and partial.get(-lit) == 0)
                for lit in clause
            )

    def test_single_variable(self):
        single = CnfInstance.of(1, [[1]])
        assert effective_size(single) == 1
        assert not is_bewitched(single)

    def test_unsatisfiable_returns_declared_n(self):
        empty = CnfInstance.of(1, [[]])
        assert effective_size(empty) == 1
        contradiction = CnfInstance.of(2, [[1], [-1]])
        assert effective_size(contradiction) == 2

    def test_never_exceeds_declared_n(self):
        rng = random.Random(8)
        for _ in range(150):
            inst = random_instance(rng, max_n=3, max_m=3)
            eff = effective_size(inst)
            assert eff <= inst.n
            if not any(satisfies(inst, y) for y in solutions(inst.n)):
                assert eff == inst.n


class TestSelectionOracle:
    def test_known_counts(self):
        assert consistent_selection_count(1, 1) == 2
        assert consistent_selection_count(2, 1) == 4
        assert consistent_selection_count(1, 2) == 2
        assert consistent_selection_count(2, 2) == 12
        assert consistent_selection_count(3, 2) == 30
        assert consistent_selection_count(2, 3) == 28
        assert consistent_selection_count(3, 3) == 126

    def test_matches_direct_enumeration(self):
        for n, m in itertools.product(range(1, 4), range(1, 4)):
            assert len(selection_strings(EchelonSpec(n, m))) == consistent_selection_count(n, m)
