import functools
import gc
import itertools
import json
import operator
import os
import random
import string
import weakref

import pytest
from hypothesis import given, strategies as st

from strtool.languages import (
    BINARY,
    BudgetExceeded,
    FiniteLanguage,
    ProductLanguage,
    TERNARY,
    cylindrify,
    expand_in,
    random_language,
    random_string_set,
    sigma_exact,
    sigma_upto,
)
from strtool.logogram import (
    Analysis,
    CandidateSpace,
    ClauseProduct,
    DecisionProblem,
    ProblemIndex,
    auto_positions,
    _cache_digest,
    cache_file,
    echelon_fingerprint,
    load_logogram_cache,
    log_abs,
    log_rel,
    log_rel_naive,
    logexp,
    logexp_closure_check,
    problem_fingerprint,
    save_logogram_cache,
    set_bits,
    verify_logogram_expansion,
)
from strtool.cli import random_problem
from strtool.independence import complete_independence
from strtool import logogram
from strtool.sat import EchelonSpec, consistent_selection_count, enumerate_echelon
from strtool.strings import Alphabet, AlphabetMismatch, PartialString, reduce_strings, word_includes


def ps(text, alphabet=BINARY):
    return PartialString.parse(alphabet, text)


def lang(words, alphabet=BINARY):
    return FiniteLanguage.of(alphabet, words)


def renders(strings):
    return sorted(g.render() for g in strings)


# Every echelon of at most 3**9 words.
SMALL_ECHELONS = [(n, m) for n in range(1, 10) for m in range(1, 10) if n * m <= 9]


class TestDecisionProblem:
    def test_target_must_be_subset(self):
        with pytest.raises(ValueError):
            DecisionProblem(base=lang(["00"]), target=lang(["11"]))

    def test_regions_must_cover(self):
        E = sigma_exact(BINARY, 1)
        with pytest.raises(ValueError):
            DecisionProblem(base=E, target=E, labels={"0": 1})  # "1" lies in no region
        with pytest.raises(ValueError, match="cover"):
            DecisionProblem(base=E, target=E, labels={"0": 1, "1": 0})  # a zero label
        with pytest.raises(ValueError, match="subset"):
            DecisionProblem(base=E, target=lang(["0"]), labels={"0": 1, "1": 2})  # "1" is not a target word
        with pytest.raises(ValueError, match="cover"):
            DecisionProblem(base=E, target=E, labels={"1": 2})  # the target word "0" is unlabelled
        DecisionProblem(base=E, target=E, labels={"0": 1, "1": 2})

    def test_clause_regions_validated(self):
        E = sigma_exact(BINARY, 2)
        product = ClauseProduct(2, (((1, "1", 2), (2, "0", 1)),))
        assert DecisionProblem(E, E, clauses=product).clauses == product
        with pytest.raises(ValueError, match="not both"):
            DecisionProblem(E, E, labels=dict.fromkeys(E.words, 1), clauses=product)
        for literal in ((0, "1", 1), (1, "2", 1), (1, "1", 0), (1, "1", 4)):  # position, symbol, mask
            with pytest.raises(ValueError, match="bad literal"):
                DecisionProblem(E, E, clauses=ClauseProduct(2, ((literal,),)))

    def test_clause_rule_premise_checked(self):
        """Clause positions must be free positions of a whole product, and leave some symbol making no literal true."""
        E = sigma_exact(BINARY, 2)
        with pytest.raises(ValueError, match="every symbol"):  # the clause is true for every word
            DecisionProblem(E, E, clauses=ClauseProduct(1, (((1, "0", 1), (1, "1", 1)),)))
        product = ClauseProduct(2, (((1, "1", 2), (2, "0", 1)),))
        for base in (lang(E.words), E.masked(0b111), ProductLanguage(BINARY, "1", 1), sigma_exact(BINARY, 1)):
            with pytest.raises(ValueError, match="not a free position"):  # words, a part, a prefix, too short
                DecisionProblem(base, base, clauses=product)
        for n, m in SMALL_ECHELONS:
            assert enumerate_echelon(EchelonSpec(n, m)).clauses is not None

    def test_region_masks_transpose_labels(self):
        rng = random.Random(4)
        E = sigma_exact(BINARY, 8)
        for count in (1, 63, 64, 65, 130):  # up to more regions than a 64-bit word holds
            labels = {w: rng.randrange(1, 1 << count) for w in sorted(E.words) if rng.random() < 0.7}
            labels[min(labels)] |= 1 << count - 1  # the last region is nonempty
            analysis = Analysis(DecisionProblem(E, lang(labels), labels))
            words = analysis.index.words
            assert analysis.region_masks == [sum(1 << k for k, w in enumerate(words) if labels.get(w, 0) >> j & 1)
                                             for j in range(count)]


def cylinder_transpose(analysis):
    """Member masks by transposing the cylinders bit by bit (oracle for `Analysis.member_masks`)."""
    masks = [0] * len(analysis.index.words)
    for i, cyl in enumerate(analysis.cylinders):
        for k in set_bits(cyl):
            masks[k] |= 1 << i
    return masks


class TestMemberMasks:
    """Member masks from position-chunk tables (5 binary or 4 ternary positions a chunk) against the transpose."""

    def test_random_problems(self):
        """Mixed lengths, the empty word and ⊥ members included."""
        rng = random.Random(12)
        bottoms = 0
        for i in range(300):
            problem = random_problem(rng, (BINARY, TERNARY)[i % 2], max_len=rng.randint(1, 10 - i % 2))
            analysis = Analysis(problem)
            assert analysis.member_masks == cylinder_transpose(analysis)
            bottoms += any(not g.entries for g in analysis.members)
        assert bottoms > 20

    @pytest.mark.parametrize("n,m", SMALL_ECHELONS)
    def test_echelons(self, n, m):
        analysis = Analysis(enumerate_echelon(EchelonSpec(n, m)))
        assert analysis.member_masks == cylinder_transpose(analysis)


class TestProblemIndex:
    def test_prefix_detection(self):
        assert ProblemIndex(sigma_exact(BINARY, 2)).prefix_free
        assert not ProblemIndex(lang(["1", "10"])).prefix_free
        idx = ProblemIndex(lang(["0010", "0011", "0001"]))
        assert idx.shared_prefix_len == 2
        assert auto_positions(idx) == (3, 4)

    def test_cylinder_masks(self):
        idx = ProblemIndex(sigma_exact(BINARY, 2))
        assert idx.cylinder_mask(PartialString.bottom(BINARY)) == idx.all_mask
        assert bin(idx.cylinder_mask(ps("1"))).count("1") == 2
        assert idx.cylinder_mask(PartialString.of(BINARY, {5: "1"})) == 0

    def test_masks_agree_with_per_word_bits(self):
        rng = random.Random(9)
        for i in range(300):
            alphabet = (BINARY, TERNARY)[i % 2]
            L = random_language(rng, alphabet, cap=7, max_words=40)
            if not L.words:
                continue
            idx = ProblemIndex(L)
            bit = {w: 1 << k for k, w in enumerate(idx.words)}
            for pos in range(1, idx.max_len + 1):
                for sym in alphabet.symbols:
                    expected = sum(b for w, b in bit.items() if len(w) >= pos and w[pos - 1] == sym)
                    assert idx.pos_masks[pos - 1].get(sym, 0) == expected
            subset = [w for w in idx.words if rng.random() < 0.5]
            mask = sum(bit[w] for w in subset)
            assert idx.word_mask(subset) == mask
            assert idx.mask_language(mask).words == frozenset(subset)
            assert idx.mask_language(idx.all_mask).words == L.words

    def test_columns_and_prefix_facts_agree_with_per_word_scan(self):
        wide = Alphabet(tuple("01" + string.ascii_letters[:38]))  # 40 symbols
        rng = random.Random(23)
        single_length = with_empty = 0
        for i in range(300):
            alphabet = (BINARY, TERNARY, wide)[i % 3]
            if i % 2:  # one word length
                length = rng.randint(1, 6)
                words = {"".join(rng.choices(alphabet.symbols, k=length)) for _ in range(rng.randint(1, 30))}
            else:  # lengths 0..cap
                words = random_language(rng, alphabet, cap=rng.randint(1, 6), max_words=30).words or {""}
            idx = ProblemIndex(lang(words, alphabet))
            assert idx.words == tuple(sorted(words, key=lambda w: (len(w), w)))
            for pos in range(1, idx.max_len + 1):
                expected = {}
                for k, w in enumerate(idx.words):
                    if len(w) >= pos:
                        expected[w[pos - 1]] = expected.get(w[pos - 1], 0) | 1 << k
                assert idx.pos_masks[pos - 1] == expected
            assert idx.prefix_free == (not any(a != b and b.startswith(a) for a in words for b in words))
            shared = len(os.path.commonprefix(sorted(words))) if len(words) > 1 else 0
            assert idx.shared_prefix_len == shared
            single_length += len({len(w) for w in words}) == 1
            with_empty += "" in words
        assert single_length > 150 and with_empty > 20

    def test_closure_mask_agrees_with_startswith_scan(self):
        rng = random.Random(17)
        prefix_free = 0
        for i in range(300):
            alphabet = (BINARY, TERNARY)[i % 2]
            L = random_language(rng, alphabet, cap=5, max_words=30)
            if not L.words:
                continue
            idx = ProblemIndex(L)
            subset = [w for w in idx.words if rng.random() < 0.4]
            closure = [w for w in idx.words if any(w.startswith(a) for a in subset)]
            assert idx.closure_mask(idx.word_mask(subset)) == idx.word_mask(closure)
            prefix_free += idx.prefix_free
        assert 20 < prefix_free < 280

    def test_word_mask_agrees_with_per_word_bits_on_every_share_of_the_base(self):
        rng = random.Random(31)
        prefix_free = empty = whole = 0
        for i in range(400):
            alphabet = (BINARY, TERNARY)[i % 2]
            L = random_language(rng, alphabet, cap=5, max_words=40)
            if not L.words:
                continue
            idx = ProblemIndex(L)
            share = rng.choice((0.0, 0.05, 0.3, 1.0))
            subset = frozenset(w for w in idx.words if rng.random() < share)
            ordinal = {w: k for k, w in enumerate(idx.words)}
            expected = sum(1 << ordinal[w] for w in subset)
            assert idx.word_mask(subset) == idx.word_mask(sorted(subset)) == expected
            closure = [w for w in idx.words if any(w.startswith(a) for a in subset)]
            assert idx.closure_mask(expected) == sum(1 << ordinal[w] for w in closure)
            assert Analysis(DecisionProblem(L, lang(subset, alphabet))).target_mask == idx.closure_mask(expected)
            prefix_free += idx.prefix_free
            empty += not subset
            whole += len(subset) == len(idx.words)
        assert 10 < prefix_free < 350 and min(empty, whole) > 50
        idx = ProblemIndex(sigma_exact(BINARY, 5))
        for foreign in ({"2"}, {"00000", "00001", "00010", "2"}):
            with pytest.raises(KeyError, match="'2'"):  # the error names the foreign word
                idx.word_mask(foreign)


def word_level_index(base):
    """An index of a whole product base's words as a plain language: the word-level path, masks read from the words.

    One index per product is built and kept, since more than one test indexes (2,6)'s 531,441 words.
    """
    assert base.is_full
    return _word_level_product_index(base.alphabet, base.prefix, base.free)


@functools.cache
def _word_level_product_index(alphabet, prefix, free):
    index = ProblemIndex(FiniteLanguage.of(alphabet, ProductLanguage(alphabet, prefix, free).words))
    assert index.product_prefix is None
    return index


def assert_paths_agree(problem):
    """The digit-arithmetic path against the word-level one on one full-product base.

    Position masks, keys, reachable keys and member masks are compared with a word-level
    index of the same base, and log_rel runs once on each, over the default positions and,
    where the space is small, over positions that add the last prefix position and one past
    the end.
    """
    analysis = Analysis(problem)
    index = analysis.index
    assert index.product_prefix is not None
    word_index = word_level_index(problem.base)
    assert index.pos_masks == word_index.pos_masks
    radix = len(index.alphabet.symbols) + 1
    free = auto_positions(index)
    wider = (*range(1, index.shared_prefix_len + 1)[-1:], *free, index.max_len + 1)
    for positions in [free, wider] if radix ** len(wider) <= 4 ** 8 else [free]:
        space, word_space = CandidateSpace(index, positions), CandidateSpace(word_index, positions)
        assert space.keys.tolist() == word_space.keys.tolist()
        assert space.reachable == word_space.reachable
        assert log_rel(problem, space=space) == log_rel(problem, space=word_space)
    assert all(len(index.product_prefix) < pos <= index.max_len for pos in analysis.position_choices)
    full = (1 << len(analysis.members)) - 1
    assert analysis.member_masks == logogram._word_member_masks(analysis.position_choices, word_index, full)


def random_target(base, seed):
    rng = random.Random(seed)
    return FiniteLanguage.of(base.alphabet, [w for w in sorted(base.words) if rng.random() < 0.5])


def echelon_base(n, m):
    return enumerate_echelon(EchelonSpec(n, m)).base


class TestFullProductIndex:
    """A base that is prefix·Σ^k is indexed by digit arithmetic, and agrees with the word-level path."""

    @pytest.mark.parametrize("n, m", SMALL_ECHELONS + [(2, 6)])
    def test_echelons(self, n, m):
        problem = enumerate_echelon(EchelonSpec(n, m))
        assert ProblemIndex(problem.base).product_prefix == EchelonSpec(n, m).prefix
        assert_paths_agree(problem)

    @pytest.mark.parametrize("alphabet, length", [(BINARY, k) for k in range(7)] + [(TERNARY, k) for k in range(5)])
    def test_sigma_exact_slices(self, alphabet, length):
        base = sigma_exact(alphabet, length)
        assert ProblemIndex(base).product_prefix == ""
        for seed in range(3):
            assert_paths_agree(DecisionProblem(base, random_target(base, seed)))

    @pytest.mark.parametrize("make, args", [(echelon_base, nm) for nm in SMALL_ECHELONS + [(2, 6)]]
                             + [(sigma_exact, (alphabet, k)) for alphabet in (BINARY, TERNARY, Alphabet.of("102"))
                                for k in range(5)]
                             + [(ProductLanguage, (TERNARY, "2102", 0)), (ProductLanguage, (BINARY, "0110", 0))])
    def test_product_form_indexes_as_its_words(self, make, args):
        """A product-form base is indexed without a sort, exactly as the plain language of its words."""
        base = make(*args)
        index = ProblemIndex(base)
        assert "words" not in vars(index) and "words" not in vars(base)
        plain = word_level_index(base)
        assert (index.product_prefix, plain.product_prefix) == (base.prefix, None)
        for name in ("shared_prefix_len", "max_len", "all_mask", "prefix_free", "pos_masks", "words"):
            assert getattr(index, name) == getattr(plain, name), name
        rng = random.Random(len(base))
        target = base.masked(rng.getrandbits(len(base)))
        word_target = FiniteLanguage.of(base.alphabet, target.words)
        product_form = Analysis(DecisionProblem(base, target), budget=4 ** 9)
        assert product_form.target_mask == target.mask == plain.closure_mask(plain.language_mask(word_target))
        if len(auto_positions(index)) <= 9:
            word_form = log_rel(DecisionProblem(plain.language, word_target),
                                space=CandidateSpace(plain, auto_positions(plain), 4 ** 9))
            assert product_form.logogram == word_form
            assert product_form.index.mask_language(product_form.target_mask) == target

    def test_masked_product_base_is_indexed_by_its_words(self):
        """A part of a product is a base given by words, even when those words form a smaller product."""
        whole = ProductLanguage(TERNARY, "1", 2)
        for mask in (0b111, 0b111 << 3, 0b101010101, 0b11):  # "10x", "11x", a scatter, two words
            base = whole.masked(mask)
            index = ProblemIndex(base)
            assert index.words == tuple(sorted(base.ordered_words()))
            assert index.mask_language(index.all_mask) == base
            assert index.mask_language(1) == lang([index.words[0]], TERNARY)
            assert index.language_mask(base) == index.all_mask
            problem = DecisionProblem(base, random_target(base, mask))
            plain = DecisionProblem(lang(base.words, TERNARY), problem.target)
            assert log_rel(problem) == log_rel(plain)
            assert log_rel(problem, restrict="never", keep_full=True).reduced == log_rel_naive(problem)[1]

    @pytest.mark.parametrize("word", ["", "0", "0110", "2102"])
    def test_one_word_base(self, word):
        base = ProductLanguage(TERNARY, word, 0)
        assert ProblemIndex(base).product_prefix == word
        for target in ([], [word]):
            assert_paths_agree(DecisionProblem(base, lang(target, TERNARY)))

    def test_alphabet_order_differs_from_code_points(self):
        """Key digits follow the alphabet's order (1, 0, 2), index order the code points (0, 1, 2)."""
        alphabet = Alphabet.of("102")
        for base in (sigma_exact(alphabet, 4), ProductLanguage(alphabet, "21", 3)):
            index = ProblemIndex(base)
            assert index.words == tuple(sorted(base.words))
            positions = auto_positions(index)
            keys = CandidateSpace(index, positions).keys[:3]  # words ...0, ...1, ...2
            assert [key // 4 ** (len(positions) - 1) for key in keys] == [2, 1, 3]  # the last position's digit
            for seed in range(3):
                assert_paths_agree(DecisionProblem(base, random_target(base, seed)))

    @pytest.mark.parametrize("alphabet, prefix, free", [(TERNARY, "12", 3), (BINARY, "", 4), (BINARY, "0", 0)])
    def test_member_masks_are_exact_for_any_members(self, alphabet, prefix, free):
        """Members with entries at prefix positions, matching or not, and past the end get their cylinders' masks."""
        base = ProductLanguage(alphabet, prefix, free)
        length = len(prefix) + free
        rng = random.Random(len(prefix) * 10 + free)
        members = [PartialString.parse(alphabet, "-")]
        for _ in range(30):
            picked = sorted(rng.sample(range(1, length + 3), rng.randint(1, min(4, length + 2))))
            members.append(PartialString(alphabet, tuple((pos, rng.choice(alphabet.symbols)) for pos in picked)))
        analysis = Analysis(DecisionProblem(base, lang([], alphabet)))
        assert analysis.index.product_prefix == prefix
        vars(analysis)["members"] = members  # members other than the logogram's: the builder must not rely on minimality
        full = (1 << len(members)) - 1
        assert logogram._product_member_masks(analysis.position_choices, analysis.index, full) \
            == cylinder_transpose(analysis) \
            == logogram._word_member_masks(analysis.position_choices, analysis.index, full)

    def test_other_bases_take_the_word_path(self, monkeypatch):
        product = sigma_exact(TERNARY, 3)
        bases = [
            FiniteLanguage.of(TERNARY, product.words),  # the words of a full product, given as words
            FiniteLanguage.of(TERNARY, {"21" + w for w in product.words}),  # the same behind a shared prefix
            lang(["0110"], TERNARY),  # one word
            FiniteLanguage.of(TERNARY, product.words - {"120"}),  # a product minus one word
            FiniteLanguage.of(TERNARY, {"1" + w for w in product.words} - {"1000"} | {"000"}),  # same count, two lengths
            sigma_upto(BINARY, 3),
            lang(["0", "10", "11"]),
        ]
        for base in bases:
            assert ProblemIndex(base).product_prefix is None
        for name in ("_product_position_masks", "_product_keys", "_product_reachable", "_product_member_masks"):
            monkeypatch.setattr(logogram, name, None)
        for seed, base in enumerate(bases):
            problem = DecisionProblem(base, random_target(base, seed))
            analysis = Analysis(problem)
            assert analysis.member_masks == cylinder_transpose(analysis)
            assert analysis.logogram.reduced == log_rel_naive(problem)[1]


class TestLogRel:
    def test_two_word_target(self):
        problem = DecisionProblem(sigma_exact(BINARY, 2), lang(["10", "11"]))
        result = log_rel(problem, keep_full=True)
        assert renders(result.full) == ["1", "10", "11"]
        assert renders(result.reduced) == ["1"]
        assert result.reduced == reduce_strings(result.full)
        assert result.candidate_space_size == 9

    def test_members_have_nonvoid_cylinders_inside_target_closure(self):
        rng = random.Random(4)
        for _ in range(25):
            problem = random_problem(rng, TERNARY, max_len=3)
            result = log_rel(problem, keep_full=True, restrict="never")
            closure = cylindrify(problem.target, problem.base)
            for g in result.full:
                cyl = expand_in({g}, problem.base)
                assert len(cyl) > 0
                assert cyl.issubset(closure)

    def test_monotone_in_target(self):
        E = sigma_exact(BINARY, 2)
        A = lang(["01", "10"])
        B = lang(["01", "10", "11"])
        ra = log_rel(DecisionProblem(E, A), keep_full=True)
        rb = log_rel(DecisionProblem(E, B), keep_full=True)
        assert ra.full <= rb.full

    def test_union_can_be_strictly_larger(self):
        E = sigma_exact(BINARY, 2)
        A, B = lang(["01", "10"]), lang(["00", "11"])
        ra = log_rel(DecisionProblem(E, A), keep_full=True)
        rb = log_rel(DecisionProblem(E, B), keep_full=True)
        ru = log_rel(DecisionProblem(E, A.union(B)), keep_full=True)
        assert (ra.full | rb.full) < ru.full
        assert PartialString.bottom(BINARY) in ru.full
        assert renders(ru.reduced) == [""]

    def test_empty_target(self):
        problem = DecisionProblem(sigma_exact(BINARY, 2), lang([]))
        result = log_rel(problem, keep_full=True)
        assert result.full == frozenset()

    def test_empty_base_is_an_error(self):
        with pytest.raises(ValueError):
            log_rel(DecisionProblem(lang([]), lang([])))

    def test_budget(self):
        problem = DecisionProblem(sigma_exact(BINARY, 3), lang(["111"]))
        with pytest.raises(BudgetExceeded) as err:
            log_rel(problem, budget=10)
        assert err.value.size == 3 ** 3

    def test_prefix_restriction_matches_unrestricted_reduction(self):
        E = lang(["0010", "0011", "0001", "0000"])
        problem = DecisionProblem(E, lang(["0011", "0001"]))
        auto = log_rel(problem, restrict="auto", keep_full=True)
        plain = log_rel(problem, restrict="never", keep_full=True)
        assert auto.restricted and not plain.restricted
        assert auto.reduced == plain.reduced
        assert expand_in(auto.full, E) == expand_in(plain.full, E)
        assert auto.full < plain.full

    def test_unknown_restrict_is_rejected(self):
        U = sigma_exact(BINARY, 2)
        with pytest.raises(ValueError, match="restrict"):
            log_rel(DecisionProblem(U, U), restrict="bogus")

    def test_walks_leave_no_reference_cycles(self):
        problem = enumerate_echelon(EchelonSpec(2, 2))
        gc.collect()
        gc.disable()
        try:
            log_rel(problem)
            assert gc.collect() == 0
            Analysis(problem).region_logograms
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_failing_counterexample_search_leaves_no_reference_cycles(self):
        # no word realizes {1, __1} or {_1, __1}, so the search walks subsets up to size 2
        base = lang(["000", "100", "010", "001", "110", "111"])
        analysis = Analysis(DecisionProblem(base, lang(base.words - {"000"})))
        analysis.realized_masks
        gc.collect()
        gc.disable()
        try:
            assert complete_independence(analysis).counterexample.strings == ("1", "__1")
            assert gc.collect() == 0
        finally:
            gc.enable()


def brute_qualifying(problem, positions):
    """Digit tuples of every candidate whose cylinder is nonempty and inside the target's closure."""
    closure = cylindrify(problem.target, problem.base).words
    symbols = problem.alphabet.symbols
    out = set()
    for digits in itertools.product(range(len(symbols) + 1), repeat=len(positions)):
        g = PartialString(problem.alphabet, tuple((p, symbols[d - 1]) for p, d in zip(positions, digits) if d))
        cyl = [w for w in problem.base.words if word_includes(w, g)]
        if cyl and all(w in closure for w in cyl):
            out.add(digits)
    return out


def digits_to_strings(problem, positions, digit_tuples):
    symbols = problem.alphabet.symbols
    return frozenset(
        PartialString(problem.alphabet, tuple((p, symbols[d - 1]) for p, d in zip(positions, t) if d))
        for t in digit_tuples
    )


@st.composite
def naive_cases(draw):
    """Binary or ternary problems with mixed lengths and the empty word, and default or explicit positions."""
    alphabet = draw(st.sampled_from((BINARY, TERNARY)))
    words = draw(st.sets(st.text(alphabet=alphabet.symbols, max_size=4), min_size=1, max_size=12))
    target = draw(st.sets(st.sampled_from(sorted(words))))
    positions = draw(st.none() | st.sets(st.integers(1, 6), max_size=5 if alphabet is BINARY else 4))
    return DecisionProblem(lang(words, alphabet), lang(target, alphabet)), positions


def chain_walk_cases():
    """Seeded random problems with all or explicit positions, then fixed edge cases."""
    rng = random.Random(23)
    for i in range(24):
        alphabet = (BINARY, TERNARY)[i % 2]
        problem = random_problem(rng, alphabet, max_len=rng.randint(1, 4))
        top = max(map(len, problem.base.words))
        if i % 3 == 0:  # explicit positions, some past every word
            yield problem, tuple(sorted(rng.sample(range(1, top + 3), min(top + 2, 4 if alphabet is BINARY else 3))))
        else:
            yield problem, tuple(range(1, top + 1))
    base = lang(["", "1", "10", "011", "0110", "111"])
    yield DecisionProblem(base, lang([])), (1, 2, 3, 4)
    yield DecisionProblem(base, base), (1, 2, 3, 4)
    yield DecisionProblem(base, lang(["10", "011"])), (2,)
    yield DecisionProblem(base, lang(["10", "011"])), ()
    yield DecisionProblem(base, base), ()
    ternary = lang(["2", "20", "012", "1201", "22"], TERNARY)
    yield DecisionProblem(ternary, lang(["012", "1201"], TERNARY)), (1, 2, 3, 4, 5)


class TestChainWalk:
    """The bitset kernel against a brute-force scan of every candidate."""

    @pytest.mark.parametrize("problem,positions", list(chain_walk_cases()))
    def test_against_brute_force_scan(self, problem, positions):
        base = len(problem.alphabet.symbols) + 1
        qualifying = brute_qualifying(problem, positions)
        idx = ProblemIndex(problem.base)
        bad_mask = idx.all_mask & ~idx.word_mask(cylindrify(problem.target, problem.base).words)
        keys = set_bits(CandidateSpace(idx, positions).qualifying(bad_mask))
        assert keys == sorted(sum(d * base ** j for j, d in enumerate(t)) for t in qualifying)
        result = log_rel(problem, positions, keep_full=True)
        assert result.full == digits_to_strings(problem, positions, qualifying)
        assert result.full_count == len(qualifying)
        assert result.reduced == reduce_strings(result.full)


class TestKernel:
    def test_forty_symbol_alphabet_agrees_with_naive_oracle(self):
        alphabet = Alphabet.of("0123456789abcdefghijklmnopqrstuvwxyzABCD")  # key base 41, past int()'s 36
        rng = random.Random(40)
        for max_len, positions in ((2, None), (3, (1, 3))):
            words = {"".join(rng.choice(alphabet.symbols[30:]) for _ in range(rng.randint(0, max_len)))
                     for _ in range(60)}
            E = lang(words, alphabet)
            problem = DecisionProblem(E, lang([w for w in sorted(words) if rng.random() < 0.5], alphabet))
            naive_full, naive_reduced = log_rel_naive(problem, positions)
            result = log_rel(problem, positions, keep_full=True, restrict="never")
            assert result.full == naive_full and result.reduced == naive_reduced
            assert any(g.entries and max(alphabet.symbols.index(c) for _, c in g.entries) >= 36
                       for g in result.full)

    @pytest.mark.parametrize("n, m, full_count, reduced", [
        (4, 2, 57_088, 56), (3, 3, 157_184, 126), (2, 5, 63_072, 124), (5, 2, 981_504, 90),
    ])
    def test_echelon_counts(self, n, m, full_count, reduced):
        spec = EchelonSpec(n, m)
        result = log_rel(enumerate_echelon(spec), spec.body_positions, keep_full=False)
        assert (result.full_count, len(result.reduced)) == (full_count, reduced)
        assert reduced == consistent_selection_count(n, m)

    def test_logogram_walk_releases_its_space(self, monkeypatch):
        """No candidate space that `Analysis.logogram` created outlives the walk: the index keeps none."""
        built = []
        make = logogram.CandidateSpace

        def tracked(*args):
            space = make(*args)
            built.append(weakref.ref(space))
            return space

        monkeypatch.setattr(logogram, "CandidateSpace", tracked)
        analysis = Analysis(enumerate_echelon(EchelonSpec(3, 3)))
        assert len(analysis.logogram.reduced) == 126
        assert len(built) == 1 and built[0]() is None

    def test_region_walks_share_one_space(self, monkeypatch):
        """The 16 region walks on (4,2) build one space, and its digit-0 masks and reachable keys once."""
        builds, reads = [], []
        make = logogram.CandidateSpace
        monkeypatch.setattr(logogram, "CandidateSpace", lambda *args: builds.append(args) or make(*args))
        for name in ("zero", "reachable"):
            counted = functools.cached_property(lambda space, read=make.__dict__[name].func, name=name:
                                                reads.append(name) or read(space))
            counted.__set_name__(make, name)
            monkeypatch.setattr(make, name, counted)
        analysis = Analysis(enumerate_echelon(EchelonSpec(4, 2)))
        assert len(analysis.region_logograms) == 16
        assert len(builds) == 1 and sorted(reads) == ["reachable", "zero"]

    def test_space_and_positions_are_not_both_given(self):
        problem = enumerate_echelon(EchelonSpec(2, 1))
        space = CandidateSpace(ProblemIndex(problem.base), (1, 2))
        with pytest.raises(ValueError, match="not both"):
            log_rel(problem, (1, 2), space=space)

    def test_clause_region_walks_read_no_word_key(self, monkeypatch):
        """A clause-product region walk, over any positions, matches its labelled twin's walk and reads no word key."""
        problem = enumerate_echelon(EchelonSpec(2, 2))
        product = problem.clauses
        labels = {}
        for w in problem.target.words:
            label = (1 << product.regions) - 1
            for clause in product.clauses:
                label &= functools.reduce(operator.or_, [mask for pos, sym, mask in clause if w[pos - 1] == sym], 0)
            labels[w] = label
        twin = Analysis(DecisionProblem(problem.base, problem.target, labels))
        index = ProblemIndex(problem.base)
        body = EchelonSpec(2, 2).body_positions
        for positions in (auto_positions(index), tuple(range(1, index.max_len + 1)), body[1:3],
                          body[::2] + (index.max_len + 1,)):
            space = CandidateSpace(index, positions)
            for j, mask in enumerate(twin.region_masks):
                expected = log_rel(twin.problem, positions, closure=mask, keep_full=True)
                with monkeypatch.context() as patch:
                    for name in ("bitset", "extended"):
                        patch.setattr(logogram.CandidateSpace, name, None)
                    assert log_rel(problem, space=space, region=j, keep_full=True) == expected
            assert "keys" not in vars(space)  # no word key is built
        for bad, walked in ((product.regions, problem), (0, twin.problem)):
            with pytest.raises(ValueError, match="clause-product region"):
                log_rel(walked, region=bad)


def assert_memo_bound(alphabet):
    """The alphabet's decode memo holds at most the candidate space of its kept positions."""
    decoder = logogram._decoder(alphabet)
    assert len(decoder.memo) <= (len(alphabet.symbols) + 1) ** len(decoder.positions)


def reference_decode(alphabet, positions, key):
    """Digit by digit: digit j of the key (base len(symbols) + 1) is the symbol code at positions[j], 0 = undefined."""
    base = len(alphabet.symbols) + 1
    entries = []
    for p in positions:
        key, d = divmod(key, base)
        if d:
            entries.append((p, alphabet.symbols[d - 1]))
    return PartialString(alphabet, tuple(entries))


class TestDecode:
    """CandidateSpace.decode, chunk by chunk, against the digit-by-digit reference decoder."""

    @pytest.mark.parametrize("alphabet", [BINARY, TERNARY], ids=["binary", "ternary"])
    def test_random_positions_and_keys(self, alphabet):
        rng = random.Random(16 + len(alphabet))
        most = 11 if alphabet is BINARY else 9  # three decode chunks: 5 binary or 4 ternary positions each
        chunk_counts = set()
        past_max_len = 0
        for _ in range(40):
            words = {"".join(rng.choice(alphabet.symbols) for _ in range(rng.randint(0, 6))) for _ in range(12)}
            index = ProblemIndex(lang(words, alphabet))
            pool = range(1, index.max_len + 6)
            positions = tuple(sorted(rng.sample(pool, rng.randint(0, min(most, len(pool))))))
            space = CandidateSpace(index, positions)
            keys = [0, space.size - 1, *(rng.randrange(space.size) for _ in range(200))]
            assert space.decode(keys) == [reference_decode(alphabet, positions, k) for k in keys]
            assert_memo_bound(alphabet)
            chunk_counts.add(-(-len(positions) // logogram._chunk_width(len(alphabet.symbols) + 1)))
            past_max_len += any(p > index.max_len for p in positions)
        assert chunk_counts >= {0, 1, 2, 3} and past_max_len > 10

    @pytest.mark.parametrize("restrict", ["auto", "never"])
    def test_log_rel_strings_in_both_restrict_modes(self, restrict):
        rng = random.Random(61)
        restricted = 0
        for i in range(40):
            alphabet = (BINARY, TERNARY)[i % 2]
            problem = random_problem(rng, alphabet, max_len=rng.randint(1, 5))
            if i % 4 < 2:  # a shared prefix, which restrict="auto" drops from the positions
                base = lang({"01" + w for w in problem.base.words}, alphabet)
                problem = DecisionProblem(base, lang({"01" + w for w in problem.target.words}, alphabet))
            index = ProblemIndex(problem.base)
            result = log_rel(problem, restrict=restrict, keep_full=True)
            space = CandidateSpace(index, result.positions)
            closure = index.word_mask(cylindrify(problem.target, problem.base).words)
            keys = set_bits(space.qualifying(index.all_mask & ~closure))
            assert result.full == frozenset(reference_decode(alphabet, result.positions, k) for k in keys)
            assert result.reduced == reduce_strings(result.full)
            restricted += result.restricted
        assert (restricted > 10) == (restrict == "auto")

    def test_decoded_strings_equal_validated_strings(self):
        """decode builds its strings unchecked; each equals the validating constructor's, field for field."""
        rng = random.Random(23)
        problems = [random_problem(rng, (BINARY, TERNARY)[i % 2], max_len=rng.randint(1, 5)) for i in range(30)]
        problems.append(enumerate_echelon(EchelonSpec(3, 2)))
        decoded = 0
        for problem in problems:
            result = log_rel(problem, keep_full=True)
            for g in result.full | result.reduced:
                checked = PartialString(g.alphabet, g.entries)
                assert type(g) is PartialString and type(g.entries) is tuple
                assert (g.alphabet, g.entries) == (checked.alphabet, checked.entries)
                assert g == checked and hash(g) == hash(checked)
                decoded += 1
        assert decoded > 1000


class TestDecodeMemo:
    """The decoded strings are memoized per alphabet while the positions nest: a pure function of the key."""

    def test_expansion_check_decodes_no_key_twice(self, monkeypatch):
        """log_rel then verify_logogram_expansion on one problem build one string per distinct key."""
        rng = random.Random(25)
        problems = [random_problem(rng, (BINARY, TERNARY)[i % 2], max_len=rng.randint(2, 5)) for i in range(20)]
        problems = [p for p in problems if ProblemIndex(p.base).shared_prefix_len == 0]
        made = []
        unchecked = PartialString._unchecked.__func__
        monkeypatch.setattr(PartialString, "_unchecked",
                            classmethod(lambda cls, *args: made.append(args) or unchecked(cls, *args)))
        built = 0
        for problem in problems:
            logogram._decoder.cache_clear()
            made.clear()
            result = log_rel(problem, restrict="never", keep_full=True)
            assert verify_logogram_expansion(problem)
            assert len(made) == len(result.full)  # the reduced keys are full keys: no second build
            built += len(made)
        assert len(problems) > 10 and built > 100

    def test_strings_follow_changes_of_alphabet_and_positions(self):
        rng = random.Random(26)
        bases = {BINARY: ProblemIndex(sigma_upto(BINARY, 6)), TERNARY: ProblemIndex(sigma_upto(TERNARY, 6))}
        position_sets = [(1, 2, 3), (2, 3, 4), (1, 2, 3, 4, 5, 6), (1, 2, 3)]
        logogram._decoder.cache_clear()
        for positions in position_sets:
            for alphabet in (BINARY, TERNARY, BINARY):  # the same positions under both alphabets in turn
                space = CandidateSpace(bases[alphabet], positions)
                keys = [0, space.size - 1, *(rng.randrange(space.size) for _ in range(100))]
                assert space.decode(keys) == [reference_decode(alphabet, positions, k) for k in keys]
                assert logogram._decoder.cache_info().currsize <= 2
                assert_memo_bound(alphabet)

    @pytest.mark.parametrize("alphabet", [BINARY, TERNARY], ids=["binary", "ternary"])
    def test_nested_positions_share_their_strings(self, alphabet):
        """A key decodes to one object over (1..L) and over any (1..L') that extends or prefixes it."""
        logogram._decoder.cache_clear()
        index = ProblemIndex(sigma_upto(alphabet, 6))
        short, long = CandidateSpace(index, (1, 2, 3)), CandidateSpace(index, (1, 2, 3, 4, 5))
        keys = range(short.size)  # every key over (1, 2, 3) is a key over (1..5) too
        first = short.decode(keys)
        extended = long.decode([*keys, long.size - 1])
        assert all(map(operator.is_, first, extended))
        assert first == [reference_decode(alphabet, (1, 2, 3), k) for k in keys]
        assert extended[:-1] == [reference_decode(alphabet, (1, 2, 3, 4, 5), k) for k in keys]
        assert all(map(operator.is_, short.decode(keys), first))  # a prefix of the kept positions
        assert logogram._decoder(alphabet).positions == (1, 2, 3, 4, 5)
        assert_memo_bound(alphabet)

    @pytest.mark.parametrize("positions", [(2, 3), (1, 3), (1, 2, 4), (3, 4, 5, 6)])
    def test_positions_that_do_not_nest_start_a_new_memo(self, positions):
        """After (1, 2, 3), a tuple that neither extends nor prefixes it never gets a string decoded over it."""
        logogram._decoder.cache_clear()
        index = ProblemIndex(sigma_upto(TERNARY, 6))
        kept = CandidateSpace(index, (1, 2, 3))
        kept.decode(range(kept.size))
        space = CandidateSpace(index, positions)
        keys = range(space.size)
        assert space.decode(keys) == [reference_decode(TERNARY, positions, k) for k in keys]
        assert logogram._decoder(TERNARY).positions == positions
        assert len(logogram._decoder(TERNARY).memo) == space.size
        assert_memo_bound(TERNARY)

    def test_memo_bound_over_many_problems(self):
        """One entry per alphabet, and no memo past the candidate space of its kept positions."""
        rng = random.Random(29)
        logogram._decoder.cache_clear()
        for i in range(60):
            alphabet = (BINARY, TERNARY)[i % 2]
            problem = random_problem(rng, alphabet, max_len=rng.randint(1, 6))
            log_rel(problem, restrict=("auto", "never")[i % 3 == 0], keep_full=True)
            assert_memo_bound(alphabet)
            assert logogram._decoder.cache_info().currsize == min(i + 1, 2)

    def test_plain_judges_unchanged_with_the_memo_warm(self):
        rng = random.Random(27)
        for i in range(20):
            problem = random_problem(rng, (BINARY, TERNARY)[i % 2], max_len=rng.randint(1, 4))
            logogram._decoder.cache_clear()
            cold_full, cold_reduced = log_rel_naive(problem)
            engine = log_rel(problem, restrict="never", keep_full=True)  # warms the memo over these positions
            assert logogram._decoder.cache_info().currsize == 1
            assert log_rel_naive(problem) == (cold_full, cold_reduced) == (engine.full, engine.reduced)
            assert reduce_strings(engine.full) == reduce_strings(cold_full) == cold_reduced


def set_bits_cases(rng):
    """Integers of 0 to 2^20 bits, one set bit to all ones, with set bits at byte, word and block edges."""
    yield 0
    block = logogram.SET_BITS_BLOCK
    edges = [7, 8, 63, 64, block - 1, block, block + 1, 2 * block - 1, 2 * block]
    for length in [1, 8, 9, 64, 65, 4097, block, block + 1, 1 << 16, 1 << 20]:
        yield 1 << (length - 1)
        yield (1 << length) - 1
        for density in (0.001, 0.05, 0.5):
            digits = "".join("1" if rng.random() < density else "0" for _ in range(length - 1))
            yield int("1" + digits, 2) | sum(1 << k for k in edges if k < length)


class TestSetBits:
    def test_against_bit_by_bit_reading(self):
        rng = random.Random(28)
        checked = 0
        for x in set_bits_cases(rng):
            if x.bit_length() <= 1 << 13:
                expected = [k for k in range(x.bit_length()) if x >> k & 1]
            else:  # x >> k costs x's length, so read bit by bit from its bytes: the same judge, linear
                data = x.to_bytes((x.bit_length() + 7) // 8, "little")
                expected = [k for k in range(x.bit_length()) if data[k >> 3] >> (k & 7) & 1]
            assert set_bits(x) == expected
            checked += 1
        assert checked == 51


class TestNaiveOracle:
    def test_agrees_on_seeded_problems(self):
        rng = random.Random(11)
        for i in range(40):
            alphabet = (BINARY, TERNARY)[i % 2]
            problem = random_problem(rng, alphabet, max_len=rng.randint(1, 4))
            naive_full, naive_reduced = log_rel_naive(problem)
            plain = log_rel(problem, restrict="never", keep_full=True)
            assert plain.full == naive_full
            assert plain.reduced == naive_reduced

    def test_agrees_on_mixed_length_bases(self):
        problem = DecisionProblem(lang(["1", "10", "00", ""]), lang(["1", "10"]))
        naive_full, naive_reduced = log_rel_naive(problem)
        plain = log_rel(problem, restrict="never", keep_full=True)
        assert plain.full == naive_full and plain.reduced == naive_reduced

    def test_budget(self):
        problem = DecisionProblem(sigma_exact(BINARY, 3), lang(["111"]))
        with pytest.raises(BudgetExceeded):
            log_rel_naive(problem, budget=10)

    @given(naive_cases())
    def test_matches_definition(self, case):
        problem, positions = case
        scanned = tuple(sorted(positions)) if positions is not None \
            else tuple(range(1, max(map(len, problem.base.words)) + 1))
        qualifying = digits_to_strings(problem, scanned, brute_qualifying(problem, scanned))
        assert log_rel_naive(problem, positions) == (qualifying, reduce_strings(qualifying))

    def test_empty_positions(self):
        bottom = PartialString.bottom(BINARY)
        inside = DecisionProblem(lang(["", "01", "1"]), lang(["", "1"]))
        assert log_rel_naive(inside, ()) == ({bottom}, {bottom})
        outside = DecisionProblem(lang(["", "01", "1"]), lang(["01"]))
        assert log_rel_naive(outside, ()) == (frozenset(), frozenset())

    @pytest.mark.parametrize("positions", [(0,), (-1, 2)])
    def test_rejects_positions_below_one(self, positions):
        problem = DecisionProblem(lang(["01", "1"]), lang(["1"]))
        with pytest.raises(ValueError, match="candidate positions must be >= 1"):
            log_rel_naive(problem, positions)

    def test_strings_are_exact_values(self):
        """Every string is a PartialString of (int, str) entries at increasing positions, on domains of 0, 1 and more."""
        rng = random.Random(30)
        domain_sizes = set()
        for i in range(40):
            alphabet = (BINARY, TERNARY)[i % 2]
            problem = random_problem(rng, alphabet, max_len=rng.randint(1, 4))
            positions = tuple(sorted(rng.sample(range(1, 6), rng.randint(1, 3)))) if i % 4 else None
            full, reduced = log_rel_naive(problem, positions)
            for g in full | reduced:
                assert type(g) is PartialString and type(g.entries) is tuple
                assert all(type(e) is tuple and len(e) == 2 and type(e[0]) is int and type(e[1]) is str
                           for e in g.entries)
                assert (g.alphabet, g.entries) == PartialString(alphabet, g.entries)  # in-alphabet, increasing
                domain_sizes.add(min(len(g.entries), 2))
            assert full == log_rel(problem, positions, keep_full=True, restrict="never").full
        assert domain_sizes == {0, 1, 2}

    def test_builds_no_engine_tables(self, monkeypatch):
        spec = EchelonSpec(2, 2)
        cases = [(random_problem(random.Random(12), TERNARY, max_len=4), None),
                 (enumerate_echelon(spec), spec.body_positions)]
        expected = [log_rel_naive(problem, positions) for problem, positions in cases]

        def forbidden(*args, **kwargs):
            raise AssertionError("the oracle must not use the engine")

        for name in ("ProblemIndex", "CandidateSpace", "_word_keys"):
            monkeypatch.setattr(logogram, name, forbidden)
        assert [log_rel_naive(problem, positions) for problem, positions in cases] == expected


@st.composite
def full_slice_cases(draw):
    """A binary or ternary full slice with cap 0-3, and a random subset F of it."""
    universe = sigma_upto(draw(st.sampled_from((BINARY, TERNARY))), draw(st.integers(0, 3)))
    F = draw(st.sets(st.sampled_from(sorted(universe.words))))
    return lang(F, universe.alphabet), universe


class TestLogAbs:
    def test_single_prefix(self):
        universe = sigma_upto(BINARY, 2)
        result = log_abs(lang(["1"]), universe, keep_full=True)
        assert renders(result.full) == ["1", "10", "11"]
        assert renders(result.reduced) == ["1"]

    def test_full_target(self):
        universe = sigma_upto(BINARY, 1)
        result = log_abs(universe, universe, keep_full=True)
        assert PartialString.bottom(BINARY) in result.full
        assert renders(result.reduced) == [""]

    def test_empty_target(self):
        universe = sigma_upto(BINARY, 2)
        assert log_abs(lang([]), universe, keep_full=True).full == frozenset()

    def test_requires_full_slice(self):
        with pytest.raises(ValueError):
            log_abs(lang(["1"]), lang(["1", "10"]))

    @given(full_slice_cases())
    def test_matches_plain_judge(self, case):
        F, universe = case
        result = log_abs(F, universe, keep_full=True)
        full, reduced = log_rel_naive(DecisionProblem(universe, F))
        assert (result.full, result.reduced) == (full, reduced)
        assert result.positions == tuple(range(1, universe.max_len + 1))
        assert not result.restricted
        assert result.full_count == len(full)

    def test_budget_below_candidate_space(self):
        with pytest.raises(BudgetExceeded) as err:
            log_abs(lang(["1"]), sigma_upto(BINARY, 2), budget=8)
        assert err.value.size == 3 ** 2

    def test_target_outside_universe(self):
        with pytest.raises(ValueError, match="subset"):
            log_abs(lang(["111"]), sigma_upto(BINARY, 2))

    def test_mixed_alphabets(self):
        with pytest.raises(AlphabetMismatch):
            log_abs(lang(["1"], TERNARY), sigma_upto(BINARY, 2))


class TestLogExpClosure:
    def test_laws_on_random_sets(self):
        rng = random.Random(2)
        universe = sigma_upto(BINARY, 2)
        for _ in range(30):
            H = random_string_set(rng, BINARY, 2)
            report = logexp_closure_check(H, universe)
            assert report.extensive and report.idempotent and report.monotone

    def test_one_index_per_check(self, monkeypatch):
        built = []
        init = ProblemIndex.__init__

        def counting_init(self, base):
            built.append(base)
            init(self, base)

        monkeypatch.setattr(ProblemIndex, "__init__", counting_init)
        universe = sigma_upto(BINARY, 2)
        assert logexp_closure_check(frozenset({ps("0")}), universe).holds
        assert built == [universe]
        assert logexp_closure_check(frozenset({ps("0")}), universe, partner=frozenset({ps("1")})).union_strict
        assert built == [universe, universe]
        with pytest.raises(ValueError, match="full length-capped slice"):
            logexp_closure_check(frozenset({ps("0")}), lang(["1", "10"]))
        assert len(built) == 2

    def test_collective_string_found(self):
        universe = sigma_upto(BINARY, 2)
        H = frozenset({ps("0")})
        K = frozenset({ps("1")})
        report = logexp_closure_check(H, universe, partner=K)
        assert report.union_strict
        assert report.collective_sample == "_0"
        collective = PartialString.parse(BINARY, report.collective_sample)
        assert collective in logexp(H | K, universe)
        assert collective not in logexp(H, universe) | logexp(K, universe)


class TestExpansionIdentity:
    def test_on_examples(self):
        E = sigma_exact(BINARY, 2)
        assert verify_logogram_expansion(DecisionProblem(E, lang(["10", "11"])))
        assert verify_logogram_expansion(DecisionProblem(E, lang([])))
        assert verify_logogram_expansion(DecisionProblem(E, E))

    def test_on_seeded_problems(self):
        rng = random.Random(3)
        for i in range(60):
            problem = random_problem(rng, (BINARY, TERNARY)[i % 2], max_len=rng.randint(1, 5))
            assert verify_logogram_expansion(problem)

    def test_member_mask_expansion_is_expand_in_and_the_closure(self):
        rng = random.Random(41)
        not_prefix_free = empty_target = bottom = 0
        for i in range(400):
            alphabet = (BINARY, TERNARY)[i % 2]
            problem = random_problem(rng, alphabet, max_len=rng.randint(1, 5))
            if i % 10 == 3:
                problem = DecisionProblem(problem.base, lang([], alphabet))
            analysis = Analysis(problem)
            expansion = {w for w, members in zip(analysis.index.words, analysis.member_masks) if members}
            assert expansion == expand_in(analysis.logogram.reduced, problem.base).words \
                == cylindrify(problem.target, problem.base).words
            assert verify_logogram_expansion(analysis)
            not_prefix_free += not analysis.index.prefix_free
            empty_target += not problem.target.words
            bottom += PartialString.bottom(alphabet) in analysis.logogram.reduced
        assert min(not_prefix_free, empty_target, bottom) > 20

    def test_reduced_set_decides_when_full_set_is_not_stored(self):
        problem = enumerate_echelon(EchelonSpec(2, 2))
        result = log_rel(problem, keep_full=False)
        assert result.full is None
        dropped = min(result.reduced, key=lambda g: (g.size, g.render()))
        short = result._replace(reduced=result.reduced - {dropped})
        for given, holds in ((result, True), (short, False)):

            class Given(Analysis):  # every artefact is derived from this logogram
                logogram = given

            assert verify_logogram_expansion(Given(problem)) == holds

    def test_stored_full_set_must_hold_the_members_and_extend_them(self):
        """A stored full set fails with a base word outside the closure added, or its least member dropped."""
        rng = random.Random(44)
        problems = [random_problem(rng, (BINARY, TERNARY)[i % 2], max_len=rng.randint(1, 5)) for i in range(300)]
        problems += [enumerate_echelon(EchelonSpec(n, m)) for n, m in [(1, 1), (2, 1), (1, 2), (2, 2), (3, 2), (2, 3)]]
        caught = {"word outside the closure": 0, "least member dropped": 0}
        for problem in problems:
            result = log_rel(problem, keep_full=True)
            cases = [(result, None)]
            outside = sorted(problem.base.words - cylindrify(problem.target, problem.base).words)
            if outside:
                word = PartialString.from_word(problem.alphabet, rng.choice(outside))
                cases.append((result._replace(full=result.full | {word}), "word outside the closure"))
            if result.reduced:
                least = min(result.reduced, key=lambda g: (g.size, g.render()))
                cases.append((result._replace(full=result.full - {least}), "least member dropped"))
            for given, fault in cases:

                class Given(Analysis):  # every artefact is derived from this logogram
                    logogram = given

                assert verify_logogram_expansion(Given(problem)) == (fault is None), (fault, problem.target.words)
                if fault:
                    caught[fault] += 1
        assert min(caught.values()) > 20, caught

    def test_analysis_attributes_cannot_be_assigned(self):
        problem = enumerate_echelon(EchelonSpec(2, 2))
        analysis = Analysis(problem)
        members = analysis.members
        with pytest.raises(AttributeError):
            analysis.logogram = log_rel(problem, keep_full=False)
        with pytest.raises(AttributeError):
            analysis.problem = enumerate_echelon(EchelonSpec(2, 1))
        with pytest.raises(AttributeError):
            del analysis.members
        assert analysis.members is members and analysis.logogram.full is not None


class TestCover:
    def test_cover_of_reduced_unions_to_target(self):
        """The reduced members' relative cylinders cover the target."""
        problem = DecisionProblem(sigma_exact(BINARY, 2), lang(["10", "11", "01"]))
        analysis = Analysis(problem)
        union = 0
        for cyl in analysis.cylinders:
            union |= cyl
        assert analysis.index.mask_language(union).words == problem.target.words


class TestCache:
    @staticmethod
    def save(result, problem, cache_dir):
        return save_logogram_cache(result, cache_dir, problem_fingerprint(problem, result.positions))

    @staticmethod
    def load(problem, cache_dir, positions):
        return load_logogram_cache(problem.alphabet, cache_dir, positions, problem_fingerprint(problem, positions))

    def test_roundtrip(self, tmp_path):
        problem = DecisionProblem(sigma_exact(BINARY, 2), lang(["10", "11"]))
        result = log_rel(problem, keep_full=True)
        self.save(result, problem, tmp_path)
        loaded = self.load(problem, tmp_path, result.positions)
        assert loaded is not None
        assert loaded.reduced == result.reduced
        assert loaded.full == result.full
        assert loaded.candidate_space_size == result.candidate_space_size

    @staticmethod
    def rewrite_header(path, edit):
        """Apply edit to the header and sign it again, so only the edited field is wrong."""
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header.pop("sha256")
        edit(header)
        header["sha256"] = _cache_digest(header, lines[1:])
        lines[0] = json.dumps(header, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")

    def test_mismatched_fingerprint_forces_recompute(self, tmp_path):
        problem = DecisionProblem(sigma_exact(BINARY, 2), lang(["10", "11"]))
        result = log_rel(problem)
        path = self.save(result, problem, tmp_path)
        self.rewrite_header(path, lambda header: header.update(problem="0" * 24))
        assert self.load(problem, tmp_path, result.positions) is None

    def test_corrupted_body_forces_recompute(self, tmp_path):
        problem = DecisionProblem(sigma_exact(BINARY, 2), lang(["10", "11"]))
        result = log_rel(problem)
        path = self.save(result, problem, tmp_path)
        path.write_text(path.read_text() + "garbage line\n")
        assert self.load(problem, tmp_path, result.positions) is None

    @pytest.mark.parametrize("key", ["schema", "problem", "tool", "positions", "restricted",
                                     "candidate_space_size", "full_count", "full_stored", "reduced_count"])
    def test_header_missing_key_forces_recompute(self, tmp_path, key):
        problem = DecisionProblem(sigma_exact(BINARY, 2), lang(["10", "11"]))
        result = log_rel(problem, keep_full=False)  # with the full set stored, its size would catch full_count
        path = self.save(result, problem, tmp_path)
        self.rewrite_header(path, lambda header: header.pop(key))
        assert self.load(problem, tmp_path, result.positions) is None

    @pytest.mark.parametrize("key, value", [("positions", 5), ("restricted", 0), ("full_count", "3"),
                                            ("candidate_space_size", 9.0), ("full_stored", None)])
    def test_header_field_of_wrong_type_forces_recompute(self, tmp_path, key, value):
        problem = DecisionProblem(sigma_exact(BINARY, 2), lang(["10", "11"]))
        result = log_rel(problem, keep_full=False)
        path = self.save(result, problem, tmp_path)
        self.rewrite_header(path, lambda header: header.update({key: value}))
        assert self.load(problem, tmp_path, result.positions) is None

    @staticmethod
    def rewrite_body(path, edit):
        """Apply edit to the body line of each string and sign the file again, so only the body is wrong."""
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header.pop("sha256")
        lines[1:] = [line[:2] + edit(line[2:]) for line in lines[1:]]
        header["sha256"] = _cache_digest(header, lines[1:])
        lines[0] = json.dumps(header, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")

    @pytest.mark.parametrize("foreign", ["2", "a", " ", ":", "sparse"])
    def test_signed_body_outside_the_alphabet_and_blank_is_a_miss(self, tmp_path, foreign):
        """Only the positional rendering the cache writes loads: any other character, sparse notation too, is a miss."""
        problem = DecisionProblem(sigma_exact(BINARY, 2), lang(["10", "11"]))
        result = log_rel(problem, keep_full=True)
        path = self.save(result, problem, tmp_path)
        assert self.load(problem, tmp_path, result.positions) is not None
        if foreign == "sparse":
            self.rewrite_body(path, lambda text: ",".join(f"{i}:{c}" for i, c in enumerate(text, 1) if c != "_") or "-")
        else:
            self.rewrite_body(path, lambda text: text.replace("0", foreign, 1))
        assert self.load(problem, tmp_path, result.positions) is None

    def test_signed_blank_padded_body_loads_as_saved(self, tmp_path):
        spec = EchelonSpec(2, 2)
        problem = enumerate_echelon(spec)
        result = log_rel(problem, spec.body_positions, keep_full=True)
        path = self.save(result, problem, tmp_path)
        self.rewrite_body(path, lambda text: text + "__")
        loaded = self.load(problem, tmp_path, result.positions)
        assert (loaded.full, loaded.reduced) == (result.full, result.reduced)

    def test_header_without_digest_forces_recompute(self, tmp_path):
        problem = DecisionProblem(sigma_exact(BINARY, 2), lang(["10", "11"]))
        result = log_rel(problem)
        path = self.save(result, problem, tmp_path)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header.pop("sha256")
        lines[0] = json.dumps(header, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        assert self.load(problem, tmp_path, result.positions) is None

    @pytest.mark.parametrize("header", ["[1]", "0", "null"])
    def test_non_object_header_forces_recompute(self, tmp_path, header):
        problem = DecisionProblem(sigma_exact(BINARY, 2), lang(["10", "11"]))
        result = log_rel(problem)
        path = self.save(result, problem, tmp_path)
        path.write_text(header + "\n" + "".join(path.read_text().splitlines(keepends=True)[1:]))
        assert self.load(problem, tmp_path, result.positions) is None

    @pytest.mark.parametrize("n, m, keep_full", [(2, 2, False), (2, 1, True)])
    def test_truncated_or_flipped_file_is_never_a_wrong_hit(self, tmp_path, n, m, keep_full):
        spec = EchelonSpec(n, m)
        problem = enumerate_echelon(spec)
        cold = log_rel(problem, candidate_positions=spec.body_positions, keep_full=keep_full)
        path = self.save(cold, problem, tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == [path.name]  # no temporary file left behind
        data = path.read_bytes()
        damaged = [data[:cut] for cut in range(len(data))]
        damaged += [data[:i] + bytes([data[i] ^ 1]) + data[i + 1:] for i in range(len(data))]

        def seen(result):
            return (result.full, result.reduced, result.full_count, result.candidate_space_size,
                    result.positions, result.restricted)

        for blob in damaged:
            path.write_bytes(blob)
            loaded = self.load(problem, tmp_path, cold.positions)
            assert loaded is None or seen(loaded) == seen(cold), blob

    def test_fingerprint_is_stable(self):
        E = lang(["", "0", "12", "2", "201", "21"], TERNARY)
        assert problem_fingerprint(DecisionProblem(E, lang(["12", "201"], TERNARY)), (1, 2, 3)) \
            == "44cc2e0176309a8c71d98d5d"

    def test_fingerprint_depends_on_problem(self):
        E = sigma_exact(BINARY, 2)
        a = problem_fingerprint(DecisionProblem(E, lang(["10"])), (1, 2))
        b = problem_fingerprint(DecisionProblem(E, lang(["11"])), (1, 2))
        assert a != b

    def test_echelon_key_depends_on_spec_and_positions(self):
        keys = {echelon_fingerprint(TERNARY, n, m, EchelonSpec(n, m).body_positions)
                for n, m in ((1, 1), (1, 2), (2, 1), (2, 2), (3, 2), (2, 3))}
        assert len(keys) == 6
        body = EchelonSpec(2, 2).body_positions
        assert echelon_fingerprint(TERNARY, 2, 2, body) != echelon_fingerprint(TERNARY, 2, 2, body[1:])
        assert echelon_fingerprint(TERNARY, 2, 2, body) != echelon_fingerprint(BINARY, 2, 2, body)
        assert all(len(key) == 24 and set(key) <= set("0123456789abcdef") for key in keys)

    def test_file_of_another_spec_under_this_key_is_a_miss(self, tmp_path):
        # (2,1) and (1,2) have the same body positions, so only the header's key tells them apart
        other, spec = EchelonSpec(2, 1), EchelonSpec(1, 2)
        assert other.body_positions == spec.body_positions
        positions = spec.body_positions
        result = log_rel(enumerate_echelon(other), candidate_positions=positions)
        own_key, key = (echelon_fingerprint(TERNARY, s.n, s.m, positions) for s in (other, spec))
        path = save_logogram_cache(result, tmp_path, own_key)
        assert load_logogram_cache(TERNARY, tmp_path, positions, own_key) is not None  # a valid file
        path.rename(cache_file(tmp_path, key))
        assert load_logogram_cache(TERNARY, tmp_path, positions, key) is None
