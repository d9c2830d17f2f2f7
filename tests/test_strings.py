import itertools

import pytest
from hypothesis import given, strategies as st

from strtool.strings import (
    Alphabet,
    AlphabetMismatch,
    BINARY,
    PartialString,
    TERNARY,
    consistent_witness,
    extends,
    join_all,
    join_sets,
    pairwise_compatible,
    reduce_strings,
    word_includes,
)


def ps(text: str, alphabet: Alphabet = TERNARY) -> PartialString:
    return PartialString.parse(alphabet, text)


@st.composite
def strings(draw, alphabet: Alphabet = TERNARY, max_pos: int = 5):
    entries = {}
    for p in range(1, max_pos + 1):
        if draw(st.booleans()):
            entries[p] = draw(st.sampled_from(alphabet.symbols))
    return PartialString.of(alphabet, entries)


string_sets = st.frozensets(strings(), max_size=5)


class TestAlphabet:
    def test_requires_zero_and_one(self):
        with pytest.raises(ValueError):
            Alphabet.of("0")
        with pytest.raises(ValueError):
            Alphabet.of("12")

    def test_rejects_blank_and_duplicates(self):
        with pytest.raises(ValueError):
            Alphabet.of("01_")
        with pytest.raises(ValueError):
            Alphabet.of("011")

    def test_first_symbol(self):
        assert TERNARY.first == "0"
        assert len(TERNARY) == 3


class TestConstruction:
    def test_entries_validated(self):
        with pytest.raises(ValueError):
            PartialString.of(TERNARY, {0: "1"})
        with pytest.raises(ValueError):
            PartialString.of(TERNARY, {1: "x"})
        with pytest.raises(ValueError):
            PartialString(TERNARY, ((2, "1"), (1, "0")))

    def test_size_is_max_position(self):
        assert ps("").size == 0
        assert ps("1_2").size == 3
        assert PartialString.of(TERNARY, {7: "0"}).size == 7

    def test_word_roundtrip(self):
        w = PartialString.from_word(TERNARY, "0120")
        assert w.is_word and w.to_word() == "0120"
        assert not ps("1_2").is_word
        with pytest.raises(ValueError):
            ps("1_2").to_word()

    def test_parse_sparse(self):
        assert ps("1:1,3:2") == ps("1_2")
        assert ps("-") == PartialString.bottom(TERNARY)
        with pytest.raises(ValueError):
            ps("a:1")
        with pytest.raises(ValueError, match="repeated position 5"):
            ps("5:1,5:2")

    def test_parse_is_lenient_about_trailing_blanks(self):
        assert ps("1__") == ps("1")
        assert ps("1__").render() == "1"

    def test_render_roundtrip(self):
        for text in ("", "1", "_0", "1_2", "012"):
            assert ps(text).render() == text
            assert PartialString.parse(TERNARY, ps(text).render()) == ps(text)


class TestOrder:
    def test_extension_examples(self):
        assert extends(ps("1_2"), ps("1__"))
        assert extends(ps("102"), PartialString.bottom(TERNARY))
        assert not extends(ps("1_2"), ps("10_"))

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatch):
            extends(ps("1"), ps("1", BINARY))

    def test_reversed_comparisons_and_get(self):
        f, g = ps("1_2"), ps("1__")
        assert f >= g and f > g and f >= f
        assert not (g >= f or g > f or f > f)
        assert not (ps("2") >= ps("1") or ps("2") > ps("1"))  # incomparable either way
        assert [f.get(pos) for pos in range(5)] == [None, "1", None, "2", None]

    @given(strings())
    def test_reflexive_and_bottom_least(self, g):
        assert g <= g
        assert PartialString.bottom(TERNARY) <= g

    @given(strings(), strings())
    def test_antisymmetric(self, f, g):
        if f <= g and g <= f:
            assert f == g

    @given(strings(), strings(), strings())
    def test_transitive(self, f, g, h):
        if f <= g and g <= h:
            assert f <= h


class TestCompatibilityAndJoin:
    def test_examples(self):
        assert ps("1").compatible(ps("__2"))
        assert not ps("1").compatible(ps("2"))
        assert ps("1_2").compatible(ps("1_2"))
        assert ps("1").join(ps("__2")) == ps("1_2")
        assert ps("1").join(ps("2")) is None
        g = ps("10_2")
        assert g.join(g) == g

    @given(strings(), strings())
    def test_compatible_symmetric(self, f, g):
        assert f.compatible(g) == g.compatible(f)

    @given(strings(), strings())
    def test_join_defined_iff_compatible(self, f, g):
        for j in (f.join(g), join_all((f, g))):
            assert (j is not None) == f.compatible(g)
            if j is not None:
                assert f <= j and g <= j
                assert set(j.domain) == set(f.domain) | set(g.domain)

    @given(strings(), strings(), strings())
    def test_join_is_least_upper_bound(self, f, g, h):
        for j in (f.join(g), join_all((f, g))):
            if j is not None and f <= h and g <= h:
                assert j <= h

    @given(st.frozensets(strings(), min_size=1, max_size=5), strings())
    def test_join_all_of_a_set(self, H, h):
        j = join_all(H)
        assert (j is not None) == pairwise_compatible(H)
        if j is not None:
            assert all(g <= j for g in H)
            assert set(j.domain) == {p for g in H for p in g.domain}
            if all(g <= h for g in H):
                assert j <= h

    @given(st.frozensets(strings(), min_size=1, max_size=5))
    def test_join_all_agrees_with_consistent_witness(self, H):
        j = join_all(H)
        witness = consistent_witness(H)
        assert (j is None) == (witness is None)
        if j is not None:
            assert len(witness) == j.size
            assert j <= PartialString.from_word(TERNARY, witness)

    def test_join_all_examples(self):
        assert join_all([ps("1"), ps("_0"), ps("__2")]) == ps("102")
        assert join_all([ps("1"), ps("_0"), ps("2")]) is None
        g = ps("1_2")
        assert join_all([g]) is g
        with pytest.raises(ValueError):
            join_all([])
        with pytest.raises(AlphabetMismatch):
            join_all([ps("1"), PartialString.parse(BINARY, "_1")])

    @given(strings(), strings())
    def test_meet_is_lower_bound(self, f, g):
        m = f.meet(g)
        assert m <= f and m <= g
        assert m.meet(m) == m

    @given(strings(), strings(), strings())
    def test_meet_is_greatest_lower_bound(self, f, g, h):
        if h <= f and h <= g:
            assert h <= f.meet(g)

    def test_meet_examples(self):
        assert ps("10").meet(ps("1_0")) == ps("1")
        assert ps("1").meet(ps("2")) == PartialString.bottom(TERNARY)


class TestSetOperations:
    def test_join_sets_examples(self):
        assert join_sets(frozenset({ps("1")}), frozenset({ps("__2")})) == frozenset({ps("1_2")})
        assert join_sets(frozenset({ps("1")}), frozenset()) == frozenset()
        assert join_sets(frozenset(), frozenset({ps("1")})) == frozenset()
        H = frozenset({ps("1"), ps("2")})
        assert join_sets(H, frozenset({ps("2")})) == frozenset({ps("2")})

    def test_reduce_examples(self):
        assert reduce_strings({ps("1"), ps("1_2")}) == frozenset({ps("1")})
        antichain = {ps("1"), ps("_2")}
        assert reduce_strings(antichain) == frozenset(antichain)
        assert reduce_strings({PartialString.bottom(TERNARY), ps("1")}) == frozenset({PartialString.bottom(TERNARY)})

    @given(st.lists(strings(), max_size=12))
    def test_reduce_matches_definition(self, H):
        expected = frozenset(g for g in set(H) if not any(m < g for m in H))
        assert reduce_strings(iter(H)) == expected

    def test_reduce_reads_a_one_shot_generator_with_duplicates(self):
        H = [ps("1"), ps("1"), ps("12"), ps("_2"), ps("_2"), ps("_22")]
        assert reduce_strings(g for g in H) == frozenset({ps("1"), ps("_2")})

    def test_reduce_sparse_positions(self):
        H = [ps("1:1"), ps("1:1,1000:2"), ps("1000:1"), ps("2:1,3:1"), ps("2:1,1000:1")]
        assert reduce_strings(H) == frozenset({ps("1:1"), ps("1000:1"), ps("2:1,3:1")})

    def test_reduce_wide_alphabet(self):
        wide = Alphabet.of("01ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijkl")
        symbols = wide.symbols
        H = [PartialString.of(wide, {1: symbols[i], 2 + i % 3: symbols[-1 - i]}) for i in range(40)]
        H += [PartialString.of(wide, {1: s}) for s in symbols[::7]]
        H += [PartialString.of(wide, {1: symbols[5], 9: s}) for s in symbols]
        expected = frozenset(g for g in H if not any(m < g for m in H))
        assert len(expected) < len(set(H))
        assert reduce_strings(H) == expected

    def test_reduce_bottom_and_empty(self):
        bottom = PartialString.bottom(TERNARY)
        assert reduce_strings([bottom]) == frozenset({bottom})
        assert reduce_strings([ps("12"), bottom, ps("_1")]) == frozenset({bottom})
        assert reduce_strings([]) == frozenset()
        assert reduce_strings(iter(())) == frozenset()

    @pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
    def test_reduce_mixed_alphabets_raise_in_any_order(self, order):
        members = [PartialString.bottom(TERNARY), ps("12"), ps("1", BINARY)]
        with pytest.raises(AlphabetMismatch):
            reduce_strings(members[i] for i in order)

    @given(string_sets)
    def test_reduce_idempotent(self, H):
        once = reduce_strings(H)
        assert reduce_strings(once) == once

    @given(string_sets)
    def test_reduce_isoexpansive_by_brute_force(self, H):
        reduced = reduce_strings(H)
        for word_tuple in itertools.product(TERNARY.symbols, repeat=3):
            word = "".join(word_tuple)
            in_h = any(word_includes(word, g) for g in H)
            in_r = any(word_includes(word, g) for g in reduced)
            assert in_h == in_r

    def test_consistent_examples(self):
        witness = consistent_witness(frozenset({ps("1"), ps("_0")}))
        assert witness == "10"
        assert consistent_witness(frozenset({ps("1"), ps("2")})) is None
        assert consistent_witness(frozenset()) == ""
        assert consistent_witness(frozenset({PartialString.of(TERNARY, {3: "2"})})) == "002"

    @given(string_sets)
    def test_consistent_iff_pairwise_compatible(self, H):
        witness = consistent_witness(H)
        assert (witness is not None) == pairwise_compatible(H)
        if witness is not None:
            w = PartialString.from_word(TERNARY, witness)
            assert all(g <= w for g in H)

    @given(string_sets)
    def test_consistent_cross_checked_by_word_search(self, H):
        witness = consistent_witness(H)
        length = max((g.size for g in H), default=0)
        found = any(
            all(word_includes("".join(t), g) for g in H)
            for t in itertools.product(TERNARY.symbols, repeat=length)
        )
        assert (witness is not None) == found
