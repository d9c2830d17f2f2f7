import itertools
import random

import pytest

from strtool import languages
from strtool.cli import to_json
from strtool.languages import (
    BINARY,
    FiniteLanguage,
    ProductLanguage,
    TERNARY,
    check_expansion_laws,
    cylindrify,
    expand_in,
    load_language,
    random_language,
    random_string_set,
    sigma_exact,
    sigma_upto,
)
from strtool.strings import Alphabet, AlphabetMismatch, PartialString, word_includes


def ps(text, alphabet=BINARY):
    return PartialString.parse(alphabet, text)


def lang(words, alphabet=BINARY):
    return FiniteLanguage.of(alphabet, words)


class TestFiniteLanguage:
    def test_rejects_foreign_symbols(self):
        with pytest.raises(ValueError):
            lang(["012"])

    def test_slices(self):
        assert len(sigma_exact(BINARY, 2)) == 4
        assert len(sigma_upto(BINARY, 2)) == 7
        assert "" in sigma_upto(BINARY, 2)
        assert len(sigma_upto(TERNARY, 6)) == 1093

    def test_set_operations_check_alphabet(self):
        with pytest.raises(AlphabetMismatch):
            lang(["0"]).union(lang(["0"], TERNARY))


class TestExpandIn:
    def test_examples(self):
        L = sigma_exact(BINARY, 2)
        assert expand_in({ps("1")}, L).words == {"10", "11"}
        assert expand_in({PartialString.bottom(BINARY)}, L) == L
        assert expand_in(frozenset(), L).words == frozenset()

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatch):
            expand_in({ps("1", TERNARY)}, sigma_exact(BINARY, 2))

    def test_agrees_with_word_includes_scan(self):
        rng = random.Random(5)
        seen = {"empty": 0, "shared domain": 0, "past a word's end": 0, "single entry": 0, "no members": 0,
                "empty word": 0}
        for i in range(600):
            alphabet = (BINARY, TERNARY)[i % 2]
            L = random_language(rng, alphabet, cap=6, max_words=30)
            H = set(random_string_set(rng, alphabet, cap=8, max_size=6))
            for g in list(H):
                if g.entries and rng.random() < 0.5:
                    H.add(PartialString.of(alphabet, [(p, rng.choice(alphabet.symbols)) for p, _ in g.entries]))
            if rng.random() < 0.1:
                H.add(PartialString.bottom(alphabet))
            domains = [tuple(p for p, _ in g.entries) for g in H]
            seen["empty"] += () in domains
            seen["shared domain"] += len(set(domains)) < len(domains)
            seen["past a word's end"] += any(g.size > len(w) for g in H for w in L.words)
            seen["single entry"] += any(len(g.entries) == 1 for g in H)
            seen["no members"] += not H
            seen["empty word"] += "" in L.words
            expected = {w for w in L.words if any(word_includes(w, g) for g in H)}
            assert expand_in(H, L).words == expected
        assert min(seen.values()) > 20, seen


def random_product(rng):
    """A product-form language over a random frame: binary, ternary or ternary ranked 1, 0, 2; whole or masked."""
    alphabet = rng.choice([BINARY, TERNARY, Alphabet.of("102")])
    prefix = "".join(rng.choice(alphabet.symbols) for _ in range(rng.randint(0, 2)))
    whole = ProductLanguage(alphabet, prefix, rng.randint(0, 5))
    return whole if rng.random() < 0.3 else whole.masked(rng.getrandbits(len(whole)))


class TestProductLanguage:
    """A product-form language against the plain language of its words."""

    def test_agrees_with_the_plain_language_of_its_words(self):
        rng = random.Random(21)
        for _ in range(300):
            L = random_product(rng)
            assert "words" not in vars(L)
            whole = ProductLanguage(L.alphabet, L.prefix, L.free)
            expected = {L.prefix + "".join(t) for t, bit in
                        zip(itertools.product(sorted(L.alphabet.symbols), repeat=L.free), bin(L.mask)[:1:-1] + "0" * len(whole))
                        if bit == "1"}
            plain = lang(expected, L.alphabet)
            assert len(L) == len(plain) and L.max_len == plain.max_len
            assert L.ordered_words() == sorted(expected)
            assert L == plain and plain == L and hash(L) == hash(plain)
            assert L.issubset(whole) and plain.issubset(whole) and L.issubset(plain) and whole.issubset(plain) == (L == whole)
            assert L.intersection(whole) == plain and whole.difference(L) == lang(whole.words - expected, L.alphabet)
            assert cylindrify(lang([L.prefix], L.alphabet), L) == plain

    def test_same_words_over_another_product(self):
        short, longer = ProductLanguage(BINARY, "0", 1, 0b01), ProductLanguage(BINARY, "00", 0)
        assert short == longer and hash(short) == hash(longer) and short.issubset(longer)
        assert short != ProductLanguage(BINARY, "0", 1, 0b10)

    def test_rejects_bad_masks_and_prefixes(self):
        with pytest.raises(ValueError):
            ProductLanguage(BINARY, "2", 1)
        with pytest.raises(ValueError):
            ProductLanguage(BINARY, "", 2, 1 << 4)
        with pytest.raises(ValueError):
            ProductLanguage(BINARY, "", 2).masked(-1)

    def test_expand_in_agrees_with_word_includes_scan(self):
        """Members over the prefix (matching or not), the free positions and past the end of a product-form language."""
        rng = random.Random(22)
        seen = {"prefix entry": 0, "past the end": 0, "gap in the domain": 0, "no hit": 0}
        for _ in range(400):
            L = random_product(rng)
            H = set(random_string_set(rng, L.alphabet, cap=L.length + 1, max_size=6))
            for g in list(H):
                if g.entries and rng.random() < 0.5:  # the same domain, other symbols
                    H.add(PartialString.of(L.alphabet, [(p, rng.choice(L.alphabet.symbols)) for p, _ in g.entries]))
            expected = {w for w in L.words if any(word_includes(w, g) for g in H)}
            expanded = expand_in(H, L)
            assert expanded == lang(expected, L.alphabet)
            assert expanded == expand_in(H, lang(L.words, L.alphabet))
            domains = [[p for p, _ in g.entries] for g in H]
            seen["prefix entry"] += any(d and d[0] <= len(L.prefix) for d in domains)
            seen["past the end"] += any(d and d[-1] > L.length for d in domains)
            seen["gap in the domain"] += any(d and len(d) < d[-1] - d[0] + 1 for d in domains)
            seen["no hit"] += not expected
        assert min(seen.values()) > 20, seen


class TestCylindrify:
    def test_prefix_semantics(self):
        L = sigma_upto(BINARY, 2)
        assert cylindrify(lang(["1"]), L).words == {"1", "10", "11"}

    def test_idempotent_and_union(self):
        L = sigma_upto(BINARY, 3)
        A = lang(["1", "00"])
        B = lang(["01"])
        cyl = cylindrify(A, L)
        assert cylindrify(cyl, L) == cyl
        assert cylindrify(A.union(B), L) == cyl.union(cylindrify(B, L))

    def test_agrees_with_startswith_scan(self):
        rng = random.Random(6)
        seen = {"no prefixes": 0, "empty prefix": 0, "mixed prefix lengths": 0, "prefix outside L": 0,
                "empty word": 0}
        for i in range(600):
            alphabet = (BINARY, TERNARY)[i % 2]
            L = random_language(rng, alphabet, cap=6, max_words=30)
            A = {w for w in L.words | random_language(rng, alphabet, cap=4, max_words=3).words
                 if w and rng.random() < 0.4}
            draw = rng.random()
            A = lang(set() if draw < 0.1 else A | {""} if draw < 0.2 else A, alphabet)
            seen["no prefixes"] += not A.words
            seen["empty prefix"] += "" in A.words
            seen["mixed prefix lengths"] += len({len(a) for a in A.words}) > 1
            seen["prefix outside L"] += not A.issubset(L)
            seen["empty word"] += "" in L.words
            expected = {w for w in L.words if any(w.startswith(a) for a in A.words)}
            result = cylindrify(A, L)
            assert result.words == expected and result.alphabet == alphabet
        assert min(seen.values()) > 20, seen

    def test_is_cylinder_in(self):
        """A is a cylinder in E iff cylindrification within E fixes it."""
        E = lang(["1", "10"])
        assert cylindrify(lang(["1"]), E) != lang(["1"])
        assert cylindrify(E, E) == E
        prefix_free = sigma_exact(BINARY, 2)
        assert cylindrify(lang(["01", "10"]), prefix_free) == lang(["01", "10"])


class TestLawSuite:
    def test_holds_on_seeded_runs(self):
        report = check_expansion_laws(60, seed=5)
        assert report.holds
        assert report.checks["intersection-of-strings"] == 60
        assert not report.failures

    def test_reports_are_reproducible(self):
        a = to_json(check_expansion_laws(25, seed=9))
        b = to_json(check_expansion_laws(25, seed=9))
        assert a == b

    def test_a_broken_law_reports_its_first_16_failing_samples(self, monkeypatch):
        monkeypatch.setattr(languages, "join_sets", lambda H, K: frozenset())  # breaks the intersection law
        report = check_expansion_laws(200, seed=3)
        assert not report.holds and len(report.failures) == 16
        samples = [int(f.removeprefix("intersection-of-strings: sample ")) for f in report.failures]
        assert samples == sorted(set(samples)) and set(report.checks.values()) == {200}

    def test_random_language_respects_cap(self):
        rng = random.Random(0)
        for _ in range(50):
            L = random_language(rng, TERNARY, 4)
            assert L.max_len <= 4


def save_language(L, path):
    """Write L in the language file format that `load_language` reads."""
    path.write_text("\n".join([f"alphabet={''.join(L.alphabet.symbols)}", *L.sorted_words()]) + "\n", encoding="utf-8")


class TestLanguageFiles:
    def test_roundtrip(self, tmp_path):
        L = lang(["10", "0", "111"])
        path = tmp_path / "words.lang"
        save_language(L, path)
        assert load_language(path) == L

    def test_comments_and_blanks(self, tmp_path):
        path = tmp_path / "words.lang"
        path.write_text("# fixture\nalphabet=01\n10  # inline\n\n0\n")
        loaded = load_language(path)
        assert loaded.words == {"10", "0"}

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.lang"
        path.write_text("10\n")
        with pytest.raises(ValueError):
            load_language(path)

    def test_word_outside_alphabet_names_file_and_line(self, tmp_path):
        path = tmp_path / "stray.lang"
        path.write_text("alphabet=01\n01\n02\n")
        with pytest.raises(ValueError, match=f"{path}:3: word '02' uses symbol '2' outside"):
            load_language(path)

    def test_repeated_header(self, tmp_path):
        path = tmp_path / "twice.lang"
        path.write_text("alphabet=01\n0\nalphabet=012\n2\n")
        with pytest.raises(ValueError, match=f"{path}:3: repeated 'alphabet=' header"):
            load_language(path)
