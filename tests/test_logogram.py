import gc
import itertools
import json
import random

import pytest
from hypothesis import given, strategies as st

from strtool.languages import (
    BINARY,
    BudgetExceeded,
    FiniteLanguage,
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
    DecisionProblem,
    LogogramResult,
    ProblemIndex,
    auto_positions,
    cover_of,
    _cache_digest,
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
from strtool import logogram
from strtool.sat import EchelonSpec, consistent_selection_count, enumerate_echelon
from strtool.strings import Alphabet, PartialString, reduce_strings, word_includes


def ps(text, alphabet=BINARY):
    return PartialString.parse(alphabet, text)


def lang(words, alphabet=BINARY):
    return FiniteLanguage.of(alphabet, words)


def renders(strings):
    return sorted(g.render() for g in strings)


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

    def test_region_masks_transpose_labels(self):
        rng = random.Random(4)
        E = sigma_exact(BINARY, 8)
        for count in (1, 63, 64, 65, 130):  # region masks are built 64 regions at a time
            labels = {w: rng.randrange(1, 1 << count) for w in sorted(E.words) if rng.random() < 0.7}
            labels[min(labels)] |= 1 << count - 1  # the last region is nonempty
            analysis = Analysis(DecisionProblem(E, lang(labels), labels))
            regions = [[w for w, label in labels.items() if label >> j & 1] for j in range(count)]
            assert analysis.region_masks == [analysis.index.word_mask(r) for r in regions]


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
        bad_mask = idx.all_mask & ~idx.target_mask(problem.target)
        keys = set_bits(idx.candidate_space(positions).qualifying(bad_mask))
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

    def test_region_walks_reuse_the_index_tables(self, monkeypatch):
        builds = []
        word_keys = logogram._word_keys
        monkeypatch.setattr(logogram, "_word_keys", lambda *args: builds.append(args) or word_keys(*args))
        analysis = Analysis(enumerate_echelon(EchelonSpec(4, 2)))
        positions = analysis.logogram.positions
        tables = analysis.index.candidate_space(positions)
        assert len(analysis.region_logograms) == 16
        assert analysis.index.candidate_space(positions) is tables
        assert len(builds) == 1


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


class TestLogExpClosure:
    def test_laws_on_random_sets(self):
        rng = random.Random(2)
        universe = sigma_upto(BINARY, 2)
        for _ in range(30):
            H = random_string_set(rng, BINARY, 2)
            report = logexp_closure_check(H, universe)
            assert report.extensive and report.idempotent and report.monotone

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

    def test_reduced_set_decides_when_full_set_is_not_stored(self):
        problem = enumerate_echelon(EchelonSpec(2, 2))
        analysis = Analysis(problem)
        result = log_rel(problem, keep_full=False)
        assert result.full is None
        analysis.logogram = result
        assert verify_logogram_expansion(analysis)
        dropped = min(result.reduced, key=lambda g: (g.size, g.render()))
        analysis.logogram = LogogramResult(result.full, result.reduced - {dropped}, result.full_count,
                                           result.candidate_space_size, result.positions, result.restricted,
                                           result.elapsed)
        assert not verify_logogram_expansion(analysis)


class TestCover:
    def test_cover_of_reduced_unions_to_target(self):
        problem = DecisionProblem(sigma_exact(BINARY, 2), lang(["10", "11", "01"]))
        pairs = cover_of(Analysis(problem))
        union = frozenset().union(*(cyl.words for _, cyl in pairs))
        assert union == problem.target.words

    def test_empty_subset(self):
        problem = DecisionProblem(sigma_exact(BINARY, 2), lang(["10", "11"]))
        assert cover_of(Analysis(problem), H=frozenset()) == []

    def test_rejects_foreign_strings(self):
        problem = DecisionProblem(sigma_exact(BINARY, 2), lang(["10", "11"]))
        with pytest.raises(ValueError):
            cover_of(Analysis(problem), H=frozenset({ps("0")}))


class TestCache:
    def test_roundtrip(self, tmp_path):
        problem = DecisionProblem(sigma_exact(BINARY, 2), lang(["10", "11"]))
        result = log_rel(problem, keep_full=True)
        save_logogram_cache(result, problem, tmp_path)
        loaded = load_logogram_cache(problem, tmp_path, result.positions)
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
        path = save_logogram_cache(result, problem, tmp_path)
        self.rewrite_header(path, lambda header: header.update(problem="0" * 24))
        assert load_logogram_cache(problem, tmp_path, result.positions) is None

    def test_corrupted_body_forces_recompute(self, tmp_path):
        problem = DecisionProblem(sigma_exact(BINARY, 2), lang(["10", "11"]))
        result = log_rel(problem)
        path = save_logogram_cache(result, problem, tmp_path)
        path.write_text(path.read_text() + "garbage line\n")
        assert load_logogram_cache(problem, tmp_path, result.positions) is None

    def test_header_without_reduced_count_forces_recompute(self, tmp_path):
        problem = DecisionProblem(sigma_exact(BINARY, 2), lang(["10", "11"]))
        result = log_rel(problem)
        path = save_logogram_cache(result, problem, tmp_path)
        self.rewrite_header(path, lambda header: header.pop("reduced_count"))
        assert load_logogram_cache(problem, tmp_path, result.positions) is None

    def test_header_without_digest_forces_recompute(self, tmp_path):
        problem = DecisionProblem(sigma_exact(BINARY, 2), lang(["10", "11"]))
        result = log_rel(problem)
        path = save_logogram_cache(result, problem, tmp_path)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header.pop("sha256")
        lines[0] = json.dumps(header, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        assert load_logogram_cache(problem, tmp_path, result.positions) is None

    @pytest.mark.parametrize("header", ["[1]", "0", "null"])
    def test_non_object_header_forces_recompute(self, tmp_path, header):
        problem = DecisionProblem(sigma_exact(BINARY, 2), lang(["10", "11"]))
        result = log_rel(problem)
        path = save_logogram_cache(result, problem, tmp_path)
        path.write_text(header + "\n" + "".join(path.read_text().splitlines(keepends=True)[1:]))
        assert load_logogram_cache(problem, tmp_path, result.positions) is None

    @pytest.mark.parametrize("n, m, keep_full", [(2, 2, False), (2, 1, True)])
    def test_truncated_or_flipped_file_is_never_a_wrong_hit(self, tmp_path, n, m, keep_full):
        spec = EchelonSpec(n, m)
        problem = enumerate_echelon(spec)
        cold = log_rel(problem, candidate_positions=spec.body_positions, keep_full=keep_full)
        path = save_logogram_cache(cold, problem, tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == [path.name]  # no temporary file left behind
        data = path.read_bytes()
        damaged = [data[:cut] for cut in range(len(data))]
        damaged += [data[:i] + bytes([data[i] ^ 1]) + data[i + 1:] for i in range(len(data))]

        def seen(result):
            return (result.full, result.reduced, result.full_count, result.candidate_space_size,
                    result.positions, result.restricted)

        for blob in damaged:
            path.write_bytes(blob)
            loaded = load_logogram_cache(problem, tmp_path, cold.positions)
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
