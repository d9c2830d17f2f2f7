import itertools
import random
import string
from collections import Counter
from math import prod

import pytest

from strtool.cli import constituents_by_intersection, random_problem, to_json, toy_wizard_problem
from strtool.independence import (
    EventFamily,
    IMPROPER_WITNESS,
    NotInReducedLogogram,
    PROPER_WITNESS,
    WIZARD,
    RegionRow,
    WizardCoverReport,
    WizardFinding,
    atomic_constituents,
    classify,
    classify_all,
    complete_independence,
    completely_independent_events,
    construct_separator,
    entangles,
    entangles_sets,
    internal_independence,
    irreducible,
    region_relations,
    sat_shape_report,
    strong_independence,
    wizard_cover_report,
)
from strtool import independence, logogram
from strtool.languages import BINARY, TERNARY, FiniteLanguage, cylindrify, expand_in, sigma_exact
from strtool.logogram import Analysis, DecisionProblem, LogogramResult, log_rel, log_rel_naive, verify_logogram_expansion
from strtool.sat import (
    SAT_ALPHABET,
    EchelonSpec,
    decode,
    enumerate_echelon,
    satisfies,
    selection_strings,
    solutions,
    string_entries,
)
from strtool.strings import Alphabet, PartialString, join_all, word_includes


def ps(text, alphabet=BINARY):
    return PartialString.parse(alphabet, text)


def lang(words, alphabet=BINARY):
    return FiniteLanguage.of(alphabet, words)


def echelon_with_result(n, m):
    analysis = Analysis(enumerate_echelon(EchelonSpec(n, m)))
    return analysis.problem, analysis.logogram, analysis


# A problem whose third string is entangled with the other two: the base
# lacks a word separating position 1+2 ones from a one at position 3.
def entangled_problem():
    E = lang(["101", "011", "111", "000"])
    F = lang(["101", "011", "111"])
    return DecisionProblem(E, F)


class TestAnalysis:
    def test_checks_share_one_index_and_one_walk_per_logogram(self, monkeypatch):
        indexes, walks, problems = [], [], []
        real_index, real_log_rel, real_problem_init = logogram.ProblemIndex, logogram.log_rel, DecisionProblem.__init__

        class CountingIndex(real_index):
            def __init__(self, base):
                indexes.append(base)
                super().__init__(base)

        def counting_log_rel(problem, *args, closure=None, **kwargs):
            walks.append(closure)
            return real_log_rel(problem, *args, closure=closure, **kwargs)

        def counting_problem_init(problem, *args, **kwargs):
            problems.append(problem)
            real_problem_init(problem, *args, **kwargs)

        toy = toy_wizard_problem()
        monkeypatch.setattr(logogram, "ProblemIndex", CountingIndex)
        monkeypatch.setattr(logogram, "log_rel", counting_log_rel)
        monkeypatch.setattr(DecisionProblem, "__init__", counting_problem_init)
        analysis = Analysis(toy)
        classify_all(analysis)
        assert wizard_cover_report(analysis).wizard_count == 2
        region_relations(analysis, ignore_bewitched=False)
        assert len(indexes) == 1
        assert problems == []  # the region walks build no region problem
        regions = [lang(w for w, label in toy.labels.items() if label >> j & 1)
                   for j in range(max(toy.labels.values()).bit_length())]
        closures = [analysis.index.word_mask(cylindrify(F, toy.base).words) for F in (toy.target, *regions)]
        assert walks == closures  # the problem's walk, then one per region, each fed its closure mask


def labelled_problems(count, seed, regions=4):
    """Seeded labelled problems over binary and ternary alphabets, with nonzero labels over 1 to `regions` regions.

    Half the bases have one word length, so they are prefix-free; the others mix lengths
    and often hold the empty word.
    """
    rng = random.Random(seed)
    for i in range(count):
        alphabet = (BINARY, TERNARY)[i % 2]
        top = 4 if alphabet is BINARY else 3
        n, mixed = rng.randint(1, top), i % 4 >= 2
        words = {"".join(rng.choice(alphabet.symbols) for _ in range(rng.randint(0, top) if mixed else n))
                 for _ in range(rng.randint(1, 14))}
        target = [w for w in sorted(words) if rng.random() < 0.6] or [min(words)]
        drawn = rng.randint(1, regions)
        labels = {w: rng.randrange(1, 1 << drawn) for w in target}
        yield DecisionProblem(lang(words, alphabet), lang(target, alphabet), labels)


class TestClassificationByDefinition:
    """The regions holding each member's cylinder, found by scanning base words: no index and no Analysis."""

    @pytest.mark.parametrize("n,m", [(2, 2), (3, 2), (2, 3), (4, 1)])
    def test_echelon_members(self, n, m):
        problem, _, analysis = echelon_with_result(n, m)
        ys = solutions(n)
        satisfied = {w: [satisfies(decode(w), y) for y in ys] for w in problem.base.words}
        for verdict in classify_all(analysis):
            cylinder = [w for w in problem.base.words if word_includes(w, verdict.string)]
            containing = tuple(j + 1 for j in range(len(ys)) if all(satisfied[w][j] for w in cylinder))
            assert verdict.regions == containing, verdict.string.render()

    def test_labelled_random_problems(self):
        rng = random.Random(18)
        kinds = dict.fromkeys((PROPER_WITNESS, IMPROPER_WITNESS, WIZARD), 0)
        for i in range(200):
            drawn = random_problem(rng, (BINARY, TERNARY)[i % 2], max_len=rng.randint(1, 4))
            regions = rng.randint(1, 5)
            labels = {w: rng.randrange(1, 1 << regions) for w in sorted(drawn.target.words)}
            problem = DecisionProblem(drawn.base, drawn.target, labels)
            # region j's closure within the base: the base words with a prefix labelled j
            closures = [{w for w in problem.base.words
                         if any(labels.get(w[:k], 0) >> j & 1 for k in range(len(w) + 1))}
                        for j in range(max(labels.values(), default=0).bit_length())]
            for verdict in classify_all(Analysis(problem)):
                cylinder = {w for w in problem.base.words if word_includes(w, verdict.string)}
                containing = tuple(j + 1 for j, closure in enumerate(closures) if cylinder <= closure)
                assert verdict.regions == containing
                kinds[verdict.kind] += 1
        assert kinds[PROPER_WITNESS] > 20 and kinds[IMPROPER_WITNESS] > 20, kinds


class TestRegionWalks:
    """Region walks fed their closure masks, against walks of region problems and the naive oracle."""

    def test_agree_with_region_problems_and_definition_level_classes(self):
        prefix_free = not_prefix_free = 0
        kinds = dict.fromkeys((PROPER_WITNESS, IMPROPER_WITNESS, WIZARD), 0)
        for problem in labelled_problems(320, seed=5):
            base, analysis = problem.base, Analysis(problem)
            if any(a != b and b.startswith(a) for a in base.words for b in base.words):
                not_prefix_free += 1
            else:
                prefix_free += 1
            regions = [lang([w for w, label in problem.labels.items() if label >> j & 1], base.alphabet)
                       for j in range(max(problem.labels.values()).bit_length())]
            for j, region in enumerate(regions):
                region_problem = DecisionProblem(base, region)
                reduced = log_rel(region_problem).reduced
                assert analysis.region_logograms[j] == reduced == log_rel_naive(region_problem)[1]
            closures = [cylindrify(region, base).words for region in regions]
            for verdict in classify_all(analysis):
                cylinder = {w for w in base.words if word_includes(w, verdict.string)}
                containing = tuple(j + 1 for j, closure in enumerate(closures) if cylinder <= closure)
                kind = PROPER_WITNESS if len(containing) == 1 else IMPROPER_WITNESS if containing else WIZARD
                assert (verdict.kind, verdict.regions) == (kind, containing)
                # a member lies in a region exactly when that region's reduced logogram holds it
                assert containing == tuple(j + 1 for j, H in enumerate(analysis.region_logograms)
                                           if verdict.string in H)
                kinds[kind] += 1
        assert prefix_free > 20 and not_prefix_free > 20
        assert min(kinds.values()) > 20, kinds


class TestRegionChecksByDefinition:
    """`region_relations` and `wizard_cover_report` against reports rebuilt with no index and no Analysis.

    Each region's reduced logogram comes from `log_rel_naive`, a cylinder is the base words
    including the string (`word_includes`), and a region's closure the base words with a
    prefix in it (`cylindrify`).
    """

    def test_labelled_random_problems(self):
        seen = Counter()
        for problem in labelled_problems(2000, seed=28, regions=5):
            base, labels = problem.base, problem.labels
            regions = [lang([w for w, label in labels.items() if label >> j & 1], base.alphabet)
                       for j in range(max(labels.values()).bit_length())]
            logograms = [log_rel_naive(DecisionProblem(base, region))[1] for region in regions]
            closures = [cylindrify(region, base).words for region in regions]
            cylinders = {}

            def cylinder(g):
                if g not in cylinders:
                    cylinders[g] = frozenset(w for w in base.words if word_includes(w, g))
                return cylinders[g]

            def held(g):  # the number of region closures holding g's cylinder
                return sum(cylinder(g) <= closure for closure in closures)

            analysis = Analysis(problem)
            for ignore_bewitched in (False, True):
                sides = [{g for g in H if held(g) < 2} for H in logograms] if ignore_bewitched else logograms
                rows = []
                for i in range(1, len(regions)):
                    low, high = frozenset().union(*sides[:i]), sides[i]
                    vacuous = not low or not high
                    exp_low, exp_high = expand_in(low, base).words, expand_in(high, base).words
                    rows.append(RegionRow(
                        i=i,
                        disjoint=not low & high,
                        disjoint_unfiltered=not frozenset().union(*logograms[:i]) & logograms[i],
                        low_entangles_high=not vacuous and exp_low <= exp_high,
                        high_entangles_low=not vacuous and exp_high <= exp_low,
                        vacuous=vacuous,
                        low_size=len(low),
                        high_size=len(high),
                    ))
                    for name in ("disjoint", "low_entangles_high", "vacuous"):
                        seen[name, getattr(rows[-1], name)] += 1
                report = region_relations(analysis, ignore_bewitched)
                assert report.rows == tuple(rows), (sorted(base.words), labels, ignore_bewitched)
                assert report.holds == all(r.disjoint and not r.low_entangles_high and not r.high_entangles_low
                                           for r in rows)
            pool = [cylinder(g) for g in frozenset().union(*logograms)]
            findings = []
            for g in sorted(log_rel_naive(problem)[1], key=lambda g: (g.size, g.render())):
                if held(g):
                    continue  # a witness: some region's closure holds its cylinder
                assoc = [c for c in pool if c & cylinder(g)]
                union = frozenset().union(*assoc)
                findings.append(WizardFinding(
                    string=g.render(),
                    witnesses=len(assoc),
                    union_holds=cylinder(g) <= union,
                    proper=cylinder(g) < union,
                    witness_inside_wizard=any(c <= cylinder(g) for c in assoc),
                ))
            expected = WizardCoverReport(all(f.union_holds for f in findings), len(findings), tuple(findings))
            assert wizard_cover_report(analysis) == expected, (sorted(base.words), labels)
            seen["wizards", bool(findings)] += 1
        assert len(seen) == 8 and min(seen.values()) > 20, seen


class TestEntanglement:
    def test_string_inclusion_forces_it(self):
        E = sigma_exact(BINARY, 2)
        assert entangles(ps("10"), ps("1"), E)

    def test_relative_to_single_word(self):
        E = lang(["10"])
        assert entangles(ps("1"), ps("10"), E)

    def test_counterexample_word(self):
        E = sigma_exact(BINARY, 2)
        assert not entangles(ps("1"), ps("_1"), E)

    def test_requires_occurrence(self):
        with pytest.raises(ValueError):
            entangles(ps("11"), ps("1"), lang(["10", "01"]))

    def test_pairwise_independent(self):
        """Two strings are pairwise independent when neither entangles the other."""
        E = sigma_exact(BINARY, 2)
        assert not entangles(ps("1"), ps("_1"), E) and not entangles(ps("_1"), ps("1"), E)
        assert entangles(ps("10"), ps("1"), E)  # so "1" and "10" are not independent

    def test_pairwise_on_minimal_echelon(self):
        problem, result, analysis = echelon_with_result(1, 1)
        a, b = sorted(result.reduced, key=lambda g: g.render())
        assert not entangles(a, b, problem.base) and not entangles(b, a, problem.base)

    def test_set_level(self):
        E = sigma_exact(BINARY, 2)
        assert entangles_sets({ps("10")}, {ps("1")}, E)
        assert entangles_sets(frozenset(), {ps("1")}, E)
        assert not entangles_sets({ps("1")}, {ps("_1")}, E)


class TestClassify:
    def test_minimal_echelon_proper(self):
        problem, result, analysis = echelon_with_result(1, 1)
        verdict = classify(PartialString.of(problem.alphabet, {5: "1"}), analysis)
        assert verdict.kind == PROPER_WITNESS
        assert verdict.regions == (2,)

    def test_two_variable_improper(self):
        problem, result, analysis = echelon_with_result(2, 1)
        g = string_entries(EchelonSpec(2, 1), [(1, 1, "1")])
        verdict = classify(g, analysis)
        assert verdict.kind == IMPROPER_WITNESS
        assert verdict.regions == (2, 4)

    def test_toy_wizard(self):
        toy = toy_wizard_problem()
        verdict = classify(ps("1"), Analysis(toy))
        assert verdict.kind == WIZARD
        assert verdict.regions == ()

    def test_non_prefix_free_base_classifies_against_region_closures(self):
        base = lang(["0", "1", "01"])
        analysis = Analysis(DecisionProblem(base, lang(["0"]), {"0": 1}))
        verdicts = classify_all(analysis)
        assert sorted(v.string.render() for v in verdicts) == ["0", "_1"]
        assert all(v.kind == PROPER_WITNESS and v.regions == (1,) for v in verdicts)

    def test_partitions_reduced_logogram(self):
        problem, result, analysis = echelon_with_result(2, 2)
        verdicts = classify_all(analysis)
        assert len(verdicts) == len(result.reduced)
        assert {v.kind for v in verdicts} <= {PROPER_WITNESS, IMPROPER_WITNESS, WIZARD}

    def test_rejects_non_members(self):
        problem, result, analysis = echelon_with_result(1, 1)
        with pytest.raises(NotInReducedLogogram):
            classify(PartialString.of(problem.alphabet, {5: "0"}), analysis)

    def test_requires_regions(self):
        problem = DecisionProblem(sigma_exact(BINARY, 2), lang(["11"]))
        with pytest.raises(ValueError):
            classify(ps("11"), Analysis(problem))


class TestWizardCover:
    def test_toy_report(self):
        report = wizard_cover_report(Analysis(toy_wizard_problem()))
        assert report.holds
        assert report.wizard_count == 2
        for finding in report.findings:
            assert finding.union_holds
            assert not finding.proper  # union equals the wizard cylinder on this toy
            assert finding.witness_inside_wizard

    def test_echelons_have_no_wizards(self):
        for n, m in ((1, 1), (2, 1), (1, 2), (2, 2)):
            problem, result, analysis = echelon_with_result(n, m)
            report = wizard_cover_report(analysis)
            assert report.wizard_count == 0
            assert report.holds and report.findings == ()

    def test_requires_regions(self):
        with pytest.raises(ValueError):
            wizard_cover_report(Analysis(entangled_problem()))


class TestInternal:
    def test_echelons_hold(self):
        for n, m in ((1, 1), (2, 2)):
            problem, result, analysis = echelon_with_result(n, m)
            assert internal_independence(analysis).holds

    def test_singleton_logogram_vacuous(self):
        problem = DecisionProblem(lang(["10"]), lang(["10"]))
        verdict = internal_independence(Analysis(problem))
        assert verdict.holds and verdict.subsets_checked == 0

    def test_entangled_problem_fails(self):
        verdict = internal_independence(Analysis(entangled_problem()))
        assert not verdict.holds
        assert verdict.counterexample is not None

    def test_counterexample_found_from_the_larger_index(self):
        # members "1" {101, 111}, "_0" {000, 101}, "__0" {000}: only the last cylinder lies in another
        base = lang(["000", "011", "101", "111"])
        analysis = Analysis(DecisionProblem(base, lang(["000", "101", "111"])))
        assert [g.render() for g in analysis.members] == ["1", "_0", "__0"]
        verdict = internal_independence(analysis)
        assert not verdict.holds and verdict.subsets_checked == 3
        assert verdict.counterexample.strings == ("_0", "__0")


def all_pairs_internal(analysis):
    """Internal independence by testing every pair of cylinders, both ways, in combinations order."""
    members, cyls = analysis.members, analysis.cylinders
    checked = 0
    for i, j in itertools.combinations(range(len(members)), 2):
        checked += 1
        if not (cyls[i] & ~cyls[j]) or not (cyls[j] & ~cyls[i]):
            return False, checked, [members[i].render(), members[j].render()]
    return True, checked, None


def internal_by_word_scans(words, members):
    """Internal independence by the definition: no member entangles another, scanning the base words.

    f entangles g relative to E when every E-word including f also includes g.
    """
    including = [{w for w in words if word_includes(w, g)} for g in members]
    checked = 0
    for i, j in itertools.combinations(range(len(members)), 2):
        checked += 1
        if including[i] <= including[j] or including[j] <= including[i]:
            return False, checked, [members[i].render(), members[j].render()]
    return True, checked, None


def strong_by_word_scans(words, members):
    """Strong independence by the definition: each member has a base word including it and no other member."""
    for i, g in enumerate(members):
        others = members[:i] + members[i + 1:]
        if not any(word_includes(w, g) and not any(word_includes(w, h) for h in others) for w in words):
            return False, i + 1, [g.render()]
    return True, len(members), None


def verdict_triple(verdict):
    cx = verdict.counterexample
    return verdict.holds, verdict.subsets_checked, None if cx is None else list(cx.strings)


def independence_problems(count, seed):
    """Seeded labelled `random_problem`s, binary and ternary, with nonzero labels over 1-5 regions.

    random_problem's words mix lengths from 0 up to the cap, so the empty word is often in
    the base; a target holding it has the whole base as its closure, and its reduced
    logogram is the empty string ⊥ alone.  Every other pair of problems drops the empty
    word from the target, so that most problems have two or more members.
    """
    rng = random.Random(seed)
    for i in range(count):
        alphabet = (BINARY, TERNARY)[i % 2]
        drawn = random_problem(rng, alphabet, max_len=rng.randint(2, 4), max_words=rng.randint(4, 16))
        target = drawn.target if i % 4 < 2 else lang(drawn.target.words - {""}, alphabet)
        regions = rng.randint(1, 5)
        labels = {w: rng.randrange(1, 1 << regions) for w in sorted(target.words)}
        yield DecisionProblem(drawn.base, target, labels)


class TestIndependenceByDefinition:
    """Internal and strong independence against word-scan judges: no index and no Analysis."""

    def test_agree_on_random_problems(self):
        outcomes = dict.fromkeys(itertools.product(("internal", "strong"), (False, True)), 0)
        bottom = 0
        for problem in independence_problems(2000, seed=20261019):
            words = sorted(problem.base.words, key=lambda w: (len(w), w))
            members = sorted(log_rel_naive(problem)[1], key=lambda g: (g.size, g.render()))
            analysis = Analysis(problem)
            assert analysis.members == members
            internal = verdict_triple(internal_independence(analysis))
            assert internal == internal_by_word_scans(words, members) == all_pairs_internal(analysis), \
                (sorted(problem.base.words), sorted(problem.target.words))
            strong = verdict_triple(strong_independence(analysis))
            assert strong == strong_by_word_scans(words, members), \
                (sorted(problem.base.words), sorted(problem.target.words))
            if len(members) > 1:  # with fewer members both properties hold vacuously
                outcomes["internal", internal[0]] += 1
                outcomes["strong", strong[0]] += 1
            bottom += members == [PartialString.bottom(problem.alphabet)]
        assert min(outcomes.values()) > 20, outcomes
        assert bottom > 20


class TestStrong:
    def test_single_clause_separation(self):
        problem, result, analysis = echelon_with_result(2, 1)
        assert strong_independence(analysis).holds

    def test_larger_echelon(self):
        problem, result, analysis = echelon_with_result(2, 2)
        assert strong_independence(analysis).holds

    def test_entangled_problem_fails(self):
        verdict = strong_independence(Analysis(entangled_problem()))
        assert not verdict.holds
        assert verdict.counterexample.strings == ("1",)

    def test_implies_internal_on_test_zoo(self):
        problems = [entangled_problem(), toy_wizard_problem()]
        problems += [enumerate_echelon(EchelonSpec(n, m)) for n, m in ((1, 1), (2, 1), (1, 2), (2, 2))]
        for problem in problems:
            strong = strong_independence(Analysis(problem))
            if strong.holds:
                assert internal_independence(Analysis(problem)).holds


class TestSeparator:
    def test_single_string(self):
        spec = EchelonSpec(2, 1)
        f = string_entries(spec, [(1, 1, "1")])
        assert construct_separator([f], spec) == "00101" + "10"

    def test_pair(self):
        spec = EchelonSpec(2, 1)
        fs = [string_entries(spec, [(1, 1, "1")]), string_entries(spec, [(1, 2, "2")])]
        assert construct_separator(fs, spec) == "00101" + "12"

    def test_two_clause_join(self):
        spec = EchelonSpec(2, 2)
        f = string_entries(spec, [(1, 1, "1"), (2, 1, "1")])
        assert construct_separator([f], spec) == "001001" + "10" + "10"

    def test_conflicting_prescriptions(self):
        spec = EchelonSpec(2, 1)
        fs = [string_entries(spec, [(1, 1, "1")]), string_entries(spec, [(1, 1, "2")])]
        with pytest.raises(ValueError):
            construct_separator(fs, spec)

    def test_positions_must_fit_echelon(self):
        spec = EchelonSpec(1, 1)
        with pytest.raises(ValueError):
            construct_separator([string_entries(EchelonSpec(2, 2), [(2, 2, "1")])], spec)


def compatible_subsets(members):
    """Every nonempty pairwise-compatible subset, as ascending index lists (plain clique walk)."""
    stack = [[i] for i in range(len(members) - 1, -1, -1)]
    while stack:
        subset = stack.pop()
        yield subset
        for j in range(len(members) - 1, subset[-1], -1):
            if all(members[i].compatible(members[j]) for i in subset):
                stack.append(subset + [j])


def closed_set(members, subset):
    """J(C): the members lying below the join of the subset."""
    joined = join_all([members[i] for i in subset])
    return frozenset(i for i, g in enumerate(members) if g <= joined)


def complete_oracle(analysis):
    """(holds, counterexample strings, distinct closed sets) by enumerating every compatible subset and scanning every word."""
    members = analysis.members
    masks = [sum(1 << i for i, g in enumerate(members) if word_includes(w, g)) for w in analysis.problem.base.words]
    worst = None
    distinct = set()
    for subset in compatible_subsets(members):
        closed = closed_set(members, subset)
        distinct.add(closed)
        need = sum(1 << i for i in subset)
        allowed = sum(1 << i for i in closed)
        if not any(mask & need == need and not (mask & ~allowed) for mask in masks):
            key = (len(subset), tuple(members[i].render() for i in subset))
            worst = key if worst is None or key < worst else worst
    return worst is None, None if worst is None else list(worst[1]), len(distinct)


def k_sat_fragment(n, m, k):
    """The (n,m) echelon's k-SAT sub-base, the words whose clause blocks hold at most k literals; the target is its satisfiable words."""
    spec = EchelonSpec(n, m)
    echelon = enumerate_echelon(spec)
    start = len(spec.prefix)

    def narrow(word):
        return all(spec.n - word.count("0", i, i + spec.n) <= k for i in range(start, len(word), spec.n))

    alphabet = echelon.base.alphabet
    return DecisionProblem(FiniteLanguage.of(alphabet, filter(narrow, echelon.base.words)),
                           FiniteLanguage.of(alphabet, filter(narrow, echelon.target.words)))


class TestComplete:
    def test_small_echelons_exhaustive(self):
        for n, m in ((1, 1), (2, 1), (1, 2), (2, 2)):
            problem, result, analysis = echelon_with_result(n, m)
            verdict = complete_independence(analysis)
            assert verdict.holds

    def test_generic_search_without_echelon_shortcut(self):
        problem, result, analysis = echelon_with_result(2, 1)
        verdict = complete_independence(analysis)
        assert verdict.holds

    def test_entangled_problem_fails(self):
        verdict = complete_independence(Analysis(entangled_problem()))
        assert not verdict.holds
        # no word contains position-1 "1" without also containing position-3 "1"
        assert verdict.counterexample.strings == ("1",)

    def test_subset_count_matches_brute_force(self):
        for (n, m), expected in (((2, 1), 8), ((2, 2), 44)):
            problem, result, analysis = echelon_with_result(n, m)
            members = analysis.members
            distinct = {closed_set(members, subset) for subset in compatible_subsets(members)}
            assert len(distinct) == expected
            assert complete_independence(analysis).subsets_checked == expected

    def test_closed_set_counts_match_tight_formula(self):
        # counted independently, as the echelon's tight formulas (ROADMAP item 4)
        for (n, m), expected in (((2, 3), 164), ((2, 4), 548), ((3, 2), 574), ((4, 2), 5976), ((3, 3), 10934)):
            problem, result, analysis = echelon_with_result(n, m)
            assert complete_independence(analysis).subsets_checked == expected, (n, m)

    def test_bottom_member_is_one_closed_set(self):
        # target = base: the reduced logogram is the empty string alone, below every join
        base = lang(["00", "01", "11"])
        analysis = Analysis(DecisionProblem(base, base))
        assert analysis.members == [PartialString.bottom(BINARY)]
        verdict = complete_independence(analysis)
        assert verdict.holds and verdict.subsets_checked == 1

    def test_agrees_with_subset_enumeration_on_random_problems(self):
        rng = random.Random(20261017)
        failing_sizes = []
        for trial in range(2000):
            alphabet = BINARY if trial % 2 else TERNARY
            if trial % 4 < 2:  # fixed word length
                pool = sorted(sigma_exact(alphabet, rng.randint(2, 4)).words)
                base = lang(rng.sample(pool, rng.randint(1, min(len(pool), 24))), alphabet)
            else:  # mixed word lengths
                base = random_problem(rng, alphabet, max_len=4, max_words=24).base
            target = lang([w for w in sorted(base.words) if rng.random() < 0.5], alphabet)
            analysis = Analysis(DecisionProblem(base, target))
            verdict = complete_independence(analysis)
            holds, counterexample, closed_count = complete_oracle(analysis)
            assert verdict.holds == holds, (sorted(base.words), sorted(target.words))
            cx = verdict.counterexample
            assert (None if cx is None else list(cx.strings)) == counterexample
            assert verdict.subsets_checked == closed_count, (sorted(base.words), sorted(target.words))
            if not holds:
                failing_sizes.append(len(counterexample))
        assert 200 < len(failing_sizes) < 1800  # both verdicts are well represented
        assert sum(size > 1 for size in failing_sizes) > 20  # and not only singleton failures

    def test_two_sat_fragment_fails(self):
        analysis = Analysis(k_sat_fragment(3, 3, 2))
        assert (len(analysis.problem.base.words), len(analysis.members)) == (6859, 126)
        verdict = complete_independence(analysis)
        assert not verdict.holds and verdict.subsets_checked == 10934  # SAT's closed sets
        assert len({mask for mask in analysis.member_masks if mask}) == 3294
        assert verdict.counterexample.strings == ("________1__1__1", "________1__1___1", "________1__1____1")

    def test_three_sat_fragment_fails_with_four_members(self):
        analysis = Analysis(k_sat_fragment(4, 2, 3))
        assert (len(analysis.problem.base.words), len(analysis.members)) == (4225, 56)
        verdict = complete_independence(analysis)
        assert not verdict.holds and verdict.subsets_checked == 5976  # SAT's closed sets
        assert verdict.counterexample.strings == ("________1___1", "________1____1", "________1_____1", "________1______1")

    def test_four_sat_fragment_fails_with_five_members(self):
        analysis = Analysis(k_sat_fragment(5, 2, 4))
        assert (len(analysis.problem.base.words), len(analysis.members)) == (44521, 90)
        verdict = complete_independence(analysis)
        assert not verdict.holds and verdict.subsets_checked == 56954  # SAT's closed sets
        assert len({mask for mask in analysis.member_masks if mask}) == 42810
        assert verdict.counterexample.strings == (
            "_________1____1", "_________1_____1", "_________1______1", "_________1_______1", "_________1________1")

    def test_counterexample_search_extends_only_subsets_inside_a_failing_set(self, monkeypatch):
        # the search reads entries[j] once per member it tries and ORs it onto the join of the subset it extends;
        # a failing set K holds a subset iff the subset's join lies inside join(K), bit for bit
        reads, extended, handed = [], [], []
        real = independence._smallest_generator

        class Entry(int):
            def __ror__(self, joined):
                extended.append(joined)
                return int(self) | joined

        class Counted(list):
            def __getitem__(self, j):
                reads[-1] += 1
                return list.__getitem__(self, j)

        def counting(renders, entries, failing):
            # building the failing sets' joins reads each member of each failing set once: not an extension
            reads.append(-sum(K.bit_count() for K in failing))
            handed.append(entries)
            return real(renders, Counted(map(Entry, entries)), failing)

        monkeypatch.setattr(independence, "_smallest_generator", counting)
        # members 1, _1, __1; no word realizes {1, __1} or {_1, __1}, and no failing set holds both 1 and _1:
        # size 1 scans the three members; size 2 pushes the three, each held, then scans 1's later members
        # in render order, _1 and then __1, the hit
        base = lang(["000", "100", "010", "001", "110", "111"])
        verdict = complete_independence(Analysis(DecisionProblem(base, lang(base.words - {"000"}))))
        assert verdict.counterexample.strings == ("1", "__1")
        assert reads == [3 + 3 + 2]
        # seeded problems whose counterexample has at least two members: with one member the walk stops at size 1,
        # having extended only the empty subset
        rng = random.Random(20261019)
        pruned = checked = 0
        while checked < 150:
            alphabet = rng.choice((BINARY, TERNARY))
            pool = sorted(sigma_exact(alphabet, rng.randint(2, 4)).words)
            base = lang(rng.sample(pool, rng.randint(1, min(len(pool), 24))), alphabet)
            target = lang([w for w in sorted(base.words) if rng.random() < 0.5], alphabet)
            analysis = Analysis(DecisionProblem(base, target))
            extended.clear()
            verdict = complete_independence(analysis)
            if verdict.holds or len(verdict.counterexample.strings) < 2:
                continue
            members = analysis.members
            masks = {sum(1 << i for i, g in enumerate(members) if word_includes(w, g)) for w in base.words}
            closed = {closed_set(members, subset) for subset in compatible_subsets(members)}
            failing = [K for K in closed if sum(1 << i for i in K) not in masks]
            joins = [0] * len(failing)
            for f, K in enumerate(failing):
                for i in K:
                    joins[f] |= handed[-1][i]
            assert all(any(not joined & ~join for join in joins) for joined in extended)
            size = len(verdict.counterexample.strings)
            small = [subset for subset in compatible_subsets(members) if len(subset) < size]
            pruned += any(not any(K.issuperset(subset) for K in failing) for subset in small)
            checked += 1
        assert pruned > 60  # the pruning shows: on 81 problems a subset the walk may not extend lies in no failing set

    def test_separator_realises_every_closed_set(self):
        for n, m in ((2, 2), (3, 2), (2, 3)):
            spec = EchelonSpec(n, m)
            problem, result, analysis = echelon_with_result(n, m)
            members = analysis.members
            closed = {closed_set(members, [i]) for i in range(len(members))}
            frontier = list(closed)
            while frontier:
                K = frontier.pop()
                for j in range(len(members)):
                    if j not in K and all(members[i].compatible(members[j]) for i in K):
                        bigger = closed_set(members, sorted(K | {j}))
                        if bigger not in closed:
                            closed.add(bigger)
                            frontier.append(bigger)
            assert len(closed) == complete_independence(analysis).subsets_checked
            ordinal = {w: k for k, w in enumerate(analysis.index.words)}
            for K in closed:
                word = construct_separator((join_all([members[i] for i in K]),), spec)
                assert word in problem.base.words
                assert analysis.member_masks[ordinal[word]] == sum(1 << i for i in K)


def judge_closed_set_product(analysis):
    """Judge the AND-product family against J(C) over every compatible subset; returns (family, realized).

    Checks that every word's member mask (read by `word_includes`) is a closed set or
    empty, that the product with nothing realized is the whole family, that with the
    words' masks realized it is the family's failing sets, and the verdict's count.
    """
    members = analysis.members
    family = {sum(1 << i for i in closed_set(members, subset)) for subset in compatible_subsets(members)}
    realized = {sum(1 << i for i, g in enumerate(members) if word_includes(w, g)) for w in analysis.problem.base.words}
    assert realized - {0} <= family
    assert independence._unrealized_closed_sets(analysis, set()) == family
    assert independence._unrealized_closed_sets(analysis, realized) == family - realized
    assert complete_independence(analysis).subsets_checked == len(family)
    return family, realized


def one_entry_members_problem(rng, alphabet, held):
    """A problem whose members are exactly the one-entry strings of held ({position: symbols}).

    The base is a background word b holding no held symbol, one position longer than the
    last held one, with every word one symbol away from b, up to 40 words two symbols
    away, and the empty word and a prefix of b (mixed lengths).  The target is the words
    holding some held symbol at its position.
    """
    length = max(held) + 1
    b = "".join(rng.choice([s for s in alphabet.symbols if s not in held.get(p, ())]) for p in range(1, length + 1))

    def change(word, i):
        return word[:i] + rng.choice([s for s in alphabet.symbols if s != b[i]]) + word[i + 1:]

    words = {b, "", b[:rng.randrange(1, length)]}
    words |= {b[:i] + s + b[i + 1:] for i in range(length) for s in alphabet.symbols}
    words |= {change(change(b, i), j) for i, j in (rng.sample(range(length), 2) for _ in range(40))}
    target = [w for w in words if any(p <= len(w) and w[p - 1] in symbols for p, symbols in held.items())]
    return DecisionProblem(lang(words, alphabet), lang(target, alphabet))


class TestClosedSetProduct:
    """The closed sets as an AND-product of per-position choices, judged at the definition.

    A chunk holds 5 binary, 4 ternary or 1 forty-symbol position; the remainder chunk
    comes first and the last chunk is streamed.
    """

    def test_random_problems(self):
        rng = random.Random(2026102201)
        failing = holding = empty_word = bottom = mixed = 0
        for trial in range(2000):
            alphabet = BINARY if trial % 2 else TERNARY
            if trial % 4 < 2:  # fixed word length
                pool = sorted(sigma_exact(alphabet, rng.randint(2, 4)).words)
                base = lang(rng.sample(pool, rng.randint(1, min(len(pool), 24))), alphabet)
                problem = DecisionProblem(base, lang([w for w in sorted(base.words) if rng.random() < 0.5], alphabet))
            else:  # mixed word lengths, often with the empty word
                problem = random_problem(rng, alphabet, max_len=4, max_words=24)
                mixed += len({len(w) for w in problem.base.words}) > 1
            analysis = Analysis(problem)
            family, realized = judge_closed_set_product(analysis)
            failing += not family <= realized
            holding += family <= realized
            empty_word += "" in problem.base.words
            bottom += PartialString.bottom(alphabet) in analysis.members
        assert min(failing, holding, empty_word, bottom, mixed) > 20, (failing, holding, empty_word, bottom, mixed)

    @pytest.mark.parametrize("alphabet, width", [(BINARY, 5), (TERNARY, 4)])
    @pytest.mark.parametrize("remainder", [0, 1, 2, 3])
    def test_member_position_counts_around_the_chunk_width(self, alphabet, width, remainder):
        rng = random.Random(31 * width + remainder)
        # one, two and (when the candidate space stays small) three chunks
        counts = [count for count in (remainder, remainder + width, remainder + 2 * width) if 0 < count <= 2 * width + 1]
        for count in counts:
            positions = sorted(rng.sample(range(1, count + 2), count))  # one position skipped
            doubled = rng.sample(positions, min(2, count)) if len(alphabet.symbols) > 2 else []
            held = {p: tuple(rng.sample(alphabet.symbols, 2 if p in doubled else 1)) for p in positions}
            analysis = Analysis(one_entry_members_problem(rng, alphabet, held))
            assert sorted((g.entries[0] for g in analysis.members)) == sorted((p, s) for p in held for s in held[p])
            assert len(analysis.position_choices) == count and count % width == remainder
            family, realized = judge_closed_set_product(analysis)
            assert len(family) == prod(len(symbols) + 1 for symbols in held.values()) - 1
            assert count < 3 or not family <= realized  # no word holds three members

    def test_member_defined_only_at_a_late_position(self):
        rng = random.Random(7)
        for held in ({9: ("1",)}, {2: ("0",), 13: ("1",)}, {12: ("0",), 13: ("1",), 14: ("1",)}):
            analysis = Analysis(one_entry_members_problem(rng, BINARY, held))
            assert list(analysis.position_choices) == sorted(held)
            family, realized = judge_closed_set_product(analysis)
            assert (len(family), family <= realized) == (2 ** len(held) - 1, len(held) < 3)

    def test_forty_symbol_alphabet_has_one_position_a_chunk(self):
        alphabet = Alphabet.of("01" + string.ascii_letters[:38])
        assert logogram._chunk_width(len(alphabet.symbols) + 1) == 1
        rng = random.Random(40)
        for count in (1, 2, 3):
            held = {p: tuple(rng.sample(alphabet.symbols, rng.randint(1, 3))) for p in sorted(rng.sample(range(1, 4), count))}
            analysis = Analysis(one_entry_members_problem(rng, alphabet, held))
            assert sorted((g.entries[0] for g in analysis.members)) == sorted((p, s) for p in held for s in held[p])
            family, realized = judge_closed_set_product(analysis)
            assert len(family) == prod(len(symbols) + 1 for symbols in held.values()) - 1

    def test_bottom_member_and_no_members(self):
        base = lang(["", "0", "01", "11"])
        analysis = Analysis(DecisionProblem(base, base))
        assert analysis.members == [PartialString.bottom(BINARY)]
        assert judge_closed_set_product(analysis) == ({1}, {1})
        analysis = Analysis(DecisionProblem(base, lang([])))
        assert analysis.members == []
        assert judge_closed_set_product(analysis) == (set(), {0})
        assert complete_independence(analysis) == (True, 0, None)


def completeness_of_subset(H, problem, reduced):
    """True iff expanding H inside the base gives the target's closure there (the judge of completeness).

    H must lie inside the reduced logogram.  The expansion and the closure are word scans
    (`expand_in`, `cylindrify`): no index and no `Analysis`.
    """
    H = frozenset(H)
    if not H <= reduced:
        raise ValueError("subset must lie inside the reduced logogram")
    return expand_in(H, problem.base) == cylindrify(problem.target, problem.base)


def irreducible_by_expansion(problem, reduced):
    """The irreducibility judge: dropping any one member leaves an incomplete set."""
    return not any(completeness_of_subset(reduced - {g}, problem, reduced) for g in reduced)


class TestCompletenessAndIrreducibility:
    def test_full_reduced_logogram_is_complete(self):
        for n, m in ((1, 1), (2, 1), (2, 2)):
            problem, result, analysis = echelon_with_result(n, m)
            assert completeness_of_subset(result.reduced, problem, result.reduced)

    def test_dropping_a_member_breaks_completeness(self):
        problem, result, analysis = echelon_with_result(2, 2)
        member = sorted(result.reduced, key=lambda g: g.render())[0]
        assert not completeness_of_subset(result.reduced - {member}, problem, result.reduced)

    def test_empty_subset_incomplete(self):
        problem, result, analysis = echelon_with_result(1, 1)
        assert not completeness_of_subset(frozenset(), problem, result.reduced)

    def test_rejects_foreign_subset(self):
        problem, result, analysis = echelon_with_result(1, 1)
        with pytest.raises(ValueError):
            completeness_of_subset(frozenset({ps("1", problem.alphabet)}), problem, result.reduced)

    def test_irreducible_echelons(self):
        for n, m in ((1, 1), (2, 2)):
            problem, result, analysis = echelon_with_result(n, m)
            assert irreducible(analysis)

    def test_singleton_member(self):
        problem = DecisionProblem(sigma_exact(BINARY, 2), lang(["11"]))
        assert irreducible(Analysis(problem))

    def test_redundant_member_not_irreducible(self):
        assert not irreducible(Analysis(entangled_problem()))

    def test_irreducible_against_dropping_each_member(self):
        """The union of every other member's cylinder, OR-ed afresh per member, against the target."""
        rng = random.Random(29)
        verdicts = []
        for i in range(300):
            analysis = Analysis(random_problem(rng, (BINARY, TERNARY)[i % 2], max_len=rng.randint(1, 5)))
            cyls = analysis.cylinders
            unions = [0] * len(cyls)
            for j in range(len(cyls)):
                for other in cyls[:j] + cyls[j + 1:]:
                    unions[j] |= other
            expected = all(u != analysis.target_mask for u in unions) if cyls else analysis.target_mask == 0
            assert irreducible(analysis) == expected
            verdicts.append(expected)
        assert verdicts.count(True) > 20 and verdicts.count(False) > 20

    def test_agrees_with_the_expansion_judge_on_random_problems(self):
        """`irreducible` against `irreducible_by_expansion` over the naive reduced logogram."""
        verdicts = []
        for problem in independence_problems(2000, seed=20261020):
            reduced = log_rel_naive(problem)[1]
            expected = irreducible_by_expansion(problem, reduced)
            assert irreducible(Analysis(problem)) == expected, (sorted(problem.base.words), sorted(problem.target.words))
            verdicts.append(expected)
        assert verdicts.count(True) > 20 and verdicts.count(False) > 20, verdicts.count(True)

    def test_equals_strong_independence_where_the_expansion_identity_holds(self):
        """With the identity the cylinders cover the target's closure, and dropping member i
        shrinks that cover iff some word includes member i alone: strong independence."""
        rng = random.Random(5)
        problems = [random_problem(rng, (BINARY, TERNARY)[i % 2], max_len=rng.randint(1, 5)) for i in range(1000)]
        problems += [enumerate_echelon(EchelonSpec(n, m)) for n in (1, 2, 3) for m in (1, 2, 3)]
        verdicts = Counter()
        for problem in problems:
            analysis = Analysis(problem)
            assert verify_logogram_expansion(analysis)
            verdict = irreducible(analysis)
            assert verdict == strong_independence(analysis).holds, (sorted(problem.base.words), sorted(problem.target.words))
            verdicts[verdict] += 1
        assert min(verdicts[True], verdicts[False]) > 20, verdicts

    def test_empty_target_is_vacuously_irreducible(self):
        base = sigma_exact(BINARY, 2)
        analysis = Analysis(DecisionProblem(base, base.masked(0)))
        assert analysis.members == [] and irreducible(analysis)
        assert "words" not in vars(base)  # the empty target is read as its mask
        assert irreducible(Analysis(DecisionProblem(base, lang([]))))


class TestShape:
    def test_echelon_members_are_one_literal_per_clause(self):
        for n, m in ((1, 1), (2, 1), (2, 2)):
            problem, result, analysis = echelon_with_result(n, m)
            report = sat_shape_report(EchelonSpec(n, m), result)
            assert report.holds and report.findings == ()

    def test_reduced_equals_selection_oracle_strings(self):
        for n, m in ((1, 1), (2, 1), (1, 2), (2, 2)):
            problem, result, analysis = echelon_with_result(n, m)
            assert result.reduced == selection_strings(EchelonSpec(n, m))

    def test_flags_malformed_member(self):
        problem, result, analysis = echelon_with_result(1, 1)
        fake = type(result)(
            full=None,
            reduced=frozenset({PartialString.of(problem.alphabet, {5: "0"})}),
            full_count=1,
            candidate_space_size=4,
            positions=(5,),
            restricted=True,
        )
        report = sat_shape_report(EchelonSpec(1, 1), fake)
        assert not report.holds
        assert report.findings

    def test_findings_and_their_rendering(self):
        """On (2,2) the clause blocks are positions 7-10, clause c's variable v at 6 + 2(c - 1) + v.
        The findings follow `sorted_reduced`: by (size, render), size being the last defined position."""
        members = [{3: "2", 7: "1", 9: "1"}, {7: "0", 10: "2"}, {7: "1", 9: "2"}, {8: "1", 9: "2"}, {7: "1", 8: "1", 9: "1"}]
        reduced = frozenset(PartialString.of(SAT_ALPHABET, entries) for entries in members)
        fake = LogogramResult(None, reduced, len(reduced), 3 ** 4, (7, 8, 9, 10), True)
        assert to_json(sat_shape_report(EchelonSpec(2, 2), fake)) == {"holds": False, "members": 5, "findings": [
            {"string": "__2___1_1", "problems": ["entry at position 3 outside the clause blocks"]},
            {"string": "______111", "problems": ["clause 1 has 2 prescriptions"]},
            {"string": "______1_2", "problems": ["variable 1 prescribed in both signs"]},
            {"string": "______0__2", "problems": ["code '0' at clause 1, variable 1"]},
        ]}


class TestEvents:
    def test_single_proper_event(self):
        universe = sigma_exact(BINARY, 2)
        family = EventFamily(universe, (lang(["00"]),))
        constituents = atomic_constituents(family)
        assert len(constituents) == 2
        assert completely_independent_events(family)

    def test_equal_events_collapse(self):
        universe = sigma_exact(BINARY, 2)
        family = EventFamily(universe, (lang(["00"]), lang(["00"])))
        assert len(atomic_constituents(family)) == 2
        assert not completely_independent_events(family)

    def test_disjoint_events_fail(self):
        universe = sigma_exact(BINARY, 2)
        family = EventFamily(universe, (lang(["00"]), lang(["01"])))
        assert not completely_independent_events(family)

    def test_venn_pair(self):
        universe = sigma_exact(BINARY, 2)
        family = EventFamily(universe, (lang(["00", "01"]), lang(["01", "10"])))
        assert len(atomic_constituents(family)) == 4
        assert completely_independent_events(family)

    def test_matches_intersection_construction(self):
        universe = sigma_exact(BINARY, 2)
        family = EventFamily(universe, (lang(["00", "01"]), lang(["01", "10"]), lang(["11", "01"])))
        fast = {frozenset(c.words) for c in atomic_constituents(family)}
        slow = {frozenset(c.words) for c in constituents_by_intersection(family)}
        assert fast == slow

    def test_event_outside_universe(self):
        with pytest.raises(ValueError):
            EventFamily(lang(["00"]), (lang(["11"]),))


class TestRegionRelations:
    def test_minimal_echelon(self):
        problem = enumerate_echelon(EchelonSpec(1, 1))
        report = region_relations(Analysis(problem), ignore_bewitched=False)
        assert report.holds
        assert len(report.rows) == 1
        row = report.rows[0]
        assert row.disjoint and not row.low_entangles_high and not row.high_entangles_low

    def test_filtered_two_by_two(self):
        problem = enumerate_echelon(EchelonSpec(2, 2))
        report = region_relations(Analysis(problem), ignore_bewitched=True)
        assert report.holds
        assert all(not r.vacuous for r in report.rows)

    def test_unfiltered_shares_pseudowizards(self):
        problem = enumerate_echelon(EchelonSpec(2, 1))
        report = region_relations(Analysis(problem), ignore_bewitched=False)
        assert not all(r.disjoint for r in report.rows)

    def test_three_two_goes_vacuous(self):
        problem = enumerate_echelon(EchelonSpec(3, 2))
        report = region_relations(Analysis(problem), ignore_bewitched=True)
        assert report.holds
        assert all(r.vacuous for r in report.rows)

    def test_requires_regions(self):
        with pytest.raises(ValueError):
            region_relations(Analysis(entangled_problem()), True)

    @pytest.mark.parametrize("ignore_bewitched", [False, True])
    @pytest.mark.parametrize("n, m, distinct", [(3, 2, 30), (4, 2, 56)])
    def test_one_cylinder_per_distinct_region_member(self, monkeypatch, n, m, distinct, ignore_bewitched):
        analysis = Analysis(enumerate_echelon(EchelonSpec(n, m)))
        assert len(frozenset().union(*analysis.region_logograms)) == distinct
        real = logogram.ProblemIndex.cylinder_mask
        made = []

        def counting_cylinder_mask(self, g):
            made.append(g)
            return real(self, g)

        monkeypatch.setattr(logogram.ProblemIndex, "cylinder_mask", counting_cylinder_mask)
        region_relations(analysis, ignore_bewitched)
        assert len(made) == len(set(made)) == distinct
