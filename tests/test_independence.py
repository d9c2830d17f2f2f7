import pytest

from strtool.cli import constituents_by_intersection, toy_wizard_problem
from strtool.independence import (
    EventFamily,
    IMPROPER_WITNESS,
    NotInReducedLogogram,
    PROPER_WITNESS,
    WIZARD,
    atomic_constituents,
    classify,
    classify_all,
    complete_independence,
    completely_independent_events,
    completeness_of_subset,
    construct_separator,
    entangles,
    entangles_sets,
    internal_independence,
    irreducible,
    pairwise_independent,
    region_relations,
    sat_shape_report,
    strong_independence,
    wizard_cover_report,
)
from strtool import logogram
from strtool.languages import BINARY, FiniteLanguage, sigma_exact
from strtool.logogram import Analysis, DecisionProblem
from strtool.sat import EchelonSpec, enumerate_echelon, selection_strings, string_entries
from strtool.strings import PartialString


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
        indexes, walks = [], []
        real_index, real_log_rel = logogram.ProblemIndex, logogram.log_rel

        class CountingIndex(real_index):
            def __init__(self, base):
                indexes.append(base)
                super().__init__(base)

        def counting_log_rel(problem, *args, **kwargs):
            walks.append(problem.target)
            return real_log_rel(problem, *args, **kwargs)

        monkeypatch.setattr(logogram, "ProblemIndex", CountingIndex)
        monkeypatch.setattr(logogram, "log_rel", counting_log_rel)
        toy = toy_wizard_problem()
        analysis = Analysis(toy)
        classify_all(analysis)
        assert wizard_cover_report(analysis).wizard_count == 2
        region_relations(analysis, ignore_bewitched=False)
        assert len(indexes) == 1
        assert walks == [toy.target, *toy.regions]  # the problem's walk, then one per region


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
        E = sigma_exact(BINARY, 2)
        assert pairwise_independent(ps("1"), ps("_1"), E)
        assert not pairwise_independent(ps("1"), ps("10"), E)

    def test_pairwise_on_minimal_echelon(self):
        problem, result, analysis = echelon_with_result(1, 1)
        a, b = sorted(result.reduced, key=lambda g: g.render())
        assert pairwise_independent(a, b, problem.base)

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
        assert verdict.containing_regions == (2,)

    def test_two_variable_improper(self):
        problem, result, analysis = echelon_with_result(2, 1)
        g = string_entries(EchelonSpec(2, 1), [(1, 1, "1")])
        verdict = classify(g, analysis)
        assert verdict.kind == IMPROPER_WITNESS
        assert verdict.containing_regions == (2, 4)

    def test_toy_wizard(self):
        toy = toy_wizard_problem()
        verdict = classify(ps("1"), Analysis(toy))
        assert verdict.kind == WIZARD
        assert verdict.containing_regions == ()

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
            assert report.holds and report.findings == []

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
        assert verdict.counterexample["strings"] == ["1"]

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


class TestComplete:
    def test_small_echelons_exhaustive(self):
        for n, m in ((1, 1), (2, 1), (1, 2), (2, 2)):
            problem, result, analysis = echelon_with_result(n, m)
            verdict = complete_independence(analysis, 4, echelon=EchelonSpec(n, m))
            assert verdict.holds and not verdict.partial

    def test_generic_search_without_echelon_shortcut(self):
        problem, result, analysis = echelon_with_result(2, 1)
        verdict = complete_independence(analysis, 4)
        assert verdict.holds and not verdict.partial

    def test_entangled_problem_fails(self):
        verdict = complete_independence(Analysis(entangled_problem()), 4)
        assert not verdict.holds
        # no word contains position-1 "1" without also containing position-3 "1"
        assert verdict.counterexample["strings"] == ["1"]

    def test_budget_cap_marks_partial(self):
        problem, result, analysis = echelon_with_result(2, 2)
        verdict = complete_independence(analysis, 2,
                                        echelon=EchelonSpec(2, 2), subset_budget=10)
        assert verdict.partial
        assert verdict.holds  # everything it did check still separates

    def test_subset_count_matches_brute_force(self):
        problem, result, analysis = echelon_with_result(2, 1)
        import itertools as it
        members = sorted(result.reduced, key=lambda g: (g.size, g.render()))
        expected = 0
        for r in range(1, len(members) + 1):
            for combo in it.combinations(members, r):
                if all(a.compatible(b) for a, b in it.combinations(combo, 2)):
                    expected += 1
        verdict = complete_independence(analysis, 4, echelon=EchelonSpec(2, 1))
        assert verdict.subsets_checked == expected


class TestCompletenessAndIrreducibility:
    def test_full_reduced_logogram_is_complete(self):
        for n, m in ((1, 1), (2, 1), (2, 2)):
            problem, result, analysis = echelon_with_result(n, m)
            assert completeness_of_subset(result.reduced, analysis)

    def test_dropping_a_member_breaks_completeness(self):
        problem, result, analysis = echelon_with_result(2, 2)
        member = sorted(result.reduced, key=lambda g: g.render())[0]
        assert not completeness_of_subset(result.reduced - {member}, analysis)

    def test_empty_subset_incomplete(self):
        problem, result, analysis = echelon_with_result(1, 1)
        assert not completeness_of_subset(frozenset(), analysis)

    def test_rejects_foreign_subset(self):
        problem, result, analysis = echelon_with_result(1, 1)
        with pytest.raises(ValueError):
            completeness_of_subset(frozenset({ps("1", problem.alphabet)}), analysis)

    def test_irreducible_echelons(self):
        for n, m in ((1, 1), (2, 2)):
            problem, result, analysis = echelon_with_result(n, m)
            assert irreducible(analysis)

    def test_singleton_member(self):
        problem = DecisionProblem(sigma_exact(BINARY, 2), lang(["11"]))
        assert irreducible(Analysis(problem))

    def test_redundant_member_not_irreducible(self):
        assert not irreducible(Analysis(entangled_problem()))


class TestShape:
    def test_echelon_members_are_one_literal_per_clause(self):
        for n, m in ((1, 1), (2, 1), (2, 2)):
            problem, result, analysis = echelon_with_result(n, m)
            report = sat_shape_report(EchelonSpec(n, m), result)
            assert report.holds and report.findings == []

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
            expansion=problem.base,
            elapsed=0.0,
        )
        report = sat_shape_report(EchelonSpec(1, 1), fake)
        assert not report.holds
        assert report.findings


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
