"""Entanglement, witness classification, and independence properties.

All verifiers work on explicit finite problems, and every problem-level
check takes one `Analysis` (see `strtool.logogram`), which computes the
index, the reduced logogram, its cylinders and member masks, and the region
logograms once and shares them between checks.  A reduced-logogram string
is classified by how its relative cylinder sits inside the solution
regions' closures within the base (the regions themselves on a prefix-free
base): inside exactly one it is a proper witness, inside two or more an
improper witness (pseudowizard), inside none a wizard, since every cylinder
lies inside the target's closure, the union of the region closures.

Three problem-level properties are checked, each strictly stronger than
the last on finite problems:
  * internal: reduced-logogram strings are pairwise independent (their
    relative cylinders are incomparable);
  * strong: every string has a base word including it and no other
    reduced-logogram string;
  * complete: every pairwise-compatible subset has a base word including
    exactly that subset's join and nothing else from the reduced logogram
    beyond strings the join subsumes.

Internal independence tests few pairs.  If member i's cylinder lies inside
member j's, every word of it includes j, its first word among them; so
only the members in that one witness word's member mask are tested against
i, and the verdict, the pair count and the counterexample are those of the
all-pairs scan in `itertools.combinations` order.  The member masks only
prune pairs; every verdict still comes from the cylinders.

Complete independence is decided exactly, without enumerating subsets.  A
word including a compatible subset C includes join(C), hence every member
below the join; so C is separated iff some word's member mask equals that
closed set J(C).  The closed sets (10,934 on the (3,3) echelon, against
566,442 compatible subsets) are the nonempty sets of members below some
string over the members' positions, so each is an AND of one choice per
position: the members undefined there, or those agreeing with one symbol
there.  The check builds that AND-product a chunk of positions at a time
and keeps only the products that no word's member mask realizes.  When
one is left, the counterexample is the smallest subset generating a
failing set; C generates a closed set K iff join(C) = join(K), so the
search compares joins, each the OR of its members' entry bits.  It walks
the subsets in report order and stops at its first hit.
"""

# Annotations are evaluated at import (no `from __future__ import annotations`):
# NamedTuple would otherwise compile each record field's type from a string.
import itertools
from functools import reduce
from operator import or_
from typing import Iterable, NamedTuple

from .languages import BudgetExceeded, FiniteLanguage, expand_in
from .logogram import Analysis, LogogramResult, choice_tables, set_bits
from .sat import SAT_ALPHABET, EchelonSpec
from .strings import PartialString, Value, join_all

PROPER_WITNESS = "ProperWitness"
IMPROPER_WITNESS = "ImproperWitness"
WIZARD = "Wizard"
MAX_EVENTS = 16  # atomic_constituents enumerates at most 2**MAX_EVENTS sign patterns


class NotInReducedLogogram(ValueError):
    """The queried string is not a member of the problem's reduced logogram."""


def entangles(f: PartialString, g: PartialString, E: FiniteLanguage) -> bool:
    """True iff every E-word including f also includes g; both must occur in E."""
    return entangles_sets((f,), (g,), E)


def entangles_sets(H, K, E: FiniteLanguage) -> bool:
    """True iff every E-word including some member of H includes some member of K.

    Vacuously true for empty H.  Every member of either set must occur in E.
    """
    H, K = frozenset(H), frozenset(K)
    for g in sorted(H | K, key=lambda s: (s.size, s.render())):
        if not expand_in((g,), E):
            raise ValueError(f"member {g.render()!r} does not occur in the base language")
    return expand_in(H, E).issubset(expand_in(K, E))


class StringVerdict(NamedTuple):
    string: PartialString
    kind: str
    regions: tuple[int, ...]  # 1-based indices of the regions holding the string's cylinder


class Counterexample(NamedTuple):
    strings: tuple[str, ...]  # member renders
    reason: str


class IndependenceVerdict(NamedTuple):
    holds: bool
    subsets_checked: int
    counterexample: Counterexample | None = None


def classify_all(analysis: Analysis) -> list[StringVerdict]:
    """Classify every reduced-logogram string by the solution regions holding its cylinder."""
    verdicts = []
    for g, cyl in zip(analysis.members, analysis.cylinders):
        containing = tuple(j + 1 for j in set_bits(analysis.regions_holding(g, cyl)))
        if len(containing) == 1:
            kind = PROPER_WITNESS
        elif containing:
            kind = IMPROPER_WITNESS
        else:
            kind = WIZARD
        verdicts.append(StringVerdict(g, kind, containing))
    return verdicts


def classify(g: PartialString, analysis: Analysis) -> StringVerdict:
    """Classify one string; it must belong to the problem's reduced logogram."""
    if g not in analysis.logogram.reduced:
        raise NotInReducedLogogram(f"{g.render()!r} is not in the reduced logogram")
    return next(v for v in classify_all(analysis) if v.string == g)


def internal_independence(analysis: Analysis) -> IndependenceVerdict:
    """Pairwise cylinder incomparability across the reduced logogram.

    The counterexample is the first pair (i, j), i < j, in `itertools.combinations`
    order whose cylinders are comparable either way, and subsets_checked is its
    rank (all k(k-1)/2 pairs when none is).  Member i is tested only against the
    members including the first word of its cylinder (every member when the
    cylinder is empty); the lowest such j whose cylinder holds cylinder i gives
    i's smallest comparable pair, and the smallest over all i is the first one.
    """
    members, cyls = analysis.members, analysis.cylinders
    k = len(members)
    masks = analysis.member_masks
    first = None
    for i, cyl in enumerate(cyls):
        witnesses = masks[(cyl & -cyl).bit_length() - 1] if cyl else (1 << k) - 1
        for j in set_bits(witnesses & ~(1 << i)):
            if not (cyl & ~cyls[j]):
                pair = (min(i, j), max(i, j))
                if first is None or pair < first:
                    first = pair
                break
    if first is None:
        return IndependenceVerdict(holds=True, subsets_checked=k * (k - 1) // 2)
    i, j = first
    return IndependenceVerdict(
        holds=False,
        subsets_checked=i * (2 * k - i - 1) // 2 + (j - i),
        counterexample=Counterexample((members[i].render(), members[j].render()),
                                      "relative cylinders are comparable"),
    )


def strong_independence(analysis: Analysis) -> IndependenceVerdict:
    """Every reduced-logogram string has a base word including it and nothing else from the set."""
    singles = analysis.realized_masks & {1 << i for i in range(len(analysis.members))}
    for i, g in enumerate(analysis.members):
        if (1 << i) not in singles:
            return IndependenceVerdict(
                holds=False,
                subsets_checked=i + 1,
                counterexample=Counterexample((g.render(),), "no base word includes this string alone"),
            )
    return IndependenceVerdict(holds=True, subsets_checked=len(analysis.members))


def construct_separator(fs, spec: EchelonSpec) -> str:
    """Encoded word whose body carries exactly the prescriptions of the given strings.

    The body holds the join's code wherever some member prescribes one and
    '0' elsewhere, so the word includes each member.  On an echelon this is
    the constructive witness behind complete independence: the separator of
    a closed set's join includes exactly that closed set.  Raises on
    incompatible members or entries outside the echelon's clause blocks.
    """
    joined = join_all(fs)
    if joined is None:
        raise ValueError("incompatible prescriptions")
    if joined.alphabet != SAT_ALPHABET:
        raise ValueError("separator strings must use the CNF-code alphabet")
    body = dict.fromkeys(spec.body_positions, "0")
    for pos, sym in joined.entries:
        if pos not in body:
            raise ValueError(f"position {pos} of {joined.render()!r} is outside echelon ({spec.n},{spec.m})")
        body[pos] = sym
    return spec.prefix + "".join(body.values())


def complete_independence(analysis: Analysis) -> IndependenceVerdict:
    """Exact complete independence, decided over the join-closed member sets.

    For a pairwise-compatible subset C let J(C) be the members lying below
    join(C).  A word including all of C includes join(C), hence all of
    J(C); so a word separates C (includes C and nothing the join does not
    subsume) iff its member mask equals J(C).  The property therefore holds
    iff every distinct closed set J(C) is some base word's member mask.

    The closed sets are the nonempty sets down(s) of the members below some
    string s over the members' positions: J(C) = down(join(C)), and a
    nonempty down(s) is J of itself, since its join lies below s.  So
    they are the nonzero ANDs of one entry of `Analysis.position_choices`
    per position, its undefined entry or a symbol's: every closed set is an
    intersection of attribute extents (Ganter and Wille, *Formal Concept
    Analysis*, 1999).  `_unrealized_closed_sets` makes the ones no word
    realizes.

    subsets_checked counts the distinct closed sets, len(realized) - (0 in
    realized) + len(failing), where realized holds the words' member masks.
    That is exact because every nonzero realized mask is a closed set: a
    word w includes a member iff the member lies below w restricted to the
    members' positions (undefined past w's end), so w's mask is down of
    that string.  The root J(∅), the members with an empty domain, counts
    only when it is nonempty, which happens when ⊥ is a member.  The
    counterexample is the smallest failing C by (size, member renders), the
    first hit of `_smallest_generator`'s walk in that order over the
    members' entries as bits, one per distinct (position, symbol).
    """
    members = analysis.members
    realized = analysis.realized_masks
    failing = _unrealized_closed_sets(analysis, realized)
    checked = len(realized) - (0 in realized) + len(failing)
    if not failing:
        return IndependenceVerdict(holds=True, subsets_checked=checked)
    entry_bit: dict[tuple[int, str], int] = {}  # one bit per distinct (position, symbol)
    entries = [sum(1 << entry_bit.setdefault(e, len(entry_bit)) for e in g.entries) for g in members]
    return IndependenceVerdict(holds=False, subsets_checked=checked, counterexample=Counterexample(
        _smallest_generator([g.render() for g in members], entries, failing),
        "no base word includes exactly this compatible subset",
    ))


def _unrealized_closed_sets(analysis: Analysis, realized: frozenset[int]) -> set[int]:
    """The closed sets (nonempty member sets down(s), see `complete_independence`) outside realized.

    The member positions are cut into chunks by `choice_tables`, the remainder
    chunk first, each chunk's table holding the ANDs of one choice per
    position.  Every chunk but the last is folded into the set of distinct
    nonzero products; the last is streamed against it, so only the products
    outside realized are kept.
    """
    full = (1 << len(analysis.members)) - 1
    options = [[undefined, *by_symbol.values()] for undefined, by_symbol in analysis.position_choices.values()]
    *head, last = map(set, choice_tables(options, full))
    closed = {full}
    for table in head:
        closed = {y for k in closed for t in table if (y := k & t)}
    return {y for k in closed for t in last if (y := k & t) and y not in realized}


def _smallest_generator(renders: list[str], entries: list[int], failing: set[int]) -> tuple[str, ...]:
    """Renders of the smallest subset C of members, by (size, renders), whose closed set is failing.

    entries[i] holds member i's entries as bits, one per distinct (position, symbol), so
    the join of compatible members is the OR of their bits.  C generates a closed set K,
    J(C) = K, iff join(C) = join(K): J(C) = down(join C), and a join of members is the
    join of the members below it.  So C generates a failing set iff its OR is one of
    the failing sets' joins.  The subsets of each size are walked in report order, so
    the first hit is returned: C lists its members by index, and each next member, of a
    higher index than the last, is tried in render order.  Each failing set generates
    itself, so the walk ends by the size of the smallest one.  C lies inside its closed
    set, so a subset is extended only while some failing set holds it: bit f of
    holding[i], a column of the failing sets' binary rows, stands for the f-th one
    holding member i, and each stack entry carries the AND over its members.  The last
    member needs no AND, since a failing set whose join is the OR holds the subset.
    """
    k = len(entries)
    joins = {reduce(or_, map(entries.__getitem__, set_bits(K)), 0) for K in failing}
    rows = "".join(format(K, f"0{k}b") for K in failing)  # member i is column k - 1 - i
    holding = [int(rows[k - 1 - i::k], 2) for i in range(k)]
    later = [sorted(range(i, k), key=renders.__getitem__) for i in range(k + 1)]  # members i.. in render order
    for size in itertools.count(1):
        stack = [((), -1, 0, later[0])]  # (chosen, cover, joined, the members that may follow); -1 covers every set
        while stack:
            chosen, cover, joined, after = stack.pop()
            if len(chosen) < size - 1:
                stack += [(chosen + (j,), within, joined | entries[j], later[j + 1])
                          for j in reversed(after) if (within := cover & holding[j])]
                continue
            for j in after:
                if joined | entries[j] in joins:
                    return tuple(renders[i] for i in (*chosen, j))


def irreducible(analysis: Analysis) -> bool:
    """True iff removing any one reduced-logogram string breaks completeness.

    Without member i the expansion is the words some other member covers: outside
    cylinder i those covered at all, inside it those covered at least twice.  Where the
    expansion identity holds this is `strong_independence`: the cylinders' union is then
    the target's closure, which dropping member i shrinks iff some word lies in cylinder i
    alone, i.e. iff 1 << i is a realized member mask.  Both stay, computed apart.
    """
    cyls = analysis.cylinders
    if not cyls:
        return analysis.target_mask == 0
    once = twice = 0  # the words covered by at least one member, by at least two
    for c in cyls:
        twice |= once & c
        once |= c
    return all((once & ~c) | (twice & c) != analysis.target_mask for c in cyls)


class WizardFinding(NamedTuple):
    string: str
    witnesses: int
    union_holds: bool
    proper: bool
    witness_inside_wizard: bool


class WizardCoverReport(NamedTuple):
    holds: bool
    wizard_count: int
    findings: tuple[WizardFinding, ...] = ()


def wizard_cover_report(analysis: Analysis) -> WizardCoverReport:
    """For each wizard, check its cylinder against the union of intersecting witness cylinders.

    Witnesses are drawn from the union of the region reduced logograms, which
    are walked only when there is a wizard.  Records whether the union
    inclusion is proper and whether any witness cylinder sits inside the
    wizard's cylinder.
    """
    verdicts = classify_all(analysis)
    wizards = [(v.string, cyl) for v, cyl in zip(verdicts, analysis.cylinders) if v.kind == WIZARD]
    pool_cyls = []
    if wizards:
        pool_cyls = [analysis.index.cylinder_mask(g) for g in frozenset().union(*analysis.region_logograms)]
    findings = []
    for g, cyl in wizards:
        assoc = [c for c in pool_cyls if c & cyl]
        union = 0
        for c in assoc:
            union |= c
        union_holds = not (cyl & ~union)
        findings.append(WizardFinding(
            string=g.render(),
            witnesses=len(assoc),
            union_holds=union_holds,
            proper=union_holds and union != cyl,
            witness_inside_wizard=any(not (c & ~cyl) for c in assoc),
        ))
    return WizardCoverReport(holds=all(f.union_holds for f in findings), wizard_count=len(wizards),
                             findings=tuple(findings))


class ShapeFinding(NamedTuple):
    string: str
    problems: tuple[str, ...]


class ShapeReport(NamedTuple):
    holds: bool
    members: int
    findings: tuple[ShapeFinding, ...] = ()


def sat_shape_report(spec: EchelonSpec, logogram: LogogramResult) -> ShapeReport:
    """Check the expected shape of echelon reduced-logogram strings.

    Expected: entries only on clause-block positions, codes drawn from
    {1,2}, exactly one code per clause, and no variable prescribed in both
    signs across clauses.  Violations become findings, not errors.
    """
    findings = []
    for g in logogram.sorted_reduced():
        problems: list[str] = []
        per_clause: dict[int, int] = {}
        signs: dict[int, str] = {}
        for pos, sym in g.entries:
            if (slot := spec.slot(pos)) is None:
                problems.append(f"entry at position {pos} outside the clause blocks")
                continue
            clause, var = slot
            per_clause[clause] = per_clause.get(clause, 0) + 1
            if sym not in ("1", "2"):
                problems.append(f"code {sym!r} at clause {clause}, variable {var}")
            elif signs.setdefault(var, sym) != sym:
                problems.append(f"variable {var} prescribed in both signs")
        for clause in range(1, spec.m + 1):
            if per_clause.get(clause, 0) != 1:
                problems.append(f"clause {clause} has {per_clause.get(clause, 0)} prescriptions")
        if problems:
            findings.append(ShapeFinding(g.render(), tuple(problems)))
    return ShapeReport(holds=not findings, members=len(logogram.reduced), findings=tuple(findings))


class EventFamily(Value):
    """Events over a universe: the value `(universe, events)`, events a tuple of sublanguages of the universe."""

    __slots__ = ()
    _fields = ("universe", "events")

    def __new__(cls, universe: FiniteLanguage, events: Iterable[FiniteLanguage]) -> "EventFamily":
        events = tuple(events)
        for E in events:
            if not E.issubset(universe):
                raise ValueError("every event must be a subset of the universe")
        return tuple.__new__(cls, (universe, events))


def atomic_constituents(family: EventFamily) -> list[FiniteLanguage]:
    """Nonvoid signed intersections of the events, one per realized sign pattern.

    Pattern k assigns event j positively iff bit j of k is set; output is
    ordered by pattern index.
    """
    m = len(family.events)
    if m > MAX_EVENTS:
        raise BudgetExceeded("too many events for constituent enumeration", 2 ** m, 2 ** MAX_EVENTS)
    buckets: dict[int, set[str]] = {}
    for w in family.universe.words:
        pattern = 0
        for j, E in enumerate(family.events):
            if w in E:
                pattern |= 1 << j
        buckets.setdefault(pattern, set()).add(w)
    return [
        FiniteLanguage.of(family.universe.alphabet, buckets[k])
        for k in sorted(buckets)
    ]


def completely_independent_events(family: EventFamily) -> bool:
    """True iff the events realize all 2**m sign patterns."""
    return len(atomic_constituents(family)) == 2 ** len(family.events)


class RegionRow(NamedTuple):
    i: int  # compares regions 1..i against region i+1
    disjoint: bool
    disjoint_unfiltered: bool
    low_entangles_high: bool
    high_entangles_low: bool
    vacuous: bool
    low_size: int
    high_size: int


class RegionRelationsReport(NamedTuple):
    ignore_bewitched: bool
    holds: bool
    rows: tuple[RegionRow, ...] = ()


def region_relations(analysis: Analysis, ignore_bewitched: bool) -> RegionRelationsReport:
    """Disjointness and two-way non-entanglement of successive region logograms.

    For each i, the union of the first i region reduced logograms is
    compared with region i+1's.  With ignore_bewitched, strings whose
    cylinders sit in two or more regions (improper witnesses, as
    `classify_all` finds them through `Analysis.regions_holding`) are
    removed from both sides before the checks; rows where a side then comes
    out empty are flagged vacuous and carry no entanglement either way,
    since set entanglement presupposes occupied sides.  Unfiltered
    disjointness is always recorded alongside.
    """
    raw_logograms = analysis.region_logograms
    cylinders = {g: analysis.index.cylinder_mask(g) for g in frozenset().union(*raw_logograms)}
    if ignore_bewitched:  # keep the strings whose cylinders sit in fewer than two regions
        proper = {g for g, cyl in cylinders.items() if analysis.regions_holding(g, cyl).bit_count() < 2}
        filtered = [H & proper for H in raw_logograms]
    else:
        filtered = raw_logograms
    expanded = []
    for H in filtered:
        mask = 0
        for g in H:
            mask |= cylinders[g]
        expanded.append(mask)

    rows = []
    low: frozenset[PartialString] = frozenset()
    low_raw: frozenset[PartialString] = frozenset()
    exp_low = 0
    for i in range(1, len(raw_logograms)):
        low = low | filtered[i - 1]
        low_raw = low_raw | raw_logograms[i - 1]
        exp_low |= expanded[i - 1]
        high, exp_high = filtered[i], expanded[i]
        disjoint = not (low & high)
        disjoint_unfiltered = not (low_raw & raw_logograms[i])
        vacuous = not low or not high
        if vacuous:
            fwd = bwd = False
        else:
            fwd = not (exp_low & ~exp_high)
            bwd = not (exp_high & ~exp_low)
        rows.append(RegionRow(
            i=i,
            disjoint=disjoint,
            disjoint_unfiltered=disjoint_unfiltered,
            low_entangles_high=fwd,
            high_entangles_low=bwd,
            vacuous=vacuous,
            low_size=len(low),
            high_size=len(high),
        ))
    holds = all(r.disjoint and not r.low_entangles_high and not r.high_entangles_low for r in rows)
    return RegionRelationsReport(ignore_bewitched=ignore_bewitched, holds=holds, rows=tuple(rows))
