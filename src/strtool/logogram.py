"""Brute-force logograms of decision problems.

The logogram of a target set F relative to a base language E is the set of
strings whose presence in an E-word guarantees membership in the prefix
closure of F within E; the reduced logogram keeps its minimal elements.

Engine layout: E is indexed once into per-(position, symbol) bitmasks over
the word list, so a candidate's relative cylinder is an AND of masks.
Candidates are integer keys (digit j of a key is the symbol code at the j-th
candidate position, 0 = undefined), and the logogram is computed over bitsets
of the whole candidate space, bit k standing for key k.  A candidate
qualifies iff some base word extends it and no bad word (outside the
target's closure) does; "some word of S extends it" is an OR-transform of
S's word keys down the restriction order, one position at a time.  Every
string between a qualifying string and a qualifying extension of it
qualifies too, so a key is minimal iff none of its one-entry deletions
qualifies: one more set of shifts.  full_count is the popcount of the
qualifying set, and only the keys that are reported are decoded into
strings.  The index keeps, per positions tuple, the digit-0 masks, one key
per word and the keys some base word extends, so each region walk builds
only its bad-word bitset.  A deliberately plain enumerator (`log_rel_naive`)
re-derives the same sets with no index, no restriction and no pruning: one
pass per domain projects the base words defined on it and keeps the
projections whose words all lie in the target's closure, about words x
2^npos projections in all; it is the correctness oracle for the engine.

An `Analysis` wraps one problem and computes its index, logogram, member
cylinders and masks, region masks (from the labels) and region logograms
once, on first use; the checks in `strtool.independence` take one.

Cache files: "logogram-<fingerprint>.txt" with a JSON header line followed
by one rendered string per line, reduced members flagged "R ", remaining
members flagged ". ".  The header carries a sha256 of itself (without the
digest) and the body lines; a missing or mismatched digest, a fingerprint or
version mismatch, or a body that disagrees with the header's reduced_count
(or full_count, when the full set is stored), invalidates the file and the
caller recomputes.  Files are written to a temporary name and renamed into
place, so a reader never sees a partial write.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import time
from bisect import bisect_left, bisect_right
from functools import cached_property
from operator import itemgetter
from pathlib import Path

from . import __version__
from .languages import BudgetExceeded, FiniteLanguage, cylindrify, expand_in, is_full_slice
from .strings import AlphabetMismatch, PartialString, read_only, reduce_strings

DEFAULT_CANDIDATE_BUDGET = 4 ** 12
FULL_KEEP_LIMIT = 50_000


class DecisionProblem:
    """A base language E, a target F inside it, and optional solution regions covering F.

    Regions are labels: bit j of labels[w] means that target word w lies in region j, so
    there are max(labels.values()).bit_length() regions.  Every target word carries a nonzero
    label and no other word carries one; a region language is built only where one is walked.
    """

    def __init__(self, base: FiniteLanguage, target: FiniteLanguage, labels: dict[str, int] | None = None) -> None:
        if base.alphabet != target.alphabet:
            raise AlphabetMismatch("base and target use different alphabets")
        if not target.issubset(base):
            raise ValueError("target must be a subset of the base language")
        if labels is not None:
            if not labels.keys() <= target.words:
                raise ValueError("every region must be a subset of the target")
            if labels.keys() != target.words or not all(labels.values()):
                raise ValueError("regions must cover the target exactly")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "labels", labels)

    __setattr__ = __delattr__ = read_only

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.base, self.target, self.labels) == (other.base, other.target, other.labels)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.base, self.target, self.labels))

    @property
    def alphabet(self):
        return self.base.alphabet


class ProblemIndex:
    """Per-(position, symbol) bitmask index over the words of a base language.

    Bit k of every mask stands for words[k] (sorted by length, then text);
    `ordinal` maps each word to its k.  The words longer than position i
    form a suffix of the list, so each position's masks come from one
    column string of that suffix, one translate to binary digits per symbol.
    """

    def __init__(self, base: FiniteLanguage):
        if not base.words:
            raise ValueError("cannot index an empty base language")
        self.language = base
        self.alphabet = base.alphabet
        by_lex = sorted(base.words)
        self.words = tuple(sorted(by_lex, key=len))  # stable: by length, then text
        self.ordinal = {w: k for k, w in enumerate(self.words)}
        self.all_mask = (1 << len(self.words)) - 1
        self.max_len = len(self.words[-1])
        self.row_bytes = (len(self.words) + 7) >> 3
        zeros = dict.fromkeys(map(ord, self.alphabet.symbols), "0")
        tables = {c: str.maketrans({**zeros, ord(c): "1"}) for c in self.alphabet.symbols}
        self.pos_masks: list[dict[str, int]] = []
        for i in range(self.max_len):
            start = bisect_right(self.words, i, key=len)  # the words longer than i form a suffix
            column = "".join(map(itemgetter(i), self.words[start:]))
            self.pos_masks.append({
                c: int(column.translate(table)[::-1], 2) << start
                for c, table in tables.items() if c in column
            })
        self.prefix_free = not any(
            by_lex[i + 1].startswith(by_lex[i]) for i in range(len(by_lex) - 1)
        )
        lo, hi = by_lex[0], by_lex[-1]
        shared = 0
        while shared < len(lo) and lo[shared] == hi[shared]:
            shared += 1
        self.shared_prefix_len = shared if len(self.words) > 1 else 0
        self._spaces: dict[tuple[int, ...], CandidateSpace] = {}

    def candidate_space(self, positions: tuple[int, ...]) -> "CandidateSpace":
        """The key tables over these candidate positions, built on first use and kept."""
        space = self._spaces.get(positions)
        if space is None:
            space = self._spaces[positions] = CandidateSpace(self, positions)
        return space

    def word_mask(self, words) -> int:
        row = bytearray(self.row_bytes)
        for w in words:
            k = self.ordinal[w]
            row[k >> 3] |= 1 << (k & 7)
        return int.from_bytes(row, "little")

    def cylinder_mask(self, g: PartialString) -> int:
        mask = self.all_mask
        for pos, sym in g.entries:
            if pos > self.max_len:
                return 0
            mask &= self.pos_masks[pos - 1].get(sym, 0)
            if not mask:
                return 0
        return mask

    def mask_language(self, mask: int) -> FiniteLanguage:
        bits = bin(mask)[:1:-1]  # bits[k] is bit k of the mask
        return FiniteLanguage.of(self.alphabet, (w for w, b in zip(self.words, bits) if b == "1"))

    def target_mask(self, target: FiniteLanguage) -> int:
        """Mask of the prefix closure of the target within the base (the target itself when prefix-free)."""
        if self.prefix_free:
            return self.word_mask(target.words)
        return self.word_mask(cylindrify(target, self.language).words)


class CandidateSpace:
    """Bitsets over the candidate keys of one positions tuple, and the transforms the kernel applies to them.

    Bit k of a bitset stands for candidate key k: digit j of k (base len(symbols) + 1) is
    the symbol code at positions[j], 0 = undefined.  A word's key has digit 0 at the
    positions past its end, and word w extends candidate g iff every nonzero digit of
    g's key equals w's digit there: the restriction order on keys.
    """

    def __init__(self, index: ProblemIndex, positions: tuple[int, ...]):
        symbols = index.alphabet.symbols
        self.base = base = len(symbols) + 1
        self.size = size = base ** len(positions)
        self.steps = [base ** j for j in range(len(positions))]
        self.keys = _word_keys(index, positions, base)
        # zero[j]: the keys whose digit j is 0, one run of step bits every base * step bits
        self.zero = []
        for step in self.steps:
            mask, width = (1 << step) - 1, base * step
            while width < size:
                mask |= mask << width
                width <<= 1
            self.zero.append(mask & ((1 << size) - 1))
        self.reachable = self.extended(self.bitset(index.all_mask))

    def bitset(self, word_mask: int) -> int:
        """The keys of the words in word_mask (bit k for index.words[k])."""
        row = bytearray((self.size + 7) >> 3)
        for key in itertools.compress(self.keys, bin(word_mask)[:1:-1].encode().translate(_BIT_BYTES)):
            row[key >> 3] |= 1 << (key & 7)
        return int.from_bytes(row, "little")

    def qualifying(self, bad_mask: int) -> int:
        """The keys some word extends and no word of bad_mask extends."""
        return self.reachable & ~self.extended(self.bitset(bad_mask))

    def extended(self, bits: int) -> int:
        """The keys some key in bits extends: the down-closure of bits, one position at a time."""
        for step, zero in zip(self.steps, self.zero):
            above = 0
            for shift in range(step, self.base * step, step):
                above |= bits >> shift
            bits |= above & zero
        return bits

    def minimal(self, bits: int) -> int:
        """The keys in bits none of whose one-entry deletions is in bits."""
        covered = 0
        for step, zero in zip(self.steps, self.zero):
            below = bits & zero
            for shift in range(step, self.base * step, step):
                covered |= below << shift
        return bits & ~covered


_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def _word_keys(index: ProblemIndex, positions: tuple[int, ...], base: int) -> memoryview:
    """One candidate key per index word, in index order, as unsigned 64-bit integers.

    The keys are summed as one integer of 64-bit fields, field k for word k: each
    (position, symbol) mask contributes its bits, spread one to a field, times the
    symbol's digit value at that position.
    """
    width = 8 * len(index.words)
    packed = 0
    for j, p in enumerate(positions):
        if p > index.max_len:
            continue
        for d, sym in enumerate(index.alphabet.symbols, 1):
            mask = index.pos_masks[p - 1].get(sym)
            if mask:
                bits = bin(mask)[:1:-1].encode().translate(_BIT_BYTES)
                fields = bytearray(width)
                fields[:8 * len(bits):8] = bits
                packed += int.from_bytes(fields, "little") * (d * base ** j)
    keys = memoryview(packed.to_bytes(width, sys.byteorder)).cast("Q")
    return keys[::-1] if sys.byteorder == "big" else keys


def set_bits(bits: int) -> list[int]:
    """The indices of the set bits of a nonnegative integer, lowest first."""
    digits = bin(bits)[:1:-1]  # digits[k] is bit k
    out = []
    k = digits.find("1")
    while k >= 0:
        out.append(k)
        k = digits.find("1", k + 1)
    return out


class Analysis:
    """One decision problem and the artefacts every check shares, each computed once on first use.

    Members are the reduced logogram sorted by (size, render); bit i of a
    member mask stands for members[i], and bit k of a cylinder, target or
    region mask for index.words[k].
    """

    def __init__(self, problem: DecisionProblem, *, budget: int = DEFAULT_CANDIDATE_BUDGET):
        self.problem = problem
        self.budget = budget

    @cached_property
    def index(self) -> ProblemIndex:
        return ProblemIndex(self.problem.base)

    @cached_property
    def logogram(self) -> "LogogramResult":
        return log_rel(self.problem, index=self.index, budget=self.budget)

    @cached_property
    def members(self) -> list[PartialString]:
        return self.logogram.sorted_reduced()

    @cached_property
    def cylinders(self) -> list[int]:
        return [self.index.cylinder_mask(g) for g in self.members]

    @cached_property
    def target_mask(self) -> int:
        return self.index.target_mask(self.problem.target)

    @cached_property
    def region_masks(self) -> list[int]:
        """Mask j holds the words whose label has bit j set.

        The labels are written out as binary digits, last word first, so one region's digits,
        a strided slice, read as its mask; 64 regions at a time bound the string's memory.
        """
        labels = self.problem.labels
        if labels is None:
            raise ValueError("problem has no solution regions")
        count = max(labels.values(), default=0).bit_length()
        order = [labels.get(w, 0) for w in reversed(self.index.words)]
        masks = []
        for low in range(0, count, 64):
            width = min(64, count - low)
            digits = "".join([format(label >> low & (1 << width) - 1, f"0{width}b") for label in order])
            masks.extend(int(digits[width - 1 - j::width], 2) for j in range(width))
        return masks

    @cached_property
    def member_masks(self) -> dict[str, int]:
        """For each base word, the mask of the members it includes: the cylinders transposed."""
        masks = [0] * len(self.index.words)
        for i, cyl in enumerate(self.cylinders):
            for k in set_bits(cyl):
                masks[k] |= 1 << i
        return dict(zip(self.index.words, masks))

    @cached_property
    def region_logograms(self) -> list[frozenset[PartialString]]:
        """The reduced logogram of each region within the base, one walk per region."""
        return [
            log_rel(DecisionProblem(self.problem.base, self.index.mask_language(mask)), index=self.index,
                    budget=self.budget, keep_full=False).reduced
            for mask in self.region_masks
        ]


class LogogramResult:
    def __init__(self, full: frozenset[PartialString] | None, reduced: frozenset[PartialString], full_count: int,
                 candidate_space_size: int, positions: tuple[int, ...], restricted: bool, elapsed: float) -> None:
        self.full = full
        self.reduced = reduced
        self.full_count = full_count
        self.candidate_space_size = candidate_space_size
        self.positions = positions
        self.restricted = restricted
        self.elapsed = elapsed

    def sorted_reduced(self) -> list[PartialString]:
        return sorted(self.reduced, key=lambda g: (g.size, g.render()))


def auto_positions(index: ProblemIndex) -> tuple[int, ...]:
    """The candidate positions log_rel would pick for this base by default."""
    return _candidate_positions(index, None, "auto")[0]


def _candidate_positions(index: ProblemIndex, candidate_positions, restrict: str):
    full_range = tuple(range(1, index.max_len + 1))
    if candidate_positions is not None:
        positions = tuple(sorted(set(candidate_positions)))
        if any(p < 1 for p in positions):
            raise ValueError("candidate positions must be >= 1")
        return positions, positions != full_range
    if restrict == "auto" and index.shared_prefix_len > 0:
        return full_range[index.shared_prefix_len:], True
    return full_range, False


def log_rel(
    problem: DecisionProblem,
    candidate_positions=None,
    *,
    budget: int = DEFAULT_CANDIDATE_BUDGET,
    keep_full: bool | None = None,
    restrict: str = "auto",
    index: ProblemIndex | None = None,
) -> LogogramResult:
    """Relative logogram of problem.target within problem.base, with minimal elements.

    When every base word shares a constant prefix (restrict="auto"), the
    candidate space drops the prefix positions: entries there never change a
    relative cylinder and never appear on minimal members, so the reduced
    set is unaffected; the full set is then reported over the restricted
    positions only.
    """
    start = time.perf_counter()
    if not problem.base.words:
        raise ValueError("base language is empty")
    idx = index if index is not None else ProblemIndex(problem.base)
    positions, restricted = _candidate_positions(idx, candidate_positions, restrict)
    target_mask = idx.target_mask(problem.target)
    return _logogram_over(idx, positions, restricted, target_mask, budget=budget, keep_full=keep_full, started=start)


def log_abs(
    F: FiniteLanguage,
    universe: FiniteLanguage,
    *,
    budget: int = DEFAULT_CANDIDATE_BUDGET,
    keep_full: bool | None = None,
) -> LogogramResult:
    """Absolute logogram of F evaluated inside a full capped slice."""
    if not is_full_slice(universe, universe.max_len):
        raise ValueError("universe must be a full length-capped slice")
    if not F.issubset(universe):
        raise ValueError("F must be contained in the universe")
    start = time.perf_counter()
    idx = ProblemIndex(universe)
    positions = tuple(range(1, idx.max_len + 1))
    target_mask = idx.word_mask(cylindrify(F, universe).words)
    return _logogram_over(idx, positions, False, target_mask, budget=budget, keep_full=keep_full, started=start)


def _logogram_over(
    idx: ProblemIndex,
    positions: tuple[int, ...],
    restricted: bool,
    target_mask: int,
    *,
    budget: int,
    keep_full: bool | None,
    started: float | None = None,
) -> LogogramResult:
    start = started if started is not None else time.perf_counter()
    symbols = idx.alphabet.symbols
    base = len(symbols) + 1
    space = base ** len(positions)
    if space > budget:
        raise BudgetExceeded("candidate space too large", space, budget)

    tables = idx.candidate_space(positions)
    qualifying = tables.qualifying(idx.all_mask & ~target_mask)

    def to_string(key: int) -> PartialString:
        entries = []
        for p in positions:
            key, d = divmod(key, base)
            if d:
                entries.append((p, symbols[d - 1]))
        return PartialString(idx.alphabet, tuple(entries))

    full_count = qualifying.bit_count()
    if keep_full is None:
        keep_full = full_count <= FULL_KEEP_LIMIT
    return LogogramResult(
        full=frozenset(map(to_string, set_bits(qualifying))) if keep_full else None,
        reduced=frozenset(map(to_string, set_bits(tables.minimal(qualifying)))),
        full_count=full_count,
        candidate_space_size=space,
        positions=positions,
        restricted=restricted,
        elapsed=time.perf_counter() - start,
    )


def log_rel_naive(problem: DecisionProblem, candidate_positions=None, budget: int = 4 ** 9):
    """Domain-by-domain reference enumerator: no index, no restriction, no pruning.

    A string over a domain (a subset of the positions) qualifies iff some base
    word defined on the whole domain projects onto it and every such word lies
    in the target's closure.  So each of those words is projected once per
    domain, a flag per projection records whether all its words were in the
    closure, and the projections whose flag stayed true are the qualifying
    strings: about words x 2^len(positions) projections in all.  Returns
    (full, reduced) string sets.  The reduced set comes from `reduce_strings`,
    which shares no code with the kernel's minimal keys.
    """
    if not problem.base.words:
        raise ValueError("base language is empty")
    alphabet = problem.base.alphabet
    words = sorted(problem.base.words, key=lambda w: (len(w), w))
    if candidate_positions is None:
        positions = tuple(range(1, len(words[-1]) + 1))
    else:
        positions = tuple(sorted(set(candidate_positions)))
        if positions and positions[0] < 1:
            raise ValueError("candidate positions must be >= 1")
    space = (len(alphabet.symbols) + 1) ** len(positions)
    if space > budget:
        raise BudgetExceeded("naive candidate space too large", space, budget)
    closure = cylindrify(problem.target, problem.base).words

    full: list[PartialString] = []
    for r in range(len(positions) + 1):
        for domain in itertools.combinations(positions, r):
            # one symbol (r == 1) or a tuple of them; zip pairs either with the domain
            project = itemgetter(*(p - 1 for p in domain)) if domain else lambda w: ()
            qualifies = {}
            for w in words[bisect_left(words, domain[-1], key=len) if domain else 0:]:
                codes = project(w)
                qualifies[codes] = qualifies.get(codes, True) and w in closure
            full.extend(PartialString(alphabet, tuple(zip(domain, codes)))
                        for codes, ok in qualifies.items() if ok)
    full_set = frozenset(full)
    return full_set, reduce_strings(full_set)


def logexp(H: frozenset[PartialString], universe: FiniteLanguage, *, budget: int = DEFAULT_CANDIDATE_BUDGET) -> frozenset[PartialString]:
    """The closure carrying H to the full absolute logogram of its expansion."""
    result = log_abs(expand_in(H, universe), universe, budget=budget, keep_full=True)
    assert result.full is not None
    return result.full


class LogExpReport:
    def __init__(self, extensive: bool, idempotent: bool, monotone: bool, holds: bool,
                 collective_sample: str | None = None, union_strict: bool | None = None) -> None:
        self.extensive = extensive
        self.idempotent = idempotent
        self.monotone = monotone
        self.holds = holds
        self.collective_sample = collective_sample
        self.union_strict = union_strict

    def to_json(self) -> dict:
        return {
            "extensive": self.extensive,
            "idempotent": self.idempotent,
            "monotone": self.monotone,
            "holds": self.holds,
            "union_strict": self.union_strict,
            "collective_sample": self.collective_sample,
        }


def logexp_closure_check(
    H: frozenset[PartialString],
    universe: FiniteLanguage,
    partner: frozenset[PartialString] | None = None,
    *,
    budget: int = DEFAULT_CANDIDATE_BUDGET,
) -> LogExpReport:
    """Check the closure laws of LogExp on one string set.

    Extensivity and idempotence are checked on H; monotonicity against H
    plus one extra word-string from the universe.  With a partner set, the
    union LogExp(H | partner) is compared against the union of the separate
    closures and a collective string is reported when the inclusion is
    proper.
    """
    le_h = logexp(H, universe, budget=budget)
    extensive = H <= le_h
    idempotent = logexp(le_h, universe, budget=budget) == le_h
    sorted_words = sorted(universe.words, key=lambda w: (len(w), w), reverse=True)
    extra = PartialString.from_word(universe.alphabet, sorted_words[0]) if sorted_words else None
    bigger = H | {extra} if extra is not None else H
    monotone = le_h <= logexp(bigger, universe, budget=budget)
    report = LogExpReport(extensive=extensive, idempotent=idempotent, monotone=monotone,
                          holds=extensive and idempotent and monotone)
    if partner is not None:
        le_union = logexp(H | partner, universe, budget=budget)
        le_parts = le_h | logexp(partner, universe, budget=budget)
        report.union_strict = le_parts < le_union
        if report.union_strict:
            sample = min(le_union - le_parts, key=lambda g: (g.size, g.render()))
            report.collective_sample = sample.render()
    return report


def verify_logogram_expansion(analysis: Analysis | DecisionProblem) -> bool:
    """True iff expanding the logogram (full and reduced) inside E recovers the prefix closure of F.

    The expansions are recomputed by scanning the base words, independently
    of the index masks the engine used.  The full set is scanned only when
    it is stored; otherwise its expansion is the reduced set's, since every
    member of the full set extends a reduced one.
    """
    if isinstance(analysis, DecisionProblem):
        analysis = Analysis(analysis)
    problem, result = analysis.problem, analysis.logogram
    target = analysis.index.mask_language(analysis.target_mask)
    if result.full is not None and expand_in(result.full, problem.base) != target:
        return False
    return expand_in(result.reduced, problem.base) == target


def cover_of(
    analysis: Analysis,
    H: frozenset[PartialString] | None = None,
) -> list[tuple[PartialString, FiniteLanguage]]:
    """Pairs (g, relative cylinder of g) for g in the reduced logogram or a subset of it."""
    if H is not None and not H <= analysis.logogram.reduced:
        raise ValueError("cover strings must belong to the reduced logogram")
    return [
        (g, analysis.index.mask_language(cyl))
        for g, cyl in zip(analysis.members, analysis.cylinders)
        if H is None or g in H
    ]


# --- cache files ---

def problem_fingerprint(problem: DecisionProblem, positions: tuple[int, ...]) -> str:
    from hashlib import sha256  # imported on use: loading OpenSSL would add to every command's start-up

    h = sha256()
    h.update(("alphabet=" + "".join(problem.alphabet.symbols)).encode())
    for name, language in (("base", problem.base), ("target", problem.target)):
        h.update(f"\x00{name}".encode())
        h.update("".join(["\x00" + w for w in sorted(language.words)]).encode())
    h.update(("\x00positions=" + ",".join(map(str, positions))).encode())
    return h.hexdigest()[:24]


def cache_file(cache_dir: str | Path, fingerprint: str) -> Path:
    return Path(cache_dir) / f"logogram-{fingerprint}.txt"


def _cache_digest(header: dict, body: list[str]) -> str:
    """sha256 over the canonical header (without its digest) and the body lines."""
    from hashlib import sha256

    text = json.dumps(header, sort_keys=True) + "\n" + "\n".join(body)
    return sha256(text.encode()).hexdigest()


def save_logogram_cache(
    result: LogogramResult,
    problem: DecisionProblem,
    cache_dir: str | Path,
    fingerprint: str | None = None,
) -> Path:
    """Write the result's cache file; fingerprint, when given, is problem_fingerprint(problem, result.positions)."""
    if fingerprint is None:
        fingerprint = problem_fingerprint(problem, result.positions)
    header = {
        "schema": 1,
        "problem": fingerprint,
        "tool": __version__,
        "positions": list(result.positions),
        "restricted": result.restricted,
        "candidate_space_size": result.candidate_space_size,
        "full_count": result.full_count,
        "full_stored": result.full is not None,
        "reduced_count": len(result.reduced),
    }
    reduced_sorted = sorted(result.reduced, key=lambda g: (g.size, g.render()))
    body = ["R " + g.render() for g in reduced_sorted]
    if result.full is not None:
        extras = sorted(result.full - result.reduced, key=lambda g: (g.size, g.render()))
        body.extend(". " + g.render() for g in extras)
    header["sha256"] = _cache_digest(header, body)
    path = cache_file(cache_dir, fingerprint)
    path.parent.mkdir(parents=True, exist_ok=True)
    # a reader sees the old file or the whole new one, never a partial write
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text("\n".join([json.dumps(header, sort_keys=True), *body]) + "\n", encoding="utf-8")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


def load_logogram_cache(
    problem: DecisionProblem,
    cache_dir: str | Path,
    positions: tuple[int, ...],
    fingerprint: str | None = None,
) -> LogogramResult | None:
    """Reload a cached logogram; any mismatch or corruption returns None so the caller recomputes.

    fingerprint, when given, is problem_fingerprint(problem, positions).
    """
    start = time.perf_counter()
    if fingerprint is None:
        fingerprint = problem_fingerprint(problem, positions)
    path = cache_file(cache_dir, fingerprint)
    if not path.is_file():
        return None
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
        header = json.loads(lines[0])
        if not isinstance(header, dict) or header.pop("sha256", None) != _cache_digest(header, lines[1:]):
            return None
        if header.get("schema") != 1 or header.get("problem") != fingerprint or header.get("tool") != __version__:
            return None
        if tuple(header.get("positions", ())) != positions:
            return None
        reduced: set[PartialString] = set()
        extras: set[PartialString] = set()
        for line in lines[1:]:
            if line.startswith("R "):
                reduced.add(PartialString.parse(problem.alphabet, line[2:]))
            elif line.startswith(". "):
                extras.add(PartialString.parse(problem.alphabet, line[2:]))
            elif line.strip():
                return None
        if len(reduced) != header.get("reduced_count"):
            return None
        full = frozenset(reduced | extras) if header.get("full_stored") else None
        if header.get("full_stored") and len(full) != header.get("full_count"):
            return None
        return LogogramResult(
            full=full,
            reduced=frozenset(reduced),
            full_count=header.get("full_count", len(reduced)),
            candidate_space_size=header.get("candidate_space_size", 0),
            positions=positions,
            restricted=bool(header.get("restricted")),
            elapsed=time.perf_counter() - start,
        )
    except (ValueError, KeyError, IndexError, json.JSONDecodeError):
        return None
