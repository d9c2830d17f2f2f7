"""Brute-force logograms of decision problems.

The logogram of a target set F relative to a base language E is the set of
strings whose presence in an E-word guarantees membership in the prefix
closure of F within E; the reduced logogram keeps its minimal elements.

Engine layout: E is indexed once into per-(position, symbol) bitmasks over
the word list, so a candidate's relative cylinder is an AND of masks.
Candidates are integer keys (digit j of a key is the symbol code at the j-th
candidate position, 0 = undefined).  A chain walk reaches each candidate with
a nonempty cylinder once, from its last-entry deletion, and collects one set
of qualifying keys plus the stops: the qualifying keys whose last-entry
deletion does not qualify.  Every string between a qualifying string and a
qualifying extension of it qualifies too, so a key is minimal iff none of its
one-entry deletions is in the set, and only stops can be minimal; only the
keys that are reported are decoded into strings.  A
deliberately plain enumerator (`log_rel_naive`) re-derives the same sets by
scanning every candidate against every word with no index, no restriction
and no pruning; it is the correctness oracle for the engine.

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
import time
import warnings
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from hashlib import sha256
from operator import itemgetter
from pathlib import Path

from . import __version__
from .languages import BudgetExceeded, FiniteLanguage, cylindrify, expand_in, is_full_slice
from .strings import AlphabetMismatch, PartialString, reduce_strings

DEFAULT_CANDIDATE_BUDGET = 4 ** 12
FULL_KEEP_LIMIT = 50_000


@dataclass(frozen=True)
class DecisionProblem:
    """A base language E, a target F inside it, and optional solution regions covering F.

    Regions are labels: bit j of labels[w] means that target word w lies in region j, so
    there are max(labels.values()).bit_length() regions.  Every target word carries a nonzero
    label and no other word carries one; a region language is built only where one is walked.
    """

    base: FiniteLanguage
    target: FiniteLanguage
    labels: dict[str, int] | None = None

    def __post_init__(self) -> None:
        if self.base.alphabet != self.target.alphabet:
            raise AlphabetMismatch("base and target use different alphabets")
        if not self.target.issubset(self.base):
            raise ValueError("target must be a subset of the base language")
        if self.labels is not None:
            if not self.labels.keys() <= self.target.words:
                raise ValueError("every region must be a subset of the target")
            if self.labels.keys() != self.target.words or not all(self.labels.values()):
                raise ValueError("regions must cover the target exactly")

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


class Analysis:
    """One decision problem and the artefacts every check shares, each computed once on first use.

    Members are the reduced logogram sorted by (size, render); bit i of a
    member mask stands for members[i], and bit k of a cylinder, target or
    region mask for index.words[k].
    """

    def __init__(self, problem: DecisionProblem, *, budget: int = DEFAULT_CANDIDATE_BUDGET, workers: int = 1):
        self.problem = problem
        self.budget = budget
        self.workers = workers

    @cached_property
    def index(self) -> ProblemIndex:
        return ProblemIndex(self.problem.base)

    @cached_property
    def logogram(self) -> "LogogramResult":
        return log_rel(self.problem, index=self.index, budget=self.budget, workers=self.workers)

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
            bits = bin(cyl)[:1:-1]  # bits[k] is bit k of the cylinder
            k = bits.find("1")
            while k >= 0:
                masks[k] |= 1 << i
                k = bits.find("1", k + 1)
        return dict(zip(self.index.words, masks))

    @cached_property
    def region_logograms(self) -> list[frozenset[PartialString]]:
        """The reduced logogram of each region within the base, one walk per region."""
        return [
            log_rel(DecisionProblem(self.problem.base, self.index.mask_language(mask)), index=self.index,
                    budget=self.budget, workers=self.workers, keep_full=False).reduced
            for mask in self.region_masks
        ]


@dataclass
class LogogramResult:
    full: frozenset[PartialString] | None
    reduced: frozenset[PartialString]
    full_count: int
    candidate_space_size: int
    positions: tuple[int, ...]
    restricted: bool
    elapsed: float

    def sorted_reduced(self) -> list[PartialString]:
        return sorted(self.reduced, key=lambda g: (g.size, g.render()))


def _chain_walk(sym_masks, powers, bad_mask, first, key0, mask0, parent_ok) -> tuple[set[int], list[int]]:
    """Keys of the qualifying candidates at and below a chain root, and the stop keys among them.

    A candidate qualifies when its cylinder is nonempty and holds no bad word.
    The root's entries at positions >= first are undefined and its mask is
    nonempty; parent_ok says whether its last-entry deletion qualifies.  Each
    candidate is reached once, from that deletion, its generating parent: a
    stack entry is extended at each later position, and the extensions at the
    last position are tested inline instead of pushed.  A candidate whose
    parent qualifies qualifies too (its cylinder is smaller and nonempty), so
    only the others are tested against bad_mask.  A stop is a qualifying key
    whose generating parent does not qualify; the stops list holds the same
    int objects as the key set.
    """
    keys: set[int] = set()
    stops: list[int] = []
    npos = len(sym_masks)
    steps = [[(d * mult, row) for d, row in enumerate(rows, 1) if row] for rows, mult in zip(sym_masks, powers)]
    last = steps.pop() if steps else []
    # plan[j]: the extensions to push, (next j, key step, row) at positions j..npos-2,
    # and those at position npos-1, tested inline
    plan = [([(j2 + 1, step, row) for j2 in range(j, npos - 1) for step, row in steps[j2]], last if j < npos else [])
            for j in range(npos + 1)]
    add, stop = keys.add, stops.append
    stack = [(first, key0, mask0, parent_ok)]
    pop, push = stack.pop, stack.append
    while stack:
        j, key, mask, parent_ok = pop()
        ok = parent_ok or not mask & bad_mask
        if ok:
            add(key)
            if not parent_ok:
                stop(key)
        pushed, inline = plan[j]
        for j2, step, row in pushed:
            m2 = mask & row
            if m2:
                push((j2, key + step, m2, ok))
        for step, row in inline:
            m2 = mask & row
            if m2 and (ok or not m2 & bad_mask):
                k2 = key + step
                add(k2)
                if not ok:
                    stop(k2)
    return keys, stops


_FORK_STATE: dict | None = None


def _subtree_worker(prefix_digits) -> tuple[set[int], list[int]]:
    """The chain walk over the candidates whose leading digits are prefix_digits."""
    st = _FORK_STATE
    bad_mask = st["bad_mask"]
    mask, key = st["all_mask"], 0
    parent_ok = False  # the empty candidate has no generating parent
    for j, d in enumerate(prefix_digits):
        if d:
            parent_ok = not mask & bad_mask  # the cylinder without this entry, the parent if it is the last
            mask &= st["sym_masks"][j][d - 1]
            key += d * st["powers"][j]
    if not mask:
        return set(), []
    return _chain_walk(st["sym_masks"], st["powers"], bad_mask, len(prefix_digits), key, mask, parent_ok)


def _minimal_keys(keys: set[int], stops: list[int], powers, base: int) -> list[int]:
    """The stop keys none of whose one-entry deletions qualifies.

    Every candidate between a qualifying string and a qualifying extension of
    it qualifies too, so a key with a smaller qualifying key also has a
    qualifying one-entry deletion.  A minimal key's last-entry deletion does
    not qualify, so every minimal key is a stop.
    """
    minimal = []
    for key in stops:
        rest, j = key, 0
        while rest:
            rest, d = divmod(rest, base)
            if d and key - d * powers[j] in keys:
                break
            j += 1
        else:
            minimal.append(key)
    return minimal


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
    workers: int = 1,
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
    return _logogram_over(
        idx, positions, restricted, target_mask, budget=budget, keep_full=keep_full,
        workers=workers, started=start,
    )


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
    workers: int = 1,
    started: float | None = None,
) -> LogogramResult:
    start = started if started is not None else time.perf_counter()
    symbols = idx.alphabet.symbols
    base = len(symbols) + 1
    npos = len(positions)
    space = base ** npos
    if space > budget:
        raise BudgetExceeded("candidate space too large", space, budget)

    sym_masks = [
        [idx.pos_masks[p - 1].get(sym, 0) if p <= idx.max_len else 0 for sym in symbols]
        for p in positions
    ]
    powers = [base ** j for j in range(npos)]
    bad_mask = idx.all_mask & ~target_mask

    if workers > 1 and space >= 4096:
        keys, stops = _parallel_collect(idx, sym_masks, powers, base, bad_mask, workers)
    else:
        keys, stops = _chain_walk(sym_masks, powers, bad_mask, 0, 0, idx.all_mask, False)

    def to_string(key: int) -> PartialString:
        entries = []
        for p in positions:
            key, d = divmod(key, base)
            if d:
                entries.append((p, symbols[d - 1]))
        return PartialString(idx.alphabet, tuple(entries))

    full_count = len(keys)
    if keep_full is None:
        keep_full = full_count <= FULL_KEEP_LIMIT
    return LogogramResult(
        full=frozenset(map(to_string, keys)) if keep_full else None,
        reduced=frozenset(map(to_string, _minimal_keys(keys, stops, powers, base))),
        full_count=full_count,
        candidate_space_size=space,
        positions=positions,
        restricted=restricted,
        elapsed=time.perf_counter() - start,
    )


def _parallel_collect(idx, sym_masks, powers, base, bad_mask, workers):
    import multiprocessing  # only parallel walks need it, so importing strtool stays light

    global _FORK_STATE
    depth = min(2, len(sym_masks))
    chunks = list(itertools.product(range(base), repeat=depth))
    _FORK_STATE = {
        "sym_masks": sym_masks,
        "powers": powers,
        "bad_mask": bad_mask,
        "all_mask": idx.all_mask,
    }
    try:
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(processes=workers) as pool:
            parts = pool.map(_subtree_worker, chunks)
    except (ValueError, OSError) as exc:
        warnings.warn(f"parallel logogram walk unavailable ({exc!r}); walking serially", RuntimeWarning)
        return _chain_walk(sym_masks, powers, bad_mask, 0, 0, idx.all_mask, False)
    finally:
        _FORK_STATE = None
    return set().union(*(part_keys for part_keys, _ in parts)), [key for _, part_stops in parts for key in part_stops]


def log_rel_naive(problem: DecisionProblem, candidate_positions=None, budget: int = 4 ** 9):
    """Position-by-position reference enumerator: no index, no restriction, no pruning.

    Tests every candidate over the given positions against every base word.
    Returns (full, reduced) string sets.
    """
    if not problem.base.words:
        raise ValueError("base language is empty")
    alphabet = problem.base.alphabet
    words = sorted(problem.base.words, key=lambda w: (len(w), w))
    positions = tuple(sorted(set(candidate_positions))) if candidate_positions is not None \
        else tuple(range(1, max(len(w) for w in words) + 1))
    space = (len(alphabet.symbols) + 1) ** len(positions)
    if space > budget:
        raise BudgetExceeded("naive candidate space too large", space, budget)
    target_words = cylindrify(problem.target, problem.base).words
    flags = [w in target_words for w in words]

    full: list[PartialString] = []
    for r in range(len(positions) + 1):
        for domain in itertools.combinations(positions, r):
            rows = []
            for w, ok in zip(words, flags):
                proj = tuple(w[p - 1] for p in domain) if all(p <= len(w) for p in domain) else None
                rows.append((proj, ok))
            for codes in itertools.product(alphabet.symbols, repeat=r):
                hit = False
                good = True
                for proj, ok in rows:
                    if proj == codes:
                        hit = True
                        if not ok:
                            good = False
                            break
                if hit and good:
                    full.append(PartialString(alphabet, tuple(zip(domain, codes))))
    full_set = frozenset(full)
    return full_set, reduce_strings(full_set)


def logexp(H: frozenset[PartialString], universe: FiniteLanguage, *, budget: int = DEFAULT_CANDIDATE_BUDGET) -> frozenset[PartialString]:
    """The closure carrying H to the full absolute logogram of its expansion."""
    result = log_abs(expand_in(H, universe), universe, budget=budget, keep_full=True)
    assert result.full is not None
    return result.full


@dataclass
class LogExpReport:
    extensive: bool
    idempotent: bool
    monotone: bool
    holds: bool
    collective_sample: str | None = None
    union_strict: bool | None = None

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
    h = sha256()
    h.update(("alphabet=" + "".join(problem.alphabet.symbols)).encode())
    h.update(b"\x00base")
    for w in sorted(problem.base.words):
        h.update(b"\x00" + w.encode())
    h.update(b"\x00target")
    for w in sorted(problem.target.words):
        h.update(b"\x00" + w.encode())
    h.update(("\x00positions=" + ",".join(map(str, positions))).encode())
    return h.hexdigest()[:24]


def cache_file(cache_dir: str | Path, fingerprint: str) -> Path:
    return Path(cache_dir) / f"logogram-{fingerprint}.txt"


def _cache_digest(header: dict, body: list[str]) -> str:
    """sha256 over the canonical header (without its digest) and the body lines."""
    text = json.dumps(header, sort_keys=True) + "\n" + "\n".join(body)
    return sha256(text.encode()).hexdigest()


def save_logogram_cache(result: LogogramResult, problem: DecisionProblem, cache_dir: str | Path) -> Path:
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
) -> LogogramResult | None:
    """Reload a cached logogram; any mismatch or corruption returns None so the caller recomputes."""
    start = time.perf_counter()
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
