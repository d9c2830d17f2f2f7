"""Brute-force logograms of decision problems.

The logogram of a target set F relative to a base language E is the set of
strings whose presence in an E-word guarantees membership in the prefix
closure of F within E; the reduced logogram keeps its minimal elements.

Engine layout: E is indexed once into per-(position, symbol) bitmasks over
the word list, so a candidate's relative cylinder is an AND of masks.  The
list is sorted by length, then text.  When E is a whole `ProductLanguage`,
a prefix followed by every word of Σ^k (an echelon or a `sigma_exact` slice
is one), word k is the prefix and the base-|Σ| digits of k, and the index is
digit arithmetic: a position's masks are periodic bit patterns, and the word
keys and the keys some word extends (below) are built by replicating blocks,
without reading a word; the index sorts nothing and builds its word list
only if something reads it.  This is the only way into the product path: a
base given as words is never tested for that shape.  Such a base has each
length group joined into one text, and a position's column is a strided
slice of each group's text: the index makes no Python step per word.
Candidates are integer keys (digit j of a key is the symbol code at the
j-th candidate position, 0 = undefined), and the logogram is computed
over bitsets of the whole candidate space, bit k standing for key k.  A
candidate qualifies iff some base word extends it and no bad word (outside
the target's closure) does; "some word of S extends it" is an OR-transform
of S's word keys down the restriction order, one position at a time.  Every
string between a qualifying string and a qualifying extension of it
qualifies too, so a key is minimal iff none of its one-entry deletions
qualifies: one more set of shifts.  full_count is the popcount of the
qualifying set, and only the keys that are reported are decoded into
strings.  A `CandidateSpace` is the one way to choose a walk's positions
(strictly increasing, each at least 1) and budget, and the budget check;
it builds the digit-0 masks, one key per word and the keys some base word
extends on first read, and lives only as long as the walks that share it:
the index keeps none.  A target reaches the kernel as its closure mask: the
base words having a prefix among its words (its words themselves on a
prefix-free base), read off the index's word list by code the naive judge's
closure does not share (`ProblemIndex.closure_mask`).
A target that is a mask over the base's product, as an echelon's
satisfiable words are, is its own mask; any other target's words are read
in one membership pass (`ProblemIndex.language_mask`).
`log_rel` is the one entry into the kernel: the absolute logogram
(`log_abs`, on which LogExp is built) is the logogram relative to a full
capped slice, over every position.  A deliberately plain enumerator
(`log_rel_naive`) re-derives the same sets with no index, no restriction
and no pruning: per domain it projects the base words defined on it and
keeps the projections of words inside the target's closure that no word
outside it shares, about words x 2^npos projections in all; it is the
correctness oracle for the engine.

Decoding a key is table-driven.  The positions are split, lowest digits
first, into chunks of as many positions as keep a chunk's values within
DECODE_CHUNK_KEYS (5 positions for a binary alphabet, 4 for a ternary
one), and each chunk has a table from its value to the tuple of entries it
stands for.  A key then costs one divmod and one tuple concatenation per
chunk instead of one divmod per position.  The tables hold only sorted,
in-alphabet entries, so the strings are built without the validating
`PartialString` constructor (`PartialString._unchecked`).  Decoding is a
pure function of alphabet, positions and key, and a key over positions P
has digit 0 past len(P), so it decodes to the same string over P and over
every extension of P.  Each alphabet therefore has one `Decoder`
(`_decoder`), shared by every index and problem over it: the tables of its
kept positions and a memo of the strings decoded so far, by key, bounded
as `Decoder` states.  Problems over 1..L for several L, the region walks,
the expansion identity's second solve of a problem and LogExp's repeated
closures over one slice take their strings from it, and a reduced key is
always a full key of the same walk.  No index, space, problem or analysis
is cached.

An `Analysis` wraps one problem and computes its index, target closure
mask, logogram, member cylinders and masks, label region masks and region
logograms once, on first use; the checks in `strtool.independence` take
one.  A word's member mask comes from position-chunk tables read from
`Analysis.position_choices`, per member position the members undefined
there and those agreeing with each symbol, which complete independence
also ANDs to make the closed member sets.  On a full product the masks in
index order are an AND-product of per-chunk tables over the free
positions, started from the members that agree with the prefix and are
undefined past the end; on any other base the member positions are cut into chunks of
at most DECODE_CHUNK_KEYS possible substrings, each chunk maps a word's
substring there to the members that agree with it, and a word costs one
lookup and one AND per chunk.  The member masks serve three checks: strong
and complete independence read them directly, internal independence takes
its candidate pairs from them, and the expansion identity
(`verify_logogram_expansion`) is one compare of the words with a nonzero
member mask against the target's closure mask.  They are built from the
members and the base alone (its word strings, or its product form), never
from the index's position masks or keys, so that compare is a check on the
kernel.  A stored full set has the same expansion when it holds the
members and each of its strings extends one: with one flag row over the
full strings per member entry, a member's extensions are the AND of its
entries' rows, and the OR over members must cover every full string.  Which
regions hold a string's cylinder is answered by one method,
`Analysis.regions_holding`, and each region's reduced logogram by one
`log_rel` walk per region.  A problem with labels answers both through
each region's closure mask, a strided slice of the labels written as one
row of bits per word; the walk's bad words are the words outside it.  An
echelon's regions are a clause product (`ClauseProduct`), and no region
mask is built.  Region j holds a string's whole cylinder iff each clause
has a literal true under j among the string's entries (the clause rule):
`regions_holding` reads that off the string's entries, and a region walk
reads it off the keys, whose qualifying set is the reachable keys ANDed
over the clauses with the OR of each true literal's digit run, one shift
of a digit-0 mask (`CandidateSpace.holding`), with no word key read and
no down-closure pass.  Either way a member lies in a region exactly when
that region's reduced logogram holds it.

Cache files: "logogram-<fingerprint>.txt" with a JSON header line followed
by one rendered string per line, reduced members flagged "R ", remaining
members flagged ". ".  The header carries a sha256 of itself (without the
digest) and the body lines; a missing or mismatched digest, a header field
that is missing or of the wrong type, a fingerprint or version mismatch, or
a body that disagrees with the header's reduced_count (or full_count, when
the full set is stored), invalidates the file and the caller recomputes.
Both cache functions take the fingerprint the caller computed, which names
the problem in one of two ways.  An echelon is keyed by its spec
(`echelon_fingerprint`: alphabet, n, m and positions), so a warm hit
enumerates and hashes no word; a problem read from files is keyed by its
content (`problem_fingerprint`: every base and target word).  The two
preimages begin differently, so the two kinds of key never share one.
Files are written to a temporary name and renamed into place, so a reader
never sees a partial write.
"""

# Annotations are evaluated at import (no `from __future__ import annotations`):
# NamedTuple would otherwise compile each record field's type from a string.
import itertools
import json
import os
import sys
from bisect import bisect_left, bisect_right
from collections.abc import Mapping
from functools import cached_property, lru_cache, partial, reduce
from operator import and_, ge, getitem, itemgetter, not_
from pathlib import Path
from types import MappingProxyType
from typing import NamedTuple

from . import __version__
from .languages import (BudgetExceeded, FiniteLanguage, ProductLanguage, bit_flags, cylindrify, expand_in,
                        flags_mask, is_full_slice)
from .strings import BLANK, Alphabet, AlphabetMismatch, PartialString, Value, read_only, reduce_strings

DEFAULT_CANDIDATE_BUDGET = 4 ** 12
FULL_KEEP_LIMIT = 50_000
DECODE_CHUNK_KEYS = 256  # entries per decode table; a 4,096-entry table decoded no faster
SET_BITS_BLOCK = 4 ** 7  # bits per `set_bits` block: a 4^7-key candidate bitset is read as one binary string


class ClauseProduct(NamedTuple):
    """Solution regions that are a product of clauses over word positions, as on a CNF echelon.

    A clause is a tuple of literals (position, symbol, mask): a word holding symbol at
    position makes that literal true under the regions whose bits are set in mask.  A word
    lies in region j iff each clause has a literal true under j among the word's symbols.
    The clause positions must be free positions of a whole `ProductLanguage` base, so that
    the base holds every word that fills them with any symbols (an echelon's body is the
    full product), and at each of a clause's positions some symbol must make none of its
    literals true (an echelon's 0, the variable left out); `DecisionProblem` checks both.
    Then the clause rule holds: region j holds a string's whole cylinder iff each clause has
    a literal true under j among the string's own entries, since a clause without one is
    falsified by some word of the cylinder.
    """
    regions: int
    clauses: tuple[tuple[tuple[int, str, int], ...], ...]


class DecisionProblem(Value):
    """A base language E, a target F inside it, and optional solution regions covering F.

    Regions come in one of two forms.  Labels are per word: bit j of labels[w] means that
    target word w lies in region j, so there are max(labels.values()).bit_length() regions;
    every target word carries a nonzero label and no other word carries one (problems built
    word by word, such as the toy wizard problem).  A `ClauseProduct` states the regions of an
    echelon without a per-word table; its target is the words some region holds, which the
    enumerator guarantees and which is not re-checked here; the clause rule's premise is.
    The problem keeps its own copies: the labels as a read-only mapping, hashed as their
    items, and the clauses and their literals as tuples.
    """

    __slots__ = ()
    _fields = ("base", "target", "labels", "clauses")

    def __new__(cls, base: FiniteLanguage, target: FiniteLanguage, labels: Mapping[str, int] | None = None,
                clauses: ClauseProduct | None = None) -> "DecisionProblem":
        if base.alphabet != target.alphabet:
            raise AlphabetMismatch("base and target use different alphabets")
        if not target.issubset(base):
            raise ValueError("target must be a subset of the base language")
        if labels is not None:
            labels = MappingProxyType(dict(labels))
            if clauses is not None:
                raise ValueError("give regions as labels or as clauses, not both")
            if not labels.keys() <= target.words:
                raise ValueError("every region must be a subset of the target")
            if labels.keys() != target.words or not all(labels.values()):
                raise ValueError("regions must cover the target exactly")
            for word, label in labels.items():
                if not isinstance(label, int) or label < 1:
                    raise ValueError(f"label {label!r} of {word!r} is not a set of regions (an int above 0)")
        if clauses is not None:
            regions, given = clauses
            clauses = ClauseProduct(regions, tuple(tuple(map(tuple, clause)) for clause in given))
            top = 1 << regions
            for clause in clauses.clauses:
                for pos, sym, mask in clause:
                    if pos < 1 or sym not in base.alphabet.symbols or not 0 < mask < top:
                        raise ValueError(f"bad literal {(pos, sym, mask)} for {regions} regions")
            whole = isinstance(base, ProductLanguage) and base.is_full
            free = range(len(base.prefix) + 1, base.length + 1) if whole else ()
            for clause in clauses.clauses:
                for pos, _, _ in clause:
                    if pos not in free:
                        raise ValueError(f"clause position {pos} is not a free position of a whole product base")
                    if {s for p, s, _ in clause if p == pos} == set(base.alphabet.symbols):
                        raise ValueError(f"every symbol makes a literal of clause {clause} true at position {pos}")
        return tuple.__new__(cls, (base, target, labels, clauses))

    def __hash__(self) -> int:
        labels = None if self.labels is None else frozenset(self.labels.items())
        return hash((self.base, self.target, labels, self.clauses))

    def __getnewargs__(self) -> tuple:
        return self.base, self.target, None if self.labels is None else dict(self.labels), self.clauses

    @property
    def alphabet(self):
        return self.base.alphabet


class ProblemIndex:
    """Per-(position, symbol) bitmask index over the words of a base language.

    Bit k of every mask stands for words[k] (sorted by length, then text).
    A base whose words all have one length is prefix-free at once, since
    distinct words of equal length never prefix one another.  The index keeps
    no candidate keys: a `CandidateSpace` over it builds them for its walks.

    A whole `ProductLanguage` (an echelon or a `sigma_exact` slice) is the one
    full product the index knows: it states its prefix and length L, so it is
    exactly prefix·Σ^(L − len(prefix)), and `product_prefix` holds the prefix.
    Index order is then product order in code-point order, so word k is the
    prefix followed by the base-|Σ| digits of k; nothing is sorted, `words` is
    built only when read, and the masks, keys and member masks follow from
    digit arithmetic without reading a word (`_product_position_masks`,
    `_product_keys`, `_product_reachable`, `_product_member_masks`).  Every
    other base, a plain word set of the same shape included, has
    `product_prefix` None and is read word by word (`_column_masks`,
    `_word_keys`, `_word_member_masks`).
    """

    def __init__(self, base: FiniteLanguage):
        if not len(base):
            raise ValueError("cannot index an empty base language")
        self.language = base
        self.alphabet = base.alphabet
        if isinstance(base, ProductLanguage) and base.is_full:  # prefix·Σ^free as stated: no word is read
            self.product_prefix, self.max_len, self.all_mask = base.prefix, base.length, base.mask
            self.shared_prefix_len = len(base.prefix) if self.all_mask > 1 else 0
            self.prefix_free = True
            self.pos_masks = _product_position_masks(self.alphabet, self.product_prefix, self.max_len)
        else:
            by_lex = sorted(base.words)
            self.words = tuple(sorted(by_lex, key=len))  # stable: by length, then text
            self.product_prefix = None
            self.all_mask = (1 << len(self.words)) - 1
            self.max_len = len(self.words[-1])
            lo, hi = by_lex[0], by_lex[-1]
            shared = 0
            while shared < len(lo) and lo[shared] == hi[shared]:
                shared += 1
            self.shared_prefix_len = shared if len(self.words) > 1 else 0
            self.prefix_free = len(self.words[0]) == self.max_len or not any(
                by_lex[i + 1].startswith(by_lex[i]) for i in range(len(by_lex) - 1)
            )
            self.pos_masks = _column_masks(self.words, self.alphabet)

    @cached_property
    def words(self) -> tuple[str, ...]:
        """The words of a whole `ProductLanguage` base in index order, built on first read (others set it at once)."""
        return tuple(self.language.ordered_words())

    def word_mask(self, words) -> int:
        """The mask of these base words, read in one membership pass over the base, in C.

        Raises KeyError for a word outside the base.
        """
        words = frozenset(words)  # the same object when it already is one
        mask = flags_mask(bytes(map(words.__contains__, self.words)))
        if mask.bit_count() != len(words):
            raise KeyError(next(w for w in words if w not in self.language))
        return mask

    def language_mask(self, language: FiniteLanguage) -> int:
        """The mask of a sublanguage of the base.

        A `ProductLanguage` over the product this index was built on carries its mask in
        index order, so it is returned as it is and no word is read; any other language
        goes through `word_mask`.
        """
        if isinstance(language, ProductLanguage) and self.product_prefix is not None and \
                (language.alphabet, language.prefix, language.length) == \
                (self.alphabet, self.product_prefix, self.max_len):
            return language.mask
        return self.word_mask(language.words)

    def cylinder_mask(self, g: PartialString) -> int:
        mask = self.all_mask
        for pos, sym in g.entries:
            if pos > self.max_len:
                return 0
            mask &= self.pos_masks[pos - 1].get(sym, 0)
            if not mask:
                return 0
        return mask

    def closure_mask(self, mask: int) -> int:
        """The base words having a prefix among mask's words: mask itself when the base is prefix-free.

        Otherwise one C-level pass per length k of mask's words, shortest first, slices each
        unmatched word of length k or more to k and looks it up among them: no code is shared
        with the naive judge's closure (`log_rel_naive`).
        """
        if self.prefix_free:
            return mask
        rest, hits = self.words, []
        for k, heads in itertools.groupby(itertools.compress(self.words, bit_flags(mask)), len):
            rest = rest[bisect_left(rest, k, key=len):]  # the words are sorted by length
            found = list(map(set(heads).__contains__, map(itemgetter(slice(k)), rest)))
            hits.extend(itertools.compress(rest, found))
            rest = list(itertools.compress(rest, map(not_, found)))
        return self.word_mask(hits)


def _column_masks(words: tuple[str, ...], alphabet: Alphabet) -> list[dict[str, int]]:
    """Per position, each symbol's mask over words (sorted by length, then text), read from the words.

    The words longer than position i form a suffix of the list, so each position's masks
    come from one column string of that suffix, one translate to binary digits per symbol.
    Each length group of the list is joined into one text once, and the column at position
    i is the strided slices text[i::length] of the groups longer than i, in list order: no
    Python step per word.
    """
    groups = []  # (length, start, joined text) per length group, shortest first
    start = 0
    while start < len(words):
        length = len(words[start])
        end = bisect_right(words, length, lo=start, key=len)
        groups.append((length, start, "".join(words[start:end])))
        start = end
    zeros = dict.fromkeys(map(ord, alphabet.symbols), "0")
    tables = {c: str.maketrans({**zeros, ord(c): "1"}) for c in alphabet.symbols}
    masks = []
    first = 0  # groups[first:] hold the words longer than i, a suffix of the list
    for i in range(len(words[-1])):
        while groups[first][0] <= i:
            first += 1
        column = "".join([text[i::length] for length, _, text in groups[first:]])
        masks.append({
            c: int(column.translate(table)[::-1], 2) << groups[first][1]
            for c, table in tables.items() if c in column
        })
    return masks


def _periodic(run: int, period: int, total: int) -> int:
    """Runs of run one-bits starting at bits 0, period, 2·period, ... below bit total, built by doubling."""
    pattern, width = (1 << run) - 1, period
    while width < total:
        pattern |= pattern << width
        width <<= 1
    return pattern & ((1 << total) - 1)


def _product_position_masks(alphabet: Alphabet, prefix: str, length: int) -> list[dict[str, int]]:
    """Per position, each symbol's mask over the words of prefix·Σ^(length − len(prefix)) in index order.

    A prefix position holds its symbol in every word.  At a free position p the digit's
    place value is r = |Σ|^(length − p), so the c-th symbol in code-point order holds runs
    of r bits starting at bit c·r, one run every |Σ|·r bits: the `_periodic` pattern
    shifted by c·r.
    """
    q = len(alphabet.symbols)
    total = q ** (length - len(prefix))
    all_mask = (1 << total) - 1
    rank = {s: c for c, s in enumerate(sorted(alphabet.symbols))}
    masks = [{sym: all_mask} for sym in prefix]
    for p in range(len(prefix) + 1, length + 1):
        run = q ** (length - p)
        pattern = _periodic(run, q * run, total)  # whole periods only, so every shifted run stays below bit total
        masks.append({s: pattern << rank[s] * run for s in alphabet.symbols})
    return masks


class CandidateSpace:
    """Bitsets over the candidate keys of one positions tuple, and the transforms the kernel applies to them.

    Bit k of a bitset stands for candidate key k: digit j of k (base len(symbols) + 1) is
    the symbol code at positions[j], 0 = undefined.  A word's key has digit 0 at the
    positions past its end, and word w extends candidate g iff every nonzero digit of
    g's key equals w's digit there: the restriction order on keys.

    A space is the only way to choose a walk's positions and budget: building one refuses
    positions that are not strictly increasing or include one below 1 (none, or some past
    the longest word, are valid) and is the kernel's budget check.  Its tables (`zero`,
    `keys`, `reachable`) are built on first read and live as long as the space.
    """

    def __init__(self, index: ProblemIndex, positions: tuple[int, ...], budget: int = DEFAULT_CANDIDATE_BUDGET):
        if min(positions, default=1) < 1 or any(map(ge, positions, positions[1:])):
            raise ValueError(f"candidate positions must be strictly increasing and >= 1, not {positions}")
        self.base = base = len(index.alphabet.symbols) + 1
        self.size = base ** len(positions)
        if self.size > budget:
            raise BudgetExceeded("candidate space too large", self.size, budget)
        self.index, self.alphabet, self.positions = index, index.alphabet, positions
        self.steps = [base ** j for j in range(len(positions))]

    @cached_property
    def zero(self) -> list[int]:
        """zero[j]: the keys whose digit j is 0, one run of step bits every base * step bits."""
        return [_periodic(step, self.base * step, self.size) for step in self.steps]

    @cached_property
    def keys(self) -> memoryview:
        """One key per base word, in index order."""
        build = _word_keys if self.index.product_prefix is None else _product_keys
        return build(self.index, self.positions, self.base)

    @cached_property
    def reachable(self) -> int:
        """The keys some base word extends."""
        if self.index.product_prefix is None:
            return self.extended(self.bitset(self.index.all_mask))
        return _product_reachable(self.index, self.positions, self.base)

    def bitset(self, word_mask: int) -> int:
        """The keys of the words in word_mask (bit k for index.words[k])."""
        row = bytearray((self.size + 7) >> 3)
        for key in itertools.compress(self.keys, bit_flags(word_mask)):
            row[key >> 3] |= 1 << (key & 7)
        return int.from_bytes(row, "little")

    def qualifying(self, bad_mask: int) -> int:
        """The keys some word extends and no word of bad_mask extends."""
        self.zero  # built first, so that its transients do not add to the word keys' and bitsets' peak
        return self.reachable & ~self.extended(self.bitset(bad_mask))

    def holding(self, product: ClauseProduct, region: int) -> int:
        """The keys some word extends whose whole cylinder region holds, by the clause rule (`ClauseProduct`).

        A clause's keys are the OR of the digit runs of its literals true under region, the
        run of a literal at positions[i] being zero[i] << code(symbol) * steps[i]; a literal
        at a position outside these positions adds nothing.  No word or word key is read.
        """
        digit = {p: i for i, p in enumerate(self.positions)}
        code = {s: d for d, s in enumerate(self.alphabet.symbols, 1)}
        bits = self.reachable
        for clause in product.clauses:
            some = 0
            for pos, sym, mask in clause:
                i = digit.get(pos)
                if i is not None and mask >> region & 1:
                    some |= self.zero[i] << code[sym] * self.steps[i]
            bits &= some
        return bits

    def extended(self, bits: int) -> int:
        """The keys some key in bits extends: the down-closure of bits, one position at a time."""
        for step, zero in zip(self.steps, self.zero):
            above = 0
            for shift in range(step, self.base * step, step):
                above |= bits >> shift
            bits |= above & zero
        return bits

    def decode(self, keys: list[int]) -> list[PartialString]:
        """The strings of these keys, each decoded once per alphabet while the positions nest (`_decoder`).

        A key not yet in the memo costs one divmod and one tuple concatenation per chunk of
        positions.  The tables hold only in-alphabet entries at increasing positions, so the
        strings are built unchecked.
        """
        alphabet, make = self.alphabet, PartialString._unchecked
        tables, memo = _decoder(alphabet).over(self.positions)
        for key in itertools.filterfalse(memo.__contains__, keys):
            value, entries = key, ()
            for radix, table in tables:
                value, digit = divmod(value, radix)
                entries += table[digit]
            memo[key] = make(alphabet, entries)
        return list(map(memo.__getitem__, keys))

    def minimal(self, bits: int) -> int:
        """The keys in bits none of whose one-entry deletions is in bits."""
        covered = 0
        for step, zero in zip(self.steps, self.zero):
            below = bits & zero
            for shift in range(step, self.base * step, step):
                covered |= below << shift
        return bits & ~covered


DecodeTables = list[tuple[int, list[tuple[tuple[int, str], ...]]]]  # (radix, table) per chunk of positions


class Decoder:
    """One alphabet's decode tables over its kept positions, and the memo of the strings decoded over them, by key.

    Digit j of a key is the code at positions[j], and a key over P has digit 0 past len(P),
    so a key decodes to the same string over P and over every extension of P.  `over`
    therefore serves any positions tuple that is a prefix of the kept one from the kept
    tables and memo; a tuple that extends the kept one rebuilds the tables and keeps the
    memo; any other tuple starts a new memo.  The memo never holds more strings than the
    candidate space of the kept positions.
    """

    __slots__ = ("alphabet", "positions", "tables", "memo")

    def __init__(self, alphabet: Alphabet) -> None:
        self.alphabet = alphabet
        self.positions: tuple[int, ...] = ()
        self.tables: DecodeTables = []
        self.memo: dict[int, PartialString] = {}

    def over(self, positions: tuple[int, ...]) -> tuple[DecodeTables, dict[int, PartialString]]:
        """Tables that decode keys over positions, and the memo they share."""
        kept = self.positions
        if kept[:len(positions)] == positions:  # a prefix of the kept positions, or the same
            return self.tables, self.memo
        if positions[:len(kept)] != kept:  # not an extension either
            self.memo = {}
        self.positions, self.tables = positions, _decode_tables(self.alphabet, positions)
        return self.tables, self.memo


@lru_cache(maxsize=None)
def _decoder(alphabet: Alphabet) -> Decoder:
    """The decoder of this alphabet, shared by every index and problem over it and never evicted:
    the decoders keep at most one memo per alphabet used, each bounded as `Decoder` states."""
    return Decoder(alphabet)


def _decode_tables(alphabet: Alphabet, positions: tuple[int, ...]) -> DecodeTables:
    """The decode tables of these positions: (radix, table) per chunk of positions, lowest digits first.

    table[v] holds the entries of chunk value v, the `choice_tables` product of each
    position's entries, undefined first: the higher positions' entries are the more
    significant digits and follow the lower positions' entries.
    """
    options = [[(), *(((p, s),) for s in alphabet.symbols)] for p in reversed(positions)]
    return [(len(table), table) for table in reversed(choice_tables(options, (), lambda high, low: low + high))]


def _chunk_width(radix: int) -> int:
    """Positions per table chunk: the most that keep radix**width within DECODE_CHUNK_KEYS, at least one."""
    width = 1
    while radix ** (width + 1) <= DECODE_CHUNK_KEYS:
        width += 1
    return width


def choice_tables(options: list[list], unit, combine=and_) -> list[list]:
    """Per chunk of positions, the combine of one option per position for every combination, in product order.

    options holds each position's options, the same number r at every position; a chunk takes
    `_chunk_width(r)` positions, the remainder chunk first, so every table but the first holds
    r**width entries and none more than DECODE_CHUNK_KEYS.  An entry is unit combined with
    its options in position order, combine(earlier, option).  With no position, one table: [unit].
    """
    width = _chunk_width(len(options[0])) if options else 1
    first = len(options) % width or width
    tables = []
    for chunk in [options[:first], *(options[i:i + width] for i in range(first, len(options), width))]:
        table = [unit]
        for choice in chunk:
            table = [combine(earlier, t) for earlier in table for t in choice]
        tables.append(table)
    return tables


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
                bits = bit_flags(mask)
                fields = bytearray(width)
                fields[:8 * len(bits):8] = bits
                packed += int.from_bytes(fields, "little") * (d * base ** j)
    return _unpacked(packed, len(index.words))


def _product_keys(index: ProblemIndex, positions: tuple[int, ...], base: int) -> memoryview:
    """`_word_keys` of a full-product base, by block replication: no word is read.

    The prefix positions give every key one constant.  Then, last free position first,
    the keys over positions p..L in index order are |Σ| copies of the keys over p+1..L,
    copy c plus the digit value of the c-th symbol in code-point order at p (nothing when
    p is not a candidate position): one all-ones field pattern times a constant per copy.
    """
    symbols, prefix = index.alphabet.symbols, index.product_prefix
    place = {p: base ** j for j, p in enumerate(positions)}
    code = {s: d for d, s in enumerate(symbols, 1)}
    packed = sum(code[prefix[p - 1]] * value for p, value in place.items() if p <= len(prefix))
    count = 1
    for p in range(index.max_len, len(prefix), -1):
        packed = int.from_bytes(packed.to_bytes(8 * count, "little") * len(symbols), "little")
        if p in place:
            packed += int.from_bytes(b"".join([(code[s] * place[p]).to_bytes(8, "little") * count
                                               for s in sorted(symbols)]), "little")
        count *= len(symbols)
    return _unpacked(packed, count)


def _unpacked(packed: int, count: int) -> memoryview:
    """The count 64-bit fields of packed, field k its bits 64k..64k+63, as unsigned 64-bit integers."""
    keys = memoryview(packed.to_bytes(8 * count, sys.byteorder)).cast("Q")
    return keys[::-1] if sys.byteorder == "big" else keys


def _product_reachable(index: ProblemIndex, positions: tuple[int, ...], base: int) -> int:
    """The keys some word of a full-product base extends, as a product of allowed digits.

    Per candidate position the digits some word's key holds there, with 0: any digit at a
    free position, 0 or the prefix symbol's code at a prefix position, only 0 past the end.
    """
    symbols, prefix = index.alphabet.symbols, index.product_prefix
    bits, width = 1, 1  # the allowed keys over the digits below j; width = base ** j
    for p in positions:
        if p > index.max_len:
            break  # every higher digit is 0 too: positions increase
        digits = range(base) if p > len(prefix) else (0, symbols.index(prefix[p - 1]) + 1)
        bits = sum(bits << d * width for d in digits)  # disjoint copies, one per digit
        width *= base
    return bits


def set_bits(bits: int) -> list[int]:
    """The indices of the set bits of a nonnegative integer, lowest first, found in its binary digits.

    An integer past SET_BITS_BLOCK bits is read in blocks of that many bits: its bytes are
    written out once (1 byte per 8 bits), a zero block is skipped by one compare, and only
    a nonzero block is written out in binary.  Writing the whole integer in binary would cost
    2 bytes per bit, twice over for the reversed copy.
    """
    if bits >> SET_BITS_BLOCK:
        size = SET_BITS_BLOCK >> 3
        data = bits.to_bytes(-(-bits.bit_length() // SET_BITS_BLOCK) * size, "little")
        zero = bytes(size)
        out: list[int] = []
        for start in range(0, len(data), size):
            block = data[start:start + size]
            if block != zero:
                out.extend(map((start << 3).__add__, set_bits(int.from_bytes(block, "little"))))
        return out
    digits = bin(bits)[:1:-1]  # digits[k] is bit k
    out = []
    k = digits.find("1")
    while k >= 0:
        out.append(k)
        k = digits.find("1", k + 1)
    return out


ChoiceTable = dict[int, tuple[int, dict[str, int]]]  # `Analysis.position_choices`


class Analysis:
    """One decision problem and the artefacts every check shares, each computed once on first use.

    Members are the reduced logogram sorted by (size, render); bit i of a
    member mask stands for members[i], and bit k of a cylinder, target or
    region closure mask for index.words[k].  No attribute can be assigned or
    deleted, so the artefacts derived from the problem and its logogram
    (members, cylinders, member masks) can never describe another one.  The
    logogram walk and the region walks build candidate spaces of their own.
    """

    def __init__(self, problem: DecisionProblem, *, budget: int = DEFAULT_CANDIDATE_BUDGET):
        object.__setattr__(self, "problem", problem)
        object.__setattr__(self, "budget", budget)

    __setattr__ = __delattr__ = read_only

    @cached_property
    def index(self) -> ProblemIndex:
        return ProblemIndex(self.problem.base)

    @cached_property
    def logogram(self) -> "LogogramResult":
        space = CandidateSpace(self.index, auto_positions(self.index), self.budget)  # dies with the walk
        return log_rel(self.problem, space=space, closure=self.target_mask)

    @cached_property
    def members(self) -> list[PartialString]:
        return self.logogram.sorted_reduced()

    @cached_property
    def cylinders(self) -> list[int]:
        return [self.index.cylinder_mask(g) for g in self.members]

    @cached_property
    def target_mask(self) -> int:
        """The target's closure within the base (the target's own mask when it is a mask over the base)."""
        return self.index.closure_mask(self.index.language_mask(self.problem.target))

    def regions_holding(self, g: PartialString, cylinder: int) -> int:
        """Bit j is set iff region j's closure within the base holds all of g's (nonempty) cylinder.

        On a clause product it is the AND over clauses of the OR of the masks of the literals
        g fixes (the clause rule, `ClauseProduct`), and no region mask is built; with labels,
        the test of the cylinder against each region mask.
        """
        product = self.problem.clauses
        if product is None:
            return sum(1 << j for j, rm in enumerate(self.region_masks) if not cylinder & ~rm)
        fixed = dict(g.entries)
        held = (1 << product.regions) - 1
        for clause in product.clauses:
            some = 0
            for pos, sym, mask in clause:
                if fixed.get(pos) == sym:
                    some |= mask
            held &= some
        return held

    @cached_property
    def region_masks(self) -> list[int]:
        """Mask j is the closure within the base of region j: the words whose label has bit j set.

        The labels are written once as one row of bits per word, and mask j is a strided slice
        of those rows.  Regions given as a clause product have no region mask: their walks and
        `regions_holding` read the clauses.
        """
        labels, index = self.problem.labels, self.index
        if labels is None:
            raise ValueError("problem has no solution regions given as labels")
        regions = max(labels.values(), default=0).bit_length()
        rows = "".join(format(labels.get(w, 0), f"0{regions}b") for w in index.words)  # one row of bits per word
        return [index.closure_mask(int(rows[regions - 1 - j::regions][::-1], 2)) for j in range(regions)]

    @cached_property
    def position_choices(self) -> ChoiceTable:
        """Per position some member defines, in increasing order: the members undefined there,
        and for each symbol the members agreeing with it there (those holding it or undefined).

        The members below a string over these positions are the AND of one entry per position:
        the undefined entry where the string is undefined, the symbol's entry where it holds
        that symbol.
        """
        members = self.members
        full = (1 << len(members)) - 1
        at_pos: dict[int, int] = {}  # the members defined at a position
        with_sym: dict[tuple[int, str], int] = {}  # those holding a symbol there
        for i, g in enumerate(members):
            for pos, sym in g.entries:
                at_pos[pos] = at_pos.get(pos, 0) | 1 << i
                with_sym[pos, sym] = with_sym.get((pos, sym), 0) | 1 << i
        symbols = self.index.alphabet.symbols
        return {pos: (full & ~held, {s: full & ~(held & ~with_sym.get((pos, s), 0)) for s in symbols})
                for pos, held in sorted(at_pos.items())}

    @cached_property
    def member_masks(self) -> list[int]:
        """For each base word in index order, the mask of the members it includes.

        A word includes a member iff they agree at every position the member defines, so its
        mask is the AND of `position_choices` read at its symbols (the undefined entry past its
        end).  A full-product base gets them as an AND-product over its free positions
        (`_product_member_masks`), any other base from its word strings (`_word_member_masks`).
        Both are exact for any members, minimal or not, and neither reads the index's position
        masks or keys, only the members and the base, so the expansion identity built on these
        masks is a check on the kernel.
        """
        full = (1 << len(self.members)) - 1
        if self.index.product_prefix is None:
            return _word_member_masks(self.position_choices, self.index, full)
        return _product_member_masks(self.position_choices, self.index, full)

    @cached_property
    def realized_masks(self) -> frozenset[int]:
        """The distinct member masks of the base words: what strong and complete independence read."""
        return frozenset(self.member_masks)

    @cached_property
    def region_logograms(self) -> list[frozenset[PartialString]]:
        """The reduced logogram of each region within the base, one walk per region.

        The walks share one candidate space, released with them.  A clause product's walk
        reads its keys off the clauses; a labelled region's walk takes the region's closure mask.
        """
        space = CandidateSpace(self.index, auto_positions(self.index), self.budget)
        walk = partial(log_rel, self.problem, space=space, keep_full=False)
        product = self.problem.clauses
        if product is not None:
            return [walk(region=j).reduced for j in range(product.regions)]
        return [walk(closure=mask).reduced for mask in self.region_masks]


def _word_member_masks(choices: ChoiceTable, index: ProblemIndex, full: int) -> list[int]:
    """Member masks read from the word strings, one per index word.

    The positions from the first to the last that some member defines are cut into chunks
    of as many positions as keep a chunk's substrings (one symbol or the word's end per
    position) within DECODE_CHUNK_KEYS; each chunk has a table from a word's substring there
    to the members agreeing with it, so a word costs one lookup and one AND per chunk.
    """
    words = index.words
    masks = [full] * len(words)
    width = _chunk_width(len(index.alphabet.symbols) + 1)
    for low in range(min(choices, default=1) - 1, max(choices, default=0), width):
        cut = itemgetter(slice(low, low + width))  # the substring over positions low+1..low+width
        # per position some member defines: its offset in the piece and its choices
        checks = [(pos - low - 1, *choice) for pos in range(low + 1, low + width + 1)
                  if (choice := choices.get(pos))]
        table = {}
        for piece in set(map(cut, words)):
            agreeing = full
            for k, past_end, by_symbol in checks:
                agreeing &= by_symbol[piece[k]] if k < len(piece) else past_end
            table[piece] = agreeing
        masks = list(map(and_, masks, map(table.__getitem__, map(cut, words))))
    return masks


def _product_member_masks(choices: ChoiceTable, index: ProblemIndex, full: int) -> list[int]:
    """Member masks of a full-product base, one per index word, from the choices alone.

    Every word holds the prefix and ends at L, so the members agreeing with all words at
    the positions outside the free ones are one fixed mask: those agreeing with the prefix
    symbol at each prefix position, and those undefined at each position past L.  Word k's
    free symbols are the digits of k in code-point order, most significant first, so the
    masks in index order are an AND-product over that fixed mask: each `choice_tables`
    table of the free positions' agreeing members, in product order, multiplies the list
    out, every mask so far ANDed with every entry of the table.
    """
    prefix, length = index.product_prefix, index.max_len
    ranked = sorted(index.alphabet.symbols)
    fixed = full
    for pos, (past_end, by_symbol) in choices.items():
        if pos <= len(prefix):
            fixed &= by_symbol[prefix[pos - 1]]
        elif pos > length:
            fixed &= past_end
    masks = [fixed]
    free = [choices[pos][1] if pos in choices else dict.fromkeys(ranked, full)
            for pos in range(len(prefix) + 1, length + 1)]
    for table in choice_tables([[by_symbol[s] for s in ranked] for by_symbol in free], full):
        masks = [x & y for x in masks for y in table]
    return masks


class LogogramResult(NamedTuple):
    full: frozenset[PartialString] | None
    reduced: frozenset[PartialString]
    full_count: int
    candidate_space_size: int
    positions: tuple[int, ...]
    restricted: bool

    def sorted_reduced(self) -> list[PartialString]:
        return sorted(self.reduced, key=lambda g: (g.size, g.render()))


def auto_positions(index: ProblemIndex) -> tuple[int, ...]:
    """The candidate positions log_rel would pick for this base by default."""
    return _candidate_positions(index, "auto")


def _candidate_positions(index: ProblemIndex, restrict: str) -> tuple[int, ...]:
    if restrict not in ("auto", "never"):
        raise ValueError(f"restrict must be 'auto' or 'never', not {restrict!r}")
    return tuple(range(index.shared_prefix_len + 1 if restrict == "auto" else 1, index.max_len + 1))


def log_rel(problem: DecisionProblem, *, keep_full: bool | None = None, restrict: str = "auto",
            space: CandidateSpace | None = None, closure: int | None = None,
            region: int | None = None) -> LogogramResult:
    """Relative logogram of problem.target within problem.base, with minimal elements.

    When every base word shares a constant prefix (restrict="auto"), the
    candidate space drops the prefix positions: entries there never change a
    relative cylinder and never appear on minimal members, so the reduced
    set is unaffected; the full set is then reported over the restricted
    positions only.

    A caller holding the target's closure mask (`ProblemIndex.closure_mask`) passes it as
    closure, and problem.target is then not read.  On a problem whose regions are a
    clause product, region=j walks region j in place of the target: its qualifying keys
    are read off the clauses (`CandidateSpace.holding`), and no word mask is read.

    The walk's positions and budget come only from a `CandidateSpace`.  Given none, the base
    is indexed and one space is built for this walk over the positions restrict picks, under
    the default budget, and it dies with the walk.  A caller that wants other positions or
    another budget, or walks one space several times, builds the space and passes it as
    space: the walk runs over its index and positions, and restrict is not read.
    """
    if space is None:
        index = ProblemIndex(problem.base)
        space = CandidateSpace(index, _candidate_positions(index, restrict))
    index = space.index
    if region is not None:
        if problem.clauses is None or not 0 <= region < problem.clauses.regions:
            raise ValueError(f"region {region} is not a clause-product region of the problem")
        qualifying = space.holding(problem.clauses, region)
    else:
        if closure is None:
            closure = index.closure_mask(index.language_mask(problem.target))
        qualifying = space.qualifying(index.all_mask & ~closure)
    full_count = qualifying.bit_count()
    if keep_full is None:
        keep_full = full_count <= FULL_KEEP_LIMIT
    return LogogramResult(
        full=frozenset(space.decode(set_bits(qualifying))) if keep_full else None,
        reduced=frozenset(space.decode(set_bits(space.minimal(qualifying)))),
        full_count=full_count,
        candidate_space_size=space.size,
        positions=space.positions,
        restricted=space.positions != tuple(range(1, index.max_len + 1)),
    )


def log_abs(F: FiniteLanguage, universe: FiniteLanguage, *, keep_full: bool | None = None,
            space: CandidateSpace | None = None) -> LogogramResult:
    """Absolute logogram of F inside a full capped slice (its logogram relative to the slice).

    A given space (the way to another budget) is over the slice's index and every position up to its cap.
    """
    _check_full_slice(universe)
    return log_rel(DecisionProblem(universe, F), restrict="never", keep_full=keep_full, space=space)


def _check_full_slice(universe: FiniteLanguage) -> None:
    if not is_full_slice(universe, universe.max_len):
        raise ValueError("universe must be a full length-capped slice")


def log_rel_naive(problem: DecisionProblem, candidate_positions=None, budget: int = 4 ** 9):
    """Domain-by-domain reference enumerator: no index, no restriction, no pruning.

    A string over a domain (a subset of the positions) qualifies iff some base
    word defined on the whole domain projects onto it and every such word lies
    in the target's closure.  The words are split once into those inside and
    those outside the closure; per domain the qualifying strings are the
    projections of the inside words long enough for the domain, minus the
    projections of such outside words: about words x 2^len(positions)
    projections in all.  The symbols come from the validated base words and the
    positions of a domain increase, so the strings are built unchecked: each
    entry is read from one table of shared (pos, sym) pairs per position, and
    each string is made by `tuple.__new__`, with no Python-level call.
    Returns (full, reduced) string sets.  The target's closure comes from
    `cylindrify`, which the kernel does not call (`ProblemIndex.closure_mask`),
    and the reduced set from `reduce_strings`, which shares no code with the
    kernel's minimal keys.
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
    inside = [w for w in words if w in closure]  # both sorted by length, as words is
    outside = [w for w in words if w not in closure]

    entry = {p: {s: (p, s) for s in alphabet.symbols} for p in positions}  # one shared pair per (pos, sym)
    make = partial(tuple.__new__, PartialString)  # PartialString._unchecked, in C
    full: list[PartialString] = []
    for r in range(len(positions) + 1):
        for domain in itertools.combinations(positions, r):
            # one symbol (r == 1) or a tuple of them: either is a sequence of single characters
            project = itemgetter(*(p - 1 for p in domain)) if domain else lambda w: ()
            low = domain[-1] if domain else 0  # the shortest word length defined on the domain
            qualifying = set(map(project, inside[bisect_left(inside, low, key=len):]))
            qualifying -= set(map(project, outside[bisect_left(outside, low, key=len):]))
            if qualifying:
                rows = tuple(map(entry.__getitem__, domain))
                full.extend([make((alphabet, tuple(map(getitem, rows, codes)))) for codes in qualifying])
    full_set = frozenset(full)
    return full_set, reduce_strings(full_set)


def logexp(H: frozenset[PartialString], universe: FiniteLanguage,
           space: CandidateSpace | None = None) -> frozenset[PartialString]:
    """The closure carrying H to the full absolute logogram of its expansion, over the slice's space when given."""
    return log_abs(expand_in(H, universe), universe, keep_full=True, space=space).full


class LogExpReport(NamedTuple):
    extensive: bool
    idempotent: bool
    monotone: bool
    holds: bool
    collective_sample: str | None = None
    union_strict: bool | None = None


def logexp_closure_check(
    H: frozenset[PartialString],
    universe: FiniteLanguage,
    partner: frozenset[PartialString] | None = None,
) -> LogExpReport:
    """Check the closure laws of LogExp on one string set.

    Extensivity and idempotence are checked on H; monotonicity against H
    plus one extra word-string from the universe.  With a partner set, the
    union LogExp(H | partner) is compared against the union of the separate
    closures and a collective string is reported when the inclusion is
    proper.  One candidate space serves every LogExp of the check, and no more.
    """
    _check_full_slice(universe)
    space = CandidateSpace(ProblemIndex(universe), tuple(range(1, universe.max_len + 1)))
    le_h = logexp(H, universe, space)
    extensive = H <= le_h
    idempotent = logexp(le_h, universe, space) == le_h
    sorted_words = sorted(universe.words, key=lambda w: (len(w), w), reverse=True)
    extra = PartialString.from_word(universe.alphabet, sorted_words[0]) if sorted_words else None
    bigger = H | {extra} if extra is not None else H
    monotone = le_h <= logexp(bigger, universe, space)
    union_strict = collective_sample = None
    if partner is not None:
        le_union = logexp(H | partner, universe, space)
        le_parts = le_h | logexp(partner, universe, space)
        union_strict = le_parts < le_union
        if union_strict:
            collective_sample = min(le_union - le_parts, key=lambda g: (g.size, g.render())).render()
    return LogExpReport(extensive=extensive, idempotent=idempotent, monotone=monotone,
                        holds=extensive and idempotent and monotone,
                        collective_sample=collective_sample, union_strict=union_strict)


def verify_logogram_expansion(analysis: Analysis | DecisionProblem) -> bool:
    """True iff expanding the logogram (full and reduced) inside E recovers the prefix closure of F.

    The reduced set's expansion is recomputed from the base (its words, or
    its product form), independently of the index masks the engine used: the
    words whose member mask (`Analysis.member_masks`, built from the members
    and the base) is nonzero, read as one mask in index order and compared
    with the target's closure mask.  A stored full set must hold every
    member, and each of its strings must extend a member, so that its
    cylinder lies inside the member's: its expansion is then the members'.
    For each entry some member holds, one flag row over the full strings
    marks those holding it; a member's extensions are the AND of its
    entries' rows, and their OR over the members must cover every full
    string.  No word is read for the full set.
    """
    if isinstance(analysis, DecisionProblem):
        analysis = Analysis(analysis)
    result = analysis.logogram
    if result.full is not None:
        if not result.reduced <= result.full:
            return False
        flags = {e: bytearray(len(result.full)) for g in analysis.members for e in g.entries}
        for j, g in enumerate(result.full):
            for e in g.entries:
                row = flags.get(e)
                if row is not None:
                    row[j] = 1
        rows = {e: flags_mask(row) for e, row in flags.items()}  # bit j: full string j holds entry e
        everyone = (1 << len(result.full)) - 1
        extended = 0
        for g in analysis.members:
            extended |= reduce(and_, map(rows.__getitem__, g.entries), everyone)
        if extended != everyone:
            return False
    included = bytes(map(bool, analysis.member_masks))  # byte k: word k includes a member
    return flags_mask(included) == analysis.target_mask


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


def echelon_fingerprint(alphabet: Alphabet, n: int, m: int, positions: tuple[int, ...]) -> str:
    """The cache key of the (n, m) echelon over these positions, from its spec alone: no word is read."""
    from hashlib import sha256  # imported on use, as in problem_fingerprint

    preimage = f"echelon\x00alphabet={''.join(alphabet.symbols)}\x00n={n}\x00m={m}" \
        f"\x00positions={','.join(map(str, positions))}"
    return sha256(preimage.encode()).hexdigest()[:24]


def cache_file(cache_dir: str | Path, fingerprint: str) -> Path:
    return Path(cache_dir) / f"logogram-{fingerprint}.txt"


def _cache_digest(header: dict, body: list[str]) -> str:
    """sha256 over the canonical header (without its digest) and the body lines."""
    from hashlib import sha256

    text = json.dumps(header, sort_keys=True) + "\n" + "\n".join(body)
    return sha256(text.encode()).hexdigest()


def save_logogram_cache(result: LogogramResult, cache_dir: str | Path, fingerprint: str) -> Path:
    """Write the result's cache file under fingerprint, the problem's key over result.positions."""
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
    body = ["R " + g.render() for g in result.sorted_reduced()]
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


# The type of every header field but the digest; a header without exactly these fields is a miss.
_HEADER_TYPES = {
    "schema": int, "problem": str, "tool": str, "positions": list, "restricted": bool,
    "candidate_space_size": int, "full_count": int, "full_stored": bool, "reduced_count": int,
}


def load_logogram_cache(
    alphabet: Alphabet,
    cache_dir: str | Path,
    positions: tuple[int, ...],
    fingerprint: str,
) -> LogogramResult | None:
    """Reload a cached logogram; any mismatch or corruption returns None so the caller recomputes.

    fingerprint is the problem's key over positions (`echelon_fingerprint` or
    `problem_fingerprint`), and the header must carry it.
    """
    path = cache_file(cache_dir, fingerprint)
    if not path.is_file():
        return None
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
        header = json.loads(lines[0])
        if not isinstance(header, dict) or header.pop("sha256", None) != _cache_digest(header, lines[1:]):
            return None
        if {key: type(value) for key, value in header.items()} != _HEADER_TYPES:
            return None
        if (header["schema"], header["problem"], header["tool"], tuple(header["positions"])) \
                != (1, fingerprint, __version__, positions):
            return None
        flagged = [line for line in lines[1:] if line.strip()]
        if not all(line.startswith(("R ", ". ")) for line in flagged):
            return None
        texts = [line[2:] for line in flagged]
        if "".join(texts).strip("".join(alphabet.symbols) + BLANK):
            return None  # not the positional rendering over the alphabet that the cache writes
        make = PartialString._unchecked  # every character is a symbol or a blank: entries need no check
        strings = [make(alphabet, tuple([(i, c) for i, c in enumerate(text, 1) if c != BLANK])) for text in texts]
        reduced = {g for g, line in zip(strings, flagged) if line[0] == "R"}
        extras = {g for g, line in zip(strings, flagged) if line[0] == "."}
        if len(reduced) != header["reduced_count"]:
            return None
        full = frozenset(reduced | extras) if header["full_stored"] else None
        if full is not None and len(full) != header["full_count"]:
            return None
        return LogogramResult(
            full=full,
            reduced=frozenset(reduced),
            full_count=header["full_count"],
            candidate_space_size=header["candidate_space_size"],
            positions=positions,
            restricted=header["restricted"],
        )
    except (ValueError, IndexError):  # undecodable text or JSON, an empty file
        return None
