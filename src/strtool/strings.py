"""Partial words and their algebra.

A partial word ("string") is a finite partial map from 1-based positions to
alphabet symbols.  Ordinary words are the special case where the domain is an
initial segment {1..n}.  Strings are ordered by extension, carry a
compatibility relation, and support join (least common extension), meet
(agreeing restriction), set join, antichain reduction, and a consistency
test that produces a witnessing word.

Antichain reduction (`reduce_strings`) is bit-parallel over the members kept
so far: it holds one bitset per position and one per (position, symbol)
entry, and never compares two members directly.

`Alphabet` and `PartialString` are immutable values: each is the tuple of
its fields (`(symbols,)`, `(alphabet, entries)`), so the hash and equality
that every set of strings uses are `hash` and `==` of that field tuple, as
for every value type of the package, run by tuple itself in C.

Text forms:
  * positional: one character per position up to the string's size, with
    '_' marking undefined positions ("1_2"); words contain no '_'.
  * sparse: "pos:sym,pos:sym" for strings with large gaps ("1:1,3:2").
  * the empty string renders as "" and may be written "" or the token "-".
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from operator import itemgetter
from typing import Iterable, Iterator

BLANK = "_"
EMPTY_TOKEN = "-"


class AlphabetMismatch(ValueError):
    """Raised when an operation mixes strings over different alphabets."""


def read_only(self, name: str, *value: object) -> None:
    """`__setattr__` and `__delattr__` of the immutable value types.

    Every value type is equal by its field tuple and hashes as `hash` of it.
    `Alphabet` and `PartialString` are that tuple (a `tuple` subclass with
    read-only field properties), so their equality and hash are tuple's own, in
    C; the other types set each field once through `object.__setattr__` in
    `__init__`.
    """
    raise AttributeError(f"cannot assign to or delete {type(self).__name__}.{name}")


def not_a_sequence(self, *args: object) -> None:
    """The sequence operations of `tuple` that `Alphabet` and `PartialString` turn off.

    Each is the tuple of its fields, so indexing reads a field and `==`,
    `hash` and ordering are the field tuple's; concatenating, repeating,
    counting and searching a value, or reversing it, has no meaning.
    """
    raise TypeError(f"{type(self).__name__} is a value, not a sequence of its fields")


class Alphabet(tuple):
    """Ordered finite symbol set; must contain '0' and '1', never '_'.

    The value is the tuple `(symbols,)`: equality, hash and ordering are
    that tuple's, so an alphabet equals `(symbols,)` and `BINARY[0]` is its
    symbols.  `in`, `len` and iteration read the symbols.
    """

    __slots__ = ()

    def __new__(cls, symbols: tuple[str, ...]) -> "Alphabet":
        if not symbols:
            raise ValueError("alphabet must be nonempty")
        if len(set(symbols)) != len(symbols):
            raise ValueError(f"duplicate symbols in alphabet {symbols!r}")
        for sym in symbols:
            if not (isinstance(sym, str) and len(sym) == 1):
                raise ValueError(f"alphabet symbols must be single characters, got {sym!r}")
        if BLANK in symbols:
            raise ValueError("the blank marker '_' cannot be an alphabet symbol")
        for required in ("0", "1"):
            if required not in symbols:
                raise ValueError(f"alphabet must include {required!r}")
        return tuple.__new__(cls, (symbols,))

    symbols = property(itemgetter(0))
    __setattr__ = __delattr__ = read_only
    __add__ = __radd__ = __mul__ = __rmul__ = __reversed__ = count = index = not_a_sequence

    def __getnewargs__(self) -> tuple[tuple[str, ...]]:
        return (self.symbols,)

    @classmethod
    def of(cls, symbols: str | Iterable[str]) -> "Alphabet":
        return cls(tuple(symbols))

    @property
    def first(self) -> str:
        return self.symbols[0]

    def __contains__(self, sym: object) -> bool:
        return sym in self.symbols

    def __iter__(self) -> Iterator[str]:
        return iter(self.symbols)

    def __len__(self) -> int:
        return len(self.symbols)

    def __repr__(self) -> str:
        return f"Alphabet({''.join(self.symbols)!r})"


BINARY = Alphabet.of("01")
TERNARY = Alphabet.of("012")


def _check_same_alphabet(a: "PartialString", b: "PartialString") -> None:
    if a.alphabet != b.alphabet:
        raise AlphabetMismatch(f"mixed alphabets: {a.alphabet!r} vs {b.alphabet!r}")


class PartialString(tuple):
    """Finite partial map position -> symbol, positions >= 1.

    The size is the maximum position in the domain (0 for the empty
    string), so the positional rendering of a string of size L has exactly
    L characters.  The value is the tuple `(alphabet, entries)`: equality
    and hash are that tuple's, so a string equals `(alphabet, entries)` and
    `g[1]` is its entries.  A string is not iterable, and `len` counts its
    entries.
    """

    __slots__ = ()

    def __new__(cls, alphabet: Alphabet, entries: tuple[tuple[int, str], ...]) -> "PartialString":
        last = 0
        symbols = alphabet.symbols
        for pos, sym in entries:
            if not isinstance(pos, int) or pos < 1:
                raise ValueError(f"positions must be integers >= 1, got {pos!r}")
            if pos <= last:
                raise ValueError(f"repeated position {pos}" if pos == last
                                 else "entries must be sorted by strictly increasing position")
            if sym not in symbols:
                raise ValueError(f"symbol {sym!r} not in {alphabet!r}")
            last = pos
        return tuple.__new__(cls, (alphabet, entries))

    @classmethod
    def _unchecked(cls, alphabet: Alphabet, entries: tuple[tuple[int, str], ...]) -> "PartialString":
        """The string of these entries, which every caller has sorted and in-alphabet by construction: no check."""
        return tuple.__new__(cls, (alphabet, entries))

    alphabet = property(itemgetter(0))
    entries = property(itemgetter(1))
    __setattr__ = __delattr__ = read_only

    def __getnewargs__(self) -> tuple[Alphabet, tuple[tuple[int, str], ...]]:
        return self.alphabet, self.entries

    __iter__ = __contains__ = __add__ = __radd__ = __mul__ = __rmul__ = __reversed__ = count = index = not_a_sequence

    @classmethod
    def of(cls, alphabet: Alphabet, entries: Mapping[int, str] | Iterable[tuple[int, str]]) -> "PartialString":
        items = entries.items() if isinstance(entries, Mapping) else entries
        return cls(alphabet, tuple(sorted(items)))

    @classmethod
    def bottom(cls, alphabet: Alphabet) -> "PartialString":
        return cls(alphabet, ())

    @classmethod
    def from_word(cls, alphabet: Alphabet, word: str) -> "PartialString":
        return cls(alphabet, tuple((i + 1, c) for i, c in enumerate(word)))

    @classmethod
    def parse(cls, alphabet: Alphabet, text: str) -> "PartialString":
        """Parse a positional or sparse rendering.

        Positional input is lenient about trailing blanks ("1__" parses the
        same as "1"); the canonical rendering never carries them.
        """
        if text in ("", EMPTY_TOKEN):
            return cls.bottom(alphabet)
        if ":" in text:
            entries = []
            for part in text.split(","):
                pos_text, _, sym = part.partition(":")
                try:
                    pos = int(pos_text)
                except ValueError:
                    raise ValueError(f"bad sparse entry {part!r} in {text!r}") from None
                if len(sym) != 1:
                    raise ValueError(f"bad sparse entry {part!r} in {text!r}")
                entries.append((pos, sym))
            return cls.of(alphabet, entries)
        return cls(alphabet, tuple((i + 1, c) for i, c in enumerate(text) if c != BLANK))

    @property
    def as_dict(self) -> dict[int, str]:
        return dict(self.entries)

    @property
    def size(self) -> int:
        return self.entries[-1][0] if self.entries else 0

    @property
    def domain(self) -> tuple[int, ...]:
        return tuple([pos for pos, _ in self.entries])

    @property
    def is_word(self) -> bool:
        return all(pos == i + 1 for i, (pos, _) in enumerate(self.entries))

    def to_word(self) -> str:
        if not self.is_word:
            raise ValueError(f"{self.render()!r} is not a word: domain is not an initial segment")
        return "".join(sym for _, sym in self.entries)

    def get(self, pos: int) -> str | None:
        return self.as_dict.get(pos)

    def render(self) -> str:
        chars = [BLANK] * self.size
        for pos, sym in self.entries:
            chars[pos - 1] = sym
        return "".join(chars)

    def __len__(self) -> int:
        return len(self.entries)

    # Extension order: f <= g iff g agrees with f on all of f's domain.
    def __le__(self, other: "PartialString") -> bool:
        _check_same_alphabet(self, other)
        d = other.as_dict
        return all(d.get(pos) == sym for pos, sym in self.entries)

    def __ge__(self, other: "PartialString") -> bool:
        return other.__le__(self)

    def __lt__(self, other: "PartialString") -> bool:
        return self != other and self.__le__(other)

    def __gt__(self, other: "PartialString") -> bool:
        return other.__lt__(self)

    def compatible(self, other: "PartialString") -> bool:
        _check_same_alphabet(self, other)
        small, big = (self, other) if len(self.entries) <= len(other.entries) else (other, self)
        d = big.as_dict
        return all(d.get(pos, sym) == sym for pos, sym in small.entries)

    def join(self, other: "PartialString") -> "PartialString | None":
        """Least common extension, or None when incompatible."""
        return join_all((self, other))

    def meet(self, other: "PartialString") -> "PartialString":
        """Restriction to the positions where both agree; always defined."""
        _check_same_alphabet(self, other)
        d = other.as_dict
        return PartialString(self.alphabet, tuple((p, s) for p, s in self.entries if d.get(p) == s))

    def __repr__(self) -> str:
        return f"PartialString({self.render()!r})"


def extends(g: PartialString, f: PartialString) -> bool:
    """True iff g is an extension of f (f <= g)."""
    return f <= g


def word_includes(word: str, g: PartialString) -> bool:
    """True iff the word, read as a total string on {1..len}, extends g."""
    n = len(word)
    return all(pos <= n and word[pos - 1] == sym for pos, sym in g.entries)


def _common_alphabet(H: Iterable[PartialString], K: Iterable[PartialString] = ()) -> Alphabet | None:
    alphabet: Alphabet | None = None
    for g in itertools.chain(H, K):
        if alphabet is None:
            alphabet = g.alphabet
        elif g.alphabet != alphabet:
            raise AlphabetMismatch(f"mixed alphabets in string set: {alphabet!r} vs {g.alphabet!r}")
    return alphabet


def join_all(H: Iterable[PartialString]) -> PartialString | None:
    """Least common extension of every member of a nonempty H, or None when two members conflict."""
    members = tuple(H)
    if len(members) == 1:
        return members[0]
    alphabet = _common_alphabet(members)
    if alphabet is None:
        raise ValueError("the join of an empty set has no alphabet")
    merged: dict[int, str] = {}
    for g in members:
        for pos, sym in g.entries:
            if merged.setdefault(pos, sym) != sym:
                return None
    return PartialString.of(alphabet, merged)


def join_sets(H: frozenset[PartialString], K: frozenset[PartialString]) -> frozenset[PartialString]:
    """All defined joins a+b over pairs; empty operand annihilates."""
    _common_alphabet(H, K)
    if not H or not K:
        return frozenset()
    out = set()
    for a in H:
        for b in K:
            j = a.join(b)
            if j is not None:
                out.add(j)
    return frozenset(out)


def reduce_strings(H: Iterable[PartialString]) -> frozenset[PartialString]:
    """Minimal elements of H under extension (members not properly extending another member).

    H is read once.  Members are taken in rounds of equal entry count, fewest
    first; no member properly extends one with as many entries, so a round is
    tested only against the members kept in earlier rounds.  Those are held
    as bitsets over their indices: `at[pos]` marks the kept members defined
    at pos, `has[(pos, sym)]` those with that entry.  A kept m is not below g
    iff m has an entry where g is undefined or holds another symbol, so g is
    kept iff the OR of `at[pos]` over the positions outside g's domain and of
    `at[pos] & ~has[(pos, sym)]` over g's entries covers every kept index.
    The second term is tabulated once per round, each entry's value carrying
    one more bit above the kept indices for its position (k-th in `at`), so
    the OR over g's entries also gives g's domain among the kept positions.
    The first OR is shared by every string of a round with that domain, so a
    test costs one big-integer OR per entry of g.
    """
    members = set(H)
    alphabet = _common_alphabet(members)
    rounds: dict[int, list[PartialString]] = {}
    for g in members:
        rounds.setdefault(len(g.entries), []).append(g)
    kept: list[PartialString] = []
    at: dict[int, int] = {}
    has: dict[tuple[int, str], int] = {}
    for count in sorted(rounds):
        shift = len(kept)
        everyone = (1 << shift) - 1
        positions = list(at.items())
        other = {(pos, sym): defined & ~has.get((pos, sym), 0) | 1 << (shift + k)
                 for k, (pos, defined) in enumerate(positions) for sym in alphabet.symbols}
        outside: dict[int, int] = {}
        survivors = []
        for g in rounds[count]:
            blocked = 0
            for entry in g.entries:
                blocked |= other.get(entry, 0)
            domain = blocked >> shift
            rest = outside.get(domain)
            if rest is None:
                rest = 0
                for k, (pos, defined) in enumerate(positions):
                    if not domain >> k & 1:
                        rest |= defined
                outside[domain] = rest
            if (blocked | rest) & everyone == everyone:
                survivors.append(g)
        for g in survivors:
            bit = 1 << len(kept)
            kept.append(g)
            for entry in g.entries:
                at[entry[0]] = at.get(entry[0], 0) | bit
                has[entry] = has.get(entry, 0) | bit
    return frozenset(kept)


def pairwise_compatible(H: Iterable[PartialString]) -> bool:
    members = list(H)
    return all(a.compatible(b) for a, b in itertools.combinations(members, 2))


def consistent_witness(H: frozenset[PartialString]) -> str | None:
    """A word including every member of H, or None if there is none.

    The witness has length max over member sizes, forced entries where H
    prescribes them, and the alphabet's first symbol elsewhere.  A finite H
    has a witness exactly when its members are pairwise compatible.
    """
    if not H:
        return ""
    joined = join_all(H)
    if joined is None:
        return None
    chars = joined.as_dict
    return "".join(chars.get(i, joined.alphabet.first) for i in range(1, joined.size + 1))
