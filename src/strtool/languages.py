"""Finite languages and the expansion / cylindrification operators.

A finite language is an explicit word set over one alphabet; mixed lengths
are allowed.  Full length-capped slices stand in for the set of all words
wherever a law quantifies over it: every identity checked here is
echelon-wise, so a capped slice is an exact test bed, not an approximation.

A language that is all or part of prefix·Σ^k, such as an echelon, its
satisfiable words or a length-k slice, can be held in product form
(`ProductLanguage`): a bitmask over the product order of prefix·Σ^k, bit i
for the prefix followed by the base-|Σ| digits of i in code-point order.
Its size and subset tests against the same product are mask arithmetic;
its word set is built only when something reads it (`expand_in` reads it,
as it reads any language's), and then equals, and hashes like, a plain
language of the same words.

Language file format: one header line "alphabet=<symbols>", then one word
per line; '#' starts a comment; blank lines are ignored (the empty word is
not representable in files).
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_left
from functools import cached_property
from operator import itemgetter, not_
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from .strings import (
    Alphabet,
    AlphabetMismatch,
    BINARY,
    PartialString,
    TERNARY,
    join_sets,
    read_only,
    reduce_strings,
)


class BudgetExceeded(RuntimeError):
    """An enumeration would exceed its configured budget."""

    def __init__(self, message: str, size: int, budget: int):
        super().__init__(f"{message}: {size} exceeds budget {budget}")
        self.size = size
        self.budget = budget


_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")
_DIGIT_BYTES = bytes.maketrans(b"\0\1", b"01")


def bit_flags(mask: int) -> bytes:
    """Byte k is bit k of a nonnegative integer (0 or 1), for itertools.compress."""
    return bin(mask)[:1:-1].encode().translate(_BIT_BYTES)


def flags_mask(flags: bytes | bytearray) -> int:
    """The integer whose bit k is byte k of flags (each 0 or 1), read in C: the inverse of `bit_flags`."""
    return int(flags[::-1].translate(_DIGIT_BYTES), 2)


class FiniteLanguage:
    def __init__(self, alphabet: Alphabet, words: frozenset[str]) -> None:
        if not set("".join(words)) <= set(alphabet.symbols):
            for w in words:  # one pass over all symbols above; this loop only names the offender
                for c in w:
                    if c not in alphabet:
                        raise ValueError(f"word {w!r} uses symbol {c!r} outside {alphabet!r}")
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "words", words)

    def _sub(self, words: frozenset[str]) -> "FiniteLanguage":
        """The sublanguage of self with these words, which every caller takes from self's own words: no check."""
        sub = object.__new__(FiniteLanguage)
        object.__setattr__(sub, "alphabet", self.alphabet)
        object.__setattr__(sub, "words", words)
        return sub

    __setattr__ = __delattr__ = read_only

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FiniteLanguage):
            return (self.alphabet, self.words) == (other.alphabet, other.words)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.alphabet, self.words))

    @classmethod
    def of(cls, alphabet: Alphabet, words: Iterable[str]) -> "FiniteLanguage":
        return cls(alphabet, frozenset(words))

    def __contains__(self, word: object) -> bool:
        return word in self.words

    def __len__(self) -> int:
        return len(self.words)

    def __iter__(self) -> Iterator[str]:
        return iter(self.words)

    def sorted_words(self) -> list[str]:
        return sorted(self.words, key=lambda w: (len(w), w))

    @property
    def max_len(self) -> int:
        return max((len(w) for w in self.words), default=0)

    def _check(self, other: "FiniteLanguage") -> None:
        if self.alphabet != other.alphabet:
            raise AlphabetMismatch(f"mixed alphabets: {self.alphabet!r} vs {other.alphabet!r}")

    def union(self, other: "FiniteLanguage") -> "FiniteLanguage":
        self._check(other)
        return FiniteLanguage(self.alphabet, self.words | other.words)

    def intersection(self, other: "FiniteLanguage") -> "FiniteLanguage":
        self._check(other)
        return self._sub(self.words & other.words)

    def difference(self, other: "FiniteLanguage") -> "FiniteLanguage":
        self._check(other)
        return self._sub(self.words - other.words)

    def issubset(self, other: "FiniteLanguage") -> bool:
        self._check(other)
        return self.words <= other.words

    def __repr__(self) -> str:
        sample = ",".join(self.sorted_words()[:4])
        extra = "..." if len(self.words) > 4 else ""
        return f"FiniteLanguage({''.join(self.alphabet.symbols)};{{{sample}{extra}}})"


class ProductLanguage(FiniteLanguage):
    """Words of prefix·Σ^free chosen by a bitmask over the product order, held without word strings.

    Word i of the product order is prefix followed by the base-|Σ| digits of i, most
    significant first, with the symbols ranked in code-point order: sorted by text, as
    `ProblemIndex` orders a one-length base.  Bit i of mask stands for word i; no mask is
    the whole product.  `len` is the mask's popcount, and equality and subset tests against a
    language over the same product compare masks.  `words` is built on first read and is
    the frozenset a plain language of the same words holds, so the two compare and hash alike.
    """

    def __init__(self, alphabet: Alphabet, prefix: str, free: int, mask: int | None = None) -> None:
        if not set(prefix) <= set(alphabet.symbols):
            raise ValueError(f"prefix {prefix!r} uses a symbol outside {alphabet!r}")
        if free < 0:
            raise ValueError("need free >= 0")
        full = (1 << len(alphabet.symbols) ** free) - 1
        if mask is None:
            mask = full
        elif mask < 0 or mask & ~full:
            raise ValueError(f"mask has bits outside the {full.bit_length()} words of the product")
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "free", free)
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "is_full", mask == full)

    def masked(self, mask: int) -> "ProductLanguage":
        """The language over the same product with this mask."""
        return ProductLanguage(self.alphabet, self.prefix, self.free, mask)

    @property
    def length(self) -> int:
        return len(self.prefix) + self.free

    def _same_product(self, other: object) -> bool:
        return isinstance(other, ProductLanguage) and \
            (self.alphabet, self.prefix, self.free) == (other.alphabet, other.prefix, other.free)

    def ordered_words(self) -> list[str]:
        """The words in product order, built four free positions at a time."""
        symbols = sorted(self.alphabet.symbols)
        words = [self.prefix]
        for start in range(0, self.free, 4):
            tails = ["".join(t) for t in itertools.product(symbols, repeat=min(4, self.free - start))]
            words = [word + tail for word in words for tail in tails]
        return words if self.is_full else list(itertools.compress(words, bit_flags(self.mask)))

    @cached_property
    def words(self) -> frozenset[str]:
        return frozenset(self.ordered_words())

    def __eq__(self, other: object) -> bool:
        if self._same_product(other):
            return self.mask == other.mask
        return super().__eq__(other)

    __hash__ = FiniteLanguage.__hash__

    def __len__(self) -> int:
        return self.mask.bit_count()

    @property
    def max_len(self) -> int:
        return self.length if self.mask else 0

    def issubset(self, other: FiniteLanguage) -> bool:
        if self._same_product(other):
            return not self.mask & ~other.mask
        return super().issubset(other)


def sigma_exact(alphabet: Alphabet, n: int) -> ProductLanguage:
    """All words of length exactly n, in product form."""
    return ProductLanguage(alphabet, "", n)


def sigma_upto(alphabet: Alphabet, cap: int) -> FiniteLanguage:
    """All words of length at most cap (includes the empty word)."""
    words: list[str] = []
    for n in range(cap + 1):
        words.extend("".join(t) for t in itertools.product(alphabet.symbols, repeat=n))
    return FiniteLanguage.of(alphabet, words)


def is_full_slice(L: FiniteLanguage, cap: int) -> bool:
    k = len(L.alphabet)
    expected = (k ** (cap + 1) - 1) // (k - 1) if k > 1 else cap + 1
    return len(L) == expected and L.max_len <= cap


def expand_in(H: Iterable[PartialString], L: FiniteLanguage) -> FiniteLanguage:
    """Words of L that include at least one member of H.

    Members are grouped by domain (their tuple of positions) into sets of
    symbol projections.  L's words are listed by length, and each domain
    scans the suffix of words long enough to carry it, one C-level
    projection and lookup per word; a word that matches leaves the list the
    later domains scan.  About |L| x (distinct domains) steps, plus one step
    per member and a sort of L by length.
    """
    projections: dict[tuple[int, ...], set] = {}
    bottom = False
    for g in H:
        if g.alphabet != L.alphabet:
            raise AlphabetMismatch(f"string alphabet {g.alphabet!r} differs from language {L.alphabet!r}")
        if not g.entries:
            bottom = True
            continue
        domain, symbols = zip(*g.entries)
        # itemgetter of one index returns the symbol itself, of several a tuple
        projections.setdefault(domain, set()).add(symbols if len(symbols) > 1 else symbols[0])
    if bottom:
        return L  # the empty string is included in every word
    rest = sorted(L.words, key=len)
    hits: list[str] = []
    for domain, projs in projections.items():
        start = bisect_left(rest, domain[-1], key=len)
        tail = rest[start:]
        found = list(map(projs.__contains__, map(itemgetter(*[p - 1 for p in domain]), tail)))
        if any(found):
            hits.extend(itertools.compress(tail, found))
            rest[start:] = itertools.compress(tail, map(not_, found))
    return L._sub(frozenset(hits))


def cylindrify(A: FiniteLanguage, L: FiniteLanguage) -> FiniteLanguage:
    """Words of L having some word of A as a prefix.

    One pass per distinct length k of A's words: each remaining word's first
    k symbols are sliced and looked up among A's words of length k, and a
    word that matches leaves the list.  About |L| x (distinct lengths of A)
    steps, each a C-level slice and lookup.
    """
    A._check(L)
    by_len: dict[int, set[str]] = {}
    for a in A.words:
        by_len.setdefault(len(a), set()).add(a)
    rest = list(L.words)
    hits: list[str] = []
    for k in sorted(by_len):
        # a word shorter than k slices to itself, shorter than every word of length k
        found = list(map(by_len[k].__contains__, map(itemgetter(slice(k)), rest)))
        if any(found):
            hits.extend(itertools.compress(rest, found))
            rest = list(itertools.compress(rest, map(not_, found)))
    return L._sub(frozenset(hits))


# --- seeded random generators (word length uniform in [0, cap], uniform symbols) ---

def random_language(rng: random.Random, alphabet: Alphabet, cap: int, max_words: int = 24) -> FiniteLanguage:
    count = rng.randint(0, max_words)
    words = set()
    for _ in range(count):
        n = rng.randint(0, cap)
        words.add("".join(rng.choice(alphabet.symbols) for _ in range(n)))
    return FiniteLanguage.of(alphabet, words)


def random_string(rng: random.Random, alphabet: Alphabet, cap: int) -> PartialString:
    entries = [(p, rng.choice(alphabet.symbols)) for p in range(1, cap + 1) if rng.random() < 0.4]
    return PartialString.of(alphabet, entries)


def random_string_set(rng: random.Random, alphabet: Alphabet, cap: int, max_size: int = 5) -> frozenset[PartialString]:
    return frozenset(random_string(rng, alphabet, cap) for _ in range(rng.randint(0, max_size)))


class LawReport(NamedTuple):
    """Outcome of a seeded law-checking run: the checks made per law and the first 16 failures."""

    samples: int
    seed: int
    holds: bool
    checks: dict[str, int]
    failures: tuple[str, ...]


def check_expansion_laws(samples: int, seed: int) -> LawReport:
    """Seeded randomized check of the closure and expansion laws.

    Samples alternate between the binary and ternary alphabets.  Per sample,
    over a random universe L of words of length at most 6 (sometimes a full
    slice capped at 4), and string sets over positions 1..6:
    cylindrification is extensive, idempotent, monotone, and distributes
    over union; string-set expansion satisfies the intersection law
    (via the set join), the union law, and reduction invariance.
    """
    rng = random.Random(seed)
    checks: dict[str, int] = {}
    failures: list[str] = []

    def record(law: str, ok: bool, detail: str) -> None:
        checks[law] = checks.get(law, 0) + 1
        if not ok and len(failures) < 16:
            failures.append(f"{law}: {detail}")

    for i in range(samples):
        alphabet = (BINARY, TERNARY)[i % 2]
        L = sigma_upto(alphabet, rng.randint(1, 4)) if rng.random() < 0.3 else random_language(rng, alphabet, 6)
        words = sorted(L.words)
        B = FiniteLanguage.of(alphabet, (w for w in words if rng.random() < 0.5))
        A = FiniteLanguage.of(alphabet, (w for w in B.words if rng.random() < 0.6))
        tag = f"sample {i}"

        cyl_A, cyl_B = cylindrify(A, L), cylindrify(B, L)
        record("extensive", A.issubset(cyl_A), tag)
        record("idempotent", cylindrify(cyl_A, L) == cyl_A, tag)
        record("monotone", cyl_A.issubset(cyl_B), tag)
        union = cylindrify(A.union(B), L)
        record("union-of-words", union == cyl_A.union(cyl_B), tag)

        H = random_string_set(rng, alphabet, 6)
        K = random_string_set(rng, alphabet, 6)
        eH, eK = expand_in(H, L), expand_in(K, L)
        record("intersection-of-strings", eH.intersection(eK) == expand_in(join_sets(H, K), L), tag)
        record("union-of-strings", expand_in(H | K, L) == eH.union(eK), tag)
        record("reduction-invariant", expand_in(reduce_strings(H), L) == eH, tag)
    return LawReport(samples, seed, not failures, checks, tuple(failures))


# --- language files ---

def load_language(path: str | Path) -> FiniteLanguage:
    alphabet: Alphabet | None = None
    words: list[str] = []
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("alphabet="):
            if alphabet is not None:
                raise ValueError(f"{path}:{lineno}: repeated 'alphabet=' header")
            alphabet = Alphabet.of(line.removeprefix("alphabet="))
            continue
        if alphabet is None:
            raise ValueError(f"{path}: missing 'alphabet=' header before first word")
        for c in line:
            if c not in alphabet:
                raise ValueError(f"{path}:{lineno}: word {line!r} uses symbol {c!r} outside {alphabet!r}")
        words.append(line)
    if alphabet is None:
        raise ValueError(f"{path}: missing 'alphabet=' header")
    return FiniteLanguage.of(alphabet, words)
