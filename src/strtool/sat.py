"""CNF formulas encoded as words over {0,1,2}, and their echelons.

Encoding: a formula with n variables and m clauses becomes the prefix
0..010..01 (n zeros, a one, m zeros, a one) followed by m blocks of n codes,
one block per clause; code 0 means the variable is absent from the clause,
1 present plain, 2 present negated.  Clause j's code for variable i sits at
word position (n + m + 2) + (j - 1) * n + i.  All encoded words form a
prefix-free language, one echelon per (n, m).

Regions: bit j of an assignment mask stands for solutions(n)[j], and
region j is the formulas that assignment j satisfies.  Each body position
holds a literal, with the mask of the assignments making it true (code 0,
an absent variable, holds none); a clause is true under the OR of its
literals' masks, and a formula under the AND over its clauses.  So an
echelon's regions are a clause product (`ClauseProduct`): m clauses of n
positions, each code with its literal mask.  `enumerate_echelon` ANDs one
mask per clause block to find the satisfiable words, the target, without
decoding a word (the last block only as the product of the codes that miss
the others' AND), and keeps no per-word label; which regions hold a string
is then answered from the clauses alone.  An echelon is the product
prefix·{0,1,2}^(nm), and word k of it (in sorted order) is the prefix
followed by the base-3 digits of k, so it builds no word string: the base is
a `ProductLanguage` and the target the same product with a mask, bit k set
when word k is satisfiable.  `decode` and `satisfies` are the per-formula
forms of the same facts.

Literals are nonzero signed integers (DIMACS style): +i for the plain
variable, -i for its negation.  The CLI formula grammar separates clauses
with ';' and literals with ',': "1,3,-4;2,-3".
"""

from __future__ import annotations

import itertools
import math

from .languages import BudgetExceeded, ProductLanguage, flags_mask
from .logogram import ClauseProduct, DecisionProblem
from .strings import TERNARY, Alphabet, PartialString, read_only

SAT_ALPHABET: Alphabet = TERNARY
DEFAULT_WORD_BUDGET = 2_000_000


class CnfInstance:
    """n variables, m clauses; a clause is a frozenset of signed literals.

    A clause holding both a literal and its negation is constructible (and
    flagged by `is_well_formed`) but has no encoded form: the code scheme
    reserves a single code per (clause, variable) slot.
    """

    def __init__(self, n: int, m: int, clauses: tuple[frozenset[int], ...]) -> None:
        if n < 1 or m < 1:
            raise ValueError("need n >= 1 and m >= 1")
        if len(clauses) != m:
            raise ValueError(f"declared m={m} but got {len(clauses)} clauses")
        for clause in clauses:
            for lit in clause:
                if lit == 0 or abs(lit) > n:
                    raise ValueError(f"literal {lit} out of range for n={n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "clauses", clauses)

    __setattr__ = __delattr__ = read_only

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.n, self.m, self.clauses) == (other.n, other.m, other.clauses)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.n, self.m, self.clauses))

    @classmethod
    def of(cls, n: int, clauses) -> "CnfInstance":
        clause_sets = tuple(frozenset(c) for c in clauses)
        return cls(n, len(clause_sets), clause_sets)

    @property
    def is_well_formed(self) -> bool:
        return all(not any(-lit in clause for lit in clause) for clause in self.clauses)

    def occurring_variables(self) -> frozenset[int]:
        return frozenset(abs(lit) for clause in self.clauses for lit in clause)


Assignment = tuple  # of 0/1 values, index i-1 holding the value of variable i


def solutions(n: int) -> list[Assignment]:
    """The 2**n assignments in binary-counting order, variable 1 least significant."""
    if n < 1:
        raise ValueError("need n >= 1")
    return [tuple((j >> (i - 1)) & 1 for i in range(1, n + 1)) for j in range(2 ** n)]


def satisfies(inst: CnfInstance, y: Assignment) -> bool:
    """True iff every clause has a literal made true by y; an empty clause fails."""
    if len(y) != inst.n:
        raise ValueError(f"assignment has {len(y)} values, expected {inst.n}")
    def lit_true(lit: int) -> bool:
        value = y[abs(lit) - 1]
        return value == 1 if lit > 0 else value == 0
    return all(any(lit_true(lit) for lit in clause) for clause in inst.clauses)


class EchelonSpec:
    """One (n, m) slice of the encoded language."""

    def __init__(self, n: int, m: int) -> None:
        if n < 1 or m < 1:
            raise ValueError("need n >= 1 and m >= 1")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)

    __setattr__ = __delattr__ = read_only

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.n, self.m) == (other.n, other.m)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.n, self.m))

    @property
    def prefix(self) -> str:
        return "0" * self.n + "1" + "0" * self.m + "1"

    @property
    def word_length(self) -> int:
        return self.n + self.m + 2 + self.n * self.m

    @property
    def body_positions(self) -> tuple[int, ...]:
        start = self.n + self.m + 2
        return tuple(range(start + 1, start + self.n * self.m + 1))

    def position(self, clause: int, var: int) -> int:
        if not (1 <= clause <= self.m and 1 <= var <= self.n):
            raise ValueError(f"(clause={clause}, var={var}) outside echelon ({self.n},{self.m})")
        return (self.n + self.m + 2) + (clause - 1) * self.n + var

    def slot(self, pos: int) -> tuple[int, int] | None:
        """The (clause, var) whose code sits at word position pos, the inverse of `position`; None off the body."""
        offset = pos - (self.n + self.m + 2) - 1
        return (offset // self.n + 1, offset % self.n + 1) if 0 <= offset < self.n * self.m else None


def encode(inst: CnfInstance) -> str:
    spec = EchelonSpec(inst.n, inst.m)
    body = []
    for clause in inst.clauses:
        for i in range(1, inst.n + 1):
            plain, negated = i in clause, -i in clause
            if plain and negated:
                raise ValueError(f"clause {set(clause)} holds both {i} and {-i}: not encodable")
            body.append("1" if plain else "2" if negated else "0")
    return spec.prefix + "".join(body)


def decode(word: str) -> CnfInstance:
    n = 0
    while n < len(word) and word[n] == "0":
        n += 1
    if n == 0 or n >= len(word) or word[n] != "1":
        raise ValueError(f"malformed prefix in {word!r}")
    rest = word[n + 1:]
    m = 0
    while m < len(rest) and rest[m] == "0":
        m += 1
    if m == 0 or m >= len(rest) or rest[m] != "1":
        raise ValueError(f"malformed prefix in {word!r}")
    body = rest[m + 1:]
    if len(body) != n * m:
        raise ValueError(f"expected a body of {n * m} codes, got {len(body)} in {word!r}")
    clauses = []
    for j in range(m):
        clause = []
        for i in range(1, n + 1):
            code = body[j * n + i - 1]
            if code == "1":
                clause.append(i)
            elif code == "2":
                clause.append(-i)
            elif code != "0":
                raise ValueError(f"bad code {code!r} in {word!r}")
        clauses.append(frozenset(clause))
    return CnfInstance(n, m, tuple(clauses))


def _literal_masks(n: int) -> list[dict[str, int]]:
    """Per variable, each code's assignment mask: bit j set when solutions(n)[j] makes that literal true."""
    ys = solutions(n)
    full = (1 << len(ys)) - 1
    literal = []
    for i in range(n):
        plain = sum(1 << j for j, y in enumerate(ys) if y[i])
        literal.append({"0": 0, "1": plain, "2": full ^ plain})
    return literal


def _clause_masks(literal: list[dict[str, int]]) -> list[int]:
    """Every clause block's assignment mask, in the product order of its n codes (variable 1 most significant)."""
    masks = [0]
    for lit in literal:
        masks = [mask | lit[code] for mask in masks for code in SAT_ALPHABET.symbols]
    return masks


def _unsatisfied_blocks(literal: list[dict[str, int]], mask: int) -> list[int]:
    """Product-order indices of the clause blocks true under no assignment in mask.

    A block misses mask iff each of its codes does, so these are the product,
    over the variables, of the codes whose literal mask misses mask (code 0,
    an absent variable, always among them).
    """
    radix, indices = len(SAT_ALPHABET.symbols), [0]
    for lit in literal:
        missing = [d for d, code in enumerate(SAT_ALPHABET.symbols) if not lit[code] & mask]
        indices = [radix * index + d for index in indices for d in missing]
    return indices


def check_word_budget(spec: EchelonSpec, budget: int) -> None:
    """Refuse an echelon of more than budget words, 3**(n*m), before building any."""
    count = 3 ** (spec.n * spec.m)
    if count > budget:
        raise BudgetExceeded(f"echelon ({spec.n},{spec.m}) enumeration", count, budget)


def enumerate_echelon(spec: EchelonSpec, budget: int = DEFAULT_WORD_BUDGET) -> DecisionProblem:
    """The full echelon: all encoded words, the satisfiable ones, and its regions as a clause product.

    The base is prefix·{0,1,2}^(nm) in product form, and word k is the one
    whose m clause blocks are the base-3^n digits of k.  A word's satisfying
    assignments are the AND of its clause blocks' masks (`_clause_masks`), and
    the target is the words where that is nonzero.  Masks are kept only for
    the first m - 1 blocks, one per prefix of those blocks.  The last block
    decides just whether a word is satisfiable: under a prefix's mask the
    unsatisfiable last blocks are a product of codes (`_unsatisfied_blocks`),
    so those words' flags are cleared and no last-block mask is built.  The
    flags, read as one integer in C, are the target's mask over the base; no
    word string is built.  The problem's `ClauseProduct` lists, per clause,
    its n body positions with each literal code's mask, from which `Analysis`
    answers region questions without a per-word label.
    """
    check_word_budget(spec, budget)
    literal = _literal_masks(spec.n)
    width = len(SAT_ALPHABET.symbols) ** spec.n  # clause blocks, in product order
    blocks = _clause_masks(literal) if spec.m > 1 else []
    masks = [(1 << 2 ** spec.n) - 1]
    for _ in range(spec.m - 1):
        masks = [mask & block for mask in masks for block in blocks]
    satisfiable = bytearray(b"\x01") * (len(masks) * width)
    unsatisfied: dict[int, list[int]] = {}  # per distinct prefix mask
    for offset, mask in zip(range(0, len(satisfiable), width), masks):
        indices = unsatisfied.get(mask)
        if indices is None:
            indices = unsatisfied[mask] = _unsatisfied_blocks(literal, mask)
        for index in indices:
            satisfiable[offset + index] = 0
    base = ProductLanguage(SAT_ALPHABET, spec.prefix, spec.n * spec.m)
    clauses = tuple(
        tuple((spec.position(c, i + 1), code, mask)
              for i in range(spec.n) for code, mask in literal[i].items() if mask)
        for c in range(1, spec.m + 1)
    )
    return DecisionProblem(base=base, target=base.masked(flags_mask(satisfiable)),
                           clauses=ClauseProduct(2 ** spec.n, clauses))


def effective_size(inst: CnfInstance) -> int:
    """Minimum number of variable assignments forcing every clause true; n when unsatisfiable.

    A clause is forced once some assigned variable makes one of its
    literals true.  Searched breadth-first by assignment cardinality, so
    the first hit is minimal.
    """
    for k in range(inst.n + 1):
        for vars_combo in itertools.combinations(range(1, inst.n + 1), k):
            for values in itertools.product((0, 1), repeat=k):
                partial = dict(zip(vars_combo, values))
                def forced(clause) -> bool:
                    return any(
                        (lit > 0 and partial.get(lit) == 1) or (lit < 0 and partial.get(-lit) == 0)
                        for lit in clause
                    )
                if all(forced(c) for c in inst.clauses):
                    return k
    return inst.n


def occurrence_size(inst: CnfInstance) -> int:
    """Number of distinct variables with occurrences."""
    return len(inst.occurring_variables())


def is_bewitched(inst: CnfInstance) -> bool:
    """True iff the occurrence count and the effective size differ."""
    return occurrence_size(inst) != effective_size(inst)


def parse_formula(text: str, n: int) -> CnfInstance:
    """Parse the CLI grammar: clauses split by ';', literals by ','; '-' negates; empty segment = empty clause."""
    if text.strip() == "":
        raise ValueError("empty formula text (use ';' separated clauses, e.g. '1,-2;2')")
    clauses = []
    for part in text.split(";"):
        lits = []
        for tok in part.split(","):
            tok = tok.strip()
            if not tok:
                continue
            try:
                lits.append(int(tok))
            except ValueError:
                raise ValueError(f"bad literal {tok!r} in formula {text!r}") from None
        clauses.append(frozenset(lits))
    return CnfInstance.of(n, clauses)


def string_entries(spec: EchelonSpec, prescriptions) -> PartialString:
    """Build a partial word from ((clause, var, code), ...) prescriptions over one echelon."""
    return PartialString.of(
        SAT_ALPHABET, {spec.position(c, v): code for c, v, code in prescriptions}
    )


def consistent_selection_count(n: int, m: int) -> int:
    """Count one-literal-per-clause selections with no variable taken in both signs.

    Independent combinatorial oracle for the reduced logogram size,
    computed by inclusion-exclusion over the complementary literal pairs:
    the outer sum ranges over variable subsets forced to appear in both
    signs, the inner sum counts selections covering those 2s literals.
    """
    total = 0
    for s in range(n + 1):
        inner = sum(
            (-1) ** k * math.comb(2 * s, k) * (2 * n - k) ** m
            for k in range(2 * s + 1)
        )
        total += (-1) ** s * math.comb(n, s) * inner
    return total


def selection_strings(spec: EchelonSpec) -> frozenset[PartialString]:
    """Direct enumeration of the consistent one-literal-per-clause selections (test oracle)."""
    literals = [(v, code) for v in range(1, spec.n + 1) for code in ("1", "2")]
    out = []
    for choice in itertools.product(literals, repeat=spec.m):
        used: dict[int, str] = {}
        consistent = True
        for var, code in choice:
            if used.setdefault(var, code) != code:
                consistent = False
                break
        if consistent:
            out.append(string_entries(spec, ((j + 1, var, code) for j, (var, code) in enumerate(choice))))
    return frozenset(out)
