"""strtool: partial-word algebra, cylinder closures, logograms, and
certificate-structure verification for finite decision problems.
"""

__version__ = "0.2.0"

from .strings import (  # noqa: E402,F401
    Alphabet,
    AlphabetMismatch,
    BINARY,
    PartialString,
    TERNARY,
    consistent_witness,
    extends,
    join_all,
    join_sets,
    pairwise_compatible,
    reduce_strings,
    word_includes,
)
