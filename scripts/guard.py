"""Guard digests: run fixed strtool commands and print one line per command.

Each line holds the exit code, the first 16 hex digits of the sha256 of the
command's stdout, and its argv.  Run it on two checkouts and diff the
outputs to show that a change leaves every report byte-identical:

    python3 scripts/guard.py > before.txt    # in the old checkout
    python3 scripts/guard.py > after.txt     # in the new one
    diff before.txt after.txt

strtool is imported from the `src` directory next to this script, which is
byte-compiled first, so that no command pays for compiling a module whose
cached bytecode is stale (as every command would under
PYTHONDONTWRITEBYTECODE).  The cache commands run twice each, cold then warm,
in one fresh temporary directory with a relative --cache-dir, so the first run
writes the cache file, the second reads it, and the echoed cache_dir is the
same on every machine.  The file commands read language files that the script
writes into that directory and name by relative paths, for the same reason.
Every command runs with STRTOOL_CACHE=cache, so the cache_dir that the
--no-cache commands echo is the same for every user.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

COMMANDS = (
    ("verify", "--suite", "all"),
    ("verify", "--suite", "all", "--samples", "60", "--seed", "11"),
    ("verify", "--suite", "all", "--n", "3", "--m", "2"),  # every echelon suite on one shared Analysis
    ("verify", "--suite", "sat", "--n", "3", "--m", "3", "--threads", "1"),
    ("verify", "--suite", "regions", "--n", "4", "--m", "2", "--ignore-bewitched", "--threads", "1"),
    ("verify", "--suite", "regions", "--n", "3", "--m", "2"),  # unfiltered rows: exits 1
    ("verify", "--suite", "wizards", "--n", "4", "--m", "2", "--threads", "1"),
    ("logogram", "--n", "3", "--m", "3", "--reduced", "--no-cache", "--threads", "1"),
    ("logogram", "--n", "3", "--m", "2", "--no-cache", "--threads", "1"),
    ("classify", "--n", "2", "--m", "2", "--string", "0010001120"),
    ("verify", "--suite", "sat", "--n", "2", "--m", "3", "--threads", "2"),
    ("logogram", "--n", "2", "--m", "4", "--no-cache", "--threads", "2"),
    ("verify", "--suite", "sat", "--n", "4", "--m", "2", "--threads", "1"),
    ("verify", "--suite", "sat", "--n", "2", "--m", "5", "--threads", "1"),
    ("logogram", "--n", "5", "--m", "2", "--reduced", "--no-cache"),
    ("verify", "--suite", "sat", "--n", "5", "--m", "2"),
    ("verify", "--suite", "logogram", "--samples", "400", "--seed", "7"),
    ("verify", "--suite", "closure", "--samples", "400", "--seed", "7"),
    ("verify", "--suite", "regions", "--n", "3", "--m", "3", "--ignore-bewitched"),  # 8 region walks on (3,3)
    ("verify", "--suite", "wizards", "--n", "3", "--m", "3"),  # clause-product containment on (3,3)
    ("classify", "--n", "3", "--m", "2", "--string", "________2_2"),  # an improper witness in regions 1 and 5
    ("verify", "--suite", "sat", "--n", "2", "--m", "6", "--threads", "1"),  # 3^12 words: the word-scale checks
    ("verify", "--suite", "sat", "--n", "3", "--m", "4", "--threads", "1"),  # 172,438 closed sets in the walk
    ("classify", "--n", "4", "--formula", "1,3,-4;2,-3"),  # parse_formula, CnfInstance and the size measures
)
# The text renderer reads the same report objects as the JSON one.
TEXT_COMMANDS = (
    ("verify", "--suite", "all"),
    ("logogram", "--n", "3", "--m", "2", "--no-cache"),
    ("classify", "--n", "3", "--m", "2", "--string", "________2_2"),  # a record's tuple field as a text list
    ("classify", "--n", "4", "--formula", "1,3,-4;2,-3"),
)
CACHE_COMMANDS = (
    ("logogram", "--n", "3", "--m", "2", "--cache-dir", "cache"),  # the full set is stored
    ("logogram", "--n", "2", "--m", "2", "--reduced", "--cache-dir", "cache"),
    ("logogram", "--n", "3", "--m", "3", "--reduced", "--cache-dir", "cache"),  # the hit perfbench times
)
TERNARY_CUBE = ["".join(w) for w in itertools.product("012", repeat=3)]
# Language files: a base holding every ternary word of length 3, given as words, and a mixed-length one.
LANGUAGE_FILES = {
    "cube.lang": ("012", TERNARY_CUBE),
    "cube-target.lang": ("012", [w for w in TERNARY_CUBE if w[0] == "1" or w[1:] == "20"]),
    "mixed.lang": ("01", ["0", "10", "110", "111", "0101", "0110", "1000", "10011"]),
    "mixed-target.lang": ("01", ["0", "110", "1000"]),
}
FILE_COMMANDS = (
    ("logogram", "--base-file", "cube.lang", "--target-file", "cube-target.lang", "--cache-dir", "cache"),
    ("logogram", "--base-file", "mixed.lang", "--target-file", "mixed-target.lang", "--cache-dir", "cache"),
)


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["STRTOOL_CACHE"] = "cache"
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC)], check=True, stdout=subprocess.DEVNULL)
    with tempfile.TemporaryDirectory() as scratch:
        for name, (symbols, words) in LANGUAGE_FILES.items():
            Path(scratch, name).write_text("\n".join([f"alphabet={symbols}", *words]) + "\n", encoding="utf-8")
        runs = [(c, "json", None) for c in COMMANDS] + [(c, "text", None) for c in TEXT_COMMANDS]
        runs += [(c, "json", scratch) for c in CACHE_COMMANDS for _cold_then_warm in range(2)]
        runs += [(c, "json", scratch) for c in FILE_COMMANDS]
        for command, fmt, cwd in runs:
            argv = [*command, "--format", fmt]
            proc = subprocess.run([sys.executable, "-m", "strtool", *argv], env=env, cwd=cwd,
                                  stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
            digest = hashlib.sha256(proc.stdout).hexdigest()[:16]
            print(proc.returncode, digest, " ".join(argv), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
