"""Start-up cost of the strtool CLI: the in-process time of `import strtool.cli`.

Byte-compiles the package first, as an install would, then starts N fresh
interpreters that each time `import strtool.cli` with `time.perf_counter`,
and prints the median and quartiles in milliseconds.  N more interpreters run
the same import under `-X importtime` and give each module's self and
cumulative import time: the non-strtool modules whose median cumulative
time reaches 1 ms are listed as the heavy ones, and every strtool module is
listed with its median self time, strtool's own share of the import.  Run
it on two checkouts to compare them:

    python3 scripts/startup.py --runs 30

strtool is imported from the `src` directory next to this script.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
HEAVY_MS = 1.0
MARK = "-- import strtool.cli --"
TIMED = "import time; t = time.perf_counter(); import strtool.cli; print(time.perf_counter() - t)"
PROFILED = f"import sys; sys.stderr.write({MARK!r} + '\\n'); import strtool.cli"


def run(env: dict, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, check=True)


def import_ms(stderr: str) -> dict[str, tuple[float, float]]:
    """Module -> (self, cumulative) import ms, from `-X importtime` lines after the mark."""
    out = {}
    for line in stderr.split(MARK, 1)[1].splitlines():
        if line.startswith("import time:"):
            own, cumulative, name = line.removeprefix("import time:").split("|")
            out[name.strip()] = (int(own) / 1000, int(cumulative) / 1000)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=30, help="fresh interpreters per measurement (default 30)")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    run(env, "-m", "compileall", "-q", str(SRC))

    times = [float(run(env, "-c", TIMED).stdout) * 1000 for _ in range(args.runs)]
    q1, median, q3 = statistics.quantiles(times, n=4)
    print(f"import strtool.cli: median {median:.1f} ms (quartiles {q1:.1f}-{q3:.1f}) over {args.runs} interpreters")

    samples: dict[str, list[tuple[float, float]]] = {}
    for _ in range(args.runs):
        for name, ms in import_ms(run(env, "-X", "importtime", "-c", PROFILED).stderr).items():
            samples.setdefault(name, []).append(ms)
    medians = {name: tuple(map(statistics.median, zip(*v))) for name, v in samples.items() if len(v) == args.runs}
    heavy = sorted(((cumulative, name) for name, (_, cumulative) in medians.items()
                    if name.split(".")[0] != "strtool" and cumulative >= HEAVY_MS), reverse=True)
    print(f"heavy modules (median cumulative ms under -X importtime, >= {HEAVY_MS}): "
          + (", ".join(f"{name} {ms:.1f}" for ms, name in heavy) or "none"))
    own = sorted(((own, name) for name, (own, _) in medians.items() if name.split(".")[0] == "strtool"), reverse=True)
    listed = ", ".join(f"{name} {ms:.2f}" for ms, name in own)
    print(f"strtool modules (median self ms under -X importtime): {listed} (sum {sum(ms for ms, _ in own):.2f})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
