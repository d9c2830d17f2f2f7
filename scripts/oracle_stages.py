"""In-process time of each closure-oracle stage: a steady layer table for one batch.

Runs the benchmark's own closure-oracle child, `perfbench/child.py oracle
--trace 1`, once per pass in a fresh interpreter, as the benchmark does.
Its `check_item` calls are timed as they are: every traced call that
`check_item` makes directly (no traced caller) is a stage, named by its
span (`logogram.log_rel_naive`, `logogram.log_rel`, `strings.reduce_strings`,
`logogram.verify_logogram_expansion`, `logogram.logexp_closure_check`,
`languages.check_expansion_laws`), and `rest` is the batch's wall time
outside them: comparing the engine's sets with the naive ones, and the
tracer's own overhead.  A stage includes the wrappers of the traced calls
nested in it, so the figures are a little above the untraced benchmark's.

Each batch runs --repeats times; a stage's figure for the batch is its
minimum over the repeats, and the table prints the mean of those minima over
the batches, in milliseconds per batch.  A disagreement between the oracles
is an error, as in the benchmark.

    python3 scripts/oracle_stages.py --seed 11 --batches 3 --repeats 5

The child imports strtool from the `src` directory next to this script; the
benchmark files are only read.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_pass(seed: int, iteration: int, out: Path) -> dict[str, float]:
    """Seconds spent in each stage over one traced pass of the batch, in a fresh child."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    argv = [sys.executable, str(ROOT / "perfbench" / "child.py"), "oracle", "--seed", str(seed),
            "--iteration", str(iteration), "--trace", "1", "--out", str(out)]
    subprocess.run(argv, env=env, check=True)
    record = json.loads(out.read_text(encoding="utf-8"))
    if record["failures"]:
        raise SystemExit(f"closure-oracle seed {seed} batch {iteration} fails its oracle: {record['failures'][:1]}")
    spent: dict[str, float] = defaultdict(float)
    for span in record["trace"]["spans"]:
        if span["parent"] is None:
            spent[span["name"]] += span["end"] - span["start"]
    spent["rest"] = record["wall_s"] - sum(spent.values())
    return spent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--batches", type=int, default=3, help="iterations 0..batches-1 of the seed")
    parser.add_argument("--repeats", type=int, default=5, help="passes per batch; each stage keeps its minimum")
    args = parser.parse_args(argv)
    mean_min: dict[str, float] = defaultdict(float)
    with tempfile.TemporaryDirectory(prefix="oracle-stages-") as tmp:
        for iteration in range(args.batches):
            passes = [run_pass(args.seed, iteration, Path(tmp) / "pass.json") for _ in range(args.repeats)]
            for stage in passes[0]:
                mean_min[stage] += min(p[stage] for p in passes) / args.batches
    print(f"closure-oracle seed {args.seed}, {args.batches} batches, min of {args.repeats}: ms per batch")
    for stage, seconds in mean_min.items():
        print(f"  {stage:38} {1000 * seconds:8.1f}")
    print(f"  {'total':38} {1000 * sum(mean_min.values()):8.1f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
