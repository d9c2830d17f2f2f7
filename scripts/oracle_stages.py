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

A second table splits the problems' time by group: the problem's alphabet
and the length of its longest base word.  The traced spans are labelled by
the item order of the benchmark's own `closure_batch`: a problem item makes
4 top-level spans (naive judge, engine, `reduce_strings`, expansion check),
a law or LogExp item one.  A group's figure is the time of its problems'
spans, and its share is of all problems' time.

Each batch runs --repeats times; a stage's or group's figure for the batch is
its minimum over the repeats, and the tables print the mean of those minima
over the batches, in milliseconds per batch.  A disagreement between the
oracles is an error, as in the benchmark.

    python3 scripts/oracle_stages.py --seed 11 --batches 3 --repeats 5

The child, and this script for the batch's item order, import strtool from
the `src` directory next to this script; the benchmark files are only read.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROBLEM_SPANS = 4  # the top-level spans of one problem item in `check_item`


def batch_child():
    """The benchmark's child module, `perfbench/child.py`, imported from its file for `closure_batch`."""
    sys.path.insert(0, str(ROOT / "src"))
    spec = importlib.util.spec_from_file_location("oracle_child", ROOT / "perfbench" / "child.py")
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return child


def span_groups(items: list[tuple]) -> list[str | None]:
    """Per top-level span of a batch, in order: its problem's group, or None outside a problem."""
    labels: list[str | None] = []
    for kind, payload in items:
        if kind == "problem":
            longest = max(map(len, payload.base.words))
            labels.extend([f"{''.join(payload.alphabet.symbols)} longest {longest}"] * PROBLEM_SPANS)
        else:
            labels.append(None)
    return labels


def run_pass(seed: int, iteration: int, labels: list[str | None], out: Path) -> tuple[dict, dict]:
    """Seconds spent in each stage, and in each problem group, over one traced pass of the batch, in a fresh child."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    argv = [sys.executable, str(ROOT / "perfbench" / "child.py"), "oracle", "--seed", str(seed),
            "--iteration", str(iteration), "--trace", "1", "--out", str(out)]
    subprocess.run(argv, env=env, check=True)
    record = json.loads(out.read_text(encoding="utf-8"))
    if record["failures"]:
        raise SystemExit(f"closure-oracle seed {seed} batch {iteration} fails its oracle: {record['failures'][:1]}")
    top = [span for span in record["trace"]["spans"] if span["parent"] is None]
    if len(top) != len(labels):
        raise SystemExit(f"batch {iteration} has {len(top)} top-level spans, not the {len(labels)} of its items")
    spent: dict[str, float] = defaultdict(float)
    groups: dict[str, float] = defaultdict(float)
    for span, group in zip(top, labels):
        spent[span["name"]] += span["end"] - span["start"]
        if group is not None:
            groups[group] += span["end"] - span["start"]
    spent["rest"] = record["wall_s"] - sum(spent.values())
    return spent, groups


def print_table(title: str, rows: dict[str, float], shares: bool = False) -> None:
    print(title)
    total = sum(rows.values())
    for name, seconds in rows.items():
        share = f" {100 * seconds / total:6.1f}%" if shares else ""
        print(f"  {name:38} {1000 * seconds:8.1f}{share}")
    print(f"  {'total':38} {1000 * total:8.1f}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--batches", type=int, default=3, help="iterations 0..batches-1 of the seed")
    parser.add_argument("--repeats", type=int, default=5, help="passes per batch; each figure keeps its minimum")
    args = parser.parse_args(argv)
    closure_batch = batch_child().closure_batch
    mean_min: dict[str, float] = defaultdict(float)
    group_min: dict[str, float] = defaultdict(float)
    with tempfile.TemporaryDirectory(prefix="oracle-stages-") as tmp:
        for iteration in range(args.batches):
            labels = span_groups(closure_batch(args.seed, iteration, False))
            passes = [run_pass(args.seed, iteration, labels, Path(tmp) / "pass.json") for _ in range(args.repeats)]
            for stage in passes[0][0]:
                mean_min[stage] += min(spent[stage] for spent, _ in passes) / args.batches
            for group in sorted(passes[0][1]):
                group_min[group] += min(groups[group] for _, groups in passes) / args.batches
    print_table(f"closure-oracle seed {args.seed}, {args.batches} batches, min of {args.repeats}: ms per batch",
                mean_min)
    print_table("problems by alphabet and longest word: ms per batch, share of problem time", group_min, shares=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
