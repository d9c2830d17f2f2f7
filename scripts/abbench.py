"""Paired benchmark runs of two checkouts: the parent of a change and the change.

Runs the benchmark command of BENCHMARK.json (`python3 perfbench/run.py`)
inside each checkout, N pairs per workload, with that file's `run_seconds`
and `--trace 0`.  Pair i runs on seed `--seed + i`, and the side that runs
first alternates from pair to pair, so slow drift of a shared host falls on
both sides alike.  A line is printed per run as it finishes; then, for each
workload and end-to-end metric, each side's median and quartiles, the
number of pairs the change won (ties count for neither side), and whether
the change wins at least nine tenths of the pairs with a median gain larger
than the parent's interquartile range.  Each metric's line also gives how
much worse the change's median is than the parent's, as a fraction of the
parent's median, next to the metric's `bound` in BENCHMARK.json, which is
read as a fraction of the parent's median too; the metric is "unresolved"
when the parent's interquartile range is wider than that bound, and
otherwise "within bound" or "past bound".

    git worktree add ../parent HEAD~1
    python3 scripts/abbench.py ../parent . --workload closure-oracle --pairs 10 --seed 300

The benchmark writes its scratch files into each checkout's own
`.bench_work/` and `.bench_out/`; this script writes no file, and its
printed lines are the record of every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
SIDES = ("parent", "change")


def run_once(checkout: Path, command: list[str], workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run; its last stdout line is the JSON result."""
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv)} in {checkout} exited {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(workload: str, runs: list[dict], metrics: list[dict]) -> list[str]:
    """One line per end-to-end metric: both sides' quartiles, the change's wins, the claim rule and the bound."""
    lines = []
    failed = {side: sum(r[side]["failed"] for r in runs) for side in SIDES}
    attempted = {side: sum(r[side]["attempted"] for r in runs) for side in SIDES}
    lines.append(f"{workload}: {len(runs)} pairs; failed/attempted parent {failed['parent']}/{attempted['parent']},"
                 f" change {failed['change']}/{attempted['change']}")
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        values = {side: [r[side]["metrics"][name]["value"] for r in runs] for side in SIDES}
        wins = sum((c > p) if higher else (c < p) for p, c in zip(values["parent"], values["change"]))
        (p1, pm, p3), (c1, cm, c3) = quartiles(values["parent"]), quartiles(values["change"])
        gain = (cm - pm) if higher else (pm - cm)
        claim = wins >= 0.9 * len(runs) and gain > p3 - p1
        worse, bound = -gain / pm, metric["bound"]
        if p3 - p1 > bound * pm:
            status = "unresolved"
        else:
            status = "past bound" if worse > bound else "within bound"
        lines.append(
            f"  {name:12} parent {pm:.4g} [{p1:.4g}, {p3:.4g}]  change {cm:.4g} [{c1:.4g}, {c3:.4g}]"
            f"  change wins {wins}/{len(runs)}  median gain {gain:+.4g} vs parent IQR {p3 - p1:.4g}"
            f"  {'gain holds' if claim else 'no claim'}  worse by {worse:+.1%} vs bound {bound:.0%}: {status}"
        )
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", action="append", help="a workload of BENCHMARK.json (repeatable; default all)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair; pair i uses seed + i")
    args = parser.parse_args(argv)
    spec = json.loads(SPEC.read_text())
    known = [w["name"] for w in spec["workloads"]]
    workloads = args.workload or known
    unknown = sorted(set(workloads) - set(known))
    if unknown:
        parser.error(f"unknown workloads {unknown}; BENCHMARK.json has {known}")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, path in checkouts.items():
        if not (path / "perfbench" / "run.py").is_file():
            parser.error(f"{side} checkout {path} has no perfbench/run.py")

    record: dict[str, list[dict]] = {}
    for workload in workloads:
        runs = record[workload] = []
        for i in range(args.pairs):
            seed = args.seed + i
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(checkouts[side], spec["command"], workload, seed, spec["run_seconds"])
                values = {m: round(v["value"], 4) for m, v in pair[side]["metrics"].items()}
                print(f"{workload} seed {seed} {side}: {json.dumps(values)} failed {pair[side]['failed']}",
                      flush=True)
            runs.append(pair)
    print()
    for workload, runs in record.items():
        print("\n".join(summarize(workload, runs, spec["end_to_end"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
