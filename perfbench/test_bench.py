"""The benchmark's own test: smoke runs of every workload, untraced and traced.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# The public calls suite_sat makes, in order, under cli.main.
SAT_SUITE_CALLS = [
    "sat.enumerate_echelon", "logogram.ProblemIndex", "logogram.log_rel",
    "sat.consistent_selection_count", "independence.sat_shape_report", "independence.classify_all",
    "independence.internal_independence", "independence.strong_independence",
    "independence.complete_independence", "independence.irreducible",
    "logogram.verify_logogram_expansion",
]


def run_bench(workload: str, trace: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    info_line, result_line = done.stdout.strip().splitlines()[-2:]
    return json.loads(info_line), json.loads(result_line)


def assert_metrics(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    info, result = run_bench(workload, 0)
    assert_metrics(result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    provenance = info["provenance"]
    for key in ("commit", "source_sha256", "tool_version", "python", "nproc",
                "loadavg_start", "loadavg_end", "seed", "iterations"):
        assert key in provenance
    assert info["ops_failed_frac"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_has_one_span_per_layer_call(workload):
    info, result = run_bench(workload, 1)
    assert_metrics(result, SPEC["per_layer"])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    trace = json.loads((ROOT / info["trace_file"]).read_text())
    by_run: dict[str, list[dict]] = {}
    for span in trace["spans"]:
        assert span["start"] <= span["end"]
        by_run.setdefault(span["run"], []).append(span)
    for spans in by_run.values():
        for span in spans:
            if span["parent"] is not None:
                parent = spans[span["parent"]]
                assert parent["start"] <= span["start"] <= span["end"] <= parent["end"]

    log_rel_spans = [s for s in trace["spans"] if s["name"] == "logogram.log_rel"]
    assert metrics["logogram.log_rel.calls"] == len(log_rel_spans)
    self_total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert self_total == pytest.approx(metrics["trace.wall_s"], abs=1e-6)
    assert metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"] == pytest.approx(
        metrics["trace_overhead_s"], abs=1e-9)

    if workload == "battery-3x3":
        (run_spans,) = by_run.values()
        root = run_spans.index(next(s for s in run_spans if s["name"] == "cli.main"))
        assert [s["name"] for s in run_spans if s["parent"] == root] == SAT_SUITE_CALLS
        assert metrics["partial_checks"] == 0
    if workload == "regions-4x2":
        # region_relations walks once per region: 2^n regions on the (2,2) smoke echelon
        region_spans = [i for runs in by_run.values() for i, s in enumerate(runs)
                        if s["name"] == "independence.region_relations"]
        assert len(region_spans) == 1
        (region_run,) = [r for r in by_run.values() if any(s["name"] == "independence.region_relations" for s in r)]
        walks = [s for s in region_run if s["name"] == "logogram.log_rel"
                 and region_run[s["parent"]]["name"] == "independence.region_relations"]
        assert len(walks) == 4
        assert metrics["independence.complete_independence.s"] == 0
    if workload == "logogram-cache":
        assert metrics["cache_hit_ratio"] == 1.0
        names = [s["name"] for s in trace["spans"]]
        assert names.count("logogram.save_logogram_cache") == 3  # cold pass only
        assert names.count("logogram.load_logogram_cache") == 9  # every command looks first
    if workload == "closure-oracle":
        assert metrics["logogram.log_rel_naive.s"] > 0 and metrics["strings.reduce_strings.s"] > 0
