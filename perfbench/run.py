"""strtool benchmark: desk-scale workloads driven through the CLI and the library.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload battery-3x3 --seed 1 --seconds 20 --trace 0

Every strtool call runs in a fresh child process, one at a time, with
`--threads 1`.  The last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics of a traced run with `--trace 1`.  The line
before it carries provenance and the workload's own figures.  Scratch files go
to `.bench_work/`, traces and the stdout digests to `.bench_out/`.  See
perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORK_DIR = ROOT / ".bench_work"

WORKLOADS = ("battery-3x3", "regions-4x2", "logogram-cache", "closure-oracle")
RUN_BUDGET_S = 165.0  # every run must exit within 180 s
SETUP_REPS = 7
PROBE_LOOPS = 5_000
PROBE_SHIFTS = 200
PROBE_PERIOD_S = 0.04
PROBE_WINDOW_S = 0.5
PROBE_REF_S = 1.0e-3  # the reference CPU runs one probe in 1 ms

END_TO_END = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s", "items_per_s": "1/s"}

LAYER_FUNCTIONS = (
    "sat.enumerate_echelon", "sat.consistent_selection_count",
    "logogram.ProblemIndex", "logogram.log_rel", "logogram.log_rel_naive",
    "logogram.problem_fingerprint", "logogram.load_logogram_cache", "logogram.save_logogram_cache",
    "logogram.verify_logogram_expansion", "logogram.logexp_closure_check",
    "independence.classify_all", "independence.internal_independence",
    "independence.strong_independence", "independence.complete_independence",
    "independence.irreducible", "independence.sat_shape_report",
    "independence.region_relations", "independence.wizard_cover_report",
    "languages.check_expansion_laws", "languages.expand_in",
    "strings.reduce_strings",
)
LAYERS = ("cli", "sat", "logogram", "independence", "languages", "strings", "bench", "process")
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace_overhead_s": "s",
    "cli.main.verify.s": "s",
    "cli.main.logogram.s": "s",
    **{f"{fn}.s": "s" for fn in LAYER_FUNCTIONS},
    "sat.enumerate_echelon.words": "count",
    "logogram.ProblemIndex.rss_mb": "MB",
    "logogram.log_rel.calls": "count",
    "logogram.log_rel.full_count": "count",
    "logogram.log_rel.reduced_count": "count",
    "logogram.log_rel.kept_ratio": "ratio",
    "logogram.log_rel.rss_mb": "MB",
    "independence.complete_independence.subsets_checked": "count",
    "partial_checks": "count",
    "cold_s": "s",
    "warm_hit_s": "s",
    "cache_hit_ratio": "ratio",
}


# --- workloads ---

def cli_passes(workload: str, smoke: bool) -> list[list[tuple[str, list[str]]]]:
    """One iteration of a CLI workload: passes of (phase, argv) commands, run in order."""
    def echelon(size):
        return ["--n", str(size[0]), "--m", str(size[1])]

    tail = ["--threads", "1", "--format", "json"]
    if workload == "battery-3x3":
        size = (2, 2) if smoke else (3, 3)
        return [[("run", ["verify", "--suite", "sat", *echelon(size), *tail])]]
    if workload == "regions-4x2":
        size = (2, 2) if smoke else (4, 2)
        return [[
            ("run", ["verify", "--suite", "regions", *echelon(size), "--ignore-bewitched", *tail]),
            ("run", ["verify", "--suite", "wizards", *echelon(size), *tail]),
        ]]
    assert workload == "logogram-cache"
    reduced = ((2, 2), (2, 1)) if smoke else ((3, 3), (4, 2))
    full = (1, 2) if smoke else (3, 2)
    commands = [["logogram", *echelon(s), "--reduced", "--cache-dir", "cache", *tail] for s in reduced]
    commands.append(["logogram", *echelon(full), "--cache-dir", "cache", *tail])
    return [[(phase, argv) for argv in commands] for phase in ("cold", "warm", "warm")]


def echelon_of(argv: list[str]) -> tuple[int, int]:
    return int(argv[argv.index("--n") + 1]), int(argv[argv.index("--m") + 1])


class Oracles:
    """Answers computed here, outside the timed region, to judge the program's outputs."""

    def __init__(self, workload: str, smoke: bool):
        from strtool.logogram import log_rel_naive
        from strtool.sat import EchelonSpec, consistent_selection_count, enumerate_echelon, selection_strings

        self.count: dict[tuple[int, int], int] = {}
        self.reduced: dict[tuple[int, int], list[str]] = {}
        self.naive: dict[tuple[int, int], tuple[set[str], set[str]]] = {}
        if workload == "closure-oracle":
            return
        for cmd_pass in cli_passes(workload, smoke):
            for _, argv in cmd_pass:
                size = echelon_of(argv)
                if size in self.count:
                    continue
                spec = EchelonSpec(*size)
                self.count[size] = consistent_selection_count(*size)
                self.reduced[size] = sorted(g.render() for g in selection_strings(spec))
                if argv[0] == "logogram" and "--reduced" not in argv:
                    full, red = log_rel_naive(enumerate_echelon(spec), candidate_positions=spec.body_positions)
                    self.naive[size] = ({g.render() for g in full}, {g.render() for g in red})


# --- child processes ---

def child_env(home: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "STRTOOL_CACHE")}
    env.update(PYTHONPATH=str(SRC), HOME=str(home), PYTHONHASHSEED="0")
    return env


class Deadline(Exception):
    pass


def spawn(argv: list[str], cwd: Path, stdout_path: Path, deadline: float) -> dict:
    """Run one child to completion; return its wall time, exit code and peak RSS."""
    remaining = deadline - time.perf_counter()
    if remaining <= 0:
        raise Deadline()
    killed = []
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(cwd), stdout=out, stderr=err)

        def on_alarm(signum, frame):
            killed.append(True)
            proc.kill()

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, remaining)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"t0": start, "t1": end, "wall_s": end - start, "exit": proc.returncode,
            "rss_kb": usage.ru_maxrss, "timed_out": bool(killed)}


class SpeedProbe:
    """Samples the speed of the CPU that the benchmark and its children are pinned to.

    On a shared host the work a process gets done per second of wall time
    drifts by tens of percent over seconds to minutes, and the drift slows
    every process on the CPU alike.  A thread runs a fixed probe every
    PROBE_PERIOD_S: an interpreter loop and a run of 40,000-bit mask
    operations, the two kinds of work strtool spends its time on.  Within
    each PROBE_WINDOW_S window of an interval, PROBE_REF_S / (median probe
    time) is the CPU's speed; the interval's length in reference-CPU seconds
    is its wall time times the mean speed over its windows.  That length
    stays comparable across runs while raw wall time does not.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (midpoint, probe time)
        self.child_running = threading.Event()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        mask = (1 << 40_000) - 1
        while not self._stop.wait(PROBE_PERIOD_S):
            if not self.child_running.is_set():
                continue
            start = time.perf_counter()
            x = 0
            for i in range(PROBE_LOOPS):
                x += i * i
            for i in range(PROBE_SHIFTS):
                x ^= (mask >> (i & 63)) & mask
            end = time.perf_counter()
            # Only while the main thread is blocked on a child, so it
            # cannot hold the interpreter lock and slow the probe.
            if self.child_running.is_set():
                self.samples.append(((start + end) / 2, end - start))

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def factor(self, t0: float, t1: float) -> float:
        """Reference seconds per wall second over [t0, t1]."""
        windows: dict[int, list[float]] = {}
        for mid, d in self.samples:
            if t0 <= mid <= t1:
                windows.setdefault(int((mid - t0) // PROBE_WINDOW_S), []).append(d)
        speeds = [PROBE_REF_S / statistics.median(w) for w in windows.values() if len(w) >= 3]
        if speeds:
            return statistics.fmean(speeds)
        # shorter than a window: the nearest samples stand for it
        centre = (t0 + t1) / 2
        nearest = sorted(self.samples, key=lambda sample: abs(sample[0] - centre))[:5]
        return PROBE_REF_S / statistics.median(d for _, d in nearest) if nearest else 1.0

    def ref_s(self, t0: float, t1: float) -> float:
        return (t1 - t0) * self.factor(t0, t1)


class Runner:
    def __init__(self, args, probe: SpeedProbe):
        self.args = args
        self.probe = probe
        self.workload = args.workload
        self.work = WORK_DIR / self.workload
        self.deadline = time.perf_counter() + RUN_BUDGET_S
        self.oracles = Oracles(self.workload, args.smoke)
        self.attempted = 0
        self.failures: list[str] = []
        self.reduced_lists: dict[str, list[str]] = {}
        self.children = 0
        self.digests_path = OUT_DIR / "stdout-digests.json"
        self.source = source_digest()
        try:
            self.digests = json.loads(self.digests_path.read_text())
        except (OSError, ValueError):
            self.digests = {}
        self.known = self.digests.setdefault(self.source, {})
        self.fresh_work_dir()

    def fresh_work_dir(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        (self.work / "cache").mkdir(parents=True)

    def spawn(self, argv: list[str]) -> dict:
        self.children += 1
        stdout_path = self.work / f"child-{self.children}.out"
        self.probe.child_running.set()
        try:
            rec = spawn(argv, self.work, stdout_path, self.deadline)
        finally:
            self.probe.child_running.clear()
        rec["stdout"] = stdout_path.read_bytes()
        return rec

    def fail(self, what: str) -> None:
        self.failures.append(what)

    # correctness of one CLI command

    def check_cli(self, rec: dict) -> None:
        """Judge one CLI command; count it as attempted and, when wrong, as failed."""
        self.attempted += 1
        rec["partial"], rec["hit"] = 0, None
        phase, argv = rec["phase"], rec["argv"]
        problem = self._cli_problem(phase, argv, rec)
        if problem is None:
            problem = self._check_digest(f"{phase} {' '.join(argv)}", rec["stdout"])
        if problem is not None:
            self.fail(f"{' '.join(argv[:6])} [{phase}]: {problem}")

    def _cli_problem(self, phase, argv, rec) -> str | None:
        if rec["timed_out"]:
            return "killed at the run deadline"
        if rec["exit"] not in (0, 1):
            return f"exit code {rec['exit']}"
        try:
            report = json.loads(rec["stdout"])
        except ValueError:
            return "stdout is not a JSON report"
        size = echelon_of(argv)
        if argv[0] == "verify":
            checks = report["checks"]
            failing = [c["name"] for c in checks if not c["holds"]]
            if failing:
                return f"checks fail: {failing}"
            rec["partial"] = sum(1 for c in checks if c["partial"])
            if rec["exit"] != (1 if rec["partial"] else 0):
                return f"exit code {rec['exit']} disagrees with the report"
            for c in checks:
                if c["name"] == "sat-count-oracle" and c["counts"]["reduced"] != self.oracles.count[size]:
                    return "reduced count differs from consistent_selection_count"
            return None
        result = report["result"]
        if rec["exit"] != 0:
            return f"exit code {rec['exit']}"
        if result["reduced_count"] != self.oracles.count[size]:
            return "reduced count differs from consistent_selection_count"
        rec["hit"] = result["cached"]
        if result["cached"] != (phase == "warm"):
            return f"cached is {result['cached']} on a {phase} pass"
        if "reduced" in result:
            if sorted(result["reduced"]) != self.oracles.reduced[size]:
                return "reduced list differs from the selection-string oracle"
            if self.reduced_lists.setdefault(" ".join(argv), result["reduced"]) != result["reduced"]:
                return "reduced list differs from the cold pass"
        if size in self.oracles.naive:
            return self._check_cache_file(result["fingerprint"], *self.oracles.naive[size])
        return None

    def _check_cache_file(self, fingerprint: str, naive_full: set, naive_reduced: set) -> str | None:
        from strtool.sat import SAT_ALPHABET
        from strtool.strings import PartialString, reduce_strings

        path = self.work / "cache" / f"logogram-{fingerprint}.txt"
        try:
            lines = path.read_text(encoding="utf-8").splitlines()[1:]
        except OSError:
            return "no cache file in the benchmark's cache directory"
        reduced = {line[2:] for line in lines if line.startswith("R ")}
        full = reduced | {line[2:] for line in lines if line.startswith(". ")}
        if full != naive_full or reduced != naive_reduced:
            return "stored logogram differs from log_rel_naive"
        re_reduced = reduce_strings(PartialString.parse(SAT_ALPHABET, s) for s in full)
        if {g.render() for g in re_reduced} != reduced:
            return "reduce_strings(full) differs from the stored reduced set"
        return None

    def _check_digest(self, key: str, stdout: bytes) -> str | None:
        digest = hashlib.sha256(stdout).hexdigest()
        if self.known.setdefault(key, digest) != digest:
            return "stdout differs from an earlier run of the same source"
        return None

    def save_digests(self) -> None:
        OUT_DIR.mkdir(exist_ok=True)
        self.digests_path.write_text(json.dumps(self.digests, indent=1, sort_keys=True))

    # iterations: the timed region only spawns children; checks run after it

    def python(self, *child_args: str) -> list[str]:
        return [sys.executable, str(BENCH_DIR / "child.py"), *child_args]

    def setup_once(self) -> dict:
        argv = self.python("setup", "--workload", self.workload, "--seed", str(self.args.seed))
        if self.args.smoke:
            argv.append("--smoke")
        rec = self.spawn(argv)
        if rec["exit"] != 0:
            self.attempted += 1
            self.fail(f"set-up child exited with {rec['exit']}")
        return rec

    def iteration(self, traced: bool, index: int) -> dict:
        self.fresh_work_dir()
        run_id = f"{self.workload}:{self.args.seed}:{index}"
        records = []
        t0 = time.perf_counter()
        if self.workload == "closure-oracle":
            argv = self.python("oracle", "--seed", str(self.args.seed), "--iteration", str(index),
                               "--trace", str(int(traced)), "--run-id", run_id,
                               "--out", str(self.work / "oracle.json"))
            records.append(self.spawn(argv + ["--smoke"] if self.args.smoke else argv))
            records[-1]["out"] = self.work / "oracle.json"
        else:
            for cmd_pass, commands in enumerate(cli_passes(self.workload, self.args.smoke)):
                for phase, argv in commands:
                    if traced:
                        out = self.work / f"trace-{self.children + 1}.json"
                        rec = self.spawn(self.python("cli", "--trace", "1", "--run-id",
                                                     f"{run_id}:{self.children + 1}", "--out", str(out),
                                                     "--", *argv))
                        rec["out"] = out
                    else:
                        rec = self.spawn([sys.executable, "-m", "strtool", *argv])
                    rec.update(argv=argv, phase=phase, cmd_pass=cmd_pass)
                    records.append(rec)
        t1 = time.perf_counter()
        it = {"t0": t0, "t1": t1, "records": records}
        if self.workload == "closure-oracle":
            self._judge_oracle(records[0], index)
        else:
            for rec in records:
                if "out" in rec:
                    self._load_traced_cli(rec)
                self.check_cli(rec)
        return it

    def _load_traced_cli(self, rec: dict) -> None:
        if rec["exit"] != 0 or rec["timed_out"]:
            rec["exit"] = f"benchmark child failed with {rec['exit']}"
            return
        rec["inner"] = json.loads(rec["out"].read_text())
        rec.update(exit=rec["inner"]["exit"], stdout=rec["inner"]["stdout"].encode())

    def _judge_oracle(self, rec: dict, index: int) -> None:
        if rec["exit"] != 0 or rec["timed_out"]:
            self.attempted += 1
            self.fail(f"closure-oracle batch {index}: child exit {rec['exit']}")
            return
        rec["inner"] = json.loads(rec["out"].read_text())
        self.attempted += rec["inner"]["attempted"]
        for reason in rec["inner"]["failures"]:
            self.fail(f"closure-oracle batch {index}: {reason}")


# --- metrics ---

def operation_totals(iterations: list[dict], probe: SpeedProbe) -> tuple[int, float]:
    """Operations done and their time in reference seconds."""
    ops, seconds = 0, 0.0
    for it in iterations:
        for rec in it["records"]:
            factor = probe.factor(rec["t0"], rec["t1"])
            if "phase" in rec:
                ops, seconds = ops + 1, seconds + rec["wall_s"] * factor
            elif "inner" in rec:
                ops, seconds = ops + rec["inner"]["attempted"], seconds + rec["inner"]["wall_s"] * factor
    return ops, seconds


def workload_figures(iterations: list[dict], probe: SpeedProbe) -> dict:
    """Partial checks and the cache passes, in reference seconds."""
    passes: dict[tuple[int, int], float] = {}
    phases: dict[tuple[int, int], str] = {}
    warm_ops = hits = partial = 0
    for i, it in enumerate(iterations):
        partial = max(partial, sum(rec.get("partial", 0) for rec in it["records"]))
        for rec in it["records"]:
            if "phase" not in rec:
                continue
            key = (i, rec["cmd_pass"])
            passes[key] = passes.get(key, 0.0) + probe.ref_s(rec["t0"], rec["t1"])
            phases[key] = rec["phase"]
            if rec["phase"] == "warm":
                warm_ops += 1
                hits += rec["hit"] is True
    cold = [s for key, s in passes.items() if phases[key] == "cold"]
    warm = [s for key, s in passes.items() if phases[key] == "warm"]
    return {
        "partial_checks": partial,
        "cold_s": statistics.median(cold) if cold else 0.0,
        "warm_hit_s": statistics.median(warm) if warm else 0.0,
        "cache_hit_ratio": hits / warm_ops if warm_ops else 0.0,
    }


def end_to_end_metrics(iterations: list[dict], setups: list[dict], probe: SpeedProbe) -> dict:
    ops, op_seconds = operation_totals(iterations, probe)
    return {
        "wall_s": statistics.median(probe.ref_s(it["t0"], it["t1"]) for it in iterations),
        "peak_rss_mb": max(rec["rss_kb"] for it in iterations for rec in it["records"]) / 1024,
        "setup_s": statistics.median(probe.ref_s(rec["t0"], rec["t1"]) for rec in setups),
        "items_per_s": ops / op_seconds,
    }


def layer_metrics(traced: dict, untraced: dict, probe: SpeedProbe) -> tuple[dict, list[dict]]:
    """Per-layer figures of one traced iteration, in reference seconds, and all its spans."""
    values = {name: 0.0 for name in PER_LAYER}
    spans: list[dict] = []
    rss = {"logogram.ProblemIndex": 0, "logogram.log_rel": 0}
    for rec in traced["records"]:
        inner = rec.get("inner")
        if inner is None or "trace" not in inner:
            continue
        factor = probe.factor(rec["t0"], rec["t1"])
        run_spans = inner["trace"]["spans"]
        spans.extend(run_spans)
        child_time = [0.0] * len(run_spans)
        for s in run_spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        top_level = 0.0
        for i, s in enumerate(run_spans):
            duration = s["end"] - s["start"]
            name = s["name"]
            values[name.split(".")[0] + ".self_s"] += (duration - child_time[i]) * factor
            if s["parent"] is None:
                top_level += duration
            if not _has_ancestor(run_spans, i, name) and f"{name}.s" in values:
                values[f"{name}.s"] += duration * factor
            if name == "cli.main":
                values[f"cli.main.{rec['argv'][0]}.s"] += duration * factor
            if name == "logogram.log_rel":
                values["logogram.log_rel.calls"] += 1
            if name in rss:
                rss[name] = max(rss[name], s["rss_growth_kb"])
        for key, count in inner["trace"]["counts"].items():
            values[key] += count
        values["bench.self_s"] += (inner["wall_s"] - top_level) * factor
        values["process.self_s"] += (rec["wall_s"] - inner["wall_s"]) * factor
    full = values["logogram.log_rel.full_count"]
    values["logogram.log_rel.kept_ratio"] = values["logogram.log_rel.reduced_count"] / full if full else 0.0
    values["logogram.ProblemIndex.rss_mb"] = rss["logogram.ProblemIndex"] / 1024
    values["logogram.log_rel.rss_mb"] = rss["logogram.log_rel"] / 1024
    traced_wall = sum(probe.ref_s(r["t0"], r["t1"]) for r in traced["records"])
    untraced_wall = sum(probe.ref_s(r["t0"], r["t1"]) for r in untraced["records"])
    values.update({
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace_overhead_s": traced_wall - untraced_wall,
    })
    values.update(workload_figures([untraced], probe))
    return values, spans


def _has_ancestor(spans: list[dict], i: int, name: str) -> bool:
    parent = spans[i]["parent"]
    while parent is not None:
        if spans[parent]["name"] == name:
            return True
        parent = spans[parent]["parent"]
    return False


# --- provenance ---

def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


# --- main ---

def build() -> None:
    """Byte-compile the package and the benchmark, as an install would."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC), str(BENCH_DIR)],
                   check=True, stdout=subprocess.DEVNULL, timeout=120)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs: a quick check that every metric and span is produced")
    args = parser.parse_args(argv)
    if not (SRC / "strtool" / "__init__.py").is_file():
        print(f"error: no strtool source at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import strtool

    if Path(strtool.__file__).resolve().parent != SRC / "strtool":
        print(f"error: imported strtool from {strtool.__file__}, not {SRC}", file=sys.stderr)
        return 2
    build()
    # The probe must share a CPU with the children it speaks for; they inherit this affinity.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "smoke": args.smoke, "commit": git_commit(), "source_sha256": source_digest(),
        "tool_version": strtool.__version__, "python": sys.version.split()[0],
        "nproc": os.cpu_count(), "cpu": cpu, "loadavg_start": loadavg(),
        "probe": {"loops": PROBE_LOOPS, "shifts": PROBE_SHIFTS, "period_s": PROBE_PERIOD_S,
                  "window_s": PROBE_WINDOW_S, "ref_s": PROBE_REF_S},
    }
    units = PER_LAYER if args.trace else END_TO_END
    metrics: dict = {}
    spans: list[dict] = []
    untraced: list[dict] = []
    setups: list[dict] = []
    traced = None
    with SpeedProbe() as probe:
        runner = Runner(args, probe)
        try:
            if args.trace:
                untraced.append(runner.iteration(False, 0))
                traced = runner.iteration(True, 0)
            else:
                for _ in range(SETUP_REPS):
                    setups.append(runner.setup_once())
                begin = time.perf_counter()
                while True:
                    untraced.append(runner.iteration(False, len(untraced)))
                    longest = max(it["t1"] - it["t0"] for it in untraced)
                    now = time.perf_counter()
                    if now - begin + longest > args.seconds or now + longest > runner.deadline:
                        break
        except Deadline:
            runner.attempted += 1
            runner.fail("run deadline reached before the workload finished")
    if traced is not None:
        metrics, spans = layer_metrics(traced, untraced[0], probe)
    elif untraced and not args.trace:
        metrics = end_to_end_metrics(untraced, setups, probe)
    runner.save_digests()
    provenance.update(loadavg_end=loadavg(), iterations=len(untraced) + args.trace,
                      child_processes=runner.children, probe_samples=len(probe.samples))
    info = {
        "provenance": provenance,
        "figures": workload_figures(untraced, probe) if untraced else {},
        "raw": {
            "wall_s": statistics.median(it["t1"] - it["t0"] for it in untraced) if untraced else None,
            "speed_factor": probe.factor(untraced[0]["t0"], untraced[-1]["t1"]) if untraced else None,
        },
        "ops_failed_frac": len(runner.failures) / max(1, runner.attempted),
        "failures": runner.failures[:20],
    }
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({"info": info, "metrics": metrics, "spans": spans}))
        info["trace_file"] = str(trace_path.relative_to(ROOT))
    result = {
        "correct": not runner.failures,
        "attempted": max(1, runner.attempted),
        "failed": len(runner.failures),
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
