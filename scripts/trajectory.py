"""Performance trajectory: time the Tier-1 suite and the sat battery, and write BENCH_<id>.json.

    python3 scripts/trajectory.py --quick   # Tier-1, the 3^9 and 3^12 rungs, the (13,1) refusals
    python3 scripts/trajectory.py           # the same, plus the 3^14 rungs (2,7) and (7,2),
                                            # the reduced logogram of (7,2), and the regions
                                            # suite on (4,3), (6,2) and (11,1)

strtool and the tests are run from the checkout that holds this script.  Every
command runs, one at a time, as the only child of a small launcher process
(`python3 -S`), under its own 5 GB RLIMIT_AS.  The launcher times the child
and reads its peak RSS from RUSAGE_CHILDREN.  A child's ru_maxrss counts the
resident set of the process it was forked from, so a small launcher keeps that
floor low; the launcher's own peak is recorded beside the runs as
`launcher_rss_mb`.  For each command the file holds the wall time, the peak
RSS, the exit code and the sha256 of its stdout; for the Tier-1 run, pytest's
summary line instead of a digest.  src/ is byte-compiled first, so that no
run pays for compiling a module whose cached bytecode is stale (as every run
would under PYTHONDONTWRITEBYTECODE).

The file is named after the measured code: BENCH_<short sha>.json when src/
matches HEAD, and BENCH_<short sha>+<src digest>.json when src/ has changes
not yet committed, the digest being the first 7 hex digits of `src_sha256`
(a sha256 over every tracked or new file under src/, path and content).  A
full-mode run adds "-full" before ".json", so it sits beside a quick run of
the same code.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RLIMIT_AS = 5 * 1024 ** 3
RAISED = ("--budget", "268435456", "--word-budget", "5000000")  # admits the 3^14 rungs

QUICK = [("verify", "--suite", "sat", "--n", str(n), "--m", str(m), "--threads", "1")
         for n, m in ((3, 3), (4, 3), (3, 4), (2, 6), (6, 2), (12, 1))]
SLOW = [*(("verify", "--suite", "sat", "--n", str(n), "--m", str(m), "--threads", "1", *RAISED)
          for n, m in ((2, 7), (7, 2))),
        ("logogram", "--n", "7", "--m", "2", "--reduced", "--no-cache", "--threads", "1", *RAISED),
        ("verify", "--suite", "regions", "--n", "4", "--m", "3", "--ignore-bewitched"),
        *(("verify", "--suite", "regions", "--n", str(n), "--m", str(m)) for n, m in ((6, 2), (11, 1)))]
REFUSALS = [("verify", "--suite", suite, "--n", "13", "--m", "1", "--threads", "1")
            for suite in ("sat", "wizards", "regions")]
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors")

# Run as `python3 -S -c LAUNCHER limit stdout_path cwd argv...`; prints one JSON line.
LAUNCHER = r"""
import json, os, resource, sys, time
limit, out_path, cwd, argv = int(sys.argv[1]), sys.argv[2], sys.argv[3], sys.argv[4:]
start = time.perf_counter()
pid = os.fork()
if pid == 0:
    try:
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
        os.dup2(os.open(out_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644), 1)
        os.dup2(os.open(os.devnull, os.O_WRONLY), 2)
        os.chdir(cwd)
        os.execv(argv[0], argv)
    finally:
        os._exit(127)
_, status = os.waitpid(pid, 0)
wall = time.perf_counter() - start
print(json.dumps({"wall_s": wall, "exit_code": os.waitstatus_to_exitcode(status),
                  "child_maxrss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
                  "launcher_maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))
"""


def launch(argv: list[str], env: dict[str, str]) -> tuple[dict, bytes]:
    """Run argv under the launcher; its figures and the child's stdout."""
    with tempfile.TemporaryDirectory() as scratch:
        out_path = os.path.join(scratch, "stdout")
        done = subprocess.run([sys.executable, "-S", "-c", LAUNCHER, str(RLIMIT_AS), out_path, str(ROOT), *argv],
                              env=env, capture_output=True, text=True, check=True)
        figures = json.loads(done.stdout)
        with open(out_path, "rb") as f:
            return figures, f.read()


def git(*args: str) -> str | None:
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def src_digest() -> str:
    """sha256 over the path and content of every file under src/ that git tracks or has not ignored."""
    listed = git("ls-files", "--cached", "--others", "--exclude-standard", "--", "src")
    if listed is None:  # not a git checkout: every file but caches
        paths = sorted(str(p.relative_to(ROOT)) for p in (ROOT / "src").rglob("*")
                       if p.is_file() and "__pycache__" not in p.parts)
    else:
        paths = sorted(set(listed.splitlines()))
    h = hashlib.sha256()
    for path in paths:
        if (ROOT / path).is_file():
            h.update(path.encode() + b"\0" + (ROOT / path).read_bytes() + b"\0")
    return h.hexdigest()


def record(argv: list[str], figures: dict) -> dict:
    return {"argv": argv, "wall_s": round(figures["wall_s"], 3),
            "peak_rss_mb": round(figures["child_maxrss_kb"] / 1024, 1), "exit_code": figures["exit_code"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--quick", action="store_true", help="skip the 3^14 rungs")
    args = parser.parse_args(argv)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))

    commit = git("rev-parse", "--short", "HEAD") or "unknown"
    modified = bool(git("status", "--porcelain", "--", "src"))
    digest = src_digest()
    name = f"BENCH_{commit}+{digest[:7]}" if modified else f"BENCH_{commit}"
    name += ".json" if args.quick else "-full.json"

    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src")], check=True)
    figures, out = launch([sys.executable, *TIER1], env)
    launcher_kb = figures["launcher_maxrss_kb"]
    lines = out.decode(errors="replace").strip().splitlines()
    tier1 = {**record(["python3", *TIER1], figures), "summary": lines[-1] if lines else ""}
    print(f"tier-1: {tier1['summary']} ({tier1['wall_s']} s)", flush=True)

    runs = []
    for command in QUICK + ([] if args.quick else SLOW) + REFUSALS:
        full = ["strtool", *command]
        figures, out = launch([sys.executable, "-m", *full], env)
        launcher_kb = max(launcher_kb, figures["launcher_maxrss_kb"])
        runs.append({**record(full, figures), "stdout_sha256": hashlib.sha256(out).hexdigest()})
        run = runs[-1]
        print(f"{' '.join(command)}: exit {run['exit_code']}, {run['wall_s']} s, {run['peak_rss_mb']} MB", flush=True)

    report = {
        "schema": 1,
        "commit": commit,
        "src_modified": modified,
        "src_sha256": digest,
        "mode": "quick" if args.quick else "full",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "rlimit_as_bytes": RLIMIT_AS,
        "launcher_rss_mb": round(launcher_kb / 1024, 1),
        "tier1": tier1,
        "runs": runs,
    }
    path = ROOT / name
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
