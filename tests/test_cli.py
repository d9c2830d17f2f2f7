import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import strtool
from strtool import cli, languages, logogram
from strtool.cli import main
from strtool.independence import Counterexample
from strtool.languages import FiniteLanguage, load_language
from strtool.logogram import (
    DecisionProblem,
    ProblemIndex,
    _cache_digest,
    auto_positions,
    load_logogram_cache,
    problem_fingerprint,
)
from strtool.sat import SAT_ALPHABET, EchelonSpec, enumerate_echelon


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def run_json(capsys, *argv) -> tuple[int, dict]:
    code, out = run(capsys, *argv, "--format", "json")
    return code, json.loads(out)


class TestLogogramCommand:
    def test_minimal_echelon(self, capsys, tmp_path):
        code, report = run_json(capsys, "logogram", "--n", "1", "--m", "1", "--reduced",
                                "--cache-dir", str(tmp_path))
        assert code == 0
        assert report["result"]["reduced_count"] == 2
        assert report["result"]["reduced"] == ["____1", "____2"]

    def test_two_by_two_reduced_count(self, capsys, tmp_path):
        code, report = run_json(capsys, "logogram", "--n", "2", "--m", "2", "--reduced",
                                "--cache-dir", str(tmp_path))
        assert code == 0
        assert report["result"]["reduced_count"] == 12

    def test_cache_hit_and_corruption_recovery(self, capsys, tmp_path):
        code, first = run_json(capsys, "logogram", "--n", "1", "--m", "2", "--cache-dir", str(tmp_path))
        assert code == 0 and first["result"]["cached"] is False
        code, second = run_json(capsys, "logogram", "--n", "1", "--m", "2", "--cache-dir", str(tmp_path))
        assert code == 0 and second["result"]["cached"] is True
        assert second["result"]["reduced_count"] == first["result"]["reduced_count"]
        cache_file = next(tmp_path.glob("logogram-*.txt"))
        cache_file.write_text("{\"schema\": 1, \"problem\": \"bogus\"}\n")
        code, third = run_json(capsys, "logogram", "--n", "1", "--m", "2", "--cache-dir", str(tmp_path))
        assert code == 0 and third["result"]["cached"] is False

    def test_truncated_reduced_cache_is_recomputed(self, capsys, tmp_path):
        argv = ("logogram", "--n", "2", "--m", "2", "--reduced", "--cache-dir", str(tmp_path))
        code, cold = run_json(capsys, *argv)
        assert code == 0 and cold["result"]["cached"] is False
        cache_file = next(tmp_path.glob("logogram-*.txt"))
        lines = cache_file.read_text().splitlines(keepends=True)
        for keep in range(len(lines)):
            cache_file.write_text("".join(lines[:keep]))
            code, warm = run_json(capsys, *argv)
            assert code == 0
            assert warm["result"]["cached"] is False, f"hit on the first {keep} lines"
            assert warm["result"]["reduced_count"] == 12
            assert warm["result"]["reduced"] == cold["result"]["reduced"]

    @pytest.mark.parametrize("damage", ["unflagged-line", "reduced-count", "full-set-short"])
    def test_signed_but_inconsistent_cache_is_recomputed(self, capsys, tmp_path, damage):
        """A file whose digest is valid still misses when its body disagrees with its flags or counts."""
        argv = ("logogram", "--n", "2", "--m", "1", "--cache-dir", str(tmp_path))  # 4 reduced, 8 more stored
        code, cold = run_json(capsys, *argv)
        assert code == 0 and cold["result"]["cached"] is False
        path = next(tmp_path.glob("logogram-*.txt"))
        header, *body = path.read_text().splitlines()
        header = json.loads(header)
        del header["sha256"]
        if damage == "unflagged-line":
            body.append(body[0][2:])
        elif damage == "reduced-count":
            header["reduced_count"] += 1
        else:
            assert body.pop().startswith(". ")
        header["sha256"] = _cache_digest(header, body)
        path.write_text("\n".join([json.dumps(header, sort_keys=True), *body]) + "\n")
        spec = EchelonSpec(2, 1)
        assert load_logogram_cache(SAT_ALPHABET, tmp_path, spec.body_positions, cold["result"]["fingerprint"]) is None
        code, again = run_json(capsys, *argv)
        assert code == 0 and again["result"] == cold["result"]
        code, warm = run_json(capsys, *argv)
        assert code == 0 and warm["result"] == {**cold["result"], "cached": True}

    def test_repeated_alphabet_header_is_exit_2(self, capsys, tmp_path):
        base = tmp_path / "base.lang"
        base.write_text("alphabet=01\n0\nalphabet=012\n2\n")
        target = tmp_path / "target.lang"
        target.write_text("alphabet=012\n2\n")
        assert main(["logogram", "--base-file", str(base), "--target-file", str(target),
                     "--cache-dir", str(tmp_path)]) == 2
        assert f"{base}:3" in capsys.readouterr().err

    def test_word_outside_alphabet_is_exit_2(self, capsys, tmp_path):
        base = tmp_path / "base.lang"
        base.write_text("alphabet=01\n00\n02\n")
        target = tmp_path / "target.lang"
        target.write_text("alphabet=01\n00\n")
        assert main(["logogram", "--base-file", str(base), "--target-file", str(target),
                     "--cache-dir", str(tmp_path)]) == 2
        assert f"{base}:3" in capsys.readouterr().err

    def test_problem_files_build_one_index(self, capsys, tmp_path, monkeypatch):
        built = []
        init = ProblemIndex.__init__

        def counting_init(self, base):
            built.append(base)
            init(self, base)

        monkeypatch.setattr(ProblemIndex, "__init__", counting_init)
        base = tmp_path / "base.lang"
        base.write_text("alphabet=01\n000\n001\n010\n011\n")
        target = tmp_path / "target.lang"
        target.write_text("alphabet=01\n011\n")
        code, report = run_json(capsys, "logogram", "--base-file", str(base),
                                "--target-file", str(target), "--reduced", "--no-cache")
        assert code == 0
        assert report["result"]["reduced"] == ["_11"]
        assert len(built) == 1

    def test_budget_error_is_exit_2(self, capsys):
        assert main(["logogram", "--n", "4", "--m", "4"]) == 2

    def test_memory_error_is_exit_2_without_a_report(self, monkeypatch, capsys):
        def exhausted(cfg):
            raise MemoryError

        monkeypatch.setattr(cli, "run_suite", exhausted)
        assert main(["verify", "--suite", "sat", "--n", "2", "--m", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "memory error: out of memory\n"

    def test_memory_limit_in_a_child_is_exit_2_without_a_report(self):
        """An 80 MB address-space limit, set in the child alone, stops (3,4)'s battery, which peaks near 103 MB RSS.

        Importing strtool fits under 40 MB on Linux x86-64 with CPython 3.11; where the
        interpreter cannot even start under the limit, the test is skipped rather than failed.
        """
        resource = pytest.importorskip("resource")
        limit = 80 * 2 ** 20
        src = str(Path(strtool.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

        def run(*args):
            return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=120,
                                  preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))

        if run("-c", "import strtool.cli").returncode != 0:
            pytest.skip("this interpreter cannot start and import strtool under an 80 MB address-space limit")
        proc = run("-m", "strtool", "verify", "--suite", "sat", "--n", "3", "--m", "4", "--threads", "1")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("memory error:") and "Traceback" not in proc.stderr

    def test_problem_files(self, capsys, tmp_path):
        base = tmp_path / "base.lang"
        base.write_text("alphabet=01\n00\n01\n10\n11\n")
        target = tmp_path / "target.lang"
        target.write_text("alphabet=01\n10\n11\n")
        code, report = run_json(capsys, "logogram", "--base-file", str(base),
                                "--target-file", str(target), "--reduced",
                                "--cache-dir", str(tmp_path))
        assert code == 0
        assert report["result"]["reduced"] == ["1"]

    def test_missing_arguments(self, capsys):
        assert main(["logogram"]) == 2

    @pytest.mark.parametrize("inputs", [
        ["--n", "1", "--m", "1", "--base-file", "E", "--target-file", "F"],
        ["--n", "1", "--base-file", "E", "--target-file", "F"],
        ["--n", "1", "--m", "1", "--target-file", "F"],
        ["--n", "1"],
        ["--base-file", "E"],
    ], ids=["both", "n-with-files", "echelon-with-target", "n-alone", "base-alone"])
    def test_conflicting_or_partial_inputs_are_usage_errors(self, capsys, tmp_path, inputs):
        for name in ("E", "F"):
            (tmp_path / name).write_text("alphabet=01\n00\n01\n")
        argv = [str(tmp_path / a) if a in ("E", "F") else a for a in inputs]
        assert main(["logogram", *argv, "--no-cache"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "need exactly one of --n/--m or --base-file/--target-file" in captured.err


class TestEchelonCacheKey:
    """An echelon's cache file is named by its spec, so a warm hit reads no word."""

    ARGV = ("logogram", "--n", "2", "--m", "2", "--reduced")

    def test_warm_hit_enumerates_and_hashes_nothing(self, capsys, tmp_path, monkeypatch):
        code, cold = run_json(capsys, *self.ARGV, "--cache-dir", str(tmp_path))
        assert code == 0 and cold["result"]["cached"] is False

        def refuse(*args, **kwargs):
            raise AssertionError("a warm echelon hit built its problem")

        monkeypatch.setattr(cli, "enumerate_echelon", refuse)
        monkeypatch.setattr(cli, "problem_fingerprint", refuse)
        monkeypatch.setattr(logogram, "problem_fingerprint", refuse)
        monkeypatch.setattr(FiniteLanguage, "__init__", refuse)
        monkeypatch.setattr(FiniteLanguage, "_sub", refuse)
        monkeypatch.setattr(ProblemIndex, "__init__", refuse)
        code, warm = run_json(capsys, *self.ARGV, "--cache-dir", str(tmp_path))
        assert code == 0 and warm["result"]["cached"] is True
        assert warm["result"] == {**cold["result"], "cached": True}
        assert (tmp_path / f"logogram-{warm['result']['fingerprint']}.txt").is_file()

    @pytest.mark.parametrize("flag, value, refusal", [
        ("--budget", "255", "budget error: echelon (2,2) candidates: 256 exceeds budget 255"),
        ("--word-budget", "80", "budget error: echelon (2,2) enumeration: 81 exceeds budget 80"),
    ], ids=["candidates", "words"])
    def test_budgets_refuse_before_a_cache_hit(self, capsys, tmp_path, flag, value, refusal):
        assert main([*self.ARGV, "--cache-dir", str(tmp_path)]) == 0
        assert len(list(tmp_path.glob("logogram-*.txt"))) == 1
        capsys.readouterr()
        assert main([*self.ARGV, "--cache-dir", str(tmp_path), flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == refusal + "\n"

    def test_problem_files_keep_the_content_key(self, capsys, tmp_path):
        base = tmp_path / "base.lang"
        base.write_text("alphabet=01\n00\n01\n10\n11\n")
        target = tmp_path / "target.lang"
        target.write_text("alphabet=01\n10\n11\n")
        code, report = run_json(capsys, "logogram", "--base-file", str(base), "--target-file", str(target),
                                "--cache-dir", str(tmp_path / "cache"))
        assert code == 0
        problem = DecisionProblem(base=load_language(str(base)), target=load_language(str(target)))
        key = problem_fingerprint(problem, auto_positions(ProblemIndex(problem.base)))
        assert report["result"]["fingerprint"] == key
        assert [p.name for p in (tmp_path / "cache").iterdir()] == [f"logogram-{key}.txt"]


class TestVerifyCommand:
    def test_sat_suite_reports_wizards(self, capsys):
        code, out = run(capsys, "verify", "--suite", "sat", "--n", "2", "--m", "2")
        assert code == 0
        assert "wizards: 0" in out
        assert "overall: pass" in out

    def test_closure_suite(self, capsys):
        code, report = run_json(capsys, "verify", "--suite", "closure", "--samples", "150", "--seed", "7")
        assert code == 0
        assert report["pass"] is True
        names = [c["name"] for c in report["checks"]]
        assert names == ["closure-laws", "logexp-closure"]

    def test_closure_suite_fails_on_a_broken_law(self, capsys, monkeypatch):
        monkeypatch.setattr(languages, "join_sets", lambda H, K: frozenset())  # breaks the intersection law
        code, report = run_json(capsys, "verify", "--suite", "closure", "--samples", "150", "--seed", "7")
        laws = report["checks"][0]
        assert code == 1 and report["pass"] is False and laws["holds"] is False
        first = languages.check_expansion_laws(150, 7).failures[0]
        assert first.startswith("intersection-of-strings: sample ") and laws["counterexample"] == first

    def test_regions_suite_with_filter(self, capsys):
        code, report = run_json(capsys, "verify", "--suite", "regions", "--n", "2", "--m", "2",
                                "--ignore-bewitched")
        assert code == 0 and report["pass"] is True

    def test_regions_suite_unfiltered_fails_honestly(self, capsys):
        code, report = run_json(capsys, "verify", "--suite", "regions", "--n", "2", "--m", "1")
        assert code == 1
        assert report["pass"] is False

    @pytest.mark.parametrize("suite", ["sat", "regions", "wizards"])
    def test_word_budget_caps_echelon_enumeration(self, capsys, suite):
        code = main(["verify", "--suite", suite, "--n", "2", "--m", "2", "--word-budget", "10"])
        assert code == 2
        assert "echelon (2,2) enumeration: 81 exceeds budget 10" in capsys.readouterr().err

    @pytest.mark.parametrize("suite", ["sat", "wizards", "regions"])
    def test_candidate_budget_refused_before_enumeration(self, monkeypatch, capsys, suite):
        def refuse(*args, **kwargs):
            raise AssertionError("enumerated an echelon the candidate budget refuses")

        monkeypatch.setattr(cli, "enumerate_echelon", refuse)
        assert main(["verify", "--suite", suite, "--n", "13", "--m", "1"]) == 2
        assert "echelon (13,1) candidates: 67108864 exceeds budget 16777216" in capsys.readouterr().err

    def test_threads_is_accepted_and_has_no_effect(self, capsys):
        reports = []
        for threads in ("2", "1"):
            code, report = run_json(capsys, "verify", "--suite", "sat", "--n", "2", "--m", "3", "--threads", threads)
            assert code == 0 and report["config"].pop("threads") == int(threads)
            reports.append(report)
        assert reports[0] == reports[1]

    def test_unknown_suite_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--suite", "nonsense"])
        assert err.value.code == 2

    def test_all_suites_share_one_echelon_enumeration_and_index(self, capsys, monkeypatch):
        real_enumerate, real_init = cli.enumerate_echelon, ProblemIndex.__init__
        enumerated, indexed = [], []

        def counting_enumerate(spec, *args, **kwargs):
            enumerated.append(spec)
            return real_enumerate(spec, *args, **kwargs)

        def counting_init(self, base):
            indexed.append(len(base))
            real_init(self, base)

        monkeypatch.setattr(cli, "enumerate_echelon", counting_enumerate)
        monkeypatch.setattr(ProblemIndex, "__init__", counting_init)
        code, report = run_json(capsys, "verify", "--suite", "all", "--n", "3", "--m", "2", "--samples", "20")
        assert code == 0 and report["pass"] is True
        assert enumerated.count(EchelonSpec(3, 2)) == 1
        assert indexed.count(3 ** 6) == 1

    def test_run_suite_times_every_check(self):
        cfg = cli._config_echo(cli.build_parser().parse_args(["verify", "--suite", "all", "--samples", "20"]))
        started = time.perf_counter()
        report = cli.run_suite(cfg)
        wall = time.perf_counter() - started
        assert len(report.checks) == 18
        assert all(c.elapsed >= 0 for c in report.checks)
        assert 0 < sum(c.elapsed for c in report.checks) <= wall

    def test_all_filters_bewitched_strings_and_says_so(self, capsys):
        code, report = run_json(capsys, "verify", "--suite", "all", "--samples", "20")
        assert code == 0 and report["config"]["ignore_bewitched"] is True
        regions = next(c for c in report["checks"] if c["name"] == "region-relations")
        assert regions["counts"]["ignore_bewitched"] == 1

    @pytest.mark.parametrize("flag", [False, True])
    def test_run_suite_reads_ignore_bewitched_from_config(self, flag):
        cfg = cli._config_echo(cli.build_parser().parse_args(["verify", "--suite", "all", "--samples", "20"]))
        cfg["ignore_bewitched"] = flag
        regions = next(c for c in cli.run_suite(cfg).checks if c.name == "region-relations")
        assert regions.counts["ignore_bewitched"] == int(flag)

    @pytest.mark.parametrize("suite", ["closure", "logogram", "sat", "wizards", "events"])
    def test_ignore_bewitched_outside_regions_is_usage_error(self, capsys, suite):
        assert main(["verify", "--suite", suite, "--ignore-bewitched"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--ignore-bewitched applies to --suite regions, not --suite {suite}" in captured.err

    @pytest.mark.parametrize("samples", ["0", "-1"])
    def test_samples_below_one_is_usage_error(self, capsys, samples):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--suite", "all", "--samples", samples])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument --samples: must be at least 1, not {samples}" in captured.err

    @pytest.mark.parametrize("suite", ["closure", "logogram", "events"])
    @pytest.mark.parametrize("flags", [("--n", "9"), ("--m", "2"), ("--n", "2", "--m", "2")])
    def test_echelon_size_outside_echelon_suites_is_usage_error(self, capsys, suite, flags):
        assert main(["verify", "--suite", suite, "--samples", "4", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        given = "/".join(flag for flag in flags if flag.startswith("--"))
        assert f"{given}: the echelon size is read by --suite sat, wizards, regions, all, not --suite {suite}" \
            in captured.err

    @pytest.mark.parametrize("suite", ["closure", "events"])
    def test_suites_without_echelon_echo_the_default_size(self, capsys, suite):
        code, report = run_json(capsys, "verify", "--suite", suite, "--samples", "20")
        assert code == 0 and (report["config"]["n"], report["config"]["m"]) == (2, 2)

    def test_report_schema(self, capsys):
        code, report = run_json(capsys, "verify", "--suite", "events", "--samples", "20", "--seed", "1")
        assert code == 0
        assert report["schema"] == 1
        assert report["tool"]["name"] == "strtool"
        assert report["config"]["seed"] == 1
        for check in report["checks"]:
            assert set(check) == {"name", "holds", "partial", "counts", "counterexample", "details"}

    def test_counterexample_record_renders_as_a_json_object(self):
        cx = Counterexample(("1_", "_2"), "relative cylinders are comparable")
        report = cli.VerificationReport({}, [cli.CheckResult("sat-internal", False, counterexample=cx),
                                             cli.CheckResult("closure-laws", False, counterexample="union: sample 3")])
        rendered = {"strings": ["1_", "_2"], "reason": "relative cylinders are comparable"}
        assert [c["counterexample"] for c in report.to_json()["checks"]] == [rendered, "union: sample 3"]
        assert report.to_text().splitlines() == [
            "FAIL sat-internal",
            f"  counterexample: {json.dumps(rendered, sort_keys=True)}",
            "FAIL closure-laws",
            '  counterexample: "union: sample 3"',
            "overall: FAIL",
        ]


class TestClassifyCommand:
    def test_proper_witness(self, capsys):
        code, report = run_json(capsys, "classify", "--n", "1", "--m", "1", "--string", "____1")
        assert code == 0
        assert report["result"] == {"string": "____1", "kind": "ProperWitness", "regions": [2]}

    def test_formula_sizes(self, capsys):
        code, report = run_json(capsys, "classify", "--formula", "1,3,-4;2,-3", "--n", "4")
        assert code == 0
        assert report["result"] == {
            "n": 4, "m": 2, "size": 4, "effective_size": 2, "bewitched": True,
        }

    def test_non_member_reports_without_crash(self, capsys):
        code, report = run_json(capsys, "classify", "--n", "1", "--m", "1", "--string", "____0")
        assert code == 1
        assert "error" in report["result"]

    def test_malformed_string_is_usage_error(self, capsys):
        assert main(["classify", "--n", "1", "--m", "1", "--string", "__x_1"]) == 2

    def test_repeated_sparse_position_is_usage_error(self, capsys):
        assert main(["classify", "--n", "1", "--m", "1", "--string", "5:1,5:2"]) == 2
        assert "repeated position 5" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [
        ["--m", "1", "--string", "____1"], ["--m", "1"], ["--string", "____1"],
    ], ids=["m-and-string", "m", "string"])
    def test_formula_with_echelon_inputs_is_usage_error(self, capsys, extra):
        assert main(["classify", "--formula", "1;-1", "--n", "1", *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--formula takes --n and neither --m nor --string" in captured.err

    def test_sparse_rendering_accepted(self, capsys):
        code, report = run_json(capsys, "classify", "--n", "1", "--m", "1", "--string", "5:2")
        assert code == 0
        assert report["result"]["kind"] == "ProperWitness"


def test_benchmark_traced_names_exist():
    """Every function the benchmark's traced run wraps is still a callable of its module."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"
    spec = importlib.util.spec_from_file_location("perfbench_child", path)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    missing = [f"{home.__name__}.{name}" for home, names in child.TRACED.values()
               for name in names if not callable(getattr(home, name, None))]
    assert child.TRACED and not missing


def test_cli_import_leaves_multiprocessing_unloaded():
    """Importing the CLI loads none of the modules that slow every command's start-up."""
    src = str(Path(strtool.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    heavy = ("multiprocessing", "dataclasses", "inspect", "hashlib")
    code = f"import sys, strtool.cli; print([m for m in {heavy!r} if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert proc.stdout.strip() == "[]"
