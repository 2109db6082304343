"""The CLI entry point and text-report utilities."""

import os
import subprocess
import sys

import pytest

from repro.cli import main as repro_main
from repro.experiments import parallel
from repro.experiments.__main__ import TARGETS, build_parser, main
from repro.experiments.report import format_bars, format_table
from repro.experiments.store import RECORDS_FILE

#: Flags both experiment entry points must reject with exit status 2.
BAD_FLAGS = {
    "no-jobs": ["--jobs"],
    "abc-jobs": ["--jobs=abc"],
    "0-jobs": ["--jobs", "0"],
    "typo": ["--no-cach", "table1"],
    # the run-directory flags are gone: the result cache is the one store
    "run-dir": ["--run-dir", "a"],
    "resume": ["--resume", "a"],
    "from-store": ["--from-store", "a"],
}


class TestMainCLI:
    def test_all_targets_registered(self):
        assert set(TARGETS) == {
            "table1",
            "motivation",
            "fig2",
            "fig7",
            "fig8",
            "fig9",
            "fig10",
            "headline",
            "json",
        }

    def test_unknown_target_exit_code(self, capsys):
        assert main(["fig99"]) == 2
        assert "unknown targets" in capsys.readouterr().out

    def test_single_target_runs(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "done in" in out

    def test_no_cache_simulates_each_spec_once(self, tmp_path, monkeypatch,
                                               capsys):
        """``--no-cache`` still shares results across targets in memory:
        fig8 and the headline reuse fig7's runs, and nothing hits disk."""
        simulated = []
        real_run_spec = parallel.run_spec

        def counting_run_spec(spec):
            simulated.append(spec.key())
            return real_run_spec(spec)

        monkeypatch.setattr(parallel, "run_spec", counting_run_spec)
        monkeypatch.chdir(tmp_path)
        argv = ["--no-cache", "--jobs", "1", "fig7", "fig8", "headline"]
        assert main(argv) == 0
        assert "headline done in" in capsys.readouterr().out
        assert simulated and len(simulated) == len(set(simulated))
        assert os.listdir(tmp_path) == []  # no .repro_results/


class TestEngineFlags:
    """One argparse definition serves both experiment entry points."""

    def test_flags_parse(self):
        args = build_parser().parse_args(["--jobs", "3", "fig2", "fig9"])
        assert (args.jobs, args.target, args.no_cache) == (
            3, ["fig2", "fig9"], False
        )
        assert build_parser().parse_args([]).jobs == 1

    @pytest.mark.parametrize("argv", list(BAD_FLAGS.values()),
                             ids=list(BAD_FLAGS))
    @pytest.mark.parametrize("entry", ["module", "cli"])
    def test_bad_flags_exit_2(self, entry, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            if entry == "module":
                main(argv)
            else:
                repro_main(["experiments"] + argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "error:" in err

    def test_bad_jobs_in_a_process_has_no_traceback(self):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run(
            [sys.executable, "-m", "repro.experiments", "--jobs", "0"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "--jobs" in proc.stderr


def _corrupt_cache(cwd):
    cache = cwd / parallel.DEFAULT_CACHE_DIR
    cache.mkdir()
    (cache / RECORDS_FILE).write_text("not a record\n")


def _file_for_cache(cwd):
    (cwd / parallel.DEFAULT_CACHE_DIR).write_text("")


#: Ways to leave an unusable result cache in the working directory.
STORE_ERRORS = {
    "corrupt-cache": _corrupt_cache,
    "cache-is-a-file": _file_for_cache,
}


def _tree(root):
    """Every file under ``root`` with its bytes."""
    return {
        path: path.read_bytes() for path in root.rglob("*") if path.is_file()
    }


class TestStoreErrors:
    """An unusable cache exits 2 with one ``error:`` line on stderr."""

    @pytest.mark.parametrize("case", list(STORE_ERRORS))
    @pytest.mark.parametrize("entry", ["module", "cli"])
    def test_store_error_exits_2(self, entry, case, tmp_path, monkeypatch,
                                 capsys):
        STORE_ERRORS[case](tmp_path)
        monkeypatch.chdir(tmp_path)
        before = _tree(tmp_path)
        if entry == "module":
            code = main(["table1"])
        else:
            code = repro_main(["experiments", "table1"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert _tree(tmp_path) == before  # nothing written

    def test_store_error_in_a_process_has_no_traceback(self, tmp_path):
        _corrupt_cache(tmp_path)
        path = os.pathsep.join(os.path.abspath(p) for p in sys.path)
        proc = subprocess.run(
            [sys.executable, "-m", "repro.experiments", "table1"],
            capture_output=True, text=True, cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=path), timeout=60,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: corrupt record at line 1")

    @pytest.mark.parametrize("case", list(STORE_ERRORS))
    def test_no_cache_never_reads_the_cache(self, case, tmp_path, monkeypatch,
                                            capsys):
        STORE_ERRORS[case](tmp_path)
        monkeypatch.chdir(tmp_path)
        before = _tree(tmp_path)
        assert main(["--no-cache", "fig9"]) == 0
        assert "fig9 done in" in capsys.readouterr().out
        assert _tree(tmp_path) == before


def _no_simulation(spec):
    raise AssertionError(f"simulated {spec} on a warm cache")


def _without_timings(out):
    return [line for line in out.splitlines() if " done in " not in line]


class TestCacheRoundTrip:
    """A warm re-run is served entirely from ``.repro_results/``."""

    @pytest.mark.parametrize("entry", ["module", "cli"])
    def test_warm_rerun_prints_the_same_and_appends_nothing(
        self, entry, tmp_path, monkeypatch, capsys
    ):
        def run(argv):
            if entry == "module":
                return main(argv)
            return repro_main(["experiments"] + argv)

        monkeypatch.chdir(tmp_path)
        assert run(["--jobs", "2", "fig9"]) == 0
        cold = capsys.readouterr().out
        records = tmp_path / parallel.DEFAULT_CACHE_DIR / RECORDS_FILE
        written = records.read_bytes()
        assert written

        # a cache written by the pool serves a serial run
        monkeypatch.setattr(parallel, "run_spec", _no_simulation)
        assert run(["fig9"]) == 0
        warm = capsys.readouterr().out
        assert _without_timings(warm) == _without_timings(cold)
        assert records.read_bytes() == written


class TestFormatBars:
    def test_basic_render(self):
        text = format_bars([("a", 1.0), ("b", 2.0)], width=10, title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert lines[1].startswith("a | #####")
        assert lines[2].startswith("b | ##########")

    def test_zero_values(self):
        text = format_bars([("a", 0.0), ("b", 0.0)])
        assert "a" in text and "b" in text

    def test_empty_series(self):
        assert "(no data)" in format_bars([])

    def test_labels_aligned(self):
        text = format_bars([("short", 1), ("a-long-label", 2)])
        bars = [line.index("|") for line in text.splitlines()]
        assert len(set(bars)) == 1


class TestFormatTableEdges:
    def test_non_numeric_cells(self):
        text = format_table(["k", "v"], [("x", None), ("y", "flag")])
        assert "None" in text and "flag" in text

    def test_single_column(self):
        text = format_table(["only"], [(1,), (2,)])
        assert "only" in text
