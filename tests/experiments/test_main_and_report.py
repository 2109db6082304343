"""The CLI entry point and text-report utilities."""

import os
import subprocess
import sys

import pytest

from repro.cli import main as repro_main
from repro.experiments.__main__ import TARGETS, build_parser, main
from repro.experiments.report import format_bars, format_table

#: Flags both experiment entry points must reject with exit status 2.
BAD_FLAGS = {
    "no-jobs": ["--jobs"],
    "abc-jobs": ["--jobs=abc"],
    "0-jobs": ["--jobs", "0"],
    "typo": ["--no-cach", "table1"],
    "dir+resume": ["--run-dir", "a", "--resume", "b"],
    "dir+store": ["--run-dir", "a", "--from-store", "b"],
    "resume+store": ["--resume", "a", "--from-store", "b"],
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


class TestEngineFlags:
    """One argparse definition serves both experiment entry points."""

    def test_flags_parse(self):
        args = build_parser().parse_args(["--jobs", "3", "fig2", "fig9"])
        assert (args.jobs, args.target, args.no_cache) == (
            3, ["fig2", "fig9"], False
        )
        # --jobs left unset: --resume falls back to the manifest's value
        assert build_parser().parse_args(["--resume", "d"]).jobs is None

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
