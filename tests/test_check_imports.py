"""scripts/check_imports.py, the offline unused-import check."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "check_imports.py"


@pytest.fixture(scope="module")
def check_imports():
    spec = importlib.util.spec_from_file_location("check_imports", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SAMPLE = '''\
from __future__ import annotations

import os
import sys as system
import json.decoder
from typing import Dict, List, Optional  # noqa: F401
from typing import Sequence
from collections import (
    OrderedDict,
    deque,  # noqa: F401
    defaultdict,
)
from dataclasses import dataclass, field

__all__ = ["field"]


def f(x: "Sequence[Counter]") -> "List[int]":
    import re
    return [json.decoder.scanstring, dataclass, re]
'''


def test_flags_only_unused_unmarked_names(check_imports, tmp_path):
    """Attribute chains, string annotations, function-level imports,
    ``__all__`` and ``# noqa: F401`` (on the statement or the alias
    line) count as uses; ``from __future__`` is never flagged."""
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE)
    assert check_imports.unused_imports(path) == [
        (3, "os"), (4, "system"), (9, "OrderedDict"), (11, "defaultdict"),
    ]


def test_main_checks_init_files_and_reports_exit_status(check_imports,
                                                       tmp_path, capsys):
    """An ``__init__.py`` is checked like any module: a name its
    ``__all__`` lists is a re-export, any other unused one a finding."""
    init = tmp_path / "__init__.py"
    init.write_text('import os\nimport sys\n__all__ = ["os"]\n')
    clean = tmp_path / "clean.py"
    clean.write_text("import os\nprint(os.sep)\n")
    assert check_imports.main([str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert out == f"{init}:2: 'sys' imported but unused\n"
    init.write_text('import os\n__all__ = ["os"]\n')
    assert check_imports.main([str(tmp_path)]) == 0
    (tmp_path / "dirty.py").write_text("import os\n")
    assert check_imports.main([str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert out == f"{tmp_path / 'dirty.py'}:1: 'os' imported but unused\n"
    assert check_imports.main([]) == 2
