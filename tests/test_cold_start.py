"""Cold start: a figure run loads neither the checkers nor the pool.

A fresh interpreter runs the benchmark op module's imports
(``perfbench/ops.py``) and one inline simulation.  None of the modules
below may be loaded then: the package ``__init__``s import nothing,
``repro.analysis.engine`` loads the relational checker on its first
program check, and ``repro.experiments.parallel.execute`` loads
``concurrent.futures`` on its pool branch only.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Modules a figure run never needs.
NOT_LOADED = {
    "concurrent.futures",
    "multiprocessing",
    "repro.analysis.api",
    "repro.analysis.ctlint",
    "repro.analysis.facts",
    "repro.analysis.intervals",
    "repro.analysis.sanitizer",
    "repro.lang.executor",
    "repro.lang.taint",
    "repro.lang.transforms",
    "repro.ct.oram",
    "repro.ct.plcache_ctx",
    "repro.core.macro_ops",
    "repro.core.multicore",
    "repro.workloads.kvstore",
}

#: Packages none of whose modules a figure run needs.
NOT_LOADED_PACKAGES = (
    "repro.analysis.symrel",
    "repro.analysis.repair",
    "repro.attacks",
)


def _op_module_imports() -> str:
    """The module-level import statements of ``perfbench/ops.py``."""
    tree = ast.parse((ROOT / "perfbench" / "ops.py").read_text())
    return "\n".join(
        ast.unparse(node) for node in tree.body
        if isinstance(node, ast.Import)
        or isinstance(node, ast.ImportFrom) and node.module != "__future__"
    )


PROBE = """
import json
import sys

{imports}
from repro.experiments.parallel import RunSpec, run_many

run_many([RunSpec("histogram", 1000, "ct")], jobs=1, cache=None)
print(json.dumps(sorted(sys.modules)))
"""


def test_figure_run_imports_only_what_it_runs():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", PROBE.format(imports=_op_module_imports())],
        env=env, cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout
    loaded = set(json.loads(out))
    assert "repro.experiments.runner" in loaded  # the run really ran
    assert sorted(NOT_LOADED & loaded) == []
    assert [
        name for name in sorted(loaded)
        if any(name == pkg or name.startswith(pkg + ".")
               for pkg in NOT_LOADED_PACKAGES)
    ] == []
