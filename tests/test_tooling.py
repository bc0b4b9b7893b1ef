"""Guards for the tooling around the package: import cost, the bench tracer and
the README library example."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run_python(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports the package from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )


def test_import_does_not_load_scipy_linalg():
    # scipy.linalg is about half of the import time; only scipy.special is used.
    result = _run_python("import sys, entrocal; print('scipy.linalg' in sys.modules)")
    assert result.stdout.strip() == "False"


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    _run_python(code)


def test_bench_tracer_targets_resolve():
    # The traced benchmark run replaces these names where callers look them
    # up; a rename in the package would silently drop its spans. Parsed, not
    # imported, so nothing is written under bench/.
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text(encoding="utf-8"))
    table = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "WRAPPED" for t in node.targets)
    )
    assert table
    for module, attr, _ in table:
        assert callable(getattr(importlib.import_module(module), attr, None)), (
            f"{module}.{attr}"
        )
