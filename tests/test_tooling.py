"""Guards for the tooling around the package: import cost and the bench tracer."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_import_does_not_load_scipy_linalg():
    # scipy.linalg is about half of the import time; only scipy.special is used.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    code = "import sys, entrocal; print('scipy.linalg' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"


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
