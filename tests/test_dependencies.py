"""The package has no runtime dependency: importing it pulls in neither sympy nor numpy.

The benchmark's tracer wraps ``modinv`` names that it lists by string; they
must all resolve, or a traced run breaks.
"""

import importlib
import importlib.util
import subprocess
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = [p.stem for p in sorted((ROOT / "src" / "modinv").glob("*.py")) if p.stem != "__init__"]


def test_modules_import_without_sympy_or_numpy():
    assert MODULES, "no modinv modules found"
    code = (
        "import importlib, sys\n"
        f"for name in {MODULES!r}:\n"
        "    importlib.import_module('modinv.' + name)\n"
        "print(sorted(m for m in ('sympy', 'numpy') if m in sys.modules))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT / "src",
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_pyproject_declares_no_runtime_dependency():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == []


def test_tracer_span_names_resolve():
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "benchmarks" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = tracing.SPAN_FUNCTIONS + tracing.SPAN_CLASSES
    assert names
    missing = [
        f"{module}.{attr}"
        for module, attr in names
        if not hasattr(importlib.import_module(f"modinv.{module}"), attr)
    ]
    assert missing == []
