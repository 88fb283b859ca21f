"""The package has no runtime dependency: importing it pulls in neither sympy nor numpy."""

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
