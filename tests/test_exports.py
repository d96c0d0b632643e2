import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import gradleak


def test_every_exported_name_resolves():
    modules = [gradleak] + [
        importlib.import_module(f"gradleak.{info.name}")
        for info in pkgutil.iter_modules(gradleak.__path__)
    ]
    for mod in modules:
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"{mod.__name__}.{name}"
    assert "compose" in gradleak.__all__ and "GradientObservation" in gradleak.__all__


def test_no_apply_functions_are_exported():
    # each observation transform is applied through its config's apply method
    import gradleak.defenses

    for mod in (gradleak, gradleak.defenses):
        assert not [n for n in dir(mod) if n.startswith("apply_")], mod.__name__


def test_import_does_not_load_scipy():
    # scipy is a test-only dependency; importing it would cost every trial
    # process, benchmark set-up and CLI call about half a second
    src = str(Path(gradleak.__file__).resolve().parents[1])
    code = "import sys, json, gradleak, gradleak.cli; print(json.dumps(sorted(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    loaded = json.loads(out)
    assert "gradleak.cli" in loaded
    assert [m for m in loaded if m == "scipy" or m.startswith("scipy.")] == []


def test_the_package_version_is_pyproject_s():
    # a regex, not tomllib: Python 3.10 has no TOML reader
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert re.search(r'^version = "([^"]+)"$', pyproject, re.M).group(1) == gradleak.__version__
