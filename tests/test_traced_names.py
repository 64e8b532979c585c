"""Every library function the benchmark's per-layer report reads by name
must stay a public function of its module.

The tracer wraps a module's public functions (its ``__all__``, else its
non-underscore names, defined in that module) and the report looks each
metric's function up in the trace summary, so renaming or deleting one
breaks only a traced benchmark run.  This test reads ``BENCHMARK.json``
and fails first.
"""

import ast
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "wand_gibbs"

#: modules whose public functions the tracer wraps
TRACED_MODULES = ("solver", "chain", "extremality", "rootfind", "scan", "oracle", "cli")

#: read by the per-layer report beside the names in BENCHMARK.json
#: (``chain.spectrum.self_ms`` adds its self time)
EXTRA_NAMES = ("chain.transition_matrix",)


def public_functions(module) -> set:
    names = getattr(module, "__all__", None) or [n for n in vars(module) if not n.startswith("_")]
    return {
        name for name in names
        if inspect.isfunction(obj := getattr(module, name, None))
        and obj.__module__ == module.__name__
    }


def traced_names() -> list:
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    names = set(EXTRA_NAMES)
    for metric in metrics:
        parts = metric["name"].split(".")
        if len(parts) == 3 and parts[0] in TRACED_MODULES:
            names.add(f"{parts[0]}.{parts[1]}")
    return sorted(names)


def test_traced_modules_match_benchmark_tracer():
    spec = importlib.util.spec_from_file_location("spans", ROOT / "benchmark" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert TRACED_MODULES == spans.TRACED_MODULES


def test_cli_import_loads_every_traced_module():
    # the tracer looks each module up in sys.modules after importing the CLI;
    # a fresh interpreter, because this test process has imported them all
    code = ("import sys, wand_gibbs.cli; "
            f"print([m for m in {TRACED_MODULES!r} if f'wand_gibbs.{{m}}' not in sys.modules])")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            check=True, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert result.stdout == "[]\n"


def test_cli_import_skips_dataclasses():
    # the value types are named tuples; ``dataclasses`` would pull in
    # ``inspect`` and its dependencies at every CLI start-up
    code = "import sys, wand_gibbs.cli; print('dataclasses' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            check=True, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert result.stdout == "False\n"


def test_benchmark_reads_traced_functions():
    assert len(traced_names()) >= 10


@pytest.mark.parametrize("name", traced_names())
def test_traced_name_is_public_function(name):
    module_name, function = name.split(".")
    module = importlib.import_module(f"wand_gibbs.{module_name}")
    assert function in public_functions(module), (
        f"BENCHMARK.json traces {name}, which is not a public function of wand_gibbs.{module_name}"
    )


# --- rootfind: kept for the benchmark alone, so that it can go as one file ---------

def _imports_rootfind(node) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[-1] == "rootfind" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return ((node.module or "").split(".")[-1] == "rootfind"
                or any(alias.name == "rootfind" for alias in node.names))
    return False


def test_only_the_package_init_imports_rootfind():
    importers = sorted(path.name for path in SRC.glob("*.py")
                       if any(map(_imports_rootfind, ast.walk(ast.parse(path.read_text())))))
    assert importers == ["__init__.py"]


def test_rootfind_defines_only_the_benchmark_pinned_functions():
    body = ast.parse((SRC / "rootfind.py").read_text()).body
    public = {node.name for node in body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")}
    pinned = {name.split(".")[1] for name in traced_names() if name.startswith("rootfind.")}
    assert public == pinned == {"bisect", "sign_change_brackets"}
