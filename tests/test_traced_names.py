"""Every library function the benchmark's per-layer report reads by name
must stay a public function of its module.

The tracer wraps a module's public functions (its ``__all__``, else its
non-underscore names, defined in that module) and the report looks each
metric's function up in the trace summary, so renaming or deleting one
breaks only a traced benchmark run.  This test reads ``BENCHMARK.json``
and fails first.
"""

import importlib
import inspect
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

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


def test_benchmark_reads_traced_functions():
    assert len(traced_names()) >= 10


@pytest.mark.parametrize("name", traced_names())
def test_traced_name_is_public_function(name):
    module_name, function = name.split(".")
    module = importlib.import_module(f"wand_gibbs.{module_name}")
    assert function in public_functions(module), (
        f"BENCHMARK.json traces {name}, which is not a public function of wand_gibbs.{module_name}"
    )
