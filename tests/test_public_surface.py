"""The names the benchmark harness and the package export must resolve.

``perfbench/tracer.py`` wraps the functions its ``LAYERS`` table names, and
``perfbench/workloads.py`` imports from the package; a deletion or rename in
``src/`` that breaks either fails here, without running the harness.  The
harness files are only read.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import laglab

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_names():
    return [
        (module_name, fn)
        for module_name, fns in _load_tracer().LAYERS.values()
        for fn in fns
    ]


def _workload_imports():
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module and node.module.startswith("laglab")
        for alias in node.names
    ]


@pytest.mark.parametrize("module_name, fn", _traced_names())
def test_traced_function_resolves_as_the_tracer_resolves_it(module_name, fn):
    """``Tracer.install`` reads ``owner.__dict__[attr]``, so an inherited or
    missing attribute breaks every traced run."""
    module = importlib.import_module(module_name)
    owner_name, _, attr = fn.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    assert callable(owner.__dict__[attr])


def test_workloads_import_from_the_package():
    imports = _workload_imports()
    assert imports
    for module_name, name in imports:
        assert hasattr(importlib.import_module(module_name), name), f"{module_name}.{name}"


def test_every_exported_name_resolves():
    missing = [name for name in laglab.__all__ if not hasattr(laglab, name)]
    assert missing == []
