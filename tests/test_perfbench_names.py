"""The package names that perfbench reads still resolve.

perfbench/ is read as text and never imported, so this test changes nothing
there.  A traced run fails on a missing ``Class.method`` entry of
``layertrace.GROUPS``, and every run fails on a missing name that run.py or
workloads.py reaches into."""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def layertrace_groups() -> dict:
    tree = ast.parse((PERFBENCH / "layertrace.py").read_text())
    for node in tree.body:
        targets = [t.id for t in getattr(node, "targets", ()) if isinstance(t, ast.Name)]
        if targets == ["GROUPS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("layertrace.py defines no GROUPS")


METHODS = sorted(key for key in layertrace_groups() if "." in key[1])


def test_layertrace_traces_methods():
    assert ("multivector", "Multivector.__init__") in METHODS


@pytest.mark.parametrize("module, qualname", METHODS)
def test_layertrace_methods_resolve(module, qualname):
    # Tracer.install reads each as vars(class)[method].
    cls_name, method = qualname.split(".")
    cls = getattr(importlib.import_module(f"cliffspin.{module}"), cls_name)
    assert callable(cls.__dict__[method])


@pytest.mark.parametrize(
    "file, module, name, attribute",
    [
        ("run.py", "multivector", "_reorder_sign", "cache_info"),
        ("run.py", "matrixrep", "_blade_matrices", None),
        ("workloads.py", "matrixrep", "_blade_matrices", None),
    ],
)
def test_names_the_runner_reads_resolve(file, module, name, attribute):
    assert name in (PERFBENCH / file).read_text()
    value = getattr(importlib.import_module(f"cliffspin.{module}"), name)
    assert callable(getattr(value, attribute) if attribute else value)
