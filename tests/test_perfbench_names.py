"""The package names that perfbench reads still resolve.

perfbench/ is read as text and never imported, so this test changes nothing
there.  A traced run fails on a missing ``Class.method`` entry of
``layertrace.GROUPS`` and leaves a function entry that no longer names a
function of its module untraced, so its layer reads 0; every run fails on a
missing name that run.py or workloads.py reaches into."""

import ast
import importlib
import inspect
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

# perfbench's known fault (ROADMAP item 1): layertrace still names
# classify._subalgebra_basis, which was deleted.
STALE = {("classify", "_subalgebra_basis")}
FUNCTIONS = [
    pytest.param(*key, marks=pytest.mark.xfail(strict=True, reason="deleted; ROADMAP item 1"))
    if key in STALE
    else key
    for key in sorted(key for key in layertrace_groups() if "." not in key[1])
]


def test_layertrace_traces_methods():
    assert ("multivector", "Multivector.__init__") in METHODS


@pytest.mark.parametrize("module, qualname", METHODS)
def test_layertrace_methods_resolve(module, qualname):
    # Tracer.install reads each as vars(class)[method].
    cls_name, method = qualname.split(".")
    cls = getattr(importlib.import_module(f"cliffspin.{module}"), cls_name)
    assert callable(cls.__dict__[method])


def test_layertrace_traces_serialization():
    names = {key for key in layertrace_groups() if key[0] == "serialization"}
    assert {name for _, name in names} == {
        "to_json", "to_json_dict", "format_multivector",
        "from_json", "from_json_dict", "parse_multivector",
    }


@pytest.mark.parametrize("module, name", FUNCTIONS)
def test_layertrace_functions_resolve(module, name):
    # Tracer.install wraps only the functions that the module itself defines.
    mod = importlib.import_module(f"cliffspin.{module}")
    fn = vars(mod).get(name)
    assert inspect.isfunction(fn) and fn.__module__ == mod.__name__


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
