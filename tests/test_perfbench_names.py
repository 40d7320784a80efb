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


def cs_chains(path: Path) -> list[str]:
    """Every attribute chain rooted at the name ``cs`` in a perfbench file,
    dotted (``cs.spinors.exp_beta_gamma5``), in its code and in the string
    constants that parse as code, such as a workload's warm-up."""
    tree = ast.parse(path.read_text())
    trees = [tree]
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and "cs." in node.value:
            try:
                trees.append(ast.parse(node.value))
            except SyntaxError:  # prose, not code
                pass
    chains = set()
    for t in trees:
        for node in ast.walk(t):
            names = []
            while isinstance(node, ast.Attribute):
                names.append(node.attr)
                node = node.value
            if names and isinstance(node, ast.Name) and node.id == "cs":
                chains.add(".".join(["cs", *reversed(names)]))
    return sorted(chains)


WORKLOAD_CHAINS = cs_chains(PERFBENCH / "workloads.py")
# The package's submodules that workloads.py imports itself, such as
# cliffspin.expressions, which the package does not import.
WORKLOAD_IMPORTS = [
    alias.name
    for node in ast.walk(ast.parse((PERFBENCH / "workloads.py").read_text()))
    if isinstance(node, ast.Import)
    for alias in node.names
    if alias.name.startswith("cliffspin.")
]


def test_the_walk_finds_chains_in_code_and_in_warm_ups():
    assert WORKLOAD_IMPORTS == ["cliffspin.expressions"]
    assert {"cs.spinors.exp_beta_gamma5", "cs.Multivector.zero", "cs.matrixrep._blade_matrices"} <= set(
        WORKLOAD_CHAINS
    )


@pytest.mark.parametrize("chain", WORKLOAD_CHAINS)
def test_workload_names_resolve_on_the_package(chain):
    for module in WORKLOAD_IMPORTS:
        importlib.import_module(module)
    value = importlib.import_module("cliffspin")
    for name in chain.split(".")[1:]:
        value = getattr(value, name)


def test_the_frame_vectors_the_benchmark_reads_resolve():
    """perfbench's reference operator form reads ``fld.frame.frame.vectors``;
    no function of the package reads a frame's vectors, so this is the one
    reader of ``SpinorialFrame.frame``."""
    assert "fld.frame.frame.vectors" in (PERFBENCH / "workloads.py").read_text()
    groups = importlib.import_module("cliffspin.groups")
    sig = importlib.import_module("cliffspin").Signature(1, 3)
    vectors = groups.fiducial_spinorial_frame(sig).frame.vectors
    assert [v._terms for v in vectors] == [{1 << i: 1} for i in range(4)]
