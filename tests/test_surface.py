"""The public names of graphonlab, their optional parameters, the environment
variables it reads, its runtime dependencies, and the names the benchmark's
tracer rebinds."""
import ast
import importlib
import inspect
import re
import sys
from pathlib import Path

import graphonlab

BENCH = Path(__file__).resolve().parent.parent / "bench"
SRC = Path(graphonlab.__file__).resolve().parent

#: every name ``import graphonlab`` exports; a change here changes the API
PUBLIC_NAMES = [
    "CarlemanReport", "CounterexampleReport", "DEFAULT_FUNCTIONAL_ID", "DecoratedMultigraph",
    "EigenSystem", "FeatureMap", "FiniteMeasure", "GraphonlabError", "LiftCheckReport",
    "MCEstimate", "MatchedPair", "MomentSequence", "ParseError", "Partition", "StepGraphon",
    "TestFunctional", "ValidationError", "anchored_graphon", "carleman_report",
    "counterexample_report", "cycle_graph", "density", "edge_graph", "eigendecomp",
    "eliminate", "kernel_matrix", "lift_check", "marginal", "matched_pair", "mc_density", "moment",
    "p_norm", "path_graph", "path_kernel", "product", "product_identity_residual", "quotient",
    "rank1_density", "rank1_graphon", "regularity_check", "relabel", "sample_anchors",
    "star_graph", "twin_partition", "twin_reduce", "unit_functional", "validate_graphon",
]

#: the parameters with a default of every public callable that has any; a
#: new knob is a new entry here
OPTIONAL_PARAMETERS = {
    "DecoratedMultigraph": ["edges", "labels"],
    "GraphonlabError": ["code"],
    "MomentSequence": ["source"],
    "ParseError": ["code"],
    "StepGraphon": ["functionals"],
    "ValidationError": ["code"],
    "counterexample_report": ["seed"],
    "cycle_graph": ["psi_id"],
    "density": ["ignore_labels"],
    "edge_graph": ["psi_id", "multiplicity"],
    "eliminate": ["keep", "pinned"],
    "path_graph": ["psi_id"],
    "star_graph": ["psi_id"],
    "twin_partition": ["tol"],
    "twin_reduce": ["tol"],
}


def test_public_names_are_pinned():
    names = sorted(
        n for n, v in vars(graphonlab).items()
        if not n.startswith("_") and type(v).__name__ != "module"
    )
    assert len(PUBLIC_NAMES) == 47
    assert names == PUBLIC_NAMES


def test_optional_parameters_are_pinned():
    optional = {}
    for name in PUBLIC_NAMES:
        obj = getattr(graphonlab, name)
        if callable(obj):
            params = inspect.signature(obj).parameters.values()
            if found := [p.name for p in params if p.default is not p.empty]:
                optional[name] = found
    assert sum(map(len, OPTIONAL_PARAMETERS.values())) == 18
    assert optional == OPTIONAL_PARAMETERS


#: the environment variables the package reads; outputs are a function of the
#: inputs and seeds alone, so a new knob is a new entry here
ENVIRONMENT_VARIABLES: list[str] = []


def test_environment_variables_are_pinned():
    names = []
    for path in sorted(SRC.rglob("*.py")):
        for read in re.finditer(r"(?:os\.environ|getenv)\W*(?:get\W*)?(\w*)", path.read_text()):
            names.append(read[1] or f"an unnamed read in {path.name}")
    assert sorted(names) == ENVIRONMENT_VARIABLES


#: the packages an install pulls in; a third one is a new entry here
DEPENDENCIES = ["numpy>=1.24", "orjson>=3.8"]


def test_runtime_dependencies_are_pinned():
    # tomllib is Python 3.11+; the project's one dependencies line is a Python list literal
    text = (SRC.parent.parent / "pyproject.toml").read_text()
    lines = re.findall(r"^dependencies = (.*)$", text, re.M)
    assert [ast.literal_eval(line) for line in lines] == [DEPENDENCIES]


def test_every_name_the_tracer_rebinds_is_bound(monkeypatch):
    # the tracer looks each (module, name) up with a bare getattr when installed
    monkeypatch.syspath_prepend(str(BENCH))
    try:
        tracing = importlib.import_module("tracing")
    finally:
        for name in ("tracing", "fixtures"):
            sys.modules.pop(name, None)
    keys = list(tracing.SPANS) + list(tracing.LEAVES)
    assert ("momentlab", "point_mass") in keys
    for module, name in keys:
        assert callable(getattr(importlib.import_module(f"graphonlab.{module}"), name))


#: the size policy's names; only density.py may use them in code (docstrings
#: may mention them) or raise the code they guard
SIZE_POLICY = {"MAX_CONTRACTION", "_PRINTED_VALUE"}


def test_one_module_holds_the_size_policy():
    users, refusers = [], []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = (
                node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else node.name if isinstance(node, ast.alias)
                else None
            )
            if name in SIZE_POLICY:
                users.append(path.name)
            if isinstance(node, ast.Constant) and node.value == "too-costly":
                refusers.append(path.name)
    assert set(users) == {"density.py"}
    assert set(refusers) == {"density.py"}


def test_one_module_refuses_an_overflowing_kernel():
    # kernel_matrix pairs every kernel, so only it may name one as not finite
    builders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.JoinedStr) and any(
                isinstance(part, ast.Constant) and "the kernel of " in part.value
                for part in node.values
            ):
                builders.append(path.name)
    assert builders == ["stepgraphon.py"]


def test_only_the_fileio_helpers_open_files():
    # every path is read by fileio._read and written by fileio.write_text, so
    # each refusal to open one is a coded ``cannot read`` or ``cannot write``
    openers = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {}
        for fn in ast.walk(tree):  # breadth first: an inner function overwrites its outer one
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update(dict.fromkeys(ast.walk(fn), f"{path.stem}.{fn.name}"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and (
                isinstance(node.func, ast.Name) and node.func.id == "open"
                or isinstance(node.func, ast.Attribute) and node.func.attr == "open"
                and isinstance(node.func.value, ast.Name) and node.func.value.id in ("io", "builtins")
            ):
                openers.append(owner.get(node, path.stem))
    assert sorted(openers) == ["fileio._read", "fileio.write_text"]
