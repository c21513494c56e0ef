"""The library surface the benchmark in `ssmbench/` reads: every attribute
it takes from an ssmkit module, and every attribute it wraps with
`tracer.wrap(module, "name", ...)`, must exist, every call it makes on an
ssmkit module must bind to the callee's signature, and every attribute it
reads from a built geometry must be a read-only float array, so that
trimming the library cannot break the traced run."""

import ast
import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1] / "ssmbench"


def _modules(tree):
    """{local name: ssmkit module} of each `from ssmkit import ...`."""
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "ssmkit":
            modules.update({a.asname or a.name: f"ssmkit.{a.name}" for a in node.names})
    return modules


def _surface():
    """(module, attribute, where) for each use in ssmbench/*.py."""
    uses = set()
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = _modules(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("ssmkit."):
                uses.update((node.module, a.name, path.name) for a in node.names)
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                uses.add((modules[node.value.id], node.attr, path.name))
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "wrap" and len(node.args) >= 2
                  and isinstance(node.args[0], ast.Name) and node.args[0].id in modules
                  and isinstance(node.args[1], ast.Constant)):
                uses.add((modules[node.args[0].id], node.args[1].value, path.name))
    return sorted(uses)


SURFACE = _surface()


def test_surface_found():
    names = {(module, attr) for module, attr, _ in SURFACE}
    assert ("ssmkit.kinematics", "inverse_kinematics") in names
    assert ("ssmkit.workspace", "sample_workspace_grid") in names
    assert ("ssmkit.cli", "main") in names


@pytest.mark.parametrize("module, attr, where", SURFACE)
def test_benchmark_attribute_exists(module, attr, where):
    assert hasattr(importlib.import_module(module), attr), f"{where} uses {module}.{attr}"


def _calls():
    """(module, attribute, positional count, keyword names, where) for each
    `module.attribute(...)` call on an ssmkit module in ssmbench/*.py that
    unpacks no `*` or `**` arguments."""
    calls = []
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = _modules(tree)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in modules
                    and not any(isinstance(a, ast.Starred) for a in node.args)
                    and all(k.arg is not None for k in node.keywords)):
                calls.append((modules[node.func.value.id], node.func.attr, len(node.args),
                              tuple(k.arg for k in node.keywords),
                              f"{path.name}:{node.lineno}"))
    return sorted(calls)


CALLS = _calls()


def test_calls_found():
    found = {call[:4] for call in CALLS}
    assert ("ssmkit.identification", "extract_breakaway_samples", 3, ("joint_id",)) in found
    assert ("ssmkit.kinematics", "inverse_kinematics", 2, ()) in found


@pytest.mark.parametrize("module, attr, positional, keywords, where", CALLS)
def test_benchmark_call_binds(module, attr, positional, keywords, where):
    signature = inspect.signature(getattr(importlib.import_module(module), attr))
    try:
        signature.bind(*[None] * positional, **dict.fromkeys(keywords))
    except TypeError as exc:
        pytest.fail(f"{where}: {module}.{attr}{signature} does not take this call: {exc}")


def _geometry_attributes():
    """Each attribute ssmbench/*.py reads from a built geometry, a name
    `geom`, sorted."""
    attrs = set()
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "geom"):
                attrs.add(node.attr)
    return sorted(attrs)


GEOMETRY_ATTRIBUTES = _geometry_attributes()


def test_geometry_attributes_found():
    assert {"omega1", "omega2", "omega3", "v4", "r0"} <= set(GEOMETRY_ATTRIBUTES)


@pytest.mark.parametrize("attr", GEOMETRY_ATTRIBUTES)
def test_geometry_attribute_is_a_read_only_float_array(attr):
    kinematics = importlib.import_module("ssmkit.kinematics")
    geom = kinematics.load_mechanism_config(BENCH.parent / "configs" / "mechanism.cfg")
    value = getattr(geom, attr)
    assert isinstance(value, np.ndarray) and value.dtype == np.float64, attr
    assert value.shape in ((3,), (3, 3)) and not value.flags.writeable, attr
