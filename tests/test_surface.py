"""The package's public surface: ``__all__`` is exactly what ``qxwit`` binds,
the names deleted as unreached by any verdict stay gone, and no module
imports a name it never uses."""

import ast
import inspect
import pathlib

import pytest

import qxwit
from qxwit import certify, cli, qcore, witness, xstate

MODULES = (qxwit, qcore, xstate, witness, certify, cli)

#: Public names that no command, verdict or acceptance criterion reached.
DELETED = (
    "hermiticity_defect",
    "kron",
    "pv4_vectors",
    "seesaw_minima",
    "x_norm_lower_bound_check",
    "XNormBound",
    "X_NORM_BOUND_SLACK",
    "X_NORM_BOUND_EQUALITY_TOL",
)

SOURCES = sorted(p for p in pathlib.Path(qxwit.__file__).parent.glob("*.py") if p.name != "__init__.py")


def test_all_is_the_public_bindings():
    assert len(qxwit.__all__) == len(set(qxwit.__all__))
    public = {
        name for name, value in vars(qxwit).items() if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert set(qxwit.__all__) == public


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_deleted_names_stay_gone(module):
    assert [name for name in DELETED if hasattr(module, name)] == []


def test_deleted_members_stay_gone():
    assert not hasattr(qxwit.WitnessFamily, "omega")
    assert not hasattr(qxwit.PPTReport, "to_json_dict")
    assert "moving" not in inspect.signature(witness._seesaw).parameters


def _unused_imports(path: pathlib.Path) -> list:
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path) == []


@pytest.mark.parametrize(
    "name", [name for name in qxwit.__all__ if inspect.isclass(getattr(qxwit, name))]
)
def test_public_classes_have_their_own_docstring(name):
    # without one, dataclasses and NamedTuple set __doc__ to the signature
    cls = getattr(qxwit, name)
    doc = vars(cls).get("__doc__")
    assert doc and not doc.startswith(f"{name}(")
