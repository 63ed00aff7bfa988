"""The package's imports form a DAG: every ``from .x import ...`` and
``from . import x`` in its modules, inside functions too, is an edge,
and no module reaches itself.  ``chain_models`` owns the exact facts
about a complex (provenance, square-zero, rank-nullity) and imports
neither the torsion engine nor the eigensolver."""

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "torsionlab"


def _imports(path: Path) -> set[tuple[str, str | None]]:
    """(package module, imported name) for every relative import of a
    module, at any depth of its code; ``from . import x`` gives (x, None)."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    found.add((alias.name, None))
                else:
                    found.add((node.module.split(".")[0], alias.name))
    return found


def _graph() -> dict[str, set[str]]:
    return {
        path.stem: {module for module, _ in _imports(path)}
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "__init__"
    }


def test_the_scan_sees_the_package():
    graph = _graph()
    assert {"chain_models", "torsion_engine", "spectral", "cli"} <= set(graph)
    assert "chain_models" in graph["torsion_engine"]
    assert "spectral" in graph["chain_models"]


def test_the_package_imports_form_a_dag():
    try:
        order = list(TopologicalSorter(_graph()).static_order())
    except CycleError as exc:
        raise AssertionError(f"import cycle: {exc.args[1]}") from None
    assert order.index("chain_models") < order.index("torsion_engine")


def test_chain_models_imports_neither_the_engine_nor_the_eigensolver():
    found = _imports(PACKAGE / "chain_models.py")
    assert "torsion_engine" not in {module for module, _ in found}
    assert "hermitian_spectrum" not in {name for _, name in found}


def test_a_function_level_import_is_an_edge(tmp_path):
    module = tmp_path / "lazy.py"
    module.write_text(
        "def f():\n    from .torsion_engine import _x\n    from . import spectral\n"
    )
    assert _imports(module) == {("torsion_engine", "_x"), ("spectral", None)}
