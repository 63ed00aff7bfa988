"""Names the prose points at exist: every backticked reference in the
package's docstrings, README.md and docs/schemas.md that is dotted or
starts with an underscore resolves to an attribute of a torsionlab
module, or of a class defined in one.  A dotted reference whose head is
neither (``np.nonzero``, ``dataclasses.replace``, a variable such as
``C.simplicial``, a schema tag such as ``report.v1``) is not the
package's and is skipped; a call's arguments are dropped."""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import torsionlab

ROOT = Path(__file__).resolve().parent.parent
MODULES = {
    info.name: importlib.import_module(f"torsionlab.{info.name}")
    for info in pkgutil.iter_modules(torsionlab.__path__)
} | {"torsionlab": torsionlab}
CLASSES = {
    name: obj
    for module in MODULES.values()
    for name, obj in vars(module).items()
    if inspect.isclass(obj) and obj.__module__.startswith("torsionlab")
}
_QUOTED = re.compile(r"`+([^`]+?)`+")
_REFERENCE = re.compile(r"(_?[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(?:\(.*\))?")


def _texts():
    for path in sorted((ROOT / "src" / "torsionlab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                doc = ast.get_docstring(node, clean=False)
                if doc:
                    yield f"{path.name}:{getattr(node, 'name', '<module>')}", doc
    for name in ("README.md", "docs/schemas.md"):
        yield name, (ROOT / name).read_text()


def _references():
    for where, text in _texts():
        for quoted in _QUOTED.findall(text):
            m = _REFERENCE.fullmatch(quoted.strip())
            if m and ("." in m.group(1) or m.group(1).startswith("_")):
                yield where, m.group(1)


def _has(obj, name: str) -> bool:
    fields = getattr(obj, "__dataclass_fields__", {}) if inspect.isclass(obj) else {}
    return hasattr(obj, name) or name in fields


def _resolves(reference: str) -> bool | None:
    """True or False, or None for a reference that is not the package's."""
    head, *rest = reference.split(".")
    if not rest:
        return any(_has(obj, head) for obj in (*MODULES.values(), *CLASSES.values()))
    obj = MODULES.get(head) or CLASSES.get(head)
    if obj is None:
        return None
    for name in rest:
        if not _has(obj, name):
            return False
        obj = getattr(obj, name, None)
    return True


def test_every_quoted_name_resolves():
    refs = list(_references())
    checked = [(where, ref) for where, ref in refs if _resolves(ref) is not None]
    assert len(checked) > 80  # the scan itself still finds the references
    assert [(where, ref) for where, ref in checked if not _resolves(ref)] == []


def test_the_scan_refuses_a_stale_name():
    assert _resolves("spectral._map_blocks") and _resolves("_map_blocks")
    assert _resolves("Report.timings")  # a dataclass field with a factory
    assert _resolves("_no_such_helper") is False
    assert _resolves("torsion_engine._no_such_helper") is False
    assert _resolves("np.nonzero") is None
