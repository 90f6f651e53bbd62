"""No module under ``src/repro`` reaches into another one's private names.

A module may import an underscore name from another ``repro`` module, or
read one as an attribute of a module it imported, only for the
``_native`` kernel loader. Every other way in goes through the public
API, so a private layout (NE++'s column-read trace, say) lives in one
module.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
EXEMPT = {"_native"}  # the shared loader of the compiled kernels


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__") and name not in EXEMPT


def _resolve(node: ast.ImportFrom, module: str, is_package: bool) -> str:
    """The absolute module an ``from ... import`` names."""
    if not node.level:
        return node.module or ""
    package = module.split(".")
    base = package if is_package else package[:-1]
    base = base[:len(base) - (node.level - 1)]
    return ".".join(base + ([node.module] if node.module else []))


def side_doors(source_text: str, module: str, is_package: bool,
               modules: set[str]) -> list[str]:
    """Each underscore name the code of ``module`` imports from, or reads
    off, another of the ``repro`` ``modules``, as "line: module.name"."""
    tree = ast.parse(source_text)
    bound: dict[str, str] = {}  # local name -> the repro module it is bound to
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in modules:
                    bound[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom):
            source = _resolve(node, module, is_package)
            if source.split(".")[0] != "repro" or source == module:
                continue
            for alias in node.names:
                if _private(alias.name):
                    found.append(f"{node.lineno}: {source}.{alias.name}")
                if f"{source}.{alias.name}" in modules:
                    bound[alias.asname or alias.name] = f"{source}.{alias.name}"
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in bound and _private(node.attr)):
            found.append(f"{node.lineno}: {bound[node.value.id]}.{node.attr}")
    return found


def test_no_module_reads_another_modules_private_names():
    files = sorted((SRC / "repro").rglob("*.py"))
    modules = {_module_name(p) for p in files}
    found = {}
    for p in files:
        doors = side_doors(p.read_text(), _module_name(p), p.name == "__init__.py", modules)
        if doors:
            found[str(p.relative_to(SRC))] = doors
    assert not found, f"underscore names read across repro modules: {found}"


def test_side_doors_are_found():
    """Both ways in are caught, relative and absolute; the loader, a
    module's own names and dunders are not."""
    code = (
        "from . import _native, nepp\n"
        "from .nepp import _partition\n"
        "import repro.core.nepp as np2\n"
        "from ..core import nepp as n3\n"
        "_mine = 1\n"
        "x = nepp._partition, np2._trace, n3._reads, nepp.__doc__, _native.LIB, _mine\n"
    )
    modules = {"repro.core.nepp", "repro.core._native", "repro.core.user"}
    found = side_doors(code, "repro.core.user", False, modules)
    assert sorted(found) == sorted([
        "2: repro.core.nepp._partition", "6: repro.core.nepp._partition",
        "6: repro.core.nepp._trace", "6: repro.core.nepp._reads",
    ])
