"""Static checks on the package source, by `ast` alone (nothing is imported):
every name in `lpw.__all__` resolves, no module imports a name it never
uses, and every module-level private function is referenced somewhere."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "lpw"
MODULES = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def _defined(tree) -> set:
    """Names a module binds at top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
    return names


def _imports(tree):
    """(bound name, source module or None, imported name) for every import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                yield a.asname or a.name.split(".")[0], None, a.name
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                source = node.module if node.level == 1 else None
                yield a.asname or a.name, source, a.name


def _exports() -> list:
    for node in MODULES["__init__"].body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("lpw/__init__.py has no __all__")


def test_every_export_resolves():
    sources = {bound: (module, name) for bound, module, name in _imports(MODULES["__init__"])}
    defined = _defined(MODULES["__init__"])
    unresolved = []
    for name in _exports():
        module, original = sources.get(name, (None, name))
        if name not in defined or (module is not None
                                   and original not in _defined(MODULES[module])):
            unresolved.append(name)
    assert unresolved == []


def test_no_unused_import():
    unused = []
    for mod, tree in MODULES.items():
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        if mod == "__init__":
            used |= set(_exports())
        unused += [f"{mod}: {bound}" for bound, _, _ in _imports(tree) if bound not in used]
    assert unused == []


def test_every_private_function_is_referenced():
    refs = set()
    for tree in MODULES.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name):
                refs.add(n.id)
            elif isinstance(n, ast.Attribute):
                refs.add(n.attr)
        refs.update(name for _, _, name in _imports(tree))
    unreferenced = [f"{mod}.{node.name}" for mod, tree in MODULES.items() for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
                    and not node.name.startswith("__") and node.name not in refs]
    assert unreferenced == []
