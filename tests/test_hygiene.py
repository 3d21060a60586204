"""Static checks on the package source, by `ast` alone (nothing is imported).

Every name in `lpw.__all__` resolves, no module imports a name it never uses,
and every module-level private function is referenced somewhere.  Only `grid`
imports a thread module or starts a thread.  Every public
function and method is referenced, every defaulted parameter of a module-level
function is passed by some call, and every dataclass field is read, by the
package or the benchmark (`lpwbench/`): a test alone counts only for the few
names in TEST_ONLY.  No function binds a local name that it never reads."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "lpw"
MODULES = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
CALLERS = [ast.parse(p.read_text(), str(p))
           for d in ("src", "lpwbench") for p in sorted((ROOT / d).rglob("*.py"))]
# reached from tests only, and kept on purpose
TEST_ONLY = {
    "iteration.iterate_map",        # acceptance criterion 9 applies the map itself
    "probe.equation_residual",      # re-checks the solve's residual from scratch
    "cli.main(argv)",               # the in-process seam the CLI tests drive
    "rng.complex_samples(offset)",  # draws agree however they are chunked (aim 3)
    "symbols.quantize_direct",      # the O(M^2) quantization oracle
}


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


def test_every_public_function_is_referenced():
    # `obj.name` counts for a module function `name` only when no class in
    # the package defines a method or property of that name: otherwise the
    # attribute reads that member, and the function needs a bare use or an
    # import.  `self.name` reads an instance's own member, never a function
    names = {n.id for tree in CALLERS for n in ast.walk(tree) if isinstance(n, ast.Name)}
    names |= {name for tree in CALLERS for _, _, name in _imports(tree)}
    attrs = {n.attr for tree in CALLERS for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    module_attrs = {n.attr for tree in CALLERS for n in ast.walk(tree)
                    if isinstance(n, ast.Attribute) and getattr(n.value, "id", None) != "self"}
    functions = {f"{mod}.{node.name}": node.name for mod, tree in MODULES.items()
                 for node in tree.body
                 if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    methods = {f"{mod}.{cls.name}.{node.name}": node.name for mod, tree in MODULES.items()
               for cls in tree.body if isinstance(cls, ast.ClassDef) for node in cls.body
               if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    members = set(methods.values())
    unreferenced = [qual for qual, name in functions.items() if name not in names
                    and (name not in module_attrs or name in members)]
    unreferenced += [qual for qual, name in methods.items() if name not in names | attrs]
    assert sorted(set(unreferenced) - TEST_ONLY) == []


def test_every_default_is_passed_somewhere():
    # the `verify_*` bundles are exempt: the CLI passes their flags by name
    defaults = {}  # function name -> (module, {defaulted parameter: its position or None})
    for mod, tree in MODULES.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("verify_"):
                a = node.args
                positional = a.posonlyargs + a.args
                slots = {p.arg: i for i, p in enumerate(positional)
                         if i >= len(positional) - len(a.defaults)}
                slots.update({p.arg: None for p, d in zip(a.kwonlyargs, a.kw_defaults)
                              if d is not None})
                if slots:
                    defaults[node.name] = (mod, slots)
    passed = {name: set() for name in defaults}
    for tree in CALLERS:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name not in defaults:
                continue
            n_pos = sum(not isinstance(a, ast.Starred) for a in node.args)
            passed[name].update(k.arg for k in node.keywords)
            passed[name].update(p for p, i in defaults[name][1].items()
                                if i is not None and i < n_pos)
    unpassed = [f"{mod}.{name}({p})" for name, (mod, slots) in defaults.items()
                for p in slots if p not in passed[name]]
    assert sorted(set(unpassed) - TEST_ONLY) == []


def test_every_dataclass_field_is_read():
    fields = [(cls.name, node.target.id) for tree in MODULES.values()
              for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
              and any("dataclass" in ast.unparse(d) for d in cls.decorator_list)
              for node in cls.body
              if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)]
    read = {n.attr for tree in CALLERS for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    unread = [f"{cls}.{name}" for cls, name in fields if name not in read]
    assert unread == []


def test_every_local_is_read():
    # a name a function binds is read somewhere in it (nested functions
    # included, since they read their enclosing scope); `_` names are exempt
    dead = []
    for mod, tree in MODULES.items():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            names = [n for n in ast.walk(fn) if isinstance(n, ast.Name)]
            read = {n.id for n in names if isinstance(n.ctx, ast.Load)}
            read |= {n.target.id for n in ast.walk(fn)
                     if isinstance(n, ast.AugAssign) and isinstance(n.target, ast.Name)}
            dead += [f"{mod}.{fn.name}: {n.id} (line {n.lineno})"
                     for n in names if isinstance(n.ctx, ast.Store)
                     and not n.id.startswith("_") and n.id not in read]
    assert dead == []


THREAD_MODULES = {"threading", "_thread", "concurrent", "concurrent.futures",
                  "multiprocessing", "multiprocessing.pool", "multiprocessing.dummy"}
THREAD_STARTERS = {"Thread", "Timer", "ThreadPoolExecutor", "ThreadPool", "start_new_thread"}


def test_only_grid_handles_threads():
    # grid's one helper thread, behind `_inverse_soon`, is the package's only
    # thread: no other module imports a thread module or starts a thread
    found = []
    for mod, tree in MODULES.items():
        if mod == "grid":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                found += [f"{mod}: import {a.name}" for a in node.names
                          if a.name in THREAD_MODULES]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module in THREAD_MODULES:
                    found.append(f"{mod}: from {node.module}")
            elif isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in THREAD_STARTERS:
                    found.append(f"{mod}: {name}() (line {node.lineno})")
    assert found == []
