"""Every name a library module imports is used in that module, and every
name it exports is defined there; importing the package loads neither
dataclasses nor inspect."""
import ast
import importlib
import pathlib
import subprocess
import sys

import monobasis

PACKAGE = pathlib.Path(monobasis.__file__).parent


def names(tree) -> set:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(e.value for e in node.value.elts)
        # names inside string annotations, such as -> "Matrix"
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotation = node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotation = node.returns
        else:
            continue
        for part in ast.walk(annotation) if annotation else ():
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                used |= names(ast.parse(part.value, mode="eval"))
    return sorted(
        f"line {line}: {name}" for name, line in imported.items() if name not in used
    )


def test_unused_imports_detected():
    source = (
        "import os\n"
        "from math import comb, lcm, gcd\n"
        "from fractions import Fraction\n"
        "x = lcm(2, 3)\n"
        "def f(a: 'Fraction') -> int: return 'gcd'\n"
        "__all__ = ['os']\n"
    )
    assert unused_imports(source) == ["line 2: comb", "line 2: gcd"]


def test_library_modules_use_every_import():
    # __init__.py only re-exports
    found = {
        path.name: unused_imports(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    assert {name: names for name, names in found.items() if names} == {}


def test_library_modules_define_every_exported_name():
    stale = {}
    for path in sorted(PACKAGE.glob("*.py")):
        name = "monobasis" if path.stem == "__init__" else f"monobasis.{path.stem}"
        module = importlib.import_module(name)
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        if missing:
            stale[path.name] = missing
    assert stale == {}


def imported_modules(source: str) -> set:
    """The top-level names of the modules a source imports."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_no_library_module_imports_dataclasses():
    # dataclasses compiles each record's methods through exec on every
    # import, most of the package's import time
    importers = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if "dataclasses" in imported_modules(path.read_text(encoding="utf-8"))
    ]
    assert importers == []


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # -S: no site module or .pth file imports them first
    code = (
        f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); import monobasis.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    assert out == "[]\n"
