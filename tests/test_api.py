"""The public surface: every exported name is reached from the CLI or the verify suite,
and every weight leaves the off-domain +inf to GeneratingFunction.values."""

import ast
import importlib
from pathlib import Path

import glsreg
from glsreg.generating import GeneratingFunction

PACKAGE = Path(glsreg.__file__).parent
ROOTS = ("cli.py", "verify.py")

def _identifiers(node: ast.AST) -> set[str]:
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
    return found


def _exports(path: Path, tree: ast.Module) -> set[str]:
    if path.name == "__init__.py":  # the package derives its __all__ from its module map
        return set(glsreg.__all__)
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def test_every_export_is_reached_from_cli_or_verify():
    # by name, across modules: a top-level def or class reaches every identifier in its body
    uses: dict[str, set[str]] = {}
    reached_from: set[str] = set()
    exports: set[str] = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        exports |= _exports(path, tree)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                uses.setdefault(node.name, set()).update(_identifiers(node))
        if path.name in ROOTS:
            reached_from |= _identifiers(tree)

    reached: set[str] = set()
    todo = list(reached_from)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(uses.get(name, ()))

    unreached = sorted(exports - reached - {"__version__"})
    assert unreached == []


def test_only_generating_function_masks_the_domain():
    # every weight gives on_domain; GeneratingFunction.values is the one +inf fill
    for path in PACKAGE.glob("[!_]*.py"):
        importlib.import_module(f"glsreg.{path.stem}")
    todo, weights = [GeneratingFunction], []
    while todo:
        cls = todo.pop()
        weights.append(cls)
        todo.extend(cls.__subclasses__())
    overrides = sorted(c.__qualname__ for c in weights[1:] if c.__module__.startswith("glsreg") and "values" in vars(c))
    assert len(weights) > 7
    assert overrides == []
