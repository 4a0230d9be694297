"""The public surface: every exported name and every top-level definition is reached
from the CLI or the verify suite, and every weight leaves the off-domain +inf to
GeneratingFunction.values."""

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


def _exports(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def _is_definition(node: ast.stmt) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))


def _registers_a_command(node: ast.stmt) -> bool:
    # click registers the decorated def; nothing calls it by name
    return any(_identifiers(d) & {"_command", "command", "group"} for d in getattr(node, "decorator_list", ()))


def _package():
    """(top-level definition names, names reached from cli.py or verify.py, exported names).

    By name, across modules: a top-level def or class reaches every
    identifier in its body, and so does a module-level table (an assignment)
    through its name.  The roots are what the CLI and the verify suite run
    on import: their module-level statements other than definitions, and the
    definitions that register CLI commands.
    """
    uses: dict[str, set[str]] = {}
    roots: set[str] = set()
    defined: set[str] = set()
    exports: set[str] = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        exports |= _exports(tree)
        for node in tree.body:
            if _is_definition(node):
                defined.add(node.name)
                uses.setdefault(node.name, set()).update(_identifiers(node))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for name in _identifiers(target):
                        uses.setdefault(name, set()).update(_identifiers(node.value))
            if path.name in ROOTS and (not _is_definition(node) or _registers_a_command(node)):
                roots |= _identifiers(node) | ({node.name} if _is_definition(node) else set())

    reached: set[str] = set()
    todo = list(roots)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(uses.get(name, ()))
    return defined, reached, exports


def test_every_export_is_reached_from_cli_or_verify():
    _, reached, exports = _package()
    unreached = sorted(exports - reached)
    assert unreached == []


def test_every_top_level_definition_is_reached_from_cli_or_verify():
    # dead code: a def or class that nothing the CLI or the verify suite runs can reach
    defined, reached, _ = _package()
    unreached = sorted(defined - reached)
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
