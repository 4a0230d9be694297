"""The public surface: every exported name and every top-level definition is reached
from the CLI or the verify suite, every weight leaves the off-domain +inf to
GeneratingFunction.values, and the CLI is the one entry point."""

import ast
import importlib
import os
from pathlib import Path

import glsreg
from glsreg.generating import GeneratingFunction

PACKAGE = Path(glsreg.__file__).parent
ROOTS = ("cli.py", "verify.py")
REPO = Path(__file__).resolve().parent.parent
# the CLI, and the harness and tests that drive it, may run as scripts
MAIN_ALLOWED = (PACKAGE / "cli.py", REPO / "benchmarks", REPO / "tests")

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


def test_every_library_module_lists_its_public_names():
    # the CLI and the package itself export nothing; every other module's __all__ is its public surface
    missing = sorted(
        path.name
        for path in PACKAGE.glob("*.py")
        if path.name not in ("cli.py", "__init__.py") and not _exports(ast.parse(path.read_text()))
    )
    assert missing == []


def test_every_export_is_reached_from_cli_or_verify():
    _, reached, exports = _package()
    unreached = sorted(exports - reached)
    assert unreached == []


def _raised(paths) -> set[str]:
    """Names in the exceptions that the raise statements of ``paths`` raise."""
    raised: set[str] = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                raised |= _identifiers(node.exc.func if isinstance(node.exc, ast.Call) else node.exc)
    return raised


def _error_classes() -> set[str]:
    return _exports(ast.parse((PACKAGE / "errors.py").read_text()))


def test_every_error_class_is_raised():
    # a class in errors.__all__ that no raise statement names is one callers can only catch in vain
    never_raised = sorted(_error_classes() - {"GLSError"} - _raised(PACKAGE.glob("*.py")))
    assert never_raised == []


def test_every_error_class_is_raised_outside_the_cli():
    # the CLI reports config problems as click.UsageError; an error class that only the CLI
    # raises is a second home for that decision
    library = (path for path in PACKAGE.glob("*.py") if path.name != "cli.py")
    assert sorted(_error_classes() - _raised(library)) == []


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


def _calls(tree: ast.AST, name: str) -> bool:
    return any(isinstance(node, ast.Call) and name in _identifiers(node.func) for node in ast.walk(tree))


def test_only_moments_calls_supremum_scan():
    # every sup-norm and conjugate scan goes through moments; a second caller is a second home for a norm
    callers = sorted(path.name for path in PACKAGE.glob("*.py") if _calls(ast.parse(path.read_text()), "supremum_scan"))
    assert callers == ["moments.py"]


def test_only_sequence_model_cells_draws_z():
    # one word -> Z_n transform: the dense pass and both fold paths call SequenceModel._cells,
    # the one place in simulate.py that converts words (_uniforms) and draws magnitudes
    tree = ast.parse((PACKAGE / "simulate.py").read_text())
    scopes = [(f.name, f) for f in tree.body if isinstance(f, ast.FunctionDef)]
    classes = [c for c in tree.body if isinstance(c, ast.ClassDef)]
    scopes += [(f"{c.name}.{f.name}", f) for c in classes for f in c.body if isinstance(f, ast.FunctionDef)]
    callers = sorted({name for name, f in scopes for draw in ("_uniforms", "draw_magnitudes") if _calls(f, draw)})
    assert callers == ["SequenceModel._cells"]


def _has_main_block(tree: ast.Module) -> bool:
    return any(
        isinstance(node, ast.If)
        and isinstance(node.test, ast.Compare)
        and getattr(node.test.left, "id", None) == "__name__"
        and any(getattr(c, "value", None) == "__main__" for c in node.test.comparators)
        for node in tree.body
    )


def _repo_sources():
    for root, dirs, files in os.walk(REPO):
        # hidden folders, caches and build output hold no source of the project
        dirs[:] = [d for d in dirs if not (d.startswith(".") or d.endswith(".egg-info") or d in ("__pycache__", "build"))]
        yield from (Path(root) / f for f in files if f.endswith(".py"))


def test_no_second_entry_point():
    # a script with its own __main__ block duplicates the CLI; a new statement belongs in glsreg verify
    scripts = sorted(
        str(path.relative_to(REPO))
        for path in _repo_sources()
        if not any(path == a or a in path.parents for a in MAIN_ALLOWED)
        and _has_main_block(ast.parse(path.read_text()))
    )
    assert scripts == []
