"""No capability without a caller.

Every top-level function and class in the package must be referenced (as a
name, an attribute or an import alias) somewhere in the package outside its
own definition, unless it is public (``zorichlab.__all__``), a verify check
that ``verify.CHECKS`` names, or a function that perfbench's tracer hooks by
name.  A text search would not do: a name in a docstring is not a caller.
"""

import ast
import importlib.util
from pathlib import Path

import zorichlab
from zorichlab import verify

PACKAGE = Path(zorichlab.__file__).parent
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def tracer_hooks() -> set[tuple[str, str]]:
    """(module, function) pairs that perfbench's TARGETS wraps by name."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return {(module.rpartition(".")[2], attr) for module, attr, _, _ in tracer.TARGETS}


def references(node: ast.AST) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
    return names


def uncalled() -> list[tuple[str, str]]:
    """(module, name) of each top-level def or class that nothing else references."""
    definitions, used_by = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions.append((path.stem, stmt.name, stmt))
            used_by.append((stmt, references(stmt)))
    assert definitions, f"no definitions found under {PACKAGE}"
    return [
        (module, name)
        for module, name, own in definitions
        if not any(name in refs for stmt, refs in used_by if stmt is not own)
    ]


def test_every_definition_has_a_caller():
    kept = set(zorichlab.__all__) | {f"check_{name}" for name, _, _ in verify.CHECKS}
    hooked = tracer_hooks()
    missing = [
        f"{module}.{name}"
        for module, name in uncalled()
        if name not in kept and (module, name) not in hooked
    ]
    assert not missing, f"defined but never referenced in the package: {missing}"
