"""No capability without a caller, and no option without a caller.

Every top-level function and class in the package must be referenced (as a
name, an attribute or an import alias) somewhere in the package outside its
own definition, unless it is public (``zorichlab.__all__``) or a verify
check that ``verify.CHECKS`` names.  A text search would not do: a name in a
docstring is not a caller.

Every parameter with a default, of a top-level function or of a method of a
top-level class, must be passed by some call in the package: by keyword, or
by position at or past its index (a ``*args`` or ``**kwargs`` counts as
nothing).  A call of the class passes its ``__init__``'s parameters.

The caps ``PHASE_CAP`` and ``EXP_CAP`` are read in expressions only in
``zorich.py``, which owns them; other modules check a phase through
``zorich._phase_ok``.  A cap's name in a string or an f-string message is no
read.  ``CAP_CLAMPS`` lists the reads outside the owner, with the reason.
"""

import ast
from pathlib import Path

import zorichlab
from zorichlab import verify

PACKAGE = Path(zorichlab.__file__).parent


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
    missing = [f"{module}.{name}" for module, name in uncalled() if name not in kept]
    assert not missing, f"defined but never referenced in the package: {missing}"


# Parameters set from outside the package: Python calls the dunder methods
# other than __init__ by protocol (argparse's Action protocol passes
# _Given.__call__'s option_string), and main's argv is passed by the tests and
# by perfbench's workloads.
def exempt(module: str, qualname: str) -> bool:
    name = qualname.rpartition(".")[2]
    return (name.startswith("__") and name != "__init__") or (module, qualname) == ("cli", "main")


def defaulted(fn: ast.FunctionDef, method: bool) -> list[tuple[int | None, str]]:
    """(index among a call's positional arguments, or None if keyword-only; name)
    of each parameter of fn that has a default."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    skip = 1 if method else 0  # self is not among a call's arguments
    out = [(k - skip, a.arg) for k, a in enumerate(positional) if k >= first]
    return out + [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]


def passes(call: ast.Call, index: int | None, name: str) -> bool:
    """Whether the call passes the parameter by name or at its position."""
    return any(kw.arg == name for kw in call.keywords) or (
        index is not None and len(call.args) > index)


def unpassed() -> list[tuple[str, str, str]]:
    """(module, qualname, parameter) of each defaulted parameter no call passes."""
    functions, calls = [], {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for stmt in tree.body:
            if isinstance(stmt, ast.FunctionDef):
                functions.append((path.stem, stmt.name, stmt.name, stmt, False))
            elif isinstance(stmt, ast.ClassDef):
                for fn in stmt.body:
                    if isinstance(fn, ast.FunctionDef):
                        callee = stmt.name if fn.name == "__init__" else fn.name
                        functions.append((path.stem, f"{stmt.name}.{fn.name}", callee, fn, True))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(callee, []).append(node)
    assert functions, f"no functions found under {PACKAGE}"
    return [
        (module, qualname, name)
        for module, qualname, callee, fn, method in functions
        for index, name in defaulted(fn, method)
        if not any(passes(call, index, name) for call in calls.get(callee, []))
    ]


def test_every_optional_parameter_is_passed():
    missing = [f"{module}.{qualname}: {name}"
               for module, qualname, name in unpassed() if not exempt(module, qualname)]
    assert not missing, f"parameters with a default that no call in the package passes: {missing}"


CAPS = {"PHASE_CAP", "EXP_CAP"}
# (module, top-level definition, cap): each read outside zorich.py, with its reason
CAP_CLAMPS = {
    ("preimage", "_surface_residual", "EXP_CAP"):
        "clamps y3 so that exp() in the cone residual stays finite, not the map's overflow rule",
    ("preimage", "_solve_rays", "EXP_CAP"):
        "ends a ray's search bracket where y3 reaches the cap, so the residual stays finite",
}


def cap_reads() -> list[tuple[str, str, str]]:
    """(module, top-level definition, cap) of each read of a cap in an expression
    outside zorich.py; f-strings, other strings and imports hold no read."""
    reads = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "zorich":
            continue
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            owner, stack = getattr(stmt, "name", "<module>"), [stmt]
            while stack:
                node = stack.pop()
                if isinstance(node, ast.JoinedStr):
                    continue
                if isinstance(node, ast.Name) and node.id in CAPS:
                    reads.append((path.stem, owner, node.id))
                elif isinstance(node, ast.Attribute) and node.attr in CAPS:
                    reads.append((path.stem, owner, node.attr))
                stack.extend(ast.iter_child_nodes(node))
    return reads


def test_caps_are_read_only_by_their_owner():
    reads = sorted(cap_reads())
    assert reads == sorted(CAP_CLAMPS), f"cap reads outside zorich.py: {reads}"
