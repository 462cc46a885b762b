"""Every name a module of the package or of its tests imports is read in
that module, so a deletion that leaves an import behind fails here; no
message formats a value with ``!r``, which neither bounds its length nor
survives an int past ``str``'s limit on digits (``permutations._shown``
does both); and no function calls itself, since Python stops a recursion
about 1 000 calls deep, and a spec or a count can be longer than that.
Every cap, with ``CapExceeded`` and the one check that raises it, is in
``coefficients``, and so is every number the bit cap bounds; and no check
runs in a loop, where it would refuse only after the passes before it did
their work."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "topshuffle"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


def _imported_names(tree: ast.Module):
    """Each name an ``import`` or ``from … import`` binds, ``__future__`` aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def test_the_modules_are_found():
    assert MODULES, f"no modules under {PACKAGE}"


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.stem)
def test_every_import_is_read(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    unread = [name for name in _imported_names(tree) if name not in read]
    assert not unread, f"{path.name} imports {unread} but never reads them"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_f_string_formats_with_repr(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.FormattedValue) and node.conversion == ord("r")
    ]
    assert not lines, f"{path.name} formats with !r on lines {lines}; use _shown"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_function_calls_itself(path):
    # A method is skipped: a bare name in its body reads the module's
    # binding, as ``GPermutation.identity`` calls the function ``identity``.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    methods = {
        id(node)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
    }
    recursive = [
        f"{node.name} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and id(node) not in methods
        and any(
            isinstance(call, ast.Call)
            and isinstance(call.func, ast.Name)
            and call.func.id == node.name
            for call in ast.walk(node)
        )
    ]
    assert not recursive, f"{path.name} has functions that call themselves: {recursive}"


def _is_int_constant(node: ast.expr) -> bool:
    """``node`` is an expression of int literals, such as ``4 * 10**6``."""
    return all(
        isinstance(n, (ast.BinOp, ast.UnaryOp, ast.operator, ast.unaryop))
        or (isinstance(n, ast.Constant) and type(n.value) is int)
        for n in ast.walk(node)
    )


def test_every_cap_lives_in_coefficients():
    # One module holds the cap policy: the int constants named ``*_CAP``,
    # ``CapExceeded``, and ``_check_cap``, the one place that raises it.
    caps, classes, raises = set(), [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        # Walked outermost first, so a nested function overrides its parent.
        owner = {
            id(node): f"{path.stem}.{func.name}"
            for func in ast.walk(tree)
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(func)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and _is_int_constant(node.value):
                caps |= {
                    path.stem
                    for t in node.targets
                    if isinstance(t, ast.Name) and t.id.endswith("_CAP")
                }
            elif isinstance(node, ast.ClassDef) and node.name == "CapExceeded":
                classes.append(path.stem)
            elif isinstance(node, ast.Raise) and any(
                isinstance(n, ast.Name) and n.id == "CapExceeded" for n in ast.walk(node)
            ):
                raises.append(owner.get(id(node), path.stem))
    assert caps == {"coefficients"}, caps
    assert classes == ["coefficients"], classes
    assert raises == ["coefficients._check_cap"], raises


def _builds_a_bounded_number(node: ast.AST) -> bool:
    """``node`` reads ``_check_perm``, ``pow``, ``math.perm``, ``math.comb``
    or ``math.factorial``, or raises a value that is not a literal to a
    power; ``2 ** (len(generators) + 1)`` and ``10**7`` stay legal."""
    if isinstance(node, ast.Name):
        return node.id in {"_check_perm", "pow"}
    if isinstance(node, ast.Attribute):
        return node.attr == "_check_perm" or (
            node.attr in {"perm", "comb", "factorial"}
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
        )
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        return not isinstance(node.left, ast.Constant)
    return isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Pow)


def test_only_coefficients_builds_bounded_numbers():
    # The bit cap refuses a product before it is built, so every such
    # product is built in ``coefficients``, behind the check: elsewhere
    # through ``falling_factorial``, ``_power`` or ``total_outcomes``.
    sites = [
        f"{path.name}:{node.lineno}"
        for path in MODULES
        if path.stem != "coefficients"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if _builds_a_bounded_number(node)
    ]
    assert not sites, f"bounded numbers built outside coefficients at {sites}"


# The checks, and the builders that check before they build.
CHECKS = {
    "_check_cap", "_check_perm", "_power", "falling_factorial", "total_outcomes",
    "g_total_outcomes",
}
COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _repeated(node: ast.AST) -> list[ast.AST]:
    """The parts of ``node`` that run once a pass, if it is a loop."""
    if isinstance(node, (ast.For, ast.AsyncFor)):
        return node.body
    if isinstance(node, ast.While):
        return [node.test, *node.body]
    return [node] if isinstance(node, COMPREHENSIONS) else []


def test_no_check_runs_in_a_loop():
    # A cap refuses before the work it bounds: a check in a loop refuses,
    # if at all, after the passes before it have done their work, and it
    # bounds one pass, not their sum.
    sites = sorted({
        f"{path.name}:{call.lineno}"
        for path in MODULES
        for loop in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        for part in _repeated(loop)
        for call in ast.walk(part)
        if isinstance(call, ast.Call)
        and getattr(call.func, "id", getattr(call.func, "attr", None)) in CHECKS
    })
    assert not sites, f"checks run in a loop at {sites}"
