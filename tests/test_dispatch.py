"""Frame and error-definition decisions are made in one place: ``Variant``.

Everything else asks the variant's flags (``is_right``, ``inverts_true``,
``aux_velocity``) or its chart (``variant.chart``), so a new decision cannot
grow another string chain. The package source is parsed, not imported.
"""

import ast
from pathlib import Path

from liese_nav.errormodels import ERROR_DEFS, FRAMES

SRC = Path(__file__).resolve().parents[1] / "src" / "liese_nav"

# the invariant update is defined for LeftEst only; these input checks say so
ALLOWED = {
    ("cli.py", "build_scenario"),
    ("errormodels.py", "measurement_left_invariant"),
}


def _literals(node):
    """The string constants of a constant or of a tuple/list/set of them."""
    items = node.elts if isinstance(node, (ast.Tuple, ast.List, ast.Set)) else [node]
    return {i.value for i in items if isinstance(i, ast.Constant)}


def _kind(compare):
    """'frame', 'error_def' or None for one comparison node."""
    operands = [compare.left, *compare.comparators]
    attrs = {o.attr for o in operands if isinstance(o, ast.Attribute)}
    strings = set().union(*map(_literals, operands))
    if "frame" in attrs or strings & set(FRAMES):
        return "frame"
    if "error_def" in attrs or strings & set(ERROR_DEFS):
        return "error_def"
    return None


def dispatch_sites():
    """(file, enclosing class or function, kind, line) of every frame or
    error-definition comparison outside class Variant."""
    sites = []

    def visit(node, path, scope):
        if isinstance(node, ast.ClassDef) and node.name == "Variant":
            return
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and scope is None:
            scope = node.name
        if isinstance(node, ast.Compare) and _kind(node):
            sites.append((path.name, scope, _kind(node), node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, path, scope)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path, None)
    return sites


def test_no_frame_or_error_def_comparison_outside_variant():
    sites = dispatch_sites()
    stray = [s for s in sites if s[:2] not in ALLOWED]
    assert stray == [], f"dispatch outside Variant: {stray}"
    assert {s[:2] for s in sites} == ALLOWED
