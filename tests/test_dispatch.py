"""Frame and error-definition decisions are made in one place: ``Variant``.

Everything else asks the variant's flags (``is_right``, ``inverts_true``,
``aux_velocity``, ``invariant_update``) or its chart (``variant.chart``), so
a new decision cannot grow another string chain. The dispatch scan parses
the package source; it does not import it. So do the caller scans: every
public function, class and method and every private module-level function
has a caller in the library, and helpers only the tests need live in
``tests/oracles.py``.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from liese_nav import cli
from liese_nav.errormodels import (
    ERROR_DEFS, FRAMES, measurement_left_invariant, supported_variants,
)
from liese_nav.errors import IncompatibleMode

SRC = Path(__file__).resolve().parents[1] / "src" / "liese_nav"


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
    # none at all: even the invariant update's LeftEst rule is a Variant
    # property (``invariant_update``)
    sites = dispatch_sites()
    assert sites == [], f"dispatch outside Variant: {sites}"


def test_invariant_update_rule_keeps_both_callers_messages():
    # the CLI's mode check and the body-frame measurement read one property
    # and raise their own messages for every variant without a LeftEst error
    trajectory = {
        "kind": "circle", "origin_lat_rad": 0.7, "origin_lon_rad": 0.2,
        "origin_h_m": 100.0, "speed_m_s": 15.0,
    }
    for variant in supported_variants():
        cfg = cli.ScenarioConfig(
            trajectory=trajectory,
            mode="invariant",
            variant={
                "frame": variant.frame,
                "error_def": variant.error_def,
                "mems_simplified": variant.mems_simplified,
            },
        )
        if variant.error_def == "LeftEst":
            assert cli.build_scenario(cfg)[1] == variant
            continue
        with pytest.raises(IncompatibleMode) as exc:
            cli.build_scenario(cfg)
        assert str(exc.value) == (
            "invariant mode requires the LeftEst error definition, got "
            f"{variant.name}"
        )
        with pytest.raises(IncompatibleMode) as exc:
            measurement_left_invariant(variant, None, np.zeros(3))
        assert str(exc.value) == (
            "left-invariant measurement requires the LeftEst error definition"
        )


# public names with no caller in the library, each with its reason
UNCALLED_PUBLIC = {
    "cli.cmd_run": "the `liese-nav run` command, dispatched by click",
    "cli.cmd_simulate": "the `liese-nav simulate` command, dispatched by click",
    "cli.cmd_compare": "the `liese-nav compare` command, dispatched by click",
    "errormodels.supported_variants": "the list of runnable variants, the "
    "package's public catalogue (README)",
    "simulator.TruthGenerator.state_ecef": "perfbench/tracing.py counts truth "
    "state calls through it, looked up by getattr",
}


def public_definitions(tree):
    """(qualified name, node) of every public module-level function and class
    and every public method of such a class."""
    out = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            out.append((node.name, node))
        if isinstance(node, ast.ClassDef):
            out += [
                (f"{node.name}.{sub.name}", sub)
                for sub in node.body
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_")
            ]
    return out


def _mention(node):
    """The name a Name, an Attribute or an imported alias refers to."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name.rpartition(".")[2]
    return None


def private_functions(tree):
    """(name, node) of every private module-level function."""
    return [
        (node.name, node)
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
    ]


def uncalled_names(definitions):
    """The definitions (``public_definitions`` or ``private_functions``)
    whose name the package source mentions nowhere outside their own body."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    mentions = {}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            name = _mention(node)
            if name is not None:
                mentions.setdefault(name, []).append((module, node.lineno))
    uncalled = []
    for module, tree in trees.items():
        for qualname, node in definitions(tree):
            outside = [
                (m, line) for m, line in mentions.get(node.name, [])
                if not (m == module and node.lineno <= line <= node.end_lineno)
            ]
            if not outside:
                uncalled.append(f"{module}.{qualname}")
    return uncalled


def test_every_public_name_has_a_caller_in_the_library():
    # a helper only the tests call belongs in tests/oracles.py; a listed
    # name that gains a caller leaves the list
    assert sorted(uncalled_names(public_definitions)) == sorted(UNCALLED_PUBLIC)


def test_every_private_function_has_a_caller_in_the_library():
    # a private helper that only the tests call (say, a formula's matrix
    # form kept beside the entries the library reads) belongs in the tests
    assert uncalled_names(private_functions) == []
