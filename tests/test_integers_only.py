"""The invariants are exact: no module of the package computes with floats.

Every module under ``src/vknots`` is parsed and searched for a float (or
complex) literal, a ``float()`` call and a true division.  The one allowed
float is the fuzzer's coin flip ``rng.random() < 0.5``: it only draws a
move option, and changing it would change every seeded move trace.
"""

import ast
from pathlib import Path

import vknots

PACKAGE = Path(vknots.__file__).parent
ALLOWED = {("moves.py", "rng.random() < 0.5")}


def _float_uses(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            yield node
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            yield node


def _offenders():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in _float_uses(tree):
            # report a float literal by the comparison it sits in, so the
            # allowed coin flip is matched as a whole expression
            shown = parents.get(node) if isinstance(node, ast.Constant) else node
            if not isinstance(shown, ast.Compare):
                shown = node
            found.add((path.name, ast.unparse(shown)))
    return found


def test_no_float_arithmetic_in_the_package():
    assert _offenders() == ALLOWED


def test_the_check_sees_floats_and_divisions():
    snippet = "a = 0.5\nb = float(a)\nc = a / 2\nc /= 2\nd = 2 // 3\nif rng.random() < 0.5:\n    pass\n"
    assert len(list(_float_uses(ast.parse(snippet)))) == 5
