"""Property tests of the input boundary.

Any text handed to the three JSON loaders must either load or be refused
with ``MalformedInput`` or ``InvalidParameter``, also when it nests past
the recursion limit or holds an integer past the digit limit; through
``cli.main``, as an inline spec or an ``@path`` file, it must end with
exit code 0, 1 or 2 and never with an uncaught exception.  Documents
are drawn both at random and as a few random edits of valid documents, so
that most of them get past the first field checks.
"""

import copy
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vknots.algebra import FiniteQuandle, make_dihedral, quandle_from_json, quandle_to_json
from vknots.cli import main
from vknots.diagram import BUILDER_NAMES, VirtualDiagram, builder, parse_diagram, serialize_diagram
from vknots.errors import InvalidParameter, MalformedInput
from vknots.weights import Cocycle2, cocycle_from_json, cocycle_to_json, example_cocycle_r4

R3, R4 = make_dihedral(3), make_dihedral(4)

FIELDS = (
    "kind", "n", "table", "dihedral", "group", "m", "entries", "edges", "free_loops",
    "crossings", "type", "classical", "virtual", "sign", "chirality", "under_in",
    "over_in", "under_out", "over_out", "first_in", "first_out", "second_in", "second_out",
)

# small integers reach the range checks; the large ones reach the order bound
scalars = (
    st.none()
    | st.booleans()
    | st.integers(-3, 12)
    | st.sampled_from([1025, 20000, 2**64, -(2**64)])
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(FIELDS)
    | st.text(max_size=3)
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.sampled_from(FIELDS) | st.text(max_size=3), inner, max_size=5),
    max_leaves=12,
)

VALID_QUANDLES = [{"kind": "dihedral", "n": 4}, json.loads(quandle_to_json(R3))]
VALID_COCYCLES = [json.loads(cocycle_to_json(example_cocycle_r4()))]
VALID_DIAGRAMS = [json.loads(serialize_diagram(builder(name))) for name in BUILDER_NAMES]


def _slots(node):
    """Every (container, key) pair inside a JSON document."""
    if isinstance(node, dict):
        items = list(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node))
    else:
        return []
    out = []
    for key, value in items:
        out.append((node, key))
        out.extend(_slots(value))
    return out


DEEP = "[" * 100_000  # nested deeper than the interpreter's recursion limit
LONG_INT = "1" + "0" * 5000  # more digits than the interpreter converts to an int (4,300 by default)


@st.composite
def texts(draw, valid_docs):
    """Mostly a valid document with up to three values replaced or removed;
    sometimes any JSON value, or any text."""
    roll = draw(st.integers(0, 9))
    if roll == 0:
        return draw(st.text(max_size=30))
    if roll == 1:
        return json.dumps(draw(json_values))
    doc = copy.deepcopy(draw(st.sampled_from(valid_docs)))
    for _ in range(draw(st.integers(0, 3))):
        slots = _slots(doc)
        if not slots:
            break
        node, key = slots[draw(st.integers(0, len(slots) - 1))]
        if draw(st.booleans()):
            node[key] = draw(json_values)
        else:
            del node[key]
    return json.dumps(doc)


def _loads_or_refuses(load, text, kind):
    try:
        value = load(text)
    except (MalformedInput, InvalidParameter):
        return
    assert isinstance(value, kind)


def _exit_code(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse refuses a malformed command line
        return exc.code


@settings(max_examples=150, deadline=None)
@given(texts(VALID_QUANDLES))
@example(DEEP)
@example(LONG_INT)
def test_quandle_loader_loads_or_refuses(text):
    _loads_or_refuses(quandle_from_json, text, FiniteQuandle)


@settings(max_examples=150, deadline=None)
@given(texts(VALID_COCYCLES))
@example(DEEP)
@example(LONG_INT)
def test_cocycle_loader_loads_or_refuses(text):
    _loads_or_refuses(lambda t: cocycle_from_json(t, R4), text, Cocycle2)


@settings(max_examples=150, deadline=None)
@given(texts(VALID_DIAGRAMS))
@example(DEEP)
@example(LONG_INT)
def test_diagram_loader_loads_or_refuses(text):
    _loads_or_refuses(parse_diagram, text, VirtualDiagram)


COMMANDS = {
    "quandle": (["quandle", "check", "--quandle={}"], VALID_QUANDLES),
    "cocycle": (["cocycle", "check", "--quandle", "dihedral:4", "--cocycle={}"], VALID_COCYCLES),
    "diagram": (["diagram", "components", "--diagram={}"], VALID_DIAGRAMS),
}


def _argv(command, spec):
    return [arg.format(spec) if "{}" in arg else arg for arg in COMMANDS[command][0]]


@pytest.mark.parametrize("command", list(COMMANDS))
def test_cli_exit_codes_on_generated_specs(command, capsys):
    @settings(max_examples=50, deadline=None)
    @given(texts(COMMANDS[command][1]))
    @example(DEEP)
    @example(LONG_INT)
    def check(text):
        assert _exit_code(_argv(command, text)) in (0, 1, 2)
        capsys.readouterr()

    check()


@pytest.mark.parametrize("command", list(COMMANDS))
def test_cli_exit_codes_on_generated_files(command, capsys, tmp_path):
    path = tmp_path / "spec.json"

    @settings(max_examples=50, deadline=None)
    @given(texts(COMMANDS[command][1]).map(str.encode) | st.binary(max_size=30))
    @example(b"\xff\xfe{")  # not UTF-8
    def check(data):
        path.write_bytes(data)
        assert _exit_code(_argv(command, f"@{path}")) in (0, 1, 2)
        capsys.readouterr()

    check()
    assert _exit_code(_argv(command, f"@{tmp_path / 'missing.json'}")) == 2
    assert _exit_code(_argv(command, f"@{tmp_path}")) == 2
