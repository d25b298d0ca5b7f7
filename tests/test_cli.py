import json
import sys

import pytest

from vknots.algebra import validate_quandle
from vknots.cli import main
from vknots.diagram import BUILDER_NAMES, builder, serialize_diagram
from vknots.weights import validate_cocycle


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_quandle_check_dihedral(capsys):
    code, out, _ = run(capsys, "quandle", "check", "--dihedral", "4")
    assert code == 0
    assert out == '{"valid":true}\n'


def test_quandle_check_invalid_table(capsys):
    code, out, _ = run(capsys, "quandle", "check", "--quandle", '{"kind":"table","table":[[0,1],[0,1]]}')
    assert code == 1
    obj = json.loads(out)
    assert obj["valid"] is False and obj["axiom"] == 2


def test_quandle_auts(capsys):
    code, out, _ = run(capsys, "quandle", "auts", "--dihedral", "4")
    assert code == 0
    obj = json.loads(out)
    assert obj["count"] == 8
    assert [0, 3, 2, 1] in obj["automorphisms"]


def test_cocycle_check_and_preserves(capsys):
    code, out, _ = run(capsys, "cocycle", "check", "--quandle", "dihedral:4", "--cocycle", "example-r4")
    assert code == 0 and json.loads(out)["valid"] is True
    code, out, _ = run(
        capsys, "cocycle", "preserves", "--quandle", "dihedral:4", "--cocycle", "example-r4", "--aut", "inner:0"
    )
    assert code == 0 and json.loads(out)["preserving"] is True
    code, out, _ = run(
        capsys, "cocycle", "preserves", "--quandle", "dihedral:4", "--cocycle", "example-r4", "--aut", "[1,2,3,0]"
    )
    assert code == 1
    assert json.loads(out)["witness"] == [0, 1]


def test_cocycle_coboundary_and_cohomologous(capsys):
    code, out, _ = run(
        capsys, "cocycle", "coboundary", "--quandle", "dihedral:4", "--psi", "[1,0,0,0]"
    )
    assert code == 0
    obj = json.loads(out)
    assert [0, 1, 1] in obj["entries"]
    code, out, _ = run(
        capsys,
        "cocycle",
        "cohomologous",
        "--quandle",
        "dihedral:4",
        "--cocycle",
        "example-r4",
        "--other",
        "trivial",
    )
    assert code == 1 and json.loads(out)["cohomologous"] is False
    code, out, _ = run(
        capsys, "cocycle", "cohomologous", "--quandle", "dihedral:4", "--cocycle", "example-r4", "--other", "example-r4"
    )
    assert code == 0 and json.loads(out)["cohomologous"] is True


def test_cocycle_basis(capsys):
    code, out, _ = run(capsys, "cocycle", "basis", "--quandle", "dihedral:4", "--m", "2")
    assert code == 0
    obj = json.loads(out)
    assert obj["m"] == 2 and obj["count"] == len(obj["basis"]) > 0


def test_diagram_build_validate_components(capsys):
    for name in BUILDER_NAMES:
        code, out, _ = run(capsys, "diagram", "build", "--name", name)
        assert code == 0
        assert out.strip() == serialize_diagram(builder(name))
    code, out, _ = run(capsys, "diagram", "validate", "--diagram", "kishino")
    assert code == 0 and json.loads(out)["valid"] is True
    code, out, _ = run(capsys, "diagram", "components", "--diagram", "hopf_pos")
    assert json.loads(out)["components"] == 2
    text = serialize_diagram(builder("trefoil"))
    code, out, _ = run(capsys, "diagram", "components", "--diagram", text)
    assert json.loads(out)["components"] == 1


def test_color_count_and_list(capsys):
    code, out, _ = run(
        capsys, "color", "count", "--diagram", "trefoil", "--quandle", "dihedral:3", "--aut", "identity"
    )
    assert code == 0 and json.loads(out)["count"] == 9
    code, out, _ = run(
        capsys, "color", "list", "--diagram", "unknot_kink_pos", "--quandle", "dihedral:3"
    )
    assert json.loads(out) == [[0, 0], [1, 1], [2, 2]]


def test_invariant_commands(capsys):
    code, out, _ = run(
        capsys,
        "invariant",
        "z2",
        "--diagram",
        "unknot",
        "--quandle",
        "dihedral:4",
        "--cocycle",
        "example-r4",
        "--aut",
        "inner:0",
    )
    assert code == 0 and out == "4\n"
    code, out, _ = run(
        capsys,
        "invariant",
        "z3",
        "--diagram",
        "virtual_trefoil",
        "--quandle",
        "dihedral:4",
        "--cocycle",
        "example-r4",
        "--aut",
        "inner:0",
        "--json",
    )
    assert json.loads(out)["polynomial"] == [[0, 4], [2, 4]]
    code, out, err = run(
        capsys,
        "invariant",
        "z2",
        "--diagram",
        "virtual_trefoil",
        "--quandle",
        "dihedral:4",
        "--cocycle",
        "example-r4",
        "--aut",
        "[1,2,3,0]",
    )
    assert code == 1 and "preserve" in err


def test_invariant_z_rejects_virtual(capsys):
    code, _, err = run(
        capsys,
        "invariant",
        "z",
        "--diagram",
        "virtual_trefoil",
        "--quandle",
        "dihedral:4",
        "--cocycle",
        "example-r4",
    )
    assert code == 2 and "Z2" in err


def test_fuzz_stable_and_deterministic(capsys):
    argv = (
        "fuzz",
        "--diagram",
        "virtual_trefoil",
        "--quandle",
        "dihedral:4",
        "--cocycle",
        "example-r4",
        "--aut",
        "inner:0",
        "--moves",
        "200",
        "--seed",
        "7",
    )
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2  # byte identical
    obj = json.loads(out1)
    assert obj["stable"] is True and obj["moves"] == 200
    assert obj["before"] == obj["after"]
    assert all(set(rec) == {"kind", "site"} for rec in obj["trace"])


_FUZZ_FLAGS = ("fuzz", "--diagram", "virtual_trefoil", "--quandle", "dihedral:4", "--cocycle", "example-r4",
               "--aut", "inner:0", "--moves", "120")
# without a flag, the traces of these seeds hold both virtual moves and
# semi-virtual slides, so each flag has something to exclude
_FUZZ_SEEDS = (3, 7, 9, 10)


@pytest.mark.parametrize("seed", _FUZZ_SEEDS)
def test_fuzz_classical_only_draws_classical_moves(capsys, seed):
    from vknots.moves import CLASSICAL_KINDS

    code, out, _ = run(capsys, *_FUZZ_FLAGS, "--seed", str(seed), "--classical-only")
    obj = json.loads(out)
    assert code == 0 and obj["stable"] is True
    assert obj["trace"] and all(rec["kind"] in CLASSICAL_KINDS for rec in obj["trace"])


@pytest.mark.parametrize("seed", _FUZZ_SEEDS)
def test_fuzz_no_semi_virtual_draws_no_classical_slide(capsys, seed):
    code, out, _ = run(capsys, *_FUZZ_FLAGS, "--seed", str(seed), "--no-semi-virtual")
    obj = json.loads(out)
    assert code == 0 and obj["stable"] is True
    detours = [rec["site"] for rec in obj["trace"] if rec["kind"] == "detour"]
    assert detours
    # a slide with two passages is the semi-virtual family
    assert all(len(site["passages"]) != 2 for site in detours if site["start"] != site["end"])


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["quandle"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, _, err = run(capsys, "quandle", "check", "--quandle", "not json")
    assert code == 2 and err.startswith("error:")
    code, _, err = run(capsys, "diagram", "validate", "--diagram", '{"edges":1,"free_loops":0,"crossings":[]}')
    assert code == 2
    with pytest.raises(SystemExit) as exc:
        main(["diagram", "build"])
    assert exc.value.code == 2
    capsys.readouterr()


# each command missing an option it needs is refused by the parser
MISSING_OPTIONS = {
    "diagram-validate": (["diagram", "validate"], "diagram validate needs --diagram"),
    "cocycle-check": (["cocycle", "check", "--quandle", "dihedral:4"], "cocycle check needs --cocycle"),
    "cocycle-preserves": (["cocycle", "preserves", "--quandle", "dihedral:4", "--cocycle", "trivial"], "needs --aut"),
    "cocycle-cohomologous": (["cocycle", "cohomologous", "--quandle", "dihedral:4", "--cocycle", "trivial"], "needs --other"),
    "cocycle-coboundary": (["cocycle", "coboundary", "--quandle", "dihedral:4"], "needs --psi"),
    "cocycle-basis": (["cocycle", "basis", "--quandle", "dihedral:4", "--m", "1"], "needs --m >= 2"),
    "invariant-z1": (
        ["invariant", "z1", "--diagram", "trefoil", "--quandle", "dihedral:4", "--cocycle", "trivial"],
        "invariant z1 needs --aut",
    ),
}


@pytest.mark.parametrize("argv, message", list(MISSING_OPTIONS.values()), ids=list(MISSING_OPTIONS))
def test_a_missing_option_is_a_parser_error(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


# Z ignores the twist map, so the parser refuses one, valid or not, before
# any map is read or tested
@pytest.mark.parametrize("spec", ["identity", "[0,3,2,1]", "[1,1]"])
def test_invariant_z_takes_no_aut(capsys, spec):
    with pytest.raises(SystemExit) as exc:
        main([*_Z_TREFOIL, "trivial", "--aut", spec])
    assert exc.value.code == 2
    assert "invariant z takes no --aut" in capsys.readouterr().err


def test_unknown_builder_is_usage_error(capsys):
    code, _, err = run(capsys, "diagram", "components", "--diagram", "borromean")
    assert code == 2
    assert "unknown" in err


def _diagram_with(edit):
    obj = json.loads(serialize_diagram(builder("virtual_trefoil")))
    edit(obj)
    return json.dumps(obj)


def _cocycle(m=0, entries=()):
    return json.dumps({"group": {"m": m}, "entries": list(entries)})


_Z_TREFOIL = ("invariant", "z", "--diagram", "trefoil", "--quandle", "dihedral:4", "--cocycle")

# Each input was accepted (or crashed with a traceback) when a bool, float
# or str stood where an integer belongs; each must now be a usage error.
NON_INTEGER_INPUTS = {
    "dihedral-n-bool": ("quandle", "check", "--quandle", '{"kind":"dihedral","n":true}'),
    "table-entry-bool": ("quandle", "check", "--quandle", '{"kind":"table","table":[[false,false],[true,true]]}'),
    "table-not-rows": ("quandle", "check", "--quandle", '{"kind":"table","table":5}'),
    "cocycle-exponent-float": _Z_TREFOIL + (_cocycle(entries=[[0, 1, 1.5]]),),
    "cocycle-exponent-bool": _Z_TREFOIL + (_cocycle(entries=[[0, 1, True]]),),
    "cocycle-m-str": _Z_TREFOIL + (_cocycle(m="3"),),
    "cocycle-m-bool": _Z_TREFOIL + (_cocycle(m=True),),
    "cocycle-index-bool": _Z_TREFOIL + (_cocycle(entries=[[True, 1, 1]]),),
    "cocycle-index-str": _Z_TREFOIL + (_cocycle(entries=[["0", 1, 1]]),),
    "cocycle-entries-not-list": _Z_TREFOIL + ('{"group":{"m":0},"entries":5}',),
    "diagram-sign-bool": ("diagram", "validate", "--diagram", _diagram_with(lambda o: o["crossings"][0].update(sign=True))),
    "diagram-sign-float": ("diagram", "validate", "--diagram", _diagram_with(lambda o: o["crossings"][0].update(sign=1.0))),
    "diagram-chirality-float": ("diagram", "validate", "--diagram", _diagram_with(lambda o: o["crossings"][2].update(chirality=1.0))),
    "diagram-free-loops-bool": ("diagram", "validate", "--diagram", _diagram_with(lambda o: o.update(free_loops=True))),
    "diagram-edges-str": ("diagram", "validate", "--diagram", _diagram_with(lambda o: o.update(edges="6"))),
    "diagram-edges-float": ("diagram", "validate", "--diagram", _diagram_with(lambda o: o.update(edges=6.0))),
    "diagram-label-bool": ("diagram", "validate", "--diagram", _diagram_with(lambda o: o["crossings"][0].update(under_out=True))),
    "diagram-crossings-not-list": ("diagram", "validate", "--diagram", '{"edges":0,"free_loops":0,"crossings":5}'),
    "psi-float": ("cocycle", "coboundary", "--quandle", "dihedral:4", "--psi", "[1.5,0,0,0]"),
    "aut-bool": ("color", "count", "--diagram", "trefoil", "--quandle", "dihedral:2", "--aut", "[false,true]"),
}


@pytest.mark.parametrize("argv", list(NON_INTEGER_INPUTS.values()), ids=list(NON_INTEGER_INPUTS))
def test_non_integer_inputs_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


# An integer literal with more digits than the interpreter converts raises a
# plain ValueError inside json.loads, which was a traceback and exit 1; in
# dihedral:N and inner:a the refusal echoed all 5,001 digits.
_LONG_INT = "1" + "0" * 5000
LONG_INT_INPUTS = {
    "dihedral-spec": ("quandle", "check", "--quandle", "dihedral:" + _LONG_INT),
    "inner-spec": ("color", "count", "--diagram", "trefoil", "--quandle", "dihedral:3", "--aut", "inner:" + _LONG_INT),
    "aut": ("color", "count", "--diagram", "trefoil", "--quandle", "dihedral:3", "--aut", _LONG_INT),
    "psi": ("cocycle", "coboundary", "--quandle", "dihedral:4", "--psi", _LONG_INT),
    "quandle-json": ("quandle", "check", "--quandle", '{"kind":"dihedral","n":' + _LONG_INT + "}"),
    "cocycle-json": _Z_TREFOIL + ('{"group":{"m":' + _LONG_INT + '},"entries":[]}',),
    "diagram-json": ("diagram", "validate", "--diagram", '{"edges":' + _LONG_INT + ',"free_loops":0,"crossings":[]}'),
}


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int digit limit")
@pytest.mark.parametrize("argv", list(LONG_INT_INPUTS.values()), ids=list(LONG_INT_INPUTS))
def test_integer_past_the_digit_limit_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err
    # one short line: neither the 5,001 digits nor the interpreter's advice
    assert err.count("\n") == 1 and err.endswith("\n") and len(err) < 200
    assert "set_int_max_str_digits" not in err


# Each spelling of a dihedral order above the maximum is refused before the
# n x n table is built (order 20000 would ask for about 15 GB).
OVERSIZED_DIHEDRAL = {
    "dihedral-flag": ("quandle", "check", "--dihedral", "1025"),
    "dihedral-spec": ("color", "count", "--diagram", "trefoil", "--quandle", "dihedral:20000"),
    "dihedral-json": ("cocycle", "basis", "--quandle", '{"kind":"dihedral","n":1025}', "--m", "2"),
}


@pytest.mark.parametrize("argv", list(OVERSIZED_DIHEDRAL.values()), ids=list(OVERSIZED_DIHEDRAL))
def test_oversized_dihedral_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "exceeds the maximum 1024" in err


# cocycle basis costs about n^7 (over a second at order 13); every spelling
# of a larger order is refused before any condition row is built, and a
# table before its O(n^3) axiom check.
_TABLE_13 = json.dumps({"kind": "table", "table": [[0] * 13 for _ in range(13)]})  # not a quandle
OVERSIZED_BASIS = {
    "dihedral-13": (("cocycle", "basis", "--quandle", "dihedral:13", "--m", "2"), 13),
    "dihedral-1024": (("cocycle", "basis", "--quandle", "dihedral:1024", "--m", "2"), 1024),
    "table-13": (("cocycle", "basis", "--quandle", _TABLE_13, "--m", "2"), 13),
}


@pytest.mark.parametrize("argv, order", list(OVERSIZED_BASIS.values()), ids=list(OVERSIZED_BASIS))
def test_oversized_cocycle_basis_is_usage_error(capsys, monkeypatch, argv, order):
    def refused(*args):
        raise AssertionError("an oversized basis request reached the axiom check or the solver")

    monkeypatch.setattr("vknots.algebra.validate_quandle", refused)
    monkeypatch.setattr("vknots.intlin.kernel_mod", refused)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: order {order} exceeds the cocycle basis bound 12\n"


# Each free loop multiplies the count by the quandle order; 3^10000 has more
# digits than Python prints, which was a traceback before the bound.
MANY_FREE_LOOPS = '{"edges":0,"free_loops":10000,"crossings":[]}'


@pytest.mark.parametrize(
    "argv",
    [
        ("color", "count", "--diagram", MANY_FREE_LOOPS, "--quandle", "dihedral:3"),
        ("invariant", "z", "--diagram", MANY_FREE_LOOPS, "--quandle", "dihedral:3", "--cocycle", "trivial"),
    ],
    ids=["color-count", "invariant-z"],
)
def test_too_many_free_loops_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "exceeds the maximum 1024" in err and "Traceback" not in err


def test_free_loops_at_the_bound_are_counted(capsys):
    diagram = '{"edges":0,"free_loops":1024,"crossings":[]}'
    code, out, _ = run(capsys, "color", "count", "--diagram", diagram, "--quandle", "dihedral:3")
    assert code == 0 and json.loads(out)["count"] == 3**1024


_NOT_A_QUANDLE = '{"kind":"table","table":[[0,1],[0,1]]}'  # axiom 2 fails at column 0
_NOT_A_COCYCLE = _cocycle(entries=[[0, 0, 1]])  # condition 1 fails at 0

# The axioms are checked before anything is computed from the inputs.
# Without that check, color and invariant answer these with exit 0 and
# fuzz prints a trace it calls unstable, blaming the moves for the input.
INVALID_ALGEBRA = {
    "auts-not-quandle": (("quandle", "auts", "--quandle", _NOT_A_QUANDLE), "axiom 2, witness [0]"),
    "cocycle-check-not-quandle": (
        ("cocycle", "check", "--quandle", _NOT_A_QUANDLE, "--cocycle", "trivial"),
        "axiom 2, witness [0]",
    ),
    "cocycle-basis-not-quandle": (("cocycle", "basis", "--quandle", _NOT_A_QUANDLE, "--m", "2"), "axiom 2, witness [0]"),
    "cocycle-coboundary-not-quandle": (
        ("cocycle", "coboundary", "--quandle", _NOT_A_QUANDLE, "--psi", "[0,0]"),
        "axiom 2, witness [0]",
    ),
    "color-not-quandle": (("color", "count", "--diagram", "trefoil", "--quandle", _NOT_A_QUANDLE), "axiom 2, witness [0]"),
    "invariant-not-quandle": (
        ("invariant", "z1", "--diagram", "trefoil", "--quandle", _NOT_A_QUANDLE, "--cocycle", "trivial", "--aut", "identity"),
        "axiom 2, witness [0]",
    ),
    "invariant-not-cocycle": (
        ("invariant", "z", "--diagram", "trefoil", "--quandle", "dihedral:3", "--cocycle", _NOT_A_COCYCLE),
        "condition 1, witness [0]",
    ),
    "fuzz-not-quandle": (
        ("fuzz", "--diagram", "trefoil", "--quandle", _NOT_A_QUANDLE, "--cocycle", "trivial", "--aut", "identity"),
        "axiom 2, witness [0]",
    ),
    "fuzz-not-cocycle": (
        ("fuzz", "--diagram", "trefoil", "--quandle", "dihedral:3", "--cocycle", _NOT_A_COCYCLE, "--aut", "identity"),
        "condition 1, witness [0]",
    ),
}


@pytest.mark.parametrize("argv, witness", list(INVALID_ALGEBRA.values()), ids=list(INVALID_ALGEBRA))
def test_invalid_algebra_fails_check_before_computing(capsys, argv, witness):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and witness in err and "Traceback" not in err


# color, invariant and fuzz leave the axioms and the conditions to the
# library's gate: the CLI's own check_quandle binding and weights.check_cocycle
# are not called, and the request exits 1 with the library's words.
LIBRARY_REFUSALS = {
    "color-not-quandle": INVALID_ALGEBRA["color-not-quandle"],
    "invariant-not-quandle": INVALID_ALGEBRA["invariant-not-quandle"],
    "fuzz-not-quandle": INVALID_ALGEBRA["fuzz-not-quandle"],
    "invariant-z1-not-cocycle": (
        ("invariant", "z1", "--diagram", "trefoil", "--quandle", "dihedral:3", "--cocycle", _NOT_A_COCYCLE, "--aut", "identity"),
        "condition 1, witness [0]",
    ),
    "fuzz-not-cocycle": INVALID_ALGEBRA["fuzz-not-cocycle"],
}


@pytest.mark.parametrize("argv, witness", list(LIBRARY_REFUSALS.values()), ids=list(LIBRARY_REFUSALS))
def test_the_library_gate_alone_refuses_the_algebra(capsys, monkeypatch, argv, witness):
    import vknots.cli as cli
    import vknots.invariants  # binds the unpatched check_cocycle before the patch
    import vknots.weights as weights

    calls = []
    check_quandle, check_cocycle = cli.check_quandle, weights.check_cocycle
    monkeypatch.setattr(cli, "check_quandle", lambda q: calls.append("quandle") or check_quandle(q))
    monkeypatch.setattr(weights, "check_cocycle", lambda c: calls.append("cocycle") or check_cocycle(c))
    what = "quandle" if "axiom" in witness else "cocycle"
    assert run(capsys, *argv) == (1, "", f"error: the {what} fails {witness}\n")
    assert calls == []


# A request with two faults: the CLI reads every spec before the library
# checks the algebra, so an unreadable spec or a map that is no automorphism
# exits 2, naming the spec, though the quandle or cocycle fails too.
TWO_FAULTS = {
    "color-aut-not-automorphism": (
        ("color", "count", "--diagram", "trefoil", "--quandle", _NOT_A_QUANDLE, "--aut", "[1,1]"),
        "error: '[1,1]' is not an automorphism of the quandle\n",
    ),
    "invariant-bad-cocycle-json": (
        ("invariant", "z1", "--diagram", "trefoil", "--quandle", _NOT_A_QUANDLE, "--cocycle", "{bad", "--aut", "identity"),
        "error: bad cocycle JSON: ",
    ),
    "fuzz-bad-inner-element": (
        ("fuzz", "--diagram", "trefoil", "--quandle", "dihedral:3", "--cocycle", _NOT_A_COCYCLE, "--aut", "inner:9"),
        "error: bad element in 'inner:9'\n",
    ),
}


@pytest.mark.parametrize("argv, words", list(TWO_FAULTS.values()), ids=list(TWO_FAULTS))
def test_a_spec_is_refused_before_the_algebra(capsys, argv, words):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "") and err.startswith(words)


def test_quandle_auts_refuses_orders_above_the_bound_before_the_axiom_check(capsys, monkeypatch):
    import vknots.algebra as algebra

    checked = []
    # FiniteQuandle.report calls algebra.validate_quandle
    monkeypatch.setattr(algebra, "validate_quandle", lambda q: checked.append(q.order) or validate_quandle(q))
    r9_table = json.dumps({"kind": "table", "table": [[(2 * j - i) % 9 for j in range(9)] for i in range(9)]})
    # an invalid table above the bound is refused by order too: exit 2, not 1
    for argv in (("--quandle", r9_table), ("--quandle", _NOT_A_QUANDLE, "--bound", "1")):
        code, out, err = run(capsys, "quandle", "auts", *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "exceeds automorphism search bound" in err and "Traceback" not in err
    assert checked == []
    code, _, err = run(capsys, "quandle", "auts", "--quandle", _NOT_A_QUANDLE)
    assert code == 1 and "axiom 2, witness [0]" in err and checked == [2]


def test_negative_move_count_is_usage_error(capsys):
    argv = ("fuzz", "--diagram", "trefoil", "--quandle", "dihedral:3", "--cocycle", "trivial", "--aut", "identity")
    code, out, err = run(capsys, *argv, "--moves", "-3")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "non-negative" in err and "Traceback" not in err
    code, out, _ = run(capsys, *argv, "--moves", "0")
    assert code == 0 and json.loads(out)["moves"] == 0


def test_built_in_algebra_skips_the_axiom_checks(capsys, monkeypatch):
    import vknots.algebra as algebra
    import vknots.weights as weights

    checked = []
    # FiniteQuandle.report and Cocycle2.report call the module-level validators
    monkeypatch.setattr(algebra, "validate_quandle", lambda q: checked.append("quandle") or validate_quandle(q))
    monkeypatch.setattr(weights, "validate_cocycle", lambda c: checked.append("cocycle") or validate_cocycle(c))
    r4_json = '{"kind":"dihedral","n":4}'  # make_dihedral builds it too
    for quandle in ("dihedral:4", r4_json):
        for cocycle in ("trivial", "example-r4"):
            code, _, _ = run(capsys, "invariant", "z", "--diagram", "trefoil", "--quandle", quandle, "--cocycle", cocycle)
            assert code == 0
    code, _, _ = run(capsys, "color", "count", "--diagram", "trefoil", "--quandle", "dihedral:3")
    assert code == 0
    for argv in (
        ("quandle", "auts", "--dihedral", "4"),
        ("quandle", "auts", "--quandle", "dihedral:4"),
        ("cocycle", "basis", "--quandle", "dihedral:4", "--m", "4"),
        ("quandle", "auts", "--quandle", r4_json),
        ("cocycle", "basis", "--quandle", r4_json, "--m", "4"),
        ("color", "count", "--diagram", "trefoil", "--quandle", r4_json),
        ("fuzz", "--diagram", "trefoil", "--quandle", r4_json, "--cocycle", "example-r4", "--aut", "identity", "--moves", "3"),
    ):
        code, _, _ = run(capsys, *argv)
        assert code == 0
    assert checked == []
    # table and JSON input is still checked
    r3_table = json.dumps({"kind": "table", "table": [[(2 * j - i) % 3 for j in range(3)] for i in range(3)]})
    code, _, _ = run(capsys, "invariant", "z", "--diagram", "trefoil", "--quandle", r3_table, "--cocycle", _cocycle(m=0))
    assert code == 0 and checked == ["quandle", "cocycle"]


# The exact words of refusals that a value's constructor or a shared helper
# makes: the table checks moved from make_from_table into FiniteQuandle, the
# move count's type check into one helper of vknots.errors, and a JSON
# record's edge labels into the record constructors.  The first four print
# what they printed before the move; the null edge printed Python's own
# comparison error ("crossings[0]: '>' not supported between instances of
# 'NoneType' and 'int'") and now names the label; a record that its
# constructor refuses is named, as the null edge and a bad sign show.
_NULL_EDGE = json.dumps(
    {
        "edges": 2,
        "free_loops": 0,
        "crossings": [{"type": "virtual", "first_in": None, "first_out": 1, "second_in": 1, "second_out": 0, "chirality": 1}],
    }
)
_BAD_SIGN = json.dumps(
    {
        "edges": 2,
        "free_loops": 0,
        "crossings": [{"type": "classical", "sign": 2, "under_in": 0, "over_in": 1, "under_out": 1, "over_out": 0}],
    }
)
MOVED_CHECKS = {
    "table-not-square": (
        ("quandle", "check", "--quandle", '{"kind":"table","table":[[0,1],[0]]}'),
        "error: operation table is not square\n",
    ),
    "table-entry-true": (
        ("quandle", "check", "--quandle", '{"kind":"table","table":[[0,true],[1,1]]}'),
        "error: table entry True is not an integer in 0..1\n",
    ),
    "dihedral-0": (
        ("color", "count", "--diagram", "trefoil", "--quandle", "dihedral:0"),
        "error: dihedral order must be a positive integer, got 0\n",
    ),
    "fuzz-moves-negative": (
        ("fuzz", "--diagram", "trefoil", "--quandle", "dihedral:4", "--cocycle", "example-r4", "--aut", "identity",
         "--moves", "-3"),
        "error: move count must be non-negative, got -3\n",
    ),
    "virtual-null-edge": (
        ("diagram", "validate", "--diagram", _NULL_EDGE),
        "error: crossings[0]: edge label must be an integer, got None\n",
    ),
    "classical-sign-2": (
        ("diagram", "validate", "--diagram", _BAD_SIGN),
        "error: crossings[0]: crossing sign must be +1 or -1, got 2\n",
    ),
}


@pytest.mark.parametrize("argv, message", list(MOVED_CHECKS.values()), ids=list(MOVED_CHECKS))
def test_the_words_of_a_moved_check_are_pinned(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", message)


# Every integer on the command line is an optional '-' and ASCII digits.
# int() took underscores, spaces, a '+' and non-ASCII digits, so each of these
# answered as if well formed (quandle auts --dihedral 0_3 listed the 6
# automorphisms of R3); each is refused in the words printed for 'x'.
_FUZZ_TREFOIL = ("fuzz", "--diagram", "trefoil", "--quandle", "dihedral:3", "--cocycle", "trivial", "--aut", "identity")
LOOSE_INTEGERS = {
    "dihedral-flag-x": (("quandle", "auts", "--dihedral", "x"), "argument --dihedral: invalid int value: 'x'\n"),
    "dihedral-flag-underscore": (("quandle", "auts", "--dihedral", "0_3"), "argument --dihedral: invalid int value: '0_3'\n"),
    "dihedral-spec-x": (("quandle", "check", "--quandle", "dihedral:x"), "error: bad dihedral order in 'dihedral:x'\n"),
    "dihedral-spec-arabic-indic": (("quandle", "check", "--quandle", "dihedral:٤"), "error: bad dihedral order in 'dihedral:٤'\n"),
    "dihedral-spec-underscore": (("quandle", "check", "--quandle", "dihedral:1_0"), "error: bad dihedral order in 'dihedral:1_0'\n"),
    "dihedral-spec-space": (("quandle", "check", "--quandle", "dihedral: 3"), "error: bad dihedral order in 'dihedral: 3'\n"),
    "m-plus": (("cocycle", "basis", "--quandle", "dihedral:3", "--m", "+3"), "argument --m: invalid int value: '+3'\n"),
    "bound-space": (("quandle", "auts", "--dihedral", "3", "--bound", " 8"), "argument --bound: invalid int value: ' 8'\n"),
    "inner-x": (
        ("color", "count", "--diagram", "trefoil", "--quandle", "dihedral:3", "--aut", "inner:x"),
        "error: bad element in 'inner:x'\n",
    ),
    "inner-underscore": (
        ("color", "count", "--diagram", "trefoil", "--quandle", "dihedral:3", "--aut", "inner:0_1"),
        "error: bad element in 'inner:0_1'\n",
    ),
    "moves-plus": ((*_FUZZ_TREFOIL, "--moves", "+1"), "argument --moves: invalid int value: '+1'\n"),
    "seed-fullwidth": ((*_FUZZ_TREFOIL, "--seed", "３"), "argument --seed: invalid int value: '３'\n"),
    "seed-minus-alone": ((*_FUZZ_TREFOIL, "--seed", "-"), "argument --seed: invalid int value: '-'\n"),
}


@pytest.mark.parametrize("argv, words", list(LOOSE_INTEGERS.values()), ids=list(LOOSE_INTEGERS))
def test_an_integer_is_an_optional_minus_and_ascii_digits(capsys, argv, words):
    if words.startswith("error:"):  # a spec, read by the handler
        assert run(capsys, *argv) == (2, "", words)
        return
    with pytest.raises(SystemExit) as exc:  # an option, read by the parser
        main(list(argv))
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "") and err.endswith(": error: " + words)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int digit limit")
def test_an_option_past_the_digit_limit_is_refused_without_its_value(capsys):
    # argparse's own words, "invalid int value: '...'", echoed all 5,001 digits
    with pytest.raises(SystemExit) as exc:
        main([*_FUZZ_TREFOIL, "--seed", _LONG_INT])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "") and len(err) < 300
    assert err.endswith(f": error: argument --seed: an integer has more than {sys.get_int_max_str_digits()} digits\n")


def test_plain_and_negative_integers_are_read(capsys):
    assert run(capsys, "quandle", "check", "--quandle", "dihedral:03") == (0, '{"valid":true}\n', "")
    code, out, _ = run(capsys, "color", "count", "--diagram", "trefoil", "--quandle", "dihedral:3", "--aut", "inner:0")
    assert (code, out) == (0, '{"count":9}\n')
    code, out, _ = run(capsys, *_FUZZ_TREFOIL, "--moves", "2", "--seed", "-7")
    assert code == 0 and json.loads(out)["seed"] == -7


def test_a_repeated_cocycle_entry_is_usage_error(capsys):
    # the later [0, 1, 0] dropped phi(0, 1) = t, and condition 2 failed at [0, 1, 0]
    repeated = _cocycle(entries=[[0, 1, 1], [0, 1, 0], [0, 3, 1]])
    assert run(capsys, "cocycle", "check", "--quandle", "dihedral:4", "--cocycle", repeated) == (
        2,
        "",
        "error: cocycle entry (0, 1) is given twice\n",
    )
