import json

import pytest

from vknots.cli import main
from vknots.diagram import BUILDER_NAMES, builder, serialize_diagram


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
