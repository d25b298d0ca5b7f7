"""Batch command-line front end with JSON input/output.

Exit codes: 0 on success, 1 when a requested check fails (invalid
quandle/cocycle/diagram, unstable fuzz), 2 on usage errors including
unparseable inputs.  All output is exact; results go to stdout as one
JSON document (or a bare polynomial string for the invariant commands),
diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import diagram as diagram_mod
from . import moves as moves_mod
from .algebra import (
    QuandleMap,
    automorphisms,
    inner_automorphism,
    is_automorphism,
    make_dihedral,
    quandle_from_json,
    validate_quandle,
)
from .errors import (
    CeilingExceeded,
    InvalidParameter,
    MalformedInput,
    NotApplicable,
    PreconditionFailed,
    SearchBoundExceeded,
    WrongKind,
)
from .invariants import aut_sum_z3, compute_invariant, state_sum_z2, state_weight_z1
from .solver import count_colorings, enumerate_colorings
from .weights import (
    CoefficientGroup,
    Cochain1,
    cocycle_from_json,
    cocycle_to_json,
    coboundary,
    cocycle_space_basis,
    example_cocycle_r4,
    is_cohomologous,
    preservation_witness,
    trivial_cocycle,
    validate_cocycle,
)

_USAGE_ERRORS = (MalformedInput, InvalidParameter, NotApplicable, WrongKind, SearchBoundExceeded, CeilingExceeded)


class UsageError(Exception):
    pass


def _read_spec(spec: str) -> str:
    if spec.startswith("@"):
        try:
            with open(spec[1:], "r", encoding="utf-8") as fh:
                return fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read {spec[1:]}: {exc}") from exc
    return spec


def _load_quandle(spec: str):
    if spec.startswith("dihedral:"):
        try:
            return make_dihedral(int(spec.split(":", 1)[1]))
        except ValueError as exc:
            raise UsageError(f"bad dihedral order in {spec!r}") from exc
    return quandle_from_json(_read_spec(spec))


def _load_diagram(spec: str):
    if spec in diagram_mod.BUILDER_NAMES:
        return diagram_mod.builder(spec)
    if spec.replace("_", "").isalnum() and not spec.startswith("@"):
        raise UsageError(
            f"unknown diagram name {spec!r}; known: {', '.join(diagram_mod.BUILDER_NAMES)}"
        )
    return diagram_mod.parse_diagram(_read_spec(spec))


def _load_cocycle(spec: str, q):
    if spec == "example-r4":
        c = example_cocycle_r4()
        if c.quandle != q:
            raise UsageError("example-r4 lives on the dihedral quandle of order 4")
        return c
    if spec == "trivial":
        return trivial_cocycle(q)
    return cocycle_from_json(_read_spec(spec), q)


def _load_aut(spec: str, q) -> QuandleMap:
    if spec == "identity":
        return QuandleMap.identity(q.order)
    if spec.startswith("inner:"):
        try:
            return inner_automorphism(q, int(spec.split(":", 1)[1]))
        except ValueError as exc:
            raise UsageError(f"bad element in {spec!r}") from exc
    try:
        images = json.loads(_read_spec(spec))
    except json.JSONDecodeError as exc:
        raise UsageError(f"bad automorphism spec {spec!r}: {exc}") from exc
    if not (isinstance(images, list) and all(type(x) is int for x in images)):
        raise UsageError("automorphism JSON must be a list of integers")
    m = QuandleMap(tuple(images))
    if not is_automorphism(q, m):
        raise UsageError(f"{spec!r} is not an automorphism of the quandle")
    return m


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, separators=(",", ":")) + "\n")


def _cmd_quandle(args) -> int:
    q = make_dihedral(args.dihedral) if args.dihedral is not None else _load_quandle(args.quandle)
    if args.action == "check":
        report = validate_quandle(q)
        obj = {"valid": report.ok}
        if not report.ok:
            obj["axiom"] = report.axiom
            obj["witness"] = list(report.witness)
        _emit(obj)
        return 0 if report.ok else 1
    auts = automorphisms(q, bound=args.bound)
    _emit({"count": len(auts), "automorphisms": [list(m.images) for m in auts]})
    return 0


def _cmd_cocycle(args) -> int:
    q = _load_quandle(args.quandle)
    if args.action == "coboundary":
        try:
            exps = json.loads(_read_spec(args.psi))
        except json.JSONDecodeError as exc:
            raise UsageError(f"bad psi: {exc}") from exc
        if not (isinstance(exps, list) and all(type(x) is int for x in exps)):
            raise UsageError("psi must be a list of integers")
        group = CoefficientGroup(args.m)
        c = coboundary(q, group, Cochain1(group, tuple(exps)))
        sys.stdout.write(cocycle_to_json(c) + "\n")
        return 0
    if args.action == "basis":
        basis = cocycle_space_basis(q, args.m)
        _emit({"m": args.m, "count": len(basis), "basis": [json.loads(cocycle_to_json(c)) for c in basis]})
        return 0
    c = _load_cocycle(args.cocycle, q)
    if args.action == "check":
        report = validate_cocycle(c)
        obj = {"valid": report.ok}
        if not report.ok:
            obj["condition"] = report.condition
            obj["witness"] = list(report.witness)
        _emit(obj)
        return 0 if report.ok else 1
    if args.action == "preserves":
        f = _load_aut(args.aut, q)
        witness = preservation_witness(f, c)
        obj = {"preserving": witness is None}
        if witness is not None:
            obj["witness"] = list(witness)
        _emit(obj)
        return 0 if witness is None else 1
    # cohomologous
    other = _load_cocycle(args.other, q)
    psi = is_cohomologous(c, other)
    if psi is None:
        _emit({"cohomologous": False})
        return 1
    _emit({"cohomologous": True, "psi": list(psi.exponents)})
    return 0


def _cmd_diagram(args) -> int:
    if args.action == "build":
        d = diagram_mod.builder(args.name)
        sys.stdout.write(diagram_mod.serialize_diagram(d) + "\n")
        return 0
    d = _load_diagram(args.diagram)
    if args.action == "validate":
        report = diagram_mod.validate_diagram(d)
        obj = {"valid": report.ok}
        if not report.ok:
            obj["message"] = report.message
        _emit(obj)
        return 0 if report.ok else 1
    _emit({"components": diagram_mod.component_count(d)})
    return 0


def _cmd_color(args) -> int:
    d = _load_diagram(args.diagram)
    q = _load_quandle(args.quandle)
    f = _load_aut(args.aut, q)
    if args.action == "count":
        _emit({"count": count_colorings(d, q, f)})
        return 0
    _emit([list(c) for c in enumerate_colorings(d, q, f)])
    return 0


def _cmd_invariant(args) -> int:
    d = _load_diagram(args.diagram)
    q = _load_quandle(args.quandle)
    c = _load_cocycle(args.cocycle, q)
    f = _load_aut(args.aut, q) if args.aut else None
    result = compute_invariant(args.kind, d, q, c, f)
    if args.json:
        sys.stdout.write(result.to_json() + "\n")
    else:
        sys.stdout.write(str(result) + "\n")
    return 0


def _fuzz_bundle(d, q, c, f):
    bundle = {
        "colorings": count_colorings(d, q, f),
        "z1": state_weight_z1(d, q, c, f).exponent,
        "z3": aut_sum_z3(d, q, c).to_json_obj(),
    }
    if preservation_witness(f, c) is None:
        bundle["z2"] = state_sum_z2(d, q, c, f).to_json_obj()
    return bundle


def _cmd_fuzz(args) -> int:
    d = _load_diagram(args.diagram)
    q = _load_quandle(args.quandle)
    c = _load_cocycle(args.cocycle, q)
    f = _load_aut(args.aut, q)
    before = _fuzz_bundle(d, q, c, f)
    kinds = moves_mod.CLASSICAL_KINDS if args.classical_only else None
    final, trace = moves_mod.random_equivalent(
        d, args.seed, args.moves, allow_semi_virtual=not args.no_semi_virtual, kinds=kinds
    )
    report = diagram_mod.validate_diagram(final)
    after = _fuzz_bundle(final, q, c, f)
    stable = before == after and report.ok
    _emit(
        {
            "stable": stable,
            "seed": args.seed,
            "moves": len(trace),
            "edges_before": d.edges,
            "edges_after": final.edges,
            "before": before,
            "after": after,
            "trace": [r.to_json_obj() for r in trace],
        }
    )
    return 0 if stable else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vknots",
        description="Exact quandle 2-cocycle state sums of classical and virtual diagrams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("quandle", help="validate quandles, list automorphisms")
    p.add_argument("action", choices=("check", "auts"))
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--dihedral", type=int, metavar="N")
    g.add_argument("--quandle", metavar="SPEC", help="dihedral:N, inline JSON, or @file")
    p.add_argument("--bound", type=int, default=8, help="automorphism search bound")
    p.set_defaults(func=_cmd_quandle)

    p = sub.add_parser("cocycle", help="cocycle checks and constructions")
    p.add_argument("action", choices=("check", "coboundary", "basis", "preserves", "cohomologous"))
    p.add_argument("--quandle", required=True, metavar="SPEC")
    p.add_argument("--cocycle", metavar="SPEC", help="example-r4, trivial, inline JSON, or @file")
    p.add_argument("--other", metavar="SPEC", help="second cocycle for 'cohomologous'")
    p.add_argument("--aut", metavar="SPEC", help="identity, inner:a, JSON images, or @file")
    p.add_argument("--psi", metavar="JSON", help="cochain exponent list for 'coboundary'")
    p.add_argument("--m", type=int, default=0, help="exponent modulus (0 = infinite)")
    p.set_defaults(func=_cmd_cocycle)

    p = sub.add_parser("diagram", help="validate, build, inspect diagrams")
    p.add_argument("action", choices=("validate", "build", "components"))
    p.add_argument("--diagram", metavar="SPEC", help="builder name, inline JSON, or @file")
    p.add_argument("--name", metavar="NAME", help="builder name for 'build'")
    p.set_defaults(func=_cmd_diagram)

    p = sub.add_parser("color", help="enumerate or count colorings")
    p.add_argument("action", choices=("count", "list"))
    p.add_argument("--diagram", required=True, metavar="SPEC")
    p.add_argument("--quandle", required=True, metavar="SPEC")
    p.add_argument("--aut", default="identity", metavar="SPEC")
    p.set_defaults(func=_cmd_color)

    p = sub.add_parser("invariant", help="compute Z, Z1, Z2 or Z3")
    p.add_argument("kind", choices=("z", "z1", "z2", "z3"))
    p.add_argument("--diagram", required=True, metavar="SPEC")
    p.add_argument("--quandle", required=True, metavar="SPEC")
    p.add_argument("--cocycle", required=True, metavar="SPEC")
    p.add_argument("--aut", metavar="SPEC")
    p.add_argument("--json", action="store_true", help="emit the full JSON result")
    p.set_defaults(func=_cmd_invariant)

    p = sub.add_parser("fuzz", help="random move sequences with invariant comparison")
    p.add_argument("--diagram", required=True, metavar="SPEC")
    p.add_argument("--quandle", required=True, metavar="SPEC")
    p.add_argument("--cocycle", required=True, metavar="SPEC")
    p.add_argument("--aut", required=True, metavar="SPEC")
    p.add_argument("--moves", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-semi-virtual", action="store_true")
    p.add_argument("--classical-only", action="store_true")
    p.set_defaults(func=_cmd_fuzz)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "diagram":
        if args.action == "build" and not args.name:
            parser.error("diagram build needs --name")
        if args.action != "build" and not args.diagram:
            parser.error(f"diagram {args.action} needs --diagram")
    if args.command == "cocycle":
        needs_cocycle = args.action in ("check", "preserves", "cohomologous")
        if needs_cocycle and not args.cocycle:
            parser.error(f"cocycle {args.action} needs --cocycle")
        if args.action == "preserves" and not args.aut:
            parser.error("cocycle preserves needs --aut")
        if args.action == "cohomologous" and not args.other:
            parser.error("cocycle cohomologous needs --other")
        if args.action == "coboundary" and not args.psi:
            parser.error("cocycle coboundary needs --psi")
        if args.action == "basis" and args.m < 2:
            parser.error("cocycle basis needs --m >= 2")
    if args.command == "invariant" and args.kind != "z" and not args.aut:
        parser.error(f"invariant {args.kind} needs --aut")
    try:
        return args.func(args)
    except PreconditionFailed as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except (UsageError, *_USAGE_ERRORS) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
