"""Batch command-line front end with JSON input/output.

Exit codes: 0 on success, 1 when a requested check fails (invalid
quandle or cocycle, non-preserving automorphism, unstable fuzz), 2 on
usage errors including unparseable inputs and invalid diagrams.  All
output is exact; results go to stdout as one JSON document (or a bare
polynomial string for the invariant commands), diagnostics to stderr.

A ``color``, ``invariant`` or ``fuzz`` request reads every spec first,
exiting 2 on one it cannot read or on an ``--aut`` that names no
automorphism (the parser refuses any ``--aut`` to ``invariant z``, which
uses the identity), and hands the values to the library, whose one gate
refuses a table that is no quandle and a cocycle that fails a condition.
Two checks are the CLI's own.  ``quandle auts`` and the ``cocycle``
commands refuse a table that is no quandle, though the algebra answers on
any table.  ``_load_aut`` tests that a map is an automorphism so that its
refusal names the user's spec; ``cocycle preserves`` has no other test.
Every integer on the command line, in an option or in ``dihedral:N`` and
``inner:a``, is read by ``_int``: an optional '-' and ASCII digits, and
one past the interpreter's digit limit is refused without its value.
"""

from __future__ import annotations

import argparse
import json
import sys

from .algebra import (
    DEFAULT_AUT_SEARCH_BOUND,
    MAX_COCYCLE_BASIS_ORDER,
    QuandleMap,
    _check_length,
    automorphisms,
    check_quandle,
    inner_automorphism,
    is_automorphism,
    make_dihedral,
    quandle_from_json,
    validate_quandle,
)
from .errors import (
    InvalidParameter,
    MalformedInput,
    NotApplicable,
    PreconditionFailed,
    SearchBoundExceeded,
    WrongKind,
    load_json,
    too_many_digits,
)

# The other library modules are imported inside the handlers that call them,
# so that each process imports only what its command runs: `quandle` needs
# algebra alone, `cocycle` adds weights, `diagram` the diagram module, `color`
# the solver, `invariant` everything but moves, and `fuzz` everything.

_USAGE_ERRORS = (MalformedInput, InvalidParameter, NotApplicable, WrongKind, SearchBoundExceeded)


def _int(text: str) -> int:
    """The integer that an optional '-' and ASCII digits spell: ``int()``
    alone would take underscores, spaces, a '+' and non-ASCII digits.
    Anything else is a ValueError.  An integer past the interpreter's digit
    limit is an ``argparse.ArgumentTypeError`` in the words of
    ``errors.too_many_digits``, which argparse and ``main`` print as they
    are, without the value."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a decimal integer: {text!r}")
    try:
        return int(text)
    except ValueError:  # the spelling is checked: only the digit limit is left
        raise argparse.ArgumentTypeError(too_many_digits()) from None


_int.__name__ = "int"  # argparse names the type in its refusal: "invalid int value: ..."


def _read_spec(spec: str) -> str:
    if spec.startswith("@"):
        try:
            with open(spec[1:], "r", encoding="utf-8") as fh:
                return fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise MalformedInput(f"cannot read {spec[1:]}: {exc}") from exc
    return spec


def _load_quandle(spec: str):
    if spec.startswith("dihedral:"):
        try:
            n = _int(spec.split(":", 1)[1])
        except ValueError as exc:
            raise MalformedInput(f"bad dihedral order in {spec!r}") from exc
        return make_dihedral(n)
    return quandle_from_json(_read_spec(spec))


def _load_diagram(spec: str):
    from . import diagram

    if spec.replace("_", "").isalnum():  # a name; never @file or JSON
        return diagram.builder(spec)
    return diagram.parse_diagram(_read_spec(spec))


def _load_cocycle(spec: str, q):
    from . import weights

    if spec == "example-r4":
        c = weights.example_cocycle_r4()
        if c.quandle != q:
            raise InvalidParameter("example-r4 lives on the dihedral quandle of order 4")
        return c
    if spec == "trivial":
        return weights.trivial_cocycle(q)
    return weights.cocycle_from_json(_read_spec(spec), q)


def _load_aut(spec: str, q) -> QuandleMap:
    if spec == "identity":
        return QuandleMap.identity(q.order)
    if spec.startswith("inner:"):
        try:
            return inner_automorphism(q, _int(spec.split(":", 1)[1]))
        except ValueError as exc:
            raise InvalidParameter(f"bad element in {spec!r}") from exc
    images = load_json(_read_spec(spec), "automorphism spec", spec)
    if not (isinstance(images, list) and all(type(x) is int for x in images)):
        raise MalformedInput("automorphism JSON must be a list of integers")
    _check_length(q, images)  # in is_automorphism's words, before QuandleMap refuses an image outside 0..n-1
    m = QuandleMap(images) if set(images) <= set(range(q.order)) else None
    if m is None or not is_automorphism(q, m):
        raise InvalidParameter(f"{spec!r} is not an automorphism of the quandle")
    return m


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, separators=(",", ":")) + "\n")


def _report(report, rule: str) -> int:
    """Print a check report, naming the failing ``rule`` and its witness; exit 1 on a failure."""
    obj = {"valid": report.ok}
    if not report.ok:
        obj[rule] = getattr(report, rule)
        obj["witness"] = list(report.witness)
    _emit(obj)
    return 0 if report.ok else 1


def _cmd_quandle(args) -> int:
    q = make_dihedral(args.dihedral) if args.dihedral is not None else _load_quandle(args.quandle)
    if args.action == "check":
        return _report(validate_quandle(q), "axiom")
    # the search refuses orders above the bound itself, so only quandles it
    # would search are checked
    if q.order <= args.bound:
        check_quandle(q)
    auts = automorphisms(q, bound=args.bound)
    _emit({"count": len(auts), "automorphisms": [list(m.images) for m in auts]})
    return 0


def _cmd_cocycle(args) -> int:
    from . import weights

    q = _load_quandle(args.quandle)
    # the basis refuses orders above its bound itself, so only quandles it
    # would solve are checked
    if args.action != "basis" or q.order <= MAX_COCYCLE_BASIS_ORDER:
        check_quandle(q)
    if args.action == "coboundary":
        exps = load_json(_read_spec(args.psi), "psi")
        if not (isinstance(exps, list) and all(type(x) is int for x in exps)):
            raise MalformedInput("psi must be a list of integers")
        group = weights.CoefficientGroup(args.m)
        c = weights.coboundary(q, group, weights.Cochain1(group, tuple(exps)))
        sys.stdout.write(weights.cocycle_to_json(c) + "\n")
        return 0
    if args.action == "basis":
        basis = weights.cocycle_space_basis(q, args.m)
        _emit({"m": args.m, "count": len(basis), "basis": [json.loads(weights.cocycle_to_json(c)) for c in basis]})
        return 0
    c = _load_cocycle(args.cocycle, q)
    if args.action == "check":
        return _report(weights.validate_cocycle(c), "condition")
    if args.action == "preserves":
        f = _load_aut(args.aut, q)
        witness = weights.preservation_witness(f, c)
        obj = {"preserving": witness is None}
        if witness is not None:
            obj["witness"] = list(witness)
        _emit(obj)
        return 0 if witness is None else 1
    # cohomologous
    other = _load_cocycle(args.other, q)
    psi = weights.is_cohomologous(c, other)
    if psi is None:
        _emit({"cohomologous": False})
        return 1
    _emit({"cohomologous": True, "psi": list(psi.exponents)})
    return 0


def _cmd_diagram(args) -> int:
    from . import diagram

    if args.action == "build":
        d = diagram.builder(args.name)
        sys.stdout.write(diagram.serialize_diagram(d) + "\n")
        return 0
    d = _load_diagram(args.diagram)  # raises MalformedInput (exit 2) for an invalid diagram
    if args.action == "validate":
        _emit({"valid": True})
        return 0
    _emit({"components": diagram.component_count(d)})
    return 0


def _cmd_color(args) -> int:
    from . import solver

    d = _load_diagram(args.diagram)
    q = _load_quandle(args.quandle)
    f = _load_aut(args.aut, q)
    if args.action == "count":
        _emit({"count": solver.count_colorings(d, q, f)})
        return 0
    _emit([list(c) for c in solver.enumerate_colorings(d, q, f)])
    return 0


def _cmd_invariant(args) -> int:
    from . import invariants

    d = _load_diagram(args.diagram)
    q = _load_quandle(args.quandle)
    c = _load_cocycle(args.cocycle, q)
    f = _load_aut(args.aut, q) if args.aut else None
    result = invariants.compute_invariant(args.kind, d, q, c, f)
    if args.json:
        sys.stdout.write(result.to_json() + "\n")
    else:
        sys.stdout.write(str(result) + "\n")
    return 0


def _cmd_fuzz(args) -> int:
    from . import diagram, invariants, moves

    d = _load_diagram(args.diagram)
    q = _load_quandle(args.quandle)
    c = _load_cocycle(args.cocycle, q)
    f = _load_aut(args.aut, q)
    before = invariants.invariant_bundle(d, q, c, f)
    kinds = moves.CLASSICAL_KINDS if args.classical_only else None
    final, trace = moves.random_equivalent(
        d, args.seed, args.moves, allow_semi_virtual=not args.no_semi_virtual, kinds=kinds
    )
    report = diagram.validate_diagram(final)
    after = invariants.invariant_bundle(final, q, c, f)
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
    g.add_argument("--dihedral", type=_int, metavar="N")
    g.add_argument("--quandle", metavar="SPEC", help="dihedral:N, inline JSON, or @file")
    p.add_argument("--bound", type=_int, default=DEFAULT_AUT_SEARCH_BOUND, help="automorphism search bound")
    p.set_defaults(func=_cmd_quandle)

    p = sub.add_parser("cocycle", help="cocycle checks and constructions")
    p.add_argument("action", choices=("check", "coboundary", "basis", "preserves", "cohomologous"))
    p.add_argument("--quandle", required=True, metavar="SPEC")
    p.add_argument("--cocycle", metavar="SPEC", help="example-r4, trivial, inline JSON, or @file")
    p.add_argument("--other", metavar="SPEC", help="second cocycle for 'cohomologous'")
    p.add_argument("--aut", metavar="SPEC", help="identity, inner:a, JSON images, or @file")
    p.add_argument("--psi", metavar="JSON", help="cochain exponent list for 'coboundary'")
    p.add_argument("--m", type=_int, default=0, help="exponent modulus (0 = infinite)")
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
    p.add_argument("--moves", type=_int, default=100)
    p.add_argument("--seed", type=_int, default=0)
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
    if args.command == "invariant" and args.kind == "z" and args.aut:  # Z uses the identity twist
        parser.error("invariant z takes no --aut")
    if args.command == "invariant" and args.kind != "z" and not args.aut:
        parser.error(f"invariant {args.kind} needs --aut")
    try:
        return args.func(args)
    except PreconditionFailed as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except (*_USAGE_ERRORS, argparse.ArgumentTypeError) as exc:  # an ArgumentTypeError here is _int's
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
