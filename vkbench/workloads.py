"""The three benchmark workloads: their inputs, their requests and their checks.

Every workload is a fixed list of requests made from the workload seed.
A request is a call into vknots plus the answer it must give; the
expected answers are computed before timing starts, from the library's
own public functions on inputs where they are known to agree (the source
corpus diagram of a move trace, the brute-force oracle, the library call
behind a CLI command).

Workload code calls vknots through module attributes (``solver.f``), so
the tracer's wrappers are picked up when they are installed.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from vknots import algebra, diagram, invariants, moves, solver, weights

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

# Ladder diagrams: (source, construction seed, moves, soft cap), one per
# size band E ~ 50, 100, 150.  The construction seeds are fixed because the
# search time of a random diagram of one size spans four orders of magnitude
# (10 ms to over 8 s on R4 at E ~ 150 for neighbouring seeds), so ladders
# drawn from the workload seed could not be compared run to run.  These
# three finish every order within the deadline at the seed commit, and the
# E = 102 diagram takes 3-5 s on R7, so the scale cliff shows.
LADDER = (
    ("trefoil", 7, 120, 50),
    ("figure_eight", 36, 250, 105),
    ("kishino", 49, 400, 160),
)
LADDER_ORDERS = (3, 4, 5, 7)
LADDER_TWISTS = ("identity", "inner:0")
LADDER_DEADLINE_S = 30.0

CERTIFY_MOVES = 200
CERTIFY_TWISTS = ("identity", "inner:0", "shift")
CERTIFY_TRACES = 5  # traces per corpus diagram in a pass, trace seeds 0..4
CERTIFY_DEADLINE_S = 30.0

CLI_REPS = 3  # repetitions of the command mix in a pass
CLI_DEADLINE_S = 30.0

TAMPERED = object()  # an expected answer no request can give


class RequestTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise RequestTimeout()


@dataclass
class Request:
    label: str
    call: Callable[[], object]
    expected: object
    check: Callable[[object, object], bool] = lambda answer, expected: answer == expected


@dataclass
class Outcome:
    label: str
    seconds: float
    status: str  # ok, wrong, timeout or error
    detail: str = ""
    scale: float = 1.0  # host-speed factor around the request (calibrate.py)


@dataclass
class Workload:
    name: str
    requests: list[Request]
    deadline_s: float
    inputs: dict = field(default_factory=dict)
    child_rss_kb: list[int] = field(default_factory=list)  # peak RSS of CLI children


def twist_map(q, spec: str):
    n = q.order
    if spec == "identity":
        return algebra.QuandleMap.identity(n)
    if spec == "inner:0":
        return algebra.inner_automorphism(q, 0)
    if spec == "shift":  # x -> x + 1, an automorphism of every dihedral quandle
        return algebra.QuandleMap(tuple((x + 1) % n for x in range(n)))
    raise ValueError(spec)


def diagram_record(d) -> dict:
    classical = sum(isinstance(c, diagram.ClassicalCrossing) for c in d.crossings)
    text = diagram.serialize_diagram(d)
    return {
        "edges": d.edges,
        "classical": classical,
        "virtual": len(d.crossings) - classical,
        "sha256": hashlib.sha256(text.encode()).hexdigest()[:16],
    }


# ---------------------------------------------------------------------------
# certify: move traces with invariant comparison, plus the oracle


def _certify_bundle(d, q, c, twists):
    """count and Z1 under every twist map, Z3, and Z2 under inner:0."""
    bundle = {}
    for spec, f in twists.items():
        bundle[spec] = (solver.count_colorings(d, q, f), invariants.state_weight_z1(d, q, c, f).exponent)
    bundle["z3"] = invariants.aut_sum_z3(d, q, c).to_json_obj()
    bundle["z2"] = invariants.state_sum_z2(d, q, c, twists["inner:0"]).to_json_obj()
    return bundle


def certify_inputs(seed: int, tiny: bool = False) -> dict:
    """Move traces of every corpus diagram, plus one oracle request per diagram.

    The trace seeds are 0, 1, 2, ... as in the acceptance suite's fuzz, and
    the workload seed only orders the requests.  Random trace seeds are not
    used because a few 200-move traces in a thousand land on a diagram of
    E ~ 32-38 whose R4 enumeration takes seconds at the seed commit
    (figure_eight with trace seed 24 takes over 1 s, with 245904051 it
    takes 7-11 s per twist map).  Such a trace is a ladder request; one
    of them would dominate a run and overrun the deadline.
    """
    rng = random.Random(f"certify:{seed}")
    names = list(diagram.BUILDER_NAMES)
    traces_each = 1 if tiny else CERTIFY_TRACES
    if tiny:
        names = names[:3]
    traces = [(name, trace_seed) for name in names for trace_seed in range(traces_each)]
    oracle = []
    for name in names:
        d = diagram.builder(name)
        cases = [(n, spec) for n in (3, 4) if n**d.edges <= solver.DEFAULT_BRUTE_FORCE_CEILING
                 for spec in CERTIFY_TWISTS]
        oracle.append((name, tuple(cases[:2] if tiny else cases)))
    order = [("trace", t) for t in traces] + [("oracle", o) for o in oracle]
    rng.shuffle(order)
    return {"order": order}


def certify_workload(inputs: dict) -> Workload:
    q = algebra.make_dihedral(4)
    c = weights.example_cocycle_r4()
    twists = {spec: twist_map(q, spec) for spec in CERTIFY_TWISTS}
    reference = {}
    requests = []
    for kind, item in inputs["order"]:
        if kind == "trace":
            name, trace_seed = item
            d = diagram.builder(name)
            if name not in reference:
                reference[name] = (_certify_bundle(d, q, c, twists), True)

            def call(d=d, trace_seed=trace_seed):
                final, _ = moves.random_equivalent(d, trace_seed, CERTIFY_MOVES)
                return _certify_bundle(final, q, c, twists), diagram.validate_diagram(final).ok

            requests.append(Request(f"trace {name} seed={trace_seed}", call, reference[name]))
        else:
            name, cases = item
            d = diagram.builder(name)
            problems = []
            for n, spec in cases:
                qn = algebra.make_dihedral(n)
                problems.append((qn, twist_map(qn, spec)))

            def call(d=d, problems=problems):
                return [(set(solver.enumerate_colorings(d, qn, f)), set(solver.brute_force_colorings(d, qn, f)))
                        for qn, f in problems]

            def check(answer, expected):
                return [len(found) for found, _ in answer] == expected and all(a == b for a, b in answer)

            expected = [len(solver.enumerate_colorings(d, qn, f)) for qn, f in problems]
            requests.append(Request(f"oracle {name} ({len(cases)} cases)", call, expected, check))
    traces = sum(kind == "trace" for kind, _ in inputs["order"])
    cases = sum(len(item[1]) for kind, item in inputs["order"] if kind == "oracle")
    return Workload(
        "certify",
        requests,
        CERTIFY_DEADLINE_S,
        {"traces": traces, "oracle_cases": cases, "moves_per_trace": CERTIFY_MOVES},
    )


# ---------------------------------------------------------------------------
# ladder: one coloring count per request on a large diagram


def ladder_inputs(seed: int, tiny: bool = False) -> dict:
    rungs = LADDER[:1] if tiny else LADDER
    diagrams = {}
    for name, build_seed, n_moves, cap in rungs:
        d, _ = moves.random_equivalent(diagram.builder(name), build_seed, n_moves, soft_cap=cap)
        diagrams[name] = d
    orders = LADDER_ORDERS[:1] if tiny else LADDER_ORDERS
    order = [(name, n, spec) for name in diagrams for n in orders for spec in LADDER_TWISTS]
    random.Random(f"ladder:{seed}").shuffle(order)
    return {"diagrams": diagrams, "order": order}


def ladder_workload(inputs: dict) -> Workload:
    reference = {}
    requests = []
    for name, n, spec in inputs["order"]:
        q = algebra.make_dihedral(n)
        f = twist_map(q, spec)
        d = inputs["diagrams"][name]
        key = (name, n, spec)
        if key not in reference:
            reference[key] = solver.count_colorings(diagram.builder(name), q, f)
        requests.append(
            Request(f"count {name} E={d.edges} R{n} {spec}", lambda d=d, q=q, f=f: solver.count_colorings(d, q, f),
                    reference[key])
        )
    records = {}
    for (name, build_seed, n_moves, cap) in LADDER:
        if name in inputs["diagrams"]:
            records[name] = {"seed": build_seed, "moves": n_moves, "soft_cap": cap,
                             **diagram_record(inputs["diagrams"][name])}
    return Workload("ladder", requests, LADDER_DEADLINE_S, {"diagrams": records})


# ---------------------------------------------------------------------------
# cli: one `python -m vknots.cli` subprocess per request


def cli_inputs(seed: int, workdir: Path, tiny: bool = False) -> dict:
    """The command mix, repeated with seed-drawn diagrams and fuzz seeds.

    The heavy commands (automorphisms, quandle check and cocycle basis on
    dihedral:8) are fixed, so runs with different seeds do the same
    algebra.  Fuzz seeds are drawn from 0..19, the acceptance suite's trace
    seeds, for the reason given in ``certify_inputs``.
    """
    reps = 1 if tiny else CLI_REPS
    rng = random.Random(f"cli:{seed}")
    names = list(diagram.BUILDER_NAMES)
    classical = [n for n in names if all(isinstance(c, diagram.ClassicalCrossing) for c in diagram.builder(n).crossings)]
    commands = []
    files = {}
    r4 = ["--quandle", "dihedral:4", "--cocycle", "example-r4"]
    for rep in range(reps):
        source = rng.choice(names)
        d, _ = moves.random_equivalent(diagram.builder(source), rng.randrange(2**31), 120, soft_cap=50)
        path = workdir / f"ladder-{rep}.json"
        path.write_text(diagram.serialize_diagram(d))
        files[path.name] = {"source": source, **diagram_record(d)}
        name = rng.choice(names)
        mix = [
            ["quandle", "auts", "--dihedral", "8"],
            ["quandle", "check", "--dihedral", "8"],
            ["cocycle", "basis", "--quandle", "dihedral:8", "--m", "8"],
            ["diagram", "validate", "--diagram", rng.choice(names)],
            ["color", "count", "--diagram", f"@{path}", "--quandle", "dihedral:3",
             "--aut", rng.choice(("identity", "inner:0"))],
            ["invariant", "z", "--diagram", rng.choice(classical), *r4, "--json"],
            *(["invariant", kind, "--diagram", name, *r4, "--aut", "inner:0", "--json"]
              for kind in ("z1", "z2", "z3")),
            ["fuzz", "--diagram", rng.choice(names), *r4, "--aut", "inner:0",
             "--moves", "200", "--seed", str(rng.randrange(20))],
            ["invariant", "z2", "--diagram", name, *r4, "--aut", "[1,2,3,0]"],
            ["diagram", "validate", "--diagram", f"no_such_diagram_{rep}"],
        ]
        commands.extend(mix[:6] if tiny else mix)
    rng.shuffle(commands)
    return {"commands": commands, "files": files}


def _flag(argv, name):
    return argv[argv.index(name) + 1] if name in argv else None


def _load_diagram(spec):
    if spec.startswith("@"):
        return diagram.parse_diagram(Path(spec[1:]).read_text())
    return diagram.builder(spec)


def _fuzz_bundle(d, q, c, f):
    bundle = {
        "colorings": solver.count_colorings(d, q, f),
        "z1": invariants.state_weight_z1(d, q, c, f).exponent,
        "z3": invariants.aut_sum_z3(d, q, c).to_json_obj(),
    }
    if weights.preservation_witness(f, c) is None:
        bundle["z2"] = invariants.state_sum_z2(d, q, c, f).to_json_obj()
    return bundle


def cli_expected(argv: list[str]):
    """(exit code, stdout kind, value) that the library gives for one command."""
    command, action = argv[0], argv[1]
    if command == "quandle":
        q = algebra.make_dihedral(int(_flag(argv, "--dihedral")))
        if action == "auts":
            auts = algebra.automorphisms(q, 8)
            return 0, "json", {"count": len(auts), "automorphisms": [list(m.images) for m in auts]}
        return 0, "json", {"valid": algebra.validate_quandle(q).ok}
    if command == "cocycle":
        q = algebra.make_dihedral(int(_flag(argv, "--quandle").split(":")[1]))
        m = int(_flag(argv, "--m"))
        basis = weights.cocycle_space_basis(q, m)
        return 0, "json", {"m": m, "count": len(basis),
                           "basis": [json.loads(weights.cocycle_to_json(c)) for c in basis]}
    if command == "diagram":
        name = _flag(argv, "--diagram")
        if name not in diagram.BUILDER_NAMES:
            return 2, "empty", None
        return 0, "json", {"valid": diagram.validate_diagram(diagram.builder(name)).ok}
    d = _load_diagram(_flag(argv, "--diagram"))
    q = algebra.make_dihedral(int(_flag(argv, "--quandle").split(":")[1]))
    if command == "color":
        return 0, "json", {"count": solver.count_colorings(d, q, twist_map(q, _flag(argv, "--aut")))}
    c = weights.example_cocycle_r4()
    aut = _flag(argv, "--aut")
    f = None
    if aut is not None:
        f = twist_map(q, aut) if not aut.startswith("[") else algebra.QuandleMap(tuple(json.loads(aut)))
    if command == "invariant":
        if action == "z2" and weights.preservation_witness(f, c) is not None:
            return 1, "empty", None
        return 0, "text", invariants.compute_invariant(action, d, q, c, f).to_json() + "\n"
    seed = int(_flag(argv, "--seed"))
    final, trace = moves.random_equivalent(d, seed, int(_flag(argv, "--moves")))
    before, after = _fuzz_bundle(d, q, c, f), _fuzz_bundle(final, q, c, f)
    stable = before == after and diagram.validate_diagram(final).ok
    return (0 if stable else 1), "json", {
        "stable": stable, "seed": seed, "moves": len(trace), "edges_before": d.edges,
        "edges_after": final.edges, "before": before, "after": after,
        "trace": [r.to_json_obj() for r in trace],
    }


def _cli_check(answer, expected) -> bool:
    if expected is TAMPERED:
        return False
    code, out = answer
    want_code, kind, value = expected
    if code != want_code:
        return False
    if kind == "empty":
        return out == ""
    if kind == "text":
        return out == value
    try:
        return json.loads(out) == value
    except json.JSONDecodeError:
        return False


def run_child(cmd: list[str], workload: Workload) -> tuple[int, str]:
    """Run one subprocess to completion, recording its own peak RSS.

    A request timeout raised while waiting kills the child before it
    propagates, so no process outlives its request.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with open(os.devnull, "wb") as devnull:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=devnull, cwd=ROOT, env=env)
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    workload.child_rss_kb.append(usage.ru_maxrss)
    return proc.returncode, out.decode()


def cli_workload(inputs: dict, traced_dir: Path | None = None) -> Workload:
    """Requests run `python -m vknots.cli`, or the tracing shim when traced_dir is set."""
    workload = Workload("cli", [], CLI_DEADLINE_S, {"commands": len(inputs["commands"]), "files": inputs["files"]})
    expected = {}
    for i, argv in enumerate(inputs["commands"]):
        if tuple(argv) not in expected:
            expected[tuple(argv)] = cli_expected(argv)
        if traced_dir is None:
            cmd = [sys.executable, "-m", "vknots.cli", *argv]
        else:
            cmd = [sys.executable, str(HERE / "cli_child.py"), str(traced_dir / f"{i}.json"), *argv]
        label = " ".join("@" + Path(a[1:]).name if a.startswith("@") else a for a in argv)
        workload.requests.append(
            Request(label, lambda cmd=cmd: run_child(cmd, workload), expected[tuple(argv)], _cli_check)
        )
    return workload


# ---------------------------------------------------------------------------
# running


def run_requests(workload: Workload, budget_s: float, tracer=None, calibration=None) -> list[Outcome]:
    """Run every request once, in order, closed loop with one client.

    Each request gets the workload's deadline, enforced by a signal timer.
    A request that overruns it, raises, or answers wrongly is a failure;
    requests left when the run's budget is spent count as timed out.
    With a calibration, a host-speed slice is taken before every request
    and once after the last, outside the request times, and each outcome
    gets the speed factor measured around its request.
    """
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    outcomes = []
    intervals = []
    start = time.perf_counter()
    try:
        for index, request in enumerate(workload.requests):
            if calibration is not None:
                calibration.sample()
            if tracer is not None:
                tracer.request = index
            limit = min(workload.deadline_s, budget_s - (time.perf_counter() - start))
            if limit <= 0:
                outcomes.append(Outcome(request.label, 0.0, "timeout", "run budget spent"))
                intervals.append((start + budget_s, start + budget_s))
                continue
            detail = ""
            t0 = time.perf_counter()
            try:
                try:
                    signal.setitimer(signal.ITIMER_REAL, limit)
                    answer = request.call()
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                elapsed = time.perf_counter() - t0
                status = "ok" if request.check(answer, request.expected) else "wrong"
            except RequestTimeout:
                elapsed, status, detail = time.perf_counter() - t0, "timeout", f"deadline {limit:.1f}s"
            except Exception as exc:  # a request that raises is a failed request; keep running
                elapsed, status, detail = time.perf_counter() - t0, "error", f"{type(exc).__name__}: {exc}"
            outcomes.append(Outcome(request.label, elapsed, status, detail))
            intervals.append((t0, t0 + elapsed))
    finally:
        signal.signal(signal.SIGALRM, previous)
    if calibration is not None:
        calibration.sample()
        for outcome, (t0, t1) in zip(outcomes, intervals):
            outcome.scale = calibration.scale_between(t0, t1)
    return outcomes
