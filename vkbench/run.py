"""The vknots benchmark: one workload per run, one client, closed loop.

Usage (from the root of a checkout):

    python3 vkbench/run.py --workload {certify,ladder,cli} --seed N --seconds S --trace {0,1}

The inputs are made from --seed; each workload's request list has a
fixed size, and --seconds sets how many passes a run makes over it.
Each pass runs in a fresh interpreter so that no pass finds another's
results cached.  The run checks every answer and prints
as its last line one JSON object with the keys correct, attempted, failed
and metrics.  With --trace 0 the metrics are the end-to-end ones, times
being the median over the passes of each request's time scaled to a
reference host speed (calibrate.py).  With --trace 1 the run makes one
untraced and one traced pass, the latter with every public vknots
function wrapped in a span, and reports per-layer self times, counts and
ratios plus the tracing overhead.  The lines before the last one record
the environment, the inputs and every metric with its unit.  README.md
in this directory lists the workloads and the metrics each ROADMAP item
should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("certify", "ladder", "cli")
# Untraced passes per run, each in a fresh interpreter; times are their medians.
# A run makes about --seconds / PASS_SECONDS passes, and never fewer than
# MIN_PASSES, so that the medians span the whole run and a burst of host
# load shorter than half of it does not move them.  PASS_SECONDS is the
# time of one pass on a 2-core x86-64 host at the seed commit.
PASS_SECONDS = {"certify": 4.0, "ladder": 13.0, "cli": 7.0}
MIN_PASSES = 3
SETUP_PROBES = 4  # further fresh interpreters that only set up; setup_s is the median of all
IMPORT_SAMPLES = 5  # cold `import vknots.cli` timings per traced run
PASS_BUDGET_S = 45.0  # wall budget of one pass; requests past it count as timed out


def _fail(message: str) -> None:
    sys.stderr.write(f"vkbench: {message}\n")
    sys.exit(2)


def _use_checkout_source() -> None:
    """Put the checkout's src/ first on the path; refuse to run without it."""
    if not (SRC / "vknots" / "__init__.py").is_file():
        _fail(f"no vknots package under {SRC}; run from the root of a checkout")
    sys.path[:0] = [str(SRC), str(HERE)]
    os.environ["PYTHONPATH"] = str(SRC)


def pass_count(workload: str, seconds: float) -> int:
    return max(MIN_PASSES, round(seconds / PASS_SECONDS[workload]))


def setup(workload: str, seed: int, workdir: Path, tiny: bool = False):
    """Import vknots and make the workload's inputs; returns (seconds, inputs)."""
    t0 = time.perf_counter()
    import vknots

    import workloads as wl

    if not Path(vknots.__file__).resolve().is_relative_to(SRC):
        _fail(f"imported vknots from {vknots.__file__}, not from {SRC}")
    if workload == "certify":
        inputs = wl.certify_inputs(seed, tiny)
    elif workload == "ladder":
        inputs = wl.ladder_inputs(seed, tiny)
    else:
        inputs = wl.cli_inputs(seed, workdir, tiny)
    return time.perf_counter() - t0, inputs


def build(workload: str, inputs, traced_dir: Path | None = None):
    """The workload's requests with their expected answers (not timed)."""
    import workloads as wl

    if workload == "certify":
        return wl.certify_workload(inputs)
    if workload == "ladder":
        return wl.ladder_workload(inputs)
    return wl.cli_workload(inputs, traced_dir)


def _python(args: list[str], timeout: float = 170) -> str:
    """Stdout of a child interpreter; a child that fails ends the run."""
    try:
        out = subprocess.run(
            [sys.executable, *args], cwd=ROOT, capture_output=True, text=True, timeout=timeout, check=True
        )
    except subprocess.CalledProcessError as exc:
        sys.stderr.write(exc.stderr)
        _fail(f"child {args[:2]} exited with {exc.returncode}")
    except subprocess.TimeoutExpired:
        _fail(f"child {args[:2]} ran past {timeout}s")
    return out.stdout


def cold_import_ms() -> float:
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import vknots.cli; print((time.perf_counter() - t) * 1000)"
    )
    return float(_python(["-c", code, str(SRC)]).strip())


def environment() -> dict:
    import vknots.kernel

    digest = hashlib.sha256()
    for path in sorted(p for p in SRC.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "backend": vknots.kernel.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


def latency_tail(seconds: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile with ten samples beyond it.

    With ten samples or fewer no percentile has ten beyond it; the maximum is
    reported with the count that lies beyond it, zero.
    """
    xs = sorted(seconds)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, 0
    return xs[n - 11], 100.0 * (n - 10) / n, 10


def summarize(outcomes) -> dict:
    failed = [o for o in outcomes if o.status != "ok"]
    return {
        "attempted": len(outcomes),
        "failed": len(failed),
        "correct": not any(o.status in ("wrong", "error") for o in outcomes),
        "failures": [{"request": o.label, "status": o.status, "detail": o.detail} for o in failed[:20]],
    }


def one_pass(args) -> dict:
    """Set up, build and run one pass in this (fresh) process; the result as a dict.

    A traced pass records spans during input generation (request id -1)
    and during the requests, not while the expected answers are computed.
    In the cli workload the requests' spans come from the CLI processes.
    """
    from calibrate import Calibration
    from tracer import Tracer, merge_summaries

    tracer = Tracer()
    calibration = Calibration()
    workdir = Path(tempfile.mkdtemp(prefix=".vkbench-", dir=ROOT))
    try:
        if args.traced:
            tracer.install()
        try:
            setup_s, inputs = setup(args.workload, args.seed, workdir)
        finally:
            tracer.uninstall()
        setup_scale = calibration.burst()
        import workloads as wl

        spans_dir = None
        if args.traced and args.workload == "cli":
            spans_dir = workdir / "spans"
            spans_dir.mkdir()
        t0 = time.perf_counter()
        workload = build(args.workload, inputs, spans_dir)
        reference_s = time.perf_counter() - t0
        if args.traced and spans_dir is None:
            tracer.install()
        calibrated_s = calibration.spent_s
        t0 = time.perf_counter()
        try:
            outcomes = wl.run_requests(workload, PASS_BUDGET_S, tracer, calibration)
        finally:
            tracer.uninstall()
        wall_s = time.perf_counter() - t0 - (calibration.spent_s - calibrated_s)
        spans = None
        if args.traced:
            children = [json.loads(p.read_text()) for p in sorted(spans_dir.glob("*.json"))] if spans_dir else []
            spans = merge_summaries([tracer.summary(), *children])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.workload == "cli":
        rss_kb = max(workload.child_rss_kb, default=0)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "env": environment(),
        "inputs": workload.inputs,
        "deadline_s": workload.deadline_s,
        "setup_s": setup_s,
        "setup_scale": setup_scale,
        "scale": calibration.scale(),
        "slices": len(calibration.slices),
        "reference_s": reference_s,
        "wall_s": wall_s,
        "rss_kb": rss_kb,
        "outcomes": [[o.label, o.seconds, o.status, o.detail, o.scale] for o in outcomes],
        "spans": spans,
    }


def setup_probe_seconds(args) -> tuple[float, float]:
    """(raw, scaled) set-up time of one more fresh interpreter, measured inside it."""
    cmd = [str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--setup-probe"]
    raw, scale = json.loads(_python(cmd).strip().splitlines()[-1])
    return raw, raw * scale


def spawn_pass(args, traced: bool) -> dict:
    """One pass in a fresh interpreter, so no pass sees another's caches."""
    cmd = [str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--pass-child"] + (["--traced"] if traced else [])
    return json.loads(_python(cmd, timeout=PASS_BUDGET_S + 30).strip().splitlines()[-1])


def _print(tag: str, obj) -> None:
    print(f"{tag} {json.dumps(obj, sort_keys=True)}")


def report(args, passes: list[dict], metrics: dict) -> dict:
    """Print the record lines and return the result object."""
    from workloads import Outcome

    outcomes = [Outcome(*o) for p in passes for o in p["outcomes"]]
    summary = summarize(outcomes)
    first = passes[0]
    _print("env", first["env"])
    _print("workload", {"name": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                        "passes": len(passes), "requests_per_pass": len(first["outcomes"]),
                        "deadline_s": first["deadline_s"], "inputs": first["inputs"],
                        "setup_s": [p["setup_s"] for p in passes], "reference_s": [p["reference_s"] for p in passes],
                        "pass_wall_s": [p["wall_s"] for p in passes]})
    _print("failures", summary["failures"])
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value} {unit}")
    print(f"metric failed_share = {summary['failed'] / summary['attempted']} ratio")
    return {
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def run_untraced(args) -> dict:
    """End-to-end metrics from identical passes, as many as --seconds allows.

    Every time is scaled to the reference host speed by the speed measured
    around it (see calibrate.py), so drift of the host's speed between and
    within runs does not move it; the raw times are printed as
    ``raw.*`` metric lines.  Each request's time is its median over the
    passes, so load from outside the benchmark during fewer than half of
    them does not move it; wall_s is the sum of these medians, the time of
    one pass.  The p50 is the lower median: request times cluster by
    diagram and order, and with an even count the mean of the two middle
    requests can straddle the gap between two clusters.
    """
    results = [spawn_pass(args, traced=False) for _ in range(pass_count(args.workload, args.seconds))]
    labels = [o[0] for o in results[0]["outcomes"]]
    if any([o[0] for o in p["outcomes"]] != labels for p in results):
        _fail("passes of one run made different requests")
    scaled = [statistics.median(p["outcomes"][i][1] * p["outcomes"][i][4] for p in results) for i in range(len(labels))]
    raw = [statistics.median(p["outcomes"][i][1] for p in results) for i in range(len(labels))]
    attempted = len(labels) * len(results)
    failed = sum(o[2] != "ok" for p in results for o in p["outcomes"])
    probes = [setup_probe_seconds(args) for _ in range(SETUP_PROBES)]
    setups_raw = [p["setup_s"] for p in results] + [r for r, _ in probes]
    setups = [p["setup_s"] * p["setup_scale"] for p in results] + [s for _, s in probes]
    _, tail_pct, beyond = latency_tail(scaled)
    _print("latency_tail", {"percentile": tail_pct, "samples_beyond": beyond, "samples": len(scaled)})
    _print("host_scale", {"passes": [p["scale"] for p in results], "slices": [p["slices"] for p in results],
                          "setups": [p["setup_scale"] for p in results]})
    _print("setup_samples_s", {"scaled": setups, "raw": setups_raw})
    _print("request_median_s", [[label, t, r] for label, t, r in zip(labels, scaled, raw)])
    for name, (value, unit) in timing_metrics(raw, setups_raw).items():
        print(f"metric raw.{name} = {value} {unit}")
    metrics = {
        **timing_metrics(scaled, setups),
        "success_share": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (max(p["rss_kb"] for p in results) / 1024, "MB"),
    }
    return report(args, results, metrics)


def timing_metrics(per_request: list[float], setups: list[float]) -> dict:
    return {
        "wall_s": (sum(per_request), "s"),
        "latency_p50_ms": (statistics.median_low(per_request) * 1000, "ms"),
        "latency_tail_ms": (latency_tail(per_request)[0] * 1000, "ms"),
        "setup_s": (statistics.median(setups), "s"),
    }


def run_traced(args) -> dict:
    from tracer import layer_metrics

    untraced = spawn_pass(args, traced=False)
    traced = spawn_pass(args, traced=True)
    spans = traced["spans"]
    imports = [cold_import_ms() for _ in range(IMPORT_SAMPLES)]
    metrics = {
        **layer_metrics(spans),
        "cli.import_ms": (statistics.median(imports), "ms"),
        "trace.wall_s": (traced["wall_s"], "s"),
        "trace.overhead_s": (traced["wall_s"] - untraced["wall_s"], "s"),
    }
    top = sorted(spans["functions"].items(), key=lambda kv: -kv[1]["self_s"])[:25]
    for name, row in top:
        print(f"span {name:45s} self {row['self_s']:10.4f}s total {row['total_s']:10.4f}s calls {row['calls']}")
    _print("counts", spans["counts"])
    return report(args, [traced], metrics)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pass-child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--traced", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _use_checkout_source()
    if args.pass_child or args.setup_probe:
        # One core for the pass and the CLI processes it starts, so the
        # calibration slices measure the core the requests run on.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.pass_child:
        print(json.dumps(one_pass(args)))
        return 0
    if args.setup_probe:
        workdir = Path(tempfile.mkdtemp(prefix=".vkbench-", dir=ROOT))
        try:
            from calibrate import Calibration

            print(json.dumps([setup(args.workload, args.seed, workdir)[0], Calibration().burst()]))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0
    result = run_traced(args) if args.trace else run_untraced(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
