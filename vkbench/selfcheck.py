"""Fast self-check of the benchmark.

Usage (from the root of a checkout):  python3 vkbench/selfcheck.py

Runs every workload with a tiny load and checks that all answers pass,
then the negative cases: a tampered expected answer must be reported as
a failed, incorrect request; a request past its deadline must be
reported as timed out; the benchmark must refuse to run without the
vknots sources.  Finally one short run of run.py is checked against the
output contract in BENCHMARK.json.  Exits non-zero on the first check
that does not hold.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run._use_checkout_source()
import workloads as wl  # noqa: E402


def expect(condition: bool, message: str) -> None:
    if not condition:
        sys.exit(f"selfcheck FAILED: {message}")
    print(f"ok  {message}")


def tiny_run(workload: str, tamper: bool = False, deadline_s: float | None = None) -> dict:
    workdir = Path(tempfile.mkdtemp(prefix=".vkbench-", dir=ROOT))
    try:
        _, inputs = run.setup(workload, 1, workdir, tiny=True)
        w = run.build(workload, inputs)
        if tamper:
            w.requests[0].expected = wl.TAMPERED
        if deadline_s is not None:
            w.deadline_s = deadline_s
        return run.summarize(wl.run_requests(w, 60.0))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def last_json(args: list[str], cwd: Path = ROOT) -> tuple[int, dict | None]:
    proc = subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return proc.returncode, None


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for name in run.WORKLOADS:
        s = tiny_run(name)
        expect(s["attempted"] > 0 and s["failed"] == 0 and s["correct"], f"{name}: tiny load passes ({s['attempted']} requests)")
        s = tiny_run(name, tamper=True)
        expect(s["failed"] == 1 and not s["correct"], f"{name}: a tampered expected answer is a failed, incorrect request")
    s = tiny_run("ladder", deadline_s=1e-4)
    expect(s["failed"] == s["attempted"] and s["correct"], "ladder: requests past the deadline count as timed out")

    for trace, names in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        code, out = last_json(["vkbench/run.py", "--workload", "certify", "--seed", "3",
                               "--seconds", "1", "--trace", str(trace)])
        expect(code == 0 and out is not None and set(out) == {"correct", "attempted", "failed", "metrics"},
               f"run.py --trace {trace} ends with the result object")
        expect(set(out["metrics"]) == {m["name"] for m in names}
               and all(out["metrics"][m["name"]]["unit"] == m["unit"] for m in names),
               f"run.py --trace {trace} reports every metric of BENCHMARK.json with its unit")

    bare = Path(tempfile.mkdtemp(prefix=".vkbench-", dir=ROOT))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        code, out = last_json([f"{HERE.name}/run.py", "--workload", "certify", "--seed", "1",
                               "--seconds", "1", "--trace", "0"], cwd=bare)
        expect(code != 0 and out is None, "without the vknots sources the benchmark exits non-zero with no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
