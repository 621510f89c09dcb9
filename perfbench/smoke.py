"""Smoke test of the benchmark at tiny sizes; run from the repository root.

    python3 perfbench/smoke.py

For every workload it runs ``run.py --tiny`` untraced and traced on one seed
and checks that every named metric is printed with its unit, that the last
line is the result object with the metrics BENCHMARK.json lists, that every
operation passed its checks, and that tracing left the output hashes
unchanged. It also checks BENCHMARK.json against ``metrics.py`` and that the
benchmark refuses to run without the library sources. Exits 1 on the first
failure.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from metrics import GATED, LAYERS, REPORTED, benchmark_entries  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 11


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check(cond: bool, what: str) -> None:
    if not cond:
        raise AssertionError(what)


def check_printed(stdout: str, metrics, what: str) -> None:
    for m in metrics:
        line = re.search(rf"^{re.escape(m.name)} (\S+) {re.escape(m.unit)}\b", stdout, re.M)
        check(line is not None, f"{what}: {m.name} not printed with unit {m.unit}")


def check_result(stdout: str, metrics, what: str) -> dict:
    result = json.loads(stdout.strip().splitlines()[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{what}: result keys")
    check(result["correct"] is True and result["failed"] == 0, f"{what}: {result}")
    check(result["attempted"] >= 1, f"{what}: nothing attempted")
    names = {m.name: m.unit for m in metrics}
    check(set(result["metrics"]) == set(names), f"{what}: metric names")
    for name, entry in result["metrics"].items():
        check(entry["unit"] == names[name], f"{what}: unit of {name}")
        check(isinstance(entry["value"], (int, float)), f"{what}: value of {name}")
    return result


def report_of(stdout: str) -> dict:
    line = next(ln for ln in stdout.splitlines() if ln.startswith('{"report"'))
    return json.loads(line)["report"]


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end, per_layer = benchmark_entries()
    check(bench["end_to_end"] == end_to_end, "BENCHMARK.json end_to_end differs from metrics.py")
    check(bench["per_layer"] == per_layer, "BENCHMARK.json per_layer differs from metrics.py")
    check([w["name"] for w in bench["workloads"]] == list(WORKLOADS), "workload names")

    for name in WORKLOADS:
        plain, traced = run(name, 0), run(name, 1)
        for proc, trace in ((plain, 0), (traced, 1)):
            check(proc.returncode == 0, f"{name} trace={trace} exited {proc.returncode}:\n"
                  f"{proc.stderr}")
        check_printed(plain.stdout, GATED + REPORTED, f"{name} trace=0")
        check_printed(traced.stdout, LAYERS, f"{name} trace=1")
        check_result(plain.stdout, GATED, f"{name} trace=0")
        check_result(traced.stdout, LAYERS, f"{name} trace=1")
        a, b = report_of(plain.stdout), report_of(traced.stdout)
        for key in ("outputs_sha256", "models_sha256"):
            check(a[key] == b[key], f"{name}: tracing changed {key}")
        print(f"ok {name}")

    bare = ROOT / ".perfbench" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("detect-clips", 0, cwd=bare)
    shutil.rmtree(bare)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          "run.py must fail without the library sources")
    print("ok bare checkout refused")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        sys.exit(1)
