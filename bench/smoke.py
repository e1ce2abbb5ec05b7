"""Smoke run of the benchmark: every workload for one second of ops,
untraced and traced.

    python3 bench/smoke.py

Each run must exit 0, end with the result JSON, report error_rate 0, and
print every BENCHMARK.json metric of its kind by name with its unit, both
on a line of its own and in the JSON.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def check_run(workload: str, trace: int, expected: dict) -> str:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace {trace} exited {proc.returncode}:\n"
                             f"{proc.stderr}")
    *lines, last = proc.stdout.splitlines()
    result = json.loads(last)
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"{result['failed']} of {result['attempted']} ops failed")
    if not any(line.startswith("error_rate 0 ratio") for line in lines):
        problems.append("error_rate is not 0")
    if set(result["metrics"]) != set(expected):
        problems.append(f"metric names differ: {set(result['metrics']) ^ set(expected)}")
    for name, unit in expected.items():
        if result["metrics"].get(name, {}).get("unit") != unit:
            problems.append(f"{name} lacks unit {unit} in the JSON")
        if not any(line.startswith(f"{name} ") and f" {unit}" in line for line in lines):
            problems.append(f"{name} is not printed with unit {unit}")
    if problems:
        raise AssertionError(f"{workload} trace {trace}: " + "; ".join(problems))
    return f"ok {workload} trace {trace}: {len(expected)} metrics, {result['attempted']} ops"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in spec["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in spec[kind]}
            print(check_run(workload["name"], trace, expected), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
