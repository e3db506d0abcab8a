"""Smoke self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload on tiny panels, untraced and
traced, and checks that each run passes its output checks and prints
every metric BENCHMARK.json names, with its unit, both as a line of its
own and in the JSON summary. Then checks that the benchmark, copied
without the package sources, fails without printing a result. Exits 0
when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# runnable workloads that BENCHMARK.json does not list (see README.md)
UNLISTED = ("fig1-pool",)


def run(cwd, workload, trace):
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
        "--seconds", "1", "--trace", str(trace), "--smoke",
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_run(workload, trace):
    proc = run(ROOT, workload, trace)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    problems = []
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"summary keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append("output check failed")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        problems.append(f"attempted = {result.get('attempted')!r}")
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if got != expected:
        problems.append(f"metric names or units differ: {sorted(set(got.items()) ^ set(expected.items()))}")
    printed = {line.split()[0]: line.split()[-1] for line in lines[:-1] if len(line.split()) == 3}
    missing = [name for name, unit in expected.items() if printed.get(name) != unit]
    if missing:
        problems.append(f"not printed with its unit: {missing}")
    return problems


def check_bare():
    """In a directory with only BENCHMARK.json and the benchmark's files,
    the benchmark must fail without printing a result."""
    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = run(bare, SPEC["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    problems = []
    if proc.returncode == 0:
        problems.append("exit code 0 without the package sources")
    if last[0].startswith("{"):
        problems.append("printed a result without the package sources")
    return problems


def main():
    failures = 0
    for workload in [w["name"] for w in SPEC["workloads"]] + list(UNLISTED):
        for trace in (0, 1):
            problems = check_run(workload, trace)
            failures += bool(problems)
            print(f"{'FAIL' if problems else 'ok  '} {workload} trace={trace} {'; '.join(problems)}")
    problems = check_bare()
    failures += bool(problems)
    print(f"{'FAIL' if problems else 'ok  '} no sources {'; '.join(problems)}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
