"""Quick self-check of the benchmark harness.

    python3 hermbench/selfcheck.py

Runs every workload once at a reduced size (``run.py --quick``), untraced
and traced, and confirms that each run exits 0, reports correct outputs and
emits exactly the metric names and units that ``BENCHMARK.json`` declares.
It then copies only ``BENCHMARK.json`` and the benchmark directory into
``.bench_out/bare`` and confirms that the benchmark refuses to run there
(non-zero exit, no result line), since the program sources are missing.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, str(cwd / HERE.name / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def check_workload(config: dict, workload: str, trace: int) -> list:
    expected = {m["name"]: m["unit"] for m in config["per_layer" if trace else "end_to_end"]}
    done = run(ROOT, workload, trace)
    if done.returncode != 0:
        return [f"exit code {done.returncode}: {done.stderr.strip()[-500:]}"]
    result = json.loads(done.stdout.splitlines()[-1])
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"correct={result.get('correct')} failed={result.get('failed')}")
    got = {name: m["unit"] for name, m in result.get("metrics", {}).items()}
    for name in sorted(set(expected) - set(got)):
        problems.append(f"missing metric {name}")
    for name in sorted(set(got) - set(expected)):
        problems.append(f"undeclared metric {name}")
    for name in sorted(set(got) & set(expected)):
        if got[name] != expected[name]:
            problems.append(f"{name}: unit {got[name]!r}, declared {expected[name]!r}")
    return problems


def check_bare() -> list:
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        done = run(bare, "paper-fine", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or done.stdout.strip():
        return [f"exit code {done.returncode}, stdout {done.stdout.strip()[-200:]!r}"]
    return []


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failed = False
    for workload in (w["name"] for w in config["workloads"]):
        for trace in (0, 1):
            problems = check_workload(config, workload, trace)
            failed |= bool(problems)
            print(f"{'FAIL' if problems else 'ok  '}  {workload} --trace {trace}")
            for line in problems:
                print(f"      {line}")
    problems = check_bare()
    failed |= bool(problems)
    print(f"{'FAIL' if problems else 'ok  '}  refuses to run without the program sources")
    for line in problems:
        print(f"      {line}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
