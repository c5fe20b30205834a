"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at a tiny size, untraced and traced, and checks that the
last output line names every metric of BENCHMARK.json with its unit. Then
checks that a CLI command which fails (`period` on a series too short to
hold two periods) is counted as a failed operation instead of stopping the
run, and that the benchmark refuses to run without the sources. Exits 0
when every check passes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def result_problems(result: dict, metrics: list[dict]) -> list[str]:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1
            and isinstance(result.get("failed"), int)):
        problems.append(f"attempted/failed {result.get('attempted')}/{result.get('failed')}")
    got = result.get("metrics", {})
    if set(got) != {m["name"] for m in metrics}:
        problems.append(f"metric names differ: {sorted(set(got) ^ {m['name'] for m in metrics})}")
    for m in metrics:
        v = got.get(m["name"], {})
        if v.get("unit") != m["unit"] or not isinstance(v.get("value"), (int, float)) \
                or not math.isfinite(v["value"]):
            problems.append(f"{m['name']}: {v}")
    return problems


def main() -> int:
    problems = []
    for w in SPEC["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            cp = bench(ROOT, "--workload", w["name"], "--seed", "7", "--seconds", "1",
                       "--trace", str(trace), "--tiny")
            label = f"{w['name']} trace={trace}"
            if cp.returncode != 0:
                problems.append(f"{label}: exit {cp.returncode}: {cp.stderr[-500:]}")
                continue
            result = json.loads(cp.stdout.strip().splitlines()[-1])
            problems += [f"{label}: {p}" for p in result_problems(result, SPEC[kind])]
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: {result['failed']} failed operations")
            print(f"{label}: {result['attempted']} operations, {len(result['metrics'])} metrics")

    sys.path.insert(0, str(HERE))
    import run

    def short_period(b):
        return b.cli_op("cmd_s.period", 2000, ["period", "--model", "kowalevski", "--scheme", "hk",
                                               "--h", "0.001", "--steps", "2000", "--stride", "10",
                                               "--column", "g3"], core=True, in_process=False)

    report = run.run_benchmark("cli-diagnostics", 7, 1, False, tiny=True, extra_ops=(short_period,))
    result = report["result"]
    problems += [f"failing command: {p}" for p in result_problems(result, SPEC["end_to_end"])]
    if result["correct"] or result["failed"] < 1 or not result["metrics"]["ops_ok_ratio"]["value"] < 1.0:
        problems.append(f"failing command not counted: {result}")
    print(f"failing command: {result['failed']} of {result['attempted']} operations failed, "
          f"ops_failed_ratio={report['meta']['ops_failed_ratio']:.3f}")

    bare = ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    cp = bench(bare, "--workload", SPEC["workloads"][0]["name"], "--seed", "7", "--seconds", "1", "--trace", "0")
    shutil.rmtree(bare)
    if cp.returncode == 0 or cp.stdout.strip():
        problems.append(f"without sources: exit {cp.returncode}, output {cp.stdout[-200:]!r}")
    print(f"without sources: exit {cp.returncode}")

    for p in problems:
        print(f"SELFTEST FAILED {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
