"""Self-check of the benchmark.

    python3 perfbench/selfcheck.py [--workload NAME ...]

For each workload, in runs of ``SECONDS`` seconds: two traced runs with the
same seed must report byte-identical per-layer counts, every run must report
no failed job, and the metric names each run prints must be exactly those in
``BENCHMARK.json``.
Last, a copy of the benchmark without the library (``BENCHMARK.json`` and the
benchmark directory only, under ``perfbench/out/bare``) must exit non-zero
without printing a result.
"""
from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys

from spread import HERE, ROOT, run_once

SECONDS = 5


def check_workload(name: str, bench: dict, seed: int = 3) -> list:
    problems = []
    untraced = run_once(name, seed, 0, SECONDS)
    traced = [run_once(name, seed, 1, SECONDS) for _ in range(2)]
    for label, res, want in (("trace 0", untraced, bench["end_to_end"]),
                             ("trace 1", traced[0], bench["per_layer"])):
        if not res["correct"] or res["failed"]:
            problems.append(f"{name} {label}: correct={res['correct']} failed={res['failed']}")
        names = sorted(res["metrics"])
        if names != sorted(m["name"] for m in want):
            problems.append(f"{name} {label}: metric names differ from BENCHMARK.json")
    counts = [json.dumps({k: v for k, v in r["metrics"].items() if v["unit"] == "count"},
                         sort_keys=True) for r in traced]
    if counts[0] != counts[1]:
        problems.append(f"{name}: counts differ between two traced runs")
    print(f"{name}: {'ok' if not problems else 'FAILED'}", flush=True)
    return problems


def check_bare(workload: str) -> list:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    cmd = [sys.executable, f"{HERE.name}/run.py", "--workload", workload, "--seed", "1",
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"without the library: exit {proc.returncode}, stdout {proc.stdout!r}"]
    print(f"without the library: exit {proc.returncode}: {proc.stderr.strip()}")
    return []


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in bench["workloads"]])
    args = ap.parse_args(argv)
    names = args.workload or [w["name"] for w in bench["workloads"]]
    problems = check_bare(names[0])
    for name in names:
        problems += check_workload(name, bench)
    print("\n".join(problems) or "self-check passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
