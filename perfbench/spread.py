"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload cell_oracle --seeds 1-10

Runs ``run.py --trace 0`` once per seed, one after another, for
``run_seconds`` of ``BENCHMARK.json`` as the benchmark's users do, and prints for
each end-to-end metric its median over the runs and the distance between the
first and third quartile as a share of that median, next to the metric's bound
in ``BENCHMARK.json``.  A spread above a third of the bound is flagged.
The raw results go to ``perfbench/out/spread-<workload>.json``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload: str, seed: int, trace: int = 0, seconds=None) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values) -> float:
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    results = []
    for seed in _seeds(args.seeds):
        res = run_once(args.workload, seed)
        results.append(res)
        vals = " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items())
        print(f"seed {seed}: correct={res['correct']} failed={res['failed']} {vals}", flush=True)
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / f"spread-{args.workload}.json").write_text(json.dumps(results, indent=1))
    ok = all(r["correct"] for r in results)
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in results]
        s = spread(values)
        flag = "" if s < bound / 3 else "  <-- above a third of the bound"
        print(f"{name:14s} median {statistics.median(values):.6g}  spread {s:.4f}  "
              f"bound {bound}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
