"""Benchmark for affgrass: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload mv_pave --seed 1 --trace 0 [--seconds N]

Runs whole passes over the workload's job list until the next pass would end
after ``--seconds`` (default: ``run_seconds`` of ``BENCHMARK.json``; at least
two passes).  Each pass runs in a fresh interpreter, as a user's ``affgrass``
command does, so nothing a pass leaves in memory speeds up the next one.
Every job's output is compared with ``reference.json``.  With ``--trace 0``
the last line of stdout carries the end-to-end metrics; with ``--trace 1``
untraced and traced passes alternate and it carries the per-layer metrics.
The lines before it are a readable report.  Times are in reference seconds
(see ``speed.py``); raw seconds go to the run record.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
MIN_PASSES = 2
SETUP_PROBES = 11
CHILD_TIMEOUT_S = 150

END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("job_s_p50", "s"), ("job_s_tail", "s"),
              ("points_per_s", "points/s"), ("peak_rss_mb", "MB"))

PER_LAYER_UNITS = {"counts": "count", "ratios": "ratio", "times": "s", "kernels": "us"}


def _import_library():
    """Import affgrass from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import affgrass
    except ImportError as e:
        sys.exit(f"error: cannot import affgrass from {src}: {e}")
    if not Path(affgrass.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"error: affgrass was imported from {affgrass.__file__}, not {src}")


def _setup(workload_name: str, seed: int):
    """The job list and ``check(key, canon)``, which compares with the reference."""
    from workloads import WORKLOADS, build_jobs, matches
    jobs = build_jobs(WORKLOADS[workload_name], seed)
    with open(REFERENCE) as fh:
        reference = json.load(fh)[workload_name]
    return jobs, lambda key, canon: key in reference and matches(reference[key], canon)


# ---------------------------------------------------------------------------
# one pass, in a fresh interpreter
# ---------------------------------------------------------------------------

def run_pass(jobs, check, tracer=None):
    """One pass over the job list; per-job times, outputs and failures.

    A job's time runs from its call to the end of a full garbage collection
    right after it, so the cyclic garbage a job leaves is paid for by that
    job, whatever ran before it.  ``run_s`` is the sum of the job times; the
    output check after each job is not timed.  A ``tracer`` is installed for
    the whole loop; the checks call nothing it wraps.  ``raw`` holds each
    job's wall time and ``times`` its reference seconds.
    """
    spans, outputs, failures = [], [], []
    points = 0
    wall0, cpu0 = time.perf_counter(), time.process_time()
    with tracer or contextlib.nullcontext(), speed.Sampler() as sampler:
        for i, job in enumerate(jobs):
            span = tracer.begin_job(i) if tracer else None
            t0 = time.perf_counter()
            try:
                result = job.run()
                error = None
            except Exception:  # noqa: BLE001 - a failed job is counted, the pass goes on
                result, error = None, traceback.format_exc()
            gc.collect()
            t1 = time.perf_counter()
            if tracer:
                tracer.end_job(span, t0, t1)
            spans.append((t0, t1))
            canon = None
            if error is None:
                try:
                    canon = json.loads(json.dumps(job.canon(result)))
                    points += job.points(result)
                    if not check(job.key, canon):
                        error = f"output differs from the reference: {json.dumps(canon)}"
                except Exception:  # noqa: BLE001 - an unreadable result is a failed job
                    error = traceback.format_exc()
            del result      # freed here, not inside the next job's time
            outputs.append(json.dumps(canon, sort_keys=True))
            if error is not None:
                failures.append(i)
                print(f"job {i} ({job.key}) failed: {error}", file=sys.stderr)
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    raw = [t1 - t0 for t0, t1 in spans]
    times = [sampler.reference_seconds(t0, t1) for t0, t1 in spans]
    return {"run_s": sum(times), "raw_s": sum(raw), "times": times,
            "factors": [t / r for t, r in zip(times, raw)],
            "wall": wall, "cpu": cpu, "outputs": outputs, "failed": len(failures),
            "points": points}


def child_main(args, jobs, check) -> int:
    """Set up, say ``ready``, time the speed kernel, then run one pass if asked.

    Prints ``ready``, the kernel time and, for a pass, one JSON line.
    """
    # set-up objects (reference data, job inputs) are the benchmark's own:
    # keep them out of the library's garbage collections
    gc.collect()
    gc.freeze()
    print("ready", flush=True)
    print(speed.kernel_time(), flush=True)
    if args.child == "probe":
        return 0
    tracer = None
    if args.child == "traced":
        from tracer import Tracer
        tracer = Tracer()
    result = run_pass(jobs, check, tracer)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        from tracer import summarize
        result["summary"] = summarize(tracer, result["factors"])
        if args.write_spans:
            OUT.mkdir(exist_ok=True)
            tracer.write(OUT / f"spans-{args.workload}-s{args.seed}.jsonl.gz")
    print(json.dumps(result), flush=True)
    return 0


def spawn(args, kind: str, write_spans: bool = False):
    """Run a child interpreter of ``kind`` (probe, pass or traced).

    Returns the set-up time in reference seconds, in raw seconds, and the
    pass record (``None`` for a probe).  Set-up time is from the start of the
    child to its ``ready``; it is scaled by the kernel time the child measures
    right after, on its own CPU.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--child", kind]
    if write_spans:
        cmd.append("--write-spans")
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        # a child that hangs is killed, which ends the reads below
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - t0
            rest = proc.stdout.read()
            proc.wait()
        finally:
            timer.cancel()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"{kind} child failed with exit code {proc.returncode}")
    lines = rest.splitlines()
    setup = ready * speed.REFERENCE_KERNEL_S / float(lines[0])
    return setup, ready, (json.loads(lines[-1]) if kind != "probe" else None)


# ---------------------------------------------------------------------------
# passes, machine record, laurent kernels
# ---------------------------------------------------------------------------

def _passes(run, seconds: float, per_round: int):
    """Call ``run()`` until the next round would end after ``seconds``."""
    start = time.perf_counter()
    rounds = []
    while True:
        t0 = time.perf_counter()
        run()
        rounds.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(rounds) * per_round >= MIN_PASSES and \
                elapsed + statistics.median(rounds) > seconds:
            return


def _quantile(xs, p: float) -> float:
    """Harrell-Davis estimate of the ``p``-quantile of the sorted ``xs``.

    A mean of all order statistics, each weighted by the mass that the
    Beta((n+1)p, (n+1)(1-p)) density puts on its n-th of [0, 1].  Near the
    median of a few dozen jobs, neighbouring jobs differ in size by up to 40%,
    and a seed that changes a job's inputs can swap their ranks; a single
    order statistic then jumps from one job to the next, this estimate does not.
    """
    n = len(xs)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(x):
        if not 0 < x < 1:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))

    steps = 64
    h = 1 / (n * steps)
    weights = []
    for i in range(n):      # Simpson's rule on [i/n, (i+1)/n]
        x0 = i / n
        inner = sum((4 if k % 2 else 2) * density(x0 + k * h) for k in range(1, steps))
        weights.append((density(x0) + inner + density((i + 1) / n)) * h / 3)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def _job_stats(passes):
    """Median time of each job across passes, then the median and the tail job.

    The tail is the highest percentile with at least 10 job runs beyond it in
    a run of MIN_PASSES passes.  It depends only on the job list, so it picks
    the same percentile however many passes a run makes.  Both are
    Harrell-Davis estimates over the per-job medians.
    """
    per_job = sorted(statistics.median(ts) for ts in zip(*(p["times"] for p in passes)))
    n = len(per_job)
    k = max(0, n - 1 - math.ceil(10 / MIN_PASSES))
    return {"p50": _quantile(per_job, 0.5), "tail": _quantile(per_job, (k + 1) / n),
            "tail_pct": 100.0 * (k + 1) / n, "jobs": n,
            "beyond": (n - 1 - k) * MIN_PASSES}


def machine() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model,
            "python": platform.python_version(), "platform": platform.platform()}


def _per_op_us(fn, items, repeats=9) -> float:
    """Median over batches of reference microseconds per call."""
    batches = []
    with speed.Sampler() as sampler:
        for _ in range(repeats):
            t0 = time.perf_counter()
            for item in items:
                fn(item)
            batches.append((t0, time.perf_counter()))
    return statistics.median(sampler.reference_seconds(t0, t1) / len(items) * 1e6
                             for t0, t1 in batches)


def laurent_kernels(seed: int) -> dict:
    """Seeded products and inverses in the two shapes the workloads use."""
    from affgrass.laurent import LaurentSeries, PrimeField, random_with_val
    rng = random.Random(f"laurent:{seed}")
    f3 = PrimeField(3, 64)

    def short():
        cs = [rng.randrange(1, 3)] + [rng.randrange(3) for _ in range(rng.randrange(4))]
        return LaurentSeries(f3, rng.randrange(-3, 4), cs)
    pairs_short = [(short(), short()) for _ in range(2000)]
    fp = PrimeField(10007, 64)
    longs = [random_with_val(fp, 0, rng) for _ in range(80)]
    pairs_long = list(zip(longs, longs[1:] + longs[:1]))
    return {
        "laurent.mul_us_short": _per_op_us(lambda ab: ab[0] * ab[1], pairs_short),
        "laurent.mul_us_long": _per_op_us(lambda ab: ab[0] * ab[1], pairs_long),
        "laurent.inv_us_long": _per_op_us(lambda a: a.inv(), longs),
    }


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def run_untraced(args, report):
    setup, setup_raw = [], []
    for _ in range(SETUP_PROBES):
        s, r, _ = spawn(args, "probe")
        setup.append(s)
        setup_raw.append(r)
    passes = []

    def one():
        s, r, p = spawn(args, "pass")
        setup.append(s)
        setup_raw.append(r)
        passes.append(p)

    _passes(one, args.seconds, 1)
    run_s = statistics.median(p["run_s"] for p in passes)
    js = _job_stats(passes)
    metrics = {
        "setup_s": statistics.median(setup),
        "run_s": run_s,
        "job_s_p50": js["p50"],
        "job_s_tail": js["tail"],
        "points_per_s": passes[0]["points"] / run_s,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    report.update(setup_s=setup, setup_raw_s=setup_raw, passes=_pass_records(passes),
                  job_stats=js, jobs={key: [p["times"][i] for p in passes]
                                      for i, key in enumerate(report["job_keys"])})
    return passes, {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}


def run_traced(args, report):
    untraced, traced = [], []

    def round_():
        untraced.append(spawn(args, "pass")[2])
        traced.append(spawn(args, "traced", write_spans=not traced)[2])

    _passes(round_, args.seconds, 2)
    summaries = [p["summary"] for p in traced]
    counts = summaries[0]["counts"]
    if any(s["counts"] != counts for s in summaries):
        print("note: counts differ between traced passes", file=sys.stderr)
    layer = {"counts": counts, "ratios": summaries[0]["ratios"],
             "times": {k: statistics.median(s["times"][k] for s in summaries)
                       for k in summaries[0]["times"]},
             "kernels": laurent_kernels(args.seed)}
    overhead = statistics.median(p["run_s"] for p in traced) / \
        statistics.median(p["run_s"] for p in untraced)
    layer["ratios"]["trace.overhead"] = overhead
    metrics = {}
    for kind, values in layer.items():
        for name, value in values.items():
            unit = "ratio" if name.startswith("trace.") else PER_LAYER_UNITS[kind]
            metrics[name] = {"value": value, "unit": unit}
    report.update(untraced=_pass_records(untraced), traced=_pass_records(traced))
    return untraced + traced, dict(sorted(metrics.items()))


def _pass_records(passes):
    return [{"run_s": p["run_s"], "raw_s": p["raw_s"], "wall_s": p["wall"], "cpu_s": p["cpu"],
             "points": p["points"], "failed": p["failed"], "peak_rss_mb": p["peak_rss_mb"]}
            for p in passes]


def _print_report(args, report, passes, metrics):
    m = report["machine"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"jobs/pass {len(passes[0]['times'])}")
    print(f"machine: nproc={m['nproc']} cpu={m['cpu']!r} python={m['python']}")
    for kind in ("passes", "untraced", "traced"):
        for i, p in enumerate(report.get(kind, [])):
            print(f"  {kind} {i + 1}: {p['run_s']:.3f} ref s  raw {p['raw_s']:.3f} s  "
                  f"wall {p['wall_s']:.3f} s  cpu {p['cpu_s']:.3f} s  "
                  f"points {p['points']}  failed {p['failed']}")
    attempted = sum(len(p["times"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    for name, v in metrics.items():
        print(f"  {name:40s} {v['value']:.6g} {v['unit']}")
    if "job_stats" in report:
        js = report["job_stats"]
        print(f"  job_s_tail is p{js['tail_pct']:.1f} of {js['jobs']} per-job medians "
              f"({js['beyond']} job runs beyond it in {MIN_PASSES} passes)")
    print(f"  {'failed_frac':40s} {failed / attempted:.6g} ratio ({failed}/{attempted})")


def _run_seconds() -> int:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    except (OSError, ValueError, KeyError) as e:
        sys.exit(f"error: no run_seconds in {ROOT / 'BENCHMARK.json'}: {e}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--child", choices=("probe", "pass", "traced"), help=argparse.SUPPRESS)
    ap.add_argument("--write-spans", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    _import_library()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload}; choose from {sorted(WORKLOADS)}")
    jobs, check = _setup(args.workload, args.seed)
    if args.child:
        return child_main(args, jobs, check)
    if args.seconds is None:
        args.seconds = _run_seconds()

    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "machine": machine(),
              "job_keys": [job.key for job in jobs]}
    run = run_traced if args.trace else run_untraced
    passes, metrics = run(args, report)
    same = all(p["outputs"] == passes[0]["outputs"] for p in passes)
    if not same:
        print("error: job outputs differ between passes", file=sys.stderr)
    attempted = sum(len(p["times"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    report["metrics"] = metrics
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"run-{args.workload}-s{args.seed}-t{args.trace}.json", "w") as fh:
        json.dump(report, fh, indent=1)
    _print_report(args, report, passes, metrics)
    print(json.dumps({"correct": failed == 0 and same, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
