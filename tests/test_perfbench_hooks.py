"""The benchmark's hooks into the library.

``perfbench`` calls library functions by name and its tracer rebinds them, so
a rename under ``src/`` would crash a benchmark run; here it fails a test.
"""
import importlib
import json
import sys
import time
from pathlib import Path

import pytest

from affgrass import grass, paving

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("tracer"), importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize("name", ["mv_pave", "springer_fd", "cell_oracle", "bfz_param"])
def test_smallest_job_runs_traced(bench, name):
    tracer, workloads = bench
    reference = json.loads((PERFBENCH / "reference.json").read_text())[name]
    job = min(workloads.build_jobs(workloads.WORKLOADS[name], 1), key=lambda j: j.key)
    originals = (grass.iter_points, grass.dprofile, paving.ContractingCell.enumerate)
    with tracer.Tracer() as t:
        span = t.begin_job(0)
        t0 = time.perf_counter()
        result = job.run()
        t.end_job(span, t0, time.perf_counter())
    assert (grass.iter_points, grass.dprofile, paving.ContractingCell.enumerate) == originals
    assert any(s[0] != tracer.JOB_SPAN for s in t.spans)
    assert set(tracer.summarize(t, [1.0])) == {"counts", "ratios", "times"}
    assert workloads.matches(reference[job.key], json.loads(json.dumps(job.canon(result))))


def test_bfz_param_universe_matches_reference(bench):
    # a pass runs one of 16 slots per Lusztig datum; here every slot's
    # points, member flags and retries are checked against the reference
    _tracer, workloads = bench
    reference = json.loads((PERFBENCH / "reference.json").read_text())["bfz_param"]
    jobs = workloads.WORKLOADS["bfz_param"].universe()
    assert len(jobs) == len(reference) == 432
    for job in jobs:
        assert reference[job.key] == json.loads(json.dumps(job.canon(job.run())))
