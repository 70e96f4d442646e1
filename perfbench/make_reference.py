"""Record the canonical output of every job in every random slot.

    python3 perfbench/make_reference.py [--workload NAME ...]

Runs each workload's whole job universe once and writes ``reference.json``
next to this file.  A job whose result must not depend on its slot (pavings,
cell counts) is run in every slot and any disagreement is reported and stops
the script.  Run it on a commit whose outputs are trusted; ``run.py`` checks
every later run against the file.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import WORKLOADS, merge_reference  # noqa: E402

REFERENCE = HERE / "reference.json"


def dump(ref: dict) -> str:
    """JSON with one line per job, so a changed result shows as a one-line diff."""
    blocks = []
    for name in sorted(ref):
        rows = [f"  {json.dumps(key)}: {json.dumps(value, sort_keys=True, separators=(',', ':'))}"
                for key, value in sorted(ref[name].items())]
        blocks.append(f"{json.dumps(name)}: {{\n" + ",\n".join(rows) + "\n}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = ap.parse_args(argv)
    out = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    errors = []
    for name in args.workload or list(WORKLOADS):
        t0 = time.perf_counter()
        ref = {}
        jobs = WORKLOADS[name].universe()
        for job in jobs:
            got = json.loads(json.dumps(job.canon(job.run())))
            msg = merge_reference(ref, job.key, got)
            if msg:
                errors.append(f"{name}: {msg}")
        out[name] = ref
        print(f"{name}: {len(jobs)} job runs, {len(ref)} keys, "
              f"{time.perf_counter() - t0:.1f} s", flush=True)
    if errors:
        print("\n".join(errors), file=sys.stderr)
        return 1
    REFERENCE.write_text(dump(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
