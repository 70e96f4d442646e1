"""One test per acceptance criterion; each prints its own pass/fail line."""
import json
import subprocess
import sys
from pathlib import Path

from affgrass import acceptance

SEED = 7

# `affgrass check --suite all --seed 7 --out tests/data/check_seed7.json`:
# every criterion must still report exactly these counts
GOLDEN = {r["criterion"]: r for r in json.loads(
    (Path(__file__).parent / "data" / "check_seed7.json").read_text())["results"]}


def _run(fn):
    r = fn(SEED)
    status = "PASS" if r["passed"] else "FAIL"
    detail = {k: v for k, v in r.items()
              if k not in ("criterion", "name", "passed")}
    print(f"[{status}] criterion {r['criterion']}: {r['name']} {detail}")
    assert json.loads(json.dumps({k: v for k, v in r.items() if k != "seconds"})) \
        == GOLDEN[r["criterion"]]
    return r


def test_criterion_01_braid_involution():
    r = _run(acceptance.check_braid_involution)
    assert r["passed"], r
    assert r["seconds"] < 1.0


def test_criterion_02_tropicalization():
    r = _run(acceptance.check_tropicalization)
    assert r["passed"], r
    assert r["samples"] == 1000 and r["tropical"] > 0 and r["degenerate"] > 0
    assert r["seconds"] < 30.0


def test_criterion_03_parametrization():
    r = _run(acceptance.check_parametrization)
    assert r["passed"], r
    assert r["members"] == r["samples"] == 27 * 20
    assert r["seconds"] < 120.0


def test_criterion_04_canonicalization():
    r = _run(acceptance.check_polytope_canonicalization)
    assert r["passed"], r
    assert r["seconds"] < 120.0


def test_criterion_05_contracting_cells():
    r = _run(acceptance.check_contracting_cells)
    assert r["passed"], r
    assert r["cases"] == 60
    assert r["seconds"] < 300.0


def test_criterion_06_purity_bridge():
    r = _run(acceptance.check_purity_bridge)
    assert r["passed"], r
    assert r["seconds"] < 600.0


def test_criterion_07_springer_criterion():
    r = _run(acceptance.check_springer_criterion)
    assert r["passed"], r
    assert r["raw_form_failures"] == 0
    assert r["seconds"] < 900.0


def test_criterion_08_truncated_pavings():
    r = _run(acceptance.check_truncated_pavings)
    assert r["passed"], r
    assert r["seconds"] < 900.0


def test_criterion_09_springer_dimension():
    r = _run(acceptance.check_springer_dimension)
    assert r["passed"], r


def test_criterion_09_alone_in_fresh_interpreter():
    # criterion 9 builds its own plans; it reads nothing left by criterion 8
    code = ("import json; from affgrass import acceptance; "
            "r = acceptance.check_springer_dimension(7); r.pop('seconds'); "
            "print(json.dumps(r))")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    out = json.loads(r.stdout)
    assert out["passed"] and out["failures"] == [] and out == GOLDEN[9]
    assert not hasattr(acceptance.check_truncated_pavings, "plans")


def test_criterion_10_kostant():
    r = _run(acceptance.check_kostant_count)
    assert r["passed"], r
    assert r["seconds"] < 1.0
