import json
import subprocess
import sys

import pytest


def run(*args, flags=()):
    return subprocess.run([sys.executable, *flags, "-m", "affgrass", *args],
                          capture_output=True, text=True)


def test_polytope_command():
    r = run("polytope", "--word", "121", "--n", "2,1,1", "--base=-1,1,1")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    verts = {tuple(v) for v in out["family"]["vertices"].values()}
    assert verts == {(0, 2, -1), (2, 0, -1), (-1, 2, 0),
                     (2, -1, 0), (-1, 1, 1), (1, -1, 1)}
    assert out["dimension"] == 5


def test_polytope_single_point():
    r = run("polytope", "--word", "121", "--n", "0,0,0")
    out = json.loads(r.stdout)
    assert out["lattice_points"] == [[0, 0, 0]]


def test_polytope_apply_crystal():
    r = run("polytope", "--word", "121", "--n", "2,1,0", "--apply", "E2")
    out = json.loads(r.stdout)
    assert out["word121"] == [1, 1, 0]


def test_braid_command():
    r = run("braid", "--word", "121", "--n", "2,1,0")
    assert json.loads(r.stdout) == {"word": "212", "n": [1, 0, 3]}


def test_points_graph_betti(tmp_path):
    poly = tmp_path / "p.json"
    poly.write_text(json.dumps({"word": "121", "n": [1, 0, 0]}))
    r = run("points", "--polytope", str(poly), "--prime", "2")
    assert json.loads(r.stdout)["count"] == 3
    dot = tmp_path / "g.dot"
    r = run("graph", "--polytope", str(poly), "--dot", str(dot))
    assert r.returncode == 0 and "a12" in dot.read_text()
    r = run("betti", "--polytope", str(poly))
    assert json.loads(r.stdout)["min_poincare"] == [1, 1]


def test_pave_command(tmp_path):
    poly = tmp_path / "p.json"
    poly.write_text(json.dumps({"word": "121", "n": [1, 0, 1]}))
    r = run("pave", "--polytope", str(poly), "--verify-q", "2,3")
    out = json.loads(r.stdout)
    assert out["verified"]["ok"] and out["poincare"] == [1, 1, 1]
    r = run("pave", "--polytope", str(poly), "--method", "iwahori")
    assert json.loads(r.stdout)["poincare"] == [1, 1, 1]


def test_springer_command(tmp_path):
    gam = tmp_path / "g.json"
    gam.write_text(json.dumps({"pattern": [2, 1, 1], "prime": 3}))
    r = run("springer", "--gamma", str(gam), "--truncate", "j=12",
            "--verify-q", "2,3")
    out = json.loads(r.stdout)
    assert out["verified"]["per_q"][0]["total"] == 19


def test_check_fast_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    r1 = run("check", "--suite", "fast", "--seed", "7", "--out", str(a))
    r2 = run("check", "--suite", "fast", "--seed", "7", "--out", str(b))
    assert r1.returncode == 0 and r2.returncode == 0
    assert a.read_text() == b.read_text()


def test_domain_error_exit_code():
    r = run("braid", "--word", "121", "--n", "1,-1,0")
    assert r.returncode == 2


_BORELS = ("123", "132", "312", "321", "231", "213")


@pytest.mark.parametrize("cmd, flag, data", [
    ("betti", "--polytope", {"word": "121"}),
    ("betti", "--polytope", {"word": "121", "n": 5}),
    ("springer", "--gamma", {"prime": 3}),
    ("springer", "--gamma", [2, 1, 1]),
    ("points", "--polytope", {"word": "121", "n": [1, 0, 1], "base": [1, 2]}),
    ("graph", "--polytope", {"weyl": [2, 1]}),
    ("pave", "--polytope", {"nu": 0, "vertices": {
        "123": [0, 0], "132": [0, 0, 0], "312": [0, 0, 0],
        "321": [0, 0, 0], "231": [0, 0, 0], "213": [0, 0, 0]}}),
    ("betti", "--polytope", {"word": "121", "n": [1, 0, 1, 7]}),
    ("points", "--polytope", {"word": "121", "n": "1,0,1"}),
    ("points", "--polytope", {"nu": 0, "vertices": {"124": [0, 0, 0]}}),
    ("pave", "--polytope", {"nu": True, "vertices": {k: [1, 0, 0] for k in _BORELS}}),
    ("points", "--polytope", {"nu": "a", "vertices": {k: [0, 0, 0] for k in _BORELS}}),
    ("points", "--polytope", {"nu": 0, "vertices": {"123": [0, 0, 0]}}),
])
def test_malformed_input_exit_code(tmp_path, cmd, flag, data):
    f = tmp_path / "in.json"
    f.write_text(json.dumps(data))
    r = run(cmd, flag, str(f))
    assert r.returncode == 2
    assert "malformed" in r.stderr and "Traceback" not in r.stderr


@pytest.mark.parametrize("data, named", [
    ({"nu": True, "vertices": {k: [1, 0, 0] for k in _BORELS}}, '"nu"'),
    ({"nu": "a", "vertices": {k: [0, 0, 0] for k in _BORELS}}, '"nu"'),
    ({"nu": 0, "vertices": {"123": [0, 0, 0]}}, "132, 312, 321, 231, 213"),
])
def test_polytope_file_error_names_the_field(data, named):
    from affgrass.cli import family_from_json
    from affgrass.errors import AffgrassError
    with pytest.raises(AffgrassError, match="malformed polytope file") as e:
        family_from_json(data)
    assert named in str(e.value)


@pytest.mark.parametrize("args", [("pave", "--prime", "5"), ("pave", "--seed", "3"),
                                  ("braid", "--word", "121", "--n", "2,1,0", "--prime", "5")])
def test_options_only_where_read(tmp_path, args):
    # --prime belongs to points and springer, --seed to springer and check
    poly = tmp_path / "p.json"
    poly.write_text(json.dumps({"word": "121", "n": [1, 0, 1]}))
    r = run(*args, *(("--polytope", str(poly)) if args[0] == "pave" else ()))
    assert r.returncode == 2 and "unrecognized arguments" in r.stderr


@pytest.mark.parametrize("c", ["1,1", "1,1,1,1"])
def test_graph_springer_c_wants_three_values(tmp_path, c):
    poly = tmp_path / "p.json"
    poly.write_text(json.dumps({"word": "121", "n": [2, 1, 1]}))
    r = run("graph", "--polytope", str(poly), "--springer-c", c)
    assert r.returncode == 2
    assert "springer-c" in r.stderr and "Traceback" not in r.stderr


@pytest.mark.parametrize("args, flag", [
    (("polytope", "--word", "121", "--n", "2,1,1", "--apply", "X1"), "--apply"),
    (("polytope", "--word", "121", "--n", "2,1,1", "--apply", "E7"), "--apply"),
    (("crystal", "--word", "121", "--n", "2,1,1", "--j", "3"), "--j"),
    (("polytope", "--word", "121", "--n", "2,1,1", "--base", "1,2"), "--base"),
    (("braid", "--word", "121", "--n", "1,2"), "--n"),
    (("crystal", "--word", "121", "--n", "1,0,1,7", "--j", "1"), "--n"),
])
def test_crystal_input_is_checked(args, flag):
    # a bad crystal operator, crystal word, base or datum is a domain error,
    # never a silently wrong answer or a traceback
    r = run(*args)
    assert r.returncode == 2
    assert flag in r.stderr and "Traceback" not in r.stderr


def test_same_output_under_optimize(tmp_path):
    # library invariants raise typed errors, so -O changes nothing
    poly = tmp_path / "p.json"
    poly.write_text(json.dumps({"word": "121", "n": [1, 0, 1]}))
    gam = tmp_path / "g.json"
    gam.write_text(json.dumps({"pattern": [2, 1, 1], "prime": 3}))
    for args in (("pave", "--polytope", str(poly)),
                 ("springer", "--gamma", str(gam), "--truncate", "j=")):
        plain, opt = run(*args), run(*args, flags=("-O",))
        assert plain.returncode == opt.returncode == 0
        assert json.loads(opt.stdout) == json.loads(plain.stdout)
