import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from affgrass.cli import main

README_CLI = Path(__file__).parent / "data" / "readme_cli"


def python_m(*args, flags=()):
    """The command in a fresh interpreter: ``python [flags] -m affgrass args``."""
    return subprocess.run([sys.executable, *flags, "-m", "affgrass", *args],
                          capture_output=True, text=True)


@pytest.fixture
def run(capsys):
    """The command through ``cli.main`` in this process, its exit code and
    output read as from ``python_m``."""
    def call(*args):
        try:
            code = main(list(args))
        except SystemExit as e:  # argparse rejects the command line
            code = e.code
        out = capsys.readouterr()
        return SimpleNamespace(returncode=code, stdout=out.out, stderr=out.err)
    return call


def test_polytope_command(run):
    r = run("polytope", "--word", "121", "--n", "2,1,1", "--base=-1,1,1")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    verts = {tuple(v) for v in out["family"]["vertices"].values()}
    assert verts == {(0, 2, -1), (2, 0, -1), (-1, 2, 0),
                     (2, -1, 0), (-1, 1, 1), (1, -1, 1)}
    assert out["dimension"] == 5


def test_polytope_single_point(run):
    r = run("polytope", "--word", "121", "--n", "0,0,0")
    out = json.loads(r.stdout)
    assert out["lattice_points"] == [[0, 0, 0]]


def test_polytope_apply_crystal(run):
    r = run("polytope", "--word", "121", "--n", "2,1,0", "--apply", "E2")
    out = json.loads(r.stdout)
    assert out["word121"] == [1, 1, 0]


def test_braid_command(run):
    r = run("braid", "--word", "121", "--n", "2,1,0")
    assert json.loads(r.stdout) == {"word": "212", "n": [1, 0, 3]}


def test_points_graph_betti(tmp_path, run):
    poly = tmp_path / "p.json"
    poly.write_text(json.dumps({"word": "121", "n": [1, 0, 0]}))
    r = run("points", "--polytope", str(poly), "--prime", "2")
    assert json.loads(r.stdout)["count"] == 3
    dot = tmp_path / "g.dot"
    r = run("graph", "--polytope", str(poly), "--dot", str(dot))
    assert r.returncode == 0 and "a12" in dot.read_text()
    r = run("betti", "--polytope", str(poly))
    assert json.loads(r.stdout)["min_poincare"] == [1, 1]


def test_pave_command(tmp_path, run):
    poly = tmp_path / "p.json"
    poly.write_text(json.dumps({"word": "121", "n": [1, 0, 1]}))
    r = run("pave", "--polytope", str(poly), "--verify-q", "2,3")
    out = json.loads(r.stdout)
    assert out["verified"]["ok"] and out["poincare"] == [1, 1, 1]
    r = run("pave", "--polytope", str(poly), "--method", "iwahori")
    assert json.loads(r.stdout)["poincare"] == [1, 1, 1]


@pytest.mark.parametrize("base, nu, vertices", [
    (None, 0, [[0, 0, 0], [-1, 1, 0], [-1, 0, 1]]),
    ([5, 5, 5], 15, [[6, 5, 4], [5, 6, 4], [5, 5, 5]])])
def test_pave_iwahori_plan_lies_on_the_named_polytope(tmp_path, base, nu, vertices, run):
    # the Iwahori plan is built in the anchoring of the two Schubert
    # triangles, then translated onto the polytope the file names
    data = {"word": "121", "n": [1, 0, 1]}
    if base is not None:
        data["base"] = base
    poly = tmp_path / "p.json"
    poly.write_text(json.dumps(data))
    greedy = json.loads(run("pave", "--polytope", str(poly), "--verify-q", "2").stdout)
    out = json.loads(run("pave", "--polytope", str(poly), "--method", "iwahori",
                         "--verify-q", "2").stdout)
    assert out["nu"] == greedy["nu"] == nu
    assert [s["vertex"] for s in out["steps"]] == vertices
    assert sorted(vertices) == sorted(s["vertex"] for s in greedy["steps"])
    assert out["verified"]["per_q"] == [{"q": 2, "total": 7, "by_step": [4, 2, 1]}]


@pytest.mark.parametrize("qs, want", [("2,2", [2]), ("3,2,3", [3, 2])])
def test_pave_verifies_each_modulus_once(tmp_path, qs, want, run):
    poly = tmp_path / "p.json"
    poly.write_text(json.dumps({"word": "121", "n": [1, 0, 1]}))
    r = run("pave", "--polytope", str(poly), "--verify-q", qs)
    assert [rec["q"] for rec in json.loads(r.stdout)["verified"]["per_q"]] == want


def test_pave_iwahori_names_the_121_datum(tmp_path, run):
    # the 212 datum (1, 0, 0) reads n1 >= n3 >= n2 as written, but its 121 datum
    # (0, 0, 1), which the paving reads, does not: the error names that one
    poly = tmp_path / "p.json"
    poly.write_text(json.dumps({"word": "212", "n": [1, 0, 0]}))
    r = run("pave", "--polytope", str(poly), "--method", "iwahori")
    assert r.returncode == 2 and not r.stdout
    assert r.stderr == "error: 121 datum (0, 0, 1) needs n1 >= n3 >= n2\n"


@pytest.mark.parametrize("q", ["4", "0", "1"])
@pytest.mark.parametrize("method", ["greedy", "iwahori"])
def test_pave_rejects_nonprime_verify_q(tmp_path, method, q, run):
    poly = tmp_path / "p.json"
    poly.write_text(json.dumps({"word": "121", "n": [2, 1, 1]}))
    r = run("pave", "--polytope", str(poly), "--method", method, "--verify-q", f"2,{q}")
    assert r.returncode == 2 and f"modulus {q} is not prime" in r.stderr and not r.stdout


def test_springer_command(tmp_path, run):
    gam = tmp_path / "g.json"
    gam.write_text(json.dumps({"pattern": [2, 1, 1], "prime": 3}))
    r = run("springer", "--gamma", str(gam), "--truncate", "j=12",
            "--verify-q", "2,3")
    out = json.loads(r.stdout)
    assert out["verified"]["per_q"][0]["total"] == 19


def test_check_fast_deterministic(tmp_path, run):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    r1 = run("check", "--suite", "fast", "--seed", "7", "--out", str(a))
    r2 = run("check", "--suite", "fast", "--seed", "7", "--out", str(b))
    assert r1.returncode == 0 and r2.returncode == 0
    assert a.read_text() == b.read_text()


def test_domain_error_exit_code():
    # the one domain error run as ``python -m affgrass``: the exit code leaves the process
    r = python_m("braid", "--word", "121", "--n", "1,-1,0")
    assert r.returncode == 2


_BORELS = ("123", "132", "312", "321", "231", "213")


def test_inconsistent_polytope_message(tmp_path, run):
    poly = tmp_path / "p.json"
    poly.write_text(json.dumps({"nu": 1, "vertices": {
        k: [0, 1, 0] if k == "213" else [1, 0, 0] for k in _BORELS}}))
    r = run("points", "--polytope", str(poly), "--prime", "2")
    assert r.returncode == 2
    assert r.stderr == ("error: vertex (1, 0, 0) at chamber 4 is not (1, 1, -1), where the "
                        "support puts it: not a positive orthogonal family on the nu=1 fiber\n")
_SERIES = {"lead": 0, "coeffs": [1], "prec": "exact"}


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
    ("springer", "--gamma", {"pattern": [True, 1, 1]}),
    ("springer", "--gamma", {"pattern": [1, 1]}),
    ("springer", "--gamma", {"pattern": [1, 1, 1, 9]}),
    ("springer", "--gamma", {"series": [_SERIES, _SERIES]}),
    ("springer", "--gamma", {"pattern": [2, 1, 1], "prime": "3"}),
    ("springer", "--gamma", {"pattern": [2, 1, 1], "prime": True}),
    ("springer", "--gamma", {"series": [dict(_SERIES, lead=True), _SERIES, _SERIES]}),
    ("springer", "--gamma", {"series": [dict(_SERIES, coeffs=[1.5]), _SERIES, _SERIES]}),
    ("springer", "--gamma", {"series": [dict(_SERIES, coeffs="ab"), _SERIES, _SERIES]}),
    ("springer", "--gamma", {"series": [dict(_SERIES, prec="x"), _SERIES, _SERIES]}),
])
def test_malformed_input_exit_code(tmp_path, cmd, flag, data, run):
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


@pytest.mark.parametrize("data, named", [
    ({"pattern": [True, 1, 1]}, '"pattern"'),
    ({"pattern": [1, 1]}, '"pattern"'),
    ({"pattern": [1, 1, 1, 9]}, '"pattern"'),
    ({"series": [_SERIES, _SERIES]}, '"series"'),
    ({"series": _SERIES}, '"series"'),
    ({"pattern": [2, 1, 1], "prime": "3"}, '"prime"'),
    ({"pattern": [2, 1, 1], "prime": True}, '"prime"'),
    ({"series": [dict(_SERIES, lead=True), _SERIES, _SERIES]}, '"lead"'),
    ({"series": [dict(_SERIES, coeffs=[1.5]), _SERIES, _SERIES]}, '"coeffs"'),
    ({"series": [dict(_SERIES, coeffs="ab"), _SERIES, _SERIES]}, '"coeffs"'),
    ({"series": [dict(_SERIES, prec="x"), _SERIES, _SERIES]}, '"prec"'),
    ({"series": [dict(_SERIES, prec=True), _SERIES, _SERIES]}, '"prec"'),
    ({"series": [dict(_SERIES, lead=3, coeffs=[1, 2], prec=2), _SERIES, _SERIES]}, '"prec"'),
    ({"series": [_SERIES, _SERIES, dict(_SERIES, lead=0, prec=0)]}, '"prec"'),
])
def test_gamma_file_error_names_the_field(tmp_path, capsys, data, named):
    from affgrass.cli import main
    f = tmp_path / "g.json"
    f.write_text(json.dumps(data))
    assert main(["springer", "--gamma", str(f)]) == 2
    err = capsys.readouterr().err
    assert "malformed gamma file" in err and named in err


def test_unknown_root_valuation_names_the_root(tmp_path, capsys):
    # g1 = g2 to precision 3: c12 cannot be read, and the error says which root
    from affgrass.cli import main
    f = tmp_path / "g.json"
    f.write_text(json.dumps({"prime": 5, "series": [
        {"lead": 0, "coeffs": [1], "prec": 3}, {"lead": 0, "coeffs": [1], "prec": 3},
        {"lead": 0, "coeffs": [2], "prec": 3}]}))
    assert main(["springer", "--gamma", str(f)]) == 2
    err = capsys.readouterr().err
    assert "c12 = val(g1 - g2)" in err and "eps^3" in err


@pytest.mark.parametrize("args", [("pave", "--prime", "5"), ("pave", "--seed", "3"),
                                  ("braid", "--word", "121", "--n", "2,1,0", "--prime", "5")])
def test_options_only_where_read(tmp_path, args, run):
    # --prime belongs to points and springer, --seed to springer and check
    poly = tmp_path / "p.json"
    poly.write_text(json.dumps({"word": "121", "n": [1, 0, 1]}))
    r = run(*args, *(("--polytope", str(poly)) if args[0] == "pave" else ()))
    assert r.returncode == 2 and "unrecognized arguments" in r.stderr


@pytest.mark.parametrize("c", ["1,1", "1,1,1,1"])
def test_graph_springer_c_wants_three_values(tmp_path, c, run):
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
def test_crystal_input_is_checked(args, flag, run):
    # a bad crystal operator, crystal word, base or datum is a domain error,
    # never a silently wrong answer or a traceback
    r = run(*args)
    assert r.returncode == 2
    assert flag in r.stderr and "Traceback" not in r.stderr


@pytest.mark.parametrize("args, flag", [
    (("springer", "--truncate", "j=abc"), "--truncate"),
    (("springer", "--truncate", "j=3"), "--truncate"),
    (("springer", "--truncate", "j=11"), "--truncate"),
    (("springer", "--truncate", "j=12", "--verify-q", "2,x"), "--verify-q"),
    (("pave", "--verify-q", "2,,3"), "--verify-q"),
])
def test_option_error_names_the_flag(tmp_path, args, flag, run):
    poly, gam = tmp_path / "p.json", tmp_path / "g.json"
    poly.write_text(json.dumps({"word": "121", "n": [1, 0, 1]}))
    gam.write_text(json.dumps({"pattern": [2, 1, 1], "prime": 3}))
    inputs = ("--polytope", str(poly)) if args[0] == "pave" else ("--gamma", str(gam))
    r = run(args[0], *inputs, *args[1:])
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
        plain, opt = python_m(*args), python_m(*args, flags=("-O",))
        assert plain.returncode == opt.returncode == 0
        assert json.loads(opt.stdout) == json.loads(plain.stdout)


# the CLI examples of the README, each with the file its stdout must equal
README_EXAMPLES = [
    ("polytope", ("polytope", "--word", "121", "--n", "2,1,1")),
    ("braid", ("braid", "--word", "121", "--n", "2,1,0")),
    ("points", ("points", "--polytope", "{p}", "--prime", "2")),
    ("graph", ("graph", "--polytope", "{p}", "--dot", "{dot}")),
    ("betti", ("betti", "--polytope", "{p}")),
    ("pave_greedy", ("pave", "--polytope", "{p}", "--method", "greedy", "--verify-q", "2,3")),
    ("pave_iwahori", ("pave", "--polytope", "{p}", "--method", "iwahori")),
    ("springer", ("springer", "--gamma", "{g}", "--truncate", "j=12", "--verify-q", "2,3")),
]


@pytest.mark.parametrize("name, args", README_EXAMPLES, ids=[n for n, _a in README_EXAMPLES])
def test_readme_example_output_is_recorded(tmp_path, name, args):
    files = {"p": tmp_path / "p.json", "g": tmp_path / "g.json", "dot": tmp_path / "g.dot"}
    files["p"].write_text('{"word": "121", "n": [1,0,1]}\n')
    files["g"].write_text('{"pattern": [2,1,1], "prime": 3}\n')
    r = subprocess.run([sys.executable, "-m", "affgrass",
                        *(a.format(**files) for a in args)], capture_output=True)
    assert r.returncode == 0
    assert r.stdout == (README_CLI / f"{name}.json").read_bytes()
    if name == "graph":
        assert files["dot"].read_bytes() == (README_CLI / "graph.dot").read_bytes()
