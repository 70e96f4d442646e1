"""Command line interface.  Batch computations with JSON/DOT output.

All mathematics lives in the library modules; every subcommand parses, calls
one entry point, and serializes.  Exit codes: 0 success, 1 verification
failure, 2 domain error.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import random
import sys

from .acceptance import run_suite
from .errors import AffgrassError, PavingVerificationFailed
from .grass import enumerate_points
from .laurent import PrimeField, series_from_json
from .moment import graph_to_json, min_formal_poincare, skeleton, to_dot
from .mvcomb import (ZERO, LusztigDatum, MVPolytope, apply_crystal_word, braid,
                     coweight, crystal_E, crystal_F, dimension)
from .paving import greedy_paving, paving_121
from .rootdata import BORELS, GTFamily, weyl_family
from .springer import (RegularDiagonal, fundamental_domain, synthesize_gamma,
                       truncated_paving)


def _perm_key(w):
    return "".join(str(i) for i in w)


_BOREL_KEYS = tuple(_perm_key(w) for w in BORELS)


def family_to_json(f: GTFamily):
    return {"nu": f.nu,
            "vertices": {_perm_key(BORELS[b]): list(f.vertices[b]) for b in range(6)}}


@contextlib.contextmanager
def _malformed(what: str):
    """A missing key or a value of the wrong type in an input file is a domain error."""
    try:
        yield
    except (KeyError, TypeError, AttributeError) as e:
        raise AffgrassError(f"malformed {what} file: {type(e).__name__}: {e}") from e


def family_from_json(data) -> GTFamily:
    with _malformed("polytope"):
        if "weyl" in data:
            return weyl_family(_file_triple(data, "weyl"))
        if "word" in data:
            base = _file_triple(data, "base") if "base" in data else None
            return MVPolytope.from_datum(_datum(data), base=base).family
        vertices, nu = data["vertices"], data["nu"]
        for key in vertices:
            if key not in _BOREL_KEYS:
                raise AffgrassError(f"malformed polytope file: vertex key {key!r} "
                                    f"is not a permutation of 123")
        missing = [key for key in _BOREL_KEYS if key not in vertices]
        if missing:
            raise AffgrassError(f"malformed polytope file: no vertex for {', '.join(missing)}")
        if type(nu) is not int:
            raise AffgrassError(f'malformed polytope file: "nu" wants an integer, got {nu!r}')
        return GTFamily.from_vertices(nu, tuple(_file_triple(vertices, k) for k in _BOREL_KEYS))


def _datum(data) -> LusztigDatum:
    return LusztigDatum(str(data["word"]), _file_triple(data, "n"))


def _file_triple(data, key):
    return _three_ints(data[key], f'malformed polytope file: "{key}"')


def point_to_json(x):
    return {"d": list(x.d), "nu": x.nu,
            "h": [[e.to_json() for e in row] for row in x.h]}


def _emit(args, payload):
    text = json.dumps(payload, indent=2, sort_keys=True)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def cmd_polytope(args):
    d = LusztigDatum(args.word, _triple(args.n, "--n"))
    P = MVPolytope.from_datum(d, base=_triple(args.base, "--base") if args.base else None)
    if args.apply:
        if args.apply not in ("E1", "E2", "F1", "F2"):
            raise AffgrassError(f"--apply wants one of E1, E2, F1, F2, got {args.apply!r}")
        P2 = _crystal(args.apply[0], int(args.apply[1]), P)
        if P2 is ZERO:
            _emit(args, {"result": "zero"})
            return
        P = P2
    _emit(args, {
        "word121": list(P.datum121.n),
        "word212": list(P.datum212.n),
        "dimension": dimension(P),
        "coweight": list(coweight(P)),
        "family": family_to_json(P.family),
        "lattice_points": [list(v) for v in P.family.lattice_points()],
        "crystal": {
            f"{op}{i}": ("zero" if (r := _crystal(op, i, P)) is ZERO
                         else list(r.datum121.n))
            for op in "EF" for i in (1, 2)
        },
    })


def _crystal(op, i, P):
    return crystal_E(i, P) if op == "E" else crystal_F(i, P)


def _triple(text, flag):
    """Exactly three comma-separated integers, else a domain error."""
    with contextlib.suppress(ValueError):
        return _three_ints([int(x) for x in text.split(",")], flag)
    raise AffgrassError(f"{flag} wants three integers, got {text!r}")


def _three_ints(value, what):
    if not (isinstance(value, list) and len(value) == 3
            and all(type(x) is int for x in value)):
        raise AffgrassError(f"{what} wants three integers, got {value!r}")
    return tuple(value)


def cmd_braid(args):
    d = LusztigDatum(args.word, _triple(args.n, "--n"))
    b = braid(d)
    _emit(args, {"word": b.word, "n": list(b.n)})


def cmd_crystal(args):
    d = LusztigDatum(args.word, _triple(args.n, "--n"))
    P = MVPolytope.from_datum(d)
    word = args.j.replace(",", "")
    if not set(word) <= {"1", "2"}:
        raise AffgrassError(f"--j wants a word in the digits 1 and 2, got {args.j!r}")
    js = [int(c) for c in word]
    out = apply_crystal_word(js, P)
    if out is ZERO:
        _emit(args, {"result": "zero"})
    else:
        _emit(args, {"word121": list(out.datum121.n),
                     "base": list(out.base)})


def cmd_points(args):
    fam = family_from_json(_load(args.polytope))
    field = PrimeField(args.prime)
    pts = enumerate_points(fam, field, budget=args.budget)
    _emit(args, {"prime": field.p, "count": len(pts),
                 "points": [point_to_json(x) for x in pts]})


def _springer_c(text):
    """The root-valuation triple c12,c23,c13 of ``--springer-c``, or None."""
    if text is None:
        return None
    c = _triple(text, "--springer-c")
    if min(c) < 0:
        raise AffgrassError(f"--springer-c wants three non-negative integers "
                            f"c12,c23,c13, got {text!r}")
    return c


def cmd_graph(args):
    fam = family_from_json(_load(args.polytope))
    g = skeleton(fam, springer_c=_springer_c(args.springer_c))
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(to_dot(g) + "\n")
    _emit(args, graph_to_json(g))


def cmd_betti(args):
    fam = family_from_json(_load(args.polytope))
    g = skeleton(fam)
    poly, order = min_formal_poincare(g, budget=args.budget)
    _emit(args, {"min_poincare": list(poly.coeffs),
                 "witness_order": [list(v) for v in order]})


def cmd_pave(args):
    data = _load(args.polytope)
    fam = family_from_json(data)
    qs = tuple(int(q) for q in args.verify_q.split(","))
    if args.method == "greedy":
        plan = greedy_paving(fam, verify_qs=qs)
    else:
        if "word" not in data:
            raise AffgrassError("iwahori paving needs a polytope given by a Lusztig datum")
        plan = paving_121(_datum(data), verify_qs=qs)
    _emit(args, plan.to_json())


def cmd_springer(args):
    data = _load(args.gamma)
    rng = random.Random(args.seed)
    with _malformed("gamma"):
        field = PrimeField(int(data.get("prime", args.prime)))
        if "series" in data:
            gam = RegularDiagonal.from_series([series_from_json(field, s)
                                               for s in data["series"]])
        else:
            gam = synthesize_gamma(tuple(data["pattern"]), field, rng)
    if args.truncate is None:
        trunc = fundamental_domain(gam)
        _emit(args, {"c": list(gam.c), "polytope": family_to_json(trunc.polytope)})
        return
    j = tuple(int(c) for c in args.truncate.replace("j=", "").replace(",", "") if c.strip())
    qs = tuple(int(q) for q in args.verify_q.split(",")) if args.verify_q else None
    plan = truncated_paving(gam, j, verify_qs=qs, rng=rng)
    _emit(args, plan.to_json())


def cmd_check(args):
    report = run_suite(args.suite, args.seed)
    for r in report["results"]:
        status = "PASS" if r["passed"] else "FAIL"
        print(f"[{status}] criterion {r['criterion']}: {r['name']} "
              f"({r['seconds']}s)", file=sys.stderr)
    # wall-clock timings are not part of the reproducible report
    for r in report["results"]:
        r.pop("seconds", None)
    _emit(args, report)
    if not report["passed"]:
        raise PavingVerificationFailed("acceptance suite failed")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="affgrass",
                                 description=__doc__.splitlines()[0])
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="write JSON here instead of stdout")
    sub = ap.add_subparsers(dest="cmd", required=True, parser_class=lambda **kw:
                            argparse.ArgumentParser(parents=[common], **kw))

    p = sub.add_parser("polytope", help="vertices, data, dimension, crystal neighbors")
    p.add_argument("--word", required=True, choices=("121", "212"))
    p.add_argument("--n", required=True)
    p.add_argument("--base", default=None)
    p.add_argument("--apply", default=None, help="one crystal operator, e.g. E2")
    p.set_defaults(fn=cmd_polytope)

    p = sub.add_parser("braid", help="toggle the reduced word")
    p.add_argument("--word", required=True, choices=("121", "212"))
    p.add_argument("--n", required=True)
    p.set_defaults(fn=cmd_braid)

    p = sub.add_parser("crystal", help="apply a word of raising operators")
    p.add_argument("--word", required=True, choices=("121", "212"))
    p.add_argument("--n", required=True)
    p.add_argument("--j", required=True, help="e.g. 12 for E_1 E_2")
    p.set_defaults(fn=cmd_crystal)

    p = sub.add_parser("points", help="enumerate F_q points of a truncation")
    p.add_argument("--polytope", required=True)
    p.add_argument("--prime", type=int, default=2)
    p.add_argument("--budget", type=int, default=5_000_000)
    p.set_defaults(fn=cmd_points)

    p = sub.add_parser("graph", help="moment graph; DOT and JSON export")
    p.add_argument("--polytope", required=True)
    p.add_argument("--dot", default=None)
    p.add_argument("--springer-c", default=None, help="c12,c23,c13")
    p.set_defaults(fn=cmd_graph)

    p = sub.add_parser("betti", help="minimum formal Poincare polynomial")
    p.add_argument("--polytope", required=True)
    p.add_argument("--budget", type=int, default=1 << 18)
    p.set_defaults(fn=cmd_betti)

    p = sub.add_parser("pave", help="paving plan with point-count verification")
    p.add_argument("--polytope", required=True)
    p.add_argument("--method", choices=("greedy", "iwahori"), default="greedy")
    p.add_argument("--verify-q", default="2,3")
    p.set_defaults(fn=cmd_pave)

    p = sub.add_parser("springer", help="truncated affine Springer fiber pavings")
    p.add_argument("--gamma", required=True)
    p.add_argument("--truncate", default=None, help="crystal word, e.g. j=12")
    p.add_argument("--verify-q", default=None)
    p.add_argument("--prime", type=int, default=3, help="unless the gamma file names one")
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(fn=cmd_springer)

    p = sub.add_parser("check", help="run the acceptance suite")
    p.add_argument("--suite", choices=("all", "fast"), default="all")
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(fn=cmd_check)

    args = ap.parse_args(argv)
    try:
        args.fn(args)
    except PavingVerificationFailed as e:
        print(f"verification failed: {e}", file=sys.stderr)
        return 1
    except (AffgrassError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
