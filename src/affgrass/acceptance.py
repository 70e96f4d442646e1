"""The acceptance suite: one callable per criterion, shared by tests and CLI.

Each check returns a dict with ``passed`` plus enough counters to audit it.
Randomness is seeded per criterion, so reports are reproducible byte for byte.
"""
from __future__ import annotations

import itertools
import random
import time
from typing import Dict

from .errors import GaussFailure, NotMV, PrecisionLoss
from .grass import (_cut_parameters, ec, enumerate_points, member, point_from_y, sample_point,
                    transition)
from .laurent import PrimeField, random_with_val, val
from .moment import compare, min_formal_poincare, skeleton
from .mvcomb import (LusztigDatum, MVPolytope, apply_crystal_word, braid, canonicalize,
                     coweight, dimension, is_normal_position)
from .paving import _cell_points, contracting_cell, greedy_paving, paving_121
from .rootdata import weyl_family
from .springer import (_slice_verdict, criterion, criterion_oracle, criterion_raw_case1,
                       pattern_realizable, springer_dim, synthesize_gamma, truncated_paving,
                       ultrametric, verification_primes)

BIG_PRIME = 10007


def _result(num, name, passed, seconds, **details):
    return {"criterion": num, "name": name, "passed": bool(passed),
            "seconds": round(seconds, 3), **details}


def check_braid_involution(seed: int = 7) -> Dict:
    """Braid is an involution; dimension and coweight are word-independent."""
    t0 = time.time()
    bad = 0
    for n in itertools.product(range(11), repeat=3):
        d = LusztigDatum("121", n)
        b = braid(d)
        if braid(b) != d:
            bad += 1
            continue
        P = MVPolytope.from_datum(d)
        Pb = MVPolytope.from_datum(b)
        if dimension(P) != dimension(Pb) or dimension(P) != n[0] + 2 * n[1] + n[2]:
            bad += 1
        if coweight(P) != coweight(Pb):
            bad += 1
    return _result(1, "braid involution and invariants", bad == 0,
                   time.time() - t0, cases=11 ** 3, failures=bad)


def check_tropicalization(seed: int = 7) -> Dict:
    """Valuations of the field transition match the tropical braid move."""
    t0 = time.time()
    rng = random.Random(seed * 1000 + 2)
    field = PrimeField(BIG_PRIME, 64)
    samples = tropical = degenerate = bad = 0
    while samples < 1000:
        n = tuple(rng.randrange(5) for _ in range(3))
        ts = [random_with_val(field, k, rng) for k in n]
        if n[0] == n[2] and rng.random() < 0.5:
            # aim at the cancellation stratum, reachable only on this diagonal
            tail = random_with_val(field, n[0] + 1 + rng.randrange(3), rng)
            ts[2] = -ts[0] + tail
        ts = _cut_parameters(ts)
        s = ts[0] + ts[2]
        samples += 1
        if s.nonzero and s.lead == min(n[0], n[2]):
            tp = transition("121", ts)
            got = tuple(val(t) for t in tp)
            if got != braid(LusztigDatum("121", n)).n:
                bad += 1
            tropical += 1
        else:
            # cancellation in t1 + t3 happens only with equal valuations
            if n[0] != n[2]:
                bad += 1
            degenerate += 1
    return _result(2, "tropical braid move", bad == 0, time.time() - t0,
                   samples=samples, tropical=tropical, degenerate=degenerate,
                   failures=bad)


def check_parametrization(seed: int = 7) -> Dict:
    """[y(t)^-1] lies in the truncation for all t; its polytope is generically exact."""
    t0 = time.time()
    rng = random.Random(seed * 1000 + 3)
    field = PrimeField(BIG_PRIME, 64)
    members = exact = total = bad_member = 0
    for n in itertools.product(range(3), repeat=3):
        fam = MVPolytope.from_datum(LusztigDatum("121", n)).family
        done = 0
        while done < 20:
            ts = [random_with_val(field, k, rng) for k in n]
            try:
                x = point_from_y("121", ts)
            except (GaussFailure, PrecisionLoss):
                continue
            done += 1
            total += 1
            if member(x, fam):
                members += 1
            else:
                bad_member += 1
            if ec(x) == fam:
                exact += 1
    passed = bad_member == 0 and exact >= 0.95 * total
    return _result(3, "MV parametrization and genericity", passed,
                   time.time() - t0, samples=total, members=members,
                   exact_polytopes=exact)


def check_polytope_canonicalization(seed: int = 7) -> Dict:
    """Ec of random Schubert points always canonicalizes to an MV polytope."""
    t0 = time.time()
    rng = random.Random(seed * 1000 + 4)
    field = PrimeField(BIG_PRIME, 64)
    sch = weyl_family((3, -1, -1))
    failures = 0
    for _ in range(200):
        x = sample_point(sch, field, rng)
        try:
            canonicalize(ec(x))
        except NotMV:
            failures += 1
    return _result(4, "all polytopes are generalized MV", failures == 0,
                   time.time() - t0, samples=200, failures=failures)


def _normal_data(top: int = 2):
    return [n for n in itertools.product(range(top + 1), repeat=3) if is_normal_position(n)]


def check_contracting_cells(seed: int = 7) -> Dict:
    """|C_b(F_2)| = 2^(n1+2n2+n3); Ec, ``enumerate`` and the explicit coordinates agree."""
    t0 = time.time()
    field = PrimeField(2)
    bad = 0
    cases = 0
    for n in _normal_data():
        P = MVPolytope.from_datum(LusztigDatum("121", n))
        pts = enumerate_points(P.family, field)
        profiles = [(x, ec(x).vertices) for x in pts]
        for b in range(6):
            cases += 1
            cell = contracting_cell(P, b)
            filt = {x for x, verts in profiles if verts[b] == P.family.vertex(b)}
            coords = _cell_points(field, cell.diag, cell.windows, cell.inverted)
            if len(filt) != 2 ** cell.dim or not (coords == cell.enumerate(field) == filt):
                bad += 1
    return _result(5, "contracting cells are affine of the stated dimension",
                   bad == 0, time.time() - t0, cases=cases, failures=bad)


PURITY_DATA = [(1, 0, 0), (0, 0, 1), (1, 0, 1), (2, 1, 1), (1, 1, 0), (2, 0, 1)]
PURITY_WEYL = [(1, 0, 0), (1, 1, 0)]


def check_purity_bridge(seed: int = 7) -> Dict:
    """Greedy paving counts, the Iwahori paving, and the formal minimum agree."""
    t0 = time.time()
    families = [(f"P{n}", MVPolytope.from_datum(LusztigDatum("121", n)).family, n)
                for n in PURITY_DATA]
    families += [(f"Weyl{lam}", weyl_family(lam), None) for lam in PURITY_WEYL]
    bad = []
    for name, fam, n in families:
        plan = greedy_paving(fam, verify_qs=(2, 3))
        poly = plan.poincare()
        if n is not None and is_normal_position(n):
            ipoly = paving_121(LusztigDatum("121", n), verify_qs=(2, 3)).poincare()
            if compare(poly, ipoly) != 0:
                bad.append((name, "iwahori", str(poly), str(ipoly)))
        if len(fam.lattice_points()) <= 12:
            mpoly, _ = min_formal_poincare(skeleton(fam))
            if compare(poly, mpoly) != 0:
                bad.append((name, "formal-min", str(poly), str(mpoly)))
    return _result(6, "purity point-count bridge", not bad, time.time() - t0,
                   polytopes=len(families), failures=bad)


def _ultrametric_box(top: int = 3):
    return [c for c in itertools.product(range(top + 1), repeat=3) if ultrametric(c)]


def check_springer_criterion(seed: int = 7) -> Dict:
    """The affine-cell criterion agrees with brute-force counting on the grid."""
    t0 = time.time()
    rng = random.Random(seed * 1000 + 7)
    cs = _ultrametric_box()
    bad = []
    cases = 0
    raw_bad = 0
    for n in _normal_data():
        P = MVPolytope.from_datum(LusztigDatum("121", n))
        for c in cs:
            # algebraic identity between the published and derived chamber-0 forms
            if _slice_verdict(n, 0, c)[1] != criterion_raw_case1(n, c):
                raw_bad += 1
            for q in (2, 3):
                if q == 3 and c[0] != n[0] or not pattern_realizable(c, q):
                    continue
                gam = synthesize_gamma(c, PrimeField(q), rng)
                for b, want in enumerate(criterion_oracle(P, gam)):
                    cases += 1
                    if criterion(P, b, gam) != want:
                        bad.append((n, c, b, q))
    passed = not bad and raw_bad == 0
    return _result(7, "Springer affine-cell criterion vs oracle", passed,
                   time.time() - t0, cases=cases, failures=bad[:5],
                   raw_form_failures=raw_bad)


SPRINGER_FAMILIES = [(1, 1), (2, 1), (2, 2)]


def _alternating_words(max_len: int):
    words = [()]
    for length in range(1, max_len + 1):
        for start in (1, 2):
            words.append(tuple(start if k % 2 == 0 else 3 - start
                               for k in range(length)))
    return words


def check_truncated_pavings(seed: int = 7) -> Dict:
    """Every crystal truncation of the fundamental domains paves and counts."""
    t0 = time.time()
    rng = random.Random(seed * 1000 + 8)
    bad = []
    plans = 0
    for (n1, n2) in SPRINGER_FAMILIES:
        c = (n1, n2, n2)
        qs = verification_primes(c)
        gam = synthesize_gamma(c, PrimeField(qs[0]), rng)
        P0 = MVPolytope.from_datum(LusztigDatum("121", c))
        for j in _alternating_words(2 * n2):
            try:
                plan = truncated_paving(gam, j, verify_qs=qs, rng=rng)
            except Exception as e:  # noqa: BLE001 - report, never hide
                bad.append(((n1, n2), j, f"{type(e).__name__}: {e}"))
                continue
            plans += 1
            if len(j) == 2 * n2:
                # the Springer condition is vacuous on the deepest truncation:
                # the plan must agree with the plain MV paving of E_j.P
                base_fam = apply_crystal_word(j, P0).family
                base_greedy = greedy_paving(base_fam, verify_qs=qs)
                if compare(plan.poincare(), base_greedy.poincare()) != 0:
                    bad.append(((n1, n2), j, "base polytope mismatch"))
                for rec, brec in zip(plan.verified["per_q"],
                                     base_greedy.verified["per_q"]):
                    if rec["total"] != brec["total"]:
                        bad.append(((n1, n2), j, "Springer condition not vacuous"))
        over = truncated_paving(gam, _alternating_words(2 * n2 + 1)[-1], rng=rng)
        if over.steps:
            bad.append(((n1, n2), "overlong", "expected empty plan"))
    return _result(8, "truncated Springer fibers pave and count", not bad,
                   time.time() - t0, plans=plans, failures=bad)


def check_springer_dimension(seed: int = 7) -> Dict:
    """Top cell of the full fundamental-domain plan has the fiber dimension.

    A plan depends only on the root valuations of gamma, so this is the plan
    that criterion 8 verifies by point counts; it is not verified again here.
    """
    t0 = time.time()
    bad = []
    for (n1, n2) in SPRINGER_FAMILIES:
        gam = synthesize_gamma((n1, n2, n2), PrimeField(3), random.Random(0))
        plan = truncated_paving(gam, (), verify_qs=())
        top = max(s.dim for s in plan.steps)
        want = n1 + 2 * n2
        if top != want or springer_dim(gam) != want:
            bad.append(((n1, n2), top, want))
    return _result(9, "fundamental domain dimension", not bad, time.time() - t0,
                   failures=bad)


def check_kostant_count(seed: int = 7) -> Dict:
    """Lusztig data with a fixed coweight count Kostant partitions."""
    t0 = time.time()
    bad = 0
    for p in range(13):
        for q in range(13):
            direct = sum(1 for n in itertools.product(range(13), repeat=3)
                         if n[0] + n[1] == p and n[1] + n[2] == q)
            # multisets of positive coroots: a*a1 + b*a2 + c*(a1+a2) = p*a1 + q*a2
            oracle = sum(1 for a in range(p + q + 1) for b in range(p + q + 1)
                         for cc in range(p + q + 1)
                         if a + cc == p and b + cc == q)
            if direct != min(p, q) + 1 or oracle != min(p, q) + 1:
                bad += 1
    return _result(10, "Kostant partition count", bad == 0, time.time() - t0,
                   grid=13 * 13, failures=bad)


ALL_CHECKS = [
    check_braid_involution,
    check_tropicalization,
    check_parametrization,
    check_polytope_canonicalization,
    check_contracting_cells,
    check_purity_bridge,
    check_springer_criterion,
    check_truncated_pavings,
    check_springer_dimension,
    check_kostant_count,
]

FAST_CHECKS = [check_braid_involution, check_kostant_count]


def run_suite(suite: str = "all", seed: int = 7) -> Dict:
    checks = ALL_CHECKS if suite == "all" else FAST_CHECKS
    results = [fn(seed) for fn in checks]
    return {"suite": suite, "seed": seed,
            "passed": all(r["passed"] for r in results),
            "results": results}
