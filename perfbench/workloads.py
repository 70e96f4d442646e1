"""The four benchmark workloads: seeded job lists over the public library.

A job is one unit of user work (a paving, a Springer paving, a cell count, a
batch of parametrized points).  Its random inputs come from one of ``POOL``
slots; the workload seed only picks the slot of each job and the job order.
``make_reference.py`` runs every slot of every job once and stores the
canonical result, so any seed is checked against recorded outputs.

Library functions are looked up on their modules at call time, never bound
here, so that the tracer's wrappers see every call.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

import affgrass as ag
from affgrass import grass, paving, springer
from affgrass.errors import GaussFailure, PrecisionLoss

POOL = 8          # random slots per job for the paving and cell workloads
BFZ_POOL = 16     # slots per Lusztig datum for the parametrized points
BIG_PRIME = 10007
GAMMAS_PER_CELL = 6

# translations applied to the mv_pave families; pavings are equivariant, so
# results are compared after translating back
SHIFTS = ((0, 0, 0), (1, 0, 0), (0, 1, -1), (2, -1, 0),
          (-1, -1, 1), (3, 1, 2), (-2, 0, 1), (1, 2, 3))


@dataclass
class Job:
    key: str                        # names the canonical result in reference.json
    run: Callable[[], Any]          # the timed calls into the library
    canon: Callable[[Any], Any]     # JSON-able result, compared with the reference
    points: Callable[[Any], int]    # exact point checks the job finished


def _rng(*parts) -> random.Random:
    return random.Random(":".join(str(p) for p in parts))


def _tuple_key(t) -> str:
    return ",".join(str(x) for x in t)


def _plan_canon(plan, shift=(0, 0, 0)):
    return {
        "steps": [[[v - s for v, s in zip(st.vertex, shift)], st.borel, st.dim]
                  for st in plan.steps],
        "poincare": list(plan.poincare().coeffs),
        "per_q": [[r["q"], r["total"], r["by_step"]] for r in plan.verified["per_q"]],
    }


def _plan_points(plan) -> int:
    return sum(r["total"] for r in plan.verified["per_q"])


# ---------------------------------------------------------------------------
# mv_pave: greedy pavings over F_2 and the exact formal Betti minimum
# ---------------------------------------------------------------------------

MV_DATA = ((1, 0, 1), (2, 1, 1), (3, 1, 2), (2, 2, 2),
           (1, 1, 1), (2, 0, 1), (2, 1, 2), (1, 1, 0))
MV_WEYL = ((2, 1, 0), (3, 1, 0), (4, 2, 0), (2, 0, 0), (2, 2, 0), (3, 0, 0))
FORMAL_MAX_POINTS = 16


def _mv_families():
    out = [(f"P{_tuple_key(n)}", ag.MVPolytope.from_datum(ag.LusztigDatum("121", n)).family)
           for n in MV_DATA]
    out += [(f"W{_tuple_key(lam)}", ag.weyl_family(lam)) for lam in MV_WEYL]
    return out


def _mv_jobs(slots: Callable[[], List[int]]) -> List[Job]:
    jobs = []
    for name, fam in _mv_families():
        small = len(fam.lattice_points()) <= FORMAL_MAX_POINTS
        for slot in slots():
            shift = SHIFTS[slot]
            f = fam.translate(shift)
            jobs.append(Job(f"pave:{name}", _pave_run(f, name, slot),
                            lambda plan, s=shift: _plan_canon(plan, s), _plan_points))
            if small:
                jobs.append(Job(f"formal:{name}", _formal_run(f),
                                _formal_canon, lambda r: 0))
    return jobs


def _pave_run(f, name, slot):
    def run():
        return paving.greedy_paving(f, verify_qs=(2,), rng=_rng("mv", name, slot))
    return run


def _formal_run(f):
    def run():
        g = ag.skeleton(f)
        poly, _order = ag.min_formal_poincare(g)
        return len(g.edges), poly
    return run


def _formal_canon(result):
    edges, poly = result
    return {"edges": edges, "poincare": list(poly.coeffs)}


# ---------------------------------------------------------------------------
# springer_fd: truncated Springer pavings of the fundamental domains
# ---------------------------------------------------------------------------

def _alternating(max_len: int):
    words = [()]
    for length in range(1, max_len + 1):
        for start in (1, 2):
            words.append(tuple(start if k % 2 == 0 else 3 - start for k in range(length)))
    return words


# (pattern, primes, longest crystal word)
SPRINGER_CASES = (((2, 2, 2), (3,), 3), ((1, 1, 1), (3, 5), 2), ((2, 1, 1), (2, 3), 2))


def _springer_jobs(slots: Callable[[], List[int]]) -> List[Job]:
    jobs = []
    for c, qs, top in SPRINGER_CASES:
        for q in qs:
            field = ag.PrimeField(q, 64)
            for j in _alternating(top):
                key = f"springer:c={_tuple_key(c)}:q={q}:j={''.join(map(str, j))}"
                for slot in slots():
                    gam = ag.synthesize_gamma(c, field, _rng(key, slot, "gamma"))
                    jobs.append(Job(key, _springer_run(gam, j, q, key, slot),
                                    _plan_canon, _plan_points))
    return jobs


def _springer_run(gam, j, q, key, slot):
    def run():
        return springer.truncated_paving(gam, j, verify_qs=(q,), rng=_rng(key, slot, "verify"))
    return run


# ---------------------------------------------------------------------------
# cell_oracle: contracting cells counted against seeded gammas
# ---------------------------------------------------------------------------

def _normal_data():
    return [n for n in itertools.product(range(3), repeat=3) if n[0] >= n[2] >= n[1]]


def _patterns(q: int):
    return [c for c in itertools.product(range(4), repeat=3)
            if springer.pattern_realizable(c, q)]


# the q=3 slice keeps cells of dimension <= 4 (at most 81 points each)
CELL_Q3_MAX_DIM = 4
IWAHORI_DATA = ((2, 1, 1), (3, 1, 2))


def _cell_cases():
    for n in _normal_data():
        for q in (2, 3):
            if q == 3 and n[0] + 2 * n[1] + n[2] > CELL_Q3_MAX_DIM:
                continue
            for b in range(6):
                yield n, b, q


def _cell_jobs(choose: Callable[[list], list]) -> List[Job]:
    """``choose(key, patterns)`` returns the (pattern, slot) pairs to count."""
    jobs = []
    for n, b, q in _cell_cases():
        key = f"cell:n={_tuple_key(n)}:b={b}:q={q}"
        P = ag.MVPolytope.from_datum(ag.LusztigDatum("121", n))
        field = ag.PrimeField(q, 64)
        pairs = choose(key, _patterns(q))
        gammas = [(c, ag.synthesize_gamma(c, field, _rng("cell", _tuple_key(c), q, slot)))
                  for c, slot in pairs]
        jobs.append(Job(key, _cell_run(P, b, field, gammas),
                        _cell_canon, lambda r: r[0] * len(r[1])))
    for n in IWAHORI_DATA:
        d = ag.LusztigDatum("121", n)
        jobs.append(Job(f"iwahori:n={_tuple_key(n)}", _iwahori_run(d),
                        _plan_canon, _plan_points))
    return jobs


def _cell_run(P, b, field, gammas):
    q = field.p

    def run():
        pts = paving.contracting_cell(P, b).enumerate(field)
        out = []
        for c, gam in gammas:
            count = sum(1 for x in pts if springer.member_springer(x, gam))
            ls = springer.criterion_l_values(P.datum121.n, b, c)
            out.append((c, count, springer.criterion(P, b, gam), count == q ** sum(ls)))
        return len(pts), out
    return run


def _cell_canon(result):
    size, rows = result
    return {"size": size,
            "counts": {_tuple_key(c): [count, verdict, oracle]
                       for c, count, verdict, oracle in rows}}


def _iwahori_run(d):
    def run():
        return paving.paving_121(d, verify_qs=(2,))
    return run


# ---------------------------------------------------------------------------
# bfz_param: parametrized points at a big prime, long truncated series
# ---------------------------------------------------------------------------

BFZ_POINTS = 10


def _bfz_jobs(slots: Callable[[], List[int]]) -> List[Job]:
    field = ag.PrimeField(BIG_PRIME, 64)
    jobs = []
    for n in itertools.product(range(3), repeat=3):
        fam = ag.MVPolytope.from_datum(ag.LusztigDatum("121", n)).family
        name = f"bfz:n={_tuple_key(n)}"
        for slot in slots():
            key = f"{name}:slot={slot}"
            jobs.append(Job(key, _bfz_run(field, n, fam, key), _bfz_canon,
                            lambda r: len(r[1])))
    return jobs


def _bfz_run(field, n, fam, seed):
    def run():
        rng = random.Random(seed)
        retries = 0
        flags = []
        while len(flags) < BFZ_POINTS:
            ts = [ag.random_with_val(field, k, rng) for k in n]
            try:
                x = grass.point_from_y("121", ts)
            except (GaussFailure, PrecisionLoss):
                retries += 1
                continue
            flags.append((grass.member(x, fam), grass.ec(x) == fam))
        return retries, flags
    return run


def _bfz_canon(result):
    retries, flags = result
    return {"retries": retries,
            "member": "".join("1" if m else "0" for m, _e in flags),
            "exact": "".join("1" if e else "0" for _m, e in flags)}


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def matches(ref, got) -> bool:
    """Equal, except that a cell job counts a seeded subset of the patterns."""
    if not (isinstance(got, dict) and "counts" in got):
        return ref == got
    return ref["size"] == got["size"] and all(
        ref["counts"].get(c) == v for c, v in got["counts"].items())


@dataclass(frozen=True)
class Workload:
    name: str
    index: int
    build: Callable[[random.Random], List[Job]]      # the seeded job list
    universe: Callable[[], List[Job]]                # every slot, for references


def _one_slot(rng: random.Random, pool: int):
    return lambda: [rng.randrange(pool)]


def _all_slots(pool: int):
    return lambda: list(range(pool))


def _choose_gammas(rng: random.Random):
    def choose(key, patterns):
        # a cell's patterns are fixed, so how much work its job does hardly
        # depends on the seed; the seed picks the gamma of each pattern
        cs = _rng(key, "patterns").sample(patterns, GAMMAS_PER_CELL)
        return [(c, rng.randrange(POOL)) for c in cs]
    return choose


def _every_gamma(slot: int):
    return lambda _key, patterns: [(c, slot) for c in patterns]


def _cell_universe():
    return [job for slot in range(POOL) for job in _cell_jobs(_every_gamma(slot))]


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("mv_pave", 1, lambda rng: _mv_jobs(_one_slot(rng, POOL)),
             lambda: _mv_jobs(_all_slots(POOL))),
    Workload("springer_fd", 2, lambda rng: _springer_jobs(_one_slot(rng, POOL)),
             lambda: _springer_jobs(_all_slots(POOL))),
    Workload("cell_oracle", 3, lambda rng: _cell_jobs(_choose_gammas(rng)), _cell_universe),
    Workload("bfz_param", 4, lambda rng: _bfz_jobs(_one_slot(rng, BFZ_POOL)),
             lambda: _bfz_jobs(_all_slots(BFZ_POOL))),
)}


def build_jobs(workload: Workload, seed: int) -> List[Job]:
    """The job list of one pass, in a seeded order."""
    rng = random.Random(seed * 1000 + workload.index)
    jobs = workload.build(rng)
    rng.shuffle(jobs)
    return jobs


def merge_reference(ref: Dict[str, Any], key: str, got: Any) -> Optional[str]:
    """Record ``got`` under ``key``; return a message if a slot disagrees."""
    if key not in ref:
        ref[key] = got
        return None
    old = ref[key]
    if isinstance(got, dict) and "counts" in got:
        for c, v in got["counts"].items():
            if old["counts"].setdefault(c, v) != v:
                return f"{key} pattern {c}: {old['counts'][c]} vs {v}"
        return None if old["size"] == got["size"] else f"{key}: size differs"
    return None if old == got else f"{key}: {old} vs {got}"
