"""Randomized property batteries behind the `suite` subcommand.

Each battery draws from a shared pool of seeded random spaces.  It is a
generator: a bare `yield` starts a case and a yielded dict is the
counterexample that ends the battery.  With the same seed and sizes the whole
report is reproducible byte for byte.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import io
from .doubling import covering_number, doubling_constant, uniform_discreteness
from .free import delta, four_point_norm, free_norm_dual, free_norm_flow
from .lipschitz import (lipschitz_number, mcshane_extend, pairing,
                        separating_function)
from .metric import (MetricSpace, coproduct, equilateral_space, path_space,
                     quotient, subspace, validate)
from .randgen import (random_direction, random_lip_function,
                      random_projection_map, random_retraction, random_space,
                      random_subset, random_vector)
from .witness import (LinearWitness, apply, discrete_witness,
                      normalize_basis, operator_norm, operator_norm_oracle,
                      projection_split, pullback, quotient_witness,
                      validate_witness)

_ZERO = Fraction(0)


def _run(name, battery, *args) -> dict:
    """Count the cases of `battery(*args)` up to its first counterexample."""
    cases, failure = 0, None
    for failure in battery(*args):
        if failure is not None:
            break
        cases += 1
    return {"name": name, "passed": failure is None, "cases": cases,
            "counterexample": failure}


def _battery_quotient_valid(rng, pool):
    for space in pool:
        collapse = random_subset(rng, space)
        qspace, qmap = quotient(space, collapse)
        yield
        violations = validate(qspace)
        if violations:
            yield {"space": io.space_to_dict(space), "collapse": collapse,
                   "violations": violations}
        if qmap.lipschitz > 1:
            yield {"space": io.space_to_dict(space), "collapse": collapse,
                   "quotient_map_lipschitz": str(qmap.lipschitz)}


def _battery_sum_assoc_neutral(rng, pool):
    one_point = MetricSpace(("e",), 0, ((0,),))
    for k in range(0, len(pool) - 2, 3):
        a, b, c = pool[k], pool[k + 1], pool[k + 2]
        left = coproduct(coproduct(a, b), c)
        right = coproduct(a, coproduct(b, c))
        yield
        if left.dist != right.dist or left.base != right.base:
            yield {"a": io.space_to_dict(a), "b": io.space_to_dict(b),
                   "c": io.space_to_dict(c)}
        padded = coproduct(a, one_point)
        if padded.dist != a.dist or padded.points != a.points:
            yield {"a": io.space_to_dict(a), "issue": "neutral element"}


def _battery_subspace_valid(rng, pool):
    for space in pool:
        keep = sorted(set(random_subset(rng, space)) | {space.base})
        sub = subspace(space, keep)
        yield
        violations = validate(sub)
        if violations:
            yield {"space": io.space_to_dict(space), "keep": keep,
                   "violations": violations}


def _battery_separating(rng, pool):
    for space in pool:
        others = [x for x in range(space.n) if x != space.base]
        if not others:
            continue
        x = rng.choice(others)
        blocked = [a for a in range(space.n)
                   if a not in (x, space.base) and rng.random() < 0.4]
        f = separating_function(space, blocked, x)
        yield
        anchors = set(blocked) | {space.base}
        scale = min(space.d(x, a) for a in anchors)
        ok = (f.values[x] == 1
              and all(f.values[a] == 0 for a in anchors)
              and lipschitz_number(f) == 1 / scale)
        if not ok:
            yield {"space": io.space_to_dict(space), "blocked": blocked,
                   "x": x, "values": [str(v) for v in f.values]}


def _battery_mcshane(rng, pool):
    for space in pool:
        keep = sorted(set(random_subset(rng, space)) | {space.base})
        sub = subspace(space, keep)
        f = random_lip_function(rng, sub)
        g = mcshane_extend(f, space)
        yield
        restricted = [g.values[space.index(lbl)] for lbl in sub.points]
        if tuple(restricted) != f.values or \
                lipschitz_number(g) != lipschitz_number(f):
            yield {"space": io.space_to_dict(space), "keep": keep,
                   "f": [str(v) for v in f.values]}


def _battery_duality_inequality(rng, pool):
    for space in pool:
        vec = random_vector(rng, space, integral=False)
        f = random_lip_function(rng, space)
        yield
        bound = free_norm_flow(vec)[0] * lipschitz_number(f)
        if abs(pairing(vec, f)) > bound:
            yield {"space": io.space_to_dict(space),
                   "vector": io.freevector_to_dict(vec)["coeffs"],
                   "f": [str(v) for v in f.values]}


def _battery_isometry(rng, pool):
    for space in pool:
        for x, y in space.pairs():
            value = free_norm_dual(delta(space, x) - delta(space, y))[0]
            yield
            if value != space.d(x, y):
                yield {"space": io.space_to_dict(space), "pair": [x, y],
                       "norm": str(value), "distance": str(space.d(x, y))}


def _battery_strong_duality(rng, pool):
    for space in pool:
        vec = random_vector(rng, space)
        dual = free_norm_dual(vec)[0]
        primal = free_norm_flow(vec)[0]
        yield
        if dual != primal:
            yield {"space": io.space_to_dict(space),
                   "vector": io.freevector_to_dict(vec)["coeffs"],
                   "dual": str(dual), "flow": str(primal)}


def _battery_four_point(rng, pool):
    for space in pool:
        for _ in range(4):
            a, b, c, d = (rng.randrange(space.n) for _ in range(4))
            vec = (delta(space, a) - delta(space, b)
                   + delta(space, c) - delta(space, d))
            yield
            if four_point_norm(space, a, b, c, d) != free_norm_dual(vec)[0]:
                yield {"space": io.space_to_dict(space), "tuple": [a, b, c, d]}


def _battery_norm_axioms(rng, pool):
    for space in pool:
        u = random_vector(rng, space, integral=False)
        v = random_vector(rng, space, integral=False)
        t = Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3)))
        nu, nv = free_norm_flow(u)[0], free_norm_flow(v)[0]
        yield
        if free_norm_flow(t * u)[0] != abs(t) * nu:
            yield {"space": io.space_to_dict(space), "issue": "homogeneity"}
        if free_norm_flow(u + v)[0] > nu + nv:
            yield {"space": io.space_to_dict(space), "issue": "triangle"}
        if (nu == 0) != u.is_zero():
            yield {"space": io.space_to_dict(space), "issue": "definiteness"}


def _battery_certificates(rng, pool):
    for space in pool:
        vec = random_vector(rng, space, integral=False)
        dual, opt_f = free_norm_dual(vec)
        cost, plan = free_norm_flow(vec)
        yield
        if pairing(vec, opt_f) != dual or lipschitz_number(opt_f) > 1:
            yield {"space": io.space_to_dict(space),
                   "issue": "dual certificate"}
        recomputed = sum((amt * space.d(s, t) for s, t, amt in plan.edges),
                        _ZERO)
        divergence = plan.divergence()
        wanted = vec.as_dict()
        total = sum(wanted.values(), _ZERO)
        if total != 0:
            wanted[space.base] = -total
        if recomputed != cost or divergence != wanted:
            yield {"space": io.space_to_dict(space),
                   "issue": "flow certificate"}


def _make_witnesses(rng, space):
    out = [("identity", LinearWitness.identity(space))]
    doubled = tuple(2 * delta(space, x) for x in space.non_base())
    out.append(("scaling", LinearWitness(space, space, doubled)))
    out.append(("quotient", quotient_witness(space, random_retraction(rng, space))))
    out.append(("normalize", normalize_basis(space)[1]))
    if space.n >= 2:
        out.append(("discrete", discrete_witness(space).witness))
    split = projection_split(
        space, [None if t is None else delta(space, space.non_base()[t])
                for t in random_projection_map(rng, len(space.non_base()))])
    out.append(("projection", split.witness))
    return out


def _battery_witness_roundtrip(rng, pool):
    for space in pool:
        for kind, w in _make_witnesses(rng, space):
            report = validate_witness(w)
            yield
            if not report.invertible:
                yield {"space": io.space_to_dict(space), "kind": kind,
                       "reason": report.reason}
            for _ in range(3):
                vec = random_vector(rng, w.source, integral=False)
                if apply(report.inverse, apply(w, vec)) != vec:
                    yield {"space": io.space_to_dict(space), "kind": kind,
                           "issue": "inverse roundtrip"}


def _battery_quotient_pullback(rng, pool):
    for space in pool:
        retraction = random_retraction(rng, space)
        w = quotient_witness(space, retraction)
        for _ in range(3):
            f = random_lip_function(rng, w.target)
            yield
            bound = lipschitz_number(f) * (retraction.lipschitz + 1)
            if lipschitz_number(pullback(w, f)) > bound:
                yield {"space": io.space_to_dict(space),
                       "retraction": list(retraction.image),
                       "f": [str(v) for v in f.values]}


def _battery_projection_extension(rng, pool):
    for space in pool:
        nb = space.non_base()
        pi_map = random_projection_map(rng, len(nb))
        split = projection_split(
            space, [None if t is None else delta(space, nb[t])
                    for t in pi_map])
        stretch = split.projector_norm + split.complement_norm
        for _ in range(3):
            f = random_lip_function(rng, split.witness.target)
            yield
            if lipschitz_number(pullback(split.witness, f)) > \
                    lipschitz_number(f) * stretch:
                yield {"space": io.space_to_dict(space), "pi": pi_map,
                       "f": [str(v) for v in f.values]}


def _battery_opnorm_oracle(rng, pool):
    for space in pool:
        if space.n > 6:
            continue
        for kind, w in _make_witnesses(rng, space):
            directions = [random_direction(rng, w.source) for _ in range(8)]
            yield
            if operator_norm(w) != operator_norm_oracle(w, directions):
                yield {"space": io.space_to_dict(space), "kind": kind}


def _battery_normalization(rng, pool):
    for space in pool:
        scaled, w = normalize_basis(space)
        report = validate_witness(w)
        yield
        if any(free_norm_dual(vec)[0] != 1 for vec in scaled):
            yield {"space": io.space_to_dict(space), "issue": "unit norm"}
        if len(set(scaled)) != len(scaled):
            yield {"space": io.space_to_dict(space), "issue": "injectivity"}
        if not report.invertible:
            yield {"space": io.space_to_dict(space), "issue": "invertibility"}


def _battery_covering_monotone(rng, pool):
    for space in pool:
        dists = sorted({space.d(i, j) for i, j in space.pairs()
                        if space.d(i, j) > 0})
        if not dists:
            continue
        x = rng.randrange(space.n)
        big = dists[-1]
        radii = sorted({d / 2 for d in dists} | set(dists))
        counts = [covering_number(space, x, big, r).count for r in radii]
        yield
        if any(a < b for a, b in zip(counts, counts[1:])):
            yield {"space": io.space_to_dict(space),
                   "issue": "radius monotonicity"}
        small = radii[0]
        outer = [covering_number(space, x, r, small).count
                 for r in radii if r >= small]
        if any(a > b for a, b in zip(outer, outer[1:])):
            yield {"space": io.space_to_dict(space),
                   "issue": "ball monotonicity"}


def _battery_greedy_vs_exact(rng, pool):
    for space in pool:
        dists = sorted({space.d(i, j) for i, j in space.pairs()
                        if space.d(i, j) > 0})
        if not dists:
            continue
        x = rng.randrange(space.n)
        r = rng.choice(dists)
        greedy = covering_number(space, x, 2 * r, r, exact_threshold=0)
        exact = covering_number(space, x, 2 * r, r,
                                exact_threshold=space.n)
        yield
        if greedy.count < exact.count or not exact.exact or greedy.exact:
            yield {"space": io.space_to_dict(space), "r": str(r),
                   "greedy": greedy.count, "exact": exact.count}


def _battery_doubling_divergence(pool, exact_threshold):
    for n in (4, 8) if pool else ():
        path_report = doubling_constant(path_space(n), exact_threshold)
        flat = equilateral_space(n)
        flat_report = doubling_constant(flat, exact_threshold)
        disc = uniform_discreteness(flat)
        witness_data = discrete_witness(flat)
        yield
        ok = (path_report.doubling_max <= 3
              and flat_report.doubling_max == n
              and witness_data.condition is not None
              and witness_data.condition <= 2 * disc.ratio)
        if not ok:
            yield {"n": n, "path_max": path_report.doubling_max,
                   "equilateral_max": flat_report.doubling_max,
                   "condition": str(witness_data.condition)}


# Report name, battery and how many spaces from the front of the pool it
# draws (None: all of them), in report order; each takes (rng, spaces).
_BATTERIES = (
    ("metric.quotient_valid", _battery_quotient_valid, None),
    ("metric.sum_assoc_neutral", _battery_sum_assoc_neutral, None),
    ("metric.subspace_valid", _battery_subspace_valid, None),
    ("lip.separating_conditions", _battery_separating, None),
    ("lip.mcshane_extension", _battery_mcshane, None),
    ("lip.duality_inequality", _battery_duality_inequality, None),
    ("free.isometry", _battery_isometry, 80),
    ("free.strong_duality", _battery_strong_duality, None),
    ("free.four_point", _battery_four_point, 20),
    ("free.norm_axioms", _battery_norm_axioms, 80),
    ("free.certificates", _battery_certificates, 80),
    ("witness.roundtrip", _battery_witness_roundtrip, 24),
    ("witness.quotient_pullback", _battery_quotient_pullback, 40),
    ("witness.projection_extension", _battery_projection_extension, 24),
    ("witness.opnorm_oracle", _battery_opnorm_oracle, 24),
    ("witness.normalization", _battery_normalization, 40),
    ("doubling.monotonicity", _battery_covering_monotone, None),
    ("doubling.greedy_vs_exact", _battery_greedy_vs_exact, None),
)


def run_suite(seed: int = 0, max_size: int = 8, spaces: int = 200,
              exact_threshold: int = 20, pool=None) -> dict:
    """Run every property battery; returns a JSON-ready report.

    `spaces` of 0 (or an explicitly empty pool) makes every battery pass
    vacuously.  Supplying `pool` overrides the internal space generator --
    the batteries then run against exactly those spaces.
    """
    rng = random.Random(seed)
    if pool is None:
        pool = [random_space(rng, rng.randint(2, max(2, max_size)))
                for _ in range(max(0, spaces))]
    pool = list(pool)

    batteries = [_run(name, battery, rng, pool[:size])
                 for name, battery, size in _BATTERIES]
    # The last battery draws no spaces; it only needs a nonempty pool.
    batteries.append(_run("doubling.divergence", _battery_doubling_divergence,
                          pool, exact_threshold))
    return {
        "seed": seed,
        "max_size": max_size,
        "spaces": len(pool),
        "all_passed": all(b["passed"] for b in batteries),
        "batteries": batteries,
    }
