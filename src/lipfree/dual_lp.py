"""Exact linear programming over the unit ball of base-vanishing Lipschitz
functions.

In the coordinates of the non-base points, the feasible region is the
difference-constraint polytope

    P = { f : f(s) - f(t) <= d(s, t) for every ordered pair s != t },

with the base point pinned to zero (constraints touching the base have a
single nonzero coefficient).  P is bounded and contains the origin, and the
cone f0(x) = d(x, e) is always a vertex whose tight set is the identity
matrix, so the solver starts there and walks vertices of P with an exact
active-set pivot (Bland ordering on the fixed constraint list on both the
leaving and the entering side, which rules out cycling).  The normals form
a totally unimodular network matrix, so B^{-1} stays integral and each pivot
is +-1: the arithmetic runs on ints scaled by common denominators, and the
optimum and optimal vertex (the certificate) return as exact `Fraction`s.
"""

from __future__ import annotations

from fractions import Fraction

from .metric import scale_to_ints

_ZERO = Fraction(0)
_MAX_PIVOTS = 50_000


def maximize(space, objective: dict) -> tuple:
    """Maximize sum(objective[x] * f(x)) over P.

    `objective` maps point indices (never the base) to rational coefficients.
    Returns (value, values) where `values` is the optimal function as a tuple
    over all points of the space, base entry zero.
    """
    base = space.base
    if any(pt == base for pt in objective):
        raise ValueError("objective may not involve the base point")
    zeros = tuple(_ZERO for _ in range(space.n))
    if all(v == 0 for v in objective.values()):
        return _ZERO, zeros

    scale, dist = space.scaled
    varpts = [i for i in range(space.n) if i != base]
    p = len(varpts)
    var_of = {pt: v for v, pt in enumerate(varpts)}
    obj_scale, obj = scale_to_ints(objective.values())
    c = [0] * p
    for pt, coef in zip(objective, obj):
        c[var_of[pt]] = coef

    # Constraint k: f(s_k) - f(t_k) <= d(s_k, t_k), encoded as variable
    # indices (-1 for the base point) plus the scaled bound.
    ci, cj, cb = [], [], []
    first_cid = {}
    for s in range(space.n):
        for t in range(space.n):
            if s == t:
                continue
            if t == base:
                first_cid[s] = len(cb)
            ci.append(-1 if s == base else var_of[s])
            cj.append(-1 if t == base else var_of[t])
            cb.append(dist[s][t])
    K = len(cb)

    # Start at the cone vertex f0 = d(., base); its tight set is f(x) <= d(x, e)
    # for every non-base x, whose normal matrix is the identity.
    f = [dist[pt][base] for pt in varpts]
    basis = [first_cid[pt] for pt in varpts]
    in_basis = [False] * K
    for cid in basis:
        in_basis[cid] = True
    binv = [[int(r == s) for s in range(p)] for r in range(p)]

    supp = [v for v in range(p) if c[v] != 0]

    for _ in range(_MAX_PIVOTS):
        # Multipliers lam = B^{-T} c; optimal once they are all nonnegative.
        lam = [0] * p
        for v in supp:
            cv = c[v]
            row = binv[v]
            for pos in range(p):
                if row[pos]:
                    lam[pos] += cv * row[pos]

        leave_pos = -1
        leave_cid = K
        for pos in range(p):
            if lam[pos] < 0 and basis[pos] < leave_cid:
                leave_cid = basis[pos]
                leave_pos = pos
        if leave_pos < 0:
            value = Fraction(sum(c[v] * f[v] for v in supp), obj_scale * scale)
            vals = list(zeros)
            for v, pt in enumerate(varpts):
                vals[pt] = Fraction(f[v], scale)
            return value, tuple(vals)

        # Direction off the leaving constraint, keeping the rest tight.
        u = [-binv[v][leave_pos] for v in range(p)]

        # Ratio test over the inactive constraints (Bland: first strict win
        # in cid order keeps the smallest index among the minimizers).
        best_cid = -1
        best_slack = None
        for cid in range(K):
            if in_basis[cid]:
                continue
            i, j = ci[cid], cj[cid]
            h = (u[i] if i >= 0 else 0) - (u[j] if j >= 0 else 0)
            if h <= 0:
                continue
            if h != 1:
                raise RuntimeError(f"total unimodularity broken: ratio-test "
                                   f"step denominator {h}")
            lhs = (f[i] if i >= 0 else 0) - (f[j] if j >= 0 else 0)
            slack = cb[cid] - lhs
            if best_cid < 0 or slack < best_slack:
                best_cid, best_slack = cid, slack
        if best_cid < 0:
            # P is bounded whenever the distances are a genuine metric.
            raise RuntimeError("unbounded program: distance data is not a metric")

        if best_slack:
            for v in range(p):
                if u[v]:
                    f[v] += best_slack * u[v]

        # Rank-one update of B^{-1} after swapping the leaving row for the
        # entering constraint normal a:  B' = B + e_r (a - B_r)^T.
        ai, aj = ci[best_cid], cj[best_cid]
        z = [(binv[ai][pos] if ai >= 0 else 0)
             - (binv[aj][pos] if aj >= 0 else 0) for pos in range(p)]
        piv = z[leave_pos]
        if piv not in (1, -1):
            raise RuntimeError(f"total unimodularity broken: pivot {piv}")
        col = [binv[v][leave_pos] for v in range(p)]
        for v in range(p):
            cv = col[v]
            if not cv:
                continue
            row = binv[v]
            for pos in range(p):
                zz = z[pos] - (1 if pos == leave_pos else 0)
                if zz:
                    row[pos] -= cv * zz * piv

        in_basis[leave_cid] = False
        in_basis[best_cid] = True
        basis[leave_pos] = best_cid

    raise RuntimeError("pivot limit exceeded")
