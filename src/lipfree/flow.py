"""Exact minimum-cost transport realizing a signed mass distribution.

Nodes with positive divergence ship mass, nodes with negative divergence
receive it.  Because the cost matrix satisfies the triangle inequality, some
optimal plan moves mass only along direct shipper-to-receiver edges (a relay
through a third point never beats the direct edge), so the search runs on
that bipartite network.  Mass is routed by successive shortest augmenting
paths in the residual graph, found with Bellman-Ford over ints (costs and
amounts scaled by their common denominators, which changes no path choice);
tie-breaking is by node index, so the optimal plan returned is deterministic.
"""

from __future__ import annotations

from fractions import Fraction

from .metric import scale_to_ints

_ZERO = Fraction(0)
_MAX_AUGMENTATIONS = 200_000


def min_cost_transport(space, divergence: dict) -> tuple:
    """Cheapest nonnegative flow whose net outflow matches `divergence`.

    `divergence` maps node index -> Fraction and must sum to zero.  Returns
    (cost, edges) with edges a tuple of (src, dst, amount), amount > 0,
    sorted by endpoint indices.

    `space` must satisfy the triangle inequality, which is not checked here:
    on a non-metric space the direct-edge network misses cheaper relays and
    the cost returned is wrong, with no error.  Use `metric.validate` on
    untrusted input first.
    """
    amount_scale, amounts = scale_to_ints(divergence.values())
    if sum(amounts) != 0:
        raise ValueError("divergence must sum to zero")
    supply = {i: b for i, b in zip(divergence, amounts) if b > 0}
    demand = {i: -b for i, b in zip(divergence, amounts) if b < 0}
    if not supply:
        return _ZERO, ()
    scale, cost_rows = space.scaled

    sources = sorted(supply)
    sinks = sorted(demand)
    rem_s = dict(supply)
    rem_t = dict(demand)
    flow = {}

    for _ in range(_MAX_AUGMENTATIONS):
        live = [s for s in sources if rem_s[s] > 0]
        if not live:
            break

        # Bellman-Ford from every source with remaining supply.  Forward
        # arcs s->t cost d(s, t); each positive flow contributes a backward
        # arc t->s at cost -d(s, t).
        dist = {v: None for v in sources}
        dist.update({v: None for v in sinks})
        pred = {}
        for s in live:
            dist[s] = 0
        for _round in range(len(dist)):
            changed = False
            for s in sources:
                ds = dist[s]
                if ds is None:
                    continue
                row = cost_rows[s]
                for t in sinks:
                    nd = ds + row[t]
                    if dist[t] is None or nd < dist[t]:
                        dist[t] = nd
                        pred[t] = s
                        changed = True
            for (s, t), amount in flow.items():
                if amount <= 0:
                    continue
                dt = dist[t]
                if dt is None:
                    continue
                nd = dt - cost_rows[s][t]
                if dist[s] is None or nd < dist[s]:
                    dist[s] = nd
                    pred[s] = t
                    changed = True
            if not changed:
                break
        else:
            raise RuntimeError("negative residual cycle: invalid cost data")

        target = None
        for t in sinks:
            if rem_t[t] > 0 and dist[t] is not None:
                if target is None or dist[t] < dist[target]:
                    target = t
        if target is None:
            raise RuntimeError("transport infeasible")

        # Recover the path backwards; it ends at a source with no predecessor.
        path = [target]
        seen = {target}
        while path[-1] in pred:
            nxt = pred[path[-1]]
            if nxt in seen:
                raise RuntimeError("predecessor cycle: invalid cost data")
            seen.add(nxt)
            path.append(nxt)
        start = path[-1]

        bottleneck = min(rem_s[start], rem_t[target])
        for k in range(len(path) - 1):
            ahead, node = path[k + 1], path[k]
            if node in demand:  # forward arc ahead -> node
                continue
            bottleneck = min(bottleneck, flow[(node, ahead)])

        for k in range(len(path) - 1):
            ahead, node = path[k + 1], path[k]
            if node in demand:
                key = (ahead, node)
                flow[key] = flow.get(key, 0) + bottleneck
            else:
                flow[(node, ahead)] -= bottleneck
        rem_s[start] -= bottleneck
        rem_t[target] -= bottleneck
    else:
        raise RuntimeError("augmentation limit exceeded")

    edges = sorted((s, t, a) for (s, t), a in flow.items() if a > 0)
    cost = sum(a * cost_rows[s][t] for s, t, a in edges)
    return (Fraction(cost, amount_scale * scale),
            tuple((s, t, Fraction(a, amount_scale)) for s, t, a in edges))
