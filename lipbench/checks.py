"""Exact output checks for every benchmark command.

The checks are written against the generated inputs alone, with Fractions,
and never call lipfree.  Where an answer carries a certificate the
certificate is checked rather than compared with a recorded answer, because
optima need not be unique.  The values that are unique (norms, operator
norms, condition numbers, covering counts, suite case counts) are returned by
`check` so the caller can compare them with goldens.
"""

from __future__ import annotations

import json
from fractions import Fraction


class CheckError(Exception):
    """An output that is wrong; the message says what failed."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _frac(value, what: str) -> Fraction:
    if not isinstance(value, str):
        raise CheckError(f"{what} is not a rational string: {value!r}")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise CheckError(f"{what} is not a rational: {value!r}") from None


def check(cmd, exit_code: int, stdout: str) -> dict:
    """Raise CheckError unless the command's output is right; return its
    unique values for the golden comparison."""
    _require(exit_code == 0, f"exit code {exit_code}")
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise CheckError(f"stdout is not JSON: {exc}") from None
    _require(isinstance(report, dict), "report is not an object")
    _require(report.get("numeric_mode") == "exact", "not in exact mode")
    try:
        return _CHECKERS[cmd.kind](cmd.context, report)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise CheckError(f"malformed report: {exc!r}") from None


def check_norm(ctx: dict, report: dict) -> dict:
    space, coeffs = ctx["space"], ctx["coeffs"]
    n, dist, labels = space.n, space.dist, space.points
    index = {lbl: i for i, lbl in enumerate(labels)}
    want = {labels[x]: v for x, v in coeffs.items()}
    got = {lbl: _frac(v, "coefficient") for lbl, v in report["coeffs"].items()}
    _require(got == want, "echoed coefficients differ from the input")

    dual = _frac(report["dual_norm"], "dual_norm")
    flow = _frac(report["flow_norm"], "flow_norm")
    _require(dual == flow, f"dual_norm {dual} != flow_norm {flow}")
    _require(report["agree"] is True, "agree is not true")

    # Dual certificate: a 1-Lipschitz function vanishing at the base whose
    # pairing with the vector is the value.
    table = report["optimal_function"]
    _require(set(table) == set(labels), "function does not cover the space")
    f = [_frac(table[lbl], "function value") for lbl in labels]
    _require(f[space.base] == 0, "function does not vanish at the base")
    lip = Fraction(0)
    for i in range(n):
        for j in range(i + 1, n):
            lip = max(lip, abs(f[i] - f[j]) / dist[i][j])
    _require(lip <= 1, f"function has Lipschitz number {lip} > 1")
    _require(_frac(report["optimal_function_lipschitz"], "lipschitz") == lip,
             "reported Lipschitz number is wrong")
    pairing = sum((v * f[x] for x, v in coeffs.items()), Fraction(0))
    _require(pairing == dual, f"pairing {pairing} != dual_norm {dual}")

    # Primal certificate: a plan whose divergence is the vector (the base
    # absorbing the rest) and whose cost is the value.
    net = [Fraction(0)] * n
    cost = Fraction(0)
    for edge in report["optimal_flow"]:
        s, t = index[edge["from"]], index[edge["to"]]
        amount = _frac(edge["amount"], "flow amount")
        _require(amount > 0 and s != t, "flow edge is not a positive move")
        net[s] += amount
        net[t] -= amount
        cost += amount * dist[s][t]
    for x in range(n):
        if x != space.base:
            _require(net[x] == coeffs.get(x, 0),
                     f"plan divergence at {labels[x]} is {net[x]}")
    _require(cost == flow, f"plan cost {cost} != flow_norm {flow}")
    # Weak duality (pairing <= norm <= cost) with equality proves both
    # certificates optimal.
    return {"norm": str(dual)}


def _norms(report: dict) -> dict:
    op = _frac(report["operator_norm"], "operator_norm")
    inv = _frac(report["inverse_norm"], "inverse_norm")
    cond = _frac(report["condition"], "condition")
    _require(op > 0 and inv > 0, "operator norms must be positive")
    _require(cond == op * inv, f"condition {cond} != {op} * {inv}")
    _require(cond >= 1, f"condition {cond} < 1")
    return {"operator_norm": str(op), "inverse_norm": str(inv),
            "condition": str(cond)}


def check_witness_check(ctx: dict, report: dict) -> dict:
    source, target, rows = ctx["source"], ctx["target"], ctx["rows"]
    _require(report["invertible"] is True, "witness reported not invertible")
    _require(report["reason"] is None, "invertible witness carries a reason")
    values = _norms(report)
    snb, tnb = source.non_base(), target.non_base()
    scol = {source.points[x]: k for k, x in enumerate(snb)}
    images = report["inverse_images"]
    _require(set(images) == {target.points[x] for x in tnb},
             "inverse images do not cover the target")
    p = len(snb)
    inv = [[Fraction(0)] * p for _ in range(p)]
    for r, x in enumerate(tnb):
        for lbl, value in images[target.points[x]].items():
            _require(lbl in scol, f"inverse image names unknown point {lbl}")
            inv[r][scol[lbl]] = _frac(value, "inverse coefficient")
    for a, b, side in ((rows, inv, "inverse after witness"),
                       (inv, rows, "witness after inverse")):
        for i in range(p):
            for j in range(p):
                entry = sum((a[i][k] * b[k][j] for k in range(p)),
                            Fraction(0))
                _require(entry == (i == j), f"{side} is not the identity")
    return values


def check_witness_build(ctx: dict, report: dict) -> dict:
    _require(report["kind"] == ctx["kind"], "wrong witness kind")
    _require(report["witness_file"] is None, "unexpected witness file")
    values = _norms(report)
    if report["kind"] == "discrete":
        space = ctx["space"]
        gaps = [space.dist[i][j] for i in range(space.n)
                for j in range(i + 1, space.n)]
        _require(_frac(report["separation"], "separation") == min(gaps),
                 "separation is not the least distance")
        _require(_frac(report["diameter"], "diameter") == max(gaps),
                 "diameter is not the largest distance")
        values.update(separation=report["separation"],
                      diameter=report["diameter"])
    return values


def check_doubling(ctx: dict, report: dict) -> dict:
    space, threshold = ctx["space"], ctx["threshold"]
    n, dist, labels = space.n, space.dist, space.points
    index = {lbl: i for i, lbl in enumerate(labels)}
    _require(report["exact_threshold"] == threshold, "wrong exact threshold")
    dists = {dist[i][j] for i in range(n) for j in range(i + 1, n)}
    grid = sorted(dists | {d / 2 for d in dists})
    entries = report["scales"]
    _require([_frac(e["r"], "scale") for e in entries] == grid,
             "scales are not the realized distances and their halves")
    counts = []
    for e in entries:
        r = _frac(e["r"], "scale")
        center = index[e["worst_center"]]
        cover = [index[c] for c in e["cover"]]
        _require(e["count"] == len(cover) >= 1,
                 f"count {e['count']} != cover size {len(cover)} at r={r}")
        big = [y for y in range(n) if dist[center][y] <= 2 * r]
        for y in big:
            _require(any(dist[c][y] <= r for c in cover),
                     f"cover misses {labels[y]} at r={r}")
        _require(e["exact"] is (len(big) <= threshold),
                 f"exact flag wrong at r={r}")
        counts.append(e["count"])
    _require(report["doubling_max"] == max(counts), "doubling_max is wrong")
    _require(report["all_exact"] is all(e["exact"] for e in entries),
             "all_exact is wrong")
    return {"counts": counts, "doubling_max": report["doubling_max"],
            "all_exact": report["all_exact"],
            "assouad_estimate": report["assouad_estimate"]}


def check_suite(ctx: dict, report: dict) -> dict:
    _require(report["all_passed"] is True, "suite reports a failed battery")
    _require(report["spaces"] == ctx["spaces"], "wrong pool size")
    batteries = report["batteries"]
    _require(all(b["passed"] for b in batteries), "a battery failed")
    return {"cases": [b["cases"] for b in batteries]}


def cases(cmd, values: dict) -> int:
    """Units of work a command completed: battery cases for `suite`, one
    per command elsewhere."""
    if cmd.workload == "suite":
        return sum(values["cases"])
    return 1


_CHECKERS = {
    "integer": check_norm,
    "rational": check_norm,
    "check-path": check_witness_check,
    "check-unimodular": check_witness_check,
    "discrete": check_witness_build,
    "normalize": check_witness_build,
    "quotient": check_witness_build,
    "project": check_witness_build,
    "path": check_doubling,
    "closure": check_doubling,
    "path-low": check_doubling,
    "closure-low": check_doubling,
    "suite": check_suite,
}
