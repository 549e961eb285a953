"""Covering numbers, doubling constants and Assouad-dimension estimates for
finite metric spaces.

Covers run on Python-int bitsets (bit i for point i).  A closed ball is one
`bisect` into the ascending scaled distance rows of `MetricSpace.sorted_rows`
plus a table lookup, so no `Fraction` is compared inside the cover search.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .metric import MetricSpace, as_fraction

DEFAULT_EXACT_THRESHOLD = 20


@dataclass(frozen=True)
class CoverResult:
    count: int
    centers: tuple
    exact: bool


@dataclass(frozen=True)
class ScaleEntry:
    """Worst-case doubling data at one scale: the most expensive center, the
    number of r-balls needed to cover its 2r-ball, and the cover itself."""

    r: Fraction
    count: int
    exact: bool
    center: int
    cover: tuple


@dataclass(frozen=True)
class DoublingReport:
    scales: tuple
    doubling_max: int
    all_exact: bool
    assouad_estimate: float
    assouad_scale_range: tuple


@dataclass(frozen=True)
class Discreteness:
    theta: Fraction
    diameter: Fraction
    ratio: Fraction


def _scaled(space: MetricSpace, radius: Fraction) -> int:
    """floor(radius * D), D the common denominator of `space.scaled`: for an
    int distance d*D, d <= radius holds exactly when d*D <= floor(radius*D)."""
    return radius.numerator * space.scaled[0] // radius.denominator


def _ball_mask(space: MetricSpace, center: int, scaled_radius: int) -> int:
    """Bitmask (bit i for point i) of the closed ball around `center`."""
    row, prefix = space.sorted_rows[center]
    return prefix[bisect_right(row, scaled_radius)]


def ball(space: MetricSpace, center: int, radius) -> tuple:
    """Indices of the closed ball around `center`."""
    mask = _ball_mask(space, center, _scaled(space, as_fraction(radius)))
    return tuple(i for i in range(space.n) if mask >> i & 1)


def _greedy_cover(universe: int, candidates) -> list:
    uncovered = universe
    chosen = []
    while uncovered:
        best_c, best_m, best_gain = -1, 0, 0
        for c, members in candidates:
            gain = (members & uncovered).bit_count()
            if gain > best_gain:
                best_c, best_m, best_gain = c, members, gain
        if best_c < 0:
            raise RuntimeError("uncoverable element")  # impossible: x covers x
        chosen.append(best_c)
        uncovered &= ~best_m
    return chosen


def _exact_cover(universe: int, candidates, warm_start: list) -> list:
    """Branch and bound minimum set cover, seeded with the greedy solution."""
    sets = dict(candidates)
    max_size = max((m.bit_count() for m in sets.values()), default=1)
    # the candidates covering each element, keyed by its bit, in center order
    covering_of = {}
    rest = universe
    while rest:
        bit = rest & -rest
        covering_of[bit] = [c for c, m in candidates if m & bit]
        rest ^= bit
    best = list(warm_start)
    _branch(universe, [], best, sets, covering_of, max_size)
    return best


def _branch(uncovered: int, chosen: list, best: list, sets: dict,
            covering_of: dict, max_size: int) -> None:
    """One node of the `_exact_cover` search; improves `best` in place.

    A module-level function rather than a recursive closure: a closure that
    calls itself is a reference cycle, which would keep every search table
    alive until the cyclic garbage collector runs."""
    if not uncovered:
        if len(chosen) < len(best):
            best[:] = chosen
        return
    if len(chosen) + -(-uncovered.bit_count() // max_size) >= len(best):
        return
    # branch on the most constrained uncovered element, lowest index first
    covering = None
    rest = uncovered
    while rest:
        bit = rest & -rest
        cov = covering_of[bit]
        if covering is None or len(cov) < len(covering):
            covering = cov
        rest ^= bit
    for c in sorted(covering,
                    key=lambda c: (-(sets[c] & uncovered).bit_count(), c)):
        chosen.append(c)
        _branch(uncovered & ~sets[c], chosen, best, sets, covering_of,
                max_size)
        chosen.pop()


def covering_number(space: MetricSpace, x: int, big_r, small_r,
                    exact_threshold: int = DEFAULT_EXACT_THRESHOLD) -> CoverResult:
    """Minimum number of closed small_r-balls (centers anywhere in the space)
    covering the closed big_r-ball around x.

    The count is exact, certified by the returned centers, whenever the ball
    holds at most `exact_threshold` points; beyond that the greedy cover is
    returned and flagged as an upper bound.
    """
    big_r, small_r = as_fraction(big_r), as_fraction(small_r)
    if small_r <= 0:
        raise ValueError("covering radius must be positive")
    if big_r < small_r:
        raise ValueError("covered radius must be at least the covering radius")
    universe = _ball_mask(space, x, _scaled(space, big_r))
    small = _scaled(space, small_r)

    candidates = []
    seen = set()
    for c, (row, prefix) in enumerate(space.sorted_rows):
        members = prefix[bisect_right(row, small)] & universe
        if members and members not in seen:
            candidates.append((c, members))
            seen.add(members)
    # drop sets strictly contained in another candidate
    masks = [m for _, m in candidates]
    maximal = []
    for c, m in candidates:
        for m2 in masks:
            if m & m2 == m != m2:
                break
        else:
            maximal.append((c, m))
    candidates = maximal

    chosen = _greedy_cover(universe, candidates)
    if universe.bit_count() <= exact_threshold:
        chosen = _exact_cover(universe, candidates, chosen)
        return CoverResult(len(chosen), tuple(sorted(chosen)), True)
    return CoverResult(len(chosen), tuple(sorted(chosen)), False)


def _positive_distances(space: MetricSpace) -> list:
    vals = {space.d(i, j) for i, j in space.pairs() if space.d(i, j) > 0}
    return sorted(vals)


def _thin(values: list, keep: int) -> list:
    if len(values) <= keep:
        return list(values)
    stride = (len(values) - 1) / (keep - 1)
    picked = sorted({round(k * stride) for k in range(keep)})
    return [values[i] for i in picked]


def doubling_constant(space: MetricSpace,
                      exact_threshold: int = DEFAULT_EXACT_THRESHOLD,
                      scales=None) -> DoublingReport:
    """Worst-case covering counts C(r) of 2r-balls by r-balls over the
    canonical scale grid (realized distances and their halves), plus a
    log-ratio Assouad-dimension estimate over a thinned radius grid.

    The estimate is exactly that -- an estimate over the reported scale
    range -- and is never a claim about a true dimension.
    """
    if space.n < 2:
        raise ValueError("doubling data needs at least two points")
    dists = _positive_distances(space)
    if scales is None:
        grid = sorted({d / 2 for d in dists} | set(dists))
    else:
        grid = sorted({as_fraction(s) for s in scales})
        if any(s <= 0 for s in grid):
            raise ValueError("scales must be positive")

    entries = []
    for r in grid:
        worst = None
        for x in range(space.n):
            res = covering_number(space, x, 2 * r, r, exact_threshold)
            if worst is None or res.count > worst[1].count:
                worst = (x, res)
        x, res = worst
        entries.append(ScaleEntry(r, res.count, res.exact, x, res.centers))

    # Assouad estimate: max log N(x, R, r) / log(R / r) over ratio >= 2 pairs
    # drawn from a thinned grid of realized distances.
    radii = _thin(dists, 6)
    estimate = 0.0
    lo, hi = None, None
    for big in radii:
        for small in radii:
            if big / small < 2:
                continue
            lo = small if lo is None or small < lo else lo
            hi = big if hi is None or big > hi else hi
            worst_count = 1
            for x in range(space.n):
                res = covering_number(space, x, big, small, exact_threshold)
                worst_count = max(worst_count, res.count)
            if worst_count > 1:
                est = math.log(worst_count) / math.log(big / small)
                estimate = max(estimate, est)
    scale_range = (lo, hi) if lo is not None else None

    return DoublingReport(
        scales=tuple(entries),
        doubling_max=max(e.count for e in entries),
        all_exact=all(e.exact for e in entries),
        assouad_estimate=estimate,
        assouad_scale_range=scale_range,
    )


def uniform_discreteness(space: MetricSpace) -> Discreteness:
    """Separation (least off-diagonal distance), diameter, and their ratio,
    the quantity that drives witness conditioning."""
    if space.n < 2:
        raise ValueError("discreteness data needs at least two points")
    dists = [space.d(i, j) for i, j in space.pairs()]
    theta = min(dists)
    diameter = max(dists)
    return Discreteness(theta, diameter, diameter / theta)
