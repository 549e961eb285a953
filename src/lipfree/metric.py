"""Finite pointed metric spaces with exact rational distances.

Distances are `fractions.Fraction` throughout, so every construction and
every derived quantity in this package is computed without rounding.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence


def as_fraction(value) -> Fraction:
    """Coerce ints, strings like "3/4" or "0.25", and Fractions.

    Floats are refused: a binary float silently re-interpreted as a rational
    is exactly the kind of contamination this package exists to avoid.
    """
    if isinstance(value, float):
        raise TypeError(f"refusing float {value!r}; pass a string or Fraction")
    return Fraction(value)


def scale_to_ints(values) -> tuple:
    """(scale, ints): `scale` is the least common multiple of the
    denominators of the rationals `values`, and ints[k] == values[k] * scale.
    """
    values = list(values)
    scale = math.lcm(*(v.denominator for v in values))
    return scale, [v.numerator * (scale // v.denominator) for v in values]


@dataclass(frozen=True)
class MetricSpace:
    """A finite pointed metric space: labelled points, a base point, and a
    matrix of pairwise distances.

    The constructor enforces only structural shape (square matrix, label
    count); the metric axioms are checked by :func:`validate`, which reports
    violations as data rather than raising, so invalid candidates can be
    inspected.
    """

    points: tuple
    base: int
    dist: tuple

    def __post_init__(self):
        points = tuple(str(p) for p in self.points)
        n = len(points)
        rows = tuple(tuple(as_fraction(v) for v in row) for row in self.dist)
        if len(rows) != n or any(len(row) != n for row in rows):
            raise ValueError(f"distance matrix must be {n}x{n}")
        if not isinstance(self.base, int) or isinstance(self.base, bool):
            raise ValueError("base must be an integer index")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "dist", rows)

    @property
    def n(self) -> int:
        return len(self.points)

    @functools.cached_property
    def scaled(self) -> tuple:
        """(D, rows) with rows[i][j] == d(i, j) * D an int for every pair:
        the distances over their common denominator D, computed once."""
        n = self.n
        scale, flat = scale_to_ints(v for row in self.dist for v in row)
        return scale, tuple(tuple(flat[i * n:(i + 1) * n]) for i in range(n))

    @functools.cached_property
    def sorted_rows(self) -> tuple:
        """Per center c, (row, prefix): row c of `scaled` in ascending order,
        and prefix[k] the bitmask (bit i for point i) of the points behind
        its first k entries.  The closed ball of scaled radius R around c is
        prefix[bisect_right(row, R)]."""
        out = []
        for row in self.scaled[1]:
            order = sorted(range(self.n), key=row.__getitem__)
            prefix = [0]
            for i in order:
                prefix.append(prefix[-1] | 1 << i)
            out.append((tuple(row[i] for i in order), tuple(prefix)))
        return tuple(out)

    def d(self, i: int, j: int) -> Fraction:
        return self.dist[i][j]

    def label(self, i: int) -> str:
        return self.points[i]

    def index(self, label: str) -> int:
        try:
            return self.points.index(label)
        except ValueError:
            raise KeyError(f"no point labelled {label!r}") from None

    def non_base(self) -> tuple:
        return tuple(i for i in range(self.n) if i != self.base)

    def pairs(self):
        """All unordered index pairs."""
        return itertools.combinations(range(self.n), 2)


@dataclass(frozen=True)
class PointMap:
    """A total map between the points of two spaces.

    The Lipschitz number and the base-preservation flag are derived at
    construction time and stored, so a `PointMap` is always consistent with
    its own metadata.
    """

    source: MetricSpace
    target: MetricSpace
    image: tuple
    base_preserving: bool
    lipschitz: Fraction

    @classmethod
    def create(cls, source: MetricSpace, target: MetricSpace,
               image: Sequence[int]) -> "PointMap":
        image = tuple(int(i) for i in image)
        if len(image) != source.n:
            raise ValueError("image must assign a target to every point")
        if any(not 0 <= i < target.n for i in image):
            raise ValueError("image index out of range")
        lip = Fraction(0)
        for i, j in source.pairs():
            ds = source.d(i, j)
            if ds > 0:
                lip = max(lip, target.d(image[i], image[j]) / ds)
        return cls(source, target, image,
                   base_preserving=image[source.base] == target.base,
                   lipschitz=lip)

    def __call__(self, i: int) -> int:
        return self.image[i]


def is_retraction(pm: PointMap) -> bool:
    """True when the map is an idempotent self-map of its source."""
    if pm.source != pm.target:
        return False
    return all(pm.image[pm.image[i]] == pm.image[i] for i in range(pm.source.n))


def validate(space: MetricSpace) -> list:
    """Check all axioms of a pointed metric space.

    Returns one entry per violation, each naming the axiom and the witnessing
    points; an empty list means the space is valid.
    """
    out = []
    pts, dist, n = space.points, space.scaled[1], space.n
    seen = {}
    for i, p in enumerate(pts):
        if p in seen:
            out.append(f"labels({pts[seen[p]]},{i}): duplicate label")
        else:
            seen[p] = i
    if not 0 <= space.base < n:
        out.append(f"base({space.base}): out of range")
    for i in range(n):
        if dist[i][i] != 0:
            out.append(f"diagonal({pts[i]})")
    for i in range(n):
        for j in range(i + 1, n):
            if dist[i][j] != dist[j][i]:
                out.append(f"symmetry({pts[i]},{pts[j]})")
            if dist[i][j] <= 0:
                out.append(f"positivity({pts[i]},{pts[j]})")
    for i in range(n):
        for k in range(i + 1, n):
            for j in range(n):
                if j in (i, k):
                    continue
                if dist[i][k] > dist[i][j] + dist[j][k]:
                    out.append(f"triangle({pts[i]},{pts[k]} via {pts[j]})")
    return out


def coproduct(m: MetricSpace, other: MetricSpace) -> MetricSpace:
    """Disjoint union with the two base points glued.

    Distances are unchanged inside each part; a cross pair is routed through
    the glued base point: d(x, y) = d(x, e) + d(e, y).  Labels from the right
    part are primed until they no longer collide with the left part.
    """
    labels = list(m.points)
    used = set(labels)
    right = [j for j in range(other.n) if j != other.base]
    for j in right:
        lbl = other.points[j]
        while lbl in used:
            lbl += "'"
        labels.append(lbl)
        used.add(lbl)

    n_total = m.n + len(right)

    def locate(idx):
        # (part, original index); part 0 is m, part 1 is other
        if idx < m.n:
            return 0, idx
        return 1, right[idx - m.n]

    rows = []
    for a in range(n_total):
        pa, ia = locate(a)
        row = []
        for b in range(n_total):
            pb, ib = locate(b)
            if pa == pb:
                row.append(m.d(ia, ib) if pa == 0 else other.d(ia, ib))
            elif pa == 0:
                row.append(m.d(ia, m.base) + other.d(other.base, ib))
            else:
                row.append(other.d(ia, other.base) + m.d(m.base, ib))
        rows.append(tuple(row))
    return MetricSpace(tuple(labels), m.base, tuple(rows))


def quotient(space: MetricSpace, collapse: Iterable[int],
             collapsed_label: str = None) -> tuple:
    """Collapse a nonempty set of points to a single class.

    Class distances follow min(d(x, y), d(x, C) + d(y, C)).  Singleton
    classes are labelled "[x]"; the collapsed class gets `collapsed_label`
    or a generated "[a|b|...]" built from its sorted members.  The base point
    of the quotient is the class containing the original base.  Returns the
    quotient space together with the natural quotient map.
    """
    members = sorted(set(collapse))
    if not members:
        raise ValueError("collapse set must be nonempty")
    if any(not 0 <= i < space.n for i in members):
        raise ValueError("collapse index out of range")
    member_set = set(members)

    labels = []
    class_of = [None] * space.n
    collapsed_class = None
    for i in range(space.n):
        if i in member_set:
            if collapsed_class is None:
                collapsed_class = len(labels)
                lbl = collapsed_label
                if lbl is None:
                    lbl = "[" + "|".join(space.points[j] for j in members) + "]"
                labels.append(lbl)
            class_of[i] = collapsed_class
        else:
            class_of[i] = len(labels)
            labels.append(f"[{space.points[i]}]")

    reps = {}
    for i in range(space.n):
        reps.setdefault(class_of[i], i)
    d_to_c = [min(space.d(i, c) for c in members) for i in range(space.n)]

    k = len(labels)
    rows = []
    for a in range(k):
        row = []
        x = reps[a]
        for b in range(k):
            y = reps[b]
            if a == b:
                row.append(Fraction(0))
            elif a == collapsed_class:
                row.append(d_to_c[y])
            elif b == collapsed_class:
                row.append(d_to_c[x])
            else:
                row.append(min(space.d(x, y), d_to_c[x] + d_to_c[y]))
        rows.append(tuple(row))

    qspace = MetricSpace(tuple(labels), class_of[space.base], tuple(rows))
    qmap = PointMap.create(space, qspace, tuple(class_of))
    return qspace, qmap


def subspace(space: MetricSpace, keep: Iterable[int]) -> MetricSpace:
    """Restrict the metric to a subset of points containing the base."""
    idx = sorted(set(keep))
    if space.base not in idx:
        raise ValueError("subspace must contain the base point")
    if any(not 0 <= i < space.n for i in idx):
        raise ValueError("subspace index out of range")
    labels = tuple(space.points[i] for i in idx)
    rows = tuple(tuple(space.d(i, j) for j in idx) for i in idx)
    return MetricSpace(labels, idx.index(space.base), rows)


def distance_to_set(space: MetricSpace, x: int, subset: Iterable[int]) -> Fraction:
    """min over a in the subset of d(x, a)."""
    members = list(subset)
    if not members:
        raise ValueError("distance to the empty set is undefined")
    return min(space.d(x, a) for a in members)


def path_space(steps: int, base: int = 0) -> MetricSpace:
    """The unit-step path 0, 1, ..., steps."""
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    pts = tuple(str(k) for k in range(steps + 1))
    rows = tuple(tuple(Fraction(abs(i - j)) for j in range(steps + 1))
                 for i in range(steps + 1))
    return MetricSpace(pts, base, rows)


def equilateral_space(count: int, spacing=1) -> MetricSpace:
    """`count` points with all pairwise distances equal to `spacing`."""
    if count < 1:
        raise ValueError("need at least one point")
    gap = as_fraction(spacing)
    pts = tuple(f"x{k}" for k in range(count))
    rows = tuple(tuple(Fraction(0) if i == j else gap for j in range(count))
                 for i in range(count))
    return MetricSpace(pts, 0, rows)
