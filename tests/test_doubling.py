import gc
import itertools
import random
from fractions import Fraction

import pytest

from lipfree import (MetricSpace, covering_number, doubling_constant,
                     equilateral_space, path_space, uniform_discreteness)
from lipfree.doubling import ball
from lipfree.randgen import random_space

from helpers import tiny_space


def test_ball_is_closed():
    line = path_space(4)
    assert ball(line, 2, 1) == (1, 2, 3)
    assert ball(line, 2, Fraction(1, 2)) == (2,)


def test_covering_singleton():
    line = path_space(4)
    res = covering_number(line, 0, Fraction(1, 2), Fraction(1, 2))
    assert res.count == 1 and res.exact


def test_covering_path_frozen():
    line = path_space(8)
    res = covering_number(line, 4, 4, 2)
    assert res.count == 2 and res.exact
    covered = set()
    for c in res.centers:
        covered.update(ball(line, c, 2))
    assert covered >= set(ball(line, 4, 4))


def test_covering_equilateral_needs_singletons():
    eq = equilateral_space(5)
    res = covering_number(eq, 0, 1, Fraction(1, 2))
    assert res.count == 5 and res.exact


def test_covering_rejects_bad_radii():
    line = path_space(3)
    with pytest.raises(ValueError):
        covering_number(line, 0, 1, 0)
    with pytest.raises(ValueError):
        covering_number(line, 0, Fraction(1, 2), 1)


def test_greedy_flagged_beyond_threshold():
    line = path_space(8)
    res = covering_number(line, 4, 4, 2, exact_threshold=3)
    assert not res.exact
    assert res.count >= 2


def test_covering_monotonicity():
    rng = random.Random(51)
    for _ in range(25):
        space = random_space(rng, rng.randint(2, 7))
        dists = sorted({space.d(i, j) for i, j in space.pairs()})
        x = rng.randrange(space.n)
        big = dists[-1]
        radii = sorted({d / 2 for d in dists} | set(dists))
        counts = [covering_number(space, x, big, r).count for r in radii]
        assert all(a >= b for a, b in zip(counts, counts[1:]))
        small = radii[0]
        outer = [covering_number(space, x, r, small).count for r in radii]
        assert all(a <= b for a, b in zip(outer, outer[1:]))


def test_greedy_upper_bounds_exact():
    rng = random.Random(52)
    for _ in range(25):
        space = random_space(rng, rng.randint(2, 7))
        dists = sorted({space.d(i, j) for i, j in space.pairs()})
        x = rng.randrange(space.n)
        r = rng.choice(dists)
        greedy = covering_number(space, x, 2 * r, r, exact_threshold=0)
        exact = covering_number(space, x, 2 * r, r, exact_threshold=space.n)
        assert greedy.count >= exact.count
        assert exact.exact and not greedy.exact


def test_doubling_two_point_space():
    report = doubling_constant(tiny_space([[0, 1], [1, 0]]))
    assert report.doubling_max <= 2


def test_doubling_path_bounded():
    for n in (2, 5, 16):
        report = doubling_constant(path_space(n))
        assert report.doubling_max <= 3
    # large path, spot-checked scales: still bounded by 3
    report = doubling_constant(path_space(64),
                               scales=[Fraction(1, 2), Fraction(3, 2),
                                       8, Fraction(63, 2)])
    assert report.doubling_max <= 3


def test_doubling_equilateral_grows():
    for n in (3, 6, 11):
        report = doubling_constant(equilateral_space(n))
        assert report.doubling_max == n


def test_doubling_report_shape():
    report = doubling_constant(path_space(4))
    assert report.scales
    assert all(e.count >= 1 for e in report.scales)
    assert report.assouad_estimate >= 0.0
    lo, hi = report.assouad_scale_range
    assert lo <= hi


def test_doubling_rejects_tiny_space():
    with pytest.raises(ValueError):
        doubling_constant(tiny_space([[0]]))


def test_uniform_discreteness():
    eq = equilateral_space(4)
    disc = uniform_discreteness(eq)
    assert disc.theta == 1 and disc.diameter == 1 and disc.ratio == 1
    line = path_space(5)
    disc = uniform_discreteness(line)
    assert disc.theta == 1 and disc.diameter == 5 and disc.ratio == 5


def test_ball_radii_off_the_grid():
    line = path_space(4)
    tiny = Fraction(1, 10**12)
    assert ball(line, 2, 0) == (2,)
    assert ball(line, 2, tiny) == (2,)
    assert ball(line, 2, 1 - tiny) == (2,)
    assert ball(line, 2, Fraction(5, 3)) == (1, 2, 3)
    assert ball(line, 0, "7/2") == (0, 1, 2, 3)
    assert ball(line, 2, Fraction(-1, 2)) == ()
    rng = random.Random(54)
    for _ in range(25):
        space = random_space(rng, rng.randint(1, 8))
        dists = {space.d(i, j) for i, j in space.pairs()}
        radii = {0, tiny} | dists | {d / 2 for d in dists} | \
            {d * Fraction(2, 3) for d in dists}
        for c in range(space.n):
            for r in radii:
                assert ball(space, c, r) == tuple(
                    i for i in range(space.n) if space.d(c, i) <= r)


def _covers(space, centers, r, points) -> bool:
    return all(any(space.d(c, y) <= r for c in centers) for y in points)


def test_exact_cover_matches_subset_oracle():
    # Independent oracle: the least k for which some k-subset of centers
    # covers the big ball, found by plain enumeration over the distances.
    rng = random.Random(53)
    for _ in range(20):
        space = random_space(rng, rng.randint(2, 8))
        dists = {space.d(i, j) for i, j in space.pairs()}
        for r in sorted(dists | {d / 2 for d in dists}):
            for x in range(space.n):
                big = [y for y in range(space.n) if space.d(x, y) <= 2 * r]
                res = covering_number(space, x, 2 * r, r)
                assert res.exact and res.count == len(res.centers)
                assert _covers(space, res.centers, r, big)
                least = next(
                    k for k in range(1, space.n + 1)
                    if any(_covers(space, combo, r, big) for combo in
                           itertools.combinations(range(space.n), k)))
                assert res.count == least


PINNED_PATH = (
    'DoublingReport(scales=(ScaleEntry(r=Fraction(1, 4), count=2, '
    'exact=True, center=2, cover=(2, 3)), ScaleEntry(r=Fraction(1, 2), '
    'count=2, exact=True, center=0, cover=(0, 1)), ScaleEntry(r=Fraction(3,'
    ' 4), count=3, exact=True, center=6, cover=(5, 6, 7)), '
    'ScaleEntry(r=Fraction(1, 1), count=3, exact=True, center=5, cover=(3, '
    '5, 6)), ScaleEntry(r=Fraction(5, 4), count=3, exact=True, center=5, '
    'cover=(3, 5, 6)), ScaleEntry(r=Fraction(3, 2), count=3, exact=True, '
    'center=3, cover=(0, 2, 5)), ScaleEntry(r=Fraction(7, 4), count=3, '
    'exact=True, center=2, cover=(0, 2, 5)), ScaleEntry(r=Fraction(2, 1), '
    'count=2, exact=True, center=0, cover=(1, 2)), ScaleEntry(r=Fraction(9,'
    ' 4), count=3, exact=True, center=3, cover=(1, 2, 5)), '
    'ScaleEntry(r=Fraction(5, 2), count=2, exact=True, center=0, cover=(1, '
    '2)), ScaleEntry(r=Fraction(11, 4), count=2, exact=True, center=0, '
    'cover=(1, 2)), ScaleEntry(r=Fraction(3, 1), count=2, exact=True, '
    'center=1, cover=(2, 3)), ScaleEntry(r=Fraction(13, 4), count=2, '
    'exact=True, center=0, cover=(2, 3)), ScaleEntry(r=Fraction(7, 2), '
    'count=2, exact=True, center=1, cover=(2, 4)), ScaleEntry(r=Fraction(4,'
    ' 1), count=2, exact=True, center=0, cover=(2, 4)), '
    'ScaleEntry(r=Fraction(9, 2), count=1, exact=True, center=0, '
    'cover=(4,)), ScaleEntry(r=Fraction(5, 1), count=1, exact=True, '
    'center=0, cover=(4,)), ScaleEntry(r=Fraction(11, 2), count=1, '
    'exact=True, center=0, cover=(3,)), ScaleEntry(r=Fraction(6, 1), '
    'count=1, exact=True, center=0, cover=(2,)), ScaleEntry(r=Fraction(13, '
    '2), count=1, exact=True, center=0, cover=(2,)), '
    'ScaleEntry(r=Fraction(7, 1), count=1, exact=True, center=0, '
    'cover=(2,)), ScaleEntry(r=Fraction(8, 1), count=1, exact=True, '
    'center=0, cover=(1,)), ScaleEntry(r=Fraction(9, 1), count=1, '
    'exact=True, center=0, cover=(0,))), doubling_max=3, all_exact=True, '
    'assouad_estimate=1.19897784671579, assouad_scale_range=(Fraction(1, '
    '2), Fraction(9, 1)))'
)

PINNED_PATH_GREEDY = (
    'DoublingReport(scales=(ScaleEntry(r=Fraction(1, 4), count=2, '
    'exact=True, center=2, cover=(2, 3)), ScaleEntry(r=Fraction(1, 2), '
    'count=2, exact=True, center=0, cover=(0, 1)), ScaleEntry(r=Fraction(3,'
    ' 4), count=3, exact=True, center=6, cover=(5, 6, 7)), '
    'ScaleEntry(r=Fraction(1, 1), count=3, exact=True, center=5, cover=(3, '
    '5, 6)), ScaleEntry(r=Fraction(5, 4), count=3, exact=False, center=5, '
    'cover=(3, 5, 6)), ScaleEntry(r=Fraction(3, 2), count=3, exact=False, '
    'center=3, cover=(0, 2, 5)), ScaleEntry(r=Fraction(7, 4), count=3, '
    'exact=False, center=2, cover=(0, 2, 5)), ScaleEntry(r=Fraction(2, 1), '
    'count=3, exact=False, center=2, cover=(1, 2, 4)), '
    'ScaleEntry(r=Fraction(9, 4), count=3, exact=False, center=2, cover=(1,'
    ' 2, 4)), ScaleEntry(r=Fraction(5, 2), count=2, exact=False, center=0, '
    'cover=(1, 2)), ScaleEntry(r=Fraction(11, 4), count=2, exact=False, '
    'center=0, cover=(1, 2)), ScaleEntry(r=Fraction(3, 1), count=2, '
    'exact=False, center=1, cover=(2, 3)), ScaleEntry(r=Fraction(13, 4), '
    'count=2, exact=False, center=0, cover=(2, 3)), '
    'ScaleEntry(r=Fraction(7, 2), count=2, exact=False, center=1, cover=(2,'
    ' 4)), ScaleEntry(r=Fraction(4, 1), count=2, exact=False, center=0, '
    'cover=(2, 4)), ScaleEntry(r=Fraction(9, 2), count=1, exact=False, '
    'center=0, cover=(4,)), ScaleEntry(r=Fraction(5, 1), count=1, '
    'exact=False, center=0, cover=(4,)), ScaleEntry(r=Fraction(11, 2), '
    'count=1, exact=False, center=0, cover=(3,)), ScaleEntry(r=Fraction(6, '
    '1), count=1, exact=False, center=0, cover=(2,)), '
    'ScaleEntry(r=Fraction(13, 2), count=1, exact=False, center=0, '
    'cover=(2,)), ScaleEntry(r=Fraction(7, 1), count=1, exact=False, '
    'center=0, cover=(2,)), ScaleEntry(r=Fraction(8, 1), count=1, '
    'exact=False, center=0, cover=(1,)), ScaleEntry(r=Fraction(9, 1), '
    'count=1, exact=False, center=0, cover=(0,))), doubling_max=3, '
    'all_exact=False, assouad_estimate=1.19897784671579, '
    'assouad_scale_range=(Fraction(1, 2), Fraction(9, 1)))'
)

PINNED_CLOSURE = (
    'DoublingReport(scales=(ScaleEntry(r=Fraction(1, 3), count=2, '
    'exact=True, center=1, cover=(1, 4)), ScaleEntry(r=Fraction(1, 2), '
    'count=3, exact=True, center=0, cover=(0, 5, 6)), '
    'ScaleEntry(r=Fraction(2, 3), count=3, exact=True, center=0, cover=(0, '
    '5, 6)), ScaleEntry(r=Fraction(3, 4), count=4, exact=True, center=5, '
    'cover=(0, 1, 3, 5)), ScaleEntry(r=Fraction(5, 6), count=4, exact=True,'
    ' center=0, cover=(0, 1, 5, 6)), ScaleEntry(r=Fraction(1, 1), count=4, '
    'exact=True, center=0, cover=(0, 1, 2, 5)), ScaleEntry(r=Fraction(13, '
    '12), count=4, exact=True, center=0, cover=(0, 1, 2, 5)), '
    'ScaleEntry(r=Fraction(7, 6), count=4, exact=True, center=0, cover=(0, '
    '1, 2, 5)), ScaleEntry(r=Fraction(5, 4), count=4, exact=True, center=0,'
    ' cover=(0, 1, 2, 5)), ScaleEntry(r=Fraction(4, 3), count=4, '
    'exact=True, center=0, cover=(0, 1, 2, 5)), ScaleEntry(r=Fraction(3, '
    '2), count=4, exact=True, center=0, cover=(0, 2, 4, 5)), '
    'ScaleEntry(r=Fraction(5, 3), count=3, exact=True, center=0, cover=(0, '
    '2, 5)), ScaleEntry(r=Fraction(7, 4), count=3, exact=True, center=0, '
    'cover=(0, 2, 5)), ScaleEntry(r=Fraction(11, 6), count=3, exact=True, '
    'center=0, cover=(0, 2, 5)), ScaleEntry(r=Fraction(2, 1), count=2, '
    'exact=True, center=0, cover=(0, 1)), ScaleEntry(r=Fraction(13, 6), '
    'count=1, exact=True, center=0, cover=(5,)), ScaleEntry(r=Fraction(7, '
    '3), count=1, exact=True, center=0, cover=(0,)), '
    'ScaleEntry(r=Fraction(5, 2), count=1, exact=True, center=0, '
    'cover=(0,)), ScaleEntry(r=Fraction(8, 3), count=1, exact=True, '
    'center=0, cover=(0,)), ScaleEntry(r=Fraction(3, 1), count=1, '
    'exact=True, center=0, cover=(0,)), ScaleEntry(r=Fraction(7, 2), '
    'count=1, exact=True, center=0, cover=(0,)), ScaleEntry(r=Fraction(11, '
    '3), count=1, exact=True, center=0, cover=(0,))), doubling_max=4, '
    'all_exact=True, assouad_estimate=2.0, assouad_scale_range=(Fraction(2,'
    ' 3), Fraction(11, 3)))'
)


def test_pinned_reports():
    # Reports recorded from the frozenset covers this module had before its
    # covers moved to int bitsets: every tie-break must stay as it was.
    q = Fraction
    pos = [q(0), q(1), q(3), q(7, 2), q(9, 2), q(13, 2), q(8), q(9)]
    path = MetricSpace(tuple(f"p{i}" for i in range(8)), 0,
                       tuple(tuple(abs(a - b) for b in pos) for a in pos))
    closure = tiny_space([
        [0, q(5, 3), 2, 2, q(7, 3), 1, 1],
        [q(5, 3), 0, q(11, 3), q(7, 3), q(2, 3), q(13, 6), 2],
        [2, q(11, 3), 0, 3, q(7, 2), 2, 3],
        [2, q(7, 3), 3, 0, q(5, 2), 1, 3],
        [q(7, 3), q(2, 3), q(7, 2), q(5, 2), 0, q(3, 2), q(8, 3)],
        [1, q(13, 6), 2, 1, q(3, 2), 0, 2],
        [1, 2, 3, 3, q(8, 3), 2, 0],
    ])
    assert repr(doubling_constant(path)) == PINNED_PATH
    assert repr(doubling_constant(path, 3)) == PINNED_PATH_GREEDY
    assert repr(doubling_constant(closure)) == PINNED_CLOSURE


# A 12-point closure space on which the branch element and the candidate
# order of the exact cover search both decide which minimum cover comes back.
TIE_ROWS = """
   0  1/2    2    1  5/2  3/2 11/6  5/3  5/2  4/3 17/6  3/2
 1/2    0  5/2  3/2    2    1  5/3 13/6    2 11/6  5/2    1
   2  5/2    0 17/6  5/3 13/6  7/6 13/6 19/6  2/3    2 13/6
   1  3/2 17/6    0    2    1    2  2/3    2 13/6    2    2
 5/2    2  5/3    2    0    1 11/6  8/3    2  4/3 17/6 17/6
 3/2    1 13/6    1    1    0    1  5/3    1  3/2    3    2
11/6  5/3  7/6    2 11/6    1    0    2    2  1/2    2    1
 5/3 13/6 13/6  2/3  8/3  5/3    2    0  8/3  3/2  8/3  4/3
 5/2    2 19/6    2    2    1    2  8/3    0  5/2    4    3
 4/3 11/6  2/3 13/6  4/3  3/2  1/2  3/2  5/2    0  3/2  3/2
17/6  5/2    2    2 17/6    3    2  8/3    4  3/2    0  3/2
 3/2    1 13/6    2 17/6    2    1  4/3    3  3/2  3/2    0
"""


def test_pinned_cover_tie_breaks():
    rows = [[Fraction(v) for v in line.split()]
            for line in TIE_ROWS.strip().splitlines()]
    space = tiny_space(rows)
    res = covering_number(space, 2, Fraction(8, 3), Fraction(4, 3))
    assert repr(res) == \
        "CoverResult(count=4, centers=(3, 5, 6, 10), exact=True)"


def test_doubling_leaves_no_cyclic_garbage():
    # Every exact cover search frees its tables by reference counting, so a
    # doubling report leaves nothing for the cyclic collector to find later,
    # in the middle of unrelated work.
    space = path_space(10)
    gc.collect()
    gc.disable()
    try:
        report = doubling_constant(space)
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert report.all_exact
    assert unreachable == 0
