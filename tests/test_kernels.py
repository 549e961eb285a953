"""The simplex, transport and triangle-check kernels run on scaled ints;
these tests hold them to exact rational answers on mixed denominators."""

import random
from fractions import Fraction

from lipfree import (FreeVector, MetricSpace, free_norm_dual, free_norm_flow,
                     validate)

from helpers import brute_force_free_norm, tiny_space

COPRIME_DENOMS = (2, 3, 5, 7)


def coprime_space(rng, n) -> MetricSpace:
    """Shortest-path closure of weights over the denominators 2, 3, 5, 7."""
    w = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            w[i][j] = w[j][i] = Fraction(rng.randint(1, 9),
                                         rng.choice(COPRIME_DENOMS))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if i != j and w[i][k] + w[k][j] < w[i][j]:
                    w[i][j] = w[i][k] + w[k][j]
    return tiny_space(w, base=rng.randrange(n))


def test_solvers_agree_with_brute_force_on_coprime_denominators():
    rng = random.Random(41)
    for _ in range(40):
        space = coprime_space(rng, rng.randint(2, 4))
        coeffs = tuple((x, Fraction(rng.randint(-9, 9),
                                    rng.choice(COPRIME_DENOMS)))
                       for x in space.non_base() if rng.random() < 0.8)
        vec = FreeVector(space, coeffs)
        assert validate(space) == []
        value, opt = free_norm_dual(vec)
        cost, plan = free_norm_flow(vec)
        assert value == cost == brute_force_free_norm(space, vec)
        assert type(value) is Fraction and type(cost) is Fraction
        assert all(type(v) is Fraction for v in opt.values)
        assert all(type(a) is Fraction for _, _, a in plan.edges)


def test_pinned_rational_instance():
    # Outputs recorded from the all-Fraction solvers this package had before
    # its kernels moved to scaled ints: certificates must stay byte-identical.
    q = Fraction
    rows = [
        [0, q(1, 2), q(2, 5), q(3, 5), q(44, 35), q(1, 3)],
        [q(1, 2), 0, q(9, 10), q(11, 10), q(9, 7), q(5, 6)],
        [q(2, 5), q(9, 10), 0, q(1, 2), q(6, 7), q(11, 15)],
        [q(3, 5), q(11, 10), q(1, 2), 0, q(19, 14), q(14, 15)],
        [q(44, 35), q(9, 7), q(6, 7), q(19, 14), 0, q(4, 3)],
        [q(1, 3), q(5, 6), q(11, 15), q(14, 15), q(4, 3), 0],
    ]
    space = tiny_space(rows, base=2, labels=tuple("abcdef"))
    assert space.scaled[0] == 210
    assert space.scaled[1][0][4] == 264
    vec = FreeVector(space, ((0, q(3, 2)), (1, q(-2, 3)), (3, q(5, 7)),
                             (4, q(-1, 5)), (5, q(1))))
    value, opt = free_norm_dual(vec)
    assert value == q(657, 350)
    assert opt.values == (q(2, 5), q(-1, 10), q(0), q(1, 2), q(-3, 5),
                          q(11, 15))
    cost, plan = free_norm_flow(vec)
    assert cost == q(657, 350)
    assert plan.edges == ((0, 2, q(3, 2)), (3, 2, q(5, 7)), (5, 1, q(2, 3)),
                          (5, 2, q(2, 15)), (5, 4, q(1, 5)))
