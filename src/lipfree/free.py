"""Finitely supported vectors over a pointed metric space and their exact
free (Kantorovich-Rubinstein) norm.

The norm is computed by two independent exact methods:

* :func:`free_norm_dual` maximizes the pairing over the unit ball of
  base-vanishing Lipschitz functions (an exact LP over the difference
  constraint polytope) and returns an optimal function as certificate;
* :func:`free_norm_flow` finds the cheapest transport plan realizing the
  vector's divergence, with the base point absorbing any imbalance, and
  returns the optimal plan as certificate.

Strong LP duality makes the two values equal; computing both along genuinely
different routes guards each against the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import dual_lp, flow
from .lipschitz import LipFunction
from .metric import MetricSpace, as_fraction

_ZERO = Fraction(0)


@dataclass(frozen=True)
class FreeVector:
    """A finitely supported rational combination of point evaluations.

    Coefficients are stored sparsely over the non-base points in canonical
    form: sorted by point index, every stored entry nonzero.  The base point
    never carries a coefficient (its evaluation is the zero vector, so any
    contribution on it is dropped on construction).
    """

    space: MetricSpace
    coeffs: tuple

    def __post_init__(self):
        acc = {}
        for i, value in self.coeffs:
            i = int(i)
            if not 0 <= i < self.space.n:
                raise ValueError(f"coefficient index {i} out of range")
            if i == self.space.base:
                continue
            acc[i] = acc.get(i, _ZERO) + as_fraction(value)
        canon = tuple(sorted((i, v) for i, v in acc.items() if v != 0))
        object.__setattr__(self, "coeffs", canon)

    @classmethod
    def zero(cls, space: MetricSpace) -> "FreeVector":
        return cls(space, ())

    @classmethod
    def from_dict(cls, space: MetricSpace, coeffs: dict) -> "FreeVector":
        return cls(space, tuple(coeffs.items()))

    def coeff(self, i: int) -> Fraction:
        for j, v in self.coeffs:
            if j == i:
                return v
        return _ZERO

    def as_dict(self) -> dict:
        return dict(self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_integral(self) -> bool:
        return all(v.denominator == 1 for _, v in self.coeffs)

    def __add__(self, other: "FreeVector") -> "FreeVector":
        if self.space != other.space:
            raise ValueError("vectors live on different spaces")
        return FreeVector(self.space, self.coeffs + other.coeffs)

    def __neg__(self) -> "FreeVector":
        return FreeVector(self.space, tuple((i, -v) for i, v in self.coeffs))

    def __sub__(self, other: "FreeVector") -> "FreeVector":
        return self + (-other)

    def __mul__(self, scalar) -> "FreeVector":
        s = as_fraction(scalar)
        return FreeVector(self.space, tuple((i, s * v) for i, v in self.coeffs))

    __rmul__ = __mul__


@dataclass(frozen=True)
class FlowSolution:
    """An optimal transport plan: direct edges with positive amounts, plus
    the total cost.  Net outflow at each non-base node equals that node's
    coefficient in the queried vector; the base node absorbs the residual."""

    edges: tuple
    cost: Fraction

    def divergence(self) -> dict:
        out = {}
        for s, t, amount in self.edges:
            out[s] = out.get(s, _ZERO) + amount
            out[t] = out.get(t, _ZERO) - amount
        return {k: v for k, v in out.items() if v != 0}


def delta(space: MetricSpace, x: int) -> FreeVector:
    """The evaluation vector of a point; the zero vector for the base."""
    if not 0 <= x < space.n:
        raise ValueError(f"point index {x} out of range")
    if x == space.base:
        return FreeVector.zero(space)
    return FreeVector(space, ((x, Fraction(1)),))


def molecule(space: MetricSpace, x: int, y: int) -> FreeVector:
    """(delta(x) - delta(y)) / d(x, y); always of free norm exactly one."""
    if x == y:
        raise ValueError("molecule endpoints must differ")
    return (delta(space, x) - delta(space, y)) * (1 / space.d(x, y))


def support(vec: FreeVector) -> set:
    """Indices carrying a nonzero coefficient."""
    return {i for i, _ in vec.coeffs}


def free_norm_dual(vec: FreeVector) -> tuple:
    """(norm, optimal function): the exact max of pairing(vec, f) over the
    Lipschitz functions with f(e) = 0 and Lipschitz number at most one."""
    value, vals = dual_lp.maximize(vec.space, vec.as_dict())
    return value, LipFunction(vec.space, vals)


def free_norm_flow(vec: FreeVector) -> tuple:
    """(norm, optimal plan): the exact cheapest transport realizing the
    vector, the base node absorbing the coefficient imbalance.

    The space is assumed to satisfy the triangle inequality: mass moves only
    along direct edges, so a non-metric space gives a wrong norm and no
    error.  Check untrusted spaces with `metric.validate` first.
    """
    divergence = vec.as_dict()
    total = sum(divergence.values(), _ZERO)
    if total != 0:
        divergence[vec.space.base] = -total
    cost, edges = flow.min_cost_transport(vec.space, divergence)
    return cost, FlowSolution(edges, cost)


def free_norm(vec: FreeVector) -> Fraction:
    """Norm value only (computed by the transport route).

    Assumes the triangle inequality, as `free_norm_flow` does: on a
    non-metric space the value is wrong and no error is raised, so check
    untrusted spaces with `metric.validate` first.
    """
    return free_norm_flow(vec)[0]


def four_point_norm(space: MetricSpace, a: int, b: int, c: int, d: int) -> Fraction:
    """Closed form for the free norm of delta(a) - delta(b) + delta(c) - delta(d):

        min( d(a,b) + d(c,d),  d(a,d) + d(c,b) ).

    Repetitions among the four points are allowed.
    """
    return min(space.d(a, b) + space.d(c, d), space.d(a, d) + space.d(c, b))


def graev_distance(u: FreeVector, v: FreeVector) -> Fraction:
    """Group distance between integer combinations of point evaluations:
    the free norm of the difference.  Non-integer coefficients are refused.
    """
    if u.space != v.space:
        raise ValueError("vectors live on different spaces")
    if not (u.is_integral() and v.is_integral()):
        raise ValueError("group distance requires integer coefficients")
    return free_norm_dual(u - v)[0]
