"""Linear equivalence witnesses between free spaces of finite pointed metric
spaces.

A witness stores, for every non-base point of its source, the image of that
point's evaluation vector as a finitely supported vector over the target.
The image table is the primary object; coefficient matrices are derived
views.  Operator norms are taken over the normalized point-pair differences
(molecules) of the source, which attains the true norm on finite spaces --
a fact this package does not take on faith: :func:`operator_norm_oracle`
re-derives the value by independent means so the two can be compared in
tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .doubling import uniform_discreteness
from .free import (FreeVector, delta, free_norm_dual, free_norm_flow,
                   molecule)
from .lipschitz import LipFunction, pairing
from .metric import (MetricSpace, PointMap, coproduct, is_retraction,
                     path_space, quotient, subspace)

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class LinearWitness:
    """Image table of a linear map between two free spaces, one finitely
    supported target vector per non-base source point (in source order)."""

    source: MetricSpace
    target: MetricSpace
    images: tuple

    def __post_init__(self):
        nb = self.source.non_base()
        if len(self.images) != len(nb):
            raise ValueError("one image per non-base source point required")
        for img in self.images:
            if img.space != self.target:
                raise ValueError("images must live over the target space")
        object.__setattr__(self, "images", tuple(self.images))

    @classmethod
    def identity(cls, space: MetricSpace) -> "LinearWitness":
        return cls(space, space, tuple(delta(space, x) for x in space.non_base()))

    def image_of(self, x: int) -> FreeVector:
        nb = self.source.non_base()
        return self.images[nb.index(x)]


@dataclass(frozen=True)
class WitnessReport:
    witness: LinearWitness
    invertible: bool
    reason: str
    inverse: LinearWitness
    norm: Fraction
    inverse_norm: Fraction
    condition: Fraction


def apply(witness: LinearWitness, vec: FreeVector) -> FreeVector:
    """Extend the image table linearly to an arbitrary vector."""
    if vec.space != witness.source:
        raise ValueError("vector does not live on the witness source")
    nb = witness.source.non_base()
    pos = {x: k for k, x in enumerate(nb)}
    acc = {}
    for i, coef in vec.coeffs:
        for j, value in witness.images[pos[i]].coeffs:
            acc[j] = acc.get(j, _ZERO) + coef * value
    return FreeVector(witness.target, tuple(acc.items()))


def pullback(witness: LinearWitness, f: LipFunction) -> LipFunction:
    """Function-side action: carry f on the target back to the source by
    pairing it with each point's image."""
    if f.space != witness.target:
        raise ValueError("function does not live on the witness target")
    vals = [_ZERO] * witness.source.n
    for k, x in enumerate(witness.source.non_base()):
        vals[x] = pairing(witness.images[k], f)
    return LipFunction(witness.source, tuple(vals))


def matrix(witness: LinearWitness) -> list:
    """Coefficient matrix: rows follow source non-base order, columns target
    non-base order."""
    cols = {j: k for k, j in enumerate(witness.target.non_base())}
    rows = []
    for img in witness.images:
        row = [_ZERO] * len(cols)
        for j, value in img.coeffs:
            row[cols[j]] = value
        rows.append(row)
    return rows


def operator_norm(witness: LinearWitness) -> Fraction:
    """Exact operator norm: the largest free norm of a molecule image."""
    best = _ZERO
    for x, y in witness.source.pairs():
        img = apply(witness, molecule(witness.source, x, y))
        value = free_norm_flow(img)[0]
        if value > best:
            best = value
    return best


def operator_norm_oracle(witness: LinearWitness, directions=()) -> Fraction:
    """Independent cross-check of :func:`operator_norm`.

    Measures every molecule image with the dual LP solver instead of the
    transport solver, and additionally normalizes the supplied sample
    directions onto the unit sphere and measures their images; a sampled
    direction beating the molecule maximum would expose a wrong extreme-point
    assumption.
    """
    best = _ZERO
    for x, y in witness.source.pairs():
        img = apply(witness, molecule(witness.source, x, y))
        value = free_norm_dual(img)[0]
        if value > best:
            best = value
    for vec in directions:
        scale = free_norm_dual(vec)[0]
        if scale == 0:
            continue
        value = free_norm_dual(apply(witness, vec))[0] / scale
        if value > best:
            best = value
    return best


def validate_witness(witness: LinearWitness) -> WitnessReport:
    """Invertibility check plus both operator norms.

    A witness is an equivalence witness precisely when its coefficient matrix
    is square and invertible; failures are reported, not raised.  In finite
    dimension the inverse automatically has a finitely supported image table,
    which the report carries as a witness in the opposite direction.
    """
    ps = len(witness.source.non_base())
    pt = len(witness.target.non_base())
    norm = operator_norm(witness)
    if ps != pt:
        return WitnessReport(witness, False,
                             f"dimension mismatch ({ps} vs {pt})",
                             None, norm, None, None)
    mat = matrix(witness)
    inv = linalg.invert(mat)
    if inv is None:
        return WitnessReport(witness, False, "rank deficient",
                             None, norm, None, None)
    source_nb = witness.source.non_base()
    inverse_images = tuple(
        FreeVector(witness.source,
                   tuple((source_nb[k], value) for k, value in enumerate(row)))
        for row in inv)
    inverse = LinearWitness(witness.target, witness.source, inverse_images)
    inverse_norm = operator_norm(inverse)
    return WitnessReport(witness, True, None, inverse, norm, inverse_norm,
                         norm * inverse_norm)


def quotient_witness(space: MetricSpace, retraction: PointMap) -> LinearWitness:
    """Witness realizing a space as the glued sum of a retract and the
    quotient by it.

    For a retraction phi, each non-base point evaluation maps to
    delta(phi(x)) + delta([x]), the first term living on the retract part and
    the second on the quotient part (and vanishing when x lies in the
    retract).
    """
    if retraction.source != space or retraction.target != space:
        raise ValueError("retraction must be a self-map of the space")
    if not is_retraction(retraction):
        raise ValueError("map is not idempotent")
    image_set = sorted(set(retraction.image))
    if space.base not in image_set:
        raise ValueError("the base point must lie in the retract")

    left = subspace(space, image_set)
    qspace, qmap = quotient(space, image_set)
    target = coproduct(left, qspace)

    left_pos = {orig: k for k, orig in enumerate(image_set)}
    right_pos = {}
    nxt = left.n
    for qi in range(qspace.n):
        if qi == qspace.base:
            continue
        right_pos[qi] = nxt
        nxt += 1

    images = []
    for x in space.non_base():
        acc = {}
        tl = left_pos[retraction.image[x]]
        if tl != target.base:
            acc[tl] = _ONE
        qi = qmap.image[x]
        if qi != qspace.base:
            acc[right_pos[qi]] = _ONE
        images.append(FreeVector(target, tuple(acc.items())))
    return LinearWitness(space, target, tuple(images))


def _inherited_space(space: MetricSpace, vectors, labels,
                     base_label: str) -> MetricSpace:
    """The metric space a family of vectors inherits from the free norm,
    with the zero vector as base point."""
    if len(set(labels)) != len(labels) or base_label in labels:
        raise ValueError("inherited-space labels must be distinct")
    points = (base_label,) + tuple(labels)
    k = len(vectors)
    rows = [[_ZERO] * (k + 1) for _ in range(k + 1)]
    for i in range(k):
        norm = free_norm_flow(vectors[i])[0]
        rows[0][i + 1] = rows[i + 1][0] = norm
        for j in range(i + 1, k):
            gap = free_norm_flow(vectors[i] - vectors[j])[0]
            rows[i + 1][j + 1] = rows[j + 1][i + 1] = gap
    return MetricSpace(points, 0, tuple(tuple(r) for r in rows))


def normalize_basis(space: MetricSpace) -> tuple:
    """Rescale every point evaluation to unit free norm.

    Returns the rescaled vectors together with the witness onto the space
    they span: point x maps to d(x, e) times its rescaled evaluation, so each
    image has support one and every target point sits at distance one from
    the base.
    """
    nb = space.non_base()
    scaled = tuple(delta(space, x) * (1 / space.d(x, space.base)) for x in nb)
    target = _inherited_space(space, scaled,
                              tuple(space.label(x) for x in nb),
                              space.label(space.base))
    images = tuple(
        FreeVector(target, ((k + 1, space.d(x, space.base)),))
        for k, x in enumerate(nb))
    return scaled, LinearWitness(space, target, images)


def _basis_inverse(space: MetricSpace, basis: tuple, what: str) -> list:
    """Inverse of the matrix whose k-th column holds basis[k] in the point
    evaluations of `space`; ValueError unless the family is a basis of the
    free space."""
    nb = space.non_base()
    p = len(basis)
    if p != len(nb):
        raise ValueError(f"{what} must span the free space "
                         f"({p} vectors for dimension {len(nb)})")
    coord = {x: r for r, x in enumerate(nb)}
    bmat = [[_ZERO] * p for _ in range(p)]
    for k, vec in enumerate(basis):
        if vec.space != space:
            raise ValueError(f"{what} vectors must live over the space")
        for i, value in vec.coeffs:
            bmat[coord[i]][k] = value
    binv = linalg.invert(bmat)
    if binv is None:
        raise ValueError(f"{what} is linearly dependent")
    return binv


@dataclass(frozen=True)
class ProjectionSplit:
    """Output of :func:`projection_split`: the new spanning family, its
    labels in the inherited space, the witness re-expressing the old basis,
    and the operator norms of the projection and its complement (the pair
    that bounds function extension through the split)."""

    basis: tuple
    labels: tuple
    witness: LinearWitness
    projector_norm: Fraction
    complement_norm: Fraction


def projection_split(space: MetricSpace, pi_images, basis=None,
                     labels=None) -> ProjectionSplit:
    """Split a basis along an idempotent map into fixed vectors and
    complements.

    `basis` (default: the point evaluations) must be a linearly independent
    spanning family; `pi_images` gives, for each basis vector, its image
    under the projection, which must be another basis vector or None/zero.
    The new family consists of the fixed vectors followed by the nonzero
    complements b - pi(b); the witness re-expresses every old basis vector as
    pi(b) + (b - pi(b)), so its images have support at most two.
    """
    nb = space.non_base()
    if basis is None:
        basis = tuple(delta(space, x) for x in nb)
        if labels is None:
            labels = tuple(space.label(x) for x in nb)
    basis = tuple(basis)
    if labels is None:
        labels = tuple(f"b{k}" for k in range(len(basis)))
    labels = tuple(labels)
    p = len(basis)
    if len(labels) != p or len(pi_images) != p:
        raise ValueError("basis, labels and projection images must align")
    binv = _basis_inverse(space, basis, "basis")

    pi_idx = []
    for img in pi_images:
        if img is None or img.is_zero():
            pi_idx.append(None)
            continue
        if img.space != space:
            raise ValueError("projection images must live over the space")
        try:
            pi_idx.append(basis.index(img))
        except ValueError:
            raise ValueError("projection must map basis vectors into the "
                             "basis or to zero") from None
    for t in pi_idx:
        if t is not None and pi_idx[t] != t:
            raise ValueError("map is not idempotent on the basis")

    # The fixed vectors come first, then the complement of every other basis
    # vector; slot[k] is the point of the inherited space that holds basis[k]
    # if pi fixes it, else its complement.
    order = ([k for k in range(p) if pi_idx[k] == k]
             + [k for k in range(p) if pi_idx[k] != k])
    slot = {k: r + 1 for r, k in enumerate(order)}
    new_vecs, new_labels = [], []
    for k in order:
        if pi_idx[k] in (k, None):
            new_vecs.append(basis[k])
            new_labels.append(labels[k])
        else:
            new_vecs.append(basis[k] - basis[pi_idx[k]])
            new_labels.append(f"s({labels[k]})")

    old_space = _inherited_space(space, basis, labels, space.label(space.base))
    new_space = _inherited_space(space, new_vecs, tuple(new_labels),
                                 space.label(space.base))

    images = []
    for k in range(p):
        acc = {}
        if pi_idx[k] is not None:
            acc[slot[pi_idx[k]]] = _ONE
        if pi_idx[k] != k:
            acc[slot[k]] = _ONE
        images.append(FreeVector(new_space, tuple(acc.items())))
    witness = LinearWitness(old_space, new_space, tuple(images))

    # Operator norms of the projection and complement as endomorphisms of
    # the ambient free space, in point-evaluation coordinates.
    pi_endo, sigma_endo = [], []
    for r, x in enumerate(nb):
        gamma = [binv[k][r] for k in range(p)]
        acc = FreeVector.zero(space)
        for k in range(p):
            if gamma[k] and pi_idx[k] is not None:
                acc = acc + gamma[k] * basis[pi_idx[k]]
        pi_endo.append(acc)
        sigma_endo.append(delta(space, x) - acc)
    projector_norm = operator_norm(LinearWitness(space, space, tuple(pi_endo)))
    complement_norm = operator_norm(LinearWitness(space, space, tuple(sigma_endo)))

    return ProjectionSplit(tuple(new_vecs), tuple(new_labels), witness,
                           projector_norm, complement_norm)


@dataclass(frozen=True)
class DiscreteWitness:
    """A witness onto the unit-step path, with the separation/diameter data
    that governs how well-conditioned it is."""

    witness: LinearWitness
    theta: Fraction
    diameter: Fraction
    norm: Fraction
    inverse_norm: Fraction
    condition: Fraction


def discrete_witness(space: MetricSpace) -> DiscreteWitness:
    """Map the k-th point evaluation to the k-th unit step of a path.

    The k-th non-base point (in point order) goes to delta(k) - delta(k-1)
    over the path 0..n; telescoping gives the inverse, which sends delta(k)
    to the sum of the first k point evaluations.
    """
    disc = uniform_discreteness(space)
    nb = space.non_base()
    target = path_space(len(nb))
    images = []
    for k in range(1, len(nb) + 1):
        acc = {k: _ONE}
        if k - 1 != 0:
            acc[k - 1] = -_ONE
        images.append(FreeVector(target, tuple(acc.items())))
    witness = LinearWitness(space, target, tuple(images))
    report = validate_witness(witness)
    return DiscreteWitness(witness, disc.theta, disc.diameter,
                           report.norm, report.inverse_norm, report.condition)


def free_basis_constant(space: MetricSpace, basis, labels=None) -> Fraction:
    """Optimal constant K bounding linear-extension norms by Lipschitz
    numbers, for scalar functions on the given spanning family.

    Computed as the operator norm of the map re-expressing each point
    evaluation in the family's coordinates, measured between the original
    free norm and the free norm over the metric the family inherits.
    """
    basis = tuple(basis)
    p = len(basis)
    binv = _basis_inverse(space, basis, "family")
    if labels is None:
        labels = tuple(f"b{k}" for k in range(p))
    inherited = _inherited_space(space, basis, tuple(labels),
                                 space.label(space.base))
    images = []
    for r in range(p):
        coeffs = tuple((k + 1, binv[k][r]) for k in range(p) if binv[k][r])
        images.append(FreeVector(inherited, coeffs))
    return operator_norm(LinearWitness(space, inherited, tuple(images)))
