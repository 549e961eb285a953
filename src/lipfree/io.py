"""JSON (de)serialization for spaces, functions, vectors and witnesses.

Rationals travel as strings like "3/4"; bare integers are accepted on input.
JSON floats are re-parsed as decimal strings before conversion, so "0.1"
means exactly one tenth and binary rounding never leaks in.  Emitted
documents use a fixed key order and indentation, making byte-identical
golden files possible.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

from .free import FreeVector
from .lipschitz import LipFunction
from .metric import MetricSpace, validate
from .witness import LinearWitness


def format_rational(x) -> str:
    return str(Fraction(x))


def parse_rational(value) -> Fraction:
    if isinstance(value, float):
        raise ValueError(f"refusing float {value!r}: use a string like '1/10'")
    try:
        return Fraction(str(value)) if isinstance(value, str) else Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise ValueError(f"bad rational {value!r}: {exc}") from None


def load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh, parse_float=str)


def dump_json(data, path=None) -> str:
    text = json.dumps(data, indent=2) + "\n"
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def space_to_dict(space: MetricSpace) -> dict:
    return {
        "points": list(space.points),
        "base": space.base,
        "dist": [[format_rational(v) for v in row] for row in space.dist],
    }


def space_from_dict(data) -> MetricSpace:
    if not isinstance(data, dict):
        raise ValueError("space document must be an object")
    try:
        points = data["points"]
        base = data["base"]
        dist = data["dist"]
    except KeyError as exc:
        raise ValueError(f"space document missing key {exc}") from None
    points = tuple(_list_at(points, "points"))
    rows = tuple(tuple(parse_rational(v) for v in _list_at(row, f"dist[{i}]"))
                 for i, row in enumerate(_list_at(dist, "dist")))
    return MetricSpace(points, base, rows)


def _list_at(value, path: str) -> list:
    """`value`, or ValueError naming its `path` in the document."""
    if not isinstance(value, list):
        raise ValueError(f"{path}: expected a list")
    return value


def require_valid(space: MetricSpace, what: str) -> MetricSpace:
    """Return `space`, or raise ValueError naming its axiom violations."""
    violations = validate(space)
    if violations:
        raise ValueError(f"{what} is invalid: {violations}")
    return space


def _space_from_ref(ref, base_dir=None) -> MetricSpace:
    """A space field may be inline or a path to a space file."""
    if isinstance(ref, str):
        path = ref if os.path.isabs(ref) or base_dir is None \
            else os.path.join(base_dir, ref)
        return space_from_dict(load_json(path))
    return space_from_dict(ref)


def lipfunction_to_dict(f: LipFunction) -> dict:
    return {
        "space": space_to_dict(f.space),
        "values": [format_rational(v) for v in f.values],
    }


def lipfunction_from_dict(data, base_dir=None) -> LipFunction:
    space = _space_from_ref(data["space"], base_dir)
    return LipFunction(space, tuple(parse_rational(v) for v in data["values"]))


def freevector_to_dict(vec: FreeVector) -> dict:
    return {
        "space": space_to_dict(vec.space),
        "coeffs": {vec.space.label(i): format_rational(v)
                   for i, v in vec.coeffs},
    }


def coeffs_from_labels(space: MetricSpace, table: dict) -> FreeVector:
    pairs = tuple((space.index(lbl), parse_rational(v))
                  for lbl, v in table.items())
    return FreeVector(space, pairs)


def freevector_from_dict(data, base_dir=None) -> FreeVector:
    space = _space_from_ref(data["space"], base_dir)
    return coeffs_from_labels(space, data["coeffs"])


def witness_to_dict(w: LinearWitness) -> dict:
    images = {}
    for k, x in enumerate(w.source.non_base()):
        images[w.source.label(x)] = {
            w.target.label(j): format_rational(v)
            for j, v in w.images[k].coeffs}
    return {
        "source": space_to_dict(w.source),
        "target": space_to_dict(w.target),
        "images": images,
    }


def witness_from_dict(data, base_dir=None) -> LinearWitness:
    source = require_valid(_space_from_ref(data["source"], base_dir),
                           "witness source space")
    target = require_valid(_space_from_ref(data["target"], base_dir),
                           "witness target space")
    table = data["images"]
    images = []
    for x in source.non_base():
        lbl = source.label(x)
        if lbl not in table:
            raise ValueError(f"witness images missing point {lbl!r}")
        images.append(coeffs_from_labels(target, table[lbl]))
    extra = set(table) - {source.label(x) for x in source.non_base()}
    if extra:
        raise ValueError(f"witness images for unknown points: {sorted(extra)}")
    return LinearWitness(source, target, tuple(images))


def basis_to_dict(space: MetricSpace, vectors, labels) -> dict:
    return {
        "space": space_to_dict(space),
        "vectors": [
            {"label": lbl,
             "coeffs": {space.label(i): format_rational(v)
                        for i, v in vec.coeffs}}
            for lbl, vec in zip(labels, vectors)],
    }


def basis_from_dict(data, base_dir=None) -> tuple:
    """Returns (space, vectors, labels)."""
    space = require_valid(_space_from_ref(data["space"], base_dir),
                          "basis space")
    vectors, labels = [], []
    for entry in data["vectors"]:
        labels.append(entry["label"])
        vectors.append(coeffs_from_labels(space, entry["coeffs"]))
    return space, tuple(vectors), tuple(labels)
