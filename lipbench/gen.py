"""Seeded inputs for the lipfree benchmark.

Everything here is stdlib only and never imports lipfree: the spaces,
coefficient strings and witness files of the `norm`, `witness` and
`doubling` workloads must not change when the program (its `randgen` module
included) changes.  The same (workload, seed) always yields the same command
sequence.

Commands come in cycles.  A cycle holds every (size, kind) combination of
its workload once, in a seeded order, so any whole number of cycles has the
same mix of sizes and kinds whatever the seed; only the random content
varies.  Every command gets its own freshly drawn space or seed, so no two
commands of a run share an input: random-closure spaces are drawn afresh,
path-like spaces are scaled by the command's number in the run, and suite
seeds are numbered the same way.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

DENOMS = (1, 1, 1, 2, 3, 4)


@dataclass
class Command:
    """One CLI invocation: `argv` names input files by the keys of `files`
    (file name -> JSON text); `context` is what the output checker needs."""

    workload: str
    kind: str
    argv: list
    files: dict = field(default_factory=dict)
    context: dict = field(default_factory=dict)

    @property
    def key(self) -> str:
        """Fingerprint of the input (argv and file contents): the key of its
        golden values."""
        blob = json.dumps([self.argv, sorted(self.files.items())])
        return hashlib.sha256(blob.encode()).hexdigest()[:20]


# ---------------------------------------------------------------- spaces

@dataclass(frozen=True)
class Space:
    points: tuple
    base: int
    dist: tuple  # rows of Fractions

    @property
    def n(self) -> int:
        return len(self.points)

    def non_base(self) -> list:
        return [i for i in range(self.n) if i != self.base]

    def to_json(self) -> dict:
        return {"points": list(self.points), "base": self.base,
                "dist": [[str(v) for v in row] for row in self.dist]}


def _labels(rng, n: int) -> tuple:
    stem = rng.choice("pqruvw")
    return tuple(f"{stem}{i}" for i in range(n))


def closure_space(rng, n: int, max_num: int = 9, denoms=DENOMS) -> Space:
    """Shortest-path closure of random positive rational weights (computed
    over integers scaled by the common denominator)."""
    scale = math.lcm(*denoms)
    w = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            w[i][j] = w[j][i] = rng.randint(1, max_num) * (
                scale // rng.choice(denoms))
    for k in range(n):
        wk = w[k]
        for i in range(n):
            wik = w[i][k]
            row = w[i]
            for j in range(n):
                through = wik + wk[j]
                if i != j and through < row[j]:
                    row[j] = through
    return Space(_labels(rng, n), rng.randrange(n),
                 tuple(tuple(Fraction(v, scale) for v in r) for r in w))


def path_like_space(rng, n: int, scale: int, base=None) -> Space:
    """Points on a line, half the gaps 1 and half 2 in random order, all
    times `scale` (low doubling; the fixed mix keeps the number of distinct
    distances, and so the cost, the same for every space of a size, while
    distinct scales give distinct distance matrices).  The base is random
    unless given."""
    gaps = [1] * ((n - 1) - (n - 1) // 2) + [2] * ((n - 1) // 2)
    rng.shuffle(gaps)
    pos = [0]
    for gap in gaps:
        pos.append(pos[-1] + gap * scale)
    dist = tuple(tuple(Fraction(abs(a - b)) for b in pos) for a in pos)
    return Space(_labels(rng, n), rng.randrange(n) if base is None else base,
                 dist)


def _space_file(space: Space) -> str:
    return json.dumps(space.to_json())


# ------------------------------------------------------------ workloads

def _random_coeff(rng, rational: bool) -> Fraction:
    num = 0
    while num == 0:
        num = rng.randint(-9, 9)
    return Fraction(num, rng.choice((1, 2, 3, 4, 5, 6)) if rational else 1)


def norm_command(rng, n: int, rational: bool, density: float) -> Command:
    space = closure_space(rng, n)
    coeffs = {}
    for x in space.non_base():
        if rng.random() < density:
            coeffs[x] = _random_coeff(rng, rational)
    if not coeffs:
        x = rng.choice(space.non_base())
        coeffs[x] = _random_coeff(rng, rational)
    text = ",".join(f"{space.points[x]}:{v}" for x, v in coeffs.items())
    kind = "rational" if rational else "integer"
    return Command("norm", kind, ["norm", "space.json", "--coeffs", text],
                   {"space.json": _space_file(space)},
                   {"space": space, "coeffs": coeffs})


def _retraction(rng, space: Space) -> str:
    kept = sorted({space.base} | {i for i in range(space.n)
                                  if rng.random() < 0.5})
    moved = [i for i in range(space.n) if i not in kept]
    return ",".join(f"{space.points[i]}:{space.points[rng.choice(kept)]}"
                    for i in moved)


def _projection(rng, space: Space) -> str:
    nb = space.non_base()
    fixed = [x for x in nb if rng.random() < 0.45]
    parts = []
    for x in nb:
        if x in fixed:
            target = space.points[x]
        elif fixed and rng.random() < 0.5:
            target = space.points[rng.choice(fixed)]
        else:
            target = "0"
        parts.append(f"{space.points[x]}:{target}")
    return ",".join(parts)


def _unimodular(rng, p: int) -> list:
    """A sparse integer matrix with determinant +-1: a permutation followed
    by a few elementary row additions."""
    perm = list(range(p))
    rng.shuffle(perm)
    rows = [[int(perm[r] == c) for c in range(p)] for r in range(p)]
    for _ in range(max(1, p // 2)):
        a, b = rng.sample(range(p), 2)
        sign = rng.choice((-1, 1))
        rows[a] = [x + sign * y for x, y in zip(rows[a], rows[b])]
    return rows


def _witness_doc(source: Space, target: Space, rows: list) -> str:
    tnb = target.non_base()
    images = {}
    for r, x in enumerate(source.non_base()):
        images[source.points[x]] = {target.points[tnb[c]]: str(v)
                                    for c, v in enumerate(rows[r]) if v}
    return json.dumps({"source": source.to_json(),
                       "target": target.to_json(), "images": images})


WITNESS_KINDS = ("discrete", "normalize", "quotient", "project",
                 "check-path", "check-unimodular")


def witness_command(rng, n: int, kind: str, serial: int) -> Command:
    """`serial` numbers the command within its run (0 for the probes); it
    scales the path target of `check-path`, so no two commands share one."""
    space = closure_space(rng, n)
    if kind.startswith("check"):
        p = n - 1
        if kind == "check-path":
            target = path_like_space(rng, n, serial + 1, base=0)
            rows = [[int(c == r) - int(c == r - 1) for c in range(p)]
                    for r in range(p)]
        else:
            target = closure_space(rng, n)
            rows = _unimodular(rng, p)
        return Command("witness", kind,
                       ["witness", "check", "--witness", "witness.json"],
                       {"witness.json": _witness_doc(space, target, rows)},
                       {"source": space, "target": target, "rows": rows})
    argv = ["witness", "build", "--space", "space.json", "--kind", kind]
    if kind == "quotient":
        argv += ["--retraction", _retraction(rng, space)]
    elif kind == "project":
        argv += ["--pi", _projection(rng, space)]
    return Command("witness", kind, argv, {"space.json": _space_file(space)},
                   {"space": space, "kind": kind})


DOUBLING_KINDS = ("path", "closure", "path-low", "closure", "closure-low")
LOW_THRESHOLD = 8


def doubling_command(rng, n: int, kind: str, serial: int) -> Command:
    """`serial` as for witness_command: it scales the path-like spaces."""
    if kind.startswith("path"):
        space = path_like_space(rng, n, serial + 1)
    else:
        space = closure_space(rng, n, max_num=4, denoms=(1, 1, 2))
    argv = ["doubling", "space.json"]
    threshold = 20
    if kind.endswith("-low"):
        threshold = LOW_THRESHOLD
        argv += ["--exact-threshold", str(threshold)]
    return Command("doubling", kind, argv, {"space.json": _space_file(space)},
                   {"space": space, "threshold": threshold})


def suite_command(suite_seed: int, spaces: int, max_size: int) -> Command:
    return Command("suite", "suite",
                   ["suite", "--seed", str(suite_seed), "--spaces",
                    str(spaces), "--max-size", str(max_size)], {},
                   {"spaces": spaces})


# --------------------------------------------------------------- cycles

@dataclass(frozen=True)
class Profile:
    """Sizes per workload; TINY is the smoke-test profile."""

    norm_sizes: tuple = tuple(range(10, 19))
    witness_sizes: tuple = tuple(range(8, 15))
    doubling_sizes: tuple = tuple(range(8, 17))
    suite_spaces: int = 2
    suite_max_size: int = 4
    suite_per_cycle: int = 8


FULL = Profile()
TINY = Profile(norm_sizes=(5, 6), witness_sizes=(4, 5),
               doubling_sizes=(4, 5), suite_spaces=1, suite_max_size=3,
               suite_per_cycle=1)


def cycle(workload: str, seed: int, index: int,
          profile: Profile = FULL) -> list:
    """The commands of cycle `index` of a run with the given seed."""
    rng = random.Random(f"lipbench:{workload}:{seed}:{index}")
    if workload == "norm":
        # Every size meets every third of the density range [0.2, 0.9] in
        # every cycle: cost grows with both, so pairing them at random would
        # make cycles differ much more than their contents do.
        slots = [(n, r, band) for n in profile.norm_sizes
                 for r in (False, True) for band in range(3)]
        make = lambda slot, _: norm_command(
            rng, slot[0], slot[1], 0.2 + 0.7 * (slot[2] + rng.random()) / 3)
    elif workload == "witness":
        slots = [(n, k) for n in profile.witness_sizes for k in WITNESS_KINDS]
        make = lambda slot, serial: witness_command(rng, *slot, serial)
    elif workload == "doubling":
        slots = [(n, k) for n in profile.doubling_sizes
                 for k in DOUBLING_KINDS]
        make = lambda slot, serial: doubling_command(rng, *slot, serial)
    elif workload == "suite":
        first = (seed * 7919 + index) * profile.suite_per_cycle
        return [suite_command(first + k, profile.suite_spaces,
                              profile.suite_max_size)
                for k in range(profile.suite_per_cycle)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(slots)
    first = 1 + index * len(slots)
    return [make(slot, first + k) for k, slot in enumerate(slots)]


def probes(workload: str) -> list:
    """Fixed inputs, the same for every seed: the first is the warm-up
    command timed as set-up, and all are compared with goldens."""
    rng = random.Random(f"lipbench:probe:{workload}")
    if workload == "norm":
        return [norm_command(rng, 14, False, 0.6),
                norm_command(rng, 20, True, 0.4)]
    if workload == "witness":
        return [witness_command(rng, 10, k, 0) for k in WITNESS_KINDS]
    if workload == "doubling":
        return [doubling_command(rng, 12, k, 0) for k in
                ("closure", "path", "closure-low")]
    if workload == "suite":
        return [suite_command(10**9, FULL.suite_spaces, FULL.suite_max_size)]
    raise ValueError(f"unknown workload {workload!r}")
