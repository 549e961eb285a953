"""Spans around calls into lipfree's public functions, recorded from outside
the program.

`Tracer.install` replaces each traced function at every name a caller looks
it up by: the attribute of its own module (`lipfree.flow.min_cost_transport`,
reached as `flow.min_cost_transport`) and every `from`-import of it in another
lipfree module (`lipfree.cli.validate`, `lipfree.witness.free_norm_flow`).
`Tracer.restore` puts every original back.  A span has a name, a start, an
end, a parent span and a command id; spans stay in memory and `write` saves
them when the run ends.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array
from collections import defaultdict

PACKAGE = "lipfree"

TRACED = (
    ("cli", "main"),
    ("io", "load_json"), ("io", "space_from_dict"),
    ("io", "witness_from_dict"), ("io", "dump_json"),
    ("metric", "validate"),
    ("lipschitz", "lipschitz_number"), ("lipschitz", "mcshane_extend"),
    ("lipschitz", "separating_function"),
    ("free", "free_norm_flow"), ("free", "free_norm_dual"),
    ("dual_lp", "maximize"),
    ("flow", "min_cost_transport"),
    ("linalg", "invert"), ("linalg", "rank"),
    ("witness", "operator_norm"), ("witness", "validate_witness"),
    ("witness", "normalize_basis"), ("witness", "projection_split"),
    ("witness", "quotient_witness"), ("witness", "discrete_witness"),
    ("doubling", "doubling_constant"), ("doubling", "covering_number"),
    ("doubling", "ball"),
    ("suite", "run_suite"),
    ("randgen", "random_space"),
)


def _program_modules():
    return [(name, mod) for name, mod in list(sys.modules.items())
            if mod is not None
            and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def bindings():
    """(module, attribute, function, index in TRACED) for every name a
    traced function is bound to in the imported lipfree modules."""
    wanted = {}
    for k, (short, func) in enumerate(TRACED):
        fn = getattr(sys.modules[f"{PACKAGE}.{short}"], func)
        wanted[id(fn)] = (fn, k)
    found = []
    for _, mod in _program_modules():
        for attr, value in list(vars(mod).items()):
            hit = wanted.get(id(value))
            if hit is not None and hit[0] is value:
                found.append((mod, attr, value, hit[1]))
    return found


class Tracer:
    """Spans live in parallel arrays (name index, start, end, parent span,
    command id), a few dozen bytes each, since a run records millions."""

    def __init__(self):
        self.names = [f"{short}.{func}" for short, func in TRACED]
        self.name_of = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.command = array("i")
        self.cmd = -1
        self.scales = []  # machine-speed correction per command id
        self.counters = defaultdict(int)
        self.maxima = defaultdict(int)
        self._stack = [-1]
        self._patches = []
        self.images = set()  # distinct molecule images per command
        self._alive = []

    def __len__(self) -> int:
        return len(self.start)

    # ---------------------------------------------------------- patching

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for mod, attr, fn, code in bindings():
            if code not in wrappers:
                wrappers[code] = self._wrap(fn, code)
            self._patches.append((mod, attr, fn))
            setattr(mod, attr, wrappers[code])

    def restore(self) -> None:
        for mod, attr, fn in reversed(self._patches):
            setattr(mod, attr, fn)
        self._patches.clear()
        self._alive.clear()

    def _wrap(self, fn, code: int):
        name_of, starts, ends = self.name_of, self.start, self.end
        parents, commands = self.parent, self.command
        stack, clock = self._stack, time.perf_counter
        observe = _OBSERVERS.get(self.names[code])
        tracer = self

        def traced(*args, **kwargs):
            k = len(starts)
            name_of.append(code)
            parents.append(stack[-1])
            commands.append(tracer.cmd)
            ends.append(0.0)
            stack.append(k)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[k] = clock()
                stack.pop()
            if observe is not None:
                observe(tracer, k, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    # --------------------------------------------------------- reporting

    def layer_totals(self) -> dict:
        """name -> [calls, total seconds, self seconds]; self time is the
        span's duration minus the time its child spans cover.  Durations are
        corrected by the command's entry in `scales`, when there is one."""
        count = len(self)
        dur = [0.0] * count
        child = [0.0] * count
        for k in range(count):
            cmd = self.command[k]
            scale = self.scales[cmd] if 0 <= cmd < len(self.scales) else 1.0
            dur[k] = (self.end[k] - self.start[k]) * scale
            if self.parent[k] >= 0:
                child[self.parent[k]] += dur[k]
        totals = {}
        for k in range(count):
            entry = totals.setdefault(self.names[self.name_of[k]],
                                      [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += dur[k]
            entry[2] += dur[k] - child[k]
        return totals

    def write(self, path) -> None:
        origin = self.start[0] if len(self) else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"names": self.names,
                                 "fields": ["name", "start_s", "end_s",
                                            "parent", "command"]}) + "\n")
            for k in range(len(self)):
                fh.write(f"{self.name_of[k]},{self.start[k] - origin:.9f},"
                         f"{self.end[k] - origin:.9f},{self.parent[k]},"
                         f"{self.command[k]}\n")


def _observe_transport(tracer, k, args, result):
    tracer.counters["flow.min_cost_transport.terminals"] += sum(
        1 for v in args[1].values() if v)


def _observe_invert(tracer, k, args, result):
    tracer.maxima["linalg.invert.max_dim"] = max(
        tracer.maxima["linalg.invert.max_dim"], len(args[0]))
    if result:
        bits = max(max(x.numerator.bit_length(), x.denominator.bit_length())
                   for row in result for x in row)
        tracer.maxima["linalg.invert.out_max_bits"] = max(
            tracer.maxima["linalg.invert.out_max_bits"], bits)


_OPERATOR_NORM = TRACED.index(("witness", "operator_norm"))


def _observe_free_norm_flow(tracer, k, args, result):
    parent = tracer.parent[k]
    if parent < 0 or tracer.name_of[parent] != _OPERATOR_NORM:
        return
    vec = args[0]
    tracer.counters["witness.operator_norm.molecule_solves"] += 1
    # Keyed by the target space object, kept alive until the command ends
    # so its id cannot be reused for another space.
    tracer._alive.append(vec.space)
    tracer.images.add((tracer.command[k], id(vec.space), vec.coeffs))


def _observe_cover(tracer, k, args, result):
    tracer.counters["doubling.covering_number.exact"] += bool(result.exact)


_OBSERVERS = {
    "flow.min_cost_transport": _observe_transport,
    "linalg.invert": _observe_invert,
    "free.free_norm_flow": _observe_free_norm_flow,
    "doubling.covering_number": _observe_cover,
}


def layer_metrics(tracer: Tracer, names, commands: int, traced_s: float,
                  untraced_s: float) -> dict:
    """Values of the per-layer metrics `names` (`<module>.<function>.<stat>`);
    calls, self times and solve counts are per command."""
    totals = tracer.layer_totals()
    counters, maxima = tracer.counters, tracer.maxima
    out = {}
    for full in names:
        if full == "trace.overhead_frac":
            out[full] = traced_s / untraced_s - 1 if untraced_s else 0.0
            continue
        span, stat = full.rsplit(".", 1)
        calls, total_s, self_s = totals.get(span, (0, 0.0, 0.0))
        if stat == "calls":
            value = calls / commands
        elif stat == "self_s":
            value = self_s / commands
        elif stat == "share":
            value = self_s / traced_s if traced_s else 0.0
        elif stat == "total_share":
            value = total_s / traced_s if traced_s else 0.0
        elif stat == "terminals_mean":
            value = counters[span + ".terminals"] / calls if calls else 0.0
        elif stat == "molecule_solves":
            value = counters[full] / commands
        elif stat == "unique_image_ratio":
            solves = counters[span + ".molecule_solves"]
            value = len(tracer.images) / solves if solves else 0.0
        elif stat == "exact_ratio":
            value = counters[span + ".exact"] / calls if calls else 0.0
        elif stat in ("max_dim", "out_max_bits"):
            value = maxima[full]
        else:
            raise ValueError(f"unknown per-layer statistic {full!r}")
        out[full] = value
    return out
