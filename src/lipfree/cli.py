"""Command line front end.

Subcommands: validate, norm, construct, witness, doubling, suite.  Reports
are JSON with a fixed key order; rationals print as "p/q" strings unless the
opt-in float mode is selected, in which case values are rendered as floats
and consistency checks use an absolute tolerance of 1e-9 (the float mode is
labelled in every report).  Identical inputs, flags and seeds produce byte
identical output.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import io
from .doubling import DEFAULT_EXACT_THRESHOLD, doubling_constant
from .free import free_norm_dual, free_norm_flow
from .lipschitz import lipschitz_number
from .metric import MetricSpace, PointMap, coproduct, quotient, validate
from .suite import run_suite
from .witness import (delta, discrete_witness, free_basis_constant,
                      normalize_basis, projection_split, quotient_witness,
                      validate_witness)

FLOAT_TOL = 1e-9
THRESHOLD_ENV = "LIPFREE_EXACT_THRESHOLD"


@dataclass(frozen=True)
class RunConfig:
    subcommand: str
    float_mode: bool
    seed: int
    exact_threshold: int

    @property
    def numeric_mode(self) -> str:
        return f"float(tol={FLOAT_TOL:g})" if self.float_mode else "exact"


def _exact_threshold(args) -> int:
    """--exact-threshold, else $LIPFREE_EXACT_THRESHOLD, else the default."""
    value, source = getattr(args, "exact_threshold", None), "--exact-threshold"
    if value is None:
        value, source = os.environ.get(THRESHOLD_ENV), THRESHOLD_ENV
        if not value:
            return DEFAULT_EXACT_THRESHOLD
    try:
        threshold = int(value)
    except ValueError:
        pass
    else:
        if threshold >= 0:
            return threshold
    raise ValueError(f"{source} must be a nonnegative integer, got {value!r}")


def _render(cfg: RunConfig, value):
    if value is None:
        return None
    if cfg.float_mode:
        return float(value)
    return str(value)


def _close(cfg: RunConfig, a: Fraction, b: Fraction) -> bool:
    if cfg.float_mode:
        return abs(float(a) - float(b)) <= FLOAT_TOL
    return a == b


def _emit(payload: dict, out_path=None) -> None:
    text = io.dump_json(payload, out_path)
    if out_path is None:
        sys.stdout.write(text)


def _load_space(path: str) -> MetricSpace:
    return io.space_from_dict(io.load_json(path))


def _load_valid_space(path: str) -> MetricSpace:
    return io.require_valid(_load_space(path), f"input space {path}")


def _parse_pairs(text: str) -> list:
    """Parse "label:value,label:value" into (label, value-string) pairs."""
    out = []
    if not text.strip():
        return out
    for chunk in text.split(","):
        if ":" not in chunk:
            raise ValueError(f"bad pair {chunk!r}, expected label:value")
        lbl, value = chunk.split(":", 1)
        out.append((lbl.strip(), value.strip()))
    return out


def cmd_validate(cfg: RunConfig, args) -> int:
    space = _load_space(args.space)
    violations = validate(space)
    _emit({"numeric_mode": cfg.numeric_mode,
           "points": space.n,
           "violations": violations}, args.output)
    return 0 if not violations else 1


def cmd_norm(cfg: RunConfig, args) -> int:
    space = _load_valid_space(args.space)
    coeff_pairs = _parse_pairs(args.coeffs)
    vec = io.coeffs_from_labels(space,
                                {lbl: value for lbl, value in coeff_pairs})
    dual, opt_f = free_norm_dual(vec)
    cost, plan = free_norm_flow(vec)
    agree = _close(cfg, dual, cost)
    report = {
        "numeric_mode": cfg.numeric_mode,
        "coeffs": {space.label(i): _render(cfg, v) for i, v in vec.coeffs},
        "dual_norm": _render(cfg, dual),
        "flow_norm": _render(cfg, cost),
        "agree": agree,
        "optimal_function": {space.label(i): _render(cfg, opt_f.values[i])
                             for i in range(space.n)},
        "optimal_function_lipschitz": _render(cfg, lipschitz_number(opt_f)),
        "optimal_flow": [
            {"from": space.label(s), "to": space.label(t),
             "amount": _render(cfg, amount)}
            for s, t, amount in plan.edges],
    }
    _emit(report, args.output)
    return 0 if agree else 1


def _write_witness(cfg: RunConfig, witness, path: str) -> dict:
    report = validate_witness(witness)
    if not report.invertible:
        raise ValueError(f"construction produced a non-invertible witness: "
                         f"{report.reason}")
    if path:
        io.dump_json(io.witness_to_dict(witness), path)
    return {
        "witness_file": path,
        "operator_norm": _render(cfg, report.norm),
        "inverse_norm": _render(cfg, report.inverse_norm),
        "condition": _render(cfg, report.condition),
    }


def cmd_construct(cfg: RunConfig, args) -> int:
    if args.kind == "sum":
        if not args.other:
            raise ValueError("sum needs two space files")
        left = _load_valid_space(args.space)
        right = _load_valid_space(args.other)
        result = coproduct(left, right)
        io.dump_json(io.space_to_dict(result), args.output)
        _emit({"numeric_mode": cfg.numeric_mode, "kind": "sum",
               "points": result.n, "space_file": args.output})
        return 0

    space = _load_valid_space(args.space)
    if args.kind == "quotient":
        if not args.collapse:
            raise ValueError("quotient needs --collapse with point labels")
        labels = [s.strip() for s in args.collapse.split(",") if s.strip()]
        members = [space.index(lbl) for lbl in labels]
        qspace, qmap = quotient(space, members, args.collapsed_label)
        io.dump_json(io.space_to_dict(qspace), args.output)
        report = {"numeric_mode": cfg.numeric_mode, "kind": "quotient",
                  "classes": qspace.n, "space_file": args.output,
                  "quotient_map": {space.label(i): qspace.label(qmap.image[i])
                                   for i in range(space.n)},
                  "quotient_map_lipschitz": _render(cfg, qmap.lipschitz)}
        _emit(report)
        return 0

    if args.kind == "normalize":
        scaled, witness = normalize_basis(space)
        names = [witness.target.label(k + 1) for k in range(len(scaled))]
        io.dump_json(io.basis_to_dict(space, scaled, names), args.output)
        report = {"numeric_mode": cfg.numeric_mode, "kind": "normalize",
                  "basis_file": args.output,
                  **_write_witness(cfg, witness, args.witness_out)}
        _emit(report)
        return 0

    if args.kind == "project":
        if not args.pi:
            raise ValueError("project needs --pi with projection images")
        table = dict(_parse_pairs(args.pi))
        nb = space.non_base()
        pi_images = []
        for x in nb:
            lbl = space.label(x)
            if lbl not in table:
                raise ValueError(f"projection images must cover {lbl!r}")
            target = table[lbl]
            pi_images.append(None if target == "0"
                             else delta(space, space.index(target)))
        split = projection_split(space, pi_images)
        io.dump_json(io.basis_to_dict(space, split.basis, split.labels),
                     args.output)
        report = {"numeric_mode": cfg.numeric_mode, "kind": "project",
                  "basis_file": args.output,
                  "projector_norm": _render(cfg, split.projector_norm),
                  "complement_norm": _render(cfg, split.complement_norm),
                  **_write_witness(cfg, split.witness, args.witness_out)}
        _emit(report)
        return 0

    raise ValueError(f"unknown construction kind {args.kind!r}")


def cmd_witness(cfg: RunConfig, args) -> int:
    if args.action == "build":
        if not args.space or not args.kind:
            raise ValueError("witness build needs --space and --kind")
        space = _load_valid_space(args.space)
        if args.kind == "quotient":
            table = dict(_parse_pairs(args.retraction or ""))
            image = []
            for i in range(space.n):
                lbl = space.label(i)
                image.append(space.index(table[lbl]) if lbl in table else i)
            retraction = PointMap.create(space, space, tuple(image))
            witness = quotient_witness(space, retraction)
        elif args.kind == "discrete":
            data = discrete_witness(space)
            witness = data.witness
        elif args.kind == "normalize":
            witness = normalize_basis(space)[1]
        elif args.kind == "project":
            table = dict(_parse_pairs(args.pi or ""))
            pi_images = []
            for x in space.non_base():
                lbl = space.label(x)
                if lbl not in table:
                    raise ValueError(f"projection images must cover {lbl!r}")
                target = table[lbl]
                pi_images.append(None if target == "0"
                                 else delta(space, space.index(target)))
            witness = projection_split(space, pi_images).witness
        else:
            raise ValueError(f"unknown witness kind {args.kind!r}")
        report = {"numeric_mode": cfg.numeric_mode, "kind": args.kind,
                  **_write_witness(cfg, witness, args.witness_out)}
        if args.kind == "discrete":
            report["separation"] = _render(cfg, data.theta)
            report["diameter"] = _render(cfg, data.diameter)
        _emit(report)
        return 0

    if args.action == "basis-constant":
        if not args.basis:
            raise ValueError("basis-constant needs --basis")
        space, vectors, labels = io.basis_from_dict(
            io.load_json(args.basis),
            base_dir=os.path.dirname(os.path.abspath(args.basis)))
        constant = free_basis_constant(space, vectors, labels)
        _emit({"numeric_mode": cfg.numeric_mode,
               "basis_constant": _render(cfg, constant)})
        return 0

    if not args.witness:
        raise ValueError(f"witness {args.action} needs --witness")
    witness = io.witness_from_dict(
        io.load_json(args.witness),
        base_dir=os.path.dirname(os.path.abspath(args.witness)))
    report = validate_witness(witness)
    if args.action == "check":
        payload = {"numeric_mode": cfg.numeric_mode,
                   "invertible": report.invertible,
                   "reason": report.reason,
                   "operator_norm": _render(cfg, report.norm),
                   "inverse_norm": _render(cfg, report.inverse_norm),
                   "condition": _render(cfg, report.condition)}
        if report.invertible:
            payload["inverse_images"] = io.witness_to_dict(
                report.inverse)["images"]
        _emit(payload, args.output)
        return 0 if report.invertible else 1
    if args.action == "opnorm":
        _emit({"numeric_mode": cfg.numeric_mode,
               "operator_norm": _render(cfg, report.norm)}, args.output)
        return 0
    if args.action == "condition":
        _emit({"numeric_mode": cfg.numeric_mode,
               "invertible": report.invertible,
               "condition": _render(cfg, report.condition)}, args.output)
        return 0 if report.invertible else 1
    raise ValueError(f"unknown witness action {args.action!r}")


def cmd_doubling(cfg: RunConfig, args) -> int:
    space = _load_valid_space(args.space)
    scales = None
    if args.scales:
        scales = [io.parse_rational(s) for s in args.scales.split(",")]
    report = doubling_constant(space, cfg.exact_threshold, scales)
    payload = {
        "numeric_mode": cfg.numeric_mode,
        "exact_threshold": cfg.exact_threshold,
        "doubling_max": report.doubling_max,
        "all_exact": report.all_exact,
        "assouad_estimate": report.assouad_estimate,
        "assouad_scale_range": [
            _render(cfg, r) for r in report.assouad_scale_range]
        if report.assouad_scale_range else None,
        "scales": [
            {"r": _render(cfg, e.r), "count": e.count, "exact": e.exact,
             "worst_center": space.label(e.center),
             "cover": [space.label(c) for c in e.cover]}
            for e in report.scales],
    }
    _emit(payload, args.output)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["scale", "count", "exact"])
            for e in report.scales:
                writer.writerow([str(e.r), e.count, e.exact])
    return 0


def cmd_suite(cfg: RunConfig, args) -> int:
    report = run_suite(seed=cfg.seed, max_size=args.max_size,
                       spaces=args.spaces,
                       exact_threshold=cfg.exact_threshold)
    report = {"numeric_mode": cfg.numeric_mode, **report}
    _emit(report, args.output)
    return 0 if report["all_passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lipfree",
        description="Exact free-norm workbench for finite pointed metric "
                    "spaces")
    parser.add_argument("--float", action="store_true", dest="float_mode",
                        help="render values as floats (tolerance 1e-9) "
                             "instead of exact rationals")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("validate", help="check the metric space axioms")
    p.add_argument("space")
    p.add_argument("-o", "--output")

    p = sub.add_parser("norm", help="free norm with both certificates")
    p.add_argument("space")
    p.add_argument("--coeffs", default="",
                   help='vector as "label:coeff,label:coeff"')
    p.add_argument("-o", "--output")

    p = sub.add_parser("construct", help="metric and basis constructions")
    p.add_argument("kind", choices=["sum", "quotient", "normalize", "project"])
    p.add_argument("space")
    p.add_argument("other", nargs="?",
                   help="second space file (sum only)")
    p.add_argument("--collapse", help="comma separated labels (quotient)")
    p.add_argument("--collapsed-label")
    p.add_argument("--pi", help='projection as "label:label_or_0" (project)')
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--witness-out")

    p = sub.add_parser("witness", help="build and inspect witnesses")
    p.add_argument("action", choices=["build", "check", "opnorm",
                                      "condition", "basis-constant"])
    p.add_argument("--space", help="space file (build)")
    p.add_argument("--kind", choices=["quotient", "project", "normalize",
                                      "discrete"])
    p.add_argument("--retraction", help='retraction as "label:label,..." '
                                        "(unlisted points stay fixed)")
    p.add_argument("--pi")
    p.add_argument("--witness", help="witness file (check/opnorm/condition)")
    p.add_argument("--basis", help="basis file (basis-constant)")
    p.add_argument("--witness-out")
    p.add_argument("-o", "--output")

    threshold_help = ("max ball size for certified set covers (default from "
                      f"${THRESHOLD_ENV} or {DEFAULT_EXACT_THRESHOLD})")

    p = sub.add_parser("doubling", help="covering counts and scale report")
    p.add_argument("space")
    p.add_argument("--scales", help="comma separated radii")
    p.add_argument("--exact-threshold", type=int, default=None,
                   help=threshold_help)
    p.add_argument("--csv", help="also write scale,count,exact rows")
    p.add_argument("-o", "--output")

    p = sub.add_parser("suite", help="randomized property batteries")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-size", type=int, default=8)
    p.add_argument("--spaces", type=int, default=200)
    p.add_argument("--exact-threshold", type=int, default=None,
                   help=threshold_help)
    p.add_argument("-o", "--output")
    return parser


_HANDLERS = {
    "validate": cmd_validate,
    "norm": cmd_norm,
    "construct": cmd_construct,
    "witness": cmd_witness,
    "doubling": cmd_doubling,
    "suite": cmd_suite,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig(subcommand=args.subcommand,
                        float_mode=args.float_mode,
                        seed=getattr(args, "seed", 0),
                        exact_threshold=_exact_threshold(args))
        return _HANDLERS[args.subcommand](cfg, args)
    # A solver limit or a broken solver invariant is a RuntimeError naming it.
    except (ValueError, KeyError, OSError, json.JSONDecodeError,
            RuntimeError) as exc:
        print(f"lipfree: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
