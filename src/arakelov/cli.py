"""Command-line front end: field info, strongly-C-reduced checks, divisor
reduction, census runs, cycle plots and bound-verification reports.

Exit codes: 0 success or affirmative, 1 negative result, 2 usage error,
3 internal limit (census past desk scale, precision cap).
"""
from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from fractions import Fraction

from mpmath import mp, mpf

from .divisors import (
    ArakelovDivisor,
    CSquared,
    as_c_squared,
    is_strongly_c_reduced,
    quadratic_units,
    reduce as reduce_divisor,
)
from .ideals import enumerate_integral_ideals
from .numfield import MAX_PREC, ArchVector, PrecisionExhausted, fraction_to_mpf
from .serialize import (
    census_csv,
    census_json,
    cycle_csv,
    cycle_svg,
    fmt_real,
    json_text,
    load_divisor,
    load_field,
    load_lattice,
    rational_pair,
)
from .survey import (
    DeskScaleExceeded,
    classify_components,
    cycle_length,
    cycle_positions,
    enumerate_sred,
    verify_counts,
    verify_separation,
)
from .units import LogLattice, UnitsUnavailable


def _read_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SystemExit2(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise SystemExit2(f"malformed JSON in {path}: {exc}")
    if not isinstance(doc, dict):
        raise SystemExit2(f"{path} does not hold a JSON object")
    return doc


class SystemExit2(Exception):
    """Usage-level failure: message to stderr, exit status 2."""


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_field_arg(args):
    spec = _read_json(args.field)
    prec = getattr(args, "precision", None)
    if prec is not None and not 64 <= prec <= MAX_PREC:
        raise SystemExit2(f"precision must be between 64 and {MAX_PREC} bits")
    try:
        f, units = load_field(spec, prec)
    except ValueError as exc:
        raise SystemExit2(f"bad field specification: {exc}")
    args.loaded_field = f
    return f, units


def _c_arg(args) -> Fraction:
    try:
        return as_c_squared(args.C)
    except (ValueError, ZeroDivisionError) as exc:
        raise SystemExit2(f"bad C parameter: {exc}")


def _units_for(f, supplied):
    if supplied is not None:
        return supplied
    if f.n == 2:
        return quadratic_units(f)
    return None


def cmd_info(args) -> int:
    f, units = _load_field_arg(args)
    units = _units_for(f, units)
    with mp.workprec(f.prec):
        doc = {
            "min_poly": list(f.min_poly),
            "degree": f.n,
            "r1": f.r1,
            "r2": f.r2,
            "disc": f.disc,
            "partial_constant": fmt_real(f.partial_constant()),
            "integral_basis": [[rational_pair(x) for x in row] for row in f.basis],
        }
        if units is not None and units.rank() > 0:
            doc["fundamental_units"] = [
                [rational_pair(c) for c in g.coords] for g in units.generators
            ]
            doc["regulator"] = fmt_real(units.regulator())
        elif units is not None:
            doc["fundamental_units"] = []
            doc["regulator"] = fmt_real(mpf(0))
    _emit(json_text(doc), args.out)
    return 0


def cmd_check(args) -> int:
    f, _ = _load_field_arg(args)
    c2 = _c_arg(args)
    lattice = load_lattice(f, _read_json(args.ideal))
    res = is_strongly_c_reduced(f, lattice, CSquared(c2))
    doc = {
        "strongly_reduced": res.ok,
        "primitive": res.primitive,
        "rational_intersection": rational_pair(res.rational_intersection),
        "threshold_sq": rational_pair(res.threshold),
        "lambda1_sq": rational_pair(res.lambda1_sq) if res.lambda1_sq is not None else None,
        "witness": [rational_pair(c) for c in res.witness_element.coords]
        if res.witness_element is not None else None,
    }
    _emit(json_text(doc), args.out)
    return 0 if res.ok else 1


def cmd_reduce(args) -> int:
    f, units = _load_field_arg(args)
    c2 = _c_arg(args)
    divisor = load_divisor(f, _read_json(args.divisor))
    try:
        final, trace = reduce_divisor(divisor, CSquared(c2))
    except ValueError as exc:
        raise SystemExit2(str(exc))
    units = _units_for(f, units)
    distance = None
    if units is not None:
        distance = LogLattice(units.log_embeddings()).closest_norm(trace.v.log())
    doc = {
        "final": {
            "den": final.ideal.den,
            "hnf": [list(r) for r in final.ideal.hnf],
            "u": [fmt_real(v) for v in final.u.values],
        },
        "steps": [
            {
                "divided_by": [rational_pair(c) for c in fj.coords],
                "ideal": {"den": jj.den, "hnf": [list(r) for r in jj.hnf]},
                "shortest_sq": rational_pair(lam),
            }
            for fj, jj, lam in trace.steps
        ],
        "initial_minimal": [rational_pair(c) for c in trace.initial_minimal.coords],
        "k": trace.k,
        "v": [fmt_real(x) for x in trace.v.values],
        "distance": fmt_real(distance) if distance is not None else None,
        "distance_bound": fmt_real(trace.distance_bound)
        if trace.distance_bound is not None else None,
        "no_distance_guarantee": trace.distance_bound is None,
    }
    _emit(json_text(doc), args.out)
    return 0


def _classified_census(args):
    f, units = _load_field_arg(args)
    c2 = _c_arg(args)
    census = enumerate_sred(f, CSquared(c2))
    units = _units_for(f, units)
    if f.n == 2:
        census = classify_components(census, units)
    return f, units, census


def _census_with_positions(args):
    f, units, census = _classified_census(args)
    positions = None
    if f.n == 2 and f.r1 == 2 and units is not None:
        positions = cycle_positions(census, units)
    return f, units, census, positions


def cmd_census(args) -> int:
    _, units, census, positions = _census_with_positions(args)
    if args.format == "csv":
        _emit(census_csv(census, positions), args.out)
    else:
        _emit(census_json(census, positions), args.out)
    return 0


def cmd_cycle(args) -> int:
    f, units, census, positions = _census_with_positions(args)
    if positions is None:
        raise SystemExit2("cycle positions need a real quadratic field")
    ell = cycle_length(units)
    if args.format == "csv":
        _emit(cycle_csv(positions, ell), args.out)
    else:
        _emit(cycle_svg(positions, ell), args.out)
    return 0


def cmd_verify(args) -> int:
    if args.trials < 0:
        raise SystemExit2(f"--trials must be non-negative, got {args.trials}")
    f, units, census = _classified_census(args)
    if units is None or f.n != 2 or f.r1 != 2:
        raise SystemExit2("verification reports need a real quadratic field")
    sep = verify_separation(census, CSquared(census.c_squared), units)
    cnt = verify_counts(census, units)
    trials = _verify_reduction_trials(f, units, census.c_squared, args.trials,
                                      args.seed)
    doc = {
        "census_count": len(census),
        "separation": {
            "delta": fmt_real(sep["delta"]),
            "delta_coarse": fmt_real(sep["delta_coarse"]),
            "pairs": sep["pairs"],
            "min_gap": fmt_real(sep["min_gap"]) if sep["min_gap"] is not None else None,
            "ok": sep["ok"],
        },
        "counts": {
            "narrow_classes": cnt["narrow_classes"],
            "volume": fmt_real(cnt["volume"]),
            "max_unit_ball": cnt["max_unit_ball"],
            "sred_bound_sqrt3": fmt_real(cnt["bounds"]["sqrt3"]["sred_bound"]),
            "ball_bound_sqrt3": fmt_real(cnt["bounds"]["sqrt3"]["ball_bound"]),
            "sred_bound_3": fmt_real(cnt["bounds"]["3"]["sred_bound"]),
            "ball_bound_3": fmt_real(cnt["bounds"]["3"]["ball_bound"]),
            "ok": cnt["ok"],
        },
        "reduction_trials": trials,
    }
    ok = sep["ok"] and cnt["ok"] and trials["ok"]
    _emit(json_text(doc), args.out)
    return 0 if ok else 1


def _verify_reduction_trials(f, units, c2, trials: int, seed: int) -> dict:
    rng = random.Random(seed)
    ideals = enumerate_integral_ideals(f, 30)
    worst = 0.0
    violations = 0
    lattice = LogLattice(units.log_embeddings())
    for _ in range(trials):
        base = rng.choice(ideals)
        t = rng.uniform(-4.0, 4.0)
        n_base = base.norm()
        with mp.workprec(f.prec):
            scale = fraction_to_mpf(n_base, f.prec) ** (-mpf(1) / f.n)
            u = ArchVector((scale * mp.exp(t), scale * mp.exp(-t)), f.degs, f.prec)
        divisor = ArakelovDivisor(base, u)
        final, trace = reduce_divisor(divisor, CSquared(c2))
        dist = lattice.closest_norm(trace.v.log())
        if trace.distance_bound is not None:
            ratio = float(dist / trace.distance_bound)
            worst = max(worst, ratio)
            if dist >= trace.distance_bound:
                violations += 1
    return {"trials": trials, "worst_ratio": worst, "violations": violations,
            "ok": violations == 0}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: a build leaves
    argparse's formatter and action objects in reference cycles, and
    parsing leaves none."""
    p = argparse.ArgumentParser(
        prog="arakelov",
        description="Arakelov divisor arithmetic: strongly C-reduced divisors, "
                    "reduction, census and bound verification.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, c_flag=True):
        sp.add_argument("--field", required=True, help="field specification JSON")
        sp.add_argument("--precision", type=int, default=None,
                        help="working precision in bits, 64 to 4096 (default 128)")
        sp.add_argument("--out", default=None, help="write output to a file")
        if c_flag:
            sp.add_argument("--C", default="1", help="reduction parameter "
                            "(e.g. 1, 2, 3/2, sqrt2)")

    sp = sub.add_parser("info", help="field invariants and units")
    common(sp, c_flag=False)
    sp.set_defaults(func=cmd_info)

    sp = sub.add_parser("check", help="strongly C-reduced test with certificate")
    common(sp)
    sp.add_argument("--ideal", required=True, help="ideal/lattice specification JSON")
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("reduce", help="reduce a degree-zero divisor")
    common(sp)
    sp.add_argument("--divisor", required=True, help="divisor specification JSON")
    sp.set_defaults(func=cmd_reduce)

    sp = sub.add_parser("census", help="enumerate all strongly C-reduced divisors")
    common(sp)
    sp.add_argument("--format", choices=["csv", "json"], default="json")
    sp.set_defaults(func=cmd_census)

    sp = sub.add_parser("cycle", help="principal-cycle positions (SVG or CSV)")
    common(sp)
    sp.add_argument("--format", choices=["svg", "csv"], default="svg")
    sp.set_defaults(func=cmd_cycle)

    sp = sub.add_parser("verify", help="separation/count bounds and reduction trials")
    common(sp)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--trials", type=int, default=20)
    sp.set_defaults(func=cmd_verify)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit2 as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DeskScaleExceeded as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except PrecisionExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (UnitsUnavailable, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        # the field's caches hold elements, ideals and log vectors that refer
        # back to it; emptying them lets the field go without the collector
        if (f := getattr(args, "loaded_field", None)) is not None:
            f._cache.clear()


if __name__ == "__main__":
    sys.exit(main())
