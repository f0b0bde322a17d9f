"""File formats: field/ideal/divisor specifications in JSON, census export
as CSV or JSON, and the principal-cycle SVG.

Rationals travel as [numerator, denominator] pairs (plain integers are also
accepted); all emitted text is byte-deterministic for fixed inputs.
"""
from __future__ import annotations

import json
from fractions import Fraction

from mpmath import mp, mpf

from .divisors import ArakelovDivisor, divisor_d
from .ideals import FractionalIdeal, PlainLattice, ideal_from_generators
from .numfield import ArchVector, NumberField, create_field
from .survey import SredCensus
from .units import UnitLattice, unit_lattice_from_elements


def parse_int(v) -> int:
    """An integer from a JSON integer or a decimal string. Anything else (a
    float, a bool, a list) is a ValueError: 1.9 is never truncated to 1."""
    if isinstance(v, bool) or not isinstance(v, (int, str)):
        raise ValueError(f"not an integer: {v!r}")
    return int(v)


def parse_rational(v) -> Fraction:
    """A rational from an integer, a string such as "3/4", a finite float,
    or a [numerator, denominator] pair of integers."""
    try:
        if isinstance(v, (list, tuple)) and len(v) == 2:
            return Fraction(parse_int(v[0]), parse_int(v[1]))
        if isinstance(v, (int, str, float)) and not isinstance(v, bool):
            return Fraction(v)
    except (ZeroDivisionError, OverflowError):
        pass
    raise ValueError(f"not a rational: {v!r}")


def _parse_list(v, parse, what: str) -> list:
    """[parse(x) for x in v] for a JSON list v; anything else is a ValueError."""
    if not isinstance(v, list):
        raise ValueError(f"{what} must be a list")
    return [parse(x) for x in v]


def _parse_rows(spec: dict, key: str, parse=parse_rational) -> list[list]:
    """spec[key] as a list of lists: matrix rows or coordinate vectors."""
    return _parse_list(spec[key], lambda row: _parse_list(row, parse, f'a row of "{key}"'),
                       f'"{key}"')


def rational_pair(q: Fraction):
    return [q.numerator, q.denominator] if q.denominator != 1 else q.numerator


def load_field(spec: dict, prec: int | None = None) -> tuple[NumberField, UnitLattice | None]:
    """Field from {"min_poly": [...], "integral_basis": optional,
    "units": optional element coordinate lists}."""
    if "min_poly" not in spec:
        raise ValueError('field specification must contain "min_poly"')
    basis = None
    if spec.get("integral_basis") is not None:
        basis = _parse_rows(spec, "integral_basis")
    kwargs = {"prec": prec} if prec else {}
    f = create_field(_parse_list(spec["min_poly"], parse_int, '"min_poly"'), basis, **kwargs)
    units = None
    if spec.get("units"):
        elements = [f.element(coords) for coords in _parse_rows(spec, "units")]
        units = unit_lattice_from_elements(f, elements)
    return f, units


def load_lattice(f: NumberField, spec: dict) -> FractionalIdeal | PlainLattice:
    """Ideal from {"den": m, "hnf": [[...]]} or {"gens": [...]}; a plain
    Z-lattice (not closed under the ring) from {"plain_basis": [...]}."""
    if "plain_basis" in spec:
        basis = tuple(f.element(coords) for coords in _parse_rows(spec, "plain_basis"))
        return PlainLattice(f, basis)
    if "gens" in spec:
        return ideal_from_generators(f, [f.element(c) for c in _parse_rows(spec, "gens")])
    if "den" in spec and "hnf" in spec:
        den = parse_int(spec["den"])
        hnf = tuple(tuple(row) for row in _parse_rows(spec, "hnf", parse_int))
        if den <= 0 or len(hnf) != f.n or any(len(row) != f.n for row in hnf):
            raise ValueError("hnf specification needs den > 0 and an n x n hnf")
        ideal = FractionalIdeal(f, den, hnf)
        # round-trip through the canonical form to validate closure
        canon = ideal_from_generators(f, ideal.basis_elements())
        if canon != ideal:
            raise ValueError("hnf specification is not a canonical ideal record")
        return ideal
    raise ValueError("ideal specification needs gens, den+hnf, or plain_basis")


def load_divisor(f: NumberField, spec: dict) -> ArakelovDivisor:
    """Divisor from {"ideal": <ideal spec>, "u": [per-place reals]} or the
    {"ideal": ..., "d_of_ideal": true} shortcut."""
    if not isinstance(spec.get("ideal"), dict):
        raise ValueError('divisor specification needs an "ideal" object')
    lattice = load_lattice(f, spec["ideal"])
    if not isinstance(lattice, FractionalIdeal):
        raise ValueError("divisors are built on fractional ideals")
    if spec.get("d_of_ideal"):
        return divisor_d(lattice)
    if "u" not in spec:
        raise ValueError('divisor specification needs "u" or "d_of_ideal": true')
    with mp.workprec(f.prec):
        vals = tuple(_parse_list(spec["u"], lambda x: mpf(str(x)), '"u"'))
    if len(vals) != f.num_places or any(not mp.isfinite(v) or v <= 0 for v in vals):
        raise ValueError("u must give one positive real per infinite place")
    return ArakelovDivisor(lattice, ArchVector(vals, f.degs, f.prec))


# ---------------------------------------------------------------------------
# Output formatting

def fmt_real(x) -> str:
    """Deterministic decimal form of an mpf/float (shortest round-trip)."""
    return repr(float(x))


def json_text(doc) -> str:
    """json.dumps(doc, indent=2, sort_keys=True) plus a newline, for
    documents with string keys. The standard library indents through
    closures that call each other, which leave reference cycles behind on
    every call; this recursion leaves none and emits the same bytes."""
    return _json_indented(doc, "\n") + "\n"


def _json_indented(x, newline: str) -> str:
    inner = newline + "  "
    if isinstance(x, dict) and x:
        return ("{" + ",".join(inner + json.dumps(k) + ": " + _json_indented(v, inner)
                               for k, v in sorted(x.items())) + newline + "}")
    if isinstance(x, (list, tuple)) and x:
        return "[" + ",".join(inner + _json_indented(v, inner) for v in x) + newline + "]"
    return json.dumps(x)


def census_rows(census: SredCensus, positions=None) -> list[dict]:
    pos_by_key = {}
    if positions:
        for entry, p in positions:
            pos_by_key[entry.ideal.key()] = p
    rows = []
    for e in census.entries:
        row = {
            "den": e.ideal.den,
            "hnf": [list(r) for r in e.ideal.hnf],
            "inv_norm": e.inv_norm,
            "strongly_reduced": True,
            "usual_reduced": e.usual_reduced,
            "lambda1_sq": rational_pair(e.lambda1_sq),
            "class": e.class_tag,
            "narrow_class": e.narrow_tag,
        }
        p = pos_by_key.get(e.ideal.key())
        row["position"] = fmt_real(p) if p is not None else None
        rows.append(row)
    return rows


def census_json(census: SredCensus, positions=None) -> str:
    doc = {
        "min_poly": list(census.field.min_poly),
        "disc": census.field.disc,
        "c_squared": rational_pair(census.c_squared),
        "norm_bound": census.norm_bound,
        "count": len(census.entries),
        "usual_reduced_count": sum(1 for e in census.entries if e.usual_reduced),
        "entries": census_rows(census, positions),
    }
    return json_text(doc)


def census_csv(census: SredCensus, positions=None) -> str:
    rows = census_rows(census, positions)
    header = ["den", "hnf", "inv_norm", "strongly_reduced", "usual_reduced",
              "lambda1_sq", "class", "narrow_class", "position"]
    lines = [",".join(header)]
    for r in rows:
        hnf_flat = " ".join(str(x) for row in r["hnf"] for x in row)
        lam = r["lambda1_sq"]
        lam_s = f"{lam[0]}/{lam[1]}" if isinstance(lam, list) else str(lam)
        lines.append(",".join([
            str(r["den"]), hnf_flat, str(r["inv_norm"]),
            "1", "1" if r["usual_reduced"] else "0", lam_s,
            r["class"] or "", r["narrow_class"] or "",
            r["position"] or "",
        ]))
    return "\n".join(lines) + "\n"


def cycle_svg(positions, ell, size: int = 420) -> str:
    """Circle with one tick per divisor at angle 2*pi*position/length; the
    base point sits at the top and labels run D0, D1, ... by position."""
    import math as pymath

    cx = cy = size / 2
    radius = size * 0.38
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<circle cx="{cx:.3f}" cy="{cy:.3f}" r="{radius:.3f}" fill="none" '
        f'stroke="black" stroke-width="1.2"/>',
    ]
    ordered = sorted(positions, key=lambda t: float(t[1]))
    for idx, (_, pos) in enumerate(ordered):
        angle = 2 * pymath.pi * float(pos) / float(ell)
        x = cx + radius * pymath.sin(angle)
        y = cy - radius * pymath.cos(angle)
        xo = cx + (radius + 9) * pymath.sin(angle)
        yo = cy - (radius + 9) * pymath.cos(angle)
        xl = cx + (radius + 22) * pymath.sin(angle)
        yl = cy - (radius + 22) * pymath.cos(angle)
        parts.append(
            f'<line x1="{x:.3f}" y1="{y:.3f}" x2="{xo:.3f}" y2="{yo:.3f}" '
            f'stroke="black" stroke-width="1.2"/>'
        )
        parts.append(f'<circle cx="{x:.3f}" cy="{y:.3f}" r="3" fill="black"/>')
        parts.append(
            f'<text x="{xl:.3f}" y="{yl:.3f}" font-size="11" '
            f'text-anchor="middle" dominant-baseline="middle">D{idx}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cycle_csv(positions, ell) -> str:
    lines = ["index,position,angle"]
    ordered = sorted(positions, key=lambda t: float(t[1]))
    import math as pymath

    for idx, (_, pos) in enumerate(ordered):
        angle = 2 * pymath.pi * float(pos) / float(ell)
        lines.append(f"D{idx},{fmt_real(pos)},{fmt_real(angle)}")
    return "\n".join(lines) + "\n"
