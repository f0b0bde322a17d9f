"""Exhaustive census of strongly C-reduced divisors: enumeration through the
inverse-ideal norm bound, classification by (narrow) ideal class, positions
on the principal cycle, and verification of the separation and counting
bounds.

The separation constant is log(1 + sqrt(3)/(2 C^2)); the coarser variant
with 3 in place of sqrt(3) appears in some counting statements and is
evaluated informationally alongside it, never asserted on its own.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace
from fractions import Fraction

from mpmath import mp, mpf

from .divisors import (
    CSquared,
    UnitLattice,
    _principal_cycle,
    as_c_squared,
    is_reduced_usual,
    is_strongly_c_reduced,
    principal_generator,
    quadratic_units,
    reduced_cycle,
    to_reduced,
)
from .exact import frac_isqrt_floor
from .ideals import (
    FractionalIdeal,
    count_sublattices_up_to,
    enumerate_integral_ideals,
    invert,
    multiply,
    unit_ideal,
)
from .lattice import hermite_power
from .numfield import FieldElement, LogVector, NumberField, fraction_to_mpf
from .units import LogLattice, _positive_associate, _sign_vector


class DeskScaleExceeded(RuntimeError):
    """The census norm bound implies too many candidate ideals."""

    def __init__(self, bound: int, estimate: int):
        self.bound = bound
        self.estimate = estimate
        super().__init__(
            f"census bound {bound} implies more than {estimate} candidate "
            f"sublattices; refusing at desk scale"
        )


CANDIDATE_CAP = 10 ** 6


@dataclass(frozen=True, slots=True)
class CensusEntry:
    """One strongly C-reduced divisor d(I), with tags filled by the
    classification pass."""

    ideal: FractionalIdeal
    inv_norm: int
    usual_reduced: bool
    lambda1_sq: Fraction
    class_tag: str | None = None
    narrow_tag: str | None = None
    generator: FieldElement | None = None


@dataclass(frozen=True, slots=True)
class SredCensus:
    field: NumberField
    c_squared: Fraction
    norm_bound: int
    entries: tuple[CensusEntry, ...]

    def __len__(self) -> int:
        return len(self.entries)


def sred_norm_bound(f: NumberField, c2: Fraction) -> int:
    """Largest integer within C^n times the box constant (exact for totally
    real fields; no integer ties exist otherwise)."""
    if f.r2 == 0:
        return frac_isqrt_floor(c2 ** f.n * abs(f.disc))
    with mp.workprec(f.prec):
        c_pow = fraction_to_mpf(c2, f.prec) ** (mpf(f.n) / 2)
        return int(mp.floor(c_pow * f.partial_constant() + mpf(2) ** (-f.prec // 2)))


def enumerate_sred(f: NumberField, c) -> SredCensus:
    """All strongly C-reduced divisors d(I): I runs over inverses of the
    integral ideals within the completeness norm bound.

    For an integral J, 1/p lies in J^-1 exactly when J lies in pO, that is
    when p divides every entry of J's HNF; so 1 is primitive in J^-1 exactly
    when those entries have gcd 1, and no other J is inverted.

    An inverse I whose covolume already rules it out gets no lambda_1
    search. The unit-weight Gram of I is Re(M^H M) over all n embeddings
    of a basis, so det G = |disc(O)| N(I)^2 in every signature, and
    Hermite's inequality lambda_1^(2n) <= gamma_n^n det G (hermite_power)
    gives lambda_1^2 < n/C^2 whenever
    gamma_n^n |disc(O)| N(I)^2 < (n/C^2)^n, all exact rationals. The
    inequality is strict, so lambda_1^2 = n/C^2 is still tested. N(I) is
    the norm of the computed inverse, not 1/N(J): for a J that is not
    invertible (in an order that is not Gorenstein) the two differ."""
    c2 = as_c_squared(c)
    bound = sred_norm_bound(f, c2)
    estimate = count_sublattices_up_to(f.n, bound, CANDIDATE_CAP)
    if estimate > CANDIDATE_CAP:
        raise DeskScaleExceeded(bound, CANDIDATE_CAP)
    cap = hermite_power(f.n) * abs(f.disc)
    need = (Fraction(f.n) / c2) ** f.n
    entries = []
    for j in enumerate_integral_ideals(f, bound):
        if math.gcd(*(x for row in j.hnf for x in row)) != 1:
            continue
        i = invert(j)
        if cap * i.norm() ** 2 < need:
            continue
        res = is_strongly_c_reduced(f, i, CSquared(c2))
        if res.ok:
            entries.append(
                CensusEntry(
                    ideal=i,
                    inv_norm=int(j.norm()),
                    usual_reduced=is_reduced_usual(f, i),
                    lambda1_sq=res.lambda1_sq,
                )
            )
    return SredCensus(f, c2, bound, tuple(entries))


# ---------------------------------------------------------------------------
# Classification

def _class_cycles(f: NumberField):
    """Registry of reduced-ideal cycles, seeded with the principal one."""
    key = "class_cycles"
    if key not in f._cache:
        principal = _principal_cycle(f)
        registry = {"principal": principal}
        member_map = {}
        for jk, gam in principal:
            member_map[jk] = ("principal", gam)
        f._cache[key] = (registry, member_map)
    return f._cache[key]


def _locate_class(f: NumberField, reduced: FractionalIdeal):
    """(tag, gamma) with reduced = gamma^{-1} * rep(tag); walks and caches a
    new cycle when the ideal belongs to an unseen class."""
    registry, member_map = _class_cycles(f)
    if reduced in member_map:
        return member_map[reduced]
    cycle = reduced_cycle(f, reduced)
    rep_key = min(jk.key() for jk, _ in cycle)
    rep, rep_gam = next((jk, gam) for jk, gam in cycle if jk.key() == rep_key)
    tag = "cls" + ":".join(str(x) for x in rep_key)
    # re-anchor generators on the canonical representative:
    # jk = gam^{-1} start and rep = rep_gam^{-1} start give
    # jk = (gam * rep_gam^{-1})^{-1} rep
    registry[tag] = cycle
    for jk, gam in cycle:
        member_map[jk] = (tag, gam * rep_gam.inverse())
    return member_map[reduced]


def classify_components(census: SredCensus, units: UnitLattice | None = None) -> SredCensus:
    """Fill ideal-class and narrow-class tags (quadratic fields).

    Every entry gets a generator relative to its class representative; the
    narrow tag appends whether that generator has a totally positive
    associate. Non-quadratic fields are returned untagged, and a census
    whose entries are all tagged is returned unchanged.
    """
    f = census.field
    if f.n != 2 or all(e.class_tag is not None for e in census.entries):
        return census
    if f.r2 == 1:
        return _classify_imaginary(census)
    if units is None:
        units = quadratic_units(f)
    unit_signs = [_sign_vector(f, eps) for eps in units.generators]
    out = []
    for e in census.entries:
        j_red, g = to_reduced(f, e.ideal)
        tag, gam = _locate_class(f, j_red)
        gen = g * gam.inverse()  # e.ideal = gen * rep
        tp = _positive_associate(f, _sign_vector(f, gen), unit_signs) is not None
        narrow = f"{tag}|tp" if tp else f"{tag}|ntp"
        out.append(replace(e, class_tag=tag, narrow_tag=narrow, generator=gen))
    return replace(census, entries=tuple(out))


def _classify_imaginary(census: SredCensus) -> SredCensus:
    f = census.field
    reps: list[tuple[FractionalIdeal, str]] = []
    out = []
    for e in census.entries:
        tag = None
        gen = None
        for rep, rep_tag in reps:
            g = principal_generator(f, multiply(e.ideal, invert(rep)))
            if g is not None:
                tag, gen = rep_tag, g
                break
        if tag is None:
            g0 = principal_generator(f, e.ideal)
            if g0 is not None:
                tag, gen = "principal", g0
                if not any(t == "principal" for _, t in reps):
                    reps.append((unit_ideal(f), "principal"))
            else:
                tag = "cls" + ":".join(str(x) for x in e.ideal.key())
                gen = f.one()
                reps.append((e.ideal, tag))
        out.append(replace(e, class_tag=tag, narrow_tag=tag, generator=gen))
    return replace(census, entries=tuple(out))


# ---------------------------------------------------------------------------
# Cycle positions

def cycle_length(units: UnitLattice):
    """Circumference of the principal cycle: sqrt(2) times the regulator."""
    r = units.regulator()
    with mp.workprec(units.field.prec):
        return mp.sqrt(2) * r


def cycle_positions(census: SredCensus, units: UnitLattice):
    """(entry, position) for the principal-class entries: the position along
    the unit circle of the class group, in [0, cycle length); the base point
    d(O_F) sits at 0."""
    f = census.field
    if f.n != 2 or f.r1 != 2:
        raise ValueError("cycle positions require a real quadratic field")
    tagged = classify_components(census, units)
    ell = cycle_length(units)
    out = []
    for e in tagged.entries:
        if e.class_tag != "principal":
            continue
        g = e.generator
        vg = f.embed(g).abs()
        with mp.workprec(vg.prec):
            t = (mp.log(vg.values[0]) - mp.log(vg.values[1])) / mp.sqrt(2)
            pos = t % ell
        out.append((e, pos))
    return out


# ---------------------------------------------------------------------------
# Separation and counting bounds

def separation_delta(c2: Fraction, prec: int = 64, coarse: bool = False):
    """log(1 + sqrt(3)/(2C^2)); with coarse=True the sqrt(3) becomes 3."""
    with mp.workprec(prec):
        top = mpf(3) if coarse else mp.sqrt(3)
        return mp.log(1 + top / (2 * fraction_to_mpf(c2, prec)))


def _log_position(f: NumberField, e: CensusEntry) -> LogVector:
    """p(e) = log|sigma(gen)| - (1/n) log N(I) of a classified entry, so
    that d(I1) - d(I2) + (gen1/gen2) = (O_F, exp(p(e1) - p(e2))); computed
    once per (ideal, generator) and field."""
    cache = f._cache.setdefault("log_positions", {})
    key = (e.ideal.key(), e.generator.coords)
    if key not in cache:
        v = f.embed(e.generator).abs().log()
        with mp.workprec(v.prec):
            shift = mp.log(fraction_to_mpf(e.ideal.norm(), v.prec)) / f.n
            cache[key] = LogVector(tuple(x - shift for x in v.values), v.degs, v.prec)
    return cache[key]


def _pairs_by_bound(lattice: LogLattice, members: list, points: list[LogVector]):
    """(bound, a, b) for the pairs of members, a before b, by ascending
    lower bound on the distance of points[a] - points[b]; see
    LogLattice.pairs_by_bound."""
    for bound, i, j in lattice.pairs_by_bound(points):
        yield bound, members[i], members[j]


def verify_separation(census: SredCensus, c, units: UnitLattice) -> dict:
    """Pairwise oriented distances of same-narrow-component entries against
    the separation constant; failures are reported, not silenced.

    Each entry is embedded and sign-tested once. A pair's target is the
    difference of the two log positions plus the log vector of the unit
    product that the XOR of their sign vectors asks for; pairs whose XOR no
    unit product reaches lie in different narrow components and are not
    compared.

    Only the pairs that a lower bound cannot rule out get a closest-vector
    search. A unit product u takes the signs of each entry of a component
    to those of its first entry; for two entries, u1 u2 and the pair's own
    unit product differ by a totally positive unit, whose log lies in the
    lattice, as does log u^2. So the points position + log|u| differ by
    the pairs' targets modulo the lattice, and LogLattice.pairs_by_bound
    orders the pairs by their bounds. Pairs are visited by ascending bound
    until it passes both the least distance met and the violation
    threshold; violations are reported in pair order."""
    c2 = as_c_squared(c)
    if c2 != census.c_squared:
        raise ValueError("C parameter does not match the census")
    f = census.field
    if f.n != 2 or f.r1 != 2:
        raise ValueError("separation verification requires a real quadratic field")
    tagged = classify_components(census, units)
    delta = separation_delta(c2, f.prec)
    groups: dict[str, list] = {}
    for e in tagged.entries:
        if e.narrow_tag is not None:
            groups.setdefault(e.narrow_tag, []).append(
                (e, _log_position(f, e), _sign_vector(f, e.generator)))
    unit_logs = units.log_embeddings()
    unit_signs = [_sign_vector(f, eps) for eps in units.generators]
    tp_lattice = LogLattice(units.log_embeddings(tp_only=True))
    masks: dict[int, int | None] = {}  # sign XOR -> unit product, or None

    def mask(pattern: int) -> int | None:
        if pattern not in masks:
            found = _positive_associate(f, pattern, unit_signs)
            masks[pattern] = None if found is None else found[1]
        return masks[pattern]

    def shifted(p: LogVector, bits: int) -> LogVector:
        for i, v in enumerate(unit_logs):
            if bits >> i & 1:
                p = p.add(v)
        return p

    ordered = sorted(groups.items())
    pairs = 0
    streams = []
    for g, (_, group) in enumerate(ordered):
        components: list[tuple[int, list, list]] = []
        for k, (_, p, s) in enumerate(group):
            for s0, members, points in components:
                if (bits := mask(s ^ s0)) is not None:
                    members.append((g, k))
                    points.append(shifted(p, bits))
                    break
            else:
                components.append((s, [(g, k)], [p]))
        for _, members, points in components:
            pairs += len(members) * (len(members) - 1) // 2
            streams.append(_pairs_by_bound(tp_lattice, members, points))
    threshold = delta - mpf(10) ** (-9)
    min_gap = None
    violations = []
    for bound, (g, a), (_, b) in heapq.merge(*streams, key=lambda x: x[0]):
        if min_gap is not None and bound > max(min_gap, threshold):
            break
        group = ordered[g][1]
        (e1, p1, s1), (e2, p2, s2) = group[a], group[b]
        dist = tp_lattice.closest_norm(shifted(p1.sub(p2), mask(s1 ^ s2)))
        if min_gap is None or dist < min_gap:
            min_gap = dist
        if dist < threshold:
            violations.append(((g, a, b), (e1, e2, dist)))
    return {
        "delta": delta,
        "delta_coarse": separation_delta(c2, f.prec, coarse=True),
        "pairs": pairs,
        "min_gap": min_gap,
        "violations": [v for _, v in sorted(violations, key=lambda x: x[0])],
        "ok": not violations,
    }


def verify_counts(census: SredCensus, units: UnitLattice) -> dict:
    """Check the census size and the unit-ball counts against the volume
    bounds; both the sqrt(3) and the coarser 3 constants are evaluated, the
    sqrt(3) one is authoritative. Only the same-class pairs whose lower
    bound (LogLattice.pairs_by_bound) is at most 1 get a closest-vector
    search."""
    f = census.field
    if f.n != 2 or f.r1 != 2:
        raise ValueError("count verification requires a real quadratic field")
    tagged = classify_components(census, units)
    c2 = census.c_squared
    narrow_classes = sorted({e.narrow_tag for e in tagged.entries})
    h_plus = len(narrow_classes)
    with mp.workprec(f.prec):
        r_plus = units.tp_regulator()
        volume = h_plus * mp.sqrt(2) * r_plus
        results = {}
        for name, coarse in (("sqrt3", False), ("3", True)):
            delta = separation_delta(c2, f.prec, coarse=coarse)
            sred_bound = 2 ** f.n * delta ** (-mpf(f.n) / 2) * volume
            ball_bound = (delta / 2) ** (-f.n)
            results[name] = {"sred_bound": sred_bound, "ball_bound": ball_bound}
    ents = tagged.entries
    m = len(ents)
    lattice = LogLattice(units.log_embeddings())
    pos = [_log_position(f, e) for e in ents]
    classes: dict[str | None, list[int]] = {}
    for a, e in enumerate(ents):
        classes.setdefault(e.class_tag, []).append(a)
    ball_counts = [1] * m  # same-class entries within Pic distance 1
    for members in classes.values():
        for bound, a, b in _pairs_by_bound(lattice, members, [pos[a] for a in members]):
            if bound > 1:
                break
            if lattice.closest_norm(pos[a].sub(pos[b])) <= 1:
                ball_counts[a] += 1
                ball_counts[b] += 1
    max_ball = max(ball_counts) if ball_counts else 0
    return {
        "count": m,
        "narrow_classes": h_plus,
        "volume": volume,
        "max_unit_ball": max_ball,
        "bounds": results,
        "ok": (m <= results["sqrt3"]["sred_bound"]
               and max_ball <= results["sqrt3"]["ball_bound"]),
        "ok_coarse": (m <= results["3"]["sred_bound"]
                      and max_ball <= results["3"]["ball_bound"]),
    }
