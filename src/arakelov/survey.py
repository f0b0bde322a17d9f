"""Exhaustive census of strongly C-reduced divisors: enumeration through the
inverse-ideal norm bound, classification by (narrow) ideal class, positions
on the principal cycle, and verification of the separation and counting
bounds.

In a real quadratic field a class is a cycle of reduced ideals, and a
reduced ideal Z + Z x is its reduced root x = (p + sqrt(disc))/q. The
classification keys every entry by the integer pair (p, q) of its box
minimum's reduced ideal in one registry per field (divisors._class_of),
which principal_generator reads too; each class's cycle is walked once,
and only then are ideals built, to name it by its least ideal.

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
from mpmath.libmp import from_int, mpf_abs, mpf_div, mpf_log, mpf_sub, round_nearest

from .divisors import (
    CSquared,
    UnitLattice,
    _class_of,
    as_c_squared,
    is_reduced_usual,
    is_strongly_c_reduced,
    principal_generator,
    quadratic_units,
)
from .exact import frac_isqrt_floor, sign_surd
from .ideals import (
    FractionalIdeal,
    _basis_denominator,
    count_sublattices_up_to,
    enumerate_integral_ideals,
    invert,
    multiply,
    unit_ideal,
)
from .lattice import hermite_power
from .numfield import FieldElement, LogVector, NumberField, _ratio_mpf, fraction_to_mpf
from .units import LogLattice, _positive_associate, _sign_vector


class DeskScaleExceeded(RuntimeError):
    """The norm limit the census enumerates through implies too many
    candidate ideals."""

    def __init__(self, limit: int, estimate: int):
        self.limit = limit
        self.estimate = estimate
        super().__init__(
            f"census norm limit {limit} implies more than {estimate} candidate "
            f"sublattices; refusing at desk scale"
        )


CANDIDATE_CAP = 10 ** 6


@dataclass(frozen=True, slots=True)
class CensusEntry:
    """One strongly C-reduced divisor d(I), with tags filled by the
    classification pass. In real quadratic fields that pass also stores
    the generator's sign vector (bit p set when sigma_p(gen) < 0) and the
    entry's log position p(e) (see _surd_place), each computed once."""

    ideal: FractionalIdeal
    inv_norm: int
    usual_reduced: bool
    lambda1_sq: Fraction
    class_tag: str | None = None
    narrow_tag: str | None = None
    generator: FieldElement | None = None
    signs: int | None = None
    log_position: LogVector | None = None


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
    invertible (in an order that is not Gorenstein) the two differ.

    In a monogenic order O = Z[alpha] (every quadratic order, and any order
    whose basis is unimodular over the power basis) they never differ, so
    only the Hermite window N(J) <= m = floor(sqrt(gamma_n^n |disc(O)|
    (C^2/n)^n)) is listed. Such an O is Gorenstein: its dual
    O^v = delta^-1 O under the trace form is invertible, delta = g'(alpha)
    for the minimal polynomial g of alpha. For an integral J,
    (O^v : J) = J^v, so (O : J) = delta J^v, and
    N(J^v) = N(O^v)/N(J) = 1/(|N(delta)| N(J)) gives N((O : J)) = 1/N(J).
    Every J past m then has gamma_n^n |disc(O)| N(I)^2 < (n/C^2)^n, and
    every J within it passes that test, ties included. Other orders list
    the whole bound and rely on the test after inversion."""
    c2 = as_c_squared(c)
    bound = sred_norm_bound(f, c2)
    cap = hermite_power(f.n) * abs(f.disc)
    need = (Fraction(f.n) / c2) ** f.n
    limit = bound
    if f.n == 2 or _basis_denominator(f) == 1:
        limit = min(bound, frac_isqrt_floor(cap / need))
    estimate = count_sublattices_up_to(f.n, limit, CANDIDATE_CAP)
    if estimate > CANDIDATE_CAP:
        raise DeskScaleExceeded(limit, CANDIDATE_CAP)
    entries = []
    for j in enumerate_integral_ideals(f, limit):
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

def classify_components(census: SredCensus, units: UnitLattice | None = None) -> SredCensus:
    """Fill ideal-class and narrow-class tags (quadratic fields).

    Every entry gets a generator relative to its class representative; the
    narrow tag appends whether that generator has a totally positive
    associate. Non-quadratic fields are returned untagged, and a census
    whose entries are all tagged is returned unchanged.

    Real quadratic entries are sorted through the field's class registry
    (divisors._class_of): the reduced root (p, q) of each entry's box
    minimum is looked up, a class is walked once when its first entry
    arrives, and the generator is a surd quotient carried as integer
    numerators, from which its signs and the entry's log position are read
    once (_surd_place), so no entry builds an ideal or inverts an element.
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
        tag, gen = _class_of(f, e.ideal, register=True)  # e.ideal = gen * rep
        signs, position = _surd_place(f, gen, e.ideal.norm())
        tp = _positive_associate(f, signs, unit_signs) is not None
        narrow = f"{tag}|tp" if tp else f"{tag}|ntp"
        out.append(replace(e, class_tag=tag, narrow_tag=narrow,
                           generator=f.from_surd_numerators(*gen), signs=signs,
                           log_position=position))
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
    d(O_F) sits at 0. It is (p_0 - p_1) / sqrt(2) for the entry's log
    position p = log|sigma(gen)| - log(N(I))/2 (_surd_place), whose shift
    cancels in the difference."""
    f = census.field
    if f.n != 2 or f.r1 != 2:
        raise ValueError("cycle positions require a real quadratic field")
    tagged = classify_components(census, units)
    ell = cycle_length(units)
    out = []
    with mp.workprec(f.prec):
        for e in tagged.entries:
            if e.class_tag == "principal":
                p0, p1 = e.log_position.values
                out.append((e, (p0 - p1) / mp.sqrt(2) % ell))
    return out


# ---------------------------------------------------------------------------
# Separation and counting bounds

def separation_delta(c2: Fraction, prec: int = 64, coarse: bool = False):
    """log(1 + sqrt(3)/(2C^2)); with coarse=True the sqrt(3) becomes 3."""
    with mp.workprec(prec):
        top = mpf(3) if coarse else mp.sqrt(3)
        return mp.log(1 + top / (2 * fraction_to_mpf(c2, prec)))


def _surd_place(f: NumberField, gen: tuple[int, int, int], norm: Fraction):
    """(signs, p) of a real quadratic entry whose generator is
    (A + B sqrt(disc))/m, gen = (A, B, m) with m > 0, and whose ideal has
    norm N(I): the exact sign vector (bit p set when sigma_p(gen) < 0) and
    the log position p = log|sigma(gen)| - (1/n) log N(I), for which
    d(I1) - d(I2) + (gen1/gen2) = (O_F, exp(p(e1) - p(e2))).

    The position rounds as f.embed(gen).abs().log() less the shift
    log(N(I))/n at the field's precision does, through libmp with no
    context switch: the embedding of NumberField._real_surd_embedding at
    prec + 32 and prec + 16 bits, then abs, log and the difference, each
    at prec; the shift's norm enters as fraction_to_mpf rounds it."""
    a, b, m = gen
    prec, disc = f.prec, f.disc
    signs = (sign_surd(a, b, disc) < 0) | (sign_surd(a, -b, disc) < 0) << 1
    rnd = round_nearest
    log_norm = mpf_log(_ratio_mpf(norm.numerator, norm.denominator, prec), prec, rnd)
    shift = mpf_div(log_norm, from_int(f.n), prec, rnd)
    vals = tuple(mp.make_mpf(mpf_sub(mpf_log(mpf_abs(v, prec, rnd), prec, rnd), shift, prec, rnd))
                 for v in f._real_surd_embedding(a, b, m, prec))
    return signs, LogVector(vals, f.degs, prec)


def _pairs_by_bound(lattice: LogLattice, members: list, points: list[LogVector]):
    """(bound, a, b) for the pairs of members, a before b, by ascending
    lower bound on the distance of points[a] - points[b]; see
    LogLattice.pairs_by_bound."""
    for bound, i, j in lattice.pairs_by_bound(points):
        yield bound, members[i], members[j]


def verify_separation(census: SredCensus, c, units: UnitLattice) -> dict:
    """Pairwise oriented distances of same-narrow-component entries against
    the separation constant; failures are reported, not silenced.

    Each entry's log position and sign vector are those the
    classification computed once (_surd_place). A pair's target is the
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
            groups.setdefault(e.narrow_tag, []).append((e, e.log_position, e.signs))
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
    pos = [e.log_position for e in ents]
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
