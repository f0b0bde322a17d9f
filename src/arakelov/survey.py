"""Exhaustive census of strongly C-reduced divisors: enumeration through the
inverse-ideal norm bound, classification by (narrow) ideal class, positions
on the principal cycle, and verification of the separation and counting
bounds.

The separation constant is log(1 + sqrt(3)/(2 C^2)); the coarser variant
with 3 in place of sqrt(3) appears in some counting statements and is
evaluated informationally alongside it, never asserted on its own.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from mpmath import mp, mpf

from .divisors import (
    ArakelovDivisor,
    CSquared,
    UnitLattice,
    _principal_cycle,
    as_c_squared,
    divisor_d,
    is_reduced_usual,
    is_strongly_c_reduced,
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
    unit_ideal,
)
from .numfield import FieldElement, NumberField, fraction_to_mpf
from .units import min_log_norm_modulo, totally_positive_adjust


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


@dataclass(frozen=True)
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
    position: object | None = None  # mpf in [0, cycle length)

    def divisor(self) -> ArakelovDivisor:
        return divisor_d(self.ideal)


@dataclass(frozen=True)
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
    integral ideals within the completeness norm bound."""
    c2 = as_c_squared(c)
    bound = sred_norm_bound(f, c2)
    estimate = count_sublattices_up_to(f.n, bound, CANDIDATE_CAP)
    if estimate > CANDIDATE_CAP:
        raise DeskScaleExceeded(bound, CANDIDATE_CAP)
    entries = []
    for j in enumerate_integral_ideals(f, bound):
        i = invert(j)
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
    associate. Non-quadratic fields are returned untagged.
    """
    f = census.field
    if f.n != 2:
        return census
    if f.r2 == 1:
        return _classify_imaginary(census)
    if units is None:
        units = quadratic_units(f)
    out = []
    for e in census.entries:
        j_red, g = to_reduced(f, e.ideal)
        tag, gam = _locate_class(f, j_red)
        gen = g * gam.inverse()  # e.ideal = gen * rep
        adjusted = totally_positive_adjust(f, gen, units)
        narrow = f"{tag}|tp" if adjusted is not None else f"{tag}|ntp"
        out.append(replace(e, class_tag=tag, narrow_tag=narrow, generator=gen))
    return replace(census, entries=tuple(out))


def _classify_imaginary(census: SredCensus) -> SredCensus:
    from .divisors import principal_generator

    f = census.field
    reps: list[tuple[FractionalIdeal, str]] = []
    out = []
    for e in census.entries:
        tag = None
        gen = None
        for rep, rep_tag in reps:
            g = principal_generator(f, _quotient(e.ideal, rep))
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


def _quotient(i: FractionalIdeal, j: FractionalIdeal) -> FractionalIdeal:
    from .ideals import multiply

    return multiply(i, invert(j))


# ---------------------------------------------------------------------------
# Cycle positions

def cycle_length(units: UnitLattice):
    """Circumference of the principal cycle: sqrt(2) times the regulator."""
    r = units.regulator()
    with mp.workprec(units.field.prec):
        return mp.sqrt(2) * r


def cycle_positions(census: SredCensus, units: UnitLattice):
    """Positions of the principal-class entries along the unit circle of the
    class group, in [0, cycle length); the base point d(O_F) sits at 0."""
    f = census.field
    if f.n != 2 or f.r1 != 2:
        raise ValueError("cycle positions require a real quadratic field")
    need_tags = any(e.class_tag is None for e in census.entries)
    tagged = classify_components(census, units) if need_tags else census
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
        out.append((replace(e, position=pos), pos))
    return out


# ---------------------------------------------------------------------------
# Separation and counting bounds

def separation_delta(c2: Fraction, prec: int = 64, coarse: bool = False):
    """log(1 + sqrt(3)/(2C^2)); with coarse=True the sqrt(3) becomes 3."""
    with mp.workprec(prec):
        top = mpf(3) if coarse else mp.sqrt(3)
        return mp.log(1 + top / (2 * fraction_to_mpf(c2, prec)))


def _pair_weight_log(f: NumberField, e1: CensusEntry, e2: CensusEntry,
                     g: FieldElement):
    """log v with d(I1) - d(I2) + (g) = (O_F, v)."""
    n1, n2 = e1.ideal.norm(), e2.ideal.norm()
    gv = f.embed(g).abs()
    with mp.workprec(gv.prec):
        ratio = fraction_to_mpf(n1 / n2, gv.prec)
        scale = ratio ** (-mpf(1) / f.n)
        vals = tuple(scale * x for x in gv.values)
        logs = tuple(mp.log(x) for x in vals)
    from .numfield import LogVector

    return LogVector(logs, f.degs, gv.prec)


def verify_separation(census: SredCensus, c, units: UnitLattice) -> dict:
    """Pairwise oriented distances of same-narrow-component entries against
    the separation constant; failures are reported, not silenced."""
    c2 = as_c_squared(c)
    if c2 != census.c_squared:
        raise ValueError("C parameter does not match the census")
    f = census.field
    tagged = classify_components(census, units) if any(
        e.class_tag is None for e in census.entries) else census
    delta = separation_delta(c2, f.prec)
    groups: dict[str, list[CensusEntry]] = {}
    for e in tagged.entries:
        if e.narrow_tag is not None:
            groups.setdefault(e.narrow_tag, []).append(e)
    min_gap = None
    pairs = 0
    violations = []
    tp_logs = units.log_embeddings(tp_only=True)
    for tag, group in sorted(groups.items()):
        for a in range(len(group)):
            for b in range(a + 1, len(group)):
                e1, e2 = group[a], group[b]
                g = e1.generator / e2.generator
                gp = totally_positive_adjust(f, g, units)
                if gp is None:
                    continue  # same wide class but different narrow component
                target = _pair_weight_log(f, e1, e2, gp)
                dist = min_log_norm_modulo(target, tp_logs)
                pairs += 1
                if min_gap is None or dist < min_gap:
                    min_gap = dist
                if dist < delta - mpf(10) ** (-9):
                    violations.append((e1, e2, dist))
    return {
        "delta": delta,
        "delta_coarse": separation_delta(c2, f.prec, coarse=True),
        "pairs": pairs,
        "min_gap": min_gap,
        "violations": violations,
        "ok": not violations,
    }


def _pic_pairwise(f: NumberField, tagged: SredCensus, units: UnitLattice):
    """Matrix of same-class pic distances between census entries."""
    ents = tagged.entries
    dists: dict[tuple[int, int], object] = {}
    logs = units.log_embeddings()
    for a in range(len(ents)):
        for b in range(a + 1, len(ents)):
            e1, e2 = ents[a], ents[b]
            if e1.class_tag != e2.class_tag:
                continue
            g = e1.generator / e2.generator
            target = _pair_weight_log(f, e1, e2, g)
            dists[(a, b)] = min_log_norm_modulo(target, logs)
    return dists


def verify_counts(census: SredCensus, units: UnitLattice) -> dict:
    """Check the census size and the unit-ball counts against the volume
    bounds; both the sqrt(3) and the coarser 3 constants are evaluated, the
    sqrt(3) one is authoritative."""
    f = census.field
    if f.n != 2 or f.r1 != 2:
        raise ValueError("count verification requires a real quadratic field")
    tagged = classify_components(census, units) if any(
        e.class_tag is None for e in census.entries) else census
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
    dists = _pic_pairwise(f, tagged, units)
    m = len(tagged.entries)
    ball_counts = []
    for center in range(m):
        cnt = 1
        for other in range(m):
            if other == center:
                continue
            key = (min(center, other), max(center, other))
            if key in dists and dists[key] <= 1:
                cnt += 1
        ball_counts.append(cnt)
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
