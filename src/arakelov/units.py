"""Unit lattices: fundamental units of real quadratic fields via continued
fractions, totally positive subgroups, and closest-vector searches in the
logarithmic embedding used by the class-group distances.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from math import isqrt

from mpmath import mp

from .exact import cf_cycle
from .lattice import _fincke_pohst, _ldl
from .numfield import FieldElement, LogVector, NumberField


@dataclass(frozen=True, slots=True)
class UnitLattice:
    """Logarithmic lattice of a set of fundamental units.

    `generators` span the free part of the unit group; `totally_positive`
    generate the subgroup positive at every real place (up to sign)."""

    field: NumberField
    generators: tuple[FieldElement, ...]
    totally_positive: tuple[FieldElement, ...]

    def __post_init__(self):
        f, r = self.field, len(self.generators)
        if r != f.r1 + f.r2 - 1:
            raise UnitsUnavailable(
                f"{r} unit{'' if r == 1 else 's'} supplied, "
                f"the unit rank is {f.r1 + f.r2 - 1}")

    def rank(self) -> int:
        return len(self.generators)

    def log_embeddings(self, tp_only: bool = False) -> list[LogVector]:
        gens = self.totally_positive if tp_only else self.generators
        return [self.field.embed(g).abs().log() for g in gens]

    def regulator(self):
        """Covolume of the log lattice; for rank one, log of the larger
        embedding of the fundamental unit; for rank r >= 2,
        |det(deg_i log|sigma_i(eps_j)|)| over the first r places."""
        return _log_covolume(self.field, self.log_embeddings())

    def tp_regulator(self):
        """Covolume of the log lattice of the totally positive generators,
        by the same rule as regulator()."""
        return _log_covolume(self.field, self.log_embeddings(tp_only=True))


def _log_covolume(f: NumberField, logs: list[LogVector]):
    if not logs:
        return mp.mpf(0)
    if len(logs) == 1:
        v = logs[0]
        with mp.workprec(v.prec):
            return abs(v.values[0])
    r = len(logs)
    with mp.workprec(f.prec):
        m = mp.matrix([[v.degs[i] * v.values[i] for v in logs] for i in range(r)])
        return abs(mp.det(m))


class UnitsUnavailable(ValueError):
    pass


def _quadratic_root(f: NumberField, x: FieldElement) -> tuple[int, int]:
    """(p, q) with Z + Z x = Z + Z (p + sqrt(f.disc))/q, q > 0 and the
    root's conjugate in (-1, 0), sqrt(f.disc) positive at place 0: the root
    is +-x plus an integer. p and q are integers, with q | f.disc - p^2,
    whenever Z + Z x is a module over the order."""
    a, b = f.surd(x)
    if b < 0:
        a, b = -a, -b
    p, q = a / b, 1 / b
    assert p.denominator == q.denominator == 1, "Z + Z x is not a module over the order"
    p, q = int(p), int(q)
    return p + (isqrt(f.disc) - p) // q * q, q


def quadratic_units(f: NumberField) -> UnitLattice:
    """Unit lattice of a quadratic field; the fundamental unit of a real
    field comes from the continued fraction of the order generator.

    Imaginary quadratic fields get the trivial (rank zero) lattice. Other
    degrees must supply their units explicitly.
    """
    if f.n != 2:
        raise UnitsUnavailable("units are computed only for quadratic fields")
    if f.r2 == 1:
        return UnitLattice(f, (), ())
    w = f.element([0, 1])
    p, q = _quadratic_root(f, w)
    *_, (_, _, u, v) = cf_cycle(p, q, f.disc)
    eps = f.from_surd(u + Fraction(v * p, q), Fraction(v, q))
    assert abs(eps.norm()) == 1, "continued fraction did not produce a unit"
    if f.surd(w)[1] < 0:  # w lies below its conjugate at place 0
        eps = eps.inverse()  # the unit exceeds 1 where w exceeds its conjugate
    return UnitLattice(f, (eps,), _totally_positive_generators(f, (eps,)))


def unit_lattice_from_elements(f: NumberField, elements: list[FieldElement]) -> UnitLattice:
    """Unit lattice from user-supplied fundamental units (any degree): one
    per unit rank r1 + r2 - 1, each of norm +-1. A real quadratic field's
    unit must be +-eps^(+-1) for the fundamental unit eps of
    quadratic_units; other degrees are not checked for index."""
    for e in elements:
        if abs(e.norm()) != 1:
            raise UnitsUnavailable("supplied element is not a unit (|norm| != 1)")
    if f.n == 2 and f.r1 == 2 and len(elements) == 1:
        eps = quadratic_units(f).generators[0]
        inv = eps.inverse()
        if elements[0] not in (eps, -eps, inv, -inv):
            raise UnitsUnavailable(
                "supplied unit is not fundamental: it is not +-eps^(+-1) for the "
                "fundamental unit eps of the order")
    gens = tuple(elements)
    tp = _totally_positive_generators(f, gens)
    return UnitLattice(f, gens, tp)


def _sign_vector(f: NumberField, x: FieldElement) -> int:
    """Exact signs of x at the real places over GF(2): bit p is set when
    sigma_p(x) < 0."""
    return sum(1 << p for p in range(f.r1) if f.sign_at_place(x, p) < 0)


def _positive_associate(f: NumberField, signs: int,
                        unit_signs: list[int]) -> tuple[int, int] | None:
    """(s, mask) with s * g * prod(eps_i, bit i set in mask) totally positive,
    for g with sign vector `signs` and units eps_i with `unit_signs`, or None.
    Tries g, -g, g eps_1, -g eps_1, ..., then products of two or more units."""
    minus_one = (1 << f.r1) - 1
    for mask in sorted(range(1 << len(unit_signs)), key=lambda m: (m & (m - 1) != 0, m)):
        sv = signs
        for i, u in enumerate(unit_signs):
            if mask >> i & 1:
                sv ^= u
        if sv in (0, minus_one):
            return (1 if sv == 0 else -1), mask
    return None


def _unit_product(f: NumberField, units, s: int, mask: int) -> FieldElement:
    out = f.one() if s > 0 else -f.one()
    for i, eps in enumerate(units):
        if mask >> i & 1:
            out = out * eps
    return out


def _totally_positive_generators(f: NumberField,
                                 gens: tuple[FieldElement, ...]) -> tuple[FieldElement, ...]:
    """Basis of the units spanned by gens that are totally positive up to
    sign: the kernel of the sign map over GF(2) modulo the sign of -1.
    eps_i enters as eps_i^2, or as +-eps_i times earlier generators whose
    squares entered when that is totally positive; the exponent matrix is
    triangular with 1s and 2s on its diagonal, so the kernel is spanned."""
    out: list[FieldElement] = []
    squared: list[int] = []
    signs = [_sign_vector(f, g) for g in gens]
    for i, g in enumerate(gens):
        found = _positive_associate(f, signs[i], [signs[j] for j in squared])
        if found is None:
            squared.append(i)
            out.append(g * g)
        else:
            out.append(g * _unit_product(f, [gens[j] for j in squared], *found))
    return tuple(out)


def totally_positive_adjust(f: NumberField, g: FieldElement,
                            units: UnitLattice) -> FieldElement | None:
    """A totally positive associate of g, or None when no sign combination
    of units reaches the all-positive pattern."""
    found = _positive_associate(f, _sign_vector(f, g),
                                [_sign_vector(f, e) for e in units.generators])
    return None if found is None else g * _unit_product(f, units.generators, *found)


def _slack(prec: int):
    """2^(-prec/2): the relative and absolute margin that covers the
    rounding of a closest-vector search at precision prec."""
    return mp.mpf(2) ** (-(prec // 2))


class LogLattice:
    """The lattice spanned by log vectors under the degree-weighted norm,
    with its Gram matrix G = L D L^T factorised once, for closest-vector
    searches against many targets.

    closest_norm(t) is min over integer a of ||t + sum a_i g_i||. The real
    minimiser is c = -G^-1 (<g_i, t>)_i, read off a projection stored with
    the factorisation. The search seeds with Babai's rounding a0 of c, then
    Fincke-Pohst enumerates every a with (a - c)^T G (a - c) at most
    Babai's own value, widened by a relative and an absolute 2^(-prec/2)
    that cover the rounding of c and of the factorisation at the working
    precision. The true minimiser lies inside that ellipsoid in any rank,
    so the result is the certified closest vector; in rank one at most two
    candidates are evaluated.

    pairs_by_bound(points) orders the pairs of many targets by a lower
    bound on their distance, so that a caller runs closest_norm only on the
    pairs that the bound cannot place beyond its radius."""

    def __init__(self, gens: list[LogVector]):
        self.gens = tuple(gens)
        self.prec = max((g.prec for g in gens), default=0)
        r = len(gens)
        if not r:
            return
        with mp.workprec(self.prec):
            gram = [[sum(d * a * b for a, b, d in zip(gi.values, gj.values, gi.degs))
                     for gj in gens] for gi in gens]
            d, l = self._d, self._l = _ldl(gram)
            # column p of G^-1 B, where B[i][p] = deg_p g_i[p]
            cols = []
            for p in range(len(gens[0].values)):
                x = [g.degs[p] * g.values[p] for g in gens]
                for i in range(r):
                    x[i] -= sum(l[i][k] * x[k] for k in range(i))
                x = [xi / di for xi, di in zip(x, d)]
                for i in reversed(range(r)):
                    x[i] -= sum(l[k][i] * x[k] for k in range(i + 1, r))
                cols.append(x)
            self._proj = [[col[i] for col in cols] for i in range(r)]

    def _minimiser(self, target: LogVector) -> list:
        """c = -G^-1 (<g_i, target>)_i, the real coefficients at which
        ||target + sum c_i g_i|| is least; call inside the working
        precision. c is linear in the target."""
        return [-sum(p * tv for p, tv in zip(row, target.values)) for row in self._proj]

    def closest_norm(self, target: LogVector):
        """min over integer a of || target + sum a_i gens_i ||."""
        gens = self.gens
        if not gens:
            return target.norm()
        r = len(gens)
        d, l = self._d, self._l
        prec = max(target.prec, self.prec)
        with mp.workprec(prec):
            c = self._minimiser(target)
            babai = [int(mp.floor(ci + 0.5)) for ci in c]
            # Babai's value (a - c)^T G (a - c) = sum_i d_i (a_i - mid_i)^2,
            # summed as _fincke_pohst sums it, so Babai's point is visited
            used = 0
            for i in reversed(range(r)):
                mid = c[i] - sum(l[k][i] * (babai[k] - c[k]) for k in range(i + 1, r))
                used += d[i] * (babai[i] - mid) ** 2
            slack = _slack(prec)
            radius = used * (1 + slack) + slack
            best = None
            for _, coeffs in _fincke_pohst(d, l, c, radius):
                vec = list(target.values)
                for i in range(r):
                    if coeffs[i]:
                        vec = [v + coeffs[i] * gv for v, gv in zip(vec, gens[i].values)]
                norm_sq = sum(dg * v * v for v, dg in zip(vec, target.degs))
                if best is None or norm_sq < best:
                    best = norm_sq
            # sqrt is monotone, so this is the least of the candidates' norms
            return mp.sqrt(best)

    def pairs_by_bound(self, points: list[LogVector]):
        """Yield (bound, i, j) for every pair i < j of points, lazily and in
        ascending order of bound, where bound is at most
        closest_norm(points[i].sub(points[j])); a caller that needs the
        pairs within a radius stops at the first bound beyond it.

        The bound. c is linear in the target, so the pair's minimiser is
        c(points[i]) - c(points[j]), one coordinate step per point. With
        G = L D L^T every integer a has (a - c)^T G (a - c) >=
        d_{r-1} dist(c_{r-1}, Z)^2, the outermost level of Fincke-Pohst, so
        sqrt(d_{r-1}) dist(c_{r-1}, Z) is a lower bound on the distance in
        any rank; in rank one it is the distance when the target lies in
        the span of the generators. In rank zero it is 0.

        Its error. The keys c_{r-1} mod 1 are integers in units of 2^-prec,
        so the walks around the circle below are exact. Rounded are c (a
        few units of 2^-prec times |c| and the condition of G), each key's
        last unit, and sqrt(d_{r-1}) with its product: an error of order
        2^-prec sqrt(d_{r-1}) (|c| + 1). The bound yielded is the computed
        one less closest_norm's own slack, 2^(-prec/2) relative and
        absolute, which dominates that error as it dominates the rounding
        of closest_norm (unit log lattices are far from
        2^(prec/2)-ill-conditioned); so a pair whose yielded bound exceeds
        a radius has a closest_norm beyond that radius too.

        The search. The keys are sorted once around the circle R/Z; from
        every key two walks step outward, right while the gap is at most
        half the circle and left while it is less, so each other key is met
        once at its circular distance. A heap holds each walk's next gap
        and yields the pairs by it, each from its lower index. Stopping at
        a radius costs O((m + k) log m) for m points and k pairs met."""
        m = len(points)
        prec = max([self.prec] + [p.prec for p in points])
        one = 1 << prec
        with mp.workprec(prec):
            if self.gens:
                scale = mp.ldexp(mp.sqrt(self._d[-1]), -prec)
                keys = [int(mp.floor(mp.ldexp(self._minimiser(p)[-1], prec))) % one
                        for p in points]
            else:
                scale, keys = mp.zero, [0] * m
            slack = _slack(prec)
        order = sorted(range(m), key=keys.__getitem__)
        # the circle unrolled over three turns: every key t in [0, one) finds
        # the keys within half a turn on either side without wrapping
        ring = ([keys[j] - one for j in order] + [keys[j] for j in order]
                + [keys[j] + one for j in order])
        heap = []
        for i, t in enumerate(keys):
            start = bisect_left(ring, t, m, 2 * m)
            _push_walk(heap, ring, one, i, t, start, 1)
            _push_walk(heap, ring, one, i, t, start - 1, -1)
        while heap:
            gap, i, q, step = heappop(heap)
            _push_walk(heap, ring, one, i, keys[i], q + step, step)
            j = order[q % m]
            if i < j:
                with mp.workprec(prec):
                    bound = (scale * gap - slack) / (1 + slack)
                yield bound, i, j


def _push_walk(heap, ring, one: int, i: int, t: int, q: int, step: int):
    """Push the walk of key t on to ring[q] when that key lies on the walk's
    side of the circle of circumference one: up to half a turn to the right
    (step 1), or short of half a turn to the left (step -1)."""
    gap = (ring[q] - t) * step
    if 2 * gap < one or (2 * gap == one and step > 0):
        heappush(heap, (gap, i, q, step))


def min_log_norm_modulo(target: LogVector, gens: list[LogVector]):
    """min over integer combinations a of || target + sum a_i gens_i ||;
    see LogLattice, which callers with many targets build once."""
    return LogLattice(gens).closest_norm(target)
