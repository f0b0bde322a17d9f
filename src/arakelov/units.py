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

from .exact import cf_cycle, mat_inv
from .lattice import _fincke_pohst, _int_gram_schmidt, _int_levels, _int_qform
from .numfield import (
    FieldElement,
    LogVector,
    NumberField,
    fraction_to_mpf,
    mpf_mantissas,
    mpf_to_fraction,
)


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
        """Covolume of the log lattice, |det(deg_i log|sigma_i(eps_j)|)| over
        the first r places in every rank r (0 in rank zero): in rank one
        deg_0 |log|sigma_0(eps)||, which a complex place 0 doubles."""
        return _regulator_error(self.field, self.log_embeddings())[0]

    def tp_regulator(self):
        """Covolume of the log lattice of the totally positive generators,
        by the same rule as regulator()."""
        return _regulator_error(self.field, self.log_embeddings(tp_only=True))[0]


class UnitsUnavailable(ValueError):
    pass


def _quadratic_root(f: NumberField, x: FieldElement) -> tuple[int, int]:
    """(p, q) with Z + Z x = Z + Z (p + sqrt(f.disc))/q, q > 0 and the
    root's conjugate in (-1, 0), sqrt(f.disc) positive at place 0: the root
    is +-x plus an integer. p and q are integers, with q | f.disc - p^2,
    whenever Z + Z x is a module over the order."""
    m, ((a, b),) = f.surd_numerators([x])
    return _surd_root(a, b, m, f.disc)


def _surd_root(a: int, b: int, m: int, disc: int) -> tuple[int, int]:
    """_quadratic_root of x = (a + b sqrt(disc)) / m, m > 0: +-x is
    (p' + sqrt(disc)) / q with p' = a / b and q = m / b for the sign that
    makes b positive, and p' moves by a multiple of q into
    (sqrt(disc) - q, sqrt(disc))."""
    if b < 0:
        a, b = -a, -b
    p, rp = divmod(a, b)
    q, rq = divmod(m, b)
    assert rp == rq == 0, "Z + Z x is not a module over the order"
    return p + (isqrt(disc) - p) // q * q, q


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
    quadratic_units; other degrees must be multiplicatively independent
    (_dependent, tested only on the right count, which UnitLattice checks)
    and are not checked for index."""
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
    elif elements and len(elements) == f.r1 + f.r2 - 1 and _dependent(f, elements):
        raise UnitsUnavailable("supplied units are multiplicatively dependent")
    gens = tuple(elements)
    tp = _totally_positive_generators(f, gens)
    return UnitLattice(f, gens, tp)


def _dependent(f: NumberField, units: list[FieldElement]) -> bool:
    """Whether r units, r the unit rank of f, are multiplicatively dependent.

    An independent system has regulator at least R_F >= 0.2052 (Friedman,
    "Analytic formulas for the regulator of a number field", Invent. Math.
    1989), a dependent one regulator 0, and 1/5 lies between. In rank one
    the regulator is deg_0 |log |sigma_0(u)||, below 1/5 exactly when
    v = u^deg_0 has 5/6 < |sigma_0(v)| < 6/5 (log 6/5 < 1/5), which
    cmp_abs_sq decides exactly. In higher rank the system is dependent when
    its regulator plus the error bound of _regulator_error is below 1/5.
    """
    if len(units) == 1:
        v = units[0] ** f.degs[0]
        return (f.cmp_abs_sq(v, 0, Fraction(36, 25)) < 0
                and f.cmp_abs_sq(v, 0, Fraction(25, 36)) > 0)
    reg, err = _regulator_error(f, [f.embed(u).abs().log() for u in units])
    return mpf_to_fraction(reg + err) < Fraction(1, 5)


def _regulator_error(f: NumberField, logs: list[LogVector]):
    """(R, e) for the log vectors of r units u_j at the field precision p:
    R = |det(deg_i log|sigma_i(u_j)|)|_{i, j < r} and a bound
    e >= |R - R_true|; (0, 0) for no units.

    embed and abs leave each |sigma_i(u_j)| within a relative 2^(2-p), and
    log adds a relative 2^-p, so each log L is within 2^(3-p) (1 + |L|) of
    its true value and each entry m = deg_i L within 2^(3-p) (deg_i + |m|):
    summed over row i, a bound err_i on its 1-norm error. Each term of the
    multilinear expansion of det(M + E) - det(M) is bounded by Hadamard's
    inequality, so the rows' 1-norms N_i give
    |det(M + E) - det(M)| <= prod (N_i + err_i) - prod N_i. The determinant
    itself runs 32 bits above p, so its rounding stays below 2^-p prod N_i.
    """
    if not logs:
        return mp.zero, mp.zero
    r, p = len(logs), f.prec
    with mp.workprec(p + 32):
        tiny = mp.ldexp(1, -p)
        rows = [[logs[j].degs[i] * logs[j].values[i] for j in range(r)] for i in range(r)]
        norms = [sum(abs(x) for x in row) for row in rows]
        errs = [sum(8 * tiny * (logs[0].degs[i] + abs(x)) for x in row)
                for i, row in enumerate(rows)]
        hadamard = mp.fprod(norms)
        reg = abs(mp.det(mp.matrix(rows)))
        err = mp.fprod(n + e for n, e in zip(norms, errs)) - hadamard + tiny * hadamard
    return reg, err


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


def _slack_bits(prec: int) -> int:
    """h with 2^-h = 2^(-prec/2): the relative and absolute margin that
    covers the rounding of a closest-vector search at precision prec."""
    return prec // 2


class LogLattice:
    """The lattice spanned by log vectors under the degree-weighted norm,
    for closest-vector searches against many targets. Its Gram G is kept at
    the exact binary value of the sums at the working precision, as one
    integer matrix over a power of two, G = gram / 2^k, with the integral
    Gram-Schmidt data (d, lam) of gram (lattice._int_gram_schmidt).

    closest_norm(t) is min over integer a of ||t + sum a_i g_i||. The real
    minimiser is c = -G^-1 (<g_i, t>)_i, read off the projection G^-1 B
    (exact.mat_inv) stored with the Gram and taken at its exact binary
    value, c = C / 2^s with integer mantissas C. The search seeds with
    Babai's rounding a0 of c (Babai, Combinatorica 1986), valued as
    (a0 - c)^T G (a0 - c) on the integer Gram (_int_qform), then the one
    Fincke-Pohst loop enumerates every a with (a - c)^T G (a - c) at most
    that value, widened by a relative and an absolute 2^(-prec/2). It walks
    the integer levels of gram (_int_levels) about c, every value scaled by
    m 2^(k + 2s) to an integer, so the radius is floored without loss and
    the search adds no rounding: the widening covers only the rounding of
    c and of the Gram's sums. The true minimiser lies inside that ellipsoid
    in any rank, so the result is the certified closest vector; in rank one
    at most two candidates are evaluated, each valued at the working
    precision.

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
            sums = [sum(d * a * b for a, b, d in zip(gi.values, gj.values, gi.degs))
                    for gi in gens for gj in gens]
        flat, k = mpf_mantissas(sums)
        gram = [flat[i * r:(i + 1) * r] for i in range(r)]
        d, self._lam = _int_gram_schmidt(gram)
        self._gram, self._k = gram, k
        self._m, self._levels = _int_levels(d)
        # the last squared Gram-Schmidt length of G, d_r / (d_r-1 2^k)
        self._last = Fraction(d[r], d[r - 1] << k)
        # G^-1 B, where B[i][p] = deg_p g_i[p], exact
        inv = mat_inv([[Fraction(x, 1 << k) for x in row] for row in gram])
        b = [[dg * mpf_to_fraction(v) for v, dg in zip(g.values, g.degs)] for g in gens]
        self._proj = [[fraction_to_mpf(sum(x * bk[p] for x, bk in zip(row, b)), self.prec)
                       for p in range(len(b[0]))] for row in inv]

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
        prec = max(target.prec, self.prec)
        with mp.workprec(prec):
            centre, s = mpf_mantissas(self._minimiser(target))
        # c = centre / D, D = 2^s; Babai's a0 = floor(c + 1/2), and
        # diff = D (a0 - c), so (a0 - c)^T G (a0 - c) = used / 2^(k + 2s)
        half = (1 << s) >> 1
        diff = [((x + half) >> s << s) - x for x in centre]
        used = _int_qform(self._gram, diff)
        # the radius used (1 + 2^-h) + 2^-h, times m 2^(k + 2s) and
        # floored: the walk's values are integers
        h = _slack_bits(prec)
        bound = self._m * (used * ((1 << h) + 1) + (1 << (self._k + 2 * s))) >> h
        # the levels about c: e_i and lam times D, and the shifts
        # e_i C_i + sum_{k > i} lam_ki C_k over D
        levels = [(c, e << s) for c, e in self._levels]
        lam = [[x << s for x in row] for row in self._lam]
        shift = [e * centre[i] + sum(self._lam[k][i] * centre[k] for k in range(i + 1, r))
                 for i, (_, e) in enumerate(self._levels)]
        with mp.workprec(prec):
            best = None
            for _, coeffs in _fincke_pohst(levels, lam, shift, bound):
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
        last unit, and sqrt(d_{r-1}) of the exact d_{r-1} with its
        product: an error of order
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
                scale = mp.ldexp(mp.sqrt(fraction_to_mpf(self._last, prec)), -prec)
                keys = [int(mp.floor(mp.ldexp(self._minimiser(p)[-1], prec))) % one
                        for p in points]
            else:
                scale, keys = mp.zero, [0] * m
            slack = mp.ldexp(1, -_slack_bits(prec))
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
