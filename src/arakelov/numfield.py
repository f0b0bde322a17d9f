"""Number field core: elements, embeddings, traces and norms, and the
archimedean algebra with its degree-weighted metric.

Exact data (rational coordinates, structure constants, discriminant) is kept
in Fractions. sigma(x) has one evaluation per field kind, each with a proven
error bound: quadratic fields use the pair (a, b) of x = a + b sqrt(disc)
that NumberField.surd gives, every other field the centre of the certified
rectangle of embed_interval (interval Horner on integer numerators over
certified root boxes). Comparisons that land too close to a decision
boundary escalate the precision under the one policy of _escalate; quadratic
signs and comparisons are exact on the surd pair and never escalate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpc, mpf
from mpmath.libmp import from_rational, round_nearest

from .exact import (
    mat_det,
    mat_inv,
    mat_vec,
    sign_surd,
    sturm_real_root_count,
)

DEFAULT_PREC = 128
MAX_PREC = 4096

class PrecisionExhausted(RuntimeError):
    """A certified comparison could not be decided below the precision cap."""


def _escalate(attempt, start: int, what: str):
    """The precision policy: attempt(p) for p = start, 2 start, 4 start, ...
    up to MAX_PREC, returning the first result that is not None; past the
    cap, PrecisionExhausted(what)."""
    prec = start
    while prec <= MAX_PREC:
        result = attempt(prec)
        if result is not None:
            return result
        prec *= 2
    raise PrecisionExhausted(what)


def mpf_to_fraction(x) -> Fraction:
    """Exact rational value of an mpf (binary floats are exact rationals)."""
    if x == 0:
        return Fraction(0)
    sign, man, exp, _ = x._mpf_
    val = Fraction(man) * (Fraction(2) ** exp)
    return -val if sign else val


def fraction_to_mpf(q: Fraction, prec: int):
    with mp.workprec(prec):
        return mpf(q.numerator) / q.denominator


# ---------------------------------------------------------------------------
# Interval arithmetic on integer endpoints (numerators over one denominator)

def _iv_cmp(a: tuple[int, int], b: tuple[int, int]) -> int | None:
    """Certified sign of x - y for x in a and y in b: +-1 when the intervals
    are disjoint, None (undecided) when they overlap."""
    if a[0] > b[1]:
        return 1
    if a[1] < b[0]:
        return -1
    return None


def _iv_sq(a: tuple[int, int]) -> tuple[int, int]:
    if a[0] >= 0:
        return (a[0] * a[0], a[1] * a[1])
    if a[1] <= 0:
        return (a[1] * a[1], a[0] * a[0])
    return (0, max(a[0] * a[0], a[1] * a[1]))


# ---------------------------------------------------------------------------
# Exceptions for field construction

class FieldConstructionError(ValueError):
    pass


def _is_rational_root_free(coeffs: list[int]) -> bool:
    c0, lead = coeffs[0], coeffs[-1]
    if c0 == 0:
        return False
    for p in _divisors(abs(c0)):
        for q in _divisors(abs(lead)):
            for num in (p, -p):
                if math.gcd(abs(num), q) != 1:
                    continue
                # evaluate at num/q exactly
                x = Fraction(num, q)
                val = Fraction(0)
                for c in reversed(coeffs):
                    val = val * x + c
                if val == 0:
                    return False
    return True


def _divisors(m: int) -> list[int]:
    out = []
    d = 1
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            if d != m // d:
                out.append(m // d)
        d += 1
    return sorted(out)


def _is_irreducible(coeffs: list[int]) -> bool:
    deg = len(coeffs) - 1
    if deg <= 1:
        return deg == 1
    if not _is_rational_root_free(coeffs):
        return False
    if deg <= 3:
        return True  # no rational root suffices up to cubics
    from sympy import Poly, Symbol  # deferred: only needed for quartic and up

    x = Symbol("x")
    return Poly(list(reversed(coeffs)), x).is_irreducible


def _is_squarefree_int(d: int) -> bool:
    d = abs(d)
    if d in (0,):
        return False
    p = 2
    while p * p <= d:
        if d % (p * p) == 0:
            return False
        while d % p == 0:
            d //= p
        p += 1
    return True


# ---------------------------------------------------------------------------
# Archimedean vectors

@dataclass(frozen=True, slots=True)
class ArchVector:
    """Vector over the infinite places: signed values (embeddings) or
    positive magnitudes, with the place degrees for the weighted norm."""

    values: tuple
    degs: tuple[int, ...]
    prec: int = DEFAULT_PREC

    def norm_sq(self):
        with mp.workprec(self.prec):
            return sum(d * (abs(v) ** 2) for v, d in zip(self.values, self.degs))

    def norm(self):
        with mp.workprec(self.prec):
            return mp.sqrt(self.norm_sq())

    def mul(self, other: "ArchVector") -> "ArchVector":
        prec = max(self.prec, other.prec)
        with mp.workprec(prec):
            vals = tuple(a * b for a, b in zip(self.values, other.values))
        return ArchVector(vals, self.degs, prec)

    def inv(self) -> "ArchVector":
        with mp.workprec(self.prec):
            vals = tuple(1 / v for v in self.values)
        return ArchVector(vals, self.degs, self.prec)

    def abs(self) -> "ArchVector":
        with mp.workprec(self.prec):
            vals = tuple(abs(v) for v in self.values)
        return ArchVector(vals, self.degs, self.prec)

    def scale(self, c) -> "ArchVector":
        with mp.workprec(self.prec):
            vals = tuple(v * c for v in self.values)
        return ArchVector(vals, self.degs, self.prec)

    def log(self) -> "LogVector":
        """Componentwise log of a positive vector."""
        with mp.workprec(self.prec):
            vals = tuple(mp.log(v) for v in self.values)
        return LogVector(vals, self.degs, self.prec)

    @staticmethod
    def constant(value, degs: tuple[int, ...], prec: int = DEFAULT_PREC) -> "ArchVector":
        with mp.workprec(prec):
            v = mpf(value) if not isinstance(value, Fraction) else fraction_to_mpf(value, prec)
        return ArchVector(tuple(v for _ in degs), degs, prec)


@dataclass(frozen=True, slots=True)
class LogVector:
    """Logarithms of archimedean magnitudes, one real entry per place."""

    values: tuple
    degs: tuple[int, ...]
    prec: int = DEFAULT_PREC

    def norm_sq(self):
        with mp.workprec(self.prec):
            return sum(d * v * v for v, d in zip(self.values, self.degs))

    def norm(self):
        with mp.workprec(self.prec):
            return mp.sqrt(self.norm_sq())

    def add(self, other: "LogVector") -> "LogVector":
        prec = max(self.prec, other.prec)
        with mp.workprec(prec):
            vals = tuple(a + b for a, b in zip(self.values, other.values))
        return LogVector(vals, self.degs, prec)

    def sub(self, other: "LogVector") -> "LogVector":
        prec = max(self.prec, other.prec)
        with mp.workprec(prec):
            vals = tuple(a - b for a, b in zip(self.values, other.values))
        return LogVector(vals, self.degs, prec)

    def exp(self) -> ArchVector:
        with mp.workprec(self.prec):
            vals = tuple(mp.exp(v) for v in self.values)
        return ArchVector(vals, self.degs, self.prec)


# ---------------------------------------------------------------------------
# Number field

@dataclass(frozen=True)
class NumberField:
    """A number field given by a monic irreducible integer polynomial and an
    order basis (rows = basis elements in power-basis coordinates, b_1 = 1)."""

    min_poly: tuple[int, ...]
    basis: tuple[tuple[Fraction, ...], ...]
    n: int
    r1: int
    r2: int
    disc: int
    prec: int = DEFAULT_PREC

    def __post_init__(self):
        # idempotent derived-data caches; contents never depend on call order
        object.__setattr__(self, "_cache", {})

    # -- exact structure ----------------------------------------------------

    def _power_matrix(self):
        """Rows of the basis as a matrix B (b_i = sum_j B[i][j] theta^j)."""
        key = "pm"
        if key not in self._cache:
            b = [list(row) for row in self.basis]
            self._cache[key] = b
            self._cache["pm_inv_t"] = mat_inv([list(col) for col in zip(*b)])
        return self._cache[key]

    def to_power(self, coords) -> list[Fraction]:
        b = self._power_matrix()
        return [
            sum((coords[i] * b[i][j] for i in range(self.n)), Fraction(0))
            for j in range(self.n)
        ]

    def from_power(self, pcoords) -> list[Fraction]:
        self._power_matrix()
        return mat_vec(self._cache["pm_inv_t"], list(pcoords))

    def _poly_mod(self, coeffs: list[Fraction]) -> list[Fraction]:
        """Reduce a power-basis polynomial mod the minimal polynomial."""
        n = self.n
        c = list(coeffs) + [Fraction(0)] * max(0, 2 * n - 1 - len(coeffs))
        for k in range(len(c) - 1, n - 1, -1):
            f = c[k]
            if f:
                c[k] = Fraction(0)
                for j in range(n):
                    c[k - n + j] -= f * self.min_poly[j]
        return c[:n]

    def mult_table(self):
        """Structure constants: b_i * b_j on the integral basis (integers)."""
        key = "mt"
        if key not in self._cache:
            n = self.n
            table = []
            for pi in self.basis:  # the basis rows are power coordinates
                row = []
                for pj in self.basis:
                    prod = [Fraction(0)] * (2 * n - 1)
                    for a, ca in enumerate(pi):
                        if ca:
                            for b, cb in enumerate(pj):
                                if cb:
                                    prod[a + b] += ca * cb
                    coords = self.from_power(self._poly_mod(prod))
                    if any(x.denominator != 1 for x in coords):
                        raise FieldConstructionError(
                            "integral basis is not multiplicatively closed"
                        )
                    row.append(tuple(int(x) for x in coords))
                table.append(row)
            self._cache[key] = tuple(tuple(r) for r in table)
        return self._cache[key]

    def mult_matrix(self, coords) -> list[list[Fraction]]:
        """Matrix of multiplication by the element with the given coords."""
        t = self.mult_table()
        n = self.n
        m = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            ci = coords[i]
            if ci:
                for j in range(n):
                    row = t[i][j]
                    for k in range(n):
                        if row[k]:
                            m[k][j] += ci * row[k]
        return m

    @property
    def degs(self) -> tuple[int, ...]:
        return tuple([1] * self.r1 + [2] * self.r2)

    @property
    def num_places(self) -> int:
        return self.r1 + self.r2

    def one(self) -> "FieldElement":
        return FieldElement(self, tuple([Fraction(1)] + [Fraction(0)] * (self.n - 1)))

    def zero(self) -> "FieldElement":
        return FieldElement(self, tuple([Fraction(0)] * self.n))

    def element(self, coords) -> "FieldElement":
        coords = tuple(Fraction(c) for c in coords)
        if len(coords) != self.n:
            raise ValueError(f"expected {self.n} coordinates")
        return FieldElement(self, coords)

    def rational(self, q) -> "FieldElement":
        return self.element([Fraction(q)] + [0] * (self.n - 1))

    def gen(self) -> "FieldElement":
        """The root of the minimal polynomial as a field element."""
        return self.element(self.from_power([Fraction(int(j == 1)) for j in range(self.n)]))

    # -- exact quadratic arithmetic ----------------------------------------

    def surd(self, x: "FieldElement") -> tuple[Fraction, Fraction]:
        """(a, b) with x = a + b sqrt(disc) in a quadratic field, disc the
        order's discriminant: sqrt(disc) is positive at place 0 (i sqrt|disc|
        at the complex place), and place 1 takes x to a - b sqrt(disc).

        Place 0 takes theta to its larger root (its root of positive
        imaginary part at a complex place), so for the basis {1, w} with
        w = b0 + b1 theta, sqrt(disc) = sgn(b1) (2 w - t), t = Tr(w) =
        2 b0 - b1 c1: w - w' = b1 (theta - theta') and disc = (w - w')^2."""
        if self.n != 2:
            raise ValueError("surd pairs exist only for quadratic fields")
        (b0, b1), c1 = self.basis[1], self.min_poly[1]
        x0, x1 = x.coords
        return x0 + x1 * (2 * b0 - b1 * c1) / 2, (x1 if b1 > 0 else -x1) / 2

    def from_surd(self, a: Fraction, b: Fraction) -> "FieldElement":
        """The element a + b sqrt(disc) in the convention of surd."""
        (b0, b1), c1 = self.basis[1], self.min_poly[1]
        if b1 < 0:
            b = -b
        return self.element([a - b * (2 * b0 - b1 * c1), 2 * b])

    # -- certified embeddings ----------------------------------------------

    def places_mpf(self, prec: int | None = None):
        """Root data at the given precision: list of (kind, value, radius)
        with kind 'R' or 'C', value mpf/mpc, radius a rational error bound."""
        prec = prec or self.prec
        key = ("places", prec)
        if key not in self._cache:
            self._cache[key] = _escalate(self._try_roots, prec,
                                         "could not certify root isolation")
        return self._cache[key]

    def _try_roots(self, prec: int):
        n = self.n
        with mp.workprec(2 * prec + 32):
            coeffs_desc = [mpf(c) for c in reversed(self.min_poly)]
            try:
                roots = mp.polyroots(coeffs_desc, maxsteps=200, extraprec=prec)
            except mp.NoConvergence:
                return None
            der = [mpf(i * c) for i, c in enumerate(self.min_poly)][1:]

            def poly_at(cs, z):
                acc = mpc(0)
                for c in reversed(cs):
                    acc = acc * z + c
                return acc

            rads = []
            for z in roots:
                pz = poly_at([mpf(c) for c in self.min_poly], z)
                dz = poly_at(der, z)
                if dz == 0:
                    return None
                rads.append(Fraction(2 * n) * mpf_to_fraction(abs(pz) / abs(dz) + mpf(2) ** (-2 * prec)))
            # disjointness of certified disks
            for i in range(n):
                for j in range(i + 1, n):
                    if mpf_to_fraction(abs(roots[i] - roots[j])) <= rads[i] + rads[j]:
                        return None
            real_idx = [i for i in range(n) if mpf_to_fraction(abs(roots[i].imag)) <= rads[i]]
            if len(real_idx) != self.r1:
                return None
            cplx = [
                (roots[i], rads[i])
                for i in range(n)
                if i not in real_idx and roots[i].imag > 0
            ]
            if len(cplx) != self.r2:
                return None
            reals = sorted(
                ((roots[i].real, rads[i]) for i in real_idx), key=lambda t: -t[0]
            )
            cplx.sort(key=lambda t: (-t[0].real, -t[0].imag))
            return [("R", v, r) for v, r in reals] + [("C", v, r) for v, r in cplx]

    def embed(self, x: "FieldElement", prec: int | None = None) -> ArchVector:
        """Signed embedding vector (sigma(x)) over the infinite places, each
        value within 2^-prec of |sigma(x)|, relatively, and a nonzero x never
        embeds to 0. Quadratic fields take _embed_quadratic, which is exact
        up to rounding; every other field takes the centre of embed_interval's
        certified rectangle (_embed_at)."""
        prec = prec or self.prec
        if self.n == 2:
            vals = self._embed_quadratic(x, prec)
        else:
            vals = tuple(self._embed_at(x, i, prec) for i in range(self.num_places))
        return ArchVector(vals, self.degs, prec)

    def _embed_quadratic(self, x: "FieldElement", prec: int):
        """sigma(x) for x = a + b sqrt(disc) in the convention of surd. At
        the complex place it is a + i b sqrt|disc|: neither part is a sum.
        At real places, the place where a and b sqrt(disc) share a sign has
        no cancellation; the other place is the exact norm a^2 - b^2 disc
        divided by it. Each step costs at most a few of the 32 guard bits,
        so the values, rounded to prec + 16 bits, stay within a few units in
        their last place."""
        a, b = self.surd(x)
        work = prec + 32
        with mp.workprec(work):
            if self.r2:
                vals = (mpc(fraction_to_mpf(a, work),
                            fraction_to_mpf(b, work) * mp.sqrt(-self.disc)),)
            elif a == 0 and b == 0:
                vals = (mpf(0), mpf(0))
            else:
                big_place = 0 if a * b >= 0 else 1
                sb = b if big_place == 0 else -b
                big = fraction_to_mpf(a, work) + fraction_to_mpf(sb, work) * mp.sqrt(self.disc)
                small = fraction_to_mpf(a * a - b * b * self.disc, work) / big
                vals = (big, small) if big_place == 0 else (small, big)
        with mp.workprec(prec + 16):
            return tuple(+v for v in vals)

    def _embed_at(self, x: "FieldElement", place: int, prec: int):
        """sigma(x) at one place: the centre c of embed_interval's rectangle
        at the first precision where the rectangle's diagonal is at most
        2^-(prec+16) |c|, each part rounded to nearest at prec + 16 bits.
        sigma(x) lies in the rectangle, so the value is within
        2^-(prec+17) |c| + 2^-(prec+16) |c| < 2^-prec |sigma(x)| of it; a
        zero x has a zero rectangle and embeds to exactly 0. Past MAX_PREC
        this raises PrecisionExhausted."""
        def attempt(work: int):
            den, (rl, rh), im = self.embed_interval(x, place, work)
            # numerators over 2 den: the centre's parts and the side lengths
            cr, wr = rl + rh, 2 * (rh - rl)
            ci, wi = (0, 0) if im is None else (im[0] + im[1], 2 * (im[1] - im[0]))
            if (wr * wr + wi * wi) << (2 * prec + 32) > cr * cr + ci * ci:
                return None
            re = from_rational(cr, 2 * den, prec + 16, round_nearest)
            if im is None:
                return mp.make_mpf(re)
            return mp.make_mpc((re, from_rational(ci, 2 * den, prec + 16, round_nearest)))

        return _escalate(attempt, prec,
                         f"embedding at place {place} cancels below {MAX_PREC} bits")

    def _root_box(self, place: int, prec: int):
        """(dt, ivs): the certified root interval at a place, one for the
        real part and, at a complex place, one for the imaginary part, as
        integer endpoints over their common denominator dt."""
        key = ("root_box", prec, place)
        if key not in self._cache:
            kind, v, rad = self.places_mpf(prec)[place]
            parts = [v] if kind == "R" else [v.real, v.imag]
            ivs = [(mpf_to_fraction(p) - rad, mpf_to_fraction(p) + rad) for p in parts]
            dt = math.lcm(*(e.denominator for iv in ivs for e in iv))
            self._cache[key] = (dt, [tuple(e.numerator * (dt // e.denominator) for e in iv)
                                     for iv in ivs])
        return self._cache[key]

    def embed_interval(self, x: "FieldElement", place: int, prec: int):
        """Certified rectangle (den, re_iv, im_iv) for sigma(x): each
        endpoint an integer numerator over the one positive denominator den,
        im_iv None at real places.

        Interval Horner runs on integers: the power coordinates over their
        lcm dc, the root box over its denominator dt, so after k steps every
        endpoint is a numerator over dc dt^k. A common positive denominator
        keeps the min and max of each four products in place, so the
        rectangle is the one of Horner over rational intervals."""
        dt, box = self._root_box(place, prec)
        pcoords = self.to_power(x.coords)
        dc = math.lcm(*(c.denominator for c in pcoords))
        cs = [c.numerator * (dc // c.denominator) for c in reversed(pcoords)]
        scale = 1  # dt^k after k steps
        if len(box) == 1:
            (tl, th), = box
            lo = hi = cs[0]
            for c in cs[1:]:
                scale *= dt
                ps = (lo * tl, lo * th, hi * tl, hi * th)
                lo, hi = min(ps) + c * scale, max(ps) + c * scale
            re_iv, im_iv = (lo, hi), None
        else:
            (rl, rh), (il, ih) = box
            al = ah = cs[0]
            bl = bh = 0
            for c in cs[1:]:
                scale *= dt
                rr = (al * rl, al * rh, ah * rl, ah * rh)
                ii = (bl * il, bl * ih, bh * il, bh * ih)
                ri = (al * il, al * ih, ah * il, ah * ih)
                ir = (bl * rl, bl * rh, bh * rl, bh * rh)
                al, ah, bl, bh = (min(rr) - max(ii) + c * scale, max(rr) - min(ii) + c * scale,
                                  min(ri) + min(ir), max(ri) + max(ir))
            re_iv, im_iv = (al, ah), (bl, bh)
        return dc * scale, re_iv, im_iv

    # -- certified comparisons ----------------------------------------------

    def cmp_abs_sq(self, x: "FieldElement", place: int, t: Fraction,
                   scale_sq: Fraction = Fraction(1)) -> int:
        """Certified sign of scale_sq * |sigma(x)|^2 - t (t, scale_sq exact).

        The start-precision interval decides first. Only when it overlaps t
        is the exact tie tested: if some power x^k (k <= 30) is a rational q,
        then |sigma(x)|^(2k) = q^2 at every place and the sign is that of
        scale_sq^k q^2 - t^k; otherwise the precision doubles. A tie always
        overlaps, so this orders the work, not the answer."""
        if self.n == 2:
            # sigma(x)^2 = a^2 + b^2 disc +- 2ab sqrt(disc); |sigma(x)|^2 =
            # a^2 - b^2 disc at the complex place
            a, b = self.surd(x)
            if self.r2:
                diff = scale_sq * (a * a - b * b * self.disc) - t
                return (diff > 0) - (diff < 0)
            return sign_surd(scale_sq * (a * a + b * b * self.disc) - t,
                             scale_sq * 2 * a * b * (1 - 2 * place), self.disc)

        def exact_sign() -> int | None:
            power = x
            for k in range(1, 31):
                if power.is_rational():
                    diff = scale_sq ** k * power.coords[0] ** 2 - t ** k
                    return (diff > 0) - (diff < 0)
                power = power * x
            return None

        # times the positive denominators of t and scale_sq and den^2,
        # scale_sq |sigma(x)|^2 - t becomes s L - t_num den^2 for L in the
        # numerator interval of |sigma(x)|^2 over den^2
        s, t_num = scale_sq.numerator * t.denominator, t.numerator * scale_sq.denominator

        def attempt(prec: int):
            den, re_iv, im_iv = self.embed_interval(x, place, prec)
            lo, hi = _iv_sq(re_iv)
            if im_iv is not None:
                ilo, ihi = _iv_sq(im_iv)
                lo, hi = lo + ilo, hi + ihi
            bound = t_num * den * den
            sgn = _iv_cmp((lo * s, hi * s), (bound, bound))
            if sgn is None and prec == self.prec:
                return exact_sign()
            return sgn

        return _escalate(attempt, self.prec,
                         f"cannot separate |sigma(x)|^2 from bound at place {place}")

    def sign_at_place(self, x: "FieldElement", place: int) -> int:
        """Certified sign of sigma(x) at a real place (x nonzero)."""
        if self.n == 2:
            if self.r2:
                raise ValueError("sign only defined at real places")
            a, b = self.surd(x)
            return sign_surd(a, b * (1 - 2 * place), self.disc)

        def attempt(prec: int):
            _, re_iv, im_iv = self.embed_interval(x, place, prec)
            if im_iv is not None:
                raise ValueError("sign only defined at real places")
            return _iv_cmp(re_iv, (0, 0))

        return _escalate(attempt, self.prec, "cannot determine sign at place")

    # -- constants -----------------------------------------------------------

    def partial_constant(self, prec: int | None = None):
        """(2/pi)^(r2) * sqrt(|disc|), the box-bound constant."""
        prec = prec or self.prec
        with mp.workprec(prec):
            return (mpf(2) / mp.pi) ** self.r2 * mp.sqrt(abs(self.disc))

    def trace_form(self) -> list[list[Fraction]]:
        """Matrix Tr(b_i b_j): integral for an order, det = disc."""
        key = "tf"
        if key not in self._cache:
            t, n = self.mult_table(), self.n
            trb = [sum(t[i][k][k] for k in range(n)) for i in range(n)]  # Tr(b_i)
            self._cache[key] = [
                [Fraction(sum(t[i][j][k] * trb[k] for k in range(n))) for j in range(n)]
                for i in range(n)
            ]
        return self._cache[key]

    def conjugate(self, x: "FieldElement") -> "FieldElement":
        """Image under the nontrivial automorphism (quadratic fields only)."""
        a, b = self.surd(x)
        return self.from_surd(a, -b)

    def __repr__(self) -> str:
        return f"NumberField({list(self.min_poly)}, disc={self.disc})"


# ---------------------------------------------------------------------------
# Field elements

@dataclass(frozen=True, slots=True)
class FieldElement:
    """Element with exact rational coordinates on the integral basis."""

    field: NumberField
    coords: tuple[Fraction, ...]

    def __add__(self, other: "FieldElement") -> "FieldElement":
        return FieldElement(self.field, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        return FieldElement(self.field, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.field, tuple(-a for a in self.coords))

    def __mul__(self, other):
        if isinstance(other, FieldElement):
            t = self.field.mult_table()
            n = self.field.n
            out = [Fraction(0)] * n
            for i, ci in enumerate(self.coords):
                if ci:
                    for j, cj in enumerate(other.coords):
                        if cj:
                            f = ci * cj
                            row = t[i][j]
                            for k in range(n):
                                if row[k]:
                                    out[k] += f * row[k]
            return FieldElement(self.field, tuple(out))
        return FieldElement(self.field, tuple(a * Fraction(other) for a in self.coords))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, FieldElement):
            return self * other.inverse()
        return FieldElement(self.field, tuple(a / Fraction(other) for a in self.coords))

    def __pow__(self, k: int) -> "FieldElement":
        if k < 0:
            return self.inverse() ** (-k)
        acc = self.field.one()
        base = self
        while k:
            if k & 1:
                acc = acc * base
            base = base * base
            k >>= 1
        return acc

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        m = self.field.mult_matrix(self.coords)
        e1 = [Fraction(int(i == 0)) for i in range(self.field.n)]
        return FieldElement(self.field, tuple(mat_vec(mat_inv(m), e1)))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coords[1:])

    def norm(self) -> Fraction:
        return mat_det(self.field.mult_matrix(self.coords))

    def trace(self) -> Fraction:
        m = self.field.mult_matrix(self.coords)
        return sum((m[i][i] for i in range(self.field.n)), Fraction(0))

    def __repr__(self) -> str:
        return f"FieldElement({[str(c) for c in self.coords]})"


# ---------------------------------------------------------------------------
# Construction and the module-level operations

def create_field(min_poly, integral_basis=None, prec: int = DEFAULT_PREC) -> NumberField:
    """Build a number field from an ascending-coefficient monic integer
    polynomial, optionally with an explicit order basis (rows over the power
    basis; the first row must be 1).

    Quadratic x^2 - d with d squarefree gets the canonical maximal-order
    basis automatically; other fields default to the power basis. prec
    above MAX_PREC is a ValueError: no escalation could start there.
    """
    if prec > MAX_PREC:
        raise ValueError(f"precision above the {MAX_PREC}-bit cap")
    coeffs = [int(c) for c in min_poly]
    if len(coeffs) < 3:
        raise FieldConstructionError("degree must be at least 2")
    if coeffs[-1] != 1:
        raise FieldConstructionError("polynomial must be monic")
    if not _is_irreducible(coeffs):
        raise FieldConstructionError("polynomial is reducible over the rationals")
    n = len(coeffs) - 1

    if integral_basis is None:
        rows = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        if n == 2 and coeffs[1] == 0:
            d = -coeffs[0]
            if _is_squarefree_int(d) and d % 4 == 1:
                rows[1] = [Fraction(1, 2), Fraction(1, 2)]
    else:
        rows = [[Fraction(x) for x in row] for row in integral_basis]
        if len(rows) != n or any(len(r) != n for r in rows):
            raise FieldConstructionError("basis must be a square matrix of degree size")
        if rows[0] != [Fraction(1)] + [Fraction(0)] * (n - 1):
            raise FieldConstructionError("first basis element must be 1")
        if mat_det(rows) == 0:
            raise FieldConstructionError("basis has zero determinant")

    r1 = sturm_real_root_count(coeffs)
    r2 = (n - r1) // 2
    f = NumberField(tuple(coeffs), tuple(tuple(r) for r in rows), n, r1, r2, 0, prec)
    f.mult_table()  # validates ring closure
    disc = mat_det(f.trace_form())
    if disc.denominator != 1 or disc == 0:
        raise FieldConstructionError("trace form determinant is not a nonzero integer")
    return NumberField(tuple(coeffs), tuple(tuple(r) for r in rows), n, r1, r2,
                       int(disc), prec)


def partial_f(f: NumberField):
    """The constant (2/pi)^(r2) sqrt(|disc|) controlling box bounds."""
    return f.partial_constant()


def embed(f: NumberField, x: FieldElement, prec: int | None = None) -> ArchVector:
    return f.embed(x, prec)


def norm_trace(f: NumberField, x: FieldElement) -> tuple[Fraction, Fraction]:
    """Exact (norm, trace) of an element."""
    return x.norm(), x.trace()
