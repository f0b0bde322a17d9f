"""Number field core: elements, embeddings, traces and norms, and the
archimedean algebra with its degree-weighted metric.

An element is one exact record, integer numerators over one positive
denominator in lowest terms (Cohen, A Course in Computational Algebraic
Number Theory, 4.2); its arithmetic, norm, trace and inverse run on integers
through the integral structure constants. The order basis is integer rows
over one denominator as well, and the structure constants, disc and the
basis adjugate are built from it on integers once per field, through the one
fraction-free solve exact.int_solve; basis and from_power give Fractions
for the public API. sigma(x) has one evaluation per field kind, each with a
proven error bound: a quadratic element has one exact form, the integer surd
numerators (A, B) over one m > 0 of x = (A + B sqrt(disc)) / m that
NumberField.surd_numerators gives (from_surd_numerators inverts it); every
other field uses the centre of the certified rectangle of embed_interval
(interval Horner on integer numerators over certified root boxes).
Comparisons that land too close to a decision boundary escalate the
precision under the one policy of _escalate; quadratic signs and
comparisons are exact on the surd numerators and never escalate.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpc, mpf
from mpmath.libmp import (
    from_int,
    from_rational,
    fzero,
    mpf_add,
    mpf_div,
    mpf_mul,
    mpf_pos,
    round_nearest,
)

from .exact import int_det, int_solve, sign_surd, sign_surd_sq, sturm_real_root_count

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
    """Exact rational value of an mpf (binary floats are exact rationals):
    one Fraction of its mantissa over a power of two (mpf_mantissas). An
    infinity or NaN is a ValueError."""
    (num,), s = mpf_mantissas((x,))
    return Fraction(num, 1 << s)


def mpf_mantissas(xs) -> tuple[list[int], int]:
    """(nums, s) with xs[i] = nums[i] / 2^s exactly, s >= 0 the least such:
    every mantissa read over one power of two. An infinity or NaN is a
    ValueError."""
    parts = [x._mpf_ for x in xs]
    if any(not man and bc for _, man, _, bc in parts):  # inf, -inf, nan
        raise ValueError("an infinity or NaN has no rational value")
    s = max([0] + [-exp for _, man, exp, _ in parts if man])
    return [(-man if sign else man) << (exp + s) for sign, man, exp, _ in parts], s


def fraction_to_mpf(q: Fraction, prec: int):
    """q at prec bits as mpf(q.numerator) / q.denominator rounds it there:
    the numerator rounded to nearest, then the quotient (_ratio_mpf)."""
    return mp.make_mpf(_ratio_mpf(q.numerator, q.denominator, prec))


def _ratio_mpf(num: int, den: int, prec: int):
    """The raw mpf of fraction_to_mpf(Fraction(num, den), prec), den > 0,
    through libmp with no context switch: from_int(num) rounded to nearest
    at prec bits, then mpf_div by the exact den. A numerator of at most
    prec bits is exact, and the quotient is then the correctly rounded
    num / den in any terms; a longer one is first brought to lowest terms,
    as a Fraction keeps it, since its rounding depends on the terms."""
    if num.bit_length() > prec:
        g = math.gcd(num, den)
        num, den = num // g, den // g
    return mpf_div(from_int(num, prec, round_nearest), from_int(den), prec, round_nearest)


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


def _iv_mul(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """The product interval {x y : x in a, y in b}: the least and largest of
    the four endpoint products, found from the endpoints' signs with two
    multiplications unless both intervals straddle 0 (Moore, Interval
    Analysis, 1966)."""
    (al, ah), (bl, bh) = a, b
    if al >= 0:
        if bl >= 0:
            return al * bl, ah * bh
        return ah * bl, (al if bh <= 0 else ah) * bh
    if ah <= 0:
        if bh <= 0:
            return ah * bh, al * bl
        return al * bh, (ah if bl >= 0 else al) * bl
    if bl >= 0:
        return al * bh, ah * bh
    if bh <= 0:
        return ah * bl, al * bl
    return min(al * bh, ah * bl), max(al * bl, ah * bh)


def _iv_sq(a: tuple[int, int]) -> tuple[int, int]:
    """{x^2 : x in a}. For an a that straddles 0 this is (0, max), tighter
    than _iv_mul(a, a), whose least endpoint is the negative lo hi."""
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
    """Whether the monic integer polynomial has no rational root. Such a
    root is an integer dividing c0 (rational root theorem), so the divisors
    of c0 and their negatives are tried by integer Horner evaluation."""
    c0 = coeffs[0]
    if c0 == 0:
        return False
    for d in _divisors(abs(c0)):
        for r in (d, -d):
            acc = 0
            for c in reversed(coeffs):
                acc = acc * r + c
            if acc == 0:
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
    order basis, held as integer rows over one positive denominator in
    lowest terms: b_i = sum_j basis_nums[i][j] theta^j / basis_den, b_1 = 1.
    basis gives the rows as Fractions. The structure constants and disc, the
    trace-form determinant, are built once on construction; a basis that is
    not closed under multiplication is a FieldConstructionError."""

    min_poly: tuple[int, ...]
    basis_nums: tuple[tuple[int, ...], ...]
    basis_den: int
    n: int
    r1: int
    r2: int
    prec: int = DEFAULT_PREC
    disc: int = dataclasses.field(init=False)

    def __post_init__(self):
        # idempotent derived-data caches; contents never depend on call order
        object.__setattr__(self, "_cache", {})
        object.__setattr__(self, "disc", int_det(self.trace_form()))

    # -- exact structure ----------------------------------------------------

    @property
    def basis(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(Fraction(v, self.basis_den) for v in row) for row in self.basis_nums)

    def _power_numerators(self, x: "FieldElement") -> tuple[list[int], int]:
        """(nums, den): the power coordinates of x as integers over one
        positive den, in lowest terms: one integer row times the basis rows
        and one gcd."""
        dp, b = self.basis_den, self.basis_nums
        nums = [sum(v * row[j] for v, row in zip(x.nums, b) if v) for j in range(self.n)]
        g = math.gcd(x.den * dp, *nums)
        return [v // g for v in nums], x.den * dp // g

    def to_power(self, coords) -> list[Fraction]:
        nums, den = self._power_numerators(self.element(coords))
        return [Fraction(v, den) for v in nums]

    def _basis_adjugate(self) -> tuple[int, list[list[int]]]:
        """(det, adj) with B^T adj = det I for the integer basis rows B
        (int_solve): the coordinates of a power-basis vector p are
        basis_den adj p / det."""
        if "adj" not in self._cache:
            n = self.n
            self._cache["adj"] = int_solve(list(zip(*self.basis_nums)),
                                           [[int(i == j) for j in range(n)] for i in range(n)])
        return self._cache["adj"]

    def from_power(self, pcoords) -> list[Fraction]:
        det, adj = self._basis_adjugate()
        return [Fraction(self.basis_den * sum(a * p for a, p in zip(row, pcoords)), det)
                for row in adj]

    def _poly_mod(self, coeffs: list[int]) -> list[int]:
        """Reduce an integer power-basis polynomial mod the monic minimal
        polynomial."""
        n = self.n
        c = list(coeffs)
        for k in range(len(c) - 1, n - 1, -1):
            f = c[k]
            if f:
                c[k] = 0
                for j in range(n):
                    c[k - n + j] -= f * self.min_poly[j]
        return c[:n]

    def mult_table(self):
        """Structure constants: b_i * b_j on the integral basis (integers).
        With B_i the basis rows, b_i b_j = P(theta) / basis_den^2 for P the
        integer product B_i B_j mod the minimal polynomial, whose coordinates
        adj P / (det basis_den) must be integers."""
        key = "mt"
        if key not in self._cache:
            n = self.n
            det, adj = self._basis_adjugate()
            if not det:
                raise FieldConstructionError("basis has zero determinant")
            q = det * self.basis_den
            table = []
            for bi in self.basis_nums:
                row = []
                for bj in self.basis_nums:
                    prod = [0] * (2 * n - 1)
                    for a, ca in enumerate(bi):
                        if ca:
                            for b, cb in enumerate(bj):
                                prod[a + b] += ca * cb
                    prod = self._poly_mod(prod)
                    coords = [sum(x * y for x, y in zip(r, prod)) for r in adj]
                    if any(c % q for c in coords):
                        raise FieldConstructionError(
                            "integral basis is not multiplicatively closed"
                        )
                    row.append(tuple(c // q for c in coords))
                table.append(tuple(row))
            self._cache[key] = tuple(table)
        return self._cache[key]

    def _mult_matrix(self, nums) -> list[list[int]]:
        """The integer matrix of multiplication by sum_i nums_i b_i: column j
        holds the coordinates of its product with b_j (mult_table)."""
        t, n = self.mult_table(), self.n
        m = [[0] * n for _ in range(n)]
        for i, ci in enumerate(nums):
            if ci:
                for j in range(n):
                    for k, tk in enumerate(t[i][j]):
                        if tk:
                            m[k][j] += ci * tk
        return m

    @property
    def degs(self) -> tuple[int, ...]:
        return tuple([1] * self.r1 + [2] * self.r2)

    @property
    def num_places(self) -> int:
        return self.r1 + self.r2

    def one(self) -> "FieldElement":
        return FieldElement(self, (1,) + (0,) * (self.n - 1))

    def zero(self) -> "FieldElement":
        return FieldElement(self, (0,) * self.n)

    def element(self, coords) -> "FieldElement":
        """The element of these rational coordinates: numerators over their lcm."""
        coords = [Fraction(c) for c in coords]
        if len(coords) != self.n:
            raise ValueError(f"expected {self.n} coordinates")
        den = math.lcm(*(c.denominator for c in coords))
        return FieldElement(self, tuple(c.numerator * den // c.denominator for c in coords), den)

    def rational(self, q) -> "FieldElement":
        num, den = Fraction(q).as_integer_ratio()
        return FieldElement(self, (num,) + (0,) * (self.n - 1), den)

    def gen(self) -> "FieldElement":
        """The root of the minimal polynomial as a field element: column 1
        of the basis adjugate, times basis_den over det."""
        det, adj = self._basis_adjugate()
        return FieldElement(self, tuple(self.basis_den * row[1] for row in adj), det)

    # -- exact quadratic arithmetic ----------------------------------------

    def _surd_data(self) -> tuple[int, int, int]:
        """(tn, td, sgn(b1)) for surd_numerators: t = tn / td in lowest terms
        is Tr(w) = 2 b0 - b1 c1, a field constant of a quadratic field
        (ValueError in any other)."""
        if self.n != 2:
            raise ValueError("surd pairs exist only for quadratic fields")
        key = "surd"
        if key not in self._cache:
            (b0, b1), c1 = self.basis_nums[1], self.min_poly[1]
            tn = 2 * b0 - b1 * c1
            g = math.gcd(tn, self.basis_den)
            self._cache[key] = (tn // g, self.basis_den // g, 1 if b1 > 0 else -1)
        return self._cache[key]

    def surd_numerators(self, xs) -> tuple[int, list[tuple[int, int]]]:
        """(m, [(A, B), ...]) with x = (A + B sqrt(disc)) / m for each x of
        xs, over one m > 0, in a quadratic field, disc the order's
        discriminant: sqrt(disc) is positive at place 0 (i sqrt|disc| at the
        complex place), and place 1 takes x to (A - B sqrt(disc)) / m.

        Place 0 takes theta to its larger root (its root of positive
        imaginary part at a complex place), so for the basis {1, w} with
        w = b0 + b1 theta, sqrt(disc) = sgn(b1) (2 w - t), t = Tr(w) =
        2 b0 - b1 c1: w - w' = b1 (theta - theta') and disc = (w - w')^2.
        The numerators (X0, X1) over the common denominator d of xs and
        t = tn / td give m = 2 td d, A = 2 td X0 + tn X1 and B = sgn(b1) td X1."""
        tn, td, sgn = self._surd_data()
        rows, d = common_numerators(xs)
        return 2 * td * d, [(2 * td * x0 + tn * x1, sgn * td * x1) for x0, x1 in rows]

    def from_surd_numerators(self, a: int, b: int, m: int) -> "FieldElement":
        """The element (a + b sqrt(disc)) / m, m > 0, in the convention of
        surd_numerators: sgn(b1) sqrt(disc) = 2 w - t, so its numerators on
        {1, w} over td m are (td a - sgn b tn, 2 sgn b td) for t = tn / td."""
        tn, td, sgn = self._surd_data()
        return FieldElement(self, (td * a - sgn * b * tn, 2 * sgn * b * td), td * m)

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
        """sigma(x) for x = (a + b sqrt(disc)) / m (surd_numerators). At the
        complex place it is (a + i b sqrt|disc|) / m: neither part is a sum,
        each rounds to nearest at prec + 32 bits, through _ratio_mpf as the
        real places do, then to prec + 16 bits. At real places it is
        _real_surd_embedding."""
        m, ((a, b),) = self.surd_numerators([x])
        if not self.r2:
            return tuple(mp.make_mpf(v) for v in self._real_surd_embedding(a, b, m, prec))
        work = prec + 32
        im = mpf_mul(_ratio_mpf(b, m, work), self._sqrt_abs_disc(work)._mpf_,
                     work, round_nearest)
        return (mp.make_mpc(tuple(mpf_pos(v, prec + 16, round_nearest)
                                  for v in (_ratio_mpf(a, m, work), im))),)

    def _real_surd_embedding(self, a: int, b: int, m: int, prec: int):
        """Raw mpfs (sigma_0(x), sigma_1(x)) of x = (a + b sqrt(disc)) / m,
        m > 0, in a real quadratic field, through libmp. The place where a
        and b sqrt(disc) share a sign has no cancellation; the other place
        is the exact norm (a^2 - b^2 disc) / m^2 divided by it. Each step
        rounds to nearest at prec + 32 bits and costs at most a few of those
        guard bits, so the values, rounded to prec + 16 bits, stay within a
        few units in their last place. Every rational enters as
        fraction_to_mpf would round it (_ratio_mpf), so the bits do not
        depend on the terms of a, b and m."""
        if not a and not b:
            return fzero, fzero
        work = prec + 32
        root = self._sqrt_abs_disc(work)._mpf_
        big_place = 0 if a * b >= 0 else 1
        sb = b if big_place == 0 else -b
        big = mpf_add(_ratio_mpf(a, m, work),
                      mpf_mul(_ratio_mpf(sb, m, work), root, work, round_nearest),
                      work, round_nearest)
        small = mpf_div(_ratio_mpf(a * a - b * b * self.disc, m * m, work), big,
                        work, round_nearest)
        big, small = (mpf_pos(v, prec + 16, round_nearest) for v in (big, small))
        return (big, small) if big_place == 0 else (small, big)

    def _sqrt_abs_disc(self, prec: int):
        """sqrt|disc| rounded to prec bits, a per-precision field constant."""
        key = ("sqrt_abs_disc", prec)
        if key not in self._cache:
            with mp.workprec(prec):
                self._cache[key] = mp.sqrt(abs(self.disc))
        return self._cache[key]

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

        Interval Horner runs on integers: the power coordinates over dc in
        lowest terms (_power_numerators), the root box over its denominator
        dt, so after k steps every endpoint is a numerator over dc dt^k. A
        common positive denominator keeps the endpoints of each interval
        product (_iv_mul) in place, so the rectangle is the one of Horner
        over rational intervals."""
        dt, box = self._root_box(place, prec)
        nums, dc = self._power_numerators(x)
        cs = nums[::-1]
        scale = 1  # dt^k after k steps
        if len(box) == 1:
            root, = box
            re_iv = (cs[0], cs[0])
            for c in cs[1:]:
                scale *= dt
                lo, hi = _iv_mul(re_iv, root)
                re_iv = (lo + c * scale, hi + c * scale)
            im_iv = None
        else:
            re_root, im_root = box
            re_iv, im_iv = (cs[0], cs[0]), (0, 0)
            for c in cs[1:]:
                scale *= dt
                # (a + b i)(r + s i) = (a r - b s) + (a s + b r) i
                rr, ii = _iv_mul(re_iv, re_root), _iv_mul(im_iv, im_root)
                ri, ir = _iv_mul(re_iv, im_root), _iv_mul(im_iv, re_root)
                re_iv = (rr[0] - ii[1] + c * scale, rr[1] - ii[0] + c * scale)
                im_iv = (ri[0] + ir[0], ri[1] + ir[1])
        return dc * scale, re_iv, im_iv

    # -- certified comparisons ----------------------------------------------

    def _check_place(self, place: int) -> None:
        if not 0 <= place < self.num_places:
            raise ValueError(f"place {place} outside range({self.num_places})")

    def cmp_abs_sq(self, x: "FieldElement", place: int, t: Fraction,
                   scale_sq: Fraction = Fraction(1)) -> int:
        """Certified sign of scale_sq * |sigma(x)|^2 - t (t, scale_sq exact).

        The start-precision interval decides first. Only when it overlaps t
        is the exact tie tested: if some power x^k (k <= 30) is a rational q,
        then |sigma(x)|^(2k) = q^2 at every place and the sign is that of
        scale_sq^k q^2 - t^k; otherwise the precision doubles. A tie always
        overlaps, so this orders the work, not the answer. Quadratic fields
        decide exactly, with the integer test of boxes (sign_surd_sq). A
        place outside range(num_places) is a ValueError."""
        self._check_place(place)
        if self.n == 2:
            # x = (a + b sqrt(disc)) / m: times the positive m^2 and the
            # denominators of t and scale_sq
            m, ((a, b),) = self.surd_numerators([x])
            return sign_surd_sq(a, b, self.disc, scale_sq.numerator * t.denominator,
                                t.numerator * scale_sq.denominator * m * m, place)

        # times the positive denominators of t and scale_sq and den^2,
        # scale_sq |sigma(x)|^2 - t becomes s L - t_num den^2 for L in the
        # numerator interval of |sigma(x)|^2 over den^2
        s, t_num = scale_sq.numerator * t.denominator, t.numerator * scale_sq.denominator

        def exact_sign() -> int | None:
            # scale_sq^k q^2 - t^k for x^k = q = a / d, times (sd td)^k d^2 > 0
            power = x
            for k in range(1, 31):
                if power.is_rational():
                    diff = s ** k * power.nums[0] ** 2 - t_num ** k * power.den ** 2
                    return (diff > 0) - (diff < 0)
                power = power * x
            return None

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
        """Certified sign of sigma(x) at a real place (x nonzero); exact on
        the surd numerators in quadratic fields. A place outside
        range(num_places) is a ValueError."""
        self._check_place(place)
        if self.n == 2:
            if self.r2:
                raise ValueError("sign only defined at real places")
            _, ((a, b),) = self.surd_numerators([x])
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

    def trace_form(self) -> list[list[int]]:
        """Matrix Tr(b_i b_j), det = disc: integers, since mult_table has
        checked that the basis is closed under multiplication. Its first
        row is Tr(b_j), as b_1 = 1."""
        key = "tf"
        if key not in self._cache:
            t, n = self.mult_table(), self.n
            trb = [sum(t[i][k][k] for k in range(n)) for i in range(n)]  # Tr(b_i)
            self._cache[key] = [[sum(t[i][j][k] * trb[k] for k in range(n)) for j in range(n)]
                                for i in range(n)]
        return self._cache[key]

    def conjugate(self, x: "FieldElement") -> "FieldElement":
        """Image under the nontrivial automorphism (quadratic fields only)."""
        m, ((a, b),) = self.surd_numerators([x])
        return self.from_surd_numerators(a, -b, m)

    def __repr__(self) -> str:
        return f"NumberField({list(self.min_poly)}, disc={self.disc})"


# ---------------------------------------------------------------------------
# Field elements

@dataclass(frozen=True, slots=True)
class FieldElement:
    """The element sum_i nums_i b_i / den on the integral basis: integer
    numerators over one positive den, brought to lowest terms on
    construction, so equal elements are equal records. A product is one
    integer bilinear sum through mult_table and one gcd. coords gives the
    coordinates as Fractions."""

    field: NumberField
    nums: tuple[int, ...]
    den: int = 1

    def __post_init__(self):
        if not self.den:
            raise ZeroDivisionError("element with denominator 0")
        g = math.gcd(self.den, *self.nums) * (1 if self.den > 0 else -1)
        if g != 1:
            object.__setattr__(self, "nums", tuple(v // g for v in self.nums))
            object.__setattr__(self, "den", self.den // g)

    @property
    def coords(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self.den) for v in self.nums)

    def __add__(self, other: "FieldElement") -> "FieldElement":
        a, b = self.den, other.den
        nums = tuple(x * b + y * a for x, y in zip(self.nums, other.nums))
        return FieldElement(self.field, nums, a * b)

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        a, b = self.den, other.den
        nums = tuple(x * b - y * a for x, y in zip(self.nums, other.nums))
        return FieldElement(self.field, nums, a * b)

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.field, tuple(-v for v in self.nums), self.den)

    def __mul__(self, other):
        if isinstance(other, FieldElement):
            t = self.field.mult_table()
            out = [0] * self.field.n
            for i, ci in enumerate(self.nums):
                if ci:
                    for j, cj in enumerate(other.nums):
                        if cj:
                            c = ci * cj
                            for k, tk in enumerate(t[i][j]):
                                if tk:
                                    out[k] += c * tk
            return FieldElement(self.field, tuple(out), self.den * other.den)
        p, q = other.as_integer_ratio()
        return FieldElement(self.field, tuple(v * p for v in self.nums), self.den * q)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, FieldElement):
            return self * other.inverse()
        p, q = other.as_integer_ratio()
        return FieldElement(self.field, tuple(v * q for v in self.nums), self.den * p)

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
        """The y with x y = 1: M(x) y = e_1 for the multiplication matrix
        M(x) = M(nums) / den, that is M(nums) y = den e_1, solved on
        integers by exact.int_solve: y = (det y) / det, det y an integer
        vector (Cramer)."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        rhs = [[self.den * (i == 0)] for i in range(self.field.n)]
        det, y = int_solve(self.field._mult_matrix(self.nums), rhs)
        return FieldElement(self.field, tuple(row[0] for row in y), det)

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def norm(self) -> Fraction:
        return Fraction(int_det(self.field._mult_matrix(self.nums)), self.den ** self.field.n)

    def trace(self) -> Fraction:
        trb = self.field.trace_form()[0]
        return Fraction(sum(v * t for v, t in zip(self.nums, trb)), self.den)

    def __repr__(self) -> str:
        return f"FieldElement({[str(c) for c in self.coords]})"


def common_numerators(xs) -> tuple[list[tuple[int, ...]], int]:
    """(rows, d): the numerators of each element of xs over their one least
    common denominator d."""
    d = math.lcm(*(x.den for x in xs))
    return [tuple(v * (d // x.den) for v in x.nums) for x in xs], d


# ---------------------------------------------------------------------------
# Construction and the module-level operations

def create_field(min_poly, integral_basis=None, prec: int = DEFAULT_PREC) -> NumberField:
    """Build a number field from an ascending-coefficient monic integer
    polynomial, optionally with an explicit order basis (rows over the power
    basis; the first row must be 1).

    Quadratic x^2 - d with d squarefree gets the canonical maximal-order
    basis automatically; other fields default to the power basis. prec
    outside 1..MAX_PREC is a ValueError: no escalation could start there,
    and one from prec < 1 would never grow.
    """
    if not 1 <= prec <= MAX_PREC:
        raise ValueError(f"precision outside 1..{MAX_PREC} bits")
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
        if rows[0] != [1] + [0] * (n - 1):
            raise FieldConstructionError("first basis element must be 1")
    den = math.lcm(*(x.denominator for row in rows for x in row))
    nums = tuple(tuple(x.numerator * (den // x.denominator) for x in row) for row in rows)

    r1 = sturm_real_root_count(coeffs)
    f = NumberField(tuple(coeffs), nums, den, n, r1, (n - r1) // 2, prec)
    if f.disc == 0:
        raise FieldConstructionError("trace form determinant is zero")
    return f


def partial_f(f: NumberField):
    """The constant (2/pi)^(r2) sqrt(|disc|) controlling box bounds."""
    return f.partial_constant()


def embed(f: NumberField, x: FieldElement, prec: int | None = None) -> ArchVector:
    return f.embed(x, prec)


def norm_trace(f: NumberField, x: FieldElement) -> tuple[Fraction, Fraction]:
    """Exact (norm, trace) of an element."""
    return x.norm(), x.trace()
