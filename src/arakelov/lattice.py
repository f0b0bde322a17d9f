"""Ideal lattices under the degree-weighted archimedean metric: Gram
matrices, LLL reduction, exact shortest-vector and box enumeration,
minimality tests and the covolume identity.

Gram matrices are stored with exact rational entries plus a certified
entrywise error bound. Totally real fields under one weight at every place
and imaginary quadratic fields produce error zero. Real quadratic fields
under unequal per-place weights (every reduction ellipsoid) carry
|b| 2^-prec per entry from a rational approximation of sqrt(disc), and
other fields a tiny bound from the interval embeddings; those Grams refine
themselves when a decision falls inside the bound.

LLL runs on the Gram scaled to integers with its integral Gram-Schmidt
data, and the shortest-vector search behind the lambda_1 test runs the one
Fincke-Pohst loop on that same integer data. An inexact Gram is searched at
its own precision: its midpoints, whose integers run far longer than their
certified error warrants, are rounded to a grid a few bits below that
error, LLL and the search run on the rounded Gram, and only the candidates
found are valued exactly on the midpoints (_rounded_attempt). Boxes,
principal generators and the unit lattice's closest vectors
(units.LogLattice) run the loop on Fraction or mpf rows from _ldl: they do
not LLL first, so there is no integral Gram-Schmidt data to reuse.

hermite_power(n) is gamma_n^n, the exact cap on lambda_1^(2n) / det G that
lets the census reject an inverse ideal from its covolume alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpf

from .exact import mat_det
from .ideals import FractionalIdeal, PlainLattice
from .numfield import (
    ArchVector,
    FieldElement,
    NumberField,
    _escalate,
    fraction_to_mpf,
    mpf_to_fraction,
)

LLL_DELTA = Fraction(99, 100)
DEGREE_TOL = 1e-9
_ENUM_SLACK = Fraction(1, 2 ** 20)
_LLL_ALPHA = 1 / (LLL_DELTA - Fraction(1, 4))  # ||b_1||^2 <= _LLL_ALPHA^(n-1) lambda_1^2
_ROUND_GUARD = 8  # bits below an inexact Gram's error that its rounding keeps


def _sqrt_approx(d: int, prec: int) -> tuple[Fraction, Fraction]:
    """(r, eps) with |r - sqrt(d)| <= eps, exact rationals."""
    scaled = math.isqrt(d * (1 << (2 * prec)))
    r = Fraction(scaled, 1 << prec)
    return r, Fraction(1, 1 << prec)


@dataclass(frozen=True, slots=True)
class GramMatrix:
    """Positive-definite Gram matrix of a scaled lattice basis.

    weights holds the exact squared per-place scale the entries were built
    with, so refine() rebuilds the same matrix at a higher precision.
    """

    field: NumberField | None
    source: tuple[FieldElement, ...]
    weights: tuple[Fraction, ...] | None
    entries: tuple[tuple[Fraction, ...], ...]
    err: Fraction
    prec: int

    @classmethod
    def from_entries(cls, entries) -> "GramMatrix":
        """Bare exact Gram matrix without a field lattice behind it."""
        frozen = tuple(tuple(Fraction(x) for x in row) for row in entries)
        return cls(None, (), None, frozen, Fraction(0), 53)

    @property
    def size(self) -> int:
        return len(self.entries)

    def det(self) -> Fraction:
        return mat_det([list(r) for r in self.entries])

    def value_error(self, coeffs) -> Fraction:
        if self.err == 0:
            return Fraction(0)
        s = sum(abs(c) for c in coeffs)
        return self.err * s * s

    def refine(self) -> "GramMatrix":
        """The same Gram rebuilt at twice the precision; a Gram built from
        bare entries is exact and comes back unchanged."""
        if self.field is None:
            return self
        return _gram(self.field, self.source, self.weights, self.prec * 2)


def _refining(gram: GramMatrix, attempt):
    """attempt(gram), attempt(gram.refine()), ... under the precision policy:
    the first result that is not None. A ValueError from an inexact Gram
    (its midpoint matrix is not positive definite) also refines."""
    def at(prec: int):
        nonlocal gram
        if gram.prec < prec:
            gram = gram.refine()
        try:
            return attempt(gram)
        except ValueError:
            if gram.err == 0:
                raise
            return None

    return _escalate(at, gram.prec, "gram matrix refinement exceeded precision cap")


@dataclass(frozen=True, slots=True)
class ShortVector:
    """Nonzero lattice vector with exact squared length bookkeeping."""

    coeffs: tuple[int, ...]
    element: FieldElement
    length_sq: Fraction
    length_sq_err: Fraction


def _u_weights(f: NumberField, u: ArchVector | None) -> list[Fraction]:
    """Per-place exact weights: u_sigma^2 at real places, |u_sigma|^2 at
    complex ones (the mpf entries are taken at their exact binary value)."""
    if u is None:
        return [Fraction(1)] * f.num_places
    out = []
    for v, d in zip(u.values, u.degs):
        if d == 1:
            out.append(mpf_to_fraction(v) ** 2)
        else:
            re, im = mpf_to_fraction(v.real), mpf_to_fraction(v.imag)
            out.append(re * re + im * im)
    return out


def _gram(f: NumberField, basis: tuple[FieldElement, ...],
          w: list[Fraction] | tuple[Fraction, ...], prec: int) -> GramMatrix:
    """Gram matrix of the basis with exact squared weights w_sigma per place:
    entry (i, j) is sum_sigma deg_sigma w_sigma Re(sigma(b_i) conj(sigma(b_j)))."""
    n = len(basis)

    if f.r2 == 0 and all(x == w[0] for x in w):
        # totally real, one weight: a multiple of the trace form, exact. With
        # the basis coordinates cleared to integer rows m by their lcm den,
        # entry (i, j) is w m_i T m_j^T / den^2 for the integer trace form T
        den = math.lcm(*(c.denominator for b in basis for c in b.coords))
        rows = [[c.numerator * (den // c.denominator) for c in b.coords] for b in basis]
        tf = _int_trace_form(f)
        row_t = [[sum(r[k] * tf[k][j] for k in range(f.n)) for j in range(f.n)]
                 for r in rows]
        scale = w[0] / (den * den)

        def entry(i, j):
            return scale * sum(a * b for a, b in zip(row_t[i], rows[j])), Fraction(0)

    elif f.n == 2 and f.r2 == 1:
        # single complex place: 2|u|^2 (a_i a_j - b_i b_j disc), exact
        pairs = [f.surd(x) for x in basis]

        def entry(i, j):
            (ai, bi), (aj, bj) = pairs[i], pairs[j]
            return 2 * w[0] * (ai * aj - bi * bj * f.disc), Fraction(0)

    elif f.n == 2:
        # real quadratic, per-place weights: entries live in Q(sqrt disc)
        r, eps = _sqrt_approx(f.disc, prec)

        def entry(i, j):
            a, b = f.surd(basis[i] * basis[j])
            a_part = (w[0] + w[1]) * a
            b_part = (w[0] - w[1]) * b
            return a_part + b_part * r, abs(b_part) * eps

    else:
        # general field: certified interval embeddings on integer endpoints.
        # At place p every element's rectangle is brought over one
        # denominator den_p, so a product of two intervals is four integer
        # products over den_p^2; scale[p] = common deg_p w_p / den_p^2 is an
        # integer for the common denominator of those factors. A positive
        # common denominator keeps each min and max in place, so the
        # entries are those of rational interval arithmetic.
        emb, factors = [], []
        for place in range(f.num_places):
            raw = [f.embed_interval(x, place, prec) for x in basis]
            den = math.lcm(*(r[0] for r in raw))
            emb.append([_rescale(r, den // r[0]) for r in raw])
            factors.append(w[place] * f.degs[place] / (den * den))
        common = math.lcm(*(q.denominator for q in factors))
        scale = [q.numerator * (common // q.denominator) for q in factors]

        def entry(i, j):
            lo = hi = 0
            for k, rects in zip(scale, emb):
                (ril, rih), im_i = rects[i]
                (rjl, rjh), im_j = rects[j]
                ps = (ril * rjl, ril * rjh, rih * rjl, rih * rjh)
                plo, phi = min(ps), max(ps)
                if im_i is not None:
                    (iil, iih), (ijl, ijh) = im_i, im_j
                    ps = (iil * ijl, iil * ijh, iih * ijl, iih * ijh)
                    plo, phi = plo + min(ps), phi + max(ps)
                lo += k * plo
                hi += k * phi
            return Fraction(lo + hi, 2 * common), Fraction(hi - lo, 2 * common)

    # every backend is symmetric in (i, j): fill the upper triangle, mirror it
    entries = [[None] * n for _ in range(n)]
    err = Fraction(0)
    for i in range(n):
        for j in range(i, n):
            entries[i][j], e = entry(i, j)
            entries[j][i] = entries[i][j]
            err = max(err, e)

    return GramMatrix(f, tuple(basis), tuple(w), _freeze(entries), err, prec)


def _rescale(rect, m: int):
    """An embed_interval numerator rectangle (den, re_iv, im_iv) as the pair
    (re_iv, im_iv) of numerators over den * m."""
    _, (rl, rh), im = rect
    return (rl * m, rh * m), None if im is None else (im[0] * m, im[1] * m)


def _int_trace_form(f: NumberField) -> list[list[int]]:
    """f.trace_form() as ints (the trace form of an order is integral)."""
    key = "tf_int"
    if key not in f._cache:
        f._cache[key] = [[int(x) for x in row] for row in f.trace_form()]
    return f._cache[key]


def _freeze(m) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(row) for row in m)


def _basis_of(lattice: FractionalIdeal | PlainLattice | list[FieldElement]):
    if isinstance(lattice, (FractionalIdeal, PlainLattice)):
        return tuple(lattice.basis_elements())
    return tuple(lattice)


def gram_of(f: NumberField, lattice: FractionalIdeal | PlainLattice | list[FieldElement],
            u: ArchVector | None = None, prec: int | None = None) -> GramMatrix:
    """Gram matrix of the lattice scaled per place by u (u = None means 1)."""
    return _gram(f, _basis_of(lattice), _u_weights(f, u), prec or f.prec)


# ---------------------------------------------------------------------------
# LLL over exact rationals (Gram only), run on the Gram scaled to integers

def _ldl(g: list[list[Fraction]]):
    """G = L D L^T for a positive-definite G: (d, l) with l unit lower
    triangular; l[i][j] (i > j) are the Gram-Schmidt coefficients mu_ij and
    d the squared Gram-Schmidt lengths. Exact over Fractions; mpf entries
    give the factorisation at the working precision."""
    n = len(g)
    l = [[Fraction(0)] * n for _ in range(n)]
    d = [Fraction(0)] * n
    for i in range(n):
        l[i][i] = Fraction(1)
        acc = g[i][i] - sum((l[i][k] * l[i][k] * d[k] for k in range(i)), Fraction(0))
        d[i] = acc
        if d[i] <= 0:
            raise ValueError("matrix not positive definite")
        for j in range(i + 1, n):
            v = g[j][i] - sum((l[j][k] * l[i][k] * d[k] for k in range(i)), Fraction(0))
            l[j][i] = v / d[i]
    return d, l


def _int_gram_schmidt(g: list[list[int]]):
    """Integral Gram-Schmidt data of a positive-definite integer Gram
    (Cohen, Alg. 2.6.7): d[i] is the leading i x i minor (d[0] = 1) and
    lam[i][j] = d[j+1] mu_ij for j < i, both integers, from exact Bareiss
    divisions. The i-th squared Gram-Schmidt length is d[i+1] / d[i]."""
    n = len(g)
    d = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            u = g[i][j]
            for k in range(j):
                u = (d[k + 1] * u - lam[i][k] * lam[j][k]) // d[k]
            if j < i:
                lam[i][j] = u
            elif u <= 0:
                raise ValueError("matrix not positive definite")
            else:
                d[i + 1] = u
    return d, lam


def _int_entries(entries) -> tuple[list[list[int]], int]:
    """(cur, den): the rational entries as integers over their lcm den."""
    den = math.lcm(*(x.denominator for row in entries for x in row))
    return [[x.numerator * (den // x.denominator) for x in row] for row in entries], den


def _lll_core(cur: list[list[int]]):
    """LLL with delta = LLL_DELTA on an integer Gram: (umat, cur, d, lam).

    The run keeps the integral Gram-Schmidt data of _int_gram_schmidt: size
    reduction takes q = round(mu_kj) = floor((2 lam_kj + d_j+1) / (2 d_j+1)),
    and the Lovasz condition B_k >= (delta - mu^2) B_k-1 reads
    d_k+1 d_k-1 + lam^2 >= delta d_k^2. Every decision is the rational one,
    so a Gram scaled by a positive constant gets the same transform. On
    return umat is the transform (rows on the source basis), cur the reduced
    Gram (the argument, reduced in place) and (d, lam) its integral
    Gram-Schmidt data, d[0] = 1.
    """
    n = len(cur)
    umat = [[int(i == j) for j in range(n)] for i in range(n)]

    def apply_row_op(dst: int, src: int, q: int):
        # row_dst -= q * row_src on both the transform and the gram
        for j in range(n):
            umat[dst][j] -= q * umat[src][j]
        for j in range(n):
            cur[dst][j] -= q * cur[src][j]
        for i in range(n):
            cur[i][dst] -= q * cur[i][src]

    def swap_rows(a: int, b: int):
        umat[a], umat[b] = umat[b], umat[a]
        cur[a], cur[b] = cur[b], cur[a]
        for i in range(n):
            cur[i][a], cur[i][b] = cur[i][b], cur[i][a]

    d, lam = _int_gram_schmidt(cur)
    k = 1
    guard = 0
    while k < n:
        guard += 1
        if guard > 10000 * n * n:
            raise RuntimeError("LLL failed to terminate")
        for j in range(k - 1, -1, -1):
            dj = d[j + 1]
            q = (2 * lam[k][j] + dj) // (2 * dj)
            if q:
                apply_row_op(k, j, q)
                # b_k -= q b_j leaves every b*_i and every other row of mu
                lam[k][j] -= q * dj
                for i in range(j):
                    lam[k][i] -= q * lam[j][i]
        lhs = LLL_DELTA.denominator * (d[k + 1] * d[k - 1] + lam[k][k - 1] ** 2)
        if lhs >= LLL_DELTA.numerator * d[k] ** 2:
            k += 1
        else:
            swap_rows(k, k - 1)
            d, lam = _int_gram_schmidt(cur)
            k = max(k - 1, 1)
    return umat, cur, d, lam


def _reduced_gram(g: GramMatrix, umat, cur, den: int) -> GramMatrix:
    """The GramMatrix of the reduced basis umat * g.source, entries cur / den."""
    basis = tuple(_combinations(g.field, g.source, umat)) if g.source else ()
    # entry (i, j) is U_i G U_j^T of the midpoints: off by ||U_i||_1 ||U_j||_1 err
    err = g.err * max(sum(abs(c) for c in row) for row in umat) ** 2
    entries = tuple(tuple(Fraction(x, den) for x in row) for row in cur)
    return GramMatrix(g.field, basis, g.weights, entries, err, g.prec)


def lll_reduce(g: GramMatrix):
    """LLL with delta = LLL_DELTA on the Gram matrix; returns (transform,
    reduced GramMatrix).

    The transform rows express the reduced basis on the source basis; the
    reduced GramMatrix carries that reduced basis as its source. The run
    is _lll_core's, on integers; this packs its transform and integer Gram.
    """
    cur, den = _int_entries(g.entries)
    umat, cur, _, _ = _lll_core(cur)
    return umat, _reduced_gram(g, umat, cur, den)


# ---------------------------------------------------------------------------
# Fincke-Pohst enumeration

def _fincke_pohst_row(used, di, mid, radius):
    """Yield (x, used + di (x - mid)^2) for every integer x where that is at
    most radius, ascending; a level holds no list of its points.

    The value is convex in x with its minimum between floor(mid) and
    floor(mid) + 1, so the points at or below the floor form a run
    [lo, floor]. lo is found by doubling steps down from the floor, then
    halving them; the walk then climbs from lo while the value stays inside.
    """
    floor = int(mid)  # toward zero, exact for Fraction and mpf
    if floor > mid:
        floor -= 1
    # every x in [lo, floor] is inside; once a doubling step fails, lo - step
    # is outside and the halving steps close the gap
    lo, step = floor + 1, 1
    while used + di * (lo - step - mid) ** 2 <= radius:
        lo -= step
        step *= 2
    while step > 1:
        step //= 2
        if used + di * (lo - step - mid) ** 2 <= radius:
            lo -= step
    x = lo
    while (value := used + di * (x - mid) ** 2) <= radius:
        yield x, value
        x += 1


def _fincke_pohst_int_row(used, level, mid, radius):
    """The integer row: level = (c, e), and the value is
    used + c (e x - mid)^2 for integers throughout. It is at most radius
    exactly when |e x - mid| <= t = isqrt((radius - used) // c), so the
    run is x = ceil((mid - t) / e), ... while e x - mid <= t."""
    c, e = level
    t = math.isqrt((radius - used) // c)
    x = -((t - mid) // e)
    while (v := e * x - mid) <= t:
        yield x, used + c * v * v
        x += 1


def _fincke_pohst(d, l, centre, radius, row=_fincke_pohst_row):
    """Yield (value, a) for every integer vector a with
    (a - centre)^T G (a - centre) = value <= radius, where G = L D L^T is
    given by the factors (d, l) of _ldl. Depth first: the last coordinate
    varies slowest and each coordinate runs in ascending order. The same
    loop runs on Fraction data (exact), on mpf data (at the working
    precision) and, with row=_fincke_pohst_int_row, on the integer levels
    of _int_search.

    With mid_i = centre_i - sum_{k > i} l_ki (a_k - centre_k) the value is
    sum_i d_i (a_i - mid_i)^2; part[i] holds the terms k >= i of the current
    prefix, and rows[i] the remaining points of level i.
    """
    n = len(d)
    a = [0] * n
    part = [0] * (n + 1)
    rows = [None] * n
    i = n - 1
    rows[i] = row(0, d[i], centre[i], radius)
    while i < n:
        step = next(rows[i], None)
        if step is None:
            i += 1
        elif i:
            a[i], part[i] = step
            i -= 1
            mid = centre[i] - sum(l[k][i] * (a[k] - centre[k]) for k in range(i + 1, n))
            rows[i] = row(part[i + 1], d[i], mid, radius)
        else:
            a[0], value = step
            yield value, tuple(a)


def _int_search(cur: list[list[int]], den: int, d: list[int], lam, radius: Fraction):
    """Yield (value, x) for every nonzero integer x with
    value = x^T G x <= radius, G = cur / den with cur an integer Gram and
    (d, lam) its integral Gram-Schmidt data, in the order of
    enumerate_quadratic_form on G.

    With m = lcm_i d_i d_i+1 and S_i = sum_{k > i} lam_ki x_k,

        m x^T cur x = sum_i c_i (d_i+1 x_i + S_i)^2,   c_i = m / (d_i d_i+1),

    so the loop runs on the levels (c_i, d_i+1) with row
    _fincke_pohst_int_row against the integer bound floor(m den radius):
    integers at every node, and a value becomes a Fraction only when its
    vector is yielded."""
    n = len(cur)
    m = math.lcm(*(d[i] * d[i + 1] for i in range(n)))
    levels = [(m // (d[i] * d[i + 1]), d[i + 1]) for i in range(n)]
    scale = m * den  # a node's value over scale is x^T G x
    bound = radius.numerator * scale // radius.denominator
    for value, x in _fincke_pohst(levels, lam, [0] * n, bound, _fincke_pohst_int_row):
        if any(x):
            yield Fraction(value, scale), x


def enumerate_quadratic_form(entries: tuple[tuple[Fraction, ...], ...],
                             radius: Fraction):
    """All nonzero integer vectors x with x^T G x <= radius.

    Returns (value, coeffs) pairs, both signs of each vector, sorted
    lexicographically on the reversed coefficient tuple.
    """
    d, l = _ldl([list(r) for r in entries])
    return [(value, a) for value, a in _fincke_pohst(d, l, [0] * len(d), radius)
            if any(a)]


def _canonical_sign(coeffs: tuple[int, ...]) -> tuple[int, ...]:
    for c in coeffs:
        if c > 0:
            return coeffs
        if c < 0:
            return tuple(-x for x in coeffs)
    return coeffs


def _combinations(f: NumberField, source, rows) -> list[FieldElement]:
    """sum_i row_i source_i for each coefficient row: the source coordinates
    are cleared to integers by their lcm once, so each coordinate is one
    integer dot product over that denominator."""
    den = math.lcm(*(x.denominator for b in source for x in b.coords))
    cols = [[x.numerator * (den // x.denominator) for x in col]
            for col in zip(*(b.coords for b in source))]
    return [FieldElement(f, tuple(Fraction(sum(c * x for c, x in zip(row, col)), den)
                                  for col in cols))
            for row in rows]


def _element_of(g: GramMatrix, coeffs) -> FieldElement | None:
    if not g.source:
        return None
    return _combinations(g.field, g.source, [coeffs])[0]


def _fine_gram(gram: GramMatrix, radius: Fraction) -> GramMatrix:
    """gram, refined until err * 4n^2, the error a short vector's value can
    carry, is at most radius * _ENUM_SLACK; an exact Gram as it is."""
    n = gram.size
    slack = radius * _ENUM_SLACK
    return _refining(gram, lambda g: g if g.err * (4 * n * n) <= slack else None)


def _enumerate_ellipsoid(gram: GramMatrix, radius: Fraction):
    """Yield (value, coeffs) for every nonzero lattice vector with
    x^T G x <= radius, coefficients on gram.source, both signs, in the order
    of enumerate_quadratic_form; _element_of(gram, coeffs) is the vector.
    An inexact Gram is refined first (_fine_gram)."""
    yield from enumerate_quadratic_form(_fine_gram(gram, radius).entries, radius)


def shortest_vector(g: GramMatrix) -> ShortVector:
    """A shortest nonzero vector, exact for exact Gram matrices; ties are
    broken toward the lexicographically smallest positive-leading coeffs."""
    return _refining(g, _shortest_attempt)


# gamma_n^n for n = 1..8 (Conway-Sloane, Sphere Packings, Lattices and
# Groups, ch. 1, Table 1.2), attained by Z, A2, A3, D4, D5, E6, E7 and E8
_HERMITE_POWERS = (Fraction(1), Fraction(4, 3), Fraction(2), Fraction(4),
                   Fraction(8), Fraction(64, 3), Fraction(64), Fraction(256))


def hermite_power(n: int) -> Fraction:
    """gamma_n^n, Hermite's constant to the n-th power: every rank-n lattice
    has lambda_1^(2n) <= gamma_n^n det G. Exact for n <= 8; above, Hermite's
    bound (4/3)^(n(n-1)/2)."""
    if n <= len(_HERMITE_POWERS):
        return _HERMITE_POWERS[n - 1]
    return Fraction(4, 3) ** (n * (n - 1) // 2)


def _shortest_attempt(g: GramMatrix) -> ShortVector:
    """Shortest vector of g at its precision: LLL, then the Fincke-Pohst
    loop on integers inside the LLL radius, the least diagonal entry of
    the reduced Gram.

    An exact Gram is searched on _lll_core's integer Gram and integral
    Gram-Schmidt data (_int_search): no _ldl, no Fraction per node, and
    only the winner becomes a FieldElement. The (value, coeffs) are those
    of enumerate_quadratic_form on the same entries, in the same order.

    An inexact Gram runs the same steps on its midpoints rounded to its
    certified error (_rounded_attempt), refined until that rounding is fine
    enough for the radius; the candidates are valued exactly on the
    midpoints, and the one picked is reported with the error the midpoints
    allow (3 margin + spread).
    """
    if g.err:
        return _refining(g, _rounded_attempt)
    n = g.size
    cur, den = _int_entries(g.entries)
    umat, cur, d, lam = _lll_core(cur)
    radius = Fraction(min(cur[i][i] for i in range(n)), den)
    mapped = [(value, _canonical_sign(_on_source(umat, x)))
              for value, x in _int_search(cur, den, d, lam, radius)]
    if not mapped:
        raise RuntimeError("enumeration found no vectors inside the LLL radius")
    best = min(v for v, _ in mapped)
    coeffs = min(x for v, x in mapped if v == best)
    return ShortVector(coeffs, _element_of(g, coeffs), best, Fraction(0))


def _on_source(umat, x) -> tuple[int, ...]:
    """Coefficients on the source basis of x on the reduced basis umat."""
    n = len(umat)
    return tuple(sum(x[i] * umat[i][j] for i in range(n)) for j in range(n))


def _rounded_attempt(g: GramMatrix) -> ShortVector | None:
    """_shortest_attempt for an inexact Gram g at its precision, or None
    when g is too coarse for the search.

    The midpoints G carry integers far longer than their error e warrants,
    so LLL and the search run on H, G rounded to the nearest multiples of
    2^-k with 2^-k <= e / 2^_ROUND_GUARD: |H - G| <= delta = 2^-(k+1)
    entrywise. Every candidate is mapped back through the transform U and
    valued exactly on G, one integer quadratic form each, and the pick is
    the rule for inexact Grams: best, the least value; margin, the largest
    value_error; the close set, values within best + 2 margin; the least
    coefficients in it; error 3 margin + spread.

    Why the candidates suffice. Write v_G, v_H for the two forms,
    L = n tr(H^-1) and eps = (e + delta) L.
      (1) ||x||_1^2 <= n ||x||_2^2 <= L v_H(x) for every real x, since
          tr(H^-1) bounds 1 / (least eigenvalue of H).
      (2) |v_G(x) - v_H(x)| <= delta ||x||_1^2 <= eps v_H(x), so
          (1 - eps) v_H(x) <= v_G(x) <= (1 + eps) v_H(x).
    The candidates are the x with v_H(x) <= R = r (1 + s), r the least
    diagonal entry of U H U^T and s = _ENUM_SLACK. By (2) every x with
    v_G(x) <= (1 - eps) R is one, and best <= v_G(that row) <= b = r (1 + eps).
    By (1) and (2) a set of vectors with v_G <= V has margin at most
    m(V) = e L V / (1 - eps). The candidates have v_G <= (1 + eps) R. A
    search of G itself, LLL on G and then the radius r_G (1 + s) + 4 n^2 e
    with r_G its least reduced diagonal entry, has r_G <= a^(n-1) best (the
    LLL bound, a = 1 / (LLL_DELTA - 1/4)). Both radii thus lie below
    V = a^(n-1) (1 + s) b + 4 n^2 e, and both margins are at most m(V).
    When (1 - eps) R >= b + 2 m(V), which is checked, the candidates hold
    every vector within best + 2 margin of either search; otherwise the
    attempt returns None and _refining refines g. Both searches thus value
    the same vectors at the same midpoint values, so best and, unless some
    vector's value lies strictly between best plus twice the one margin and
    best plus twice the other, the close set, winner, value and spread are
    the same rationals; only the error term 3 margin can differ, by less
    than 3 m(V).
    """
    n, e = g.size, g.err
    k = e.denominator.bit_length() - e.numerator.bit_length() + 1 + _ROUND_GUARD
    scale = 1 << k
    cur = [[((x.numerator << (k + 1)) + x.denominator) // (2 * x.denominator) for x in row]
           for row in g.entries]
    ell = n * scale * _inverse_trace(cur)
    umat, cur, d, lam = _lll_core(cur)
    r = Fraction(min(cur[i][i] for i in range(n)), scale)
    radius = r * (1 + _ENUM_SLACK)
    eps = (e + Fraction(1, 2 * scale)) * ell
    if eps >= 1:
        return None
    b = r * (1 + eps)
    far = _LLL_ALPHA ** (n - 1) * (1 + _ENUM_SLACK) * b + 4 * n * n * e
    if (1 - eps) * radius < b + 2 * e * ell * far / (1 - eps):
        return None
    exact, den = _int_entries(g.entries)
    found = {_canonical_sign(_on_source(umat, x))
             for _, x in _int_search(cur, scale, d, lam, radius)}
    mapped = [(Fraction(_int_qform(exact, x), den), x) for x in found]
    best = min(v for v, _ in mapped)
    margin = max(g.value_error(x) for _, x in mapped)
    close = sorted((v, x) for v, x in mapped if v <= best + 2 * margin)
    val, coeffs = min(close, key=lambda t: (t[1], t[0]))
    spread = close[-1][0] - best
    return ShortVector(coeffs, _element_of(g, coeffs), val, 3 * margin + spread)


def _inverse_trace(cur: list[list[int]]) -> Fraction:
    """tr(cur^-1) of a positive-definite integer Gram: its principal
    (n-1)-minors over its determinant."""
    n = len(cur)

    def det(rows):
        return _int_gram_schmidt([[cur[i][j] for j in rows] for i in rows])[0][-1]

    return Fraction(sum(det([i for i in range(n) if i != m]) for m in range(n)),
                    det(range(n)))


def _int_qform(g: list[list[int]], x) -> int:
    """x^T g x for an integer matrix g."""
    return sum(xi * sum(gij * xj for gij, xj in zip(row, x) if xj)
               for row, xi in zip(g, x) if xi)


def lll_first_vector(g: GramMatrix) -> ShortVector:
    cur, den = _int_entries(g.entries)
    umat, cur, _, _ = _lll_core(cur)
    coeffs = _canonical_sign(tuple(umat[0]))
    return ShortVector(coeffs, _element_of(g, coeffs), Fraction(cur[0][0], den),
                       g.value_error(coeffs))


# ---------------------------------------------------------------------------
# Box enumeration and minimality

def _bounds_fractions(bounds, num_places: int) -> list[Fraction]:
    """Exact rational bounds; mpf and float entries at their exact binary value."""
    values = bounds.values if isinstance(bounds, ArchVector) else bounds
    vals = [mpf_to_fraction(b) if isinstance(b, mpf) else Fraction(b) for b in values]
    if len(vals) != num_places:
        raise ValueError("one bound per infinite place required")
    if any(b <= 0 for b in vals):
        raise ValueError("bounds must be positive")
    return vals


def _ellipsoid_gram(f: NumberField, lattice, w: list[Fraction],
                    b: list[Fraction]) -> GramMatrix:
    """Gram of the lattice scaled per place by u_sigma / bound_sigma."""
    return _gram(f, _basis_of(lattice), [wp / (bp * bp) for wp, bp in zip(w, b)],
                 f.prec)


def _box_points(f: NumberField, lattice, u: ArchVector | None, bounds,
                strict: bool):
    """Yield (value, coeffs, g) for every nonzero lattice element g with
    u_sigma |sigma(g)| < bound_sigma at every place (<= when strict is
    False), in the order of enumerate_quadratic_form.

    The candidates come from the degree-weighted ellipsoid relaxation, value
    being x^T G x on its Gram (the weighted T2 of g over the bounds squared);
    each is then checked per place with cmp_abs_sq, so the points are exact
    with respect to the given rational bounds.
    """
    b = _bounds_fractions(bounds, f.num_places)
    w = _u_weights(f, u)
    gram = _ellipsoid_gram(f, lattice, w, b)
    radius = Fraction(f.n) * (1 + _ENUM_SLACK)
    for value, coeffs in _enumerate_ellipsoid(gram, radius):
        g = _element_of(gram, coeffs)
        for place in range(f.num_places):
            sgn = f.cmp_abs_sq(g, place, b[place] ** 2, w[place])
            if sgn > 0 or (strict and sgn == 0):
                break
        else:
            yield value, coeffs, g


def enumerate_box(f: NumberField, lattice, u: ArchVector | None, bounds,
                  strict: bool = True) -> list[FieldElement]:
    """All nonzero lattice elements g with u_sigma |sigma(g)| < bound_sigma
    at every place (<= when strict is False), sorted by their coefficients
    on the lattice basis."""
    points = sorted(_box_points(f, lattice, u, bounds, strict), key=lambda p: p[1])
    return [g for _, _, g in points]


def is_minimal(f: NumberField, lattice, x: FieldElement) -> bool:
    """Whether no nonzero lattice element is strictly smaller at every place."""
    if x.is_zero():
        raise ValueError("zero is never minimal")
    if not lattice.contains(x):
        raise ValueError("element does not lie in the lattice")
    # g < x at every place exactly when g/x < 1 at every place
    inv = x.inverse()
    scaled = [b * inv for b in _basis_of(lattice)]
    smaller = _box_points(f, scaled, None, [1] * f.num_places, strict=True)
    return next(smaller, None) is None


def _degree(ideal: FractionalIdeal, u: ArchVector):
    """deg(I, u) = -log N(I) - sum_sigma deg_sigma log|u_sigma|, at u's precision."""
    n_ideal = ideal.norm()
    with mp.workprec(u.prec):
        log_n = mp.log(mpf(n_ideal.numerator)) - mp.log(mpf(n_ideal.denominator))
        return -log_n - sum(d * mp.log(abs(v)) for v, d in zip(u.values, u.degs))


def _box_side(f: NumberField) -> Fraction:
    """Side of the closed box in which minimal_element_bounded searches a
    degree-zero pair: the box-bound constant to the power 1/n, at the field
    precision, widened by 2^-64. A per-field constant, cached."""
    key = ("box_side", f.prec)
    if key not in f._cache:
        with mp.workprec(f.prec):
            target = f.partial_constant() ** (mpf(1) / f.n)
        f._cache[key] = mpf_to_fraction(target) * (1 + Fraction(1, 1 << 64))
    return f._cache[key]


def minimal_element_bounded(f: NumberField, ideal: FractionalIdeal,
                            u: ArchVector) -> FieldElement:
    """A minimal element g of the ideal with u_sigma |sigma(g)| below the
    box-bound constant at every place, chosen deterministically.

    The closed scaled box is nonempty for degree-0 pairs. Its point of least
    weighted T2, ties broken by the lexicographically smallest
    positive-leading coefficients, is the pick; it is minimal, since an
    element smaller at every place would lie in the box with a smaller T2.
    """
    deg = _degree(ideal, u)
    if abs(deg) > DEGREE_TOL:
        raise ValueError(f"(I, u) has degree {float(deg)}, not zero")
    box = _box_side(f)
    # the ellipsoid Gram is gram_of(f, ideal, u) over box^2: it orders by T2
    points = _box_points(f, ideal, u, [box] * f.num_places, strict=False)
    best = min(((value, _canonical_sign(g.coords)) for value, _, g in points),
               default=None)
    if best is None:
        raise RuntimeError("bounded box is empty; degree-0 precondition violated")
    return f.element(best[1])


def covolume_check(f: NumberField, divisor) -> tuple:
    """(Gram-determinant covolume, closed-form covolume) of a divisor's
    lattice; the two must agree within tolerance."""
    gram = gram_of(f, divisor.ideal, divisor.u)
    with mp.workprec(max(f.prec, 64)):
        det = gram.det()
        from_gram = mp.sqrt(fraction_to_mpf(det, f.prec))
        deg = divisor.degree()
        closed = mp.sqrt(abs(f.disc)) * mp.exp(-deg)
    return from_gram, closed
