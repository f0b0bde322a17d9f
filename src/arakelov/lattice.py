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
found are valued exactly on the midpoints (_rounded_attempt). The unit
lattice's closest vectors (units.LogLattice) run the loop on integer
levels too (_int_levels), about a dyadic centre scaled to integers. Boxes
do not LLL first: they run the loop on the exact Fraction L D L^T factors
that _ldl reads off the same integral Gram-Schmidt data of their Gram, the
only users of _ldl with enumerate_quadratic_form. One Gram-Schmidt,
_int_gram_schmidt, is behind every factorisation, and one row,
_fincke_pohst_row, behind every level of the loop: a level (c, e) about
mid holds the x with used + c (e x - mid)^2 <= radius, a run of
consecutive integers that one isqrt bounds, on ints or Fractions alike.

Every search about the origin walks half the Fincke-Pohst tree: x and -x
have one value, so the loop yields only the x whose last nonzero
coordinate is positive. enumerate_quadratic_form adds the other signs back
in their sorted order (_both_signs); the lambda_1 search needs only each
pair's canonical sign, and a box checks each pair once at its places.

A box is walked lazily, each candidate checked at its places as it comes,
and the walk takes a lower radius mid-walk (_fincke_pohst's send
protocol): the box minimum of minimal_element_bounded is a branch and
bound that searches only inside the ellipsoid of its best point so far.

hermite_power(n) is gamma_n^n, the exact cap on lambda_1^(2n) / det G that
lets the census reject an inverse ideal from its covolume alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpf

from .exact import mat_det, sign_surd_sq
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
        # real quadratic, per-place weights: entries live in Q(sqrt disc).
        # With the basis as surd numerators (A_i + B_i sqrt(disc)) / m,
        # b_i b_j = (P + Q sqrt(disc)) / m^2 for the integers
        # P = A_i A_j + B_i B_j disc and Q = A_i B_j + A_j B_i, and entry
        # (i, j) is (w_0 + w_1) P / m^2 + (w_0 - w_1) Q r / m^2 with
        # r = s / 2^prec, sqrt(disc) to within 2^-prec: one Fraction of
        # integers over (m^2 2^prec) times the weights' denominators
        s, disc = math.isqrt(f.disc << (2 * prec)), f.disc
        m, nums = f.surd_numerators(basis)
        wp, wm = w[0] + w[1], w[0] - w[1]
        cp = wp.numerator * wm.denominator << prec
        cq = wm.numerator * wp.denominator * s
        den = wp.denominator * wm.denominator * m * m << prec
        err_den = wm.denominator * m * m << prec

        def entry(i, j):
            (ai, bi), (aj, bj) = nums[i], nums[j]
            q = ai * bj + aj * bi
            return (Fraction(cp * (ai * aj + bi * bj * disc) + cq * q, den),
                    Fraction(abs(wm.numerator * q), err_den))

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


def _ldl(g: list[list[Fraction]]):
    """G = L D L^T for a positive-definite rational G: (d, l) with l unit
    lower triangular; l[i][j] (i > j) are the Gram-Schmidt coefficients
    mu_ij and d the squared Gram-Schmidt lengths, exact Fractions.

    Read off _int_gram_schmidt of G scaled to integers, den G: with D its
    leading minors and lam its integral coefficients, d_i = D_i+1 / (D_i den)
    and mu_ij = lam_ij / D_j+1. L D L^T is unique, so these are the
    factors of any exact elimination."""
    cur, den = _int_entries(g)
    dd, lam = _int_gram_schmidt(cur)
    n = len(cur)
    d = [Fraction(dd[i + 1], dd[i] * den) for i in range(n)]
    l = [[Fraction(lam[i][j], dd[j + 1]) if j < i else Fraction(int(i == j))
          for j in range(n)] for i in range(n)]
    return d, l


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

def _fincke_pohst_row(used, level, mid, radius, start=None):
    """Yield (x, used + c (e x - mid)^2) for every integer x where that is
    at most radius, ascending, for level = (c, e); a level holds no list of
    its points. The arguments are ints or Fractions, and an int row builds
    no Fraction.

    With mid = M / D in lowest terms (D = 1 for an int) a point lies inside
    exactly when |e D x - M| <= t = isqrt(floor((radius - used) D^2 / c)),
    an integer bound on an integer (Fincke and Pohst, Math. Comp. 1985), so
    the run is x = ceil((M - t) / (e D)), ... while e D x - M <= t. A given
    start (a half-tree level, where mid = 0) replaces its first point.
    """
    if radius < used:
        return
    c, e = level
    num, den = mid.numerator, mid.denominator
    t = math.isqrt((radius - used) * den * den // c)
    step = e * den
    x = -((t - num) // step) if start is None else start
    while step * x - num <= t:
        yield x, used + c * (e * x - mid) ** 2
        x += 1


def _fincke_pohst(levels, l, shift, radius):
    """Yield (value, a) for every integer vector a with value <= radius,
    where value = sum_i c_i (e_i a_i - mid_i)^2 over the levels (c_i, e_i)
    and mid_i = shift_i - sum_{k > i} l_ki a_k. Depth first: the last
    coordinate varies slowest and each coordinate runs in ascending order,
    so the vectors come sorted on their reversed tuple. Every level is one
    _fincke_pohst_row, looked up at call time.

    About a centre c the shift is shift_i = e_i c_i + sum_{k > i} l_ki c_k,
    so that e_i a_i - mid_i = e_i (a_i - c_i) + sum_{k > i} l_ki (a_k - c_k).
    On _ldl's factors G = L D L^T the levels are (d_i, 1) and the value is
    (a - c)^T G (a - c), on exact Fractions; _box_points and
    enumerate_quadratic_form, _ldl's only users, walk them about the
    origin. _int_half passes the integer levels of its scaled Gram
    (_int_levels), lam as l and an integer radius, about the origin, and
    units.LogLattice the same levels about a dyadic centre C / D, with
    every e_i and l_ki times D and the shift of C on the unscaled levels:
    its values are integers, D^2 times those about C / D.

    shift None is the origin, and there the loop walks half its tree
    (Fincke-Pohst, Math. Comp. 1985): a and -a have one value, so only the
    nonzero a whose last nonzero coordinate is positive are yielded. A level
    whose higher coordinates are all zero has mid = 0, and its row starts at
    0, or at 1 on level 0, which skips the origin. Any given shift, a
    computed one that happens to be zero included, walks the whole tree.

    A lower radius can be sent mid-walk (branch and bound; Agrell, Eriksson,
    Vardy and Zeger, "Closest point search in lattices", IEEE Trans. IT
    2002): walk.send(r) returns the next vector whose value is <= r, and
    from then on the walk yields exactly the vectors of the whole walk, in
    its order, whose value is at most the least radius sent. A radius no
    lower than the one in force changes nothing, and next(walk) sends none.
    Rows opened from then on take the lower radius; the rows already open
    are cut by _below.

    part[i] holds the terms k >= i of the current prefix's value, and
    rows[i] the remaining points of level i.
    """
    n = len(levels)
    half = shift is None
    if half:
        shift = [0] * n
    a = [0] * n
    part = [0] * (n + 1)
    rows = [None] * n
    i = n - 1
    rows[i] = _fincke_pohst_row(0, levels[i], shift[i], radius,
                                int(i == 0) if half else None)
    while i < n:
        step = next(rows[i], None)
        if step is None:
            i += 1
        elif i:
            a[i], part[i] = step
            i -= 1
            mid = shift[i] - sum(l[k][i] * a[k] for k in range(i + 1, n))
            start = int(i == 0) if half and not any(a[i + 1:]) else None
            rows[i] = _fincke_pohst_row(part[i + 1], levels[i], mid, radius, start)
        else:
            a[0], value = step
            lower = yield value, tuple(a)
            if lower is not None and lower < radius:
                # at a leaf every level has an open row, opened at a larger radius
                radius = lower
                rows = [_below(r, radius) for r in rows]


def _below(row, radius):
    """The points of a Fincke-Pohst row, opened at a larger radius, whose
    value is at most radius. A row's values are convex in x, so once a value
    above radius is no smaller than the one before it, every later value is
    above radius too, and the row stops there."""
    last = None
    for x, value in row:
        if value <= radius:
            yield x, value
        elif last is not None and value >= last:
            return
        last = value


def _both_signs(half: list) -> list:
    """The half tree's (value, x) list with every (value, -x) added, sorted
    on the reversed tuple as the whole tree yields it: each -x has a
    negative last nonzero coordinate, so all of them come first, and
    negation reverses the order, so they are the half negated in reverse."""
    return [(v, tuple(-c for c in x)) for v, x in reversed(half)] + half


def _int_levels(d: list[int]) -> tuple[int, list[tuple[int, int]]]:
    """(m, levels) of an integer Gram cur with integral Gram-Schmidt data
    (d, lam): with m = lcm_i d_i d_i+1 and S_i = sum_{k > i} lam_ki x_k,

        m x^T cur x = sum_i c_i (d_i+1 x_i + S_i)^2,   c_i = m / (d_i d_i+1),

    for every real x, and the levels are the integer pairs (c_i, d_i+1)."""
    n = len(d) - 1
    m = math.lcm(*(d[i] * d[i + 1] for i in range(n)))
    return m, [(m // (d[i] * d[i + 1]), d[i + 1]) for i in range(n)]


def _int_half(cur: list[list[int]], den: int, d: list[int], lam, radius: Fraction):
    """Yield (value, x) for one x of each pair +-x of nonzero integer
    vectors with value = x^T G x <= radius, G = cur / den with cur an
    integer Gram and (d, lam) its integral Gram-Schmidt data: the x whose
    last nonzero coordinate is positive, sorted on the reversed tuple.

    The half tree of _fincke_pohst runs on the levels of _int_levels, with
    l = lam and mid_i = -S_i, against the integer bound floor(m den radius):
    its one row gets integers at every node, and a value becomes a
    Fraction only when its vector is yielded."""
    m, levels = _int_levels(d)
    scale = m * den  # a node's value over scale is x^T G x
    bound = radius.numerator * scale // radius.denominator
    for value, x in _fincke_pohst(levels, lam, None, bound):
        yield Fraction(value, scale), x


def enumerate_quadratic_form(entries: tuple[tuple[Fraction, ...], ...],
                             radius: Fraction):
    """All nonzero integer vectors x with x^T G x <= radius.

    Returns (value, coeffs) pairs, both signs of each vector, sorted
    lexicographically on the reversed coefficient tuple. The search walks
    half the tree (_fincke_pohst about the origin); the second half of the
    list is its own output, one of each +-x pair, and the first half the
    negatives it adds.
    """
    d, l = _ldl(entries)
    return _both_signs(list(_fincke_pohst([(x, 1) for x in d], l, None, radius)))


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


def _shortest_attempt(g: GramMatrix) -> ShortVector | None:
    """Shortest vector of g at its precision, or None when g is too coarse
    to search: LLL, then the Fincke-Pohst loop on integers inside the LLL
    radius, the least diagonal entry of the reduced Gram.

    An exact Gram is searched on _lll_core's integer Gram and integral
    Gram-Schmidt data (_int_half): no _ldl, no Fraction per node, and
    only the winner becomes a FieldElement. The search yields one vector of
    each +-x pair, whose canonical sign is the pair's, so the pick is that
    of the whole of enumerate_quadratic_form on the same entries.

    An inexact Gram runs the same steps on its midpoints rounded to its
    certified error (_rounded_attempt); the candidates are valued exactly
    on the midpoints, and the one picked is reported with the error the
    midpoints allow (3 margin + spread). When that rounding is too coarse
    for the radius the attempt is None, and the caller's _refining, the one
    escalation loop, refines g.
    """
    if g.err:
        return _rounded_attempt(g)
    n = g.size
    cur, den = _int_entries(g.entries)
    umat, cur, d, lam = _lll_core(cur)
    radius = Fraction(min(cur[i][i] for i in range(n)), den)
    mapped = [(value, _canonical_sign(_on_source(umat, x)))
              for value, x in _int_half(cur, den, d, lam, radius)]
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
             for _, x in _int_half(cur, scale, d, lam, radius)}
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
    """Yield (value, coeffs, g) for one element g of each pair +-g of
    nonzero lattice elements with u_sigma |sigma(g)| < bound_sigma at every
    place (<= when strict is False): the points of the half tree, in
    enumeration order. |sigma(-g)| = |sigma(g)|, so -g is in the box with g.

    The candidates come from the degree-weighted ellipsoid relaxation, value
    being x^T G x on its Gram (the weighted T2 of g over the bounds squared,
    on the midpoints of _fine_gram); each is checked exactly at every place
    as the walk reaches it (_box_member), so the points are exact with
    respect to the given rational bounds, and a caller that stops early
    stops the walk.

    A radius sent at a point goes on to the walk (_fincke_pohst's send
    protocol): the points that follow are those of the whole list, in its
    order, whose value is at most the least radius sent.
    """
    b = _bounds_fractions(bounds, f.num_places)
    b2 = [x * x for x in b]
    w = _u_weights(f, u)
    radius = Fraction(f.n) * (1 + _ENUM_SLACK)
    gram = _fine_gram(_ellipsoid_gram(f, lattice, w, b), radius)
    d, l = _ldl(gram.entries)
    member = _box_member(f, gram, w, b2, strict)
    walk = _fincke_pohst([(x, 1) for x in d], l, None, radius)
    sent = None
    while (step := _send(walk, sent)) is not None:
        value, coeffs = step
        g = member(coeffs)
        sent = None if g is None else (yield value, coeffs, g)


def _box_member(f: NumberField, gram: GramMatrix, w, b2, strict: bool):
    """coeffs -> the element g with those coefficients on gram's source
    when w_sigma |sigma(g)|^2 < b2_sigma at every place (<= when strict is
    False), else None; exact.

    Quadratic fields decide on the integer surd numerators of g, the
    coefficients times those of the source (sign_surd_sq, the test of the
    continued-fraction box walk too), so only a point inside builds a
    FieldElement. Other fields build each candidate and decide with
    cmp_abs_sq."""
    limit = -1 if strict else 0  # the largest sign inside
    if f.n != 2:
        def member(coeffs):
            g = _element_of(gram, coeffs)
            signs = (f.cmp_abs_sq(g, p, b2[p], w[p]) for p in range(f.num_places))
            return g if all(s <= limit for s in signs) else None
        return member

    m, nums = f.surd_numerators(gram.source)
    tests = [(p, wp.numerator * bp.denominator, bp.numerator * wp.denominator * m * m)
             for p, (wp, bp) in enumerate(zip(w, b2))]
    disc = f.disc

    def member(coeffs):
        a = sum(c * x for c, (x, _) in zip(coeffs, nums))
        b = sum(c * y for c, (_, y) in zip(coeffs, nums))
        for p, weight, bound in tests:
            if sign_surd_sq(a, b, disc, weight, bound, p) > limit:
                return None
        return _element_of(gram, coeffs)
    return member


def _send(walk, radius):
    """walk.send(radius): the walk's next item, or None once it is done."""
    try:
        return walk.send(radius)
    except StopIteration:
        return None


def enumerate_box(f: NumberField, lattice, u: ArchVector | None, bounds,
                  strict: bool = True) -> list[FieldElement]:
    """All nonzero lattice elements g with u_sigma |sigma(g)| < bound_sigma
    at every place (<= when strict is False), both signs of each, sorted by
    their coefficients on the lattice basis."""
    points = []
    for _, coeffs, g in _box_points(f, lattice, u, bounds, strict):
        points += [(coeffs, g), (tuple(-c for c in coeffs), -g)]
    return [g for _, g in sorted(points, key=lambda p: p[0])]


def is_minimal(f: NumberField, lattice, x: FieldElement) -> bool:
    """Whether no nonzero lattice element is strictly smaller at every place.
    The box walk is lazy, so the search stops at the first smaller element."""
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

    The search is branch and bound: each box point's value is sent back to
    _box_points, so the walk goes on only inside the ellipsoid of the best
    point so far. A point outside it has a larger value and cannot be the
    pick; a point of equal value still comes out, since the walk keeps
    value <= radius, ties included, and every value is the exact rational
    one on the same Gram midpoints, exact or inexact Gram alike. So the
    pick is the one of the whole box list.
    """
    deg = _degree(ideal, u)
    if abs(deg) > DEGREE_TOL:
        raise ValueError(f"(I, u) has degree {float(deg)}, not zero")
    box = _box_side(f)
    # the ellipsoid Gram is gram_of(f, ideal, u) over box^2: it orders by T2
    points = _box_points(f, ideal, u, [box] * f.num_places, strict=False)
    picks = []
    value = None
    while (point := _send(points, value)) is not None:
        value, _, g = point
        picks.append((value, _canonical_sign(g.coords)))
    if not picks:
        raise RuntimeError("bounded box is empty; degree-0 precondition violated")
    return f.element(min(picks)[1])


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
