"""Ideal lattices under the degree-weighted archimedean metric: Gram
matrices, LLL reduction, exact shortest-vector and box enumeration,
minimality tests and the covolume identity.

A Gram matrix is one integer matrix over one positive denominator with
one integer radius: entry (i, j) is mat_ij / den to within rad / den, each
backend's exact rational midpoints over their common denominator, with no
Fraction per entry. Totally real fields under one weight at every place
and imaginary quadratic fields produce radius zero. Real quadratic fields
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
found are valued exactly on the integer midpoints (_rounded_attempt). Its
certificate that those candidates suffice is one comparison of integers
(_certified), and the values, margins and pick are integers over the Gram's
den: only the returned lambda_1^2 and its error become Fractions. The unit
lattice's closest vectors (units.LogLattice) run the loop on integer
levels too (_int_levels), about a dyadic centre scaled to integers, and so
does enumerate_quadratic_form, on its entries cleared to integers
(_int_half). Boxes do not LLL first: they run the loop on the exact
Fraction L D L^T factors that _ldl_int reads off the same integral
Gram-Schmidt data of their integer Gram, its only users. One Gram-Schmidt,
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

from .exact import int_det, sign_surd_sq
from .ideals import FractionalIdeal, PlainLattice
from .numfield import (
    ArchVector,
    FieldElement,
    NumberField,
    _escalate,
    _iv_mul,
    common_numerators,
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
    """Positive-definite Gram matrix of a scaled lattice basis in
    midpoint-radius form (Johansson, "Arb", IEEE Trans. Comput. 2017): the
    integer matrix mat over one positive den with one integer radius rad,
    entry (i, j) = mat_ij / den +- rad / den; rad = 0 is an exact Gram.
    entries and err are the same values as Fractions in lowest terms.

    weights holds the exact squared per-place scale the entries were built
    with, so refine() rebuilds the same matrix at a higher precision.
    """

    field: NumberField | None
    source: tuple[FieldElement, ...]
    weights: tuple[Fraction, ...] | None
    mat: tuple[tuple[int, ...], ...]
    den: int
    rad: int
    prec: int

    @classmethod
    def from_entries(cls, entries) -> "GramMatrix":
        """Bare exact Gram matrix without a field lattice behind it."""
        mat, den = _int_entries([[Fraction(x) for x in row] for row in entries])
        return cls(None, (), None, _freeze(mat), den, 0, 53)

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(Fraction(x, self.den) for x in row) for row in self.mat)

    @property
    def err(self) -> Fraction:
        return Fraction(self.rad, self.den)

    @property
    def size(self) -> int:
        return len(self.mat)

    def det(self) -> Fraction:
        return Fraction(int_det(self.mat), self.den ** self.size)

    def value_error_num(self, coeffs) -> int:
        """value_error(coeffs) over den: rad ||coeffs||_1^2."""
        return self.rad * sum(map(abs, coeffs)) ** 2

    def value_error(self, coeffs) -> Fraction:
        return Fraction(self.value_error_num(coeffs), self.den)

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
            if not gram.rad:
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
        # the basis as integer rows m over their common denominator dc,
        # entry (i, j) is w m_i T m_j^T / dc^2 for the integer trace form T
        rows, dc = common_numerators(basis)
        tf = f.trace_form()
        row_t = [[sum(r[k] * tf[k][j] for k in range(f.n)) for j in range(f.n)]
                 for r in rows]
        den = w[0].denominator * dc * dc

        def entry(i, j):
            return w[0].numerator * sum(a * b for a, b in zip(row_t[i], rows[j])), 0

    elif f.n == 2:
        # quadratic, per-place weights. With the basis as surd numerators
        # (A_i + B_i sqrt(disc)) / m, sigma(b_i) conj(sigma(b_j)) is
        # (P +- Q sqrt(disc)) / m^2 at the real places and P / m^2 at the
        # complex one, for the integers P = A_i A_j + B_i B_j |disc| and
        # Q = A_i B_j + A_j B_i. Entry (i, j) is W P / m^2 for the weight
        # sum W = sum_sigma deg_sigma w_sigma, plus (w_0 - w_1) Q r / m^2 at
        # real places with r = s / 2^prec, sqrt(disc) to within 2^-prec:
        # integers over den = m^2 2^e times the weights' denominators, e =
        # prec at real places and 0 at the complex one
        e, wm = (prec, w[0] - w[1]) if f.r1 else (0, Fraction(0))
        disc = abs(f.disc)
        s = math.isqrt(disc << (2 * e))
        m, nums = f.surd_numerators(basis)
        wp = sum(d * x for d, x in zip(f.degs, w))
        cp = wp.numerator * wm.denominator << e
        cq = wm.numerator * wp.denominator * s
        cr = abs(wm.numerator) * wp.denominator
        den = wp.denominator * wm.denominator * m * m << e

        def entry(i, j):
            (ai, bi), (aj, bj) = nums[i], nums[j]
            q = ai * bj + aj * bi
            return cp * (ai * aj + bi * bj * disc) + cq * q, cr * abs(q)

    else:
        # general field: certified interval embeddings on integer endpoints.
        # At place p every element's rectangle is brought over one
        # denominator den_p, so a product of two intervals is one integer
        # interval product (_iv_mul) over den_p^2; scale[p] = common deg_p
        # w_p / den_p^2 is an integer for the common denominator of those
        # factors. A positive common denominator keeps each min and max in
        # place, so the entries are those of rational interval arithmetic:
        # midpoint lo + hi and radius hi - lo over den = 2 common.
        emb, factors = [], []
        for place in range(f.num_places):
            raw = [f.embed_interval(x, place, prec) for x in basis]
            dp = math.lcm(*(r[0] for r in raw))
            emb.append([_rescale(r, dp // r[0]) for r in raw])
            factors.append(w[place] * f.degs[place] / (dp * dp))
        common = math.lcm(*(q.denominator for q in factors))
        scale = [q.numerator * (common // q.denominator) for q in factors]
        den = 2 * common

        def entry(i, j):
            lo = hi = 0
            for k, rects in zip(scale, emb):
                re_i, im_i = rects[i]
                re_j, im_j = rects[j]
                plo, phi = _iv_mul(re_i, re_j)
                if im_i is not None:
                    ilo, ihi = _iv_mul(im_i, im_j)
                    plo, phi = plo + ilo, phi + ihi
                lo += k * plo
                hi += k * phi
            return lo + hi, hi - lo

    # every backend gives (midpoint, radius) over den, symmetric in (i, j):
    # fill the upper triangle, mirror it
    mat = [[0] * n for _ in range(n)]
    rad = 0
    for i in range(n):
        for j in range(i, n):
            mat[i][j], r = entry(i, j)
            mat[j][i] = mat[i][j]
            rad = max(rad, r)

    return GramMatrix(f, tuple(basis), tuple(w), _freeze(mat), den, rad, prec)


def _rescale(rect, m: int):
    """An embed_interval numerator rectangle (den, re_iv, im_iv) as the pair
    (re_iv, im_iv) of numerators over den * m."""
    _, (rl, rh), im = rect
    return (rl * m, rh * m), None if im is None else (im[0] * m, im[1] * m)


def _freeze(m) -> tuple[tuple[int, ...], ...]:
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


def _ldl_int(cur, den: int):
    """G = L D L^T for the positive-definite G = cur / den, cur an integer
    Gram: (d, l) with l unit lower triangular, l[i][j] (i > j) the
    Gram-Schmidt coefficients mu_ij and d the squared Gram-Schmidt lengths,
    exact Fractions read off _int_gram_schmidt of cur: with D its leading
    minors and lam its integral coefficients, d_i = D_i+1 / (D_i den) and
    mu_ij = lam_ij / D_j+1. L D L^T is unique, so these are the factors of
    any exact elimination."""
    dd, lam = _int_gram_schmidt(cur)
    n = len(cur)
    d = [Fraction(dd[i + 1], dd[i] * den) for i in range(n)]
    l = [[Fraction(lam[i][j], dd[j + 1]) if j < i else Fraction(int(i == j))
          for j in range(n)] for i in range(n)]
    return d, l


def _lll_core(gram):
    """LLL with delta = LLL_DELTA on an integer Gram: (umat, cur, d, lam).

    The run keeps the integral Gram-Schmidt data of _int_gram_schmidt: size
    reduction takes q = round(mu_kj) = floor((2 lam_kj + d_j+1) / (2 d_j+1)),
    and the Lovasz condition B_k >= (delta - mu^2) B_k-1 reads
    d_k+1 d_k-1 + lam^2 >= delta d_k^2. Every decision is the rational one,
    so a Gram scaled by a positive constant gets the same transform. On
    return umat is the transform (rows on the source basis), cur the reduced
    Gram (a reduced copy of the argument) and (d, lam) its integral
    Gram-Schmidt data, d[0] = 1.
    """
    cur = [list(row) for row in gram]
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


def _reduced_gram(g: GramMatrix, umat, cur) -> GramMatrix:
    """The GramMatrix of the reduced basis umat * g.source, mat cur over g.den."""
    basis = tuple(_combinations(g.field, g.source, umat)) if g.source else ()
    # entry (i, j) is U_i G U_j^T of the midpoints: off by ||U_i||_1 ||U_j||_1 err
    rad = g.rad * max(sum(abs(c) for c in row) for row in umat) ** 2
    return GramMatrix(g.field, basis, g.weights, _freeze(cur), g.den, rad, g.prec)


def lll_reduce(g: GramMatrix):
    """LLL with delta = LLL_DELTA on the Gram matrix; returns (transform,
    reduced GramMatrix).

    The transform rows express the reduced basis on the source basis; the
    reduced GramMatrix carries that reduced basis as its source. The run
    is _lll_core's, on g.mat; this packs its transform and integer Gram.
    """
    umat, cur, _, _ = _lll_core(g.mat)
    return umat, _reduced_gram(g, umat, cur)


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
    On _ldl_int's factors G = L D L^T the levels are (d_i, 1) and the value
    is (a - c)^T G (a - c), on exact Fractions; _box_points, the only user
    of those factors, walks them about the origin. _int_half passes the
    integer levels of its scaled Gram (_int_levels), lam as l and an
    integer radius, about the origin, and units.LogLattice the same levels
    about a dyadic centre C / D, with every e_i and l_ki times D and the
    shift of C on the unscaled levels: its values are integers, D^2 times
    those about C / D.

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


def _int_half(den: int, d: list[int], lam, rn: int, rd: int):
    """(scale, walk): walk yields (value, x) for one x of each pair +-x of
    nonzero integer vectors with x^T G x = value / scale <= rn / rd, G =
    cur / den for the integer Gram cur whose integral Gram-Schmidt data are
    (d, lam): the x whose last nonzero coordinate is positive, sorted on
    the reversed tuple.

    The half tree of _fincke_pohst runs on the levels of _int_levels, with
    l = lam and mid_i = -S_i, against the integer bound floor(m den rn / rd)
    and scale = m den: its one row gets integers at every node, and the
    values it yields are integers too."""
    m, levels = _int_levels(d)
    scale = m * den
    return scale, _fincke_pohst(levels, lam, None, rn * scale // rd)


def enumerate_quadratic_form(entries: tuple[tuple[Fraction, ...], ...],
                             radius: Fraction):
    """All nonzero integer vectors x with x^T G x <= radius.

    Returns (value, coeffs) pairs, both signs of each vector, sorted
    lexicographically on the reversed coefficient tuple. The search walks
    half the tree on the integer levels of the entries cleared to integers
    (_int_half); the second half of the list is its own output, one of each
    +-x pair, and the first half the negatives it adds.
    """
    cur, den = _int_entries(entries)
    radius = Fraction(radius)
    scale, half = _int_half(den, *_int_gram_schmidt(cur), radius.numerator, radius.denominator)
    return _both_signs([(Fraction(value, scale), x) for value, x in half])


def _canonical_sign(coeffs: tuple[int, ...]) -> tuple[int, ...]:
    for c in coeffs:
        if c > 0:
            return coeffs
        if c < 0:
            return tuple(-x for x in coeffs)
    return coeffs


def _combinations(f: NumberField, source, rows) -> list[FieldElement]:
    """sum_i row_i source_i for each coefficient row: over the source's one
    common denominator, each coordinate is one integer dot product."""
    nums, den = common_numerators(source)
    cols = list(zip(*nums))
    return [FieldElement(f, tuple(sum(c * x for c, x in zip(row, col)) for col in cols), den)
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
    return _refining(gram, lambda g: g if g.rad * (4 * n * n) * slack.denominator
                     <= slack.numerator * g.den else None)


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
    Gram-Schmidt data (_int_half): no Fraction per node, and only the
    winner's value becomes a Fraction and the winner a FieldElement. The
    search yields one vector of each +-x pair, whose canonical sign is the
    pair's, so the pick is that of the whole of enumerate_quadratic_form on
    the same entries.

    An inexact Gram runs the same steps on its midpoints rounded to its
    certified error (_rounded_attempt); the candidates are valued exactly
    on the midpoints, and the one picked is reported with the error the
    midpoints allow (3 margin + spread). When that rounding is too coarse
    for the radius the attempt is None, and the caller's _refining, the one
    escalation loop, refines g.
    """
    if g.rad:
        return _rounded_attempt(g)
    n, den = g.size, g.den
    umat, cur, d, lam = _lll_core(g.mat)
    scale, half = _int_half(den, d, lam, min(cur[i][i] for i in range(n)), den)
    mapped = [(value, _canonical_sign(_on_source(umat, x))) for value, x in half]
    if not mapped:
        raise RuntimeError("enumeration found no vectors inside the LLL radius")
    best = min(v for v, _ in mapped)
    coeffs = min(x for v, x in mapped if v == best)
    return ShortVector(coeffs, _element_of(g, coeffs), Fraction(best, scale), Fraction(0))


def _on_source(umat, x) -> tuple[int, ...]:
    """Coefficients on the source basis of x on the reduced basis umat."""
    n = len(umat)
    return tuple(sum(x[i] * umat[i][j] for i in range(n)) for j in range(n))


def _rounded_attempt(g: GramMatrix) -> ShortVector | None:
    """_shortest_attempt for an inexact Gram g at its precision, or None
    when g is too coarse for the search.

    The midpoints G = g.mat / g.den carry integers far longer than their
    error e warrants, so LLL and the search run on H, G rounded to the
    nearest multiples of 2^-k with 2^-k <= e / 2^_ROUND_GUARD, k taken from
    e in lowest terms: |H - G| <= delta = 2^-(k+1) entrywise. A grid no
    finer than 1 (k < 1) is too coarse to search, and the attempt is None.
    Every candidate is mapped back through the transform U and valued
    exactly on G, one quadratic form on g.mat over g.den each, and the pick is
    the rule for inexact Grams: best, the least value; margin, the largest
    value_error_num, g.rad ||x||_1^2 over g.den; the close set, values within
    best + 2 margin; the least coefficients in it; error 3 margin + spread.
    Values and margins are compared as integers over the one g.den, so only
    the returned value and error become Fractions.

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
    When (1 - eps) R >= b + 2 m(V), the candidates hold every vector within
    best + 2 margin of either search; otherwise the attempt returns None and
    _refining refines g. Both searches thus value the same vectors at the
    same midpoint values, so best and, unless some vector's value lies
    strictly between best plus twice the one margin and best plus twice the
    other, the close set, winner, value and spread are the same rationals;
    only the error term 3 margin can differ, by less than 3 m(V).

    _certified decides that inequality exactly on integers, with e, r and
    tr(H^-1) = 2^k tr(cur^-1) over their own denominators, cur the rounded
    Gram scaled to integers.
    """
    n, den = g.size, g.den
    q = math.gcd(g.rad, den)
    en, ed = g.rad // q, den // q  # e in lowest terms
    k = ed.bit_length() - en.bit_length() + 1 + _ROUND_GUARD
    if k < 1:
        return None
    cur = [[((x << (k + 1)) + den) // (2 * den) for x in row] for row in g.mat]
    tn, td = _inverse_trace(cur)
    umat, cur, d, lam = _lll_core(cur)
    rmin = min(cur[i][i] for i in range(n))
    if not _certified(n, en, ed, tn, td, rmin, k):
        return None
    # the half tree at radius R = r (1 + s) on the Gram cur / 2^k
    sn, sd = _ENUM_SLACK.numerator, _ENUM_SLACK.denominator
    _, half = _int_half(1 << k, d, lam, rmin * (sd + sn), sd << k)
    found = {_canonical_sign(_on_source(umat, x)) for _, x in half}
    # values and margins as integers over den
    mapped = [(_int_qform(g.mat, x), x) for x in found]
    best = min(v for v, _ in mapped)
    margin = max(g.value_error_num(x) for x in found)
    close = sorted((v, x) for v, x in mapped if v <= best + 2 * margin)
    val, coeffs = min(close, key=lambda t: (t[1], t[0]))
    spread = close[-1][0] - best
    return ShortVector(coeffs, _element_of(g, coeffs), Fraction(val, den),
                       Fraction(3 * margin + spread, den))


def _certified(n: int, en: int, ed: int, tn: int, td: int, rmin: int, k: int) -> bool:
    """_rounded_attempt's certificate (1 - eps) R >= b + 2 e L far / (1 - eps)
    on integers, for e = en / ed, tr(cur^-1) = tn / td, S = 2^k, r = rmin / S,
    s = _ENUM_SLACK = sn / sd and a^(n-1) = an / ad for a = _LLL_ALPHA, all
    positive.

    Then L = n S tn / td and eps = p / q for p = (2 S en + ed) n tn and
    q = 2 ed td. With dd = q - p = (1 - eps) q > 0, the test times the
    positive (1 - eps) q^2 S sd ed ad reads

        ed ad rmin dd (dd (sd + sn) - sd (q + p))
            >= 4 n S en tn (an (sd + sn) rmin (q + p) ed + 4 n^2 en ad sd S q),

    and eps >= 1 (dd <= 0) fails it."""
    s = 1 << k
    p = (2 * s * en + ed) * n * tn
    q = 2 * ed * td
    dd = q - p
    if dd <= 0:
        return False
    sn, sd = _ENUM_SLACK.numerator, _ENUM_SLACK.denominator
    an, ad = _LLL_ALPHA.numerator ** (n - 1), _LLL_ALPHA.denominator ** (n - 1)
    lhs = ed * ad * rmin * dd * (dd * (sd + sn) - sd * (q + p))
    rhs = 4 * n * s * en * tn * (an * (sd + sn) * rmin * (q + p) * ed
                                 + 4 * n * n * en * ad * sd * s * q)
    return lhs >= rhs


def _inverse_trace(cur: list[list[int]]) -> tuple[int, int]:
    """tr(cur^-1) of a positive-definite integer Gram as (num, den), den > 0:
    the sum of its principal (n-1)-minors over its determinant."""
    n = len(cur)

    def det(rows):
        return _int_gram_schmidt([[cur[i][j] for j in rows] for i in rows])[0][-1]

    return sum(det([i for i in range(n) if i != m]) for m in range(n)), det(range(n))


def _int_qform(g: list[list[int]], x) -> int:
    """x^T g x for an integer matrix g."""
    return sum(xi * sum(gij * xj for gij, xj in zip(row, x) if xj)
               for row, xi in zip(g, x) if xi)


def lll_first_vector(g: GramMatrix) -> ShortVector:
    umat, cur, _, _ = _lll_core(g.mat)
    coeffs = _canonical_sign(tuple(umat[0]))
    return ShortVector(coeffs, _element_of(g, coeffs), Fraction(cur[0][0], g.den),
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
    d, l = _ldl_int(gram.mat, gram.den)
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
        # ties break on the rational coordinates: numerators over unequal
        # denominators order otherwise, and would move the pick
        key = _canonical_sign(coords := g.coords)
        picks.append((value, key, g if key is coords else -g))
    if not picks:
        raise RuntimeError("bounded box is empty; degree-0 precondition violated")
    return min(picks, key=lambda p: p[:2])[2]


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
