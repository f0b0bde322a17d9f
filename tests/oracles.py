"""Independent brute-force oracles for the test suite.

Everything here deliberately avoids the library's LLL / Fincke-Pohst /
HNF-closure code paths: plain coefficient boxes, divisor sums, and its own
surd sign logic, so oracle agreement is a genuine dual-route check.
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, product

from mpmath import mp, mpf


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a/n)."""
    if n == 0:
        return 1 if abs(a) == 1 else 0
    k = 1
    if n < 0:
        n = -n
        if a < 0:
            k = -k
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            k = -k
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                k = -k
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            k = -k
        a %= n
    return k if n == 1 else 0


def zeta_coefficient(disc: int, m: int) -> int:
    """Number of integral ideals of norm m in the quadratic field of the
    given fundamental discriminant (divisor sum of the Kronecker character)."""
    return sum(kronecker(disc, d) for d in range(1, m + 1) if m % d == 0)


def cubic_ideal_counts(min_poly, bound: int) -> dict[int, int]:
    """Number of integral ideals of each norm m <= bound in the maximal
    order of Q(theta), theta a root of the monic cubic min_poly (ascending),
    assuming Z[theta] is maximal, from Dirichlet coefficients.

    At p prime to disc(f) the splitting type follows from the number of
    roots of f mod p: three give three primes of norm p, one gives norms
    p and p^2, none gives one prime of norm p^3. A prime p dividing disc(f)
    exactly once is allowed only when p^2 > bound; there the ideals of
    norm p are the primes of degree one, one for each distinct root of f
    mod p. The count is multiplicative over the primes of m.
    """
    c, b, a = min_poly[0], min_poly[1], min_poly[2]
    disc = a * a * b * b - 4 * b ** 3 - 4 * a ** 3 * c - 27 * c * c + 18 * a * b * c

    def local(p: int, k: int) -> int:
        roots = sum((r ** 3 + a * r * r + b * r + c) % p == 0 for r in range(p))
        if disc % p:
            degrees = {3: (1, 1, 1), 1: (1, 2), 0: (3,)}[roots]
            return _compositions(k, degrees)
        if disc % (p * p) == 0 or p * p <= bound:
            raise ValueError("prime divides the discriminant beyond the oracle's reach")
        return roots

    counts = {}
    for m in range(1, bound + 1):
        total, rest, p = 1, m, 2
        while rest > 1:
            if p * p > rest:
                p = rest
            k = 0
            while rest % p == 0:
                rest //= p
                k += 1
            if k:
                total *= local(p, k)
            p += 1
        if total:
            counts[m] = total
    return counts


def _compositions(k: int, degrees) -> int:
    """Number of (a_i) >= 0 with sum degrees[i] * a_i = k."""
    ways = [1] + [0] * k
    for d in degrees:
        for j in range(d, k + 1):
            ways[j] += ways[j - d]
    return ways[k]


# ---------------------------------------------------------------------------
# Exhaustive shortest vector

def brute_shortest_sq(entries) -> Fraction:
    """lambda_1^2 by exhaustive coefficient search inside the dual-Gram box.

    For x with x^T G x <= R one has x_i^2 <= R * (G^{-1})_{ii}; the search
    radius starts at the smallest diagonal entry (a lattice vector itself).
    """
    g = [[Fraction(x) for x in row] for row in entries]
    n = len(g)
    radius = min(g[i][i] for i in range(n))
    inv = _inv(g)
    box = [_isqrt_floor(radius * inv[i][i]) + 1 for i in range(n)]
    best = None
    for coeffs in product(*[range(-b, b + 1) for b in box]):
        if not any(coeffs):
            continue
        q = _qform(g, coeffs)
        if best is None or q < best:
            best = q
    return best


def brute_qform_points(entries, radius) -> list[tuple[Fraction, tuple[int, ...]]]:
    """(x^T G x, x) for every nonzero integer x with x^T G x <= radius, by a
    scan of the dual-Gram box x_i^2 <= radius * (G^{-1})_{ii}, ordered
    lexicographically on the reversed coefficient tuple."""
    g = [[Fraction(x) for x in row] for row in entries]
    radius = Fraction(radius)
    inv = _inv(g)
    box = [_isqrt_floor(radius * inv[i][i]) for i in range(len(g))]
    points = []
    for coeffs in product(*[range(-b, b + 1) for b in box]):
        if any(coeffs):
            q = _qform(g, coeffs)
            if q <= radius:
                points.append((q, coeffs))
    return sorted(points, key=lambda p: p[1][::-1])


def _qform(g, coeffs) -> Fraction:
    n = len(g)
    acc = Fraction(0)
    for i in range(n):
        if coeffs[i]:
            for j in range(n):
                if coeffs[j]:
                    acc += g[i][j] * coeffs[i] * coeffs[j]
    return acc


def _inv(g):
    n = len(g)
    m = [row[:] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(g)]
    for c in range(n):
        piv = next(r for r in range(c, n) if m[r][c] != 0)
        m[c], m[piv] = m[piv], m[c]
        d = m[c][c]
        m[c] = [x / d for x in m[c]]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return [row[n:] for row in m]


def _isqrt_floor(f: Fraction) -> int:
    if f < 0:
        return 0
    return math.isqrt(f.numerator * f.denominator) // f.denominator


# ---------------------------------------------------------------------------
# Gram-Schmidt, LLL and interval Horner over plain Fractions

def fraction_gram_schmidt(entries):
    """(mu, bs) of a positive-definite Gram matrix over Fractions: the
    Gram-Schmidt coefficients mu[i][j] (j < i; 0 elsewhere) and the squared
    Gram-Schmidt lengths bs, by the textbook recurrence."""
    g = [[Fraction(x) for x in row] for row in entries]
    n = len(g)
    mu = [[Fraction(0)] * n for _ in range(n)]
    bs = [Fraction(0)] * n
    for i in range(n):
        for j in range(i):
            mu[i][j] = (g[i][j] - sum(mu[j][k] * mu[i][k] * bs[k] for k in range(j))) / bs[j]
        bs[i] = g[i][i] - sum(mu[i][k] ** 2 * bs[k] for k in range(i))
    return mu, bs


def fraction_lll(entries, delta=Fraction(99, 100)):
    """(U, U G U^T) of textbook LLL on a Gram matrix over Fractions.

    The Gram-Schmidt data is recomputed from the current Gram after every
    change; row k is size-reduced against rows k-1, ..., 0 with
    q = floor(mu + 1/2), then the Lovasz condition decides between moving
    on and swapping rows k-1 and k. The reduced Gram is taken as U G U^T of
    the input at the end, not carried along."""
    g0 = [[Fraction(x) for x in row] for row in entries]
    n = len(g0)
    u = [[int(i == j) for j in range(n)] for i in range(n)]

    def gram():
        return [[sum(u[i][a] * g0[a][b] * u[j][b] for a in range(n) for b in range(n))
                 for j in range(n)] for i in range(n)]

    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            mu, _ = fraction_gram_schmidt(gram())
            q = math.floor(mu[k][j] + Fraction(1, 2))
            u[k] = [a - q * b for a, b in zip(u[k], u[j])]
        mu, bs = fraction_gram_schmidt(gram())
        if bs[k] >= (delta - mu[k][k - 1] ** 2) * bs[k - 1]:
            k += 1
        else:
            u[k - 1], u[k] = u[k], u[k - 1]
            k = max(k - 1, 1)
    return u, gram()


def interval_horner(pcoords, root_ivs):
    """Rectangle of sum_k pcoords[k] theta^k by Horner over rational
    intervals: root_ivs is [re] at a real place, [re, im] at a complex one,
    each a (lo, hi) pair of Fractions. Returns (re_iv, im_iv or None)."""
    def mul(a, b):
        ps = [x * y for x in a for y in b]
        return min(ps), max(ps)

    def add(a, b):
        return a[0] + b[0], a[1] + b[1]

    re, im = (Fraction(0), Fraction(0)), (Fraction(0), Fraction(0))
    for c in reversed(pcoords):
        if len(root_ivs) == 1:
            re = add(mul(re, root_ivs[0]), (c, c))
        else:
            tr, ti = root_ivs
            # (re + i im)(tr + i ti) = re tr - im ti + i (re ti + im tr)
            rr, ii = mul(re, tr), mul(im, ti)
            re, im = (rr[0] - ii[1] + c, rr[1] - ii[0] + c), add(mul(re, ti), mul(im, tr))
    return re, (im if len(root_ivs) == 2 else None)


def interval_gram(pcoord_rows, places, weights):
    """(entries, err) of the certified Gram over rational intervals: entry
    (i, j) is the midpoint of sum_p deg_p w_p Re(sigma_p(b_i) conj(sigma_p(b_j)))
    by interval arithmetic on the rectangles of interval_horner, err the
    largest half-width. places holds (deg, root_ivs) per place, pcoord_rows
    the power coordinates of each basis element."""
    def mul(a, b):
        ps = [x * y for x in a for y in b]
        return min(ps), max(ps)

    rects = [[interval_horner(row, ivs) for _, ivs in places] for row in pcoord_rows]
    n = len(pcoord_rows)
    entries = [[None] * n for _ in range(n)]
    err = Fraction(0)
    for i in range(n):
        for j in range(n):
            lo = hi = Fraction(0)
            for p, (deg, _) in enumerate(places):
                (ri, ii), (rj, ij) = rects[i][p], rects[j][p]
                plo, phi = mul(ri, rj)
                if ii is not None:
                    qlo, qhi = mul(ii, ij)
                    plo, phi = plo + qlo, phi + qhi
                lo += deg * weights[p] * plo
                hi += deg * weights[p] * phi
            entries[i][j] = (lo + hi) / 2
            err = max(err, (hi - lo) / 2)
    return tuple(tuple(row) for row in entries), err


# ---------------------------------------------------------------------------
# Independent quadratic-field machinery (surds carried as (a, b) ~ a + b*sqrt(D))

def surd_sign(a: Fraction, b: Fraction, d: int) -> int:
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return 1 if b > 0 else -1
    if (a > 0) == (b > 0):
        return 1 if a > 0 else -1
    t = a * a - b * b * d
    return ((t > 0) - (t < 0)) * (1 if a > 0 else -1)


def surd_abs_less(x, y, d: int) -> bool:
    """|x| < |y| for surds over sqrt(d), d > 0, exactly."""
    xa, xb = x
    ya, yb = y
    # compare squares: (x^2) vs (y^2) as surds
    sx = (xa * xa + xb * xb * d, 2 * xa * xb)
    sy = (ya * ya + yb * yb * d, 2 * ya * yb)
    return surd_sign(sy[0] - sx[0], sy[1] - sx[1], d) > 0


class QuadField:
    """Minimal independent model of a real quadratic field with basis
    {1, w} where w = sqrt(d0) or (1+sqrt(d0))/2."""

    def __init__(self, d0: int):
        self.d0 = d0
        self.half = d0 % 4 == 1
        # w = (w_a + w_b sqrt(d0)) with rational pair
        self.w = (Fraction(1, 2), Fraction(1, 2)) if self.half else (Fraction(0), Fraction(1))
        self.disc = d0 if self.half else 4 * d0

    def embed_pair(self, coords) -> tuple[Fraction, Fraction]:
        """(a, b) with sigma(x) = a + b sqrt(d0) at the positive-root place."""
        c0, c1 = Fraction(coords[0]), Fraction(coords[1])
        return (c0 + c1 * self.w[0], c1 * self.w[1])

    def trace_gram(self, basis) -> list[list[Fraction]]:
        """Gram of pairs under x -> (sigma0 x)^2 + (sigma1 x)^2."""
        out = []
        for x in basis:
            row = []
            xa, xb = self.embed_pair(x)
            for y in basis:
                ya, yb = self.embed_pair(y)
                row.append(2 * (xa * ya + xb * yb * self.d0))
            out.append(row)
        return out


def brute_integral_ideals(d0: int, bound: int):
    """Integral ideals of the maximal order of Q(sqrt d0) with norm <= bound
    via direct triangular-basis scanning and ring-closure checking.

    Returns a set of canonical basis keys (a, b, c) for the module
    Z*a + Z*(b + c*w).
    """
    qf = QuadField(d0)
    out = set()
    for norm in range(1, bound + 1):
        for a in range(1, norm + 1):
            if norm % a:
                continue
            c = norm // a
            for b in range(a):
                # module M = Z*(a, 0) + Z*(b, c) in coordinates over {1, w}
                if _module_closed(qf, a, b, c):
                    out.add((norm, a, b, c))
    return out


def brute_ideals_power_basis(min_poly, bound: int, basis=None):
    """Integral ideals of an order of Q(theta), theta a root of the monic
    ascending min_poly, with norm <= bound: every column HNF over Z^n of
    index <= bound that multiplication by each basis element maps into
    itself.

    basis: the order's basis as rows over the power basis (first row 1);
    None means Z[theta]. The HNF coordinates are on that basis.

    Returns (norm, hnf) pairs sorted by norm, then by the rows of the HNF
    read left to right; hnf is a tuple of rows, upper triangular, with the
    basis vectors as its columns.
    """
    n = len(min_poly) - 1
    mult = _order_mult(min_poly, basis)
    out = []
    for norm in range(1, bound + 1):
        for h in _column_hnfs(n, norm):
            if all(_in_column_hnf(h, _times_basis(mult[k], [h[r][j] for r in range(n)]))
                   for k in range(1, n) for j in range(n)):
                out.append((norm, tuple(tuple(row) for row in h)))
    out.sort()
    return out


def _order_mult(min_poly, basis):
    """mult[k][i]: the basis coordinates of b_k * b_i, integers in an order,
    from _mul_mod on power coordinates. basis: the order's basis as rows
    over the power basis (first row 1); None means Z[theta]."""
    n = len(min_poly) - 1
    rows = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)] if basis is None \
        else [[Fraction(x) for x in row] for row in basis]
    to_basis = _inv([list(col) for col in zip(*rows)])  # power coords -> basis coords
    mult = [[_matvec(to_basis, _mul_mod(min_poly, rows[k], rows[i])) for i in range(n)]
            for k in range(n)]
    if any(x.denominator != 1 for mk in mult for v in mk for x in v):
        raise ValueError("basis is not closed under multiplication")
    return [[[int(x) for x in v] for v in mk] for mk in mult]


def _order_product(mult, u, v):
    """Basis coordinates of (sum u_k b_k)(sum v_i b_i)."""
    n = len(u)
    out = [0] * n
    for k, uk in enumerate(u):
        for i, vi in enumerate(v):
            for r in range(n):
                out[r] += uk * vi * mult[k][i][r]
    return out


def brute_colon_cosets(min_poly, basis, hnf) -> set[tuple[int, ...]]:
    """The cosets of (1/a)O/O inside (O : J), for the integral ideal J
    spanned by the columns of hnf (on the order's basis) and a = hnf[0][0]
    the generator of J ∩ Z: every c in [0, a)^n with (c/a) J inside O, so
    that (O : J) = O + {c/a}. Since a lies in J, (O : J) lies in (1/a)O,
    and c/a maps J into O exactly when a divides every coordinate of each
    c * h_j = sum_i c_i (b_i h_j)."""
    n = len(hnf)
    a = hnf[0][0]
    mult = _order_mult(min_poly, basis)
    parts = [[_order_product(mult, [int(i == k) for k in range(n)], [hnf[r][j] for r in range(n)])
              for i in range(n)] for j in range(n)]
    return {c for c in product(range(a), repeat=n)
            if all(sum(ci * part[i][r] for i, ci in enumerate(c)) % a == 0
                   for part in parts for r in range(n))}


def _int_det(m) -> int:
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** c * m[0][c] * _int_det([row[:c] + row[c + 1:] for row in m[1:]])
               for c in range(len(m)) if m[0][c])


def brute_product_span(min_poly, basis, j, k):
    """(products, covolume) for fractional ideals J = H/d and K = H'/d'
    given as (d, H): the products of their basis elements on the order's
    basis, which span J*K over Z, and the covolume of that span, the gcd of
    the maximal minors of the integer products over (d d')^n."""
    (dj, hj), (dk, hk) = j, k
    n = len(hj)
    mult = _order_mult(min_poly, basis)
    ints = [_order_product(mult, [hj[r][a] for r in range(n)], [hk[r][b] for r in range(n)])
            for a in range(n) for b in range(n)]
    minors = math.gcd(*(_int_det([[v[r] for v in sub] for r in range(n)])
                        for sub in combinations(ints, n)))
    return ([[Fraction(x, dj * dk) for x in v] for v in ints],
            Fraction(minors, (dj * dk) ** n))


def _mul_mod(min_poly, u, v):
    """Product of two power-basis coordinate vectors modulo min_poly."""
    n = len(u)
    prod = [Fraction(0)] * (2 * n - 1)
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            prod[i + j] += a * b
    for k in range(2 * n - 2, n - 1, -1):
        c, prod[k] = prod[k], Fraction(0)
        for i in range(n):
            prod[k - n + i] -= c * min_poly[i]
    return prod[:n]


def _matvec(m, v):
    return [sum((a * b for a, b in zip(row, v)), Fraction(0)) for row in m]


def _times_basis(mult_k, v):
    """Basis coordinates of b_k * sum v_i b_i."""
    return [sum(vi * mult_k[i][r] for i, vi in enumerate(v)) for r in range(len(v))]


def _column_hnfs(n: int, index: int):
    def diagonals(m, k):
        if k == 1:
            yield (m,)
            return
        for d in range(1, m + 1):
            if m % d == 0:
                for rest in diagonals(m // d, k - 1):
                    yield (d,) + rest

    above = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for diag in diagonals(index, n):
        for vals in product(*[range(diag[i]) for i, _ in above]):
            h = [[0] * n for _ in range(n)]
            for i in range(n):
                h[i][i] = diag[i]
            for (i, j), v in zip(above, vals):
                h[i][j] = v
            yield h


def _in_column_hnf(h, v) -> bool:
    v = list(v)
    for r in range(len(v) - 1, -1, -1):
        if v[r] % h[r][r]:
            return False
        q = v[r] // h[r][r]
        for i in range(r + 1):
            v[i] -= q * h[i][r]
    return True


def _module_closed(qf: QuadField, a: int, b: int, c: int) -> bool:
    # multiply each generator by w and check membership by solving
    # (x, y) = m*(a,0) + k*(b,c) over the integers
    def contains(x: Fraction, y: Fraction) -> bool:
        if c == 0:
            return False
        k = Fraction(y, c)
        if k.denominator != 1:
            return False
        m = Fraction(x - k * b, a)
        return m.denominator == 1

    # w*(a, 0) = a*w; w has coords (0,1): times w: w^2 = tr*w - nrm
    if qf.half:
        tr, nrm = 1, Fraction(1 - qf.d0, 4)
    else:
        tr, nrm = 0, -qf.d0
    # w * (x + y w) = -nrm*y + (x + tr*y) w
    for (x, y) in ((a, 0), (b, c)):
        px, py = -nrm * y, x + tr * y
        if not contains(Fraction(px), Fraction(py)):
            return False
    return True


def brute_census(d0: int, c2: Fraction):
    """Fully independent census of strongly C-reduced divisors for the real
    quadratic field of squarefree d0 > 0: own ideal enumeration, own
    primitivity check, own exhaustive shortest vector.

    Returns a set of inverse-ideal keys (norm, a, b, c).
    """
    qf = QuadField(d0)
    disc = qf.disc
    bound = math.isqrt(int(c2 * c2 * disc)) if (c2 * c2 * disc).denominator == 1 \
        else int(math.isqrt(int(c2 * c2 * disc)))
    # bound = floor(C^2 sqrt(disc)) computed exactly: m <= C^2 sqrt(disc)
    # <=> m^2 <= C^4 disc
    m2cap = c2 ** 2 * disc
    bound = int(math.isqrt(m2cap.numerator // m2cap.denominator))
    while Fraction((bound + 1) ** 2) <= m2cap:
        bound += 1
    while Fraction(bound ** 2) > m2cap:
        bound -= 1
    result = set()
    for key in brute_integral_ideals(d0, bound):
        norm, a, b, c = key
        inv_basis = _inverse_module(qf, a, b, c)
        if inv_basis is None:
            continue
        if not _one_primitive(qf, inv_basis):
            continue
        gram = qf.trace_gram(inv_basis)
        lam = brute_shortest_sq(gram)
        if lam >= Fraction(2) / c2:
            result.add(key)
    return result


def _inverse_module(qf: QuadField, a: int, b: int, c: int):
    """Basis of J^{-1} = conj(J)/N(J) for J = Z*a + Z*(b+cw) (quadratic)."""
    n = Fraction(a * c)  # norm of the module as an ideal
    conj_w = (qf.w[0], -qf.w[1])
    # conj(b + c w) = b + c*conj(w); express on {1, w}: conj(w) = tr - w
    tr = 1 if qf.half else 0
    g1 = (Fraction(a), Fraction(0))
    g2 = (Fraction(b + c * tr), Fraction(-c))
    return [(g1[0] / n, g1[1] / n), (g2[0] / n, g2[1] / n)]


def _one_primitive(qf: QuadField, basis) -> bool:
    """1 in the module and not 1/k for k >= 2, by direct 2x2 solving."""
    (p0, p1), (q0, q1) = basis

    def coords_of(x: Fraction, y: Fraction):
        det = p0 * q1 - p1 * q0
        if det == 0:
            return None
        s = (x * q1 - y * q0) / det
        t = (p0 * y - p1 * x) / det
        return s, t

    def member(x, y):
        st = coords_of(Fraction(x), Fraction(y))
        return st is not None and st[0].denominator == 1 and st[1].denominator == 1

    if not member(1, 0):
        return False
    # denominators of the module bound the k to test
    dens = [v.denominator for v in (p0, p1, q0, q1)]
    kmax = max(dens) * 2
    return not any(member(Fraction(1, k), 0) for k in range(2, kmax + 1))


def fundamental_unit_is_minimal(d0: int, x: int, y: int, w=None) -> bool:
    """Scan check that (x, y) on {1, w} is the smallest unit above 1: no
    coordinate pair below it has |norm| one.

    w: the order's second basis element as (a, b) ~ a + b sqrt(d0); None
    means the maximal order's, as in QuadField."""
    wa, wb = (Fraction(c) for c in (w if w is not None else QuadField(d0).w))

    def embed(c0, c1):
        return (c0 + c1 * wa, c1 * wb)

    target = embed(x, y)
    # sigma0 of candidate must be in (1, sigma0(eps)); scan y' up to y
    for yp in range(-abs(int(y)) - 1, abs(int(y)) + 2):
        for xp in range(-abs(int(x)) - 2, abs(int(x)) + 3):
            if (xp, yp) in ((x, y), (1, 0)):
                continue
            pair = embed(xp, yp)
            if abs(pair[0] * pair[0] - pair[1] * pair[1] * d0) != 1:
                continue
            if surd_sign(pair[0] - 1, pair[1], d0) > 0 and \
                    surd_abs_less(pair, target, d0):
                return False
    return True


# ---------------------------------------------------------------------------
# Exhaustive box search in a real quadratic field

def brute_box(d: int, basis, bound_sq, strict: bool = True):
    """All nonzero g = c0*b0 + c1*b1 with sigma_k(g)^2 < V_k at both real
    places of Q(sqrt d) (<= when strict is False), as sorted (x, y) pairs
    with g = x + y*sqrt(d).

    basis: two (x, y) pairs of rationals; place 0 sends sqrt(d) to the
    positive root, place 1 to the negative one. bound_sq: per place a pair
    (p, q) with V_k = p + q*sqrt(d), positive, written for that place.

    The scan covers the whole coefficient box the bounds imply. On a row c1
    it tests every c0 that place 0 allows, widened by one on each side (the
    range comes from a rational sqrt(d) within 2^-64); every test is exact.
    """
    s = math.isqrt(d)
    eps = Fraction(1, 1 << 64)
    r = Fraction(math.isqrt(d << 128), 1 << 64)  # r <= sqrt(d) < r + eps
    (x0, y0), (x1, y1) = [(Fraction(x), Fraction(y)) for x, y in basis]
    # rational upper bounds X_k on |sigma_k(g)| = sqrt(V_k), to within 2^-20
    reach = []
    for p, q in bound_sq:
        v_up = Fraction(p) + Fraction(q) * r + abs(Fraction(q)) * eps
        reach.append(Fraction(math.isqrt(math.ceil(max(v_up, 0) * (1 << 40))) + 1,
                              1 << 20))
    # |x| <= (X0 + X1)/2 and |y| <= (X0 + X1)/(2 sqrt d)
    xmax = (reach[0] + reach[1]) / 2
    ymax = (reach[0] + reach[1]) / (2 * s)
    det = x0 * y1 - x1 * y0
    c1max = math.floor((xmax * abs(y0) + ymax * abs(x0)) / abs(det))
    a0 = x0 + y0 * r
    a1 = x1 + y1 * r
    out = []
    for c1 in range(-c1max, c1max + 1):
        ends = sorted(((-c1 * a1 - reach[0]) / a0, (-c1 * a1 + reach[0]) / a0))
        for c0 in range(math.floor(ends[0]) - 1, math.ceil(ends[1]) + 2):
            x = c0 * x0 + c1 * x1
            y = c0 * y0 + c1 * y1
            if x == 0 and y == 0:
                continue
            inside = True
            for sign, (p, q) in zip((1, -1), bound_sq):
                t = surd_sign(x * x + y * y * d - p, 2 * sign * x * y - q, d)
                if t > 0 or (strict and t == 0):
                    inside = False
                    break
            if inside:
                out.append((x, y))
    return sorted(out)


def brute_is_minimal(d: int, basis, elem) -> bool:
    """No nonzero lattice element is strictly smaller than elem = (x, y) at
    both real places."""
    x, y = Fraction(elem[0]), Fraction(elem[1])
    sq = x * x + y * y * d
    return not brute_box(d, basis, [(sq, 2 * x * y), (sq, -2 * x * y)], strict=True)


# ---------------------------------------------------------------------------
# Forward step of the reduced-ideal cycle in a real quadratic field

def brute_reduced_neighbor(min_poly, basis, den: int, hnf):
    """The element g of the ideal with sigma_0(g) > 1, |sigma_1(g)| < 1 and
    the smallest sigma_0(g), as coordinates on the order basis.

    min_poly: [c0, c1, 1]; basis: order basis rows in power coordinates;
    the ideal is spanned by the columns of hnf divided by den. The scan
    runs brute_box over |sigma_0| < X, |sigma_1| < 1 for X = 2, 4, 8, ...
    until some element has sigma_0 > 1; every comparison is an exact surd
    sign. Returns None past X = 2^20.
    """
    c0, c1 = Fraction(min_poly[0]), Fraction(min_poly[1])
    d = int(c1 * c1 - 4 * c0)

    def pair(p, q):  # p + q*theta with theta = (-c1 + sqrt(d))/2 at place 0
        return (Fraction(p) - Fraction(q) * c1 / 2, Fraction(q) / 2)

    order = [pair(*row) for row in basis]
    gens = [
        tuple(sum(Fraction(hnf[i][j], den) * order[i][k] for i in range(2))
              for k in range(2))
        for j in range(2)
    ]
    bound = Fraction(2)
    while bound <= 1 << 20:
        found = [
            (x, y) for x, y in brute_box(d, gens, [(bound * bound, 0), (1, 0)])
            if surd_sign(x - 1, y, d) > 0
        ]
        if found:
            best = found[0]
            for x, y in found[1:]:
                if surd_sign(x - best[0], y - best[1], d) < 0:
                    best = (x, y)
            # solve best = u*order[0] + v*order[1]
            (p0, q0), (p1, q1) = order
            det = p0 * q1 - p1 * q0
            return ((best[0] * q1 - best[1] * p1) / det,
                    (p0 * best[1] - q0 * best[0]) / det)
        bound *= 2
    return None


# ---------------------------------------------------------------------------
# Closest vector in a log lattice

def brute_closest_norm(target, gens, degs, spans) -> float:
    """min over integer a with |a_i| <= spans[i] of ||target + sum a_i gens_i||
    under the norm sum_k degs[k] v_k^2, scanning the whole box in double
    precision. target and gens are sequences of floats, one per place."""
    best = math.inf
    for a in product(*(range(-s, s + 1) for s in spans)):
        v = [t + sum(ai * g[k] for ai, g in zip(a, gens)) for k, t in enumerate(target)]
        best = min(best, math.sqrt(sum(d * x * x for d, x in zip(degs, v))))
    return best


# ---------------------------------------------------------------------------
# The box pick of a lattice in a number field

PICK_PREC = 320


def _oracle_places(min_poly):
    """The places of Q[x]/(min_poly) as (root, degree) pairs: the real roots
    in decreasing order, then one root of each complex pair (positive
    imaginary part) by decreasing real part. Call inside mp.workprec."""
    roots = mp.polyroots([mpf(c) for c in reversed(min_poly)],
                         maxsteps=400, extraprec=PICK_PREC)
    tiny = mpf(2) ** (-PICK_PREC // 2)
    places = [(r.real, 1) for r in sorted((r for r in roots if abs(r.imag) < tiny),
                                          key=lambda z: -z.real)]
    places += [(z, 2) for z in sorted((z for z in roots if z.imag >= tiny),
                                      key=lambda z: (-z.real, -z.imag))]
    return places


def _oracle_sigma(coords, places):
    """sigma_k of the element with rational power coordinates, every k."""
    return [sum(mpf(c.numerator) / c.denominator * z ** j for j, c in enumerate(coords))
            for z, _ in places]


def _oracle_box(places, rows, w, reach):
    """Every nonzero integer vector a whose lattice point g = sum a_i rows_i
    has w[k] * |sigma_k(g)| <= reach at every place, as (a, magnitudes).
    Call inside mp.workprec.

    The coefficient box comes from the inverse of the real embedding
    matrix; on each row of the other coefficients the first one is swept
    only across the range every place allows, computed in floats and
    widened by one on each side.
    """
    n = len(rows)
    emb = [_oracle_sigma(b, places) for b in rows]

    # |real coordinate| <= reach / w_k bounds each coefficient through M^-1
    cols = []
    for k, (_, deg) in enumerate(places):
        cols += [(k, lambda v: v.real)] + ([(k, lambda v: v.imag)] if deg == 2 else [])
    m_inv = mp.inverse(mp.matrix([[part(e[k]) for k, part in cols] for e in emb]))
    span = [int(mp.floor(sum(abs(m_inv[c, i]) * reach / w[k]
                             for c, (k, _) in enumerate(cols)))) + 1
            for i in range(n)]

    # each row of the other coefficients meets the disc (or interval)
    # |a0 e_k + s_k| <= reach / w_k of every place in a range of a0
    fl = [[complex(v) for v in e] for e in emb]
    radius_sq = [float(reach / wk) ** 2 for wk in w]
    inside = []
    for rest in product(*(range(-s, s + 1) for s in span[1:])):
        lo, hi = -span[0], span[0]
        for k, r2 in enumerate(radius_sq):
            e = fl[0][k]
            sk = sum(ai * v[k] for ai, v in zip(rest, fl[1:]))
            qa, qb, qc = abs(e) ** 2, (e.conjugate() * sk).real, abs(sk) ** 2
            disc = qb * qb - qa * (qc - r2)
            if disc < -1e-9 * (qb * qb + qa * (qc + r2)):
                hi = lo - 1
                break
            root = math.sqrt(max(disc, 0.0))
            lo = max(lo, math.ceil((-qb - root) / qa) - 1)
            hi = min(hi, math.floor((-qb + root) / qa) + 1)
        for a0 in range(lo, hi + 1):
            a = (a0,) + rest
            if not any(a):
                continue
            sigma = [sum(ai * e[k] for ai, e in zip(a, emb)) for k in range(len(places))]
            mags = [wk * abs(v) for wk, v in zip(w, sigma)]
            if all(x <= reach for x in mags):
                inside.append((a, mags))
    return inside


def brute_minimal_pick(min_poly, basis, weights, side):
    """The point a minimal-element box search picks, by exhaustive scan.

    The lattice is spanned by the rows of `basis` (rational power
    coordinates, theta^0 first) in Q[x]/(min_poly), min_poly monic with its
    constant term first. Its nonzero points g with
    weights[k] * |sigma_k(g)| <= side at every place k are listed; a point
    some other listed point beats strictly at every place is dropped; of the
    rest the one of least weighted T2 = sum_k deg_k (weights[k] |sigma_k(g)|)^2
    wins, then the least power coordinates, each point taken with the sign
    that makes its first nonzero coordinate positive. Returns those
    coordinates as a tuple of Fractions.

    Places are ordered as in _oracle_places. All tests are mpmath at
    PICK_PREC bits over the scan of _oracle_box.
    """
    n = len(min_poly) - 1
    rows = [[Fraction(c) for c in b] for b in basis]
    with mp.workprec(PICK_PREC):
        places = _oracle_places(min_poly)
        reach = mpf(side.numerator) / side.denominator
        inside = _oracle_box(places, rows, [mpf(x) for x in weights], reach)

        # the sums of +-g are exact negatives, so |sigma| ties there exactly
        kept = [(a, mags) for a, mags in inside
                if not any(all(x < y for x, y in zip(other, mags)) for _, other in inside)]
        best = None
        for a, mags in kept:
            coords = tuple(sum(ai * b[j] for ai, b in zip(a, rows)) for j in range(n))
            lead = next(c for c in coords if c)
            if lead < 0:
                coords = tuple(-c for c in coords)
            key = (sum(deg * x * x for x, (_, deg) in zip(mags, places)), coords)
            if best is None or key < best:
                best = key
    return best[1]


def brute_is_minimal_poly(min_poly, basis, elem) -> bool:
    """No nonzero point of the lattice is strictly smaller than elem at
    every place of Q[x]/(min_poly).

    basis rows and elem are rational power coordinates, as for
    brute_minimal_pick. The scan covers the closed box
    |sigma_k(g)| <= |sigma_k(elem)| at PICK_PREC bits. The oracle's own tie
    rule: a magnitude within a relative 2^-(PICK_PREC/2) of elem's ties
    with it, and a tie is not smaller.
    """
    rows = [[Fraction(c) for c in b] for b in basis]
    with mp.workprec(PICK_PREC):
        places = _oracle_places(min_poly)
        w = [1 / abs(v) for v in _oracle_sigma([Fraction(c) for c in elem], places)]
        below = 1 - mpf(2) ** (-PICK_PREC // 2)
        inside = _oracle_box(places, rows, w, mpf(1))
        return not any(all(x < below for x in mags) for _, mags in inside)


# ---------------------------------------------------------------------------
# The pair stage of verify: every pair, every closest vector by a box scan

def brute_lattice_distance(target, gens, degs) -> float:
    """min over integer a of ||target + sum a_i gens_i||, by brute_closest_norm
    on the dual box: the minimiser's v = sum a_i gens_i has ||v|| <= 2 ||target||,
    so |a_i| <= 2 ||target|| sqrt((G^-1)_ii)."""
    gram = [[sum(d * x * y for x, y, d in zip(gi, gj, degs)) for gj in gens] for gi in gens]
    reach = 2 * math.sqrt(sum(d * x * x for x, d in zip(target, degs)))
    inv = _inv(gram)
    spans = [int(reach * math.sqrt(inv[i][i])) + 1 for i in range(len(gens))]
    return brute_closest_norm(target, gens, degs, spans)


def brute_pair_stage(entries, unit_logs, unit_signs, tp_logs, degs, delta) -> dict:
    """Separation and unit-ball counts of a census over all pairs, in floats.

    entries: (narrow_tag, class_tag, signs, position) per census entry, signs
    a bit mask over the real places (bit p set when negative there), position
    the log position as floats per place. Separation compares the pairs of
    one narrow tag (tags sorted, then census order) for which some product
    of units turns the XOR of their signs all positive or all negative: the
    target is the difference of the positions plus that product's log,
    modulo the totally positive logs. A pair closer than delta - 1e-9
    violates. Counts: per entry, the entries of its class tag (itself
    included) within distance 1 modulo the unit logs. Returns pairs, min_gap,
    the violating pairs (a, b) in order, ball_counts and every compared
    pair's distance."""
    all_neg = sum(1 << p for p, d in enumerate(degs) if d == 1)
    r = len(unit_logs)
    gaps = {}
    for tag in sorted({e[0] for e in entries}):
        group = [k for k, e in enumerate(entries) if e[0] == tag]
        for x, a in enumerate(group):
            for b in group[x + 1:]:
                mask = next((m for m in range(1 << r)
                             if entries[a][2] ^ entries[b][2]
                             ^ _xor_bits(unit_signs, m) in (0, all_neg)), None)
                if mask is None:
                    continue
                target = [u - v for u, v in zip(entries[a][3], entries[b][3])]
                for i, log in enumerate(unit_logs):
                    if mask >> i & 1:
                        target = [t + w for t, w in zip(target, log)]
                gaps[a, b] = brute_lattice_distance(target, tp_logs, degs)
    ball_counts = [1] * len(entries)
    for a, b in ((a, b) for a in range(len(entries)) for b in range(a + 1, len(entries))):
        if entries[a][1] == entries[b][1]:
            target = [u - v for u, v in zip(entries[a][3], entries[b][3])]
            if brute_lattice_distance(target, unit_logs, degs) <= 1:
                ball_counts[a] += 1
                ball_counts[b] += 1
    return {
        "pairs": len(gaps),
        "min_gap": min(gaps.values(), default=None),
        "violations": [ab for ab, g in gaps.items() if g < delta - 1e-9],
        "ball_counts": ball_counts,
        "gaps": gaps,
    }


def _xor_bits(signs, mask: int) -> int:
    out = 0
    for i, s in enumerate(signs):
        if mask >> i & 1:
            out ^= s
    return out


def oracle_embed(min_poly, pcoords, prec: int) -> list:
    """sigma_k(x) at every place, ordered as in _oracle_places, for the
    element with rational power coordinates pcoords: the sum of c_j z^j at
    mpmath roots. It runs at 4 prec bits plus deg times the largest bit
    length of the coordinates' numerators and denominators, which pays for
    the cancellation of an element whose norm those bound below; compare
    the values at 4 prec bits or more."""
    bits = max(max(c.numerator.bit_length(), c.denominator.bit_length()) for c in pcoords)
    with mp.workprec(4 * prec + (len(min_poly) - 1) * (bits + 8)):
        places = _oracle_places(min_poly)
        return [sum((mpf(c.numerator) / c.denominator * z ** j for j, c in enumerate(pcoords)),
                    mpf(0)) for z, _ in places]
