"""Exact rational linear algebra and integer lattice normal forms.

Everything in this module is elementary and exact: integers and Fractions
only, no floating point. It backs all boundary-sharp decisions elsewhere.
"""
from __future__ import annotations

import math
from fractions import Fraction

Vec = list[Fraction]
Mat = list[list[Fraction]]


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) = x*a + y*b, g >= 0."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


# ---------------------------------------------------------------------------
# Rational matrices (dense, tiny dimensions)

def mat_identity(n: int) -> Mat:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def mat_vec(a: Mat, v: Vec) -> Vec:
    return [sum((a[i][k] * v[k] for k in range(len(v))), Fraction(0)) for i in range(len(a))]


def mat_det(a: Mat) -> Fraction:
    """Determinant by fraction Gaussian elimination."""
    n = len(a)
    m = [row[:] for row in a]
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        inv = 1 / m[c][c]
        for r in range(c + 1, n):
            if m[r][c]:
                f = m[r][c] * inv
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return det


def mat_inv(a: Mat) -> Mat:
    n = len(a)
    m = [row[:] + ident_row for row, ident_row in zip(a, mat_identity(n))]
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            raise ValueError("singular matrix")
        m[c], m[piv] = m[piv], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return [row[n:] for row in m]


# ---------------------------------------------------------------------------
# Hermite normal form (column style, upper triangular)

def hnf_upper(cols: list[list[int]], n: int) -> list[list[int]]:
    """Canonical upper-triangular HNF of the lattice spanned by integer columns.

    Returns H with H[i][j] = 0 for i > j, H[i][i] > 0 and
    0 <= H[i][j] < H[i][i] for j > i. Raises ValueError if the columns do
    not span a rank-n lattice.
    """
    work = [list(c) for c in cols if any(c)]
    basis: list[list[int]] = []
    for row in range(n - 1, -1, -1):
        piv: list[int] | None = None
        rest: list[list[int]] = []
        for col in work:
            if col[row] == 0:
                rest.append(col)
                continue
            if piv is None:
                piv = col
                continue
            a, b = piv[row], col[row]
            g, x, y = xgcd(a, b)
            u, v = a // g, b // g
            new_piv = [x * p + y * q for p, q in zip(piv, col)]
            new_col = [-v * p + u * q for p, q in zip(piv, col)]
            piv = new_piv
            if any(new_col):
                rest.append(new_col)
        if piv is None:
            raise ValueError("columns do not span a full-rank lattice")
        if piv[row] < 0:
            piv = [-t for t in piv]
        basis.append(piv)
        work = rest
    basis.reverse()  # basis[i] is the column with pivot in row i
    for j in range(n):
        for i in range(j - 1, -1, -1):
            q = basis[j][i] // basis[i][i]
            if q:
                basis[j] = [t - q * s for t, s in zip(basis[j], basis[i])]
    return [[basis[j][i] for j in range(n)] for i in range(n)]


def hnf_contains(h: list[list[int]], target: list[int]) -> bool:
    """Whether the integer vector lies in the lattice spanned by the columns
    of the upper-triangular H: back-substitution in integers, which fails
    at the first row whose remainder is not zero."""
    n = len(h)
    c = [0] * n
    for r in range(n - 1, -1, -1):
        acc = target[r] - sum(h[r][s] * c[s] for s in range(r + 1, n))
        c[r], rem = divmod(acc, h[r][r])
        if rem:
            return False
    return True


def hnf_membership(h: list[list[int]], den: int, target: Vec) -> bool:
    """Whether target (rational coords) lies in the lattice H/den; H c is
    integral for integer c, so den * target must be integral first."""
    scaled = [Fraction(t) * den for t in target]
    if any(x.denominator != 1 for x in scaled):
        return False
    return hnf_contains(h, [x.numerator for x in scaled])


# ---------------------------------------------------------------------------
# Quadratic surds a + b*sqrt(D)

def sign_surd(a: Fraction, b: Fraction, disc: int) -> int:
    """Certified sign of a + b*sqrt(disc) for disc > 0."""
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return 1 if b > 0 else -1
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    t = a * a - b * b * disc  # sign(a + b√D) = sign(a)·sign(a² − b²D) for mixed signs
    s = (t > 0) - (t < 0)
    return s if a > 0 else -s


def sign_surd_sq(a: int, b: int, disc: int, weight: int, bound: int, place: int) -> int:
    """Exact sign of weight |sigma(x)|^2 - bound for x = a + b sqrt(disc)
    at a place of a quadratic field, on integers: at the real places
    (disc > 0) sigma(x)^2 = a^2 + b^2 disc +- 2ab sqrt(disc), with - at
    place 1; at the complex place |sigma(x)|^2 = a^2 - b^2 disc. Box tests
    on surd numerators (A + B sqrt(disc)) / m take weight and bound over
    the one positive factor m^2 times their denominators."""
    if disc < 0:
        t = weight * (a * a - b * b * disc) - bound
        return (t > 0) - (t < 0)
    return sign_surd(weight * (a * a + b * b * disc) - bound,
                     weight * 2 * a * b * (1 - 2 * place), disc)


# ---------------------------------------------------------------------------
# The continued-fraction step on quadratic irrationals x = (p + sqrt(disc))/q
# with integers p, q and q | disc - p^2, disc > 0 not a square. The infra-
# structure walks of a real quadratic order (units, reduced cycles, minima)
# all take these steps. x is reduced when x > 1 and -1 < x' < 0.

# a reduced cycle closes in O(sqrt(disc) log disc) steps
CF_STEP_CAP = 100000


class StepCapExceeded(RuntimeError):
    """A continued-fraction walk ran past CF_STEP_CAP steps (an internal
    limit of the library, not a wrong input)."""


def cf_steps(what: str):
    """The loop of every continued-fraction walk: CF_STEP_CAP turns, the cap
    read as the walk starts, then StepCapExceeded for a walk that has not
    left the loop."""
    yield from range(CF_STEP_CAP)
    raise StepCapExceeded(f"{what} within {CF_STEP_CAP} steps")


def cf_floor(p: int, q: int, s: int) -> int:
    """floor((p + sqrt(disc))/q) for s = isqrt(disc): sqrt(disc) lies
    strictly between s and s + 1, so p + sqrt(disc) has floor p + s and
    -p - sqrt(disc) has floor -p - s - 1."""
    return (p + s) // q if q > 0 else (-p - s - 1) // -q


def cf_is_reduced(p: int, q: int, s: int) -> bool:
    """x > 1 (q - p < sqrt(disc)), x' < 0 (p < sqrt(disc)) and x' > -1
    (p + q > sqrt(disc)), for q > 0 and s = isqrt(disc)."""
    return q > 0 and q - s <= p <= s < p + q


def cf_forward(p: int, q: int, disc: int, s: int) -> tuple[int, int]:
    """From a reduced x to the reduced root of Z + Z/x; the multiplier is
    x. 1/x = (-p + sqrt(disc))/q' with q' = (disc - p^2)/q > 0, plus the
    floor of -(1/x)' = (p + sqrt(disc))/q'."""
    q = (disc - p * p) // q
    return (p + s) // q * q - p, q


def cf_backward(p: int, q: int, disc: int, s: int) -> tuple[int, int]:
    """x -> 1/(x - floor x); the multiplier is x - floor x."""
    p = cf_floor(p, q, s) * q - p
    return p, (disc - p * p) // q


def cf_cycle(p: int, q: int, disc: int) -> list[tuple[int, int, int, int]]:
    """The reduced roots x_0, ..., x_l = x_0 that forward steps visit from
    the reduced x_0 = (p + sqrt(disc))/q, as (p_k, q_k, u_k, v_k) with
    x_0 x_1 ... x_{k-1} = u_k + v_k x_0; the last product is a unit.

    x_k = floor(x_k) + 1/x_{k-1}, so the products gamma_k obey the
    convergent recurrence gamma_{k+1} = floor(x_k) gamma_k + gamma_{k-1}
    and stay integers on {1, x_0}."""
    s = math.isqrt(disc)
    p0, q0 = p, q
    u0, v0, u1, v1 = 1, 0, 0, 1  # gamma_0 = 1, gamma_1 = x_0
    out = [(p, q, u0, v0)]
    for _ in cf_steps("continued fraction failed to close"):
        p, q = cf_forward(p, q, disc, s)
        out.append((p, q, u1, v1))
        if (p, q) == (p0, q0):
            return out
        a = (p + s) // q
        u0, v0, u1, v1 = u1, v1, a * u1 + u0, a * v1 + v0


# ---------------------------------------------------------------------------
# Sturm's theorem (exact real-root count)

def _poly_div_rem(num: list[Fraction], den: list[Fraction]) -> list[Fraction]:
    num = num[:]
    while len(num) >= len(den) and any(num):
        if num[-1] == 0:
            num.pop()
            continue
        f = num[-1] / den[-1]
        shift = len(num) - len(den)
        for i, c in enumerate(den):
            num[shift + i] -= f * c
        num.pop()
    while num and num[-1] == 0:
        num.pop()
    return num


def sturm_real_root_count(coeffs: list[int]) -> int:
    """Number of distinct real roots of the squarefree integer polynomial
    with ascending coefficients."""
    p0 = [Fraction(c) for c in coeffs]
    p1 = [Fraction(i * c) for i, c in enumerate(coeffs)][1:]
    chain = [p0, p1]
    while len(chain[-1]) > 1:
        rem = _poly_div_rem(chain[-2], chain[-1])
        if not rem:
            break
        chain.append([-c for c in rem])
    if chain[-1] and len(chain[-1]) == 1 and chain[-1][0] == 0:
        chain.pop()

    def sign_at_inf(poly: list[Fraction], positive: bool) -> int:
        lead = poly[-1]
        deg = len(poly) - 1
        s = (lead > 0) - (lead < 0)
        if not positive and deg % 2 == 1:
            s = -s
        return s

    def variations(positive: bool) -> int:
        signs = [sign_at_inf(p, positive) for p in chain if any(p)]
        count = 0
        prev = 0
        for s in signs:
            if s == 0:
                continue
            if prev and s != prev:
                count += 1
            prev = s
        return count

    return variations(False) - variations(True)


# ---------------------------------------------------------------------------
# Integer floors of square roots

def frac_isqrt_floor(f: Fraction) -> int:
    """floor(sqrt(f)) for f >= 0."""
    if f < 0:
        raise ValueError("negative")
    return math.isqrt(f.numerator * f.denominator) // f.denominator
