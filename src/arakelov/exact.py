"""Exact integer linear algebra and lattice normal forms: one
fraction-free elimination (int_solve, behind every determinant, inverse
and adjugate of the library), the Hermite normal form, quadratic surd
signs, continued-fraction steps and Sturm's root count.

Everything in this module is elementary and exact: integers, with
Fractions only in Sturm's polynomial remainders and frac_isqrt_floor, and
no floating point. It backs all boundary-sharp decisions elsewhere.
"""
from __future__ import annotations

import math
from fractions import Fraction


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
# Fraction-free elimination (dense, tiny dimensions)

def int_solve(a, rhs) -> tuple[int, list[list[int]] | None]:
    """(det, X) with a X = det rhs, for an integer n x n matrix a and an
    integer n x k matrix rhs given as n rows: det is the determinant of a
    and X = adj(a) rhs, an integer matrix (Cramer). A singular a gives
    (0, None).

    Bareiss elimination with row swaps on [a | rhs] (Bareiss, "Sylvester's
    identity and multistep integer-preserving Gaussian elimination", Math.
    Comp. 1968): every division is exact and the last pivot is +-det. The
    back-substitution of X on the echelon rows divides exactly too, since
    every entry of X is an integer."""
    n = len(a)
    m = [list(row) + list(r) for row, r in zip(a, rhs)]
    sign, prev = 1, 1
    for k in range(n):
        piv = next((r for r in range(k, n) if m[r][k]), None)
        if piv is None:
            return 0, None
        if piv != k:
            m[k], m[piv], sign = m[piv], m[k], -sign
        top, p = m[k][k + 1:], m[k][k]
        for i in range(k + 1, n):
            c = m[i][k]
            m[i] = [0] * (k + 1) + [(x * p - c * y) // prev for x, y in zip(m[i][k + 1:], top)]
        prev = p
    det = sign * prev
    x: list[list[int]] = [[]] * n
    for i in range(n - 1, -1, -1):
        row = m[i]
        x[i] = [(det * row[n + c] - sum(row[j] * x[j][c] for j in range(i + 1, n))) // row[i]
                for c in range(len(row) - n)]
    return det, x


def int_det(a) -> int:
    """Determinant of an integer matrix: int_solve with no right-hand side."""
    return int_solve(a, [()] * len(a))[0]


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


# ---------------------------------------------------------------------------
# Quadratic surds a + b*sqrt(D)

def sign_surd(a: int, b: int, disc: int) -> int:
    """Exact sign of a + b*sqrt(disc) for integers a, b and disc > 0."""
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
    the reduced x_0 = (p + sqrt(disc))/q, as (p_k, q_k, U_k, V_k) with
    x_0 x_1 ... x_{k-1} = (U_k + V_k sqrt(disc))/q, integer surd numerators
    over q; the last product is a unit.

    x_k = floor(x_k) + 1/x_{k-1}, so the products gamma_k obey the
    convergent recurrence gamma_{k+1} = floor(x_k) gamma_k + gamma_{k-1},
    which is linear: from gamma_0 = 1 = (q + 0 sqrt(disc))/q and
    gamma_1 = x_0 = (p + sqrt(disc))/q their numerators stay integers."""
    s = math.isqrt(disc)
    p0, q0 = p, q
    u0, v0, u1, v1 = q0, 0, p0, 1  # gamma_0 = 1, gamma_1 = x_0
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
