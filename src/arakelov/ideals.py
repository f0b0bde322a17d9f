"""Fractional ideals as HNF modules over the ring of integers, plus plain
Z-lattices inside the field.

The HNF is column-style upper triangular with positive pivots and reduced
off-diagonal entries; together with a minimal denominator it is a canonical
record, so ideal equality is plain structural equality.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from mpmath import mpf

from .exact import hnf_contains, hnf_membership, hnf_upper, hnf_with_denominator, kernel_basis
from .numfield import FieldElement, NumberField, mpf_to_fraction


@dataclass(frozen=True, slots=True)
class FractionalIdeal:
    """Nonzero fractional ideal: columns of hnf divided by den form a basis
    on the integral basis of the field."""

    field: NumberField
    den: int
    hnf: tuple[tuple[int, ...], ...]

    def basis_elements(self) -> list[FieldElement]:
        n = self.field.n
        return [
            self.field.element([Fraction(self.hnf[i][j], self.den) for i in range(n)])
            for j in range(n)
        ]

    def norm(self) -> Fraction:
        det = 1
        for i in range(self.field.n):
            det *= self.hnf[i][i]
        return Fraction(det, self.den ** self.field.n)

    def contains(self, x: FieldElement) -> bool:
        return hnf_membership([list(r) for r in self.hnf], self.den, list(x.coords))

    def rational_intersection(self) -> Fraction:
        """Positive generator c of the rational ideal I ∩ Q = cZ."""
        return Fraction(self.hnf[0][0], self.den)

    def key(self):
        return (self.den,) + tuple(x for row in self.hnf for x in row)

    def __repr__(self) -> str:
        return f"FractionalIdeal(den={self.den}, hnf={[list(r) for r in self.hnf]})"


@dataclass(frozen=True)
class PlainLattice:
    """Full-rank Z-lattice in the field, not required to be an ideal."""

    field: NumberField
    basis: tuple[FieldElement, ...]

    def __post_init__(self):
        den, h = hnf_with_denominator(
            [list(b.coords) for b in self.basis], self.field.n
        )
        object.__setattr__(self, "_den_hnf", (den, h))

    def basis_elements(self) -> list[FieldElement]:
        return list(self.basis)

    def contains(self, x: FieldElement) -> bool:
        den, h = self._den_hnf
        return hnf_membership(h, den, list(x.coords))

    def rational_intersection(self) -> Fraction:
        den, h = self._den_hnf
        return Fraction(h[0][0], den)

    def norm(self) -> Fraction:
        """Covolume index relative to the integral basis lattice."""
        den, h = self._den_hnf
        det = 1
        for i in range(self.field.n):
            det *= h[i][i]
        return Fraction(det, den ** self.field.n)


def _from_vectors(f: NumberField, vectors: list[list[Fraction]]) -> FractionalIdeal:
    den, h = hnf_with_denominator(vectors, f.n)
    return FractionalIdeal(f, den, tuple(tuple(r) for r in h))


def unit_ideal(f: NumberField) -> FractionalIdeal:
    eye = [[int(i == j) for j in range(f.n)] for i in range(f.n)]
    return FractionalIdeal(f, 1, tuple(tuple(r) for r in eye))


def ideal_from_generators(f: NumberField, gens: list[FieldElement]) -> FractionalIdeal:
    """Smallest O_F-module containing the generators, in canonical HNF."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise ValueError("all generators are zero")
    basis_elems = [f.element([Fraction(int(i == k)) for i in range(f.n)]) for k in range(f.n)]
    vectors = [list((g * b).coords) for g in gens for b in basis_elems]
    return _from_vectors(f, vectors)


def scale_ideal(i: FractionalIdeal, g: FieldElement) -> FractionalIdeal:
    """The ideal g·I (exact, no closure step needed)."""
    if g.is_zero():
        raise ValueError("scaling by zero")
    return _from_vectors(i.field, [list((g * w).coords) for w in i.basis_elements()])


def multiply(i: FractionalIdeal, j: FractionalIdeal) -> FractionalIdeal:
    """Ideal product via HNF closure of pairwise basis products."""
    vectors = [
        list((w * v).coords) for w in i.basis_elements() for v in j.basis_elements()
    ]
    return _from_vectors(i.field, vectors)


def invert(i: FractionalIdeal) -> FractionalIdeal:
    """The inverse fractional ideal, computed from the exact membership
    conditions x·w_j ∈ O_F over the lattice (den/h00)·Z^n containing I⁻¹."""
    f = i.field
    n = f.n
    t = f.mult_table()
    h00 = i.hnf[0][0]
    cols = [[i.hnf[r][c] for r in range(n)] for c in range(n)]
    # stacked conditions: for each ideal basis column h_j and each k:
    #   sum_i v_i * (M_i h_j)_k  ≡ 0  (mod h00)
    rows: list[list[int]] = []
    for hj in cols:
        for k in range(n):
            row = []
            for idx in range(n):
                # (M_idx h_j)_k = sum_m t[idx][m][k] * h_j[m]
                row.append(sum(t[idx][m][k] * hj[m] for m in range(n)))
            rows.append(row)
    m_rows = len(rows)
    stacked = [rows[r] + [-h00 * int(c == r) for c in range(m_rows)] for r in range(m_rows)]
    kernel = kernel_basis(stacked)
    vecs = [k[:n] for k in kernel]
    scale = Fraction(i.den, h00)
    vectors = [[Fraction(x) * scale for x in v] for v in vecs]
    return _from_vectors(f, vectors)


def ideal_norm(i: FractionalIdeal) -> Fraction:
    return i.norm()


def contains(i: FractionalIdeal | PlainLattice, x: FieldElement) -> bool:
    return i.contains(x)


def one_is_primitive(i: FractionalIdeal | PlainLattice) -> bool:
    """1 ∈ I and I ∩ Q = Z (so no 1/d with d >= 2 lies in I)."""
    if not i.contains(i.field.one()):
        return False
    return i.rational_intersection() == 1


# ---------------------------------------------------------------------------
# Bounded-norm enumeration of integral ideals

def _diagonals(m: int, n: int) -> list[tuple[int, ...]]:
    """Every n-tuple of positive integers with product m, lexicographically."""
    heads = [((), m)]
    for _ in range(n - 1):
        heads = [(t + (d,), r // d) for t, r in heads for d in range(1, r + 1) if r % d == 0]
    return [t + (r,) for t, r in heads]


def _sublattices_of_index(n: int, m: int):
    """All column-HNF matrices of index m (upper triangular, reduced)."""
    # free positions: h[i][j] for i < j ranges over [0, diag[i]); the first
    # free position varies slowest
    free = [(i, j) for j in range(n) for i in range(j)]
    for diag in _diagonals(m, n):
        for values in product(*(range(diag[i]) for i, _ in free)):
            h = [[0] * n for _ in range(n)]
            for i in range(n):
                h[i][i] = diag[i]
            for (i, j), val in zip(free, values):
                h[i][j] = val
            yield h


def _is_module_closed(t, h: list[list[int]]) -> bool:
    """Whether the column HNF h spans a module over the order with
    multiplication table t: each b_k * h_j must solve back to integers."""
    n = len(h)
    return all(hnf_contains(h, [sum(t[k][m][r] * h[m][j] for m in range(n)) for r in range(n)])
               for k in range(1, n)  # multiplication by b_1 = 1 is trivially fine
               for j in range(n))


def _primes_up_to(limit: int) -> list[int]:
    sieve = bytearray([1]) * (limit + 1)
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, limit + 1, p)))
    return [p for p in range(limit + 1) if sieve[p]]


def _floor_bound(bound) -> int:
    """Exact floor of a norm bound: ints, Fractions and floats at their
    exact value, mpf through its exact binary value."""
    if isinstance(bound, mpf):
        bound = mpf_to_fraction(bound)
    return math.floor(bound)


def _irregular_modulus(f: NumberField) -> int:
    """D = |disc(O)| den(B) den(B^-1), B the basis matrix of O over the
    power basis. For every prime p not dividing D, O and Z[theta] agree
    after localising at p and f is squarefree mod p."""
    n = f.n
    dens = [x.denominator for row in f.basis for x in row]
    for j in range(n):
        dens += [x.denominator for x in f.from_power([Fraction(int(k == j)) for k in range(n)])]
    return abs(f.disc) * math.lcm(*dens)


def _roots_and_cofactor(poly: list[int], p: int) -> tuple[list[int], list[int]]:
    """Roots r in [0, p) of a monic ascending integer polynomial that is
    squarefree mod p, and the root-free monic cofactor left after dividing
    them out (ascending, coefficients in [0, p))."""
    g = [c % p for c in poly]
    roots = []
    for r in range(p):
        if len(g) == 1:
            break
        acc = 0
        for c in reversed(g):
            acc = (acc * r + c) % p
        if acc == 0:
            roots.append(r)
            # synthetic division by (x - r), from the leading coefficient down
            q = [0] * (len(g) - 1)
            carry = 0
            for k in range(len(g) - 1, 0, -1):
                carry = (g[k] + carry * r) % p
                q[k - 1] = carry
            g = q
    return roots, g


def _regular_primes(f: NumberField, p: int, limit: int):
    """(norm, prime) for the primes above a regular p with norm <= limit,
    from the factors of f mod p (Kummer-Dedekind), or None when f mod p
    leaves a root-free cofactor of degree >= 4 that could still hold a
    prime within the limit."""
    n = f.n
    roots, cofactor = _roots_and_cofactor(list(f.min_poly), p)
    d = len(cofactor) - 1
    if d >= 4 and p * p <= limit:
        return None
    out = []
    for r in roots:
        # O/P = F_p with theta -> r, so P is the kernel of b_i -> b_i(r)
        h = [[int(i == j) for j in range(n)] for i in range(n)]
        h[0][0] = p
        for i in range(1, n):
            val = 0
            for x in reversed(f.basis[i]):
                val = (val * r + x.numerator * pow(x.denominator, -1, p)) % p
            h[0][i] = -val % p
        out.append((p, FractionalIdeal(f, 1, tuple(tuple(row) for row in h))))
    if 2 <= d <= 3 and p ** d <= limit:
        # a root-free cofactor of degree <= 3 is irreducible mod p
        if d == n:
            prime = scale_ideal(unit_ideal(f), f.rational(p))  # pO is prime
        else:
            # g(theta) on O's basis has a denominator m prime to p, and
            # (p, m g(theta)) = (p, g(theta)) locally at p
            coords = f.from_power([Fraction(c) for c in cofactor] + [Fraction(0)] * (n - d - 1))
            m = math.lcm(*(x.denominator for x in coords))
            prime = ideal_from_generators(
                f, [f.rational(p), f.element([m * x for x in coords])])
        out.append((p ** d, prime))
    return out


def _scanned_primary(f: NumberField, t, p: int, limit: int):
    """(norm, ideal) for every p-primary ideal of norm p, p^2, ... <= limit,
    from a scan of the module-closed HNFs of each prime-power index."""
    primary = []
    q = p
    while q <= limit:
        primary.extend(
            (q, FractionalIdeal(f, 1, tuple(tuple(r) for r in h)))
            for h in _sublattices_of_index(f.n, q)
            if _is_module_closed(t, h)
        )
        q *= p
    return primary


def _prime_products(primes, limit: int):
    """(norm, ideal) for every product of powers of the given (norm, prime)
    pairs, other than O, with norm <= limit."""
    products = []
    for q, prime in primes:
        grown = []
        for nj, j in [(1, None)] + products:
            nk, power = nj * q, j
            while nk <= limit:
                power = prime if power is None else multiply(power, prime)
                grown.append((nk, power))
                nk *= q
        products += grown
    return products


def _coprime_product(j: FractionalIdeal, a: int, k: FractionalIdeal, b: int) -> FractionalIdeal:
    """J*K for integral ideals of coprime norms a and b. There J*K is
    J ∩ K, spanned by e1*J, e2*K and ab*O with e1 = 1 mod a, e1 = 0 mod b
    and e2 the other way round; entries are reduced mod ab, which lies in
    the span."""
    n = j.field.n
    ab = a * b
    e1 = b * pow(b, -1, a)
    e2 = a * pow(a, -1, b)
    cols = [[e1 * j.hnf[r][c] % ab for r in range(n)] for c in range(n)]
    cols += [[e2 * k.hnf[r][c] % ab for r in range(n)] for c in range(n)]
    cols += [[ab * int(r == c) for r in range(n)] for c in range(n)]
    return FractionalIdeal(j.field, 1, tuple(tuple(r) for r in hnf_upper(cols, n)))


def enumerate_integral_ideals(f: NumberField, bound) -> list[FractionalIdeal]:
    """All integral ideals of norm at most `bound`, sorted by (norm, HNF).

    O/J is the product of its p-primary parts, so J is the product of the
    ideals J + p^v O, which are pairwise comaximal (this holds in any order,
    maximal or not). At a regular prime p (p prime to disc(O) and to the
    denominators of O's basis over the power basis and of its inverse) the
    p-primary ideals are the products of the primes above p, read off the
    factors of the minimal polynomial mod p. Elsewhere the module-closed
    triangular sublattices of each prime-power index are scanned. Every
    other ideal is built once, as the product of one primary ideal per
    prime, by the Chinese remainder theorem.
    """
    limit = _floor_bound(bound)
    if limit < 1:
        return []
    t = f.mult_table()
    irregular = _irregular_modulus(f)
    found = [(1, unit_ideal(f))]
    for p in _primes_up_to(limit):
        primes = None if irregular % p == 0 else _regular_primes(f, p, limit)
        if primes is None:
            primary = _scanned_primary(f, t, p, limit)
        else:
            primary = _prime_products(primes, limit)
        found += [
            (nj * nq, pp if nj == 1 else _coprime_product(j, nj, pp, nq))
            for nj, j in found
            for nq, pp in primary
            if nj * nq <= limit
        ]
    found.sort(key=lambda e: (e[0], e[1].key()))
    return [j for _, j in found]


def count_sublattices_up_to(n: int, limit: int, cap: int) -> int:
    """Number of index-<=limit sublattices, stopping early past cap."""
    total = 0
    for m in range(1, limit + 1):
        for diag in _diagonals(m, n):
            cnt = 1
            for j in range(n):
                for i in range(j):
                    cnt *= diag[i]
            total += cnt
            if total > cap:
                return total
    return total
