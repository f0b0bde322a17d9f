"""Arakelov divisors and their reduction theory: degree arithmetic, the
strongly C-reduced test with certificates, the LLL jump, reduction to a
nearby strongly C-reduced divisor, and distances on the class group and its
oriented refinement.

The reduction quality C is carried as an exact squared rational so that
boundary cases (lambda_1 exactly sqrt(n)/C) are decided exactly; pass
strings like "sqrt2" or Fractions to keep that sharpness.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from mpmath import mp, mpf

from .exact import (
    CF_STEP_CAP,
    cf_backward,
    cf_cycle,
    cf_forward,
    cf_is_reduced,
    sign_surd,
)
from .ideals import (
    FractionalIdeal,
    PlainLattice,
    _from_vectors,
    ideal_from_generators,
    invert,
    multiply,
    one_is_primitive,
    scale_ideal,
    unit_ideal,
)
from .lattice import (
    DEGREE_TOL,
    _box_side,
    _canonical_sign,
    _degree,
    _element_of,
    _enumerate_ellipsoid,
    _refining,
    _shortest_attempt,
    _u_weights,
    gram_of,
    is_minimal,
    lll_first_vector,
    minimal_element_bounded,
)
from .numfield import (
    ArchVector,
    FieldElement,
    NumberField,
    fraction_to_mpf,
    mpf_to_fraction,
)
from .units import (
    UnitLattice,
    UnitsUnavailable,
    _quadratic_root,
    min_log_norm_modulo,
    quadratic_units,
    totally_positive_adjust,
    unit_lattice_from_elements,
)

__all__ = [
    "ArakelovDivisor", "CheckResult", "ReductionTrace", "UndecidedPrincipality",
    "add", "as_c_squared", "degree", "divisor_d", "is_reduced_usual",
    "is_strongly_c_reduced", "lll_jump", "negate", "oriented_distance",
    "pic_distance", "principal_divisor", "principal_generator",
    "quadratic_units", "reduce", "reduced_cycle", "reduction_distance_bound",
    "unit_lattice_from_elements", "UnitLattice", "UnitsUnavailable",
]

# principal_generator outside quadratic fields searches x^T G x <= n N(Q)^2 * this
PRINCIPAL_SEARCH_FACTOR = 64


class UndecidedPrincipality(RuntimeError):
    """Generator search hit its declared bound without a decision."""


class CSquared:
    """An already-squared reduction parameter (kept exact as a Fraction)."""

    __slots__ = ("c2",)

    def __init__(self, c2: Fraction):
        self.c2 = Fraction(c2)


def as_c_squared(c) -> Fraction:
    """Exact square of the reduction parameter C.

    Accepts ints, Fractions, floats (squared at their exact binary value),
    CSquared markers, and strings: either a rational literal like "2" or
    "1.5", or "sqrtR" / "sqrt(R)" for the square root of a rational R.
    """
    if isinstance(c, CSquared):
        c2 = c.c2
        if c2 < 1:
            raise ValueError("reduction parameter C must be at least 1")
        return c2
    if isinstance(c, str):
        s = c.strip().lower().replace(" ", "")
        if s.startswith("sqrt"):
            inner = s[4:]
            if inner.startswith("(") and inner.endswith(")"):
                inner = inner[1:-1]
            c2 = Fraction(inner)
        else:
            c2 = Fraction(s) ** 2
    elif isinstance(c, Fraction) or isinstance(c, int):
        c2 = Fraction(c) ** 2
    elif isinstance(c, float):
        c2 = Fraction(c) ** 2
    else:
        c2 = mpf_to_fraction(c) ** 2
    if c2 < 1:
        raise ValueError("reduction parameter C must be at least 1")
    return c2


# ---------------------------------------------------------------------------
# Divisors

@dataclass(frozen=True, slots=True)
class ArakelovDivisor:
    """Pair (I, u) of a fractional ideal and positive archimedean weights."""

    ideal: FractionalIdeal
    u: ArchVector
    d_form: bool = False

    @property
    def field(self) -> NumberField:
        return self.ideal.field

    def degree(self):
        return mpf(0) if self.d_form else _degree(self.ideal, self.u)

    def __repr__(self) -> str:
        return f"ArakelovDivisor({self.ideal!r}, u~{[float(v) for v in self.u.values]})"


def divisor_d(ideal: FractionalIdeal) -> ArakelovDivisor:
    """The degree-zero divisor on I with equal weights N(I)^(-1/n)."""
    f = ideal.field
    n_ideal = ideal.norm()
    with mp.workprec(f.prec):
        val = (mpf(n_ideal.numerator) / n_ideal.denominator) ** (-mpf(1) / f.n)
    return ArakelovDivisor(ideal, ArchVector.constant(val, f.degs, f.prec), d_form=True)


def principal_divisor(x: FieldElement) -> ArakelovDivisor:
    """(x^{-1} O_F, |x|): degree zero by the product formula."""
    if x.is_zero():
        raise ValueError("principal divisor of zero")
    f = x.field
    ideal = ideal_from_generators(f, [x.inverse()])
    return ArakelovDivisor(ideal, f.embed(x).abs())


def add(d1: ArakelovDivisor, d2: ArakelovDivisor) -> ArakelovDivisor:
    return ArakelovDivisor(multiply(d1.ideal, d2.ideal), d1.u.mul(d2.u))


def negate(d: ArakelovDivisor) -> ArakelovDivisor:
    return ArakelovDivisor(invert(d.ideal), d.u.inv())


def degree(d: ArakelovDivisor):
    return d.degree()


# ---------------------------------------------------------------------------
# Strongly C-reduced testing

@dataclass(frozen=True, slots=True)
class CheckResult:
    """Outcome of the strongly C-reduced test with its evidence."""

    ok: bool
    primitive: bool
    rational_intersection: Fraction
    lambda1_sq: Fraction | None
    witness: tuple[int, ...] | None
    witness_element: FieldElement | None
    threshold: Fraction

    def __bool__(self) -> bool:
        return self.ok


def _lambda_decision(f: NumberField, lattice, threshold: Fraction):
    """(lambda_1^2 >= threshold, witness) with certified margins; a Gram too
    coarse to decide is refined."""
    def attempt(gram):
        sv = _shortest_attempt(gram)
        diff = sv.length_sq - threshold
        if sv.length_sq_err == 0 or abs(diff) > sv.length_sq_err:
            return diff >= 0, sv
        return None

    return _refining(gram_of(f, lattice), attempt)


def is_strongly_c_reduced(f: NumberField, lattice: FractionalIdeal | PlainLattice,
                          c) -> CheckResult:
    """Test: 1 is primitive in the lattice and its shortest vector has
    length at least sqrt(n)/C (equality counts)."""
    c2 = as_c_squared(c)
    primitive = one_is_primitive(lattice)
    threshold = Fraction(f.n) / c2
    if not primitive:
        return CheckResult(False, False, lattice.rational_intersection(),
                           None, None, None, threshold)
    ok, sv = _lambda_decision(f, lattice, threshold)
    return CheckResult(ok, True, lattice.rational_intersection(),
                       sv.length_sq, sv.coeffs, sv.element, threshold)


def is_reduced_usual(f: NumberField, ideal: FractionalIdeal | PlainLattice) -> bool:
    """Reduced in the usual sense: 1 lies in the lattice and is minimal.

    Real quadratic ideals are decided exactly by the shape of their basis
    (see _reduced_root); other lattices by a box enumeration."""
    if _real_quadratic(f) and isinstance(ideal, FractionalIdeal):
        return _reduced_root(f, ideal) is not None
    if not ideal.contains(f.one()):
        return False
    return is_minimal(f, ideal, f.one())


# ---------------------------------------------------------------------------
# LLL jump

def lll_jump(f: NumberField, ideal: FractionalIdeal):
    """Divide the ideal by the first vector of an LLL-reduced basis.

    Returns d(J) for J = b_1^{-1} I when 1 is primitive in J, else None.
    (For a true basis vector b_1 primitivity always holds: b_1/d is never a
    lattice point; the guard stays for contract safety.)
    """
    b1 = lll_first_vector(gram_of(f, ideal)).element
    return _jump_assemble(f, ideal, b1)


def _jump_assemble(f: NumberField, ideal: FractionalIdeal, b1: FieldElement):
    """d(J) for J = b1^{-1} I when 1 is primitive in J, else None."""
    j = scale_ideal(ideal, b1.inverse())
    if not one_is_primitive(j):
        return None
    return divisor_d(j)


# ---------------------------------------------------------------------------
# Reduction (nearest strongly C-reduced divisor)

@dataclass(frozen=True, slots=True)
class ReductionTrace:
    """Record of a reduction run: the initial minimal element, each division
    step with the shortest-vector length it fixed, the accumulated weight
    vector v with D - D' + (g) = (O_F, v), and the step count."""

    initial_minimal: FieldElement
    steps: tuple[tuple[FieldElement, FractionalIdeal, Fraction], ...]
    final: ArakelovDivisor
    v: ArchVector
    k: int
    c_squared: Fraction
    distance_bound: object  # mpf or None when C = 1 (no guarantee)
    generator: FieldElement


def reduction_distance_bound(f: NumberField, c2: Fraction):
    """Distance guarantee for reduce() at parameter C^2 = c2; None at C = 1."""
    if c2 == 1:
        return None
    with mp.workprec(f.prec):
        log_pf = mp.log(f.partial_constant())
        if c2 >= f.n:
            return log_pf
        factor = mp.log(f.n) / mp.log(fraction_to_mpf(c2, f.prec))
        return factor * log_pf


def reduce(d: ArakelovDivisor, c) -> tuple[ArakelovDivisor, ReductionTrace]:
    """Reduce a degree-zero divisor to a strongly C-reduced one on the same
    class-group component.

    First divides by a minimal element inside the box bound, then repeatedly
    divides by shortest vectors while the lattice is still too dense; the
    inverse-ideal norms are strictly decreasing positive integers, so the
    loop terminates.
    """
    c2 = as_c_squared(c)
    f = d.field
    deg = d.degree()
    if abs(deg) > DEGREE_TOL:
        raise ValueError(f"divisor degree {float(deg)} is not zero")
    with mp.workprec(d.u.prec):
        u = d.u.scale(mp.exp(-deg / f.n))  # exact-zero degree normalisation

    f_min = minimal_element_bounded(f, d.ideal, u)
    j = scale_ideal(d.ideal, f_min.inverse())
    g_acc = f_min
    threshold = Fraction(f.n) / c2
    steps: list[tuple[FieldElement, FractionalIdeal, Fraction]] = []
    with mp.workprec(f.prec):
        cap = int(10 * f.partial_constant()) + 10
    while True:
        ok, sv = _lambda_decision(f, j, threshold)
        if ok:
            break
        if len(steps) >= cap:
            raise RuntimeError("reduction exceeded its iteration cap (bug)")
        fj = sv.element
        j = scale_ideal(j, fj.inverse())
        g_acc = g_acc * fj
        steps.append((fj, j, sv.length_sq))

    final = divisor_d(j)
    nj = j.norm()
    with mp.workprec(u.prec):
        scale = (mpf(nj.numerator) / nj.denominator) ** (mpf(1) / f.n)
        v = u.mul(f.embed(g_acc).abs()).scale(scale)
    return final, ReductionTrace(
        initial_minimal=f_min,
        steps=tuple(steps),
        final=final,
        v=v,
        k=len(steps),
        c_squared=c2,
        distance_bound=reduction_distance_bound(f, c2),
        generator=g_acc,
    )


# ---------------------------------------------------------------------------
# Reduced-ideal cycles (real quadratic infrastructure)

def _real_quadratic(f: NumberField) -> bool:
    return f.n == 2 and f.r1 == 2


def _reduced_root(f: NumberField, j: FractionalIdeal) -> tuple[int, int] | None:
    """For a reduced J of a real quadratic field, the (p, q) of the root
    x = (p + sqrt(f.disc))/q with J = Z + Z x, x > 1 and -1 < x' < 0 (at
    place 0); None when J is not reduced.

    J is reduced (1 in J and minimal) exactly when J ∩ Q = Z and the
    normalised root of its second HNF basis element exceeds 1: then an
    element m + k x (k > 0) with |m + k x'| < 1 has m >= 0, so
    m + k x > 1; and a root below 1 is itself smaller than 1 at both
    places."""
    if j.hnf[0][0] != j.den:
        return None
    p, q = _quadratic_root(f, j.basis_elements()[1])
    return (p, q) if cf_is_reduced(p, q, isqrt(f.disc)) else None


def reduced_cycle(f: NumberField, start: FractionalIdeal):
    """The cycle of reduced ideals through `start` (ValueError unless it is
    reduced), as a list of (ideal, gamma) with ideal = gamma^{-1} * start.

    Forward steps take the root x_k of each ideal Z + Z x_k to the root of
    the next, Z + Z/x_k, and gamma is the product of the x_k so far."""
    if not _real_quadratic(f):
        raise ValueError("reduced cycles exist for real quadratic fields only")
    root = _reduced_root(f, start)
    if root is None:
        raise ValueError("ideal is not reduced: 1 is not a primitive minimal element")
    p0, q0 = root
    out = [(start, f.one())]
    for p, q, u, v in cf_cycle(p0, q0, f.disc)[1:-1]:
        x = f.from_surd(Fraction(p, q), Fraction(1, q))
        gam = f.from_surd(u + Fraction(v * p0, q0), Fraction(v, q0))
        out.append((_from_vectors(f, [[1, 0], list(x.coords)]), gam))
    return out


def _principal_cycle(f: NumberField):
    if "principal_cycle" not in f._cache:
        f._cache["principal_cycle"] = reduced_cycle(f, unit_ideal(f))
    return f._cache["principal_cycle"]


def to_reduced(f: NumberField, q: FractionalIdeal) -> tuple[FractionalIdeal, FieldElement]:
    """(J, g) with Q = g·J and 1 minimal in J.

    g is the minimal element that minimal_element_bounded picks in the box
    of d(Q); real quadratic fields reach it by continued fractions instead
    of enumerating the box."""
    if _real_quadratic(f):
        g = _box_minimum_real_quadratic(f, q)
    else:
        g = minimal_element_bounded(f, q, divisor_d(q).u)
    return scale_ideal(q, g.inverse()), g


def _box_minimum_real_quadratic(f: NumberField, q: FractionalIdeal) -> FieldElement:
    """minimal_element_bounded(f, Q, d(Q).u) without the box enumeration.

    Q = r(Z + Z x) with r Q's rational generator. The continued fraction
    x -> 1/(x - floor x) walks Z + Z x = y (Z + Z/y), y = x - floor x, to a
    reduced root, so r·prod(y) is a minimum of Q. The minima of Q inside
    the closed box of d(Q) are a consecutive run of the chain of minima,
    where |sigma_0| grows and |sigma_1| shrinks; one step along the chain
    multiplies by x (forward) or by x - floor x (backward). The run is
    collected and its least T2, then least canonical coordinates, picked,
    exactly as the box enumeration does. Elements are carried as the pairs
    (a, b) of a + b sqrt(disc) that f.surd gives."""
    disc, s = f.disc, isqrt(f.disc)
    side = _box_side(f)
    bound_sq = side * side
    w = _u_weights(f, divisor_d(q).u)[0]

    def in_box(g: tuple[Fraction, Fraction], place: int) -> bool:
        # w sigma(g)^2 = w (a^2 + b^2 disc +- 2ab sqrt(disc)) <= bound^2
        a, b = g
        return sign_surd(w * (a * a + b * b * disc) - bound_sq,
                         w * 2 * a * b * (1 - 2 * place), disc) <= 0

    def step(p: int, d: int, g: tuple[Fraction, Fraction], forward: bool):
        """The next (p, d, g) for x = (p + sqrt(disc))/d: g times x
        (forward) or times x - floor x = (-p' + sqrt(disc))/d (backward),
        that is g times (m + sqrt(disc))/d."""
        p1, d1 = (cf_forward if forward else cf_backward)(p, d, disc, s)
        m = p if forward else -p1
        a, b = g
        return p1, d1, ((a * m + b * disc) / d, (a + b * m) / d)

    r = Fraction(q.hnf[0][0], q.den)
    state = (*_quadratic_root(f, q.basis_elements()[1] / r), (r, Fraction(0)))
    for _ in range(CF_STEP_CAP):
        if cf_is_reduced(state[0], state[1], s):
            break
        state = step(*state, False)
    else:
        raise RuntimeError("continued fraction failed to reach a reduced root")
    # walk onto the run of minima inside the box
    for _ in range(CF_STEP_CAP):
        if not in_box(state[2], 0):
            state = step(*state, False)
        elif not in_box(state[2], 1):
            state = step(*state, True)
        else:
            break
    else:
        raise RuntimeError("no minimum of the ideal lies in the box of d(Q)")
    # backward steps shrink |sigma_0| and grow |sigma_1|; forward the reverse
    run = [state[2]]
    for forward, place in ((False, 1), (True, 0)):
        nxt = step(*state, forward)
        while in_box(nxt[2], place):
            run.append(nxt[2])
            nxt = step(*nxt, forward)
    best = min((2 * (a * a + b * b * disc), _canonical_sign(tuple(f.from_surd(a, b).coords)))
               for a, b in run)
    return f.element(best[1])


def principal_generator(f: NumberField, q: FractionalIdeal) -> FieldElement | None:
    """A generator of Q when Q is principal, else None.

    Real quadratic fields walk the principal reduced-ideal cycle (complete).
    Imaginary quadratic fields use exact norm matching (complete). Other
    fields search short vectors up to a declared radius and raise
    UndecidedPrincipality when nothing is found inside it.
    """
    if _real_quadratic(f):
        j, g = to_reduced(f, q)
        for jk, gam in _principal_cycle(f):
            if jk == j:
                return g * gam.inverse()
        return None
    # scale to an integral ideal first
    qi = scale_ideal(q, f.rational(q.den)) if q.den != 1 else q
    m = qi.norm()
    assert m.denominator == 1
    imaginary_quadratic = f.n == 2 and f.r2 == 1
    if imaginary_quadratic:
        radius = 2 * Fraction(m) * (1 + Fraction(1, 1 << 20))
    else:
        radius = Fraction(f.n) * Fraction(m.numerator) ** 2 * PRINCIPAL_SEARCH_FACTOR
    gram = gram_of(f, qi)
    for _, coeffs in _enumerate_ellipsoid(gram, radius):
        g = _element_of(gram, coeffs)
        if abs(g.norm()) == m:
            return g / q.den
    if imaginary_quadratic:
        return None
    raise UndecidedPrincipality(
        "no generator of squared length at most n * N(Q)^2 * "
        f"{PRINCIPAL_SEARCH_FACTOR} (the declared search radius); "
        "principality is undecided"
    )


# ---------------------------------------------------------------------------
# Distances

def _require_degree_zero(d: ArakelovDivisor):
    if abs(d.degree()) > DEGREE_TOL:
        raise ValueError("distance requires degree-zero divisors")


def _distance(d1: ArakelovDivisor, d2: ArakelovDivisor, units: UnitLattice,
              oriented: bool):
    _require_degree_zero(d1)
    _require_degree_zero(d2)
    f = d1.field
    if f.r1 + f.r2 - 1 > 0 and units is None:
        raise UnitsUnavailable("unit lattice required for fields of unit rank > 0")
    g = principal_generator(f, multiply(d1.ideal, invert(d2.ideal)))
    if g is not None and oriented and units is not None:
        g = totally_positive_adjust(f, g, units)
    if g is None:
        return None
    # v with D1 - D2 + (g) = (O_F, v), as positive magnitudes
    prec = max(d1.u.prec, d2.u.prec)
    gv = f.embed(g, prec).abs()
    with mp.workprec(prec):
        vals = tuple(a / b * c for a, b, c in zip(d1.u.values, d2.u.values, gv.values))
    gens = units.log_embeddings(tp_only=oriented) if units is not None else []
    return min_log_norm_modulo(ArchVector(vals, f.degs, prec).log(), gens)


def pic_distance(d1: ArakelovDivisor, d2: ArakelovDivisor,
                 units: UnitLattice):
    """Distance between the classes of two degree-zero divisors on the same
    component of the class group; None when the ideal classes differ."""
    return _distance(d1, d2, units, oriented=False)


def oriented_distance(d1: ArakelovDivisor, d2: ArakelovDivisor,
                      units: UnitLattice):
    """Distance in the oriented class group: the generator must be totally
    positive and only totally positive units are minimised over; None when
    the divisors sit on different narrow components."""
    return _distance(d1, d2, units, oriented=True)
