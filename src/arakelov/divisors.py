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
from math import gcd, isqrt

from mpmath import mp, mpf

from .exact import (
    cf_backward,
    cf_cycle,
    cf_forward,
    cf_is_reduced,
    cf_steps,
    sign_surd_sq,
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
    _box_points,
    _box_side,
    _canonical_sign,
    _degree,
    _refining,
    _shortest_attempt,
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
    LogLattice,
    UnitLattice,
    UnitsUnavailable,
    _hnf_root,
    _slack_bits,
    quadratic_units,
    totally_positive_adjust,
    unit_lattice_from_elements,
)

__all__ = [
    "ArakelovDivisor", "CheckResult", "ReductionTrace",
    "add", "as_c_squared", "degree", "divisor_d", "is_reduced_usual",
    "is_strongly_c_reduced", "lll_jump", "negate", "oriented_distance",
    "pic_distance", "principal_divisor", "principal_generator",
    "quadratic_units", "reduce", "reduced_cycle", "reduction_distance_bound",
    "unit_lattice_from_elements", "UnitLattice", "UnitsUnavailable",
]

class CSquared:
    """An already-squared reduction parameter (kept exact as a Fraction)."""

    __slots__ = ("c2",)

    def __init__(self, c2: Fraction):
        self.c2 = Fraction(c2)


def as_c_squared(c) -> Fraction:
    """Exact square of the reduction parameter C, which must be at least 1.

    Accepts ints, Fractions, floats (squared at their exact binary value),
    CSquared markers, and strings: either a rational literal like "2" or
    "1.5", or "sqrtR" / "sqrt(R)" for the square root of a rational R.
    """
    s = c.strip().lower().replace(" ", "") if isinstance(c, str) else None
    if isinstance(c, CSquared):
        c2 = c.c2
    elif s is not None and s.startswith("sqrt"):
        inner = s[4:]
        if inner.startswith("(") and inner.endswith(")"):
            inner = inner[1:-1]
        c2 = Fraction(inner)
    else:
        if s is not None:
            root = Fraction(s)
        elif isinstance(c, (Fraction, int, float)):
            root = Fraction(c)
        else:
            root = mpf_to_fraction(c)
        # C |C| is C^2 with the sign of C, so a negative C fails the check too
        c2 = root * abs(root)
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
    val = _equal_weight(f, ideal.norm())
    return ArakelovDivisor(ideal, ArchVector.constant(val, f.degs, f.prec), d_form=True)


def _equal_weight(f: NumberField, n_ideal: Fraction):
    """N^(-1/n) at the field precision: d(I)'s weight at every place, N = N(I)."""
    with mp.workprec(f.prec):
        return (mpf(n_ideal.numerator) / n_ideal.denominator) ** (-mpf(1) / f.n)


def _equal_weight_man_exp(f: NumberField, n_ideal: Fraction) -> tuple[int, int]:
    """(man, exp) of _equal_weight(f, n_ideal), the exact binary value of
    d(I)'s weight, cached per (norm, precision) in the field."""
    cache = f._cache.setdefault("equal_weights", {})
    key = (n_ideal.numerator, n_ideal.denominator, f.prec)
    if key not in cache:
        cache[key] = _equal_weight(f, n_ideal).man_exp
    return cache[key]


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
    coarse to search or to decide is refined."""
    def attempt(gram):
        sv = _shortest_attempt(gram)
        if sv is None:
            return None
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
    """Distance guarantee for reduce() at parameter C^2 = c2; None at C = 1.
    A per-field constant at each precision, cached: every trace of one
    field, C and precision holds the same mpf."""
    if c2 == 1:
        return None
    key = ("distance_bound", c2, f.prec)
    if key not in f._cache:
        with mp.workprec(f.prec):
            log_pf = mp.log(f.partial_constant())
            if c2 < f.n:
                log_pf *= mp.log(f.n) / mp.log(fraction_to_mpf(c2, f.prec))
        f._cache[key] = log_pf
    return f._cache[key]


def _reduction_cap(f: NumberField) -> int:
    """The cap on reduce()'s shortest-vector steps, 10 * partial_constant
    + 10 at the field precision; a per-field constant, cached."""
    key = ("reduction_cap", f.prec)
    if key not in f._cache:
        with mp.workprec(f.prec):
            f._cache[key] = int(10 * f.partial_constant()) + 10
    return f._cache[key]


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
    cap = _reduction_cap(f)
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
    p, q = _hnf_root(f, j.hnf)
    return (p, q) if cf_is_reduced(p, q, isqrt(f.disc)) else None


def _root_ideal(f: NumberField, p: int, q: int) -> FractionalIdeal:
    """The reduced ideal Z + Z x of the reduced root x = (p + sqrt(disc))/q."""
    x = f.from_surd_numerators(p, 1, q)
    return _from_vectors(f, [(x.den, 0), x.nums], x.den)


def _cycle_walk(f: NumberField, p0: int, q0: int):
    """(p_k, q_k, (U_k, V_k)) for the reduced roots x_k = (p_k + sqrt(disc))/q_k
    of the cycle through the reduced root (p0, q0), in forward order from
    it, with J_k = gamma_k^{-1} J_0 for the ideals J_k = Z + Z x_k and
    gamma_k = x_0 ... x_{k-1} = (U_k + V_k sqrt(disc))/q0 (cf_cycle)."""
    return [(p, q, (u, v)) for p, q, u, v in cf_cycle(p0, q0, f.disc)[:-1]]


def reduced_cycle(f: NumberField, start: FractionalIdeal):
    """The cycle of reduced ideals through `start` (ValueError unless it is
    reduced), as a list of (ideal, gamma) with ideal = gamma^{-1} * start.

    Forward steps take the reduced root x_k of each ideal Z + Z x_k to the
    root of the next, Z + Z/x_k, and gamma is the product of the x_k so
    far: the integer (p, q) walk that the class registry takes too, with
    each root's ideal built at the end."""
    if not _real_quadratic(f):
        raise ValueError("reduced cycles exist for real quadratic fields only")
    root = _reduced_root(f, start)
    if root is None:
        raise ValueError("ideal is not reduced: 1 is not a primitive minimal element")
    q0 = root[1]
    return [(start if k == 0 else _root_ideal(f, p, q),
             f.from_surd_numerators(u, v, q0))
            for k, (p, q, (u, v)) in enumerate(_cycle_walk(f, *root))]


# The class registry of a real quadratic field maps each reduced root
# (p, q) that a walk has reached to (tag, 1/gamma): J(p, q) = gamma^{-1}
# rep(tag), with J(p, q) = Z + Z (p + sqrt(disc))/q and 1/gamma as integer
# surd numerators (X, Y, r), 1/gamma = (X + Y sqrt(disc))/r, r > 0.
# The principal cycle (rep O, tag "principal") is walked when the registry
# is made; classify_components walks one more cycle per new class, whose
# representative is its ideal of least key(). A walk's start fixes the
# gammas of its class up to units, so classes are entered in census order
# only: principal_generator reads the registry, sharing the principal walk.

def _class_registry(f: NumberField) -> dict:
    reg = f._cache.get("class_registry")
    if reg is None:
        reg = f._cache["class_registry"] = {}
        _register_cycle(f, reg, _reduced_root(f, unit_ideal(f)), "principal")
    return reg


def _register_cycle(f: NumberField, reg: dict, root: tuple[int, int], tag: str | None = None):
    """Enter the cycle through the reduced root under `tag`, or, for None,
    under the key of its least ideal, the only ideals the registry builds:
    J_k = gamma_k^{-1} J_0 and rep = gamma_rep^{-1} J_0 give
    J_k = (gamma_rep / gamma_k) rep. Every gamma is a numerator pair over
    the root's q0, so gamma_rep / gamma_k = (R + S sqrt(disc))(U - V sqrt(disc))
    / (U^2 - V^2 disc) for gamma_rep = (R + S sqrt(disc))/q0 and
    gamma_k = (U + V sqrt(disc))/q0, taken to lowest terms."""
    disc = f.disc
    walk = _cycle_walk(f, *root)
    rep_r, rep_s = root[1], 0  # gamma_rep = 1
    if tag is None:
        key, (rep_r, rep_s) = min(((_root_ideal(f, p, q).key(), gam) for p, q, gam in walk),
                                  key=lambda kg: kg[0])
        tag = "cls" + ":".join(str(x) for x in key)
    for p, q, (u, v) in walk:
        x, y, r = rep_r * u - rep_s * v * disc, rep_s * u - rep_r * v, u * u - v * v * disc
        g = gcd(x, y, r) * (1 if r > 0 else -1)
        reg[(p, q)] = (tag, (x // g, y // g, r // g))


def _class_of(f: NumberField, ideal: FractionalIdeal,
              register: bool) -> tuple[str | None, tuple[int, int, int] | None]:
    """(tag, gen) with ideal = gen * rep(tag) and gen = (A + B sqrt(disc))/m
    as the integers (A, B, m), m > 0, for a fractional ideal of a real
    quadratic field: the reduced root of its box minimum g is looked up in
    the class registry, and gen = g / gamma, one product of numerators. A
    root that no walk has reached has its cycle entered when `register` is
    set; otherwise (None, None) is returned."""
    reg = _class_registry(f)
    p, q, (a, b, m) = _box_walk(f, ideal)
    if (p, q) not in reg:
        if not register:
            return None, None
        _register_cycle(f, reg, (p, q))
    tag, (x, y, r) = reg[(p, q)]
    gen = (a * x + b * y * f.disc, a * y + b * x, m * r)
    g = gcd(*gen)
    return tag, tuple(c // g for c in gen)


def to_reduced(f: NumberField, q: FractionalIdeal) -> tuple[FractionalIdeal, FieldElement]:
    """(J, g) with Q = g·J and 1 minimal in J.

    g is the minimal element that minimal_element_bounded picks in the box
    of d(Q). Real quadratic fields reach it by the integer continued-
    fraction walk of _box_walk instead of enumerating the box, and build J
    from the reduced root (p + sqrt(disc))/q that the walk ends on, as
    Z + Z (p + sqrt(disc))/q; that (p, q) is also J's key in the class
    registry."""
    if _real_quadratic(f):
        p, d, g = _box_walk(f, q)
        return _root_ideal(f, p, d), f.from_surd_numerators(*g)
    g = minimal_element_bounded(f, q, divisor_d(q).u)
    return scale_ideal(q, g.inverse()), g


def _box_walk(f: NumberField, q: FractionalIdeal) -> tuple[int, int, tuple[int, int, int]]:
    """(p, d, g): the g that minimal_element_bounded(f, Q, d(Q).u) picks, as
    integer surd numerators (A, B, m) of (A + B sqrt(disc))/m, without the
    box enumeration, and the reduced root (p + sqrt(disc))/d of
    J = g^{-1} Q.

    Q = r(Z + Z x) with r Q's rational generator. The continued fraction
    x -> 1/(x - floor x) walks Z + Z x = y (Z + Z/y), y = x - floor x, to a
    reduced root, so r·prod(y) is a minimum of Q. The minima of Q inside
    the closed box of d(Q) are a consecutive run of the chain of minima,
    where |sigma_0| grows and |sigma_1| shrinks; one step along the chain
    multiplies by x (forward) or by x - floor x (backward). The run is
    collected and its least T2, then least canonical coordinates, picked,
    exactly as the box enumeration does.

    Every state keeps Q = g (Z + Z x), so g lies in Q, whose surd pairs lie
    in Z^2 / (2 den(Q)): g is carried as the integer numerators (A, B) of
    (A + B sqrt(disc)) / (2 den(Q)), and a step's product is divided
    exactly."""
    disc, s = f.disc, isqrt(f.disc)
    tn, td, sgn = f._surd_data()  # w = (tn/td + sgn sqrt(disc))/2 (surd_numerators)
    m = 2 * q.den
    side = _box_side(f)
    # (u sigma(g))^2 <= side^2 at both places, for u = man 2^exp the exact
    # binary value of d(Q)'s weight and sigma(g) = (A +- B sqrt(disc))/m,
    # cleared of m^2 and the denominators of u^2 and side^2
    man, exp = _equal_weight_man_exp(f, q.norm())
    wk = (man * side.denominator) ** 2 << max(0, 2 * exp)
    lim = (side.numerator * m) ** 2 << max(0, -2 * exp)

    def in_box(state, place: int) -> bool:
        _, _, a, b = state
        return sign_surd_sq(a, b, disc, wk, lim, place) <= 0

    def step(state, forward: bool):
        """The next (p, d, A, B) for x = (p + sqrt(disc))/d: g times x
        (forward) or times x - floor x = (-p' + sqrt(disc))/d (backward),
        that is g times (k + sqrt(disc))/d."""
        p, d, a, b = state
        p1, d1 = (cf_forward if forward else cf_backward)(p, d, disc, s)
        k = p if forward else -p1
        a1, ra = divmod(a * k + b * disc, d)
        b1, rb = divmod(a + b * k, d)
        if ra or rb:
            raise RuntimeError("a continued-fraction step left the ideal")
        return p1, d1, a1, b1

    # Q = r (Z + Z x): r = h00/den = 2 h00 / m, x = (h01 + h11 w)/h00
    state = (*_hnf_root(f, q.hnf), 2 * q.hnf[0][0], 0)
    for _ in cf_steps("continued fraction failed to reach a reduced root"):
        if cf_is_reduced(state[0], state[1], s):
            break
        state = step(state, False)
    # walk onto the run of minima inside the box
    for _ in cf_steps("no minimum of the ideal lies in the box of d(Q)"):
        if not in_box(state, 0):
            state = step(state, False)
        elif not in_box(state, 1):
            state = step(state, True)
        else:
            break
    # backward steps shrink |sigma_0| and grow |sigma_1|; forward the reverse
    run = [state]
    for forward, place in ((False, 1), (True, 0)):
        nxt = step(state, forward)
        while in_box(nxt, place):
            run.append(nxt)
            nxt = step(nxt, forward)
    # T2 = 2 (A^2 + B^2 disc) / m^2; the canonical sign decides T2 ties only,
    # on the basis coordinates of (A + B sqrt(disc))/m, which are
    # (A - sgn B t, 2 sgn B) / m (from_surd_numerators): compared times
    # td m > 0, they are integers
    t2 = min(a * a + b * b * disc for _, _, a, b in run)
    picks = []
    for p, d, a, b in run:
        if a * a + b * b * disc == t2:
            key = (td * a - sgn * b * tn, 2 * td * sgn * b)
            e = 1 if _canonical_sign(key) == key else -1
            picks.append((_canonical_sign(key), p, d, e * a, e * b))
    _, p, d, a, b = min(picks)
    return p, d, (a, b, m)


def principal_generator(f: NumberField, q: FractionalIdeal,
                        units: UnitLattice | None = None) -> FieldElement | None:
    """A generator of Q when Q is principal, else None.

    Real quadratic fields look the reduced root of Q's box minimum up in
    the class registry, whose principal cycle is complete: Q is principal
    exactly when the root lies on it. The walk takes O(R) cycle steps, where
    the box below would hold about 4 eps / sqrt(disc) points.

    Every other field walks the closed box of Q with
    |sigma(g)| <= N(Q)^(1/n) exp(rho_sigma) at each place, where
    rho_sigma = 1/2 sum_i |log|sigma(u_i)|| over the units, that is
    N(Q)^(1/n) prod_i max(|sigma(u_i)|, |sigma(u_i)|^-1)^(1/2), and returns
    its first point g with |N(g)| = N(Q): g lies in Q and (g) has Q's norm,
    so (g) = Q, exactly. A generator of a principal Q always lies in the
    box, so an empty walk proves Q non-principal. For a generator g, the
    vector log|sigma(g)| - log N(Q)/n has degree-weighted sum 0; units of
    any finite index span that hyperplane, so it is sum_i t_i
    log|sigma(u_i)|, and the generator g prod u_i^-round(t_i) has the
    coefficients t_i - round(t_i), each at most 1/2 in absolute value,
    which puts its log|sigma| within rho_sigma of log N(Q)/n. In unit rank
    0 rho is 0 and the box is the disc |sigma(g)|^2 <= N(Q), on which every
    generator lies. The bounds are taken at the field precision and widened
    by a relative 2^(-prec/2) (units._slack_bits), far above their rounding.

    In unit rank > 0 the units are required (UnitsUnavailable without).
    """
    if _real_quadratic(f):
        tag, gen = _class_of(f, q, register=False)
        return f.from_surd_numerators(*gen) if tag == "principal" else None
    gens = () if units is None else units.generators
    if len(gens) != f.r1 + f.r2 - 1:
        raise UnitsUnavailable("unit lattice required for fields of unit rank > 0")
    m = q.norm()
    with mp.workprec(f.prec):
        side = fraction_to_mpf(m, f.prec) ** (mpf(1) / f.n)
        bounds = [side * (1 + mp.ldexp(1, -_slack_bits(f.prec)))] * f.num_places
        for u in gens:
            for p, v in enumerate(f.embed(u).abs().values):
                bounds[p] *= mp.sqrt(max(v, 1 / v))
    for _, _, g in _box_points(f, q, None, bounds, strict=False):
        if abs(g.norm()) == m:
            return g
    return None


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
    g = principal_generator(f, multiply(d1.ideal, invert(d2.ideal)), units)
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
    return LogLattice(gens).closest_norm(ArchVector(vals, f.degs, prec).log())


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
