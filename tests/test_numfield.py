import hashlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

from arakelov.exact import cf_floor, int_det, int_solve
from arakelov.ideals import ideal_from_generators, unit_ideal
from arakelov.lattice import enumerate_box, is_minimal
from arakelov.numfield import (
    MAX_PREC,
    ArchVector,
    FieldConstructionError,
    NumberField,
    PrecisionExhausted,
    _escalate,
    _iv_mul,
    _iv_sq,
    _ratio_mpf,
    create_field,
    embed,
    fraction_to_mpf,
    mpf_mantissas,
    mpf_to_fraction,
    norm_trace,
    partial_f,
)
from oracles import _int_det, _inv, interval_horner, oracle_embed

small_rationals = st.fractions(
    min_value=Fraction(-8), max_value=Fraction(8), max_denominator=6
)


def test_create_field_q7():
    f = create_field([-7, 0, 1])
    assert (f.n, f.r1, f.r2) == (2, 2, 0)
    assert f.disc == 28  # trace-form determinant of {1, sqrt7}


def test_create_field_q73_canonical_basis():
    f = create_field([-73, 0, 1])
    assert f.disc == 73
    assert f.basis[1] == (Fraction(1, 2), Fraction(1, 2))  # 73 = 1 mod 4


def test_create_field_gaussian():
    f = create_field([1, 0, 1])
    assert (f.r1, f.r2, f.disc) == (0, 1, -4)


def test_create_field_rejects_bad_inputs():
    with pytest.raises(FieldConstructionError):
        create_field([1, 2, 1])  # (x+1)^2
    with pytest.raises(FieldConstructionError):
        create_field([-4, 0, 1])  # x^2 - 4
    with pytest.raises(FieldConstructionError):
        create_field([1, 0, 2])  # not monic
    with pytest.raises(FieldConstructionError):
        create_field([-7, 0, 1], integral_basis=[[2, 0], [0, 1]])
    with pytest.raises(FieldConstructionError):
        create_field([-7, 0, 1], integral_basis=[[1, 0], [2, 0]])  # singular
    with pytest.raises(FieldConstructionError):
        # spans a module that is not a ring
        create_field([-7, 0, 1],
                     integral_basis=[[1, 0], [Fraction(1, 3), Fraction(1, 3)]])


def test_create_field_precision_bounds():
    """prec outside 1..MAX_PREC is a ValueError: from prec <= 0 the
    precision policy would double 0, or a negative value, forever. Both
    ends are accepted, and a comparison at prec 1 escalates and returns."""
    for prec in (0, -5, MAX_PREC + 1):
        with pytest.raises(ValueError, match="precision"):
            create_field([-2, 0, 0, 1], prec=prec)
    assert create_field([-2, 0, 0, 1], prec=MAX_PREC).prec == MAX_PREC
    f = create_field([-2, 0, 0, 1], prec=1)
    assert f.cmp_abs_sq(f.gen() - f.one(), 0, Fraction(1, 3)) == -1


def test_int_solve_against_the_oracles():
    """exact.int_solve gives (det, X) with a X = det rhs on integers: det is
    the oracle's cofactor determinant, and X is det times the oracle's
    Fraction inverse times rhs. Seeded matrices up to 5 x 5 with up to three
    right-hand sides, zero leading pivots and negative determinants; a
    singular matrix, at the first pivot or a later one, gives (0, None).
    int_det is the same determinant."""
    rng = random.Random(3333)
    cases = [([[0, 1], [1, 0]], [[2], [3]]),  # zero leading pivot, det -1
             ([[0, 0, 2], [0, 3, 1], [5, 1, 1]], [[1, 0], [0, 1], [4, -7]]),
             ([[1, 2], [2, 4]], [[1], [1]]),  # singular at the second pivot
             ([[0, 1], [0, 2]], [[1], [0]]),  # singular at the first
             ([[1, 1, 1], [1, 1, 2], [2, 2, 3]], [[0], [0], [1]]),
             ([[-4]], [[6]])]
    for _ in range(150):
        n, k = rng.randint(1, 5), rng.randint(0, 3)
        a = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.3:
            a[0][0] = 0
        cases.append((a, [[rng.randint(-20, 20) for _ in range(k)] for _ in range(n)]))
    signs = set()
    for a, rhs in cases:
        det, x = int_solve(a, rhs)
        assert det == _int_det(a) == int_det(a)
        signs.add((det > 0) - (det < 0))
        if det == 0:
            assert x is None
            continue
        n = len(a)
        inv = _inv([[Fraction(v) for v in row] for row in a])
        assert all(type(v) is int for row in x for v in row)
        assert x == [[det * sum(inv[i][j] * rhs[j][c] for j in range(n))
                      for c in range(len(rhs[0]))] for i in range(n)]
    assert signs == {-1, 0, 1}


def test_create_field_builds_the_structure_once(monkeypatch):
    """create_field builds one NumberField: the n^2 products of basis
    elements behind the structure constants are reduced once each."""
    import arakelov.numfield as numfield_module

    inner = numfield_module.NumberField._poly_mod
    calls = []

    def count(self, coeffs):
        calls.append(coeffs)
        return inner(self, coeffs)

    monkeypatch.setattr(numfield_module.NumberField, "_poly_mod", count)
    for min_poly, basis in _ARITH_FIELDS:
        calls.clear()
        f = create_field(min_poly, basis)
        assert len(calls) == f.n ** 2 and f.disc


def test_basis_is_integer_rows_over_one_denominator(f73, f_cubic):
    """The order basis is held as integer rows over one positive denominator
    in lowest terms; basis is the same rows as Fractions."""
    twice = create_field([-2, 0, 0, 1], [[1, 0, 0], [0, 2, 0], [0, 0, 2]])
    assert (twice.basis_nums, twice.basis_den) == (((1, 0, 0), (0, 2, 0), (0, 0, 2)), 1)
    for f in (f73, f_cubic, twice):
        assert f.basis_den > 0 and math.gcd(f.basis_den, *(v for r in f.basis_nums for v in r)) == 1
        assert f.basis == tuple(tuple(Fraction(v, f.basis_den) for v in r) for r in f.basis_nums)
    assert (f73.basis_nums, f73.basis_den) == (((2, 0), (1, 1)), 2)


def test_partial_constant_values(f7, fi, f73):
    assert abs(float(partial_f(f7)) - math.sqrt(28)) < 1e-12
    assert abs(float(partial_f(fi)) - 4 / math.pi) < 1e-12
    assert abs(float(partial_f(f73)) - math.sqrt(73)) < 1e-12


def test_embed_one_is_all_ones(f7):
    v = embed(f7, f7.one())
    assert all(abs(float(x) - 1) < 1e-30 for x in v.values)
    assert abs(float(v.norm()) - math.sqrt(2)) < 1e-30


def test_embed_alpha_q7(f7):
    alpha = f7.element([Fraction(1, 4), Fraction(1, 4)])
    v = embed(f7, alpha)
    assert abs(float(v.values[0]) - 0.9114378277661477) < 1e-12
    assert abs(float(v.values[1]) + 0.4114378277661477) < 1e-12
    # alpha is a length-one vector, exactly
    assert f7.cmp_abs_sq(alpha * alpha + f7.conjugate(alpha) * f7.conjugate(alpha),
                         0, Fraction(1)) == 0 or abs(float(v.norm()) - 1) < 1e-35


def test_embed_survives_cancellation():
    """The 30-digit fundamental unit of Q(sqrt10007): at 144 working bits its
    small embedding cancels to 0; it must come back nonzero and accurate."""
    from arakelov.units import quadratic_units

    f = create_field([-10007, 0, 1])
    eps = quadratic_units(f).generators[0]
    assert eps.coords[0] > 10 ** 29
    v = embed(f, eps)
    assert all(x != 0 for x in v.values)
    with mp.workprec(f.prec + 16):
        assert abs(abs(v.values[0] * v.values[1]) - 1) <= mp.mpf(2) ** -f.prec
    assert abs(eps.norm()) == 1


@pytest.mark.parametrize("min_poly", [pytest.param([-73, 0, 1], id="73"),
                                      pytest.param([-18, -1, 1], id="x2-x-18"),
                                      pytest.param([-45, 0, 1], id="x2-45")])
def test_real_quadratic_embed_far_from_cancellation(min_poly):
    """Real quadratic embeddings of huge units, their inverses and seeded
    elements of mixed sign, against a + b sqrt(disc) evaluated directly
    with four times the coordinates' bits: each value within 2^-prec of it,
    relatively. eps^300 in Q(sqrt 73) has 3,318-bit coordinates and a
    conjugate near 1e-999, which cancels in any Horner evaluation."""
    from arakelov.units import quadratic_units

    f = create_field(min_poly)
    eps = quadratic_units(f).generators[0]
    rng = random.Random(7)
    xs = [eps ** k for k in (1, 40, 300, -300)]
    xs += [f.element([Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 9))
                      for _ in range(2)]) for _ in range(20)]
    for x in xs:
        m, ((a, b),) = f.surd_numerators([x])
        a, b = Fraction(a, m), Fraction(b, m)
        bits = 4 * max(q.numerator.bit_length() + q.denominator.bit_length() for q in (a, b))
        values = f.embed(x).values
        with mp.workprec(bits + f.prec):
            am, bm = mpf(a.numerator) / a.denominator, mpf(b.numerator) / b.denominator
            root = mp.sqrt(f.disc)
            for v, want in zip(values, (am + bm * root, am - bm * root)):
                assert abs(v - want) <= abs(want) * mpf(2) ** -f.prec


def test_embed_q73_unit_power_300(f73):
    """Horner on eps^300 cancelled past the precision cap and raised."""
    from arakelov.units import quadratic_units

    eps = quadratic_units(f73).generators[0]
    big, small = f73.embed(eps ** 300).values
    assert mp.nstr(big, 3) == "7.59e+998" and mp.nstr(small, 3) == "1.32e-999"


def test_embed_gaussian_i(fi):
    v = embed(fi, fi.element([0, 1]))
    assert abs(float(v.norm_sq()) - 2) < 1e-30  # degree-weighted


def test_norm_trace_examples(f7):
    assert norm_trace(f7, f7.one()) == (1, 2)
    assert norm_trace(f7, f7.element([8, 3])) == (1, 16)
    alpha = f7.element([Fraction(1, 4), Fraction(1, 4)])
    assert norm_trace(f7, alpha) == (Fraction(-3, 8), Fraction(1, 2))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(a=small_rationals, b=small_rationals, c=small_rationals, d=small_rationals)
def test_embed_multiplicative(a, b, c, d):
    f = create_field([-7, 0, 1])
    x = f.element([a, b])
    y = f.element([c, d])
    vx, vy = embed(f, x), embed(f, y)
    vxy = embed(f, x * y)
    with mp.workprec(200):
        two_way = [p * q for p, q in zip(vx.values, vy.values)]
        n1 = float(sum(t * t for t in two_way)) ** 0.5
        n2 = float(vxy.norm())
    if n2 > 0:
        assert abs(n1 - n2) <= 1e-12 * max(1.0, n2)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(a=small_rationals, b=small_rationals, c=small_rationals)
def test_norm_product_and_agm_cubic(a, b, c):
    f = create_field([-2, 0, 0, 1])
    x = f.element([a, b, c])
    if x.is_zero():
        return
    n, _ = norm_trace(f, x)
    v = embed(f, x)
    prod = 1.0
    for val, deg in zip(v.values, v.degs):
        prod *= abs(complex(val)) ** deg
    assert abs(prod - abs(float(n))) <= 1e-10 * max(1.0, prod)
    # arithmetic-geometric mean bound
    assert abs(float(n)) <= (f.n ** (-f.n / 2)) * float(v.norm()) ** f.n + 1e-9


@settings(max_examples=30, deadline=None, derandomize=True)
@given(a=small_rationals, b=small_rationals)
def test_log_exp_roundtrip(a, b):
    f = create_field([-7, 0, 1])
    x = f.element([a, b])
    if x.is_zero():
        return
    mags = embed(f, x).abs()
    back = mags.log().exp()
    for p, q in zip(mags.values, back.values):
        assert abs(float(p) - float(q)) <= 1e-30 * max(1.0, abs(float(p)))


def test_certified_comparisons_boundary(f7):
    alpha = f7.element([Fraction(1, 4), Fraction(1, 4)])
    assert f7.cmp_abs_sq(alpha, 0, Fraction(1)) == -1
    assert f7.cmp_abs_sq(alpha, 1, Fraction(1)) == -1
    assert f7.cmp_abs_sq(f7.one(), 0, Fraction(1)) == 0


def test_certified_comparisons_root_of_unity(fi):
    i = fi.element([0, 1])
    assert fi.cmp_abs_sq(i, 0, Fraction(1)) == 0  # |i| = 1 exactly


def test_cubic_interval_comparisons(f_cubic):
    th = f_cubic.gen()
    assert f_cubic.cmp_abs_sq(th, 0, Fraction(1)) == 1   # 2^(2/3) > 1
    assert f_cubic.cmp_abs_sq(th, 0, Fraction(2)) == -1
    assert f_cubic.cmp_abs_sq(th * th * th, 0, Fraction(4)) == 0  # theta^3 = 2


def test_escalate_doubles_until_decided():
    tried = []

    def attempt(prec):
        tried.append(prec)
        return 0 if prec >= 512 else None  # a falsy result still decides

    assert _escalate(attempt, 128, "never") == 0
    assert tried == [128, 256, 512]
    tried.clear()
    with pytest.raises(PrecisionExhausted, match="^undecided$"):
        _escalate(lambda p: tried.append(p), 128, "undecided")
    assert tried == [128, 256, 512, 1024, 2048, 4096]


@pytest.fixture()
def interval_precisions(monkeypatch):
    """The precision of every certified interval embedding, in call order."""
    seen = []
    inner = NumberField.embed_interval

    def record(self, x, place, prec, **kw):
        seen.append(prec)
        return inner(self, x, place, prec, **kw)

    monkeypatch.setattr(NumberField, "embed_interval", record)
    return seen


def test_certified_signs_escalate_near_cube_root_of_two(f_cubic, interval_precisions):
    # q is within 2^-300 of 2^(1/3): 128-bit root intervals cannot separate them
    with mp.workprec(400):
        q = Fraction(int(mp.nint(mp.cbrt(2) * 2 ** 300)), 2 ** 300)
    with mp.workprec(2000):
        want = int(mp.sign(mp.cbrt(2) - mpf(q.numerator) / q.denominator))
    assert want != 0
    th = f_cubic.gen()
    cases = [
        (lambda: f_cubic.sign_at_place(th - f_cubic.rational(q), 0), [128, 256]),
        # no power of theta + 1 up to the 30th is rational: the precision doubles
        (lambda: f_cubic.cmp_abs_sq(th + f_cubic.one(), 0, (q + 1) ** 2), [128, 256]),
        # theta^3 = 2 decides exactly at the start precision: 4 against q^6
        (lambda: f_cubic.cmp_abs_sq(th, 0, q * q), [128]),
    ]
    for decide, precisions in cases:
        interval_precisions.clear()
        assert decide() == want
        assert interval_precisions == precisions


def test_root_of_unity_tie_after_undecided_interval(interval_precisions):
    f = create_field([1, 0, 0, 0, 1])  # Q(zeta_8), two complex places
    zeta = f.gen()
    for place in range(f.num_places):
        interval_precisions.clear()
        assert f.cmp_abs_sq(zeta, place, Fraction(1)) == 0
        # the 128-bit interval overlaps 1, zeta^4 = -1 settles it there
        assert interval_precisions == [128]
    # the eight roots of unity fill the closed unit box and miss the open one
    one = unit_ideal(f)
    closed = enumerate_box(f, one, None, [1, 1], strict=False)
    assert sorted(tuple(g.coords) for g in closed) == sorted(
        tuple((s * zeta ** k).coords) for s in (1, -1) for k in range(4))
    assert enumerate_box(f, one, None, [1, 1], strict=True) == []
    # x = 2 + zeta has norm 17, so it is no unit; its eight multiples by
    # roots of unity tie with zeta x at every place and are not smaller
    x = f.rational(2) + zeta
    assert is_minimal(f, ideal_from_generators(f, [x]), zeta * x)


def test_rational_square_tie_after_undecided_interval(f_cubic, interval_precisions):
    three = f_cubic.rational(3)
    for t, scale_sq in ((Fraction(9), Fraction(1)), (Fraction(9, 4), Fraction(1, 4)),
                        (Fraction(36), Fraction(4))):
        interval_precisions.clear()
        assert f_cubic.cmp_abs_sq(three, 0, t, scale_sq) == 0
        assert interval_precisions == [128]


@pytest.fixture()
def field_products(monkeypatch):
    """The number of FieldElement products, the exact tie test's arithmetic."""
    from arakelov.numfield import FieldElement

    calls = [0]
    inner = FieldElement.__mul__

    def record(self, other):
        calls[0] += 1
        return inner(self, other)

    monkeypatch.setattr(FieldElement, "__mul__", record)
    return calls


def test_separated_comparisons_skip_tie_certificates(f_cubic, field_products):
    th = f_cubic.gen()
    x, y = th * 2, th * th  # built before counting starts
    field_products[0] = 0
    for place in range(f_cubic.num_places):
        assert f_cubic.cmp_abs_sq(th, place, Fraction(1)) == 1
        assert f_cubic.cmp_abs_sq(y, place, Fraction(4)) == -1
        assert f_cubic.cmp_abs_sq(x, place, Fraction(100)) == -1
        assert f_cubic.cmp_abs_sq(th, place, Fraction(1), Fraction(1, 4)) == -1
    assert field_products[0] == 0


def test_exact_tie_at_complex_place_exhausts_precision(interval_precisions):
    # Salem field: theta has |sigma| = 1 at the complex place, and no power
    # of theta is rational, so no interval and no exact test settles it
    f = create_field([1, -1, -1, -1, 1])
    assert (f.r1, f.r2) == (2, 1)
    with pytest.raises(PrecisionExhausted, match="bound at place 2"):
        f.cmp_abs_sq(f.gen(), 2, Fraction(1))
    assert interval_precisions == [128, 256, 512, 1024, 2048, 4096]


def test_complex_place_ties_on_the_box_boundary(f_cubic):
    # |sigma(+-2)| = 2 at both places of x^3 - 2, the complex one included
    one = unit_ideal(f_cubic)
    two = f_cubic.rational(2)
    for strict in (False, True):
        box = enumerate_box(f_cubic, one, None, [2, 2], strict=strict)
        assert f_cubic.one() in box and -f_cubic.one() in box
        assert (two in box, -two in box) == (not strict, not strict)


def test_float_box_bounds_taken_exactly(f_cubic):
    one = unit_ideal(f_cubic)
    want = enumerate_box(f_cubic, one, None, [Fraction(5, 2)] * 2)
    assert enumerate_box(f_cubic, one, None, [2.5, 2.5]) == want
    assert len(want) > 2


def test_conjugation(f7):
    x = f7.element([8, 3])
    assert f7.conjugate(x).coords == (Fraction(8), Fraction(-3))
    assert f7.conjugate(f7.conjugate(x)) == x


def test_sign_at_complex_place_raises(fi, f_cubic):
    for f, place in ((fi, 0), (f_cubic, 1)):
        with pytest.raises(ValueError):
            f.sign_at_place(f.gen(), place)


def test_places_outside_the_field_raise(f73, fi, f_cubic):
    """A place outside range(num_places) is a ValueError in every degree:
    in Q(sqrt 73) place 2 read as place 1 with the sign flipped, and on
    x^3 - 2 place 2 was an IndexError."""
    x = f73.element([3, 1])
    for f, y in ((f73, x), (fi, fi.gen()), (f_cubic, f_cubic.gen())):
        for place in (-1, f.num_places, 7):
            with pytest.raises(ValueError, match="outside range"):
                f.cmp_abs_sq(y, place, Fraction(10 ** 6))
            with pytest.raises(ValueError, match="outside range"):
                f.sign_at_place(y, place)
    assert [f73.sign_at_place(x, p) for p in range(2)] == [1, -1]
    assert [f73.cmp_abs_sq(x, p, Fraction(10 ** 6)) for p in range(2)] == [-1, -1]


def test_surd_numerators_only_in_quadratic_fields(f_cubic):
    """Outside quadratic fields there are no surd pairs: surd_numerators,
    from_surd_numerators and conjugate name that, rather than failing to
    unpack."""
    for call in (lambda: f_cubic.surd_numerators([f_cubic.gen()]),
                 lambda: f_cubic.from_surd_numerators(1, 1, 1),
                 lambda: f_cubic.conjugate(f_cubic.gen())):
        with pytest.raises(ValueError, match="surd pairs exist only for quadratic fields"):
            call()


def test_quartic_field_constructs():
    f = create_field([1, 0, 0, 0, 1])  # x^4 + 1, needs the full factor test
    assert (f.r1, f.r2) == (0, 2)
    assert f.disc == 256


def test_archvector_ops(f7):
    v = ArchVector.constant(1, f7.degs, f7.prec)
    assert abs(float(v.mul(v).norm_sq()) - 2) < 1e-30
    w = embed(f7, f7.element([1, 1])).abs()
    assert abs(float(w.mul(w.inv()).norm_sq()) - 2) < 1e-30


@pytest.mark.parametrize("min_poly", [[-2, 0, 0, 1], [-3, -1, 0, 1], [1, 0, 0, 0, 1]])
def test_embed_interval_matches_rational_horner(min_poly):
    """The integer Horner of embed_interval gives exactly the rectangle of
    Horner over rational intervals, at every place and two precisions: its
    numerator rectangle over den is that rational rectangle."""
    f = create_field(min_poly)
    rng = random.Random(17)
    elems = [f.one(), f.gen(), f.gen() ** (f.n - 1)]
    elems += [f.element([Fraction(rng.randint(-40, 40), rng.randint(1, 12))
                         for _ in range(f.n)]) for _ in range(12)]
    for prec in (128, 256):
        for place, (kind, v, rad) in enumerate(f.places_mpf(prec)):
            parts = [v] if kind == "R" else [v.real, v.imag]
            ivs = [(mpf_to_fraction(p) - rad, mpf_to_fraction(p) + rad) for p in parts]
            for x in elems:
                den, *rect = f.embed_interval(x, place, prec)
                got = tuple(None if iv is None else (Fraction(iv[0], den), Fraction(iv[1], den))
                            for iv in rect)
                assert got == interval_horner(f.to_power(x.coords), ivs)


@pytest.mark.parametrize("min_poly", [[-2, 0, 0, 1], [-3, -1, 0, 1],
                                      [1, 0, 0, 0, 1], [-1, -1, 0, 0, 1]])
def test_embed_within_prec_of_oracle(min_poly):
    """Every value of embed is within 2^-prec of sigma(x), relatively, at
    mpmath roots with enough bits to absorb any cancellation; in x^3 - 2
    also for units eps^(+-200), whose coordinates cancel to about 580 bits
    at one place, and theta - q with q within 2^-300 of 2^(1/3). Zero
    embeds to exactly 0."""
    f = create_field(min_poly)
    rng = random.Random(41)
    th = f.gen()
    elems = [f.one(), th, th ** (f.n - 1), -th + f.rational(Fraction(1, 3))]
    elems += [f.element([Fraction(rng.randint(-40, 40), rng.randint(1, 12))
                         for _ in range(f.n)]) for _ in range(10)]
    if min_poly == [-2, 0, 0, 1]:
        eps = th * th + th + f.one()  # a unit: (theta - 1) eps = theta^3 - 1 = 1
        with mp.workprec(400):
            q = Fraction(int(mp.nint(mp.cbrt(2) * 2 ** 300)), 2 ** 300)
        elems += [eps ** 200, eps ** -200, th - f.rational(q)]
    for prec in (128, 256):
        assert all(v == 0 for v in f.embed(f.zero(), prec).values)
        for x in elems:
            want = oracle_embed(min_poly, f.to_power(x.coords), prec)
            got = f.embed(x, prec).values
            with mp.workprec(4 * prec):
                for g, w in zip(got, want):
                    assert type(g) is type(w)
                    assert abs(g - w) <= abs(w) * mpf(2) ** -prec


@pytest.mark.parametrize("min_poly", [[1, 0, 1], [5, 0, 1], [1, 1, 1]])
def test_imaginary_quadratic_embed_is_exact(min_poly):
    """sigma(c0 + c1 theta) = a + i b sqrt|disc| at the one place, theta its
    root of positive imaginary part: a = c0 - c1 p1/2 and b sqrt|disc| =
    c1 sqrt(4 p0 - p1^2)/2 for theta^2 + p1 theta + p0. Each part is one
    product, so it comes out rounded to prec + 16 bits, and a part that is
    zero is exactly 0."""
    f = create_field(min_poly)
    p0, p1 = min_poly[0], min_poly[1]
    rng = random.Random(p0 + p1)
    elems = [f.one(), f.gen(), f.rational(Fraction(-7, 3)), f.zero()]
    elems += [f.element([Fraction(rng.randint(-40, 40), rng.randint(1, 12))
                         for _ in range(2)]) for _ in range(12)]
    for prec in (128, 256):
        for x in elems:
            c0, c1 = f.to_power(x.coords)
            (got,) = f.embed(x, prec).values
            re = c0 - c1 * Fraction(p1, 2)
            assert (got.real == 0) == (re == 0) and (got.imag == 0) == (c1 == 0)
            assert abs(mpf_to_fraction(got.real) - re) <= abs(re) / 2 ** (prec + 15)
            with mp.workprec(4 * prec):
                im = mpf(c1.numerator) / c1.denominator * mp.sqrt(4 * p0 - p1 * p1) / 2
                assert abs(got.imag - im) <= abs(im) * mpf(2) ** -(prec + 15)


@pytest.mark.parametrize("x", [mp.inf, -mp.inf, mp.nan])
def test_mpf_to_fraction_refuses_non_finite(x):
    with pytest.raises(ValueError):
        mpf_to_fraction(x)


def test_surd_floor_matches_isqrt():
    """cf_floor((p + sqrt(disc))/q) against exact sign tests, for both
    signs of q and disc up to about 10^34, where a float square root is
    wrong: m is the floor when m <= x < m + 1, and c < x is decided by
    the sign of c q - p against sqrt(disc), squared."""
    def below(c, p, q, disc):  # c < (p + sqrt(disc))/q
        t = c * q - p
        if q > 0:
            return t < 0 or t * t < disc
        return t > 0 and t * t > disc

    rng = random.Random(29)
    for k in range(600):
        disc = rng.randint(2, 10 ** (3 if k % 3 == 0 else 12 if k % 3 == 1 else 34))
        if math.isqrt(disc) ** 2 == disc:
            disc += 1
        s = math.isqrt(disc)
        q = rng.choice([-1, 1]) * rng.randint(1, 10 ** rng.choice([1, 6, 20]))
        p = rng.randint(-10 ** 18, 10 ** 18)
        m = cf_floor(p, q, s)
        assert below(m, p, q, disc) and not below(m + 1, p, q, disc)
    # a float square root misplaces the floor here
    disc = (10 ** 17 + 3) ** 2 - 1
    assert cf_floor(0, 1, math.isqrt(disc)) == 10 ** 17 + 2 != math.floor(math.sqrt(disc))


MANTISSAS = [1, 3, -5, 12345678901234567, -(2 ** 80 + 1), 2 ** 100]
EXPONENTS = [0, 7, 200, -1, -9, -300]


def test_mpf_to_fraction_is_exact():
    """man 2^exp exactly, for either sign of the mantissa, exp >= 0 and
    exp < 0, and zero; the value is checked against Fraction powers of 2."""
    with mp.workprec(256):
        for man in MANTISSAS:
            for exp in EXPONENTS:
                want = Fraction(man) * Fraction(2) ** exp
                assert mpf_to_fraction(mpf((man, exp))) == want
                assert mpf_to_fraction(-mpf((man, exp))) == -want
        assert mpf_to_fraction(mpf(0)) == 0
        assert mpf_to_fraction(-mpf(0)) == 0
        assert mpf_to_fraction(mpf(0.1)) == Fraction(0.1)  # a double, exactly


def test_mpf_mantissas_share_the_least_power_of_two():
    """nums / 2^s is each value exactly, and s is the least such: zero, or
    some numerator is odd. An infinity or NaN is a ValueError."""
    with mp.workprec(256):
        rng = random.Random(26)
        for _ in range(50):
            xs = [mpf((rng.choice(MANTISSAS), rng.choice(EXPONENTS)))
                  for _ in range(rng.randint(1, 4))] + [mpf(0)] * rng.randint(0, 1)
            nums, s = mpf_mantissas(xs)
            assert [Fraction(x, 2 ** s) for x in nums] == [mpf_to_fraction(x) for x in xs]
            assert s == 0 or any(x % 2 for x in nums)
        assert mpf_mantissas([mpf(0), mpf(6)]) == ([0, 6], 0)
        for bad in (mp.inf, -mp.inf, mp.nan):
            with pytest.raises(ValueError):
                mpf_mantissas([mpf(1), bad])


def test_fraction_to_mpf_is_the_rounded_quotient():
    """fraction_to_mpf(q, prec) has the bits of mpf(q.numerator) /
    q.denominator at prec: seeded rationals of either sign, numerators from
    one bit to far longer than the precision, at 53 to 300 bits and at
    MAX_PREC."""
    rng = random.Random(29)
    precs = [53, 64, 96, 128, 160, 200, 300, MAX_PREC]
    for _ in range(3000):
        num = rng.getrandbits(rng.choice([1, 8, 60, 200, 400, 5000])) * rng.choice([-1, 1])
        den = rng.getrandbits(rng.choice([1, 8, 60, 200, 400])) + 1
        q = Fraction(num, den)
        prec = rng.choice(precs)
        with mp.workprec(prec):
            want = mpf(q.numerator) / q.denominator
        assert fraction_to_mpf(q, prec)._mpf_ == want._mpf_, (q, prec)
        k = rng.getrandbits(rng.choice([2, 70])) + 2  # the same value in other terms
        assert _ratio_mpf(k * q.numerator, k * q.denominator, prec) == want._mpf_, (q, k, prec)


@pytest.mark.parametrize("min_poly,basis", [
    ([-73, 0, 1], None), ([1, 0, 1], None), ([-2, 0, 0, 1], None),
    ([-3, -1, 0, 1], None), ([-1, -1, 0, 0, 1], None),
    ([-2, 0, 0, 1], [[1, 0, 0], [0, 2, 0], [0, 0, 2]]),
])
def test_inverse_times_element_is_one(min_poly, basis):
    """x x^-1 = 1 for seeded elements with coordinates of mixed sizes and
    zeros, in orders of degree 2 to 4 (Z + 2 Z[cbrt 2] included)."""
    f = create_field(min_poly, basis)
    rng = random.Random(29 + len(min_poly))
    for _ in range(150):
        coords = [Fraction(rng.randint(-10 ** rng.randint(0, 15), 10 ** rng.randint(0, 15)),
                           rng.randint(1, 10 ** rng.randint(0, 8))) for _ in range(f.n)]
        if rng.random() < 0.3:
            coords[rng.randrange(f.n)] = Fraction(0)
        x = f.element(coords)
        if x.is_zero():
            continue
        assert x * x.inverse() == f.one(), coords


def _context_embedding(f, x, prec):
    """sigma(x) of a real quadratic x by mpmath context arithmetic: at
    prec + 32 bits, a + sb sqrt(disc) at the place without cancellation and
    the norm over it at the other, then both rounded to prec + 16 bits."""
    m, ((a, b),) = f.surd_numerators([x])
    a, b = Fraction(a, m), Fraction(b, m)
    with mp.workprec(prec + 32):
        if a == 0 and b == 0:
            vals = (mpf(0), mpf(0))
        else:
            big_place = 0 if a * b >= 0 else 1
            sb = b if big_place == 0 else -b
            nrm = a * a - b * b * f.disc
            big = (mpf(a.numerator) / a.denominator
                   + mpf(sb.numerator) / sb.denominator * mp.sqrt(f.disc))
            small = mpf(nrm.numerator) / nrm.denominator / big
            vals = (big, small) if big_place == 0 else (small, big)
    with mp.workprec(prec + 16):
        return tuple((+v)._mpf_ for v in vals)


@pytest.mark.parametrize("min_poly", [[-73, 0, 1], [-10007, 0, 1], [-7, 0, 1]])
def test_real_surd_embedding_matches_context_arithmetic(min_poly):
    """The libmp embedding has the bits of mpmath context arithmetic, for
    any terms of (a + b sqrt(disc)) / m: seeded pairs with numerators from
    a few bits to far past the working precision, zero included, at 64 and
    200 bits, the pair as given, times a common factor and through embed."""
    f = create_field(min_poly)
    rng = random.Random(len(str(min_poly)))
    for k in range(300):
        a, b = (rng.getrandbits(rng.choice([4, 60, 300])) * rng.choice([-1, 1])
                for _ in range(2))
        if k % 50 == 0:
            a, b = (0, 0) if k % 100 == 0 else (a, 0)
        m = rng.getrandbits(rng.choice([2, 40, 200])) + 1
        c = rng.getrandbits(rng.choice([3, 90])) + 2
        x = f.from_surd_numerators(a, b, m)
        for prec in (64, 200):
            want = _context_embedding(f, x, prec)
            assert f._real_surd_embedding(a, b, m, prec) == want
            assert f._real_surd_embedding(c * a, c * b, c * m, prec) == want
            assert tuple(v._mpf_ for v in f.embed(x, prec).values) == want


def test_oracles_import_nothing_from_the_library():
    """tests/oracles.py is the independent route of every dual-route check:
    it may not import the library, at any level of its code."""
    import ast
    from pathlib import Path

    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [node.module or "" for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.level == 0]
    assert imported and not [m for m in imported if m.split(".")[0] == "arakelov"]
    assert not [node for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level > 0]
    calls = {getattr(node.func, "id", getattr(node.func, "attr", None))
             for node in ast.walk(tree) if isinstance(node, ast.Call)}
    assert not calls & {"__import__", "import_module"}


_ARITH_FIELDS = [([-73, 0, 1], None), ([1, 0, 1], None), ([-2, 0, 0, 1], None),
                 ([-3, -1, 0, 1], None), ([-1, -1, 0, 0, 1], None),
                 ([-2, 0, 0, 1], [[1, 0, 0], [0, 2, 0], [0, 0, 2]])]
ARITH_DIGEST = "7a25cdd30efe6e456791d393950290b6371b80b3791e61185250c68fe55dbd2c"


def _qs(xs) -> list[tuple[int, int]]:
    return [(Fraction(x).numerator, Fraction(x).denominator) for x in xs]


def test_element_arithmetic_pinned():
    """+, -, *, / and inverse (their coords in lowest terms), norm, trace,
    to_power, embed_interval at 128 bits, cmp_abs_sq signs (rational ties
    included) and ideal membership, on seeded elements of orders of degree
    2 to 4, hash to the pinned digest: how an element is represented moves
    no value."""
    from arakelov.ideals import contains
    from conftest import random_fractional_ideal

    h = hashlib.sha256()
    rng = random.Random(3232)
    for min_poly, basis in _ARITH_FIELDS:
        f = create_field(min_poly, basis)
        xs = [f.element([Fraction(rng.randint(-60, 60), rng.randint(1, 12))
                         for _ in range(f.n)]) for _ in range(25)]
        xs += [f.element([Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                          for _ in range(f.n)]) for _ in range(15)]
        xs += [f.rational(Fraction(rng.randint(-9, 9), rng.randint(1, 4))) for _ in range(5)]
        ideals = [random_fractional_ideal(f, rng, 10) for _ in range(3)]
        xs += [b for i in ideals for b in i.basis_elements()]
        for x, y in zip(xs, xs[1:] + xs[:1]):
            outs = [x + y, x - y, x * y, -x, x * Fraction(-3, 7)]
            if not y.is_zero():
                outs += [x / y, y.inverse()]
            h.update(repr([_qs(z.coords) for z in outs]).encode())
            h.update(repr(_qs([x.norm(), x.trace()] + list(f.to_power(x.coords)))).encode())
            scale = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            for place in range(f.num_places):
                h.update(repr(f.embed_interval(x, place, 128)).encode())
                t = (scale * x.coords[0] ** 2 if x.is_rational()
                     else Fraction(rng.randint(0, 400), rng.randint(1, 20)))
                h.update(repr(f.cmp_abs_sq(x, place, t, scale)).encode())
            h.update(repr([contains(i, x) for i in ideals]).encode())
    assert h.hexdigest() == ARITH_DIGEST


_STRUCTURE_FIELDS = _ARITH_FIELDS + [([1, -3, 0, 1], None)]
STRUCTURE_DIGEST = "53fb3b7def295f954f6a44b84af2f2d1d3d38bc2c1ca4c45048b59256b98b880"


def test_field_structure_pinned():
    """The order's structure on Q(sqrt73), Q(i), x^3 - 2, x^3 - x - 3,
    x^4 - x - 1, Z + 2Z cbrt2 + 2Z cbrt4 and x^3 - 3x + 1: basis,
    mult_table, trace_form, disc, gen, from_power of the unit vectors, the
    basis denominator and irregular modulus, and the unit log lattice's
    projection and closest norms on fixed targets (rank 1 over Q(sqrt73),
    rank 2 over x^3 - 3x + 1 with the units theta, theta - 1), hash to the
    pinned digest: how the order basis is held moves no value."""
    from arakelov.ideals import _basis_denominator, _irregular_modulus
    from arakelov.numfield import LogVector
    from arakelov.units import LogLattice, quadratic_units, unit_lattice_from_elements

    h = hashlib.sha256()
    for min_poly, basis in _STRUCTURE_FIELDS:
        f = create_field(min_poly, basis)
        h.update(repr([_qs(row) for row in f.basis]).encode())
        h.update(repr([f.mult_table(), f.trace_form(), f.disc, _qs(f.gen().coords)]).encode())
        h.update(repr([_qs(f.from_power([int(k == j) for k in range(f.n)]))
                       for j in range(f.n)]).encode())
        h.update(repr([_basis_denominator(f), _irregular_modulus(f)]).encode())
        if f.n == 2 and f.r1 == 2:
            units = quadratic_units(f)
        elif f.min_poly == (1, -3, 0, 1):
            theta = f.gen()
            units = unit_lattice_from_elements(f, [theta, theta - f.one()])
        else:
            continue
        lattice = LogLattice(units.log_embeddings())
        h.update(repr([[v._mpf_ for v in row] for row in lattice._proj]).encode())
        for k in range(6):
            vals = tuple(fraction_to_mpf(Fraction(7 * k - 3 * p - 5, 4 + p), f.prec)
                         for p in range(f.num_places))
            h.update(repr(lattice.closest_norm(LogVector(vals, f.degs, f.prec))._mpf_).encode())
    assert h.hexdigest() == STRUCTURE_DIGEST


def _canonical(x) -> bool:
    return x.den > 0 and math.gcd(x.den, *x.nums) == 1


def test_elements_are_canonical_records(f7, f73, f_cubic):
    """Every constructor path gives integer numerators over one positive
    denominator in lowest terms, so equal elements are equal records."""
    from arakelov.numfield import FieldElement

    x = f7.element([1, 1])  # N(x) = -6: Bareiss ends on the negative pivot -6
    inv = x.inverse()
    assert (inv.nums, inv.den) == ((-1, 1), 6) and x * inv == f7.one()
    y = f73.from_surd_numerators(3, -5, 4)  # b < 0
    assert f73.surd_numerators([y]) == (4, [(3, -5)])
    for v, want in ((f_cubic.rational(Fraction(6, -4)), ((-3, 0, 0), 2)),
                    (f_cubic.element([Fraction(2, 4), Fraction(-6, 8), "10/15"]), ((6, -9, 8), 12)),
                    (FieldElement(f7, (2, 4), -6), ((-1, -2), 3)),
                    (x - x, ((0, 0), 1))):
        assert (v.nums, v.den) == want
    rng = random.Random(32)
    for f in (f7, f73, f_cubic):
        xs = [f.element([Fraction(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(f.n)])
              for _ in range(20)]
        xs += [f.one(), f.zero(), f.gen(), f.rational(Fraction(-7, 3))]
        for a, b in zip(xs, xs[1:]):
            outs = [a, a + b, a - b, a * b, -a, a * 3, a * Fraction(-2, 9), a / Fraction(-4, 6),
                    a - a]
            if not b.is_zero():
                outs += [a / b, b.inverse()]
            assert all(_canonical(v) for v in outs), (a, b)
            for v in outs:
                again = f.element(v.coords)
                assert again == v and hash(again) == hash(v)
    assert all(_canonical(b) for b in ideal_from_generators(f73, [y, f73.gen()]).basis_elements())
    assert _canonical(y) and _canonical(f73.conjugate(y))
    with pytest.raises(ZeroDivisionError):
        FieldElement(f7, (1, 0), 0)


def test_integer_paths_build_no_fraction(monkeypatch, f73, fi, f_cubic):
    """With the caches warm, element arithmetic, the surd numerators,
    embed_interval, lattice combinations, ideal bases, membership and
    ideal generators construct no Fraction in numfield, lattice or ideals."""
    import arakelov.ideals as ideals_module
    import arakelov.lattice as lattice_module
    import arakelov.numfield as numfield_module
    from arakelov.ideals import contains

    fields = (f73, fi, f_cubic, create_field([-3, -1, 0, 1]),
              create_field([-2, 0, 0, 1], [[1, 0, 0], [0, 2, 0], [0, 0, 2]]))
    rng = random.Random(33)
    cases = []
    for f in fields:
        x, y = (f.element([Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(f.n)])
                for _ in range(2))
        cases.append((f, x, y, ideal_from_generators(f, [x, f.rational(2)])))

    def run():
        for f, x, y, ideal in cases:
            (x + y, x - y, x * y, -x, y.inverse(), x * 3, contains(ideal, x * y))
            if f.n == 2:
                f.surd_numerators([x, y])
            for place in range(f.num_places):
                f.embed_interval(x, place, f.prec)
            basis = ideal.basis_elements()
            lattice_module._combinations(f, basis, [tuple(range(1, f.n + 1))])
            ideal_from_generators(f, [x, y] + basis)

    run()  # warm the per-field caches
    built = []

    def counting(*args):
        built.append(args)
        return Fraction(*args)

    for module in (numfield_module, lattice_module, ideals_module):
        monkeypatch.setattr(module, "Fraction", counting)
    run()
    assert built == []


def test_trace_form_is_an_integer_matrix(f7, f73, fi, f_cubic):
    for f in (f7, f73, fi, f_cubic, create_field([-2, 0, 0, 1], [[1, 0, 0], [0, 2, 0], [0, 0, 2]])):
        tf = f.trace_form()
        assert all(type(v) is int for row in tf for v in row)
        assert _int_det(tf) == f.disc
        assert [f.element([int(i == j) for i in range(f.n)]).trace() for j in range(f.n)] == tf[0]


_ENDPOINT = st.one_of(st.integers(-3, 3), st.integers(-(1 << 300), 1 << 300))


@settings(max_examples=400, deadline=None)
@given(_ENDPOINT, _ENDPOINT, _ENDPOINT, _ENDPOINT)
def test_iv_mul_is_the_four_product_hull(a0, a1, b0, b1):
    """_iv_mul is the least and the largest of the four endpoint products
    for every sign pattern, zero endpoints and point intervals included."""
    a, b = (min(a0, a1), max(a0, a1)), (min(b0, b1), max(b0, b1))
    ps = [x * y for x in a for y in b]
    assert _iv_mul(a, b) == (min(ps), max(ps))
    assert _iv_mul(b, a) == _iv_mul(a, b)


def test_iv_mul_sign_cases_and_iv_sq():
    """Every pair of sign patterns (nonnegative, nonpositive, straddling,
    zero-ended, point and zero intervals) gives the four-product hull;
    _iv_sq keeps its tighter (0, max) for an interval that straddles 0."""
    ivs = [(2, 5), (0, 5), (-5, -2), (-5, 0), (-3, 4), (-4, 3), (0, 0), (3, 3), (-3, -3)]
    for a in ivs:
        for b in ivs:
            ps = [x * y for x in a for y in b]
            assert _iv_mul(a, b) == (min(ps), max(ps))
    assert _iv_sq((-3, 4)) == (0, 16) and _iv_mul((-3, 4), (-3, 4)) == (-12, 16)
    assert _iv_sq((2, 5)) == _iv_mul((2, 5), (2, 5))
    assert _iv_sq((-5, -2)) == _iv_mul((-5, -2), (-5, -2))
