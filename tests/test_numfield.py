import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

from arakelov.exact import cf_floor
from arakelov.ideals import ideal_from_generators, unit_ideal
from arakelov.lattice import enumerate_box, is_minimal
from arakelov.numfield import (
    ArchVector,
    FieldConstructionError,
    NumberField,
    PrecisionExhausted,
    _escalate,
    create_field,
    embed,
    mpf_to_fraction,
    norm_trace,
    partial_f,
)
from oracles import interval_horner, oracle_embed

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
        a, b = f.surd(x)
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
