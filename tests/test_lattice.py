import gc
import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

import arakelov.lattice as lattice_module
import arakelov.units as units_module
from arakelov.divisors import divisor_d
from arakelov.exact import sign_surd_sq
from arakelov.ideals import (
    PlainLattice,
    _sublattices_of_index,
    enumerate_integral_ideals,
    ideal_from_generators,
    invert,
    unit_ideal,
)
from arakelov.lattice import (
    _ENUM_SLACK,
    GramMatrix,
    _box_side,
    _canonical_sign,
    _ellipsoid_gram,
    _fincke_pohst,
    _fincke_pohst_row,
    _fine_gram,
    _gram,
    _int_entries,
    _int_gram_schmidt,
    _both_signs,
    _box_points,
    _int_half,
    _ldl_int,
    _lll_core,
    _send,
    _u_weights,
    covolume_check,
    enumerate_box,
    enumerate_quadratic_form,
    gram_of,
    hermite_power,
    is_minimal,
    lll_reduce,
    minimal_element_bounded,
    shortest_vector,
)
from arakelov.numfield import ArchVector, LogVector, create_field, mpf_to_fraction
from arakelov.units import LogLattice, quadratic_units, unit_lattice_from_elements
from conftest import random_degree_zero_divisor, random_fractional_ideal
from oracles import (
    brute_box,
    brute_is_minimal,
    brute_is_minimal_poly,
    brute_minimal_pick,
    brute_qform_points,
    brute_shortest_sq,
    _int_det,
    _inv,
    fraction_gram_schmidt,
    fraction_lll,
    interval_gram,
    rounded_certificate,
)


def plain_alpha_lattice(f7):
    alpha = f7.element([Fraction(1, 4), Fraction(1, 4)])
    return PlainLattice(f7, (f7.one(), alpha)), alpha


def test_gram_examples(f7, fi):
    g = gram_of(fi, unit_ideal(fi))
    assert g.entries == ((Fraction(2), Fraction(0)), (Fraction(0), Fraction(2)))
    g7 = gram_of(f7, unit_ideal(f7))
    assert g7.entries == ((Fraction(2), Fraction(0)), (Fraction(0), Fraction(14)))
    lat, _ = plain_alpha_lattice(f7)
    gl = gram_of(f7, lat)
    assert gl.entries[1][1] == 1  # the alpha direction has length one
    assert gl.err == 0


def test_lll_identity(fi):
    u, red = lll_reduce(gram_of(fi, unit_ideal(fi)))
    assert u == [[1, 0], [0, 1]]


def test_lll_alpha_lattice(f7):
    lat, _ = plain_alpha_lattice(f7)
    _, red = lll_reduce(gram_of(f7, lat))
    assert red.entries[0][0] == 1  # first reduced vector has length 1


def test_lll_reduced_gram_carries_reduced_basis(f7):
    lat, _ = plain_alpha_lattice(f7)
    u, red = lll_reduce(gram_of(f7, lat))
    assert u != [[1, 0], [0, 1]]  # LLL does change this basis
    assert red.refine().entries == red.entries
    assert red.source == tuple(
        sum((c * b for c, b in zip(row, lat.basis_elements())), f7.zero()) for row in u
    )


def test_ellipsoid_gram_refines_with_its_weights(f73, f_cubic):
    w = [Fraction(1 << 12), Fraction(1, 1 << 12)]  # both fields have two places
    for f in (f73, f_cubic):
        g = _ellipsoid_gram(f, unit_ideal(f), w, [Fraction(3), Fraction(3)])
        fine = g.refine()
        assert g.err > 0 and fine.err < g.err
        for row, frow in zip(g.entries, fine.entries):
            for x, y in zip(row, frow):
                assert abs(x - y) <= g.err + fine.err


def test_gram_refuses_an_infinite_weight(f73, f_cubic):
    # f_cubic's second place is complex, so its entry is an mpc
    for f, values in ((f73, (mpf(1), mp.inf)), (f_cubic, (mpf(1), mp.mpc(mp.inf, 1)))):
        with pytest.raises(ValueError):
            gram_of(f, unit_ideal(f), ArchVector(values, f.degs, f.prec))


def test_refine_keeps_a_gram_without_field():
    g = GramMatrix.from_entries([[2, 1], [1, 3]])
    assert g.refine() == g


@pytest.mark.parametrize("t", [8, 15, 20, 25])
def test_lll_reduced_error_bounds_its_entries(f73, t):
    # the reduced entries are U G U^T of the source midpoints; a rebuild of
    # the reduced basis at 8x the precision must lie within both errors
    with mp.workprec(f73.prec):
        u = ArchVector((mp.exp(t), mp.exp(-t)), f73.degs, f73.prec)
    _, red = lll_reduce(gram_of(f73, unit_ideal(f73), u))
    fine = _gram(f73, red.source, red.weights, 8 * red.prec)
    for row, frow in zip(red.entries, fine.entries):
        for x, y in zip(row, frow):
            assert abs(x - y) <= red.err + fine.err


def _det2(u):
    return u[0][0] * u[1][1] - u[0][1] * u[1][0]


def test_lll_random_integer_grams_against_bruteforce():
    rng = random.Random(23)
    for _ in range(40):
        while True:
            a = [[rng.randint(-9, 9) for _ in range(2)] for _ in range(2)]
            if _det2(a) != 0:
                break
        g = [[sum(a[k][i] * a[k][j] for k in range(2)) for j in range(2)]
             for i in range(2)]
        gram = GramMatrix.from_entries(g)
        u, red = lll_reduce(gram)
        assert abs(_det2(u)) == 1  # transform stays unimodular
        lam = brute_shortest_sq(g)
        assert red.entries[0][0] <= 2 * lam  # within the LLL factor for n=2


def test_shortest_vector_examples(f7, fi):
    sv = shortest_vector(gram_of(fi, unit_ideal(fi)))
    assert sv.length_sq == 2  # |1| (or |i|) in the weighted metric
    lat, alpha = plain_alpha_lattice(f7)
    sv2 = shortest_vector(gram_of(f7, lat))
    assert sv2.length_sq == 1
    assert sv2.element in (alpha, -alpha)


def test_shortest_vector_oracle_rank2_rank3():
    rng = random.Random(99)
    fields = [create_field([-7, 0, 1]), create_field([-2, 0, 0, 1])]
    for f in fields:
        pool = enumerate_integral_ideals(f, 12)
        for _ in range(10):
            ideal = rng.choice(pool)
            gram = gram_of(f, ideal)
            sv = shortest_vector(gram)
            lam = brute_shortest_sq([list(r) for r in gram.entries])
            if gram.err == 0:
                assert sv.length_sq == lam
            else:
                assert abs(float(sv.length_sq - lam)) < 1e-20


def test_shortest_canonical_tie_break(fi):
    sv = shortest_vector(gram_of(fi, unit_ideal(fi)))
    assert sv.coeffs == (0, 1)  # lexicographically smallest positive-leading


def test_enumerate_box_norm_argument(f7):
    out = enumerate_box(f7, unit_ideal(f7), None,
                        [Fraction(1, 2), Fraction(1, 2)], strict=True)
    assert out == []  # |N(g)| >= 1 forces some embedding >= 1


def test_enumerate_box_unit_box(f7):
    out = enumerate_box(f7, unit_ideal(f7), None,
                        [Fraction(3, 2), Fraction(3, 2)], strict=True)
    assert sorted(tuple(g.coords) for g in out) == [(-1, 0), (1, 0)]


def test_enumerate_box_alpha(f7):
    lat, alpha = plain_alpha_lattice(f7)
    out = enumerate_box(f7, lat, None, [Fraction(1), Fraction(1)], strict=True)
    assert len(out) == 2 and all(g in (alpha, -alpha) for g in out)
    closed = enumerate_box(f7, lat, None, [Fraction(1), Fraction(1)], strict=False)
    assert f7.one() in closed  # boundary point admitted without strictness


def test_is_minimal_examples(f7):
    assert is_minimal(f7, unit_ideal(f7), f7.one())
    lat, alpha = plain_alpha_lattice(f7)
    assert is_minimal(f7, lat, alpha)
    assert not is_minimal(f7, unit_ideal(f7), f7.rational(2))
    with pytest.raises(ValueError):
        is_minimal(f7, unit_ideal(f7), alpha)  # not a lattice member
    with pytest.raises(ValueError):
        is_minimal(f7, unit_ideal(f7), f7.zero())


def test_minimal_element_bounded_trivial(f7):
    u = ArchVector.constant(1, f7.degs, f7.prec)
    assert minimal_element_bounded(f7, unit_ideal(f7), u) == f7.one()


def test_minimal_element_bounded_twisted(f73):
    with mp.workprec(f73.prec):
        u = ArchVector((mp.exp(-2), mp.exp(2)), f73.degs, f73.prec)
    g = minimal_element_bounded(f73, unit_ideal(f73), u)
    assert is_minimal(f73, unit_ideal(f73), g)
    bound = float(f73.partial_constant()) ** 0.5
    v = f73.embed(g).abs()
    assert float(u.values[0] * v.values[0]) <= bound * (1 + 1e-12)
    assert float(u.values[1] * v.values[1]) <= bound * (1 + 1e-12)


def test_minimal_element_bounded_fractional(f7):
    third = ideal_from_generators(f7, [f7.rational(Fraction(1, 3))])
    with mp.workprec(f7.prec):
        u = ArchVector((mpf(3), mpf(3)), f7.degs, f7.prec)  # degree-zero pair
    g = minimal_element_bounded(f7, third, u)
    assert is_minimal(f7, third, g)
    bound = float(f7.partial_constant()) ** 0.5
    v = f7.embed(g).abs()
    assert all(3 * float(x) <= bound * (1 + 1e-12) for x in v.values)


@pytest.mark.parametrize("min_poly", [[-2, 0, 0, 1], [-3, -1, 0, 1]])
def test_minimal_element_bounded_matches_brute_pick(min_poly):
    """The pick on every ideal of norm <= 10, twisted by e^(2t), e^(-t)."""
    f = create_field(min_poly)
    assert all(b == tuple(int(i == j) for j in range(f.n))  # power basis
               for i, b in enumerate(f.basis))
    side = _box_side(f)
    for ideal in enumerate_integral_ideals(f, 10):
        basis = [f.to_power(b.coords) for b in ideal.basis_elements()]
        with mp.workprec(f.prec):
            s = mpf(int(ideal.norm())) ** (-mpf(1) / 3)
        for t in (-2, -1, 0, 1, 2):
            with mp.workprec(f.prec):
                u = ArchVector((s * mp.exp(2 * t), s * mp.exp(-t)), f.degs, f.prec)
            got = minimal_element_bounded(f, ideal, u)
            want = brute_minimal_pick(min_poly, basis, u.values, side)
            assert tuple(f.to_power(got.coords)) == want, (ideal.key(), t)


def _is_minimal_against_oracle(f, cases):
    """is_minimal against brute_is_minimal_poly on (lattice, element) pairs,
    each element once up to sign; returns the set of verdicts."""
    verdicts = set()
    seen = set()
    for lattice, g in cases:
        key = (lattice.key(), _canonical_sign(g.coords))
        if key in seen:
            continue
        seen.add(key)
        basis = [f.to_power(b.coords) for b in lattice.basis_elements()]
        want = brute_is_minimal_poly(f.min_poly, basis, f.to_power(g.coords))
        assert is_minimal(f, lattice, g) == want, key
        verdicts.add(want)
    return verdicts


@pytest.mark.parametrize("min_poly", [[-2, 0, 0, 1], [-3, -1, 0, 1]])
def test_is_minimal_matches_oracle_on_cubics(min_poly):
    """1 and theta in O, and every point of the box of d(I) for each ideal
    of norm <= 10: the certified interval path against the oracle."""
    f = create_field(min_poly)
    one = unit_ideal(f)
    cases = [(one, f.one()), (one, f.gen())]
    side = [_box_side(f)] * f.num_places
    for ideal in enumerate_integral_ideals(f, 10):
        u = divisor_d(ideal).u
        cases += [(ideal, g) for g in enumerate_box(f, ideal, u, side, strict=False)]
    assert _is_minimal_against_oracle(f, cases) == {True, False}


def test_is_minimal_matches_oracle_on_root_of_unity_ties():
    """x^4 + 1: multiples of roots of unity tie at both complex places."""
    f = create_field([1, 0, 0, 0, 1])
    zeta, one, two = f.gen(), f.one(), f.rational(2)
    x = two + zeta  # norm 17
    o, xo = unit_ideal(f), ideal_from_generators(f, [x])
    cases = [(o, g) for g in (one, zeta, one + zeta, zeta + zeta * zeta,
                              one + zeta * zeta, two)]
    cases += [(xo, zeta ** k * x) for k in range(4)]
    cases += [(xo, x * g) for g in (one + zeta, two, one + zeta * zeta)]
    assert _is_minimal_against_oracle(f, cases) == {True, False}


def _whole_box_pick(f, ideal, u):
    """The pick by the rule of minimal_element_bounded over the whole closed
    box list, nothing sent: the least (value, canonical coordinates)."""
    side = [_box_side(f)] * f.num_places
    points = list(_box_points(f, ideal, u, side, strict=False))
    return min((value, _canonical_sign(g.coords)) for value, _, g in points)


def _assert_pick_is_the_whole_box_pick(f, ideal, u):
    _, coords = _whole_box_pick(f, ideal, u)
    assert minimal_element_bounded(f, ideal, u) == f.element(coords), ideal.key()


@pytest.mark.parametrize("d", [73, 1009])
def test_branch_and_bound_pick_is_the_whole_box_pick_real_quadratic(d):
    """Seeded twists (I, u) with |t| <= 8: the pick that sends each box
    point's value back to the walk is the pick over the whole box list."""
    f = create_field([-d, 0, 1])
    rng = random.Random(24 + d)
    for _ in range(8):
        divisor = random_degree_zero_divisor(f, rng, spread=8.0)
        _assert_pick_is_the_whole_box_pick(f, divisor.ideal, divisor.u)


@pytest.mark.parametrize("min_poly", [[-2, 0, 0, 1], [-3, -1, 0, 1]])
def test_branch_and_bound_pick_is_the_whole_box_pick_cubic(min_poly):
    """Ideals of norm <= 10 twisted by (s e^(2t), s e^(-t)), seeded
    |t| <= 2, on inexact interval Grams."""
    f = create_field(min_poly)
    rng = random.Random(24)
    for ideal in enumerate_integral_ideals(f, 10):
        t = rng.uniform(-2, 2)
        with mp.workprec(f.prec):
            s = mpf(int(ideal.norm())) ** (-mpf(1) / 3)
            u = ArchVector((s * mp.exp(2 * t), s * mp.exp(-t)), f.degs, f.prec)
        _assert_pick_is_the_whole_box_pick(f, ideal, u)


def test_branch_and_bound_pick_keeps_value_ties(fi):
    """d(O) in Q(i): +-1 and +-i share T2, so the pick is decided by the
    coordinates among points of equal value, all of which still come out."""
    ideal = unit_ideal(fi)
    u = divisor_d(ideal).u
    side = [_box_side(fi)] * fi.num_places
    points = list(_box_points(fi, ideal, u, side, strict=False))
    least = min(value for value, _, _ in points)
    assert len({_canonical_sign(g.coords) for value, _, g in points if value == least}) == 2
    _assert_pick_is_the_whole_box_pick(fi, ideal, u)


def test_is_minimal_stops_at_its_first_box_point(f73, monkeypatch):
    """5 is not minimal in O of Q(sqrt 73): is_minimal values the walk's
    candidates only up to the first one inside the box below 5, not the
    whole ellipsoid."""
    five = f73.rational(5)
    scaled = [b * five.inverse() for b in unit_ideal(f73).basis_elements()]
    ones = [1] * f73.num_places
    first = next(_box_points(f73, scaled, None, ones, strict=True))
    radius = Fraction(f73.n) * (1 + _ENUM_SLACK)
    gram = _fine_gram(_ellipsoid_gram(f73, scaled, _u_weights(f73, None), ones), radius)
    d, l = _ldl_int(*_int_entries(gram.entries))
    candidates = [x for _, x in _fincke_pohst(_unit_levels(d), l, None, radius)]
    want = candidates.index(first[1]) + 1
    assert want < len(candidates)
    valued = []
    element_of = lattice_module._element_of

    def spy(g, coeffs):
        valued.append(coeffs)
        return element_of(g, coeffs)

    monkeypatch.setattr(lattice_module, "_element_of", spy)
    assert not is_minimal(f73, unit_ideal(f73), five)
    assert valued == candidates[:want]


def test_minimal_element_bounded_rejects_bad_degree(f7):
    with mp.workprec(f7.prec):
        u = ArchVector((mpf(2), mpf(2)), f7.degs, f7.prec)
    with pytest.raises(ValueError):
        minimal_element_bounded(f7, unit_ideal(f7), u)


def test_covolume_examples(f7, fi):
    d0 = divisor_d(unit_ideal(f7))
    a, b = covolume_check(f7, d0)
    assert abs(float(a) - math.sqrt(28)) < 1e-12
    assert abs(float(a) - float(b)) < 1e-25
    alpha = f7.element([Fraction(1, 4), Fraction(1, 4)])
    di = divisor_d(ideal_from_generators(f7, [f7.one(), alpha]))
    a2, b2 = covolume_check(f7, di)
    assert abs(float(a2) - math.sqrt(28)) < 1e-10
    from arakelov.divisors import ArakelovDivisor

    with mp.workprec(fi.prec):
        u = ArchVector((mp.e,), fi.degs, fi.prec)
    dv = ArakelovDivisor(unit_ideal(fi), u)
    a3, b3 = covolume_check(fi, dv)
    assert abs(float(dv.degree()) + 2) < 1e-12  # deg = -2 log e
    assert abs(float(a3) - 2 * math.exp(2)) < 1e-9
    assert abs(float(a3) - float(b3)) < 1e-9


def test_covolume_random_divisors(f7, f73):
    rng = random.Random(41)
    for field in (f7, f73):
        for _ in range(50):
            d = random_degree_zero_divisor(field, rng)
            a, b = covolume_check(field, d)
            assert abs(float(a) - float(b)) <= 1e-9 * abs(float(b))


def test_lll_first_vector_vs_lambda1(f73):
    rng = random.Random(29)
    for _ in range(25):
        ideal = random_fractional_ideal(f73, rng)
        gram = gram_of(f73, ideal)
        _, red = lll_reduce(gram)
        lam = shortest_vector(gram).length_sq
        assert red.entries[0][0] <= 2 * lam  # 2^(n-1) factor at n = 2


def _skewed_rank4_grams(rng, count: int = 8):
    """Grams of small rank-4 bases skewed by row operations with large
    multipliers, so that rows need several size-reduction steps each."""
    grams = []
    for _ in range(count):
        a = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(4)]
        if _int_det(a) == 0:
            continue
        for _ in range(12):
            i, j = rng.sample(range(4), 2)
            c = rng.randint(-20, 20)
            a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        g = [[sum(x * y for x, y in zip(ai, aj)) for aj in a] for ai in a]
        grams.append(GramMatrix.from_entries(g))
    return grams


def _reduction_test_grams(f73, f_cubic):
    """Grams of ideals of norm <= 10 in Q(sqrt 73) and x^3 - 2, then the
    skewed rank-4 Grams, from one seeded generator."""
    rng = random.Random(61)
    grams = []
    for field in (f73, f_cubic):
        pool = enumerate_integral_ideals(field, 10)
        grams += [gram_of(field, rng.choice(pool)) for _ in range(8)]
    return grams + _skewed_rank4_grams(rng)


def test_lll_output_satisfies_reduction_conditions(f73, f_cubic):
    delta = Fraction(99, 100)
    for gram in _reduction_test_grams(f73, f_cubic):
        _, red = lll_reduce(gram)
        mu, b = fraction_gram_schmidt(red.entries)
        n = len(b)
        for i in range(n):
            for j in range(i):
                assert abs(mu[i][j]) <= Fraction(1, 2)
        for k in range(1, n):
            assert b[k] >= (delta - mu[k][k - 1] ** 2) * b[k - 1]


def test_lll_matches_fraction_oracle(f73, f_cubic):
    """The integral LLL against textbook LLL over Fractions: the same
    transform and reduced entries on the Grams of the reduction-conditions
    test and on the census Grams (inverses of integral ideals with 1
    primitive) of Q(sqrt 1009), exact, and of x^3 - x - 3, inexact."""
    grams = _reduction_test_grams(f73, f_cubic)
    # boundary cases: the Lovasz condition met with equality (99 = 99/100 *
    # 100, no swap), and mu = 1/2, which rounds up
    grams += [GramMatrix.from_entries(g) for g in ([[100, 0], [0, 99]], [[2, 1], [1, 5]])]
    for poly, bound in (([-1009, 0, 1], 60), ([-3, -1, 0, 1], 30)):
        f = create_field(poly)
        grams += [gram_of(f, invert(j)) for j in enumerate_integral_ideals(f, bound)
                  if math.gcd(*(x for row in j.hnf for x in row)) == 1]
    moved = 0
    for gram in grams:
        u, red = lll_reduce(gram)
        want_u, want_entries = fraction_lll(gram.entries)
        assert u == want_u
        assert [list(r) for r in red.entries] == want_entries
        moved += u != [[int(i == j) for j in range(gram.size)] for i in range(gram.size)]
    assert moved >= len(grams) // 2


@settings(max_examples=40, deadline=None, derandomize=True)
@given(rows=st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3),
                     min_size=3, max_size=3),
       scale=st.fractions(min_value=Fraction(1, 1000), max_value=1000,
                          max_denominator=1000))
def test_lll_transform_is_scale_invariant(rows, scale):
    """LLL decides on ratios of Gram entries: scaling the Gram by a positive
    rational leaves the transform alone and scales the reduced entries."""
    if _int_det(rows) == 0:
        return
    g = [[sum(x * y for x, y in zip(ri, rj)) for rj in rows] for ri in rows]
    u, red = lll_reduce(GramMatrix.from_entries(g))
    us, reds = lll_reduce(GramMatrix.from_entries([[scale * x for x in r] for r in g]))
    assert us == u
    assert reds.entries == tuple(tuple(scale * x for x in r) for r in red.entries)


def test_shortest_attempt_builds_one_element(monkeypatch, f73, f7, f_cubic):
    """A shortest vector builds one field element, the winner, however many
    vectors the enumeration visits: no reduced-basis element is built, and
    no _ldl_int runs. That holds for exact Grams and for the inexact Gram of
    x^3 - 2 (a complex place), whose rounded search needs no refinement."""
    calls, rows = [], []
    inner = lattice_module._element_of
    inner_comb = lattice_module._combinations

    def count(g, coeffs):
        calls.append(coeffs)
        return inner(g, coeffs)

    def count_rows(f, source, coeff_rows):
        rows.extend(coeff_rows)
        return inner_comb(f, source, coeff_rows)

    def no_ldl(cur, den):
        raise AssertionError("_ldl_int called")

    monkeypatch.setattr(lattice_module, "_element_of", count)
    monkeypatch.setattr(lattice_module, "_combinations", count_rows)
    monkeypatch.setattr(lattice_module, "_ldl_int", no_ldl)
    lat, _ = plain_alpha_lattice(f7)
    for f, lattice in ((f73, unit_ideal(f73)), (f7, lat),
                       (f73, enumerate_integral_ideals(f73, 20)[-1])):
        gram = gram_of(f, lattice)
        assert gram.err == 0
        calls.clear()
        rows.clear()
        sv = lattice_module._shortest_attempt(gram)
        assert calls == [sv.coeffs]
        assert rows == [sv.coeffs]
    gram = gram_of(f_cubic, unit_ideal(f_cubic))
    assert gram.err > 0

    def no_refine(g):
        raise AssertionError("refine called")

    monkeypatch.setattr(GramMatrix, "refine", no_refine)
    calls.clear()
    rows.clear()
    sv = lattice_module._shortest_attempt(gram)
    assert calls == [sv.coeffs]
    assert rows == [sv.coeffs]


def _int_half_values(den, d, lam, radius):
    """_int_half's walk at the rational radius, its values as Fractions."""
    radius = Fraction(radius)
    scale, half = _int_half(den, d, lam, radius.numerator, radius.denominator)
    return [(Fraction(value, scale), x) for value, x in half]


def _int_points(entries, radius):
    """_int_half on a rational Gram, from its own integral data, with both
    signs of every vector."""
    cur, den = _int_entries(entries)
    d, lam = _int_gram_schmidt(cur)
    return _both_signs(_int_half_values(den, d, lam, radius))


def _lll_radius_points(entries):
    """(reduced entries, LLL radius, _int_half at that radius on
    _lll_core's own data, with both signs of every vector)."""
    n = len(entries)
    cur, den = _int_entries(entries)
    _, cur, d, lam = _lll_core(cur)
    assert (d, lam) == _int_gram_schmidt(cur)
    reduced = tuple(tuple(Fraction(x, den) for x in row) for row in cur)
    radius = Fraction(min(cur[i][i] for i in range(n)), den)
    return reduced, radius, _both_signs(_int_half_values(den, d, lam, radius))


def _canonical_shortest(entries):
    """(lambda_1^2, least positive-leading coefficients attaining it) by the
    brute scan."""
    best = brute_shortest_sq(entries)
    minimal = [x for value, x in brute_qform_points(entries, best) if value == best]
    return best, min(x for x in minimal if next(c for c in x if c) > 0)


def _ceil_log2(q: Fraction) -> int:
    """The least c with 2^c >= q, for a positive rational q."""
    c = 0
    while Fraction(1 << c) < q:
        c += 1
    while c > 0 and Fraction(1 << (c - 1)) >= q:
        c -= 1
    return c


@pytest.mark.parametrize("min_poly", [[-2, 0, 0, 1], [-3, -1, 0, 1], [-1, -1, 0, 0, 1]])
def test_rounded_shortest_matches_midpoint_oracle(monkeypatch, min_poly):
    """On inexact Grams the lambda_1 search runs on the midpoints rounded to
    the Gram's error. On inverses of seeded integral ideals of norm <= 30,
    under unit weights (the d-form the census tests) and twisted per-place
    weights: _shortest_attempt gives the brute scan's canonical shortest
    coefficients with their exact midpoint value, its error covers the
    brute minimum of the Gram refined twice (min() of an empty scan fails
    the test), and _lll_core sees integers
    of at most ceil(log2(1/err)) + 64 bits plus the largest entry's."""
    f = create_field(min_poly)
    rng = random.Random(len(min_poly) + sum(min_poly))
    sizes = []
    inner = lattice_module._lll_core

    def spy(cur):
        sizes.append(max(abs(x).bit_length() for row in cur for x in row))
        return inner(cur)

    monkeypatch.setattr(lattice_module, "_lll_core", spy)
    for ideal in rng.sample(enumerate_integral_ideals(f, 30), 3):
        lattice = invert(ideal)
        twist = ArchVector(tuple(mpf(rng.randint(1, 9)) / rng.randint(1, 9)
                                 for _ in range(f.num_places)), f.degs, f.prec)
        for u in (None, twist):
            gram = gram_of(f, lattice, u)
            assert gram.err > 0
            sizes.clear()
            sv = lattice_module._shortest_attempt(gram)
            # the brute points at or below the reported value: their least
            # value is the reported one, and sv.coeffs the least canonical
            # vector attaining it
            points = brute_qform_points(gram.entries, sv.length_sq)
            assert min(v for v, _ in points) == sv.length_sq
            assert sv.coeffs == min(x for v, x in points
                                    if v == sv.length_sq and next(c for c in x if c) > 0)
            # the minimum of the twice refined Gram lies within the error
            finer = gram.refine().refine()
            points = brute_qform_points(finer.entries, sv.length_sq + sv.length_sq_err)
            assert min(v for v, _ in points) >= sv.length_sq - sv.length_sq_err
            top = max(abs(x) for row in gram.entries for x in row)
            assert sizes
            assert max(sizes) <= _ceil_log2(1 / gram.err) + 64 + math.ceil(top).bit_length()


def test_rounded_shortest_refines_a_coarse_gram(f73):
    """A Gram whose error is too coarse for the certified bound of the
    rounded search is refined, not searched: at 4 bits a strongly twisted
    Q(sqrt 73) Gram gives no attempt, and shortest_vector escalates to a
    result whose error covers the brute minimum at 256 bits, attained by
    the reported coefficients."""
    w = [Fraction(50), Fraction(1, 50)]
    for ideal in enumerate_integral_ideals(f73, 3):
        basis = tuple(ideal.basis_elements())
        coarse = _gram(f73, basis, w, 4)
        assert coarse.err > 0
        assert lattice_module._rounded_attempt(coarse) is None
        sv = shortest_vector(coarse)
        fine = _gram(f73, basis, w, 256)
        points = brute_qform_points(fine.entries, sv.length_sq + sv.length_sq_err)
        least = min(v for v, _ in points)
        assert least >= sv.length_sq - sv.length_sq_err
        assert sv.coeffs in {_canonical_sign(x) for v, x in points if v == least}


def test_lambda_decision_walks_each_precision_once(monkeypatch, f73):
    """One escalation loop per lambda_1 decision. The 4-bit twisted Gram of
    O in Q(sqrt 73) above is too coarse to search; with the threshold set
    to the lambda_1^2 its first search reports, that search cannot decide,
    and the decision refines on. _rounded_attempt then runs at most once
    per precision, in ascending order, until a search decides."""
    import arakelov.divisors as divisors_module

    ideal = unit_ideal(f73)
    coarse = _gram(f73, tuple(ideal.basis_elements()), [Fraction(50), Fraction(1, 50)], 4)
    assert lattice_module._rounded_attempt(coarse) is None
    threshold = shortest_vector(coarse).length_sq
    calls = []
    inner = lattice_module._rounded_attempt

    def spy(g):
        sv = inner(g)
        calls.append((g.prec, sv))
        return sv

    monkeypatch.setattr(lattice_module, "_rounded_attempt", spy)
    monkeypatch.setattr(divisors_module, "gram_of", lambda f, lattice: coarse)
    ok, sv = divisors_module._lambda_decision(f73, ideal, threshold)
    precs = [p for p, _ in calls]
    assert precs[0] == 4 and precs == sorted(set(precs))
    searched = [s for _, s in calls if s is not None]
    assert len(searched) >= 2 and searched[0].length_sq == threshold
    assert abs(sv.length_sq - threshold) > sv.length_sq_err
    assert ok == (sv.length_sq > threshold)


def test_integer_search_matches_rational_enumeration():
    """The integer search yields the (value, coeffs) list of
    enumerate_quadratic_form: at the LLL radius on the reduced Gram, and at
    other radii on the Gram as given, over seeded random rational Grams of
    rank 1-4, tie-heavy forms and a skewed one; shortest_vector agrees with
    the brute scan and keeps the canonical tie-break."""
    rng = random.Random(16)
    grams = []
    for _ in range(80):
        n = rng.randint(1, 4)
        b = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
             for _ in range(n)]
        g = [[sum(b[i][k] * b[j][k] for k in range(n)) + Fraction(int(i == j), rng.randint(1, 5))
              for j in range(n)] for i in range(n)]
        grams.append(g)
    grams += [
        [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]],  # Z[i]: 4 minima
        [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(2)]],  # hexagonal: 6 minima
        [[Fraction(2), Fraction(1), Fraction(1)], [Fraction(1), Fraction(2), Fraction(1)],
         [Fraction(1), Fraction(1), Fraction(2)]],  # A3: 12 minima
        [[Fraction(1, 97), Fraction(1, 30)], [Fraction(1, 30), Fraction(3, 2)]],  # skewed
    ]
    for g in grams:
        entries = tuple(tuple(r) for r in g)
        reduced, radius, got = _lll_radius_points(entries)
        assert got == enumerate_quadratic_form(reduced, radius)
        for scale in (Fraction(1, 2), 1, Fraction(5, 2)):
            r = scale * min(g[i][i] for i in range(len(g)))
            assert _int_points(entries, r) == enumerate_quadratic_form(entries, r)
        sv = shortest_vector(GramMatrix.from_entries(g))
        assert (sv.length_sq, sv.coeffs) == _canonical_shortest(entries)


def test_rank2_hermite_bound(f7, f73):
    rng = random.Random(31)
    for field in (f7, f73):
        for _ in range(25):
            ideal = random_fractional_ideal(field, rng)
            gram = gram_of(field, ideal)
            lam = shortest_vector(gram).length_sq
            covol = math.sqrt(float(gram.det()))
            assert float(lam) <= math.sqrt(4.0 / 3.0) * covol * (1 + 1e-12)


def _root_gram(kind: str, n: int) -> list[list[int]]:
    """Cartan matrix of the root lattice A_n, D_n or E_n. A_n is a chain of
    n nodes; D_n and E_n move the last node of that chain onto the third
    node from the far end (D_n) or from the near end (E_n)."""
    edges = [(k, k + 1) for k in range(n - 1)]
    if kind == "D":
        edges[-1] = (n - 3, n - 1)
    elif kind == "E":
        edges[-1] = (2, n - 1)
    g = [[2 * (i == j) for j in range(n)] for i in range(n)]
    for i, j in edges:
        g[i][j] = g[j][i] = -1
    return g


@pytest.mark.parametrize("kind,n,det", [("A", 1, 2), ("A", 2, 3), ("A", 3, 4), ("D", 4, 4),
                                        ("D", 5, 4), ("E", 6, 3), ("E", 7, 2), ("E", 8, 1)])
def test_hermite_table_attained_by_root_lattices(kind, n, det):
    """The lattices behind the table attain it: lambda_1^(2n) = gamma_n^n det
    (A_1 = sqrt2 Z stands in for Z). Ranks up to 4 by exhaustive search,
    the rest by shortest_vector."""
    g = _root_gram(kind, n)
    gram = GramMatrix.from_entries(g)
    assert gram.det() == det
    lam = brute_shortest_sq(g) if n <= 4 else shortest_vector(gram).length_sq
    assert lam == 2
    assert lam ** n == hermite_power(n) * det


def test_hermite_bound_on_seeded_integer_grams():
    rng = random.Random(41)
    for n in range(2, 7):
        for _ in range(12):
            while True:
                b = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
                if _int_det(b) != 0:
                    break
            g = [[sum(b[k][i] * b[k][j] for k in range(n)) for j in range(n)]
                 for i in range(n)]
            gram = GramMatrix.from_entries(g)
            lam = shortest_vector(gram).length_sq
            assert lam ** n <= hermite_power(n) * gram.det()


def test_hermite_table_within_hermites_bound():
    for n in range(1, 9):
        assert hermite_power(n) <= Fraction(4, 3) ** (n * (n - 1) // 2)
    assert hermite_power(9) == Fraction(4, 3) ** 36


@pytest.mark.parametrize("min_poly,basis", [
    ([-73, 0, 1], None), ([1, 0, 1], None), ([1, 0, 1], [[1, 0], [0, 2]]),
    ([1, -3, 0, 1], None), ([-2, 0, 0, 1], None), ([-3, -1, 0, 1], None),
    ([-2, 0, 0, 1], [[1, 0, 0], [0, 2, 0], [0, 0, 2]])])
def test_unit_gram_determinant_is_disc_times_norm_squared(min_poly, basis):
    """det G = |disc(O)| N(I)^2 for the unit-weight Gram of any ideal, in
    every signature; exactly where the Gram is exact, within the entries'
    certified error otherwise."""
    f = create_field(min_poly, basis)
    for j in enumerate_integral_ideals(f, 20)[:12]:
        for ideal in (j, invert(j)):
            gram = gram_of(f, ideal)
            want = abs(f.disc) * ideal.norm() ** 2
            if gram.err == 0:
                assert gram.det() == want
            else:
                assert abs(gram.det() / want - 1) < Fraction(1, 2 ** 100)


def test_enumerate_box_and_is_minimal_against_oracle(f73):
    """Twisted boxes u = (e^t, e^-t) in Q(sqrt 73) against the brute-force
    box oracle, strict and closed: the reduction's box (3, 3), with
    is_minimal checked on every point of it, and a box with 1 on its
    boundary at the first place."""
    def pair(g):
        return tuple(f73.to_power(g.coords))

    by_norm = {}
    for ideal in enumerate_integral_ideals(f73, 3):
        by_norm.setdefault(ideal.norm(), ideal)
    verdicts = set()
    for t in (0, 4, 8):
        u0, u1 = (float(mp.exp(t)), float(mp.exp(-t)))
        u = ArchVector((mpf(u0), mpf(u1)), f73.degs, f73.prec)
        uq = (Fraction(u0), Fraction(u1))
        for ideal in by_norm.values():
            basis = [pair(b) for b in ideal.basis_elements()]
            for bounds in ([Fraction(3), Fraction(3)], [uq[0], 40 * uq[1]]):
                bound_sq = [(b * b / (w * w), 0) for b, w in zip(bounds, uq)]
                for strict in (True, False):
                    got = enumerate_box(f73, ideal, u, bounds, strict=strict)
                    want = brute_box(73, basis, bound_sq, strict=strict)
                    assert sorted(pair(g) for g in got) == want
                    if not strict and bounds[0] == 3:
                        for g in got:
                            v = is_minimal(f73, ideal, g)
                            assert v == brute_is_minimal(73, basis, pair(g))
                            verdicts.add(v)
        # 1 sits on the boundary of the second box at the first place
        edge = [uq[0], 40 * uq[1]]
        assert f73.one() in enumerate_box(f73, by_norm[1], u, edge, strict=False)
        assert f73.one() not in enumerate_box(f73, by_norm[1], u, edge, strict=True)
    assert verdicts == {True, False}


def _assert_qform_points_match(g, radius):
    """enumerate_quadratic_form equals the brute scan at the radius and at
    the largest value attained inside it, which must count as inside."""
    want = brute_qform_points(g, radius)
    assert enumerate_quadratic_form(g, radius) == want
    if want:
        edge = max(value for value, _ in want)
        assert enumerate_quadratic_form(g, edge) == brute_qform_points(g, edge)


def test_enumerate_quadratic_form_matches_brute_scan():
    rng = random.Random(12)
    for _ in range(60):
        n = rng.randint(1, 4)
        b = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
             for _ in range(n)]
        g = [[sum(b[i][k] * b[j][k] for k in range(n)) + Fraction(int(i == j), 2)
              for j in range(n)] for i in range(n)]
        radius = Fraction(rng.randint(0, 6), rng.randint(1, 3)) * min(g[i][i] for i in range(n))
        _assert_qform_points_match(g, radius)
    # a skewed form: levels of up to 26 points, off-centre
    g = [[Fraction(1, 97), Fraction(1, 30)], [Fraction(1, 30), Fraction(3, 2)]]
    for radius in (Fraction(1, 5), Fraction(2)):
        _assert_qform_points_match(g, radius)


def test_enumerate_quadratic_form_of_a_negative_radius_is_empty():
    """A radius below 0 holds no vector, and no row takes a square root of
    a negative bound."""
    g = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]]
    assert enumerate_quadratic_form(g, Fraction(-1)) == []
    assert enumerate_quadratic_form(g, Fraction(-1, 10 ** 9)) == []


def _brute_row(used, level, mid, radius, start):
    """The (x, value) of the row by a scan over a window that holds every
    point of the seeded rows below."""
    c, e = level
    points = [(x, used + c * (e * x - mid) ** 2) for x in range(-400, 401)]
    return [(x, v) for x, v in points if v <= radius and (start is None or x >= start)]


def test_fincke_pohst_row_is_the_brute_scan():
    """The one Fincke-Pohst row against a scan of x over a wide window: int
    levels and Fraction levels, mids of denominator 1-7 of either sign,
    with and without the half tree's start, at a radius equal to a point's
    value (kept), at radius = used (only the exact-mid point, when there is
    one) and below used (nothing). An int row yields int values."""
    rng = random.Random(2501)
    kinds = {"edge": 0, "exact_mid": 0, "start": 0}
    for trial in range(600):
        ints = trial % 2 == 0
        e = rng.randint(1, 4)
        if ints:
            c, used = rng.randint(1, 40), rng.randint(0, 60)
            mid = rng.randint(-60, 60)
        else:
            c = Fraction(rng.randint(1, 40), rng.randint(1, 7))
            used = Fraction(rng.randint(0, 60), rng.randint(1, 7))
            mid = Fraction(rng.randint(-60, 60), rng.randint(1, 7))
        start = None
        if trial % 5 == 0:
            mid = 0 * mid
            start = rng.randint(0, 1)
            kinds["start"] += 1
        x0 = rng.randint(-30, 30)
        radii = [used + rng.randint(0, 500) * (1 if ints else Fraction(1, rng.randint(1, 7))),
                 used + c * (e * x0 - mid) ** 2, used]
        if used > 0:
            radii.append(used - 1)
        for radius in radii:
            got = list(_fincke_pohst_row(used, (c, e), mid, radius, start))
            assert got == _brute_row(used, (c, e), mid, radius, start)
            if ints:
                assert all(type(v) is int for _, v in got)
            if radius == radii[1] and (start is None or x0 >= start):
                assert (x0, radius) in got
                kinds["edge"] += 1
            if radius == used and got:
                assert [e * x for x, _ in got] == [mid]
                kinds["exact_mid"] += 1
    assert all(kinds.values())


def _half_tree_grams(rng):
    """Seeded positive-definite Grams of rank 1-4: random rational ones,
    and diagonal and block-diagonal integer ones, on which mid is 0 at
    every level below a zero prefix and a level's row is symmetric."""
    grams = []
    for _ in range(30):
        n = rng.randint(1, 4)
        b = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
             for _ in range(n)]
        grams.append([[sum(b[i][k] * b[j][k] for k in range(n)) + Fraction(int(i == j), 2)
                       for j in range(n)] for i in range(n)])
    for n in range(1, 5):
        grams.append([[Fraction(rng.randint(1, 4) if i == j else 0) for j in range(n)]
                      for i in range(n)])
    grams += [
        [[Fraction(x) for x in row] for row in rows] for rows in (
            [[2, 1, 0], [1, 2, 0], [0, 0, 3]],
            [[3, 0, 0], [0, 2, -1], [0, -1, 2]],
            [[2, 1, 0, 0], [1, 3, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2]],
            [[1, 0, 0, 0], [0, 2, 1, 0], [0, 1, 2, 0], [0, 0, 0, 5]],
        )]
    return grams


def _unit_levels(d):
    """_fincke_pohst's levels (d_i, 1) for _ldl_int's factor d."""
    return [(x, 1) for x in d]


def _assert_one_of_each_pair(half):
    """No origin, and of each pair +-x only the x whose last nonzero
    coordinate is positive."""
    for _, x in half:
        assert any(x)
        assert next(c for c in reversed(x) if c) > 0
    assert len({x for _, x in half}) == len(half)


def _with_negatives(half):
    points = half + [(v, tuple(-c for c in x)) for v, x in half]
    return sorted(points, key=lambda p: p[1][::-1])


def test_origin_centred_search_walks_half_the_tree():
    """About the origin (centre None) _fincke_pohst yields one vector of
    each pair +-x and no origin; with the other signs added its output is
    the brute scan's, on Fraction rows and on _int_half's integer levels,
    and _both_signs of the half and enumerate_quadratic_form are that same
    list."""
    rng = random.Random(22)
    for g in _half_tree_grams(rng):
        n = len(g)
        entries = tuple(tuple(r) for r in g)
        radius = Fraction(rng.randint(1, 6), rng.randint(1, 2)) * min(g[i][i] for i in range(n))
        want = brute_qform_points(g, radius)
        d, l = _ldl_int(*_int_entries(g))
        half = list(_fincke_pohst(_unit_levels(d), l, None, radius))
        _assert_one_of_each_pair(half)
        assert _with_negatives(half) == want
        assert enumerate_quadratic_form(entries, radius) == want
        cur, den = _int_entries(entries)
        dd, lam = _int_gram_schmidt(cur)
        half = _int_half_values(den, dd, lam, radius)
        _assert_one_of_each_pair(half)
        assert _with_negatives(half) == want
        assert _both_signs(half) == want


def _walk_with_sends(make_walk, lower, rng):
    """Drive make_walk() against its whole output, nothing sent: after
    about half the vectors send lower(value), which may or may not lie
    below the radius in force, and check that each vector yielded is the
    next one of the whole walk whose value is at most the least radius
    sent. Returns how many vectors the whole walk skipped."""
    whole = iter(list(make_walk()))
    walk = make_walk()
    radius = sent = None
    skipped = 0
    while True:
        want = None
        for point in whole:
            if radius is None or point[0] <= radius:
                want = point
                break
            skipped += 1
        got = _send(walk, sent)
        assert got == want
        if got is None:
            return skipped
        sent = lower(got[0]) if rng.random() < 0.5 else None
        if sent is not None and (radius is None or sent < radius):
            radius = sent


def test_fincke_pohst_send_lowers_the_radius():
    """The send protocol on the seeded Grams of the half tree, on exact
    Fraction rows (about the origin and about a rational centre, whose
    shifts are c_i + sum_{k > i} l_ki c_k) and on
    _int_half's integer levels: a walk that is sent random radii yields
    exactly the vectors of the whole walk whose value is at most the radius
    in force, in the same order."""
    rng = random.Random(2402)
    skipped = 0
    for g in _half_tree_grams(rng):
        n = len(g)
        radius = Fraction(rng.randint(2, 8), rng.randint(1, 2)) * min(g[i][i] for i in range(n))
        d, l = _ldl_int(*_int_entries(g))
        centre = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]
        shift = [centre[i] + sum(l[k][i] * centre[k] for k in range(i + 1, n))
                 for i in range(n)]

        def lower(value):
            return value * Fraction(rng.randint(1, 15), 10)

        for c in (None, shift):
            skipped += _walk_with_sends(lambda: _fincke_pohst(_unit_levels(d), l, c, radius),
                                        lower, rng)
        # _int_half's levels and bound, which its own output is checked against
        cur, den = _int_entries(g)
        dd, lam = _int_gram_schmidt(cur)
        m = math.lcm(*(dd[i] * dd[i + 1] for i in range(n)))
        levels = [(m // (dd[i] * dd[i + 1]), dd[i + 1]) for i in range(n)]
        bound = radius.numerator * m * den // radius.denominator

        def int_walk():
            return _fincke_pohst(levels, lam, None, bound)

        assert [(Fraction(v, m * den), x) for v, x in int_walk()] == _int_half_values(
            den, dd, lam, radius)
        skipped += _walk_with_sends(int_walk, lambda v: v * rng.randint(1, 15) // 10, rng)
    assert skipped > 0


def test_half_tree_halves_the_box_rows(f73, monkeypatch):
    """The box Gram of O twisted by (e^6, e^-6) in Q(sqrt 73), as
    minimal_element_bounded builds it, is skewed: its top row runs over
    391 values of the last coordinate and opens 391 level-0 rows in the
    whole tree. The half tree opens at most half of them plus one."""
    with mp.workprec(f73.prec):
        u = ArchVector((mp.exp(6), mp.exp(-6)), f73.degs, f73.prec)
    box = _box_side(f73)
    radius = Fraction(f73.n) * (1 + _ENUM_SLACK)
    gram = _fine_gram(_ellipsoid_gram(f73, unit_ideal(f73), _u_weights(f73, u), [box, box]),
                      radius)
    d, l = _ldl_int(*_int_entries(gram.entries))
    levels = _unit_levels(d)
    level0 = []

    def counting(used, level, *rest):
        if level is levels[0]:
            level0.append(used)
        return _fincke_pohst_row(used, level, *rest)

    monkeypatch.setattr(lattice_module, "_fincke_pohst_row", counting)
    half = list(_fincke_pohst(levels, l, None, radius))
    whole_tree_rows = 391
    assert 0 < len(level0) <= whole_tree_rows // 2 + 1
    level0.clear()
    whole = list(_fincke_pohst(levels, l, [0, 0], radius))
    assert len(level0) == whole_tree_rows
    assert sorted(x for _, x in whole if any(x)) == sorted(
        x for _, y in half for x in (y, tuple(-c for c in y)))


def test_closest_norm_of_a_zero_target_keeps_the_origin():
    """A computed centre that is zero walks the whole tree: the closest
    vector to the zero target is the origin itself, at distance 0."""
    f = create_field([1, -3, 0, 1])
    th = f.gen()
    log_lattice = LogLattice(unit_lattice_from_elements(f, [th, th - f.one()]).log_embeddings())
    zero = LogVector((mpf(0),) * 3, f.degs, f.prec)
    assert log_lattice.closest_norm(zero) == 0


def test_enumerate_quadratic_form_on_census_grams(f_cubic):
    """Grams the lambda_1 test sees on x^3 - 2 (inverses of integral ideals,
    inexact midpoints), at the C = 1 threshold n and at 2n: the rational
    enumeration and the integer search of the lambda_1 test give the brute
    scan's points, and the shortest vector is the brute minimum within its
    certified error."""
    for ideal in enumerate_integral_ideals(f_cubic, 6):
        gram = gram_of(f_cubic, invert(ideal))
        g = gram.entries
        for radius in (Fraction(3), Fraction(6)):
            _assert_qform_points_match(g, radius)
            assert _int_points(g, radius) == enumerate_quadratic_form(g, radius)
        sv = shortest_vector(gram)
        assert abs(sv.length_sq - brute_shortest_sq(g)) <= sv.length_sq_err


@pytest.mark.parametrize("min_poly", [[-2, 0, 0, 1], [-3, -1, 0, 1],
                                      [-1, -1, 0, 0, 1], [1, 0, 0, 0, 1]])
def test_interval_gram_matches_rational_oracle(min_poly):
    """The integer-endpoint interval backend gives exactly the entries and
    err of Gram building over rational intervals, for the basis of O and of
    an ideal, under unit and twisted per-place weights, at 128 and 256 bits."""
    f = create_field(min_poly)
    rng = random.Random(len(min_poly))
    bases = [tuple(unit_ideal(f).basis_elements()),
             tuple(invert(enumerate_integral_ideals(f, 8)[-1]).basis_elements())]
    twisted = [Fraction(rng.randint(1, 50), rng.randint(1, 50)) for _ in range(f.num_places)]
    for prec in (128, 256):
        places = []
        for kind, v, rad in f.places_mpf(prec):
            parts = [v] if kind == "R" else [v.real, v.imag]
            places.append((1 if kind == "R" else 2,
                           [(mpf_to_fraction(p) - rad, mpf_to_fraction(p) + rad)
                            for p in parts]))
        for basis in bases:
            rows = [f.to_power(b.coords) for b in basis]
            for w in ([Fraction(1)] * f.num_places, twisted):
                gram = _gram(f, basis, w, prec)
                assert gram.err > 0
                assert (gram.entries, gram.err) == interval_gram(rows, places, w)


@pytest.mark.parametrize("min_poly,basis", [([-73, 0, 1], None), ([-7, 0, 1], None),
                                            ([-5, 0, 1], [[1, 0], [0, 1]]),
                                            ([-7, 0, 1], [[1, 0], [0, -1]])])
def test_real_quadratic_gram_matches_surd_products(min_poly, basis):
    """The per-place real quadratic Gram, built from the basis's integer
    surd numerators, has the entries and err of the surd products
    (w0 + w1) a + (w0 - w1) b r with error |(w0 - w1) b| 2^-prec, where
    (a, b) is the surd pair of b_i b_j and r = isqrt(disc 4^prec) / 2^prec:
    O, an inverse ideal and a scaled ideal, seeded weights, 8 to 256 bits."""
    f = create_field(min_poly, basis)
    rng = random.Random(29)
    ideal = invert(enumerate_integral_ideals(f, 12)[-1])
    bases = [tuple(unit_ideal(f).basis_elements()), tuple(ideal.basis_elements()),
             tuple(b * f.element([Fraction(3, 7), Fraction(-5, 11)])
                   for b in ideal.basis_elements())]
    for prec in (8, 64, 128, 256):
        r = Fraction(math.isqrt(f.disc << (2 * prec)), 1 << prec)
        for basis_elements in bases:
            w = [Fraction(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6)) for _ in range(2)]
            gram = _gram(f, basis_elements, w, prec)
            err = Fraction(0)
            for i, bi in enumerate(basis_elements):
                for j, bj in enumerate(basis_elements):
                    m, ((a, b),) = f.surd_numerators([bi * bj])
                    a, b = Fraction(a, m), Fraction(b, m)
                    assert gram.entries[i][j] == (w[0] + w[1]) * a + (w[0] - w[1]) * b * r
                    err = max(err, abs((w[0] - w[1]) * b) / (1 << prec))
            assert gram.err == err


@pytest.mark.parametrize("min_poly,basis", [([1, 0, 1], None), ([5, 0, 1], None),
                                            ([5, 0, 1], [[1, 0], [0, -1]])])
def test_imaginary_quadratic_gram_matches_surd_products(min_poly, basis):
    """The imaginary quadratic Gram, the real quadratic branch with the
    weight sum 2 w0 and no sqrt(disc) term, is exact: entry (i, j) is
    2 w0 Re(sigma(b_i) conj(sigma(b_j))) = 2 w0 a for the surd pair
    (a, b) of b_i conj(b_j), and err is 0."""
    f = create_field(min_poly, basis)
    rng = random.Random(31)
    ideal = invert(enumerate_integral_ideals(f, 12)[-1])
    for basis_elements in (tuple(unit_ideal(f).basis_elements()),
                           tuple(ideal.basis_elements())):
        for prec in (8, 128):
            w = [Fraction(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6))]
            gram = _gram(f, basis_elements, w, prec)
            assert gram.err == 0
            for i, bi in enumerate(basis_elements):
                for j, bj in enumerate(basis_elements):
                    m, ((a, _),) = f.surd_numerators([bi * f.conjugate(bj)])
                    assert gram.entries[i][j] == 2 * w[0] * Fraction(a, m)


@pytest.mark.parametrize("min_poly", [[-73, 0, 1], [-10007, 0, 1], [1, 0, 1], [5, 0, 1]])
def test_sign_surd_sq_matches_cmp_abs_sq(min_poly):
    """The integer box test on surd numerators and cmp_abs_sq both give the
    sign of w |sigma(x)|^2 - t at every place, against mpmath at four times
    the inputs' bits, ties included: seeded elements, weights and bounds,
    with the bound set to the exact weighted |sigma(x)|^2 of rational x,
    and of other x at a complex place (the norm), to make ties, which the
    test decides on those exact rationals."""
    f = create_field(min_poly)
    rng = random.Random(len(str(min_poly)))
    signs = set()
    for k in range(400):
        coords = [Fraction(rng.randint(-99, 99), rng.randint(1, 30)) for _ in range(2)]
        if k % 4 == 0:
            coords[1] = Fraction(0)
        x = f.element(coords)
        m, ((a, b),) = f.surd_numerators([x])
        # |sigma(x)|^2 where it is rational by construction
        exact_sq = coords[0] ** 2 if x.is_rational() else x.norm() if f.r2 else None
        w = Fraction(rng.randint(1, 500), rng.randint(1, 500))
        for place in range(f.num_places):
            t = Fraction(rng.randint(1, 10 ** 4), rng.randint(1, 50))
            if k % 4 == 0:
                t = w * coords[0] ** 2
            elif k % 4 == 1 and f.r2:
                t = w * x.norm()
            if exact_sq is not None and w * exact_sq == t:
                want = 0
            else:
                bits = 4 * sum(v.bit_length() for v in (a, b, m, w.numerator, w.denominator,
                                                        t.numerator, t.denominator))
                with mp.workprec(bits):
                    root = mp.sqrt(f.disc) if f.r1 else mp.mpc(0, mp.sqrt(-f.disc))
                    sq = abs((mpf(a) + (1 - 2 * place) * mpf(b) * root) / m) ** 2
                    wm, tm = mpf(w.numerator) / w.denominator, mpf(t.numerator) / t.denominator
                    diff = wm * sq - tm
                    assert abs(diff) > (wm * sq + tm) * mpf(2) ** (16 - bits)
                want = 1 if diff > 0 else -1
            got = sign_surd_sq(a, b, f.disc, w.numerator * t.denominator,
                               t.numerator * w.denominator * m * m, place)
            assert got == want, (coords, w, t, place)
            assert f.cmp_abs_sq(x, place, t, w) == want, (coords, w, t, place)
            signs.add(got)
    assert signs == {-1, 0, 1}


def test_enumerators_leave_no_reference_cycles():
    """Fincke-Pohst, the closest-vector search and the HNF scan run as
    loops, so a call leaves no cyclic garbage for the collector."""
    f = create_field([1, -3, 0, 1])
    th = f.gen()
    log_lattice = LogLattice(unit_lattice_from_elements(f, [th, th - f.one()]).log_embeddings())
    target = LogVector((mpf("2.5"), mpf("-1.25"), mpf("0.5")), f.degs, f.prec)
    g = ((Fraction(2), Fraction(1), Fraction(0)),
         (Fraction(1), Fraction(3), Fraction(1, 2)),
         (Fraction(0), Fraction(1, 2), Fraction(5, 2)))
    gc.collect()
    gc.disable()
    try:
        assert enumerate_quadratic_form(g, Fraction(12))
        assert gc.collect() == 0
        log_lattice.closest_norm(target)
        assert gc.collect() == 0
        assert len(list(_sublattices_of_index(3, 12))) > 0
        assert gc.collect() == 0
    finally:
        gc.enable()


def _log_gram(log_lattice: LogLattice) -> list[list[Fraction]]:
    """The exact binary value of a log lattice's Gram, summed at its
    precision as LogLattice sums it."""
    gens = log_lattice.gens
    with mp.workprec(log_lattice.prec):
        return [[mpf_to_fraction(sum(d * a * b for a, b, d in zip(gi.values, gj.values, gi.degs)))
                 for gj in gens] for gi in gens]


@pytest.mark.parametrize("min_poly", [[-73, 0, 1], [1, -3, 0, 1]], ids=["73", "x3-3x+1"])
def test_closest_norm_walks_exactly_the_babai_ellipsoid(min_poly, monkeypatch):
    """The integer walk of closest_norm visits exactly the integer a with
    (a - c)^T G (a - c) <= radius, on Fractions: c the minimiser at its
    exact binary value, G the exact binary Gram, and the radius Babai's
    value (a0 - c)^T G (a0 - c), a0 = floor(c + 1/2), widened by a relative
    and an absolute 2^(-prec/2). The brute scan runs over the box
    |a_i - c_i| <= sqrt(radius (G^-1)_ii) that holds the ellipsoid."""
    f = create_field(min_poly)
    if f.n == 2:
        gens = quadratic_units(f).log_embeddings()
    else:
        th = f.gen()
        gens = unit_lattice_from_elements(f, [th, th - f.one()]).log_embeddings()
    log_lattice = LogLattice(gens)
    g = _log_gram(log_lattice)
    inv = _inv(g)
    r = len(g)
    walked = []

    def spy(*args):
        for value, a in _fincke_pohst(*args):
            walked.append(a)
            yield value, a

    monkeypatch.setattr(units_module, "_fincke_pohst", spy)
    rng = random.Random(26 + r)
    slack = Fraction(1, 2 ** (f.prec // 2))
    for _ in range(25):
        target = LogVector(tuple(mpf(rng.uniform(-12, 12)) for _ in f.degs), f.degs, f.prec)
        with mp.workprec(f.prec):
            c = [mpf_to_fraction(x) for x in log_lattice._minimiser(target)]

        def value(a):
            x = [ai - ci for ai, ci in zip(a, c)]
            return sum(x[i] * g[i][j] * x[j] for i in range(r) for j in range(r))

        radius = value([math.floor(ci + Fraction(1, 2)) for ci in c]) * (1 + slack) + slack
        reach = [math.isqrt(math.ceil(radius * inv[i][i])) + 1 for i in range(r)]
        box = itertools.product(*(range(math.floor(ci) - t, math.ceil(ci) + t + 1)
                                  for ci, t in zip(c, reach)))
        want = sorted(a for a in box if value(a) <= radius)
        walked.clear()
        log_lattice.closest_norm(target)
        assert sorted(walked) == want and want


def test_ldl_is_the_fraction_gram_schmidt(f73):
    """_ldl_int, read off _int_gram_schmidt, gives the textbook Gram-Schmidt of
    the oracle over Fractions: on seeded exact Grams, on refined interval
    Grams of x^3 - 2 and x^3 - x - 3, on the twisted Q(sqrt 73) box Gram at
    t = 6, and on the exact binary log-lattice Grams of Q(sqrt 73) and of
    x^3 - 3x + 1 with units (theta, theta - 1), which LogLattice keeps as
    one integer matrix over a power of two, with the last factor d_r-1
    that its pair bounds scale by."""
    rng = random.Random(23)
    grams = []
    for _ in range(40):
        n = rng.randint(1, 4)
        b = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
             for _ in range(n)]
        grams.append([[sum(b[i][k] * b[j][k] for k in range(n))
                       + Fraction(int(i == j), rng.randint(1, 5)) for j in range(n)]
                      for i in range(n)])
    for poly in ([-2, 0, 0, 1], [-3, -1, 0, 1]):
        f = create_field(poly)
        for ideal in enumerate_integral_ideals(f, 6):
            gram = gram_of(f, invert(ideal)).refine()
            assert gram.err > 0
            grams.append(gram.entries)
    with mp.workprec(f73.prec):
        u = ArchVector((mp.exp(6), mp.exp(-6)), f73.degs, f73.prec)
    box = _box_side(f73)
    radius = Fraction(f73.n) * (1 + _ENUM_SLACK)
    grams.append(_fine_gram(_ellipsoid_gram(f73, unit_ideal(f73), _u_weights(f73, u),
                                            [box, box]), radius).entries)
    f81 = create_field([1, -3, 0, 1])
    th = f81.gen()
    for units in (quadratic_units(f73), unit_lattice_from_elements(f81, [th, th - f81.one()])):
        log_lattice = LogLattice(units.log_embeddings())
        g = _log_gram(log_lattice)
        one = 1 << log_lattice._k
        assert [[Fraction(x, one) for x in row] for row in log_lattice._gram] == g
        assert log_lattice._last == _ldl_int(*_int_entries(g))[0][-1]
        grams.append(g)
    for g in grams:
        n = len(g)
        d, l = _ldl_int(*_int_entries(g))
        mu, bs = fraction_gram_schmidt(g)
        assert d == bs
        assert l == [[mu[i][j] if j < i else Fraction(int(i == j)) for j in range(n)]
                     for i in range(n)]


# Every backend of _gram (the totally real trace form, real and imaginary
# quadratic surd products, interval embeddings) and an order of Q(2^(1/3))
# whose basis is not the power basis, Z + 2Z 2^(1/3) + 2Z 2^(2/3)
_PIN_FIELDS = [([-73, 0, 1], None), ([1, 0, 1], None), ([-2, 0, 0, 1], None),
               ([-3, -1, 0, 1], None), ([-1, -1, 0, 0, 1], None),
               ([-2, 0, 0, 1], [[1, 0, 0], [0, 2, 0], [0, 0, 2]])]
GRAM_RECT_DIGEST = "8c600831dde90427fab7d6d72c63471ed9d592209c32fe5e27a0ede664cb0621"


def _q(x: Fraction) -> tuple[int, int]:
    return x.numerator, x.denominator


def test_gram_and_rectangles_pinned():
    """embed_interval's rectangles and gram_of's (entries, err) in lowest
    terms, on seeded elements and lattices of every Gram backend at unit and
    unequal weights, hash to the pinned digest: how the Gram and the power
    coordinates are represented moves no value."""
    h = hashlib.sha256()
    rng = random.Random(3131)
    for min_poly, basis in _PIN_FIELDS:
        f = create_field(min_poly, basis)
        elems = [f.element([Fraction(rng.randint(-60, 60), rng.randint(1, 12))
                            for _ in range(f.n)]) for _ in range(100)]
        for x in elems:
            for place in range(f.num_places):
                for prec in (f.prec, 2 * f.prec):
                    h.update(repr(f.embed_interval(x, place, prec)).encode())
        lattices = [random_fractional_ideal(f, rng, 10) for _ in range(3)]
        lattices += [rng.sample(elems, f.n) for _ in range(2)]
        twisted = ArchVector(tuple(mpf(rng.randint(1, 64)) / 16 for _ in range(f.num_places)),
                             f.degs, f.prec)
        for lattice in lattices:
            for u in (None, twisted):
                for prec in (f.prec, 2 * f.prec):
                    gram = gram_of(f, lattice, u, prec)
                    h.update(repr(([[_q(x) for x in row] for row in gram.entries],
                                   _q(gram.err))).encode())
    assert h.hexdigest() == GRAM_RECT_DIGEST


def test_gram_matrix_public_surface(f73, f_cubic):
    """from_entries, entries, err, det, refine, value_error and lll_reduce
    give the Fractions of their definitions, on hand-built exact Grams and
    on field Grams: the exact trace form of Q(sqrt 73), its twisted inexact
    Gram and the interval Gram of x^3 - 2."""
    rows = [[Fraction(7, 3), Fraction(1, 2)], [Fraction(1, 2), Fraction(5, 4)]]
    g2 = GramMatrix.from_entries(rows)
    assert g2.entries == tuple(map(tuple, rows)) and g2.err == 0
    assert g2.det() == Fraction(7, 3) * Fraction(5, 4) - Fraction(1, 4)
    assert g2.refine() is g2 and g2.value_error((3, -4)) == 0
    g3 = GramMatrix.from_entries([[4, 2, Fraction(1, 3)], [2, 5, 1], [Fraction(1, 3), 1, 9]])
    assert g3.entries[0] == (4, 2, Fraction(1, 3)) and g3.det() == Fraction(1267, 9)
    with mp.workprec(f73.prec):
        u = ArchVector((mp.exp(3), mp.exp(-3)), f73.degs, f73.prec)
    ideal = invert(enumerate_integral_ideals(f73, 12)[-1])
    for gram in (g2, g3, gram_of(f73, ideal), gram_of(f73, ideal, u),
                 gram_of(f_cubic, unit_ideal(f_cubic))):
        assert gram.det() == _int_det([list(r) for r in gram.entries])
        coeffs = tuple(range(-1, gram.size - 1))
        assert gram.value_error(coeffs) == gram.err * sum(map(abs, coeffs)) ** 2
        umat, red = lll_reduce(gram)
        assert red.err == gram.err * max(sum(map(abs, r)) for r in umat) ** 2
        assert [list(r) for r in red.entries] == fraction_lll(gram.entries)[1]
        if gram.field is not None:
            assert red.source == tuple(sum((c * b for c, b in zip(r, gram.source)),
                                           gram.field.zero()) for r in umat)
            fine = gram.refine()
            assert fine.prec == 2 * gram.prec and fine.err <= gram.err
            assert all(abs(x - y) <= gram.err + fine.err
                       for row, frow in zip(gram.entries, fine.entries)
                       for x, y in zip(row, frow))


def test_integer_gram_consumers_skip_int_entries(monkeypatch, f73, f_cubic):
    """The lambda_1 search, LLL and the box walk read a Gram's integers:
    _int_entries, the clearing of Fraction entries, runs for none of them,
    on the exact Grams of Q(sqrt 73) and the interval Gram of x^3 - 2."""
    def no_int_entries(entries):
        raise AssertionError("_int_entries called")

    grams = [gram_of(f73, unit_ideal(f73)), gram_of(f73, enumerate_integral_ideals(f73, 20)[-1]),
             gram_of(f_cubic, unit_ideal(f_cubic))]
    monkeypatch.setattr(lattice_module, "_int_entries", no_int_entries)
    for gram in grams:
        assert shortest_vector(gram).length_sq > 0
        lll_reduce(gram)
        lattice_module.lll_first_vector(gram)
    assert enumerate_box(f_cubic, unit_ideal(f_cubic), None, [2, 2])


def test_rounded_attempt_on_a_coarse_gram_is_none():
    """An inexact Gram with err > 2^9 has no rounding grid finer than 1:
    _rounded_attempt returns None, the coarse-Gram answer, and raises
    nothing (no negative shift)."""
    for rad in (513, 1 << 10, 1 << 40):
        g = GramMatrix(None, (), None, ((4, 1), (1, 3)), 1, rad, 53)
        assert g.err > 2 ** 9
        assert lattice_module._rounded_attempt(g) is None


SEARCH_DIGEST = "9b4f348b5ca992c92d447cdfe89dc613f9ccc92864a59093106c6d5cb4d7e8ec"


def _search_pin(sv) -> str:
    if sv is None:
        return "None"
    return repr((sv.coeffs, _q(sv.length_sq), _q(sv.length_sq_err)))


def test_inexact_search_pinned(f73):
    """_rounded_attempt's (coeffs, lambda_1^2, error), or None, hashes to the
    pinned digest on the lambda_1 Grams of the inverses of every ideal of
    norm <= 30 on x^3 - 2, x^3 - x - 3 and x^4 - x - 1, at the field
    precision, refined once and at 4 bits, and on twisted Grams of Q(sqrt 73)
    ideals: how the search's certificate and candidate values are computed
    moves no value and no decision."""
    h = hashlib.sha256()
    for min_poly in ([-2, 0, 0, 1], [-3, -1, 0, 1], [-1, -1, 0, 0, 1]):
        f = create_field(min_poly)
        for ideal in enumerate_integral_ideals(f, 30):
            gram = gram_of(f, invert(ideal))
            for g in (gram, gram.refine(), gram_of(f, invert(ideal), prec=4)):
                assert g.rad
                h.update(_search_pin(lattice_module._rounded_attempt(g)).encode())
    with mp.workprec(f73.prec):
        twists = [ArchVector((mp.exp(t), mp.exp(-t)), f73.degs, f73.prec) for t in (1, 3, 6)]
    for ideal in enumerate_integral_ideals(f73, 30):
        for u in twists:
            gram = gram_of(f73, ideal, u)
            for g in (gram, gram.refine()):
                assert g.rad
                h.update(_search_pin(lattice_module._rounded_attempt(g)).encode())
    assert h.hexdigest() == SEARCH_DIGEST


def _certificate_cases(rng: random.Random):
    """Seeded (n, e, tr, rmin, k): random ones, ones with eps >= 1, and for
    each a pair of errors e_lo < e_hi, e_hi <= e_lo (1 + 2^-40), on the two
    sides of the boundary of the oracle's certificate."""
    for _ in range(60):
        n, k = rng.randint(1, 6), rng.randint(1, 300)
        scale = 1 << k
        rmin = rng.randint(1, scale << rng.randint(0, 12))
        tr = Fraction(rng.randint(1, 1 << 40), rng.randint(1, 1 << 40) << (k + rng.randint(22, 40)))
        e = Fraction(rng.randint(1, 1 << 30), rng.randint(1, 1 << 30) << rng.randint(max(0, k - 20), k + 20))
        yield n, e, tr, rmin, k
        # eps >= 1: e at and above 1 / L - 1 / (2 S)
        e_max = 1 / (n * scale * tr) - Fraction(1, 2 * scale)
        if e_max > 0:
            yield n, e_max, tr, rmin, k
            yield n, e_max * (1 + Fraction(1, rng.randint(1, 1 << 40))), tr, rmin, k
        if not rounded_certificate(n, Fraction(0), tr, rmin, k):
            continue
        lo, hi = Fraction(0), e_max
        for _ in range(400):
            mid = hi / 2 if lo == 0 else (lo + hi) / 2
            if rounded_certificate(n, mid, tr, rmin, k):
                lo = mid
            else:
                hi = mid
            if lo and hi <= lo * (1 + Fraction(1, 1 << 40)):
                break
        assert lo and hi <= lo * (1 + Fraction(1, 1 << 40))
        yield n, lo, tr, rmin, k
        yield n, hi, tr, rmin, k


def test_integer_certificate_matches_fraction_oracle():
    """_certified, the rounded search's certificate on integers, decides as
    the Fraction inequality of its proof (oracles.rounded_certificate) on
    seeded cases, eps >= 1 and errors within a relative 2^-40 on either
    side of the boundary included, whatever terms e and tr come in."""
    rng = random.Random(3434)
    seen = {True: 0, False: 0}
    for n, e, tr, rmin, k in _certificate_cases(rng):
        want = rounded_certificate(n, e, tr, rmin, k)
        seen[want] += 1
        got = lattice_module._certified(n, e.numerator, e.denominator,
                                        tr.numerator, tr.denominator, rmin, k)
        assert got == want
        c = rng.randint(2, 9)
        assert lattice_module._certified(n, c * e.numerator, c * e.denominator,
                                         c * tr.numerator, c * tr.denominator, rmin, k) == want
    assert seen[True] > 30 and seen[False] > 30


def test_rounded_attempt_builds_two_fractions(monkeypatch, f_cubic):
    """A successful _rounded_attempt builds lattice.Fraction exactly twice,
    for the returned lambda_1^2 and its error, however many candidates its
    search values (one _int_qform each): on the lambda_1 Grams of x^3 - 2
    (one candidate each) and on inexact Grams of Z, Z^2, A2, Z^3 and D4
    with 1, 2, 3, 3 and 12 candidates, an error of 2^-300 each."""
    made, valued = [], []
    fraction, qform = lattice_module.Fraction, lattice_module._int_qform

    def counting_fraction(*args):
        made.append(args)
        return fraction(*args)

    def counting_qform(g, x):
        valued.append(x)
        return qform(g, x)

    den = 1 << 300
    forms = [[[1]], [[1, 0], [0, 1]], [[2, 1], [1, 2]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
             [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]]]
    grams = [GramMatrix(None, (), None, tuple(tuple(x * den for x in row) for row in form),
                        den, 1, 300) for form in forms]
    grams += [gram_of(f_cubic, invert(ideal)) for ideal in enumerate_integral_ideals(f_cubic, 12)]
    monkeypatch.setattr(lattice_module, "Fraction", counting_fraction)
    monkeypatch.setattr(lattice_module, "_int_qform", counting_qform)
    candidates = []
    for gram in grams:
        made.clear()
        valued.clear()
        assert lattice_module._rounded_attempt(gram) is not None
        assert len(made) == 2
        candidates.append(len(valued))
    assert candidates[:len(forms)] == [1, 2, 3, 3, 12]
    assert set(candidates[len(forms):]) == {1}
