import gc
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

import arakelov.lattice as lattice_module
from arakelov.divisors import divisor_d
from arakelov.exact import mat_det
from arakelov.ideals import (
    PlainLattice,
    _sublattices_of_index,
    enumerate_integral_ideals,
    ideal_from_generators,
    invert,
    unit_ideal,
)
from arakelov.lattice import (
    GramMatrix,
    _box_side,
    _canonical_sign,
    _ellipsoid_gram,
    _gram,
    _int_entries,
    _int_gram_schmidt,
    _int_search,
    _lll_core,
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
from arakelov.units import LogLattice, unit_lattice_from_elements
from conftest import random_degree_zero_divisor, random_fractional_ideal
from oracles import (
    brute_box,
    brute_is_minimal,
    brute_is_minimal_poly,
    brute_minimal_pick,
    brute_qform_points,
    brute_shortest_sq,
    fraction_lll,
    interval_gram,
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
        if mat_det(a) == 0:
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
    from arakelov.lattice import _ldl

    delta = Fraction(99, 100)
    for gram in _reduction_test_grams(f73, f_cubic):
        _, red = lll_reduce(gram)
        b, mu = _ldl([list(r) for r in red.entries])
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
    if mat_det([[Fraction(x) for x in r] for r in rows]) == 0:
        return
    g = [[sum(x * y for x, y in zip(ri, rj)) for rj in rows] for ri in rows]
    u, red = lll_reduce(GramMatrix.from_entries(g))
    us, reds = lll_reduce(GramMatrix.from_entries([[scale * x for x in r] for r in g]))
    assert us == u
    assert reds.entries == tuple(tuple(scale * x for x in r) for r in red.entries)


def test_shortest_attempt_builds_one_element(monkeypatch, f73, f7, f_cubic):
    """A shortest vector builds one field element, the winner, however many
    vectors the enumeration visits: no reduced-basis element is built, and
    no _ldl runs. That holds for exact Grams and for the inexact Gram of
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

    def no_ldl(g):
        raise AssertionError("_ldl called")

    monkeypatch.setattr(lattice_module, "_element_of", count)
    monkeypatch.setattr(lattice_module, "_combinations", count_rows)
    monkeypatch.setattr(lattice_module, "_ldl", no_ldl)
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


def _int_points(entries, radius):
    """_int_search on a rational Gram, from its own integral data."""
    cur, den = _int_entries(entries)
    d, lam = _int_gram_schmidt(cur)
    return list(_int_search(cur, den, d, lam, Fraction(radius)))


def _lll_radius_points(entries):
    """(reduced entries, LLL radius, _int_search at that radius on
    _lll_core's own data)."""
    n = len(entries)
    cur, den = _int_entries(entries)
    _, cur, d, lam = _lll_core(cur)
    assert (d, lam) == _int_gram_schmidt(cur)
    reduced = tuple(tuple(Fraction(x, den) for x in row) for row in cur)
    radius = Fraction(min(cur[i][i] for i in range(n)), den)
    return reduced, radius, list(_int_search(cur, den, d, lam, radius))


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
                if mat_det([[Fraction(x) for x in row] for row in b]) != 0:
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
