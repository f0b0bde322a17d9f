import math
import random
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from arakelov.divisors import (
    ArakelovDivisor,
    CSquared,
    add,
    as_c_squared,
    degree,
    divisor_d,
    is_reduced_usual,
    is_strongly_c_reduced,
    lll_jump,
    negate,
    oriented_distance,
    pic_distance,
    principal_divisor,
    principal_generator,
    quadratic_units,
    reduce,
    reduced_cycle,
    reduction_distance_bound,
)
from arakelov.divisors import (
    _jump_assemble,
    _principal_cycle,
    to_reduced,
)
from arakelov.ideals import (
    PlainLattice,
    enumerate_integral_ideals,
    ideal_from_generators,
    ideal_norm,
    invert,
    multiply,
    scale_ideal,
    unit_ideal,
)
from arakelov.lattice import GramMatrix, minimal_element_bounded
from arakelov.numfield import ArchVector, LogVector, create_field, fraction_to_mpf
from arakelov.survey import enumerate_sred
from arakelov.units import (
    LogLattice,
    min_log_norm_modulo,
    totally_positive_adjust,
    unit_lattice_from_elements,
)
from conftest import random_degree_zero_divisor, random_fractional_ideal, zero_divisor
from oracles import (
    brute_closest_norm,
    brute_is_minimal,
    brute_lattice_distance,
    brute_reduced_neighbor,
    fundamental_unit_is_minimal,
)


def test_as_c_squared_parsing():
    assert as_c_squared("sqrt2") == 2
    assert as_c_squared("sqrt(3)") == 3
    assert as_c_squared("3/2") == Fraction(9, 4)
    assert as_c_squared(2) == 4
    assert as_c_squared(Fraction(5, 4)) == Fraction(25, 16)
    assert as_c_squared(CSquared(Fraction(2))) == 2
    with pytest.raises(ValueError):
        as_c_squared("0.5")


def test_divisor_d_examples(f7):
    d0 = divisor_d(unit_ideal(f7))
    assert float(d0.degree()) == 0.0
    alpha = f7.element([Fraction(1, 4), Fraction(1, 4)])
    i = ideal_from_generators(f7, [f7.one(), alpha])
    di = divisor_d(i)
    assert abs(float(di.u.values[0]) - math.sqrt(8)) < 1e-12


def test_divisor_d_degree_zero_random(f73):
    rng = random.Random(2)
    for _ in range(20):
        i = random_fractional_ideal(f73, rng)
        assert abs(float(divisor_d(i).degree())) < 1e-30


def test_principal_divisor_examples(f7, fi):
    p = principal_divisor(f7.one())
    assert p.ideal == unit_ideal(f7)
    p2 = principal_divisor(f7.rational(2))
    assert p2.ideal == ideal_from_generators(f7, [f7.rational(Fraction(1, 2))])
    assert abs(float(p2.degree())) < 1e-30
    p3 = principal_divisor(fi.element([1, 1]))
    assert ideal_norm(p3.ideal) == Fraction(1, 2)
    assert abs(float(p3.degree())) < 1e-30
    with pytest.raises(ValueError):
        principal_divisor(f7.zero())


def test_divisor_group_ops(f7):
    rng = random.Random(9)
    for _ in range(15):
        d1 = random_degree_zero_divisor(f7, rng)
        d2 = random_degree_zero_divisor(f7, rng)
        s = add(d1, d2)
        assert abs(float(degree(s)) - float(degree(d1)) - float(degree(d2))) < 1e-20
        z = add(d1, negate(d1))
        assert z.ideal == unit_ideal(f7)
        assert abs(float(degree(z))) < 1e-20
    alpha = f7.element([Fraction(1, 4), Fraction(1, 4)])
    i = ideal_from_generators(f7, [f7.one(), alpha])
    f_elt = f7.element([1, 1])
    assert add(divisor_d(i), principal_divisor(f_elt)).ideal == \
        scale_ideal(i, f_elt.inverse())


def test_strongly_reduced_plain_lattice_q7(f7):
    alpha = f7.element([Fraction(1, 4), Fraction(1, 4)])
    lat = PlainLattice(f7, (f7.one(), alpha))
    assert not is_strongly_c_reduced(f7, lat, 1)
    assert is_strongly_c_reduced(f7, lat, 2)
    boundary = is_strongly_c_reduced(f7, lat, "sqrt2")
    assert boundary.ok and boundary.lambda1_sq == 1  # exact tie, inclusive


def test_strongly_reduced_unit_ideal_totally_real(f7):
    for c in (1, "sqrt2", 2, 10):
        assert is_strongly_c_reduced(f7, unit_ideal(f7), c).ok


@pytest.mark.parametrize("poly", [[-2, 0, 0, 1], [-3, -1, 0, 1]])
def test_strongly_reduced_near_tie_refines_gram_once(poly, monkeypatch):
    # lambda_1^2 = T2(1) = 3 sits 3 * 2^-300 above the threshold 3/C^2: the
    # 128-bit interval Gram cannot decide, the 256-bit one can
    refined = []
    inner = GramMatrix.refine

    def count(self):
        refined.append(self.prec)
        return inner(self)

    monkeypatch.setattr(GramMatrix, "refine", count)
    f = create_field(poly)
    res = is_strongly_c_reduced(f, unit_ideal(f), CSquared(1 + Fraction(1, 2 ** 300)))
    assert res.ok and res.lambda1_sq == 3
    assert refined == [128]


def test_strongly_reduced_primitivity_gate(f7):
    alpha = f7.element([Fraction(1, 4), Fraction(1, 4)])
    module = ideal_from_generators(f7, [f7.one(), alpha])
    res = is_strongly_c_reduced(f7, module, 100)
    assert not res.ok and not res.primitive
    assert res.rational_intersection == Fraction(1, 2)


def test_strongly_reduced_monotone_in_c(f73):
    rng = random.Random(13)
    grid = [1, Fraction(6, 5), "sqrt2", Fraction(8, 5), 2, 3]
    for _ in range(20):
        i = random_fractional_ideal(f73, rng)
        flags = [bool(is_strongly_c_reduced(f73, i, c)) for c in grid]
        # once true, stays true for larger C
        assert flags == sorted(flags)


def test_reduced_usual_examples(f7):
    assert is_reduced_usual(f7, unit_ideal(f7))
    half = ideal_from_generators(f7, [f7.rational(Fraction(1, 2))])
    assert not is_reduced_usual(f7, half)


def test_reduced_iff_strongly_bridges(f73):
    census = enumerate_sred(f73, 2)
    for e in census.entries:
        usual = is_reduced_usual(f73, e.ideal)
        strongly_1 = is_strongly_c_reduced(f73, e.ideal, 1).ok
        strongly_sqrt_n = is_strongly_c_reduced(f73, e.ideal, "sqrt2").ok
        if strongly_1:
            assert usual  # strongly 1-reduced implies reduced
        if usual:
            assert strongly_sqrt_n  # reduced implies strongly sqrt(n)-reduced


def _census_and_inverses(f, cs):
    """Every census entry at each C in cs, then I^-1 for every integral I
    of norm <= 30."""
    qs = [e.ideal for c in cs for e in enumerate_sred(f, c).entries]
    return qs + [invert(j) for j in enumerate_integral_ideals(f, 30)]


def _surd_pair(f, g):
    # g = x + y sqrt(d) for the fields x^2 - d used here
    return tuple(f.to_power(g.coords))


@pytest.mark.parametrize("d", [7, 73, 79])
def test_is_reduced_usual_matches_oracle(d):
    f = create_field([-d, 0, 1])
    verdicts = set()
    for q in _census_and_inverses(f, [2]):
        basis = [_surd_pair(f, b) for b in q.basis_elements()]
        want = q.contains(f.one()) and brute_is_minimal(d, basis, (1, 0))
        assert is_reduced_usual(f, q) == want
        verdicts.add(want)
    assert verdicts == {True, False}


# Orders of Q(sqrt d) given by (d, basis), beyond the maximal orders on
# their default bases. basis None is create_field's default, which for
# x^2 - 28 and x^2 - 45 is the power basis (discriminants 112 and 180); with
# Z[sqrt 5] (discriminant 20) these orders are not maximal, and some of
# their ideals are not invertible. Z[sqrt 7] on {1, -sqrt 7} has its w below
# its conjugate at place 0.
OTHER_ORDERS = [pytest.param(5, [[1, 0], [0, 1]], id="5-power"),
                pytest.param(28, None, id="28"), pytest.param(45, None, id="45"),
                pytest.param(7, [[1, 0], [0, -1]], id="7-negated")]


def _maximal(*ds):
    return [pytest.param(d, None, id=str(d)) for d in ds]


@pytest.mark.parametrize("d,basis", _maximal(73, 1009, -1, -5) + OTHER_ORDERS)
def test_surd_place_convention(d, basis):
    """surd(x) = (a, b) with x = a + b sqrt(disc), disc the order's
    discriminant: a + b sqrt(disc) is sigma_0(x) (sqrt(disc) = i sqrt|disc|
    at a complex place), a - b sqrt(disc) is sigma_1(x), and (a, -b) is
    the conjugate. On {1, -sqrt 7} the sign rule for b_1 < 0 is exercised."""
    f = create_field([-d, 0, 1], basis)
    rng = random.Random(d)
    tol = mpf(2) ** -100
    for _ in range(40):
        x = f.element([Fraction(rng.randint(-60, 60), rng.randint(1, 6)) for _ in range(2)])
        a, b = f.surd(x)
        assert f.from_surd(a, b) == x
        assert f.conjugate(x) == f.from_surd(a, -b)
        values = f.embed(x, 256).values
        with mp.workprec(256):
            am, bm = fraction_to_mpf(a, 256), fraction_to_mpf(b, 256)
            if f.r2:
                root = mp.mpc(0, mp.sqrt(-f.disc))
                assert abs(values[0] - (am + bm * root)) < tol
                assert abs(abs(values[0]) ** 2 - fraction_to_mpf(a * a - b * b * f.disc, 256)) < tol
            else:
                root = mp.sqrt(f.disc)
                assert abs(values[0] - (am + bm * root)) < tol
                assert abs(values[1] - (am - bm * root)) < tol


@pytest.mark.parametrize("d,basis", _maximal(7, 73, 79, 1009) + OTHER_ORDERS)
def test_to_reduced_matches_box_pick(d, basis):
    """The continued-fraction walk lands on the minimal element that the
    box enumeration of d(Q) picks, and 1 is minimal in the result."""
    f = create_field([-d, 0, 1], basis)
    moved = 0
    for q in _census_and_inverses(f, ["sqrt2", 2]):
        g = minimal_element_bounded(f, q, divisor_d(q).u)
        j, h = to_reduced(f, q)
        assert (j, h) == (scale_ideal(q, g.inverse()), g)
        basis = [_surd_pair(f, b) for b in j.basis_elements()]
        assert brute_is_minimal(d, basis, (1, 0))
        moved += h != f.one()
    assert moved > 0


def test_lll_jump_unit_ideal(f7):
    d = lll_jump(f7, unit_ideal(f7))
    assert d is not None and d.ideal == unit_ideal(f7)


def test_lll_jump_random_quadratic_fields():
    rng = random.Random(37)
    for d0 in (7, 10, 23, 55, 73, 89):
        f = create_field([-d0, 0, 1])
        pool = enumerate_integral_ideals(f, 15)
        for _ in range(6):
            ideal = rng.choice(pool)
            jumped = lll_jump(f, ideal)
            assert jumped is not None
            # n = 2: C = 2^((n-1)/2) sqrt(n) = 2, exactly C^2 = 4
            assert is_strongly_c_reduced(f, jumped.ideal, CSquared(Fraction(4))).ok


def test_lll_jump_guard_never_false_certificate(f7):
    # a deliberately non-basis vector: J = (1/2) O_F has 1/2, guard refuses
    assert _jump_assemble(f7, unit_ideal(f7), f7.rational(2)) is None


def test_reduce_identity(f7):
    d0 = zero_divisor(f7)
    for c in (1, "sqrt2", 2):
        out, trace = reduce(d0, c)
        assert trace.k == 0
        assert out.ideal == unit_ideal(f7)


def test_reduce_rejects_nonzero_degree(f7):
    with mp.workprec(f7.prec):
        u = ArchVector((mpf(2), mpf(2)), f7.degs, f7.prec)
    with pytest.raises(ValueError):
        reduce(ArakelovDivisor(unit_ideal(f7), u), 2)
    with pytest.raises(ValueError):
        reduce(divisor_d(unit_ideal(f7)), "0.9")


def test_reduce_output_always_certified(f73):
    rng = random.Random(19)
    for c in (1, "sqrt2", 2):
        for _ in range(10):
            d = random_degree_zero_divisor(f73, rng)
            out, trace = reduce(d, c)
            assert is_strongly_c_reduced(f73, out.ideal, c).ok
            if trace.c_squared > 1:
                k_cap = math.log(float(f73.partial_constant())) / \
                    (f73.n / 2 * math.log(float(trace.c_squared)))
                assert trace.k < k_cap
            else:
                assert trace.distance_bound is None


def test_reduce_case1_sum_zero_bound(f73):
    # when no shortest-vector steps happen, || log v ||^2 <= n(n-1) max^2
    rng = random.Random(23)
    seen = 0
    for _ in range(30):
        d = random_degree_zero_divisor(f73, rng, spread=2.0)
        out, trace = reduce(d, "sqrt2")
        if trace.k == 0:
            seen += 1
            lv = trace.v.log()
            vals = [float(x) for x in lv.values]
            assert sum(x * x for x in vals) <= 2 * max(x * x for x in vals) + 1e-18
    assert seen > 0


def test_reduce_lands_in_census_q73(f73):
    census = enumerate_sred(f73, "sqrt2")
    keys = {e.ideal.key() for e in census.entries}
    units = quadratic_units(f73)
    rng = random.Random(29)
    bound = math.log(math.sqrt(73))
    for i in range(50):
        t = rng.uniform(-8.0, 8.0)
        with mp.workprec(f73.prec):
            u = ArchVector((mp.exp(t), mp.exp(-t)), f73.degs, f73.prec)
        d = ArakelovDivisor(unit_ideal(f73), u)
        out, trace = reduce(d, "sqrt2")
        assert out.ideal.key() in keys
        dist = float(min_log_norm_modulo(trace.v.log(), units.log_embeddings()))
        assert dist < bound  # log n / (2 log C) * log dF = log sqrt(73) here


def test_reduce_distance_q7_fractional(f7):
    third = ideal_from_generators(f7, [f7.rational(Fraction(1, 3))])
    d = divisor_d(third)
    out, trace = reduce(d, 2)
    units = quadratic_units(f7)
    dist = float(min_log_norm_modulo(trace.v.log(), units.log_embeddings()))
    assert dist < math.log(math.sqrt(28))
    assert is_strongly_c_reduced(f7, out.ideal, 2).ok


def test_reduction_distance_bound_regimes(f7):
    assert reduction_distance_bound(f7, Fraction(1)) is None
    log_pf = math.log(math.sqrt(28))
    assert abs(float(reduction_distance_bound(f7, Fraction(4))) - log_pf) < 1e-12
    # C = sqrt2 boundary: both regimes agree at log n / log c2 = 1
    assert abs(float(reduction_distance_bound(f7, Fraction(2))) - log_pf) < 1e-12
    val = float(reduction_distance_bound(f7, Fraction(25, 16)))
    assert abs(val - math.log(2) / math.log(25 / 16) * log_pf) < 1e-12


def test_quadratic_units_examples(f7, f73, fi):
    u7 = quadratic_units(f7)
    assert u7.generators[0].coords == (8, 3)
    assert u7.generators[0].norm() == 1
    assert abs(float(u7.regulator()) - math.log(8 + 3 * math.sqrt(7))) < 1e-12
    u73 = quadratic_units(f73)
    assert u73.generators[0].norm() == -1
    assert u73.totally_positive[0] == u73.generators[0] * u73.generators[0]
    assert quadratic_units(fi).rank() == 0
    assert fundamental_unit_is_minimal(7, 8, 3)
    assert fundamental_unit_is_minimal(
        73, int(u73.generators[0].coords[0]), int(u73.generators[0].coords[1])
    )
    # power-basis orders: Z[sqrt5], Z[sqrt28] = Z[2 sqrt7], Z[sqrt45] = Z[3 sqrt5]
    for d, basis, want in ((5, [[1, 0], [0, 1]], (2, 1)), (28, None, (127, 24)),
                           (45, None, (161, 24))):
        eps = quadratic_units(create_field([-d, 0, 1], basis)).generators[0]
        assert eps.coords == want
        assert fundamental_unit_is_minimal(d, *want, w=(0, 1))
    # on {1, -sqrt7} the unit still exceeds 1 where w exceeds its conjugate:
    # 8 + 3 w = 8 - 3 sqrt7 at place 0
    eps = quadratic_units(create_field([-7, 0, 1], [[1, 0], [0, -1]])).generators[0]
    assert eps.coords == (8, 3)


def test_quadratic_units_rejects_other_degrees(f_cubic):
    from arakelov.units import UnitsUnavailable

    with pytest.raises(UnitsUnavailable):
        quadratic_units(f_cubic)


# x^3 - 3x + 1: totally real, Z[theta] maximal, regulator of (theta, theta - 1)
R81 = mpf("0.849287450646192528")


def test_totally_positive_units_span_the_sign_kernel():
    """theta^2 is totally positive and theta - 1 is not, up to sign, so the
    totally positive units of (theta^2, theta - 1) are (theta^2, (theta-1)^2)
    with covolume 2 * 2R: every 2x2 minor over the three places is 4R."""
    f = create_field([1, -3, 0, 1])
    th = f.gen()
    units = unit_lattice_from_elements(f, [th * th, th - f.one()])
    for eps in units.totally_positive:
        assert all(f.sign_at_place(eps, p) > 0 for p in range(3))
    a, b = (v.values for v in units.log_embeddings(tp_only=True))
    with mp.workprec(f.prec):
        for p, q in ((0, 1), (0, 2), (1, 2)):
            assert abs(abs(a[p] * b[q] - a[q] * b[p]) - 4 * R81) < mpf(10) ** -15


def test_tp_regulator_is_the_totally_positive_covolume():
    f = create_field([1, -3, 0, 1])
    th = f.gen()
    units = unit_lattice_from_elements(f, [th, th - f.one()])
    with mp.workprec(f.prec):
        assert abs(units.tp_regulator() - 4 * R81) < mpf(10) ** -15
        assert abs(units.regulator() - R81) < mpf(10) ** -15


def _log_vector(values, degs):
    return LogVector(tuple(mpf(v) for v in values), degs, 128)


def _check_closest(gens, spans, targets):
    lattice = LogLattice(gens)
    floats = [[float(v) for v in g.values] for g in gens]
    degs = gens[0].degs
    for t in targets:
        want = brute_closest_norm([float(v) for v in t.values], floats, degs, spans)
        got = float(lattice.closest_norm(t))
        assert abs(got - want) <= 1e-9 * max(1.0, want)
        assert float(min_log_norm_modulo(t, gens)) == got


@pytest.mark.parametrize("d", [73, 10007])
def test_closest_vector_rank_one_matches_oracle(d):
    f = create_field([-d, 0, 1])
    gens = quadratic_units(f).log_embeddings()
    reg = float(gens[0].values[0])
    rng = random.Random(d)
    targets = [_log_vector((rng.uniform(-20, 20) * reg, rng.uniform(-20, 20) * reg), f.degs)
               for _ in range(30)]
    _check_closest(gens, [40], targets)


def test_closest_vector_rank_two_matches_oracle():
    """x^3 - 3x + 1 with units (theta, theta - 1), and a skewed basis
    g2 = 10 g1 + 0.05 (1, 1, -2) on which rounding the real minimiser
    lands several g1 away from the closest vector."""
    f = create_field([1, -3, 0, 1])
    th = f.gen()
    gens = unit_lattice_from_elements(f, [th, th - f.one()]).log_embeddings()
    rng = random.Random(81)
    targets = [_log_vector([rng.uniform(-8, 8) for _ in range(3)], f.degs)
               for _ in range(20)]
    _check_closest(gens, [30, 30], targets)
    degs = (1, 1, 1)
    g1 = _log_vector((1, -1, 0), degs)
    g2 = _log_vector((10.05, -9.95, -0.1), degs)
    targets = []
    for _ in range(20):  # u g1 + v (g2 - 10 g1) + w (1, 1, 1)
        u, v, w = rng.uniform(-10, 10), rng.uniform(-3, 3), rng.uniform(-1, 1)
        targets.append(_log_vector((u + 0.05 * v + w, -u + 0.05 * v + w, -0.1 * v + w), degs))
    _check_closest([g1, g2], [50, 6], targets)


def _check_pairs_by_bound(gens, points):
    """Every pair i < j comes once, by ascending bound, and no bound exceeds
    the pair's closest_norm; cut at an attained distance as the radius, the
    pairs met hold every pair within it, the boundary pair included."""
    lattice = LogLattice(gens)
    degs = points[0].degs
    floats = [[float(v) for v in g.values] for g in gens]
    got = list(lattice.pairs_by_bound(points))
    m = len(points)
    assert sorted((i, j) for _, i, j in got) == [(i, j) for i in range(m) for j in range(i + 1, m)]
    assert [b for b, _, _ in got] == sorted(b for b, _, _ in got)
    dist = {}
    for bound, i, j in got:
        target = points[i].sub(points[j])
        dist[i, j] = lattice.closest_norm(target)
        assert bound <= dist[i, j]
        want = brute_lattice_distance([float(v) for v in target.values], floats, degs)
        assert abs(float(dist[i, j]) - want) <= 1e-9 * max(1.0, want)
    attained = sorted(dist.values())
    for radius in attained[:3] + attained[3::len(attained) // 5]:
        met = set()
        for bound, i, j in lattice.pairs_by_bound(points):
            if bound > radius:
                break
            met.add((i, j))
        assert {ij for ij, d in dist.items() if d <= radius} <= met


def _random_points(rng, gens, degs, spread, m):
    """m random log vectors, then a copy of one and a copy of another moved
    by a generator, so that some pairs lie at distance zero."""
    points = [_log_vector([rng.uniform(-spread, spread) for _ in degs], degs) for _ in range(m)]
    points.append(points[rng.randrange(m)])
    if gens:
        points.append(points[rng.randrange(m)].add(gens[rng.randrange(len(gens))]))
    return points


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_pairs_by_bound_rank_one(seed):
    f = create_field([-73, 0, 1])
    gens = quadratic_units(f).log_embeddings()
    rng = random.Random(seed)
    reg = float(gens[0].values[0])
    points = _random_points(rng, gens, f.degs, 3 * reg, 14)
    # on the trace-zero line the bound is the distance
    line = [_log_vector((t, -t), f.degs) for t in (rng.uniform(-3, 3) * reg for _ in range(12))]
    _check_pairs_by_bound(gens, points)
    _check_pairs_by_bound(gens, line + line[:2])
    _check_pairs_by_bound([], points)


def test_pairs_by_bound_exact_ties():
    """With g = (1, -1) every coordinate step is exact, so the points t g for
    dyadic t put keys at equal places and half a turn apart: each such pair
    still comes exactly once."""
    degs = (1, 1)
    steps = [0, 1, 0.5, 0.25, 0.75, 1.5, -0.5, 2, 0.25]
    _check_pairs_by_bound([_log_vector((1, -1), degs)],
                          [_log_vector((t, -t), degs) for t in steps])


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_pairs_by_bound_rank_two(seed):
    """The units theta, theta - 1 of x^3 - 3x + 1."""
    f = create_field([1, -3, 0, 1])
    th = f.gen()
    gens = unit_lattice_from_elements(f, [th, th - f.one()]).log_embeddings()
    rng = random.Random(seed)
    _check_pairs_by_bound(gens, _random_points(rng, gens, f.degs, 2, 12))


def test_totally_positive_adjust_uses_unit_products():
    """theta (theta - 1) has signs (+, -, +); no +-g eps_i is totally
    positive, but g * theta * (theta - 1) is."""
    f = create_field([1, -3, 0, 1])
    th = f.gen()
    units = unit_lattice_from_elements(f, [th, th - f.one()])
    g = th * (th - f.one())
    gp = totally_positive_adjust(f, g, units)
    assert gp is not None
    assert all(f.sign_at_place(gp, p) > 0 for p in range(3))
    assert abs((gp / g).norm()) == 1


def test_principal_cycle_lengths(f7, f73):
    assert len(_principal_cycle(f7)) == 4
    assert len(_principal_cycle(f73)) == 9  # the usual-reduced principal count
    assert len(_principal_cycle(create_field([-10007, 0, 1]))) == 60
    # the power-basis orders of OTHER_ORDERS, walked against the oracle in
    # test_reduced_neighbor_matches_oracle
    lengths = [len(_principal_cycle(create_field([-d, 0, 1], basis)))
               for d, basis in ((5, [[1, 0], [0, 1]]), (28, None), (45, None))]
    assert lengths == [1, 4, 6]


@pytest.mark.parametrize("d,basis", _maximal(7, 73, 1009, 10007) + OTHER_ORDERS)
def test_reduced_neighbor_matches_oracle(d, basis):
    """Each step of reduced_cycle, from O and from the reduced ideals of
    J^-1 for the first ideals J of norm > 1, against an exhaustive box
    scan: the oracle's neighbor mu of each entry (J, gamma) divides J into
    the next entry, or back into the start after the last, and
    gamma^-1 gamma_next = mu."""
    f = create_field([-d, 0, 1], basis)
    starts = [unit_ideal(f)] + [
        to_reduced(f, invert(j))[0] for j in enumerate_integral_ideals(f, 12)[1:4]
    ]
    classes = set()
    for start in starts:
        cycle = reduced_cycle(f, start)
        for (j, gam), (j_next, gam_next) in zip(cycle, cycle[1:] + [(start, None)]):
            mu = f.element(brute_reduced_neighbor(f.min_poly, f.basis, j.den, j.hnf))
            assert scale_ideal(j, mu.inverse()) == j_next
            assert gam_next is None or gam * mu == gam_next
        classes.add(principal_generator(f, start) is not None)
    if d == 1009:
        assert classes == {True, False}  # a non-principal cycle is walked too


def test_reduced_cycle_rejects_unreduced_start(f73):
    o = unit_ideal(f73)
    for q in (2, 3):  # q*O misses 1
        with pytest.raises(ValueError, match="not reduced"):
            reduced_cycle(f73, scale_ideal(o, f73.rational(q)))
    # 1 is primitive in x^-1 O for x = 2 + sqrt73 = 1 + 2(1 + sqrt73)/2, but
    # not minimal: 1/x is smaller at both places
    x = f73.element([Fraction(1), Fraction(2)])
    with pytest.raises(ValueError, match="not reduced"):
        reduced_cycle(f73, scale_ideal(o, x.inverse()))


def test_principal_generator_roundtrip(f7, f73):
    rng = random.Random(43)
    for field in (f7, f73):
        for _ in range(10):
            num = rng.randint(1, 9)
            den = rng.randint(1, 9)
            g0 = field.element([Fraction(num, den), Fraction(rng.randint(-3, 3))])
            if g0.is_zero():
                continue
            q = ideal_from_generators(field, [g0])
            g = principal_generator(field, q)
            assert g is not None
            assert ideal_from_generators(field, [g]) == q


def test_principal_generator_detects_nonprincipal(f79):
    # class number three: the norm-3 prime above 3 is not principal
    p3 = next(
        i for i in enumerate_integral_ideals(f79, 3) if int(ideal_norm(i)) == 3
    )
    assert principal_generator(f79, p3) is None


def test_pic_distance_examples(f7):
    units = quadratic_units(f7)
    base = divisor_d(unit_ideal(f7))
    with mp.workprec(f7.prec):
        u = ArchVector((mp.exp(mpf("0.3")), mp.exp(-mpf("0.3"))), f7.degs, f7.prec)
    d1 = ArakelovDivisor(unit_ideal(f7), u)
    assert abs(float(pic_distance(d1, base, units)) - 0.3 * math.sqrt(2)) < 1e-12
    assert float(pic_distance(d1, d1, units)) < 1e-25
    r = units.regulator()
    with mp.workprec(f7.prec):
        ur = ArchVector((mp.exp(r), mp.exp(-r)), f7.degs, f7.prec)
    assert float(pic_distance(ArakelovDivisor(unit_ideal(f7), ur), base, units)) < 1e-25


def test_pic_distance_none_across_classes(f79):
    from arakelov.units import unit_lattice_from_elements

    units = quadratic_units(f79)
    p3 = next(
        i for i in enumerate_integral_ideals(f79, 3) if int(ideal_norm(i)) == 3
    )
    assert pic_distance(divisor_d(p3), divisor_d(unit_ideal(f79)), units) is None


def test_pic_distance_pseudometric(f73):
    units = quadratic_units(f73)
    rng = random.Random(47)
    divisors = []
    for _ in range(6):
        t = rng.uniform(-3, 3)
        with mp.workprec(f73.prec):
            u = ArchVector((mp.exp(t), mp.exp(-t)), f73.degs, f73.prec)
        divisors.append(ArakelovDivisor(unit_ideal(f73), u))
    dist = {}
    for a in range(len(divisors)):
        for b in range(len(divisors)):
            dist[a, b] = float(pic_distance(divisors[a], divisors[b], units))
    for a in range(len(divisors)):
        assert dist[a, a] < 1e-25
        for b in range(len(divisors)):
            assert abs(dist[a, b] - dist[b, a]) < 1e-9
            for c in range(len(divisors)):
                assert dist[a, c] <= dist[a, b] + dist[b, c] + 1e-9


def test_oriented_distance_dominates_pic(f73):
    units = quadratic_units(f73)
    rng = random.Random(53)
    for _ in range(10):
        t1, t2 = rng.uniform(-3, 3), rng.uniform(-3, 3)
        with mp.workprec(f73.prec):
            u1 = ArchVector((mp.exp(t1), mp.exp(-t1)), f73.degs, f73.prec)
            u2 = ArchVector((mp.exp(t2), mp.exp(-t2)), f73.degs, f73.prec)
        d1 = ArakelovDivisor(unit_ideal(f73), u1)
        d2 = ArakelovDivisor(unit_ideal(f73), u2)
        p = pic_distance(d1, d2, units)
        o = oriented_distance(d1, d2, units)
        assert o is not None
        assert float(o) >= float(p) - 1e-12  # minimising over fewer units


def test_oriented_distance_narrow_gate(f7):
    units = quadratic_units(f7)
    # sqrt7 * O_F and O_F: generator sqrt7 has signs (+,-), not adjustable
    root = f7.element([0, 1])
    q = ideal_from_generators(f7, [root])
    d1, d2 = divisor_d(q), divisor_d(unit_ideal(f7))
    assert pic_distance(d1, d2, units) is not None
    assert oriented_distance(d1, d2, units) is None


def test_pic_distance_imaginary_quadratic(fi):
    units = quadratic_units(fi)
    d1 = divisor_d(unit_ideal(fi))
    g = fi.element([2, 1])
    d2 = divisor_d(ideal_from_generators(fi, [g]))
    dist = pic_distance(d1, d2, units)
    assert dist is not None and float(dist) < 1e-25  # rank-zero torus
