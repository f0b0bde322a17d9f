import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from mpmath import mpf

import arakelov.ideals as ideals_module
from arakelov.ideals import (
    PlainLattice,
    contains,
    enumerate_integral_ideals,
    ideal_from_generators,
    ideal_norm,
    invert,
    multiply,
    one_is_primitive,
    scale_ideal,
    unit_ideal,
)
from arakelov.numfield import create_field
from conftest import conjugate_ideal, random_fractional_ideal
from oracles import brute_ideals_power_basis, cubic_ideal_counts, zeta_coefficient


def test_ideal_from_generators_unit(f7):
    assert ideal_from_generators(f7, [f7.one()]) == unit_ideal(f7)
    assert ideal_norm(unit_ideal(f7)) == 1


def test_ideal_from_generators_q7_module(f7):
    alpha = f7.element([Fraction(1, 4), Fraction(1, 4)])
    i = ideal_from_generators(f7, [f7.one(), alpha])
    assert ideal_norm(i) == Fraction(1, 8)
    assert contains(i, f7.rational(Fraction(1, 2)))


def test_ideal_from_generators_gaussian(fi):
    i = ideal_from_generators(fi, [fi.element([1, 1])])
    assert ideal_norm(i) == 2


def test_ideal_from_generators_rejects_zero(f7):
    with pytest.raises(ValueError):
        ideal_from_generators(f7, [f7.zero()])


def test_multiply_identity_and_gaussian(f7, fi):
    alpha = f7.element([Fraction(1, 4), Fraction(1, 4)])
    i = ideal_from_generators(f7, [f7.one(), alpha])
    assert multiply(i, unit_ideal(f7)) == i
    j = ideal_from_generators(fi, [fi.element([1, 1])])
    assert multiply(j, j) == ideal_from_generators(fi, [fi.rational(2)])


def test_norm_multiplicative_random(f7):
    rng = random.Random(11)
    for _ in range(40):
        a = random_fractional_ideal(f7, rng)
        b = random_fractional_ideal(f7, rng)
        assert ideal_norm(multiply(a, b)) == ideal_norm(a) * ideal_norm(b)


def test_contains_examples(f7):
    assert contains(unit_ideal(f7), f7.one())
    assert not contains(unit_ideal(f7), f7.rational(Fraction(1, 2)))
    alpha = f7.element([Fraction(1, 4), Fraction(1, 4)])
    i = ideal_from_generators(f7, [f7.one(), alpha])
    assert contains(i, f7.rational(Fraction(1, 2)))


def test_one_is_primitive(f7):
    assert one_is_primitive(unit_ideal(f7))
    half = ideal_from_generators(f7, [f7.rational(Fraction(1, 2))])
    assert not one_is_primitive(half)
    alpha = f7.element([Fraction(1, 4), Fraction(1, 4)])
    module = ideal_from_generators(f7, [f7.one(), alpha])
    assert not one_is_primitive(module)  # I cap Q = (1/2) Z
    plain = PlainLattice(f7, (f7.one(), alpha))
    assert one_is_primitive(plain)  # the plain-lattice reading keeps 1 primitive


def test_primitivity_implications(f7):
    rng = random.Random(5)
    for _ in range(30):
        i = random_fractional_ideal(f7, rng)
        if one_is_primitive(i):
            assert contains(i, f7.one())
            bound = 2 * i.den + 2
            assert not any(
                contains(i, f7.rational(Fraction(1, d))) for d in range(2, bound)
            )


def test_invert_roundtrip_random(f7, f73):
    rng = random.Random(7)
    for field in (f7, f73):
        for _ in range(100):
            i = random_fractional_ideal(field, rng)
            inv = invert(i)
            assert multiply(i, inv) == unit_ideal(field)
            assert invert(inv) == i


def test_canonical_hnf_idempotent(f73):
    rng = random.Random(3)
    for _ in range(25):
        i = random_fractional_ideal(f73, rng)
        assert ideal_from_generators(f73, i.basis_elements()) == i


def test_scale_ideal_norm(f7):
    alpha = f7.element([Fraction(1, 4), Fraction(1, 4)])
    i = ideal_from_generators(f7, [f7.one(), alpha])
    k = scale_ideal(i, alpha)
    assert ideal_norm(k) == ideal_norm(i) * abs(alpha.norm())


def test_enumerate_integral_ideals_bound_one(f7, fi):
    assert enumerate_integral_ideals(f7, 1) == [unit_ideal(f7)]
    assert enumerate_integral_ideals(fi, 0.5) == []


@pytest.mark.parametrize("bound", [
    Fraction(10 ** 13 - 1, 10 ** 12),
    9.9999999999999,
    mpf(10) - mpf(2) ** -40,
])
def test_enumerate_floors_the_bound_exactly(fi, bound):
    # just below 10: the norm-10 ideals (1 + i)(2 +- i) are out
    assert enumerate_integral_ideals(fi, bound) == enumerate_integral_ideals(fi, 9)
    assert enumerate_integral_ideals(fi, mpf(10)) == enumerate_integral_ideals(fi, 10)


def test_enumerate_gaussian_bound_five(fi):
    ideals = enumerate_integral_ideals(fi, 5)
    norms = [int(ideal_norm(i)) for i in ideals]
    assert norms == [1, 2, 4, 5, 5]


def test_enumerate_matches_zeta_coefficients(f73):
    ideals = enumerate_integral_ideals(f73, 17)  # 2*sqrt(73) ~ 17.09
    counts = Counter(int(ideal_norm(i)) for i in ideals)
    for m in range(1, 18):
        assert counts.get(m, 0) == zeta_coefficient(73, m)


def test_enumeration_is_sorted_and_unique(f73):
    ideals = enumerate_integral_ideals(f73, 17)
    keys = [(ideal_norm(i), i.key()) for i in ideals]
    assert keys == sorted(keys)
    assert len(set(k for _, k in keys)) == len(keys)


@pytest.mark.parametrize("min_poly, basis, bound", [
    ([-2, 0, 0, 1], None, 40),
    ([-3, -1, 0, 1], None, 40),
    ([-10007, 0, 1], None, 60),
    ([3, 0, 1], [[1, 0], [0, 1]], 60),  # Z[sqrt-3], not maximal
    # theta is not in this order; its norm-25 prime comes from the
    # quadratic factor of x^3 - 2 mod 5
    ([-2, 0, 0, 1], [[1, 0, 0], [0, 2, 0], [0, 0, 2]], 30),
    ([-3, -1, 0, 1], None, 50),  # a norm-49 prime above 7
])
def test_enumerate_matches_power_basis_oracle(min_poly, basis, bound):
    expected = brute_ideals_power_basis(min_poly, bound, basis)
    # the bound reaches norms with two distinct prime factors (6, 12, 30, ...)
    assert any(sum(m % p == 0 for p in (2, 3, 5, 7)) >= 2 for m, _ in expected)
    f = create_field(min_poly, integral_basis=basis)
    got = [(int(ideal_norm(i)), i.hnf) for i in enumerate_integral_ideals(f, bound)]
    assert set(got) == set(expected)
    assert got == expected


@pytest.fixture()
def scanned_indices(monkeypatch):
    """The indices enumerate_integral_ideals scans HNFs at, in call order."""
    scanned = []
    real = ideals_module._sublattices_of_index

    def recording(n, m):
        scanned.append(m)
        return real(n, m)

    monkeypatch.setattr(ideals_module, "_sublattices_of_index", recording)
    return scanned


def test_regular_primes_need_no_scan(scanned_indices):
    """Below its discriminant 239, every prime of x^3 - x - 3 is regular:
    its ideals come from factorisations mod p, with no HNF scan."""
    ideals = enumerate_integral_ideals(create_field([-3, -1, 0, 1]), 50)
    assert 49 in [int(ideal_norm(i)) for i in ideals]
    assert scanned_indices == []


def test_quartic_cofactor_falls_back_to_scan(scanned_indices):
    """x^4 - x - 1 has no root mod 2 or mod 3, so the quartic cofactor left
    there is scanned; from 5 on only primes of degree one fit below 24."""
    min_poly = [-1, -1, 0, 0, 1]
    got = [(int(ideal_norm(i)), i.hnf)
           for i in enumerate_integral_ideals(create_field(min_poly), 24)]
    assert scanned_indices == [2, 4, 8, 16, 3, 9]
    assert got == brute_ideals_power_basis(min_poly, 24)


def test_enumerate_matches_cubic_dirichlet_counts():
    # 265 is the census bound of x^3 - x - 3 at C = 3
    f = create_field([-3, -1, 0, 1])
    counts = Counter(int(ideal_norm(i)) for i in enumerate_integral_ideals(f, 265))
    assert counts == cubic_ideal_counts([-3, -1, 0, 1], 265)
    assert sum(counts.values()) == 230


def test_conjugate_ideal_involution(f73):
    rng = random.Random(17)
    for _ in range(20):
        i = random_fractional_ideal(f73, rng)
        assert ideal_norm(conjugate_ideal(i)) == ideal_norm(i)
        assert conjugate_ideal(conjugate_ideal(i)) == i


def test_plain_lattice_membership(f7):
    alpha = f7.element([Fraction(1, 4), Fraction(1, 4)])
    plain = PlainLattice(f7, (f7.one(), alpha))
    assert plain.contains(alpha)
    assert plain.contains(f7.element([Fraction(5, 4), Fraction(1, 4)]))
    assert not plain.contains(f7.rational(Fraction(1, 2)))


@pytest.mark.parametrize("min_poly,basis,bound", [
    ([-10007, 0, 1], None, 120),
    ([-2, 0, 0, 1], None, 40),
    ([-5, 0, 1], [[1, 0], [0, 1]], 60),  # Z[sqrt5], not the maximal order
])
def test_one_primitive_in_inverse_iff_hnf_gcd_is_one(min_poly, basis, bound):
    """For integral J, 1/p lies in J^-1 exactly when J lies in pO: so 1 is
    primitive in J^-1 exactly when the HNF entries of J have gcd 1 (the
    test enumerate_sred runs before inverting)."""
    f = create_field(min_poly, basis)
    seen = set()
    for j in enumerate_integral_ideals(f, bound):
        coprime = math.gcd(*(x for row in j.hnf for x in row)) == 1
        assert one_is_primitive(invert(j)) == coprime, j.key()
        seen.add(coprime)
    assert seen == {True, False}
