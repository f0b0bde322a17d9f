import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath import mp, mpf

sys.path.insert(0, str(Path(__file__).parent))

from arakelov.ideals import enumerate_integral_ideals, ideal_from_generators, scale_ideal, unit_ideal
from arakelov.numfield import ArchVector, create_field, fraction_to_mpf


@pytest.fixture()
def field_tmp(tmp_path):
    """Write a field-specification JSON and return its path."""
    import json

    def write(doc, name="field.json"):
        p = tmp_path / name
        p.write_text(json.dumps(doc), encoding="utf-8")
        return str(p)

    return write


@pytest.fixture(scope="session")
def f7():
    return create_field([-7, 0, 1])


@pytest.fixture(scope="session")
def f73():
    return create_field([-73, 0, 1])


@pytest.fixture(scope="session")
def f79():
    return create_field([-79, 0, 1])


@pytest.fixture(scope="session")
def fi():
    return create_field([1, 0, 1])


@pytest.fixture(scope="session")
def f_cubic():
    return create_field([-2, 0, 0, 1])


def conjugate_ideal(i):
    """Image of an ideal of a quadratic field under its nontrivial automorphism."""
    f = i.field
    return ideal_from_generators(f, [f.conjugate(w) for w in i.basis_elements()])


def zero_divisor(f):
    """The trivial divisor d(O_F) = (O_F, 1)."""
    from arakelov.divisors import ArakelovDivisor

    return ArakelovDivisor(unit_ideal(f), ArchVector.constant(1, f.degs, f.prec), d_form=True)


def random_fractional_ideal(f, rng: random.Random, norm_bound: int = 20):
    """Random fractional ideal: integral ideal scaled by a small rational."""
    pool = enumerate_integral_ideals(f, norm_bound)
    ideal = rng.choice(pool)
    num = rng.randint(1, 5)
    den = rng.randint(1, 5)
    return scale_ideal(ideal, f.rational(Fraction(num, den)))


def random_degree_zero_divisor(f, rng: random.Random, norm_bound: int = 20,
                               spread: float = 4.0):
    """Random (I, u) of degree zero: d(I) twisted along the trace-zero line."""
    from arakelov.divisors import ArakelovDivisor

    ideal = random_fractional_ideal(f, rng, norm_bound)
    n_ideal = ideal.norm()
    t = rng.uniform(-spread, spread)
    with mp.workprec(f.prec):
        scale = fraction_to_mpf(n_ideal, f.prec) ** (-mpf(1) / f.n)
        u = ArchVector((scale * mp.exp(t), scale * mp.exp(-t)), f.degs, f.prec)
    return ArakelovDivisor(ideal, u)
