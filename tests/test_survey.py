import contextlib
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath import mp, mpf

import arakelov
from arakelov import divisors, survey
from arakelov.divisors import is_strongly_c_reduced, principal_generator, quadratic_units
from arakelov.ideals import (
    FractionalIdeal,
    enumerate_integral_ideals,
    ideal_norm,
    invert,
    scale_ideal,
    unit_ideal,
)
from arakelov.numfield import create_field
from arakelov.survey import (
    CensusEntry,
    DeskScaleExceeded,
    classify_components,
    cycle_length,
    cycle_positions,
    enumerate_sred,
    separation_delta,
    sred_norm_bound,
    verify_counts,
    verify_separation,
)
from arakelov.units import (
    LogLattice,
    _sign_vector,
    totally_positive_adjust,
    unit_lattice_from_elements,
)
from conftest import OTHER_ORDERS, conjugate_ideal, maximal_orders
from oracles import brute_census, brute_pair_stage


def test_sred_norm_bound_exact(f73, f7, fi):
    assert sred_norm_bound(f73, Fraction(2)) == 17  # floor(2 sqrt 73)
    assert sred_norm_bound(f7, Fraction(4)) == 21   # floor(4 sqrt 28)
    assert sred_norm_bound(fi, Fraction(1)) == 1    # floor(4/pi)


def test_census_q73_headline(f73):
    census = enumerate_sred(f73, "sqrt2")
    assert len(census) == 11
    assert sum(1 for e in census.entries if e.usual_reduced) == 9
    # every inverse norm obeys the completeness bound, re-checked exactly
    for e in census.entries:
        inv_n = ideal_norm(invert(e.ideal))
        assert inv_n.denominator == 1
        assert inv_n ** 2 <= census.c_squared ** 2 * abs(f73.disc)


def test_census_unit_point_always_present(f7, f73):
    for field in (f7, f73):
        census = enumerate_sred(field, 1)
        assert any(e.ideal == unit_ideal(field) for e in census.entries)


def test_census_monotone_in_c(f73):
    k1 = {e.ideal.key() for e in enumerate_sred(f73, 1).entries}
    ks = {e.ideal.key() for e in enumerate_sred(f73, "sqrt2").entries}
    k2 = {e.ideal.key() for e in enumerate_sred(f73, 2).entries}
    assert k1 <= ks <= k2


def test_census_matches_bruteforce_oracle():
    for d0, c in ((7, Fraction(1)), (7, Fraction(2)), (73, Fraction(2)),
                  (13, Fraction(2)), (40, Fraction(1))):
        # c here is C^2 (exact); oracle takes it the same way
        f = create_field([-d0, 0, 1])
        from arakelov.divisors import CSquared

        census = enumerate_sred(f, CSquared(c))
        keys = set()
        for e in census.entries:
            j = invert(e.ideal)
            keys.add((int(j.norm()), j.hnf[0][0], j.hnf[0][1], j.hnf[1][1]))
        assert keys == brute_census(d0, c), (d0, c)


def test_census_entries_all_certified(f73):
    census = enumerate_sred(f73, "sqrt2")
    from arakelov.divisors import CSquared

    for e in census.entries:
        assert is_strongly_c_reduced(f73, e.ideal, CSquared(census.c_squared)).ok


def test_census_galois_symmetry(f73, f7):
    for field in (f7, f73):
        census = enumerate_sred(field, "sqrt2")
        keys = {e.ideal.key() for e in census.entries}
        conj_keys = {conjugate_ideal(e.ideal).key() for e in census.entries}
        assert keys == conj_keys


def test_census_path_imports_no_sympy():
    """The census factors minimal polynomials mod p in-house: importing
    sympy would more than double the resident memory of a census run
    (about 21 MB to 50 MB with CPython 3.11)."""
    code = (
        "import sys\n"
        "import arakelov\n"
        "from arakelov.numfield import create_field\n"
        "from arakelov.survey import enumerate_sred\n"
        "enumerate_sred(create_field([-3, -1, 0, 1]), 'sqrt2')\n"
        "enumerate_sred(create_field([-10007, 0, 1]), 'sqrt2')\n"
        "assert 'sympy' not in sys.modules, 'sympy was imported'\n"
    )
    src = str(Path(arakelov.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr


def test_desk_scale_refusal():
    f = create_field([-197, 0, 1])
    with pytest.raises(DeskScaleExceeded):
        enumerate_sred(f, 12)


def test_classification_q73_principal(f73):
    units = quadratic_units(f73)
    census = classify_components(enumerate_sred(f73, "sqrt2"), units)
    assert {e.class_tag for e in census.entries} == {"principal"}
    assert len({e.narrow_tag for e in census.entries}) == 1


def _class_representative(f, tag):
    """The ideal a class tag names: O for the principal class, else the
    ideal whose key() the tag spells."""
    if tag == "principal":
        return unit_ideal(f)
    den, *h = (int(x) for x in tag[len("cls"):].split(":"))
    return FractionalIdeal(f, den, tuple(tuple(h[i:i + f.n]) for i in range(0, len(h), f.n)))


@pytest.mark.parametrize("d,basis", maximal_orders(73, 79, 1009) + OTHER_ORDERS)
def test_classification_generators_match_representatives(d, basis):
    """Every entry's ideal is its generator times its class representative,
    and the narrow tag says whether the generator has a totally positive
    associate."""
    f = create_field([-d, 0, 1], basis)
    units = quadratic_units(f)
    census = classify_components(enumerate_sred(f, "sqrt2" if d == 73 else 2), units)
    assert census.entries
    for e in census.entries:
        assert scale_ideal(_class_representative(f, e.class_tag), e.generator) == e.ideal
        tp = totally_positive_adjust(f, e.generator, units) is not None
        assert e.narrow_tag == e.class_tag + ("|tp" if tp else "|ntp")
    if d in (79, 1009):
        assert len({e.class_tag for e in census.entries}) > 1


def test_classification_q79_three_classes(monkeypatch):
    """Q(sqrt79) has class number three. The classification walks one cycle
    per class, the principal one included, and principal_generator reads
    the same registry, so it walks none."""
    f79 = create_field([-79, 0, 1])
    walks = []
    monkeypatch.setattr(divisors, "cf_cycle", _counting(walks, divisors.cf_cycle))
    units = quadratic_units(f79)
    census = classify_components(enumerate_sred(f79, "sqrt2"), units)
    tags = {e.class_tag for e in census.entries}
    assert len(tags) == 3
    assert "principal" in tags
    assert len(walks) == 3
    for e in census.entries:
        assert (principal_generator(f79, e.ideal) is not None) == (e.class_tag == "principal")
    assert len(walks) == 3


def test_classification_q7_narrow_split(f7):
    units = quadratic_units(f7)
    census = classify_components(enumerate_sred(f7, 2), units)
    narrow = {e.narrow_tag for e in census.entries}
    assert len(narrow) == 2  # N(eps) = +1 doubles the narrow class count


def test_cycle_positions_q73(f73):
    units = quadratic_units(f73)
    census = classify_components(enumerate_sred(f73, "sqrt2"), units)
    pos = cycle_positions(census, units)
    assert len(pos) == 11
    ell = float(cycle_length(units))
    vals = sorted(float(p) for _, p in pos)
    assert abs(vals[0]) < 1e-25  # d(O_F) at zero
    assert all(0 <= v < ell for v in vals)
    mirrored = sorted((ell - v) % ell for v in vals)
    assert all(abs(a - b) < 1e-9 for a, b in zip(vals, mirrored))
    # usual-reduced entries sit at pairwise distinct positions
    reduced_pos = sorted(
        float(p) for e, p in pos if e.usual_reduced
    )
    assert all(b - a > 1e-9 for a, b in zip(reduced_pos, reduced_pos[1:]))


def test_separation_q73(f73):
    units = quadratic_units(f73)
    census = classify_components(enumerate_sred(f73, "sqrt2"), units)
    rep = verify_separation(census, "sqrt2", units)
    delta = math.log(1 + math.sqrt(3) / 4)
    assert abs(float(rep["delta"]) - delta) < 1e-12
    assert rep["pairs"] == 55
    assert rep["ok"]
    assert float(rep["min_gap"]) >= delta - 1e-9


def test_separation_q7_c2(f7):
    units = quadratic_units(f7)
    census = classify_components(enumerate_sred(f7, 2), units)
    rep = verify_separation(census, 2, units)
    assert abs(float(rep["delta"]) - math.log(1 + math.sqrt(3) / 8)) < 1e-12
    assert rep["ok"]


def test_separation_singleton_vacuous(fi, f_cubic):
    """A one-entry census has no pair. Fields that are not real quadratic
    are refused: Q(i) would report its two entries at C=2 as a violating
    pair (the torus factor of the oriented group is ignored), and the
    census of x^3 - 2 is never classified, so it would pass vacuously."""
    f2 = create_field([-2, 0, 1])
    units = quadratic_units(f2)
    census = classify_components(enumerate_sred(f2, 1), units)
    assert len(census.entries) == 1
    rep = verify_separation(census, 1, units)
    assert rep["pairs"] == 0 and rep["ok"]
    th = f_cubic.gen()
    cubic_units = unit_lattice_from_elements(f_cubic, [th * th + th + f_cubic.one()])
    for f, units in ((fi, quadratic_units(fi)), (f_cubic, cubic_units)):
        with pytest.raises(ValueError, match="real quadratic"):
            verify_separation(enumerate_sred(f, 2), 2, units)


def test_separation_rejects_mismatched_c(f73):
    units = quadratic_units(f73)
    census = enumerate_sred(f73, "sqrt2")
    with pytest.raises(ValueError):
        verify_separation(census, 2, units)


def test_counts_q73(f73):
    units = quadratic_units(f73)
    census = classify_components(enumerate_sred(f73, "sqrt2"), units)
    rep = verify_counts(census, units)
    assert rep["count"] == 11
    assert rep["narrow_classes"] == 1
    # volume = h+ * sqrt2 * (2 R) since the fundamental unit has norm -1
    expect = math.sqrt(2) * 2 * float(units.regulator())
    assert abs(float(rep["volume"]) - expect) < 1e-9
    assert rep["ok"] and rep["ok_coarse"]
    assert rep["max_unit_ball"] <= float(rep["bounds"]["sqrt3"]["ball_bound"])


def test_counts_q7(f7):
    units = quadratic_units(f7)
    for c in ("sqrt2", 2):
        census = classify_components(enumerate_sred(f7, c), units)
        rep = verify_counts(census, units)
        assert rep["ok"], rep
        assert rep["bounds"]["sqrt3"]["sred_bound"] > 0
        assert rep["bounds"]["3"]["sred_bound"] > 0


def test_prop_inverse_norm_bound_over_census(f7, f73):
    # strongly C-reduced d(I) forces integral I^{-1} with bounded norm
    for field in (f7, f73):
        for c in (1, "sqrt2", 2):
            census = enumerate_sred(field, c)
            for e in census.entries:
                j = invert(e.ideal)
                assert j.den == 1
                assert ideal_norm(j) ** 2 <= census.c_squared ** field.n * abs(field.disc)


def test_separation_delta_constants():
    d_fine = float(separation_delta(Fraction(2), 64))
    d_coarse = float(separation_delta(Fraction(2), 64, coarse=True))
    assert abs(d_fine - math.log(1 + math.sqrt(3) / 4)) < 1e-12
    assert abs(d_coarse - math.log(1 + 3 / 4)) < 1e-12
    assert d_coarse > d_fine


def _floats(v):
    return [float(x) for x in v.values]


def _oracle_pair_stage(f, census, units, delta):
    entries = [(e.narrow_tag, e.class_tag, _sign_vector(f, e.generator),
                _floats(e.log_position)) for e in census.entries]
    return brute_pair_stage(entries, [_floats(v) for v in units.log_embeddings()],
                            [_sign_vector(f, u) for u in units.generators],
                            [_floats(v) for v in units.log_embeddings(tp_only=True)],
                            f.degs, delta)


def _violating_indices(census, rep):
    index = {e.ideal.key(): k for k, e in enumerate(census.entries)}
    return [(index[e1.ideal.key()], index[e2.ideal.key()]) for e1, e2, _ in rep["violations"]]


@pytest.mark.parametrize("poly,c", [([-73, 0, 1], "sqrt2"), ([-79, 0, 1], 3),
                                    ([-1009, 0, 1], 2), ([-4909, 0, 1], 2)])
def test_pair_stage_matches_all_pairs_oracle(poly, c, monkeypatch):
    """verify_separation and verify_counts run closest-vector searches only
    on the pairs a lower bound leaves open; every pair scanned by the
    oracle gives the same pair count, least gap, violations and unit-ball
    counts."""
    f = create_field(poly)
    units = quadratic_units(f)
    census = classify_components(enumerate_sred(f, c), units)
    rep = verify_separation(census, c, units)
    want = _oracle_pair_stage(f, census, units, float(rep["delta"]))
    assert rep["pairs"] == want["pairs"]
    assert abs(float(rep["min_gap"]) - want["min_gap"]) <= 1e-9
    assert _violating_indices(census, rep) == want["violations"]
    assert verify_counts(census, units)["max_unit_ball"] == max(want["ball_counts"])
    # a threshold inside the spread of the gaps, clear of every gap,
    # makes the nearer third of the pairs violations, in pair order
    gaps = sorted(set(want["gaps"].values()))
    k = next(k for k in range(len(gaps) // 3, len(gaps) - 1)
             if gaps[k + 1] - gaps[k] > 1e-6)
    raised = (gaps[k] + gaps[k + 1]) / 2
    real = survey.separation_delta
    monkeypatch.setattr(survey, "separation_delta", lambda c2, prec=64, coarse=False:
                        real(c2, prec, coarse) if coarse else mpf(raised))
    rep = verify_separation(census, c, units)
    want = _oracle_pair_stage(f, census, units, raised)
    assert len(want["violations"]) > want["pairs"] // 4
    assert _violating_indices(census, rep) == want["violations"]
    assert not rep["ok"]


def test_pair_stage_closest_vector_calls_q1009(monkeypatch):
    """Separation and counts on Q(sqrt 1009) at C=2 (91 entries, 583
    pairs) searched 1,166 closest vectors over all pairs; the lower bound
    leaves at most a fifth of them."""
    f = create_field([-1009, 0, 1])
    units = quadratic_units(f)
    census = classify_components(enumerate_sred(f, 2), units)
    calls = []
    real = LogLattice.closest_norm

    def counted(self, target):
        calls.append(target)
        return real(self, target)

    monkeypatch.setattr(LogLattice, "closest_norm", counted)
    assert verify_separation(census, 2, units)["ok"]
    assert verify_counts(census, units)["ok"]
    assert len(calls) <= 1166 // 5


_CUBE_ROOT_2_SUBORDER = [[1, 0, 0], [0, 2, 0], [0, 0, 2]]  # Z + 2Z[cbrt 2], not Gorenstein
HERMITE_CENSUSES = (
    [pytest.param([-d, 0, 1], None, c, id=f"{d}-{c}") for d in (73, 1009) for c in (1, "sqrt2", 2)]
    + [pytest.param([1, 0, 1], None, 2, id="i-2"), pytest.param([5, 0, 1], None, 2, id="-5-2")]
    # O of Q(sqrt-3) is the hexagonal lattice: Hermite's bound holds with
    # equality, and at C=1 so does lambda_1^2 = n/C^2, which the cut keeps
    + [pytest.param([1, 1, 1], None, c, id=f"-3-{c}") for c in (1, 2)]
    + [pytest.param(p, None, "sqrt2", id=name) for name, p in
       (("x3-2", [-2, 0, 0, 1]), ("x3-x-3", [-3, -1, 0, 1]), ("x3-3x+1", [1, -3, 0, 1]))]
    + [pytest.param([-5, 0, 1], [[1, 0], [0, 1]], 2, id="Z[sqrt5]-2"),
       pytest.param([-45, 0, 1], None, 2, id="x2-45-2"),
       pytest.param([1, 0, 1], [[1, 0], [0, 2]], 2, id="Z[2i]-2"),
       pytest.param([-2, 0, 0, 1], _CUBE_ROOT_2_SUBORDER, "sqrt2", id="Z+2Z[cbrt2]")]
)


@pytest.mark.parametrize("poly,basis,c", HERMITE_CENSUSES)
def test_hermite_cut_keeps_every_entry(poly, basis, c, monkeypatch):
    """The census that skips the inverses Hermite's inequality rules out
    equals the census that tests them all (the cut disabled by a gamma_n^n
    no covolume can undercut)."""
    cut = enumerate_sred(create_field(poly, basis), c)
    monkeypatch.setattr(survey, "hermite_power", lambda n: Fraction(10) ** 100)
    full = enumerate_sred(create_field(poly, basis), c)
    assert cut.entries == full.entries
    assert cut.norm_bound == full.norm_bound


def _counting(calls: list, fn):
    def wrapped(*args):
        calls.append(None)
        return fn(*args)
    return wrapped


def test_hermite_cut_counts_on_benchmark_censuses(monkeypatch):
    """The six benchmark orders are monogenic, so each census lists only
    its Hermite window: 430 integral ideals, whose 291 inverses all need a
    lambda_1 search."""
    listed, inverted, searched = [], [], []

    def listing(f, bound):
        out = enumerate_integral_ideals(f, bound)
        listed.extend(out)
        return out

    monkeypatch.setattr(survey, "enumerate_integral_ideals", listing)
    monkeypatch.setattr(survey, "invert", _counting(inverted, survey.invert))
    monkeypatch.setattr(survey, "is_strongly_c_reduced",
                        _counting(searched, survey.is_strongly_c_reduced))
    for poly, c in (([-73, 0, 1], "sqrt2"), ([-1009, 0, 1], 2), ([-10007, 0, 1], "sqrt2"),
                    ([1, 0, 1], 2), ([-2, 0, 0, 1], "sqrt2"), ([-3, -1, 0, 1], "sqrt2")):
        enumerate_sred(create_field(poly), c)
    assert (len(listed), len(inverted), len(searched)) == (430, 291, 291)


@pytest.mark.parametrize("poly,c,size", [
    pytest.param([-3, -1, 0, 1], 3, 35, id="x3-x-3-3"),
    pytest.param([-1, -1, 0, 0, 1], "sqrt2", 1, id="x4-x-1-sqrt2"),
])
def test_hermite_window_census_matches_the_full_bound(poly, c, size, monkeypatch):
    """Within its Hermite window the census fits under CANDIDATE_CAP, where
    the full norm bound would be refused; it equals the census through the
    full bound, with the cap lifted, that an order not known to be monogenic
    would take."""
    windowed = enumerate_sred(create_field(poly), c)
    monkeypatch.setattr(survey, "_basis_denominator", lambda f: 2)
    with pytest.raises(DeskScaleExceeded):
        enumerate_sred(create_field(poly), c)
    monkeypatch.setattr(survey, "CANDIDATE_CAP", 10 ** 12)
    full = enumerate_sred(create_field(poly), c)
    assert len(windowed) == size
    assert windowed.entries == full.entries
    assert windowed.norm_bound == full.norm_bound


def test_hermite_cut_uses_the_inverses_norm(monkeypatch):
    """In Z + 2Z[cbrt 2] the 16 ideals J of norm <= 40 that are not
    invertible have N((O:J)) = 1/(2 N(J)). The cut reads the covolume of the
    computed inverse, so 70 of the 31-entry census's inverses are searched;
    1/N(J) would overstate it and search 75."""
    searched = []
    monkeypatch.setattr(survey, "is_strongly_c_reduced",
                        _counting(searched, survey.is_strongly_c_reduced))
    census = enumerate_sred(create_field([-2, 0, 0, 1], _CUBE_ROOT_2_SUBORDER), "sqrt2")
    assert (len(census), len(searched)) == (31, 70)


BENCH_FIELDS = Path(__file__).resolve().parent.parent / "perfbench" / "fields"
# (field spec, C, precision) -> (entries, digest) of the classified census
# of each benchmark verify case: every entry's class and narrow tag,
# generator coordinates, sign vector and log position (mpf tuples), in
# census order
ENTRY_DIGESTS = {
    ("q73", "sqrt2", 64): (11, "71df85c806e161ef"),
    ("q73", "sqrt2", 128): (11, "65893b71654a9d68"),
    ("q73", "sqrt2", 200): (11, "4845a4ca9e18b32c"),
    ("q1009", "sqrt2", 64): (51, "c12df1593e553a46"),
    ("q1009", "sqrt2", 128): (51, "e040a9cb44c4a0ad"),
    ("q1009", "sqrt2", 200): (51, "bfbb41ecc3e0a73a"),
    ("q1009", "2", 64): (91, "01887a7c7e5c22ae"),
    ("q1009", "2", 128): (91, "e07759c7a2d8be91"),
    ("q1009", "2", 200): (91, "7f6569c1a8871791"),
    ("q10007", "1", 64): (46, "8925a2c85ec33669"),
    ("q10007", "1", 128): (46, "2a4963d1fee7f636"),
    ("q10007", "1", 200): (46, "c73cd654cd491b90"),
}
BENCH_POLYS = {"q73": [-73, 0, 1], "q1009": [-1009, 0, 1], "q10007": [-10007, 0, 1]}


@pytest.mark.parametrize("name,c,prec", sorted(ENTRY_DIGESTS))
def test_classified_entries_pinned_on_benchmark_cases(name, c, prec):
    """Classification fills each real quadratic entry's tags, generator,
    sign vector and log position bit for bit as pinned; the stored signs
    are those of _sign_vector on the generator."""
    f = create_field(BENCH_POLYS[name], prec=prec)
    census = classify_components(enumerate_sred(f, c), quadratic_units(f))
    rows = []
    for e in census.entries:
        assert e.signs == _sign_vector(f, e.generator)
        rows.append((e.class_tag, e.narrow_tag,
                     tuple((x.numerator, x.denominator) for x in e.generator.coords),
                     e.signs, tuple(v._mpf_ for v in e.log_position.values)))
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()[:16]
    assert (len(rows), digest) == ENTRY_DIGESTS[(name, c, prec)]


@pytest.mark.parametrize("spec,c", [("q1009.json", "2"), ("q10007.json", "1")])
def test_verify_places_each_entry_once(spec, c, monkeypatch):
    """One verify run computes each census entry's sign vector and log
    position once, in the classification (survey._surd_place), and signs
    no generator again: _sign_vector sees only the units."""
    from arakelov.cli import main

    placed, signed = [], []
    place, sign_vector = survey._surd_place, survey._sign_vector

    def count_place(f, gen, norm):
        placed.append(gen)
        return place(f, gen, norm)

    def count_signs(f, x):
        signed.append(x)
        return sign_vector(f, x)

    monkeypatch.setattr(survey, "_surd_place", count_place)
    monkeypatch.setattr(survey, "_sign_vector", count_signs)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["verify", "--field", str(BENCH_FIELDS / spec), "--C", c,
                     "--trials", "0"]) == 0
    count = json.loads(out.getvalue())["census_count"]
    assert count > 0 and len(placed) == count
    f = create_field(BENCH_POLYS[spec.removesuffix(".json")])
    units = quadratic_units(f).generators
    assert signed and all(x.coords in {u.coords for u in units} for x in signed)
