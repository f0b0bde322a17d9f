"""The four benchmark workloads: seeded inputs, the operations, and the
untimed correctness gate for each operation's output.

A workload builds its inputs in ``setup`` (field construction, units and
input generation, all from the seed) and returns a list of ``Op``. Ops look
library functions up through their modules at call time, so the tracer's
wrappers see every call.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from mpmath import mp, mpf

HERE = Path(__file__).resolve().parent
PINS_PATH = HERE / "pins.json"

# (label, min_poly, C) of every census the benchmark runs or checks against
CENSUS_OPS = [
    ("Q(sqrt73) C=sqrt2", [-73, 0, 1], "sqrt2"),
    ("Q(sqrt1009) C=2", [-1009, 0, 1], "2"),
    ("Q(sqrt10007) C=sqrt2", [-10007, 0, 1], "sqrt2"),
    ("Q(i) C=2", [1, 0, 1], "2"),
    ("x^3-2 C=sqrt2", [-2, 0, 0, 1], "sqrt2"),
    ("x^3-x-3 C=sqrt2", [-3, -1, 0, 1], "sqrt2"),
]
# censuses the reductions and checks must land in (all at C = sqrt2)
MEMBERSHIP = {
    "Q(sqrt73)": [-73, 0, 1],
    "Q(sqrt1009)": [-1009, 0, 1],
    "x^3-2": [-2, 0, 0, 1],
    "x^3-x-3": [-3, -1, 0, 1],
}
# units of the cubic fields (norm -1 and 1); a unit of finite index would
# only overstate the reduction distance, never hide a violation
CUBIC_UNITS = {"x^3-2": [-1, 1, 0], "x^3-x-3": [-1, -1, 1]}
VERIFY_OPS = [
    ("verify Q(sqrt73) C=sqrt2", "q73.json", "sqrt2"),
    ("verify Q(sqrt1009) C=sqrt2", "q1009.json", "sqrt2"),
    ("verify Q(sqrt1009) C=2", "q1009.json", "2"),
    ("verify Q(sqrt10007) C=1", "q10007.json", "1"),
]
C2_SQRT2 = Fraction(2)
REDUCE_OPS = 100
REDUCE_T = 8.0
CUBIC_REDUCTIONS = 30
CUBIC_CHECKS = 70
CUBIC_T = 2.0
IDEAL_NORM_CAP = 30


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]  # None when the output is right


def digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _q(x: Fraction):
    return (x.numerator, x.denominator)


def _coords(x):
    return tuple(_q(c) for c in x.coords)


def census_digest(census) -> str:
    rows = sorted((e.inv_norm, e.ideal.den, e.ideal.hnf, _q(e.lambda1_sq))
                  for e in census.entries)
    return digest(rows)


def trace_digest(final, trace) -> str:
    steps = [(_coords(fj), jj.den, jj.hnf, _q(lam)) for fj, jj, lam in trace.steps]
    return digest((_coords(trace.initial_minimal), steps, final.ideal.den,
                   final.ideal.hnf, trace.k))


def check_digest(res) -> str:
    lam = _q(res.lambda1_sq) if res.lambda1_sq is not None else None
    return digest((res.ok, res.primitive, lam, res.witness))


def load_pins() -> dict:
    with open(PINS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _twisted_divisor(A, f, ideal, t: float):
    """Degree-zero divisor (I, u) with u = N(I)^(-1/n) twisted by e^(+-t)."""
    nrm = ideal.norm()
    with mp.workprec(f.prec):
        s = A.numfield.fraction_to_mpf(nrm, f.prec) ** (-mpf(1) / f.n)
        if f.r1 == 2:
            vals = (s * mp.exp(t), s * mp.exp(-t))
        elif f.r1 == 1 and f.r2 == 1:
            vals = (s * mp.exp(2 * t), s * mp.exp(-t))
        else:
            raise ValueError("twists are defined for real quadratic and 1+1 cubic fields")
    return A.divisors.ArakelovDivisor(ideal, A.numfield.ArchVector(vals, f.degs, f.prec))


def _twist_grid(count: int, half_width: float) -> list[float]:
    """Midpoints of `count` equal slices of [-w, w]. Far twists cost
    exponentially more, and with seeded twists the few farthest ops would
    move wall_ref and op_p90_ref by about 15% from seed to seed; on a fixed grid
    the seed picks the ideals' scales and the op order instead."""
    return [-half_width + 2 * half_width * (k + 0.5) / count for k in range(count)]


def _reduce_gate(A, f, units, census_keys, pin):
    bound = A.divisors.reduction_distance_bound(f, C2_SQRT2)

    def check(out):
        final, trace = out
        if final.ideal.key() not in census_keys:
            return "reduced ideal is not in the census"
        dist = A.units.min_log_norm_modulo(trace.v.log(), units.log_embeddings())
        if not dist < bound:
            return f"distance {float(dist)} not below the bound {float(bound)}"
        if pin is not None and trace_digest(final, trace) != pin:
            return "trace digest differs from the pinned one"
        return None
    return check


def _check_gate(f, census_keys, ideal, pin):
    threshold = Fraction(f.n) / C2_SQRT2

    def check(res):
        if res.ok != (ideal.key() in census_keys):
            return "strongly-reduced verdict disagrees with the census"
        if res.primitive and (res.lambda1_sq >= threshold) != res.ok:
            return "verdict disagrees with lambda_1^2 against n/C^2"
        if pin is not None and check_digest(res) != pin:
            return "check digest differs from the pinned one"
        return None
    return check


# ---------------------------------------------------------------------------
# Workloads

def setup_census(A, seed: int, pins: dict) -> list[Op]:
    ops = []
    for label, poly, c in CENSUS_OPS:
        f = A.numfield.create_field(poly)
        ops.append(_census_op(A, label, f, c, pins["census"][label]))
    random.Random(seed).shuffle(ops)
    return ops


def _census_op(A, label, f, c, pin) -> Op:
    return Op(label, lambda: A.survey.enumerate_sred(f, c), _census_gate(f, pin))


def _census_gate(f, pin):
    def check(census):
        if len(census) != pin["count"]:
            return f"census has {len(census)} entries, pinned {pin['count']}"
        if census_digest(census) != pin["digest"]:
            return "census digest differs from the pinned one"
        threshold = Fraction(f.n) / census.c_squared
        for e in census.entries:
            if e.inv_norm > census.norm_bound:
                return "entry beyond the census norm bound"
            if e.lambda1_sq < threshold:
                return "entry with lambda_1^2 below n/C^2"
        return None
    return check


def setup_reduce(A, seed: int, pins: dict) -> list[Op]:
    rng = random.Random(seed)
    specs = []
    for name in ("Q(sqrt73)", "Q(sqrt1009)"):
        f = A.numfield.create_field(MEMBERSHIP[name])
        units = A.units.quadratic_units(f)
        pool = A.ideals.enumerate_integral_ideals(f, IDEAL_NORM_CAP)
        keys = {tuple(k) for k in pins["census_keys"][name]}
        # twist k always meets pool[k % len(pool)]: a far op's cost also
        # depends on its ideal, so a seeded pairing would move the tail too
        for k, t in enumerate(_twist_grid(REDUCE_OPS // 2, REDUCE_T)):
            q = Fraction(rng.randint(1, 6), rng.randint(1, 6))
            ideal = A.ideals.scale_ideal(pool[k % len(pool)], f.rational(q))
            specs.append((name, f, units, keys, ideal, t))
    rng.shuffle(specs)
    trace_pins = pins["traces"]["reduce"].get(str(seed))
    return [_reduction_op(A, *spec, trace_pins[i] if trace_pins else None)
            for i, spec in enumerate(specs)]


def _reduction_op(A, name, f, units, census_keys, ideal, t, pin) -> Op:
    divisor = _twisted_divisor(A, f, ideal, t)
    c = A.divisors.CSquared(C2_SQRT2)
    return Op(f"reduce {name} t={t:+.3f}", lambda: A.divisors.reduce(divisor, c),
              _reduce_gate(A, f, units, census_keys, pin))


def _cubic_pool(A, f, rng: random.Random) -> list:
    """Every ideal (m, theta - r) of norm m <= the cap, r a root of the
    minimal polynomial mod m, built from the seeded generators
    (m, theta - r + m*gamma). The seed moves the generators, not the ideals:
    op cost depends on the ideal, and a seeded pool would move the tails."""
    theta = f.gen()
    pool = {}
    for m in range(2, IDEAL_NORM_CAP + 1):
        for r in range(m):
            if sum(c * r ** i for i, c in enumerate(f.min_poly)) % m:
                continue
            gamma = f.element([rng.randint(-3, 3) for _ in range(f.n)])
            beta = theta - f.rational(r) + gamma * f.rational(m)
            j = A.ideals.ideal_from_generators(f, [f.rational(m), beta])
            pool.setdefault(j.key(), j)
    return [pool[k] for k in sorted(pool)]


def setup_cubic(A, seed: int, pins: dict) -> list[Op]:
    rng = random.Random(seed)
    specs = []
    for name in ("x^3-2", "x^3-x-3"):
        f = A.numfield.create_field(MEMBERSHIP[name])
        units = A.units.unit_lattice_from_elements(f, [f.element(CUBIC_UNITS[name])])
        pool = _cubic_pool(A, f, rng)
        keys = {tuple(k) for k in pins["census_keys"][name]}
        # a fixed count of each kind per field: a check costs about a tenth
        # of a reduction, so a seeded mix would move op_p50_ref between the two
        for k, t in enumerate(_twist_grid(CUBIC_REDUCTIONS // 2, CUBIC_T)):
            q = Fraction(rng.randint(1, 6), rng.randint(1, 6))
            ideal = A.ideals.scale_ideal(pool[k % len(pool)], f.rational(q))
            specs.append((name, f, units, keys, ideal, t))
        for k in range(CUBIC_CHECKS // 2):
            specs.append((name, f, None, keys, A.ideals.invert(pool[k % len(pool)]), None))
    rng.shuffle(specs)
    trace_pins = pins["traces"]["cubic"].get(str(seed))
    out = []
    for i, (name, f, units, keys, ideal, t) in enumerate(specs):
        pin = trace_pins[i] if trace_pins else None
        if t is not None:
            out.append(_reduction_op(A, name, f, units, keys, ideal, t, pin))
        else:
            out.append(_check_op(A, name, f, keys, ideal, pin))
    return out


def _check_op(A, name, f, census_keys, ideal, pin) -> Op:
    c = A.divisors.CSquared(C2_SQRT2)
    return Op(f"check {name} {ideal.key()}",
              lambda: A.divisors.is_strongly_c_reduced(f, ideal, c),
              _check_gate(f, census_keys, ideal, pin))


def setup_verify(A, seed: int, pins: dict) -> list[Op]:
    ops = []
    for label, fname, c in VERIFY_OPS:
        path = HERE / "fields" / fname
        with open(path, encoding="utf-8") as fh:
            A.serialize.load_field(json.load(fh))  # the spec must load
        argv = ["verify", "--field", str(path), "--C", c]
        ops.append(Op(label, _verify_run(A, argv), _verify_gate(pins["verify"][label])))
    random.Random(seed).shuffle(ops)
    return ops


def _verify_run(A, argv):
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = A.cli.main(argv)
        return code, out.getvalue()
    return run


def _verify_gate(pin):
    def check(out):
        code, text = out
        if "census_count" in pin:
            # the op pinned as a known failure has no output to compare with
            # yet; once it runs, its report must at least be well formed
            if code not in (0, 1):
                return f"exit code {code}"
            if json.loads(text)["census_count"] != pin["census_count"]:
                return "census count differs from the pinned one"
            return None
        if code != pin["exit"]:
            return f"exit code {code}, pinned {pin['exit']}"
        if digest(text) != pin["digest"]:
            return "report digest differs from the pinned one"
        return None
    return check


SETUP = {
    "census": setup_census,
    "reduce": setup_reduce,
    "cubic": setup_cubic,
    "verify": setup_verify,
}
