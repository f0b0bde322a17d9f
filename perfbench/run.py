"""Benchmark of the arakelov library: one workload, one process, one thread.

    python3 perfbench/run.py --workload census --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 28 --trace 0

Runs from the root of a checkout and imports the library from ``src/``.
A run makes closed-loop passes over the workload's operation list, each op
after the previous one returns: at least two passes, and more while the
next one is expected to end within ``--seconds``. Op times are measured
against the reference clock of ``refclock.py``, in units of a fixed kernel
timed at the same moment, because this host's speed drifts by 15-25% within
a minute. ``wall_ref`` is the median pass; the op percentiles are taken
over each op's median cost, and a failed op counts the time it ran. The
workload is set up twice before the first pass and twice after each pass;
``setup_s`` is the median, in seconds. Every op's output from every pass
then goes through the workload's correctness gate, untimed.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` the library is wrapped by ``tracer.py`` and the last line
carries the per-layer metrics instead (counts from the first pass, times as
the median over passes); the spans and the per-pass layer tables are written
to ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("census", "reduce", "cubic", "verify")
# set-up runs this often before the first pass and again after every
# pass of an untraced run, so that its median spans the whole run
SETUP_REPEATS = 2
# every op is timed at least twice, so a passing slow stretch of the host
# cannot set a workload's figures alone, even when one pass fills the run
MIN_PASSES = 2

END_TO_END = [
    ("wall_ref", "ref"),
    ("op_p50_ref", "ref"),
    ("op_p90_ref", "ref"),
    ("success_rate", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

# (metric, unit): "<traced name>.<calls|self_s|total_s|items-kind>" or a
# derived counter handled in layer_metrics()
PER_LAYER = [
    ("ideals.enumerate_integral_ideals.self_s", "s"),
    ("ideals.candidates", "count"),
    ("ideals.found", "count"),
    ("ideals.hit_ratio", "ratio"),
    ("ideals.invert.calls", "count"),
    ("ideals.invert.self_s", "s"),
    ("ideals.scale_ideal.self_s", "s"),
    ("ideals.multiply.self_s", "s"),
    ("exact.kernel_basis.self_s", "s"),
    ("exact.hnf_with_denominator.self_s", "s"),
    ("lattice.enumerate_quadratic_form.calls", "count"),
    ("lattice.enumerate_quadratic_form.self_s", "s"),
    ("lattice.enumerate_quadratic_form.points", "count"),
    ("lattice.enumerate_box.calls", "count"),
    ("lattice.enumerate_box.self_s", "s"),
    ("lattice.enumerate_box.kept_ratio", "ratio"),
    ("lattice.minimal_element_bounded.self_s", "s"),
    ("exact.floor_minus_c_plus_sqrt.self_s", "s"),
    ("exact.ceil_minus_c_minus_sqrt.self_s", "s"),
    ("lattice.lll_reduce.calls", "count"),
    ("lattice.lll_reduce.self_s", "s"),
    ("lattice.shortest_vector.calls", "count"),
    ("lattice.shortest_vector.self_s", "s"),
    ("lattice.gram_of.calls", "count"),
    ("lattice.gram_of.self_s", "s"),
    ("lattice.GramMatrix.refine.calls", "count"),
    ("lattice.is_minimal.self_s", "s"),
    ("numfield.embed_interval.calls", "count"),
    ("numfield.embed_interval.self_s", "s"),
    ("numfield.embed_interval.escalated", "count"),
    ("numfield.cmp_abs_pair.calls", "count"),
    ("numfield.cmp_abs_pair.self_s", "s"),
    ("numfield.embed.self_s", "s"),
    ("numfield.surd_embed.calls", "count"),
    ("numfield.surd_embed.self_s", "s"),
    ("numfield.cmp_abs_sq.calls", "count"),
    ("numfield.cmp_abs_sq.self_s", "s"),
    ("numfield.sign_at_place.self_s", "s"),
    ("exact.sign_surd.calls", "count"),
    ("exact.sign_surd.self_s", "s"),
    ("divisors.reduce.calls", "count"),
    ("divisors.reduce.self_s", "s"),
    ("divisors.reduce.steps", "count"),
    ("divisors.is_strongly_c_reduced.calls", "count"),
    ("divisors.is_strongly_c_reduced.self_s", "s"),
    ("divisors.to_reduced.self_s", "s"),
    ("divisors.reduced_cycle.self_s", "s"),
    ("divisors.reduced_cycle.total_s", "s"),
    ("divisors.reduced_cycle.length", "count"),
    ("survey.classify_components.self_s", "s"),
    ("survey.cycle_positions.self_s", "s"),
    ("units.min_log_norm_modulo.calls", "count"),
    ("units.min_log_norm_modulo.self_s", "s"),
    ("units.totally_positive_adjust.self_s", "s"),
    ("survey.verify_separation.self_s", "s"),
    ("survey.verify_counts.self_s", "s"),
    ("survey.enumerate_sred.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.wall_s", "s"),
]
_FIELDS = {"calls": "calls", "self_s": "self_s", "total_s": "total_s",
           "points": "items", "steps": "items", "length": "items"}


def quantile(sorted_vals, p: float):
    """Linear interpolation between closest ranks (numpy's default)."""
    pos = p * (len(sorted_vals) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (pos - lo) * (sorted_vals[hi] - sorted_vals[lo])


def run_passes(ops, seconds: float, tracer=None, between=None):
    """Closed-loop passes over ops, at least MIN_PASSES of them, calling
    `between` after each; returns (pass wall times, per-op (start, end) per
    pass, outputs per pass). A failed op keeps the time it ran and its
    exception in place of an output."""
    walls, spans, outputs = [], [], []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.begin_pass()
        op_spans, outs = [], []
        t_pass = time.perf_counter()
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = len(walls) * len(ops) + i
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # counted as a failed op, never fatal
                out = exc
            op_spans.append((t0, time.perf_counter()))
            outs.append(out)
        walls.append(time.perf_counter() - t_pass)
        spans.append(op_spans)
        outputs.append(outs)
        if between is not None:
            between()
        elapsed = time.perf_counter() - start
        if len(walls) >= MIN_PASSES and elapsed + statistics.median(walls) > seconds:
            return walls, spans, outputs


def gate(ops, outputs):
    """(failed count, wrong-output count, first messages) over all passes."""
    failed = wrong = 0
    notes = []
    for outs in outputs:
        for op, out in zip(ops, outs):
            if isinstance(out, Exception):
                failed += 1
                msg = f"{op.label}: raised {type(out).__name__}: {out}"
            else:
                msg = op.check(out)
                if msg is None:
                    continue
                failed += 1
                wrong += 1
                msg = f"{op.label}: {msg}"
            if msg not in notes:
                notes.append(msg)
    return failed, wrong, notes


def end_to_end(clock, spans, failed, attempted, setup_s, rss_mb):
    costs = [[clock.cost(t0, t1)[1] for t0, t1 in op_spans] for op_spans in spans]
    # one figure per op, its median over the passes, so that the percentiles
    # do not shift with the number of passes that fit in the run
    per_op = sorted(statistics.median(op_costs) for op_costs in zip(*costs))
    return {
        "wall_ref": statistics.median(sum(pass_costs) for pass_costs in costs),
        "op_p50_ref": quantile(per_op, 0.5),
        "op_p90_ref": quantile(per_op, 0.9),
        "success_rate": 1 - failed / attempted,
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
    }


def layer_metrics(tracer, walls, count_sublattices) -> dict:
    tables = [tracer.pass_table(k) for k in range(len(tracer.passes))]
    first, extra = tables[0], tracer.passes[0]["extra"]

    def row(name):
        return first.get(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "items": 0})

    candidates = sum(count_sublattices(n, lim, 10 ** 12)
                     for n, lim in extra["candidates_args"])
    found = row("ideals.enumerate_integral_ideals")["items"]
    box = row("lattice.enumerate_box")
    derived = {
        "ideals.candidates": candidates,
        "ideals.found": found,
        "ideals.hit_ratio": found / candidates if candidates else 0.0,
        "lattice.enumerate_box.kept_ratio":
            box["items"] / extra["box_points"] if extra["box_points"] else 0.0,
        "numfield.embed_interval.escalated": extra["escalated"],
        "trace.wall_s": statistics.median(walls),
    }
    out = {}
    for metric, _ in PER_LAYER:
        if metric in derived:
            out[metric] = derived[metric]
            continue
        name, kind = metric.rsplit(".", 1)
        field = _FIELDS[kind]
        if field in ("self_s", "total_s"):
            out[metric] = statistics.median(
                t.get(name, {field: 0.0})[field] for t in tables)
        else:
            out[metric] = row(name)[field]
    return out


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    src = ROOT / "src"
    if not (src / "arakelov" / "__init__.py").is_file():
        raise SystemExit(f"error: no arakelov sources under {src}; "
                         "run from the root of a checkout")
    sys.path.insert(0, str(src))
    import arakelov as A
    import arakelov.cli  # noqa: F401  (not imported by the package)
    import arakelov.serialize  # noqa: F401

    from refclock import RefClock
    from tracer import Tracer
    from workloads import SETUP, load_pins

    pins = load_pins()
    setup_spans = []

    def set_up():
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            ops = SETUP[workload](A, seed, pins)
            setup_spans.append((t0, time.perf_counter()))
        return ops

    ops = set_up()
    if trace:
        tracer = Tracer(A)
        tracer.install()
        try:
            walls, spans, outputs = run_passes(ops, seconds, tracer)
        finally:
            tracer.uninstall()
    else:
        with RefClock() as clock:
            walls, spans, outputs = run_passes(ops, seconds, between=set_up)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted = len(ops) * len(walls)
    failed, wrong, notes = gate(ops, outputs)
    for msg in notes:
        print(f"# {msg}", file=sys.stderr)
    if trace:
        OUT.mkdir(exist_ok=True)
        tracer.write_spans(OUT / f"spans-{workload}.bin")
        with open(OUT / f"layers-{workload}.json", "w", encoding="utf-8") as fh:
            json.dump([tracer.pass_table(k) for k in range(len(walls))], fh, indent=1)
        metrics = layer_metrics(tracer, walls, A.ideals.count_sublattices_up_to)
        units = dict(PER_LAYER)
    else:
        metrics = end_to_end(clock, spans, failed, attempted,
                             statistics.median(clock.cost(*sp)[0] for sp in setup_spans),
                             rss_mb)
        units = dict(END_TO_END)
        print(f"# reference kernel {clock.kernel_ms():.4f} ms; median pass "
              f"{statistics.median(walls):.4f} s")
    print(f"# {workload} seed={seed} passes={len(walls)} ops/pass={len(ops)} "
          f"failed={failed}/{attempted}")
    print("# pass wall_s: " + " ".join(f"{w:.4f}" for w in walls))
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    return {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def run_all(args) -> dict:
    """Each workload in its own process, one after the other."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", w,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            merged["metrics"][f"{w}.{k}"] = v
    return merged


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
