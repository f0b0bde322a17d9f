"""Self-test of the benchmark; exits non-zero on the first failed check.

    python3 perfbench/selftest.py --seeds 0 1

For each seed and workload it makes two traced runs and one untraced run
of a single pass each, then checks that
- every count and ratio from the tracer repeats exactly across the traced runs,
- the expected layer has the largest self time (for ``verify``, the
  reduced-cycle walk counted with its children),
- self times recomputed from the written spans match the tracer's own,
- the correctness gate passed and only the known verify op failed,
and prints the tracing overhead: traced minus untraced median pass time (the
untraced pass includes the reference clock's kernel runs, about 3%).
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

from tracer import read_spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED_TOP = {
    "census": "ideals.enumerate_integral_ideals",
    "reduce": "lattice.enumerate_quadratic_form",
    "cubic": "numfield.embed_interval",
    "verify": "divisors.reduced_cycle",
}
# share of attempted ops that fail: one verify op of four raises at present
EXPECTED_FAILED = {"census": 0, "reduce": 0, "cubic": 0, "verify": Fraction(1, 4)}


class CheckFailed(Exception):
    pass


def run(workload: str, seed: int, trace: int) -> dict:
    """The result line of a two-pass run, with its median raw pass time
    added as "pass_s"."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    walls = next(ln for ln in lines if ln.startswith("# pass wall_s:")).split(":")[1]
    result["pass_s"] = statistics.median(float(w) for w in walls.split())
    return result


def span_self_times(workload: str, first_ops: int, collapse: str | None):
    """Self time per name from the written spans of the first pass (op ids
    below `first_ops`). With `collapse`, every span under a `collapse` span
    is charged to that span instead."""
    names, cols = read_spans(HERE / "out" / f"spans-{workload}.bin")
    dur = [e - s for s, e in zip(cols["start"], cols["end"])]
    child = [0.0] * len(dur)
    inside = [False] * len(dur)
    for i, p in enumerate(cols["parent"]):
        if p >= 0:
            child[p] += dur[i]
            # parents open before their children, so inside[p] is final here
            inside[i] = inside[p] or names[cols["name"][p]] == collapse
    plain, collapsed = defaultdict(float), defaultdict(float)
    for i, nid in enumerate(cols["name"]):
        if cols["op"][i] >= first_ops:
            continue
        name = names[nid]
        plain[name] += dur[i] - child[i]
        if name == collapse and not inside[i]:
            collapsed[name] += dur[i]
        elif not inside[i]:
            collapsed[name] += dur[i] - child[i]
    return plain, collapsed


def check_workload(workload: str, seed: int):
    a, b, plain = run(workload, seed, 1), run(workload, seed, 1), run(workload, seed, 0)
    for res in (a, b, plain):
        share = Fraction(res["failed"], res["attempted"])
        if not res["correct"] or share != EXPECTED_FAILED[workload]:
            raise CheckFailed(f"{workload} seed {seed}: correct={res['correct']} "
                              f"failed={res['failed']}")
    for name, m in a["metrics"].items():
        if m["unit"] in ("count", "ratio") and m["value"] != b["metrics"][name]["value"]:
            raise CheckFailed(f"{workload} seed {seed}: {name} is {m['value']} "
                              f"then {b['metrics'][name]['value']}")

    with open(HERE / "out" / f"layers-{workload}.json", encoding="utf-8") as fh:
        tables = json.load(fh)
    table = tables[0]
    top = EXPECTED_TOP[workload]
    inclusive = workload == "verify"
    # the files are those of the second traced run, b
    from_spans, ranked = span_self_times(workload, b["attempted"] // len(tables),
                                         top if inclusive else None)
    for name, row in table.items():
        if abs(from_spans[name] - row["self_s"]) > 1e-6 * max(1.0, row["self_s"]):
            raise CheckFailed(f"{workload}: span self time of {name} is "
                              f"{from_spans[name]}, tracer says {row['self_s']}")
    rival, rival_s = max(((n, t) for n, t in ranked.items() if n != top),
                         key=lambda nt: nt[1])
    if ranked[top] <= rival_s:
        raise CheckFailed(f"{workload} seed {seed}: {top} has {ranked[top]:.3f} s, "
                          f"{rival} has {rival_s:.3f} s")
    traced, untraced = a["pass_s"], plain["pass_s"]
    print(f"{workload} seed {seed}: ok; top {top} {ranked[top]:.2f} s "
          f"(next {rival} {rival_s:.2f} s); tracing overhead "
          f"{traced - untraced:+.2f} s on {untraced:.2f} s", flush=True)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", type=int, nargs="+", default=[0, 1])
    p.add_argument("--workloads", nargs="+", default=list(EXPECTED_TOP))
    args = p.parse_args(argv)
    try:
        for seed in args.seeds:
            for w in args.workloads:
                check_workload(w, seed)
    except CheckFailed as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
