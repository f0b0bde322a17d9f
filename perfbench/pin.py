"""Regenerate ``pins.json``, the expected outputs the correctness gate
compares against, from the library as it stands.

    python3 perfbench/pin.py --seeds 32

Census counts and digests, the census ideals that reductions must land in,
and the verify exit codes and report digests do not depend on the seed.
Reduction traces and strongly-reduced checks do; they are pinned for seeds
0 .. seeds-1, and other seeds are checked by the structural gates alone.
An op that raises is pinned as a known failure, never as an expected output.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import arakelov as A  # noqa: E402
import arakelov.cli  # noqa: E402,F401  (not imported by the package)
import arakelov.serialize  # noqa: E402,F401

import workloads as W  # noqa: E402


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", type=int, default=32)
    args = p.parse_args(argv)

    pins = {"census": {}, "census_keys": {}, "verify": {},
            "traces": {"reduce": {}, "cubic": {}}}
    for label, poly, c in W.CENSUS_OPS:
        census = A.survey.enumerate_sred(A.numfield.create_field(poly), c)
        pins["census"][label] = {"count": len(census), "digest": W.census_digest(census)}
    for name, poly in W.MEMBERSHIP.items():
        census = A.survey.enumerate_sred(A.numfield.create_field(poly), "sqrt2")
        pins["census_keys"][name] = sorted(e.ideal.key() for e in census.entries)

    pins["verify"] = {label: {} for label, _, _ in W.VERIFY_OPS}
    for op in W.setup_verify(A, 0, pins):
        try:
            code, text = op.run()
        except Exception as exc:
            fname, c = next((fn, c) for lb, fn, c in W.VERIFY_OPS if lb == op.label)
            with open(HERE / "fields" / fname, encoding="utf-8") as fh:
                f, _ = A.serialize.load_field(json.load(fh))
            pins["verify"][op.label] = {
                "known_failure": f"{type(exc).__name__}: {exc}",
                "census_count": len(A.survey.enumerate_sred(f, c)),
            }
            print(f"{op.label}: known failure {type(exc).__name__}", file=sys.stderr)
            continue
        pins["verify"][op.label] = {"exit": code, "digest": W.digest(text)}

    for seed in range(args.seeds):
        for workload in ("reduce", "cubic"):
            digests = []
            for op in W.SETUP[workload](A, seed, pins):
                out = op.run()
                msg = op.check(out)
                if msg is not None:
                    raise SystemExit(f"{workload} seed {seed} {op.label}: {msg}")
                digests.append(W.trace_digest(*out) if isinstance(out, tuple)
                               else W.check_digest(out))
            pins["traces"][workload][str(seed)] = digests
        print(f"seed {seed} pinned", file=sys.stderr, flush=True)

    with open(W.PINS_PATH, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
