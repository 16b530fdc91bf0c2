"""Run every benchmark workload and print every metric by name with its unit.

    python3 bench/report.py [--seed N] [--seconds S] [--label L] [WORKLOAD ...]

For each workload this runs bench/run.py once untraced and twice traced, one
process at a time. It prints the environment stamp, the end-to-end metrics,
failed_ratio with its base, the per-layer metrics with the end-to-end metric
each should move, self-time shares, whether the predicted bottleneck holds,
and whether the exact counters repeat between the two traced runs. With
--label it also writes bench/out/BENCH_<label>.json.

Exits 1 when any failed_ratio is above 0, a run fails, or a counter differs
between the two traced runs. A bottleneck prediction that does not hold is
reported but does not fail the command.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Callable

from spans import LAYER_METRICS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

Values = dict[str, float]


def _share(v: Values, *names: str) -> float:
    total = sum(v[n] for n, unit, _, _ in LAYER_METRICS if unit == "cal_s" and not n.startswith("trace."))
    return sum(v[n] for n in names) / total


def _largest(v: Values, *names: str) -> bool:
    others = [v[n] for n, unit, _, _ in LAYER_METRICS
              if unit == "cal_s" and not n.startswith("trace.") and n not in names]
    return sum(v[n] for n in names) > max(others)


ORACLE = ("oracle.subset_scan_s", "oracle.profile_s", "oracle.family_s", "oracle.mid_s", "oracle.mu_exact_s")

# The bottleneck each workload was built to load, as checks on its traced
# per-layer metrics.
PREDICTIONS: dict[str, list[tuple[str, Callable[[Values], bool]]]] = {
    "sparse-critical": [
        ("critical.greedy_s + critical.diadem_s is the largest self time",
         lambda v: _largest(v, "critical.greedy_s", "critical.diadem_s")),
        ("no oracle span", lambda v: not any(v[n] for n in ORACLE)),
    ],
    "sparse-forest": [
        ("matching.blossom_s is the largest self time", lambda v: _largest(v, "matching.blossom_s")),
        ("no oracle span", lambda v: not any(v[n] for n in ORACLE)),
    ],
    "dense-matched": [
        ("graph.parse_s + critical.double_s + matching.hk_s + critical.structure_s > 50%",
         lambda v: _share(v, "graph.parse_s", "critical.double_s", "matching.hk_s", "critical.structure_s") > 0.5),
        ("no oracle span", lambda v: not any(v[n] for n in ORACLE)),
    ],
    "verify-corpus": [
        ("oracle.* spans > 50%", lambda v: _share(v, *ORACLE) > 0.5),
        ("oracle.subset_scan_s leads the oracle spans",
         lambda v: v["oracle.subset_scan_s"] == max(v[n] for n in ORACLE)),
    ],
}


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[list[str], dict[str, Any]]:
    """One benchmark process; returns its output lines and its result object."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: {' '.join(cmd)} exited {proc.returncode}")
    return lines, json.loads(lines[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--label", help="also write bench/out/BENCH_<label>.json")
    parser.add_argument("workloads", nargs="*", metavar="WORKLOAD", help=f"default: {' '.join(names)}")
    args = parser.parse_args()
    for name in args.workloads:
        if name not in names:
            parser.error(f"unknown workload {name!r}; choose from {names}")

    layer_info = {name: (moves, where) for name, _, moves, where in LAYER_METRICS}
    ok = True
    results: dict[str, Any] = {}
    for w in spec["workloads"]:
        name = w["name"]
        if args.workloads and name not in args.workloads:
            continue
        lines, e2e = run(name, args.seed, args.seconds, 0)
        traced = [run(name, args.seed, args.seconds, 1) for _ in range(2)]
        env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
        print(f"== {name}: {w['why']}")
        print(f"   env {json.dumps(env)}")
        for line in lines[:-1]:
            if not line.startswith("env "):
                print(f"   {line}")
        for m in spec["end_to_end"]:
            got = e2e["metrics"][m["name"]]
            print(f"   {m['name']:28s} {got['value']:.6g} {got['unit']}  (bound {m['bound']:.0%}, {m['better']} is better)")
        failed_ratio = e2e["failed"] / e2e["attempted"]
        print(f"   {'failed_ratio':28s} {failed_ratio:.6g}  ({e2e['failed']} failed of {e2e['attempted']} attempted)")

        values = {k: v["value"] for k, v in traced[0][1]["metrics"].items()}
        print("   per layer (traced run 1):")
        for m in spec["per_layer"]:
            moves, where = layer_info[m["name"]]
            role = f"moves {moves} on {where}" if moves != "-" else where
            print(f"   {m['name']:28s} {values[m['name']]:.6g} {m['unit']}  {role}")
        counts = [{k: v["value"] for k, v in t[1]["metrics"].items() if v["unit"] == "count"} for t in traced]
        same = counts[0] == counts[1]
        print(f"   exact counters identical across two traced runs: {same}")
        predictions = [(text, check(values)) for text, check in PREDICTIONS.get(name, [])]
        for text, holds in predictions:
            print(f"   prediction {'holds' if holds else 'DOES NOT HOLD'}: {text}")
        traced_failed = sum(t[1]["failed"] for t in traced)
        ok = ok and failed_ratio == 0 and traced_failed == 0 and same
        results[name] = {"env": env, "end_to_end": e2e, "failed_ratio": failed_ratio,
                         "per_layer": [t[1] for t in traced], "counters_identical": same,
                         "predictions": dict(predictions)}

    if args.label:
        out = BENCH / "out" / f"BENCH_{args.label}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps({"seed": args.seed, "seconds": args.seconds, "workloads": results},
                                  indent=1) + "\n", encoding="utf-8")
        print(f"wrote {out.relative_to(ROOT)}")
    print("ok" if ok else "FAILED: a failed_ratio is above 0, a run failed or a counter differs")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
