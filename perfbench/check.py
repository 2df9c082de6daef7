#!/usr/bin/env python3
"""Checks around the benchmark command in BENCHMARK.json.

Run from the repository root:

  python3 perfbench/check.py spread   --workload W --seeds 1,2,3,4,5
  python3 perfbench/check.py overhead --workload W --seed 1
  python3 perfbench/check.py inject   --workload W --seeds 1,2,3 [--slowdown 0.3]

spread    runs the workload once per seed and prints, per end-to-end metric,
          the median and the spread (inter-quartile distance over median).
overhead  runs one seed untraced and traced, prints the traced run's
          end-to-end numbers minus the untraced run's, and checks that the
          quality results are bit-identical between the two.
inject    alternates runs without and with the evaluator slowdown and
          reports, per end-to-end metric, how far the slowed median moved
          against the metric's bound.
"""

import argparse
import json
import statistics
import subprocess
import sys

SPEC = json.load(open("BENCHMARK.json"))
BOUNDS = {m["name"]: m for m in SPEC["end_to_end"]}


def run(workload, seed, trace, seconds, extra=()):
    cmd = SPEC["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), *extra,
    ]
    out = subprocess.run(cmd, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {"correct": False}
    if out.returncode != 0 or not result.get("correct"):
        sys.exit(f"run failed ({' '.join(cmd)}):\n{out.stdout[-3000:]}{out.stderr[-3000:]}")
    tagged = {}
    for line in lines[:-1]:
        tag, _, rest = line.partition(" ")
        if tag in ("host", "quality", "traced_e2e"):
            tagged[tag] = json.loads(rest)
    values = {k: v["value"] for k, v in result["metrics"].items()}
    return values, tagged


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def cmd_spread(a):
    per_metric = {}
    for seed in a.seeds:
        values, tagged = run(a.workload, seed, 0, a.seconds)
        timings = " ".join(f"{k} {v:.6g}" for k, v in sorted(values.items())
                           if BOUNDS[k]["bound"] > 0.05)
        print(f"seed {seed}: calibration_ms {tagged['host']['calibration_ms']} {timings}", flush=True)
        for k, v in values.items():
            per_metric.setdefault(k, []).append(v)
    for k, vs in sorted(per_metric.items()):
        bound = BOUNDS[k]["bound"]
        s = spread(vs)
        print(f"{k:22s} median {statistics.median(vs):14.6g} spread {s:7.4f} "
              f"bound {bound:5.2f} {'ok' if s <= bound / 3 else 'WIDE'}")


def cmd_overhead(a):
    untraced, u_tags = run(a.workload, a.seed, 0, a.seconds)
    _, t_tags = run(a.workload, a.seed, 1, a.seconds)
    traced = {k: v["value"] for k, v in t_tags["traced_e2e"].items()}
    print(f"{a.workload} seed {a.seed}: traced minus untraced")
    for k in sorted(untraced):
        d = traced[k] - untraced[k]
        print(f"  {k:22s} {untraced[k]:14.6g} -> {traced[k]:14.6g}  diff {d:+.6g} ({d / untraced[k]:+.2%})")
    same = u_tags["quality"] == t_tags["quality"]
    print(f"  quality digests {'identical' if same else 'DIFFER'}: "
          f"{u_tags['quality']} vs {t_tags['quality']}")
    if not same:
        sys.exit(1)


def cmd_inject(a):
    clean, slowed = {}, {}
    for i, seed in enumerate(a.seeds):
        # Alternate which side runs first, so host drift cancels.
        order = [(clean, ()), (slowed, ("--inject-eval-slowdown", str(a.slowdown)))]
        for side, extra in order if i % 2 == 0 else order[::-1]:
            values, _ = run(a.workload, seed, 0, a.seconds, extra)
            for k, v in values.items():
                side.setdefault(k, []).append(v)
        print(f"seed {seed} done", flush=True)
    print(f"{a.workload}: evaluator slowed by {a.slowdown:.0%}, {len(a.seeds)} runs per side")
    for k in sorted(clean):
        m = BOUNDS[k]
        c, s = statistics.median(clean[k]), statistics.median(slowed[k])
        worse = (s - c) / c if m["better"] == "lower" else (c - s) / c
        verdict = "CAUGHT" if worse > m["bound"] else "within bound"
        print(f"  {k:22s} clean {c:14.6g} slowed {s:14.6g} worse by {worse:+.2%} "
              f"(bound {m['bound']:.0%}): {verdict}")


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    for name in ("spread", "overhead", "inject"):
        s = sub.add_parser(name)
        s.add_argument("--workload", required=True)
        s.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
        if name == "overhead":
            s.add_argument("--seed", type=int, default=1)
        else:
            s.add_argument("--seeds", type=lambda v: [int(x) for x in v.split(",")], default=[1, 2, 3])
        if name == "inject":
            s.add_argument("--slowdown", type=float, default=0.3)
    a = p.parse_args()
    {"spread": cmd_spread, "overhead": cmd_overhead, "inject": cmd_inject}[a.cmd](a)


if __name__ == "__main__":
    main()
