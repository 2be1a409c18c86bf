#!/usr/bin/env python3
"""Run the benchmark over several seeds and report how steady it is.

For each workload, runs `perfbench/run.sh` once per seed and prints, per
metric, the median of the runs and the spread: the distance between the
first and third quartiles (`statistics.quantiles(values, n=4)`) as a share
of the median. With `--sets 2` it does all of that twice and also prints
each metric's drift: how much worse the second set's median is than the
first's, as a share of the first (negative when it got better).

It checks what the regression gate checks, against the bounds in
BENCHMARK.json: every spread within its metric's bound, except that of
`setup_s`, and every drift within its bound, `setup_s` included. The spread
of `setup_s` is left out because process start-up time on a shared host
varies with what else runs there; the gate holds set-up time to its bound
through the median drift between sets, which is where work moved into
set-up would show.

Optionally writes every set's medians and spreads, the drifts and the
machine stamps of the runs to a JSON file (the recorded baseline).

    python3 perfbench/steadiness.py --seeds 1-10 [--sets 2] [--workloads a,b] \
        [--seconds 20] [--trace 0] [--out perfbench/baseline.json]

Run from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seed_list(spec):
    if "-" in spec:
        lo, hi = spec.split("-")
        return [str(s) for s in range(int(lo), int(hi) + 1)]
    return spec.split(",")


def run_set(workloads, seeds, seconds, trace, bounds):
    """One run per seed and workload; returns (report, within bounds)."""
    report, ok = {}, True
    for w in workloads:
        values, stamps = {}, set()
        for seed in seeds:
            t = time.time()
            cmd = ["bash", "perfbench/run.sh", "--workload", w, "--seed", seed,
                   "--seconds", seconds, "--trace", trace]
            p = subprocess.run(cmd, capture_output=True, text=True)
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines:
                print(f"{w} seed {seed}: exit {p.returncode}\n{p.stderr}", file=sys.stderr)
                ok = False
                continue
            stamps.update(l[len("stamp: "):] for l in lines if l.startswith("stamp: "))
            steal = next((l for l in lines if l.startswith("host steal: ")), "")
            result = json.loads(lines[-1])
            ok &= result["correct"]
            print(f"{w} seed {seed}: correct={result['correct']} {time.time() - t:.1f}s; {steal}",
                  flush=True)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        rows = {}
        for name, v in values.items():
            med = statistics.median(v)
            q = statistics.quantiles(v, n=4) if len(v) >= 2 else [med, med, med]
            spread = (q[2] - q[0]) / med if med else 0.0
            rows[name] = {"median": med, "spread": spread, "runs": len(v)}
            bound = bounds.get(name)
            mark = ""
            if bound is not None and name != "setup_s":
                mark = "ok" if spread <= bound else "OVER BOUND"
                ok &= spread <= bound
            print(f"  {name:<36} median {med:>16.4f}  spread {spread:6.3f}  {mark}")
        report[w] = {"stamps": sorted(stamps), "metrics": rows}
    return report, ok


def drifts(first, second, better):
    """Per workload and metric: how much worse `second`'s median is."""
    out = {}
    for w, rep in second.items():
        for name, row in rep["metrics"].items():
            base = first.get(w, {}).get("metrics", {}).get(name)
            if base is None or not base["median"] or name not in better:
                continue
            change = (row["median"] - base["median"]) / base["median"]
            out.setdefault(w, {})[name] = change if better[name] == "lower" else -change
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seconds", default="")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or str(bench["run_seconds"])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}

    sets, ok = [], True
    for i in range(args.sets):
        print(f"== set {i + 1} of {args.sets}", flush=True)
        report, set_ok = run_set(workloads, seed_list(args.seeds), seconds, args.trace, bounds)
        sets.append(report)
        ok &= set_ok
    out = {"seconds": float(seconds), "trace": int(args.trace), "seeds": args.seeds,
           "sets": sets}
    if len(sets) >= 2:
        out["drift"] = drifts(sets[0], sets[-1], better)
        print("== drift of the last set's medians from the first's (positive = worse)")
        for w, rows in out["drift"].items():
            for name, d in rows.items():
                mark = "ok" if d <= bounds[name] else "OVER BOUND"
                ok &= d <= bounds[name]
                print(f"  {w:<16} {name:<24} {d:+7.3f}  {mark}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(out, f, indent=1, sort_keys=True)
            f.write("\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
