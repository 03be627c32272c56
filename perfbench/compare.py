#!/usr/bin/env python3
"""Collect benchmark runs and compare two sets of them.

    python3 perfbench/compare.py collect OUT [--seeds 1-10] [--workloads W,...]
        Runs perfbench/run.py untraced once per (workload, seed) in this
        checkout and stores each report as OUT/<workload>/seed-<n>.json.

    python3 perfbench/compare.py pairs PARENT_OUT CHANGE_OUT --parent DIR
            --change DIR [--seeds 1-10] [--workloads W,...]
        Alternating pairs: for each (workload, seed) runs the parent checkout
        and the change checkout, swapping which goes first on every pair.

    python3 perfbench/compare.py spread OUT
        Per workload and end-to-end metric: median, quartiles, and the spread
        (Q3 - Q1) / median next to the metric's bound in BENCHMARK.json.

    python3 perfbench/compare.py diff PARENT_OUT CHANGE_OUT
        Per workload and end-to-end metric: each side's median and quartiles,
        the share of pairs the change won, and one verdict:
          improved    the change wins >= 90 % of pairs and its median is better
                      by more than the parent's own spread;
          worse       the change's median is worse by more than the bound;
          unresolved  a side's spread exceeds the bound (unless every change
                      run beats every parent run);
          no worse    otherwise.
        Pairs are matched by seed. Bounds and directions come from
        BENCHMARK.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_one(checkout, workload, seed, seconds):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = [l for l in p.stdout.splitlines() if l.strip()]
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr)
        raise SystemExit(f"compare: {workload} seed {seed} in {checkout} exited {p.returncode}")
    meta = json.loads(lines[0]) if len(lines) > 1 else {}
    return {"meta": meta, "result": json.loads(lines[-1])}


def store(out, workload, seed, report):
    os.makedirs(os.path.join(out, workload), exist_ok=True)
    with open(os.path.join(out, workload, f"seed-{seed}.json"), "w") as f:
        json.dump(report, f)


def load_runs(out):
    runs = {}
    for workload in sorted(os.listdir(out)):
        d = os.path.join(out, workload)
        for name in sorted(os.listdir(d)):
            with open(os.path.join(d, name)) as f:
                seed = int(name[len("seed-"):-len(".json")])
                runs.setdefault(workload, {})[seed] = json.load(f)["result"]
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def cmd_collect(a):
    spec = load_spec()
    workloads = a.workloads.split(",") if a.workloads else [w["name"] for w in spec["workloads"]]
    for w in workloads:
        for s in parse_seeds(a.seeds):
            store(a.out, w, s, run_one(ROOT, w, s, spec["run_seconds"]))
            print(f"collected {w} seed {s}", file=sys.stderr)


def cmd_pairs(a):
    spec = load_spec()
    workloads = a.workloads.split(",") if a.workloads else [w["name"] for w in spec["workloads"]]
    k = 0
    for w in workloads:
        for s in parse_seeds(a.seeds):
            sides = [(a.parent, a.parent_out), (a.change, a.change_out)]
            for checkout, out in (sides if k % 2 == 0 else sides[::-1]):
                store(out, w, s, run_one(checkout, w, s, spec["run_seconds"]))
            k += 1
            print(f"pair {w} seed {s} done", file=sys.stderr)


def cmd_spread(a):
    spec = load_spec()
    runs = load_runs(a.out)
    print(f"{'workload':14} {'metric':14} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}  ok")
    for w, by_seed in runs.items():
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in by_seed.values()
                    if m["name"] in r["metrics"]]
            if not vals:
                continue
            q1, q2, q3 = quartiles(vals)
            sp = spread(vals)
            ok = "yes" if (m["name"] == "setup_s" or sp < m["bound"] / 3) else "NO"
            print(f"{w:14} {m['name']:14} {len(vals):3} {q2:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{sp:7.3f} {m['bound']:6.3f}  {ok}")
        failed = {r["failed"] / r["attempted"] for r in by_seed.values()}
        print(f"{w:14} failed share   {sorted(failed)}")


def verdict(p, c, m):
    lower = m["better"] == "lower"
    better = (lambda x, y: x < y) if lower else (lambda x, y: x > y)
    mp, mc = statistics.median(p), statistics.median(c)
    sp_p, sp_c = spread(p), spread(c)
    pairs = list(zip(p, c))
    won = sum(better(y, x) for x, y in pairs) / len(pairs)
    all_better = all(better(y, x) for y in c for x in p)
    rel = (mc - mp) / abs(mp) if mp else 0.0
    gain = -rel if lower else rel
    if max(sp_p, sp_c) > m["bound"] and not all_better:
        return "unresolved", won
    if (won >= 0.9 and gain > sp_p) or all_better:
        return "improved", won
    if -gain > m["bound"]:
        return "worse", won
    return "no worse", won


def cmd_diff(a):
    spec = load_spec()
    parent, change = load_runs(a.parent_out), load_runs(a.change_out)
    print(f"{'workload':14} {'metric':14} {'n':>3} {'parent median [q1, q3]':>36} "
          f"{'change median [q1, q3]':>36} {'won':>5}  verdict")
    for w in parent:
        if w not in change:
            continue
        seeds = sorted(set(parent[w]) & set(change[w]))
        for m in spec["end_to_end"]:
            name = m["name"]
            try:
                p = [parent[w][s]["metrics"][name]["value"] for s in seeds]
                c = [change[w][s]["metrics"][name]["value"] for s in seeds]
            except KeyError:
                continue
            v, won = verdict(p, c, m)
            pq, cq = quartiles(p), quartiles(c)
            ps = f"{pq[1]:.5g} [{pq[0]:.5g}, {pq[2]:.5g}]"
            cs = f"{cq[1]:.5g} [{cq[0]:.5g}, {cq[2]:.5g}]"
            print(f"{w:14} {name:14} {len(seeds):3} {ps:>36} {cs:>36} {won:5.0%}  {v}")


def main():
    ap = argparse.ArgumentParser(description="Collect and compare perfbench runs.")
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("out")
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--workloads", default="")
    p = sub.add_parser("pairs")
    p.add_argument("parent_out")
    p.add_argument("change_out")
    p.add_argument("--parent", required=True)
    p.add_argument("--change", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads", default="")
    s = sub.add_parser("spread")
    s.add_argument("out")
    d = sub.add_parser("diff")
    d.add_argument("parent_out")
    d.add_argument("change_out")
    a = ap.parse_args()
    {"collect": cmd_collect, "pairs": cmd_pairs, "spread": cmd_spread, "diff": cmd_diff}[a.cmd](a)


if __name__ == "__main__":
    main()
