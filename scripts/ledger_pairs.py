#!/usr/bin/env python3
"""Runs two performance-ledger binaries in alternating pairs and compares them.

Usage (from anywhere):
  scripts/ledger_pairs.py PARENT_LEDGER CHANGE_LEDGER --workload W --seed S \\
      --pairs N --seconds T

PARENT_LEDGER and CHANGE_LEDGER are `ledger` binaries built from two commits
(cmake -S perf_ledger -B <dir> -DCMAKE_BUILD_TYPE=Release; cmake --build <dir>
--target ledger). Each pair runs both once with the same arguments and
--trace 0: odd pairs run the parent first, even pairs the change first, so a
host that drifts during a pair favours neither side.

For every end-to-end metric in BENCHMARK.json it prints each side's median
and quartiles, each side's spread (IQR / median) next to the metric's bound,
the change/parent ratio of the medians, the number of pairs the change won
(ties count for neither), and a verdict:
  gain        the change won at least 9/10 of the pairs and the medians
              differ by more than the parent's IQR;
  regression  the change's median is worse by more than the bound;
  unresolved  a side's spread exceeds the bound (and not every change run
              beats every parent run);
  within      none of the above.
Exits 1 if any run fails its correctness checks or reports failed shuffles.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)["end_to_end"]


def run_once(ledger, args, out_dir):
    cmd = [ledger, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0", "--out", out_dir]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"ledger_pairs.py: {' '.join(cmd)} exited {proc.returncode}")
    summary = json.loads(lines[-1])
    values = {name: m["value"] for name, m in summary["metrics"].items()}
    return summary["correct"], summary["attempted"], summary["failed"], values


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=25)
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    metrics = load_metrics()
    runs = {"parent": [], "change": []}
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        for pair in range(1, args.pairs + 1):
            order = ["parent", "change"] if pair % 2 == 1 else ["change", "parent"]
            for side in order:
                ledger = args.parent if side == "parent" else args.change
                correct, attempted, failed, values = run_once(ledger, args, tmp)
                ok = ok and correct and failed == 0
                runs[side].append(values)
                print(f"pair {pair:2d} {side:6s} attempted={attempted} failed={failed} "
                      + " ".join(f"{m['name']}={values[m['name']]:.4g}" for m in metrics),
                      flush=True)

    print(f"\nworkload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"pairs {args.pairs} (odd pairs parent first)")
    header = (f"{'metric':20s} {'parent q1/med/q3':>28s} {'change q1/med/q3':>28s} "
              f"{'iqr/med p':>9s} {'iqr/med c':>9s} {'bound':>5s} {'ratio':>6s} "
              f"{'won':>6s}  verdict")
    print(header)
    for m in metrics:
        name, bound = m["name"], m["bound"]
        higher = m["better"] == "higher"
        p = [r[name] for r in runs["parent"]]
        c = [r[name] for r in runs["change"]]
        pq, cq = quartiles(p), quartiles(c)
        p_iqr, c_iqr = pq[2] - pq[0], cq[2] - cq[0]
        p_spread = p_iqr / pq[1] if pq[1] else 0.0
        c_spread = c_iqr / cq[1] if cq[1] else 0.0
        ratio = cq[1] / pq[1] if pq[1] else float("nan")
        won = sum(1 for a, b in zip(p, c) if (b > a if higher else b < a))
        better_median = cq[1] > pq[1] if higher else cq[1] < pq[1]
        worse_by = (1 - ratio) if higher else (ratio - 1)
        all_better = (min(c) > max(p)) if higher else (max(c) < min(p))
        if better_median and won * 10 >= 9 * args.pairs and abs(cq[1] - pq[1]) > p_iqr:
            verdict = "gain"
        elif worse_by > bound:
            verdict = "regression"
        elif max(p_spread, c_spread) > bound and not all_better:
            verdict = "unresolved"
        else:
            verdict = "within"
        print(f"{name:20s} {pq[0]:9.4g}/{pq[1]:8.4g}/{pq[2]:9.4g} "
              f"{cq[0]:9.4g}/{cq[1]:8.4g}/{cq[2]:9.4g} {p_spread:9.3f} {c_spread:9.3f} "
              f"{bound:5.2f} {ratio:6.3f} {won:2d}/{args.pairs:<3d}  {verdict}")
    if not ok:
        print("some run failed its correctness checks or reported failed shuffles")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
