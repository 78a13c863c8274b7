#!/usr/bin/env python3
"""Alternating parent/change benchmark pairs, summarised in one JSON file.

    python3 tools/bench_pairs.py --parent REV --change REV --out BENCH_<n>.json \
        [--pairs 10] [--seed 1] [--workdir DIR]

Run from the repository root.  Both revisions are unpacked by `git archive`
as siblings in one work directory (a tree's place on disk moves its peak RSS
and ops/s), and `python -m compileall -q src bench` runs in each.  Each
pair runs the tree's own, unmodified `bench/run.py` once per side, in turn
parent first and change first, on every workload of BENCHMARK.json, at
ROTATIONS rotations: --seconds is that many of the tree's
NOMINAL_ROTATION_S.  Each run's record.json is read, and the run's minor
page faults are read from getrusage(RUSAGE_CHILDREN) before and after it.
The output holds, per workload and end-to-end metric of BENCHMARK.json, both
sides' values and medians, the parent's interquartile range, the change's
pair wins and the verdict; per op, each run's least process time and the
verdict on those; both sides' minor faults per run and their medians; and
the machine block, the seed and the rotation counts.

The verdict on a metric holds when the change is better in at least 9 of
every 10 pairs and the medians are apart, the change's way, by more than the
parent's interquartile range.  The per-op verdicts and the page faults are
reported next to the end-to-end medians; they replace neither them nor their
bounds.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tarfile
import tempfile

SIDES = ("parent", "change")
ROTATIONS = 30  # samples of each op in a run


def unpack(rev: str, dest: str):
    """The tree of rev at dest, by git archive, with its bytecode compiled."""
    blob = subprocess.run(["git", "archive", "--format=tar", rev],
                          capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(dest, filter="data")
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "bench"],
                   cwd=dest, check=True, stdout=subprocess.DEVNULL)


def nominal_rotation_s(tree: str) -> dict:
    """NOMINAL_ROTATION_S of the tree's bench/workloads.py, read unimported."""
    with open(os.path.join(tree, "bench", "workloads.py")) as f:
        for node in ast.parse(f.read()).body:
            if isinstance(node, ast.Assign) and any(
                    getattr(t, "id", None) == "NOMINAL_ROTATION_S"
                    for t in node.targets):
                return ast.literal_eval(node.value)
    raise KeyError("bench/workloads.py holds no NOMINAL_ROTATION_S")


def run_once(tree: str, workload: str, seed: int, seconds: int) -> dict:
    """One untraced bench run of the tree; its record.json, with the run's
    minor page faults as "minor_faults"."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                    "--seed", str(seed), "--seconds", str(seconds)],
                   cwd=tree, check=True, stdout=subprocess.DEVNULL)
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before
    path = os.path.join(tree, ".bench_out", f"{workload}-seed{seed}-trace0",
                        "record.json")
    with open(path) as f:
        return {**json.load(f), "minor_faults": faults}


def iqr(values) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(parent, change, better: str) -> dict:
    """Pair i is parent[i] against change[i]; the change wins a pair when it
    is strictly better, and the verdict holds on wins in at least 9 of every
    10 pairs and medians apart, the change's way, by more than the parent's
    interquartile range."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need as many parent as change values, at least one")
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    pm, cm, spread = (statistics.median(parent), statistics.median(change),
                      iqr(parent))
    return {"parent_median": pm, "change_median": cm, "parent_iqr": spread,
            "wins": wins, "pairs": len(parent),
            "holds": 10 * wins >= 9 * len(parent) and sign * (cm - pm) > spread}


def summarize(records: dict, end_to_end: list) -> dict:
    """One workload's summary from {"parent": [record], "change": [record]},
    records in pair order; end_to_end: BENCHMARK.json's metric entries."""
    out = {"rotations": {}, "failed": {}, "correct": {}, "metrics": {},
           "op_least_cpu_s": {}, "minor_faults": {}}
    for side in SIDES:
        recs = records[side]
        out["rotations"][side] = sorted({r["rotations"] for r in recs})
        out["failed"][side] = [r["failed"] for r in recs]
        out["correct"][side] = all(r["correct"] for r in recs)
        out["op_least_cpu_s"][side] = {
            op: [min(r["op_cpu_s"][op]) for r in recs]
            for op in recs[0]["op_cpu_s"]}
        faults = [r["minor_faults"] for r in recs]
        out["minor_faults"][side] = faults
        out["minor_faults"][f"{side}_median"] = statistics.median(faults)
    least = out["op_least_cpu_s"]
    out["op_verdicts"] = {op: verdict(least["parent"][op],
                                      least["change"][op], "lower")
                          for op in least["parent"]}
    for metric in end_to_end:
        name = metric["name"]
        values = {side: [r["result"]["metrics"][name]["value"]
                         for r in records[side]] for side in SIDES}
        out["metrics"][name] = {"better": metric["better"], **values,
                                **verdict(values["parent"], values["change"],
                                          metric["better"])}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="parent revision")
    p.add_argument("--change", required=True, help="change revision")
    p.add_argument("--out", required=True, help="summary JSON path")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--workdir", help="where both trees go (default: a new "
                   "temporary directory)")
    args = p.parse_args(argv)
    work = args.workdir or tempfile.mkdtemp(prefix="bench_pairs_")
    trees = {side: os.path.join(work, side) for side in SIDES}
    for side, rev in zip(SIDES, (args.parent, args.change)):
        unpack(rev, trees[side])
    with open(os.path.join(trees["change"], "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    nominal = nominal_rotation_s(trees["change"])
    seconds = {w: math.ceil(ROTATIONS * nominal[w]) for w in workloads}
    summary = {"parent": args.parent, "change": args.change,
               "seed": args.seed, "pairs": args.pairs, "seconds": seconds,
               "workloads": {}}
    for w in workloads:
        records = {side: [] for side in SIDES}
        for i in range(args.pairs):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                records[side].append(run_once(trees[side], w, args.seed,
                                              seconds[w]))
            print(f"{w}: pair {i + 1}/{args.pairs}", flush=True)
        summary["machine"] = records["change"][0]["machine"]
        summary["workloads"][w] = summarize(records, bench["end_to_end"])
        out = summary["workloads"][w]
        for name, m in [*out["metrics"].items(),
                        *(("least_cpu_s " + op, v)
                          for op, v in out["op_verdicts"].items())]:
            print(f"{w} {name}: {m['parent_median']:.6g} (IQR "
                  f"{m['parent_iqr']:.3g}) -> {m['change_median']:.6g}, "
                  f"wins {m['wins']}/{m['pairs']}, holds {m['holds']}",
                  flush=True)
        faults = out["minor_faults"]
        print(f"{w} minor faults: {faults['parent_median']:.6g} -> "
              f"{faults['change_median']:.6g}", flush=True)
    with open(args.out, "w") as f:
        json.dump(summary, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
