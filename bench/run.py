#!/usr/bin/env python3
"""orbitweave benchmark: one workload per process, measured from outside.

    python3 bench/run.py --workload {weave,reweave,shadow,analysis} \
        --seed N --seconds S --trace {0,1}

Run from the repository root: the program is imported from ./src.  A run
repeats a fixed rotation of operations a fixed number of times (set by
--seconds and the workload's nominal rotation length, never by a clock), so
every run does whole rotations of identical work.  Each operation's output
is checked by bench/oracles.py.  With --trace 0 the last line of standard
output is the end-to-end result; with --trace 1 rotations alternate between
untraced and traced, and the last line carries the per-layer metrics.  A run
record goes to .bench_out/<workload>-seed<N>-trace<T>/record.json.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

# one BLAS thread: the timings are of single-threaded work
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOAD_NAMES = ["weave", "reweave", "shadow", "analysis"]
SETUP_CHILDREN = 2   # extra set-ups in fresh processes, for a median of 3
END_TO_END = [("ops_per_s", "1/s"), ("cpu_s_per_op", "s"),
              ("peak_rss_mb", "MB"), ("setup_s", "s")]


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up time as JSON, and exit")
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    return args


def load_program():
    """Import orbitweave from ./src, and nothing installed elsewhere."""
    pkg = os.path.join(SRC, "orbitweave")
    if not os.path.isfile(os.path.join(pkg, "cli.py")):
        sys.exit(f"bench: no orbitweave sources at {pkg}; "
                 "run from the repository root")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import orbitweave
    from orbitweave import (cli, entropy, measures, shadowing,  # noqa: F401
                            systems, variational, weaving)
    if os.path.dirname(os.path.abspath(orbitweave.__file__)) != pkg:
        sys.exit(f"bench: imported orbitweave from {orbitweave.__file__}")


def machine_record():
    import numpy
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS")},
    }


def child_setups(args):
    """Set-up time of fresh processes doing the same set-up."""
    out = []
    for _ in range(SETUP_CHILDREN):
        cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds)]
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=150)
        if res.returncode != 0:
            sys.exit(f"bench: set-up child failed:\n{res.stderr}")
        out.append(json.loads(res.stdout.splitlines()[-1])["setup_s"])
    return out


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:12]


def main(argv=None):
    args = parse_args(argv)
    load_program()
    tag = f"setup{os.getpid()}" if args.setup_only else f"trace{args.trace}"
    workdir = os.path.join(OUT, f"{args.workload}-seed{args.seed}-{tag}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    import oracles
    import tracing
    import workloads
    ops = workloads.WORKLOADS[args.workload](workdir, args.seed)
    setup_own = time.perf_counter() - T_START
    if args.setup_only:
        shutil.rmtree(workdir, ignore_errors=True)
        print(json.dumps({"setup_s": setup_own}))
        return 0

    rotations = max(2, math.ceil(
        args.seconds / workloads.NOMINAL_ROTATION_S[args.workload]))
    tracer = tracing.Tracer()
    rot_wall, rot_cpu, rot_traced, rot_work = [], [], [], []
    op_wall = {op.name: [] for op in ops}
    op_cpu = {op.name: [] for op in ops}
    attempted = failed = 0
    correct = True
    problems = []
    print(f"bench: workload {args.workload}, seed {args.seed}, "
          f"{rotations} rotations of {len(ops)} ops, trace {args.trace}",
          flush=True)
    for r in range(rotations):
        traced = bool(args.trace) and r % 2 == 1
        before = tracer.work_counts()
        if traced:
            tracer.install()
        wall = cpu = 0.0
        work = {}
        for op in ops:
            op.prepare()
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                result, exc = op.run(), None
            except Exception as e:  # the program failed: count it, go on
                result, exc = None, e
            w1, c1 = time.perf_counter(), time.process_time()
            wall += w1 - w0
            cpu += c1 - c0
            op_wall[op.name].append(w1 - w0)
            op_cpu[op.name].append(c1 - c0)
            attempted += 1
            if exc is not None:
                failed += 1
                note = f"{op.name}: raised {type(exc).__name__}: {exc}"
                problems.append(("known fault: " if op.known_fault
                                 else "failed: ") + note)
                continue
            try:
                work[op.name] = op.check(result)
            except oracles.OpFailed as e:
                failed += 1
                problems.append(f"failed: {op.name}: {e}")
            except Exception as e:  # a wrong or unreadable output
                correct = False
                problems.append(f"WRONG: {op.name}: {type(e).__name__}: {e}")
        if traced:
            tracer.uninstall()
            after = tracer.work_counts()
            work["calls"] = {k: v - before.get(k, 0) for k, v in after.items()}
        rot_wall.append(wall)
        rot_cpu.append(cpu)
        rot_traced.append(traced)
        rot_work.append(work)
        print(f"rotation {r + 1}/{rotations}: wall {wall:.4f} s, "
              f"cpu {cpu:.4f} s, traced {traced}, work {digest(work)} "
              f"{json.dumps(work, sort_keys=True)}", flush=True)
    for line in sorted(set(problems)):
        print(f"bench: {line}", flush=True)

    # A rotation's time is built op by op: the sum over the rotation's ops
    # of each op's median, so a burst of outside load on one op is dropped.
    def rotation_time(per_op, keep):
        return sum(statistics.median([x for x, k in zip(v, keep) if k])
                   for v in per_op.values())

    plain_rot = [not t for t in rot_traced]
    medians = {name: statistics.median(v) for name, v in op_wall.items()}
    for name, med in medians.items():
        print(f"op {name}: median {med:.4f} s over {len(op_wall[name])}")
    kinds = {}
    for op in ops:
        kinds.setdefault(op.kind, []).extend(
            x for x, plain in zip(op_wall[op.name], plain_rot) if plain)
    for kind, v in kinds.items():
        print(f"kind {kind}: median {statistics.median(v):.4f} s over "
              f"{len(v)} untraced ops")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rotations": rotations, "ops": len(ops),
        "machine": machine_record(), "attempted": attempted,
        "failed": failed, "correct": correct, "problems": sorted(set(problems)),
        "rotation_wall_s": rot_wall, "rotation_cpu_s": rot_cpu,
        "rotation_traced": rot_traced, "rotation_work": rot_work,
        "op_wall_s": op_wall, "op_cpu_s": op_cpu, "op_median_s": medians,
    }
    n = len(ops)
    if args.trace:
        metrics = tracer.layer_metrics(rot_traced.count(True))
        metrics["trace.overhead_ratio"] = (
            rotation_time(op_wall, rot_traced)
            / rotation_time(op_wall, plain_rot) - 1.0)
        units = {name: unit for name, unit, _ in tracing.LAYER_METRICS}
    else:
        setups = [setup_own] + child_setups(args)
        record["setup_samples_s"] = setups
        metrics = {
            "ops_per_s": n / rotation_time(op_wall, plain_rot),
            "cpu_s_per_op": rotation_time(op_cpu, plain_rot) / n,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
            "setup_s": statistics.median(setups),
        }
        units = dict(END_TO_END)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    record["result"] = result
    with open(os.path.join(workdir, "record.json"), "w") as f:
        json.dump(record, f, indent=1)
    for k, v in metrics.items():
        print(f"metric {k} = {v:.6g} {units[k]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
