#!/usr/bin/env python3
"""Show that the benchmark's output checks are live.

    python3 bench/check_live.py

Run from the repository root.  Runs one operation of each checked kind,
confirms its check passes, then corrupts a copy of the outputs in each way
listed in MUTATIONS and confirms that the check then fails.  Exits 0 when
every corruption is caught.
"""

import os
import shutil
import sys

import run


def flip(make_11, start=None):
    """Flip one woven symbol from `start` on (default: the middle): a 0
    before a 1, creating the forbidden word 11, or a 1, which is always
    admissible, so only the D rows can tell."""
    def corrupt(outdir):
        import oracles
        path = os.path.join(outdir, "woven.txt")
        with open(path) as f:
            sym = oracles.decode_rle(f.read())
        t = len(sym) // 2 if start is None else start % len(sym)
        while not (sym[t] == 0 and sym[t + 1] == 1 if make_11
                   else sym[t] == 1):
            t += 1
        sym[t] ^= 1
        runs, first = [], 0
        for i in range(1, len(sym) + 1):
            if i == len(sym) or sym[i] != sym[first]:
                runs.append(f"{sym[first]}x{i - first}")
                first = i
        with open(path, "w") as f:
            f.write(" ".join(runs) + "\n")
    return corrupt


def edit_cell(name, row, col, fn):
    """Replace one data cell of a CSV artifact by fn(old text)."""
    def corrupt(outdir):
        path = os.path.join(outdir, name)
        with open(path) as f:
            lines = f.read().splitlines()
        cells = lines[2 + row].split(",")
        cells[col] = fn(cells[col])
        lines[2 + row] = ",".join(cells)
        with open(path, "w") as f:
            f.write("\n".join(lines) + "\n")
    return corrupt


MUTATIONS = (
    [("weave_golden_markov", "woven symbol flipped into the word 11",
      flip(True)),
     ("weave_golden_markov", "woven symbol 1 flipped to 0 (admissible)",
      flip(False)),
     ("weave_full_b07", "woven symbol 1 flipped to 0 in the last 20",
      flip(False, start=-20)),
     ("spectrum_golden", "one h_count with a changed last digit",
      edit_cell("spectrum.csv", 2, 2,
                lambda v: v[:-1] + str((int(v[-1]) + 1) % 10)))]
    + [("katok_b07", f"katok count of row {r} plus one",
        edit_cell("katok.csv", r, 1, lambda v: str(int(v) + 1)))
       for r in range(3)]
    + [("shrink_b08", f"shrink row {r} plus 0.01",
        edit_cell("shrink.csv", r, 1, lambda v: "%.12g" % (float(v) + 0.01)))
       for r in range(4)])


def main():
    run.load_program()
    import oracles
    import workloads
    workdir = os.path.join(run.OUT, "check_live")
    shutil.rmtree(workdir, ignore_errors=True)
    ops = {op.name: op for wl in ("weave", "analysis")
           for op in workloads.WORKLOADS[wl](workdir, 1)}
    missed = 0
    for name in sorted({m[0] for m in MUTATIONS}):
        op = ops[name]
        op.prepare()
        result = op.run()
        op.check(result)
        print(f"{name}: clean output passes")
        outdir = os.path.join(workdir, "ops", name)
        pristine = outdir + ".pristine"
        shutil.copytree(outdir, pristine)
        for op_name, label, corrupt in MUTATIONS:
            if op_name != name:
                continue
            shutil.rmtree(outdir)
            shutil.copytree(pristine, outdir)
            corrupt(outdir)
            try:
                op.check(result)
            except oracles.CheckError as e:
                print(f"  caught: {label}: {e}")
            else:
                missed += 1
                print(f"  MISSED: {label}")
    shutil.rmtree(workdir, ignore_errors=True)
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
