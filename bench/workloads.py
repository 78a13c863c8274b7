"""The four benchmark workloads: fixed rotations of operations.

A workload builds its inputs from the run seed and returns the operations of
one rotation.  Every rotation repeats the same operations with the same
seeds, so all rotations of a run do identical work.  CLI operations drive
orbitweave.cli.main in-process; reweave drives the library directly.  Each
operation is checked by bench/oracles.py, which never calls orbitweave.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
from functools import partial
from types import SimpleNamespace

import numpy as np

import oracles

FULL = {"kind": "full_shift", "k": 2}
GOLDEN = {"kind": "sft", "transition": [[1, 1], [1, 0]]}
GOLDEN_CHAIN = {"P": [[0.6, 0.4], [1.0, 0.0]]}
WEAVE_LENGTH = 50_000
FREQ = {"kind": "frequency", "symbol": 1}


class Op:
    """One operation: prepare() untimed, run() timed, check(result) untimed.

    known_fault marks the operation that fails on every run because of a
    known fault in the program; its failure is counted, not hidden."""

    def __init__(self, name, kind, run, check, prepare=None,
                 known_fault=False):
        self.name, self.kind = name, kind
        self.run, self.check = run, check
        self.prepare = prepare or (lambda: None)
        self.known_fault = known_fault


def cli_op(workdir, name, command, config, seed, check, known_fault=False):
    """An orbitweave CLI invocation on a config file written at set-up."""
    cfg_path = os.path.join(workdir, "configs", f"{name}.json")
    outdir = os.path.join(workdir, "ops", name)
    os.makedirs(os.path.dirname(cfg_path), exist_ok=True)
    with open(cfg_path, "w") as f:
        json.dump(config, f)
    argv = ["--config", cfg_path, "--seed", str(seed), "--out", outdir,
            "--command", command]

    def prepare():
        shutil.rmtree(outdir, ignore_errors=True)

    def run():
        from orbitweave import cli
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, err.getvalue()

    def checked(result):
        code, stderr = result
        return check(config, outdir, code, stderr)

    return Op(name, command, run, checked, prepare, known_fault)


def weave_ops(workdir, seed):
    mixture = {"mixture": [[0.37, {"bernoulli": 0.25}],
                           [0.63, {"bernoulli": 0.8}]]}
    # The mixture weaves two levels: with three, the least admissible cycle
    # counts exceed 50,000 symbols on some seeds (up to 146,495 seen), so
    # the work of the op would depend on the seed; with two they stay below
    # 37,000 and the length is always set by min_total_length.
    ops = [
        ("weave_full_b07", FULL, {"bernoulli": 0.7}, 3),
        ("weave_golden_markov", GOLDEN, GOLDEN_CHAIN, 3),
        ("weave_full_mixture", FULL, mixture, 2),
    ]
    out = [cli_op(workdir, name, "weave",
                  {"system": system, "target": target,
                   "min_total_length": WEAVE_LENGTH, "k_max": k_max},
                  seed * 100 + i, oracles.check_weave)
           for i, (name, system, target, k_max) in enumerate(ops)]
    # The return window [15, floor(1.01 * 15)] holds only q = 15, and the
    # period-2 chain returns only at even times, so no block is ever
    # accepted; the seed does not matter.
    period2 = {"system": FULL, "target": {"P": [[0, 1], [1, 0]],
                                          "pi": [0.5, 0.5]},
               "block_length": 15, "gamma": 0.01}
    out.append(cli_op(
        workdir, "weave_period2", "weave", period2, 0,
        oracles.check_no_artifact, known_fault=True))
    return out


def shadow_ops(workdir, seed):
    def modulus(system, eps, trials, length):
        return {"system": system, "mode": "modulus", "epsilon": eps,
                "trials": trials, "length": length}

    # The slope-1.2 success rate sits near the 95% target over a range of
    # delta, so the number of sweep rows (8 or 9) depends on the trials
    # drawn; that op keeps one seed on every run so its work is fixed.  On
    # the other three every trial succeeds and the work does not depend on
    # the seed.
    ops = [
        ("shadow_full", modulus(FULL, 2.0 ** -9, 100, 200), True, seed * 100),
        ("shadow_golden", modulus(GOLDEN, 2.0 ** -9, 100, 200), True,
         seed * 100 + 1),
        ("shadow_tent2", modulus({"kind": "tent", "s": 2.0}, 1e-3, 100, 1000),
         True, seed * 100 + 2),
        ("shadow_tent12", modulus({"kind": "tent", "s": 1.2}, 1e-3, 100, 200),
         False, 1),
    ]
    return [cli_op(workdir, name, "shadow", cfg, op_seed,
                   partial(oracles.check_shadow, exact=exact))
            for name, cfg, exact, op_seed in ops]


def analysis_ops(workdir, seed):
    shrink_cfg = {"system": FULL, "nu": {"bernoulli": 0.8},
                  "delta_grid": [0.2, 0.1, 0.05, 0.02]}
    # the certified brackets are inputs of the check, computed at set-up
    brackets = {d: oracles.shrink_bracket(0.8, d)
                for d in shrink_cfg["delta_grid"]}
    ops = [
        ("spectrum_full", "spectrum",
         {"system": FULL, "observable": FREQ, "count_n": 24,
          "alpha_grid": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]},
         oracles.check_spectrum),
        ("spectrum_golden", "spectrum",
         {"system": GOLDEN, "observable": FREQ, "count_n": 24,
          "alpha_grid": [0.05, 0.1, 0.2, 0.3, 0.4, 0.45]},
         oracles.check_spectrum),
        ("katok_b07", "katok",
         {"system": FULL, "measure": {"bernoulli": 0.7}, "q": 1,
          "n_grid": [8, 14, 20]}, oracles.check_katok),
        ("katok_b05", "katok",
         {"system": FULL, "measure": {"bernoulli": 0.5}, "q": 1,
          "n_grid": [20]}, oracles.check_katok),
        ("katok_k3", "katok",
         {"system": {"kind": "full_shift", "k": 3},
          "measure": {"bernoulli": [0.5, 0.3, 0.2]}, "q": 1,
          "n_grid": [8, 10, 12]}, oracles.check_katok),
        ("shrink_b08", "shrink", shrink_cfg,
         partial(oracles.check_shrink, brackets=brackets)),
    ]
    return [cli_op(workdir, name, cmd, cfg, seed * 100 + i, check)
            for i, (name, cmd, cfg, check) in enumerate(ops)]


REWEAVES_PER_BASE = 2
# Block-selection budget of the reweave bases.  The ops never select
# blocks, and their work (a 50,000-state splice and audit) does not depend
# on the family sizes, so a quarter of the CLI default keeps the three
# set-ups of a run short.
BASE_BUDGET = 100


def reweave_ops(workdir, seed):
    """Bases are woven at set-up; each op repicks one block slot and weaves
    and audits the point again (the separation loop of the construction)."""
    from orbitweave.measures import TestFunctionFamily, measure_from_json
    from orbitweave.systems import system_from_json
    from orbitweave.weaving import run_weave

    ops = []
    bases = [("full_b07", FULL, {"bernoulli": 0.7}),
             ("golden_markov", GOLDEN, GOLDEN_CHAIN)]
    for b, (bname, system_doc, target_doc) in enumerate(bases):
        base = SimpleNamespace(seed=seed * 100 + b,
                               components=oracles.markov_components(target_doc))
        base.shift = system_from_json(system_doc)
        base.target = measure_from_json(target_doc, shift=base.shift)
        base.family = TestFunctionFamily("cylinder", 16,
                                         base.shift.alphabet_size)
        base.schedule, base.families, base.outcome = run_weave(
            base.shift, base.target, base.family, budget=BASE_BUDGET,
            seed=base.seed, min_total_length=WEAVE_LENGTH)
        base.symbols = np.array(
            base.outcome.point.prefix(base.schedule.total_length))
        oracles.check_convergence(base.symbols, base.outcome.convergence,
                                  base.components, base.shift.alphabet_size)
        slots = [s for s in sorted(base.outcome.picks)
                 if len(base.families[s[:2]].blocks) > 1]
        rng = np.random.default_rng([seed, b])
        for r in range(REWEAVES_PER_BASE):
            slot = slots[int(rng.integers(len(slots)))]
            size = len(base.families[slot[:2]].blocks)
            new = (base.outcome.picks[slot] + 1
                   + int(rng.integers(size - 1))) % size
            ops.append(_reweave_op(f"reweave_{bname}_{r}", base, slot, new))
    return ops


def _reweave_op(name, base, slot, new):
    from orbitweave import weaving

    def run():
        picks = dict(base.outcome.picks)
        picks[slot] = new
        # looked up at call time, so a traced run sees the calls
        out = weaving.weave_point(base.shift, base.schedule, base.families,
                                  base.target, base.family, seed=base.seed,
                                  picks=picks)
        return out, weaving.separation_audit(base.shift, base.schedule,
                                             base.outcome, out)

    def check(result):
        out, audit = result
        symbols = np.array(out.point.prefix(len(base.symbols)))
        n_slot = base.schedule.block_lengths[slot[0] - 1][slot[1] - 1]
        return oracles.check_reweave(base.symbols, symbols, out.convergence,
                                     audit, n_slot, base.components,
                                     base.shift.alphabet_size)
    return Op(name, "reweave", run, check)


WORKLOADS = {
    "weave": weave_ops,
    "reweave": reweave_ops,
    "shadow": shadow_ops,
    "analysis": analysis_ops,
}

# Rotation length on a 2-core x86 box, used only to turn --seconds into a
# fixed rotation count; the count never depends on a clock reading.
NOMINAL_ROTATION_S = {"weave": 7.0, "reweave": 2.7, "shadow": 5.2,
                      "analysis": 4.5}
