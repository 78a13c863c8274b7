"""Command-line entry point.

Every run is fully determined by (config, seed); outputs carry a config hash
so repeated runs are byte-identical and auditable.  CSV files are RFC-4180
with a single leading comment line; all files are written atomically.

Exit codes: 0 success; 1 an honest quantitative miss (a weave whose final
empirical distance exceeds its `bound`); 2 config or precondition error;
3 schedule truncation or overflow; 4 resource cap (the shadowing
tracked-interval cap, or a block search that exhausted its budget: a cap on
the work, not evidence that no block exists); 5 internal invariant
violation or any other unexpected error.  No failure prints a traceback.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile

from . import __version__
from .entropy import katok_entropy
from .measures import (LocallyConstantObservable, TestFunctionFamily,
                       _state_json, frequency_observable, markov_entropy,
                       measure_from_json)
from .shadowing import (ResourceCapError, make_rng, perturbed_orbit,
                        shadow_interval, shadow_shift, shadowing_modulus,
                        _random_start)
from .systems import ShiftSpace, system_from_json
from .variational import shrink_experiment, spectrum
from .weaving import BlockSearchError, run_weave

EXIT_OK = 0
EXIT_MISS = 1
EXIT_CONFIG = 2
EXIT_TRUNCATION = 3
EXIT_RESOURCE = 4
EXIT_INTERNAL = 5

# library failure -> (exit code, stderr prefix); the first matching row wins,
# so OverflowError is read as truncation before ArithmeticError, and the last
# row catches the rest
EXIT_CODES = [
    ((KeyError, TypeError, ValueError), EXIT_CONFIG,
     "config/precondition error"),
    (OverflowError, EXIT_TRUNCATION, "truncation"),
    ((ResourceCapError, BlockSearchError), EXIT_RESOURCE, "resource cap"),
    ((AssertionError, ArithmeticError), EXIT_INTERNAL,
     "internal invariant violation"),
    (Exception, EXIT_INTERNAL, "internal error"),
]


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return "%.12g" % x
    return str(x)


def _config_hash(config: dict, seed: int) -> str:
    blob = json.dumps(config, sort_keys=True) + f"|seed={seed}"
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _write_atomic(path: str, text: str):
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp_")
    try:
        with os.fdopen(fd, "w", newline="") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _write_csv(path: str, comment: str, columns: list[str], rows):
    lines = [f"# {comment}", ",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    _write_atomic(path, "\n".join(lines) + "\n")


def _header(config, seed, extra: str = "") -> str:
    h = _config_hash(config, seed)
    base = f"hash={h} orbitweave={__version__}"
    return f"{base} {extra}".strip()


def _observable(doc: dict, alphabet: int) -> LocallyConstantObservable:
    if doc.get("kind") == "frequency":
        return frequency_observable(int(doc["symbol"]), alphabet)
    table = tuple((tuple(int(s) for s in w), float(v)) for w, v in doc["table"])
    return LocallyConstantObservable(int(doc["depth"]), table)


def _family(config, alphabet: int) -> TestFunctionFamily:
    return TestFunctionFamily("cylinder", int(config.get("family_N", 16)),
                              alphabet)


def cmd_spectrum(config: dict, seed: int, out: str) -> int:
    system = system_from_json(config["system"])
    if not isinstance(system, ShiftSpace):
        print("spectrum requires a shift system", file=sys.stderr)
        return EXIT_CONFIG
    phi = _observable(config["observable"], system.alphabet_size)
    grid = [float(a) for a in config["alpha_grid"]]
    vlo, vhi = phi.value_range
    if any(a < vlo or a > vhi for a in grid):
        print("alpha grid leaves the observable's value range", file=sys.stderr)
        return EXIT_CONFIG
    cons = config.get("constraint", {})
    lo = float(cons.get("lo", vlo))
    hi = float(cons.get("hi", vhi))
    closed = bool(cons.get("closed", True))
    count_n = config.get("count_n")
    result = spectrum(system, phi, lo, hi, closed, grid,
                      count_n=int(count_n) if count_n else None)
    rows = []
    for pt in result.points:
        gap = (pt.h_count - pt.h_var
               if pt.h_count is not None and pt.h_var is not None else None)
        rows.append((pt.alpha, pt.h_var, pt.h_count, pt.n_count or "", gap, ""))
    rows.append((result.sup_alpha, result.sup_value, None, "", None, "sup"))
    _write_csv(os.path.join(out, "spectrum.csv"), _header(config, seed),
               ["alpha", "h_var", "h_count", "n_count", "gap", "flag"], rows)
    return EXIT_OK


def _run_length_encode(symbols) -> str:
    out = []
    prev, count = None, 0
    for s in symbols:
        if s == prev:
            count += 1
        else:
            if prev is not None:
                out.append(f"{prev}x{count}")
            prev, count = s, 1
    if prev is not None:
        out.append(f"{prev}x{count}")
    return " ".join(out)


def cmd_weave(config: dict, seed: int, out: str) -> int:
    system = system_from_json(config["system"])
    if not isinstance(system, ShiftSpace):
        print("weave requires a shift system", file=sys.stderr)
        return EXIT_CONFIG
    family = _family(config, system.alphabet_size)
    target = measure_from_json(config["target"], shift=system)
    try:
        schedule, _families, outcome = run_weave(
            system, target, family,
            k_max=int(config.get("k_max", 3)),
            gamma=float(config.get("gamma", 0.25)),
            block_length=int(config.get("block_length", 16)),
            epsilon=float(config.get("epsilon", 0.25)),
            budget=int(config.get("budget", 400)),
            seed=seed,
            min_total_length=int(config.get("min_total_length", 0)),
            length_cap=int(config.get("length_cap", 10 ** 6)))
    except OverflowError as exc:
        print(f"schedule overflow: {exc}", file=sys.stderr)
        return EXIT_TRUNCATION
    doc = {
        "k_max": schedule.k_max,
        "N": schedule.N, "X": schedule.X, "Y": schedule.Y, "T": schedule.T,
        "block_lengths": schedule.block_lengths,
        "cells": schedule.cells,
        "offsets_M": schedule.offsets_M,
        "total_length": schedule.total_length,
        "epsilon": schedule.epsilon,
        "delta_prime": schedule.delta_prime,
        "diam_xi": schedule.diam_xi,
        "splice_guarantee": schedule.splice_guarantee,
        "truncated": schedule.truncated,
        "truncation_level": schedule.truncation_level,
    }
    _write_atomic(os.path.join(out, "schedule.json"),
                  json.dumps(doc, indent=2) + "\n")
    _write_atomic(os.path.join(out, "woven.txt"), _run_length_encode(
        outcome.point.prefix(outcome.total_length)) + "\n")
    _write_csv(os.path.join(out, "convergence.csv"), _header(config, seed),
               ["n", "D"], outcome.convergence)
    if schedule.truncated:
        print(f"schedule truncated to level {schedule.truncation_level}",
              file=sys.stderr)
        return EXIT_TRUNCATION
    bound = float(config.get("bound", 0.05))
    return EXIT_OK if outcome.final_distance <= bound else EXIT_MISS


def cmd_shadow(config: dict, seed: int, out: str) -> int:
    system = system_from_json(config["system"])
    mode = config.get("mode", "single")
    epsilon = float(config.get("epsilon", 1e-3))
    length = int(config.get("length", 100))
    if mode == "modulus":
        trials = int(config.get("trials", 100))
        delta_hat, table = shadowing_modulus(system, epsilon, trials, length,
                                             seed)
        _write_csv(os.path.join(out, "modulus.csv"),
                   _header(config, seed, extra=f"delta_hat={_fmt(delta_hat)}"),
                   ["delta", "successes", "trials"], table)
        return EXIT_OK
    delta = float(config.get("delta", 2.0 ** -8))
    rng = make_rng(seed)
    x0 = _random_start(system, rng)
    po = perturbed_orbit(system, x0, length, delta, seed=seed + 1)
    if isinstance(system, ShiftSpace):
        res = shadow_shift(system, po)
    else:
        res = shadow_interval(system, po, epsilon)
    if res is None:
        doc = {"found": False, "delta": delta, "epsilon": epsilon}
    else:
        doc = {"found": True,
               "point": _state_json(res.point),
               "max_deviation": res.max_deviation,
               "per_step": res.per_step}
    _write_atomic(os.path.join(out, "shadow.json"),
                  json.dumps(doc, indent=2) + "\n")
    return EXIT_OK


def cmd_katok(config: dict, seed: int, out: str) -> int:
    system = system_from_json(config["system"])
    if not isinstance(system, ShiftSpace):
        print("katok requires a shift system", file=sys.stderr)
        return EXIT_CONFIG
    m = measure_from_json(config["measure"], shift=system)
    q = int(config["q"])
    delta = float(config.get("delta", 0.1))
    n_grid = [int(n) for n in config["n_grid"]]
    est = katok_entropy(system, m, 2.0 ** (-q), delta, n_grid)
    ref = markov_entropy(m)
    _write_csv(os.path.join(out, "katok.csv"),
               _header(config, seed, extra=f"markov_entropy={_fmt(ref)}"),
               ["n", "count", "rate"], est.diagnostics)
    return EXIT_OK


def cmd_shrink(config: dict, seed: int, out: str) -> int:
    system = system_from_json(config["system"])
    if not isinstance(system, ShiftSpace):
        print("shrink requires a shift system", file=sys.stderr)
        return EXIT_CONFIG
    nu = measure_from_json(config["nu"], shift=system)
    family = _family(config, system.alphabet_size)
    grid = [float(d) for d in config["delta_grid"]]
    rows = shrink_experiment(system, nu, family, grid)
    gap = max(r.upper - r.lower for r in rows)
    # sup_hat is the certified lower bound; budget_used is kept blank
    _write_csv(os.path.join(out, "shrink.csv"),
               _header(config, seed, extra=f"h_nu={_fmt(markov_entropy(nu))} "
                                           f"max_gap={_fmt(gap)}"),
               ["delta", "sup_hat", "budget_used"],
               [(r.delta, r.lower, None) for r in rows])
    return EXIT_OK


COMMANDS = {
    "spectrum": cmd_spectrum,
    "weave": cmd_weave,
    "shadow": cmd_shadow,
    "katok": cmd_katok,
    "shrink": cmd_shrink,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="orbitweave",
        description="entropy, shadowing, and orbit-weaving experiments")
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--seed", type=int, default=0, help="64-bit seed")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--command", required=True, choices=sorted(COMMANDS))
    args = parser.parse_args(argv)
    try:
        with open(args.config) as f:
            config = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return COMMANDS[args.command](config, args.seed, args.out)
    except Exception as exc:
        code, label = next((code, label) for kinds, code, label in EXIT_CODES
                           if isinstance(exc, kinds))
        print(f"{label}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
