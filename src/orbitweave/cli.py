"""Command-line entry point.

Every run is fully determined by (config, seed); outputs carry a config hash
so repeated runs are byte-identical and auditable.  CSV files are RFC-4180
with a single leading comment line; all files are written atomically.

Exit codes: 0 success; 1 an honest quantitative miss (a weave whose final
empirical distance exceeds its `bound`); 2 config or precondition error;
3 schedule truncation or overflow; 4 resource cap (a block search that
exhausted its budget: a cap on the work, not evidence that no block
exists); 5 internal invariant violation or any other unexpected error.  Each
config or precondition failure prints one stderr line starting
`config/precondition error: `; an argparse usage error keeps argparse's own
message.  `count_n`, when given, is an integer >= 1, every `n_grid` entry
an integer >= 1, `q` an integer in [0, 1074], a weave's `bound` finite and
>= 0, and a shadow's `epsilon` finite and > 0 and `delta` finite and >= 0.
No failure prints a traceback.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import __version__
from .entropy import katok_entropy
from .measures import (LocallyConstantObservable, MarkovMeasure,
                       TestFunctionFamily, _state_json, frequency_observable,
                       markov_entropy, measure_from_json)
from .shadowing import (make_rng, perturbed_orbit, shadow_interval,
                        shadow_shift, shadowing_modulus, _random_start)
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
    (BlockSearchError, EXIT_RESOURCE, "resource cap"),
    ((AssertionError, ArithmeticError), EXIT_INTERNAL,
     "internal invariant violation"),
    (Exception, EXIT_INTERNAL, "internal error"),
]


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
    """Every row as one line, floats as %.12g, None blank and the rest by
    str, by a single % over all cells at once."""
    cells = ["" if v is None else v for row in rows for v in row]
    spec = ["%.12g" if isinstance(v, float) else "%s" for v in cells]
    width = len(columns)
    body = "".join(",".join(spec[i:i + width]) + "\n"
                   for i in range(0, len(spec), width)) % tuple(cells)
    _write_atomic(path, f"# {comment}\n{','.join(columns)}\n{body}")


def _header(config, seed, **extra) -> str:
    cells = [f"hash={_config_hash(config, seed)}", f"orbitweave={__version__}"]
    cells += [f"{key}=%.12g" % value for key, value in extra.items()]
    return " ".join(cells)


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
        raise ValueError("spectrum requires a shift system")
    phi = _observable(config["observable"], system.alphabet_size)
    grid = [float(a) for a in config["alpha_grid"]]
    vlo, vhi = phi.value_range
    if not all(vlo <= a <= vhi for a in grid):  # a NaN alpha fails too
        raise ValueError("alpha grid leaves the observable's value range")
    cons = config.get("constraint", {})
    lo = float(cons.get("lo", vlo))
    hi = float(cons.get("hi", vhi))
    closed = bool(cons.get("closed", True))
    result = spectrum(system, phi, lo, hi, closed, grid,
                      count_n=config.get("count_n"))
    rows = []
    for pt in result.points:
        gap = pt.h_count - pt.h_var if pt.h_count is not None else None
        rows.append((pt.alpha, pt.h_var, pt.h_count, pt.n_count or "", gap, ""))
    rows.append((result.sup_alpha, result.sup_value, None, "", None, "sup"))
    _write_csv(os.path.join(out, "spectrum.csv"), _header(config, seed),
               ["alpha", "h_var", "h_count", "n_count", "gap", "flag"], rows)
    return EXIT_OK


def _run_length_encode(symbols: np.ndarray) -> str:
    """Space-separated `AxN` tokens, one per run of N copies of symbol A."""
    starts = np.flatnonzero(np.diff(symbols, prepend=-1))
    keys, at = np.unique(np.diff(starts, append=len(symbols)) * 128
                         + symbols[starts], return_inverse=True)  # N * 128 + A
    return " ".join(np.array([f"{p % 128}x{p // 128}" for p in keys.tolist()],
                             object)[at].tolist())


def cmd_weave(config: dict, seed: int, out: str) -> int:
    system = system_from_json(config["system"])
    if not isinstance(system, ShiftSpace):
        raise ValueError("weave requires a shift system")
    bound = float(config.get("bound", 0.05))
    if not 0 <= bound < math.inf:  # NaN fails too
        raise ValueError(f"bound must be finite and >= 0; got {bound!r}")
    family = _family(config, system.alphabet_size)
    target = measure_from_json(config["target"], shift=system)
    # the keys the config names, cast; run_weave's defaults fill the rest
    options = {key: cast(config[key]) for key, cast in (
        ("k_max", int), ("gamma", float), ("block_length", int),
        ("epsilon", float), ("budget", int), ("min_total_length", int),
        ("length_cap", int)) if key in config}
    schedule, _families, outcome = run_weave(system, target, family,
                                             seed=seed, **options)
    doc = {key: getattr(schedule, key) for key in (
        "k_max", "N", "X", "Y", "T", "block_lengths", "cells", "offsets_M",
        "total_length", "epsilon", "delta_prime", "diam_xi",
        "splice_guarantee", "truncated", "truncation_level")}
    _write_atomic(os.path.join(out, "schedule.json"),
                  json.dumps(doc, indent=2) + "\n")
    _write_atomic(os.path.join(out, "woven.txt"), _run_length_encode(
        outcome.symbols[:outcome.total_length]) + "\n")
    _write_csv(os.path.join(out, "convergence.csv"), _header(config, seed),
               ["n", "D"], outcome.convergence)
    if schedule.truncated:
        print(f"schedule truncated to level {schedule.truncation_level}",
              file=sys.stderr)
        return EXIT_TRUNCATION
    return EXIT_OK if outcome.final_distance <= bound else EXIT_MISS


def cmd_shadow(config: dict, seed: int, out: str) -> int:
    system = system_from_json(config["system"])
    mode = config.get("mode", "single")
    if mode not in ("single", "modulus"):
        raise ValueError(
            f"shadow mode must be single or modulus, got {mode!r}")
    epsilon = float(config.get("epsilon", 1e-3))
    if not 0 < epsilon < math.inf:  # read in every mode; NaN fails too
        raise ValueError(f"epsilon must be finite and > 0; got {epsilon!r}")
    length = int(config.get("length", 100))
    if mode == "modulus":
        trials = int(config.get("trials", 100))
        delta_hat, table = shadowing_modulus(system, epsilon, trials, length,
                                             seed)
        _write_csv(os.path.join(out, "modulus.csv"),
                   _header(config, seed, delta_hat=delta_hat),
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
        raise ValueError("katok requires a shift system")
    m = measure_from_json(config["measure"], shift=system)
    if not isinstance(m, MarkovMeasure):
        raise ValueError("katok requires a Markov measure")
    q = config["q"]  # epsilon = 2^-q; 2^-1074 is the least positive float
    if type(q) is not int or not 0 <= q <= 1074:
        raise ValueError(f"q must be an integer in [0, 1074]; got {q!r}")
    delta = float(config.get("delta", 0.1))
    est = katok_entropy(system, m, 2.0 ** (-q), delta, config["n_grid"])
    _write_csv(os.path.join(out, "katok.csv"),
               _header(config, seed, markov_entropy=markov_entropy(m)),
               ["n", "count", "rate"], est.diagnostics)
    return EXIT_OK


def cmd_shrink(config: dict, seed: int, out: str) -> int:
    system = system_from_json(config["system"])
    if not isinstance(system, ShiftSpace):
        raise ValueError("shrink requires a shift system")
    nu = measure_from_json(config["nu"], shift=system)
    if not isinstance(nu, MarkovMeasure):
        raise ValueError("shrink requires a Markov measure nu")
    family = _family(config, system.alphabet_size)
    grid = [float(d) for d in config["delta_grid"]]
    rows = shrink_experiment(system, nu, family, grid)
    gap = max(r.upper - r.lower for r in rows)
    # sup_hat is the certified lower bound; budget_used is kept blank
    _write_csv(os.path.join(out, "shrink.csv"),
               _header(config, seed, h_nu=markov_entropy(nu), max_gap=gap),
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


PARSER = argparse.ArgumentParser(
    prog="orbitweave",
    description="entropy, shadowing, and orbit-weaving experiments")
PARSER.add_argument("--config", required=True, help="JSON config path")
PARSER.add_argument("--seed", type=int, default=0, help="64-bit seed")
PARSER.add_argument("--out", required=True, help="output directory")
PARSER.add_argument("--command", required=True, choices=sorted(COMMANDS))


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    try:
        with open(args.config) as f:
            config = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config/precondition error: {exc}", file=sys.stderr)
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
