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
message.  A config's keys are its command's keyword-only parameters (weave's
others are `run_weave`'s): an unknown or missing key, or a value of another
type than its annotation exits 2 (a bool is no number; an int is read as
the float it equals, and refused past the float range).
`count_n`, when given, is an integer >= 1, every `n_grid` entry an integer
>= 1, `q` an integer in [0, 1074], a weave's `bound` finite and >= 0, a
shadow's `epsilon` finite and > 0 and `delta` finite and >= 0, and every
shadow key one its mode reads.  No failure prints a traceback.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
import tempfile
import typing

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

_hints = functools.cache(typing.get_type_hints)  # it re-evaluates per call


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
    str, by a single % over all cells at once; rows whose cells are all of
    the first row's kinds share its format."""
    cells = ["" if v is None else v for row in rows for v in row]
    spec = ["%.12g" if isinstance(v, float) else "%s" for v in cells]
    width = len(columns)
    if spec == spec[:width] * (len(spec) // width):
        body = (",".join(spec[:width]) + "\n") * (len(spec) // width)
    else:
        body = "".join(",".join(spec[i:i + width]) + "\n"
                       for i in range(0, len(spec), width))
    body %= tuple(cells)
    _write_atomic(path, f"# {comment}\n{','.join(columns)}\n{body}")


def _header(config, seed, **extra) -> str:
    cells = [f"hash={_config_hash(config, seed)}", f"orbitweave={__version__}"]
    cells += [f"{key}=%.12g" % value for key, value in extra.items()]
    return " ".join(cells)


def _fits(value, kind) -> bool:
    """A list[T] holds Ts; any other generic (Python 3.10 reads tuple[...] as
    a class), or an annotation that is no class, is the callee's."""
    if typing.get_origin(kind) is list:
        return isinstance(value, list) and all(
            _fits(v, typing.get_args(kind)[0]) for v in value)
    if kind in (int, float):  # an int past the float range is no float
        return type(value) is not bool and (isinstance(value, kind) or (
            isinstance(value, int) and abs(value) <= sys.float_info.max))
    return (typing.get_origin(kind) is not None or not isinstance(kind, type)
            or isinstance(value, kind))


def _call(fn, *args, **keys):
    """fn(*args, **keys) once every key's value fits its parameter's
    annotation, an int widened to the float it equals where a float is
    annotated; Python's own binding refuses an unknown or missing key."""
    for key, value in keys.items():
        if not _fits(value, kind := _hints(fn).get(key)):
            name = kind if typing.get_origin(kind) else kind.__name__
            raise TypeError(f"{key} must be of type {name}; got {value!r}")
        if kind is float:
            keys[key] = float(value)
        elif kind == list[float]:
            keys[key] = [float(v) for v in value]
    return fn(*args, **keys)


def _shift(doc: dict, command: str) -> ShiftSpace:
    system = system_from_json(doc)
    if not isinstance(system, ShiftSpace):
        raise ValueError(f"{command} requires a shift system")
    return system


def _observable(alphabet: int, kind: str = "table", **keys):
    """Kind "frequency" reads `symbol`, kind "table" `depth` and `table`."""
    if kind == "frequency":
        return _call(frequency_observable, alphabet_size=alphabet, **keys)
    if kind == "table":
        return _call(LocallyConstantObservable, **keys)
    raise ValueError(f"observable kind must be frequency or table; got {kind!r}")


def cmd_spectrum(config: dict, seed: int, out: str, *, system: dict,
                 observable: dict, alpha_grid: list[float],
                 constraint: dict = {}, count_n=None) -> int:
    system = _shift(system, "spectrum")
    phi = _observable(system.alphabet_size, **observable)
    vlo, vhi = phi.value_range
    if not all(vlo <= a <= vhi for a in alpha_grid):  # a NaN alpha fails too
        raise ValueError("alpha grid leaves the observable's value range")
    result = _call(spectrum, system, phi, alpha_grid=alpha_grid, count_n=count_n,
                   **{"lo": vlo, "hi": vhi, "closed": True, **constraint})
    rows = [(pt.alpha, pt.h_var, pt.h_count, count_n,
             None if pt.h_count is None else pt.h_count - pt.h_var, "")
            for pt in result.points]
    rows.append((result.sup_alpha, result.sup_value, None, "", None, "sup"))
    _write_csv(os.path.join(out, "spectrum.csv"), _header(config, seed),
               ["alpha", "h_var", "h_count", "n_count", "gap", "flag"], rows)
    return EXIT_OK


def _run_length_encode(symbols: np.ndarray) -> str:
    """Space-separated `AxN` tokens, one per run of N copies of symbol A,
    gathered from a table indexed by the run keys N * 128 + A, or by their
    sorted ranks where a table would hold more than 16 cells a run."""
    starts = np.flatnonzero(np.r_[len(symbols) > 0, symbols[1:] != symbols[:-1]])
    keys = np.diff(starts, append=len(symbols)) * 128 + symbols[starts]
    dense = keys.max(initial=0) < 16 * len(keys)
    used, at = (np.flatnonzero(np.bincount(keys)), keys) if dense \
        else np.unique(keys, return_inverse=True)
    tokens = np.empty(used[-1] + 1 if dense else len(used), object)
    tokens[used if dense else slice(None)] = [
        f"{p % 128}x{p // 128}" for p in used.tolist()]
    return " ".join(tokens[at].tolist())


def cmd_weave(config: dict, seed: int, out: str, *, system: dict, target: dict,
              bound: float = 0.05, family_N: int = 16, **options) -> int:
    system = _shift(system, "weave")
    if not 0 <= bound < math.inf:  # NaN fails too
        raise ValueError(f"bound must be finite and >= 0; got {bound!r}")
    family = TestFunctionFamily("cylinder", family_N, system.alphabet_size)
    target = measure_from_json(target, shift=system)
    schedule, _families, outcome = _call(run_weave, system, target, family,
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


def cmd_shadow(config: dict, seed: int, out: str, *, system: dict,
               mode: str = "single", epsilon: float = 1e-3, length: int = 100,
               trials: int = 100, delta: float = 2.0 ** -8) -> int:
    system = system_from_json(system)
    unread = {"single": "trials", "modulus": "delta"}.get(mode)
    if unread is None:
        raise ValueError(f"shadow mode must be single or modulus, got {mode!r}")
    if unread in config:
        raise ValueError(f"shadow {mode} mode does not read {unread}")
    if not 0 < epsilon < math.inf:  # read in every mode; NaN fails too
        raise ValueError(f"epsilon must be finite and > 0; got {epsilon!r}")
    if mode == "modulus":
        delta_hat, table = shadowing_modulus(system, epsilon, trials, length,
                                             seed)
        _write_csv(os.path.join(out, "modulus.csv"),
                   _header(config, seed, delta_hat=delta_hat),
                   ["delta", "successes", "trials"], table)
        return EXIT_OK
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


def cmd_katok(config: dict, seed: int, out: str, *, system: dict,
              measure: dict, q, n_grid: list, delta: float = 0.1) -> int:
    system = _shift(system, "katok")
    m = measure_from_json(measure, shift=system)
    if not isinstance(m, MarkovMeasure):
        raise ValueError("katok requires a Markov measure")
    if type(q) is not int or not 0 <= q <= 1074:  # epsilon = 2^-q >= 2^-1074
        raise ValueError(f"q must be an integer in [0, 1074]; got {q!r}")
    est = katok_entropy(system, m, 2.0 ** (-q), delta, n_grid)
    _write_csv(os.path.join(out, "katok.csv"),
               _header(config, seed, markov_entropy=markov_entropy(m)),
               ["n", "count", "rate"], est.diagnostics)
    return EXIT_OK


def cmd_shrink(config: dict, seed: int, out: str, *, system: dict, nu: dict,
               delta_grid: list[float], family_N: int = 16) -> int:
    system = _shift(system, "shrink")
    nu = measure_from_json(nu, shift=system)
    if not isinstance(nu, MarkovMeasure):
        raise ValueError("shrink requires a Markov measure nu")
    family = TestFunctionFamily("cylinder", family_N, system.alphabet_size)
    rows = shrink_experiment(system, nu, family, delta_grid)
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
        return _call(COMMANDS[args.command], config, args.seed, args.out, **config)
    except Exception as exc:
        code, label = next((code, label) for kinds, code, label in EXIT_CODES
                           if isinstance(exc, kinds))
        print(f"{label}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
