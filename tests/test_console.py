"""Console-script checks, one named row per config: tier-1 runs each row in
process and plants one fault per bespoke check; `python tests/test_console.py`
runs every row and every refusal of test_cli.CONFIG_FAILURES through the
`orbitweave` entry point on PATH and exits 1 naming each failed row.  The
checks read artifacts through, and reuse the oracles of, bench/oracles.py.
"""

import contextlib
import functools
import hashlib
import importlib.util
import io
import json
import math
import os
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile
import traceback
from collections import namedtuple

import pytest

from orbitweave import __version__
from orbitweave.cli import main
from test_cli import CONFIG_FAILURES, FULL2, GOLDEN, THREE, _modulus, refused

ORACLES = pathlib.Path(__file__).resolve().parents[1] / "bench" / "oracles.py"
_spec = importlib.util.spec_from_file_location("bench_oracles", ORACLES)
oracles = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracles)


# config: a dict, the file's text, or None for no file; code: the expected
# exit code; check(config, outdir, code, stderr) raises AssertionError
Step = namedtuple("Step", "name command config seed code check")


def run(step, workdir, console=False):
    """(code, stderr, outdir) of the step run on a config file in workdir,
    through the entry point on PATH or else through cli.main."""
    path, out = os.path.join(workdir, "config.json"), os.path.join(workdir, "out")
    if step.config is not None:
        with open(path, "w") as f:
            f.write(step.config if isinstance(step.config, str)
                    else json.dumps(step.config))
    argv = ["--command", step.command, "--config", path,
            "--seed", str(step.seed), "--out", out]
    if console:
        proc = subprocess.run(["orbitweave", *argv], capture_output=True,
                              text=True)
        return proc.returncode, proc.stderr, out
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue(), out


def verify(step, code, err, out):
    assert code == step.code, f"exit {code}, expected {step.code}: {err.strip()}"
    step.check(step.config, out, code, err)


def all_of(*checks):
    def check(*args):
        for c in checks:
            c(*args)
    return check


def csv(outdir, name):
    """read_csv of the artifact, whose comment line is a 12 hex digit hash,
    the version, then values written as %.12g."""
    comment, cols, rows = oracles.read_csv(os.path.join(outdir, name))
    (h, digits), (v, version), *values = (c.split("=") for c in comment.split())
    assert (h, v, version) == ("hash", "orbitweave", __version__), comment
    assert len(digits) == 12 and set(digits) <= set("0123456789abcdef")
    assert all(x == "%.12g" % float(x) for _, x in values), comment
    return comment, cols, rows


def digest(name, sha):
    def check(config, outdir, code, stderr):
        data = pathlib.Path(outdir, name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == sha, name
    return check


def single_shadow(config, outdir, code, stderr):
    """Found within 2^-9, one deviation per state, an admissible point."""
    doc = json.loads(pathlib.Path(outdir, "shadow.json").read_text())
    assert doc["found"] is True and doc["max_deviation"] <= 2 ** -9, doc
    assert len(doc["per_step"]) == config["length"]
    T, point = oracles.transition_matrix(config["system"]), doc["point"]
    seq = point["head"] + point["cycle"] + point["cycle"][:1]
    assert point["cycle"] and all(0 <= a < len(T) for a in seq)
    assert all(T[a, b] for a, b in zip(seq, seq[1:])), point


def one_row(config, outdir, code, stderr):
    _, _, rows = csv(outdir, "modulus.csv")
    eps, trials = config["epsilon"], config["trials"]
    assert [[float(v) for v in r] for r in rows] == [[eps, trials, trials]]


def replay(config, outdir, code, stderr):
    """The rows are the deltas the search visits: halvings from epsilon to
    the first good row (at most 14), then 4 bisection rounds; delta_hat is
    where they end and the largest good delta.  A missing row reads as bad
    and shows as a visited delta the table lacks."""
    comment, _, rows = csv(outdir, "modulus.csv")
    delta_hat = oracles.header_field(comment, "delta_hat")
    good = {d: int(ok) / int(trials) >= 0.95 for d, ok, trials in rows}

    def is_good(d):
        return good.get("%.12g" % d, False)
    visited, delta, bad = [], config["epsilon"], None
    while len(visited) < 14:
        visited.append(delta)
        if is_good(delta):
            break
        bad, delta = delta, delta / 2
    else:
        delta = 0.0
    lo, hi = delta, bad
    for _ in range(4 if delta > 0 and bad is not None else 0):
        mid = 0.5 * (lo + hi)
        visited.append(mid)
        lo, hi = (mid, hi) if is_good(mid) else (lo, mid)
    want = ["%.12g" % d for d in sorted(visited, reverse=True)]
    assert [d for d, _, _ in rows] == want, (rows, want)
    assert delta_hat == "%.12g" % lo
    assert float(delta_hat) == max(
        [float(d) for d, g in good.items() if g], default=0.0)


def depth2_counts(config, outdir, code, stderr):
    _, _, raw = csv(outdir, "spectrum.csv")
    rows = [r for r in raw if r[-1] != "sup"]
    h_var, h_count = ([float(r[i]) for r in rows] for i in (1, 2))
    assert len(rows) == 2 and h_count[0] != h_count[1], h_count
    assert all(c < v for c, v in zip(h_count, h_var)), (h_count, h_var)


def open_interval(config, outdir, code, stderr):
    """The sup row is the open end hi with its one-sided limit H(hi)."""
    *grid, sup = csv(outdir, "spectrum.csv")[2]
    assert [float(r[0]) for r in grid] == config["alpha_grid"]
    assert all(r[-1] == "" for r in grid) and sup[-1] == "sup"
    hi = config["constraint"]["hi"]
    assert float(sup[0]) == hi
    assert abs(float(sup[1]) - oracles.binary_entropy(hi)) <= 1e-9, sup


def shrink_ball(config, outdir, code, stderr):
    p = config["nu"]["bernoulli"]
    oracles.check_shrink(config, outdir, code, stderr, {
        d: oracles.shrink_bracket(p, d) for d in config["delta_grid"]})
    # no digest: max_gap's digits are rounding noise across BLAS builds
    comment, _, rows = csv(outdir, "shrink.csv")
    h_nu, gap = (float(oracles.header_field(comment, k))
                 for k in ("h_nu", "max_gap"))
    assert len(comment.split()) == 4, comment
    assert gap <= 1e-11 and abs(h_nu - oracles.binary_entropy(p)) <= 1e-12
    sups = [float(r[1]) for r in rows]
    assert all(a >= b for a, b in zip(sups, sups[1:])), sups


def shrink_closes(config, outdir, code, stderr):
    comment, _, rows = csv(outdir, "shrink.csv")
    assert float(oracles.header_field(comment, "max_gap")) <= 1e-11, comment
    assert len(rows) == len(config["delta_grid"])


def katok_rates(config, outdir, code, stderr):
    comment, _, rows = csv(outdir, "katok.csv")
    h = float(oracles.header_field(comment, "markov_entropy"))
    rates = [float(r[2]) for r in rows]
    assert len(rates) == len(config["n_grid"])
    assert all(a > b for a, b in zip(rates, rates[1:])), rates
    assert min(rates) > h and rates[-1] - h <= 0.05, (h, rates)


def katok_text(config, outdir, code, stderr):
    """Each rate is log(count) / n as %.12g, so exact counts fix each row."""
    _, _, rows = csv(outdir, "katok.csv")
    assert all(rate == "%.12g" % (math.log(int(count)) / int(n))
               for n, count, rate in rows), rows


def truncated(config, outdir, code, stderr):
    level = json.loads(pathlib.Path(outdir, "schedule.json").read_text())[
        "truncation_level"]
    assert stderr == f"schedule truncated to level {level}\n", stderr


TENT12 = {"kind": "tent", "s": 1.2}
PLMAP = {"kind": "plmap", "breakpoints": [0, 0.25, 0.5, 1],
         "values": [0, 0.9, 0.6, 1]}
GOLDEN_P = {"P": [[0.6, 0.4], [1.0, 0.0]]}
B07 = {"system": FULL2, "measure": {"bernoulli": 0.7}, "q": 1, "delta": 0.1}
B08 = {"system": FULL2, "nu": {"bernoulli": 0.8}}
DRAWN = all_of(functools.partial(oracles.check_shadow, exact=False), replay)
CERTIFIED = all_of(functools.partial(oracles.check_shadow, exact=True),
                   one_row)

STEPS = [
    # the digests pin the bytes the kernels wrote: a change to the draws,
    # the splice or the format shows here
    Step("shadow_golden", "shadow", {"system": GOLDEN, "mode": "single",
                                     "delta": 2.0 ** -8, "length": 200}, 1, 0,
         all_of(single_shadow, digest("shadow.json", "0e296c08ad1b805fc4c919"
                "6feef431c12be2f36978a471f2bb33441cc58393ee"))),
    Step("shadow_three", "shadow", {"system": THREE, "mode": "single",
                                    "delta": 2.0 ** -8, "length": 20000}, 1, 0,
         single_shadow),
    Step("modulus_tent12", "shadow", _modulus(TENT12, 1e-3, 100, 200), 1, 0,
         all_of(DRAWN, digest("modulus.csv", "0227633479da7da16ef14b99ff2bdd"
                "04aa0f6e4a9192142fd23a0e3979724042"))),
    *(Step(f"modulus_tent12_{t}_trials", "shadow",
           _modulus(TENT12, 1e-3, t, 200), 1, 0, DRAWN) for t in (7, 600)),
    Step("modulus_plmap", "shadow", _modulus(PLMAP, 1e-6, 60, 200), 0, 0,
         DRAWN),
    Step("modulus_tent2", "shadow", _modulus({"kind": "tent", "s": 2.0}, 1e-3,
                                             100, 100000), 1, 0, CERTIFIED),
    Step("modulus_three", "shadow", _modulus(THREE, 2.0 ** -9, 100, 200), 1, 0,
         CERTIFIED),
    Step("spectrum_depth2", "spectrum", {
        "system": GOLDEN, "observable": {"depth": 2, "table": [
            [[0, 0], 0.3], [[0, 1], 1.0], [[1, 0], -0.5], [[1, 1], 0.1]]},
        "count_n": 22, "alpha_grid": [0.26, 0.28]}, 1, 0, depth2_counts),
    Step("spectrum_open", "spectrum", {
        "system": FULL2, "observable": {"kind": "frequency", "symbol": 1},
        "alpha_grid": [0.27, 0.3, 0.33],
        "constraint": {"lo": 0.25, "hi": 0.35, "closed": False}}, 1, 0,
         open_interval),
    Step("shrink_b08", "shrink", {**B08, "delta_grid": [0.2, 0.1, 0.05, 0.02]},
         1, 0, shrink_ball),
    Step("shrink_tiny", "shrink", {**B08, "delta_grid": [0.1, 1e-11]}, 1, 0,
         shrink_closes),
    Step("katok_b07_to_100", "katok", {**B07, "n_grid": [10, 40, 100]}, 1, 0,
         all_of(oracles.check_katok, katok_rates)),
    # a grid and each of its n alone write the same rows
    *(Step(f"katok_b07_{name}", "katok", {**B07, "n_grid": grid}, 1, 0,
           all_of(oracles.check_katok, katok_text))
      for name, grid in (("grid", [8, 14, 20]), ("n8", [8]), ("n14", [14]),
                         ("n20", [20]))),
    Step("weave_golden", "weave", {"system": GOLDEN, "target": GOLDEN_P,
                                   "min_total_length": 50000}, 1, 0,
         oracles.check_weave),
    Step("weave_truncated", "weave", {"system": GOLDEN, "target": GOLDEN_P,
                                      "k_max": 4, "length_cap": 700}, 1, 3,
         truncated),
    Step("weave_b07", "weave", {"system": FULL2, "target": {"bernoulli": 0.7},
                                "min_total_length": 50000}, 1, 0,
         oracles.check_weave),
]
STEP = {step.name: step for step in STEPS}


def cell(row, col, fn):
    """CSV text with data cell (row, col) replaced by fn(its text)."""
    def edited(text):
        lines = text.splitlines()
        cells = lines[2 + row].split(",")
        cells[col] = fn(cells[col])
        lines[2 + row] = ",".join(cells)
        return "\n".join(lines) + "\n"
    return edited


# (row, fault, artifact or "stderr", edit of its text): each passes the
# row's oracle and fails its bespoke check; katok_rates has no fault, as a
# katok.csv with check_katok's exact counts cannot fail it
FAULTS = [
    ("shadow_three", "max_deviation 2^-8", "shadow.json", lambda t: json.dumps(
        {**json.loads(t), "max_deviation": 2.0 ** -8})),
    ("shadow_golden", "shadow.json without indent", "shadow.json",
     lambda t: json.dumps(json.loads(t))),
    ("modulus_tent12_600_trials", "epsilon row left out", "modulus.csv",
     lambda t: "\n".join(t.splitlines()[:2] + t.splitlines()[3:]) + "\n"),
    ("modulus_three", "a second row at epsilon / 2", "modulus.csv",
     lambda t: t + "%.12g,100,100\n" % 2.0 ** -10),
    ("spectrum_depth2", "h_count 1 at the first alpha", "spectrum.csv",
     cell(0, 2, lambda v: "1")),
    ("spectrum_open", "sup h_var off by 1e-8", "spectrum.csv",
     cell(3, 1, lambda v: "%.12g" % (float(v) + 1e-8))),
    *((name, "max_gap 2e-11", "shrink.csv",
       lambda t: re.sub(r"max_gap=\S+", "max_gap=2e-11", t))
      for name in ("shrink_b08", "shrink_tiny")),
    ("katok_b07_grid", "last digit of a rate changed", "katok.csv",
     cell(1, 2, lambda v: v[:-1] + str((int(v[-1]) + 1) % 10))),
    ("weave_truncated", "the stderr line twice", "stderr", lambda t: t * 2),
]


@pytest.fixture(scope="module")
def ran(tmp_path_factory):
    return functools.cache(
        lambda name: run(STEP[name], tmp_path_factory.mktemp(name)))


@pytest.mark.parametrize("name", list(STEP))
def test_step(ran, name):
    verify(STEP[name], *ran(name))


@pytest.mark.parametrize("name, label, target, edit", FAULTS,
                         ids=[f"{row[0]}-{row[1]}" for row in FAULTS])
def test_planted_fault_is_caught(ran, tmp_path, name, label, target, edit):
    code, err, out = ran(name)
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    if target == "stderr":
        err = edit(err)
    else:
        (copy / target).write_text(edit((copy / target).read_text()))
    with pytest.raises(AssertionError):
        verify(STEP[name], code, err, str(copy))


def test_katok_b07_to_100_counts_are_exact(ran):
    code, err, out = ran("katok_b07_to_100")
    oracles.check_katok(STEP["katok_b07_to_100"].config, out, code, err)


def console_main() -> int:
    rows = STEPS + [Step(f"refuse_{name}", command, cfg, 1, 2, refused(message))
                    for name, (command, cfg, message)
                    in sorted(CONFIG_FAILURES.items())]
    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        for step in rows:
            os.mkdir(workdir := os.path.join(tmp, step.name))
            try:
                verify(step, *run(step, workdir, console=True))
            except Exception:
                failed.append(step.name)
                print(f"FAILED {step.name}: {traceback.format_exc(limit=-1)}")
    print(f"{len(rows) - len(failed)} of {len(rows)} console checks pass"
          + "".join(f"\nfailed: {name}" for name in failed))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(console_main())
