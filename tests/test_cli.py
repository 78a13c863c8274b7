import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbitweave import entropy
from orbitweave.cli import _run_length_encode, main


def run(tmp_path, command, config, seed=1, outdir="out"):
    cfg = tmp_path / f"{command}.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / outdir
    code = main(["--config", str(cfg), "--seed", str(seed),
                 "--out", str(out), "--command", command])
    return code, out


SPECTRUM_CFG = {
    "system": {"kind": "full_shift", "k": 2},
    "observable": {"kind": "frequency", "symbol": 1},
    "alpha_grid": [i / 10 for i in range(1, 10)],
}


def read_rows(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# hash=")
    assert "orbitweave=" in lines[0]
    header = lines[1].split(",")
    return header, [dict(zip(header, l.split(","))) for l in lines[2:]]


def test_spectrum_grid(tmp_path):
    code, out = run(tmp_path, "spectrum", SPECTRUM_CFG)
    assert code == 0
    header, rows = read_rows(out / "spectrum.csv")
    assert header == ["alpha", "h_var", "h_count", "n_count", "gap", "flag"]
    assert len(rows) == 10  # 9 grid rows plus the flagged sup row
    sup = rows[-1]
    assert sup["flag"] == "sup"
    assert float(sup["alpha"]) == 0.5
    assert float(sup["h_var"]) == pytest.approx(math.log(2), abs=1e-9)


def test_spectrum_bad_grid_exits_2_without_csv(tmp_path):
    cfg = dict(SPECTRUM_CFG)
    cfg["alpha_grid"] = [0.5, 1.5]
    code, out = run(tmp_path, "spectrum", cfg)
    assert code == 2
    assert not (out / "spectrum.csv").exists()


def _wide_spectrum(scale=1):
    """Spectrum config of a depth-4 table whose Perron vectors span many
    decades, its values multiplied by scale."""
    values = [-0.316422, -0.316414, -0.314453, -0.314453, -0.282227,
              -0.282227, -0.280762, -0.280762, 0.109131, 0.109131, 0.109497,
              0.109497, 0.132874, 0.132874, 0.132843, 0.132843]
    table = [[list(w), scale * v] for w, v in
             zip(itertools.product(range(2), repeat=4), values)]
    return {"system": {"kind": "full_shift", "k": 2},
            "observable": {"depth": 4, "table": table}, "alpha_grid": [0.0]}


def test_spectrum_perron_vector_over_many_decades(tmp_path):
    # the range search probes q = +-50, where this observable's Perron
    # vector runs from about 1e-17 to 1
    code, out = run(tmp_path, "spectrum", _wide_spectrum())
    assert code == 0
    assert (out / "spectrum.csv").exists()


@pytest.mark.parametrize("scale", [12, 16, 18])
def test_spectrum_perron_vector_past_the_float_range_exits_2(tmp_path, capsys,
                                                             scale):
    # at q = +-50 the scaled table's Perron vector spans past 1e-308; the
    # range ends came back NaN (12-16) or stalled the certificate (18)
    code, out = run(tmp_path, "spectrum", _wide_spectrum(scale))
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "spans past the float range" in err
    assert not (out / "spectrum.csv").exists()


def test_byte_identical_reruns(tmp_path):
    _, out1 = run(tmp_path, "spectrum", SPECTRUM_CFG, seed=7, outdir="a")
    _, out2 = run(tmp_path, "spectrum", SPECTRUM_CFG, seed=7, outdir="b")
    assert (out1 / "spectrum.csv").read_bytes() == \
        (out2 / "spectrum.csv").read_bytes()


def test_katok_csv(tmp_path):
    cfg = {"system": {"kind": "full_shift", "k": 2},
           "measure": {"bernoulli": 0.5},
           "q": 1, "delta": 0.1, "n_grid": [8, 14, 20]}
    code, out = run(tmp_path, "katok", cfg)
    assert code == 0
    lines = (out / "katok.csv").read_text().splitlines()
    assert "markov_entropy=" in lines[0]
    _, rows = read_rows(out / "katok.csv")
    assert len(rows) == 3
    assert abs(float(rows[-1]["rate"]) - math.log(2)) < 0.05


def test_katok_infeasible_exits_2(tmp_path, capsys, monkeypatch):
    # n = 8 fits a 64-entry table and n = 40 does not: the table budget is
    # the only limit, and the rows already counted are not written
    monkeypatch.setattr(entropy, "TABLE_BUDGET", 64)
    cfg = {"system": {"kind": "full_shift", "k": 2},
           "measure": {"bernoulli": 0.7},
           "q": 1, "delta": 0.1, "n_grid": [8, 40]}
    code, out = run(tmp_path, "katok", cfg)
    assert code == 2
    assert "more than 64 table entries" in capsys.readouterr().err
    assert not (out / "katok.csv").exists()


def test_katok_three_symbols_past_cylinder_enumeration(tmp_path):
    # 3^14 cylinders: exact through the mass-class table, not k^L masses
    cfg = {"system": {"kind": "full_shift", "k": 3},
           "measure": {"bernoulli": [0.5, 0.3, 0.2]},
           "q": 1, "n_grid": [13]}
    code, out = run(tmp_path, "katok", cfg)
    assert code == 0
    _, rows = read_rows(out / "katok.csv")
    assert [int(r["n"]) for r in rows] == [13]


MIXTURE = {"mixture": [[0.5, {"bernoulli": 0.3}], [0.5, {"bernoulli": 0.6}]]}


@pytest.mark.parametrize("command, key, extra", [
    ("katok", "measure", {"q": 1, "n_grid": [8]}),
    ("shrink", "nu", {"delta_grid": [0.1]}),
])
def test_mixture_measure_exits_2_without_csv(tmp_path, capsys, command, key,
                                             extra):
    cfg = {"system": {"kind": "full_shift", "k": 2}, key: MIXTURE, **extra}
    code, out = run(tmp_path, command, cfg)
    assert code == 2
    assert "requires a Markov measure" in capsys.readouterr().err
    assert not (out / f"{command}.csv").exists()


def test_shrink_measure_on_fewer_symbols_exits_2(tmp_path, capsys):
    cfg = {"system": {"kind": "full_shift", "k": 3},
           "nu": {"bernoulli": 0.3}, "delta_grid": [0.1]}
    code, out = run(tmp_path, "shrink", cfg)
    assert code == 2
    err = capsys.readouterr().err
    assert "config/precondition error: 2-symbol measure on a 3-symbol" in err
    assert not (out / "shrink.csv").exists()


@pytest.mark.parametrize("grid, named", [
    ([], "delta_grid is empty"), ([0.0], "delta 0.0 is not"),
    ([0.1, 0.0], "delta 0.0 is not"), ([-0.1], "delta -0.1 is not"),
    ([1e-15], "delta 1e-15 is at or below the floor 2n 1e-16 = 3.2e-15"), ([0.1, 1e-15], "delta 1e-15 is at or below the floor 2n 1e-16 = 3.2e-15")])
def test_shrink_bad_grid_exits_2_without_csv(tmp_path, capsys, grid, named):
    cfg = {"system": {"kind": "full_shift", "k": 2},
           "nu": {"bernoulli": 0.8}, "delta_grid": grid}
    code, out = run(tmp_path, "shrink", cfg)
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("config/precondition error: ") and named in err
    assert not (out / "shrink.csv").exists()


def test_malformed_config_type_exits_2_without_traceback(tmp_path, capsys):
    cfg = {"system": {"kind": "full_shift", "k": None},
           "measure": {"bernoulli": 0.5}, "q": 1, "n_grid": [8]}
    code, out = run(tmp_path, "katok", cfg)
    assert code == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not (out / "katok.csv").exists()


def test_unexpected_error_exits_5_without_traceback(tmp_path, capsys,
                                                    monkeypatch):
    from orbitweave import cli

    def broken(config, seed, out):
        raise RuntimeError("unexpected")
    monkeypatch.setitem(cli.COMMANDS, "katok", broken)
    code, _ = run(tmp_path, "katok", {})
    assert code == 5
    err = capsys.readouterr().err
    assert "Traceback" not in err and "internal error: unexpected" in err


def test_shadow_single_true_orbit(tmp_path):
    cfg = {"system": {"kind": "full_shift", "k": 2},
           "mode": "single", "delta": 0.0, "length": 50}
    code, out = run(tmp_path, "shadow", cfg)
    assert code == 0
    doc = json.loads((out / "shadow.json").read_text())
    assert doc["found"]
    assert doc["max_deviation"] == 0.0


def test_shadow_modulus_table(tmp_path):
    cfg = {"system": {"kind": "tent", "s": 2.0}, "mode": "modulus",
           "epsilon": 1e-3, "trials": 10, "length": 40}
    code, out = run(tmp_path, "shadow", cfg)
    assert code == 0
    lines = (out / "modulus.csv").read_text().splitlines()
    assert "delta_hat=" in lines[0]


@pytest.mark.parametrize("system,bad", [
    ({"kind": "tent", "s": 2.0}, {"epsilon": 0}),
    ({"kind": "full_shift", "k": 2}, {"epsilon": 0}),
    ({"kind": "tent", "s": 2.0}, {"epsilon": -1e-3}),
    ({"kind": "tent", "s": 2.0}, {"epsilon": math.inf}),
    ({"kind": "tent", "s": 2.0}, {"trials": 0}),
    ({"kind": "full_shift", "k": 2}, {"length": 1}),
    ({"kind": "full_shift", "k": 2}, {"epsilon": 1.0}),
    ({"kind": "full_shift", "k": 2}, {"epsilon": 2.0}),
])
def test_shadow_modulus_bad_input_exits_2_without_artifact(tmp_path, capsys,
                                                           system, bad):
    cfg = {"system": system, "mode": "modulus", "epsilon": 1e-3,
           "trials": 10, "length": 40} | bad
    code, out = run(tmp_path, "shadow", cfg)
    assert code == 2
    assert not (out / "modulus.csv").exists()
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("cfg,message", [
    ({"system": {"kind": "tent", "s": 2.0}, "mode": "bogus"},
     "shadow mode must be single or modulus, got 'bogus'"),
    ({"system": {"kind": "full_shift", "k": 2}, "mode": "Modulus"},
     "shadow mode must be single or modulus, got 'Modulus'"),
    ({"system": {"kind": "full_shift", "k": 2}, "mode": "modulus",
      "epsilon": 1.0}, "epsilon must be < 1 on a shift; got 1.0"),
    ({"system": {"kind": "tent", "s": 2.0}, "mode": "modulus",
      "epsilon": 2.0 ** -50},
     "epsilon must be > 2^-50 on an interval map; got 8.881784197001252e-16"),
    ({"system": {"kind": "tent", "s": 1.2}, "mode": "single",
      "epsilon": 1e-16},
     "epsilon must be > 2^-50 on an interval map; got 1e-16"),
], ids=["bogus_mode", "capitalised_mode", "shift_epsilon_1",
        "interval_modulus_epsilon_floor", "interval_single_epsilon_floor"])
def test_shadow_bad_config_is_one_line_without_artifact(tmp_path, capsys,
                                                        cfg, message):
    # "mode" names one of two modes, and the message names the config's key
    code, out = run(tmp_path, "shadow", cfg)
    assert code == 2
    assert not out.exists() or not os.listdir(out)
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err


def test_weave_and_truncation(tmp_path):
    cfg = {"system": {"kind": "full_shift", "k": 2},
           "target": {"bernoulli": 0.7},
           "k_max": 2, "block_length": 12, "budget": 200,
           "min_total_length": 3000, "bound": 0.05}
    code, out = run(tmp_path, "weave", cfg, seed=11)
    assert code == 0
    sched = json.loads((out / "schedule.json").read_text())
    assert sched["total_length"] >= 3000
    assert not sched["truncated"]
    assert (out / "woven.txt").exists()
    _, rows = read_rows(out / "convergence.csv")
    assert float(rows[-1]["D"]) <= 0.05
    cfg["k_max"] = 4
    cfg["length_cap"] = 700
    cfg.pop("min_total_length")
    code2, trunc = run(tmp_path, "weave", cfg, seed=11, outdir="trunc")
    assert code2 == 3
    sched = json.loads((trunc / "schedule.json").read_text())
    assert sched["truncated"] is True
    assert sched["truncation_level"] == sched["k_max"] < 4
    assert sched["total_length"] <= 700
    runs = (trunc / "woven.txt").read_text().split()
    assert sum(int(r.split("x")[1]) for r in runs) == sched["total_length"]


FULL2 = {"kind": "full_shift", "k": 2}
GOLDEN = {"kind": "sft", "transition": [[1, 1], [1, 0]]}
WEAVE_MIXTURE = {"mixture": [[0.37, {"bernoulli": 0.25}],
                             [0.63, {"bernoulli": 0.8}]]}
# sha256 of woven.txt, schedule.json and convergence.csv at seed 1, as the
# weave wrote them with one Word per segment; a change to the sampled
# blocks, the draws, the splice or the formats shows here
WEAVE_DIGESTS = {
    "b07": (
        {"system": FULL2, "target": {"bernoulli": 0.7},
         "min_total_length": 5000},
        ["ae3b6bb3d2be880bf27220d54df71f01bb2f4e161fa191b717bb6a113e959b2b",
         "f1e832d220f204dbf57d23aa888ebdbaaa15a4020e4eb3ce6f9d7c2439c307af",
         "543f9c659d2da5effad07f6ebee555f5569a6ff86ae491bce14835d143ad3d03"]),
    "golden_markov": (
        {"system": GOLDEN, "target": {"P": [[0.6, 0.4], [1.0, 0.0]]},
         "min_total_length": 5000},
        ["eb17b380c30803a8ece00c57da344e4fcd78676567ecaf8a0db949975e072f1c",
         "0b091c1f12b0d1a6c9de34a3e3aa4327c5f9113ade21ed8ec047648e6434e7b7",
         "8983b8d1809db820a35860f9b3332d29d7c92a2cf3ce2985b69eaee320ec9805"]),
    "mixture": (
        {"system": FULL2, "target": WEAVE_MIXTURE, "k_max": 2,
         "min_total_length": 5000},
        ["4b40824af142dfd42a24d1e829c90c69973acd654859d11c50da0e529e45a46d",
         "11673943a5642208db11acb9b6b7c6cf03ba1b629cfcc34aa519782db6be645e",
         "24cf46672a717712de33f3018d20e3b59248c852b9e9b31864a039941047f3b3"]),
}


@pytest.mark.parametrize("name", sorted(WEAVE_DIGESTS))
def test_weave_artifacts_byte_identical(tmp_path, name):
    cfg, digests = WEAVE_DIGESTS[name]
    code, out = run(tmp_path, "weave", cfg)
    assert code == 0
    assert [hashlib.sha256((out / f).read_bytes()).hexdigest()
            for f in ("woven.txt", "schedule.json", "convergence.csv")] \
        == digests


@pytest.mark.parametrize("bad", [
    {"k_max": None}, {"gamma": [0.25]}, {"block_length": "16 symbols"},
    {"epsilon": {}}, {"budget": "many"}, {"min_total_length": None},
    {"length_cap": "big"}])
def test_weave_option_of_wrong_type_exits_2_without_artifact(tmp_path, capsys,
                                                             bad):
    # every option the CLI forwards to run_weave is checked against
    # run_weave's annotation
    cfg = {"system": FULL2, "target": {"bernoulli": 0.7}} | bad
    code, out = run(tmp_path, "weave", cfg)
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("config/precondition error") and "Traceback" not in err


def test_weave_over_cap_exits_3_without_artifact(tmp_path, capsys):
    # even one level is longer than length_cap: the OverflowError maps to
    # exit 3 through the EXIT_CODES table, before any artifact is written
    cfg = {"system": FULL2, "target": {"bernoulli": 0.7}, "k_max": 1,
           "length_cap": 20}
    code, out = run(tmp_path, "weave", cfg)
    assert code == 3
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("truncation: even a single level needs")
    assert "Traceback" not in err


# family_N past 1022: the weights 2^-(i+1) were divided in as 2.0 ** (i + 1),
# which overflows at i = 1023, and both weaves exited 3 with "truncation:
# (34, 'Numerical result out of range')"
FAMILY_1100 = {
    name: {**cfg, "family_N": 1100, "min_total_length": 2000}
    for name, cfg in (("b07", {"system": FULL2, "target": {"bernoulli": 0.7}}),
                      ("mixture", {"system": FULL2, "target": WEAVE_MIXTURE,
                                   "k_max": 2}))}


@pytest.mark.parametrize("name", sorted(FAMILY_1100))
def test_weave_past_family_N_1022_exits_0(tmp_path, name):
    code, out = run(tmp_path, "weave", FAMILY_1100[name], seed=1)
    assert code == 0
    _, rows = read_rows(out / "convergence.csv")
    assert math.isfinite(float(rows[-1]["D"]))


def _modulus(system, epsilon, trials, length):
    return {"system": system, "mode": "modulus", "epsilon": epsilon,
            "trials": trials, "length": length}


# sha256 of modulus.csv for the benchmark's shadow configs at their seeds
# (run seed 1); a change to a kernel, the draws or the format that moves any
# row of these tables shows here.  The fourth, the 1.2 tent at seed 1, is
# pinned by the modulus_tent12 row of test_console.py
SHADOW_DIGESTS = {
    "full": (_modulus(FULL2, 2.0 ** -9, 100, 200), 100,
             "08803d2167360c6f86f7c9d9c49a4a7336bc6de5922b568b55390a015997199f"),
    "golden": (_modulus(GOLDEN, 2.0 ** -9, 100, 200), 101,
               "aa97090ce821d2deb312bd5a23544031f0f623d3f443e59313b66597e9805686"),
    "tent2": (_modulus({"kind": "tent", "s": 2.0}, 1e-3, 100, 1000), 102,
              "8ef0fcdff71362741162424b5dad554a3b68ac03726278a2583c9884f262c8b2"),
}


@pytest.mark.parametrize("name", sorted(SHADOW_DIGESTS))
def test_shadow_artifacts_byte_identical(tmp_path, name):
    cfg, seed, digest = SHADOW_DIGESTS[name]
    code, out = run(tmp_path, "shadow", cfg, seed=seed)
    assert code == 0
    assert hashlib.sha256((out / "modulus.csv").read_bytes()).hexdigest() \
        == digest


THREE = {"kind": "sft", "transition": [[0, 0, 1], [1, 1, 0], [1, 1, 1]]}
# sha256 of single-mode shadow.json at delta 2^-8, length 200 and seed 1:
# the random start, its canonical-cycle state, the perturbed orbit and the
# splice all show here; the golden mean's is pinned by the shadow_golden row
# of test_console.py
SINGLE_SHADOW_DIGESTS = {
    "full": (FULL2,
             "e53cd1ada102d49d8537a4b3b5a0fab61d4b5cd4b0d6a7746fcfe32152ada1d1"),
    "three": (THREE,
              "93010ae21e98bf112904bd4f6a1c96fdca227f600ae00cefb72362bc0af405e1"),
}


@pytest.mark.parametrize("name", sorted(SINGLE_SHADOW_DIGESTS))
def test_single_shadow_artifact_byte_identical(tmp_path, name):
    system, digest = SINGLE_SHADOW_DIGESTS[name]
    cfg = {"system": system, "mode": "single", "delta": 2.0 ** -8,
           "length": 200}
    code, out = run(tmp_path, "shadow", cfg)
    assert code == 0
    assert hashlib.sha256((out / "shadow.json").read_bytes()).hexdigest() \
        == digest


FREQ = {"kind": "frequency", "symbol": 1}
# sha256 of spectrum.csv and katok.csv for the benchmark's analysis configs
# at their seeds (run seed 1), as the two separate counting DPs before the
# shared walk count wrote them
ANALYSIS_DIGESTS = {
    "spectrum_full": (
        "spectrum", {"system": FULL2, "observable": FREQ, "count_n": 24,
                     "alpha_grid": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8,
                                    0.9]}, 100,
        "fa88e4e53065b8e1c4c7426be11842572c4c16112f7bfd82b783f8d76a12043d"),
    "spectrum_golden": (
        "spectrum", {"system": GOLDEN, "observable": FREQ, "count_n": 24,
                     "alpha_grid": [0.05, 0.1, 0.2, 0.3, 0.4, 0.45]}, 101,
        "fc0320f038fc85cc069019ea7d6badb2814662866609219febcbcf2488b19913"),
    "katok_b07": (
        "katok", {"system": FULL2, "measure": {"bernoulli": 0.7}, "q": 1,
                  "n_grid": [8, 14, 20]}, 102,
        "c8000e3e9b81aa1faf34e4121d2846b1d6102d1d28246c57604645efd5abb9a9"),
    "katok_b05": (
        "katok", {"system": FULL2, "measure": {"bernoulli": 0.5}, "q": 1,
                  "n_grid": [20]}, 103,
        "2b252f3430e6ec61561465d84f4a2014f379d76ad82f0392510312716fe76efb"),
    "katok_k3": (
        "katok", {"system": {"kind": "full_shift", "k": 3},
                  "measure": {"bernoulli": [0.5, 0.3, 0.2]}, "q": 1,
                  "n_grid": [8, 10, 12]}, 104,
        "9e091184f6aed58ff7ab34cf03f590bef846a04a3a2b590112e53ec2c039ad3e"),
}


@pytest.mark.parametrize("name", sorted(ANALYSIS_DIGESTS))
def test_analysis_artifacts_byte_identical(tmp_path, name):
    command, cfg, seed, digest = ANALYSIS_DIGESTS[name]
    code, out = run(tmp_path, command, cfg, seed=seed)
    assert code == 0
    assert hashlib.sha256((out / f"{command}.csv").read_bytes()).hexdigest() \
        == digest


TENT = {"kind": "tent", "s": 2.0}
FULL129 = {"kind": "full_shift", "k": 129}
WEAVE_B07 = {"system": FULL2, "target": {"bernoulli": 0.7}}
KATOK_B07 = {"system": FULL2, "measure": {"bernoulli": 0.7}, "q": 1,
             "n_grid": [8]}
SHRINK_B08 = {"system": FULL2, "nu": {"bernoulli": 0.8}, "delta_grid": [0.1]}
NAN_PI = {"P": [[0.5, 0.5], [0.5, 0.5]], "pi": [math.nan, math.nan]}
# name -> (command, config (None: no file; str: the file's text), message):
# every config or precondition failure takes the one EXIT_CODES channel
CONFIG_FAILURES = {
    "spectrum_tent": ("spectrum", {**SPECTRUM_CFG, "system": TENT},
                      "spectrum requires a shift system"),
    "alpha_range": ("spectrum", {**SPECTRUM_CFG, "alpha_grid": [0.5, 1.5]},
                    "alpha grid leaves the observable's value range"),
    "alpha_nan": ("spectrum", {**SPECTRUM_CFG, "alpha_grid": [0.5, math.nan]},
                  "alpha grid leaves the observable's value range"),
    "count_n_negative": ("spectrum", {**SPECTRUM_CFG, "count_n": -3},
                         "count_n must be an integer >= 1; got -3"),
    "count_n_zero": ("spectrum", {**SPECTRUM_CFG, "count_n": 0},
                     "count_n must be an integer >= 1; got 0"),
    "count_n_float": ("spectrum", {**SPECTRUM_CFG, "count_n": 2.7},
                      "count_n must be an integer >= 1; got 2.7"),
    "count_n_bool": ("spectrum", {**SPECTRUM_CFG, "count_n": True},
                     "count_n must be an integer >= 1; got True"),
    "weave_tent": ("weave", {"system": TENT, "target": {"bernoulli": 0.7}},
                   "weave requires a shift system"),
    "shadow_mode": ("shadow", {"system": TENT, "mode": "bogus"},
                    "shadow mode must be single or modulus, got 'bogus'"),
    "katok_tent": ("katok", {"system": TENT, "measure": {"bernoulli": 0.5},
                             "q": 1, "n_grid": [8]},
                   "katok requires a shift system"),
    "katok_mixture": ("katok", {"system": FULL2, "measure": MIXTURE, "q": 1,
                                "n_grid": [8]},
                      "katok requires a Markov measure"),
    "katok_n_zero": ("katok", {"system": FULL2, "measure": {"bernoulli": 0.5},
                               "q": 1, "n_grid": [0, 4]},
                     "n_grid must be nonempty, increasing and >= 1"),
    "katok_n_negative": ("katok", {"system": FULL2, "q": 1, "n_grid": [-2],
                                   "measure": {"bernoulli": 0.5}},
                         "n_grid must be nonempty, increasing and >= 1"),
    "katok_n_float": ("katok", {"system": FULL2, "q": 1, "n_grid": [8.7],
                                "measure": {"bernoulli": 0.7}},
                      "n_grid must be nonempty, increasing and >= 1, each an "
                      "integer; got [8.7]"),
    **{f"katok_q_{name}": ("katok", {"system": FULL2, "q": q, "n_grid": [8],
                                     "measure": {"bernoulli": 0.7}},
                           f"q must be an integer in [0, 1074]; got {q!r}")
       # -1100 overflowed to exit 3, 2000 hit a math domain error, -1 read
       # as a bad epsilon, and 1.5 and "1" were cut to 1 by int()
       for name, q in (("overflow", -1100), ("underflow", 2000),
                       ("negative", -1), ("float", 1.5), ("string", "1"),
                       ("bool", True))},
    "shrink_tent": ("shrink", {"system": TENT, "nu": {"bernoulli": 0.8},
                               "delta_grid": [0.1]},
                    "shrink requires a shift system"),
    "shrink_mixture": ("shrink", {"system": FULL2, "nu": MIXTURE,
                                  "delta_grid": [0.1]},
                       "shrink requires a Markov measure nu"),
    # NaN masses failed no check: shrink exited 0 with h_nu=nan, katok 5 and
    # weave 4, and NaN rows made LAPACK print to the console before exit 2
    **{f"{command}_nan_pi": (command, {"system": FULL2, key: NAN_PI, **extra},
                             "stationary vector is not fixed by the matrix")
       for command, key, extra in (
           ("shrink", "nu", {"delta_grid": [0.1]}),
           ("katok", "measure", {"q": 1, "n_grid": [8]}),
           ("weave", "target", {}))},
    "shrink_nan_P": ("shrink", {"system": FULL2, "delta_grid": [0.1],
                                "nu": {"P": [[math.nan, math.nan],
                                             [0.5, 0.5]]}},
                     "rows must be nonnegative and sum to 1"),
    **{f"{command}_negative_pi": (
        command, {"system": FULL2, key: {"P": [[1, 0], [0, 1]],
                                         "pi": [1.5, -0.5]}, **extra},
        "stationary vector must be nonnegative and sum to 1")
       for command, key, extra in (
           ("shrink", "nu", {"delta_grid": [0.1]}),
           ("katok", "measure", {"q": 1, "n_grid": [8]}))},
    "weave_mixture_nan": ("weave", {"system": FULL2, "target": {"mixture": [
        [math.nan, {"bernoulli": 0.3}], [0.5, {"bernoulli": 0.7}]]}},
                          "mixture weights must sum to 1"),
    "plmap_nan": ("shadow", {"system": {"kind": "plmap",
                                        "breakpoints": [0, math.nan, 1],
                                        "values": [0, 0.9, 1]},
                             "mode": "modulus", "trials": 10, "length": 50},
                  "breakpoints must be strictly increasing"),
    # checked before any kernel runs: an infinite delta wrote
    # "delta": Infinity to shadow.json on the tent (exit 0) and overflowed
    # in the shift kernel (exit 3), and a NaN reached numpy on a shift
    **{f"{name}_delta_{label}": ("shadow", {
        "system": system, "mode": "single", "delta": delta, "length": 50},
        f"delta must be nonnegative and finite; got {delta!r}")
       for name, system in (("tent", TENT), ("shift", FULL2))
       for label, delta in (("nan", math.nan), ("inf", math.inf))},
    # single mode on a shift never read epsilon, so a NaN exited 0
    "shift_epsilon_nan": ("shadow", {"system": FULL2, "mode": "single",
                                     "epsilon": math.nan, "length": 50},
                          "epsilon must be finite and > 0; got nan"),
    # a NaN bound read as an honest miss: exit 1 with every artifact written
    "weave_bound_nan": ("weave", {"system": FULL2, "target": {"bernoulli": 0.7},
                                  "bound": math.nan},
                        "bound must be finite and >= 0; got nan"),
    # unknown keys were ignored (exit 0); budget is no longer a shrink key
    "weave_block_lenght": ("weave", {**WEAVE_B07, "block_lenght": 99},
                           "unexpected keyword argument 'block_lenght'"),
    "katok_qq": ("katok", {**KATOK_B07, "qq": 3},
                 "unexpected keyword argument 'qq'"),
    "spectrum_clossed": ("spectrum", {**SPECTRUM_CFG,
                                      "constraint": {"clossed": False}},
                         "unexpected keyword argument 'clossed'"),
    "shrink_budget": ("shrink", {**SHRINK_B08, "budget": 60},
                      "unexpected keyword argument 'budget'"),
    # int(), float() and bool() rewrote these and the run exited 0
    "weave_budget_float": ("weave", {**WEAVE_B07, "budget": 2.5},
                           "budget must be of type int; got 2.5"),
    "shadow_length_float": ("shadow", {"system": FULL2, "length": 100.7},
                            "length must be of type int; got 100.7"),
    "shadow_trials_bool": ("shadow", {"system": TENT, "mode": "modulus",
                                      "trials": True},
                           "trials must be of type int; got True"),
    "katok_k_float": ("katok", {**KATOK_B07, "system": {"kind": "full_shift",
                                                        "k": 2.9}},
                      "alphabet size 2.9 is no integer >= 2"),
    "spectrum_symbol_float": ("spectrum", {**SPECTRUM_CFG, "observable": {
        "kind": "frequency", "symbol": 1.5}}, "symbol must be of type int; got 1.5"),
    "shrink_family_N_float": ("shrink", {**SHRINK_B08, "family_N": 16.9},
                              "family_N must be of type int; got 16.9"),
    **{f"spectrum_closed_{text}": (
        "spectrum", {**SPECTRUM_CFG, "constraint": {"closed": text}},
        f"closed must be of type bool; got {text!r}")
       for text in ("no", "false")},
    "katok_sft_half": ("katok", {**KATOK_B07, "system": {
        "kind": "sft", "transition": [[1, 1], [1, 0.5]]}},
        "transition entries must be 0/1; got ((1, 1), (1, 0.5))"),
    "katok_bernoulli_string": ("katok", {**KATOK_B07,
                                         "measure": {"bernoulli": "0.7"}},
                               "bernoulli parameter must hold numbers; got "
                               "'0.7'"),
    "shadow_tent_s_string": ("shadow", {"system": {"kind": "tent", "s": "2"}},
                             "slope must be in (1, 2]; got '2'"),
    # list elements follow the same rule: True ran as alpha 1, and the
    # strings failed a comparison with a message that named no key
    **{f"spectrum_alpha_{label}": (
        "spectrum", {**SPECTRUM_CFG, "alpha_grid": [0.5, value]},
        f"alpha_grid must be of type list[float]; got [0.5, {value!r}]")
       for label, value in (("bool", True), ("string", "0.7"))},
    "shrink_delta_string": ("shrink", {**SHRINK_B08, "delta_grid": ["0.1"]},
                            "delta_grid must be of type list[float]; got "
                            "['0.1']"),
    # a misspelled kind exited 2 with the bare message 'table'
    "spectrum_kind_frequncy": ("spectrum", {**SPECTRUM_CFG, "observable": {
        "kind": "frequncy", "symbol": 1}},
        "observable kind must be frequency or table; got 'frequncy'"),
    # a table's words are checked against its depth, and a missing
    # admissible word is named: these exited 2 with "(1, 1)" and "(0, 0)"
    "spectrum_table_misses_11": ("spectrum", {**SPECTRUM_CFG, "observable": {
        "depth": 2, "table": [[[0, 0], 0.0], [[0, 1], 1.0], [[1, 0], 1.0]]}},
        "observable table misses the word [1, 1]"),
    "spectrum_table_short_words": ("spectrum", {**SPECTRUM_CFG, "observable": {
        "depth": 2, "table": [[[0], 0.0], [[1], 1.0]]}},
        "distinct words of 2 integer symbols; got [[0], [1]]"),
    "spectrum_table_empty": ("spectrum", {**SPECTRUM_CFG, "observable": {
        "depth": 1, "table": []}}, "distinct words of 1 integer symbols; got []"),
    "spectrum_table_repeated": ("spectrum", {**SPECTRUM_CFG, "observable": {
        "depth": 1, "table": [[[0], 0.0], [[0], 1.0], [[1], 1.0]]}},
        "got [[0], [0], [1]]"),
    "spectrum_table_string_value": ("spectrum", {**SPECTRUM_CFG, "observable": {
        "depth": 1, "table": [[[0], 0.0], [[1], "1"]]}},
        "observable values must hold numbers"),
    # Infinity overflowed to exit 3, NaN, 0 and -1 exited 2 on bare numeric
    # messages, and a zero budget or block length posed as a resource cap
    **{f"weave_{key}_{label}": (
        "weave", {**WEAVE_B07, key: value}, f"{key}={value!r}")
       for key, label, value in (
           ("epsilon", "inf", math.inf), ("epsilon", "nan", math.nan),
           ("epsilon", "zero", 0), ("epsilon", "negative", -1),
           ("budget", "zero", 0), ("block_length", "zero", 0),
           ("min_total_length", "negative", -1))},
    # a key the shadow mode never reads was ignored
    "shadow_single_trials": ("shadow", {"system": FULL2, "mode": "single",
                                        "trials": 10},
                             "shadow single mode does not read trials"),
    "shadow_modulus_delta": ("shadow", {"system": TENT, "mode": "modulus",
                                        "delta": 0.01},
                             "shadow modulus mode does not read delta"),
    # a symbol outside the alphabet built an all-zero table, and spectrum
    # exited 2 on a message that named neither the symbol nor the alphabet
    "spectrum_symbol_outside": ("spectrum", {**SPECTRUM_CFG, "observable": {
        "kind": "frequency", "symbol": 5}},
        "frequency symbol 5 is not in the alphabet of 2 symbols"),
    # the shift modulus draws no trials, yet still refuses a dead end
    "shadow_modulus_dead_end": ("shadow", _modulus(
        {"kind": "sft", "transition": [[1, 1], [0, 0]]}, 2.0 ** -6, 10, 50),
        "a symbol has no allowed successor"),
    # drawn symbols are int8: 200 symbols exited 3 on numpy's overflow, and
    # a weave's draw wrapped symbol 128 to a negative one and exited 2 on
    # "word too short, or a symbol outside the alphabet" (or 0 by luck)
    **{f"{name}_129_symbols": (command, {"system": FULL129, **cfg},
                               "drawn symbols are int8: at most 128 symbols")
       for name, command, cfg in (
           ("shadow_single", "shadow", {"mode": "single", "length": 50}),
           ("shadow_modulus", "shadow", {"mode": "modulus", "trials": 10,
                                         "length": 50}),
           ("weave", "weave", {"target": {"bernoulli": [1 / 129] * 129}}))},
    # a true among numbers ran as 1.0 and exited 0, and an int past the
    # float range overflowed in the widening and exited 3 as a truncation
    "katok_P_true": ("katok", {**KATOK_B07, "measure": {
        "P": [[True, 0.0], [0.5, 0.5]]}}, "stochastic matrix P must hold numbers"),
    "weave_epsilon_huge_int": ("weave", {**WEAVE_B07, "epsilon": 10 ** 400},
                               "epsilon must be of type float; got 1000"),
    # numpy's "inhomogeneous shape" error named neither P nor the value
    "katok_P_ragged": ("katok", {**KATOK_B07, "measure": {
        "P": [[0.5, 0.5], [1.0]]}},
        "stochastic matrix P must hold numbers; got [[0.5, 0.5], [1.0]]"),
    # a string knot or weight failed a comparison or a sum on a message that
    # named no key, and a true knot ran as 1 and exited 0
    **{f"plmap_knot_{label}": ("shadow", {"system": {
        "kind": "plmap", "breakpoints": knots, "values": [0, 0.9, 1]},
        "mode": "modulus", "trials": 10, "length": 50},
        f"breakpoints must be numbers; got {knots!r}")
       for label, knots in (("string", [0, "0.25", 1]),
                            ("true", [0, 0.25, True]))},
    "weave_mixture_weight_string": ("weave", {**WEAVE_B07, "target": {
        "mixture": [["0.5", {"bernoulli": 0.3}], [0.5, {"bernoulli": 0.7}]]}},
        "mixture weights must be numbers; got ['0.5', 0.5]"),
    "missing_file": ("katok", None, "No such file or directory"),
    "not_json": ("katok", "{system: full_shift}", "Expecting property name"),
}


def refused(message):
    """The check (config, outdir, code, stderr) of a config failure: exit 2
    on one stderr line that names message, and no artifact."""
    def check(config, outdir, code, err):
        assert code == 2
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith("config/precondition error: ") and message in err
        assert not os.path.exists(outdir) or not os.listdir(outdir)
    return check


@pytest.mark.parametrize("name", sorted(CONFIG_FAILURES))
def test_config_failure_is_one_line_on_exit_2(tmp_path, capsys, name):
    command, cfg, message = CONFIG_FAILURES[name]
    path, out = tmp_path / "config.json", tmp_path / "out"
    if cfg is not None:
        path.write_text(cfg if isinstance(cfg, str) else json.dumps(cfg))
    code = main(["--config", str(path), "--seed", "1", "--out", str(out),
                 "--command", command])
    refused(message)(cfg, str(out), code, capsys.readouterr().err)


def test_spectrum_null_count_n_leaves_count_columns_blank(tmp_path):
    code, out = run(tmp_path, "spectrum", {**SPECTRUM_CFG, "count_n": None})
    assert code == 0
    _, rows = read_rows(out / "spectrum.csv")
    assert all(r["h_count"] == r["n_count"] == r["gap"] == "" for r in rows)


@pytest.mark.parametrize("system", [FULL2, GOLDEN])
def test_shift_modulus_is_one_full_row_for_any_start(tmp_path, system):
    # the splice shadows every validated 2^-m pseudo-orbit to 2^-(m+1), so
    # the table is the row (eps, trials, trials) whatever starts are drawn
    for seed in (0, 3, 17, 2024):
        code, out = run(tmp_path, "shadow", _modulus(system, 2.0 ** -6, 12, 50),
                        seed=seed, outdir=f"out{seed}")
        assert code == 0
        _, rows = read_rows(out / "modulus.csv")
        assert [(float(r["delta"]), int(r["successes"]), int(r["trials"]))
                for r in rows] == [(2.0 ** -6, 12, 12)]


def _loop_run_length_encode(symbols) -> str:
    """Reference encoder: one Python step per symbol."""
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


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 127), st.integers(1, 3000)),
                max_size=40))
@example([])
@example([(0, 1)])
@example([(1, 1)])
@example([(127, 1)])
@example([(2, 50_000)])
@example([(127, 3), (0, 2), (127, 1)])
def test_run_length_encode_matches_loop(runs):
    symbols = [a for a, n in runs for _ in range(n)]
    assert _run_length_encode(np.array(symbols, dtype=np.int8)) == \
        _loop_run_length_encode(symbols)


def _sorted_run_length_encode(symbols) -> str:
    """The former encoder: the run keys N * 128 + A sorted by np.unique."""
    starts = np.flatnonzero(np.r_[len(symbols) > 0, symbols[1:] != symbols[:-1]])
    keys, at = np.unique(np.diff(starts, append=len(symbols)) * 128
                         + symbols[starts], return_inverse=True)
    return " ".join(np.array([f"{p % 128}x{p // 128}" for p in keys.tolist()],
                             object)[at].tolist())


@pytest.mark.parametrize("symbols", [
    np.full(50_000, 5, np.int8),  # one run: keys too sparse for a table
    np.arange(128, dtype=np.int8),  # every symbol once
    np.repeat(np.arange(128, dtype=np.int8), np.arange(1, 129) % 7 + 1),
    np.random.default_rng(2).integers(0, 2, 50_000).astype(np.int8),
], ids=["one_run", "point128", "runs128", "coin"])
def test_table_encoder_matches_sorted_encoder(symbols):
    # the bytes of the former encoder; the one-run point allocates no
    # 6.4-million-cell table for its one key
    import tracemalloc
    tracemalloc.start()
    try:
        text = _run_length_encode(symbols)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == _sorted_run_length_encode(symbols)
    assert peak < 64 * len(symbols) + 100_000


def test_shrink_csv(tmp_path):
    cfg = {"system": {"kind": "full_shift", "k": 2},
           "nu": {"bernoulli": 0.8},
           "delta_grid": [0.2, 0.1]}
    code, out = run(tmp_path, "shrink", cfg)
    assert code == 0
    _, rows = read_rows(out / "shrink.csv")
    assert len(rows) == 2
    assert float(rows[0]["sup_hat"]) >= float(rows[1]["sup_hat"])
    comment = (out / "shrink.csv").read_text().splitlines()[0]
    assert float(comment.split("max_gap=")[1].split()[0]) <= 1e-9


def test_shrink_tiny_delta_closes(tmp_path, capsys):
    # the barrier ran past the kernel's weight spread here and exited 2
    cfg = {"system": {"kind": "full_shift", "k": 2},
           "nu": {"bernoulli": 0.8}, "delta_grid": [1e-11]}
    code, out = run(tmp_path, "shrink", cfg)
    assert code == 0, capsys.readouterr().err
    comment = (out / "shrink.csv").read_text().splitlines()[0]
    assert float(comment.split("max_gap=")[1].split()[0]) <= 1e-11


def test_shrink_respects_sft(tmp_path):
    # on the golden-mean shift no invariant measure has entropy above
    # log of the golden ratio, however large the ball
    cfg = {"system": {"kind": "sft", "transition": [[1, 1], [1, 0]]},
           "nu": {"P": [[0.9, 0.1], [1, 0]]},
           "delta_grid": [0.2, 0.1, 0.05, 0.02]}
    code, out = run(tmp_path, "shrink", cfg)
    assert code == 0
    _, rows = read_rows(out / "shrink.csv")
    log_phi = math.log((1 + math.sqrt(5)) / 2)
    assert all(float(r["sup_hat"]) <= log_phi + 1e-12 for r in rows)


def test_missing_config_exits_2(tmp_path):
    code = main(["--config", str(tmp_path / "nope.json"),
                 "--seed", "1", "--out", str(tmp_path), "--command", "katok"])
    assert code == 2


def test_missing_key_exits_2(tmp_path):
    code, _ = run(tmp_path, "katok", {"system": {"kind": "full_shift", "k": 2}})
    assert code == 2


def test_block_search_budget_exits_4_without_artifact(tmp_path, capsys):
    # the period-2 chain returns to its cell only at even times, and the
    # return window [15, floor(1.01 * 15)] holds only 15
    cfg = {"system": {"kind": "full_shift", "k": 2},
           "target": {"P": [[0, 1], [1, 0]], "pi": [0.5, 0.5]},
           "block_length": 15, "gamma": 0.01}
    code, out = run(tmp_path, "weave", cfg)
    assert code == 4
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_weave_three_symbols(tmp_path):
    cfg = {"system": {"kind": "full_shift", "k": 3},
           "target": {"bernoulli": [0.5, 0.3, 0.2]},
           "min_total_length": 6000}
    code, out = run(tmp_path, "weave", cfg)
    assert code == 0
    sched = json.loads((out / "schedule.json").read_text())
    runs = [r.split("x") for r in (out / "woven.txt").read_text().split()]
    symbols = [int(s) for s, n in runs for _ in range(int(n))]
    assert len(symbols) == sched["total_length"] >= 6000
    assert set(symbols) == {0, 1, 2}


def test_spectrum_table_may_leave_out_inadmissible_words(tmp_path):
    # the golden mean admits no 11, so a table without it is whole there
    cfg = {"system": GOLDEN, "alpha_grid": [0.25], "observable": {
        "depth": 2, "table": [[[0, 0], 0.0], [[0, 1], 1.0], [[1, 0], 0.5]]}}
    code, out = run(tmp_path, "spectrum", cfg)
    assert code == 0
    assert (out / "spectrum.csv").exists()


# one small valid config per command and nested document; every int leaf
# sits where an int is expected and every float leaf where a number is
VALID_CONFIGS = [
    ("spectrum", {"system": FULL2, "observable": FREQ, "alpha_grid": [0.5],
                  "count_n": 4}),
    ("spectrum", {"system": {"kind": "full_shift", "k": 2},
                  "observable": {"depth": 1, "table": [[[0], 0.0],
                                                       [[1], 1.0]]},
                  "alpha_grid": [0.25, 0.5],
                  "constraint": {"lo": 0.1, "hi": 0.9, "closed": False}}),
    ("katok", {"system": GOLDEN, "measure": {"P": [[0.6, 0.4], [1.0, 0.0]]},
               "q": 1, "n_grid": [4, 6], "delta": 0.1}),
    ("weave", {"system": FULL2, "target": {"mixture": [
        [0.5, {"bernoulli": 0.3}], [0.5, {"bernoulli": 0.7}]]},
        "k_max": 1, "gamma": 0.25, "block_length": 8, "epsilon": 0.25,
        "budget": 50, "min_total_length": 0, "length_cap": 10000,
        "bound": 0.5, "family_N": 8}),
    ("weave", {"system": {"kind": "full_shift", "k": 3},
               "target": {"bernoulli": [0.5, 0.3, 0.2]}, "k_max": 1}),
    ("shadow", {"system": TENT, "mode": "modulus", "epsilon": 0.001,
                "trials": 5, "length": 20}),
    ("shadow", {"system": {"kind": "plmap", "breakpoints": [0.0, 0.25, 1.0],
                           "values": [0.0, 0.9, 1.0]},
                "mode": "single", "delta": 0.001, "length": 20}),
    ("shrink", {"system": FULL2, "nu": {"P": [[0.5, 0.5], [0.5, 0.5]],
                                        "pi": [0.5, 0.5]},
                "delta_grid": [0.1], "family_N": 8}),
]


def _nodes(doc, path=()):
    """(path, node) of doc and of everything below it."""
    yield path, doc
    items = (doc.items() if isinstance(doc, dict) else
             enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from _nodes(value, path + (key,))


def _mutations(doc) -> list:
    """(path, value): an unknown key in any document, a bool or a float for
    an int, a string for a number, or the other container."""
    out = []
    for path, node in _nodes(doc):
        if isinstance(node, dict):
            out += [(path + (name,), 1) for name in ("qq", "clossed")]
            out += [(path, [])] if path else []
        elif isinstance(node, list):
            out += [(path, {}), (path, "[]")]
        elif isinstance(node, bool):
            out += [(path, str(node).lower()), (path, int(node))]
        elif isinstance(node, int):
            out += [(path, True), (path, False), (path, node + 0.5),
                    (path, float(node)), (path, str(node))]
        elif isinstance(node, float):
            out += [(path, str(node))]
    return out


def _mutated(doc, path, value):
    doc = json.loads(json.dumps(doc))
    *parents, last = path
    for key in parents:
        doc = doc[key]
    doc[last] = value
    return doc


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_mutated_config_exits_2_on_one_line_without_artifact(data):
    # each mutation of a valid config is refused before any work; before
    # the keys were bound, most of these ran to exit 0 on a cast value
    command, cfg = data.draw(st.sampled_from(VALID_CONFIGS))
    path, value = data.draw(st.sampled_from(_mutations(cfg)))
    with tempfile.TemporaryDirectory() as tmp:
        config, out = os.path.join(tmp, "config.json"), os.path.join(tmp, "out")
        with open(config, "w") as f:
            json.dump(_mutated(cfg, path, value), f)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["--config", config, "--seed", "1", "--out", out,
                         "--command", command])
        assert code == 2, (path, value, err.getvalue())
        assert err.getvalue().count("\n") == 1
        assert err.getvalue().startswith("config/precondition error: ")
        assert not os.path.exists(out) or not os.listdir(out)


@pytest.mark.parametrize("command, cfg", VALID_CONFIGS)
def test_valid_configs_of_the_mutation_test_run(tmp_path, command, cfg):
    code, _ = run(tmp_path, command, cfg)
    assert code in (0, 1)


@pytest.mark.parametrize("command, ints, floats, artifact", [
    ("weave", {**WEAVE_B07, "epsilon": 1}, {**WEAVE_B07, "epsilon": 1.0},
     "schedule.json"),
    ("spectrum", {"system": FULL2, "alpha_grid": [0, 0.5, 1],
                  "observable": {"depth": 1, "table": [[[0], 0], [[1], 1]]},
                  "constraint": {"lo": 0, "hi": 1}},
     {"system": FULL2, "alpha_grid": [0.0, 0.5, 1.0],
      "observable": {"depth": 1, "table": [[[0], 0.0], [[1], 1.0]]},
      "constraint": {"lo": 0.0, "hi": 1.0}}, "spectrum.csv"),
])
def test_int_for_a_float_writes_what_the_float_writes(tmp_path, command, ints,
                                                      floats, artifact):
    # an int is widened to the float it equals, as the casts did; without
    # the widening schedule.json read "epsilon": 1 where 1.0 wrote 1.0
    texts = []
    for name, cfg in (("ints", ints), ("floats", floats)):
        code, out = run(tmp_path, command, cfg, outdir=name)
        assert code == 0
        # the first line of a CSV carries the config's hash
        text = (out / artifact).read_text()
        texts.append(text.split("\n", 1)[1] if artifact.endswith(".csv") else text)
    assert texts[0] == texts[1]


def test_generic_annotation_is_left_to_the_callee():
    # Python 3.10 reads tuple[...] as a class, and isinstance then raises
    # on it; the observable's table annotation is one
    from orbitweave.cli import _fits
    kind = tuple[tuple[tuple[int, ...], float], ...]
    assert _fits([[[0], 0.0], [[1], 1.0]], kind)
    assert _fits("checked by the callee", kind)
    assert not _fits([0.5, "0.5"], list[float])
