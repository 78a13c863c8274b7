import itertools
import json
import math
import os

import pytest

from orbitweave.cli import main


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


def test_spectrum_constrained_sup_flagged(tmp_path):
    cfg = dict(SPECTRUM_CFG)
    cfg["alpha_grid"] = [0.27, 0.3, 0.33]
    cfg["constraint"] = {"lo": 0.25, "hi": 0.35, "closed": False}
    code, out = run(tmp_path, "spectrum", cfg)
    assert code == 0
    _, rows = read_rows(out / "spectrum.csv")
    assert rows[-1]["flag"] == "sup"


def test_spectrum_bad_grid_exits_2_without_csv(tmp_path):
    cfg = dict(SPECTRUM_CFG)
    cfg["alpha_grid"] = [0.5, 1.5]
    code, out = run(tmp_path, "spectrum", cfg)
    assert code == 2
    assert not (out / "spectrum.csv").exists()


def test_spectrum_perron_vector_over_many_decades(tmp_path):
    # the range search probes q = +-50, where this observable's Perron
    # vector runs from about 1e-17 to 1
    values = [-0.316422, -0.316414, -0.314453, -0.314453, -0.282227,
              -0.282227, -0.280762, -0.280762, 0.109131, 0.109131, 0.109497,
              0.109497, 0.132874, 0.132874, 0.132843, 0.132843]
    table = [[list(w), v] for w, v in
             zip(itertools.product(range(2), repeat=4), values)]
    cfg = {"system": {"kind": "full_shift", "k": 2},
           "observable": {"depth": 4, "table": table}, "alpha_grid": [0.0]}
    code, out = run(tmp_path, "spectrum", cfg)
    assert code == 0
    assert (out / "spectrum.csv").exists()


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


def test_katok_infeasible_exits_2(tmp_path):
    cfg = {"system": {"kind": "full_shift", "k": 2},
           "measure": {"bernoulli": 0.5},
           "q": 6, "delta": 0.1, "n_grid": [24]}
    code, _ = run(tmp_path, "katok", cfg)
    assert code == 2


def test_katok_three_symbols_past_cylinder_enumeration(tmp_path):
    # 3^14 cylinders: exact through the mass-class table, not k^L masses
    cfg = {"system": {"kind": "full_shift", "k": 3},
           "measure": {"bernoulli": [0.5, 0.3, 0.2]},
           "q": 1, "n_grid": [13]}
    code, out = run(tmp_path, "katok", cfg)
    assert code == 0
    _, rows = read_rows(out / "katok.csv")
    assert [int(r["n"]) for r in rows] == [13]


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
])
def test_shadow_modulus_bad_input_exits_2_without_artifact(tmp_path, capsys,
                                                           system, bad):
    cfg = {"system": system, "mode": "modulus", "epsilon": 1e-3,
           "trials": 10, "length": 40} | bad
    code, out = run(tmp_path, "shadow", cfg)
    assert code == 2
    assert not (out / "modulus.csv").exists()
    assert "Traceback" not in capsys.readouterr().err


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
    code2, _ = run(tmp_path, "weave", cfg, seed=11, outdir="trunc")
    assert code2 == 3


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
