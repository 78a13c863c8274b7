"""tools/bench_pairs.py's summary and verdict, on synthetic run records (no
benchmark runs here)."""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = [{"name": "ops_per_s", "better": "higher"},
              {"name": "peak_rss_mb", "better": "lower"}]


def record(ops_per_s, rss, op_cpu, faults, failed=0):
    """A record.json as bench/run.py writes it, cut to what is read, with
    the minor faults that run_once adds."""
    return {"rotations": 30, "failed": failed, "correct": True,
            "op_cpu_s": op_cpu, "minor_faults": faults,
            "machine": {"nproc": 2},
            "result": {"metrics": {
                "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
                "peak_rss_mb": {"value": rss, "unit": "MB"}}}}


def test_summary_of_ten_pairs():
    parent = [record(100 + i, 48.0, {"a": [0.03, 0.02 + 0.001 * i],
                                     "b": [0.04, 0.05]}, 1000 + i)
              for i in range(10)]
    change = [record(140 + i, 48.0 + (i == 3), {"a": [0.015, 0.025],
                                                "b": [0.05, 0.04]}, 900)
              for i in range(10)]
    out = bench_pairs.summarize({"parent": parent, "change": change},
                                END_TO_END)
    ops = out["metrics"]["ops_per_s"]
    assert ops["parent"] == list(range(100, 110))
    assert (ops["parent_median"], ops["change_median"]) == (104.5, 144.5)
    assert ops["parent_iqr"] == pytest.approx(107.25 - 101.75)
    assert (ops["wins"], ops["pairs"], ops["holds"]) == (10, 10, True)
    # equal RSS in 9 pairs and worse in one: no win, no verdict
    rss = out["metrics"]["peak_rss_mb"]
    assert (rss["wins"], rss["holds"]) == (0, False)
    # each run's least time per op, and a verdict per op on those
    assert out["op_least_cpu_s"] == {
        "parent": {"a": [0.02 + 0.001 * i for i in range(10)],
                   "b": [0.04] * 10},
        "change": {"a": [0.015] * 10, "b": [0.04] * 10}}
    a, b = out["op_verdicts"]["a"], out["op_verdicts"]["b"]
    assert (a["wins"], a["holds"], a["change_median"]) == (10, True, 0.015)
    assert (b["wins"], b["holds"]) == (0, False)  # a tie in every pair
    assert out["minor_faults"] == {
        "parent": list(range(1000, 1010)), "parent_median": 1004.5,
        "change": [900] * 10, "change_median": 900}
    assert out["rotations"] == {"parent": [30], "change": [30]}
    assert out["failed"] == {"parent": [0] * 10, "change": [0] * 10}


STEADY = [9.9, 10.0, 10.1, 9.8, 10.2, 10.0, 9.9, 10.1, 10.0, 10.0]
WIDE = [8, 12, 9, 11, 10, 8, 12, 9, 11, 10]


@pytest.mark.parametrize("parent, change, holds", [
    (STEADY, [11] * 9 + [9], True),  # 9 of 10 wins
    (STEADY, [11] * 8 + [9, 9], False),  # 8 of 10
    (WIDE, [v + 0.5 for v in WIDE], False),  # every pair, inside the IQR
])
def test_verdict_needs_nine_wins_and_medians_past_the_iqr(parent, change,
                                                          holds):
    got = bench_pairs.verdict(parent, change, "higher")
    assert got["holds"] is holds
    # a lower-is-better metric reads the same pairs the other way
    negated = bench_pairs.verdict([-v for v in parent], [-v for v in change],
                                  "lower")
    assert negated["holds"] is holds and negated["wins"] == got["wins"]


def test_verdict_refuses_unpaired_values():
    with pytest.raises(ValueError):
        bench_pairs.verdict([1.0, 2.0], [1.0], "higher")


def test_run_once_counts_the_run_s_minor_faults(tmp_path):
    # a stand-in bench/run.py that writes its record after writing 32 MiB
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text(
        "import json, os, sys\n"
        "args = dict(zip(sys.argv[1::2], sys.argv[2::2]))\n"
        "block = b'x' * (32 << 20)\n"
        "out = os.path.join('.bench_out', f\"{args['--workload']}-seed\"\n"
        "                   f\"{args['--seed']}-trace0\")\n"
        "os.makedirs(out)\n"
        "with open(os.path.join(out, 'record.json'), 'w') as f:\n"
        "    json.dump({'rotations': 1}, f)\n")
    got = bench_pairs.run_once(str(tmp_path), "w", 3, 1)
    assert got["rotations"] == 1
    # at least one fault per fresh 4 KiB page written
    assert got["minor_faults"] >= 32 << 8
    assert json.loads((tmp_path / ".bench_out" / "w-seed3-trace0" /
                       "record.json").read_text()) == {"rotations": 1}
