"""tools/bench_pairs.py's summary and verdict, on synthetic run records (no
benchmark runs here)."""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = [{"name": "ops_per_s", "better": "higher"},
              {"name": "peak_rss_mb", "better": "lower"}]


def record(ops_per_s, rss, cpu, failed=0):
    """A record.json as bench/run.py writes it, cut to what is read."""
    return {"rotations": 30, "failed": failed, "correct": True,
            "op_cpu_s": {"a": cpu, "b": [2 * c for c in cpu]},
            "machine": {"nproc": 2},
            "result": {"metrics": {
                "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
                "peak_rss_mb": {"value": rss, "unit": "MB"}}}}


def test_summary_of_ten_pairs():
    parent = [record(100 + i, 48.0, [0.03 + 0.001 * i, 0.02])
              for i in range(10)]
    change = [record(140 + i, 48.0 + (i == 3), [0.021, 0.025])
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
    assert out["op_least_cpu_s"] == {"parent": {"a": 0.02, "b": 0.04},
                                     "change": {"a": 0.021, "b": 0.042}}
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
