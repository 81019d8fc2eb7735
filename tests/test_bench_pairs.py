"""The paired benchmark driver's summaries, on made-up run results."""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "bench_pairs.py")
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _runs(values, name="op_p50_s"):
    return [{"metrics": {name: {"value": v, "unit": "s"}}} for v in values]


def test_summary_gives_median_and_quartiles():
    table = bench_pairs.summary(_runs([4.0, 1.0, 3.0, 2.0, 5.0]))
    assert table["op_p50_s"] == {"median": 3.0, "q1": 2.0, "q3": 4.0, "unit": "s"}


def test_versus_counts_pairs_in_the_better_direction():
    head, base = _runs([1.0, 2.0, 3.0]), _runs([2.0, 2.0, 2.0])
    lower = bench_pairs.versus(head, base, {"op_p50_s": "lower"})["op_p50_s"]
    assert lower == {"median_ratio": 1.0, "head_better_pairs": 1, "pairs": 3}
    higher = bench_pairs.versus(head, base, {"op_p50_s": "higher"})["op_p50_s"]
    assert higher["head_better_pairs"] == 1


def test_versus_has_no_ratio_for_a_metric_the_base_never_reports():
    table = bench_pairs.versus(_runs([0.0, 0.0]), _runs([0.0, 0.0]), {})
    assert table["op_p50_s"] == {"median_ratio": None, "head_better_pairs": 0, "pairs": 2}


def test_fewer_than_six_seeds_are_refused(capsys):
    with pytest.raises(SystemExit):
        bench_pairs.parse_args(["a", "b", "--out-base", "x", "--out-head", "y",
                                "--seeds", "1", "2", "3"])
    assert "at least 6 seeds" in capsys.readouterr().err
