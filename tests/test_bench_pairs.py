import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "points_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "cpu_s_per_point", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]


def _runs(name, values):
    return [{name: v} for v in values]


def _row(name, parent, change):
    (row,) = bench_pairs.summarize(_runs(name, parent), _runs(name, change), END_TO_END)
    return row


def test_summary_of_a_clear_gain():
    parent = [100, 101, 99, 102, 98, 100, 103, 97, 100, 101]
    change = [111, 112, 110, 113, 109, 111, 114, 108, 111, 112]
    row = _row("points_per_s", parent, change)
    assert row["parent_median"] == 100.0 and row["change_median"] == 111.0
    # statistics.quantiles(n=4), the 'exclusive' method, as bench/run.py
    assert row["parent_quartiles"] == (98.75, 101.25)
    assert row["change_quartiles"] == (109.75, 112.25)
    assert (row["wins"], row["pairs"], row["claim"], row["bound"]) == (10, 10, True, "holds")
    assert (row["unit"], row["better"]) == ("1/s", "higher")


def test_claim_needs_nine_wins_in_ten_and_a_gap_beyond_the_parent_iqr():
    parent = [100.0] * 10
    # 8 wins, 1 tie, 1 loss: the tie counts for neither side
    row = _row("points_per_s", parent, [120.0] * 8 + [100.0, 90.0])
    assert (row["wins"], row["claim"]) == (8, False)
    row = _row("points_per_s", parent, [120.0] * 9 + [90.0])
    assert (row["wins"], row["claim"]) == (9, True)
    # 10 wins, but the gap (5) is below the parent's IQR
    parent = [90, 95, 100, 105, 110, 90, 95, 100, 105, 110]
    row = _row("points_per_s", parent, [x + 5 for x in parent])
    assert row["wins"] == 10 and row["parent_quartiles"][1] - row["parent_quartiles"][0] > 5
    assert not row["claim"]


def test_lower_is_better_metrics_count_wins_downwards():
    parent = [2.0e-4] * 10
    change = [1.8e-4] * 10
    row = _row("cpu_s_per_point", parent, change)
    assert (row["wins"], row["claim"], row["bound"]) == (10, True, "holds")
    row = _row("cpu_s_per_point", change, parent)
    assert (row["wins"], row["claim"], row["bound"]) == (0, False, "holds")  # +11 %, within 0.25


def test_bound_verdicts():
    # peak_rss_mb: bound 0.1, lower is better
    assert _row("peak_rss_mb", [60.0] * 4, [65.0] * 4)["bound"] == "holds"  # +8.3 %
    assert _row("peak_rss_mb", [60.0] * 4, [67.0] * 4)["bound"] == "broken"  # +11.7 %
    # a spread wider than the bound leaves it unresolved ...
    wide = [40.0, 60.0, 80.0, 60.0]
    assert _row("peak_rss_mb", wide, [60.0] * 4)["bound"] == "unresolved"
    assert _row("peak_rss_mb", [60.0] * 4, wide)["bound"] == "unresolved"
    # ... unless every change run reads better than every parent run
    assert _row("peak_rss_mb", wide, [10.0, 20.0, 15.0, 30.0])["bound"] == "holds"


def test_workload_prefixed_metrics_take_their_bounds():
    parent = [{"staircase_n5.points_per_s": 100.0, "anomalous_n2.peak_rss_mb": 60.0}] * 3
    change = [{"staircase_n5.points_per_s": 70.0, "anomalous_n2.peak_rss_mb": 60.0}] * 3
    rows = bench_pairs.summarize(parent, change, END_TO_END)
    assert [(r["metric"], r["unit"], r["bound"]) for r in rows] == [
        ("staircase_n5.points_per_s", "1/s", "broken"),
        ("anomalous_n2.peak_rss_mb", "MB", "holds"),
    ]


def test_pairs_must_be_positive(capsys):
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--parent-root", ".", "--workload", "staircase_n5", "--pairs", "0"])
    assert exc.value.code == 2
    assert "--pairs must be at least 1" in capsys.readouterr().err
