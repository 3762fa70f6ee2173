import json
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


@pytest.mark.parametrize("pairs", [1, 3, 9])
def test_a_claim_needs_at_least_ten_pairs(pairs):
    # every pair won, far beyond the parent's spread, and still too few pairs
    row = _row("points_per_s", [100.0] * pairs, [200.0] * pairs)
    assert (row["wins"], row["pairs"], row["claim"], row["bound"]) == (pairs, pairs, False, "holds")
    assert "claim not met" in bench_pairs.format_row(row)
    assert _row("points_per_s", [100.0] * 10, [200.0] * 10)["claim"]


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


@pytest.mark.parametrize("where, workload, message", [
    pytest.param("empty", "staircase_n5", "no bench/run.py there", id="no-run-py"),
    pytest.param("this checkout", "staircase_n6", "--workload 'staircase_n6': not 'all' or a workload of BENCHMARK.json",
                 id="unknown-workload"),
])
def test_bad_parent_root_or_workload_stops_the_tool_before_any_run(tmp_path, monkeypatch, capsys, where, workload, message):
    def no_run(*args):
        raise AssertionError("run_once called")

    monkeypatch.setattr(bench_pairs, "run_once", no_run)
    root = tmp_path if where == "empty" else bench_pairs.ROOT
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--parent-root", str(root), "--workload", workload])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and message in err


_STUB_RUN = """import json, sys
from pathlib import Path
log = Path({log!r})
runs = log.read_text().count("\\n") if log.exists() else 0
with log.open("a") as fh:
    fh.write({side!r} + " " + " ".join(sys.argv[1:]) + "\\n")
print("revision: " + {revision!r})
print("== staircase_n5  seed 0  trace 0  3 units, 30 points")
print("   machine: " + json.dumps({{"cpu_count": 2, "side": {side!r}}}))
metrics = {{"points_per_s": {{"value": {rate} + runs, "unit": "1/s"}},
           "peak_rss_mb": {{"value": 60.0, "unit": "MB"}}}}
print(json.dumps({{"correct": {correct}, "attempted": 30, "failed": 0, "metrics": metrics}}))
sys.exit({code})
"""


def _stub(tmp_path, side, rate, correct=True, code=0):
    """A checkout whose bench/run.py logs its side and prints canned lines."""
    root = tmp_path / side
    (root / "bench").mkdir(parents=True)
    (root / "bench" / "run.py").write_text(_STUB_RUN.format(
        log=str(tmp_path / "log"), side=side, revision=f"rev-{side}", rate=rate, correct=correct, code=code,
    ))
    (root / "BENCHMARK.json").write_text(json.dumps({"workloads": [{"name": "staircase_n5"}], "end_to_end": END_TO_END}))
    return root


def _run_tool(monkeypatch, parent, change, out):
    monkeypatch.setattr(bench_pairs, "ROOT", change)
    argv = ["--parent-root", str(parent), "--workload", "staircase_n5", "--pairs", "3", "--seed", "7"]
    return bench_pairs.main(argv + ["--out", str(out)])


def test_pairs_alternate_and_the_record_holds_every_run(tmp_path, monkeypatch, capsys):
    parent, change = _stub(tmp_path, "parent", 100.0), _stub(tmp_path, "change", 200.0)
    out = tmp_path / "BENCH_stub.json"
    assert _run_tool(monkeypatch, parent, change, out) == 0
    log = (tmp_path / "log").read_text().splitlines()
    assert [line.split()[0] for line in log] == ["parent", "change", "change", "parent", "parent", "change"]
    assert set(line.split(" ", 1)[1] for line in log) == {"--workload staircase_n5 --seed 7"}

    record = json.loads(out.read_text())
    assert out.read_text() == json.dumps(record, indent=2, sort_keys=True) + "\n"
    assert (record["workload"], record["seed"], record["pairs"]) == ("staircase_n5", 7, 3)
    for side, rates in (("parent", [100.0, 103.0, 104.0]), ("change", [201.0, 202.0, 205.0])):
        assert record[side]["revision"] == f"rev-{side}"
        assert record[side]["machines"] == {"staircase_n5": {"cpu_count": 2, "side": side}}
        assert record[side]["runs"] == [{"points_per_s": r, "peak_rss_mb": 60.0} for r in rates]
    # the summary rows, in printed order, are those of the recorded runs
    rows = bench_pairs.summarize(record["parent"]["runs"], record["change"]["runs"], END_TO_END)
    by_metric = {row["metric"]: row for row in json.loads(json.dumps(rows))}
    assert [row["metric"] for row in record["summary"]] == ["points_per_s", "peak_rss_mb"]
    assert record["summary"] == [by_metric[row["metric"]] for row in record["summary"]]
    printed = capsys.readouterr().out.splitlines()
    assert printed[-3:-1] == [bench_pairs.format_row(row) for row in record["summary"]]
    assert printed[-1] == f"wrote {out}"
    assert (record["summary"][0]["wins"], record["summary"][0]["parent_median"]) == (3, 103.0)


@pytest.mark.parametrize("failure", [{"code": 1}, {"correct": False}])
def test_a_failed_run_ends_the_tool_and_writes_no_record(tmp_path, monkeypatch, capsys, failure):
    parent, change = _stub(tmp_path, "parent", 100.0), _stub(tmp_path, "change", 200.0, **failure)
    out = tmp_path / "BENCH_stub.json"
    assert _run_tool(monkeypatch, parent, change, out) == 1
    assert not out.exists()
    assert "pair 1 change" in capsys.readouterr().err
    assert [line.split()[0] for line in (tmp_path / "log").read_text().splitlines()] == ["parent", "change"]
