import csv
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

from dickelab import ed, scan
from dickelab.cli import main
from dickelab.eigen import EigenError
from dickelab.scan import (
    _COLUMNS,
    _ROW_QUANTITIES,
    _tables,
    QUANTITIES,
    ComparisonRow,
    ConfigError,
    compare_report,
    load_rows,
    parse_config,
    run_scan,
)

SWEEP_N3 = Path(__file__).resolve().parents[1] / "demo_output" / "sweep_n3"


def _config_dict(tmp_path, **overrides):
    cfg = {
        "schema_version": 1,
        "model": {"omega_a": 1.0, "omega_b": 1.0, "n_atoms": 3},
        "grid": {"start": 2.0, "stop": 2.4, "count": 3},
        "quantities": ["mandel", "goldstone", "higgs"],
        "output_dir": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    return cfg


def _write_config(tmp_path, **overrides):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(_config_dict(tmp_path, **overrides)))
    return path


def test_parse_config_valid(tmp_path):
    config = parse_config(_config_dict(tmp_path))
    assert config.g_over_gc == (2.0, 2.2, 2.4)
    assert config.quantities == ("mandel", "goldstone", "higgs")
    assert config.formats == ("csv",)
    assert config.model.n_atoms == 3


def test_parse_config_collects_all_errors(tmp_path):
    bad = _config_dict(
        tmp_path,
        schema_version=99,
        quantities=[],
        grid={"start": 2.0, "stop": 3.0, "count": 1},
        bogus_key=1,
    )
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    messages = "\n".join(err.value.errors)
    assert len(err.value.errors) >= 4
    assert "schema_version" in messages
    assert "quantities" in messages
    assert "count" in messages
    assert "bogus_key" in messages


def test_parse_config_rejects_g_in_model(tmp_path):
    bad = _config_dict(tmp_path)
    bad["model"]["g"] = 2.0
    with pytest.raises(ConfigError, match="model.g"):
        parse_config(bad)


def test_parse_config_rejects_sector_quantities_with_crw(tmp_path):
    bad = _config_dict(tmp_path, gprime_over_g=0.1)
    with pytest.raises(ConfigError, match="anomalous"):
        parse_config(bad)
    ok = _config_dict(tmp_path, gprime_over_g=0.1, quantities=["anomalous"])
    assert parse_config(ok).gprime_over_g == 0.1


@pytest.mark.parametrize("gprime_over_g", [0.05, 0.0])
def test_g_prime_set_both_ways_is_a_config_error(tmp_path, capsys, gprime_over_g):
    # params_at would take gprime_over_g * g and drop model.g_prime without a word
    model = {"omega_a": 1.0, "omega_b": 1.0, "n_atoms": 2, "g_prime": 0.3}
    both = {"model": model, "quantities": ["anomalous"], "gprime_over_g": gprime_over_g}
    with pytest.raises(ConfigError) as err:
        parse_config(_config_dict(tmp_path, **both))
    assert len(err.value.errors) == 1
    assert "'model.g_prime'" in err.value.errors[0] and "'gprime_over_g'" in err.value.errors[0]
    assert main(["scan", str(_write_config(tmp_path, **both))]) == 2
    assert capsys.readouterr().err.splitlines() == ["invalid config:", f"  - {err.value.errors[0]}"]
    # either source alone stays valid, and so does a zero model.g_prime
    alone = parse_config(_config_dict(tmp_path, model=model, quantities=["anomalous"]))
    assert alone.params_at(2.0).g_prime == 0.3
    zero = parse_config({**_config_dict(tmp_path, **both), "model": {**model, "g_prime": 0.0}})
    assert zero.params_at(2.0).g_prime == gprime_over_g * zero.params_at(2.0).g


def test_parse_config_rejects_nonpositive_grid(tmp_path):
    with pytest.raises(ConfigError, match="positive"):
        parse_config(_config_dict(tmp_path, grid=[2.0, -1.0]))


@pytest.mark.parametrize(
    "overrides, message",
    [
        pytest.param({"grid": [2.0, float("nan")]}, "grid g/g_c", id="nan-grid-entry"),
        pytest.param({"grid": [2.0, float("inf")]}, "grid g/g_c", id="inf-grid-entry"),
        pytest.param({"grid": {"start": 2.0, "stop": float("nan"), "count": 3}}, "grid g/g_c", id="nan-grid-stop"),
        pytest.param({"grid": {"start": 2.0, "stop": 3.0, "count": True}}, "grid count", id="bool-count"),
        pytest.param({"grid": {"start": 2.0, "stop": 3.0, "count": 2.5}}, "grid count", id="fractional-count"),
        pytest.param({"gprime_over_g": True, "quantities": ["anomalous"]}, "gprime_over_g", id="bool-gprime"),
        pytest.param({"gprime_over_g": float("nan"), "quantities": ["anomalous"]}, "gprime_over_g", id="nan-gprime"),
        pytest.param({"tolerances": {"eigen": float("nan")}}, "tolerance 'eigen'", id="nan-eigen-tol"),
        pytest.param({"tolerances": {"truncation": float("nan")}}, "tolerance 'truncation'", id="nan-truncation-tol"),
        pytest.param({"tolerances": {"eigen": float("inf")}}, "tolerance 'eigen'", id="inf-eigen-tol"),
        pytest.param({"tolerances": {"eigen": 0}}, "tolerance 'eigen'", id="zero-eigen-tol"),
        pytest.param(
            {"model": {"omega_a": 1.0, "omega_b": 1.0, "n_atoms": True}},
            "n_atoms must be an integer", id="bool-n-atoms",
        ),
        pytest.param(
            {"model": {"omega_a": True, "omega_b": 1.0, "n_atoms": 3}},
            "omega_a must be a finite number", id="bool-omega-a",
        ),
        pytest.param(
            {"model": {"omega_a": 1.0, "omega_b": 1.0, "n_atoms": 3, "lambda_z": 1.5}},
            "critical coupling", id="no-critical-coupling",
        ),
        pytest.param(
            {"model": {"omega_a": 1.0, "omega_b": 1.0, "n_atoms": 3, "lambda_z": -1.5}},
            "unbounded below", id="unbounded-below",
        ),
    ],
)
def test_parse_config_rejects_invalid_values(tmp_path, overrides, message):
    with pytest.raises(ConfigError, match=message):
        parse_config(_config_dict(tmp_path, **overrides))


@pytest.mark.parametrize(
    "overrides, message",
    [
        pytest.param({"quantities": [{"a": 1}]}, r"unknown quantities \[\{'a': 1\}\]", id="dict-quantity"),
        pytest.param({"quantities": ["higgs", ["mandel"]]}, r"unknown quantities \[\['mandel'\]\]", id="list-quantity"),
        pytest.param({"quantities": [1, "goldstone"], "gprime_over_g": 0.1}, r"unknown quantities \[1\]",
                     id="int-quantity-with-crw"),
        pytest.param({"formats": [["csv"]]}, r"unknown formats \[\['csv'\]\]; valid: \['csv', 'json'\]",
                     id="list-format"),
        pytest.param({"formats": ["csv", {"json": 1}]}, r"unknown formats \[\{'json': 1\}\]", id="dict-format"),
    ],
)
def test_unhashable_or_mixed_choices_are_config_errors(tmp_path, capsys, overrides, message):
    with pytest.raises(ConfigError, match=message):
        parse_config(_config_dict(tmp_path, **overrides))
    assert main(["scan", str(_write_config(tmp_path, **overrides))]) == 2
    err = capsys.readouterr().err
    assert "invalid config" in err and "Traceback" not in err


def test_parse_config_drops_repeated_choices(tmp_path):
    config = parse_config(_config_dict(tmp_path, quantities=["higgs", "mandel", "higgs"], formats=["json", "csv", "json"]))
    assert config.quantities == ("higgs", "mandel")
    assert config.formats == ("json", "csv")


def test_parse_config_rejects_workers(tmp_path, capsys):
    # the key sized the thread pool that run_scan no longer has
    for value in (3, 1):
        with pytest.raises(ConfigError) as err:
            parse_config(_config_dict(tmp_path, workers=value))
        assert err.value.errors == [f"'workers' sized the removed scan thread pool and is no longer accepted, got {value!r}"]
        assert main(["scan", str(_write_config(tmp_path, workers=value))]) == 2
        assert not (tmp_path / "out").exists()
    assert "Traceback" not in capsys.readouterr().err


def test_eigen_tolerance_is_fixed(tmp_path, capsys):
    # the residual bound is eigen.RESIDUAL_TOL; even its own value cannot be set
    for value in (1e-8, 1):
        overrides = {"tolerances": {"eigen": value}}
        with pytest.raises(ConfigError) as err:
            parse_config(_config_dict(tmp_path, **overrides))
        assert err.value.errors == [f"tolerance 'eigen' is fixed at 1e-08, got {value!r}"]
        assert main(["scan", str(_write_config(tmp_path, **overrides))]) == 2
        assert not (tmp_path / "out").exists()
    assert "Traceback" not in capsys.readouterr().err
    config = parse_config(_config_dict(tmp_path, tolerances={"truncation": 1e-6}))
    assert config.truncation_tol == 1e-6 and not hasattr(config, "eigen_tol")


@pytest.mark.parametrize(
    "grid, extra",
    [
        pytest.param([1e200], {"quantities": ["goldstone"]}, id="saddle-point-overflow"),
        pytest.param([1e100], {"quantities": ["anomalous"]}, id="effective-theory-overflow"),
        pytest.param([1e100], {"quantities": ["goldstone"]}, id="bisection-past-exact-labels"),
        pytest.param([2.0, 1e9], {"quantities": ["goldstone"]}, id="occupation-past-2**53"),
        pytest.param([1e300], {"quantities": ["anomalous"], "gprime_over_g": 1e10}, id="infinite-g-prime"),
    ],
)
def test_grid_values_past_exact_sector_labels_are_config_errors(tmp_path, capsys, grid, extra):
    # at N = 2 on resonance the occupation lambda_+^2 is about (g/g_c)^2 / 2;
    # from 2**53 on, sector labels are no longer exact floats
    overrides = {"model": {"omega_a": 1.0, "omega_b": 1.0, "n_atoms": 2}, "grid": grid, **extra}
    with pytest.raises(ConfigError) as err:
        parse_config(_config_dict(tmp_path, **overrides))
    assert err.value.errors == [f"grid g/g_c value {grid[-1]!r} puts the occupation lambda_+^2 at or above 2**53"]
    assert main(["scan", str(_write_config(tmp_path, **overrides))]) == 2
    assert capsys.readouterr().err.splitlines() == ["invalid config:", f"  - {err.value.errors[0]}"]


def test_grid_values_below_the_occupation_limit_are_accepted(tmp_path):
    model = {"omega_a": 1.0, "omega_b": 1.0, "n_atoms": 2}
    assert parse_config(_config_dict(tmp_path, model=model, grid=[1e6])).g_over_gc == (1e6,)
    with pytest.raises(ConfigError, match=r"2\*\*53"):
        parse_config(_config_dict(tmp_path, model=model, grid=[1.35e8]))
    # the counter-rotating coupling adds to g: g' = 0.5 g divides the limit on g/g_c by 1.5
    crw = _config_dict(tmp_path, model=model, grid=[1e8], quantities=["anomalous"])
    assert parse_config(crw).g_over_gc == (1e8,)
    with pytest.raises(ConfigError, match=r"2\*\*53"):
        parse_config({**crw, "gprime_over_g": 0.5})


def test_run_scan_reproduces_the_demo_sweep_files(tmp_path):
    # the config of demos/07_sweep_pipeline.py, which wrote demo_output/sweep_n3
    config = parse_config({
        "schema_version": 1,
        "model": {"omega_a": 1.0, "omega_b": 1.0, "n_atoms": 3},
        "grid": {"start": 2.0, "stop": 3.0, "count": 11},
        "quantities": ["spectrum", "higgs", "mandel", "weights"],
        "output_dir": str(tmp_path),
        "formats": ["csv", "json"],
    })
    written = run_scan(config)
    expected = sorted(p.name for p in SWEEP_N3.iterdir())
    assert sorted(p.name for p in written) == expected
    for name in expected:
        if name != "manifest.json":
            assert (tmp_path / name).read_bytes() == (SWEEP_N3 / name).read_bytes(), name
    manifest, reference = (json.loads((d / "manifest.json").read_text()) for d in (tmp_path, SWEEP_N3))
    manifest.pop("created_at"), reference.pop("created_at")
    assert manifest == reference


def test_run_scan_writes_expected_files(tmp_path):
    config = parse_config(_config_dict(tmp_path, formats=["csv", "json"]))
    written = run_scan(config)
    names = sorted(p.name for p in written)
    assert names == sorted(
        ["mandel.csv", "mandel.json", "goldstone.csv", "goldstone.json",
         "higgs.csv", "higgs.json", "manifest.json"]
    )
    with open(tmp_path / "out" / "goldstone.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    assert "analytic_envelope" in rows[0]
    assert rows[0]["quantity"] == "goldstone"
    assert float(rows[0]["g_over_gc"]) == 2.0
    with open(tmp_path / "out" / "mandel.csv", newline="") as fh:
        header = next(csv.reader(fh))
    assert header == [
        "quantity", "g", "g_over_gc", "p_star",
        "ed_value", "analytic_value", "rel_deviation", "near_qcp",
    ]
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["schema_version"] == 1
    assert manifest["model"]["n_atoms"] == 3
    assert manifest["tolerances"]["eigen"] == 1e-8
    assert "created_at" in manifest


def test_run_scan_is_deterministic(tmp_path):
    cfg_a = parse_config(_config_dict(tmp_path, output_dir=str(tmp_path / "a")))
    cfg_b = parse_config(_config_dict(tmp_path, output_dir=str(tmp_path / "b")))
    run_scan(cfg_a)
    run_scan(cfg_b)
    for name in ("mandel.csv", "goldstone.csv", "higgs.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    ma = json.loads((tmp_path / "a" / "manifest.json").read_text())
    mb = json.loads((tmp_path / "b" / "manifest.json").read_text())
    ma.pop("created_at"), mb.pop("created_at")
    assert ma == mb


def test_run_scan_weights_quantity_emits_three_series(tmp_path):
    config = parse_config(_config_dict(tmp_path, quantities=["weights"]))
    run_scan(config)
    with open(tmp_path / "out" / "weights.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["quantity"] for r in rows[:3]] == ["c_g", "c_o", "c_h"]
    assert len(rows) == 9


def test_run_scan_masks_near_qcp_rows(tmp_path):
    config = parse_config(_config_dict(
        tmp_path, grid=[0.5, 1.05, 2.5], quantities=["goldstone", "spectrum"]
    ))
    run_scan(config)
    rows = [r for r in load_rows(tmp_path / "out") if r.quantity == "goldstone"]
    assert rows[0].near_qcp and rows[1].near_qcp and not rows[2].near_qcp
    assert rows[0].analytic_value is None  # normal phase: no closed form
    spectrum = [r for r in load_rows(tmp_path / "out") if r.quantity == "spectrum"]
    assert spectrum[0].ed_value == 0.0 and spectrum[0].analytic_value == 0.0


def test_load_rows_roundtrip(tmp_path):
    config = parse_config(_config_dict(tmp_path, quantities=["higgs"]))
    run_scan(config)
    rows = load_rows(tmp_path / "out")
    assert len(rows) == 3
    assert all(r.quantity == "higgs" for r in rows)
    assert all(r.rel_deviation is not None for r in rows)


def test_run_scan_anomalous_quantity(tmp_path):
    config = parse_config(_config_dict(
        tmp_path,
        model={"omega_a": 1.0, "omega_b": 1.0, "n_atoms": 2},
        grid=[2.0],
        quantities=["anomalous"],
        gprime_over_g=0.05,
    ))
    run_scan(config)
    rows = load_rows(tmp_path / "out")
    assert len(rows) == 1
    assert rows[0].ed_value > 0
    assert rows[0].analytic_value is None
    assert rows[0].p_star is None


def _row(quantity, dev, near=False):
    return ComparisonRow(
        quantity=quantity, g=2.0, g_over_gc=2.0, p_star=1 if near else 5,
        ed_value=1.0, analytic_value=1.0, rel_deviation=dev, near_qcp=near,
    )


def test_compare_report_pass_and_fail():
    rows = [_row("higgs", 0.0), _row("higgs", 0.02), _row("c_o", 0.5)]
    report = compare_report(rows)
    by_quantity = {q.quantity: q for q in report.quantities}
    assert by_quantity["higgs"].passed is True
    assert by_quantity["c_o"].passed is False
    assert not report.passed


def test_compare_report_near_qcp_exclusion():
    rows = [_row("goldstone", 5.0, near=True), _row("goldstone", 0.01)]
    report = compare_report(rows, {"goldstone": 0.15})
    q = report.quantities[0]
    assert q.n_rows == 2 and q.n_enforced == 1
    assert q.passed is True
    # masking does not apply to higgs
    rows = [_row("higgs", 5.0, near=True)]
    assert not compare_report(rows, {"higgs": 0.10}).passed


def test_compare_report_unthresholded_quantities_reported_only():
    report = compare_report([_row("anomalous", 3.0)])
    assert report.passed
    assert report.quantities[0].passed is None


@pytest.mark.parametrize("devs", [[0.01, math.nan], [math.nan, 0.01], [0.0, math.nan, 0.02]])
def test_compare_report_fails_a_nan_deviation_in_any_row(devs):
    report = compare_report([_row("higgs", dev) for dev in devs])
    q = report.quantities[0]
    assert math.isnan(q.max_deviation) and q.passed is False
    assert not report.passed


@pytest.mark.parametrize("devs", [["0.01", "nan"], ["nan", "0.01"]])
def test_cli_compare_fails_a_nan_deviation_in_any_row(tmp_path, capsys, devs):
    data = tmp_path / "data"
    data.mkdir()
    lines = [f"higgs,{2.0 + i / 10},{2.0 + i / 10},5,1.0,1.0,{dev},false" for i, dev in enumerate(devs)]
    (data / "higgs.csv").write_text("\n".join([",".join(_COLUMNS), *lines]) + "\n")
    assert main(["compare", str(data)]) == 1
    out = capsys.readouterr().out
    higgs = next(line for line in out.splitlines() if line.startswith("higgs"))
    assert higgs.split()[3] == "nan" and higgs.split()[-1] == "FAIL"
    assert "overall: FAIL" in out


def test_compare_report_rejects_empty():
    with pytest.raises(ValueError):
        compare_report([])


def test_cli_scan_and_compare_roundtrip(tmp_path, capsys):
    cfg = _write_config(tmp_path, quantities=["higgs", "mandel"])
    assert main(["scan", str(cfg)]) == 0
    assert main(["compare", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    assert "overall: pass" in out


def test_cli_compare_fails_on_tight_thresholds(tmp_path):
    cfg = _write_config(tmp_path, quantities=["higgs"])
    assert main(["scan", str(cfg)]) == 0
    thresholds = tmp_path / "thresholds.json"
    thresholds.write_text(json.dumps({"higgs": 1e-12}))
    assert main(["compare", str(tmp_path / "out"), "--thresholds", str(thresholds)]) == 1


def test_cli_compare_reads_only_the_files_the_manifest_lists(tmp_path, capsys):
    # an N = 3 higgs and optical scan, then an N = 12 higgs-only scan into
    # the same directory: the stale N = 3 optical.csv fails the default band
    out = tmp_path / "out"
    grid = {"start": 2.0, "stop": 3.0, "count": 26}
    for n_atoms, quantities in ((3, ["higgs", "optical"]), (12, ["higgs"])):
        model = {"omega_a": 1.0, "omega_b": 1.0, "n_atoms": n_atoms}
        cfg = _write_config(tmp_path, model=model, grid=grid, quantities=quantities)
        assert main(["scan", str(cfg)]) == 0
    assert (out / "optical.csv").is_file()
    assert {row.quantity for row in load_rows(out)} == {"higgs"}
    capsys.readouterr()
    assert main(["compare", str(out)]) == 0
    out_text = capsys.readouterr().out
    assert not any(line.startswith("optical") for line in out_text.splitlines())
    # without the manifest every CSV is read, the stale one too
    (out / "manifest.json").unlink()
    assert main(["compare", str(out)]) == 1
    assert {row.quantity for row in load_rows(out)} == {"higgs", "optical"}


def test_cli_compare_reads_a_json_only_scan_as_its_csv_twin(tmp_path, capsys):
    # one config written as CSV only and as JSON only: the same rows (None
    # cells of the normal phase, ints, bools and the goldstone envelope
    # included) and the same report
    quantities = ["spectrum", "goldstone", "higgs", "weights", "mandel"]
    grid = [0.5, 1.05, 2.0, 2.5]
    reports = {}
    for fmt in ("csv", "json"):
        out = tmp_path / fmt
        cfg = _write_config(tmp_path, grid=grid, quantities=quantities, formats=[fmt], output_dir=str(out))
        assert main(["scan", str(cfg)]) == 0
        assert sorted(p.suffix for p in out.iterdir() if p.name != "manifest.json") == [f".{fmt}"] * 5
        capsys.readouterr()
        reports[fmt] = (main(["compare", str(out)]), capsys.readouterr().out)
    rows = load_rows(tmp_path / "csv")
    assert load_rows(tmp_path / "json") == rows
    assert any(r.analytic_value is None for r in rows) and any(r.envelope is not None for r in rows)
    assert reports["json"] == reports["csv"] and "higgs" in reports["csv"][1]
    # with both formats written, the CSVs are read and the JSON files are not
    cfg = _write_config(tmp_path, grid=grid, quantities=quantities, formats=["csv", "json"])
    assert main(["scan", str(cfg)]) == 0
    (tmp_path / "out" / "higgs.json").write_text("not json")
    assert load_rows(tmp_path / "out") == rows


def test_cli_compare_rejects_a_listed_file_that_is_missing(tmp_path, capsys):
    cfg = _write_config(tmp_path, quantities=["higgs", "mandel"])
    assert main(["scan", str(cfg)]) == 0
    (tmp_path / "out" / "mandel.csv").unlink()
    assert main(["compare", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "manifest.json" in err and "mandel.csv" in err


def test_explicit_thresholds_fail_a_quantity_without_rows(tmp_path, capsys):
    report = compare_report([_row("higgs", 0.0)], {"higgs": 0.1, "optical": 0.01})
    optical = next(q for q in report.quantities if q.quantity == "optical")
    assert (optical.n_rows, optical.n_enforced, optical.max_deviation, optical.passed) == (0, 0, None, False)
    assert not report.passed
    # the default thresholds skip quantities the rows do not carry
    assert [q.quantity for q in compare_report([_row("higgs", 0.0)]).quantities] == ["higgs"]

    cfg = _write_config(tmp_path, quantities=["higgs", "mandel", "weights"])
    assert main(["scan", str(cfg)]) == 0
    thresholds = tmp_path / "thresholds.json"
    thresholds.write_text(json.dumps({"optical": 0.01}))
    capsys.readouterr()
    assert main(["compare", str(tmp_path / "out"), "--thresholds", str(thresholds)]) == 1
    lines = capsys.readouterr().out.splitlines()
    optical = next(line for line in lines if line.startswith("optical")).split()
    assert optical[1:3] == ["0", "0"] and optical[-1] == "FAIL"
    assert lines[-1] == "overall: FAIL"


@pytest.mark.parametrize(
    "n_atoms, passed, c_o, optical", [(3, False, 0.357, 0.121), (12, True, 0.098, 0.025)]
)
def test_default_bands_fail_at_n3_and_pass_at_n12(tmp_path, n_atoms, passed, c_o, optical):
    # the default bands carry no 1/N allowance: on g/g_c in [2, 3] the
    # finite-N deviations of C_o and E_o exceed them at N = 3
    cfg = _write_config(
        tmp_path,
        model={"omega_a": 1.0, "omega_b": 1.0, "n_atoms": n_atoms},
        grid={"start": 2.0, "stop": 3.0, "count": 26},
        quantities=["weights", "optical"],
    )
    assert main(["scan", str(cfg)]) == 0
    assert main(["compare", str(tmp_path / "out")]) == (0 if passed else 1)
    report = compare_report(load_rows(tmp_path / "out"))
    max_dev = {q.quantity: q.max_deviation for q in report.quantities}
    assert report.passed is passed
    assert max_dev["c_o"] == pytest.approx(c_o, abs=1e-3)
    assert max_dev["optical"] == pytest.approx(optical, abs=1e-3)


def test_cli_rejects_invalid_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema_version": 1}))
    assert main(["scan", str(bad)]) == 2
    assert "invalid config" in capsys.readouterr().err


def test_cli_rejects_unreadable_paths(tmp_path, capsys):
    assert main(["scan", str(tmp_path / "missing.json")]) == 2
    assert main(["compare", str(tmp_path / "empty")]) == 2
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    cfg = _write_config(tmp_path, output_dir=str(blocker / "out"))
    assert main(["scan", str(cfg)]) == 2


def test_cli_oracle_passes_for_small_system(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        model={"omega_a": 1.0, "omega_b": 1.0, "n_atoms": 2, "g_prime": 0.3},
        grid=[0.8, 1.6],
        quantities=["anomalous"],
    )
    assert main(["oracle", str(cfg)]) == 0
    assert "pass" in capsys.readouterr().out


def test_cli_oracle_rejects_large_n(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        model={"omega_a": 1.0, "omega_b": 1.0, "n_atoms": 5},
        quantities=["higgs"],
    )
    assert main(["oracle", str(cfg)]) == 2


def test_cli_scan_exits_2_past_the_fock_cutoff_cap(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(ed, "NMAX_CAP", 32)
    cfg = _write_config(
        tmp_path,
        model={"omega_a": 1.0, "omega_b": 1.0, "n_atoms": 4},
        grid=[5.0],
        gprime_over_g=0.2,
        quantities=["anomalous"],
    )
    assert main(["scan", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "cap of 32" in err


def test_cli_scan_passes_a_certification_failure_through(tmp_path, monkeypatch):
    # the cap's exit status 2 must not swallow it: uncaught, it exits 1 with its traceback
    def failing(*args, **kwargs):
        raise EigenError("residual 1e-3 exceeds tolerance")

    monkeypatch.setattr(scan, "solve_ground", failing)
    with pytest.raises(EigenError, match="residual 1e-3"):
        main(["scan", str(_write_config(tmp_path))])


def test_cli_scan_runs_a_grid_with_an_underflowing_coupling(tmp_path, capsys):
    # (1e-200 g_c)^2 underflows to 0.0, which the saddle point must not divide by
    assert main(["scan", str(_write_config(tmp_path, grid=[1e-200, 0.5]))]) == 0
    rows = list(csv.DictReader((tmp_path / "out" / "goldstone.csv").read_text().splitlines()))
    assert [(row["g_over_gc"], row["p_star"]) for row in rows] == [("1e-200", "0"), ("0.5", "0")]


@pytest.mark.parametrize("value", ['"0.1"', "true", "NaN", "Infinity", "0", "-0.1", "null", "[0.1]"])
def test_cli_compare_rejects_invalid_thresholds(tmp_path, capsys, value):
    # each value must be a finite, non-bool real > 0: a string used to
    # crash the comparison with a TypeError, true was read as 1.0 and NaN
    # was accepted
    cfg = _write_config(tmp_path, quantities=["higgs"])
    assert main(["scan", str(cfg)]) == 0
    capsys.readouterr()
    thresholds = tmp_path / "thresholds.json"
    thresholds.write_text('{"mandel": 0.5, "higgs": %s}' % value)
    assert main(["compare", str(tmp_path / "out"), "--thresholds", str(thresholds)]) == 2
    err = capsys.readouterr().err
    assert "'higgs'" in err and "'mandel'" not in err


def test_cli_compare_rejects_a_threshold_key_that_names_no_quantity(tmp_path, capsys):
    # a misspelled key used to enforce nothing: "optcal" printed
    # "overall: pass" and exited 0
    cfg = _write_config(tmp_path, quantities=["higgs", "optical"])
    assert main(["scan", str(cfg)]) == 0
    capsys.readouterr()
    thresholds = tmp_path / "thresholds.json"
    thresholds.write_text(json.dumps({"optical": 0.5, "optcal": 1e-9}))
    assert main(["compare", str(tmp_path / "out"), "--thresholds", str(thresholds)]) == 2
    err = capsys.readouterr().err
    assert "'optcal'" in err and "'optical'" not in err


def test_row_quantities_are_the_quantities_a_scan_writes(tmp_path):
    cfg = _config_dict(
        tmp_path,
        model={"omega_a": 1.0, "omega_b": 1.0, "n_atoms": 2},
        grid=[2.0],
        quantities=list(QUANTITIES),
    )
    run_scan(parse_config(cfg))
    assert {row.quantity for row in load_rows(tmp_path / "out")} == set(_ROW_QUANTITIES)


def _reference_tables(quantity, rows):
    """The data files as ``csv.writer`` and ``json.dumps`` wrote them from
    one column -> value record per row, for checking ``scan._tables``."""
    columns = _COLUMNS + (("analytic_envelope",) if quantity == "goldstone" else ())
    records = [dict(zip(columns, (*(getattr(r, c) for c in _COLUMNS), r.envelope))) for r in rows]

    def cell(value):
        if value is None:
            return ""
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, (str, int)):
            return str(value)
        return repr(float(value))

    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([cell(record[c]) for c in columns] for record in records)
    return {"csv": buffer.getvalue(), "json": json.dumps(records, indent=2, sort_keys=True) + "\n"}


_ODD_ROWS = [
    ComparisonRow("goldstone", 2.0, np.float64(0.1), 7, -0.0, 5e-324, 1e22, True, envelope=math.nan),
    ComparisonRow("goldstone", np.float64(1e-300), 1.5, None, math.nan, math.inf, -math.inf, False, envelope=None),
    ComparisonRow("goldstone", 3.0, 2.5, 0, None, None, None, False, envelope=-math.inf),
    ComparisonRow("goldstone", 1.0, 2.0, 12345678901234567890, 3, True, np.float64(-2.5e-8), True,
                  envelope=np.float64(math.inf)),
]


@pytest.mark.parametrize("quantity", ["goldstone", "higgs", "c_o"])
@pytest.mark.parametrize("rows", [_ODD_ROWS, _ODD_ROWS[:1], _ODD_ROWS[1:2], []])
def test_tables_equal_csv_writer_and_json_dumps(quantity, rows):
    rows = [ComparisonRow(quantity, *(getattr(r, c) for c in _COLUMNS[1:]), envelope=r.envelope) for r in rows]
    assert _tables(quantity, rows) == _reference_tables(quantity, rows)


def test_run_scan_writes_the_reference_tables(tmp_path):
    config = parse_config(_config_dict(
        tmp_path, grid=[0.5, 1.05, 2.5], quantities=["goldstone", "weights"], formats=["csv", "json"],
    ))
    run_scan(config)
    rows = load_rows(tmp_path / "out")
    assert rows[0].analytic_value is None and rows[0].envelope is None  # normal phase
    for quantity in ("goldstone", "weights"):
        written = [r for r in rows if (r.quantity == "goldstone") == (quantity == "goldstone")]
        reference = _reference_tables(quantity, written)
        for fmt in ("csv", "json"):
            assert (tmp_path / "out" / f"{quantity}.{fmt}").read_text(encoding="utf-8") == reference[fmt]


@pytest.mark.parametrize("row, line", [
    ("higgs,1.0", 2),  # truncated
    ("higgs,2.0,2.0,5,1.0,1.0,0.0,false,extra", 2),  # one cell too many
])
def test_cli_compare_rejects_rows_whose_cell_count_differs_from_the_header(tmp_path, capsys, row, line):
    data = tmp_path / "data"
    data.mkdir()
    valid = "higgs,2.2,2.2,5,1.0,1.0,0.0,false"
    (data / "higgs.csv").write_text(",".join(_COLUMNS) + "\n" + row + "\n" + valid + "\n")
    (data / "optical.csv").write_text(",".join(_COLUMNS) + "\n" + valid + "\n")
    assert main(["compare", str(data)]) == 2
    err = capsys.readouterr().err
    assert "higgs.csv" in err and f"line {line}" in err
    (data / "higgs.csv").write_text(",".join(_COLUMNS) + "\n" + valid + "\n")
    assert main(["compare", str(data)]) == 0


def test_cli_compare_rejects_a_directory_with_no_data_rows(tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    (data / "higgs.csv").write_text(",".join(_COLUMNS) + "\n")
    assert main(["compare", str(data)]) == 2
    assert "no rows to compare" in capsys.readouterr().err
