"""Batch sweep driver: run ED and analytic pipelines over a coupling
grid and emit figure-ready comparison tables.

A run is described by a single JSON config (see ``parse_config``).  Grid
points are solved one after another in grid order, so re-running an
identical config byte-reproduces every data file.  One file per
requested quantity is written with the columns (quantity, g, g_over_gc,
p_star, ed_value, analytic_value, rel_deviation, near_qcp), plus a
manifest recording the full parameters, grid, tolerances and code
version.
"""

import csv
import json
import math
import numbers
from collections import namedtuple
from dataclasses import asdict, dataclass, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .ed import DEFAULT_EIGEN_TOL, auto_nmax, solve_full, solve_ground
from .model import ModelParams
from .observables import anomalous_weight, mandel_q, number_correlation, photon_correlation
from .theory import critical_coupling, effective_theory, predictions, saddle_point

__all__ = [
    "ScanConfig",
    "ComparisonRow",
    "QuantityReport",
    "CompareReport",
    "ConfigError",
    "QUANTITIES",
    "DEFAULT_THRESHOLDS",
    "SCHEMA_VERSION",
    "parse_config",
    "parse_thresholds",
    "run_scan",
    "load_rows",
    "compare_report",
]

SCHEMA_VERSION = 1
QUANTITIES = ("spectrum", "goldstone", "higgs", "optical", "weights", "mandel", "anomalous")
FORMATS = ("csv", "json")
NEAR_QCP_P_STAR = 3  # rows below this ground sector are flagged near the transition
_MASKED_QUANTITIES = ("goldstone", "optical")  # masking applies to E_G and E_o enforcement
# The quantity column of the rows a scan writes: "weights" writes c_g, c_o and c_h.
_ROW_QUANTITIES = ("spectrum", "goldstone", "higgs", "optical", "c_g", "c_o", "c_h", "mandel", "anomalous")
REL_DEV_FLOOR = 1e-12

# Engineering bands for `compare`, fixed at every N with no 1/N allowance.
# On g/g_c in [2, 3] (26 points, resonance) the c_o and optical bands fail
# at N = 3 (max deviations 0.357 and 0.121) and N = 6 (0.193 and 0.055),
# and every band passes at N = 12 (0.098 and 0.025).  The mandel entry
# approximates the absolute |dQ| <= 0.05 band relative to |Q_M| >= 0.6 on
# resonance.
DEFAULT_THRESHOLDS = {
    "higgs": 0.10,
    "optical": 0.05,
    "c_g": 0.15,
    "c_o": 0.15,
    "c_h": 0.10,
    "mandel": 0.08,
}

_COLUMNS = (
    "quantity", "g", "g_over_gc", "p_star",
    "ed_value", "analytic_value", "rel_deviation", "near_qcp",
)


class ConfigError(ValueError):
    """Invalid run configuration; ``errors`` lists every problem found."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid config:\n" + "\n".join(f"  - {e}" for e in self.errors))


@dataclass(frozen=True)
class ScanConfig:
    model: ModelParams  # template; g is taken from the grid
    g_over_gc: tuple[float, ...]
    quantities: tuple[str, ...]
    output_dir: Path
    formats: tuple[str, ...] = ("csv",)
    gprime_over_g: float | None = None
    eigen_tol: float = DEFAULT_EIGEN_TOL
    truncation_tol: float = 1e-8

    def params_at(self, ratio: float) -> ModelParams:
        """Model parameters at the grid point g/g_c = ratio; g' is
        ``gprime_over_g * g`` when that is set, else the template's."""
        g = ratio * critical_coupling(self.model)
        g_prime = self.model.g_prime if self.gprime_over_g is None else self.gprime_over_g * g
        return replace(self.model, g=g, g_prime=g_prime)


@dataclass(frozen=True)
class ComparisonRow:
    """One ED-vs-analytic comparison at one grid point.

    Missing values (normal phase, vacuum sector, no closed form) are
    None.  ``envelope`` is filled for the goldstone quantity only.
    """

    quantity: str
    g: float
    g_over_gc: float
    p_star: int | None
    ed_value: float | None
    analytic_value: float | None
    rel_deviation: float | None
    near_qcp: bool
    envelope: float | None = None


@dataclass(frozen=True)
class QuantityReport:
    quantity: str
    n_rows: int
    n_enforced: int
    max_deviation: float | None
    median_deviation: float | None
    threshold: float | None
    passed: bool | None


@dataclass(frozen=True)
class CompareReport:
    quantities: tuple[QuantityReport, ...]
    passed: bool


def _number(errors: list[str], value, low: float, message: str, inclusive=False, kind=numbers.Real):
    """``value`` as a float if it is a finite, non-bool ``kind`` above
    ``low`` (or equal to it when ``inclusive``); otherwise None, with
    ``message`` and the value appended to ``errors``."""
    if (
        isinstance(value, kind)
        and not isinstance(value, bool)
        and math.isfinite(value)
        and (value >= low if inclusive else value > low)
    ):
        return float(value)
    errors.append(f"{message}, got {value!r}")
    return None


def parse_config(source) -> ScanConfig:
    """Build a ScanConfig from a JSON file path or an already-loaded dict.

    The schema-1 key ``workers`` is accepted and ignored.

    Raises
    ------
    ConfigError
        Listing every invalid or missing key at once.
    """
    if isinstance(source, (str, Path)):
        try:
            raw = json.loads(Path(source).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError([f"cannot read config file: {exc}"]) from exc
        except json.JSONDecodeError as exc:
            raise ConfigError([f"config is not valid JSON: {exc}"]) from exc
    else:
        raw = dict(source)

    errors: list[str] = []
    known = {
        "schema_version", "model", "grid", "quantities", "output_dir",
        "formats", "gprime_over_g", "tolerances", "workers",
    }
    for key in sorted(set(raw) - known):
        errors.append(f"unknown key '{key}'")
    if raw.get("schema_version") != SCHEMA_VERSION:
        errors.append(f"schema_version must be {SCHEMA_VERSION}, got {raw.get('schema_version')!r}")

    model = None
    model_raw = raw.get("model")
    if not isinstance(model_raw, dict):
        errors.append("'model' must be an object with the physical parameters")
    else:
        if "g" in model_raw:
            errors.append("'model.g' is not allowed; the coupling comes from the grid")
        try:
            model = ModelParams(**{k: v for k, v in model_raw.items() if k != "g"})
            critical_coupling(model)  # the grid is in units of g_c
            if model.omega_a <= abs(model.lambda_z):
                raise ValueError("H is unbounded below for omega_a <= |lambda_z|")
        except (TypeError, ValueError) as exc:
            errors.append(f"invalid model parameters: {exc}")

    grid: tuple[float | None, ...] = ()
    grid_raw = raw.get("grid")
    positive = "grid g/g_c values must be positive finite numbers"
    if isinstance(grid_raw, dict):
        if set(grid_raw) != {"start", "stop", "count"}:
            errors.append(f"grid range spec needs exactly start/stop/count, got {sorted(grid_raw)}")
        else:
            start = _number(errors, grid_raw["start"], 0, positive)
            stop = _number(errors, grid_raw["stop"], 0, positive)
            count = _number(errors, grid_raw["count"], 2, "grid count must be an integer >= 2",
                            inclusive=True, kind=numbers.Integral)
            if None not in (start, stop, count):
                grid = tuple(np.linspace(start, stop, int(count)))
    elif isinstance(grid_raw, list) and grid_raw:
        grid = tuple(_number(errors, x, 0, positive) for x in grid_raw)
    else:
        errors.append("'grid' must be a non-empty list or a {start, stop, count} object")

    quantities_raw = raw.get("quantities")
    quantities: tuple[str, ...] = ()
    if not isinstance(quantities_raw, list) or not quantities_raw:
        errors.append("'quantities' must be a non-empty list")
    else:
        bad = [q for q in quantities_raw if q not in QUANTITIES]
        if bad:
            errors.append(f"unknown quantities {bad}; valid: {list(QUANTITIES)}")
        quantities = tuple(dict.fromkeys(quantities_raw))

    if "output_dir" not in raw or not isinstance(raw["output_dir"], str) or not raw["output_dir"]:
        errors.append("'output_dir' must be a non-empty string")

    formats_raw = raw.get("formats", ["csv"])
    formats: tuple[str, ...] = ("csv",)
    if not isinstance(formats_raw, list) or not formats_raw:
        errors.append("'formats' must be a non-empty list")
    else:
        bad = [f for f in formats_raw if f not in FORMATS]
        if bad:
            errors.append(f"unknown formats {bad}; valid: {list(FORMATS)}")
        formats = tuple(dict.fromkeys(formats_raw))

    gprime_over_g = raw.get("gprime_over_g")
    if gprime_over_g is not None:
        gprime_over_g = _number(errors, gprime_over_g, 0, "gprime_over_g must be a finite number >= 0",
                                inclusive=True)

    tols = {"eigen": DEFAULT_EIGEN_TOL, "truncation": 1e-8}
    tols_raw = raw.get("tolerances", {})
    if not isinstance(tols_raw, dict):
        errors.append("'tolerances' must be an object")
    else:
        for key in sorted(set(tols_raw) - set(tols)):
            errors.append(f"unknown tolerance '{key}'")
        for key in tols:
            if key in tols_raw:
                tols[key] = _number(errors, tols_raw[key], 0, f"tolerance '{key}' must be a positive finite number")

    if model is not None and quantities:
        sector_based = set(quantities) - {"anomalous"}
        crw_on = model.g_prime > 0 or (gprime_over_g or 0) > 0
        if sector_based and crw_on:
            errors.append(
                f"quantities {sorted(sector_based)} need conserved sectors (g_prime = 0); "
                "only 'anomalous' supports gprime_over_g > 0"
            )

    if errors:
        raise ConfigError(errors)
    return ScanConfig(
        model=model,
        g_over_gc=grid,
        quantities=quantities,
        output_dir=Path(raw["output_dir"]),
        formats=formats,
        gprime_over_g=gprime_over_g,
        eigen_tol=tols["eigen"],
        truncation_tol=tols["truncation"],
    )


def _rel_dev(ed, analytic):
    if ed is None or analytic is None:
        return None
    return abs(ed - analytic) / max(abs(analytic), REL_DEV_FLOOR)


# What the row builders read at one grid point: gs is None when no sector
# quantity is requested, theory and preds are None in the normal phase.
_Point = namedtuple("_Point", "config params gs theory preds")


def _weight_rows(pt: _Point) -> list[tuple]:
    photon = photon_correlation(pt.gs.spectrum, pt.gs.spectrum_next)
    by_role = {line.role: line.weight for line in photon.lines}
    number = number_correlation(pt.gs.spectrum).lines if pt.gs.point.p_star > 0 else []
    c_h = {line.role: line.weight for line in number}.get("higgs")
    return [
        ("c_g", by_role.get("goldstone"), getattr(pt.preds, "c_goldstone", None), None),
        ("c_o", by_role.get("optical"), getattr(pt.preds, "c_optical", None), None),
        ("c_h", c_h, getattr(pt.preds, "c_higgs", None), None),
    ]


def _anomalous_rows(pt: _Point) -> list[tuple]:
    n_max = max(auto_nmax(pt.params, parity, tol=pt.config.truncation_tol) for parity in (1, -1))
    blocks = [solve_full(pt.params, n_max, parity, tol=pt.config.eigen_tol) for parity in (1, -1)]
    return [("anomalous", anomalous_weight(*blocks), None, None)]


# Quantity -> its rows (name, ED value, analytic value, analytic envelope)
# at one grid point.
_ROW_BUILDERS = {
    "spectrum": lambda pt: [
        ("spectrum", float(pt.gs.point.p_star), float(pt.theory.p_nearest) if pt.theory else 0.0, None)
    ],
    "goldstone": lambda pt: [(
        "goldstone", pt.gs.point.e_goldstone, getattr(pt.preds, "e_goldstone", None),
        getattr(pt.theory, "d", None),
    )],
    "higgs": lambda pt: [("higgs", pt.gs.point.e_higgs, getattr(pt.preds, "e_higgs", None), None)],
    "optical": lambda pt: [("optical", pt.gs.point.e_optical, getattr(pt.preds, "e_optical", None), None)],
    "mandel": lambda pt: [(
        "mandel", mandel_q(pt.gs.spectrum) if pt.gs.point.p_star > 0 else None,
        getattr(pt.preds, "mandel_q", None), None,
    )],
    "weights": _weight_rows,
    "anomalous": _anomalous_rows,
}


def _point_rows(config: ScanConfig, ratio: float) -> dict[str, list[ComparisonRow]]:
    """Rows of every requested quantity at the grid point g/g_c = ratio."""
    params = config.params_at(ratio)
    superradiant = saddle_point(params).superradiant
    needs_sectors = bool(set(config.quantities) - {"anomalous"})
    gs = solve_ground(params, tol=config.eigen_tol) if needs_sectors else None
    pt = _Point(
        config, params, gs,
        effective_theory(params) if superradiant else None,
        predictions(params) if superradiant else None,
    )
    p_star = gs.point.p_star if gs is not None else None
    near = p_star is not None and p_star < NEAR_QCP_P_STAR
    return {
        quantity: [
            ComparisonRow(name, params.g, ratio, p_star, ed, analytic, _rel_dev(ed, analytic), near, envelope)
            for name, ed, analytic, envelope in _ROW_BUILDERS[quantity](pt)
        ]
        for quantity in config.quantities
    }


def _table(quantity: str, rows: list[ComparisonRow]) -> tuple[tuple[str, ...], list[dict]]:
    """Column names and one column -> value record per row of a quantity's
    data file.  Only the goldstone file carries the analytic envelope; for
    the others ``zip`` drops it."""
    columns = _COLUMNS + (("analytic_envelope",) if quantity == "goldstone" else ())
    records = [dict(zip(columns, (*(getattr(r, c) for c in _COLUMNS), r.envelope))) for r in rows]
    return columns, records


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (str, int)):  # quantity, p_star
        return str(value)
    return repr(float(value))


def _write_csv(path: Path, columns: tuple[str, ...], records: list[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_csv_cell(record[c]) for c in columns] for record in records)


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def run_scan(config: ScanConfig) -> list[Path]:
    """Execute a sweep and write one data file per quantity plus a manifest.

    Grid points are solved one after another; output row order is grid
    order.
    """
    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    gc = critical_coupling(config.model)

    by_quantity: dict[str, list[ComparisonRow]] = {q: [] for q in config.quantities}
    for ratio in config.g_over_gc:
        for quantity, rows in _point_rows(config, ratio).items():
            by_quantity[quantity] += rows

    written: list[Path] = []
    for quantity, rows in by_quantity.items():
        columns, records = _table(quantity, rows)
        for fmt in config.formats:
            path = out / f"{quantity}.{fmt}"
            if fmt == "csv":
                _write_csv(path, columns, records)
            else:
                _write_json(path, records)
            written.append(path)

    manifest = {
        "schema_version": SCHEMA_VERSION,
        "code_version": __version__,
        "model": {k: v for k, v in asdict(config.model).items() if k != "g"},
        "critical_coupling": gc,
        "grid_g_over_gc": list(config.g_over_gc),
        "grid_g": [r * gc for r in config.g_over_gc],
        "gprime_over_g": config.gprime_over_g,
        "quantities": list(config.quantities),
        "formats": list(config.formats),
        "tolerances": {"eigen": config.eigen_tol, "truncation": config.truncation_tol},
        "files": sorted(p.name for p in written),
        "created_at": datetime.now(timezone.utc).isoformat(),
    }
    manifest_path = out / "manifest.json"
    _write_json(manifest_path, manifest)
    written.append(manifest_path)
    return written


def _parse_cell(cell: str):
    return None if cell == "" else float(cell)


def load_rows(data_dir) -> list[ComparisonRow]:
    """Read every quantity CSV in a scan output directory back into rows."""
    data_dir = Path(data_dir)
    paths = sorted(data_dir.glob("*.csv"))
    if not paths:
        raise FileNotFoundError(f"no CSV data files found in {data_dir}")
    rows: list[ComparisonRow] = []
    for path in paths:
        with open(path, encoding="utf-8", newline="") as fh:
            for record in csv.DictReader(fh):
                p_star = record.get("p_star", "")
                rows.append(ComparisonRow(
                    quantity=record["quantity"],
                    g=float(record["g"]),
                    g_over_gc=float(record["g_over_gc"]),
                    p_star=None if p_star == "" else int(p_star),
                    ed_value=_parse_cell(record["ed_value"]),
                    analytic_value=_parse_cell(record["analytic_value"]),
                    rel_deviation=_parse_cell(record["rel_deviation"]),
                    near_qcp=record["near_qcp"] == "true",
                    envelope=_parse_cell(record.get("analytic_envelope", "") or ""),
                ))
    return rows


def parse_thresholds(raw) -> dict[str, float]:
    """``raw``, a loaded ``{quantity: max_rel_deviation}`` object, as the
    float thresholds of ``compare_report``; raises ConfigError listing
    every key that names no quantity a scan writes and every value that is
    not a finite number > 0."""
    if not isinstance(raw, dict):
        raise ConfigError(["thresholds must be a JSON object {quantity: max_rel_deviation}"])
    errors = [f"threshold key {key!r} names no scan quantity" for key in raw if key not in _ROW_QUANTITIES]
    thresholds = {key: _number(errors, value, 0, f"threshold {key!r} must be a finite number > 0")
                  for key, value in raw.items()}
    if errors:
        raise ConfigError(errors)
    return thresholds


def compare_report(rows: list[ComparisonRow], thresholds: dict | None = None) -> CompareReport:
    """Per-quantity deviation statistics and pass/fail against thresholds.

    Rows flagged near_qcp are excluded from enforcement for the
    goldstone and optical quantities.  Quantities without a threshold
    are reported but not enforced.
    """
    if not rows:
        raise ValueError("no rows to compare")
    thresholds = DEFAULT_THRESHOLDS if thresholds is None else thresholds
    by_quantity: dict[str, list[ComparisonRow]] = {}
    for r in rows:
        by_quantity.setdefault(r.quantity, []).append(r)

    reports = []
    all_pass = True
    for quantity in sorted(by_quantity):
        group = by_quantity[quantity]
        enforced = [
            r.rel_deviation
            for r in group
            if r.rel_deviation is not None
            and not (r.near_qcp and quantity in _MASKED_QUANTITIES)
        ]
        threshold = thresholds.get(quantity)
        max_dev = max(enforced) if enforced else None
        passed = None
        if threshold is not None:
            passed = max_dev is not None and max_dev <= threshold
            all_pass = all_pass and passed
        reports.append(QuantityReport(
            quantity=quantity,
            n_rows=len(group),
            n_enforced=len(enforced),
            max_deviation=max_dev,
            median_deviation=float(np.median(enforced)) if enforced else None,
            threshold=threshold,
            passed=passed,
        ))
    return CompareReport(quantities=tuple(reports), passed=all_pass)
