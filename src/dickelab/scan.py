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
from operator import attrgetter
from pathlib import Path

import numpy as np

from . import __version__
from .ed import DEFAULT_TRUNCATION_TOL, auto_nmax, solve_full, solve_ground
from .eigen import RESIDUAL_TOL
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
    truncation_tol: float = DEFAULT_TRUNCATION_TOL

    def params_at(self, ratio: float) -> ModelParams:
        """Model parameters at the grid point g/g_c = ratio; g' is
        ``gprime_over_g * g`` when that is set, else the template's."""
        return _params_at(self.model, self.gprime_over_g, ratio)


def _params_at(model: ModelParams, gprime_over_g: float | None, ratio: float) -> ModelParams:
    g = ratio * critical_coupling(model)
    g_prime = model.g_prime if gprime_over_g is None else gprime_over_g * g
    return replace(model, g=g, g_prime=g_prime)


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


def _choices(errors: list[str], value, key: str, valid: tuple[str, ...]) -> tuple[str, ...]:
    """``value`` without repeats if it is a non-empty list of items of
    ``valid``; otherwise (), with the problem appended to ``errors``.
    Items are compared by equality, so an unhashable item is reported as
    unknown, not raised."""
    if not isinstance(value, list) or not value:
        errors.append(f"'{key}' must be a non-empty list")
        return ()
    bad = [item for item in value if item not in valid]
    if bad:
        errors.append(f"unknown {key} {bad}; valid: {list(valid)}")
        return ()
    return tuple(dict.fromkeys(value))


def parse_config(source) -> ScanConfig:
    """Build a ScanConfig from a JSON file path or an already-loaded dict.

    The schema-1 key ``workers`` is an error, as ``run_scan`` has no thread
    pool for it to size; so is ``tolerances.eigen``, as the residual bound is
    fixed (``eigen.RESIDUAL_TOL``).

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
        "formats", "gprime_over_g", "tolerances",
    }
    for key in sorted(set(raw) - known):
        errors.append(f"'workers' sized the removed scan thread pool and is no longer accepted, got {raw[key]!r}"
                      if key == "workers" else f"unknown key '{key}'")
    if raw.get("schema_version") != SCHEMA_VERSION:
        errors.append(f"schema_version must be {SCHEMA_VERSION}, got {raw.get('schema_version')!r}")

    model = gc = None
    model_raw = raw.get("model")
    if not isinstance(model_raw, dict):
        errors.append("'model' must be an object with the physical parameters")
    else:
        if "g" in model_raw:
            errors.append("'model.g' is not allowed; the coupling comes from the grid")
        try:
            model = ModelParams(**{k: v for k, v in model_raw.items() if k != "g"})
            gc = critical_coupling(model)  # the grid is in units of g_c
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

    quantities = _choices(errors, raw.get("quantities"), "quantities", QUANTITIES)

    if "output_dir" not in raw or not isinstance(raw["output_dir"], str) or not raw["output_dir"]:
        errors.append("'output_dir' must be a non-empty string")

    formats = _choices(errors, raw.get("formats", ["csv"]), "formats", FORMATS)

    gprime_over_g = raw.get("gprime_over_g")
    if gprime_over_g is not None:
        gprime_over_g = _number(errors, gprime_over_g, 0, "gprime_over_g must be a finite number >= 0",
                                inclusive=True)

    truncation_tol = DEFAULT_TRUNCATION_TOL
    tols_raw = raw.get("tolerances", {})
    if not isinstance(tols_raw, dict):
        errors.append("'tolerances' must be an object")
    else:
        for key in sorted(set(tols_raw) - {"truncation"}):
            errors.append(f"tolerance 'eigen' is fixed at {RESIDUAL_TOL!r}, got {tols_raw[key]!r}"
                          if key == "eigen" else f"unknown tolerance '{key}'")
        if "truncation" in tols_raw:
            truncation_tol = _number(errors, tols_raw["truncation"], 0, "tolerance 'truncation' must be a positive finite number")

    # sector labels up to the occupation lambda_+^2 must be exact floats; invalid grid values are None
    for ratio in filter(None, grid) if gc is not None else ():
        try:
            occupation = saddle_point(_params_at(model, gprime_over_g, ratio)).lambda_plus_sq
        except (OverflowError, ValueError):  # ValueError: g or g' is inf
            occupation = math.inf
        if not occupation < 2.0**53:
            errors.append(f"grid g/g_c value {ratio!r} puts the occupation lambda_+^2 at or above 2**53")

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
        truncation_tol=truncation_tol,
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
    blocks = [solve_full(pt.params, n_max, parity) for parity in (1, -1)]
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
    gs = solve_ground(params) if needs_sectors else None
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


_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _cell(value) -> tuple[str, str]:
    """The CSV and the JSON text of one table cell, spelled as ``csv.writer``
    (after ``repr(float(value))`` for numbers) and ``json.dumps`` spell them."""
    if value is None:
        return "", "null"
    if isinstance(value, bool):
        text = "true" if value else "false"
        return text, text
    if isinstance(value, str):  # quantity
        return value, json.dumps(value)
    if isinstance(value, int):  # p_star
        text = str(value)
        return text, text
    text = repr(float(value))
    return text, _JSON_NONFINITE.get(text, text)


_row_values = attrgetter(*_COLUMNS, "envelope")


def _tables(quantity: str, rows: list[ComparisonRow]) -> dict[str, str]:
    """Text of a quantity's CSV and JSON data files, from cells formatted
    once.  Only the goldstone file carries the analytic envelope.

    The CSV text is what ``csv.writer`` writes with LF line ends: no cell
    holds a comma, a quote or a line break, so none is quoted.  The JSON
    text is ``json.dumps(records, indent=2, sort_keys=True)`` and a final
    LF, for one column -> value record per row.
    """
    columns = _COLUMNS + (("analytic_envelope",) if quantity == "goldstone" else ())
    cells = [[_cell(v) for v in _row_values(r)[: len(columns)]] for r in rows]
    order = sorted(range(len(columns)), key=columns.__getitem__)
    record = "  {\n" + ",\n".join(f"    {json.dumps(columns[c])}: %s" for c in order) + "\n  }"
    records = [record % tuple(row[c][1] for c in order) for row in cells]
    lines = [",".join(columns), *(",".join([text for text, _ in row]) for row in cells)]
    return {
        "csv": "\n".join(lines) + "\n",
        "json": "[\n" + ",\n".join(records) + "\n]\n" if records else "[]\n",
    }


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
        texts = _tables(quantity, rows)
        for fmt in config.formats:
            path = out / f"{quantity}.{fmt}"
            # the CSV line end is LF on every platform; the JSON text takes the platform's
            path.write_text(texts[fmt], encoding="utf-8", newline="" if fmt == "csv" else None)
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
        "tolerances": {"eigen": RESIDUAL_TOL, "truncation": config.truncation_tol},
        "files": sorted(p.name for p in written),
        "created_at": datetime.now(timezone.utc).isoformat(),
    }
    manifest_path = out / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    written.append(manifest_path)
    return written


def _parse_cell(cell: str):
    return None if cell == "" else float(cell)


def load_rows(data_dir) -> list[ComparisonRow]:
    """Read the quantity files of a scan output directory back into rows:
    each file its ``manifest.json`` lists under ``"files"`` (a quantity's
    CSV, or its JSON when the scan wrote no CSV), or every ``*.csv`` when it
    holds no manifest.  Raises FileNotFoundError on a listed file that is
    missing, and ValueError, naming the file and line, on a CSV row whose
    cell count differs from its header's."""
    data_dir = Path(data_dir)
    manifest = data_dir / "manifest.json"
    if manifest.is_file():
        listed = json.loads(manifest.read_text(encoding="utf-8"))["files"]
        names = (n for n in sorted(listed) if n.endswith(".csv") or n.endswith(".json") and n[:-5] + ".csv" not in listed)
        paths = [data_dir / name for name in names]
        missing = [path.name for path in paths if not path.is_file()]
        if missing:
            raise FileNotFoundError(f"{manifest} lists missing data files: {', '.join(missing)}")
    else:
        paths = sorted(data_dir.glob("*.csv"))
    if not paths:
        raise FileNotFoundError(f"no data files found in {data_dir}")
    rows: list[ComparisonRow] = []
    for path in paths:
        if path.suffix == ".json":  # cells as written: float or null, int p_star, bool near_qcp
            records = json.loads(path.read_text(encoding="utf-8"))
            rows += [ComparisonRow(*(r[c] for c in _COLUMNS), r.get("analytic_envelope")) for r in records]
            continue
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            for record in reader:
                # DictReader files extra cells under the key None and fills missing ones with None
                if None in record or None in record.values():
                    raise ValueError(f"{path}, line {reader.line_num}: cell count differs from the header's")
                p_star = record.get("p_star", "")
                rows.append(ComparisonRow(
                    record["quantity"], float(record["g"]), float(record["g_over_gc"]),
                    None if p_star == "" else int(p_star),
                    *(_parse_cell(record[c]) for c in ("ed_value", "analytic_value", "rel_deviation")),
                    record["near_qcp"] == "true", _parse_cell(record.get("analytic_envelope", "")),
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
    are reported but not enforced.  A NaN among a quantity's enforced
    deviations makes its ``max_deviation`` NaN, which fails its threshold.
    A quantity named by explicit ``thresholds`` that has no rows is
    reported with 0 rows and fails; the default thresholds skip it.
    """
    if not rows:
        raise ValueError("no rows to compare")
    by_quantity: dict[str, list[ComparisonRow]] = {} if thresholds is None else {q: [] for q in thresholds}
    thresholds = DEFAULT_THRESHOLDS if thresholds is None else thresholds
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
        # np.max propagates NaN; Python's max drops one that is not first
        max_dev = float(np.max(enforced)) if enforced else None
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
