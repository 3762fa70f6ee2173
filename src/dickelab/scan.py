"""Batch sweep driver: run ED and analytic pipelines over a coupling
grid and emit figure-ready comparison tables.

A run is described by a single JSON config (see ``parse_config``).  Each
grid point is independent; points execute on a bounded worker pool and
results are assembled in grid order, so re-running an identical config
byte-reproduces every data file.  One file per requested quantity is
written with the columns (quantity, g, g_over_gc, p_star, ed_value,
analytic_value, rel_deviation, near_qcp), plus a manifest recording the
full parameters, grid, tolerances and code version.
"""

import csv
import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
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
    "run_scan",
    "load_rows",
    "compare_report",
    "worker_count",
]

SCHEMA_VERSION = 1
QUANTITIES = ("spectrum", "goldstone", "higgs", "optical", "weights", "mandel", "anomalous")
FORMATS = ("csv", "json")
NEAR_QCP_P_STAR = 3  # rows below this ground sector are flagged near the transition
_MASKED_QUANTITIES = ("goldstone", "optical")  # masking applies to E_G and E_o enforcement
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

_CSV_COLUMNS = [
    "quantity", "g", "g_over_gc", "p_star",
    "ed_value", "analytic_value", "rel_deviation", "near_qcp",
]


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
    workers: int | None = None


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


def parse_config(source) -> ScanConfig:
    """Build a ScanConfig from a JSON file path or an already-loaded dict.

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
        except (TypeError, ValueError) as exc:
            errors.append(f"invalid model parameters: {exc}")

    grid: tuple[float, ...] = ()
    grid_raw = raw.get("grid")
    if isinstance(grid_raw, dict):
        missing = {"start", "stop", "count"} - set(grid_raw)
        extra = set(grid_raw) - {"start", "stop", "count"}
        if missing or extra:
            errors.append(f"grid range spec needs exactly start/stop/count, got {sorted(grid_raw)}")
        else:
            try:
                count = int(grid_raw["count"])
                if count < 2:
                    errors.append(f"grid count must be >= 2, got {count}")
                else:
                    grid = tuple(np.linspace(float(grid_raw["start"]), float(grid_raw["stop"]), count))
            except (TypeError, ValueError):
                errors.append("grid start/stop/count must be numeric")
    elif isinstance(grid_raw, list) and grid_raw:
        try:
            grid = tuple(float(x) for x in grid_raw)
        except (TypeError, ValueError):
            errors.append("grid list entries must be numeric")
    else:
        errors.append("'grid' must be a non-empty list or a {start, stop, count} object")
    if grid and any(x <= 0 for x in grid):
        errors.append("grid g/g_c values must be positive")

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
        if not isinstance(gprime_over_g, (int, float)) or gprime_over_g < 0:
            errors.append(f"gprime_over_g must be a number >= 0, got {gprime_over_g!r}")

    eigen_tol = DEFAULT_EIGEN_TOL
    trunc_tol = 1e-8
    tols = raw.get("tolerances", {})
    if not isinstance(tols, dict):
        errors.append("'tolerances' must be an object")
    else:
        for key in sorted(set(tols) - {"eigen", "truncation"}):
            errors.append(f"unknown tolerance '{key}'")
        for key, target in (("eigen", "eigen_tol"), ("truncation", "trunc_tol")):
            if key in tols:
                if not isinstance(tols[key], (int, float)) or tols[key] <= 0:
                    errors.append(f"tolerance '{key}' must be a positive number")
                elif key == "eigen":
                    eigen_tol = float(tols[key])
                else:
                    trunc_tol = float(tols[key])

    workers = raw.get("workers")
    if workers is not None and (not isinstance(workers, int) or workers < 1):
        errors.append(f"workers must be an integer >= 1, got {workers!r}")

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
        gprime_over_g=None if gprime_over_g is None else float(gprime_over_g),
        eigen_tol=eigen_tol,
        truncation_tol=trunc_tol,
        workers=workers,
    )


def worker_count(config: ScanConfig) -> int:
    """Bounded pool size: config value or CPU count, capped by DICKE_LAB_THREADS."""
    limit = config.workers if config.workers is not None else (os.cpu_count() or 1)
    env = os.environ.get("DICKE_LAB_THREADS")
    if env and env.isdigit() and int(env) >= 1:
        limit = min(limit, int(env))
    return max(1, min(limit, len(config.g_over_gc)))


def _rel_dev(ed, analytic):
    if ed is None or analytic is None:
        return None
    return abs(ed - analytic) / max(abs(analytic), REL_DEV_FLOOR)


def _point_rows(config: ScanConfig, gc: float, ratio: float) -> list[ComparisonRow]:
    g = ratio * gc
    g_prime = config.model.g_prime if config.gprime_over_g is None else config.gprime_over_g * g
    params = replace(config.model, g=g, g_prime=g_prime)
    sp = saddle_point(params)
    theory = effective_theory(params) if sp.superradiant else None
    preds = predictions(params) if sp.superradiant else None

    needs_sectors = bool(set(config.quantities) - {"anomalous"})
    gs = solve_ground(params, tol=config.eigen_tol) if needs_sectors else None
    p_star = gs.point.p_star if gs is not None else None
    near = p_star is not None and p_star < NEAR_QCP_P_STAR

    def row(quantity, ed, analytic, envelope=None):
        return ComparisonRow(
            quantity=quantity, g=g, g_over_gc=ratio, p_star=p_star,
            ed_value=ed, analytic_value=analytic,
            rel_deviation=_rel_dev(ed, analytic), near_qcp=near, envelope=envelope,
        )

    rows = []
    for quantity in config.quantities:
        if quantity == "spectrum":
            nearest = float(theory.p_nearest) if theory else 0.0
            rows.append(row("spectrum", float(p_star), nearest))
        elif quantity == "goldstone":
            rows.append(row(
                "goldstone", gs.point.e_goldstone,
                preds.e_goldstone if preds else None,
                envelope=theory.d if theory else None,
            ))
        elif quantity == "higgs":
            rows.append(row("higgs", gs.point.e_higgs, preds.e_higgs if preds else None))
        elif quantity == "optical":
            rows.append(row("optical", gs.point.e_optical, preds.e_optical if preds else None))
        elif quantity == "mandel":
            ed = mandel_q(gs.spectrum) if p_star > 0 else None
            rows.append(row("mandel", ed, preds.mandel_q if preds else None))
        elif quantity == "weights":
            photon = photon_correlation(gs.spectrum, gs.spectrum_next)
            by_role = {line.role: line.weight for line in photon.lines}
            rows.append(row("c_g", by_role.get("goldstone"), preds.c_goldstone if preds else None))
            rows.append(row("c_o", by_role.get("optical"), preds.c_optical if preds else None))
            c_h = None
            if p_star > 0:
                number = number_correlation(gs.spectrum)
                c_h = {line.role: line.weight for line in number.lines}.get("higgs")
            rows.append(row("c_h", c_h, preds.c_higgs if preds else None))
        elif quantity == "anomalous":
            n_max = max(
                auto_nmax(params, parity, tol=config.truncation_tol) for parity in (1, -1)
            )
            weight = anomalous_weight(
                solve_full(params, n_max, 1, tol=config.eigen_tol),
                solve_full(params, n_max, -1, tol=config.eigen_tol),
            )
            rows.append(row("anomalous", weight, None))
    return rows


def _format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(float(value))


def _write_csv(path: Path, rows: list[ComparisonRow], with_envelope: bool) -> None:
    columns = _CSV_COLUMNS + (["analytic_envelope"] if with_envelope else [])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for r in rows:
            record = [
                r.quantity, _format_value(r.g), _format_value(r.g_over_gc),
                "" if r.p_star is None else str(r.p_star),
                _format_value(r.ed_value), _format_value(r.analytic_value),
                _format_value(r.rel_deviation), _format_value(r.near_qcp),
            ]
            if with_envelope:
                record.append(_format_value(r.envelope))
            writer.writerow(record)


def _write_json(path: Path, rows: list[ComparisonRow], with_envelope: bool) -> None:
    payload = []
    for r in rows:
        item = {
            "quantity": r.quantity, "g": r.g, "g_over_gc": r.g_over_gc,
            "p_star": r.p_star, "ed_value": r.ed_value,
            "analytic_value": r.analytic_value, "rel_deviation": r.rel_deviation,
            "near_qcp": r.near_qcp,
        }
        if with_envelope:
            item["analytic_envelope"] = r.envelope
        payload.append(item)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def run_scan(config: ScanConfig) -> list[Path]:
    """Execute a sweep and write one data file per quantity plus a manifest.

    Grid points run on a bounded thread pool (numpy releases the GIL in
    the eigensolver); output row order always equals grid order.
    """
    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    gc = critical_coupling(config.model)

    ratios = config.g_over_gc
    with ThreadPoolExecutor(max_workers=worker_count(config)) as pool:
        per_point = list(pool.map(lambda r: _point_rows(config, gc, r), ratios))

    by_quantity: dict[str, list[ComparisonRow]] = {}
    for rows in per_point:
        for r in rows:
            by_quantity.setdefault("weights" if r.quantity in ("c_g", "c_o", "c_h") else r.quantity, []).append(r)

    written: list[Path] = []
    for quantity in config.quantities:
        rows = by_quantity.get(quantity, [])
        with_envelope = quantity == "goldstone"
        for fmt in config.formats:
            path = out / f"{quantity}.{fmt}"
            if fmt == "csv":
                _write_csv(path, rows, with_envelope)
            else:
                _write_json(path, rows, with_envelope)
            written.append(path)

    manifest = {
        "schema_version": SCHEMA_VERSION,
        "code_version": __version__,
        "model": {
            "omega_a": config.model.omega_a, "omega_b": config.model.omega_b,
            "g_prime": config.model.g_prime, "lambda_z": config.model.lambda_z,
            "u": config.model.u, "n_atoms": config.model.n_atoms,
        },
        "critical_coupling": gc,
        "grid_g_over_gc": list(ratios),
        "grid_g": [r * gc for r in ratios],
        "gprime_over_g": config.gprime_over_g,
        "quantities": list(config.quantities),
        "formats": list(config.formats),
        "tolerances": {"eigen": config.eigen_tol, "truncation": config.truncation_tol},
        "workers": config.workers,
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
