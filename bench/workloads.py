"""The four benchmark workloads: inputs from a seed, the timed unit of work,
and the checks on each unit's outputs.

Every workload is a closed loop: one client runs a batch sweep and waits
for it before starting the next.  A workload's sweep is cut into units of
equal work, so a run can take the median over many units.  Grids are cut
by interleaving (unit k takes every K-th coupling starting at k): every
unit spans the whole coupling range and asks the solver for the same
sector range as the full sweep would.

The seed only shifts each coupling grid by less than one grid spacing
(seed 0 keeps the stated grids exactly).  N, the point counts and hence
the work per unit do not depend on it.
"""

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from dickelab import ed, observables, scan, theory
from dickelab.model import ModelParams

# The solver's certificate bounds (dickelab.eigen): residual below
# EIGEN_TOL times the largest matrix entry, which is at most the largest
# |eigenvalue|, and orthonormality defect below ORTHO_TOL.
EIGEN_TOL = 1e-8
ORTHO_TOL = 1e-10
SUM_RULE_RTOL = 1e-8
# P* is the lowest sector within 1e-12 of the minimum, so the Goldstone
# gap E0(P*+1) - E0(P*) can be negative by at most this much.
TIE_TOL = 1e-12
# Reference comparison for the default seed: integers exactly, floats
# within REF_ATOL + REF_RTOL * |reference|.
REF_ATOL = 1e-8
REF_RTOL = 1e-6

SCAN_COLUMNS = [
    "quantity", "g", "g_over_gc", "p_star",
    "ed_value", "analytic_value", "rel_deviation", "near_qcp",
]
SECTOR_QUANTITIES = ["spectrum", "goldstone", "higgs", "optical", "weights", "mandel"]


@dataclass(frozen=True)
class Unit:
    label: str
    points: int
    payload: object


def coupling_grid(start, stop, count, rng):
    """linspace(start, stop, count), shifted by up to half a spacing."""
    grid = np.linspace(start, stop, count)
    if rng is None:
        return grid
    return grid + rng.uniform(-0.5, 0.5) * (stop - start) / (count - 1)


def interleave(count, k):
    """Index sets of the k interleaved units of a count-point grid."""
    return [np.arange(c, count, k) for c in range(k)]


def close(a, b):
    if a is None or b is None:
        return a is b
    return abs(a - b) <= REF_ATOL + REF_RTOL * abs(b)


def spectrum_problems(spec):
    """Certificate check of one decomposition against the solver's bounds."""
    scale = max(1.0, float(np.abs(spec.energies).max()))
    problems = []
    if not spec.max_residual <= EIGEN_TOL * scale:
        problems.append(f"residual {spec.max_residual:.3e} above {EIGEN_TOL:.0e} * {scale:.3g}")
    if not spec.ortho_defect <= ORTHO_TOL:
        problems.append(f"orthonormality defect {spec.ortho_defect:.3e} above {ORTHO_TOL:.0e}")
    return problems


def ground_solve_problems(gs):
    """Certificates and Lehmann sum rules of a solve_ground result."""
    problems = spectrum_problems(gs.spectrum) + spectrum_problems(gs.spectrum_next)
    if gs.spectrum.p != gs.point.p_star or gs.spectrum_next.p != gs.point.p_star + 1:
        problems.append("spectra do not belong to sectors P* and P*+1")
    photon = observables.photon_correlation(gs.spectrum, gs.spectrum_next)
    expect = observables.mean_photon_number(gs.spectrum) + 1
    if abs(photon.total_weight() - expect) > SUM_RULE_RTOL * max(1.0, expect):
        problems.append(f"photon sum rule: {photon.total_weight()!r} != {expect!r}")
    if gs.spectrum.basis.dim >= 2:
        number = observables.number_correlation(gs.spectrum)
        var = observables.photon_number_variance(gs.spectrum)
        if abs(number.total_weight() - var) > SUM_RULE_RTOL * max(1.0, var):
            problems.append(f"number sum rule: {number.total_weight()!r} != {var!r}")
    return problems


def point_values(point):
    return {
        "p_star": point.p_star,
        "ground_energy": point.ground_energy,
        "e_goldstone": point.e_goldstone,
        "e_higgs": point.e_higgs,
        "e_optical": point.e_optical,
    }


def point_problems(point):
    problems = []
    values = [point.ground_energy, point.e_goldstone, point.e_optical]
    if point.e_higgs is not None:
        values.append(point.e_higgs)
    if not all(math.isfinite(v) for v in values):
        problems.append("non-finite energy")
    if point.e_goldstone < -TIE_TOL:
        problems.append(f"Goldstone gap {point.e_goldstone!r} < 0: P* is not the ground sector")
    return problems


def staircase_problems(values, grid_keys):
    """P* is nondecreasing along each grid, with unit steps between
    neighbouring couplings.  Only computed points are compared."""
    problems = []
    for prefix, count in grid_keys:
        previous = None
        for i in range(count):
            vals = values.get(f"{prefix}:{i}")
            if vals is None:
                continue
            if previous is not None:
                j, p_prev = previous
                step = vals["p_star"] - p_prev
                if step < 0 or (j == i - 1 and step > 1):
                    problems.append((f"{prefix}:{i}", f"P* steps from {p_prev} to {vals['p_star']}"))
            previous = (i, vals["p_star"])
    return problems


class Workload:
    """Inputs, timed unit and output checks of one workload.

    ``expect_calls`` names the wrapped functions that must fire in a
    traced run; ``expect_idle`` the entry points that must not.
    A ``calibrated`` workload, whose time goes to Python-level calls on
    small matrices, has its timings scaled by the machine slowdown
    measured after each unit (worker.calibration_kernel).
    """

    name = ""
    traced_units = 1
    calibrated = False
    expect_calls = frozenset()
    expect_idle = frozenset()

    def __init__(self, seed, smoke, workdir):
        self.seed = seed
        self.smoke = smoke
        self.workdir = Path(workdir)
        self.rng = None if seed == 0 else np.random.default_rng(seed)
        self.units = []

    def prepare(self):
        """Parse run configs; part of set-up, repeated under the tracer."""

    def warmup(self):
        raise NotImplementedError

    def run(self, unit):
        raise NotImplementedError

    def check(self, unit, output, run_index):
        """Return ({point key: values}, [(point key, problem)])."""
        raise NotImplementedError

    def finish(self, values):
        """Checks across units; [(point key, problem)]."""
        return []

    def sample_index(self, count, run_index):
        """Which of a unit's count points to re-solve for certificates."""
        rng = np.random.default_rng([self.seed, run_index])
        return int(rng.integers(count))


class StaircaseN5(Workload):
    """ground_state_scan at N = 5 on the criterion-5 and criterion-8 grids."""

    name = "staircase_n5"
    GRIDS = {"A": (2.0, 3.0, 501), "B": (0.5, 3.0, 500)}
    UNITS_PER_GRID = 10
    traced_units = 10  # all of grid A
    calibrated = True
    expect_calls = frozenset({
        "ed.ground_state_scan", "ed.solve_ground", "ed.solve_sector",
        "model.build_sector_hamiltonian", "eigen.eigh", "eigen.block_detect",
        "theory.saddle_point",
    })
    expect_idle = frozenset({"ed.auto_nmax", "scan.run_scan"})

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        self.template = ModelParams(omega_a=1.0, omega_b=1.0, n_atoms=5)
        gc = theory.critical_coupling(self.template)
        self.grids = {
            key: gc * coupling_grid(start, stop, count, self.rng)
            for key, (start, stop, count) in self.GRIDS.items()
        }
        for key, (_, _, count) in self.GRIDS.items():
            parts = interleave(count, self.UNITS_PER_GRID)
            if smoke:
                parts = [parts[0][:5]]
            for c, idx in enumerate(parts):
                self.units.append(Unit(f"{key}{c}", idx.size, (key, idx)))

    def warmup(self):
        ed.ground_state_scan(self.template, self.grids["A"][:3])

    def run(self, unit):
        key, idx = unit.payload
        return ed.ground_state_scan(self.template, self.grids[key][idx])

    def check(self, unit, output, run_index):
        key, idx = unit.payload
        values, problems = {}, []
        if len(output) != idx.size:
            return values, [(f"{key}:{i}", "missing scan point") for i in idx]
        for i, point in zip(idx, output):
            name = f"{key}:{i}"
            values[name] = point_values(point)
            if point.g != self.grids[key][i]:
                problems.append((name, f"point g {point.g!r} is not the input {self.grids[key][i]!r}"))
            problems += [(name, p) for p in point_problems(point)]
        k = self.sample_index(idx.size, run_index)
        point = output[k]
        gs = ed.solve_ground(replace(self.template, g=point.g))
        name = f"{key}:{idx[k]}"
        problems += [(name, p) for p in ground_solve_problems(gs)]
        fresh, scanned = point_values(gs.point), point_values(point)
        if fresh.pop("p_star") != scanned.pop("p_star") or not all(
            close(fresh[q], scanned[q]) for q in fresh
        ):
            problems.append((name, "scan point differs from solve_ground at the same coupling"))
        return values, problems

    def finish(self, values):
        return staircase_problems(values, [(k, c) for k, (_, _, c) in self.GRIDS.items()])


class GroundLargeN(Workload):
    """solve_ground at g = 2 g_c for N in {80, 200}: few calls, dense LAPACK."""

    name = "ground_large_n"
    SIZES = (80, 200)
    RATIO = 2.0
    traced_units = 1
    expect_calls = frozenset({
        "ed.solve_ground", "ed.solve_sector", "model.build_sector_hamiltonian",
        "eigen.eigh", "eigen.block_detect", "theory.saddle_point",
    })
    expect_idle = frozenset({"ed.auto_nmax", "ed.ground_state_scan", "scan.run_scan"})

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        ratio = self.RATIO if self.rng is None else self.RATIO + self.rng.uniform(-5e-4, 5e-4)
        sizes = self.SIZES[:1] if smoke else self.SIZES
        self.params = []
        for n in sizes:
            template = ModelParams(omega_a=1.0, omega_b=1.0, n_atoms=n)
            self.params.append(replace(template, g=ratio * theory.critical_coupling(template)))
        self.units = [Unit("pass", len(self.params), None)]

    def warmup(self):
        ed.solve_ground(ModelParams(omega_a=1.0, omega_b=1.0, n_atoms=20, g=2.0))

    def run(self, unit):
        return [ed.solve_ground(p) for p in self.params]

    def check(self, unit, output, run_index):
        values, problems = {}, []
        for params, gs in zip(self.params, output):
            name = f"N{params.n_atoms}"
            values[name] = point_values(gs.point)
            problems += [(name, p) for p in point_problems(gs.point) + ground_solve_problems(gs)]
        return values, problems


def cell(row, col):
    return None if row[col] == "" else float(row[col])


def read_scan_file(path, columns):
    """Rows of one scan CSV and its JSON twin, checked against each other."""
    problems = []
    with open(path.with_suffix(".csv"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    if header != columns:
        problems.append(f"{path.name}: columns {header} != {columns}")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    twin = json.loads(path.with_suffix(".json").read_text(encoding="utf-8"))
    if len(twin) != len(rows):
        problems.append(f"{path.name}: csv has {len(rows)} rows, json {len(twin)}")
    for row, item in zip(rows, twin):
        for col in ("ed_value", "analytic_value", "g_over_gc"):
            if cell(row, col) != item[col]:
                problems.append(f"{path.name}: {col} differs between csv and json")
                break
    return rows, problems


class ScanWorkload(Workload):
    """Common set-up of the run_scan workloads: one JSON config per scan."""

    def write_configs(self, raws):
        self.config_paths = []
        for i, raw in enumerate(raws):
            path = self.workdir / f"config_{i}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(raw, indent=2), encoding="utf-8")
            self.config_paths.append(path)

    def prepare(self):
        self.configs = [scan.parse_config(path) for path in self.config_paths]


class ScanSweepN20(ScanWorkload):
    """dickelab scan at N = 20, 200 points over g/g_c in [1.5, 4], all six
    sector quantities, csv and json, default worker pool."""

    name = "scan_sweep_n20"
    N = 20
    GRID = (1.5, 4.0, 200)
    UNITS = 16
    traced_units = 6
    expect_calls = frozenset({
        "scan.parse_config", "scan.run_scan", "ed.solve_ground", "ed.solve_sector",
        "model.build_sector_hamiltonian", "eigen.eigh", "eigen.block_detect",
        "theory.saddle_point", "theory.effective_theory", "theory.predictions",
        "observables.photon_correlation", "observables.number_correlation",
        "observables.mandel_q",
    })
    expect_idle = frozenset({"ed.auto_nmax", "ed.ground_state_scan"})

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        start, stop, count = self.GRID
        self.grid = coupling_grid(start, stop, count, self.rng)
        parts = [np.array([0, count // 2])] if smoke else interleave(count, self.UNITS)
        raws = [self.raw_config([0, 1], "warmup")]
        for k, idx in enumerate(parts):
            raws.append(self.raw_config(idx, f"out_{k}"))
            self.units.append(Unit(f"part{k}", idx.size, (k + 1, idx)))
        self.write_configs(raws)

    def raw_config(self, idx, out):
        # "workers" stays unset so the default pool applies.
        return {
            "schema_version": 1,
            "model": {"omega_a": 1.0, "omega_b": 1.0, "n_atoms": self.N},
            "grid": [float(self.grid[i]) for i in idx],
            "quantities": SECTOR_QUANTITIES,
            "output_dir": str(self.workdir / out),
            "formats": ["csv", "json"],
        }

    def warmup(self):
        scan.run_scan(self.configs[0])

    def run(self, unit):
        return scan.run_scan(self.configs[unit.payload[0]])

    def check(self, unit, output, run_index):
        k, idx = unit.payload
        config = self.configs[k]
        names = {f"{q}.{f}" for q in SECTOR_QUANTITIES for f in ("csv", "json")} | {"manifest.json"}
        got = {Path(p).name for p in output}
        if got != names:
            return {}, [(f"i:{i}", f"files written {sorted(got)}") for i in idx]
        values = {f"i:{i}": {} for i in idx}
        problems = []
        for quantity in SECTOR_QUANTITIES:
            columns = SCAN_COLUMNS + (["analytic_envelope"] if quantity == "goldstone" else [])
            rows, file_problems = read_scan_file(config.output_dir / f"{quantity}.csv", columns)
            problems += [(f"i:{i}", p) for i in idx for p in file_problems]
            per_point = 3 if quantity == "weights" else 1
            if len(rows) != per_point * idx.size:
                problems += [(f"i:{i}", f"{quantity}: {len(rows)} rows") for i in idx]
                continue
            for r, row in enumerate(rows):
                i = idx[r // per_point]
                name = f"i:{i}"
                if cell(row, "g_over_gc") != self.grid[i]:
                    problems.append((name, f"{quantity}: row out of grid order"))
                values[name][f"{row['quantity']}.ed"] = cell(row, "ed_value")
                values[name][f"{row['quantity']}.analytic"] = cell(row, "analytic_value")
                p_star = int(row["p_star"])
                if values[name].setdefault("p_star", p_star) != p_star:
                    problems.append((name, f"{quantity}: P* differs between files"))
        for i in idx:
            vals = values[f"i:{i}"]
            if vals.get("spectrum.ed") != vals.get("p_star"):
                problems.append((f"i:{i}", "spectrum row does not carry P*"))
        r = self.sample_index(idx.size, run_index)
        name = f"i:{idx[r]}"
        gc = theory.critical_coupling(config.model)
        gs = ed.solve_ground(replace(config.model, g=config.g_over_gc[r] * gc))
        problems += [(name, p) for p in ground_solve_problems(gs)]
        if gs.point.p_star != values[name].get("p_star") or not close(
            gs.point.e_goldstone, values[name].get("goldstone.ed")
        ):
            problems.append((name, "file row differs from solve_ground at the same coupling"))
        return values, problems


class AnomalousN2(ScanWorkload):
    """dickelab scan of the anomalous weight at N = 2, at g'/g = 0.05 and 0."""

    name = "anomalous_n2"
    N = 2
    GRID = (0.5, 3.0, 100)
    GPRIMES = (0.05, 0.0)
    traced_units = 2
    expect_calls = frozenset({
        "scan.parse_config", "scan.run_scan", "ed.auto_nmax", "ed.solve_full",
        "model.build_full_hamiltonian", "eigen.eigh", "eigen.block_detect",
        "observables.anomalous_weight", "theory.saddle_point",
        "theory.effective_theory", "theory.predictions",
    })
    expect_idle = frozenset({"ed.ground_state_scan"})

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        start, stop, count = self.GRID
        self.idx = np.arange(0, count, 20 if smoke else 1)
        self.grid = coupling_grid(start, stop, count, self.rng)[self.idx]
        raws = [self.raw_config(gp, self.grid[:2], f"warmup_{gp}") for gp in self.GPRIMES]
        raws += [self.raw_config(gp, self.grid, f"out_{gp}") for gp in self.GPRIMES]
        self.write_configs(raws)
        self.units = [Unit("pass", len(self.GPRIMES) * self.grid.size, None)]

    def raw_config(self, gprime_over_g, grid, out):
        return {
            "schema_version": 1,
            "model": {"omega_a": 1.0, "omega_b": 1.0, "n_atoms": self.N},
            "grid": [float(x) for x in grid],
            "gprime_over_g": gprime_over_g,
            "quantities": ["anomalous"],
            "output_dir": str(self.workdir / out),
            "formats": ["csv", "json"],
        }

    def warmup(self):
        for config in self.configs[: len(self.GPRIMES)]:
            scan.run_scan(config)

    def run(self, unit):
        return [scan.run_scan(config) for config in self.configs[len(self.GPRIMES):]]

    def check(self, unit, output, run_index):
        values, problems = {}, []
        configs = self.configs[len(self.GPRIMES):]
        for gp, config, written in zip(self.GPRIMES, configs, output):
            keys = [f"{gp}:{i}" for i in self.idx]
            names = {"anomalous.csv", "anomalous.json", "manifest.json"}
            if {Path(p).name for p in written} != names:
                problems += [(key, "unexpected files written") for key in keys]
                continue
            rows, file_problems = read_scan_file(config.output_dir / "anomalous.csv", SCAN_COLUMNS)
            problems += [(key, p) for key in keys for p in file_problems]
            if len(rows) != self.grid.size:
                problems += [(key, f"{len(rows)} rows") for key in keys]
                continue
            for key, row, ratio in zip(keys, rows, self.grid):
                weight = cell(row, "ed_value")
                values[key] = {"weight": weight}
                if cell(row, "g_over_gc") != ratio:
                    problems.append((key, "row out of grid order"))
                if gp == 0.0 and weight != 0.0:
                    problems.append((key, f"anomalous weight {weight!r} is not exactly 0 at g' = 0"))
                if gp > 0.0 and not weight > 0.0:
                    problems.append((key, f"anomalous weight {weight!r} is not positive at g' > 0"))
            i = self.sample_index(self.grid.size, run_index)
            problems += [(keys[i], p) for p in self.full_problems(config, i, values[keys[i]]["weight"])]
        return values, problems

    def full_problems(self, config, i, weight):
        """Re-solve one point: certificates of both parity blocks and the
        weight written to the file."""
        g = config.g_over_gc[i] * theory.critical_coupling(config.model)
        params = replace(config.model, g=g, g_prime=config.gprime_over_g * g)
        n_max = max(ed.auto_nmax(params, parity, tol=config.truncation_tol) for parity in (1, -1))
        blocks = [ed.solve_full(params, n_max, parity) for parity in (1, -1)]
        problems = [p for block in blocks for p in spectrum_problems(block)]
        if not close(observables.anomalous_weight(*blocks), weight):
            problems.append("file weight differs from a fresh solve at the same coupling")
        return problems


WORKLOADS = {w.name: w for w in (StaircaseN5, GroundLargeN, ScanSweepN20, AnomalousN2)}
