"""Exact-diagonalization laboratory for the Goldstone and Higgs modes of
N qubits coupled to a single cavity mode.

The package assembles the model in conserved-excitation sectors (or
parity blocks once the counter-rotating coupling is switched on),
diagonalizes them with certified residuals, extracts mode energies and
Lehmann spectral weights, and compares everything against the closed-form
large-spin predictions.
"""

__version__ = "0.1.0"

from .model import (
    FullBasis,
    ModelParams,
    SectorBasis,
    build_full_hamiltonian,
    build_sector_hamiltonian,
    parity_blocks,
)
from .eigen import EigenDecomposition, EigenError, eigh
from .ed import (
    FullSpectrum,
    GroundScanPoint,
    GroundSolve,
    SectorSpectrum,
    auto_nmax,
    ground_state_scan,
    solve_full,
    solve_ground,
    solve_sector,
)
from .observables import (
    CorrelationSpectrum,
    SpectralLine,
    anomalous_weight,
    evaluate_time_correlation,
    mandel_q,
    mean_photon_number,
    number_correlation,
    photon_correlation,
    photon_number_variance,
)
from .theory import (
    AnalyticPredictions,
    EffectiveTheory,
    NormalPhaseError,
    SaddlePoint,
    critical_coupling,
    effective_theory,
    goldstone_envelope,
    landau_energy,
    predictions,
    saddle_point,
)
from .oracle import OracleReport, brute_force_hamiltonian, oracle_check, symmetric_projector
from .scan import (
    CompareReport,
    ComparisonRow,
    ConfigError,
    ScanConfig,
    compare_report,
    load_rows,
    parse_config,
    run_scan,
)

__all__ = [name for name in dir() if not name.startswith("_")]
