"""Spectral decompositions of photon correlation functions.

Correlation functions of the conserved-sector model decompose exactly
over eigenstates.  Acting with a' on the ground state of sector P
produces lines at E^{P+1}_l - E^P_0 whose weights obey the sum rule
sum_l w_l = <n_a> + 1; acting with n_a inside the sector produces lines
at E^P_l - E^P_0 (l >= 1) with sum_l w_l = Var(n_a).  The l = 0 line of
the photon channel is the Goldstone mode, the l = 1 line the optical
mode, and the l = 1 line of the number channel the Higgs mode.

Weights are reported per numerically degenerate cluster (summed), so
they are stable under eigenvector rotations inside a cluster; weights
below 1e-12 are clamped to zero.  Clusters are found in one pass over
the ascending energies: a line joins the cluster of the line below it
when their gap is below 1e-9 times max(1, max |E|), and any other gap,
NaN included, starts a new cluster.  A cluster of one line keeps that
line's energy and weight; a larger one takes the mean energy and the
summed weight of its lines.

With g' > 0 only parity survives: ``anomalous_weight`` is |<G|a a|G>|
of the ground vector G alone, read through the ``FullBasis`` flat layout.
Its Lehmann resolution over the other parity block is the same number,
since that block's eigenvectors span all of it and a never leaves the
truncation.
"""

from dataclasses import dataclass

import numpy as np

from .ed import FullSpectrum, SectorSpectrum

__all__ = [
    "SpectralLine",
    "CorrelationSpectrum",
    "mean_photon_number",
    "photon_number_variance",
    "photon_correlation",
    "number_correlation",
    "mandel_q",
    "anomalous_weight",
    "evaluate_time_correlation",
]

WEIGHT_CLAMP = 1e-12
DEGENERACY_RTOL = 1e-9


@dataclass(frozen=True)
class SpectralLine:
    energy: float
    weight: float
    role: str  # goldstone | optical | higgs | other


@dataclass(frozen=True)
class CorrelationSpectrum:
    """Lines of one correlation channel, energies ascending.

    ``kind`` is "photon" (a a') or "number" (n n);
    ``p_from``/``p_to`` are the bra/ket sectors of the matrix elements.
    """

    kind: str
    lines: tuple[SpectralLine, ...]
    p_from: int
    p_to: int

    def total_weight(self) -> float:
        return float(sum(line.weight for line in self.lines))


def _moments(ground: SectorSpectrum) -> tuple[float, float]:
    a0 = ground.amplitudes[:, 0]
    n_vals = ground.p - np.arange(ground.basis.dim)
    mean = float(np.sum(a0**2 * n_vals))
    second = float(np.sum(a0**2 * n_vals.astype(float) ** 2))
    return mean, second - mean**2


def mean_photon_number(ground: SectorSpectrum) -> float:
    """Ground-state photon occupation sum_s |A^{P,0}_s|^2 (P - s)."""
    return _moments(ground)[0]


def photon_number_variance(ground: SectorSpectrum) -> float:
    """Ground-state photon number variance <n^2> - <n>^2."""
    return _moments(ground)[1]


def _cluster_lines(energies, weights, roles, kind, p_from, p_to) -> CorrelationSpectrum:
    """Merge numerically degenerate lines, summing their weights."""
    n = energies.size
    scale = max(float(np.abs(energies).max()) if n else 0.0, 1.0)
    # a gap inside the window joins a line to the cluster below it; any other
    # gap, NaN included, starts a new cluster
    cuts = (np.flatnonzero(~(energies[1:] - energies[:-1] < DEGENERACY_RTOL * scale)) + 1).tolist()
    bounds = [0, *cuts, n] if n else []
    # x + 0.0 is a one-element mean and sum: numpy's sum starts from +0.0, so -0.0 becomes 0.0
    single_e, single_w = (energies + 0.0).tolist(), (weights + 0.0).tolist()
    lines = []
    for i, k in zip(bounds, bounds[1:]):
        if k - i == 1:
            e, w = single_e[i], single_w[i]
        else:
            e, w = float(energies[i:k].mean()), float(weights[i:k].sum())
        lines.append(SpectralLine(e, 0.0 if w < WEIGHT_CLAMP else w, roles[i]))
    return CorrelationSpectrum(kind=kind, lines=tuple(lines), p_from=p_from, p_to=p_to)


def photon_correlation(spec_p: SectorSpectrum, spec_p1: SectorSpectrum) -> CorrelationSpectrum:
    """Lehmann lines of <T a(tau) a'(0)> from the sector-P ground state.

    Line l sits at E^{P+1}_l - E^P_0 and carries weight
    |sum_s A^{P+1,l}_s A^{P,0}_s sqrt(P+1-s)|^2.  The l = 0 line is the
    Goldstone mode, l = 1 the optical mode.
    """
    if spec_p1.p != spec_p.p + 1:
        raise ValueError(f"sector mismatch: expected P+1 = {spec_p.p + 1}, got {spec_p1.p}")
    if spec_p1.basis.n_atoms != spec_p.basis.n_atoms:
        raise ValueError("sector spectra belong to different atom numbers")
    p = spec_p.p
    dim_p = spec_p.basis.dim
    s = np.arange(dim_p)
    lifted = spec_p.amplitudes[:, 0] * np.sqrt(p + 1 - s)  # a' |P, G> in P+1 coordinates
    elements = spec_p1.amplitudes[:dim_p, :].T @ lifted
    energies = spec_p1.energies - spec_p.energies[0]
    weights = elements**2
    roles = ["goldstone", "optical"] + ["other"] * (energies.size - 2)
    return _cluster_lines(energies, weights, roles, "photon", p, p + 1)


def number_correlation(spec_p: SectorSpectrum) -> CorrelationSpectrum:
    """Lehmann lines of the connected <T n_a(tau) n_a(0)> inside sector P.

    Line l >= 1 sits at E^P_l - E^P_0 with weight
    |sum_s A^{P,l}_s A^{P,0}_s s|^2; the l = 1 line is the Higgs mode.
    """
    if spec_p.basis.dim < 2:
        raise ValueError(f"sector P = {spec_p.p} has dimension 1; no number lines exist")
    s = np.arange(spec_p.basis.dim)
    elements = spec_p.amplitudes[:, 1:].T @ (spec_p.amplitudes[:, 0] * s)
    energies = spec_p.energies[1:] - spec_p.energies[0]
    weights = elements**2
    roles = ["higgs"] + ["other"] * (energies.size - 1)
    return _cluster_lines(energies, weights, roles, "number", spec_p.p, spec_p.p)


def mandel_q(ground: SectorSpectrum) -> float:
    """Mandel factor -1 + Var(n_a)/<n_a> of the sector ground state.

    Raises
    ------
    ValueError
        If <n_a> = 0 (the P = 0 sector), where the factor is undefined.
    """
    mean, var = _moments(ground)
    if mean == 0:
        raise ValueError("Mandel Q is undefined for a photon vacuum (<n_a> = 0)")
    return -1 + var / mean


def anomalous_weight(full_even: FullSpectrum, full_odd: FullSpectrum) -> float:
    """Total weight |<G|a a|G>| of the a.a channel.

    G is the global ground state across the two parity blocks (ties go
    to the even block).  This is the Lehmann sum sum_m <G|a|m><m|a|G> over
    the other block: a|G> lies in that block, whose eigenvectors span it,
    and a lowers n, so a|G> never leaves the truncation and the identity
    holds exactly at every n_max.  a a|n, s> = sqrt(n (n - 1)) |n - 2, s>
    moves an amplitude 2 (N + 1) flat ``FullBasis`` indices down, so the
    sum is sum_i G_i sqrt((n_i + 1)(n_i + 2)) G_{i + 2 (N + 1)}, reading
    zero past n_max.  It is an exact 0.0 when g' = 0 or g = 0 (G lies on
    one chain of n + s or n - s, and a a maps it off that chain) and when
    n_max < 2 (no state has two photons to lower).
    """
    if full_even.parity != 1 or full_odd.parity != -1:
        raise ValueError("pass the even block first and the odd block second")
    if full_even.basis != full_odd.basis:
        raise ValueError("parity blocks were solved on different bases")
    block = full_even if full_even.energies[0] <= full_odd.energies[0] else full_odd
    stride = block.basis.n_atoms + 1
    ground = block.amplitudes[:, 0]
    flat = np.zeros(block.basis.dim + 2 * stride)
    flat[block.indices] = ground
    n = block.indices // stride
    return float(abs(np.dot(ground * np.sqrt((n + 1) * (n + 2)), flat[block.indices + 2 * stride])))


def evaluate_time_correlation(cs: CorrelationSpectrum, tau_values) -> list[float]:
    """Imaginary-time decay sum_lines w exp(-E tau) for each tau >= 0 of a 1-d sequence."""
    taus = np.asarray(tau_values, dtype=float)
    if taus.ndim != 1 or not np.all(taus >= 0):  # NaN fails too
        raise ValueError("tau values must be a 1-d sequence of numbers >= 0")
    energies = np.array([line.energy for line in cs.lines])
    weights = np.array([line.weight for line in cs.lines])
    return [float(np.sum(weights * np.exp(-energies * t))) for t in taus]
