"""Exact-diagonalization engine: sector solves, ground-state scans,
parity-block solves and Fock-truncation control.

As the coupling grows, the ground state climbs a staircase of excitation
sectors: the optimal sector P* increments by one at a sequence of
critical couplings.  A scan records, per coupling, the Goldstone gap
E^{P*+1}_0 - E^{P*}_0, the Higgs gap E^{P*}_1 - E^{P*}_0 and the optical
gap E^{P*+1}_1 - E^{P*}_0.

Every sector Hamiltonian is tridiagonal.  P* is chosen from the sectors'
lowest eigenvalues, found by LAPACK Sturm-count bisection (``dstebz``) on
the ``(diag, offdiag)`` bands.  A Gershgorin bound on the bands proves a
last sector past which no ground energy can compete, and one ``dstebz``
count over the sectors up to it, laid end to end, proves which ones can
hold the minimum, so only those (usually one or two) are bisected; only
P* and P*+1 are fully diagonalized and certified.  A parity block that
conserves n + s or n - s is solved chain by chain, tridiagonal with zeros
between chains; ``eigen.eigh`` splits such a matrix (or a diagonal sector
at g = 0) at its zeros, so eigenvectors are exactly zero off their chain.
The Fock-cutoff search compares truncations of a parity block by their
three lowest eigenvalues, from LAPACK ``dsbevx`` on ``parity_band``.
"""

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg.lapack import dsbevx, dstebz

from . import eigen
from .model import (
    FullBasis,
    ModelParams,
    SectorBasis,
    _full_layout,
    _sector_labels,
    build_full_hamiltonian,
    build_sector_hamiltonian,
    parity_band,
    sector_bands,
)
from .theory import saddle_point

__all__ = [
    "SectorSpectrum",
    "FullSpectrum",
    "GroundScanPoint",
    "GroundSolve",
    "solve_sector",
    "solve_ground",
    "ground_state_scan",
    "solve_full",
    "auto_nmax",
    "DEFAULT_TRUNCATION_TOL",
    "NMAX_CAP",
    "TruncationError",
]

DEFAULT_TRUNCATION_TOL = 1e-8
NMAX_CAP = 4096
# auto_nmax: the first Fock truncation it tries, and its convergence step.
_NMAX_FLOOR = 8
_NMAX_STEP = 10
# Bisection to full relative accuracy: LAPACK recommends 2 * safe minimum.
_BISECTION_ABSTOL = 2 * np.finfo(float).tiny
# Machine epsilon; the sector screen's kappa is a multiple of it.
_EPS = np.finfo(float).eps
# Sectors whose ground energies differ by at most this are tied; P* is the
# smaller one.
_TIE_WINDOW = 1e-12
# Band elements that one dstebz call of _candidate_sectors covers.
_BAND_BLOCK = 2**14


class TruncationError(RuntimeError):
    """No Fock cutoff up to ``NMAX_CAP`` converged."""


@dataclass(frozen=True, eq=False)
class SectorSpectrum:
    """Full spectrum of one excitation sector.

    ``amplitudes[s, l]`` is the coefficient of basis state s in the l-th
    eigenstate (energies ascending), normalized per column.
    ``max_residual`` and ``ortho_defect`` certify the decomposition.
    ``==`` and ``hash`` go by identity: arrays have no single truth value.
    """

    basis: SectorBasis
    energies: np.ndarray
    amplitudes: np.ndarray
    max_residual: float
    ortho_defect: float

    @property
    def p(self) -> int:
        return self.basis.p


@dataclass(frozen=True, eq=False)
class FullSpectrum:
    """Spectrum of one parity block of the truncated full basis.

    ``indices`` are the FullBasis flat indices spanned by this block, in
    ascending order; ``amplitudes[i, l]`` refers to ``indices[i]``.
    ``==`` and ``hash`` go by identity: arrays have no single truth value.
    """

    parity: int
    basis: FullBasis
    indices: np.ndarray
    energies: np.ndarray
    amplitudes: np.ndarray
    max_residual: float
    ortho_defect: float


@dataclass(frozen=True)
class GroundScanPoint:
    """Per-coupling staircase record.

    ``e_higgs`` is None in the vacuum sector (dimension 1), not zero.
    """

    g: float
    p_star: int
    ground_energy: float
    e_goldstone: float
    e_higgs: float | None
    e_optical: float


@dataclass(frozen=True, eq=False)
class GroundSolve:
    """A scan point together with the spectra of sectors P* and P*+1.

    Like the spectra, ``==`` and ``hash`` go by identity.
    """

    point: GroundScanPoint
    spectrum: SectorSpectrum
    spectrum_next: SectorSpectrum


def solve_sector(params: ModelParams, p: int) -> SectorSpectrum:
    """Certified spectrum of the excitation sector P (g' = 0)."""
    dec = eigen.eigh(build_sector_hamiltonian(params, p))
    return SectorSpectrum(
        basis=SectorBasis(p=p, n_atoms=params.n_atoms),
        energies=dec.eigenvalues,
        amplitudes=dec.eigenvectors,
        max_residual=dec.max_residual,
        ortho_defect=dec.ortho_defect,
    )


def _bisect_lowest(params: ModelParams, sectors, e0: dict[int, float]) -> None:
    """Add to ``e0`` the lowest eigenvalue of each sector not yet in it,
    by LAPACK Sturm-count bisection."""
    for p in sectors:
        if p in e0:
            continue
        diag, off = sector_bands(params, p)
        # the wrapper wants an off-diagonal of length >= 1 even when n = 1 (P = 0)
        _, w, _, _, info = dstebz(diag, off if off.size else np.zeros(1), 2, 0.0, 0.0, 1, 1, _BISECTION_ABSTOL, "E")
        if info != 0:
            raise eigen.EigenError(f"bisection failed on sector P = {p} (info = {info})")
        e0[p] = float(w[0])


def _candidate_sectors(params: ModelParams, x: float) -> tuple[list[int], int]:
    """``(sectors, p_stop)``: a sector P_stop past which every sector's
    bisected lowest eigenvalue lies above ``x``, and the sectors in
    0..P_stop that may have one at or below ``x``: the others do not.

    Row s of sector P (n = P - s photons, m = s - N/2) has the diagonal
    a_s n + b_s, a_s = omega_a + lambda_z m/j, b_s = omega_b m + u m^2/j,
    and the off-diagonal k_s sqrt(n), k_s = (g/sqrt(N)) sqrt((s+1)(N-s)):
    |d_s| <= A P + B, A = omega_a + |lambda_z|, B = (omega_b + |u|) N/2,
    and |e_s| <= K sqrt(P), K = max k_s.  In units of the norm A P + B
    + 2 K sqrt(P) + |x| at a shift x, kappa = 16 (N + 1) eps >= 32 eps
    covers a few eps each for a Sturm count and a ``dstebz`` bisection
    (Kahan's backward error) and, in the count, 2 eps for dstebz's
    splitting (it zeroes e_s^2 <= eps^2 |d_s d_{s+1}| + safe-min), 14 eps
    for its separable bands against those of ``sector_bands`` (d within
    8 and 6 eps (A P + B) of exact, e within 4 eps K sqrt(P) each), and
    2 pivmin <= 2 safe-min max(1, K^2 P) for its pivmin.

    The stop: off-diagonals of row s lie below C_s sqrt(n + 1), C_s =
    k_{s-1} + k_s, k_{-1} = 0.  With t = sqrt(n + 1), P <= t^2 + N and
    sqrt(P) <= t + sqrt(N), Gershgorin's theorem puts the bisected value
    above ``x`` once every row has

        (a_s - kappa A) t^2 - (C_s + 2 kappa K) t
            - (x + a_s - b_s + kappa (A N + B + 2 K sqrt(N) + |x|)) > 0,

    i.e. t > T_s, the larger root, i.e. P > s + T_s^2 - 1.  P_stop =
    floor((1 + 1e-6) max_s (s + T_s^2)) adds one sector and a relative 1e-6
    for the O(sqrt(eps)) rounding of T_s^2.

    The count: LAPACK ``dstebz`` (RANGE = 'V', VL = -inf, VU = y) takes
    the bands of sectors 0..P_stop end to end, N + 1 rows each, in calls
    of about ``_BAND_BLOCK`` elements; ``iblock`` and ``isplit`` name the
    sectors holding an eigenvalue <= y.  Sectors end at exact-zero
    off-diagonals; padded rows s > P get a diagonal above y, 1x1 blocks
    that never count.  Bands take the separable form d = P a_s + (b_s -
    s a_s), e = k_s sqrt(P - s)+.  One y = x + kappa (A P + B + 2 K sqrt(P)
    + |x|) at P = P_stop serves every call, so the calls cannot change the
    result.

    A zero lambda_z or u term is not evaluated: a_s is then the scalar
    omega_a and b_s = omega_b m, bit for bit what omega_a + (+-0.0) m and
    (omega_b + (+-0.0) m) m give, as omega_a and omega_b are nonzero.
    c_s = b_s - s a_s is formed once for every call.  The labels s, m and
    sqrt((s+1)(N-s)) come from the per-N table ``model._sector_labels``,
    which ``sector_bands`` slices too, so k_s is the same product of the
    same factors as there.

    Raises ValueError if some a_s <= kappa A: omega_a <= |lambda_z| makes
    H unbounded below.
    """
    N = params.n_atoms
    s, m, spin = _sector_labels(N)
    if params.lambda_z != 0:
        a = params.omega_a + (params.lambda_z / params.j) * m
        a_min = a.min()
    else:
        a = a_min = params.omega_a
    b = (params.omega_b + (params.u / params.j) * m) * m if params.u != 0 else params.omega_b * m
    k = (params.g / math.sqrt(N)) * spin
    kappa = 16 * (N + 1) * _EPS
    big_a = params.omega_a + abs(params.lambda_z)
    big_b = (params.omega_b + abs(params.u)) * N / 2
    big_k = k.max()

    # rounding is monotone, so this is min_s (a_s - kappa A) > 0
    if not a_min - kappa * big_a > 0:
        raise ValueError(f"H is unbounded below: omega_a = {params.omega_a}, lambda_z = {params.lambda_z}")
    alpha = a - kappa * big_a
    beta = k.copy()
    beta[1:] += k[:-1]
    beta += 2 * kappa * big_k
    gamma = a - b + (x + kappa * (big_a * N + big_b + 2 * big_k * math.sqrt(N) + abs(x)))
    t = (beta + np.sqrt(np.maximum(beta * beta + 4 * alpha * gamma, 0.0))) / (2 * alpha)
    p_stop = math.floor((s + t * t).max() * (1 + 1e-6))

    y = x + kappa * (big_a * p_stop + big_b + 2 * big_k * math.sqrt(p_stop) + abs(x))
    c = b - s * a
    per_call = max(1, _BAND_BLOCK // (N + 1))
    reaching = []
    for start in range(0, p_stop + 1, per_call):
        stop = min(start + per_call, p_stop + 1)
        chunk = np.arange(float(start), stop)[:, np.newaxis]  # sector labels P, as exact floats
        n = chunk - s
        diag = chunk * a + c
        diag[n < 0] = 2 * abs(y) + 1
        off = k * np.sqrt(np.maximum(n, 0.0))
        found, _, iblock, isplit, info = dstebz(diag.ravel(), off.ravel()[:-1], 1, -np.inf, y, 0, 0, np.inf, "B")
        if info != 0:
            raise eigen.EigenError(f"Sturm count failed on sectors {start}..{stop - 1} (info = {info})")
        # isplit holds the last row of each block, 1-based
        rows = ((isplit[iblock[:found] - 1] - 1) // (N + 1)).tolist()
        reaching.extend(sorted({start + row for row in rows}))
    return reaching, p_stop


def solve_ground(params: ModelParams) -> GroundSolve:
    """Locate the ground sector P* and solve it and its neighbor.

    P* is the sector with the lowest ground energy (ties within 1e-12 go
    to the smaller P).  The lowest eigenvalue of a sector is found by
    bisection, but only for the sectors that can matter: one sector near
    the condensate occupation, ceil(lambda_+^2 - 1/2), is bisected first;
    one call of ``_candidate_sectors`` then proves, by a Gershgorin bound
    on the bands, that no sector past P_stop lies within the tie window
    of that energy and, by a Sturm count over 0..P_stop, which of those
    may.  Only those, and P*+1, are bisected, so P* is the one an
    exhaustive bisection of every sector would pick.  Only sectors P* and
    P*+1 get the full certified decomposition, and their certified ground
    energies must match the bisection values.

    Raises
    ------
    ValueError
        If omega_a <= |lambda_z|: H is then unbounded below and no sector
        holds the ground state.
    EigenError
        If a certified ground energy of P* or P*+1 differs from its
        bisection value by more than ``eigen.RESIDUAL_TOL`` * max(1, max |E|)
        of the sector.
    """
    guess = math.ceil(saddle_point(params).lambda_plus_sq - 0.5)
    e0: dict[int, float] = {}
    _bisect_lowest(params, [guess], e0)
    x = e0[guess] + _TIE_WINDOW
    _bisect_lowest(params, _candidate_sectors(params, x)[0], e0)
    e_min = min(e0.values())
    p_star = min(p for p, e in e0.items() if e <= e_min + _TIE_WINDOW)
    _bisect_lowest(params, [p_star + 1], e0)
    spec = solve_sector(params, p_star)
    spec_next = solve_sector(params, p_star + 1)
    for s in (spec, spec_next):
        # energies ascend, so max |E| is at one end
        if abs(s.energies[0] - e0[s.p]) > eigen.RESIDUAL_TOL * max(1.0, abs(s.energies[0]), abs(s.energies[-1])):
            raise eigen.EigenError(
                f"sector P = {s.p}: certified ground energy {s.energies[0]!r} "
                f"differs from bisection {e0[s.p]!r}"
            )
    point = GroundScanPoint(
        g=params.g,
        p_star=p_star,
        ground_energy=float(spec.energies[0]),
        e_goldstone=float(spec_next.energies[0] - spec.energies[0]),
        e_higgs=float(spec.energies[1] - spec.energies[0]) if spec.basis.dim >= 2 else None,
        e_optical=float(spec_next.energies[1] - spec.energies[0]),
    )
    return GroundSolve(point=point, spectrum=spec, spectrum_next=spec_next)


def ground_state_scan(params_template: ModelParams, g_values) -> list[GroundScanPoint]:
    """Staircase scan over a list of couplings, in any order.

    Each point is solved on its own and results are in input order.
    Raises ValueError for an empty or not 1-d ``g_values``, and as
    ``solve_ground`` does.
    """
    g_values = np.asarray(g_values, dtype=float)
    if g_values.ndim != 1 or g_values.size == 0:
        raise ValueError("g_values must be a non-empty 1-d sequence")
    return [solve_ground(replace(params_template, g=float(g))).point for g in g_values]


def solve_full(params: ModelParams, n_max: int, parity: int) -> FullSpectrum:
    """Certified spectrum of one parity block of the truncated model.

    The rows are solved chain by chain, in the order of the
    ``model._full_layout`` table: along the n + s the block conserves when
    g' = 0 < g, or the n - s when g = 0 < g', which makes it tridiagonal
    with exact zeros between chains; in ascending order otherwise (with
    both couplings present the block is irreducible, one chain, and with
    neither it is diagonal).  Amplitude rows come back in ``indices``
    order, a copy of the table's indices.
    """
    if parity not in (1, -1):
        raise ValueError(f"parity must be +1 or -1, got {parity}")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    basis = FullBasis(n_atoms=params.n_atoms, n_max=n_max)
    if params.g_prime == 0:
        label = "n+s" if params.g > 0 else None
    else:
        label = "n-s" if params.g == 0 else None
    k = (1 - parity) // 2
    layout = _full_layout(basis)
    rows, inverse = layout.chains[k][label]
    dec = eigen.eigh(build_full_hamiltonian(params, n_max)[rows])
    return FullSpectrum(
        parity=parity,
        basis=basis,
        indices=layout.blocks[k].copy(),
        energies=dec.eigenvalues,
        amplitudes=dec.eigenvectors[inverse],
        max_residual=dec.max_residual,
        ortho_defect=dec.ortho_defect,
    )


def _band_lowest(ab: np.ndarray, k: int) -> np.ndarray:
    """The three lowest eigenvalues (all if k < 3), ascending, of the
    leading k x k block of the lower band storage ``ab``, by one LAPACK
    ``dsbevx`` call (bisection to full relative accuracy)."""
    w, _, m, _, info = dsbevx(
        ab[:, :k], 0.0, 0.0, 1, min(3, k),
        compute_v=0, range=2, lower=1, abstol=_BISECTION_ABSTOL, overwrite_ab=0,
    )
    if info != 0:
        raise eigen.EigenError(f"dsbevx failed on the leading {k} rows of a parity block (info = {info})")
    return w[:m]


def auto_nmax(params: ModelParams, parity: int, tol: float = DEFAULT_TRUNCATION_TOL) -> int:
    """Smallest Fock truncation with converged low-lying energies.

    Doubles n_max from ``_NMAX_FLOOR`` until the lowest three energies of
    the requested parity block move by less than ``tol`` when n_max grows
    by ``_NMAX_STEP``, then bisects down to the smallest such n_max.

    A smaller truncation is a leading principal submatrix of a larger one,
    in ``FullBasis`` order and so in the ascending indices of a parity
    block: the floor check and each doubling step compare truncations of
    one ``parity_band`` at hi + ``_NMAX_STEP`` (no dense H), the bisection
    those of the last.  Truncation n is its leading k = #{index < (n + 1)
    (N + 1)} columns; one LAPACK ``dsbevx`` call (RANGE = 'I', bisection
    to full relative accuracy) reads only their band, alike in every
    step's storage, and gives its three lowest eigenvalues.  Comparisons
    use eigenvalues only; callers certify the returned n_max with
    ``solve_full``.

    Raises
    ------
    ValueError
        If ``tol`` is not positive or ``parity`` is not +1 or -1.
    TruncationError
        If no converged truncation exists below ``NMAX_CAP``.
    EigenError
        If ``dsbevx`` fails (info != 0) on a compared truncation.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")

    def lowest(n: int) -> np.ndarray:
        return _band_lowest(ab, int(np.searchsorted(idx, (n + 1) * (params.n_atoms + 1))))

    def converged(n: int) -> bool:
        a, b = lowest(n), lowest(n + _NMAX_STEP)
        k = min(a.size, b.size)
        return bool(np.abs(a[:k] - b[:k]).max() < tol)

    lo, hi = _NMAX_FLOOR, 2 * _NMAX_FLOOR
    idx, ab = parity_band(params, hi + _NMAX_STEP, parity)
    if converged(lo):
        return lo
    while not converged(hi):
        lo, hi = hi, 2 * hi
        if hi > NMAX_CAP:
            raise TruncationError(f"no Fock cutoff converged within the cap of {NMAX_CAP} photons")
        idx, ab = parity_band(params, hi + _NMAX_STEP, parity)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if converged(mid) else (mid, hi)
    return hi
