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
"""

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg.lapack import dstebz

from . import eigen
from .model import (
    FullBasis,
    ModelParams,
    SectorBasis,
    build_full_hamiltonian,
    build_sector_hamiltonian,
    parity_blocks,
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
    "DEFAULT_EIGEN_TOL",
    "NMAX_CAP",
]

DEFAULT_EIGEN_TOL = 1e-8
NMAX_CAP = 4096
# auto_nmax: the first Fock truncation it tries, and its convergence step.
_NMAX_FLOOR = 8
_NMAX_STEP = 10
# Bisection to full relative accuracy: LAPACK recommends 2 * safe minimum.
_BISECTION_ABSTOL = 2 * np.finfo(float).tiny
# Sectors whose ground energies differ by at most this are tied; P* is the
# smaller one.
_TIE_WINDOW = 1e-12
# Band elements that one dstebz call of _candidate_sectors covers.
_BAND_BLOCK = 2**14


@dataclass(frozen=True)
class SectorSpectrum:
    """Full spectrum of one excitation sector.

    ``amplitudes[s, l]`` is the coefficient of basis state s in the l-th
    eigenstate (energies ascending), normalized per column.
    ``max_residual`` and ``ortho_defect`` certify the decomposition.
    """

    basis: SectorBasis
    energies: np.ndarray
    amplitudes: np.ndarray
    max_residual: float
    ortho_defect: float

    @property
    def p(self) -> int:
        return self.basis.p


@dataclass(frozen=True)
class FullSpectrum:
    """Spectrum of one parity block of the truncated full basis.

    ``indices`` are the FullBasis flat indices spanned by this block, in
    ascending order; ``amplitudes[i, l]`` refers to ``indices[i]``.
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


@dataclass(frozen=True)
class GroundSolve:
    """A scan point together with the spectra of sectors P* and P*+1."""

    point: GroundScanPoint
    spectrum: SectorSpectrum
    spectrum_next: SectorSpectrum


def solve_sector(params: ModelParams, p: int, tol: float = DEFAULT_EIGEN_TOL) -> SectorSpectrum:
    """Certified spectrum of the excitation sector P (g' = 0)."""
    dec = eigen.eigh(build_sector_hamiltonian(params, p), tol=tol)
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

    Raises ValueError if some a_s <= kappa A: omega_a <= |lambda_z| makes
    H unbounded below.
    """
    N = params.n_atoms
    s = np.arange(N + 1.0)
    m = s - N / 2
    a = params.omega_a + (params.lambda_z / params.j) * m
    b = (params.omega_b + (params.u / params.j) * m) * m
    k = (params.g / math.sqrt(N)) * np.sqrt((s + 1) * (N - s))
    kappa = 16 * (N + 1) * np.finfo(float).eps
    big_a = params.omega_a + abs(params.lambda_z)
    big_b = (params.omega_b + abs(params.u)) * N / 2
    big_k = k.max()

    alpha = a - kappa * big_a
    if not alpha.min() > 0:
        raise ValueError(f"H is unbounded below: omega_a = {params.omega_a}, lambda_z = {params.lambda_z}")
    beta = k + np.append(0.0, k[:-1]) + 2 * kappa * big_k
    gamma = a - b + (x + kappa * (big_a * N + big_b + 2 * big_k * math.sqrt(N) + abs(x)))
    t = (beta + np.sqrt(np.maximum(beta * beta + 4 * alpha * gamma, 0.0))) / (2 * alpha)
    p_stop = math.floor((s + t * t).max() * (1 + 1e-6))

    y = x + kappa * (big_a * p_stop + big_b + 2 * big_k * math.sqrt(p_stop) + abs(x))
    p = np.arange(p_stop + 1)
    per_call = max(1, _BAND_BLOCK // (N + 1))
    reaching = []
    for start in range(0, p.size, per_call):
        chunk = p[start : start + per_call, np.newaxis]
        n = chunk - s
        diag = chunk * a + (b - s * a)
        diag[n < 0] = 2 * abs(y) + 1
        off = k * np.sqrt(np.maximum(n, 0.0))
        found, _, iblock, isplit, info = dstebz(diag.ravel(), off.ravel()[:-1], 1, -np.inf, y, 0, 0, np.inf, "B")
        if info != 0:
            raise eigen.EigenError(f"Sturm count failed on sectors {chunk[0, 0]}..{chunk[-1, 0]} (info = {info})")
        # isplit holds the last row of each block, 1-based
        reaching.extend(chunk[np.unique((isplit[iblock[:found] - 1] - 1) // (N + 1)), 0].tolist())
    return reaching, p_stop


def solve_ground(params: ModelParams, tol: float = DEFAULT_EIGEN_TOL) -> GroundSolve:
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
        bisection value by more than tol * max(1, max |E|) of the sector.
    """
    guess = math.ceil(saddle_point(params).lambda_plus_sq - 0.5)
    e0: dict[int, float] = {}
    _bisect_lowest(params, [guess], e0)
    x = e0[guess] + _TIE_WINDOW
    _bisect_lowest(params, _candidate_sectors(params, x)[0], e0)
    e_min = min(e0.values())
    p_star = min(p for p, e in e0.items() if e <= e_min + _TIE_WINDOW)
    _bisect_lowest(params, [p_star + 1], e0)
    spec = solve_sector(params, p_star, tol=tol)
    spec_next = solve_sector(params, p_star + 1, tol=tol)
    for s in (spec, spec_next):
        if abs(s.energies[0] - e0[s.p]) > tol * max(1.0, np.abs(s.energies).max()):
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


def ground_state_scan(
    params_template: ModelParams, g_values, tol: float = DEFAULT_EIGEN_TOL
) -> list[GroundScanPoint]:
    """Staircase scan over an ascending list of couplings.

    Results are in input order; each point is independent of the others.
    Raises ValueError as ``solve_ground`` does.
    """
    g_values = np.asarray(g_values, dtype=float)
    if g_values.ndim != 1 or g_values.size == 0:
        raise ValueError("g_values must be a non-empty 1-d sequence")
    if np.any(np.diff(g_values) < 0):
        raise ValueError("g_values must be ascending")
    return [solve_ground(replace(params_template, g=float(g)), tol=tol).point for g in g_values]


def solve_full(
    params: ModelParams, n_max: int, parity: int, tol: float = DEFAULT_EIGEN_TOL
) -> FullSpectrum:
    """Certified spectrum of one parity block of the truncated model.

    The rows are solved chain by chain (``_parity_layout`` order), which
    makes a block that conserves n + s or n - s tridiagonal with exact
    zeros between chains; amplitude rows come back in ``indices`` order.
    """
    idx, chains = _parity_layout(params, n_max, parity)
    rows = idx[np.concatenate(chains)]
    dec = eigen.eigh(build_full_hamiltonian(params, n_max)[np.ix_(rows, rows)], tol=tol)
    return FullSpectrum(
        parity=parity,
        basis=FullBasis(n_atoms=params.n_atoms, n_max=n_max),
        indices=idx,
        energies=dec.eigenvalues,
        amplitudes=dec.eigenvectors[np.argsort(rows)],
        max_residual=dec.max_residual,
        ortho_defect=dec.ortho_defect,
    )


def _parity_layout(params: ModelParams, n_max: int, parity: int):
    """FullBasis indices of a parity block and its chains (positions): of
    the n + s or n - s it conserves, else one chain of every row."""
    if parity not in (1, -1):
        raise ValueError(f"parity must be +1 or -1, got {parity}")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    even, odd = parity_blocks(params.n_atoms, n_max)
    idx = even if parity == 1 else odd
    n, s = np.divmod(idx, params.n_atoms + 1)
    # The rotating term conserves n + s and the counter-rotating one n - s,
    # and each coupling along these chains is nonzero; with both couplings
    # present the parity block is irreducible, one chain.
    if params.g_prime == 0:
        conserved = n + s if params.g > 0 else idx
    elif params.g == 0:
        conserved = n - s
    else:
        return idx, [np.arange(idx.size)]
    return idx, _groups(conserved)


def _groups(labels: np.ndarray) -> list[np.ndarray]:
    """Positions of equal labels, each group ascending, groups ordered by
    their first position."""
    order = np.argsort(labels, kind="stable")
    groups = np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)
    return sorted(groups, key=lambda group: group[0])


def auto_nmax(params: ModelParams, parity: int, tol: float = 1e-8) -> int:
    """Smallest Fock truncation with converged low-lying energies.

    Doubles n_max from ``_NMAX_FLOOR`` until the lowest three energies of
    the requested parity block move by less than ``tol`` when n_max grows
    by ``_NMAX_STEP``, then bisects down to the smallest such n_max.

    A smaller truncation is a leading principal submatrix of a larger one:
    the floor check and each doubling step slice what they compare out of
    one H assembled at hi + ``_NMAX_STEP``, the bisection out of the last.
    Comparisons use eigenvalues only (``numpy.linalg.eigvalsh`` per chain
    of a conserved n + s or n - s); callers certify the returned n_max with
    ``solve_full``.

    Raises
    ------
    ValueError
        If ``tol`` is not positive or ``parity`` is not +1 or -1.
    RuntimeError
        If no converged truncation exists below ``NMAX_CAP``.
    EigenError
        If LAPACK fails to converge on a compared truncation.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    lowest_cache: dict[int, np.ndarray] = {}

    def lowest(n: int) -> np.ndarray:
        if n not in lowest_cache:
            idx, chains = _parity_layout(params, n, parity)
            rows = [idx[chain] for chain in chains]
            # blocks of one size go to LAPACK as one stack
            stacks = [np.array([r for r in rows if r.size == k]) for k in {r.size for r in rows}]
            try:
                vals = [np.linalg.eigvalsh(h[r[:, :, np.newaxis], r[:, np.newaxis, :]]).ravel() for r in stacks]
            except np.linalg.LinAlgError as exc:
                raise eigen.EigenError(f"eigvalsh failed at n_max = {n}: {exc}") from exc
            lowest_cache[n] = np.sort(np.concatenate(vals))[:3]
        return lowest_cache[n]

    def converged(n: int) -> bool:
        a, b = lowest(n), lowest(n + _NMAX_STEP)
        k = min(a.size, b.size)
        return bool(np.abs(a[:k] - b[:k]).max() < tol)

    lo, hi = _NMAX_FLOOR, 2 * _NMAX_FLOOR
    h = build_full_hamiltonian(params, hi + _NMAX_STEP)
    if converged(lo):
        return lo
    while not converged(hi):
        lo, hi = hi, 2 * hi
        if hi > NMAX_CAP:
            raise RuntimeError(f"auto_nmax exceeded the cap of {NMAX_CAP}")
        h = build_full_hamiltonian(params, hi + _NMAX_STEP)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if converged(mid) else (mid, hi)
    return hi
