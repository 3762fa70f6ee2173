"""Model parameters, basis conventions and Hamiltonian assembly.

N two-level atoms couple to a single cavity mode,

    H = omega_a a'a + omega_b J_z + (g/sqrt(N)) (a' J- + a J+)
        + (g'/sqrt(N)) (a' J+ + a J-)
        + (lambda_z/j) J_z a'a + (u/j) J_z^2,

with collective spin operators J_z = sum_i sigma_z^i / 2, J+- = sum_i
sigma_+-^i and j = N/2.  Only the totally symmetric spin sector (total
spin j) is kept, so the atomic state is labelled by s = 0..N with
J_z eigenvalue m = s - N/2.

With g' = 0 the total excitation number P = a'a + (J_z + j) is conserved
and the Hamiltonian splits into sectors of dimension min(P, N) + 1.
With g' > 0 only the parity (-1)^(n+s) survives, so the truncated
photon+spin space splits into two parity blocks.

All matrices are real symmetric: off-diagonal elements are taken
non-negative (a global gauge choice that leaves spectra and squared
amplitudes unchanged).

A sector is given by its tridiagonal bands (``sector_bands``, or dense
``build_sector_hamiltonian``), the truncated full basis by
``build_full_hamiltonian``, its ``parity_blocks`` and their bands
(``parity_band``), both written from the same three diagonals of H.  The
structure of a truncation that no coupling changes is built once per (N,
n_max) into the read-only ``_full_layout`` table; a call computes only
the coupling values and gathers or scatters them through it.
"""

import functools
import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "ModelParams",
    "SectorBasis",
    "FullBasis",
    "sector_bands",
    "build_sector_hamiltonian",
    "build_full_hamiltonian",
    "parity_blocks",
    "parity_band",
]


def _require_count(name: str, value, low: int) -> None:
    """Raise ValueError unless ``value`` is a ``numbers.Integral`` >= ``low``
    other than bool (an int subclass: True would pass as 1)."""
    # the type test is a fast path: an ABC isinstance check costs far more
    if type(value) is not int and (isinstance(value, bool) or not isinstance(value, numbers.Integral)) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


@dataclass(frozen=True)
class ModelParams:
    """Physical couplings of a run; the single source of truth.

    Parameters
    ----------
    omega_a : float
        Cavity photon frequency, > 0.
    omega_b : float
        Atomic level splitting, > 0.
    g : float
        Collective rotating-wave coupling, >= 0.
    g_prime : float
        Collective counter-rotating coupling, >= 0.
    lambda_z : float
        Photon-qubit potential-scattering strength (can be negative).
    u : float
        Qubit-qubit interaction strength (can be negative).
    n_atoms : int
        Number of qubits N >= 1; fixes j = N/2.
    """

    omega_a: float = 1.0
    omega_b: float = 1.0
    g: float = 0.0
    g_prime: float = 0.0
    lambda_z: float = 0.0
    u: float = 0.0
    n_atoms: int = 1

    def __post_init__(self):
        # bool is an int subclass (True would pass as 1); an array would be unhashable;
        # the type test is a fast path: an ABC isinstance check costs far more
        for name in ("omega_a", "omega_b", "g", "g_prime", "lambda_z", "u"):
            value = getattr(self, name)
            if (
                type(value) is not float and (not isinstance(value, numbers.Real) or isinstance(value, bool))
                or not math.isfinite(value)
            ):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if not self.omega_a > 0:
            raise ValueError(f"omega_a must be positive, got {self.omega_a}")
        if not self.omega_b > 0:
            raise ValueError(f"omega_b must be positive, got {self.omega_b}")
        if self.g < 0:
            raise ValueError(f"g must be non-negative, got {self.g}")
        if self.g_prime < 0:
            raise ValueError(f"g_prime must be non-negative, got {self.g_prime}")
        _require_count("n_atoms", self.n_atoms, 1)

    @property
    def j(self) -> float:
        """Total collective spin j = N/2."""
        return self.n_atoms / 2


@dataclass(frozen=True)
class SectorBasis:
    """Basis of one conserved-excitation sector (g' = 0 only).

    State ``s`` in 0..dim-1 is the spin state |j, s - N/2> paired with
    the photon Fock state |P - s>.
    """

    p: int
    n_atoms: int

    def __post_init__(self):
        _require_count("p", self.p, 0)
        _require_count("n_atoms", self.n_atoms, 1)

    @property
    def dim(self) -> int:
        return min(self.p, self.n_atoms) + 1


@dataclass(frozen=True)
class FullBasis:
    """Truncated photon x symmetric-spin product basis.

    State (n, s) with n = 0..n_max photons and s = 0..N atomic
    excitations sits at flat index ``n * (N + 1) + s``, so a|n, s> =
    sqrt(n) |n - 1, s> moves an amplitude N + 1 indices down.  Its parity
    is (-1)^(n+s); the two parity values partition the basis, and a maps
    each block into the other.
    """

    n_atoms: int
    n_max: int

    def __post_init__(self):
        _require_count("n_max", self.n_max, 0)
        _require_count("n_atoms", self.n_atoms, 1)

    @property
    def dim(self) -> int:
        return (self.n_max + 1) * (self.n_atoms + 1)

    def index(self, n: int, s: int) -> int:
        return n * (self.n_atoms + 1) + s


@functools.cache
def _sector_labels(n_atoms: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(s, m, spin)``, read-only float64 arrays of length N + 1: s = 0..N,
    m = s - N/2 and spin_s = sqrt((s+1)(N-s)) (spin_N = 0), the labels that
    every sector of N atoms slices.  Kept per N, so a fixed-N scan builds
    them once (``functools.cache`` keys np.int64(N) apart from the int N,
    with the same bits)."""
    s = np.arange(n_atoms + 1.0)
    m = s - n_atoms / 2
    spin = np.sqrt((s + 1) * (n_atoms - s))
    for label in (s, m, spin):
        label.flags.writeable = False
    return s, m, spin


def _diagonal(params: ModelParams, n, m):
    """omega_a n + omega_b m + lambda_z m n/j + u m^2/j, H's diagonal at photon
    numbers n and spin labels m (float64, broadcast).  A zero lambda_z or u
    term (either sign) is skipped, which is exact: it is +-0.0, and no partial
    sum is -0.0 (omega_a n >= +0.0 with n >= 0, omega_b m is +0.0 at m = 0)."""
    diag = params.omega_a * n + params.omega_b * m
    if params.lambda_z != 0:
        diag += params.lambda_z * m * n / params.j
    if params.u != 0:
        diag += params.u * m**2 / params.j
    return diag


def sector_bands(params: ModelParams, p: int) -> tuple[np.ndarray, np.ndarray]:
    """``(diag, offdiag)`` of the sector P, of lengths dim and dim - 1.

    Requires g' = 0; the counter-rotating term breaks the U(1) symmetry
    that defines the sectors.  Matrix elements follow a|n> = sqrt(n)|n-1>
    and J+|j,m> = sqrt((j-m)(j+m+1))|j,m+1> with m = s - N/2:

        H[s, s]   = ``_diagonal`` at n = P - s
        H[s, s+1] = ((g/sqrt(N)) sqrt((s+1)(N-s))) sqrt(P-s)

    s, m and sqrt((s+1)(N-s)) are the leading entries of the per-N
    ``_sector_labels`` table; s and n are exact integers in float64 (below
    2**53), as is (s + 1)(N - s), so the bits are those of integer labels.
    The bands are new arrays that share no memory with the table.
    """
    _require_count("p", p, 0)
    if params.g_prime != 0:
        raise ValueError("excitation sectors exist only for g_prime = 0")
    N = params.n_atoms
    dim = min(p, N) + 1
    s, m, spin = _sector_labels(N)
    n = p - s[:dim]
    off = (params.g / math.sqrt(N)) * spin[: dim - 1] * np.sqrt(n[:-1])
    return _diagonal(params, n, m[:dim]), off


def _dense(dim: int, diagonals) -> np.ndarray:
    """Dense (dim, dim) H, zero but for H[i + offset, i] = H[i, i + offset] =
    values[i] for each ``(offset, values)``, written strided into the entries."""
    h = np.zeros((dim, dim))
    flat = h.ravel()
    for offset, values in diagonals:
        # h[i, i + offset]; the stop keeps the slice from wrapping into the lower triangle
        flat[offset : values.size * dim : dim + 1] = values
        flat[offset * dim :: dim + 1] = values  # h[i + offset, i]
    return h


def build_sector_hamiltonian(params: ModelParams, p: int) -> np.ndarray:
    """Dense symmetric form of ``sector_bands(params, p)``."""
    diag, off = sector_bands(params, p)
    return _dense(diag.size, ((0, diag), (1, off)))


class _FullLayout(NamedTuple):
    """The coupling-independent structure of ``FullBasis(N, n_max)``; every
    entry that depends on the parity is a pair (even, odd)."""

    blocks: tuple  # ascending FullBasis indices of each parity block
    n: np.ndarray  # photon numbers 0..n_max, a float column
    root: np.ndarray  # sqrt(n + 1), a float column
    spin_prev: np.ndarray  # spin_{s-1}, s = 0..N, with spin_{-1} = 0
    band: tuple  # per offset N, N + 2: (source i, band row, band column) of each coupling i <-> i + offset
    chains: tuple  # per label "n+s", "n-s" or None: (np.ix_ gather of the rows in chain order, its inverse)


@functools.lru_cache(maxsize=32)
def _full_layout(basis: FullBasis) -> _FullLayout:
    """The ``_FullLayout`` table of ``basis``, read-only arrays kept for the
    32 most recently used bases, so a scan at fixed N builds each
    truncation's structure once.  An entry holds about 13 intp or float64
    numbers (107 bytes) per basis state, 2.2 MB at N = 4 for ``auto_nmax``'s
    largest band (n_max = 4106), so at most 70 MB for 32 such entries.

    A block's chains, in the order ``ed.solve_full`` solves its rows: equal
    labels n + s (or n - s) form a chain, ascending, and chains go by their
    first position; under ``None`` the rows stay ascending (one chain, or
    each row its own)."""
    N, dim = basis.n_atoms, basis.dim
    n, s = np.divmod(np.arange(dim), N + 1)
    odd = (n + s) % 2 == 1
    blocks = (np.flatnonzero(~odd), np.flatnonzero(odd))
    pos = np.where(odd, np.cumsum(odd), np.cumsum(~odd)) - 1  # position of each index in its block
    band, chains = [], []
    for parity_odd, idx in zip((False, True), blocks):
        inside = odd == parity_odd
        pattern = []
        for offset in (N, N + 2):
            i = np.flatnonzero(inside[: max(dim - offset, 0)] & inside[offset:])
            pattern.append((i, pos[i + offset] - pos[i], pos[i]))
        band.append(tuple(pattern))
        orders = {None: np.arange(idx.size)}
        for label, values in (("n+s", n[idx] + s[idx]), ("n-s", n[idx] - s[idx])):
            _, first, group = np.unique(values, return_index=True, return_inverse=True)
            orders[label] = np.argsort(first[group], kind="stable")
        rows = {label: idx[order] for label, order in orders.items()}
        chains.append({label: (np.ix_(rows[label], rows[label]), np.argsort(order)) for label, order in orders.items()})
    photons = np.arange(basis.n_max + 1.0)[:, None]
    layout = _FullLayout(
        blocks, photons, np.sqrt(photons + 1), np.roll(_sector_labels(N)[2], 1), tuple(band), tuple(chains)
    )
    arrays = list(layout)
    while arrays:
        item = arrays.pop()
        if isinstance(item, np.ndarray):
            item.flags.writeable = False
        else:
            arrays.extend(item.values() if isinstance(item, dict) else item)
    return layout


def _full_diagonals(params: ModelParams, n_max: int):
    """Yield ``(offset, values)``, H[i + offset, i] = H[i, i + offset] =
    values[i] for i < dim - offset (H is zero elsewhere) on ``FullBasis(N,
    n_max)``, the ``_sector_labels`` broadcast over the photon layers n of
    its ``_full_layout``: ``_diagonal`` at 0, and in the order of
    ``sector_bands`` ((g/sqrt(N)) spin_{s-1}) sqrt(n+1) at N for (n, s) <->
    (n+1, s-1), ((g'/sqrt(N)) spin_s) sqrt(n+1) at N + 2 for (n, s) <->
    (n+1, s+1).  No coupling leaves the truncation or is added: where s -+ 1
    would leave 0..N the spin factor is zero (spin_{-1} = spin_N = 0), every
    other such row has n < n_max; so with g' = 0, H commutes exactly with
    n + s, and each sector's entries are its ``sector_bands`` bit for bit."""
    N = params.n_atoms
    _, m, spin = _sector_labels(N)
    layout = _full_layout(FullBasis(n_atoms=N, n_max=n_max))
    yield 0, _diagonal(params, layout.n, m).ravel()
    for offset, coupling, factor in ((N, params.g, layout.spin_prev), (N + 2, params.g_prime, spin)):
        values = ((coupling / math.sqrt(N)) * factor) * layout.root
        yield offset, values.ravel()[: max(values.size - offset, 0)]


def build_full_hamiltonian(params: ModelParams, n_max: int) -> np.ndarray:
    """Dense H on ``FullBasis(params.n_atoms, n_max)`` from its ``_full_diagonals``."""
    return _dense(FullBasis(n_atoms=params.n_atoms, n_max=n_max).dim, _full_diagonals(params, n_max))


def parity_blocks(n_atoms: int, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Partition FullBasis indices into (even, odd) parity index arrays
    (copies of the ``_full_layout`` table's)."""
    even, odd = _full_layout(FullBasis(n_atoms=n_atoms, n_max=n_max)).blocks
    return even.copy(), odd.copy()


def parity_band(params: ModelParams, n_max: int, parity: int) -> tuple[np.ndarray, np.ndarray]:
    """``(idx, ab)``: the ascending FullBasis indices of the parity block
    (+1 even, -1 odd), a copy of the ``_full_layout`` table's, and its
    LAPACK lower band storage, ``ab[d, k] = H[idx[k + d], idx[k]]`` bit for
    bit, gathered from the diagonal of H and scattered from its two
    couplings through the table's band pattern.  Couplings join i to i + N
    or i + N + 2, and a block holds at most (N + 3) // 2 of any N + 2
    consecutive indices, so kd = (N + 3) // 2 sub-diagonals hold them all."""
    if parity not in (1, -1):
        raise ValueError(f"parity must be +1 or -1, got {parity}")
    k = (1 - parity) // 2
    layout = _full_layout(FullBasis(n_atoms=params.n_atoms, n_max=n_max))
    idx = layout.blocks[k]
    ab = np.zeros(((params.n_atoms + 3) // 2 + 1, idx.size), order="F")
    diagonals = _full_diagonals(params, n_max)
    ab[0] = next(diagonals)[1][idx]  # offset 0, the first one yielded
    for (_, values), (source, row, column) in zip(diagonals, layout.band[k]):
        ab[row, column] = values[source]
    return idx.copy(), ab
