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
``build_full_hamiltonian`` and its two ``parity_blocks``.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ModelParams",
    "SectorBasis",
    "FullBasis",
    "sector_bands",
    "build_sector_hamiltonian",
    "build_full_hamiltonian",
    "parity_blocks",
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
        # bool is an int subclass (True would pass as 1); an array would be unhashable
        for name in ("omega_a", "omega_b", "g", "g_prime", "lambda_z", "u"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real) or isinstance(value, bool) or not math.isfinite(value):
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
    excitations sits at flat index ``n * (N + 1) + s``.  Its parity is
    (-1)^(n+s); the two parity values partition the basis.
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

    def parities(self) -> np.ndarray:
        """Parity (+1 or -1) of every basis state, in index order."""
        n, s = np.divmod(np.arange(self.dim), self.n_atoms + 1)
        return np.where((n + s) % 2 == 0, 1, -1)


def sector_bands(params: ModelParams, p: int) -> tuple[np.ndarray, np.ndarray]:
    """``(diag, offdiag)`` of the sector P, of lengths dim and dim - 1.

    Requires g' = 0; the counter-rotating term breaks the U(1) symmetry
    that defines the sectors.  Matrix elements follow a|n> = sqrt(n)|n-1>
    and J+|j,m> = sqrt((j-m)(j+m+1))|j,m+1> with m = s - N/2:

        H[s, s]   = omega_a (P-s) + omega_b m
                    + lambda_z m (P-s)/j + u m^2/j
        H[s, s+1] = (g/sqrt(N)) sqrt((s+1)(N-s)) sqrt(P-s)
    """
    dim = SectorBasis(p=p, n_atoms=params.n_atoms).dim
    if params.g_prime != 0:
        raise ValueError("excitation sectors exist only for g_prime = 0")
    N = params.n_atoms
    j = params.j
    s = np.arange(dim)
    m = s - N / 2
    n = p - s
    diag = (
        params.omega_a * n
        + params.omega_b * m
        + params.lambda_z * m * n / j
        + params.u * m**2 / j
    )
    off = (params.g / math.sqrt(N)) * np.sqrt((s[:-1] + 1) * (N - s[:-1])) * np.sqrt(n[:-1])
    return diag, off


def build_sector_hamiltonian(params: ModelParams, p: int) -> np.ndarray:
    """Dense symmetric form of ``sector_bands(params, p)``."""
    diag, off = sector_bands(params, p)
    h = np.zeros((diag.size, diag.size))
    # strided views of the row-major entries: h[i, i], h[i, i + 1], h[i + 1, i]
    for start, band in ((0, diag), (1, off), (diag.size, off)):
        h.ravel()[start :: diag.size + 1] = band
    return h


def build_full_hamiltonian(params: ModelParams, n_max: int) -> np.ndarray:
    """Assemble the Hamiltonian on the truncated full basis.

    Rows and columns follow ``FullBasis(params.n_atoms, n_max)`` index
    order.  The rotating term couples (n, s) <-> (n+1, s-1) with
    (g/sqrt(N)) sqrt(n+1) sqrt(s(N-s+1)); the counter-rotating term
    couples (n, s) <-> (n+1, s+1) with (g'/sqrt(N)) sqrt(n+1)
    sqrt((s+1)(N-s)).  Couplings that would leave the truncation are
    dropped, so with g' = 0 the matrix commutes exactly with n + s.
    """
    basis = FullBasis(n_atoms=params.n_atoms, n_max=n_max)
    N = params.n_atoms
    j = params.j
    n, s = np.divmod(np.arange(basis.dim), N + 1)
    m = s - N / 2
    h = np.zeros((basis.dim, basis.dim))
    h[np.arange(basis.dim), np.arange(basis.dim)] = (
        params.omega_a * n
        + params.omega_b * m
        + params.lambda_z * m * n / j
        + params.u * m**2 / j
    )
    # rotating: (n, s) -> (n+1, s-1)
    src = np.where((n + 1 <= n_max) & (s >= 1))[0]
    if src.size and params.g != 0:
        dst = src + (N + 1) - 1
        val = (params.g / np.sqrt(N)) * np.sqrt(n[src] + 1) * np.sqrt(s[src] * (N - s[src] + 1))
        h[src, dst] += val
        h[dst, src] += val
    # counter-rotating: (n, s) -> (n+1, s+1)
    src = np.where((n + 1 <= n_max) & (s + 1 <= N))[0]
    if src.size and params.g_prime != 0:
        dst = src + (N + 1) + 1
        val = (params.g_prime / np.sqrt(N)) * np.sqrt(n[src] + 1) * np.sqrt((s[src] + 1) * (N - s[src]))
        h[src, dst] += val
        h[dst, src] += val
    return h


def parity_blocks(n_atoms: int, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Partition FullBasis indices into (even, odd) parity index arrays."""
    basis = FullBasis(n_atoms=n_atoms, n_max=n_max)
    par = basis.parities()
    return np.where(par == 1)[0], np.where(par == -1)[0]
