"""Dense symmetric eigendecomposition with certified residuals.

The solver is LAPACK (``numpy.linalg.eigh``), applied to the whole
matrix or, when the caller declares a block structure, to each block.
Callers know the blocks of their Hamiltonians from the conserved
quantities (excitation number, n + s or n - s).  Solving blocks
separately guarantees that eigenvectors of decoupled blocks have exact
zeros outside their block -- a property the conserved-sector physics
checks rely on.

Every decomposition is certified: the maximum residual ||H v - lambda v||
and the orthonormality defect ||V'V - I||_max are recomputed from the
output against the whole matrix and must pass the requested tolerance,
otherwise the call fails.  A wrongly declared block structure therefore
fails certification instead of passing silently.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "EigenDecomposition",
    "EigenError",
    "eigh",
    "residual",
    "orthonormality_defect",
]

SYMMETRY_RTOL = 1e-12
ORTHO_TOL = 1e-10


class EigenError(RuntimeError):
    """Eigendecomposition failed to converge or to certify."""


@dataclass(frozen=True)
class EigenDecomposition:
    """Certified spectrum of a real symmetric matrix.

    ``eigenvalues`` are ascending and ``eigenvectors[:, i]`` is the
    orthonormal eigenvector of ``eigenvalues[i]``.  ``max_residual`` is
    max_i ||H v_i - lambda_i v_i||_2 and ``ortho_defect`` is
    ||V'V - I||_max, both recomputed after the solve.  Within a
    numerically degenerate cluster (|l_i - l_j| < 1e-9 * scale) the
    vector ordering carries no meaning; downstream weights must be
    summed over clusters.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    max_residual: float
    ortho_defect: float


def _check_symmetric(m: np.ndarray) -> float:
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    scale = float(np.abs(m).max()) if m.size else 0.0
    defect = float(np.abs(m - m.T).max()) if m.size else 0.0
    if defect > SYMMETRY_RTOL * max(scale, 1.0):
        raise ValueError(f"matrix is not symmetric: asymmetry {defect:.3e} at scale {scale:.3e}")
    return scale


def eigh(m: np.ndarray, tol: float = 1e-8, blocks=None) -> EigenDecomposition:
    """Full certified eigendecomposition of a real symmetric matrix.

    Parameters
    ----------
    m : array_like
        Real symmetric matrix (asymmetry must stay below 1e-12 relative
        to the largest entry).
    tol : float
        Residual tolerance in units of the largest |entry|.
    blocks : sequence of index arrays, optional
        A partition of the rows into blocks that ``m`` does not couple,
        ordered by smallest index; each block is solved on its own, and
        eigenvalues tied across blocks keep the block order.  ``None``
        (the default) solves the matrix as one block.

    Raises
    ------
    ValueError
        Non-square, non-finite or non-symmetric input, or ``blocks`` that
        do not partition the rows.
    EigenError
        LAPACK failed to converge, or the recomputed residual or the
        orthonormality defect exceeds its bound.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    m = np.asarray(m, dtype=float)
    scale = _check_symmetric(m)
    size = m.shape[0]

    if blocks is None:
        try:
            vals, vecs = np.linalg.eigh(m)
        except np.linalg.LinAlgError as exc:
            raise EigenError(f"eigh failed to converge on a {size}x{size} matrix: {exc}") from exc
    else:
        blocks = [np.asarray(idx, dtype=int) for idx in blocks]
        rows = np.concatenate(blocks) if blocks else np.empty(0, dtype=int)
        if not np.array_equal(np.sort(rows), np.arange(size)):
            raise ValueError(f"blocks must partition the {size} rows")
        vals = np.empty(size)
        vecs = np.zeros((size, size))
        col = 0
        for idx in blocks:
            try:
                sub_vals, sub_vecs = np.linalg.eigh(m[np.ix_(idx, idx)])
            except np.linalg.LinAlgError as exc:
                raise EigenError(
                    f"eigh failed to converge on a {idx.size}x{idx.size} block: {exc}"
                ) from exc
            vals[col : col + idx.size] = sub_vals
            vecs[np.ix_(idx, np.arange(col, col + idx.size))] = sub_vecs
            col += idx.size
        order = np.argsort(vals, kind="stable")
        vals = vals[order]
        vecs = vecs[:, order]

    max_res = _residual_arrays(m, vals, vecs)
    defect = _ortho_defect_array(vecs)
    if max_res > tol * max(scale, 1e-300):
        raise EigenError(f"residual {max_res:.3e} exceeds tol {tol:.1e} * scale {scale:.3e}")
    if defect > ORTHO_TOL:
        raise EigenError(f"orthonormality defect {defect:.3e} exceeds {ORTHO_TOL:.1e}")
    return EigenDecomposition(
        eigenvalues=vals, eigenvectors=vecs, max_residual=max_res, ortho_defect=defect
    )


def _residual_arrays(m, vals, vecs) -> float:
    if vals.size == 0:
        return 0.0
    r = m @ vecs - vecs * vals[np.newaxis, :]
    return float(np.sqrt((r * r).sum(axis=0)).max())


def _ortho_defect_array(vecs) -> float:
    if vecs.size == 0:
        return 0.0
    gram = vecs.T @ vecs
    return float(np.abs(gram - np.eye(gram.shape[0])).max())


def residual(m: np.ndarray, d: EigenDecomposition) -> float:
    """Recompute max_i ||H v_i - lambda_i v_i||_2 independently of eigh."""
    m = np.asarray(m, dtype=float)
    if m.shape != d.eigenvectors.shape:
        raise ValueError(f"dimension mismatch: matrix {m.shape} vs eigenvectors {d.eigenvectors.shape}")
    return _residual_arrays(m, d.eigenvalues, d.eigenvectors)


def orthonormality_defect(d: EigenDecomposition) -> float:
    """Recompute ||V'V - I||_max of a decomposition."""
    return _ortho_defect_array(d.eigenvectors)
