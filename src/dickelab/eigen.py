"""Dense symmetric eigendecomposition with certified residuals.

The solver is LAPACK.  A matrix whose nonzeros all lie on its three
central diagonals, with the sub-diagonal equal to the super-diagonal, is
solved from those two diagonals by ``dstevd`` (divide and conquer on the
tridiagonal form); any other input goes to ``numpy.linalg.eigh``
(``dsyevd``).  On tridiagonal input ``dsyevd``'s reduction to tridiagonal
form has zero Householder coefficients, so both drivers run the same
``dstedc`` on the same bands and return the same eigenvalues and
eigenvectors, bit for bit; the band path only skips the O(n^3) reduction.
A tridiagonal matrix is split at its exact-zero off-diagonals and each
segment solved on its own, so eigenvectors have exact zeros outside their
segment -- a property the conserved-sector physics checks rely on.

Every decomposition is certified: the maximum residual ||H v - lambda v||
and the orthonormality defect ||V'V - I||_max are recomputed from the
output against the whole matrix and must stay below the fixed bounds
``RESIDUAL_TOL`` (times the scale) and ``ORTHO_TOL``, otherwise the call
fails.  The scale max|m_ij| and the finiteness check come from one
reduction over the matrix, whatever its form; for a tridiagonal matrix
the residual comes from its bands in O(n^2), otherwise from the dense
product.  The certificates are computed once, inside ``eigh``, and travel
with its result as ``max_residual`` and ``ortho_defect``.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dstevd

__all__ = [
    "EigenDecomposition",
    "EigenError",
    "eigh",
]

SYMMETRY_RTOL = 1e-12
RESIDUAL_TOL = 1e-8  # in units of max|m_ij|
ORTHO_TOL = 1e-10


class EigenError(RuntimeError):
    """Eigendecomposition failed to converge or to certify."""


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Certified spectrum of a real symmetric matrix.

    ``eigenvalues`` are ascending and ``eigenvectors[:, i]`` is the
    orthonormal eigenvector of ``eigenvalues[i]``.  ``max_residual`` is
    max_i ||H v_i - lambda_i v_i||_2 and ``ortho_defect`` is
    ||V'V - I||_max, both recomputed after the solve.  Within a
    numerically degenerate cluster (|l_i - l_j| < 1e-9 * scale) the
    vector ordering carries no meaning; downstream weights must be
    summed over clusters.
    ``==`` and ``hash`` go by identity: arrays have no single truth value.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    max_residual: float
    ortho_defect: float


def _bands(m: np.ndarray):
    """``(d, e)``, the diagonal and sub-diagonal of a non-empty square
    ``m`` whose nonzeros all lie on its three central diagonals and whose
    sub-diagonal equals its super-diagonal; None for any other ``m``."""
    n = m.shape[0]
    if n == 0:
        return None
    # strided views of the row-major entries: m[i, i], m[i + 1, i], m[i, i + 1]
    flat = m.ravel()
    d, e = flat[:: n + 1], flat[n :: n + 1]
    if np.count_nonzero(e != flat[1 :: n + 1]):
        return None
    if np.count_nonzero(m) != np.count_nonzero(d) + 2 * np.count_nonzero(e):
        return None
    return d, e


def _check_symmetric(m: np.ndarray):
    """The scale max|m_ij| of a square, finite, symmetric ``m`` and its
    bands ``(d, e)`` if it is tridiagonal (else None)."""
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    # NaN and inf propagate through max, so the scale is also the finiteness test
    scale = float(np.abs(m).max(initial=0.0))
    if not math.isfinite(scale):
        raise ValueError("matrix has non-finite entries")
    bands = _bands(m)
    if bands is None:
        defect = float(np.abs(m - m.T).max(initial=0.0))
        if defect > SYMMETRY_RTOL * max(scale, 1.0):
            raise ValueError(f"matrix is not symmetric: asymmetry {defect:.3e} at scale {scale:.3e}")
    return scale, bands


def _solve(m: np.ndarray, bands):
    """Eigenvalues and C-ordered eigenvectors of ``m``: ``dstevd`` on each
    segment of its bands between exact-zero off-diagonals, or
    ``numpy.linalg.eigh`` when ``bands`` is None."""
    if bands is None:
        try:
            return np.linalg.eigh(m)
        except np.linalg.LinAlgError as exc:
            raise EigenError(f"eigh failed to converge on a {m.shape[0]}x{m.shape[0]} matrix: {exc}") from exc
    d, e = bands
    if np.count_nonzero(e) == e.size:  # one segment, no bookkeeping
        return _dstevd(d, e)
    # segments end after each exact-zero off-diagonal
    cuts = (np.flatnonzero(e == 0) + 1).tolist()
    segments = list(zip([0, *cuts], [*cuts, d.size]))
    parts = [_dstevd(d[a:b], e[a : b - 1]) for a, b in segments]
    # Merge ascending, ties in segment order; each segment's vectors keep
    # exact zeros outside its rows.
    vals = np.concatenate([part[0] for part in parts])
    vecs = np.zeros((d.size, d.size))
    for (a, b), (_, seg_vecs) in zip(segments, parts):
        vecs[a:b, a:b] = seg_vecs
    order = np.argsort(vals, kind="stable")
    return vals[order], np.ascontiguousarray(vecs[:, order])


def _dstevd(d, e):
    # the wrapper wants an off-diagonal of length >= 1 even when n = 1
    vals, vecs, info = dstevd(d, e if e.size else np.zeros(1))
    if info != 0:
        raise EigenError(f"dstevd failed on a {d.size}x{d.size} matrix (info = {info})")
    return vals, np.ascontiguousarray(vecs)


def eigh(m: np.ndarray) -> EigenDecomposition:
    """Full certified eigendecomposition of a real symmetric matrix.

    Parameters
    ----------
    m : array_like
        Real symmetric matrix (asymmetry must stay below 1e-12 relative
        to the largest entry).

    A matrix that is exactly symmetric tridiagonal (nonzeros only on the
    three central diagonals, sub-diagonal equal to super-diagonal; an
    O(n^2) test) goes to LAPACK ``dstevd`` on its two diagonals, split
    at its exact-zero off-diagonals: each segment is solved on its own,
    so every eigenvector is exactly zero outside one segment, and
    eigenvalues tied across segments keep the segment order.  Any other
    matrix goes to ``numpy.linalg.eigh``, which gives the same bits on
    tridiagonal input without a zero off-diagonal.  A tridiagonal ``m``
    is certified from its bands, the residual from (d - lambda) v + e
    (shifted v); any other from m V - V diag(lambda).  The scale
    max|m_ij| and the finiteness check are one reduction over ``m``, and
    the orthonormality defect is V'V - I, in either case.  The eigenvectors
    are C-ordered on every path, as numpy returns them.

    Raises
    ------
    ValueError
        Complex, non-square, non-finite or non-symmetric input.
    EigenError
        LAPACK failed to converge, or the recomputed residual exceeds
        ``RESIDUAL_TOL`` * max|m_ij| or the orthonormality defect exceeds
        ``ORTHO_TOL``.
    """
    m = np.asarray(m)
    if m.dtype.kind == "c":  # a cast to float would drop the imaginary part
        raise ValueError("expected a real matrix, got complex input")
    m = m.astype(float, copy=False)
    scale, bands = _check_symmetric(m)
    vals, vecs = _solve(m, bands)
    max_res = _residual_arrays(m, bands, vals, vecs)
    gram = vecs.T @ vecs
    gram.ravel()[:: gram.shape[0] + 1] -= 1.0  # V'V - I
    defect = float(np.abs(gram).max(initial=0.0))
    if max_res > RESIDUAL_TOL * max(scale, 1e-300):
        raise EigenError(f"residual {max_res:.3e} exceeds {RESIDUAL_TOL:.1e} * scale {scale:.3e}")
    if defect > ORTHO_TOL:
        raise EigenError(f"orthonormality defect {defect:.3e} exceeds {ORTHO_TOL:.1e}")
    return EigenDecomposition(
        eigenvalues=vals, eigenvectors=vecs, max_residual=max_res, ortho_defect=defect
    )


def _residual_arrays(m, bands, vals, vecs) -> float:
    """max_i ||m v_i - vals_i v_i||_2, from the bands ``(d, e)`` of a
    tridiagonal ``m`` when given (O(n^2)), else from ``m @ vecs``."""
    if vals.size == 0:
        return 0.0
    if bands is None:
        r = m @ vecs - vecs * vals[np.newaxis, :]
    else:
        d, e = bands
        e = e[:, np.newaxis]
        r = (d[:, np.newaxis] - vals[np.newaxis, :]) * vecs
        r[:-1] += e * vecs[1:]
        r[1:] += e * vecs[:-1]
    # sqrt is monotone and correctly rounded: the root of the largest sum
    # is the largest root
    return math.sqrt((r * r).sum(axis=0).max())
