"""Dense symmetric eigendecomposition with certified residuals.

The solver is LAPACK.  ``eigh`` decides the form of its input once.  A
matrix whose nonzeros all lie on its three central diagonals, with the
sub-diagonal equal to the super-diagonal, goes whole to the band path,
which reads nothing but those two diagonals ``(d, e)``: ``dstevd``
(divide and conquer on the tridiagonal form) and a band residual.  Any
other input goes to ``numpy.linalg.eigh`` (``dsyevd``) and a dense
residual.  On tridiagonal input ``dsyevd``'s reduction to tridiagonal
form has zero Householder coefficients, so both drivers run the same
``dstedc`` on the same bands and return the same eigenvalues and
eigenvectors, bit for bit; the band path only skips the O(n^3) reduction.
A tridiagonal matrix is split at its exact-zero off-diagonals and each
segment solved on its own, so eigenvectors have exact zeros outside their
segment -- a property the conserved-sector physics checks rely on.

Every decomposition is certified, by one helper for both paths: the
maximum residual ||H v - lambda v|| and the orthonormality defect
||V'V - I||_max are recomputed from the output and must stay below the
fixed bounds ``RESIDUAL_TOL`` (times the scale) and ``ORTHO_TOL``,
otherwise the call fails.  The scale max|m_ij| and the finiteness check
come from one reduction over the matrix, whatever its form; the band
path receives that scale and computes its residual from the bands in
O(n^2), the dense path from the dense product.  The certificates are
computed once and travel with the result as ``max_residual`` and
``ortho_defect``.
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


def _eigh_bands(d: np.ndarray, e: np.ndarray, scale: float) -> EigenDecomposition:
    """Certified spectrum of the symmetric tridiagonal matrix with
    diagonal ``d`` and off-diagonal ``e``, at the scale max(|d|, |e|):
    ``dstevd`` on each segment between exact-zero off-diagonals, merged
    ascending with ties in segment order, and the residual
    (d - lambda) v + e (shifted v) read from the bands alone."""
    if np.count_nonzero(e) == e.size:  # one segment, no bookkeeping
        vals, vecs = _dstevd(d, e)
    else:
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
        vals, vecs = vals[order], np.ascontiguousarray(vecs[:, order])
    e = e[:, np.newaxis]
    r = (d[:, np.newaxis] - vals[np.newaxis, :]) * vecs
    r[:-1] += e * vecs[1:]
    r[1:] += e * vecs[:-1]
    return _certified(vals, vecs, r, scale)


def _dstevd(d, e):
    # the wrapper wants an off-diagonal of length >= 1 even when n = 1
    vals, vecs, info = dstevd(d, e if e.size else np.zeros(1))
    if info != 0:
        raise EigenError(f"dstevd failed on a {d.size}x{d.size} matrix (info = {info})")
    return vals, np.ascontiguousarray(vecs)


def _certified(vals, vecs, r, scale: float) -> EigenDecomposition:
    """The decomposition ``(vals, vecs)`` with its certificates: the largest
    column norm of the residual ``r`` = H V - V diag(vals) and the
    orthonormality defect ||V'V - I||_max, each held to its bound."""
    # sqrt is monotone and correctly rounded: the root of the largest sum
    # is the largest root
    max_res = math.sqrt((r * r).sum(axis=0).max(initial=0.0))
    gram = vecs.T @ vecs
    gram.ravel()[:: gram.shape[0] + 1] -= 1.0  # V'V - I
    # in place: r is still alive here, and a fourth n x n array would
    # raise the peak memory
    defect = float(np.abs(gram, out=gram).max(initial=0.0))
    if max_res > RESIDUAL_TOL * max(scale, 1e-300):
        raise EigenError(f"residual {max_res:.3e} exceeds {RESIDUAL_TOL:.1e} * scale {scale:.3e}")
    if defect > ORTHO_TOL:
        raise EigenError(f"orthonormality defect {defect:.3e} exceeds {ORTHO_TOL:.1e}")
    return EigenDecomposition(
        eigenvalues=vals, eigenvectors=vecs, max_residual=max_res, ortho_defect=defect
    )


def eigh(m: np.ndarray) -> EigenDecomposition:
    """Full certified eigendecomposition of a real symmetric matrix.

    Parameters
    ----------
    m : array_like
        Real symmetric matrix (asymmetry must stay below 1e-12 relative
        to the largest entry).

    The form of ``m`` is decided once.  A matrix that is exactly
    symmetric tridiagonal (nonzeros only on the three central diagonals,
    sub-diagonal equal to super-diagonal; an O(n^2) test) is solved and
    certified from its two diagonals ``(d, e)`` alone: LAPACK ``dstevd``
    on each segment between exact-zero off-diagonals, so every
    eigenvector is exactly zero outside one segment and eigenvalues tied
    across segments keep the segment order, and the residual
    (d - lambda) v + e (shifted v) in O(n^2).  Any other matrix is checked
    for symmetry and goes to ``numpy.linalg.eigh``, which gives the same
    bits on tridiagonal input without a zero off-diagonal, with the
    residual m V - V diag(lambda).  Both paths end in one certification:
    the largest residual norm against ``RESIDUAL_TOL`` times the scale
    max|m_ij| (which is also the finiteness check, one reduction over
    ``m``) and the orthonormality defect V'V - I against ``ORTHO_TOL``.
    The eigenvectors are C-ordered on every path, as numpy returns them.

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
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    # NaN and inf propagate through max, so the scale is also the finiteness test
    scale = float(np.abs(m).max(initial=0.0))
    if not math.isfinite(scale):
        raise ValueError("matrix has non-finite entries")
    bands = _bands(m)
    if bands is not None:
        return _eigh_bands(*bands, scale)
    defect = float(np.abs(m - m.T).max(initial=0.0))
    if defect > SYMMETRY_RTOL * max(scale, 1.0):
        raise ValueError(f"matrix is not symmetric: asymmetry {defect:.3e} at scale {scale:.3e}")
    try:
        vals, vecs = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise EigenError(f"eigh failed to converge on a {m.shape[0]}x{m.shape[0]} matrix: {exc}") from exc
    return _certified(vals, vecs, m @ vecs - vecs * vals[np.newaxis, :], scale)
