import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dstevd

from dickelab import eigen
from dickelab.eigen import EigenDecomposition, EigenError, eigh, orthonormality_defect, residual
from dickelab.model import ModelParams, build_sector_hamiltonian
from dickelab.theory import critical_coupling


def test_identity_matrix():
    d = eigh(np.eye(4))
    assert np.allclose(d.eigenvalues, [1, 1, 1, 1], atol=1e-14)


def test_two_by_two_exchange():
    d = eigh(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(d.eigenvalues, [-1.0, 1.0], atol=1e-14)


def test_tridiagonal_toeplitz_closed_form():
    m = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]])
    d = eigh(m)
    assert np.allclose(d.eigenvalues, [2 - np.sqrt(2), 2.0, 2 + np.sqrt(2)], atol=1e-12)


def test_rejects_non_symmetric_and_bad_inputs():
    with pytest.raises(ValueError):
        eigh(np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(ValueError):
        eigh(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        eigh(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_rejects_complex_input():
    # a cast to float used to drop the imaginary part and certify the
    # spectrum [1, 1] of the real part; the Hermitian matrix has [0, 2]
    hermitian = [[1, 1j], [-1j, 1]]
    with pytest.raises(ValueError, match="complex"):
        eigh(hermitian)
    with pytest.raises(ValueError, match="complex"):
        eigh(np.eye(2, dtype=complex))
    with pytest.raises(ValueError, match="complex"):
        residual(np.array(hermitian), eigh(np.eye(2)))


def test_residual_of_exact_diagonal_decomposition():
    m = np.diag([3.0, -1.0, 2.0])
    d = eigh(m)
    assert residual(m, d) <= 1e-14


def test_residual_detects_perturbed_eigenvector():
    m = np.diag([1.0, 2.0, 5.0])
    d = eigh(m)
    vecs = d.eigenvectors.copy()
    vecs[2, 0] += 1e-3
    broken = EigenDecomposition(
        eigenvalues=d.eigenvalues, eigenvectors=vecs,
        max_residual=d.max_residual, ortho_defect=d.ortho_defect,
    )
    assert residual(m, broken) >= 1e-4


def test_residual_dimension_mismatch():
    d = eigh(np.eye(3))
    with pytest.raises(ValueError):
        residual(np.eye(4), d)


@pytest.mark.parametrize("size", [2, 17, 64, 256, 512])
def test_random_symmetric_certificates(size):
    rng = np.random.default_rng(size)
    m = rng.standard_normal((size, size))
    m = (m + m.T) / 2
    d = eigh(m)
    scale = np.abs(m).max()
    assert d.max_residual <= 1e-8 * scale
    assert residual(m, d) == pytest.approx(d.max_residual, rel=1e-9, abs=1e-15)
    assert d.ortho_defect <= 1e-10
    assert orthonormality_defect(d) == d.ortho_defect
    assert np.all(np.diff(d.eigenvalues) >= 0)
    # trace preservation
    assert d.eigenvalues.sum() == pytest.approx(np.trace(m), rel=1e-9, abs=1e-9)


def test_shift_invariance():
    rng = np.random.default_rng(7)
    m = rng.standard_normal((40, 40))
    m = (m + m.T) / 2
    c = 3.7
    base = eigh(m).eigenvalues
    shifted = eigh(m + c * np.eye(40)).eigenvalues
    assert np.abs(shifted - (base + c)).max() <= 1e-10


def test_convergence_failure_is_signalled(monkeypatch):
    # numpy's eigh essentially always converges; exercise the error type
    # indirectly by certifying against an absurd residual bound via a
    # matrix whose residual cannot be zero at float precision
    rng = np.random.default_rng(3)
    m = rng.standard_normal((60, 60))
    m = (m + m.T) / 2
    monkeypatch.setattr(eigen, "RESIDUAL_TOL", 1e-18)
    with pytest.raises(EigenError):
        eigh(m * 1e8)


# Tridiagonal input: LAPACK dstevd on the bands, certified from the bands.

BAND_TEMPLATES = {
    "resonant": {},
    "detuned": {"omega_a": 1.3, "omega_b": 0.7},
    "lambda_z": {"lambda_z": 0.3},
    "u": {"u": 0.2},
}


def _sector_matrices():
    for n_atoms in (1, 2, 3, 5, 20, 80):
        for name, fields in BAND_TEMPLATES.items():
            template = ModelParams(n_atoms=n_atoms, **fields)
            gc = critical_coupling(template)
            for ratio in (0.3, 1.0, 2.2, 4.0):
                params = ModelParams(n_atoms=n_atoms, g=ratio * gc, **fields)
                for p in sorted({1, n_atoms // 2, n_atoms + 1, 2 * n_atoms + 3}):
                    yield f"N{n_atoms}-{name}-{ratio}-P{p}", build_sector_hamiltonian(params, p)


def test_band_path_is_bit_identical_to_dense_eigh(dstevd_calls):
    count = 0
    for label, h in _sector_matrices():
        d = eigh(h)
        vals, vecs = np.linalg.eigh(h)
        assert np.array_equal(d.eigenvalues, vals), label
        assert np.array_equal(d.eigenvectors, vecs), label
        assert d.eigenvectors.flags["C_CONTIGUOUS"], label
        count += 1
    assert len(dstevd_calls) == count


def test_one_entry_off_the_bands_takes_the_dense_path(dstevd_calls):
    h = build_sector_hamiltonian(ModelParams(n_atoms=5, g=2.0), 8)
    eigh(h)
    assert dstevd_calls == [6]
    h[0, 3] = h[3, 0] = 1e-3
    d = eigh(h)
    assert dstevd_calls == [6]
    assert residual(h, d) == d.max_residual
    assert d.max_residual <= 1e-12 * np.abs(h).max()


def test_band_path_rejects_bad_bands():
    h = build_sector_hamiltonian(ModelParams(n_atoms=3, g=1.5), 4)
    for i, j, value in [(1, 1, np.nan), (2, 1, np.nan), (0, 0, np.inf), (1, 2, h[1, 2] * 1.1)]:
        bad = h.copy()
        bad[i, j] = value
        with pytest.raises(ValueError):
            eigh(bad)


def test_band_residual_is_the_residual_helper():
    for label, h in _sector_matrices():
        d = eigh(h)
        assert residual(h, d) == d.max_residual, label
        assert orthonormality_defect(d) == d.ortho_defect, label
        assert d.max_residual <= 1e-12 * max(1.0, np.abs(h).max()), label


def test_band_path_certification_failure_is_signalled(dstevd_calls, monkeypatch):
    h = build_sector_hamiltonian(ModelParams(n_atoms=80, g=2.0), 150)
    monkeypatch.setattr(eigen, "RESIDUAL_TOL", 1e-18)
    with pytest.raises(EigenError, match="residual"):
        eigh(h * 1e8)
    assert dstevd_calls == [81]


# Segmented tridiagonal input: split at exact-zero off-diagonals.


def _tridiagonal(d, e):
    d, e = np.asarray(d, dtype=float), np.asarray(e, dtype=float)
    return np.diag(d) + np.diag(e, 1) + np.diag(e, -1)


def _segment_of_rows(e):
    """Segment number of every row of a tridiagonal matrix with off-diagonal e."""
    return np.concatenate(([0], np.cumsum(np.asarray(e) == 0)))


def _assert_split_solution(d, e, dec):
    """``dec`` holds each segment's own dstevd eigenpairs, bit for bit, with
    the vectors zero-padded outside the segment, merged by eigenvalue in a
    stable order (ties in segment order)."""
    segment = _segment_of_rows(e)
    pairs = []
    for k in range(segment[-1] + 1):
        rows = np.flatnonzero(segment == k)
        sub_e = np.asarray(e, dtype=float)[rows[:-1]]
        vals, vecs, info = dstevd(np.asarray(d, dtype=float)[rows], sub_e if sub_e.size else np.zeros(1))
        assert info == 0
        for val, vec in zip(vals, vecs.T):
            padded = np.zeros(len(d))
            padded[rows] = vec
            pairs.append((val, padded))
    pairs.sort(key=lambda pair: pair[0])  # list.sort is stable
    assert np.array_equal(dec.eigenvalues, [val for val, _ in pairs])
    assert np.array_equal(dec.eigenvectors, np.array([vec for _, vec in pairs]).T)
    assert dec.eigenvectors.flags["C_CONTIGUOUS"]


def test_split_keeps_exact_zeros_outside_each_segment(dstevd_calls):
    d, e = [1.0, -2.0, 0.5, 4.0, 6.0, 3.0], [0.7, 0.3, 0.0, 1.1, 0.0]
    m = _tridiagonal(d, e)
    dec = eigh(m)
    assert dstevd_calls == [3, 2, 1]
    _assert_split_solution(d, e, dec)
    assert np.allclose(dec.eigenvalues, np.linalg.eigvalsh(m), atol=1e-12)
    assert residual(m, dec) == dec.max_residual <= 1e-14 * np.abs(m).max()


def test_ties_across_segments_keep_segment_order(dstevd_calls):
    # three copies of [[0, 1], [1, 0]] and a 1-row segment at -1: the
    # eigenvalue -1 appears four times and +1 three times
    d, e = [0.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0], [1.0, 0.0, 1.0, 0.0, 0.0, 1.0]
    dec = eigh(_tridiagonal(d, e))
    assert dstevd_calls == [2, 2, 1, 2]
    assert np.array_equal(dec.eigenvalues, [-1.0] * 4 + [1.0] * 3)
    segment = _segment_of_rows(e)
    support = [int(np.unique(segment[np.flatnonzero(v)])[0]) for v in dec.eigenvectors.T]
    assert support == [0, 1, 2, 3, 0, 1, 3]
    _assert_split_solution(d, e, dec)


def test_one_row_segments_give_the_basis(dstevd_calls):
    # a diagonal matrix splits into 1-row segments; equal entries keep the
    # row order, so the eigenvectors are a permutation matrix
    d = [2.0, -1.0, 2.0, 0.5, -1.0]
    dec = eigh(np.diag(d))
    assert dstevd_calls == [1] * 5
    assert np.array_equal(dec.eigenvalues, [-1.0, -1.0, 0.5, 2.0, 2.0])
    assert np.array_equal(dec.eigenvectors, np.eye(5)[:, [1, 4, 3, 0, 2]])
    assert dec.eigenvectors.flags["C_CONTIGUOUS"]
    # 1-row segments at both ends of a coupled one
    d, e = [5.0, 1.0, 2.0, 3.0, -4.0], [0.0, 0.4, -0.6, 0.0]
    dstevd_calls.clear()
    dec = eigh(_tridiagonal(d, e))
    assert dstevd_calls == [1, 3, 1]
    _assert_split_solution(d, e, dec)


# the fixture's counter is cleared per example
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    sizes=st.lists(st.integers(1, 5), min_size=1, max_size=6),
    seed=st.integers(0, 2**32 - 1),
    ties=st.booleans(),
)
def test_random_segmented_tridiagonal(dstevd_calls, sizes, seed, ties):
    # random segments, each internally coupled; with ties, every segment
    # of one size is a copy of one matrix, so eigenvalues tie exactly
    # across segments
    rng = np.random.default_rng(seed)
    copies = {}
    d, e = [], []
    for size in sizes:
        if not ties or size not in copies:
            coupling = rng.uniform(0.1, 1.0, size - 1) * rng.choice([-1.0, 1.0], size - 1)
            copies[size] = (rng.standard_normal(size), coupling)
        seg_d, seg_e = copies[size]
        d += list(seg_d)
        e += list(seg_e) + [0.0]
    d, e = np.array(d), np.array(e[:-1])
    m = _tridiagonal(d, e)
    dstevd_calls.clear()
    dec = eigh(m)
    assert dstevd_calls == sizes
    _assert_split_solution(d, e, dec)
    assert np.allclose(dec.eigenvalues, np.linalg.eigvalsh(m), atol=1e-12)
    assert residual(m, dec) == dec.max_residual <= 1e-12 * max(1.0, np.abs(m).max())
    assert dec.ortho_defect <= 1e-13


# The one-pass checks and certificate against their multi-pass form.


def _reference_band_certificate(m):
    """The band checks and certificate of a tridiagonal ``m`` in their
    multi-pass form: ``.all()`` tests for symmetry and for one segment, the
    scale from the two bands, and the square root of every column's sum
    before the max.  Returns (scale, d, e, one_segment, max_residual,
    ortho_defect, eigh(m)), the certificate of ``eigh(m)``'s eigenpairs."""
    n = m.shape[0]
    flat = m.ravel()
    d, e = flat[:: n + 1], flat[n :: n + 1]
    assert (e == flat[1 :: n + 1]).all()
    assert np.count_nonzero(m) == np.count_nonzero(d) + 2 * np.count_nonzero(e)
    scale = float(np.maximum(np.abs(d).max(), np.abs(e).max(initial=0.0)))
    dec = eigh(m)
    vals, vecs = dec.eigenvalues, dec.eigenvectors
    r = (d[:, np.newaxis] - vals[np.newaxis, :]) * vecs
    r[:-1] += e[:, np.newaxis] * vecs[1:]
    r[1:] += e[:, np.newaxis] * vecs[:-1]
    max_residual = float(np.sqrt((r * r).sum(axis=0)).max())
    gram = vecs.T @ vecs
    gram.ravel()[:: n + 1] -= 1.0
    return scale, d, e, bool(e.all()), max_residual, float(np.abs(gram).max()), dec


def _random_tridiagonals(count, seed):
    """Tridiagonal matrices of 1..9 rows with split segments, exact ties
    across segments, magnitudes from 1e-3 to 1e3 and +-0.0 entries, some
    of them on one side of the off-diagonal only."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        size = int(rng.integers(1, 10))
        d = rng.standard_normal(size) * 10.0 ** int(rng.integers(-3, 4))
        e = rng.standard_normal(size - 1) * 10.0 ** int(rng.integers(-3, 4))
        if k % 3 == 0:  # split segments
            e[rng.random(size - 1) < 0.4] = 0.0
        if k % 4 == 1 and size >= 4:  # two equal segments: eigenvalues tie exactly
            half = size // 2
            d[half : 2 * half], e[half : 2 * half - 1] = d[:half], e[: half - 1]
            e[half - 1] = 0.0
        if k % 5 == 2:
            d[rng.random(size) < 0.4] = -0.0
            e[rng.random(size - 1) < 0.4] = -0.0
        m = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        if k % 5 == 2 and size >= 2 and m[1, 0] == 0:
            m[0, 1] = -0.0  # a signed zero on one side of the off-diagonal only
        yield m


def test_band_certificate_equals_its_multi_pass_form():
    cases = segmented = one_row = tied = signed_zero = 0
    for m in _random_tridiagonals(600, seed=11):
        scale, d, e, one_segment, max_residual, ortho_defect, dec = _reference_band_certificate(m)
        got_scale, bands = eigen._check_symmetric(m)
        assert got_scale.hex() == scale.hex()
        assert bands is not None and np.array_equal(bands[0], d) and np.array_equal(bands[1], e)
        assert (np.count_nonzero(bands[1]) == bands[1].size) == one_segment
        assert dec.max_residual.hex() == max_residual.hex()
        assert dec.ortho_defect.hex() == ortho_defect.hex()
        assert residual(m, dec).hex() == max_residual.hex()
        cases += 1
        segmented += not one_segment
        one_row += m.shape[0] == 1
        tied += np.count_nonzero(np.diff(dec.eigenvalues) == 0) > 0
        signed_zero += np.signbit(m[m == 0]).any()
    assert cases == 600 and min(segmented, one_row, tied, signed_zero) >= 30


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["diagonal", "off-diagonal", "lower only", "off the band"])
@pytest.mark.parametrize("form", ["banded", "dense"])
def test_non_finite_entries_raise_for_banded_and_dense_input(value, where, form):
    h = build_sector_hamiltonian(ModelParams(n_atoms=4, g=1.5), 6)
    if form == "dense":
        h = h + 0.01 * np.add.outer(np.arange(5.0), np.arange(5.0))
    assert (eigen._bands(h) is not None) == (form == "banded")
    for i, j in {"diagonal": [(2, 2)], "off-diagonal": [(2, 1), (1, 2)], "lower only": [(3, 2)],
                 "off the band": [(3, 0), (0, 3)]}[where]:
        h[i, j] = value
    with pytest.raises(ValueError, match="non-finite"):
        eigh(h)
