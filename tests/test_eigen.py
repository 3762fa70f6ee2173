import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    with pytest.raises(ValueError):
        eigh(np.eye(2), tol=0.0)
    with pytest.raises(ValueError):  # a NaN tolerance would switch certification off
        eigh(np.eye(2), tol=np.nan)


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
    d = eigh(m, tol=1e-8)
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


def _two_block_matrix():
    m = np.zeros((5, 5))
    m[0, 0], m[2, 2], m[4, 4] = 1.0, -2.0, 0.5
    m[0, 2] = m[2, 0] = 0.7
    m[0, 4] = m[4, 0] = 0.3
    m[1, 1], m[3, 3] = 4.0, 6.0
    m[1, 3] = m[3, 1] = 1.1
    return m


def test_block_structure_gives_exact_zero_support():
    # two declared decoupled blocks: eigenvectors must vanish exactly off-block
    m = _two_block_matrix()
    d = eigh(m, blocks=[[0, 2, 4], [1, 3]])
    block_a = {0, 2, 4}
    for col in range(5):
        support = set(np.nonzero(d.eigenvectors[:, col])[0].tolist())
        assert support <= block_a or support <= {1, 3}
    full = np.linalg.eigvalsh(m)
    assert np.allclose(d.eigenvalues, full, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(data=st.data(), n_blocks=st.integers(2, 4))
def test_random_block_structure_support_and_spectrum(data, n_blocks):
    # random block-diagonal layout under a random index permutation:
    # per-block spectra must be reproduced and support stay exact
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    sizes = [data.draw(st.integers(1, 4)) for _ in range(n_blocks)]
    total = sum(sizes)
    perm = rng.permutation(total)
    m = np.zeros((total, total))
    block_of = np.empty(total, dtype=int)
    start = 0
    expected = []
    blocks = []
    for b, size in enumerate(sizes):
        idx = perm[start : start + size]
        block_of[idx] = b
        blocks.append(idx)
        sub = rng.standard_normal((size, size))
        sub = (sub + sub.T) / 2
        sub[np.abs(sub) < 0.05] = 0.3  # keep blocks internally connected
        m[np.ix_(idx, idx)] = sub
        expected.append(np.linalg.eigvalsh(m[np.ix_(idx, idx)]))
        start += size
    d = eigh(m, blocks=blocks)
    assert np.allclose(d.eigenvalues, np.sort(np.concatenate(expected)), atol=1e-10)
    for col in range(total):
        support = np.nonzero(d.eigenvectors[:, col])[0]
        assert len(set(block_of[support])) <= 1


@pytest.mark.parametrize(
    "blocks",
    [[[0, 2, 4], [1]], [[0, 2, 4], [1, 3, 3]], [[0, 2, 4], [1, 3, 5]], [[0, 1, 2, 3, 4], [2]]],
    ids=["row-missing", "row-repeated", "row-out-of-range", "overlap"],
)
def test_blocks_must_partition_the_rows(blocks):
    with pytest.raises(ValueError, match="partition"):
        eigh(_two_block_matrix(), blocks=blocks)


def test_wrongly_declared_blocks_fail_certification():
    # a valid partition that cuts the nonzero couplings 0-2 and 0-4: the
    # residual against the whole matrix exposes it
    with pytest.raises(EigenError, match="residual"):
        eigh(_two_block_matrix(), blocks=[[0, 1, 3], [2, 4]])


def test_convergence_failure_is_signalled():
    # numpy's eigh essentially always converges; exercise the error type
    # indirectly by certifying against an absurd tolerance via a matrix
    # whose residual cannot be zero at float precision
    rng = np.random.default_rng(3)
    m = rng.standard_normal((60, 60))
    m = (m + m.T) / 2
    with pytest.raises(EigenError):
        eigh(m * 1e8, tol=1e-18)


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


@pytest.fixture
def dstevd_calls(monkeypatch):
    """Count the calls eigen makes to LAPACK dstevd."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0].size)
        return real(*args, **kwargs)

    real = eigen.dstevd
    monkeypatch.setattr(eigen, "dstevd", counting)
    return calls


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


def test_band_path_solves_tridiagonal_declared_blocks(dstevd_calls):
    # two tridiagonal blocks interleaved: rows 0, 2, 4 and rows 1, 3
    m = np.zeros((5, 5))
    m[[0, 2, 4], [0, 2, 4]] = [1.0, -2.0, 0.5]
    m[[1, 3], [1, 3]] = [4.0, 6.0]
    m[0, 2] = m[2, 0] = 0.7
    m[2, 4] = m[4, 2] = 0.3
    m[1, 3] = m[3, 1] = 1.1
    d = eigh(m, blocks=[[0, 2, 4], [1, 3]])
    assert dstevd_calls == [3, 2]
    assert np.allclose(d.eigenvalues, np.linalg.eigvalsh(m), atol=1e-12)
    assert d.eigenvectors.flags["C_CONTIGUOUS"]


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


def test_band_path_certification_failure_is_signalled(dstevd_calls):
    h = build_sector_hamiltonian(ModelParams(n_atoms=80, g=2.0), 150)
    with pytest.raises(EigenError, match="residual"):
        eigh(h * 1e8, tol=1e-18)
    assert dstevd_calls == [81]
