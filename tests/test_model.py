import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dickelab.model import (
    FullBasis,
    ModelParams,
    SectorBasis,
    build_full_hamiltonian,
    build_sector_hamiltonian,
    parity_blocks,
)


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(omega_a=0.0)
    with pytest.raises(ValueError):
        ModelParams(omega_b=-1.0)
    with pytest.raises(ValueError):
        ModelParams(g=-0.1)
    with pytest.raises(ValueError):
        ModelParams(g_prime=-0.1)
    with pytest.raises(ValueError):
        ModelParams(n_atoms=0)
    with pytest.raises(ValueError):
        ModelParams(u=float("nan"))
    assert ModelParams(n_atoms=5).j == 2.5


@pytest.mark.parametrize("name", ["omega_a", "omega_b", "g", "g_prime", "lambda_z", "u", "n_atoms"])
@pytest.mark.parametrize("value", [True, np.True_])
def test_params_reject_booleans(name, value):
    # bool is an int subclass: True would pass as N = 1 or as a coupling of 1.0
    with pytest.raises(ValueError, match=f"{name} must be an? (finite number|integer)"):
        ModelParams(**{name: value})


@pytest.mark.parametrize("name", ["omega_a", "omega_b", "g", "g_prime", "lambda_z", "u", "n_atoms"])
@pytest.mark.parametrize("value", [np.array([1.0]), np.array(1.0), "1", None, 1 + 0j, [1.0]])
def test_params_reject_non_scalars(name, value):
    # an array used to build an unhashable params object and a string to
    # fail inside numpy with a TypeError that named no field
    with pytest.raises(ValueError, match=f"{name} must be an? (finite number|integer)"):
        ModelParams(**{name: value})


def test_params_accept_numpy_scalars_and_stay_hashable():
    params = ModelParams(omega_a=np.float64(1.5), g=np.float32(0.5), u=-1, n_atoms=np.int64(3))
    assert hash(params) == hash(ModelParams(omega_a=1.5, g=0.5, u=-1.0, n_atoms=3))


@pytest.mark.parametrize(
    "n_atoms, p, expected",
    [(5, 3, 4), (3, 7, 4), (1, 0, 1), (4, 4, 5), (2, 100, 3)],
)
def test_sector_basis_dim(n_atoms, p, expected):
    assert SectorBasis(p, n_atoms).dim == expected


def test_sector_basis_rejects_negative():
    with pytest.raises(ValueError):
        SectorBasis(3, 0)
    with pytest.raises(ValueError):
        SectorBasis(-1, 2)


@pytest.mark.parametrize(
    "make, name",
    [
        (lambda v: SectorBasis(p=v, n_atoms=4), "p"),
        (lambda v: SectorBasis(p=2, n_atoms=v), "n_atoms"),
        (lambda v: FullBasis(n_atoms=v, n_max=2), "n_atoms"),
        (lambda v: FullBasis(n_atoms=2, n_max=v), "n_max"),
    ],
    ids=["sector-p", "sector-n_atoms", "full-n_atoms", "full-n_max"],
)
@pytest.mark.parametrize("value", [2.5, 2.0, np.float64(2.0), True, np.True_, "2"])
def test_basis_labels_must_be_integers(make, name, value):
    # a fractional sector used to give a certified spectrum for a sector
    # that does not exist, a fractional cutoff a fractional dim, and True
    # passed as 1
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        make(value)
    assert make(np.int64(2)).dim == make(2).dim


def test_sector_hamiltonian_two_atoms_one_excitation():
    params = ModelParams(omega_a=1, omega_b=1, g=1, n_atoms=2)
    h = build_sector_hamiltonian(params, 1)
    assert np.allclose(h, [[0.0, 1.0], [1.0, 0.0]], atol=1e-14)


def test_sector_hamiltonian_vacuum_sector():
    for n in (1, 2, 5):
        params = ModelParams(omega_a=1.3, omega_b=0.7, g=2.0, n_atoms=n)
        h = build_sector_hamiltonian(params, 0)
        assert h.shape == (1, 1)
        assert h[0, 0] == pytest.approx(-n * 0.7 / 2, abs=1e-14)


def test_sector_hamiltonian_jaynes_cummings_block():
    params = ModelParams(omega_a=1, omega_b=1, g=1, n_atoms=1)
    h = build_sector_hamiltonian(params, 2)
    expected = [[1.5, np.sqrt(2)], [np.sqrt(2), 1.5]]
    assert np.allclose(h, expected, atol=1e-14)


def test_sector_hamiltonian_rejects_counter_rotating():
    params = ModelParams(g=1.0, g_prime=0.5, n_atoms=2)
    with pytest.raises(ValueError):
        build_sector_hamiltonian(params, 1)
    with pytest.raises(ValueError):
        build_sector_hamiltonian(ModelParams(n_atoms=2), -1)


def test_full_hamiltonian_conserves_excitation_number_without_crw():
    params = ModelParams(omega_a=1.1, omega_b=0.9, g=0.8, lambda_z=0.2, u=-0.1, n_atoms=3)
    h = build_full_hamiltonian(params, 5)
    n, s = np.divmod(np.arange(FullBasis(n_atoms=3, n_max=5).dim), 4)
    p_op = np.diag((n + s).astype(float))
    assert np.abs(h @ p_op - p_op @ h).max() <= 1e-12


def test_full_hamiltonian_has_no_cross_parity_coupling():
    params = ModelParams(g=0.9, g_prime=0.4, n_atoms=2)
    h = build_full_hamiltonian(params, 4)
    even, odd = parity_blocks(2, 4)
    assert np.all(h[np.ix_(even, odd)] == 0.0)
    assert np.all(h[np.ix_(odd, even)] == 0.0)


def test_full_hamiltonian_single_counter_rotating_element():
    params = ModelParams(omega_a=1, omega_b=1, g=0.0, g_prime=1.0, n_atoms=1)
    h = build_full_hamiltonian(params, 1)
    basis = FullBasis(n_atoms=1, n_max=1)
    off = h - np.diag(np.diag(h))
    i, j = basis.index(0, 0), basis.index(1, 1)
    assert off[i, j] == pytest.approx(1.0, abs=1e-14)
    off[i, j] = off[j, i] = 0.0
    assert np.all(off == 0.0)


def test_parity_blocks_small_cases():
    even, odd = parity_blocks(1, 1)  # flat index n * (N + 1) + s
    assert sorted(divmod(int(i), 2) for i in even) == [(0, 0), (1, 1)]
    assert sorted(divmod(int(i), 2) for i in odd) == [(0, 1), (1, 0)]

    even, odd = parity_blocks(2, 0)
    assert sorted(divmod(int(i), 3) for i in even) == [(0, 0), (0, 2)]
    assert sorted(divmod(int(i), 3) for i in odd) == [(0, 1)]


@given(n_atoms=st.integers(1, 6), n_max=st.integers(0, 8))
def test_parity_blocks_partition(n_atoms, n_max):
    even, odd = parity_blocks(n_atoms, n_max)
    dim = (n_max + 1) * (n_atoms + 1)
    assert even.size + odd.size == dim
    assert np.array_equal(np.sort(np.concatenate([even, odd])), np.arange(dim))


@settings(max_examples=30, deadline=None)
@given(
    n_atoms=st.integers(1, 5),
    p=st.integers(0, 12),
    g=st.floats(0, 3),
    lam_z=st.floats(-0.5, 0.5),
    u=st.floats(-0.5, 0.5),
)
def test_assembled_matrices_are_symmetric(n_atoms, p, g, lam_z, u):
    params = ModelParams(omega_a=1.2, omega_b=0.8, g=g, lambda_z=lam_z, u=u, n_atoms=n_atoms)
    h = build_sector_hamiltonian(params, p)
    scale = max(np.abs(h).max(), 1.0)
    assert np.abs(h - h.T).max() <= 1e-12 * scale
    hf = build_full_hamiltonian(params, 4)
    scale = max(np.abs(hf).max(), 1.0)
    assert np.abs(hf - hf.T).max() <= 1e-12 * scale


def test_sector_spectrum_invariant_under_coupling_sign_flip():
    # alternating-sign gauge transform flips the off-diagonal sign
    params = ModelParams(omega_a=1, omega_b=1.4, g=1.7, n_atoms=4)
    h = build_sector_hamiltonian(params, 5)
    signs = np.diag((-1.0) ** np.arange(h.shape[0]))
    flipped = signs @ h @ signs
    assert np.allclose(np.diag(flipped), np.diag(h))
    assert np.allclose(np.diag(flipped, 1), -np.diag(h, 1))
    assert np.allclose(np.linalg.eigvalsh(flipped), np.linalg.eigvalsh(h), atol=1e-12)


def test_full_spectrum_equals_direct_sum_of_truncated_sectors():
    params = ModelParams(omega_a=1.1, omega_b=0.9, g=1.3, lambda_z=0.1, u=0.05, n_atoms=3)
    n_max = 4
    h = build_full_hamiltonian(params, n_max)
    sector_vals = []
    for p in range(n_max + params.n_atoms + 1):
        hs = build_sector_hamiltonian(params, p)
        s = np.arange(hs.shape[0])
        keep = np.where(p - s <= n_max)[0]  # basis states inside the photon truncation
        if keep.size:
            sector_vals.append(np.linalg.eigvalsh(hs[np.ix_(keep, keep)]))
    combined = np.sort(np.concatenate(sector_vals))
    assert combined.size == h.shape[0]
    assert np.abs(combined - np.linalg.eigvalsh(h)).max() <= 1e-10


@pytest.mark.parametrize("n_atoms", [1, 2, 3, 5])
@pytest.mark.parametrize(
    "couplings",
    [
        pytest.param({"g": 1.3, "g_prime": 0.4}, id="crw"),
        pytest.param({"g": 1.3}, id="no-crw"),
        pytest.param({"g_prime": 0.7}, id="crw-only"),
        pytest.param({"g": 1.1, "g_prime": 0.2, "lambda_z": 0.3, "u": -0.2}, id="lambda_z-u"),
    ],
)
def test_smaller_truncation_is_a_leading_block(n_atoms, couplings):
    # auto_nmax compares truncations as slices of one assembled matrix
    params = ModelParams(omega_a=1.1, omega_b=0.9, n_atoms=n_atoms, **couplings)
    for n_big in (13, 30):
        h_big = build_full_hamiltonian(params, n_big)
        for n_max in (1, 7, 12):
            dim = (n_max + 1) * (n_atoms + 1)
            assert np.array_equal(h_big[:dim, :dim], build_full_hamiltonian(params, n_max))
