import json
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dickelab import ed, model
from dickelab.ed import auto_nmax, ground_state_scan, solve_full, solve_ground, solve_sector
from dickelab.eigen import EigenError, eigh
from dickelab.model import (
    FullBasis,
    ModelParams,
    build_sector_hamiltonian,
    sector_bands,
)
from dickelab.observables import (
    anomalous_weight,
    mean_photon_number,
    number_correlation,
    photon_correlation,
    photon_number_variance,
)
from dickelab.scan import parse_config, run_scan
from dickelab.theory import critical_coupling, saddle_point

RESONANT = ModelParams(omega_a=1, omega_b=1, g=1.0, n_atoms=1)


def test_solve_sector_jaynes_cummings_doublet():
    spec = solve_sector(replace(RESONANT, g=1.0), 2)
    assert np.allclose(spec.energies, [1.5 - np.sqrt(2), 1.5 + np.sqrt(2)], atol=1e-12)


def test_solve_sector_vacuum():
    spec = solve_sector(ModelParams(omega_a=2.0, omega_b=0.6, g=1.0, n_atoms=4), 0)
    assert spec.energies.shape == (1,)
    assert spec.energies[0] == pytest.approx(-4 * 0.6 / 2, abs=1e-14)


def test_solve_sector_higgs_gap_near_analytic():
    params = ModelParams(omega_a=1, omega_b=1, g=2.0, n_atoms=3)
    spec = solve_sector(params, 4)
    assert spec.energies.size == 4
    gap = spec.energies[1] - spec.energies[0]
    assert gap == pytest.approx(np.sqrt(19), rel=0.10)


@pytest.mark.parametrize("g", [0.3, 1.0, 2.4])
def test_jaynes_cummings_closed_form(g):
    params = ModelParams(omega_a=1, omega_b=1, g=g, n_atoms=1)
    for p in range(1, 12):
        spec = solve_sector(params, p)
        expected = np.sort([p - 0.5 - g * np.sqrt(p), p - 0.5 + g * np.sqrt(p)])
        assert np.abs(spec.energies - expected).max() <= 1e-10


def test_amplitudes_are_normalized():
    spec = solve_sector(ModelParams(omega_a=1, omega_b=1, g=1.5, n_atoms=4), 6)
    norms = (spec.amplitudes**2).sum(axis=0)
    assert np.allclose(norms, 1.0, atol=1e-12)


def test_ground_scan_weak_coupling_vacuum():
    params = ModelParams(omega_a=1, omega_b=1, g=1.0, n_atoms=3)
    points = ground_state_scan(params, [1e-4, 0.1, 0.5])
    for pt in points:
        assert pt.p_star == 0
        assert pt.ground_energy == pytest.approx(-1.5, abs=1e-12)
        assert pt.e_higgs is None


def test_first_staircase_jump_regression():
    # resonance: the P=1 sector crosses the vacuum exactly at g = g_c
    params = ModelParams(omega_a=1, omega_b=1, g=1.0, n_atoms=3)
    assert solve_ground(params).point.p_star == 0  # tie resolves to smaller P
    assert solve_ground(replace(params, g=1 - 1e-9)).point.p_star == 0
    assert solve_ground(replace(params, g=1 + 1e-6)).point.p_star == 1


def test_staircase_monotone_unit_steps():
    params = ModelParams(omega_a=1, omega_b=1, g=1.0, n_atoms=3)
    gs = np.linspace(0.5, 2.5, 120)
    points = ground_state_scan(params, gs)
    stars = np.array([pt.p_star for pt in points])
    steps = np.diff(stars)
    assert np.all(steps >= 0)
    assert set(steps.tolist()) <= {0, 1}


# ground_state_scan at N = 5 on resonance, g/g_c = 0.5, 0.6, ..., 3.0:
# (P*, ground energy, E_G, E_H, E_o) as float hex.
N5_STAIRCASE_HEX = [
    (0, "-0x1.4000000000000p+1", "0x1.0000000000000p-1", None, "0x1.8000000000000p+0"),
    (0, "-0x1.4000000000000p+1", "0x1.9999999999998p-2", None, "0x1.999999999999ap+0"),
    (0, "-0x1.4000000000000p+1", "0x1.3333333333330p-2", None, "0x1.b333333333333p+0"),
    (0, "-0x1.4000000000000p+1", "0x1.99999999999a0p-3", None, "0x1.ccccccccccccdp+0"),
    (0, "-0x1.4000000000000p+1", "0x1.99999999999a0p-4", None, "0x1.e666666666666p+0"),
    (0, "-0x1.4000000000000p+1", "0x0.0p+0", None, "0x1.0000000000000p+1"),
    (1, "-0x1.4cccccccccccdp+1", "0x1.a699bb7908700p-7", "0x1.199999999999ap+1", "0x1.0ccccccccccccp+1"),
    (2, "-0x1.636f7d87441c0p+1", "0x1.6c30c164c4e80p-5", "0x1.236f7d87441c0p+1", "0x1.1eed18e226ff5p+1"),
    (3, "-0x1.80394a0c7fc93p+1", "0x1.666d130aed860p-4", "0x1.30ac07aef594dp+1", "0x1.3ab34d60d80a8p+1"),
    (3, "-0x1.a2b3d9974e89ep+1", "0x1.1bae796a26a80p-6", "0x1.481bb981573dbp+1", "0x1.490fdd2d376ddp+1"),
    (4, "-0x1.cbf317d4cc1c5p+1", "0x1.1e515ba4d5aa0p-4", "0x1.5e311bac45a2dp+1", "0x1.74875f0215246p+1"),
    (4, "-0x1.f769b3051dfc5p+1", "0x1.02b6413a52f00p-7", "0x1.7589b71e28257p+1", "0x1.84d4a99bd2496p+1"),
    (5, "-0x1.14e6b64810f22p+2", "0x1.dec9fae1e0100p-5", "0x1.9c0f129041762p+1", "0x1.bfd3bba00dda2p+1"),
    (5, "-0x1.2e99ee2e300f4p+2", "0x1.91218b2ed2000p-9", "0x1.b44c31c5eaf54p+1", "0x1.d2a3f3d6a540cp+1"),
    (6, "-0x1.4ba671a74737ap+2", "0x1.7b6e7b3ae6780p-5", "0x1.ec26c3332cbe4p+1", "0x1.0b15b055470a7p+2"),
    (7, "-0x1.69249c843ac12p+2", "0x1.402cdb4ed1380p-4", "0x1.1605802de9ba0p+2", "0x1.2e6a1947a5e16p+2"),
    (7, "-0x1.8999a457a4177p+2", "0x1.06c49958b7880p-5", "0x1.23ec2cfd02364p+2", "0x1.3a55cdbe6e2c6p+2"),
    (8, "-0x1.aaf44d32e5d55p+2", "0x1.e0da40df97f80p-5", "0x1.4727233d0edeep+2", "0x1.5fe49ecd3566dp+2"),
    (8, "-0x1.ce5c7f40d9022p+2", "0x1.04b11347e1200p-6", "0x1.560601ee6100cp+2", "0x1.6cfaa60514ec0p+2"),
    (9, "-0x1.f37d03a9fb9cep+2", "0x1.3a5bf7fdab600p-5", "0x1.7bc8ff9823dedp+2", "0x1.947397125a109p+2"),
    (10, "-0x1.0cdefcc6357a1p+3", "0x1.c4d6d0e00ae00p-5", "0x1.a2bed31922acep+2", "0x1.bc9e25942e9c0p+2"),
    (10, "-0x1.2139d3af6ad0cp+3", "0x1.1e8b9dfaf7000p-6", "0x1.b37ec70fe69efp+2", "0x1.cbd7ac33b597cp+2"),
    (11, "-0x1.363af5cb853acp+3", "0x1.0730263c94800p-5", "0x1.dc5dc93906ba3p+2", "0x1.f5ad5a9e4508fp+2"),
    (12, "-0x1.4be9d672843a8p+3", "0x1.6263b9e2a1a00p-5", "0x1.031010047cacep+3", "0x1.10135d2752fd0p+3"),
    (12, "-0x1.629fe73fbfceap+3", "0x1.29e64b3d2d000p-7", "0x1.0c50a2e01369ap+3", "0x1.18a6575671614p+3"),
    (13, "-0x1.7a2368a13f6cep+3", "0x1.365e767fd3000p-6", "0x1.2206c219d3cfbp+3", "0x1.2ea93beef8262p+3"),
]


def test_ground_scan_reproduces_the_recorded_n5_staircase():
    template = ModelParams(n_atoms=5)
    g = (np.linspace(0.5, 3.0, 26) * critical_coupling(template)).tolist()
    got = [
        (pt.p_star, *(None if v is None else float(v).hex()
                      for v in (pt.ground_energy, pt.e_goldstone, pt.e_higgs, pt.e_optical)))
        for pt in ground_state_scan(template, g)
    ]
    assert got == N5_STAIRCASE_HEX


def test_ground_scan_rejects_bad_grids():
    params = ModelParams(omega_a=1, omega_b=1, g=1.0, n_atoms=2)
    for bad in ([], [[1.0, 2.0]], [[1.0], [2.0]]):
        with pytest.raises(ValueError, match="non-empty 1-d"):
            ground_state_scan(params, bad)


def test_ground_scan_takes_couplings_in_any_order():
    # each point is solved on its own, so a reversed grid gives the reversed points
    template = ModelParams(n_atoms=5)
    g = (np.linspace(0.5, 3.0, 26) * critical_coupling(template)).tolist()

    def hexed(points):
        return [
            (pt.p_star, *(None if v is None else float(v).hex()
                          for v in (pt.g, pt.ground_energy, pt.e_goldstone, pt.e_higgs, pt.e_optical)))
            for pt in points
        ]

    assert hexed(ground_state_scan(template, g[::-1])) == hexed(ground_state_scan(template, g))[::-1]


def test_sector_energies_shift_with_constant_diagonal_term():
    # for N=1 the qubit-qubit term is the constant u/2, a pure diagonal shift
    base = ModelParams(omega_a=1, omega_b=1, g=0.9, n_atoms=1)
    shifted = replace(base, u=0.8)
    for p in (1, 3, 6):
        e0 = solve_sector(base, p).energies
        e1 = solve_sector(shifted, p).energies
        assert np.abs(e1 - (e0 + 0.4)).max() <= 1e-12


def test_sector_eigenstates_have_exactly_zero_photon_coherence():
    # a|psi> lives in the adjacent sector, so <psi|a|psi> has disjoint support
    params = ModelParams(omega_a=1, omega_b=1, g=2.0, n_atoms=3)
    n_max = 12
    basis = FullBasis(n_atoms=3, n_max=n_max)
    a = np.zeros((basis.dim, basis.dim))
    for n in range(1, n_max + 1):
        for s in range(4):
            a[basis.index(n - 1, s), basis.index(n, s)] = np.sqrt(n)
    for p in (2, 4):
        spec = solve_sector(params, p)
        for l in range(spec.basis.dim):
            embedded = np.zeros(basis.dim)
            for s in range(spec.basis.dim):
                embedded[basis.index(p - s, s)] = spec.amplitudes[s, l]
            assert embedded @ (a @ embedded) == 0.0


def test_result_objects_compare_and_hash_by_identity():
    # each holds arrays, whose == has no single truth value: == and hash
    # go by identity, so neither raises
    params = ModelParams(g=1.3, n_atoms=4)
    pairs = [
        (solve_sector(params, 4), solve_sector(params, 4)),
        (solve_ground(params), solve_ground(params)),
        (solve_full(replace(params, g_prime=0.1), 6, 1), solve_full(replace(params, g_prime=0.1), 6, 1)),
        (eigh(np.eye(2)), eigh(np.eye(2))),
    ]
    for a, b in pairs:
        assert a == a and a != b
        assert hash(a) == hash(a)
        assert len({a, b}) == 2
    # the plain records keep value equality
    assert pairs[1][0].point == pairs[1][1].point
    assert replace(params) == params


def test_solve_full_decoupled_ladder():
    params = ModelParams(omega_a=1, omega_b=1, g=0.0, n_atoms=1)
    even = solve_full(params, 5, 1)
    odd = solve_full(params, 5, -1)
    ladder = np.sort(np.concatenate([np.arange(6) - 0.5, np.arange(6) + 0.5]))
    combined = np.sort(np.concatenate([even.energies, odd.energies]))
    assert np.allclose(combined, ladder, atol=1e-12)
    assert np.allclose(even.energies, [-0.5, 1.5, 1.5, 3.5, 3.5, 5.5], atol=1e-12)
    assert np.allclose(odd.energies, [0.5, 0.5, 2.5, 2.5, 4.5, 4.5], atol=1e-12)


def test_solve_full_matches_sector_union_without_crw():
    params = ModelParams(omega_a=1.2, omega_b=0.8, g=1.1, n_atoms=2)
    n_max = 6
    even = solve_full(params, n_max, 1)
    odd = solve_full(params, n_max, -1)
    blocks = np.sort(np.concatenate([even.energies, odd.energies]))
    # sectors fully inside the truncation are exact subsets of the block union
    for p in range(n_max + 1):
        for e in solve_sector(params, p).energies:
            assert np.abs(blocks - e).min() <= 1e-10


def test_solve_full_ground_state_is_even_at_weak_coupling():
    params = ModelParams(omega_a=1, omega_b=1, g=0.2, g_prime=0.2, n_atoms=2)
    even = solve_full(params, 10, 1)
    odd = solve_full(params, 10, -1)
    assert even.energies[0] < odd.energies[0]


def test_solve_full_validates_arguments():
    params = ModelParams(omega_a=1, omega_b=1, g=0.5, n_atoms=2)
    with pytest.raises(ValueError):
        solve_full(params, 5, 0)
    with pytest.raises(ValueError):
        solve_full(params, 0, 1)


def test_solve_sector_at_zero_coupling_returns_the_basis():
    # on resonance at g = 0 every diagonal entry of a sector is equal; the
    # diagonal sector splits into 1-row segments whose ties keep the row
    # order, so the eigenvectors are the identity, bit for bit
    params = ModelParams(omega_a=1, omega_b=1, g=0.0, n_atoms=4)
    for p in (0, 2, 4, 7):
        spec = solve_sector(params, p)
        assert np.all(spec.energies == p - 2.0)
        assert np.array_equal(spec.amplitudes, np.eye(spec.basis.dim))
        assert spec.amplitudes.flags["C_CONTIGUOUS"]


@pytest.mark.parametrize("n_atoms", [1, 2, 3])
def test_solve_full_without_crw_keeps_exact_zeros_across_sectors(n_atoms):
    params = ModelParams(omega_a=1, omega_b=1, g=1.3, n_atoms=n_atoms)
    even, odd = solve_full(params, 12, 1), solve_full(params, 12, -1)
    for spec in (even, odd):
        assert spec.amplitudes.flags["C_CONTIGUOUS"]
        n, s = np.divmod(spec.indices, n_atoms + 1)
        for col in range(spec.energies.size):
            support = np.flatnonzero(spec.amplitudes[:, col])
            assert np.unique((n + s)[support]).size == 1
    assert anomalous_weight(even, odd) == 0.0


def test_solve_full_matches_the_reference_decomposition():
    # energies and amplitudes of solve_full at n_max = 7, recorded with the
    # couplings formed in the order of the sector bands; a change to the
    # assembly, the chain ordering or the eigensolve that moves a bit fails
    # g'/g in {0, 0.05, 0.3} at g = 1.3, then g = 0 < g' and g = g' = 0
    reference = np.load(Path(__file__).parent / "data" / "solve_full_reference.npz")
    cases = [(1.3, r * 1.3, f"r{r}") for r in (0.0, 0.05, 0.3)] + [(0.0, 0.4, "g0"), (0.0, 0.0, "g0_gp0")]
    for n_atoms in (1, 2, 3):
        for g, g_prime, tag in cases:
            params = ModelParams(g=g, g_prime=g_prime, n_atoms=n_atoms)
            for parity, name in ((1, "even"), (-1, "odd")):
                spec = solve_full(params, 7, parity)
                key = f"N{n_atoms}_{tag}_{name}"
                assert spec.energies.tobytes() == reference[key + "_energies"].tobytes()
                assert spec.amplitudes.tobytes() == reference[key + "_amplitudes"].tobytes()


@pytest.mark.parametrize("g, g_prime, conserved", [(1.3, 0.0, "n+s"), (0.0, 0.4, "n-s")])
@pytest.mark.parametrize("n_atoms, n_max", [(1, 7), (2, 16), (3, 5)])
def test_solve_full_certifies_chain_by_chain_on_the_band_path(
    monkeypatch, dstevd_calls, g, g_prime, conserved, n_atoms, n_max
):
    # one dstevd call per chain of the conserved n + s or n - s, chains in
    # order of their first basis index, and never the dense driver
    def dense(*args, **kwargs):
        raise AssertionError("dense eigh called")

    monkeypatch.setattr(np.linalg, "eigh", dense)
    params = ModelParams(g=g, g_prime=g_prime, n_atoms=n_atoms)
    for parity in (1, -1):
        dstevd_calls.clear()
        spec = solve_full(params, n_max, parity)
        n, s = np.divmod(spec.indices, n_atoms + 1)
        labels = (n + s if conserved == "n+s" else n - s).tolist()
        assert dstevd_calls == [labels.count(label) for label in dict.fromkeys(labels)]
        assert np.all(np.diff(spec.indices) > 0)
        assert spec.max_residual <= 1e-12 * max(1.0, np.abs(spec.energies).max())
        assert spec.ortho_defect <= 1e-13


def test_landau_level_separation_deep_superradiant():
    params = ModelParams(omega_a=1, omega_b=1, g=3.0, n_atoms=5)
    point = solve_ground(params).point
    assert point.e_higgs / point.e_goldstone >= 5 / 2


def test_auto_nmax_floor_for_decoupled_system():
    params = ModelParams(omega_a=1, omega_b=1, g=0.0, n_atoms=2)
    assert auto_nmax(params, 1, tol=1e-8) == 8


@pytest.mark.parametrize("tol", [0.0, -1e-8, float("nan")])
def test_auto_nmax_rejects_bad_tolerance(tol):
    with pytest.raises(ValueError):
        auto_nmax(ModelParams(omega_a=1, omega_b=1, g=0.5, n_atoms=2), 1, tol=tol)


def test_auto_nmax_regression_with_crw():
    params = ModelParams(omega_a=1, omega_b=1, g=2.0, g_prime=0.2, n_atoms=2)
    assert auto_nmax(params, 1, tol=1e-8) == 16
    assert auto_nmax(params, -1, tol=1e-8) == 14


def test_auto_nmax_tracks_condensate_occupation():
    params = ModelParams(omega_a=1, omega_b=1, g=5.0, n_atoms=2)
    occupation = saddle_point(params).lambda_a ** 2
    assert occupation > 8
    assert auto_nmax(params, 1, tol=1e-8) >= occupation


# n_max of the (even, odd) parity blocks at tol 1e-8 on resonance (g_c = 1),
# recorded when auto_nmax solved every compared truncation in full
_AUTO_NMAX_RATIOS = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0)
_AUTO_NMAX_TABLE = {
    (1, 0.0): [(8, 8), (8, 8), (8, 8), (8, 8), (8, 8), (8, 8), (8, 8), (8, 9)],
    (1, 0.01): [(8, 8), (8, 8), (8, 8), (8, 9), (10, 9), (10, 9), (12, 13), (14, 15)],
    (1, 0.05): [(8, 8), (8, 8), (8, 10), (10, 11), (12, 11), (14, 13), (16, 17), (22, 22)],
    (1, 0.2): [(8, 8), (10, 9), (12, 13), (14, 15), (18, 17), (20, 19), (26, 27), (34, 33)],
    (2, 0.0): [(8, 8), (8, 8), (8, 8), (8, 8), (8, 8), (8, 8), (10, 11), (16, 15)],
    (2, 0.01): [(8, 8), (8, 8), (8, 9), (10, 9), (10, 11), (14, 13), (18, 19), (26, 25)],
    (2, 0.05): [(8, 8), (8, 9), (10, 11), (13, 12), (14, 15), (18, 18), (26, 26), (34, 35)],
    (2, 0.2): [(8, 8), (11, 12), (14, 15), (19, 18), (23, 23), (28, 28), (38, 39), (50, 51)],
    (3, 0.0): [(8, 8), (8, 8), (8, 8), (8, 8), (8, 9), (10, 11), (16, 15), (22, 21)],
    (3, 0.01): [(8, 8), (8, 8), (8, 9), (10, 11), (14, 15), (16, 17), (26, 25), (34, 35)],
    (3, 0.05): [(8, 8), (9, 10), (10, 11), (14, 15), (18, 19), (24, 23), (34, 34), (46, 45)],
    (3, 0.2): [(8, 8), (12, 13), (17, 17), (23, 23), (29, 29), (35, 35), (49, 49), (66, 66)],
    (4, 0.0): [(8, 8), (8, 8), (8, 8), (8, 8), (10, 9), (12, 13), (20, 19), (28, 29)],
    (4, 0.01): [(8, 8), (8, 8), (10, 9), (14, 13), (16, 15), (20, 21), (32, 31), (44, 43)],
    (4, 0.05): [(8, 8), (9, 10), (13, 12), (18, 17), (22, 23), (28, 29), (41, 41), (56, 56)],
    (4, 0.2): [(8, 8), (13, 14), (19, 19), (26, 26), (34, 34), (42, 41), (59, 59), (80, 80)],
}


@pytest.mark.parametrize("n_atoms", [1, 2, 3, 4])
def test_auto_nmax_reproduces_the_recorded_table(n_atoms):
    for gp in (0.0, 0.01, 0.05, 0.2):
        found = [
            tuple(auto_nmax(ModelParams(g=r, g_prime=gp * r, n_atoms=n_atoms), parity) for parity in (1, -1))
            for r in _AUTO_NMAX_RATIOS
        ]
        assert found == _AUTO_NMAX_TABLE[(n_atoms, gp)], f"g'/g = {gp}"


# n_max of the (even, odd) parity blocks at tol 1e-8 off resonance and at
# g = 0, recorded beside _AUTO_NMAX_TABLE with the eigvalsh comparison:
# ("detuned" | "lambda_z-u", N, g'/g) at g = ratio * g_c of the template,
# ("g=0", N) at g' = ratio
_AUTO_NMAX_TEMPLATES = {"detuned": {"omega_a": 1.4, "omega_b": 0.7}, "lambda_z-u": {"lambda_z": 0.3, "u": -0.2}}
_AUTO_NMAX_WIDER_TABLE = {
    ("detuned", 1, 0.0): [(8, 8), (8, 8), (8, 8), (8, 8), (8, 8), (8, 8), (8, 8), (8, 8)],
    ("detuned", 1, 0.01): [(8, 8), (8, 8), (8, 8), (8, 8), (8, 9), (8, 9), (10, 9), (11, 11)],
    ("detuned", 1, 0.05): [(8, 8), (8, 8), (8, 8), (8, 9), (10, 11), (10, 11), (14, 13), (15, 15)],
    ("detuned", 1, 0.2): [(8, 8), (9, 8), (10, 9), (12, 13), (12, 14), (14, 15), (19, 19), (23, 23)],
    ("detuned", 2, 0.0): [(8, 8), (8, 8), (8, 8), (8, 8), (8, 8), (8, 8), (8, 8), (10, 9)],
    ("detuned", 2, 0.01): [(8, 8), (8, 8), (8, 8), (8, 9), (10, 9), (10, 9), (14, 13), (16, 15)],
    ("detuned", 2, 0.05): [(8, 8), (8, 8), (8, 9), (10, 11), (12, 11), (14, 13), (18, 17), (22, 23)],
    ("detuned", 2, 0.2): [(8, 8), (9, 9), (11, 13), (13, 14), (18, 17), (20, 20), (26, 27), (34, 34)],
    ("detuned", 3, 0.0): [(8, 8), (8, 8), (8, 8), (8, 8), (8, 8), (8, 8), (10, 9), (12, 13)],
    ("detuned", 3, 0.01): [(8, 8), (8, 8), (8, 8), (10, 9), (10, 11), (13, 12), (16, 15), (20, 21)],
    ("detuned", 3, 0.05): [(8, 8), (8, 8), (9, 10), (12, 11), (14, 15), (17, 16), (22, 22), (29, 29)],
    ("detuned", 3, 0.2): [(8, 8), (10, 10), (12, 13), (17, 16), (20, 21), (24, 25), (33, 33), (43, 43)],
    ("detuned", 4, 0.0): [(8, 8), (8, 8), (8, 8), (8, 8), (8, 8), (8, 9), (12, 11), (16, 17)],
    ("detuned", 4, 0.01): [(8, 8), (8, 8), (8, 9), (10, 9), (12, 11), (14, 15), (20, 19), (26, 27)],
    ("detuned", 4, 0.05): [(8, 8), (8, 9), (10, 10), (13, 12), (16, 15), (18, 19), (27, 27), (36, 35)],
    ("detuned", 4, 0.2): [(8, 8), (10, 11), (13, 14), (19, 19), (24, 24), (28, 29), (39, 39), (51, 51)],
    ("lambda_z-u", 1, 0.0): [(8, 8), (8, 8), (8, 8), (8, 8), (8, 8), (8, 8), (8, 8), (8, 9)],
    ("lambda_z-u", 1, 0.01): [(8, 8), (8, 8), (8, 9), (8, 9), (10, 9), (10, 9), (12, 13), (16, 15)],
    ("lambda_z-u", 1, 0.05): [(8, 8), (8, 8), (9, 10), (10, 11), (12, 11), (14, 13), (16, 17), (22, 23)],
    ("lambda_z-u", 1, 0.2): [(8, 8), (10, 9), (12, 13), (14, 15), (18, 17), (20, 19), (27, 27), (34, 35)],
    ("lambda_z-u", 2, 0.0): [(8, 8), (8, 8), (8, 8), (8, 8), (8, 8), (8, 8), (12, 11), (16, 15)],
    ("lambda_z-u", 2, 0.01): [(8, 8), (8, 8), (8, 9), (10, 9), (11, 11), (14, 13), (20, 19), (26, 27)],
    ("lambda_z-u", 2, 0.05): [(8, 8), (8, 9), (10, 11), (14, 13), (15, 16), (19, 19), (27, 27), (36, 35)],
    ("lambda_z-u", 2, 0.2): [(8, 8), (12, 13), (14, 15), (20, 19), (24, 24), (29, 29), (40, 40), (52, 53)],
    ("lambda_z-u", 3, 0.0): [(8, 8), (8, 8), (8, 8), (8, 8), (8, 9), (10, 11), (16, 15), (22, 23)],
    ("lambda_z-u", 3, 0.01): [(8, 8), (8, 9), (10, 9), (11, 11), (14, 15), (18, 18), (26, 27), (36, 37)],
    ("lambda_z-u", 3, 0.05): [(8, 8), (9, 10), (12, 11), (15, 15), (20, 20), (24, 25), (36, 35), (48, 47)],
    ("lambda_z-u", 3, 0.2): [(8, 8), (12, 13), (18, 17), (24, 24), (30, 30), (36, 37), (52, 51), (68, 69)],
    ("lambda_z-u", 4, 0.0): [(8, 8), (8, 8), (8, 8), (8, 8), (10, 11), (14, 13), (20, 21), (30, 29)],
    ("lambda_z-u", 4, 0.01): [(8, 8), (8, 9), (10, 9), (14, 13), (16, 17), (22, 21), (32, 33), (46, 45)],
    ("lambda_z-u", 4, 0.05): [(8, 8), (10, 11), (14, 13), (18, 19), (24, 23), (30, 29), (43, 43), (58, 59)],
    ("lambda_z-u", 4, 0.2): [(9, 9), (13, 14), (20, 20), (28, 27), (35, 35), (43, 43), (62, 62), (83, 83)],
    ("g=0", 1): [(8, 8), (8, 8), (8, 8), (8, 8), (8, 8), (8, 8), (8, 8), (9, 8)],
    ("g=0", 2): [(8, 8), (8, 8), (8, 8), (8, 8), (8, 8), (8, 8), (10, 11), (16, 15)],
    ("g=0", 3): [(8, 8), (8, 8), (8, 8), (8, 8), (9, 8), (11, 10), (15, 16), (21, 22)],
    ("g=0", 4): [(8, 8), (8, 8), (8, 8), (8, 9), (10, 11), (12, 13), (20, 19), (28, 29)],
}


@pytest.mark.parametrize("n_atoms", [1, 2, 3, 4])
def test_auto_nmax_reproduces_the_wider_table(n_atoms):
    for name, couplings in _AUTO_NMAX_TEMPLATES.items():
        template = ModelParams(n_atoms=n_atoms, **couplings)
        g_c = critical_coupling(template)
        for gp in (0.0, 0.01, 0.05, 0.2):
            found = [
                tuple(auto_nmax(replace(template, g=r * g_c, g_prime=gp * r * g_c), parity) for parity in (1, -1))
                for r in _AUTO_NMAX_RATIOS
            ]
            assert found == _AUTO_NMAX_WIDER_TABLE[(name, n_atoms, gp)], f"{name}, g'/g = {gp}"
    found = [
        tuple(auto_nmax(ModelParams(g_prime=r, n_atoms=n_atoms), parity) for parity in (1, -1))
        for r in _AUTO_NMAX_RATIOS
    ]
    assert found == _AUTO_NMAX_WIDER_TABLE[("g=0", n_atoms)]


def test_auto_nmax_rejects_a_bad_parity():
    with pytest.raises(ValueError, match="parity"):
        auto_nmax(ModelParams(g=1.0, g_prime=0.1, n_atoms=2), 0)


def _record_assemblies(monkeypatch):
    """Record the n_max of every ``parity_band`` that ``auto_nmax`` writes;
    a dense full H or a certified solve inside it fails the test."""
    sizes = []
    real = ed.parity_band

    def recording(params, n_max, parity):
        sizes.append(n_max)
        return real(params, n_max, parity)

    def refuse(name):
        def refused(*args, **kwargs):
            raise AssertionError(f"auto_nmax must not call {name}")

        return refused

    monkeypatch.setattr(ed, "parity_band", recording)
    for module in (ed, model):
        monkeypatch.setattr(module, "build_full_hamiltonian", refuse("build_full_hamiltonian"))
    monkeypatch.setattr(ed, "solve_full", refuse("solve_full"))
    return sizes


def test_auto_nmax_assembles_once_per_doubling_step(monkeypatch):
    sizes = _record_assemblies(monkeypatch)
    # n_max 80: the doubling compares 8, 16, 32, 64 and 128, each against 10 more
    assert auto_nmax(ModelParams(g=5.0, g_prime=1.0, n_atoms=4), 1) == 80
    assert sizes == [26, 42, 74, 138]


def test_auto_nmax_assembles_nothing_past_the_cap(monkeypatch):
    sizes = _record_assemblies(monkeypatch)
    monkeypatch.setattr(ed, "NMAX_CAP", 32)
    with pytest.raises(ed.TruncationError, match="cap of 32"):
        auto_nmax(ModelParams(g=5.0, g_prime=1.0, n_atoms=4), 1)
    assert max(sizes) == 32 + 10


def test_auto_nmax_holds_no_dense_matrix():
    # n_max 158: the last doubling step writes the band at 266, where the
    # dense full H alone would take 7 * 267 rows squared, 28 MB
    params = ModelParams(g=8.0, g_prime=0.4, n_atoms=6)
    tracemalloc.start()
    try:
        n_max = auto_nmax(params, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n_max == 158
    assert peak < 2e6


def _expand_band(ab, k):
    """Dense symmetric k x k matrix from the leading k columns of the lower
    band storage ``ab``, reading only entries inside that block."""
    h = np.zeros((k, k))
    for d in range(min(ab.shape[0], k)):
        h[np.arange(d, k), np.arange(k - d)] = ab[d, : k - d]
    return h + np.tril(h, -1).T


_BAND_COUPLINGS = [
    pytest.param({"g": 1.3, "g_prime": 0.4}, id="crw"),
    pytest.param({"g": 1.3}, id="no-crw"),
    pytest.param({"g_prime": 0.7}, id="crw-only"),
]


@pytest.mark.parametrize("n_atoms", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("couplings", _BAND_COUPLINGS)
def test_parity_band_expands_to_the_parity_block(n_atoms, couplings):
    for extra in ({}, {"lambda_z": 0.2, "u": -0.1}):
        params = ModelParams(omega_a=1.1, omega_b=0.9, n_atoms=n_atoms, **couplings, **extra)
        big = {parity: model.parity_band(params, 30, parity)[1] for parity in (1, -1)}
        for n in (1, 7, 12, 30):
            h = model.build_full_hamiltonian(params, n)
            for parity, block in zip((1, -1), model.parity_blocks(n_atoms, n)):
                idx, ab = model.parity_band(params, n, parity)
                assert np.array_equal(idx, block)
                assert ab.shape == ((n_atoms + 3) // 2 + 1, idx.size) and ab.flags.f_contiguous
                # bit for bit: the expansion holds exactly the entries of the dense block,
                # and storage past the end of each sub-diagonal stays zero
                assert _expand_band(ab, idx.size).tobytes() == h[np.ix_(idx, idx)].tobytes()
                assert not any(ab[d, idx.size - d :].any() for d in range(ab.shape[0]))
                # a smaller truncation is the leading block of a larger one
                assert np.array_equal(_expand_band(big[parity], idx.size), h[np.ix_(idx, idx)])


@pytest.mark.parametrize("n_atoms", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("couplings", _BAND_COUPLINGS)
def test_band_lowest_matches_dense_eigvalsh(n_atoms, couplings):
    for extra in ({}, {"lambda_z": 0.2, "u": -0.1}):
        params = ModelParams(omega_a=1.1, omega_b=0.9, n_atoms=n_atoms, **couplings, **extra)
        h = model.build_full_hamiltonian(params, 40)
        for parity in (1, -1):
            idx, ab = model.parity_band(params, 40, parity)
            for k in (1, 2, 3, 17, idx.size):
                dense = np.linalg.eigvalsh(h[np.ix_(idx[:k], idx[:k])])
                lowest = ed._band_lowest(ab, k)
                assert lowest.size == min(3, k)
                assert np.abs(lowest - dense[:3]).max() <= 1e-12 * max(1.0, np.abs(dense).max())


@pytest.mark.parametrize("n_atoms", [1, 2, 3, 5, 6])
@pytest.mark.parametrize("couplings", _BAND_COUPLINGS)
def test_band_lowest_ignores_storage_past_the_leading_columns(n_atoms, couplings):
    # auto_nmax compares a truncation in whichever doubling step it meets it
    params = ModelParams(omega_a=1.1, omega_b=0.9, lambda_z=0.2, u=-0.1, n_atoms=n_atoms, **couplings)
    for parity in (1, -1):
        storages = [model.parity_band(params, n_big, parity) for n_big in (26, 42)]
        for n in (8, 13, 16, 26):
            found = []
            for idx, ab in storages:
                k = int(np.searchsorted(idx, (n + 1) * (n_atoms + 1)))
                found.append([x.hex() for x in ed._band_lowest(ab, k).tolist()])
            assert found[0] == found[1], (parity, n)


def test_auto_nmax_raises_when_dsbevx_fails(monkeypatch):
    def failing(ab, *args, **kwargs):
        return np.zeros(ab.shape[1]), np.zeros((1, 1)), 0, np.zeros(1, dtype=np.int32), 2

    monkeypatch.setattr(ed, "dsbevx", failing)
    with pytest.raises(EigenError, match="info = 2"):
        auto_nmax(ModelParams(g=1.0, g_prime=0.1, n_atoms=2), 1)


def test_anomalous_demo_scan_writes_the_recorded_file(tmp_path):
    config = json.loads((Path(__file__).parents[1] / "demos" / "configs" / "crw_anomalous_n2.json").read_text())
    config["output_dir"] = str(tmp_path / "out")
    run_scan(parse_config(config))
    assert (tmp_path / "out" / "anomalous.csv").read_bytes() == (
        b"quantity,g,g_over_gc,p_star,ed_value,analytic_value,rel_deviation,near_qcp\n"
        b"anomalous,2.0,2.0,,1.2750456370158867,,,false\n"
    )


def test_groups_are_ordered_by_first_position():
    # n - s on the even block of N = 2, n_max = 3: labels 0, -2, 0, 2, 0, 2,
    # so sorting by label would put the group of -2 first
    even, _ = model.parity_blocks(2, 3)
    (rows, columns), inverse = model._full_layout(FullBasis(n_atoms=2, n_max=3)).chains[0]["n-s"]
    assert np.array_equal(rows.ravel(), even[[0, 2, 4, 1, 3, 5]])
    assert np.array_equal(columns.ravel(), rows.ravel())
    assert np.array_equal(inverse, [0, 3, 1, 4, 2, 5])


def _reference_parity_blocks(n_atoms, n_max):
    """``model.parity_blocks`` as it was before the ``_full_layout`` table:
    the index structure below is rebuilt on every call."""
    n, s = np.divmod(np.arange(FullBasis(n_atoms=n_atoms, n_max=n_max).dim), n_atoms + 1)
    odd = (n + s) % 2 == 1
    return np.nonzero(~odd)[0], np.nonzero(odd)[0]


def _reference_full_diagonals(params, n_max):
    """``model._full_diagonals`` with its own photon column and ``np.roll``."""
    N = params.n_atoms
    _, m, spin = model._sector_labels(N)
    n = np.arange(n_max + 1.0)[:, None]
    yield 0, model._diagonal(params, n, m).ravel()
    for offset, coupling, factor in ((N, params.g, np.roll(spin, 1)), (N + 2, params.g_prime, spin)):
        values = ((coupling / math.sqrt(N)) * factor) * np.sqrt(n + 1)
        yield offset, values.ravel()[: max(values.size - offset, 0)]


def _reference_band_pattern(n_atoms, n_max, parity):
    """The block's indices and, per offset N and N + 2, ``(i, band row, band
    column)`` of each coupling i <-> i + offset inside it, from a ``pos`` map."""
    idx = _reference_parity_blocks(n_atoms, n_max)[(1 - parity) // 2]
    dim = (n_atoms + 1) * (n_max + 1)
    pos = np.full(dim, -1)  # block position of each index, or -1
    pos[idx] = np.arange(idx.size)
    pattern = []
    for offset in (n_atoms, n_atoms + 2):
        size = max(dim - offset, 0)
        i = np.flatnonzero((pos[:size] >= 0) & (pos[offset:] >= 0))
        pattern.append((i, pos[i + offset] - pos[i], pos[i]))
    return idx, pattern


def _reference_parity_band(params, n_max, parity):
    idx, pattern = _reference_band_pattern(params.n_atoms, n_max, parity)
    ab = np.zeros(((params.n_atoms + 3) // 2 + 1, idx.size), order="F")
    diagonals = _reference_full_diagonals(params, n_max)
    ab[0] = next(diagonals)[1][idx]
    for (_, values), (i, row, column) in zip(diagonals, pattern):
        ab[row, column] = values[i]
    return idx, ab


def _reference_groups(labels):
    """Positions of equal labels, each group ascending, groups ordered by
    their first position."""
    order = np.argsort(labels, kind="stable")
    groups = np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)
    return sorted(groups, key=lambda group: group[0])


def _reference_chain_rows(params, n_max, parity):
    """The block's rows in the order ``solve_full`` solves them: chains of
    the n + s or n - s it conserves, else one chain of every row."""
    idx = _reference_parity_blocks(params.n_atoms, n_max)[(1 - parity) // 2]
    n, s = np.divmod(idx, params.n_atoms + 1)
    if params.g_prime == 0:
        conserved = n + s if params.g > 0 else idx
    elif params.g == 0:
        conserved = n - s
    else:
        return idx
    return idx[np.concatenate(_reference_groups(conserved))]


def _reference_solve_full(params, n_max, parity):
    rows = _reference_chain_rows(params, n_max, parity)
    h = model._dense(FullBasis(n_atoms=params.n_atoms, n_max=n_max).dim, _reference_full_diagonals(params, n_max))
    dec = eigh(h[np.ix_(rows, rows)])
    return np.sort(rows), dec.eigenvalues, dec.eigenvectors[np.argsort(rows)], dec.max_residual, dec.ortho_defect


def _reference_shift(idx_from, idx_to, stride):
    """a|n, s> = sqrt(n) |n - 1, s> from the ``idx_from`` block to the
    ``idx_to`` block, as a dense matrix."""
    return np.where(idx_to[:, None] == idx_from - stride, np.sqrt(idx_from // stride), 0.0)


def _reference_anomalous_weight(even, odd, stride):
    """``anomalous_weight`` from ``(indices, energies, amplitudes)`` of each
    block, through two dense shift matrices."""
    (idx_g, _, v_g), (idx_m, _, v_m) = (even, odd) if even[1][0] <= odd[1][0] else (odd, even)
    ground = v_g[:, 0]
    forward = v_m.T @ (_reference_shift(idx_g, idx_m, stride) @ ground)
    backward = (_reference_shift(idx_m, idx_g, stride) @ v_m).T @ ground
    return float(abs(np.dot(backward, forward)))


def _same_bits(got, expected):
    return got.dtype == expected.dtype and got.shape == expected.shape and got.tobytes() == expected.tobytes()


# g' = 0 < g, g = g' = 0, g = 0 < g' and both > 0: the four chain layouts of solve_full
_LAYOUT_COUPLINGS = [
    {"g": 1.3, "lambda_z": 0.2, "u": -0.1},
    {"omega_b": 1.3},
    {"g_prime": 0.7},
    {"g": 1.3, "g_prime": 0.4, "lambda_z": 0.2, "u": -0.1},
]


@pytest.mark.parametrize("n_atoms", [1, 2, 3, 4, 6])
@pytest.mark.parametrize("n_max", [0, 1, 2, 7, 26])
def test_full_layout_equals_the_per_call_construction(n_atoms, n_max):
    layout = model._full_layout(FullBasis(n_atoms=n_atoms, n_max=n_max))
    spin = model._sector_labels(n_atoms)[2]
    photons = np.arange(n_max + 1.0)[:, None]
    for got, expected in ((layout.n, photons), (layout.root, np.sqrt(photons + 1)), (layout.spin_prev, np.roll(spin, 1))):
        assert _same_bits(got, expected)
    blocks = _reference_parity_blocks(n_atoms, n_max)
    assert all(_same_bits(got, expected) for got, expected in zip(layout.blocks, blocks))
    assert all(_same_bits(got, expected) for got, expected in zip(model.parity_blocks(n_atoms, n_max), blocks))
    for parity in (1, -1):
        k = (1 - parity) // 2
        _, pattern = _reference_band_pattern(n_atoms, n_max, parity)
        for got, expected in zip(layout.band[k], pattern):
            assert all(_same_bits(g, e) for g, e in zip(got, expected))
        for couplings in _LAYOUT_COUPLINGS:
            params = ModelParams(n_atoms=n_atoms, **couplings)
            label = ("n+s" if params.g > 0 else None) if params.g_prime == 0 else ("n-s" if params.g == 0 else None)
            (rows, columns), inverse = layout.chains[k][label]
            expected = _reference_chain_rows(params, n_max, parity)
            assert _same_bits(rows.ravel(), expected) and _same_bits(columns.ravel(), expected)
            assert _same_bits(inverse, np.argsort(expected))
            for got, want in zip(model.parity_band(params, n_max, parity), _reference_parity_band(params, n_max, parity)):
                assert _same_bits(got, want) and got.flags.f_contiguous == want.flags.f_contiguous


@pytest.mark.parametrize("n_atoms", [1, 2, 3, 4, 6])
def test_full_basis_results_equal_the_per_call_construction(n_atoms, monkeypatch):
    for couplings in _LAYOUT_COUPLINGS:
        params = ModelParams(n_atoms=n_atoms, **couplings)
        for n_max in (1, 2, 7, 26):
            got = [solve_full(params, n_max, parity) for parity in (1, -1)]
            expected = [_reference_solve_full(params, n_max, parity) for parity in (1, -1)]
            for spec, ref in zip(got, expected):
                assert all(_same_bits(g, e) for g, e in zip((spec.indices, spec.energies, spec.amplitudes), ref[:3]))
                assert (spec.max_residual, spec.ortho_defect) == ref[3:]
            weight = _reference_anomalous_weight(*(ref[:3] for ref in expected), n_atoms + 1)
            assert anomalous_weight(*got).hex() == weight.hex()
        found = [auto_nmax(params, parity) for parity in (1, -1)]
        with monkeypatch.context() as patch:
            patch.setattr(ed, "parity_band", _reference_parity_band)
            assert found == [auto_nmax(params, parity) for parity in (1, -1)]


@pytest.mark.parametrize("n_atoms", [1, 2, 3, 4, 6])
def test_anomalous_weight_equals_the_dense_shift_reference_across_couplings(n_atoms):
    # the truncations auto_nmax picks, where the channel is open (g' > 0)
    for fields in ({}, {"omega_a": 1.3, "omega_b": 0.7}):
        template = ModelParams(n_atoms=n_atoms, **fields)
        for ratio in (0.5, 1.5, 3.0):
            g = ratio * critical_coupling(template)
            for gp_over_g in (0.01, 0.3):
                params = replace(template, g=g, g_prime=gp_over_g * g)
                n_max = max(auto_nmax(params, parity) for parity in (1, -1))
                blocks = [solve_full(params, n_max, parity) for parity in (1, -1)]
                weight = _reference_anomalous_weight(*((b.indices, b.energies, b.amplitudes) for b in blocks), n_atoms + 1)
                assert anomalous_weight(*blocks).hex() == weight.hex(), (fields, ratio, gp_over_g, n_max)


def test_callers_get_arrays_that_share_nothing_with_the_table():
    params = ModelParams(g=1.3, g_prime=0.4, n_atoms=3)

    def received():
        return [*model.parity_blocks(3, 7), *model.parity_band(params, 7, 1), solve_full(params, 7, -1).indices]

    expected = [array.copy() for array in received()]
    for array in received():
        array[...] = -7
    assert all(_same_bits(got, want) for got, want in zip(received(), expected))
    arrays = list(model._full_layout(FullBasis(n_atoms=3, n_max=7)))
    while arrays:
        item = arrays.pop()
        if isinstance(item, np.ndarray):
            assert not item.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                item[...] = 0
        else:
            arrays.extend(item.values() if isinstance(item, dict) else item)


def test_full_layout_table_stays_bounded_and_evicts_without_effect():
    params = ModelParams(g=1.1, g_prime=0.2, n_atoms=2)
    maxsize = model._full_layout.cache_info().maxsize
    assert maxsize == 32
    model._full_layout.cache_clear()
    sweep = range(1, maxsize + 9)

    def results():
        found = []
        for n_max in sweep:
            blocks = [solve_full(params, n_max, parity) for parity in (1, -1)]
            found.append([anomalous_weight(*blocks).hex(), *(b.amplitudes.tobytes() for b in blocks)])
            found.append(model.parity_band(params, n_max, -1)[1].tobytes())
            assert model._full_layout.cache_info().currsize <= maxsize
        return found

    first = results()
    assert model._full_layout.cache_info().currsize == maxsize
    assert results() == first  # every table rebuilt after eviction
    assert model._full_layout.cache_info().hits > 0


def test_certificates_travel_with_spectra():
    params = ModelParams(omega_a=1, omega_b=1, g=2.0, n_atoms=4)
    spec = solve_sector(params, 5)
    assert spec.max_residual <= 1e-8 * 10
    assert spec.ortho_defect <= 1e-10
    full = solve_full(params, 8, 1)
    assert full.max_residual <= 1e-8 * 10
    assert full.ortho_defect <= 1e-10


def _reference_p_max(params):
    """A generous sector range for the reference searches below: twice the
    condensate-based guess 4 lambda_a^2 + N + 4 that once sized the search."""
    return 2 * (math.ceil(4 * saddle_point(params).lambda_a**2) + params.n_atoms + 4)


def _ground_from_every_sector(params, p_max):
    """Reference: full certified solve of every sector 0..p_max, argmin of
    the ground energies with ties within 1e-12 going to the smaller P."""
    spectra = [solve_sector(params, p) for p in range(p_max + 1)]
    e0 = np.array([spec.energies[0] for spec in spectra])
    p_star = int(np.nonzero(e0 <= e0.min() + 1e-12)[0][0])
    assert p_star <= p_max - 2
    spec, spec_next = spectra[p_star], spectra[p_star + 1]
    e = spec.energies
    return (
        p_star,
        e[0],
        spec_next.energies[0] - e[0],
        e[1] - e[0] if e.size >= 2 else None,
        spec_next.energies[1] - e[0],
    )


EQUIVALENCE_TEMPLATES = [ModelParams(n_atoms=n) for n in (1, 2, 3, 5, 8)] + [
    ModelParams(omega_a=1.3, omega_b=0.7, n_atoms=3),
    ModelParams(lambda_z=0.3, n_atoms=4),
    ModelParams(u=0.2, n_atoms=4),
    ModelParams(omega_a=0.8, lambda_z=-0.2, u=-0.1, n_atoms=3),
]


@pytest.mark.parametrize(
    "template",
    EQUIVALENCE_TEMPLATES,
    ids=["N1", "N2", "N3", "N5", "N8", "N3-detuned", "N4-lambda_z", "N4-u", "N3-lambda_z-u"],
)
def test_solve_ground_matches_full_solve_of_every_sector(template):
    # g = 0 has diagonal sectors; g = g_c at N = 3 on resonance is an exact
    # tie between P = 0 and P = 1
    gc = critical_coupling(template)
    for ratio in (0.0, 0.5, 1.0, 1.7, 3.0):
        params = replace(template, g=ratio * gc)
        point = solve_ground(params).point
        got = (point.p_star, point.ground_energy, point.e_goldstone, point.e_higgs, point.e_optical)
        assert got == _ground_from_every_sector(params, _reference_p_max(params))


def _exhaustive_p_star(params, p_max):
    """Reference: bisect every sector 0..p_max, ties within 1e-12 going to
    the smaller P."""
    e0 = {}
    ed._bisect_lowest(params, range(p_max + 1), e0)
    e_min = min(e0.values())
    return min(p for p, e in e0.items() if e <= e_min + 1e-12)


@pytest.mark.parametrize(
    "template",
    EQUIVALENCE_TEMPLATES,
    ids=["N1", "N2", "N3", "N5", "N8", "N3-detuned", "N4-lambda_z", "N4-u", "N3-lambda_z-u"],
)
def test_screened_search_matches_exhaustive_bisection(template):
    # 65 couplings per template in steps of 0.05 g_c, so g = 0 and the
    # N = 3 tie at g_c are included
    gc = critical_coupling(template)
    for ratio in np.linspace(0, 3.2, 65).tolist():
        params = replace(template, g=ratio * gc)
        assert solve_ground(params).point.p_star == _exhaustive_p_star(params, _reference_p_max(params))


@pytest.mark.parametrize("lambda_z", [0.9, -0.9])
def test_screened_search_survives_a_poor_first_guess(lambda_z):
    # the saddle point ignores lambda_z, so the first bisected sector
    # ceil(lambda_+^2 - 1/2) is far from P*
    template = ModelParams(lambda_z=lambda_z, n_atoms=6)
    params = replace(template, g=3 * critical_coupling(template))
    guess = math.ceil(saddle_point(params).lambda_plus_sq - 0.5)
    p_star = solve_ground(params).point.p_star
    assert abs(p_star - guess) >= 7
    assert p_star == _exhaustive_p_star(params, _reference_p_max(params))


def test_screened_search_keeps_a_tied_sector_below_the_first_guess():
    # at the 6 -> 7 jump of the N = 5 staircase the first bisected sector
    # is 7; at the last coupling with P* = 6, E0(6) lies within the 1e-12
    # tie window above E0(7), and the screen must keep sector 6
    template = ModelParams(n_atoms=5)
    p_max = _reference_p_max(replace(template, g=2.1))
    lo, hi = 1.9, 2.1
    for _ in range(60):
        mid = (lo + hi) / 2
        if _exhaustive_p_star(replace(template, g=mid), p_max) == 6:
            lo = mid
        else:
            hi = mid
    params = replace(template, g=lo)
    assert math.ceil(saddle_point(params).lambda_plus_sq - 0.5) == 7
    assert solve_ground(params).point.p_star == 6


@pytest.mark.parametrize(
    "template",
    EQUIVALENCE_TEMPLATES + [ModelParams(lambda_z=0.9, n_atoms=6), ModelParams(lambda_z=-0.9, n_atoms=6)],
    ids=["N1", "N2", "N3", "N5", "N8", "N3-detuned", "N4-lambda_z", "N4-u", "N3-lambda_z-u",
         "N6-lambda_z+0.9", "N6-lambda_z-0.9"],
)
def test_sectors_past_the_search_stop_lie_above_the_best_energy(template):
    gc = critical_coupling(template)
    for ratio in (0.0, 0.5, 1.0, 1.7, 3.0):
        params = replace(template, g=ratio * gc)
        e0 = {}
        guess = math.ceil(saddle_point(params).lambda_plus_sq - 0.5)
        ed._bisect_lowest(params, [guess], e0)
        # the guessed sector's energy is at least the best one, so the first
        # x is at least E_best plus the tie window; the stop holds for any
        # x, and a higher x reaches further sectors
        for shift in (1e-12, 5.0, 50.0):
            x = e0[guess] + shift
            stop = ed._candidate_sectors(params, x)[1]
            ed._bisect_lowest(params, range(stop + 201), e0)
            assert all(e0[p] > x for p in range(stop + 1, stop + 201))


def _screen_norms(params):
    """``(kappa, A, B, K)`` of the screen: kappa = 16 (N + 1) eps, |d_s| <=
    A P + B and |e_s| <= K sqrt(P) on every sector P."""
    N = params.n_atoms
    s = np.arange(N + 1)
    k = params.g / math.sqrt(N) * np.sqrt((s + 1) * (N - s))
    return (
        16 * (N + 1) * np.finfo(float).eps,
        params.omega_a + abs(params.lambda_z),
        (params.omega_b + abs(params.u)) * N / 2,
        k.max(),
    )


def _dlaebz_screen(params, sectors, x):
    """Reference for the count of ``ed._candidate_sectors``: one Sturm count
    per sector in numpy, vectorized over P and looping over s, following
    LAPACK ``dlaebz``.  Pivots q_s = (d_s - e_{s-1}^2 / q_{s-1}) - y with
    the sector's own y = x + kappa (A P + B + 2 K sqrt(P) + |x|); a pivot
    smaller in magnitude than pivmin = safe-min max(1, K^2 P) is replaced
    by -pivmin, and a pivot <= 0 counts an eigenvalue <= y."""
    p = np.asarray(sectors, dtype=int)
    kappa, big_a, big_b, big_k = _screen_norms(params)
    e_max = big_k * np.sqrt(p)
    pivmin = np.finfo(float).tiny * np.maximum(1.0, e_max**2)
    y = x + kappa * (big_a * p + big_b + 2 * e_max + abs(x))
    # rows s of every sector, padded past its dimension with +inf on the
    # diagonal and 0 off it, so padded pivots are +inf and do not count
    diag = np.full((params.n_atoms + 1, p.size), np.inf)
    off = np.zeros((params.n_atoms + 1, p.size))
    for i, sector in enumerate(p.tolist()):
        d, e = sector_bands(params, sector)
        diag[: d.size, i], off[: e.size, i] = d, e
    reaching = np.zeros(p.size, dtype=bool)
    q = e2 = None
    for d, e in zip(diag, off):
        q = d - y if q is None else (d - e2 / q) - y
        q = np.where(np.abs(q) < pivmin, -pivmin, q)
        reaching |= q <= 0
        e2 = e * e
    return p[reaching].tolist()


@pytest.mark.parametrize(
    "template",
    EQUIVALENCE_TEMPLATES
    + [ModelParams(lambda_z=0.9, n_atoms=6), ModelParams(lambda_z=-0.9, n_atoms=6), ModelParams(n_atoms=200)],
    ids=["N1", "N2", "N3", "N5", "N8", "N3-detuned", "N4-lambda_z", "N4-u", "N3-lambda_z-u",
         "N6-lambda_z+0.9", "N6-lambda_z-0.9", "N200"],
)
def test_screen_matches_the_dlaebz_recurrence(template):
    # ratio 0 is g = 0, where every sector is diagonal
    gc = critical_coupling(template)
    for ratio in (0.0, 0.5, 1.0, 1.7, 2.0, 3.0):
        params = replace(template, g=ratio * gc)
        guess = math.ceil(saddle_point(params).lambda_plus_sq - 0.5)
        e0 = {}
        ed._bisect_lowest(params, [guess], e0)
        for shift in (1e-12, 0.3, 5.0):
            x = e0[guess] + shift
            reaching, stop = ed._candidate_sectors(params, x)
            assert reaching == _dlaebz_screen(params, range(stop + 1), x)


def test_sturm_count_survives_an_exactly_zero_pivot():
    # at g = 0 the off-diagonals vanish and the pivot of row s is d_s - y;
    # a count shifted exactly onto a diagonal entry makes that pivot 0, and
    # the next row divides 0 by it unless the dlaebz pivmin rule replaced it
    params = ModelParams(omega_b=1.3, n_atoms=3)
    diag = sector_bands(params, 4)[0]
    kappa, big_a, big_b, big_k = _screen_norms(params)
    assert big_k == 0.0
    # the screen's separable diagonal P a_s + (b_s - s a_s) of sector 4 is
    # bit-identical here: a_s = 1, b_s = 1.3 (s - 3/2)
    s = np.arange(4.0)
    a, b = np.ones(4), 1.3 * (s - 1.5)
    assert np.array_equal(4 * a + (b - s * a), diag)

    def shifted(x, p_stop):  # the y of the count over 0..P_stop, K = 0
        return x + kappa * (big_a * p_stop + big_b + abs(x))

    # row 1 is the zero pivot the recurrence must survive; on row 0, the
    # lowest eigenvalue of sector 4, only a y taken at P_stop = 5 keeps
    # sector 4
    for row in (1, 0):
        x = diag[row]
        p_stop = ed._candidate_sectors(params, x)[1]
        assert p_stop == 5
        while shifted(x, p_stop) > diag[row]:
            x = np.nextafter(x, -np.inf)
        assert shifted(x, p_stop) == diag[row]
        with np.errstate(divide="raise", invalid="raise"):
            assert ed._candidate_sectors(params, x) == ([0, 1, 2, 3, 4], p_stop)
    assert _dlaebz_screen(params, range(p_stop + 1), x) == [0, 1, 2, 3]  # its y for sector 4 is smaller


def _reference_candidate_sectors(params, x):
    """``ed._candidate_sectors`` as it was before its constant work was cut:
    every lambda_z and u term evaluated, eps from ``np.finfo`` and the
    sector map through ``np.unique``."""
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
    per_call = max(1, ed._BAND_BLOCK // (N + 1))
    reaching = []
    for start in range(0, p.size, per_call):
        chunk = p[start : start + per_call, np.newaxis]
        n = chunk - s
        diag = chunk * a + (b - s * a)
        diag[n < 0] = 2 * abs(y) + 1
        off = k * np.sqrt(np.maximum(n, 0.0))
        found, _, iblock, isplit, info = ed.dstebz(diag.ravel(), off.ravel()[:-1], 1, -np.inf, y, 0, 0, np.inf, "B")
        assert info == 0
        reaching.extend(chunk[np.unique((isplit[iblock[:found] - 1] - 1) // (N + 1)), 0].tolist())
    return reaching, p_stop


_SCREEN_TEMPLATES = {
    "resonant": {},
    "detuned": {"omega_a": 1.4, "omega_b": 0.7},
    "lambda_z-u": {"lambda_z": 0.3, "u": -0.2},
    "all": {"omega_a": 0.7, "omega_b": 1.3, "lambda_z": -0.4, "u": 0.1},
    "lambda_z-0.99": {"lambda_z": -0.99},
}


@pytest.mark.parametrize("n_atoms", [1, 2, 3, 5, 8, 20, 80, 200])
@pytest.mark.parametrize("template", list(_SCREEN_TEMPLATES))
def test_screen_equals_the_reference_implementation(template, n_atoms):
    # the lean screen skips zero lambda_z and u terms and forms its bands
    # from constants computed once; its sectors and stop are those of the
    # full evaluation.  lambda_z = -0.99 makes a_s = 0.01 at m = j, so the
    # stop grows to 10^4-10^5 sectors past g_c; its couplings above g_c
    # are left out to keep the test short.
    params0 = ModelParams(n_atoms=n_atoms, **_SCREEN_TEMPLATES[template])
    ratios = np.linspace(0, 3.5, 15).tolist()
    if template == "lambda_z-0.99":
        ratios = ratios[:5]
    gc = critical_coupling(params0)
    for ratio in ratios:
        params = replace(params0, g=ratio * gc)
        guess = math.ceil(saddle_point(params).lambda_plus_sq - 0.5)
        e0 = {}
        ed._bisect_lowest(params, [guess], e0)
        for shift in (1e-12, 0.05, 1.0):
            x = e0[guess] + shift
            assert ed._candidate_sectors(params, x) == _reference_candidate_sectors(params, x)


@pytest.mark.parametrize(
    "params",
    [
        ModelParams(lambda_z=-1.0, g=0.5, n_atoms=3),
        ModelParams(lambda_z=1.5, n_atoms=4),
        ModelParams(omega_a=0.5, lambda_z=0.5, u=0.1, g=1.0, n_atoms=1),
        ModelParams(lambda_z=-(1 - 8e-15), n_atoms=2),  # a_s > 0 but below kappa A
    ],
)
def test_screen_raises_as_the_reference_implementation(params):
    with pytest.raises(ValueError) as expected:
        _reference_candidate_sectors(params, 0.0)
    with pytest.raises(ValueError) as got:
        ed._candidate_sectors(params, 0.0)
    assert str(got.value) == str(expected.value)


def _single_qubit_energies(params, p):
    """Closed form of sector P at N = 1: the 2x2 block of |P, down> and
    |P - 1, up>, or the vacuum -omega_b/2."""
    if p == 0:
        return np.array([-params.omega_b / 2])
    root = math.sqrt(((params.omega_a - params.omega_b) / 2) ** 2 + params.g**2 * p)
    return params.omega_a * (p - 0.5) + np.array([-root, root])


@pytest.mark.parametrize("omega_a, omega_b", [(1.0, 1.0), (1.3, 0.7)], ids=["resonant", "detuned"])
def test_single_qubit_matches_the_closed_form(omega_a, omega_b):
    template = ModelParams(omega_a=omega_a, omega_b=omega_b, n_atoms=1)
    gc = critical_coupling(template)
    stars = set()
    for ratio in np.linspace(0.3, 8.05, 26).tolist():
        params = replace(template, g=ratio * gc)
        for p in range(40):
            expected = _single_qubit_energies(params, p)
            got = solve_sector(params, p).energies
            assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()
        lowest = np.array([_single_qubit_energies(params, p)[0] for p in range(80)])
        best, runner_up = np.sort(lowest)[:2]
        assert runner_up - best > 1e-9  # no near-tie on this grid
        p_star = int(np.argmin(lowest))
        assert solve_ground(params).point.p_star == p_star
        stars.add(p_star)
    assert len(stars) >= 8  # the grid climbs the staircase


@pytest.mark.parametrize("lambda_z", [-1.0, -1.5, 1.0])
def test_solve_ground_rejects_an_unbounded_hamiltonian(lambda_z):
    # a_s = omega_a + lambda_z m/j <= 0 at m = -j or m = +j: the energy
    # falls without bound as photons are added
    with pytest.raises(ValueError, match="unbounded"):
        solve_ground(ModelParams(lambda_z=lambda_z, g=0.5, n_atoms=3))


def test_sector_hamiltonian_is_dense_form_of_bands():
    params = ModelParams(omega_a=1.3, omega_b=0.7, g=1.1, lambda_z=0.2, u=-0.1, n_atoms=4)
    for p in (0, 2, 4, 7):  # P = 0, P < N, P = N, P > N
        diag, off = sector_bands(params, p)
        assert diag.shape == (min(p, 4) + 1,) and off.shape == (min(p, 4),)
        dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        assert np.array_equal(build_sector_hamiltonian(params, p), dense)


@pytest.mark.parametrize(
    "template, ratio, shift",
    [
        (ModelParams(omega_a=1.3, omega_b=0.7, lambda_z=0.2, u=-0.1, n_atoms=4), 1.7, 1e-12),
        (ModelParams(omega_a=4.0, omega_b=0.25, n_atoms=20), 0.5, 1e-12),
        (ModelParams(n_atoms=8), 0.0, 3.0),
        (ModelParams(n_atoms=200), 2.0, 5.0),
    ],
    ids=["N4-lambda_z-u", "N20-detuned-weak", "N8-g0", "N200"],
)
def test_screen_does_not_depend_on_blocking(monkeypatch, template, ratio, shift):
    params = replace(template, g=ratio * critical_coupling(template))
    guess = math.ceil(saddle_point(params).lambda_plus_sq - 0.5)
    e0 = {}
    ed._bisect_lowest(params, [guess], e0)
    for x in (e0[guess] + 1e-12, e0[guess] + shift):
        # the default lays every sector end to end in one dstebz call,
        # except at N = 200, whose 201-row sectors take several calls
        expected = ed._candidate_sectors(params, x)
        with monkeypatch.context() as patch:
            patch.setattr(ed, "_BAND_BLOCK", 1)  # one sector per call
            assert ed._candidate_sectors(params, x) == expected
        assert guess in expected[0]


def test_solve_ground_rejects_bisection_mismatch(monkeypatch):
    real = ed.dstebz

    def shifted(*args):
        m, w, iblock, isplit, info = real(*args)
        return m, w + 1e-3, iblock, isplit, info

    monkeypatch.setattr(ed, "dstebz", shifted)
    with pytest.raises(EigenError, match="bisection"):
        solve_ground(ModelParams(omega_a=1, omega_b=1, g=2.0, n_atoms=3))


@pytest.mark.parametrize(
    "template, ratio, p_star",
    [
        (ModelParams(n_atoms=200), 2.0, 263),
        # detuned and weak: the padding of sectors P < N would count if it
        # were not masked
        (ModelParams(omega_a=4.0, omega_b=0.25, n_atoms=20), 0.5, 0),
    ],
    ids=["N200", "N20-detuned-weak"],
)
def test_screen_bisects_a_handful_of_sectors(monkeypatch, template, ratio, p_star):
    bisected = []
    real = ed._bisect_lowest

    def recording(params, sectors, e0):
        bisected.extend(p for p in sectors if p not in e0)
        real(params, sectors, e0)

    screened = []
    real_screen = ed._candidate_sectors

    def screening(params, x):
        sectors, p_stop = real_screen(params, x)
        screened.append(p_stop + 1)
        return sectors, p_stop

    monkeypatch.setattr(ed, "_bisect_lowest", recording)
    monkeypatch.setattr(ed, "_candidate_sectors", screening)
    assert solve_ground(replace(template, g=ratio * critical_coupling(template))).point.p_star == p_star
    assert {p_star, p_star + 1} <= set(bisected) and len(bisected) <= 4
    # the proven stop stays near the staircase: 318 sectors for P* = 263
    assert screened[0] <= 1.25 * (p_star + 1) + template.n_atoms + 4


def test_solve_ground_large_n_is_certified():
    template = ModelParams(omega_a=1, omega_b=1, n_atoms=200)
    gs = solve_ground(replace(template, g=2 * critical_coupling(template)))
    assert gs.point.p_star == 263
    for spec in (gs.spectrum, gs.spectrum_next):
        assert spec.max_residual <= 1e-8 * max(1.0, np.abs(spec.energies).max())
        assert spec.ortho_defect <= 1e-10
    photon = photon_correlation(gs.spectrum, gs.spectrum_next)
    assert photon.total_weight() == pytest.approx(mean_photon_number(gs.spectrum) + 1, rel=1e-8)
    number = number_correlation(gs.spectrum)
    assert number.total_weight() == pytest.approx(photon_number_variance(gs.spectrum), rel=1e-8)
