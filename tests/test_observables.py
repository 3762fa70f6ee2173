import math
from dataclasses import replace

import numpy as np
import pytest

from dickelab.ed import auto_nmax, solve_full, solve_ground, solve_sector
from dickelab.model import ModelParams, SectorBasis
from dickelab import observables
from dickelab.ed import SectorSpectrum
from dickelab.observables import (
    DEGENERACY_RTOL,
    WEIGHT_CLAMP,
    CorrelationSpectrum,
    SpectralLine,
    anomalous_weight,
    evaluate_time_correlation,
    mandel_q,
    mean_photon_number,
    number_correlation,
    photon_correlation,
    photon_number_variance,
)
from dickelab.theory import critical_coupling

N3_G2 = ModelParams(omega_a=1, omega_b=1, g=2.0, n_atoms=3)


def _doublet(g=1.0):
    return solve_sector(ModelParams(omega_a=1, omega_b=1, g=g, n_atoms=1), 1)


def test_mean_photon_number_vacuum():
    spec = solve_sector(ModelParams(omega_a=1, omega_b=1, g=1.0, n_atoms=2), 0)
    assert mean_photon_number(spec) == 0.0


def test_mean_photon_number_equal_weight_doublet():
    for g in (0.2, 1.0, 3.0):
        assert mean_photon_number(_doublet(g)) == pytest.approx(0.5, abs=1e-12)


def test_mean_photon_number_tracks_condensate():
    gs = solve_ground(N3_G2)
    assert mean_photon_number(gs.spectrum) == pytest.approx(45 / 16, rel=0.10)


def test_photon_correlation_sum_rule_exact():
    for n, g in [(2, 1.6), (4, 2.2), (5, 3.0)]:
        gs = solve_ground(ModelParams(omega_a=1, omega_b=1, g=g, n_atoms=n))
        cs = photon_correlation(gs.spectrum, gs.spectrum_next)
        assert cs.total_weight() == pytest.approx(mean_photon_number(gs.spectrum) + 1, abs=1e-8)


def test_photon_correlation_from_vacuum():
    params = ModelParams(omega_a=1, omega_b=1, g=0.7, n_atoms=1)
    cs = photon_correlation(solve_sector(params, 0), solve_sector(params, 1))
    assert cs.total_weight() == pytest.approx(1.0, abs=1e-12)
    assert [line.role for line in cs.lines] == ["goldstone", "optical"]
    assert all(line.weight >= 0 for line in cs.lines)


def test_photon_correlation_sector_mismatch():
    params = ModelParams(omega_a=1, omega_b=1, g=1.0, n_atoms=2)
    with pytest.raises(ValueError):
        photon_correlation(solve_sector(params, 1), solve_sector(params, 3))


def test_photon_correlation_goldstone_weight_near_analytic():
    gs = solve_ground(N3_G2)
    cs = photon_correlation(gs.spectrum, gs.spectrum_next)
    weights = {line.role: line.weight for line in cs.lines}
    assert weights["goldstone"] == pytest.approx(3.6657689226444353, rel=0.15)


@pytest.mark.xfail(
    strict=True,
    reason="finite-size deviation of the optical weight at N=3 exceeds the 15% band "
    "(measured ~31% at g = 2 g_c); acceptance criterion 7 asserts that it decays as 1/N "
    "with an N -> infinity intercept inside the band",
)
def test_photon_correlation_optical_weight_within_band():
    gs = solve_ground(N3_G2)
    cs = photon_correlation(gs.spectrum, gs.spectrum_next)
    weights = {line.role: line.weight for line in cs.lines}
    assert weights["optical"] == pytest.approx(0.12206002472398580, rel=0.15)


def test_number_correlation_doublet_line():
    for g in (0.5, 1.0, 2.0):
        cs = number_correlation(_doublet(g))
        assert len(cs.lines) == 1
        assert cs.lines[0].energy == pytest.approx(2 * g, abs=1e-12)
        assert cs.lines[0].weight == pytest.approx(0.25, abs=1e-12)
        assert cs.lines[0].role == "higgs"


def test_number_correlation_sum_rule_exact():
    for n, g in [(2, 1.6), (4, 2.2), (5, 3.0)]:
        gs = solve_ground(ModelParams(omega_a=1, omega_b=1, g=g, n_atoms=n))
        cs = number_correlation(gs.spectrum)
        assert cs.total_weight() == pytest.approx(photon_number_variance(gs.spectrum), abs=1e-8)


def test_number_correlation_rejects_vacuum():
    spec = solve_sector(ModelParams(omega_a=1, omega_b=1, g=1.0, n_atoms=2), 0)
    with pytest.raises(ValueError):
        number_correlation(spec)


def test_number_correlation_higgs_values_near_analytic():
    gs = solve_ground(N3_G2)
    cs = number_correlation(gs.spectrum)
    assert cs.lines[0].energy == pytest.approx(math.sqrt(19), rel=0.10)
    assert cs.lines[0].weight == pytest.approx(0.64523175151095497, rel=0.10)


def test_degenerate_cluster_weights_are_rotation_stable():
    # two degenerate excited levels: the summed cluster weight must not
    # depend on the arbitrary eigenvector rotation inside the cluster
    basis = SectorBasis(p=2, n_atoms=2)
    energies = np.array([0.0, 1.0, 1.0])
    base_vecs = np.linalg.qr(np.array([[1.0, 0.3, 0.1], [0.2, 1.0, 0.0], [0.1, 0.2, 1.0]]))[0]
    weights = []
    for angle in (0.0, 0.4, 1.2):
        rot = np.eye(3)
        rot[1:, 1:] = [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]]
        spec = SectorSpectrum(
            basis=basis, energies=energies, amplitudes=base_vecs @ rot,
            max_residual=0.0, ortho_defect=0.0,
        )
        cs = number_correlation(spec)
        assert len(cs.lines) == 1  # merged cluster
        weights.append(cs.lines[0].weight)
    assert np.ptp(weights) <= 1e-12


def test_mandel_q_fock_state():
    basis = SectorBasis(p=3, n_atoms=2)
    amplitudes = np.eye(3)
    spec = SectorSpectrum(
        basis=basis, energies=np.array([0.0, 1.0, 2.0]), amplitudes=amplitudes,
        max_residual=0.0, ortho_defect=0.0,
    )
    assert mandel_q(spec) == pytest.approx(-1.0, abs=1e-14)


def test_mandel_q_doublet():
    assert mandel_q(_doublet()) == pytest.approx(-0.5, abs=1e-12)


def test_mandel_q_near_analytic():
    gs = solve_ground(N3_G2)
    assert mandel_q(gs.spectrum) == pytest.approx(-0.77058426612943823, abs=0.05)


def test_mandel_q_undefined_for_vacuum():
    spec = solve_sector(ModelParams(omega_a=1, omega_b=1, g=1.0, n_atoms=2), 0)
    with pytest.raises(ValueError):
        mandel_q(spec)


@pytest.mark.parametrize("ratio", [1.5, 2.0, 3.0, 4.0])
def test_mandel_q_number_squeezing_band(ratio):
    gs = solve_ground(replace(N3_G2, g=ratio))
    q = mandel_q(gs.spectrum)
    assert -1 < q < -0.5


def test_resonance_observables_are_steps_of_p_star():
    # at resonance every sector diagonal is the constant omega (P - N/2),
    # so eigenvectors, and with them Q_M and the spectral weights, depend
    # only on the ground sector, not on g inside a tooth
    a = solve_ground(replace(N3_G2, g=2.25))
    b = solve_ground(replace(N3_G2, g=2.35))
    assert a.point.p_star == b.point.p_star
    assert mandel_q(a.spectrum) == pytest.approx(mandel_q(b.spectrum), abs=1e-12)
    wa = {l.role: l.weight for l in photon_correlation(a.spectrum, a.spectrum_next).lines}
    wb = {l.role: l.weight for l in photon_correlation(b.spectrum, b.spectrum_next).lines}
    assert wa["goldstone"] == pytest.approx(wb["goldstone"], abs=1e-12)
    assert wa["optical"] == pytest.approx(wb["optical"], abs=1e-12)
    # off resonance the diagonal varies with s and the constancy is lost
    oa = solve_ground(ModelParams(omega_a=1.3, omega_b=0.8, g=2.2, n_atoms=3))
    ob = solve_ground(ModelParams(omega_a=1.3, omega_b=0.8, g=2.3, n_atoms=3))
    assert oa.point.p_star == ob.point.p_star
    assert abs(mandel_q(oa.spectrum) - mandel_q(ob.spectrum)) > 1e-6


def test_anomalous_weight_vanishes_exactly_without_crw():
    params = ModelParams(omega_a=1, omega_b=1, g=2.0, g_prime=0.0, n_atoms=2)
    w = anomalous_weight(solve_full(params, 30, 1), solve_full(params, 30, -1))
    assert w == 0.0


def test_anomalous_weight_positive_with_crw():
    params = ModelParams(omega_a=1, omega_b=1, g=2.0, g_prime=0.08, n_atoms=2)
    w = anomalous_weight(solve_full(params, 30, 1), solve_full(params, 30, -1))
    assert w > 0


def test_anomalous_weight_validates_blocks():
    params = ModelParams(omega_a=1, omega_b=1, g=2.0, g_prime=0.1, n_atoms=2)
    even = solve_full(params, 20, 1)
    odd = solve_full(params, 20, -1)
    with pytest.raises(ValueError):
        anomalous_weight(odd, even)
    other = solve_full(params, 22, -1)
    with pytest.raises(ValueError):
        anomalous_weight(even, other)

# Anomalous weights recorded with the full-basis couplings formed in the
# order of the sector bands, ((g/sqrt(N)) spin) sqrt(n+1); every weight
# must match to the last bit.  The golden scan file covers N = 2 only.
# (N, template, g/g_c, g'/g, n_max, weight as float hex)
ANOMALOUS_WEIGHTS = [
    (1, "resonant", 0.5, 0.01, 8, "0x1.767db0366a0a3p-10"),
    (1, "resonant", 0.5, 0.2, 8, "0x1.d3e4121420e4bp-6"),
    (1, "resonant", 1.5, 0.01, 8, "0x1.657abdede7e8dp-6"),
    (1, "resonant", 1.5, 0.2, 13, "0x1.c3636b6a80665p-2"),
    (1, "resonant", 3.0, 0.01, 10, "0x1.48f45dbb42a56p-2"),
    (1, "resonant", 3.0, 0.2, 20, "0x1.737e6e507fd2fp+1"),
    (1, "detuned", 0.5, 0.01, 8, "0x1.f6bd6f5a309a8p-11"),
    (1, "detuned", 0.5, 0.2, 8, "0x1.39bbe3207f20bp-6"),
    (1, "detuned", 1.5, 0.01, 8, "0x1.5ec7b88987865p-7"),
    (1, "detuned", 1.5, 0.2, 10, "0x1.bca444b01a11bp-3"),
    (1, "detuned", 3.0, 0.01, 9, "0x1.269f5323dae66p-4"),
    (1, "detuned", 3.0, 0.2, 15, "0x1.435c8bdb2dc35p+0"),
    (3, "resonant", 0.5, 0.01, 8, "0x1.9ded2b04d9b0cp-10"),
    (3, "resonant", 0.5, 0.2, 8, "0x1.066d8a8c065ccp-5"),
    (3, "resonant", 1.5, 0.01, 9, "0x1.e3a48cadd45b5p-3"),
    (3, "resonant", 1.5, 0.2, 17, "0x1.0a4f002f50516p+1"),
    (3, "resonant", 3.0, 0.01, 17, "0x1.139f4c63d1ba0p+2"),
    (3, "resonant", 3.0, 0.2, 35, "0x1.2d4692e395ba4p+3"),
    (3, "detuned", 0.5, 0.01, 8, "0x1.1d3e3fb6ecb7cp-10"),
    (3, "detuned", 0.5, 0.2, 8, "0x1.68ed779432d78p-6"),
    (3, "detuned", 1.5, 0.01, 8, "0x1.18a6658bd9d70p-4"),
    (3, "detuned", 1.5, 0.2, 13, "0x1.0b8cf45abbca5p+0"),
    (3, "detuned", 3.0, 0.01, 13, "0x1.2021e8894d700p+0"),
    (3, "detuned", 3.0, 0.2, 26, "0x1.3d42b069004e9p+2"),
    (4, "resonant", 0.5, 0.01, 8, "0x1.a372d7f130b45p-10"),
    (4, "resonant", 0.5, 0.2, 8, "0x1.0abd4b6d5c032p-5"),
    (4, "resonant", 1.5, 0.01, 10, "0x1.8ead1fb266c6dp-2"),
    (4, "resonant", 1.5, 0.2, 19, "0x1.69e1b03dabd74p+1"),
    (4, "resonant", 3.0, 0.01, 21, "0x1.ae7e403fb5c73p+2"),
    (4, "resonant", 3.0, 0.2, 42, "0x1.948348b2d0ddcp+3"),
    (4, "detuned", 0.5, 0.01, 8, "0x1.22218b134b0f7p-10"),
    (4, "detuned", 0.5, 0.2, 8, "0x1.70472f9979fb7p-6"),
    (4, "detuned", 1.5, 0.01, 9, "0x1.46cb229dde0ecp-3"),
    (4, "detuned", 1.5, 0.2, 15, "0x1.7d00f14780e6ap+0"),
    (4, "detuned", 3.0, 0.01, 15, "0x1.30753ef942345p+1"),
    (4, "detuned", 3.0, 0.2, 30, "0x1.ace4a4155ed82p+2"),
]


def test_anomalous_weight_matches_the_recorded_bits():
    templates = {"resonant": {}, "detuned": {"omega_a": 1.3, "omega_b": 0.7}}
    for n_atoms, tag, ratio, gp_over_g, n_max, weight in ANOMALOUS_WEIGHTS:
        template = ModelParams(n_atoms=n_atoms, **templates[tag])
        g = ratio * critical_coupling(template)
        params = replace(template, g=g, g_prime=gp_over_g * g)
        assert max(auto_nmax(params, parity) for parity in (1, -1)) == n_max
        got = anomalous_weight(solve_full(params, n_max, 1), solve_full(params, n_max, -1))
        assert got.hex() == weight, (n_atoms, tag, ratio, gp_over_g)


def test_evaluate_time_correlation():
    cs = CorrelationSpectrum(
        kind="photon",
        lines=(SpectralLine(energy=1.0, weight=2.0, role="goldstone"),),
        p_from=0, p_to=1,
    )
    assert evaluate_time_correlation(cs, [0.0]) == [pytest.approx(2.0)]
    assert evaluate_time_correlation(cs, [math.log(2)]) == [pytest.approx(1.0, abs=1e-14)]
    for bad in (-0.1, math.nan):
        with pytest.raises(ValueError):
            evaluate_time_correlation(cs, [bad])


@pytest.mark.parametrize("taus", [0.5, [[0.5]], [[0.0, 1.0]]], ids=["scalar", "nested", "row"])
def test_evaluate_time_correlation_needs_a_1d_sequence(taus):
    cs = CorrelationSpectrum(
        kind="photon",
        lines=(SpectralLine(energy=1.0, weight=2.0, role="goldstone"),),
        p_from=0, p_to=1,
    )
    with pytest.raises(ValueError, match="1-d"):
        evaluate_time_correlation(cs, taus)
    assert evaluate_time_correlation(cs, []) == []


def test_time_correlation_long_time_dominated_by_lowest_line():
    gs = solve_ground(N3_G2)
    cs = photon_correlation(gs.spectrum, gs.spectrum_next)
    tau = 80.0
    total = evaluate_time_correlation(cs, [tau])[0]
    lowest = cs.lines[0]
    assert total == pytest.approx(lowest.weight * math.exp(-lowest.energy * tau), rel=1e-6)


def _cluster_lines_loop(energies, weights, roles, kind, p_from, p_to):
    """Reference for ``observables._cluster_lines``: the line-by-line merge
    it replaced.  A line joins the cluster of the line below while their
    gap is below DEGENERACY_RTOL * max(1, max |E|); each cluster takes the
    slice mean of its energies and the slice sum of its weights."""
    scale = max(float(np.abs(energies).max()) if energies.size else 0.0, 1.0)
    lines = []
    i = 0
    while i < energies.size:
        k = i + 1
        while k < energies.size and energies[k] - energies[k - 1] < DEGENERACY_RTOL * scale:
            k += 1
        w = float(weights[i:k].sum())
        lines.append(SpectralLine(
            energy=float(energies[i:k].mean()), weight=0.0 if w < WEIGHT_CLAMP else w, role=roles[i],
        ))
        i = k
    return CorrelationSpectrum(kind=kind, lines=tuple(lines), p_from=p_from, p_to=p_to)


def _hex_lines(cs):
    return cs.kind, cs.p_from, cs.p_to, [(line.energy.hex(), line.weight.hex(), line.role) for line in cs.lines]


_cluster_lines = observables._cluster_lines  # not the recording wrapper of cluster_inputs


def _assert_clusters_match_the_loop(args):
    got = _cluster_lines(*args)
    assert _hex_lines(got) == _hex_lines(_cluster_lines_loop(*args))
    return got


@pytest.fixture
def cluster_inputs(monkeypatch):
    """The arguments of every ``_cluster_lines`` call made while it is in use."""
    calls = []

    def recording(*args):
        calls.append(args)
        return _cluster_lines(*args)

    monkeypatch.setattr(observables, "_cluster_lines", recording)
    return calls


def test_cluster_lines_match_the_loop_on_ground_state_lines(cluster_inputs):
    for n in (1, 2, 3, 5, 8, 20):
        template = ModelParams(n_atoms=n)
        for ratio in (0.0, 0.5, 1.0, 1.2, 2.0, 3.0):
            gs = solve_ground(replace(template, g=ratio * critical_coupling(template)))
            photon_correlation(gs.spectrum, gs.spectrum_next)
            if gs.spectrum.basis.dim > 1:
                number_correlation(gs.spectrum)
    assert len(cluster_inputs) == 54
    for args in cluster_inputs:
        _assert_clusters_match_the_loop(args)


def test_cluster_lines_match_the_loop_on_a_fully_degenerate_sector(cluster_inputs):
    # g = 0 on resonance: every state of a sector P >= N has energy P - N/2
    params = ModelParams(n_atoms=8)
    photon = photon_correlation(solve_sector(params, 8), solve_sector(params, 9))
    number_correlation(solve_sector(params, 8))
    photon_args, number_args = cluster_inputs
    assert photon_args[0].size == 9 and len(photon.lines) == 1
    assert photon.lines[0].role == "goldstone"
    assert len(_assert_clusters_match_the_loop(number_args).lines) == 1
    _assert_clusters_match_the_loop(photon_args)


def _synthetic(energies, weights):
    energies, weights = np.array(energies, dtype=float), np.array(weights, dtype=float)
    roles = ["goldstone", "optical"] + ["other"] * (energies.size - 2)
    return energies, weights, roles[: energies.size], "photon", 3, 4


@pytest.mark.parametrize("energies, weights, n_lines", [
    # a gap exactly at the window starts a cluster; one ulp below it does not
    # (the window is DEGENERACY_RTOL * max(1, max |E|))
    ([0.0, DEGENERACY_RTOL, 0.5], [0.5, 0.25, 0.25], 3),
    ([0.0, np.nextafter(DEGENERACY_RTOL, 0), 0.5], [0.5, 0.25, 0.25], 2),
    ([-4.0, 0.0, 4 * DEGENERACY_RTOL], [0.5, 0.25, 0.25], 3),
    ([-4.0, 0.0, np.nextafter(4 * DEGENERACY_RTOL, 0)], [0.5, 0.25, 0.25], 2),
    # the slice sum gives 1.0 here, a left-to-right reduceat 1 + 2**-52
    ([2.0, 2.0, 2.0], [1.0, 1e-16, 1e-16], 1),
    ([0.0, 1.0, 1.0, 1.0], [0.3, 1.0, 1e-16, 1e-16], 2),
    # weights at, below and summed across the clamp
    ([0.0, 1.0, 2.0], [WEIGHT_CLAMP, np.nextafter(WEIGHT_CLAMP, 0), 0.0], 3),
    ([0.0, 1.0, 1.0], [0.5, 0.6 * WEIGHT_CLAMP, 0.6 * WEIGHT_CLAMP], 2),
    # a NaN gap starts a cluster; -0.0 comes out as numpy's one-line mean 0.0
    ([0.0, np.nan, 1.0], [0.5, 0.25, 0.25], 3),
    ([-0.0, 1.0], [0.5, 0.5], 2),
    ([-0.0, -0.0], [0.5, 0.5], 1),
    ([1.5], [2.0], 1),
    ([], [], 0),
])
def test_cluster_lines_match_the_loop_on_synthetic_lines(energies, weights, n_lines):
    got = _assert_clusters_match_the_loop(_synthetic(energies, weights))
    assert len(got.lines) == n_lines
