import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dickelab import theory
from dickelab.ed import ground_state_scan, solve_ground
from dickelab.model import ModelParams
from dickelab.theory import (
    EffectiveTheory,
    NormalPhaseError,
    critical_coupling,
    effective_theory,
    goldstone_envelope,
    landau_energy,
    predictions,
    saddle_point,
)

N3_G2 = ModelParams(omega_a=1, omega_b=1, g=2.0, n_atoms=3)

# frozen closed-form values at N=3, resonance, g=2 (exact radicals
# evaluated independently): E_H = sqrt(19), D = 8/57, D- = 19/45,
# gamma = -15/19, lambda_+^2 = 63/16, alpha = -1/16
SQRT19 = math.sqrt(19)


def test_saddle_point_at_threshold_vanishes():
    params = ModelParams(omega_a=1, omega_b=1, g=1.0, n_atoms=3)
    sp = saddle_point(params)
    assert not sp.superradiant
    assert sp.mu == pytest.approx(1.0)
    assert sp.lambda_a == 0.0 and sp.lambda_b == 0.0


def test_saddle_point_closed_form_values():
    sp = saddle_point(N3_G2)
    assert sp.superradiant
    assert sp.mu == pytest.approx(0.25, abs=1e-15)
    assert sp.lambda_a**2 == pytest.approx(45 / 16, abs=1e-13)
    assert sp.lambda_b**2 == pytest.approx(9 / 8, abs=1e-13)
    assert sp.lambda_plus_sq == pytest.approx(63 / 16, abs=1e-13)
    assert sp.lambda_minus_sq == pytest.approx(45 / 16 - 9 / 8, abs=1e-13)


def test_saddle_point_occupation_scales_linearly_with_n():
    small = saddle_point(ModelParams(omega_a=1, omega_b=1, g=2.0, n_atoms=2))
    large = saddle_point(ModelParams(omega_a=1, omega_b=1, g=2.0, n_atoms=8))
    assert large.lambda_a**2 == pytest.approx(4 * small.lambda_a**2, rel=1e-12)


def test_saddle_point_zero_coupling():
    sp = saddle_point(ModelParams(omega_a=1, omega_b=1, g=0.0, n_atoms=2))
    assert not sp.superradiant
    assert math.isinf(sp.mu)


@pytest.mark.parametrize("g, g_prime", [(1e-300, 0.0), (1e-170, 1e-170), (5e-324, 0.0)])
def test_saddle_point_underflowing_coupling_is_the_normal_phase(g, g_prime):
    # (g + g')^2 underflows to 0.0 although g + g' > 0
    params = ModelParams(omega_a=1, omega_b=1, g=g, g_prime=g_prime, n_atoms=2)
    sp = saddle_point(params)
    assert not sp.superradiant and math.isinf(sp.mu) and sp.lambda_plus_sq == 0.0
    if g_prime == 0:
        assert solve_ground(params).point.p_star == 0
        assert [pt.p_star for pt in ground_state_scan(params, [g, 0.5])] == [0, 0]


def test_effective_theory_frozen_constants():
    th = effective_theory(N3_G2)
    assert th.e_higgs == pytest.approx(SQRT19, abs=1e-13)
    assert th.d == pytest.approx(8 / 57, abs=1e-15)
    assert th.d_minus == pytest.approx(19 / 45, abs=1e-14)
    assert th.gamma == pytest.approx(-15 / 19, abs=1e-14)
    assert th.p_nearest == 4
    assert th.alpha == pytest.approx(-1 / 16, abs=1e-13)


def test_effective_theory_normal_phase_raises():
    with pytest.raises(NormalPhaseError):
        effective_theory(ModelParams(omega_a=1, omega_b=1, g=0.9, n_atoms=3))


def test_phase_diffusion_scales_as_inverse_n():
    # lambda_a^2/N is N-independent, so D*N must be constant
    ds = []
    for n in (2, 4, 16, 64):
        th = effective_theory(ModelParams(omega_a=1, omega_b=1, g=2.0, n_atoms=n))
        ds.append(th.d * n)
    assert np.ptp(ds) <= 1e-12


def test_alpha_convention_across_half_integer():
    # lambda_+^2 grows continuously with g; alpha flips sign at the crossing
    params = ModelParams(omega_a=1, omega_b=1, g=2.0, n_atoms=3)
    lo, hi = 2.0, 2.4
    for _ in range(30):
        mid = (lo + hi) / 2
        if saddle_point(replace(params, g=mid)).lambda_plus_sq < 4.5:
            lo = mid
        else:
            hi = mid
    assert effective_theory(replace(params, g=lo)).alpha == pytest.approx(0.5, abs=1e-6)
    assert effective_theory(replace(params, g=hi)).alpha == pytest.approx(-0.5, abs=1e-6)
    assert effective_theory(replace(params, g=lo)).p_nearest + 1 == effective_theory(
        replace(params, g=hi)
    ).p_nearest


def test_landau_energy_basic():
    th = EffectiveTheory(d=0.1, d_minus=1.0, gamma=0.0, alpha=0.0, p_nearest=0, e_higgs=2.0)
    assert landau_energy(th, 0, 0) == pytest.approx(1.0, abs=1e-15)
    assert landau_energy(th, 0, 1) == landau_energy(th, 0, -1)
    with pytest.raises(ValueError):
        landau_energy(th, -1, 0)


def test_landau_energy_frozen_value():
    th = effective_theory(N3_G2)
    # sqrt(19)/2 + 1/3648
    assert landau_energy(th, 0, 0) == pytest.approx(2.1797235945773543, abs=1e-13)


def test_predictions_frozen_values():
    pr = predictions(N3_G2)
    assert pr.e_goldstone == pytest.approx(3 / 38, abs=1e-15)
    assert pr.e_higgs == pytest.approx(SQRT19, abs=1e-13)
    assert pr.e_optical == pytest.approx(SQRT19 + 3 / 38, abs=1e-13)
    assert pr.c_optical == pytest.approx(0.12206002472398580, abs=1e-14)
    assert pr.c_goldstone == pytest.approx(3.6657689226444353, abs=1e-13)
    assert pr.c_higgs == pytest.approx(0.64523175151095497, abs=1e-14)
    assert pr.mandel_q == pytest.approx(-0.77058426612943823, abs=1e-14)
    assert pr.delta_pg == 0.0
    assert pr.delta_crw == 0.0


@settings(max_examples=60, deadline=None)
@given(
    g=st.floats(1.05, 6.0),
    wa=st.floats(0.5, 2.0),
    wb=st.floats(0.5, 2.0),
    n=st.integers(1, 12),
)
def test_optical_identity_everywhere(g, wa, wb, n):
    params = ModelParams(omega_a=wa, omega_b=wb, g=g * math.sqrt(wa * wb), n_atoms=n)
    pr = predictions(params)
    assert pr.e_optical == pr.e_higgs + pr.e_goldstone
    assert pr.c_optical > 0
    assert pr.c_higgs > 0


@pytest.mark.parametrize("g", np.linspace(1.01, 8.0, 25).tolist())
def test_mandel_band_on_resonance(g):
    pr = predictions(ModelParams(omega_a=1, omega_b=1, g=g, n_atoms=3))
    assert -1 < pr.mandel_q < -0.5


def test_mandel_approaches_fock_limit():
    pr = predictions(ModelParams(omega_a=1, omega_b=1, g=60.0, n_atoms=3))
    assert pr.mandel_q == pytest.approx(-1.0, abs=0.02)


def test_predictions_depend_on_coupling_sum_only():
    a = ModelParams(omega_a=1, omega_b=1, g=2.0, g_prime=0.0, n_atoms=4)
    b = ModelParams(omega_a=1, omega_b=1, g=1.7, g_prime=0.3, n_atoms=4)
    sa, sb = saddle_point(a), saddle_point(b)
    assert sa.lambda_a == pytest.approx(sb.lambda_a, abs=1e-14)
    assert sa.lambda_b == pytest.approx(sb.lambda_b, abs=1e-14)
    assert effective_theory(a).e_higgs == pytest.approx(effective_theory(b).e_higgs, abs=1e-13)


def test_pseudo_goldstone_gap_zeros_and_growth():
    base = ModelParams(omega_a=1, omega_b=1, g=2.0, g_prime=0.0, n_atoms=2)
    assert predictions(base).delta_pg == 0.0
    near_qcp = ModelParams(omega_a=1, omega_b=1, g=0.5, g_prime=0.5 + 1e-9, n_atoms=2)
    assert abs(predictions(near_qcp).delta_pg) < 1e-6
    gaps = [predictions(replace(base, g_prime=gp)).delta_pg for gp in (0.05, 0.1, 0.2, 0.4)]
    assert all(np.diff(gaps) > 0)
    assert all(gap > 0 for gap in gaps)


def test_delta_crw_scales_with_gprime():
    base = ModelParams(omega_a=1, omega_b=1, g=2.0, g_prime=0.0, n_atoms=2)
    d1 = predictions(replace(base, g_prime=0.02)).delta_crw
    d2 = predictions(replace(base, g_prime=0.04)).delta_crw
    assert d1 > 0
    assert d2 / d1 == pytest.approx(2.0, rel=0.05)


def test_critical_coupling_values():
    assert critical_coupling(ModelParams(omega_a=1, omega_b=1)) == pytest.approx(1.0)
    shifted = ModelParams(omega_a=1, omega_b=1, lambda_z=0.2, u=0.1)
    assert critical_coupling(shifted) == pytest.approx(0.8, abs=1e-14)


def test_critical_coupling_monotone_in_u():
    us = [0.0, 0.1, 0.2, 0.3]
    gcs = [critical_coupling(ModelParams(omega_a=1, omega_b=1, u=u)) for u in us]
    assert all(np.diff(gcs) < 0)


def test_critical_coupling_breakdown():
    with pytest.raises(ValueError):
        critical_coupling(ModelParams(omega_a=1, omega_b=1, lambda_z=1.0))
    with pytest.raises(ValueError):
        critical_coupling(ModelParams(omega_a=1, omega_b=1, u=0.5))


def test_goldstone_envelope_matches_diffusion_constant():
    base = ModelParams(omega_a=1, omega_b=1, g=1.0, n_atoms=3)
    assert goldstone_envelope(base, 2.0) == effective_theory(N3_G2).d
    assert goldstone_envelope(base, 2.0) == pytest.approx(8 / 57, abs=1e-15)
    small_n = goldstone_envelope(ModelParams(omega_a=1, omega_b=1, g=1.0, n_atoms=2), 2.0)
    assert goldstone_envelope(base, 2.0) < small_n
    with pytest.raises(NormalPhaseError):
        goldstone_envelope(base, 0.5)
    with pytest.raises(ValueError):
        goldstone_envelope(replace(base, g_prime=0.1), 2.0)


def test_predictions_continuous_in_g_except_alpha_jumps():
    # E_H varies smoothly; E_G jumps only where lambda_+^2 crosses a half-integer
    base = ModelParams(omega_a=1, omega_b=1, g=1.0, n_atoms=3)
    gs = np.linspace(2.0, 2.1, 200)
    eh = np.array([predictions(replace(base, g=float(g))).e_higgs for g in gs])
    assert np.abs(np.diff(eh)).max() < 0.01


@pytest.mark.parametrize("entry", [effective_theory, predictions])
def test_theory_entries_evaluate_the_saddle_point_once(monkeypatch, entry):
    calls = []
    real = theory.saddle_point

    def counting(params):
        calls.append(params)
        return real(params)

    monkeypatch.setattr(theory, "saddle_point", counting)
    entry(N3_G2)
    assert calls == [N3_G2]
