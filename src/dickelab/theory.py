"""Closed-form large-spin (1/J) results for the superradiant phase.

All quantities are evaluated from the condensate saddle point

    lambda_a = ((g+g')/omega_a) sqrt(j (1 - mu^2) / 2),
    lambda_b = sqrt(j (1 - mu)),        mu = omega_a omega_b / (g+g')^2,

valid above the transition g + g' > sqrt(omega_a omega_b).  The
potential-scattering (lambda_z) and qubit-qubit (u) couplings enter only
the shifted critical coupling; no corrected saddle point is available
for them, so every other formula here is the lambda_z = u = 0 form.

The photon and number correlation functions decompose into three modes:
the phase (Goldstone) mode E_G = D (1/2 - alpha) gapped only by the
1/N Berry-phase offset alpha, the amplitude (Higgs) mode E_H, and the
optical mode E_o = E_H + E_G; each carries a closed-form spectral weight.
"""

import math
from dataclasses import dataclass, replace

from .model import ModelParams

__all__ = [
    "SaddlePoint",
    "EffectiveTheory",
    "AnalyticPredictions",
    "NormalPhaseError",
    "saddle_point",
    "effective_theory",
    "landau_energy",
    "predictions",
    "critical_coupling",
    "goldstone_envelope",
]


class NormalPhaseError(ValueError):
    """A superradiant-only quantity was requested in the normal phase."""


@dataclass(frozen=True)
class SaddlePoint:
    """Condensate amplitudes at the mean-field level.

    ``lambda_a`` / ``lambda_b`` are the photon / atom condensate
    amplitudes (square roots of occupations); both vanish and
    ``superradiant`` is False when g + g' <= sqrt(omega_a omega_b).
    """

    mu: float
    lambda_a: float
    lambda_b: float
    lambda_plus_sq: float
    lambda_minus_sq: float
    superradiant: bool


@dataclass(frozen=True)
class EffectiveTheory:
    """Constants of the low-energy phase+amplitude theory.

    D is the phase diffusion constant (sets the Goldstone scale, ~1/N),
    D_minus the amplitude stiffness, gamma the phase-amplitude coupling,
    and alpha in (-1/2, 1/2] the Berry-phase offset of lambda_+^2 from
    its nearest integer P_nearest.  E_H is the Higgs energy.
    """

    d: float
    d_minus: float
    gamma: float
    alpha: float
    p_nearest: int
    e_higgs: float


@dataclass(frozen=True)
class AnalyticPredictions:
    """Closed-form mode energies, spectral weights and photon statistics.

    ``e_optical = e_higgs + e_goldstone`` holds identically.  The
    counter-rotating diagnostics ``delta_pg`` (pseudo-Goldstone gap at
    N = infinity) and ``delta_crw`` (dimensionless perturbation
    strength) vanish when g' = 0.
    """

    e_goldstone: float
    e_higgs: float
    e_optical: float
    c_goldstone: float
    c_optical: float
    c_higgs: float
    mandel_q: float
    delta_pg: float
    delta_crw: float


def saddle_point(params: ModelParams) -> SaddlePoint:
    """Condensate saddle point; flagged zero amplitudes in the normal phase."""
    gsum = params.g + params.g_prime
    gc = math.sqrt(params.omega_a * params.omega_b)
    # the square, not gsum, is the divisor: it underflows to 0.0 for 0 < gsum < ~1e-162
    mu = math.inf if gsum**2 == 0 else params.omega_a * params.omega_b / gsum**2
    if gsum <= gc:
        return SaddlePoint(
            mu=mu, lambda_a=0.0, lambda_b=0.0,
            lambda_plus_sq=0.0, lambda_minus_sq=0.0, superradiant=False,
        )
    j = params.j
    lam_a = (gsum / params.omega_a) * math.sqrt(j * (1 - mu**2) / 2)
    lam_b = math.sqrt(j * (1 - mu))
    return SaddlePoint(
        mu=mu,
        lambda_a=lam_a,
        lambda_b=lam_b,
        lambda_plus_sq=lam_a**2 + lam_b**2,
        lambda_minus_sq=lam_a**2 - lam_b**2,
        superradiant=True,
    )


def effective_theory(params: ModelParams) -> EffectiveTheory:
    """Constants D, D_minus, gamma, alpha and E_H at the given couplings.

    Raises
    ------
    NormalPhaseError
        When g + g' <= sqrt(omega_a omega_b).
    """
    return _effective_theory(params, saddle_point(params))


def _effective_theory(params: ModelParams, sp: SaddlePoint) -> EffectiveTheory:
    """``effective_theory(params)`` from its saddle point ``sp``."""
    if not sp.superradiant:
        raise NormalPhaseError(
            f"effective theory is defined only for g + g' > sqrt(omega_a omega_b); "
            f"got g + g' = {params.g + params.g_prime}"
        )
    gsum = params.g + params.g_prime
    wa, wb, n = params.omega_a, params.omega_b, params.n_atoms
    la2 = sp.lambda_a**2
    eh_sq = (wa + wb) ** 2 + 4 * gsum**2 * la2 / n
    eh = math.sqrt(eh_sq)
    d = 2 * wa * gsum**2 / (eh_sq * n)
    d_minus = eh_sq / (16 * la2 * wa)
    gamma = (wa**2 / eh_sq) * (1 - gsum**4 / wa**4)
    # nearest integer with the half-integer ties sent to alpha = +1/2
    p_nearest = math.ceil(sp.lambda_plus_sq - 0.5)
    alpha = sp.lambda_plus_sq - p_nearest
    return EffectiveTheory(
        d=d, d_minus=d_minus, gamma=gamma, alpha=alpha,
        p_nearest=p_nearest, e_higgs=eh,
    )


def landau_energy(theory: EffectiveTheory, l: int, m: int) -> float:
    """Landau-level energy (l + 1/2) E_H + (D/2)(m + l - alpha)^2."""
    if l < 0:
        raise ValueError(f"Landau index l must be >= 0, got {l}")
    return (l + 0.5) * theory.e_higgs + 0.5 * theory.d * (m + l - theory.alpha) ** 2


def predictions(params: ModelParams) -> AnalyticPredictions:
    """All closed-form mode energies, weights and the Mandel factor.

    Raises
    ------
    NormalPhaseError
        When g + g' <= sqrt(omega_a omega_b).
    """
    sp = saddle_point(params)
    th = _effective_theory(params, sp)
    wa, wb = params.omega_a, params.omega_b
    gsum = params.g + params.g_prime
    gc = math.sqrt(wa * wb)
    la2 = sp.lambda_a**2
    eh = th.e_higgs

    e_g = th.d * (0.5 - th.alpha)
    c_o = (wa / (4 * eh)) * ((wa + wb) / eh + 1) ** 2
    c_g = la2 - c_o + (1 - th.gamma * th.alpha / 2)
    c_h = wa * la2 / eh
    q_m = -1 + wa / eh
    if params.g_prime == 0:
        delta_pg = 0.0
        delta_crw = 0.0
    else:
        frac = params.g_prime / gsum
        delta_pg = (4 / eh**2) * frac * (gsum**4 - gc**4)
        delta_crw = 2 * wa * la2 * frac / th.d
    return AnalyticPredictions(
        e_goldstone=e_g,
        e_higgs=eh,
        e_optical=eh + e_g,
        c_goldstone=c_g,
        c_optical=c_o,
        c_higgs=c_h,
        mandel_q=q_m,
        delta_pg=delta_pg,
        delta_crw=delta_crw,
    )


def critical_coupling(params: ModelParams) -> float:
    """Superradiant threshold on g + g' with the lambda_z and u shifts.

    Returns sqrt((omega_a - lambda_z)(omega_b - 2u)); both factors must
    stay positive, otherwise the two-level description breaks down.
    """
    fa = params.omega_a - params.lambda_z
    fb = params.omega_b - 2 * params.u
    if fa <= 0 or fb <= 0:
        raise ValueError(
            f"critical coupling undefined: omega_a - lambda_z = {fa}, "
            f"omega_b - 2u = {fb} must both be positive"
        )
    return math.sqrt(fa * fb)


def goldstone_envelope(params_template: ModelParams, g: float) -> float:
    """Sawtooth-peak envelope D(g) of the Goldstone staircase (g' = 0).

    Raises
    ------
    NormalPhaseError
        When g is in the normal phase.
    """
    if params_template.g_prime != 0:
        raise ValueError("the Goldstone envelope is a g_prime = 0 result")
    return effective_theory(replace(params_template, g=g)).d
