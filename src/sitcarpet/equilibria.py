"""Steady states, bifurcation thresholds, and the traveling-wave potential.

The spatially homogeneous system has the extinction state (0,0,0) and, in the
bistable case for gamma above a critical gamma_c, two positive steady states.
All scalar unknowns here come from monotone equations solved by bisection:

* zeta_c is the root of an increasing-minus-decreasing function built from
  the basic offspring number N;
* the equilibrium F-components reduce, through the substitution
  m = bF / (bF + K(mu_E + nu_E)), to the scalar equation
  N (1 - e^{-m/zeta}) (1 - m) = 1, whose concave left side is maximized at
  m0 with 1 - m0 = zeta (e^{m0/zeta} - 1);
* gamma_0 is where the potential G (integral of the wave's reaction term
  against the worst-case male bound phi) vanishes at the upper equilibrium,
  marking the sign change of the bistable wave speed.

The published threshold values for the Table-1 parameter set correspond to
evaluating the gamma_0 condition with the equilibrium F* frozen at the
current parameter set's equilibrium, which is what `solve_gamma_0` does.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .model import (ModelParams, StatePoint, gamma_fn, jacobian_ode, slaved_E,
                    slaved_M)

BISECT_TOL = 1e-12
# Composite-Simpson panels of the potential G (an even count)
PANELS = 4096
_DEGENERATE_BAND = 1e-10


class ParameterRangeError(ValueError):
    """The rates put a threshold or an equilibrium beyond double precision."""


def bisect(f: Callable[[float], float], lo: float, hi: float,
           tol: float = BISECT_TOL, max_iter: int = 400) -> float:
    """Bisection for f with f(lo) < 0 < f(hi); absolute tolerance on the root."""
    flo = f(lo)
    fhi = f(hi)
    if flo > 0 or fhi < 0:
        raise ValueError(f"bisect: bracket does not straddle a root "
                         f"(f({lo})={flo:g}, f({hi})={fhi:g})")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if hi - lo < tol:
            return mid
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def scale_until(pred: Callable[[float], bool], x: float, factor: float,
                limit: float) -> Optional[float]:
    """Multiply x by factor until pred(x) holds; None once x passes limit.

    With factor > 1 the search grows x and gives up above limit; with
    factor < 1 it shrinks x and gives up below limit.  The usual use is to
    find one end of a bisection bracket.
    """
    while not pred(x):
        x *= factor
        if (x > limit) if factor > 1.0 else (x < limit):
            return None
    return x


@dataclass(frozen=True)
class ThresholdReport:
    n_offspring: float
    zeta: Optional[float]
    zeta_c: Optional[float]
    gamma_c: Optional[float]
    gamma_0: Optional[float]
    regime: str
    natural_extinction: bool


@dataclass(frozen=True)
class EquilibriumSet:
    """Positive steady states (E, M, F) or None, besides extinction (0, 0, 0)."""

    middle: Optional[tuple[float, float, float]]
    upper: Optional[tuple[float, float, float]]
    extinction_stable: bool
    middle_stable: Optional[bool]
    upper_stable: Optional[bool]
    degenerate: bool = False


def offspring_number(params: ModelParams) -> float:
    """Basic offspring number N = b rho nu_E / (mu_F (nu_E + mu_E))."""
    return params.b * params.rho * params.nu_E / (
        params.mu_F * params.egg_loss)


def zeta_of_gamma(params: ModelParams, gamma: float) -> float:
    """zeta = mu_M / ((1 - rho) nu_E gamma K).

    The map is its own inverse, so zeta_of_gamma(params, zeta_c) is gamma_c.
    """
    return params.mu_M / (params.male_recruitment * gamma * params.K_scalar)


def solve_zeta_c(n_offspring: float) -> Optional[float]:
    """Root of (1+sqrt(4 z N + 1))/(2N) = 1 - z ln((2zN+1+sqrt(4zN+1))/(2zN)).

    The left side increases and the right side decreases in z, so the root is
    unique; it exists only for N > 1.
    """
    N = n_offspring
    if N <= 1.0:
        return None

    def h(z: float) -> float:
        s = np.sqrt(4.0 * z * N + 1.0)
        lhs = (1.0 + s) / (2.0 * N)
        rhs = 1.0 - z * np.log((2.0 * z * N + 1.0 + s) / (2.0 * z * N))
        return lhs - rhs

    hi = scale_until(lambda z: h(z) >= 0, 1.0, 2.0, 1e12)
    if hi is None:
        raise ParameterRangeError(f"zeta_c is beyond 1e12 for N = {N:g}")
    return bisect(h, 1e-300, hi)


def phi0(params: ModelParams, F):
    """Slaved male density M(E(F)): the egg and male equations at rest along F."""
    return slaved_M(params, slaved_E(params, F))


def phi(params: ModelParams, F, F_star: float, E=None):
    """Worst-case male bound along a nondecreasing female profile.

    phi(F) = (1/(2 mu_M)) * (1-rho) nu_E b F / (bF/K + mu_E + nu_E)
             * (1 - (1 - F/F*)^(2 sqrt(mu_M/mu_F))).

    For 1 - F/F* below 1e-14 (and for F >= F*) the value switches to the
    analytic limit, which equals M*/2 when F* is the upper equilibrium.
    E, if given, is the slaved egg density E(F) already computed.
    """
    F = np.asarray(F, dtype=float)
    if E is None:
        E = slaved_E(params, F)
    base = 0.5 * slaved_M(params, E)
    rem = 1.0 - F / F_star
    expo = 2.0 * np.sqrt(params.mu_M / params.mu_F)
    safe = np.maximum(rem, 1e-14)
    factor = np.where(rem < 1e-14, 1.0, -np.expm1(expo * np.log(safe)))
    out = base * factor
    return out if out.ndim else float(out)


def phi_s_eps(params: ModelParams, eps: float, F, F_star: float):
    """Sterile-male tail bound eps * (1 - F/F*)^(sqrt(mu_s/mu_F))."""
    if not eps > 0:
        raise ValueError("eps must be > 0")
    F = np.asarray(F, dtype=float)
    rem = np.maximum(1.0 - F / F_star, 0.0)
    out = eps * rem ** np.sqrt(params.mu_s / params.mu_F)
    return out if out.ndim else float(out)


def _wave_integrand(params: ModelParams, F_star: float, u: np.ndarray,
                    eps: Optional[float]) -> np.ndarray:
    """rho nu_E b u/(bu/K + mu_E + nu_E) * w(u) * Gamma(phi(u)) - mu_F u.

    E(u) is computed once, for the recruitment and for phi."""
    E = slaved_E(params, u)
    recruit = params.female_recruitment * E
    ph = phi(params, u, F_star, E)
    gam = gamma_fn(params.gamma, ph)
    if eps is None:
        w = 1.0
    else:
        ps = phi_s_eps(params, eps, u, F_star)
        denom = ph + ps
        w = np.where(denom > 0, ph / np.where(denom > 0, denom, 1.0), 0.0)
    return recruit * w * gam - params.mu_F * u


def _simpson_uniform(y: np.ndarray, h: float) -> float:
    # composite Simpson on an even number of uniform panels
    return h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum())


def potential_G(params: ModelParams, F_star: float, F: float,
                eps: Optional[float] = None) -> float:
    """Potential G(F): integral of the wave reaction term from 0 to F.

    Gamma is the params' own (identically 1 when params.gamma is None); eps,
    when given, weights the integrand by phi/(phi + phi_s^eps), the
    sterile-tail variant.  Composite Simpson with PANELS panels.
    """
    if F < 0 or F > F_star * (1.0 + 1e-12):
        raise ValueError("potential_G requires 0 <= F <= F_star")
    if F == 0.0:
        return 0.0
    u = np.linspace(0.0, F, PANELS + 1)
    y = _wave_integrand(params, F_star, u, eps)
    return float(_simpson_uniform(y, F / PANELS))


def solve_m0(zeta: float) -> float:
    """Maximizer of N(1-e^{-m/zeta})(1-m): root of 1 - m = zeta(e^{m/zeta}-1)."""
    def h(m: float) -> float:
        return zeta * np.expm1(m / zeta) - (1.0 - m)

    return bisect(h, 1e-300, 1.0 - 1e-16)


def _m_to_F(params: ModelParams, m: float) -> float:
    # bF/K = (mu_E + nu_E) m / (1 - m)
    return params.K_scalar * params.egg_loss * m / (params.b * (1.0 - m))


def _equilibrium_from_F(params: ModelParams, F: float) -> tuple[float, float, float]:
    E = slaved_E(params, F)
    return E, slaved_M(params, E), F


def _is_stable(params: ModelParams, E: float, M: float, F: float) -> bool:
    eig = np.linalg.eigvals(jacobian_ode(params, StatePoint(E, M, F, 0.0)))
    return bool(np.max(eig.real) < 0.0)


def solve_equilibria(params: ModelParams) -> EquilibriumSet:
    """All homogeneous steady states with Ms = 0, plus stability flags.

    Monostable: closed form, upper state exists iff N > 1.  Bistable: solve
    the scalar m-equation; 0, 1 (degenerate tangency), or 2 positive roots.
    Stability is classified by the eigenvalues of the analytic Jacobian.
    """
    N = offspring_number(params)
    ext_stable = _is_stable(params, 0.0, 0.0, 0.0)

    if params.gamma is None:
        if N <= 1.0:
            return EquilibriumSet(None, None, ext_stable, None, None)
        F_star = params.K_scalar * params.egg_loss * (N - 1.0) / params.b
        E_star = params.mu_F * F_star / params.female_recruitment
        M_star = (1.0 - params.rho) * params.mu_F * F_star / (params.rho * params.mu_M)
        upper = (E_star, M_star, F_star)
        return EquilibriumSet(None, upper, ext_stable, None,
                              _is_stable(params, *upper))

    zeta = zeta_of_gamma(params, params.gamma)
    m0 = solve_m0(zeta)

    def varphi(m: float) -> float:
        return N * float(-np.expm1(-m / zeta)) * (1.0 - m)

    peak = varphi(m0)
    if peak < 1.0 - _DEGENERATE_BAND:
        return EquilibriumSet(None, None, ext_stable, None, None)
    degenerate = abs(peak - 1.0) <= _DEGENERATE_BAND
    if degenerate:
        eq = _equilibrium_from_F(params, _m_to_F(params, m0))
        return EquilibriumSet(None, eq, ext_stable, None,
                              _is_stable(params, *eq), degenerate=True)

    try:
        m_minus = bisect(lambda m: varphi(m) - 1.0, 1e-300, m0)
        m_plus = bisect(lambda m: 1.0 - varphi(m), m0, 1.0 - 1e-16)
    except ValueError as e:
        raise ParameterRangeError(
            f"an equilibrium is beyond double precision: {e}") from None
    middle = _equilibrium_from_F(params, _m_to_F(params, m_minus))
    upper = _equilibrium_from_F(params, _m_to_F(params, m_plus))
    return EquilibriumSet(middle, upper, ext_stable,
                          _is_stable(params, *middle), _is_stable(params, *upper))


def solve_gamma_0(params: ModelParams) -> Optional[float]:
    """Allee coefficient gamma_0 above which the bistable wave advances.

    Root of G(F*; gamma) = 0 in gamma, with the equilibrium F* the one of
    `params` and only the integrand's Gamma varying with the trial gamma,
    matching the published Table-1 values.  Returns None when the current
    params admit no positive equilibrium to freeze or when N <= 1.
    """
    N = offspring_number(params)
    if N <= 1.0:
        return None
    gamma_c = zeta_of_gamma(params, solve_zeta_c(N))
    eq = solve_equilibria(params)
    if eq.upper is None:
        return None
    F_star = eq.upper[2]

    def h(g: float) -> float:
        return potential_G(replace(params, gamma=g), F_star, F_star)

    hi = scale_until(lambda g: h(g) > 0, 10.0 * gamma_c, 2.0, 1e9)
    lo = None if hi is None else scale_until(
        lambda g: h(g) < 0, min(gamma_c * (1.0 + 1e-12), hi / 2.0), 0.5, 1e-300)
    return None if lo is None else bisect(h, lo, hi)


def thresholds(params: ModelParams) -> ThresholdReport:
    """N, zeta, zeta_c, gamma_c, gamma_0, and the regime classification."""
    N = offspring_number(params)
    natural_extinction = N <= 1.0
    zeta_c = solve_zeta_c(N)
    gamma_c = None if zeta_c is None else zeta_of_gamma(params, zeta_c)

    gamma = params.gamma
    if gamma is None:
        return ThresholdReport(N, None, zeta_c, gamma_c, None, "Monostable",
                               natural_extinction)

    zeta = zeta_of_gamma(params, gamma)
    gamma_0 = solve_gamma_0(params)
    if natural_extinction or (gamma_c is not None and gamma <= gamma_c):
        regime = "BistableBelowGammaC"
    elif gamma_0 is not None and gamma > gamma_0:
        regime = "BistableAboveGamma0"
    else:
        regime = "BistableBetweenGammaCAndGamma0"
    return ThresholdReport(N, zeta, zeta_c, gamma_c, gamma_0, regime,
                           natural_extinction)
