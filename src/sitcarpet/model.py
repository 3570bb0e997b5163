"""Model parameters, reaction kinetics, cone order, and local Jacobian.

The population model has four compartments on the plane (or the line):
aquatic phase E (no diffusion), fertile males M, fertilized females F, and
released sterile males Ms (the last three diffuse with coefficient D).

    dE/dt            = b F (1 - E/K) - (mu_E + nu_E) E
    dM/dt  - D lap M = (1 - rho) nu_E E - mu_M M
    dF/dt  - D lap F = rho nu_E E * M/(M + gamma_s Ms) * Gamma(M + gamma_s Ms)
                       - mu_F F
    dMs/dt - D lap Ms = Lambda - mu_s Ms

Gamma is the mate-finding factor: identically 1 (monostable kinetics) or
1 - exp(-gamma m) (bistable kinetics, Allee effect).  The mating probability
M/(M + gamma_s Ms) * Gamma(M + gamma_s Ms) is defined as Gamma(0) * 0-limit
value at M = Ms = 0 so the kinetics are total on the invariant region
[0, K] x R^3_+.

Everything here is a pure function of value types; the PDE solver and the
profile builders vectorize over numpy arrays through the same kinetics.
The slaved relations E(F) and M(E) (egg and male equations at rest) live here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, Union

import numpy as np


@dataclass(frozen=True)
class Monostable:
    """Gamma identically 1 (no Allee effect)."""


@dataclass(frozen=True)
class Bistable:
    """Gamma(m) = 1 - exp(-gamma m); gamma > 0 has units 1/density."""

    gamma: float

    def __post_init__(self):
        if not 0 < self.gamma < math.inf:
            raise ValueError(f"bistable gamma must be finite and > 0, got "
                             f"{self.gamma}")


GammaKind = Union[Monostable, Bistable]

# K may be a constant or a function of position (heterogeneous carrying
# capacity; it only enters the E equation, which has no diffusion).
KField = Union[float, Callable[[np.ndarray], np.ndarray]]


class StatePoint(NamedTuple):
    E: float
    M: float
    F: float
    Ms: float


class ReactionRates(NamedTuple):
    fE: float
    fM: float
    fF: float
    fs: float


@dataclass(frozen=True)
class ModelParams:
    """All biological and diffusion constants, plus the Gamma choice.

    Rates are per unit time, K is a density (scalar or function of position),
    D is length^2/time, rho in (0,1) is the sex ratio, gamma_s >= 0 the
    sterile-male competitiveness.
    """

    b: float
    nu_E: float
    mu_E: float
    mu_M: float
    mu_F: float
    mu_s: float
    rho: float
    K: KField
    D: float
    gamma_kind: GammaKind
    gamma_s: float = 1.0
    # derived rates, set from the fields above; the kinetics read them
    egg_loss: float = field(init=False, repr=False, compare=False)
    male_recruitment: float = field(init=False, repr=False, compare=False)
    female_recruitment: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("b", "nu_E", "mu_E", "mu_M", "mu_F", "mu_s", "D"):
            v = getattr(self, name)
            if not 0 < v < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {v}")
        if not 0 < self.rho < 1:
            raise ValueError(f"rho must be in (0,1), got {self.rho}")
        if not 0 <= self.gamma_s < math.inf:
            raise ValueError(f"gamma_s must be finite and >= 0, got "
                             f"{self.gamma_s}")
        if not callable(self.K) and not 0 < self.K < math.inf:
            raise ValueError(f"K must be finite and > 0, got {self.K}")
        # mu_E + nu_E, the egg loss rate without crowding; (1 - rho) nu_E
        # and rho nu_E, the males and (unmated) females emerging per egg
        for name, v in (("egg_loss", self.mu_E + self.nu_E),
                        ("male_recruitment", (1.0 - self.rho) * self.nu_E),
                        ("female_recruitment", self.rho * self.nu_E)):
            object.__setattr__(self, name, v)

    def K_at(self, x) -> np.ndarray:
        """Carrying capacity at position(s) x (scalar K broadcasts)."""
        if callable(self.K):
            K = np.asarray(self.K(np.asarray(x, dtype=float)), dtype=float)
            if not np.all((K > 0) & np.isfinite(K)):
                raise ValueError("K(x) must be finite and > 0 pointwise")
            return K
        return np.asarray(self.K, dtype=float)

    @property
    def K_scalar(self) -> float:
        if callable(self.K):
            raise ValueError("operation requires a scalar carrying capacity")
        return float(self.K)

    @property
    def gamma(self) -> float | None:
        """Allee coefficient, or None in the monostable case."""
        return self.gamma_kind.gamma if isinstance(self.gamma_kind, Bistable) else None

    def with_gamma(self, gamma: float | None) -> "ModelParams":
        kind: GammaKind = Monostable() if gamma is None else Bistable(gamma)
        return replace(self, gamma_kind=kind)


class RateRows(NamedTuple):
    """The rates of S parameter sets as (S, n) rows, one per set, for
    kinetics on (S, n) states: `reaction_arrays` reads them as it reads one
    ModelParams, so each row gets the same floating-point operations as
    alone.  `gamma` is None when every set is monostable."""

    b: np.ndarray
    gamma_s: np.ndarray
    mu_M: np.ndarray
    mu_F: np.ndarray
    mu_s: np.ndarray
    egg_loss: np.ndarray
    male_recruitment: np.ndarray
    female_recruitment: np.ndarray
    gamma: np.ndarray | None

    @classmethod
    def of(cls, params_list, n: int) -> "RateRows":
        """The rows of `params_list` on n nodes: all monostable or all
        bistable.  Full rows, not (S, 1) columns: numpy is faster on equal
        shapes than broadcasting a column."""
        def rows(name):
            return np.repeat(np.array([[getattr(p, name)]
                                       for p in params_list]), n, axis=1)

        return cls(*map(rows, cls._fields[:-1]),
                   gamma=None if params_list[0].gamma is None
                   else rows("gamma"))


def gamma_fn(kind: GammaKind, m):
    """Mate-finding factor Gamma evaluated at total male density m >= 0."""
    m = np.asarray(m, dtype=float)
    if np.any(m < 0):
        raise ValueError("gamma_fn requires m >= 0")
    if isinstance(kind, Monostable):
        out = np.ones_like(m)
    else:
        out = -np.expm1(-kind.gamma * m)
    return out if out.ndim else float(out)


def gamma_fn_prime(kind: GammaKind, m):
    """d Gamma / dm (0 for monostable, gamma e^{-gamma m} for bistable)."""
    m = np.asarray(m, dtype=float)
    if isinstance(kind, Monostable):
        out = np.zeros_like(m)
    else:
        out = kind.gamma * np.exp(-kind.gamma * m)
    return out if out.ndim else float(out)


def mating_factor(params: ModelParams | RateRows, M, Ms):
    """M/(M + gamma_s Ms) * Gamma(M + gamma_s Ms), 0 at M = Ms = 0."""
    M = np.asarray(M, dtype=float)
    Ms = np.asarray(Ms, dtype=float)
    P = M + params.gamma_s * Ms
    out = np.divide(M, P, out=np.zeros_like(P), where=P > 0)
    if params.gamma is not None:  # P < 0 only off the invariant region
        out *= -np.expm1(-params.gamma * np.maximum(P, 0.0))
    return out if out.ndim else float(out)


def slaved_E(params: ModelParams, F, K=None):
    """Egg density slaved to F: E = bF / (bF/K + mu_E + nu_E).

    K defaults to the scalar carrying capacity; pass the sampled nodewise
    values in the heterogeneous case.
    """
    F = np.asarray(F, dtype=float)
    if K is None:
        K = params.K_scalar
    out = params.b * F / (params.b * F / K + params.mu_E + params.nu_E)
    return out if out.ndim else float(out)


def slaved_M(params: ModelParams, E):
    """Male density slaved to E: M = (1 - rho) nu_E E / mu_M."""
    return params.male_recruitment * E / params.mu_M


def egg_rate(params: ModelParams | RateRows, E, F, K):
    """Egg rate b F (1 - E/K) - (mu_E + nu_E) E; K already sampled."""
    return params.b * F * (1.0 - E / K) - params.egg_loss * E


def reaction_arrays(params: ModelParams | RateRows, E, M, F, Ms, lam, K):
    """Vectorized kinetics; K is the (already sampled) carrying capacity.

    With RateRows, E, M, F, Ms and K are (S, n) and lam (n,) or (S, n)."""
    fE = egg_rate(params, E, F, K)
    fM = params.male_recruitment * E - params.mu_M * M
    fF = (params.female_recruitment * E * mating_factor(params, M, Ms)
          - params.mu_F * F)
    fs = lam - params.mu_s * Ms
    return fE, fM, fF, fs


def reaction(params: ModelParams, s: StatePoint, lambda_val: float = 0.0,
             x: float = 0.0) -> ReactionRates:
    """Reaction rates at one state point.

    Requires the state to lie in the invariant region and lambda_val >= 0;
    total there (the mating factor is extended by 0 at M = Ms = 0).
    """
    if lambda_val < 0:
        raise ValueError("release rate must be >= 0")
    if min(s.E, s.M, s.F, s.Ms) < 0:
        raise ValueError(f"state outside the invariant region: {s}")
    K = float(params.K_at(x))
    fE, fM, fF, fs = reaction_arrays(params, s.E, s.M, s.F, s.Ms, lambda_val, K)
    return ReactionRates(float(fE), float(fM), float(fF), float(fs))


def cone_leq(u: StatePoint, v: StatePoint, atol: float = 0.0) -> bool:
    """Partial order of the cone R^3_+ x R_-: (E,M,F) componentwise <=, Ms >=."""
    return (u.E <= v.E + atol and u.M <= v.M + atol and u.F <= v.F + atol
            and u.Ms >= v.Ms - atol)


def _mating_and_dM(params: ModelParams, M: float, Ms: float) -> tuple[float, float]:
    """Mating factor g and dg/dM, extended continuously where M + gamma_s Ms = 0.

    Along Ms = 0 the factor reduces to Gamma(M), so the extension at the origin
    is g = Gamma(0), dg/dM = Gamma'(0) (gamma in the bistable case).
    """
    P = M + params.gamma_s * Ms
    kind = params.gamma_kind
    if P <= 0.0:
        return float(gamma_fn(kind, 0.0)), float(gamma_fn_prime(kind, 0.0))
    g = M / P * gamma_fn(kind, P)
    dg = params.gamma_s * Ms / P**2 * gamma_fn(kind, P) + M / P * gamma_fn_prime(kind, P)
    return float(g), float(dg)


def jacobian_ode(params: ModelParams, s: StatePoint, x: float = 0.0) -> np.ndarray:
    """Analytic 3x3 Jacobian of (fE, fM, fF) in (E, M, F), with Ms frozen.

    Sign pattern: d fE/d F >= 0, d fM/d E >= 0, d fF/d E >= 0, d fF/d M >= 0
    on the invariant region, which is what makes the system monotone for the
    cone order.
    """
    K = float(params.K_at(x))
    g, dg = _mating_and_dM(params, s.M, s.Ms)
    rF = params.female_recruitment
    return np.array([
        [-params.b * s.F / K - params.egg_loss, 0.0,
         params.b * (1.0 - s.E / K)],
        [params.male_recruitment, -params.mu_M, 0.0],
        [rF * g, rF * s.E * dg, -params.mu_F],
    ])
