"""Model parameters, reaction kinetics and local Jacobian.

The population model has four compartments on the plane (or the line):
aquatic phase E (no diffusion), fertile males M, fertilized females F, and
released sterile males Ms (the last three diffuse with coefficient D).

    dE/dt            = b F (1 - E/K) - (mu_E + nu_E) E
    dM/dt  - D lap M = (1 - rho) nu_E E - mu_M M
    dF/dt  - D lap F = rho nu_E E * M/(M + gamma_s Ms) * Gamma(M + gamma_s Ms)
                       - mu_F F
    dMs/dt - D lap Ms = Lambda - mu_s Ms

Gamma is the mate-finding factor: identically 1 (monostable kinetics) or
1 - exp(-gamma m) (bistable kinetics, Allee effect).  The Allee coefficient
is `ModelParams.gamma`, None in the monostable case.  The mating probability
M/(M + gamma_s Ms) * Gamma(M + gamma_s Ms) is defined as Gamma(0) * 0-limit
value at M = Ms = 0 so the kinetics are total on the invariant region
[0, K] x R^3_+.

Everything here is a pure function of value types; the PDE solver and the
profile builders vectorize over numpy arrays through the same kinetics.
The slaved relations E(F) and M(E) (egg and male equations at rest) live here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

# K may be a constant or a function of position (heterogeneous carrying
# capacity; it only enters the E equation, which has no diffusion).
KField = Union[float, Callable[[np.ndarray], np.ndarray]]


class StatePoint(NamedTuple):
    E: float
    M: float
    F: float
    Ms: float


@dataclass(frozen=True)
class ModelParams:
    """All biological and diffusion constants, plus the Gamma choice.

    Rates are per unit time, K is a density (scalar or function of position),
    D is length^2/time, rho in (0,1) is the sex ratio, gamma_s >= 0 the
    sterile-male competitiveness.  gamma is the Allee coefficient of
    Gamma(m) = 1 - exp(-gamma m), finite and > 0 with units 1/density, or
    None for the monostable kinetics (Gamma identically 1).
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
    gamma: Optional[float]
    gamma_s: float = 1.0
    # derived rates, set from the fields above; the kinetics read them
    egg_loss: float = field(init=False, repr=False, compare=False)
    male_recruitment: float = field(init=False, repr=False, compare=False)
    female_recruitment: float = field(init=False, repr=False, compare=False)
    # (2,) arrays: (male, female) recruitment and (mu_M, mu_F), the rates
    # of the M, F block of `reaction_arrays`
    recruitment: np.ndarray = field(init=False, repr=False, compare=False)
    mortality: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.gamma is not None and not 0 < self.gamma < math.inf:
            raise ValueError(f"bistable gamma must be finite and > 0, got "
                             f"{self.gamma}")
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
        object.__setattr__(self, "recruitment", np.array(
            [self.male_recruitment, self.female_recruitment]))
        object.__setattr__(self, "mortality", np.array([self.mu_M, self.mu_F]))

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


class RateRows(NamedTuple):
    """The rates of S parameter sets as (S, n) rows, one per set, for
    kinetics on (S, n) states: `reaction_arrays` reads them as it reads one
    ModelParams, so each row gets the same floating-point operations as
    alone.  `recruitment` and `mortality` stack the M and F rows as
    (2, S, n).  `gamma` is None when every set is monostable."""

    b: np.ndarray
    gamma_s: np.ndarray
    mu_s: np.ndarray
    egg_loss: np.ndarray
    recruitment: np.ndarray
    mortality: np.ndarray
    gamma: np.ndarray | None

    @classmethod
    def of(cls, params_list, n: int) -> "RateRows":
        """The rows of `params_list` on n nodes: all monostable or all
        bistable.  Full rows, not (S, 1) columns: numpy is faster on equal
        shapes than broadcasting a column."""
        def rows(name):
            # (S,) values to (S, n) rows, (S, 2) values to (2, S, n)
            v = np.array([getattr(p, name) for p in params_list])
            return np.repeat(np.moveaxis(v, 0, -1)[..., None], n, axis=-1)

        return cls(*map(rows, cls._fields[:-1]),
                   gamma=None if params_list[0].gamma is None
                   else rows("gamma"))


def gamma_fn(gamma: Optional[float], m):
    """Mate-finding factor Gamma evaluated at total male density m >= 0, for
    the Allee coefficient gamma (None: monostable, Gamma identically 1)."""
    m = np.asarray(m, dtype=float)
    if np.any(m < 0):
        raise ValueError("gamma_fn requires m >= 0")
    out = np.ones_like(m) if gamma is None else -np.expm1(-gamma * m)
    return out if out.ndim else float(out)


def mating_factor(params: ModelParams | RateRows, M, Ms=None):
    """M/(M + gamma_s Ms) * Gamma(M + gamma_s Ms), 0 at M = Ms = 0.

    Ms None means there are no sterile males: Ms = +0.0, so P = M +
    gamma_s Ms is M wherever M > 0 and is not > 0 elsewhere, and the
    factor is computed from M alone with the same bits.  Bistable, M/P is
    exactly 1.0 where M > 0, and where M <= 0 both forms give +0.0, so it
    is Gamma(max(M, 0)) = -expm1(-gamma max(M, 0)).  Monostable it is M/M
    where M > 0 and 0 elsewhere, not 1 everywhere.
    """
    M = np.asarray(M, dtype=float)
    if Ms is None:
        if params.gamma is None:
            out = np.divide(M, M, out=np.zeros_like(M), where=M > 0)
        else:  # in place: -(gamma m) has the bits of (-gamma) m
            out = np.maximum(M, 0.0, out=np.empty_like(M))
            out *= params.gamma
            np.negative(out, out=out)
            np.expm1(out, out=out)
            np.negative(out, out=out)
        return out if out.ndim else float(out)
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


def well_prepared_start(params: ModelParams, F, C0: float, K):
    """E and M of a well-prepared start with females F: the slaved values
    E(F) and M(E), each capped by C0 F, and E by K (sampled)."""
    E = np.minimum(np.minimum(slaved_E(params, F, K=K), C0 * F), K)
    return E, np.minimum(slaved_M(params, E), C0 * F)


def egg_rates(params: ModelParams | RateRows, E, F, K):
    """(fE, a): the egg rate fE = b F (1 - E/K) - (mu_E + nu_E) E and the
    egg loss rate a = b F / K + mu_E + nu_E, so that fE = b F - a E; K
    already sampled.  b F is formed once, and each is computed in place."""
    bF = params.b * F
    fE = np.divide(E, K, out=np.empty(np.shape(E)))
    np.subtract(1.0, fE, out=fE)
    fE *= bF
    fE -= params.egg_loss * E
    a = np.divide(bF, K, out=bF)
    a += params.egg_loss
    return fE, a


def egg_step(E, fE, a, h: float, K, out=None):
    """The egg equation's exact step over h with F frozen, from the rates
    fE and a of `egg_rates`: E - expm1(-a h) / a fE, that is e^{-a h} E +
    (1 - e^{-a h}) b F / a, clipped to [0, K] against roundoff; `out`, if
    given, receives it.  It grows with E, and with F for E <= K (the
    `solver` docstring's part 1)."""
    r = np.multiply(a, -h)
    np.expm1(r, out=r)
    r /= a
    r *= fE
    out = np.subtract(E, r, out=out)
    # clipped in place: np.clip would cost twice as much
    np.maximum(out, 0.0, out=out)
    return np.minimum(out, K, out=out)


def reaction_arrays(params: ModelParams | RateRows, y, lam, K):
    """The kinetics at the state y, the rows E, M, F, Ms of one array; K is
    the (already sampled) carrying capacity.

    Returns (fE, a, f): the egg rate fE, the egg loss rate a = b F / K +
    mu_E + nu_E (so fE = b F - a E), and the rates of the diffusing fields
    as the rows of f: M, F and Ms, or only M and F when lam is None, which
    means there are no sterile males (Ms is +0.0 and stays so).  fE and a
    come from `egg_rates`, and M and F go through their rates as one
    (2, ...) block; each element gets the operations it would get alone.

    With RateRows, y is (4, S, n), K (S, n) and lam (n,) or (S, n); with one
    ModelParams, y is a (4, ...) array with at least one node axis, or four
    equal-shaped arrays.
    """
    y = np.asarray(y, dtype=float)
    E, M, F, Ms = y
    fE, a = egg_rates(params, E, F, K)
    rec, mort = params.recruitment, params.mortality
    if rec.ndim < y.ndim:  # one ModelParams: (2,) rates against (...) rows
        shape = (2,) + (1,) * (y.ndim - 1)
        rec, mort = rec.reshape(shape), mort.reshape(shape)
    f = np.empty((2 if lam is None else 3,) + E.shape)
    np.multiply(rec, E, out=f[:2])
    f[1] *= mating_factor(params, M, None if lam is None else Ms)
    f[:2] -= mort * y[1:3]
    if lam is not None:
        np.subtract(lam, params.mu_s * Ms, out=f[2])
    return fE, a, f


def _mating_and_dM(params: ModelParams, M: float, Ms: float) -> tuple[float, float]:
    """Mating factor g and dg/dM, extended continuously where M + gamma_s Ms = 0.

    Along Ms = 0 the factor reduces to Gamma(M), so the extension at the origin
    is g = Gamma(0), dg/dM = Gamma'(0) (gamma in the bistable case).
    """
    gamma = params.gamma
    P = M + params.gamma_s * Ms
    if P <= 0.0:
        P = 0.0
    gam = gamma_fn(gamma, P)
    # Gamma'(P): 0 monostable, gamma e^{-gamma P} bistable
    dgam = 0.0 if gamma is None else gamma * float(np.exp(-gamma * P))
    if P == 0.0:
        return gam, dgam
    g = M / P * gam
    # P * P, not P**2: a float ** raises OverflowError where * gives inf
    dg = params.gamma_s * Ms / (P * P) * gam + M / P * dgam
    return float(g), float(dg)


def jacobian_ode(params: ModelParams, s: StatePoint) -> np.ndarray:
    """Analytic 3x3 Jacobian of (fE, fM, fF) in (E, M, F), with Ms frozen.

    Sign pattern: d fE/d F >= 0, d fM/d E >= 0, d fF/d E >= 0, d fF/d M >= 0
    on the invariant region, which is what makes the system monotone for the
    cone order.
    """
    K = params.K_scalar
    g, dg = _mating_and_dM(params, s.M, s.Ms)
    rF = params.female_recruitment
    return np.array([
        [-params.b * s.F / K - params.egg_loss, 0.0,
         params.b * (1.0 - s.E / K)],
        [params.male_recruitment, -params.mu_M, 0.0],
        [rF * g, rF * s.E * dg, -params.mu_F],
    ])
