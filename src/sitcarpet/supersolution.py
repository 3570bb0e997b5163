"""Moving super-solution pieces and sterile-male bounds for the rolling carpet.

The blocking argument splits the plane, at time t, into a shrinking core
Omega0 = {|x| <= r1 + c't}, a transition annulus Omega1 up to r1 + ct, the
action annulus Omega2 up to r2 + ct, and the far field Omega3.  The female
cap Fbar is piecewise: a space-constant decaying level on Omega0, the
separated solution alpha(t) beta(.) on Omega1, the stationary-in-the-frame
profile psi(.) on Omega2, and the equilibrium value outside.  Egg and male
caps ride on Fbar through the constants C1, C2.

Sterile males are bounded above by a translating plateau with exponential
skirt and below by translating plateau profiles with Gaussian (or, for the
release-with-tail variant, exponential-then-Gaussian) skirts; the skirt decay
constants come from the sufficient inequalities of the construction.

All closed forms hold for unit diffusion, so lengths and speeds are rescaled
by sqrt(D) internally; public evaluation is in physical coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .equilibria import bisect, scale_until, solve_equilibria
from .model import Bistable, ModelParams, egg_rate, slaved_E


def lambda_roots(mu: float, drift: float) -> tuple[float, float]:
    """Roots of lambda^2 + drift*lambda - mu/2 = 0 (lambda- < 0 < lambda+)."""
    disc = np.sqrt(drift * drift + 2.0 * mu)
    return 0.5 * (-drift + disc), 0.5 * (-drift - disc)


def psi_profile(eps: float, u0: float, c: float, r1: float):
    """Increasing bridge from u0 (flat) to 1 across the action annulus.

    Solves -(c + 1/r1) psi' - psi'' = -eps psi with psi(0) = u0, psi'(0) = 0
    in unit-diffusion units; returns (psi, psi', L) where L is the unique
    root of psi(L) = 1.  On (0, L): 0 < psi' < sqrt(eps) psi.
    """
    if not (eps > 0 and 0 < u0 < 1 and c > 0 and r1 > 0):
        raise ValueError("psi_profile requires eps > 0, u0 in (0,1), c > 0, r1 > 0")
    lp, lm = lambda_roots(2.0 * eps, c + 1.0 / r1)
    scale = u0 / (lp - lm)

    def psi(r):
        r = np.asarray(r, dtype=float)
        out = scale * (lp * np.exp(lm * r) - lm * np.exp(lp * r))
        return out if out.ndim else float(out)

    def dpsi(r):
        r = np.asarray(r, dtype=float)
        out = scale * (lp * lm * np.exp(lm * r) - lm * lp * np.exp(lp * r))
        return out if out.ndim else float(out)

    hi = scale_until(lambda r: psi(r) >= 1.0, 1.0, 2.0, 1e12)
    if hi is None:
        raise RuntimeError("psi fails to reach 1")
    L = bisect(lambda r: psi(r) - 1.0, 0.0, hi)
    return psi, dpsi, L


@dataclass(frozen=True)
class SupersolutionBundle:
    """All constants of the moving-cap construction, in physical units.

    c_prime in ((2/3) c, c); r2 = r1 + L with L fixed by the psi bridge;
    lambda_plus/minus are the Omega1 exponents (unit-diffusion units, product
    -mu/2); C1, C2 bound Ebar and Mbar by multiples of Fbar; lambda_bar and
    M_hat give the release strength and the annulus sterile floor.
    """

    params: ModelParams
    u0: float
    mu: float
    eps: float
    c: float
    c_prime: float
    r1: float
    r2: float
    L: float
    R1: float
    R2: float
    lambda_plus: float
    lambda_minus: float
    C0: float
    C1: float
    C2: float
    lambda_bar: float
    M_hat: float
    F_star: float
    _psi: Callable = field(repr=False, compare=False)

    @property
    def sqrt_D(self) -> float:
        return float(np.sqrt(self.params.D))

    def alpha(self, t):
        """Core decay factor; positive, decreasing, alpha' > -(mu/4) alpha."""
        t = np.asarray(t, dtype=float)
        gap = (self.c - self.c_prime) / self.sqrt_D
        lp, lm = self.lambda_plus, self.lambda_minus
        out = self.u0 / (lp * np.exp(lm * gap * t) - lm * np.exp(lp * gap * t))
        return out if out.ndim else float(out)

    def beta(self, r_offset):
        """Radial growth factor on Omega1; argument is physical offset from
        the inner interface r1 + c't."""
        r = np.asarray(r_offset, dtype=float) / self.sqrt_D
        lp, lm = self.lambda_plus, self.lambda_minus
        out = lp * np.exp(lm * r) - lm * np.exp(lp * r)
        return out if out.ndim else float(out)

    def psi(self, r_offset):
        """Bridge profile on Omega2; argument is physical offset from r1 + ct."""
        return self._psi(np.asarray(r_offset, dtype=float) / self.sqrt_D)

    def interfaces(self, t: float) -> tuple[float, float, float]:
        """|x| positions of the Omega0/1, Omega1/2, Omega2/3 interfaces."""
        return (self.r1 + self.c_prime * t, self.r1 + self.c * t,
                self.r2 + self.c * t)

    def region(self, r, t):
        """Index k of the Omega_k holding radius r at t >= 0 (the interfaces
        are then sorted); Omega_k ends at, and includes, interface k."""
        return np.searchsorted(self.interfaces(t), r)


def assemble_Fbar(bundle: SupersolutionBundle, x, t: float):
    """Piecewise female cap Fbar(x, t); continuous, radially nondecreasing."""
    r = np.abs(np.asarray(x, dtype=float))
    i0, i1, _ = bundle.interfaces(t)
    a = bundle.alpha(t)
    k = bundle.region(r, t)
    out = np.ones(r.shape)  # Omega3: the equilibrium
    out[k == 0] = a * bundle.beta(0.0)
    out[k == 1] = a * bundle.beta(r[k == 1] - i0)
    out[k == 2] = bundle.psi(r[k == 2] - i1)
    out = bundle.F_star * out
    return out if out.ndim else float(out)


def ebar_ode(bundle: SupersolutionBundle, x, t_end: float, dt: float,
             E0=None) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise egg cap: dEbar/dt = b Fbar (1 - Ebar/K) - (mu_E + nu_E) Ebar.

    x may be an array of positions (integrated in parallel).  E0 defaults to
    min(K, C0 Fbar(x,0), slaved E(Fbar(x,0))), the well-prepared choice.
    Returns (times, Ebar) with Ebar shaped (len(times), len(x)).
    """
    p = bundle.params
    x = np.atleast_1d(np.asarray(x, dtype=float))
    K = np.broadcast_to(p.K_at(x), x.shape)
    F0 = assemble_Fbar(bundle, x, 0.0)
    if E0 is None:
        E0 = np.minimum(np.minimum(K, bundle.C0 * F0), slaved_E(p, F0))
    E = np.array(np.broadcast_to(E0, x.shape), dtype=float)

    def rhs(E_val, t):
        return egg_rate(p, E_val, assemble_Fbar(bundle, x, t), K)

    n_steps = int(np.ceil(t_end / dt))
    times = np.empty(n_steps + 1)
    out = np.empty((n_steps + 1, x.size))
    times[0] = 0.0
    out[0] = E
    t = 0.0
    for k in range(n_steps):
        h = min(dt, t_end - t)
        k1 = rhs(E, t)
        k2 = rhs(E + 0.5 * h * k1, t + 0.5 * h)
        k3 = rhs(E + 0.5 * h * k2, t + 0.5 * h)
        k4 = rhs(E + h * k3, t + h)
        E = E + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
        times[k + 1] = t
        out[k + 1] = E
    return times, out


@dataclass(frozen=True)
class SterileCap:
    """Sterile-male cap: `height` on |x| <= Rs + ct, decay `rate` beyond."""

    height: float
    rate: float
    Rs: float
    c: float

    def __call__(self, x, t):
        r = np.abs(np.asarray(x, dtype=float))
        edge = self.Rs + self.c * t
        out = self.height * np.exp(-self.rate * np.maximum(r - edge, 0.0))
        return out if out.ndim else float(out)


def sterile_upper_bound(params: ModelParams, lambda_bar: float, c: float,
                        Rs: float, Ms0_sup: float) -> SterileCap:
    """Translating upper cap for the sterile males: height max(Ms0_sup,
    lambda_bar/mu_s), physical decay sqrt(mu_s/D).  Requires Rs beyond both
    the release annulus and the initial support."""
    return SterileCap(max(Ms0_sup, lambda_bar / params.mu_s),
                      np.sqrt(params.mu_s / params.D), Rs, c)


@dataclass(frozen=True)
class SterileBoundProfile:
    """Translating lower bound for the sterile-male field.

    kind "lower_annulus": Gaussian skirts around the plateau [r1, r2];
    kind "lower_annulus_tail": an exponential inner tail exp(eta (r - R1))
    joined C1 to the Gaussian skirt (release-with-tail variant).  All decay
    constants are stored in unit-diffusion units; eta_phys = eta / sqrt(D).
    """

    params: ModelParams
    kind: str
    lambda_bar: float
    c: float
    R1: float
    r1: float
    r2: float
    R2: float
    a: float
    b: float
    M_hat: float
    eta: float = 0.0
    eps_tail: float = 0.0

    def _pieces(self) -> list:
        """Piece table: (start, amplitude, shape, slope) per piece.

        A piece holds from its start (unit-diffusion offset s = (|x| - ct)
        / sqrt(D)) up to the next piece's start; its value is amplitude *
        shape(s) and its derivative amplitude * slope(s).
        """
        sd = np.sqrt(self.params.D)
        r1, r2, R1 = self.r1 / sd, self.r2 / sd, self.R1 / sd

        def gauss(rate, centre):
            def value(s):
                return np.exp(-rate * (s - centre) ** 2)
            return value, lambda s: -2.0 * rate * (s - centre) * value(s)

        flat = (lambda s: np.ones_like(s), lambda s: np.zeros_like(s))
        if self.kind == "lower_annulus":
            top = self.M_hat
            inner = [(-np.inf, top, *gauss(self.a, r1))]
        else:
            top = (1.0 + self.eps_tail) * self.M_hat
            inner = [(-np.inf, self.M_hat,
                      lambda s: np.exp(self.eta * (s - R1)),
                      lambda s: self.eta * np.exp(self.eta * (s - R1))),
                     (R1, top, *gauss(self.a, r1))]
        return inner + [(r1, top, *flat), (r2, top, *gauss(self.b, r2))]

    def shape(self, s):
        """Profile in the co-moving radial coordinate s = |x| - ct (physical)."""
        s = np.asarray(s, dtype=float) / np.sqrt(self.params.D)
        pieces = self._pieces()
        out = np.choose(_piece_index(pieces, s),
                        [amp * f(s) for _, amp, f, _ in pieces])
        return out if out.ndim else float(out)

    def _one_sided(self, s_joint: float, column: int) -> tuple[float, float]:
        # pick each side's piece by nudging off the offset, then evaluate that
        # piece's own closed form at the offset itself
        s = s_joint / np.sqrt(self.params.D)
        nudge = 1e-9 * max(abs(s), 1.0)
        pieces = self._pieces()
        out = []
        for q in (s - nudge, s + nudge):
            piece = pieces[_piece_index(pieces, q)]
            out.append(float(piece[1] * piece[column](s)))
        return out[0], out[1]

    def one_sided_slopes(self, s_joint: float) -> tuple[float, float]:
        """Analytic left/right derivatives of the shape at a physical offset.

        Used to certify C1 matching at the piece joints exactly (no finite
        differencing).  Derivatives are per physical length.
        """
        left, right = self._one_sided(s_joint, 3)
        sd = np.sqrt(self.params.D)
        return left / sd, right / sd

    def one_sided_values(self, s_joint: float) -> tuple[float, float]:
        """Analytic left/right limits of the shape at a physical offset."""
        return self._one_sided(s_joint, 2)

    def __call__(self, x, t):
        r = np.abs(np.asarray(x, dtype=float))
        return self.shape(r - self.c * t)

    def floor(self, x, t):
        """The guaranteed floor M_hat 1_{r1+ct < |x| < r2+ct} (plus tail)."""
        r = np.abs(np.asarray(x, dtype=float))
        s = r - self.c * t
        plateau = self.M_hat * ((s >= self.r1) & (s <= self.r2))
        if self.kind == "lower_annulus_tail":
            sd = np.sqrt(self.params.D)
            tail = self.M_hat * np.exp(self.eta * (s - self.r1) / sd) * (s < self.r1)
            return plateau + tail
        return np.asarray(plateau, dtype=float)


def _piece_index(pieces: list, s):
    """Index of the piece holding offset(s) s: the last start <= s."""
    return np.searchsorted([p[0] for p in pieces], s, side="right") - 1


def _skirt_constants(params: ModelParams, c: float, r1: float, r2: float,
                     R1: float, R2: float) -> tuple[float, float]:
    """Minimal Gaussian decay rates (unit-diffusion units) for the skirts."""
    if not 0 < R1 < r1 < r2 < R2:
        raise ValueError("geometry must satisfy 0 < R1 < r1 < r2 < R2")
    sd = np.sqrt(params.D)
    ct = c / sd
    r1t, r2t, R1t, R2t = r1 / sd, r2 / sd, R1 / sd, R2 / sd
    mu_s = params.mu_s
    din = r1t - R1t
    dout = R2t - r2t
    a = (1.0 + np.sqrt(1.0 + 4.0 * din**2 * mu_s)) / (4.0 * din**2)
    drift = ct + 1.0 / r2t
    b = ((drift * dout + 1.0
          + np.sqrt((1.0 + drift * dout) ** 2 + 4.0 * mu_s * dout**2))
         / (4.0 * dout**2))
    return float(a), float(b)


def _plateau_gain(params: ModelParams, c: float, r2: float, a: float,
                  b: float) -> float:
    """Plateau height per unit release for inner/outer skirt rates a, b."""
    sd = np.sqrt(params.D)
    drift = c / sd + sd / r2
    return min(1.0 / (2.0 * b + params.mu_s + 0.25 * drift**2),
               1.0 / (2.0 * a + params.mu_s))


def make_sterile_lower_bound(params: ModelParams, lambda_bar: float, c: float,
                             R1: float, r1: float, r2: float,
                             R2: float) -> SterileBoundProfile:
    """Case-(i) lower bound: plateau M_hat on the inner annulus [r1, r2]."""
    a, b = _skirt_constants(params, c, r1, r2, R1, R2)
    return SterileBoundProfile(params, "lower_annulus", lambda_bar, c,
                               R1, r1, r2, R2, a, b,
                               lambda_bar * _plateau_gain(params, c, r2, a, b))


def make_sterile_lower_bound_tail(params: ModelParams, lambda_bar: float,
                                  c: float, R1: float, r1: float, r2: float,
                                  R2: float, eta: float) -> SterileBoundProfile:
    """Case-(ii) lower bound with an exponential inner tail of rate eta.

    eta is the physical tail rate of the release function.  The joint at
    R1 is made exactly C1 by eps_tail = e^{eta (r1 - R1)/2} - 1 and
    a_eps = eta / (2 (r1 - R1)) (unit-diffusion units), under which the
    plateau floor and the sub-solution inequalities still hold.
    """
    if not eta > 0:
        raise ValueError("eta must be > 0")
    _, b = _skirt_constants(params, c, r1, r2, R1, R2)
    sd = np.sqrt(params.D)
    eta_t = eta * sd  # exponent per rescaled length
    din = (r1 - R1) / sd
    eps_tail = float(np.expm1(0.5 * eta_t * din))
    a_eps = eta_t / (2.0 * din)
    M_hat = lambda_bar / (1.0 + eps_tail) * _plateau_gain(params, c, r2, a_eps, b)
    return SterileBoundProfile(params, "lower_annulus_tail", lambda_bar, c,
                               R1, r1, r2, R2, a_eps, b, M_hat,
                               eta=eta_t, eps_tail=eps_tail)


def find_supersolution_bundle(params: ModelParams, c: float, r1: float = 6.0,
                              R1: float = 4.0, C0: Optional[float] = None,
                              mu: Optional[float] = None,
                              eps: Optional[float] = None,
                              safety: float = 2.0) -> SupersolutionBundle:
    """Derive a full constant set from the construction's sufficient conditions.

    Search order: shrink mu (then eps) until the drift conditions hold with
    margin, compute C1 and C2 from the explicit bounds, u0 from the bistable
    smallness condition, the bridge width L from the psi root, the outer
    release radius R2 = r2 + (r1 - R1), and finally lambda_bar so the annulus
    suppression inequality holds with the given safety factor.
    """
    p = params
    if not isinstance(p.gamma_kind, Bistable):
        raise ValueError("the bundle search covers the bistable case")
    eq = solve_equilibria(p)
    if eq.upper is None:
        raise ValueError("no positive equilibrium: nothing to block")
    E_star, M_star, F_star = eq.upper
    if C0 is None:
        C0 = max(E_star / F_star, M_star / F_star)
    sd = np.sqrt(p.D)
    ct = c / sd
    cpt = (5.0 / 6.0) * ct
    ce = p.mu_E + p.nu_E

    if mu is None:
        mu = scale_until(
            lambda m: (m / 4.0 + cpt * np.sqrt(m / 2.0) <= 0.5 * ce
                       and m <= 0.5 * min(p.mu_F, p.mu_M)),
            0.5 * min(p.mu_F, p.mu_M), 0.5, 1e-300)
    if eps is None:
        eps = scale_until(
            lambda e: ct * np.sqrt(e) <= 0.5 * ce and e <= 0.9 * min(p.mu_F, p.mu_M),
            0.6 * min(p.mu_F, p.mu_M), 0.5, 1e-300)
    if mu is None or eps is None:
        raise RuntimeError("drift conditions unsatisfiable at this speed")

    drift_pen = max(mu / 4.0 + cpt * np.sqrt(mu / 2.0), ct * np.sqrt(eps))
    if drift_pen >= ce:
        raise RuntimeError("drift conditions unsatisfiable at this speed")
    C1 = safety * max(C0, p.K_scalar / F_star, p.b / (ce - drift_pen))
    gap = p.mu_M - max(mu, eps)
    if gap <= 0:
        raise RuntimeError("mu, eps must stay below mu_M")
    C2 = safety * max(C0, (1.0 - p.rho) * p.nu_E * C1 / gap)

    gamma = p.gamma_kind.gamma
    q = (p.mu_F - mu) / (p.rho * p.nu_E * C1)
    if q >= 1.0:
        u0 = 0.5
    else:
        u0 = 0.5 * (-np.log1p(-q)) / (gamma * C2 * F_star)
    u0 = min(u0, 0.5)

    psi, _, L_t = psi_profile(eps, u0, ct, r1 / sd)
    L = L_t * sd
    r2 = r1 + L
    R2 = r2 + (r1 - R1)

    lower = make_sterile_lower_bound(params, 1.0, c, R1, r1, r2, R2)
    C12 = lower.M_hat  # per unit lambda_bar
    deficit = p.rho * p.nu_E * C1 - (p.mu_F - eps)
    if deficit <= 0:
        M_hat_req = 1.0
    else:
        M_hat_req = C2 * F_star * deficit / (p.gamma_s * (p.mu_F - eps))
    lambda_bar = safety * M_hat_req / C12

    lp, lm = lambda_roots(mu, cpt + sd / r1)
    return SupersolutionBundle(
        params=p, u0=u0, mu=mu, eps=eps, c=c, c_prime=(5.0 / 6.0) * c,
        r1=r1, r2=r2, L=L, R1=R1, R2=R2,
        lambda_plus=lp, lambda_minus=lm,
        C0=C0, C1=C1, C2=C2, lambda_bar=lambda_bar,
        M_hat=C12 * lambda_bar, F_star=F_star, _psi=psi)
