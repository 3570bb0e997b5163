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
constants come from the sufficient inequalities of the construction.  A
lower bound keeps the `ReleaseSchedule` it bounds.  A builder that cannot
build its object raises `CertificateUnavailable`, naming the condition.

All closed forms hold for unit diffusion, so lengths and speeds are rescaled
by sqrt(D) internally; public evaluation is in physical coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

import numpy as np

from .equilibria import (EquilibriumSet, bisect, scale_until,
                         solve_equilibria)
from .model import (ModelParams, egg_rates, egg_step,
                    well_prepared_start)
from .solver import ReleaseSchedule


class CertificateUnavailable(ValueError):
    """A certificate's object cannot be built for these inputs; the message
    names the condition that fails."""


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
        raise CertificateUnavailable("psi_profile requires eps > 0, u0 in "
                                     "(0,1), c > 0, r1 > 0")
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
        raise CertificateUnavailable("psi fails to reach 1")
    L = bisect(lambda r: psi(r) - 1.0, 0.0, hi)
    return psi, dpsi, L


@dataclass(frozen=True)
class SupersolutionBundle:
    """All constants of the moving-cap construction, in physical units.

    c_prime in ((2/3) c, c); r2 = r1 + L with L fixed by the psi bridge;
    lambda_plus/minus are the Omega1 exponents (unit-diffusion units, product
    -mu/2); C1, C2 bound Ebar and Mbar by multiples of Fbar; lambda_bar is
    the release strength, which sets the annulus sterile floor.
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

    def interfaces(self, t):
        """|x| positions of the Omega0/1, Omega1/2, Omega2/3 interfaces; each
        has the shape of t (floats for a scalar t)."""
        return (self.r1 + self.c_prime * t, self.r1 + self.c * t,
                self.r2 + self.c * t)

    def region(self, r, t):
        """Index k of the Omega_k holding radius r at t >= 0: the number of
        interfaces strictly below r, so Omega_k ends at, and includes,
        interface k.  r and t broadcast (a time column against a row of
        radii gives one row of indices per time).

        The three comparisons accumulate in place into one intp array, so
        a block costs one index array and no per-interface copies; the
        integers are those of summing the comparisons."""
        r = np.asarray(r, dtype=float)
        i0, i1, i2 = self.interfaces(t)
        k = np.add(r > i0, r > i1, dtype=np.intp)
        k += r > i2
        return k


# Rows per assemble_Fbar call when a caller walks a long time column: one
# (FBAR_BLOCK, n_x) block at a time keeps peak memory flat in the number of
# times, where the whole (n_t, n_x) table would grow with it.  The block
# and its Ebar rows are most of the walk's memory (assemble_Fbar's
# temporaries stay within _BAND_VALUES values), so this also sets the
# walk's peak.
FBAR_BLOCK = 40
# Values per chunk of an Fbar band (64 KB of float64); see assemble_Fbar
_BAND_VALUES = 8192


def assemble_Fbar(bundle: SupersolutionBundle, x, t):
    """Piecewise female cap Fbar(x, t); continuous, radially nondecreasing.

    A scalar t gives an array shaped like x (a float for a scalar x).  A
    time array t gives the block of shape (*t.shape, *x.shape), one row
    per time; each row is bitwise equal to the scalar-t call, since every
    node goes through the same elementwise operations.

    On the radii sorted nondecreasing (x is sorted first unless |x|
    already is), Omega_k is one run of columns per row, found by
    searchsorted of the sorted `interfaces(t)`.  Omega3 holds F*, the
    fill; Omega2, Omega1 and Omega0 hold F* psi(|x| - r1 - ct),
    F* (alpha beta(|x| - r1 - c't)) and F* (alpha beta(0)), and are
    written over it in that order.  Each is taken on the band its runs
    span, _BAND_VALUES values at a time so temporaries stay in cache, and
    written from the band's start to each row's run end: what lies before
    a run belongs to the inner regions, written after it.  The offsets
    are clipped between each row's two bounding interfaces: rounding is
    monotone, so a run's own offsets keep their bits, at negative t too.
    """
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    r = np.abs(x).ravel()
    order = None
    if np.any(r[1:] < r[:-1]):
        order = np.argsort(r, kind="stable")
        r = r[order]
    ts = t.reshape(-1, 1)
    ifaces = bundle.interfaces(ts)
    bounds = np.sort(ifaces, axis=0)
    # Omega_k (k < 3) is the columns [edges[k], edges[k + 1]) of each row
    edges = np.zeros((4, ts.shape[0]), dtype=np.intp)
    edges[1:] = np.searchsorted(r, bounds[..., 0], side="right")
    F_star = bundle.F_star
    a = bundle.alpha(ts)
    out = np.full((ts.shape[0], r.size), F_star)
    for k in (2, 1, 0):
        lo = int(edges[k].min(initial=r.size))
        hi = int(edges[k + 1].max(initial=0))
        if lo >= hi:
            continue
        cols = np.arange(lo, hi)
        step = max(1, _BAND_VALUES // (hi - lo))
        for start in range(0, ts.shape[0], step):
            rows = slice(start, start + step)
            if k == 0:
                values = F_star * (a[rows] * bundle.beta(0.0))
            else:
                origin = ifaces[k - 1][rows]
                off = r[lo:hi] - origin
                np.maximum(off, bounds[k - 1][rows] - origin, out=off)
                np.minimum(off, bounds[k][rows] - origin, out=off)
                # in place: a product's bits do not hang on factor order
                if k == 1:
                    values = bundle.beta(off)
                    values *= a[rows]
                else:
                    values = bundle.psi(off)
                values *= F_star
            np.copyto(out[rows, lo:hi], values,
                      where=cols < edges[k + 1, rows, None])
    if order is not None:
        out[:, order] = out.copy()
    out = out.reshape(t.shape + x.shape)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class EbarBlock:
    """Consecutive rows of the egg-cap walk, from row `start` on: the times,
    and Fbar and Ebar at those times, each shaped (len(times), n_x)."""

    start: int
    times: np.ndarray
    Fbar: np.ndarray
    Ebar: np.ndarray


def walk_times(t_end: float, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Row times and step sizes of `ebar_ode`: steps of dt and a short last
    step landing on t_end, the times accumulated as the steps take them
    (t += h)."""
    n_steps = int(np.ceil(t_end / dt))
    times = np.empty(n_steps + 1)
    steps = np.empty(n_steps)
    times[0] = 0.0
    t = 0.0
    for k in range(n_steps):
        steps[k] = h = min(dt, t_end - t)
        t += h
        times[k + 1] = t
    return times, steps


def ebar_ode(bundle: SupersolutionBundle, x, t_end: float,
             dt: float) -> Iterator[EbarBlock]:
    """Pointwise egg cap: an upper bound of the solution of dEbar/dt =
    b Fbar (1 - Ebar/K) - (mu_E + nu_E) Ebar from the start.

    x may be an array of positions (integrated in parallel).  The start is
    always the well-prepared one, `model.well_prepared_start` of Fbar(x, 0)
    with C0.

    On the `walk_times` steps, each row is the exact egg step of the
    previous one (`model.egg_step`, as the solver takes it) with Fbar
    frozen at the step's start.  The rows bound the egg equation's
    solution from above, by induction over the steps, if Fbar(x, .) is
    nonincreasing in t, as it is: alpha falls, and beta and psi grow in
    offsets that fall as the interfaces move outward.  Over a step the
    frozen rate is then at or above the true one (the egg rate grows with
    F for E <= K), so the frozen solution from the true value ends above
    it, and the step grows with E, so from a row above it ends higher.

    The rows are yielded as they come: first the row at t = 0, then one
    EbarBlock per FBAR_BLOCK steps holding the step-end rows, with the
    Fbar rows of one assemble_Fbar call at those times; each step reads the
    previous row's Fbar, so no other Fbar is assembled.  The rows are
    bitwise those of the same steps on fresh arrays with scalar-t Fbar.
    No yielded array is written after it is yielded; the walk reads the
    last rows of a block for the next step, so callers do not write into
    them.  Only the current block is live, so memory stays flat in the
    number of steps; a caller that needs the whole table concatenates the
    blocks.
    """
    p = bundle.params
    x = np.atleast_1d(np.asarray(x, dtype=float))
    K = np.broadcast_to(p.K_at(x), x.shape)
    F = assemble_Fbar(bundle, x, 0.0)
    E = well_prepared_start(p, F, bundle.C0, K)[0]

    times, steps = walk_times(t_end, dt)
    yield EbarBlock(0, times[:1], F[None], E[None])
    for start in range(0, steps.size, FBAR_BLOCK):
        stop = min(start + FBAR_BLOCK, steps.size)
        F_ends = assemble_Fbar(bundle, x, times[start + 1:stop + 1])
        out = np.empty_like(F_ends)
        for j, h in enumerate(steps[start:stop].tolist()):
            E = egg_step(E, *egg_rates(p, E, F, K), h, K, out=out[j])
            F = F_ends[j]
        yield EbarBlock(start + 1, times[start + 1:stop + 1], F_ends, out)


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
                        Rs: float) -> SterileCap:
    """Translating upper cap for the sterile males: height lambda_bar/mu_s,
    physical decay sqrt(mu_s/D).  The height bounds the initial sterile
    dose of `solver.make_initial`, which is at most lambda_bar/mu_s.
    Requires Rs beyond both the release annulus and the initial support."""
    return SterileCap(lambda_bar / params.mu_s,
                      np.sqrt(params.mu_s / params.D), Rs, c)


@dataclass(frozen=True)
class SterileBoundProfile:
    """Translating lower bound for the sterile males of `release`.

    kind "lower_annulus" (an annulus release): Gaussian skirts around the
    plateau [r1, r2]; kind "lower_annulus_tail" (an annulus_tail release):
    an exponential inner tail exp(eta (r - R1)) joined C1 to the Gaussian
    skirt.  The skirt rates a, b are in unit-diffusion units.
    """

    params: ModelParams
    release: ReleaseSchedule
    r1: float
    r2: float
    a: float
    b: float
    M_hat: float
    eps_tail: float = 0.0

    @property
    def kind(self) -> str:
        return f"lower_{self.release.kind}"

    @property
    def eta(self) -> float:
        """The release's tail rate per unit-diffusion length."""
        return self.release.eta * np.sqrt(self.params.D)

    def _pieces(self) -> list:
        """Piece table: (start, amplitude, shape, slope) per piece.

        A piece holds from its start (unit-diffusion offset s = (|x| - ct)
        / sqrt(D)) up to the next piece's start; its value is amplitude *
        shape(s) and its derivative amplitude * slope(s).
        """
        sd = np.sqrt(self.params.D)
        r1, r2, R1 = self.r1 / sd, self.r2 / sd, self.release.R1 / sd

        def gauss(rate, centre):
            def value(s):
                return np.exp(-rate * (s - centre) ** 2)
            return value, lambda s: -2.0 * rate * (s - centre) * value(s)

        flat = (lambda s: np.ones_like(s), lambda s: np.zeros_like(s))
        if self.kind == "lower_annulus":
            top = self.M_hat
            inner = [(-np.inf, top, *gauss(self.a, r1))]
        else:
            def tail(s):  # clamped at 0 past R1, where it is not taken
                return np.exp(np.minimum(self.eta * (s - R1), 0.0))

            top = (1.0 + self.eps_tail) * self.M_hat
            inner = [(-np.inf, self.M_hat, tail,
                      lambda s: self.eta * tail(s)),
                     (R1, top, *gauss(self.a, r1))]
        return inner + [(r1, top, *flat), (r2, top, *gauss(self.b, r2))]

    def shape(self, s):
        """Profile in the co-moving radial coordinate s = |x| - ct (physical)."""
        s = np.asarray(s, dtype=float) / np.sqrt(self.params.D)
        pieces = self._pieces()
        out = np.choose(_piece_index(pieces, s),
                        [amp * f(s) for _, amp, f, _ in pieces])
        return out if out.ndim else float(out)

    def one_sided(self, s_joint: float) -> tuple[tuple, tuple]:
        """Analytic left/right limits and left/right derivatives of the
        shape at a physical offset: ((v_left, v_right), (d_left, d_right)).

        Each side's piece is picked by nudging off the offset, then its own
        closed form is evaluated at the offset itself, so C0 and C1
        matching at the piece joints is certified exactly (no finite
        differencing).  Derivatives are per physical length.
        """
        sd = np.sqrt(self.params.D)
        s = s_joint / sd
        nudge = 1e-9 * max(abs(s), 1.0)
        pieces = self._pieces()
        sides = [pieces[_piece_index(pieces, q)]
                 for q in (s - nudge, s + nudge)]
        values = tuple(float(amp * f(s)) for _, amp, f, _ in sides)
        slopes = tuple(float(amp * df(s)) / sd for _, amp, _, df in sides)
        return values, slopes

    def __call__(self, x, t):
        r = np.abs(np.asarray(x, dtype=float))
        return self.shape(r - self.release.c * t)

    def floor(self, x, t):
        """The plateau floor M_hat 1_{r1+ct <= |x| <= r2+ct}, a lower bound
        of either kind: a tail profile's plateau is (1 + eps_tail) M_hat."""
        s = np.abs(np.asarray(x, dtype=float)) - self.release.c * t
        return self.M_hat * ((s >= self.r1) & (s <= self.r2))


def _piece_index(pieces: list, s):
    """Index of the piece holding offset(s) s: the last start <= s."""
    return np.searchsorted([p[0] for p in pieces], s, side="right") - 1


def _skirt_constants(params: ModelParams, c: float, r1: float, r2: float,
                     R1: float, R2: float) -> tuple[float, float]:
    """Minimal Gaussian decay rates (unit-diffusion units) for the skirts."""
    if not 0 < R1 < r1 < r2 < R2:
        raise CertificateUnavailable(
            f"geometry must satisfy 0 < R1 < r1 < r2 < R2, got R1 = {R1:g}, "
            f"r1 = {r1:g}, r2 = {r2:g}, R2 = {R2:g}")
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


def make_sterile_lower_bound(params: ModelParams, release: ReleaseSchedule,
                             r1: float, r2: float) -> SterileBoundProfile:
    """Lower bound for the sterile males of an "annulus" or "annulus_tail"
    release: the plateau M_hat on [r1, r2], inside the release's [R1, R2].

    For the tail release (case (ii)), with eta the release's physical tail
    rate, the joint at R1 is made exactly C1 by eps_tail =
    e^{eta (r1 - R1)/2} - 1 and a_eps = eta / (2 (r1 - R1)) (unit-diffusion
    units), under which the plateau floor and the sub-solution
    inequalities still hold.  Raises CertificateUnavailable when a skirt
    rate overflows or the plateau gain underflows to 0, as at a speed so
    large that (c / sqrt(D))^2 overflows.
    """
    s = release
    with np.errstate(over="ignore"):  # an overflow is refused below
        a, b = _skirt_constants(params, s.c, r1, r2, s.R1, s.R2)
        eps_tail = 0.0
        if s.kind != "annulus":
            sd = np.sqrt(params.D)
            eta_t = s.eta * sd  # exponent per rescaled length
            din = (r1 - s.R1) / sd
            eps_tail = float(np.expm1(0.5 * eta_t * din))
            a = eta_t / (2.0 * din)
        gain = _plateau_gain(params, s.c, r2, a, b)
    if not (np.isfinite(a) and np.isfinite(b) and np.isfinite(eps_tail)
            and gain > 0):
        raise CertificateUnavailable(
            f"sterile floor constants out of range at c = {s.c:g}: skirt "
            f"rates a = {a:g}, b = {b:g}, plateau gain {gain:g}")
    M_hat = (s.lambda_bar * gain if s.kind == "annulus"
             else s.lambda_bar / (1.0 + eps_tail) * gain)
    return SterileBoundProfile(params, s, r1, r2, a, b, M_hat, eps_tail)


def find_supersolution_bundle(params: ModelParams, c: float, r1: float = 6.0,
                              R1: float = 4.0, eps: Optional[float] = None,
                              safety: float = 2.0,
                              equilibria: Optional[EquilibriumSet] = None
                              ) -> SupersolutionBundle:
    """Derive a full constant set from the construction's sufficient conditions.

    Search order: C0 = max(E*, M*)/F*; shrink mu (then eps, unless given)
    until the drift conditions hold with margin, compute C1 and C2 from the
    explicit bounds, u0 from the bistable smallness condition, the bridge
    width L from the psi root, the outer release radius R2 = r2 + (r1 - R1),
    and finally lambda_bar so the annulus suppression inequality holds with
    the given safety factor.  `equilibria` are the params' own, if already
    solved.
    """
    p = params
    if p.gamma is None:
        raise CertificateUnavailable("the bundle search covers the "
                                     "bistable case")
    eq = equilibria if equilibria is not None else solve_equilibria(p)
    if eq.upper is None:
        raise CertificateUnavailable("no positive equilibrium: nothing "
                                     "to block")
    E_star, M_star, F_star = eq.upper
    C0 = max(E_star / F_star, M_star / F_star)
    sd = np.sqrt(p.D)
    ct = c / sd
    cpt = (5.0 / 6.0) * ct
    ce = p.egg_loss

    mu = scale_until(
        lambda m: (m / 4.0 + cpt * np.sqrt(m / 2.0) <= 0.5 * ce
                   and m <= 0.5 * min(p.mu_F, p.mu_M)),
        0.5 * min(p.mu_F, p.mu_M), 0.5, 1e-300)
    if eps is None:
        eps = scale_until(
            lambda e: ct * np.sqrt(e) <= 0.5 * ce and e <= 0.9 * min(p.mu_F, p.mu_M),
            0.6 * min(p.mu_F, p.mu_M), 0.5, 1e-300)
    drift_pen = (np.inf if mu is None or eps is None else
                 max(mu / 4.0 + cpt * np.sqrt(mu / 2.0), ct * np.sqrt(eps)))
    if drift_pen >= ce:
        raise CertificateUnavailable("drift conditions unsatisfiable at "
                                     "this speed")
    C1 = safety * max(C0, p.K_scalar / F_star, p.b / (ce - drift_pen))
    gap = p.mu_M - max(mu, eps)
    if gap <= 0:
        raise CertificateUnavailable("mu, eps must stay below mu_M")
    C2 = safety * max(C0, p.male_recruitment * C1 / gap)

    q = (p.mu_F - mu) / (p.female_recruitment * C1)
    if q >= 1.0:
        u0 = 0.5
    else:
        u0 = 0.5 * (-np.log1p(-q)) / (p.gamma * C2 * F_star)
    u0 = min(u0, 0.5)

    psi, _, L_t = psi_profile(eps, u0, ct, r1 / sd)
    L = L_t * sd
    r2 = r1 + L
    R2 = r2 + (r1 - R1)

    lower = make_sterile_lower_bound(
        params, ReleaseSchedule("annulus", 1.0, R1, R2, c), r1, r2)
    C12 = lower.M_hat  # per unit lambda_bar
    deficit = p.female_recruitment * C1 - (p.mu_F - eps)
    if deficit > 0 and p.gamma_s == 0:
        raise CertificateUnavailable("gamma_s = 0: no sterile floor can "
                                     "block the female recruitment deficit")
    M_hat_req = (1.0 if deficit <= 0 else
                 C2 * F_star * deficit / (p.gamma_s * (p.mu_F - eps)))
    lambda_bar = safety * M_hat_req / C12

    lp, lm = lambda_roots(mu, cpt + sd / r1)
    return SupersolutionBundle(
        params=p, u0=u0, mu=mu, eps=eps, c=c, c_prime=(5.0 / 6.0) * c,
        r1=r1, r2=r2, L=L, R1=R1, R2=R2,
        lambda_plus=lp, lambda_minus=lm,
        C0=C0, C1=C1, C2=C2, lambda_bar=lambda_bar,
        F_star=F_star, _psi=psi)
