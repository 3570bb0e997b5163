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
from typing import Callable, Iterator, NamedTuple, Optional

import numpy as np

from .equilibria import (EquilibriumSet, bisect, scale_until,
                         solve_equilibria)
from .model import ModelParams, egg_rate, slaved_E
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
# and its b Fbar buffers are most of the walk's memory (assemble_Fbar's
# temporaries stay within _BAND_VALUES values), so this also sets the
# walk's peak.
FBAR_BLOCK = 40
# Values per chunk of an Fbar band (64 KB of float64); see _Runs.fill_band
_BAND_VALUES = 8192


def assemble_Fbar(bundle: SupersolutionBundle, x, t, out=None):
    """Piecewise female cap Fbar(x, t); continuous, radially nondecreasing.

    A scalar t gives an array shaped like x (a float for a scalar x).  A
    time array t gives the block of shape (*t.shape, *x.shape), one row
    per time; each row is bitwise equal to the scalar-t call, since every
    node goes through the same elementwise operations.  Callers walking
    many times pass FBAR_BLOCK of them per call, and may pass a
    C-contiguous `out` of the block's shape to receive it.

    On the radii sorted nondecreasing (x is sorted first unless |x|
    already is), Omega_k is one run of columns per row, found by
    searchsorted of `interfaces(t)`.  Omega0 holds F* (alpha beta(0)),
    one value per time, and Omega3 holds F*; Omega1 and Omega2 hold
    F* (alpha beta(|x| - r1 - c't)) and F* psi(|x| - r1 - ct), each
    evaluated once on the band of columns its runs span, a few rows at a
    time (`_Runs.fill_band`).
    """
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    r = np.abs(x).ravel()
    order = None
    if np.any(r[1:] < r[:-1]):
        order = np.argsort(r, kind="stable")
        r = r[order]
    ts = t.reshape(-1, 1)
    # the run of Omega_k is [edges[k], edges[k + 1]) in each row: node j is
    # in Omega_k when k interfaces lie strictly below r[j]
    ifaces = bundle.interfaces(ts)
    edges = np.zeros((5, ts.shape[0]), dtype=np.intp)
    edges[1:4] = np.sort([np.searchsorted(r, i.ravel(), side="right")
                          for i in ifaces], axis=0)
    edges[4] = r.size
    F_star = bundle.F_star
    a = bundle.alpha(ts)
    out = (np.empty((ts.shape[0], r.size)) if out is None
           else out.reshape(ts.shape[0], r.size))
    if out.size:
        inner, ramp, bridge, far = _Runs.of(edges)
        inner.fill(out, F_star * (a * bundle.beta(0.0)))

        # F* (alpha beta) and F* psi, scaled in place: a product's bits do
        # not depend on the order of its two factors
        def ramp_values(offsets, rows):
            values = bundle.beta(offsets)
            values *= a[rows]
            values *= F_star
            return values

        def bridge_values(offsets, rows):
            values = bundle.psi(offsets)
            values *= F_star
            return values

        ramp.fill_band(out, r, ifaces[0], ramp_values)
        bridge.fill_band(out, r, ifaces[1], bridge_values)
        far.fill(out, F_star)  # Omega3: the equilibrium
    if order is not None:
        out[:, order] = out.copy()
    out = out.reshape(t.shape + x.shape)
    return out if out.ndim else float(out)


class _Runs(NamedTuple):
    """One region's run of columns [starts[j], stops[j]) in each row j:
    together they span the band [lo, hi), and every run covers the core
    [core_lo, core_hi), which is empty unless core_lo < core_hi."""

    starts: np.ndarray
    stops: np.ndarray
    lo: int
    hi: int
    core_lo: int
    core_hi: int

    @classmethod
    def of(cls, edges: np.ndarray) -> list:
        """The runs [edges[k], edges[k + 1]) of each region k."""
        lows, highs = edges.min(axis=1).tolist(), edges.max(axis=1).tolist()
        return [cls(edges[k], edges[k + 1], lows[k], highs[k + 1], highs[k],
                    lows[k + 1]) for k in range(edges.shape[0] - 1)]

    def ragged(self) -> list:
        """The nonempty column ranges of the band outside the core."""
        if self.core_lo >= self.core_hi:
            return [(self.lo, self.hi)] if self.lo < self.hi else []
        return [(a, b) for a, b in ((self.lo, self.core_lo),
                                    (self.core_hi, self.hi)) if a < b]

    def offsets(self, r: np.ndarray, origin: np.ndarray,
                rows: slice) -> np.ndarray:
        """r - origin on the band, for the runs of `rows`, each row's
        entries clipped into the offsets of its own run (zero for an empty
        run).

        Rounding is monotone, so a run's own offsets lie between those of
        its first and last node and keep their bits; an entry outside the
        run gets an argument the run itself takes, so it cannot overflow
        where the run does not.  Core columns are in every run and need no
        clipping."""
        origin = origin[rows]
        off = r[self.lo:self.hi] - origin
        ragged = self.ragged()
        if ragged:
            starts, stops = self.starts[rows], self.stops[rows]
            o = origin[:, 0]
            empty = stops <= starts
            first = np.where(empty, 0.0, r[np.minimum(starts, r.size - 1)] - o)
            last = np.where(empty, 0.0, r[np.maximum(stops - 1, 0)] - o)
            for a, b in ragged:
                cols = off[:, a - self.lo:b - self.lo]
                np.maximum(cols, first[:, None], out=cols)
                np.minimum(cols, last[:, None], out=cols)
        return off

    def fill_band(self, out: np.ndarray, r: np.ndarray, origin: np.ndarray,
                  values: Callable) -> None:
        """Fill the runs with values(offsets, rows), the values on the band
        for a slice of rows, at the `offsets` from `origin`.

        The band is taken _BAND_VALUES values at a time, a few rows each,
        so every temporary of `values` stays small: blocks that small are
        reused from the allocator's free lists and stay in cache, where
        whole-band temporaries were mapped, and page-faulted, afresh on
        every call.  Each element's operations are the same either way."""
        if self.lo >= self.hi:
            return
        step = max(1, _BAND_VALUES // (self.hi - self.lo))
        for start in range(0, self.starts.size, step):
            rows = slice(start, start + step)
            self.fill(out, values(self.offsets(r, origin, rows), rows), rows)

    def fill(self, out: np.ndarray, values, rows: slice = slice(None)
             ) -> None:
        """Write the runs of `rows` into out from `values`: their values on
        the band, or one value per row, or one value.  The core is copied
        whole, and only the ragged columns go through a mask."""
        def part(a, b):  # the values on columns [a, b)
            if np.ndim(values) == 2 and values.shape[1] > 1:
                return values[:, a - self.lo:b - self.lo]
            return values

        if self.core_lo < self.core_hi:
            out[rows, self.core_lo:self.core_hi] = part(self.core_lo,
                                                        self.core_hi)
        for a, b in self.ragged():
            cols = np.arange(a, b)
            np.copyto(out[rows, a:b], part(a, b),
                      where=((cols >= self.starts[rows, None])
                             & (cols < self.stops[rows, None])))


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


def ebar_ode(bundle: SupersolutionBundle, x, t_end: float, dt: float,
             E0=None) -> Iterator[EbarBlock]:
    """Pointwise egg cap: dEbar/dt = b Fbar (1 - Ebar/K) - (mu_E + nu_E) Ebar.

    x may be an array of positions (integrated in parallel).  E0 defaults to
    min(K, C0 Fbar(x,0), slaved E(Fbar(x,0))), the well-prepared choice.

    Classical RK4 on the `walk_times` steps, yielded as it goes: first the
    row at t = 0, then one EbarBlock per FBAR_BLOCK steps holding the
    step-end rows.  Each block takes one assemble_Fbar call for its
    step-end times and one for its half-step times, and b Fbar is formed
    once per block: its half-step row serves k2 and k3, its step-end row
    k4 and the next step's k1.  The two b Fbar blocks, the stages and the
    sum ((k1 + 2 k2) + 2 k3) + k4, scaled by h/6, run in buffers
    allocated once, through egg_rate's bF and out, and each step-end Ebar
    row is written straight into its block.  Every element gets the
    operations and operands of the plain formula, so the rows are bitwise
    those of four egg_rate calls per step on fresh arrays.  The yielded
    Fbar rows are bitwise
    those of assemble_Fbar at the same times, and no yielded array is
    written after it is yielded.  Only the current block is live, so
    memory stays flat in the number of steps; a caller that needs the
    whole table concatenates the blocks.
    """
    p = bundle.params
    x = np.atleast_1d(np.asarray(x, dtype=float))
    K = np.broadcast_to(p.K_at(x), x.shape)
    F_now = assemble_Fbar(bundle, x, 0.0)
    if E0 is None:
        E0 = np.minimum(np.minimum(K, bundle.C0 * F_now), slaved_E(p, F_now))
    E = np.array(np.broadcast_to(E0, x.shape), dtype=float)

    times, steps = walk_times(t_end, dt)
    n_steps = steps.size
    halves = times[:-1] + 0.5 * steps

    yield EbarBlock(0, times[:1], F_now[None], E[None])
    bF_now = p.b * F_now
    k1, k2, k3, k4, stage = (np.empty_like(E) for _ in range(5))
    bF_blocks = np.empty((2, min(FBAR_BLOCK, n_steps)) + x.shape)
    for start in range(0, n_steps, FBAR_BLOCK):
        stop = min(start + FBAR_BLOCK, n_steps)
        F_ends = assemble_Fbar(bundle, x, times[start + 1:stop + 1])
        # the half-step rows are not yielded, so b Fbar overwrites them
        bF_halves = assemble_Fbar(bundle, x, halves[start:stop],
                                  out=bF_blocks[0, :stop - start])
        bF_halves *= p.b
        bF_ends = np.multiply(p.b, F_ends, out=bF_blocks[1, :stop - start])
        out = np.empty_like(F_ends)
        for j in range(stop - start):
            h = steps[start + j]
            bF_mid, bF_end = bF_halves[j], bF_ends[j]
            egg_rate(p, E, None, K, bF=bF_now, out=k1)
            np.add(E, np.multiply(0.5 * h, k1, out=stage), out=stage)
            egg_rate(p, stage, None, K, bF=bF_mid, out=k2)
            np.add(E, np.multiply(0.5 * h, k2, out=stage), out=stage)
            egg_rate(p, stage, None, K, bF=bF_mid, out=k3)
            np.add(E, np.multiply(h, k3, out=stage), out=stage)
            egg_rate(p, stage, None, K, bF=bF_end, out=k4)
            # E + h/6 (((k1 + 2 k2) + 2 k3) + k4), summed into k1
            k1 += np.multiply(2.0, k2, out=k2)
            k1 += np.multiply(2.0, k3, out=k3)
            k1 += k4
            k1 *= h / 6.0
            E = np.add(E, k1, out=out[j])
            bF_now = bF_end
        bF_now = bF_now.copy()  # the next block refills bF_blocks
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
        return self.shape(r - self.release.c * t)

    def floor(self, x, t):
        """The guaranteed floor M_hat 1_{r1+ct < |x| < r2+ct} (plus tail)."""
        r = np.abs(np.asarray(x, dtype=float))
        s = r - self.release.c * t
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
