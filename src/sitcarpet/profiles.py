"""Stationary monotone profiles on a half line: the invading sub-solution.

Two building blocks:

* `halfline_green_solve` solves -u'' + mu u = psi(x) on (0, inf) with u(0) = 0 and
  u bounded, for nondecreasing bounded psi, through the half-line Green
  kernel.  The quadrature uses exponentially weighted cumulative recurrences
  (per-cell Gauss-Legendre), which are stable for arbitrarily large domains.

* `build_stationary_F` integrates the first-order reduction
  F' = sqrt(2 (G(F_m) - G(F))) of the female equation, where G is the wave
  potential from `equilibria.potential_G` and F_m its smallest maximizer; the
  resulting profile rises from 0 to F_m.  `build_stationary_M` then produces
  the companion male profile by the Green solve.

Profiles are built in diffusion-rescaled coordinates y = x / sqrt(D) (the
closed-form identities hold with unit diffusion) and returned on physical
grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Optional

import numpy as np

from .equilibria import (
    EquilibriumSet,
    ParameterRangeError,
    _wave_integrand,
    bisect,
    cumulative_simpson,
    phi0,
    potential_G,
    scale_until,
    solve_equilibria,
)
from .model import ModelParams

# 5-point Gauss-Legendre on [-1, 1]: the repr of
# `np.polynomial.legendre.leggauss(5)`, so no command imports numpy.polynomial
_GL_NODES = np.array([-0.906179845938664, -0.5384693101056831, 0.0,
                      0.5384693101056831, 0.906179845938664])
_GL_WEIGHTS = np.array([0.23692688505618928, 0.4786286704993663,
                        0.5688888888888887, 0.4786286704993663,
                        0.23692688505618928])
# Uniform cells on which `_locate_maximizer` tabulates the potential
_SCAN_NODES = 1 << 14
# Gauss-Legendre cells of the potential gap H on [0, F_m]
_GAP_CELLS = 1 << 15
# Most cells per integrand call of `_gauss_cells`
_GAUSS_CHUNK = 2048
# Closest relative approach of the F profile to its limit F_m
_APPROACH_TOL = 1e-10


@dataclass(frozen=True)
class MonotoneProfile:
    """A sampled nondecreasing function on [0, x_max] with a limit at infinity."""

    grid: np.ndarray
    values: np.ndarray
    limit: float

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if g.ndim != 1 or g.shape != v.shape or g.size < 2:
            raise ValueError("grid and values must be 1D arrays of equal size >= 2")
        if np.any(np.diff(g) <= 0):
            raise ValueError("grid must be strictly increasing")
        scale = max(abs(self.limit), float(np.max(np.abs(v))), 1e-300)
        if np.any(np.diff(v) < -1e-9 * scale):
            raise ValueError("profile values must be nondecreasing")
        if np.any(v > self.limit * (1.0 + 1e-9) + 1e-12 * scale):
            raise ValueError("profile values must not exceed the limit")
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", v)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.interp(x, self.grid, self.values,
                        left=self.values[0], right=self.limit)
        return out if out.ndim else float(out)


def _gauss_cells(f: Callable, lo, hi) -> np.ndarray:
    """Per-cell Gauss-Legendre integrals of vectorized f over [lo, hi].

    lo and hi broadcast to the shape of the result.  f is called on at most
    _GAUSS_CHUNK cells (five nodes each) at a time, so its temporaries stay
    bounded whatever the number of cells; f must be elementwise, and then
    every integral is bitwise the same as from one call on all the cells.
    """
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float),
                                 np.asarray(hi, dtype=float))
    out = np.empty(lo.shape)
    lo, hi, flat = lo.reshape(-1), hi.reshape(-1), out.reshape(-1)
    for start in range(0, flat.size, _GAUSS_CHUNK):
        cells = slice(start, start + _GAUSS_CHUNK)
        half = 0.5 * (hi[cells] - lo[cells])[:, None]
        pts = 0.5 * (lo[cells] + hi[cells])[:, None] + half * _GL_NODES
        vals = np.asarray(f(pts.reshape(-1)), dtype=float).reshape(pts.shape)
        flat[cells] = np.sum(half * _GL_WEIGHTS * vals, axis=-1)
    return out


def _cell_exp_integrals(psi: Callable, grid: np.ndarray, s: float):
    """Per-cell integrals of psi against e^{-s (y_right - y)} and e^{-s (y - y_left)}."""
    y0 = grid[:-1]
    y1 = grid[1:]
    h = y1 - y0
    # Gauss-Legendre nodes mapped into each cell, shape (n_cells, 5)
    mid = 0.5 * (y0 + y1)[:, None]
    half = 0.5 * h[:, None]
    nodes = mid + half * _GL_NODES[None, :]
    vals = np.asarray(psi(nodes.ravel()), dtype=float).reshape(nodes.shape)
    w = half * _GL_WEIGHTS[None, :]
    a = np.sum(w * vals * np.exp(-s * (y1[:, None] - nodes)), axis=1)
    bint = np.sum(w * vals * np.exp(-s * (nodes - y0[:, None])), axis=1)
    return a, bint


def halfline_green_solve(mu: float, psi: Callable, x, *,
                         psi_limit: Optional[float] = None):
    """Nondecreasing solution of -u'' + mu u = psi on (0, inf), u(0) = 0.

    psi must be a vectorized nonnegative nondecreasing callable with a finite
    limit psi_limit (estimated from the far grid end when omitted); the tail
    integral is truncated where e^{-sqrt(mu) y} drops below 1e-16 and
    closed with the constant-psi tail in closed form.  The quadrature grid
    has at least 2001 nodes.  Returns u at x (scalar or array).  Raises if
    psi is detected decreasing on the quadrature grid.
    """
    if not mu > 0:
        raise ValueError("mu must be > 0")
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x_arr < 0):
        raise ValueError("x must be >= 0")
    s = np.sqrt(mu)
    y_trunc = -np.log(1e-16) / s
    y_max = max(float(x_arr.max()) if x_arr.size else 0.0, y_trunc)
    base = np.linspace(0.0, y_max, max(2001, int(20 * s * y_max) + 2))
    grid = np.unique(np.concatenate([base, x_arr]))

    probe = np.asarray(psi(grid), dtype=float)
    scale = max(float(np.max(np.abs(probe))), 1e-300)
    if np.any(np.diff(probe) < -1e-9 * scale):
        raise ValueError("psi must be nondecreasing")
    if np.any(probe < -1e-12 * scale):
        raise ValueError("psi must be nonnegative")
    if psi_limit is None:
        psi_limit = float(probe[-1])

    a_cells, b_cells = _cell_exp_integrals(psi, grid, s)
    decay = np.exp(-s * np.diff(grid))

    # A[k+1] = decay[k] A[k] + a_cells[k] forward from A[0] = 0, and
    # B[k] = decay[k] B[k+1] + b_cells[k] backward from the closed-form
    # constant-psi tail, on Python floats read lazily from the arrays:
    # each product and sum rounds as in float64, with no per-element
    # numpy scalars and no lists
    def recur(acc, pair):
        decay_k, cell_k = pair
        return decay_k * acc + cell_k

    n = grid.size
    A = np.fromiter(accumulate(zip(memoryview(decay), memoryview(a_cells)),
                               recur, initial=0.0), float, n)
    B = np.fromiter(accumulate(zip(memoryview(decay[::-1]),
                                   memoryview(b_cells[::-1])),
                               recur, initial=float(psi_limit / s)),
                    float, n)[::-1]

    u = (A + B - np.exp(-s * grid) * B[0]) / (2.0 * s)
    out = u[np.searchsorted(grid, x_arr)]
    return out if np.ndim(x) else float(out[0])


def halfline_green_lower_bound(mu: float, psi_at_x, x):
    """Pointwise bound psi(x) (1 - e^{-2 sqrt(mu) x}) / (2 mu) <= u(x)."""
    x = np.asarray(x, dtype=float)
    return np.asarray(psi_at_x, dtype=float) * (-np.expm1(-2.0 * np.sqrt(mu) * x)) / (2.0 * mu)


def find_eps0(params: ModelParams, F_star: float) -> Optional[float]:
    """A sterile-tail amplitude eps with G_eps(F*) > 0, halved for safety.

    Halves eps from 1 until the tail-weighted potential at F*, for the
    params' own Allee coefficient, is positive; None if even eps = 2^-199
    fails (condition violated for the bare G too).
    """
    eps = scale_until(
        lambda e: potential_G(params, F_star, F_star, eps=e) > 0,
        1.0, 0.5, 2.0**-199)
    return None if eps is None else eps * 0.5


def _locate_maximizer(pw: ModelParams, F_star: float, eps):
    """Smallest maximizer of the potential on [0, F*], or None if G <= 0.

    The maximizer is either F* (integrand still positive there) or a + -> -
    crossing of the integrand, refined by bisection; among tabulated ties the
    first (smallest) wins.
    """
    F_scan = np.linspace(0.0, F_star, _SCAN_NODES + 1)
    integrand = _wave_integrand(pw, F_star, F_scan, eps)
    G_scan = cumulative_simpson(integrand, F_star / _SCAN_NODES)
    i_max = int(np.argmax(G_scan))
    if G_scan[i_max] <= 0.0:
        return None
    if i_max == _SCAN_NODES and integrand[-1] >= 0.0:
        return F_star
    cross = np.flatnonzero((integrand[:-1] > 0.0) & (integrand[1:] <= 0.0))
    if not cross.size:
        return F_scan[i_max]
    k = int(cross[np.argmin(np.abs(cross - i_max))])

    def minus_integrand(F):  # bisect's sign convention: negative at lo
        return -float(_wave_integrand(pw, F_star, np.array([F]), eps)[0])

    return bisect(minus_integrand, F_scan[k], F_scan[k + 1], tol=0.0, max_iter=100)


class _PotentialGap:
    """Machine-accurate H(F) = G(F_m) - G(F) and speed v = sqrt(2 H).

    H is accumulated backward from F_m with per-cell Gauss-Legendre (so the
    small values near the top carry no cancellation), and evaluated between
    nodes by one further local quadrature of the analytic integrand.
    """

    def __init__(self, pw, F_star, F_m, eps):
        self.pw, self.F_star, self.eps = pw, F_star, eps
        self.F_m = F_m
        self.nodes = np.linspace(0.0, F_m, _GAP_CELLS + 1)
        H = np.zeros(_GAP_CELLS + 1)
        # a gap beyond double precision is refused by build_stationary_F
        with np.errstate(over="ignore", invalid="ignore"):
            cells = _gauss_cells(self._integrand, self.nodes[:-1],
                                 self.nodes[1:])
            H[:-1] = np.cumsum(cells[::-1])[::-1]
        self.H_nodes = H

    def _integrand(self, F):
        return _wave_integrand(self.pw, self.F_star, F, self.eps)

    def H(self, F):
        Fc = np.clip(np.asarray(F, dtype=float), 0.0, self.F_m)
        k = np.minimum(np.searchsorted(self.nodes, Fc, side="left"),
                       self.nodes.size - 1)
        return self.H_nodes[k] + _gauss_cells(self._integrand, Fc, self.nodes[k])

    def v(self, F):
        return np.sqrt(np.maximum(2.0 * self.H(F), 0.0))


def _inverse_map(gap: _PotentialGap):
    """Knots (F_knots, x_knots) of the inverse profile map x(F) = integral
    of 1/v from 0 to F, and x_of_F, which evaluates it elementwise.

    The F-grid is graded geometrically toward F_m, where 1/v blows up like
    1/(F_m - F); per-cell Gauss-Legendre handles the constant-ratio cells.
    """
    F_m = gap.F_m
    delta_geo = 0.05
    F_uniform = np.linspace(0.0, F_m * (1.0 - delta_geo), 4097)
    n_geo = int(np.ceil(np.log(_APPROACH_TOL / delta_geo) / np.log(0.92)))
    deltas = delta_geo * 0.92 ** np.arange(1, n_geo + 1)
    deltas = np.maximum(deltas, _APPROACH_TOL)
    F_geo = F_m * (1.0 - deltas)
    F_knots = np.unique(np.concatenate([F_uniform, F_geo]))

    def inv_v(F):
        return 1.0 / gap.v(F)

    x_knots = np.concatenate(
        [[0.0], np.cumsum(_gauss_cells(inv_v, F_knots[:-1], F_knots[1:]))])

    def x_of_F(F):
        F = np.asarray(F, dtype=float)
        k = np.clip(np.searchsorted(F_knots, F, side="right") - 1, 0,
                    F_knots.size - 2)
        return x_knots[k] + _gauss_cells(inv_v, F_knots[k], F)

    return F_knots, x_knots, x_of_F


def build_stationary_F(params: ModelParams, eps: Optional[float] = None,
                       equilibria: Optional[EquilibriumSet] = None
                       ) -> Optional[MonotoneProfile]:
    """Nondecreasing female profile rising from 0 to the potential's maximizer.

    The potential is the one of the params' own Allee coefficient (the
    monostable one when params.gamma is None).  When the potential never
    becomes positive on (0, F*] there is no profile and None is returned
    (the regime does not support an invading sub-solution).  With eps given,
    the sterile-tail-weighted potential is used; the profile then certifies
    invasion against a small sterile remnant.

    The first-order reduction F' = sqrt(2 (G(F_m) - G(F))) separates: the
    inverse map x(F) is accumulated by per-cell quadrature on an F-grid
    graded toward F_m, then the profile is resampled onto a uniform grid
    (spacing 0.01 in diffusion-rescaled units) by Newton inversion, so the
    sampled values solve the profile equation to near machine accuracy.
    Each Newton iteration after the first refines only the points the one
    before moved; a settled point would get its own bits back, so the
    values are those of refining every point 4 times.  `equilibria` are
    the params' own, if already solved.
    """
    eq = equilibria if equilibria is not None else solve_equilibria(params)
    if eq.upper is None:
        return None
    F_star = eq.upper[2]

    F_m = _locate_maximizer(params, F_star, eps)
    if F_m is None:
        return None
    gap = _PotentialGap(params, F_star, F_m, eps)
    H0 = float(gap.H(0.0))
    if not 2.0 * abs(H0) < math.inf:  # the speed sqrt(2 H) needs a finite 2 H
        raise ParameterRangeError(f"the potential gap G(F_m) - G(0) = "
                                  f"{H0:g} is beyond double precision")
    if H0 <= 0.0:
        return None

    F_knots, x_knots, x_of_F = _inverse_map(gap)
    x_max = float(x_knots[-1])
    x_out = np.arange(0.0, x_max, 0.01)
    F_out = np.interp(x_out, x_knots, F_knots)
    # Newton refinement of x(F) = x_target (dx/dF = 1/v), at most 4
    # iterations, each on the points the previous one moved: x_of_F and
    # gap.v are elementwise (see _gauss_cells), so a point that came back
    # unchanged would come back unchanged again
    moving = np.arange(x_out.size)
    for _ in range(4):
        F = F_out[moving]
        F_new = np.clip(F - (x_of_F(F) - x_out[moving]) * gap.v(F),
                        0.0, F_m * (1.0 - _APPROACH_TOL))
        F_out[moving] = F_new
        moving = moving[F_new != F]
    F_out[0] = 0.0

    x_phys = x_out * np.sqrt(params.D)
    return MonotoneProfile(x_phys, np.minimum.accumulate(F_out[::-1])[::-1],
                           F_m)


def build_stationary_M(params: ModelParams,
                       F_profile: MonotoneProfile) -> MonotoneProfile:
    """Companion male profile solving -D M'' = mu_M (phi0(F) - M).

    The source mu_M phi0(F) is the male recruitment (1-rho) nu_E E(F) of the
    slaved egg density.
    """
    sqrt_D = np.sqrt(params.D)
    y_grid = F_profile.grid / sqrt_D

    def psi(y):
        return params.mu_M * phi0(params, F_profile(np.asarray(y) * sqrt_D))

    M_inf = phi0(params, F_profile.limit)
    M_vals = halfline_green_solve(params.mu_M, psi, y_grid,
                                  psi_limit=params.mu_M * M_inf)
    return MonotoneProfile(F_profile.grid, np.asarray(M_vals), M_inf)
