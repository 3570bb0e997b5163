"""Semi-implicit time stepping on 1D Cartesian and radially symmetric grids.

Each reaction is advanced exactly over the step with the other fields
frozen, then diffusion is taken implicitly.  With L the discrete Laplacian,
fE, fu the reaction rates at the start of the step, a = b F / K(x) + mu_E +
nu_E the egg loss rate at each node and h(r) = (1 - e^{-r dt}) / r, one step
of length dt is

    E' = E + h(a) fE,   u* = u + h(mu_u) fu,   (I - dt D L) u' = u*

for u = M, F, Ms.  As fE = b F - a E and fu = src_u - mu_u u, this is
E' = e^{-a dt} E + (1 - e^{-a dt}) b F / a and u* = e^{-mu_u dt} u +
(1 - e^{-mu_u dt}) src_u / mu_u.  For every dt > 0 one step is monotone
for the cone order (E, M, F up, Ms down) and maps the invariant region

    0 <= E <= K(x),   0 <= F <= F_cap = max(rho nu_E K_max / mu_F, sup F0),
    M >= 0,   Ms >= 0

into itself.  Proof, in two parts.

1. The reaction update is monotone.  dE'/dE = e^{-a dt} and du*/du =
   e^{-mu_u dt} are positive.  u* grows with src_u, and the sources are
   cooperative: src_M and src_F grow with E, and src_F = rho nu_E E g grows
   with M and falls with Ms, as the mating factor g = M/(M + gamma_s Ms)
   Gamma(M + gamma_s Ms) does for either Gamma.  With s = a dt, dE'/dF >=
   (b (mu_E + nu_E) / a^2) (1 - e^{-s} - s e^{-s}) >= 0 for E <= K(x).
   E' is a convex combination of E and b F / a <= K(x), so 0 <= E' <= K(x);
   u* is one of u and src_u / mu_u >= 0, so u* >= 0; and as g <= 1 and
   E <= K_max, src_F / mu_F <= F_cap, so F* <= F_cap.
2. The implicit solve is monotone for every dt.  I - dt D L has a positive
   diagonal, nonpositive off-diagonals and rows that sum to 1 with a
   strictly dominant diagonal.  On the radial grid the neighbour weights
   are lam + adv and lam - adv with lam = D dt / dx^2 and
   adv = D dt / (2 r dx), and lam >= adv at every node with r >= dx, that
   is every node but the centre, whose row is symmetric.  So the matrix is
   an M-matrix: its inverse is entrywise nonnegative with unit row sums, and
   the solve keeps order, nonnegativity and upper bounds by a constant (the
   Dirichlet row keeps the edge value).

So dt is an accuracy choice, not a stability bound: the automatic step is
DT (`reaction_dt_bound`), free of every rate, and the first-order error in
dt sets it.  On fig1 the front speed at DT is 0.2733, against 0.2778 at
DT / 4.  Roundoff can still leave a tiny negative value; it is clamped and
counted, and a relative undershoot above CLAMP_FAIL_THRESHOLD raises
`SolverError`.

A run keeps one dt, t_end / n_steps, so the three diffusing fields share one
matrix for the whole run.  It is LU-factored once (LAPACK dgttrf, partial
pivoting) and each step solves all right-hand sides together, stacked as the
columns of one array, with a single dgttrs call: the same elimination, in
the same order, as the per-field gtsv solves of `scipy.linalg.solve_banded`.
A non-finite right-hand side (a NaN or inf that reached the state) raises
`SolverError` instead of being solved.  Snapshots are taken at the initial
state, at the first step at or after each multiple of
`Scenario.snapshot_dt`, and at the final step.

Batches.  `run_batch` advances S scenarios that share the grid, D,
boundary, dt, t_end, snapshot_dt and Gamma kind (`batch_key`) as one
(S, n) state, one row per member; `run` is the batch of one.  Their rates
differ per member and K may too: `Batch` builds them once per run as
(S, n) rows, with each h(mu_u) factor, the LU factors and the release
schedules.  A step makes one `reaction_arrays` call on the whole
state, and the 3S right-hand sides (M, F, Ms of each member) go to one
dgttrs call.  Every operation of the step is elementwise within a member's
row and the solve works column by column, so the proof above holds per
member, and each member's arrays are bit for bit those of its own run.
Clamp counts, scales and the `SolverError` threshold are per member too.

The radial Laplacian is u'' + u'/r with the r = 0 node closed by symmetry
(limit 2 u''(0)); boundaries are homogeneous Neumann by default with an
optional Dirichlet clamp at the outer edge for invasion runs.

A heterogeneous K(x) enters the egg equation nodewise.  Equilibria,
thresholds and classification reduce it to its maximum over the grid nodes:
every caller reads `Scenario.at_max_K` and its `equilibria`, which the
scenario solves once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs

from .equilibria import EquilibriumSet, solve_equilibria
from .model import (ModelParams, RateRows, reaction_arrays, slaved_E,
                    slaved_M)

CLAMP_COUNT_THRESHOLD = 1e-12
CLAMP_FAIL_THRESHOLD = 1e-9
BOUNDARIES = ("neumann", "dirichlet")
# Default time between snapshots: 100 steps of 150/4239, the presets'
# spacing when the cadence was counted in steps, so their snapshot times
# (42 between t = 0 and T = 150) are kept.
SNAPSHOT_DT = 100 * 150.0 / 4239
# The automatic step, in time units.  Halving it moves the fig1 front speed
# by about 1%; doubling it, by about 2%.
DT = 0.25
# Size limits of one run, far above every preset (at most 1201 nodes and a
# few thousand steps): a larger grid, or a dt (given or DT) needing more
# steps, is an input error, raised before any grid array is allocated or
# step taken.
MAX_NODES = 100_000
MAX_STEPS = 1_000_000


class SolverError(RuntimeError):
    pass


@dataclass(frozen=True)
class Grid:
    kind: str  # "cartesian1d" | "radial2d"
    x: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        if x.size < 3:
            raise ValueError("grid needs at least 3 nodes")
        dx = np.diff(x)
        if np.any(dx <= 0) or not np.allclose(dx, dx[0], rtol=1e-12):
            raise ValueError("grid must be uniform and increasing")
        if self.kind == "radial2d" and abs(x[0]) > 1e-14:
            raise ValueError("radial grid must start at r = 0")
        if self.kind not in ("cartesian1d", "radial2d"):
            raise ValueError(f"unknown grid kind {self.kind!r}")
        object.__setattr__(self, "x", x)

    @property
    def dx(self) -> float:
        return float(self.x[1] - self.x[0])

    @property
    def n(self) -> int:
        return self.x.size

    @property
    def radius(self) -> np.ndarray:
        """|x| at the nodes (used by release schedules and probes)."""
        return np.abs(self.x)

    @staticmethod
    def cartesian(x_min: float, x_max: float, n: int) -> "Grid":
        return Grid("cartesian1d", np.linspace(x_min, x_max, _node_count(n)))

    @staticmethod
    def radial(r_max: float, n: int) -> "Grid":
        return Grid("radial2d", np.linspace(0.0, r_max, _node_count(n)))


def _node_count(n: int) -> int:
    if n > MAX_NODES:
        raise ValueError(f"n = {n} nodes exceeds the limit of {MAX_NODES}")
    return n


@dataclass
class SimState:
    """The fields at time t: (n,) arrays, or (S, n) with a row per member of
    a batch."""

    t: float
    E: np.ndarray
    M: np.ndarray
    F: np.ndarray
    Ms: np.ndarray


MOVING_KINDS = ("annulus", "annulus_tail", "disc")


@dataclass(frozen=True)
class ReleaseSchedule:
    """Sterile-male release field Lambda(x, t).

    Kinds: "none"; "annulus" (lambda_bar on R1+ct <= |x| <= R2+ct);
    "annulus_tail" (adds lambda_bar e^{eta(|x|-R1-ct)} inside, the
    release-with-tail variant); "disc" (growing disc |x| <= R2+ct, the naive
    strategy); "fixed_region" (static band R1 <= |x| <= R2).
    """

    kind: str = "none"
    lambda_bar: float = 0.0
    R1: float = 0.0
    R2: float = 0.0
    c: float = 0.0
    eta: float = 0.0

    def __post_init__(self):
        if self.kind not in ("none", "annulus", "annulus_tail", "disc",
                             "fixed_region"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        for name in ("lambda_bar", "c", "eta"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.lambda_bar < 0:
            raise ValueError("lambda_bar must be >= 0")
        if self.c < 0:
            raise ValueError("c must be >= 0")
        if self.kind in MOVING_KINDS and not self.c > 0:
            raise ValueError(f"c must be > 0 for the moving {self.kind} "
                             f"release")
        if self.kind in ("annulus", "annulus_tail", "fixed_region"):
            if not 0 < self.R1 < self.R2:
                raise ValueError("annulus needs 0 < R1 < R2")
        if self.kind == "annulus_tail" and not self.eta > 0:
            raise ValueError("tail variant needs eta > 0")

    @property
    def speed(self) -> Optional[float]:
        return self.c if self.kind in MOVING_KINDS else None


def release_value(schedule: ReleaseSchedule, x, t: float):
    """Lambda at |x| (vectorized) and time t."""
    r = np.abs(np.asarray(x, dtype=float))
    s = schedule
    shift = 0.0 if s.kind == "fixed_region" else s.c * t
    inner, outer = s.R1 + shift, s.R2 + shift
    if s.kind == "none" or s.lambda_bar == 0.0:
        out = np.zeros_like(r)
    elif s.kind == "annulus_tail":
        out = np.where(r < inner, s.lambda_bar * np.exp(s.eta * (r - inner)),
                       s.lambda_bar * (r <= outer))
    elif s.kind == "disc":
        out = s.lambda_bar * (r <= outer)
    else:  # annulus, fixed_region
        out = s.lambda_bar * ((r >= inner) & (r <= outer))
    out = np.asarray(out, dtype=float)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class InitialData:
    """Well-prepared initial fields: cleared, pre-dosed center; equilibrium far out.

    F0 = F* (u0 inside R0_0, linear ramp on [R0_0, R0_1], 1 outside); E0 and
    M0 at the slaved quasi-equilibrium values capped by C0 F0 (and K); Ms0
    ramps from lambda_bar/mu_s inside R0_0 to 0 at R0_1.  The "step" kind is
    the 1D invasion setup: equilibrium on one side of x_step, zero beyond.
    """

    kind: str = "well_prepared"
    R0_0: float = 10.0
    R0_1: float = 15.0
    u0: float = 0.0
    C0: Optional[float] = None
    x_step: float = 0.0
    step_side: str = "left"  # equilibrium on x < x_step ("left") or x > x_step

    def __post_init__(self):
        if self.kind not in ("well_prepared", "step", "uniform"):
            raise ValueError(f"unknown initial kind {self.kind!r}")
        if self.kind == "well_prepared":
            if not 0 <= self.u0 < 1:
                raise ValueError("u0 must be in [0, 1)")
            if not 0 < self.R0_0 < self.R0_1:
                raise ValueError("need 0 < R0_0 < R0_1")


def make_initial(scenario: Scenario) -> SimState:
    """The initial fields of `scenario`, within the well-prepared bounds."""
    params, data, K = scenario.params, scenario.initial, scenario.K_nodes
    lambda_bar = scenario.schedule.lambda_bar
    E_star, M_star, F_star = scenario.upper
    x, r = scenario.grid.x, scenario.grid.radius

    if data.kind == "step":
        mask = (x < data.x_step) if data.step_side == "left" else (x > data.x_step)
        E0 = np.where(mask, np.minimum(E_star, K), 0.0)
        M0 = np.where(mask, M_star, 0.0)
        F0 = np.where(mask, F_star, 0.0)
        Ms0 = np.zeros_like(x)
        return SimState(0.0, E0, M0, F0, Ms0)
    if data.kind == "uniform":
        return SimState(0.0, np.minimum(E_star, K) * np.ones_like(x),
                        M_star * np.ones_like(x), F_star * np.ones_like(x),
                        np.zeros_like(x))

    C0 = data.C0
    if C0 is None:
        C0 = max(E_star / F_star, M_star / F_star)
    ramp = np.clip((data.R0_1 - r) / (data.R0_1 - data.R0_0), 0.0, 1.0)
    F0 = F_star * (data.u0 * ramp + (1.0 - ramp))
    E0 = np.minimum(np.minimum(slaved_E(params, F0, K=K), C0 * F0), K)
    M0 = np.minimum(slaved_M(params, E0), C0 * F0)
    Ms0 = (lambda_bar / params.mu_s) * ramp

    # self-check of the well-prepared bounds
    tol = 1e-9 * max(F_star, 1.0)
    if np.any(F0 > F_star + tol) or np.any(E0 > np.minimum(K, C0 * F0) + tol) \
            or np.any(M0 > C0 * F0 + tol):
        raise SolverError("constructed initial data violates its bounds")
    inside = r <= data.R0_0
    if lambda_bar > 0 and np.any(Ms0[inside] < lambda_bar / params.mu_s - tol):
        raise SolverError("sterile pre-dose below lambda_bar/mu_s in the core")
    outside = r > data.R0_1
    if np.any(np.abs(F0[outside] - F_star) > tol):
        raise SolverError("far field is not at equilibrium")
    return SimState(0.0, E0, M0, F0, Ms0)


def implicit_diffusion_matrix(grid: Grid, D: float, dt: float,
                              boundary: str = "neumann") -> np.ndarray:
    """I - dt D L in (1,1)-banded form: rows superdiagonal, diagonal, subdiagonal.

    Entry (i, j) of the matrix is ab[1 + i - j, j]; `factor_diffusion`
    takes this layout.
    """
    n = grid.n
    dx = grid.dx
    lam = D * dt / dx**2
    ab = np.zeros((3, n))
    ab[1, :] = 1.0 + 2.0 * lam
    ab[0, 1:] = -lam   # superdiagonal, column-indexed
    ab[2, :-1] = -lam  # subdiagonal

    if grid.kind == "radial2d":
        # r = 0: symmetry limit lap u = 2 u''(0) => 4 (u1 - u0)/dx^2
        ab[1, 0] = 1.0 + 4.0 * lam
        ab[0, 1] = -4.0 * lam
        ri = grid.x[1:-1]
        adv = D * dt / (2.0 * ri * dx)
        ab[0, 2:] = -(lam + adv)       # u_{i+1} coefficient
        ab[2, :-2] = -(lam - adv)      # u_{i-1} coefficient
    else:
        # Neumann mirror at the left edge
        ab[1, 0] = 1.0 + 2.0 * lam
        ab[0, 1] = -2.0 * lam

    # outer boundary
    if boundary == "neumann":
        ab[1, -1] = 1.0 + 2.0 * lam
        ab[2, -2] = -2.0 * lam
    elif boundary == "dirichlet":
        ab[1, -1] = 1.0
        ab[2, -2] = 0.0
    else:
        raise ValueError(f"unknown boundary {boundary!r}")
    return ab


class DiffusionLU(NamedTuple):
    """LU factors of a tridiagonal matrix, as LAPACK dgttrf returns them."""

    dl: np.ndarray
    d: np.ndarray
    du: np.ndarray
    du2: np.ndarray
    ipiv: np.ndarray


def factor_diffusion(ab: np.ndarray) -> DiffusionLU:
    """Factor the (1,1)-banded matrix `ab` once for any number of solves."""
    if not np.all(np.isfinite(ab)):
        raise SolverError("non-finite entry in the diffusion matrix")
    dl, d, du, du2, ipiv, info = dgttrf(ab[2, :-1], ab[1], ab[0, 1:])
    if info != 0:
        raise SolverError(f"singular diffusion matrix (zero pivot {info})")
    return DiffusionLU(dl, d, du, du2, ipiv)


def solve_banded(lu: DiffusionLU, rhs: np.ndarray) -> np.ndarray:
    """Solve with the factors of `factor_diffusion`, overwriting `rhs`.

    `rhs` is one right-hand side (n,) or several as the columns of a
    Fortran-ordered (n, k) array.
    """
    if not np.all(np.isfinite(rhs)):
        raise SolverError("non-finite state reached the diffusion solve")
    x, info = dgttrs(*lu, rhs, overwrite_b=1)
    if info != 0:
        raise SolverError(f"dgttrs rejected argument {-info}")
    return x


def reaction_dt_bound() -> float:
    """The automatic step, DT: every dt is monotone, so accuracy sets it."""
    return DT


@dataclass
class ClampStats:
    count: int = 0
    worst_rel: float = 0.0


class Batch:
    """What stays fixed while S members advance as one (S, n) state, built
    once per run: the LU factors of the shared diffusion matrix, and as
    (S, n) rows the rates, the h factors and K sampled on the nodes; and the
    release schedules, each with the member rows that share it."""

    def __init__(self, scenarios, dt: float):
        sc = scenarios[0]
        params = [s.params for s in scenarios]
        x = sc.grid.x
        self.grid, self.dt, self.boundary = sc.grid, dt, sc.boundary
        self.lu = factor_diffusion(implicit_diffusion_matrix(
            sc.grid, sc.params.D, dt, sc.boundary))
        self.rates = RateRows.of(params, x.size)
        self.K = np.array([s.K_nodes for s in scenarios])
        # -h(mu_u) = expm1(-dt mu_u) / mu_u for u = M, F, Ms, as (3, S, n)
        neg_h = [[math.expm1(-dt * mu) / mu
                  for mu in (p.mu_M, p.mu_F, p.mu_s)] for p in params]
        self.neg_h = np.repeat(np.array(neg_h).T[:, :, None], x.size, axis=2)
        # (S,): a floor of each member's Ms clamp scale
        self.Ms_floor = np.array([s.schedule.lambda_bar / s.params.mu_s
                                  for s in scenarios])
        rows: dict = {}
        for i, s in enumerate(scenarios):
            rows.setdefault(s.schedule, []).append(i)
        self.releases = [(schedule, slice(None) if len(r) == len(scenarios)
                          else r) for schedule, r in rows.items()]


def batch_key(scenario: "Scenario") -> tuple:
    """Scenarios with equal keys can advance as one batch: the same grid, D,
    boundary, dt, t_end, snapshot_dt and Gamma kind."""
    sc = scenario
    return (sc.grid.kind, sc.grid.x.tobytes(), sc.params.D, sc.boundary,
            sc.dt, sc.t_end, sc.snapshot_dt, sc.params.gamma is None)


def _release(batch: Batch, t: float):
    """Lambda of every member at time t: (n,) if one schedule, else (S, n)."""
    x = batch.grid.x  # release_value takes |x| itself
    if len(batch.releases) == 1:
        return release_value(batch.releases[0][0], x, t)
    lam = np.empty(batch.K.shape)
    for schedule, rows in batch.releases:
        lam[rows] = release_value(schedule, x, t)
    return lam


def step(state: SimState, batch: Batch,
         clamps: Optional[list] = None) -> SimState:
    """One step of every member: exact reaction steps, then one solve.

    `state` holds (S, n) fields, one row per member of `batch`; `clamps`,
    if given, one ClampStats per member.
    """
    E, M, F, Ms = state.E, state.M, state.F, state.Ms
    rates, K = batch.rates, batch.K
    fE, fM, fF, fs = reaction_arrays(rates, E, M, F, Ms,
                                     _release(batch, state.t), K)
    # exact steps u + h(r) f with h(r) = -expm1(-r dt) / r and r the loss
    # rate of u: a at each node for E, mu_u for M, F and Ms.  E is clipped
    # to [0, K] against roundoff (np.clip would cost twice as much).
    new = np.empty((4,) + E.shape)  # E, then M, F, Ms: the solve's columns
    a = rates.b * F / K + rates.egg_loss
    np.maximum(E - np.expm1(-batch.dt * a) / a * fE, 0.0, out=new[0])
    np.minimum(new[0], K, out=new[0])
    for j, (u, f) in enumerate(((M, fM), (F, fF), (Ms, fs))):
        np.subtract(u, batch.neg_h[j] * f, out=new[1 + j])
        if batch.boundary == "dirichlet":
            new[1 + j, :, -1] = u[:, -1]
    # row (field, member) of new[1:] is column field * S + member of one
    # Fortran-ordered (n, 3S) right-hand side
    n = E.shape[-1]
    out = solve_banded(batch.lu, new[1:].reshape(-1, n).T).T.reshape(
        new[1:].shape)
    if out.min() < 0.0:
        _clamp(out, state, batch, clamps)
    return SimState(state.t + batch.dt, new[0], out[0], out[1], out[2])


def _clamp(out: np.ndarray, state: SimState, batch: Batch,
           clamps: Optional[list]) -> None:
    """Clamp each member's negative undershoot in `out` (M, F, Ms) to 0,
    counting it against the member's scale; one too large is a
    SolverError."""
    low = out.min(axis=2)  # (3, S)
    F_scale = np.maximum(state.F.max(axis=1, initial=0.0), 1.0)
    Ms_scale = np.maximum(np.maximum(state.Ms.max(axis=1, initial=0.0),
                                     batch.Ms_floor), 1.0)
    for j, i in zip(*np.nonzero(low < 0.0)):
        worst = -float(low[j, i])
        scale = float((F_scale if j < 2 else Ms_scale)[i])
        rel = worst / scale
        if rel > CLAMP_FAIL_THRESHOLD:
            member = f" (member {i})" if out.shape[1] > 1 else ""
            raise SolverError(f"negative undershoot {worst:g} exceeds "
                              f"{CLAMP_FAIL_THRESHOLD:g} of scale "
                              f"{scale:g}{member}")
        if clamps is not None and rel > CLAMP_COUNT_THRESHOLD:
            clamps[i].count += 1
            clamps[i].worst_rel = max(clamps[i].worst_rel, rel)
        np.maximum(out[j, i], 0.0, out=out[j, i])


@dataclass(frozen=True)
class Scenario:
    """One run's inputs.  What the params give on the grid is computed once,
    on first use, and kept off the fields equality and `batch_key` read."""

    params: ModelParams
    grid: Grid
    schedule: ReleaseSchedule
    initial: InitialData
    t_end: float
    dt: Optional[float] = None  # None: DT
    snapshot_dt: float = SNAPSHOT_DT  # time between snapshots
    boundary: str = "neumann"

    def __post_init__(self):
        check_run_settings(self.t_end, self.dt, self.snapshot_dt,
                           self.boundary)

    @cached_property
    def K_nodes(self) -> np.ndarray:
        """K on the grid nodes, (n,); ValueError unless finite and > 0."""
        return np.broadcast_to(self.params.K_at(self.grid.x), (self.grid.n,))

    @cached_property
    def at_max_K(self) -> ModelParams:
        """The params, with a callable K replaced by its max over the nodes."""
        if callable(self.params.K):
            return replace(self.params, K=float(np.max(self.K_nodes)))
        return self.params

    @cached_property
    def equilibria(self) -> EquilibriumSet:
        return solve_equilibria(self.at_max_K)

    @property
    def upper(self) -> tuple[float, float, float]:
        """(E*, M*, F*) of `equilibria`; SolverError if there is none."""
        if self.equilibria.upper is None:
            raise SolverError("no positive equilibrium for this parameter set")
        return self.equilibria.upper


def check_run_settings(t_end: float, dt: Optional[float], snapshot_dt: float,
                       boundary: str) -> None:
    """Raise ValueError unless these are valid `Scenario` run settings: finite
    positive times, a known boundary, and at most MAX_STEPS steps of dt (DT
    when dt is None)."""
    for name, v in (("t_end", t_end), ("dt", dt), ("snapshot_dt", snapshot_dt)):
        if v is not None and not 0 < v < math.inf:
            raise ValueError(f"{name} must be finite and > 0, got {v}")
    steps = t_end / (DT if dt is None else dt)
    if steps > MAX_STEPS:
        raise ValueError(f"t_end / dt = {steps:.3g} steps exceeds the "
                         f"limit of {MAX_STEPS}")
    if boundary not in BOUNDARIES:
        raise ValueError(f"unknown boundary {boundary!r}; expected "
                         f"one of {', '.join(BOUNDARIES)}")


@dataclass
class Trajectory:
    scenario: Scenario
    times: np.ndarray
    E: np.ndarray   # (n_snapshots, n_nodes)
    M: np.ndarray
    F: np.ndarray
    Ms: np.ndarray
    clamps: ClampStats
    dt: float
    n_steps: int

    @property
    def grid(self) -> Grid:
        return self.scenario.grid


def run(scenario: Scenario, state0: Optional[SimState] = None) -> Trajectory:
    """Integrate to t_end with one dt, snapshotting every snapshot_dt in time:
    the batch of one.

    Deterministic: no randomness, fixed evaluation order; identical scenarios
    reproduce identical arrays bit for bit.
    """
    return run_batch([scenario], None if state0 is None else [state0])[0]


def run_batch(scenarios, states0=None) -> list[Trajectory]:
    """Integrate scenarios that share `batch_key` as one (S, n) state.

    Each member's Trajectory is bit for bit the one `run` gives it alone:
    every operation of `step` is elementwise per member row and the solve
    works per column.  `states0` defaults to each member's `make_initial`;
    the batch starts at the time of the first.
    """
    scenarios = list(scenarios)
    sc = scenarios[0]
    if any(batch_key(s) != batch_key(sc) for s in scenarios[1:]):
        raise ValueError("batch members must share grid, D, boundary, dt, "
                         "t_end, snapshot_dt and Gamma kind")
    if states0 is None:
        states0 = [make_initial(s) for s in scenarios]
    dt = sc.dt if sc.dt is not None else reaction_dt_bound()
    n_steps = int(np.ceil(sc.t_end / dt - 1e-12))
    dt = sc.t_end / n_steps  # land exactly on t_end
    batch = Batch(scenarios, dt)
    clamps = [ClampStats() for _ in scenarios]

    state = SimState(states0[0].t, *(np.array([getattr(s, f) for s in states0])
                                     for f in ("E", "M", "F", "Ms")))
    times = [state.t]
    snaps = [np.stack((state.E, state.M, state.F, state.Ms))]
    # the next snapshot is the first step k with k >= m * steps_per_snap
    # (to a 1e-9-step tolerance for roundoff in the ratio)
    steps_per_snap = sc.snapshot_dt / dt
    m = 1
    for k in range(1, n_steps + 1):
        state = step(state, batch, clamps)
        if k >= m * steps_per_snap - 1e-9 or k == n_steps:
            times.append(state.t)
            snaps.append(np.stack((state.E, state.M, state.F, state.Ms)))
            m = int(k / steps_per_snap + 1e-9) + 1
    arr = np.array(snaps)  # (n_snap, 4, S, n)
    times = np.array(times)
    return [Trajectory(s, times, arr[:, 0, i], arr[:, 1, i], arr[:, 2, i],
                       arr[:, 3, i], clamps[i], dt, n_steps)
            for i, s in enumerate(scenarios)]
