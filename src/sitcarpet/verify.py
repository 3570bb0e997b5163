"""Numerical certificates for the differential inequalities of the profiles.

`verify_inequality` evaluates a space-time field on a grid, forms the
parabolic residual  d_t u - D lap u - f  with second-order finite
differences (one-sided next to declared interfaces, which are otherwise
excluded by a few cells since the fields are only piecewise smooth there),
and reports the worst violation of the requested sign.  Interface
admissibility is certified separately through the one-sided radial
derivative jump: a sub-solution kink must not decrease the outward slope, a
super-solution kink must not increase it.

Every scanned check (each residual, the Ebar and Mbar bounds, the female
reaction cap and the far plateau) finds its worst violation and its (x, t)
by one masked scan, `_worst_violation`, over rows or blocks of rows; a
NaN among the checked nodes is the worst violation.  A check passes when
at least one node was checked and its worst violation is below its tol.

The drivers below assemble the full certificates: the translating stationary
pair as a sub-solution of the four-field system, the moving-cap bundle as a
super-solution, and the translating sterile-male upper/lower bounds.  For
every failure a config can reach, a builder raises the one error
`CertificateUnavailable`; `sitcarpet verify` reports it as a failed
certificate (`[FAIL] not built:` and the condition) and exits 4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np

from .equilibria import EquilibriumSet, solve_equilibria
from .model import (ModelParams, reaction_arrays, slaved_E,
                    well_prepared_start)
from .profiles import (
    MonotoneProfile,
    build_stationary_F,
    build_stationary_M,
    find_eps0,
)
from .solver import (
    Grid,
    ReleaseSchedule,
    factor_diffusion,
    implicit_diffusion_matrix,
    release_value,
    solve_banded,
)
from .supersolution import (
    CertificateUnavailable,
    SterileBoundProfile,
    SterileCap,
    SupersolutionBundle,
    assemble_Fbar,
    ebar_ode,
    make_sterile_lower_bound,
    walk_times,
)

DT_FD = 1e-5
EXCLUDE_CELLS = 4
# Tolerances of the certificates, each relative to the check's own scale:
# the sub- and super-solution residuals, the sterile-bound residuals and
# the kink slope jumps
RESIDUAL_TOL = 1e-6
STERILE_TOL = 1e-8
JUMP_TOL = 1e-7
# One-sided difference step of `jump_check`
JUMP_H = 1e-5
# Times and nodes of the sterile cap and floor certificates
STERILE_T_GRID = (0.5, 5.0, 15.0)
STERILE_N_X = 3000


@dataclass
class ResidualReport:
    name: str
    worst_violation: float     # max amount by which the sign was violated
    location: Optional[tuple]  # (x, t) of the worst violation
    tol: float
    checked_nodes: int
    reason: str = ""  # why no node was checked, if none was

    @property
    def passed(self) -> bool:
        """At least one node checked (a check over none shows nothing) and
        the worst violation below tol (a NaN is not)."""
        return self.checked_nodes > 0 and self.worst_violation < self.tol

    def __str__(self):
        if not self.checked_nodes:
            return (f"[FAIL] {self.name}: no node checked: "
                    f"{self.reason or 'every node is masked'}")
        status = "PASS" if self.passed else "FAIL"
        return (f"[{status}] {self.name}: worst violation "
                f"{self.worst_violation:.3e} (tol {self.tol:.1e}, "
                f"{self.checked_nodes} nodes)")


def _laplacian_1d(u: np.ndarray, x: np.ndarray, radial: bool) -> np.ndarray:
    """Second-order centred Laplacian (with 1/r term when radial) at the
    interior nodes; NaN at the two ends, which have no centred stencil."""
    dx = x[1] - x[0]
    lap = np.full_like(u, np.nan)
    lap[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / dx**2
    if radial:
        lap[1:-1] += (u[2:] - u[:-2]) / (2.0 * dx) / x[1:-1]
    return lap


def verify_inequality(field_fn: Callable, reaction_fn: Callable, sign: str,
                      x_grid: np.ndarray, t_grid: Iterable[float], *,
                      D: float, radial: bool,
                      interfaces: Optional[Callable] = None,
                      tol: float = RESIDUAL_TOL, scale: float = 1.0,
                      name: str = "residual") -> ResidualReport:
    """Sign-check the residual d_t u - D lap u - reaction over a grid.

    field_fn(x_array, t) and reaction_fn(x_array, t, u_array) must be
    vectorized.  interfaces(t) returns positions near which nodes are
    excluded (the fields are only piecewise C^2 there; the kink admissibility
    is checked by `jump_check`).  Violations are scaled by `scale`.
    """
    if sign not in ("sub", "super"):
        raise ValueError("sign must be 'sub' or 'super'")
    x = np.asarray(x_grid, dtype=float)

    def rows():
        for t in t_grid:
            u = np.asarray(field_fn(x, t), dtype=float)
            up = np.asarray(field_fn(x, t + DT_FD), dtype=float)
            um = np.asarray(field_fn(x, t - DT_FD), dtype=float)
            dudt = (up - um) / (2.0 * DT_FD)
            lap = _laplacian_1d(u, x, radial)
            resid = (dudt - D * lap
                     - np.asarray(reaction_fn(x, t, u), dtype=float))
            mask = _clear_of(x, [] if interfaces is None else interfaces(t),
                             EXCLUDE_CELLS)
            mask[:2] = False
            mask[-2:] = False
            yield t, (resid if sign == "sub" else -resid) / scale, mask

    return _scan_report(name, x, rows(), tol, (
        f"every node is within {EXCLUDE_CELLS} cells of an interface or "
        f"next to an end of the grid"))


def _scan_report(name: str, x: np.ndarray, rows, tol: float,
                 reason: str = "") -> ResidualReport:
    """The report of `_worst_violation` over rows, against tol; `reason`
    says why, should no node be checked.

    A grid x that is not strictly increasing (far out, its spacing rounds
    to 0) is not scanned, and the report names its first such node; rows
    is not consumed then, so a lazy scan evaluates nothing."""
    stall = np.flatnonzero(~(x[1:] > x[:-1]))
    if stall.size:
        return ResidualReport(name, -np.inf, None, tol, 0,
                              f"the grid stops increasing at x = "
                              f"{x[stall[0]]:.6g}")
    worst, loc, checked = _worst_violation(x, rows)
    return ResidualReport(name, worst, loc, tol, checked, reason)


def _worst_violation(x: np.ndarray, rows) -> tuple:
    """(worst, its (x, t), nodes checked) over rows (t, v, mask): v the
    violation at the nodes x, one row at the time t or a block of rows,
    one per entry of the times t; mask the nodes checked, None for every
    node.  worst is -inf if no node is checked, and NaN, located at the
    first one, if any checked node is NaN."""
    worst, loc, checked = -np.inf, None, 0
    for t, v, mask in rows:
        if mask is not None:
            if not mask.any():
                continue
            v = v[..., mask]
        v = v.reshape(-1, v.shape[-1])
        # the first NaN, if there is one
        i, j = divmod(int(np.argmax(v)), v.shape[1])
        # a NaN is the worst violation, and the first one found stays
        if v[i, j] > worst or (math.isnan(v[i, j]) and not math.isnan(worst)):
            worst = float(v[i, j])
            loc = (float(x[j] if mask is None else x[mask][j]),
                   float(np.reshape(t, -1)[i]))
        checked += v.size
    return worst, loc, checked


def _clear_of(x: np.ndarray, points, cells: int) -> np.ndarray:
    """Nodes of the uniform grid x more than `cells` cells away from all points."""
    gaps = np.abs(x[:, None] - np.atleast_1d(np.asarray(points, dtype=float)))
    return np.all(gaps > cells * (x[1] - x[0]), axis=1)


def jump_check(field_fn: Callable, interface_x: float, t: float, sign: str, *,
               scale: float = 1.0, name: str = "jump") -> ResidualReport:
    """Kink admissibility at a radial interface.

    One-sided first derivatives just inside/outside; a sub-solution requires
    outward slope jump >= 0, a super-solution <= 0.
    """
    if interface_x + JUMP_H == interface_x:
        return ResidualReport(name, -np.inf, (interface_x, t), JUMP_TOL, 0,
                              "the one-sided step rounds to 0 at "
                              f"x = {interface_x:.6g}")

    def one_sided(x0, direction):
        xs = x0 + direction * JUMP_H * np.arange(4.0)
        u = np.asarray(field_fn(xs, t), dtype=float)
        return direction * (-11.0 * u[0] + 18.0 * u[1] - 9.0 * u[2]
                            + 2.0 * u[3]) / (6.0 * JUMP_H)

    jump = one_sided(interface_x, +1.0) - one_sided(interface_x, -1.0)
    violation = (-jump if sign == "sub" else jump) / scale
    return ResidualReport(name, float(violation), (interface_x, t),
                          JUMP_TOL, 1)


@dataclass
class CertificateReport:
    name: str
    reports: list
    unbuilt: str = ""  # the failing condition, if the object was not built

    @property
    def passed(self) -> bool:
        return not self.unbuilt and all(r.passed for r in self.reports)

    def __str__(self):
        lines = [f"certificate {self.name}: "
                 f"{'PASS' if self.passed else 'FAIL'}"]
        lines += ["  " + str(r) for r in self.reports]
        if self.unbuilt:
            lines.append(f"  [FAIL] not built: {self.unbuilt}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# sub-solution certificate (translating stationary pair + sterile cap)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubsolutionFields:
    """Translating sub-solution (E, M, F nondecreasing; Ms an upper cap)."""

    params: ModelParams
    upper: tuple[float, float, float]  # (E*, M*, F*) of params
    c: float
    R_shift: float
    F_profile: MonotoneProfile
    M_profile: MonotoneProfile
    Ms: Callable  # Ms(x, t), the sterile cap

    def offset(self, x, t):
        return np.abs(np.asarray(x, dtype=float)) - self.c * t - self.R_shift

    def E(self, x, t):
        return slaved_E(self.params, self.F(x, t))

    def M(self, x, t):
        s = self.offset(x, t)
        return np.where(s > 0, self.M_profile(np.maximum(s, 0.0)), 0.0)

    def F(self, x, t):
        s = self.offset(x, t)
        return np.where(s > 0, self.F_profile(np.maximum(s, 0.0)), 0.0)


def build_subsolution(params: ModelParams, cap: SterileCap,
                      equilibria: Optional[EquilibriumSet] = None
                      ) -> SubsolutionFields:
    """Assemble the moving sub-solution at the speed of the sterile `cap`.

    The sterile field is capped by `cap`, whose edge lies beyond the
    release annulus and the initial sterile dose; the shift R is chosen so
    the cap lies below the eps-tail the female profile tolerates.
    `equilibria` are the params' own, if already solved.
    """
    eq = equilibria if equilibria is not None else solve_equilibria(params)
    if eq.upper is None:
        raise CertificateUnavailable("no positive equilibrium for a "
                                     "sub-solution")
    eps_gamma = find_eps0(params, eq.upper[2])
    if eps_gamma is None:
        raise CertificateUnavailable(
            "no admissible sterile tail amplitude: G_eps(F*) <= 0 for every "
            "eps down to 2^-199")
    F_prof = build_stationary_F(params, eps=eps_gamma, equilibria=eq)
    if F_prof is None:
        raise CertificateUnavailable("no stationary profile in this "
                                     "regime")
    M_prof = build_stationary_M(params, F_prof)

    R_shift = cap.Rs + np.log(max(cap.height / eps_gamma, 1.0)) / cap.rate
    return SubsolutionFields(params, eq.upper, cap.c, R_shift, F_prof,
                             M_prof, cap)


def verify_subsolution(sub: SubsolutionFields,
                       t_grid=(1.0, 7.0, 19.0)) -> CertificateReport:
    """Residual signs for all four equations of the system, cone order.

    E, M, F components must be sub-solutions (residual <= RESIDUAL_TOL in
    scaled units).  The diffusing fields are checked on the profiles' own
    nodes (the stored values are integration-accurate there, so the
    finite-difference residual is dominated by the inequality's true
    margin); beyond the sampled range, up to 60 length units out, the fields
    are spatially constant and the reaction sign is checked directly.  Kink
    admissibility at the moving interface is checked through the one-sided
    slope jump.
    """
    p = sub.params
    E_star, M_star, F_star = sub.upper
    reports = []

    def interfaces(t):
        return [sub.c * t + sub.R_shift]

    # uniform interior section of the profile grid (drop the appended tail node)
    s_nodes = sub.F_profile.grid[:-1]
    ce = p.egg_loss

    def react(x, t):
        """The E, M and F reaction rates at (x, t), by field name."""
        E = sub.E(x, t)
        M = sub.M(x, t)
        F = sub.F(x, t)
        Ms = sub.Ms(x, t)
        fE, _, (fM, fF, _) = reaction_arrays(p, (E, M, F, Ms), 0.0,
                                             p.K_scalar)
        return {"E": fE, "M": fM, "F": fF}

    equations = (("E", sub.E, 0.0, ce * E_star), ("M", sub.M, p.D, p.mu_M * M_star),
                 ("F", sub.F, p.D, p.mu_F * F_star))
    for t in t_grid:
        xg = sub.c * t + sub.R_shift + s_nodes
        # the three residuals read their reactions at (xg, t) from one
        # evaluation
        rates = react(xg, t)
        for w, fld, D, scale in equations:
            reports.append(verify_inequality(
                fld, lambda x, tt, u, f=rates[w]: f, "sub", xg, [t],
                D=D, radial=True, interfaces=interfaces, scale=scale,
                name=f"{w} residual t={t:g}"))
        for fld, nm in ((sub.M, "M"), (sub.F, "F")):
            reports.append(jump_check(
                lambda x, tt, f=fld: f(x, tt), sub.c * t + sub.R_shift, t,
                "sub", scale=max(M_star, F_star),
                name=f"{nm} kink t={t:g}"))

        # beyond the sampled profiles both fields are constant in space, so
        # the sub-solution inequality reduces to reaction nonnegativity
        x_far = xg[-1] + np.linspace(0.5, 60.0, 200)
        far = react(x_far, t)
        reports.append(_scan_report(
            f"far-plateau reaction t={t:g}", x_far,
            [(t, -far[which] / scale, None) for which, scale in
             (("M", p.mu_M * M_star), ("F", p.mu_F * F_star))],
            RESIDUAL_TOL))
    return CertificateReport("subsolution", reports)


def _sterile_reports(params: ModelParams, release: ReleaseSchedule, bound,
                     sign: str, window: Callable, joints: list, scale: float,
                     name: str, kink_scale: float = 0.0) -> list:
    """At each STERILE_T_GRID time, the residual of `bound` in the equation
    of the sterile males of `release`, checked for `sign` on STERILE_N_X
    radii across window(t) = (lo, hi) clear of the kinks at offsets
    `joints` from ct; and, given kink_scale, each kink's slope jump."""
    def react(x, t, u):
        return release_value(release, x, t) - params.mu_s * u

    def interfaces(t):
        return [j + release.c * t for j in joints]

    reports = []
    for t in STERILE_T_GRID:
        lo, hi = window(t)
        xg = np.linspace(max(lo, 1e-3), hi, STERILE_N_X)
        reports.append(verify_inequality(
            bound, react, sign, xg, [t], D=params.D, radial=True,
            interfaces=interfaces, tol=STERILE_TOL, scale=scale,
            name=f"{name} residual t={t:g}"))
        if kink_scale:
            reports += [jump_check(bound, xi, t, sign, scale=kink_scale,
                                   name=f"{name} kink t={t:g}")
                        for xi in interfaces(t)]
    return reports


def verify_sterile_cap(params: ModelParams, release: ReleaseSchedule,
                       cap: SterileCap) -> CertificateReport:
    """The translating plateau/skirt `cap` dominates the sterile males of
    an annulus `release` with its speed c."""
    c, Rs = release.c, cap.Rs
    return CertificateReport("sterile-upper-bound", _sterile_reports(
        params, release, cap, "super",
        lambda t: (Rs + c * t - 15.0, Rs + c * t + 25.0), [Rs],
        params.mu_s * cap.height, "sterile cap", kink_scale=cap.height))


def verify_sterile_floor(profile: SterileBoundProfile) -> CertificateReport:
    """The translating floor is a sub-solution for the sterile males of its
    release."""
    s, p, rel = profile, profile.params, profile.release
    tail = s.kind == "lower_annulus_tail"
    reports = _sterile_reports(
        p, rel, s, "sub",
        lambda t: (rel.R1 + rel.c * t - 10.0, rel.R2 + rel.c * t + 15.0),
        [s.r1, s.r2] + ([rel.R1] if tail else []), rel.lambda_bar,
        "sterile floor")
    if tail:
        # C0/C1 matching at the two joints, from the analytic piece formulas
        slope_scale = s.M_hat * max(s.eta, 1.0) / np.sqrt(p.D)
        for joint in (rel.R1, s.r1):
            (v_left, v_right), (d_left, d_right) = s.one_sided(joint)
            c0 = abs(v_right - v_left) / s.M_hat
            c1 = abs(d_right - d_left) / slope_scale
            reports.append(ResidualReport(
                f"C0 joint at offset {joint:g}", c0, (joint, 0.0), 1e-10, 1))
            reports.append(ResidualReport(
                f"C1 joint at offset {joint:g}", c1, (joint, 0.0), 1e-10, 1))
    return CertificateReport(f"sterile-lower-bound-{s.kind}", reports)


# ---------------------------------------------------------------------------
# super-solution certificate (moving cap bundle)
# ---------------------------------------------------------------------------

def verify_supersolution(bundle: SupersolutionBundle, t_end: float = 20.0,
                         n_x: int = 1200) -> CertificateReport:
    """Certify the moving-cap construction.

    Checks, on one radial grid and a space-time grid: (1) the damped-heat
    inequality for Fbar with the piecewise damping g (off r = 0, where the
    radial Laplacian divides by r); (2) Ebar <= C1 Fbar with Ebar the rows
    of `ebar_ode`, an upper bound of the pointwise egg ODE's solution, so
    the bound holds for that solution too; (3) Mbar <= C2 Fbar with Mbar
    solved from its parabolic equation sourced by Ebar; (4) the
    reaction-side inequality of the female equation,

        fF(Ebar, Mbar, Fbar, Ms_floor) + g Fbar <= 0,

    with Ms_floor the sterile floor on the annulus and Ebar, Mbar the
    computed rows at the first step at or after each check time: fF grows
    with E and M, so the caps stand in for the fields they bound.  One
    streamed Ebar walk serves (2), (3) and (4): each block of rows is
    scanned as it arrives and then dropped, and only Mbar's excess at its
    check rows (fewer than 40) and the five Ebar and Mbar rows that (4)
    reads are kept, so memory stays bounded whatever the number of steps.
    """
    p = bundle.params
    reports = []
    grid = Grid.radial(bundle.r2 + bundle.c * t_end + 12.0, n_x)
    x = grid.x
    t_grid = np.linspace(0.3 * t_end, t_end, 5)
    damping = np.array([bundle.mu / 4.0, bundle.mu, bundle.eps, 0.0])

    def g_fn(x, t):
        return damping[bundle.region(x, t)]

    def Fbar(x, t):
        return assemble_Fbar(bundle, x, t)

    reports.append(verify_inequality(
        Fbar, lambda x, t, u: -g_fn(x, t) * u, "super", x[1:], t_grid,
        D=p.D, radial=True, interfaces=bundle.interfaces,
        scale=p.mu_F * bundle.F_star, name="Fbar damped-heat residual"))
    for t in t_grid:
        for xi, nm in zip(bundle.interfaces(t)[1:], ("r1+ct", "r2+ct")):
            reports.append(jump_check(Fbar, xi, t, "super",
                                      scale=bundle.F_star,
                                      name=f"Fbar kink at {nm}, t={t:g}"))

    # smallness hypotheses behind the C1/C2 bounds (named so a failure
    # diagnoses which inequality blocked)
    sd = bundle.sqrt_D
    ce = p.egg_loss
    hyps = [
        ("C1 drift hypothesis mu/4 + c' sqrt(mu/2) < mu_E + nu_E",
         bundle.mu / 4 + bundle.c_prime / sd * np.sqrt(bundle.mu / 2) - ce),
        ("C1 drift hypothesis c sqrt(eps) < mu_E + nu_E",
         bundle.c / sd * np.sqrt(bundle.eps) - ce),
        ("C2 gap hypothesis max(mu, eps) < mu_M",
         max(bundle.mu, bundle.eps) - p.mu_M),
        ("reaction margin hypothesis max(mu, eps) < mu_F",
         max(bundle.mu, bundle.eps) - p.mu_F),
    ]
    reports += [ResidualReport(name, float(slack), None, 0.0, 1)
                for name, slack in hyps]

    # (2) Ebar <= C1 Fbar and (3) Mbar <= C2 Fbar read one streamed walk
    # of the pointwise Ebar bound, each block as it arrives.  Mbar is solved
    # from the male equation with the Ebar source (implicit diffusion and
    # decay, explicit source; unconditionally stable) and compared with
    # its cap after every (n_steps // 20)-th step and the last, that is at
    # the rows in `checks`; (4) reads the Ebar and Mbar rows at the first
    # step at or after each check time.  Both bounds are scaled by the
    # local cap.
    dt = 0.02
    times = walk_times(t_end, dt)[0]
    n_steps = times.size - 1
    checks = {k + 1 for k in range(n_steps)
              if k % max(1, n_steps // 20) == 0 or k == n_steps - 1}
    reads = [min(int(np.searchsorted(times, t)), n_steps) for t in t_grid]
    kept = {}
    ab = implicit_diffusion_matrix(grid, p.D, dt)
    ab[1, :] += dt * p.mu_M
    lu = factor_diffusion(ab)
    source = dt * (1.0 - p.rho) * p.nu_E  # the Mbar source per unit Ebar
    mbar_rows = []

    def ebar_rows():
        """Each block's Ebar excess over its cap; then the block's Mbar
        steps, which append Mbar's excess at the rows in `checks` to
        mbar_rows and keep the rows in `reads`."""
        for block in ebar_ode(bundle, x, t_end, dt):
            cap = bundle.C1 * block.Fbar
            excess = block.Ebar - cap
            yield block.times, np.divide(excess, cap, out=excess), None
            for row, (F_row, E_row) in enumerate(
                    zip(block.Fbar, block.Ebar), block.start):
                if row == 0:
                    Mb = well_prepared_start(p, F_row, bundle.C0,
                                             p.K_scalar)[1]
                else:
                    Mb = solve_banded(lu, Mb + source * E_prev)
                if row in checks:
                    cap = bundle.C2 * F_row
                    mbar_rows.append((times[row], (Mb - cap) / cap, None))
                if row in reads:
                    kept[row] = (E_row.copy(), Mb)
                E_prev = E_row

    reports.append(_scan_report("Ebar <= C1 Fbar", x, ebar_rows(),
                                RESIDUAL_TOL))
    reports.append(_scan_report("Mbar <= C2 Fbar", x, mbar_rows,
                                RESIDUAL_TOL))

    # (4) reaction-side inequality on the kept Ebar and Mbar rows
    floor = make_sterile_lower_bound(
        p, ReleaseSchedule("annulus", bundle.lambda_bar, bundle.R1,
                           bundle.R2, bundle.c), bundle.r1, bundle.r2)

    def reaction_rows():
        for t, row in zip(t_grid, reads):
            Fb = Fbar(x, t)
            fF = reaction_arrays(p, (*kept[row], Fb, floor.floor(x, t)),
                                 0.0, p.K_scalar)[2][1]
            resid = fF + g_fn(x, t) * Fb  # must be <= 0, relative to the cap
            yield (t, resid / (p.mu_F * Fb),
                   _clear_of(x, bundle.interfaces(t), EXCLUDE_CELLS))

    reports.append(_scan_report("female reaction cap", x, reaction_rows(),
                                RESIDUAL_TOL))
    return CertificateReport("supersolution", reports)
