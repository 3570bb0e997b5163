import csv

import numpy as np

_trapezoid = getattr(np, "trapezoid", getattr(np, "trapz", None))
import pytest

from sitcarpet.cli import main
from sitcarpet.config import preset
from sitcarpet.solver import Grid, ReleaseSchedule, release_value
from sitcarpet.waves import (
    FrontTrace,
    classify,
    cost_exponent,
    estimate_speed,
    front_position,
    front_trace,
    sterile_cost,
)


class TestFrontPosition:
    def test_no_crossing(self):
        grid = Grid.cartesian(0, 10, 101)
        pos, mult = front_position(np.full(grid.n, 77.4), grid, 38.7)
        assert pos is None and not mult

    def test_step_bracket(self):
        grid = Grid.cartesian(0, 10, 11)
        f = np.where(grid.x < 4.5, 10.0, 0.0)
        pos, mult = front_position(f, grid, 5.0)
        assert 4.0 < pos < 5.0
        assert not mult

    def test_translation_equivariance(self):
        grid = Grid.cartesian(-20, 20, 401)
        prof = lambda x: 50.0 / (1.0 + np.exp(x))
        p1, _ = front_position(prof(grid.x), grid, 25.0)
        p2, _ = front_position(prof(grid.x - 5.0), grid, 25.0)
        assert p2 - p1 == pytest.approx(5.0, abs=1e-12)

    def test_outermost_with_multiplicity(self):
        grid = Grid.cartesian(0, 10, 1001)
        f = 10.0 * np.sin(grid.x)  # several crossings of level 5
        pos, mult = front_position(f, grid, 5.0)
        assert mult
        assert pos == pytest.approx(np.pi * 2 + np.pi - np.arcsin(0.5),
                                    abs=1e-2)


class TestEstimateSpeed:
    def test_exact_linear(self):
        t = np.linspace(0, 50, 60)
        tr = FrontTrace(t, 3.0 * t, np.zeros_like(t, dtype=bool))
        est = estimate_speed(tr)
        assert est.speed == pytest.approx(3.0, abs=1e-12)
        assert est.rms < 1e-12

    def test_translation_invariance(self):
        t = np.linspace(0, 50, 60)
        pos = np.sin(t) * 0.1 + 2.0 * t
        a = estimate_speed(FrontTrace(t, pos, np.zeros_like(t, dtype=bool)))
        b = estimate_speed(FrontTrace(t, pos + 123.0,
                                      np.zeros_like(t, dtype=bool)))
        assert a.speed == pytest.approx(b.speed, abs=1e-12)

    def test_stationary(self):
        t = np.linspace(0, 50, 60)
        est = estimate_speed(FrontTrace(t, np.full_like(t, 7.0),
                                        np.zeros_like(t, dtype=bool)))
        assert abs(est.speed) < 1e-12

    def test_too_few_samples(self):
        t = np.linspace(0, 5, 6)
        assert estimate_speed(FrontTrace(t, t, np.zeros_like(t, dtype=bool))) \
            is None


class TestClassify:
    def test_fig1_invasion(self, fig1_traj):
        out = classify(fig1_traj)
        assert out.kind == "Invasion"
        assert out.speed > 0

    def test_carpet(self, carpet_traj):
        out = classify(carpet_traj)
        assert out.kind == "Carpet"

    def test_monotone_in_tolerances(self, carpet_traj):
        # loosening the probes never demotes a Carpet
        base = classify(carpet_traj)
        loose = classify(carpet_traj, tol_in=1e-2, tol_out=5e-2)
        assert base.kind == "Carpet" and loose.kind == "Carpet"

    def test_probe_validation(self, carpet_traj):
        with pytest.raises(ValueError):
            classify(carpet_traj, probe=(0.05, 0.01))

    def test_domain_too_small(self, carpet_traj):
        out = classify(carpet_traj, probe=(0.0225, 5.0))
        assert out.kind == "Indeterminate"
        assert out.diagnostics.get("domain_too_small")


class TestSterileCost:
    def test_naive_disc_closed_form(self):
        s = ReleaseSchedule(kind="disc", lambda_bar=1.0, R2=1.0, c=1.0)
        for T in (1.0, 10.0, 500.0):
            assert sterile_cost(s, T) == pytest.approx(
                np.pi * ((1 + T) ** 3 - 1) / 3, rel=1e-12)

    def test_zero_horizon(self):
        a = ReleaseSchedule(kind="annulus", lambda_bar=2.0, R1=1, R2=3, c=0.5)
        d = ReleaseSchedule(kind="disc", lambda_bar=2.0, R2=3, c=0.5)
        assert sterile_cost(a, 0.0) == 0.0
        assert sterile_cost(d, 0.0) == 0.0

    def test_exponents(self):
        # geometry with c T >> radii over the whole grid, so the asymptotic
        # powers show through the fit
        T_grid = [10.0, 100.0, 1000.0, 10000.0]
        d = ReleaseSchedule(kind="disc", lambda_bar=1.0, R2=1.0, c=1.0)
        a = ReleaseSchedule(kind="annulus", lambda_bar=1.0, R1=0.5, R2=1.0,
                            c=1.0)
        assert cost_exponent(d, T_grid) == pytest.approx(3.0, abs=0.1)
        assert cost_exponent(a, T_grid) == pytest.approx(2.0, abs=0.1)

    def test_ratio_decreasing(self):
        d = ReleaseSchedule(kind="disc", lambda_bar=1.0, R2=5.0, c=0.5)
        a = ReleaseSchedule(kind="annulus", lambda_bar=1.0, R1=2, R2=5, c=0.5)
        ratios = [sterile_cost(a, T) / sterile_cost(d, T)
                  for T in (10.0, 100.0, 1000.0)]
        assert ratios[0] > ratios[1] > ratios[2]

    def _quadrature_total(self, s, T):
        r = np.linspace(0, s.R2 + s.c * T + 30 / max(s.eta, 0.3), 6000)
        t = np.linspace(0, T, 2000)
        tot = 0.0
        for ti in t:
            lam = release_value(s, r, ti)
            tot += _trapezoid(lam * 2 * np.pi * r, r)
        return tot * (t[1] - t[0])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_closed_forms_match_quadrature(self, seed):
        rng = np.random.default_rng(seed)
        R1 = float(rng.uniform(0.5, 4))
        R2 = R1 + float(rng.uniform(1, 6))
        c = float(rng.uniform(0.05, 1.0))
        lam = float(rng.uniform(0.5, 5.0))
        T = float(rng.uniform(5, 30))
        for s in (ReleaseSchedule(kind="annulus", lambda_bar=lam, R1=R1,
                                  R2=R2, c=c),
                  ReleaseSchedule(kind="disc", lambda_bar=lam, R2=R2, c=c),
                  ReleaseSchedule(kind="annulus_tail", lambda_bar=lam, R1=R1,
                                  R2=R2, c=c, eta=float(rng.uniform(0.2, 1)))):
            assert sterile_cost(s, T) == pytest.approx(
                self._quadrature_total(s, T), rel=1e-3)


def test_sweep_repeats_are_identical(tmp_path):
    cfg = preset("fig1")
    cfg.grid.update(x_min=-30.0, x_max=30.0, n=400)
    cfg.run["t_end"] = 60.0
    path = tmp_path / "short.cfg"
    path.write_text(cfg.to_text())
    rc = main(["sweep", "--config", str(path), "--axis", "model.gamma",
               "--values", "0.5,0.5", "--out", str(tmp_path)])
    assert rc == 0
    (sweep_csv,) = tmp_path.glob("*/sweep.csv")
    with open(sweep_csv, newline="") as fh:
        speeds = [row["speed"] for row in csv.DictReader(fh)]
    assert speeds[0] != "None" and speeds[0] == speeds[1]  # bitwise


def test_front_trace_on_run(fig1_traj):
    tr = front_trace(fig1_traj)
    v = tr.valid()
    assert v.times.size > 10
    assert np.all(np.diff(v.times) > 0)
    est = estimate_speed(v)
    assert est.speed == pytest.approx(0.279, rel=0.05)
