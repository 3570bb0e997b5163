"""Hooks on sitcarpet's modules and the per-layer metrics computed from them.

Layers are the package modules.  Each group below says which end-to-end
metric it should move, and on which workload, so a change to one layer can
be checked against the right number.  Every per-layer value is per traced
operation unless its unit says otherwise.  A layer that a workload does not
reach reads 0; a metric whose hooks are missing is left out.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import median
from typing import Callable

from tracing import Hook, SpanSummary
from workloads import SWEEP_WORKERS

OP_SPAN = "op"


def _clamps(tracer, args, kwargs, traj):
    tracer.count("solver.clamps", traj.clamps.count)


def _node_steps(tracer, args, kwargs, state):
    tracer.count("solver.node_steps", state.E.size)


def _snapshots(tracer, args, kwargs, outcome):
    tracer.count("waves.snapshots", args[0].times.size)


def _checked_nodes(tracer, args, kwargs, certificate):
    tracer.count("verify.checked_nodes",
                 sum(r.checked_nodes for r in certificate.reports))


HOOKS = (
    Hook("sitcarpet.config.build_scenario", "config.build_scenario"),
    Hook("sitcarpet.cli.simulate_to_dir", "cli.simulate_to_dir"),
    Hook("sitcarpet.solver.run", "solver.run", on_call=_clamps),
    Hook("sitcarpet.solver.make_initial", "solver.make_initial"),
    Hook("sitcarpet.solver.reaction_dt_bound", "solver.reaction_dt_bound"),
    Hook("sitcarpet.solver.implicit_diffusion_matrix",
         "solver.implicit_diffusion_matrix", everywhere=False),
    Hook("sitcarpet.solver.step", "solver.step", on_call=_node_steps),
    Hook("sitcarpet.solver.reaction_arrays", "model.reaction_arrays",
         everywhere=False),
    Hook("sitcarpet.solver.release_value", "solver.release_value"),
    Hook("sitcarpet.solver.solve_banded", "solver.solve_banded", kind="count",
         everywhere=False),
    Hook("sitcarpet.equilibria.solve_equilibria", "equilibria.solve_equilibria"),
    Hook("sitcarpet.waves.classify", "waves.classify", on_call=_snapshots),
    Hook("sitcarpet.waves.front_trace", "waves.front_trace"),
    Hook("sitcarpet.profiles.build_stationary_F", "profiles.build_stationary_F"),
    Hook("sitcarpet.profiles.build_stationary_M", "profiles.build_stationary_M"),
    Hook("sitcarpet.supersolution.find_supersolution_bundle",
         "supersolution.find_supersolution_bundle"),
    Hook("sitcarpet.supersolution.ebar_ode", "supersolution.ebar_ode"),
    Hook("sitcarpet.supersolution.assemble_Fbar", "supersolution.assemble_Fbar",
         kind="count"),
    Hook("sitcarpet.verify.verify_supersolution", "verify.verify_supersolution",
         on_call=_checked_nodes),
    Hook("sitcarpet.verify.build_subsolution", "verify.build_subsolution"),
    Hook("sitcarpet.verify.verify_subsolution", "verify.verify_subsolution",
         on_call=_checked_nodes),
    Hook("sitcarpet.verify.verify_sterile_cap", "verify.verify_sterile_cap",
         on_call=_checked_nodes),
    Hook("sitcarpet.verify.verify_sterile_floor", "verify.verify_sterile_floor",
         on_call=_checked_nodes),
    Hook("sitcarpet.verify.solve_banded", "verify.solve_banded", kind="count",
         everywhere=False),
)


@dataclass
class TraceData:
    """What the traced operations of one run produced."""

    spans: SpanSummary
    counts: dict
    ops: list  # (label, traced, seconds) for every operation of the run

    @property
    def n_ops(self) -> int:
        return sum(1 for _, traced, _ in self.ops if traced)

    def seconds(self, traced: bool, labels=None) -> list[float]:
        return [s for label, t, s in self.ops
                if t == traced and (labels is None or label in labels)]

    def per_op(self, value: float) -> float:
        return value / self.n_ops

    def busy(self, *names: str) -> float:
        return sum(self.spans.busy(n) for n in names) / self.n_ops

    def mean_us(self, name: str, self_only: bool = False) -> float:
        calls = self.spans.calls(name)
        if not calls:
            return 0.0
        total = (self.spans.self_time(name) if self_only
                 else self.spans.busy(name))
        return 1e6 * total / calls

    def count(self, name: str) -> float:
        return self.counts.get(name, 0) / self.n_ops


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    needs: tuple  # hook names the value depends on
    value: Callable[[TraceData], float]


def _node_steps_per_s(d: TraceData) -> float:
    busy = d.spans.busy("solver.step")
    return d.counts.get("solver.node_steps", 0) / busy if busy else 0.0


def _sweep_serial(d: TraceData) -> float:
    serial = d.seconds(False, {"serial"})
    return median(serial) if serial else 0.0


def _sweep_efficiency(d: TraceData) -> float:
    parallel = d.seconds(False, {"parallel"})
    if not parallel:
        return 0.0
    return _sweep_serial(d) / (SWEEP_WORKERS * median(parallel))


def _traced_p50(d: TraceData) -> float:
    return median(d.seconds(True))


def _trace_overhead(d: TraceData) -> float:
    """Traced minus untraced op_s.p50 over the same operations, as a share."""
    labels = {label for label, traced, _ in d.ops if traced}
    untraced = d.seconds(False, labels)
    if not untraced:
        return 0.0
    return (_traced_p50(d) - median(untraced)) / median(untraced)


STEP = ("solver.step",)
RUN_SETUP = ("solver.make_initial", "solver.reaction_dt_bound",
             "solver.implicit_diffusion_matrix")
SIMULATE_CHILDREN = ("cli.simulate_to_dir", "config.build_scenario",
                     "solver.run", "waves.classify", "waves.front_trace")

LAYER_METRICS = (
    # solver and model: op_s.p50 on presets and sweep; no change on certify
    LayerMetric("solver.steps", "count", STEP,
                lambda d: d.per_op(d.spans.calls("solver.step"))),
    LayerMetric("solver.step_us", "us", STEP,
                lambda d: d.mean_us("solver.step")),
    LayerMetric("solver.step_self_us", "us",
                STEP + ("model.reaction_arrays", "solver.release_value"),
                lambda d: d.mean_us("solver.step", self_only=True)),
    LayerMetric("solver.diffusion_solves", "count", ("solver.solve_banded",),
                lambda d: d.count("solver.solve_banded")),
    LayerMetric("solver.node_steps_per_s", "1/s", STEP, _node_steps_per_s),
    LayerMetric("solver.run_setup_s", "s", RUN_SETUP,
                lambda d: d.busy(*RUN_SETUP)),
    LayerMetric("solver.clamps", "count", ("solver.run",),
                lambda d: d.count("solver.clamps")),
    LayerMetric("model.reaction_us", "us", ("model.reaction_arrays",),
                lambda d: d.mean_us("model.reaction_arrays")),
    LayerMetric("model.reaction_calls", "count", ("model.reaction_arrays",),
                lambda d: d.per_op(d.spans.calls("model.reaction_arrays"))),
    LayerMetric("solver.release_us", "us", ("solver.release_value",),
                lambda d: d.mean_us("solver.release_value")),
    # equilibria: op_s.p50 on all three workloads
    LayerMetric("equilibria.solve_equilibria_calls", "count",
                ("equilibria.solve_equilibria",),
                lambda d: d.per_op(d.spans.calls("equilibria.solve_equilibria"))),
    LayerMetric("equilibria.solve_equilibria_s", "s",
                ("equilibria.solve_equilibria",),
                lambda d: d.busy("equilibria.solve_equilibria")),
    # waves: op_s.p50 on presets and sweep
    LayerMetric("waves.classify_s", "s", ("waves.classify",),
                lambda d: d.busy("waves.classify")),
    LayerMetric("waves.front_trace_s", "s", ("waves.front_trace",),
                lambda d: d.busy("waves.front_trace")),
    LayerMetric("waves.snapshots", "count", ("waves.classify",),
                lambda d: d.count("waves.snapshots")),
    # cli: write_s and bytes_written move op_s.p50 on presets only; the
    # sweep pair moves op_s.p50 and scenarios_per_s on sweep
    LayerMetric("cli.write_s", "s", SIMULATE_CHILDREN,
                lambda d: d.per_op(d.spans.self_time("cli.simulate_to_dir"))),
    LayerMetric("cli.bytes_written", "bytes", (),
                lambda d: d.count("cli.bytes_written")),
    LayerMetric("cli.sweep_serial_s", "s", (), _sweep_serial),
    LayerMetric("cli.sweep_parallel_efficiency", "ratio", (), _sweep_efficiency),
    # profiles, supersolution, verify: op_s.p50 on certify
    LayerMetric("profiles.build_stationary_F_s", "s",
                ("profiles.build_stationary_F",),
                lambda d: d.busy("profiles.build_stationary_F")),
    LayerMetric("profiles.build_stationary_M_s", "s",
                ("profiles.build_stationary_M",),
                lambda d: d.busy("profiles.build_stationary_M")),
    LayerMetric("supersolution.ebar_ode_calls", "count",
                ("supersolution.ebar_ode",),
                lambda d: d.per_op(d.spans.calls("supersolution.ebar_ode"))),
    LayerMetric("supersolution.ebar_ode_s", "s", ("supersolution.ebar_ode",),
                lambda d: d.busy("supersolution.ebar_ode")),
    LayerMetric("supersolution.assemble_Fbar_calls", "count",
                ("supersolution.assemble_Fbar",),
                lambda d: d.count("supersolution.assemble_Fbar")),
    LayerMetric("supersolution.find_bundle_s", "s",
                ("supersolution.find_supersolution_bundle",),
                lambda d: d.busy("supersolution.find_supersolution_bundle")),
    LayerMetric("verify.supersolution_self_s", "s",
                ("verify.verify_supersolution", "supersolution.ebar_ode",
                 "equilibria.solve_equilibria"),
                lambda d: d.per_op(
                    d.spans.self_time("verify.verify_supersolution"))),
    LayerMetric("verify.subsolution_s", "s",
                ("verify.build_subsolution", "verify.verify_subsolution"),
                lambda d: d.busy("verify.build_subsolution",
                                 "verify.verify_subsolution")),
    LayerMetric("verify.sterile_bounds_s", "s",
                ("verify.verify_sterile_cap", "verify.verify_sterile_floor"),
                lambda d: d.busy("verify.verify_sterile_cap",
                                 "verify.verify_sterile_floor")),
    LayerMetric("verify.mbar_solves", "count", ("verify.solve_banded",),
                lambda d: d.count("verify.solve_banded")),
    LayerMetric("verify.checked_nodes", "count",
                ("verify.verify_supersolution", "verify.verify_subsolution",
                 "verify.verify_sterile_cap", "verify.verify_sterile_floor"),
                lambda d: d.count("verify.checked_nodes")),
    # config: setup_s
    LayerMetric("config.build_scenario_s", "s", ("config.build_scenario",),
                lambda d: d.busy("config.build_scenario")),
    # the trace itself: what tracing costs, and the share of a traced
    # operation that no hooked call covers (outside every layer above)
    LayerMetric("trace_overhead_frac", "ratio", (), _trace_overhead),
    LayerMetric("traced_op_s.p50", "s", (), _traced_p50),
    LayerMetric("unattributed_frac", "ratio", (),
                lambda d: d.spans.self_time(OP_SPAN) / d.spans.busy(OP_SPAN)),
)
