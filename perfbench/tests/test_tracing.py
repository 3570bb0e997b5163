import sitcarpet.equilibria
import sitcarpet.waves
from sitcarpet.config import table1_params

from tracing import Hook, Span, SpanSummary, Tracer, install, self_times


def _tree():
    # op [0, 10] -> a [1, 4] -> a1 [2, 3]; op -> b [5, 7]; op -> a [8, 9]
    return [
        Span(0, "op", 0.0, 10.0, None, 0),
        Span(1, "a", 1.0, 4.0, 0, 0),
        Span(2, "a1", 2.0, 3.0, 1, 0),
        Span(3, "b", 5.0, 7.0, 0, 0),
        Span(4, "a", 8.0, 9.0, 0, 0),
    ]


def test_self_time_subtracts_children_only():
    st = self_times(_tree())
    assert st == {0: 4.0, 1: 2.0, 2: 1.0, 3: 2.0, 4: 1.0}
    # the self times of a tree add up to its root's duration
    assert sum(st.values()) == 10.0


def test_self_time_counts_overlapping_children_once():
    spans = [Span(0, "op", 0.0, 10.0, None, 0),
             Span(1, "x", 1.0, 4.0, 0, 0),
             Span(2, "y", 3.0, 6.0, 0, 0),
             Span(3, "z", 9.0, 12.0, 0, 0)]
    assert self_times(spans)[0] == 10.0 - 5.0 - 1.0


def test_summary_busy_calls_and_self():
    s = SpanSummary(_tree() + [Span(5, "a", 8.5, 8.7, 4, 0)])
    assert s.calls("a") == 3
    assert s.busy("a") == 4.0  # the nested "a" is inside another "a"
    assert s.busy("missing") == 0.0
    assert abs(s.self_time("a") - (2.0 + 0.8 + 0.2)) < 1e-12


def test_missing_hook_targets_are_reported_not_raised():
    tracer = Tracer()
    restore, missing = install(tracer, [
        Hook("sitcarpet.solver.no_such_function", "gone.attr"),
        Hook("sitcarpet.no_such_module.f", "gone.module"),
    ])
    restore()
    assert missing == ["gone.attr", "gone.module"]


def test_install_wraps_every_binding_and_restores():
    original = sitcarpet.equilibria.solve_equilibria
    tracer = Tracer()
    restore, missing = install(tracer, [
        Hook("sitcarpet.equilibria.solve_equilibria", "eq"),
        Hook("sitcarpet.equilibria.offspring_number", "n", kind="count"),
    ])
    try:
        assert not missing
        assert sitcarpet.waves.solve_equilibria is not original
        with tracer.operation("op"):
            sitcarpet.waves.solve_equilibria(table1_params())
            sitcarpet.equilibria.offspring_number(table1_params())
    finally:
        restore()
    assert sitcarpet.waves.solve_equilibria is original
    assert sitcarpet.equilibria.solve_equilibria is original
    names = [s.name for s in tracer.spans]
    assert names.count("op") == 1 and "eq" in names
    eq_span = next(s for s in tracer.spans if s.name == "eq")
    op_span = next(s for s in tracer.spans if s.name == "op")
    assert eq_span.parent == op_span.id and eq_span.op == op_span.op == 0
    assert tracer.counts["n"] >= 1
