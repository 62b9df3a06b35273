"""Property-based tests of simulator invariants (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.graph import DataflowGraph, Op, lower_fifos
from repro.graph.cell import _NO_TOKEN
from repro.sim import SyncSimulator


def chain_with_fifos(fifo_depths: list[int]) -> DataflowGraph:
    g = DataflowGraph()
    prev = g.add_source("src", stream="x")
    for k, depth in enumerate(fifo_depths):
        f = g.add_fifo(depth, name=f"f{k}")
        g.connect(prev, f, 0)
        prev = f
    sink = g.add_sink("out", stream="y")
    g.connect(prev, sink, 0)
    return g


class TestFifoEquivalenceProperty:
    @given(
        st.lists(st.integers(1, 6), min_size=1, max_size=4),
        st.lists(st.integers(-100, 100), min_size=1, max_size=20),
    )
    @settings(max_examples=40, deadline=None)
    def test_shift_register_equals_id_chain(self, depths, values):
        """FIFO(d) is *defined* as d identity cells; the efficient
        shift-register implementation must be timing-identical for any
        composition of depths and any input."""
        g = chain_with_fifos(depths)
        direct = repro.run(g, {"x": values}, backend="sync")
        expanded = repro.run(lower_fifos(g), {"x": values}, backend="sync")
        assert direct.outputs["y"] == expanded.outputs["y"] == values
        assert (
            direct.sink_times["y"]
            == expanded.sink_times["y"]
        )


class TestTokenConservation:
    @given(st.lists(st.integers(-5, 5), min_size=1, max_size=15))
    @settings(max_examples=30, deadline=None)
    def test_every_input_is_consumed_or_delivered(self, values):
        """Token conservation on a gate: forwarded + discarded == fed."""
        g = DataflowGraph()
        s = g.add_source("src", stream="x")
        pattern = [v > 0 for v in values]
        ctl = g.add_pattern_source("ctl", pattern)
        gate = g.add_cell(Op.ID, name="gate")
        sink = g.add_sink("out", stream="y")
        g.connect(s, gate, 0)
        g.connect(ctl, gate, -1)
        g.connect(gate, sink, 0, tag=True)
        sim = SyncSimulator(g, {"x": values})
        sim.run()
        assert sim.stats.fire_counts[gate] == len(values)
        assert sim.outputs()["y"] == [v for v in values if v > 0]
        # quiescent: no tokens left anywhere
        assert all(v is _NO_TOKEN for v in sim.arc_value.values())

    @given(st.integers(1, 30))
    @settings(max_examples=20, deadline=None)
    def test_firing_counts_accounted(self, n):
        g = DataflowGraph()
        s = g.add_source("src", stream="x")
        a = g.add_cell(Op.NEG, name="neg")
        sink = g.add_sink("out", stream="y")
        g.connect(s, a, 0)
        g.connect(a, sink, 0)
        sim = SyncSimulator(g, {"x": [1.0] * n})
        stats = sim.run()
        for cid in g.cells:
            assert stats.fire_counts[cid] == n
        assert stats.total_firings == 3 * n


class TestDeterminism:
    @given(st.lists(st.floats(-2, 2, allow_nan=False), min_size=4, max_size=12),
           st.integers(0, 3))
    @settings(max_examples=25, deadline=None)
    def test_runs_are_reproducible(self, values, seed):
        """The synchronous model is deterministic: identical runs give
        identical schedules (Kahn-network property of dataflow)."""
        from repro.compiler import compile_program

        src = (
            "Y : array[real] := forall i in [0, m - 1] construct "
            "(A[i] + 1.) * (A[i] - 1.) endall"
        )
        cp = compile_program(src, params={"m": len(values)})
        r1 = cp.run({"A": values})
        r2 = cp.run({"A": values})
        assert r1.outputs["Y"].to_list() == r2.outputs["Y"].to_list()
        assert (
            r1.run.sink_times["Y"] == r2.run.sink_times["Y"]
        )
