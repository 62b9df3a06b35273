"""Edge-case tests for the machine model: array memories, initial
tokens, gating, packet accounting."""

import pytest

import repro
from repro.graph import DataflowGraph, Op
from repro.machine import MachineConfig


class TestArrayMemory:
    def am_graph(self):
        g = DataflowGraph()
        r = g.add_cell(Op.AM_READ, name="read", stream="state")
        a = g.add_cell(Op.ADD, consts={1: 1.0})
        w = g.add_cell(Op.AM_WRITE, name="write", stream="next", limit=4)
        g.connect(r, a, 0)
        g.connect(a, w, 0)
        return g

    def test_read_modify_write(self):
        g = self.am_graph()
        res = repro.run(g, {"state": [1.0, 2.0, 3.0, 4.0]})
        outs, stats, machine = res.outputs, res.stats, res.engine
        assert outs["next"] == [2.0, 3.0, 4.0, 5.0]
        assert machine.am_arrays["next"] == [2.0, 3.0, 4.0, 5.0]
        assert stats.packets.op_am == 8  # 4 reads + 4 writes
        assert stats.packets.am_fraction == pytest.approx(8 / 12)

    def test_same_graph_on_unit_sim(self):
        """AM cells degrade to source/sink on the unit-delay model."""
        res = repro.run(self.am_graph(), {"state": [1.0, 2.0, 3.0, 4.0]},
                        backend="sync")
        assert res.outputs["next"] == [2.0, 3.0, 4.0, 5.0]

    def test_am_latency_visible(self):
        g = self.am_graph()
        fast = repro.run(g, {"state": [1.0] * 4},
                         config=MachineConfig(am_latency=1)).stats
        slow = repro.run(g, {"state": [1.0] * 4},
                         config=MachineConfig(am_latency=40)).stats
        assert slow.cycles > fast.cycles

    def test_multiple_am_units_round_robin(self):
        g = self.am_graph()
        stats = repro.run(g, {"state": [1.0] * 4},
                          config=MachineConfig(n_ams=2)).stats
        assert sum(stats.am_ops) == 8
        assert all(n > 0 for n in stats.am_ops)


class TestInitialTokensAndGates:
    def test_initial_token_on_machine(self):
        g = DataflowGraph()
        s = g.add_source("src", stream="x")
        i = g.add_cell(Op.ID)
        sink = g.add_sink("out", stream="y", limit=3)
        g.connect(s, i, 0)
        g.connect(i, sink, 0, initial=-5)
        outs = repro.run(g, {"x": [1, 2]}).outputs
        assert outs["y"] == [-5, 1, 2]

    def test_gated_discard_on_machine(self):
        g = DataflowGraph()
        s = g.add_source("src", stream="x")
        ctl = g.add_pattern_source("ctl", [False, True, False, True])
        gate = g.add_cell(Op.ID, name="gate")
        sink = g.add_sink("out", stream="y", limit=2)
        g.connect(s, gate, 0)
        g.connect(ctl, gate, -1)
        g.connect(gate, sink, 0, tag=True)
        outs = repro.run(g, {"x": [1, 2, 3, 4]}).outputs
        assert outs["y"] == [2, 4]

    def test_merge_with_const_port(self):
        from repro.graph import MERGE_CONTROL_PORT, MERGE_TRUE_PORT, MERGE_FALSE_PORT

        g = DataflowGraph()
        a = g.add_source("A", stream="A")
        ctl = g.add_pattern_source("ctl", [False, True])
        m = g.add_merge()
        g.set_const(m, MERGE_FALSE_PORT, 42)
        sink = g.add_sink("out", stream="y", limit=2)
        g.connect(ctl, m, MERGE_CONTROL_PORT)
        g.connect(a, m, MERGE_TRUE_PORT)
        g.connect(m, sink, 0)
        outs = repro.run(g, {"A": [7]}).outputs
        assert outs["y"] == [42, 7]


class TestPacketAccounting:
    def test_results_equal_acks(self):
        """Every result packet eventually triggers one acknowledge."""
        from repro.compiler import compile_program
        from repro.workloads import SOURCES

        cp = compile_program(SOURCES["example1"], params={"m": 10})
        inputs = {k: [1.0] * v.length for k, v in cp.input_specs.items()}
        stats = repro.run(cp.graph, inputs).stats
        assert stats.packets.results == stats.packets.acks

    def test_counters_summary(self):
        from repro.machine.packets import PacketCounters, UnitClass

        c = PacketCounters()
        c.count_op(UnitClass.LOCAL)
        c.count_op(UnitClass.FUNCTION_UNIT)
        c.count_op(UnitClass.ARRAY_MEMORY)
        assert c.op_total == 3
        assert c.am_fraction == pytest.approx(1 / 3)
        assert "AM fraction" in c.summary()

    def test_classify_unit(self):
        from repro.machine.packets import UnitClass, classify_unit

        assert classify_unit("add") is UnitClass.FUNCTION_UNIT
        assert classify_unit("id") is UnitClass.LOCAL
        assert classify_unit("merge") is UnitClass.LOCAL
        assert classify_unit("am_read") is UnitClass.ARRAY_MEMORY


class TestLoopsOnMachine:
    def test_interleaved_scheme_on_machine(self):
        from repro.compiler import (
            ArraySpec,
            balance_graph,
            compile_foriter_interleaved,
            deinterleave,
            interleave,
        )
        from repro.val import parse_program
        from repro.workloads import EXAMPLE2_SOURCE

        m, b = 8, 2
        node = parse_program(EXAMPLE2_SOURCE).blocks[0].expr
        art = compile_foriter_interleaved(
            "X", node,
            {"A": ArraySpec("A", 1, m), "B": ArraySpec("B", 1, m)},
            {"m": m}, batch=b,
        )
        balance_graph(art.graph)
        A = interleave([[1.0] * m, [0.5] * m])
        B = interleave([[1.0] * m, [2.0] * m])
        ref = repro.run(art.graph, {"A": A, "B": B},
                        backend="sync").outputs["X"]
        outs = repro.run(art.graph, {"A": A, "B": B}).outputs
        assert outs["X"] == ref
        assert len(deinterleave(outs["X"], b)) == b


class TestInitialTokenAcks:
    def test_initial_token_blocks_producer_until_acked(self):
        """Regression: a producer whose arc is pre-loaded owes an
        acknowledge before its first firing (machine model)."""
        from repro.graph import DataflowGraph, Op
        from repro.machine import MachineConfig

        g = DataflowGraph()
        s = g.add_source("src", stream="x")
        i = g.add_cell(Op.ID, name="mid")
        sink = g.add_sink("out", stream="y", limit=4)
        g.connect(s, i, 0)
        g.connect(i, sink, 0, initial=99)
        expect = repro.run(g, {"x": [1, 2, 3]}, backend="sync").outputs["y"]
        res = repro.run(
            g, {"x": [1, 2, 3]}, config=MachineConfig.unit_time()
        )
        outs, machine = res.outputs, res.engine
        assert outs["y"] == expect == [99, 1, 2, 3]

    def test_self_clocked_counter_on_machine(self):
        from repro.compiler import build_selfclocked_counter
        from repro.graph import DataflowGraph

        g = DataflowGraph()
        ctr = build_selfclocked_counter(g, 8)
        sink = g.add_sink("out", stream="k", limit=8)
        g.connect(ctr, sink, 0)
        outs = repro.run(g, {}).outputs
        assert outs["k"] == list(range(8))
