"""Tests for the event-driven machine-level simulator."""

import random

import pytest

import repro
from repro.compiler import compile_program
from repro.errors import DeadlockError, SimulationError
from repro.graph import DataflowGraph, Op
from repro.machine import (
    Machine,
    MachineConfig,
    make_assignment,
)
from repro.workloads.programs import SOURCES


def small_chain() -> DataflowGraph:
    g = DataflowGraph()
    s = g.add_source("src", stream="x")
    add = g.add_cell(Op.ADD, consts={1: 1.0})
    mul = g.add_cell(Op.MUL, consts={1: 2.0})
    sink = g.add_sink("out", stream="y", limit=5)
    g.connect(s, add, 0)
    g.connect(add, mul, 0)
    g.connect(mul, sink, 0)
    return g


class TestBasicExecution:
    def test_values(self):
        res = repro.run(
            small_chain(), {"x": [1.0, 2.0, 3.0, 4.0, 5.0]}
        )
        outs, stats = res.outputs, res.stats
        assert outs["y"] == [4.0, 6.0, 8.0, 10.0, 12.0]
        assert stats.cycles > 0

    def test_counts_packets(self):
        res = repro.run(small_chain(), {"x": [1.0] * 5})
        outs, stats = res.outputs, res.stats
        # 5 source + 5 add + 5 mul + 5 sink firings
        assert stats.total_firings == 20
        assert stats.packets.op_fu == 10
        assert stats.packets.op_am == 0
        assert stats.packets.results == 15   # source->add, add->mul, mul->sink
        assert stats.packets.acks == 15

    def test_deadlock_detection(self):
        g = DataflowGraph()
        a = g.add_source("a", stream="a")
        b = g.add_source("b", stream="b")
        add = g.add_cell(Op.ADD)
        sink = g.add_sink("out", stream="y", limit=4)
        g.connect(a, add, 0)
        g.connect(b, add, 1)
        g.connect(add, sink, 0)
        with pytest.raises(DeadlockError):
            repro.run(g, {"a": [1.0, 2.0], "b": [1.0, 2.0, 3.0, 4.0]})

    def test_division_by_zero(self):
        g = DataflowGraph()
        s = g.add_source("x", stream="x")
        div = g.add_cell(Op.DIV, consts={0: 1.0})
        sink = g.add_sink("out", stream="y")
        g.connect(s, div, 1)
        g.connect(div, sink, 0)
        with pytest.raises(SimulationError, match="division by zero"):
            repro.run(g, {"x": [0.0]})

    def test_fifo_graphs_are_lowered(self):
        g = DataflowGraph()
        s = g.add_source("x", stream="x")
        f = g.add_fifo(3)
        sink = g.add_sink("out", stream="y", limit=3)
        g.connect(s, f, 0)
        g.connect(f, sink, 0)
        res = repro.run(g, {"x": [1, 2, 3]})
        outs, machine = res.outputs, res.engine
        assert outs["y"] == [1, 2, 3]
        assert not machine.graph.cells_by_op(Op.FIFO)


class TestFidelityWithUnitDelaySimulator:
    """With unit latencies, the machine reproduces the abstract model's
    schedule exactly (constant offset from the sink recording delay)."""

    @pytest.mark.parametrize(
        "name,m", [("fig2", 20), ("example1", 15), ("example2", 15), ("fig5", 12)]
    )
    def test_schedules_match(self, name, m):
        rng = random.Random(m)
        cp = compile_program(SOURCES[name], params={"m": m})
        inputs = {}
        for iname, spec in cp.input_specs.items():
            if name == "fig5" and iname == "C":
                inputs[iname] = [rng.random() < 0.5 for _ in range(spec.length)]
            else:
                inputs[iname] = [rng.uniform(-1, 1) for _ in range(spec.length)]
        sync_res = repro.run(cp.graph, inputs, backend="sync")
        res = repro.run(
            cp.graph, inputs, config=MachineConfig.unit_time()
        )
        outs, machine = res.outputs, res.engine
        stream = next(iter(cp.output_specs))
        assert outs[stream] == sync_res.outputs[stream]
        sync_times = sync_res.sink_times[stream]
        mach_times = machine.sink_arrival_times(stream)
        offsets = {mt - st for st, mt in zip(sync_times, mach_times)}
        assert len(offsets) == 1  # identical schedule up to constant shift


class TestRealisticConfigs:
    def test_values_independent_of_latencies(self):
        m = 12
        rng = random.Random(3)
        cp = compile_program(SOURCES["example1"], params={"m": m})
        inputs = {
            k: [rng.uniform(-1, 1) for _ in range(v.length)]
            for k, v in cp.input_specs.items()
        }
        expected = repro.run(cp.graph, inputs, backend="sync").outputs["A"]
        for config in (
            MachineConfig(),
            MachineConfig(n_pes=1, n_fus=1, rn_delay=5),
            MachineConfig(n_pes=8, n_fus=8, rn_delay=1, pe_issue_interval=2),
        ):
            outs = repro.run(cp.graph, inputs, config=config).outputs
            assert outs["A"] == expected

    def test_more_pes_do_not_hurt(self):
        m = 40
        cp = compile_program(SOURCES["example1"], params={"m": m})
        inputs = {k: [1.0] * v.length for k, v in cp.input_specs.items()}
        cycles = {}
        for n_pes in (1, 4):
            stats = repro.run(
                cp.graph, inputs, config=MachineConfig(n_pes=n_pes, n_fus=4)
            ).stats
            cycles[n_pes] = stats.cycles
        assert cycles[4] <= cycles[1]

    def test_fu_latency_slows_completion(self):
        g = small_chain()
        fast = MachineConfig()
        slow = MachineConfig(
            fu_latency={op: lat * 4 for op, lat in fast.fu_latency.items()}
        )
        s_fast = repro.run(g, {"x": [1.0] * 5}, config=fast).stats
        s_slow = repro.run(g, {"x": [1.0] * 5}, config=slow).stats
        assert s_slow.cycles > s_fast.cycles

    def test_rn_bandwidth_contention(self):
        m = 30
        cp = compile_program(SOURCES["example1"], params={"m": m})
        inputs = {k: [1.0] * v.length for k, v in cp.input_specs.items()}
        free = repro.run(
            cp.graph, inputs, config=MachineConfig(rn_bandwidth=0)
        ).stats
        tight = repro.run(
            cp.graph, inputs, config=MachineConfig(rn_bandwidth=1)
        ).stats
        assert tight.cycles >= free.cycles

    def test_stats_summary_readable(self):
        stats = repro.run(small_chain(), {"x": [1.0] * 5}).stats
        text = stats.summary()
        assert "op packets" in text and "PE util" in text


class TestAssignment:
    def test_policies_cover_all_cells(self):
        g = small_chain()
        for policy in ("round_robin", "single", "by_stage"):
            a = make_assignment(g, 3, policy)
            assert set(a) == set(g.cells)
            assert all(0 <= pe < 3 for pe in a.values())

    def test_single_puts_everything_on_pe0(self):
        a = make_assignment(small_chain(), 4, "single")
        assert set(a.values()) == {0}

    def test_unknown_policy(self):
        with pytest.raises(SimulationError, match="unknown assignment"):
            make_assignment(small_chain(), 2, "telepathy")

    def test_dispatch_bottleneck_visible(self):
        """With bounded dispatch, one PE is slower than many."""
        m = 40
        cp = compile_program(SOURCES["example1"], params={"m": m})
        inputs = {k: [1.0] * v.length for k, v in cp.input_specs.items()}
        results = {}
        for policy in ("single", "round_robin"):
            machine = Machine(
                cp.graph,
                config=MachineConfig(n_pes=4, pe_issue_interval=1),
                inputs=inputs,
                policy=policy,
            )
            results[policy] = machine.run().cycles
        assert results["round_robin"] < results["single"]


class TestLoops:
    @pytest.mark.parametrize("scheme", ["todd", "companion"])
    def test_recurrence_runs_on_machine(self, scheme):
        m = 15
        rng = random.Random(7)
        cp = compile_program(
            SOURCES["example2"], params={"m": m}, foriter_scheme=scheme
        )
        inputs = {
            k: [rng.uniform(-1, 1) for _ in range(v.length)]
            for k, v in cp.input_specs.items()
        }
        expected = repro.run(cp.graph, inputs, backend="sync").outputs["X"]
        outs = repro.run(cp.graph, inputs).outputs
        assert outs["X"] == expected

    def test_companion_faster_than_todd_on_machine(self):
        """The rate advantage survives realistic latencies."""
        m = 80
        cycles = {}
        for scheme in ("todd", "companion"):
            cp = compile_program(
                SOURCES["example2"], params={"m": m}, foriter_scheme=scheme
            )
            inputs = {k: [1.0] * v.length for k, v in cp.input_specs.items()}
            stats = repro.run(cp.graph, inputs).stats
            cycles[scheme] = stats.cycles
        assert cycles["companion"] < cycles["todd"]
