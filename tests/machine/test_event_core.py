"""The table-driven event core: the per-graph cell table, its pickle
boundary, and event dispatch.

The cell table (:mod:`repro.graph.table`) holds scalar functions, so
it must never be serialized: not in ``pickle.dumps(machine)``, not in a
snapshot, not in a delta section and not in a worker's ``finish``
reply (which bypasses ``__getstate__``).  Loaded machines rebuild it
and must finish bit-identically.
"""

from __future__ import annotations

import gc
import inspect
import pickle
import weakref
from pathlib import Path

import pytest

from repro.backends import TurboMachine
from repro.checkpoint import CheckpointConfig, load_machine, save_snapshot
from repro.checkpoint.snapshot import _REPRO_ALLOWLIST
from repro.compiler.schedule import StreamEvaluator
from repro.errors import SimulationError
from repro.graph.lower import lower_fifos
from repro.graph.table import CellTable
from repro.machine import Machine, ShardConfig, ShardedRunner
from repro.machine.sharded import ShardMachine, _finish_state
from repro.workloads import figure_workload

FIXTURES = Path(__file__).resolve().parents[1] / "checkpoint" / "fixtures"
TABLE_MODULE = b"repro.graph.table"


def _program(fig="fig7", m=30, seed=1):
    wl = figure_workload(fig)
    cp = wl.compile(m=m)
    return lower_fifos(cp.graph), cp.prepare_inputs(
        wl.make_inputs(cp, seed=seed)
    )


def _result(machine):
    outputs = machine.outputs()
    stats = machine.stats()
    return (
        outputs,
        {s: machine.sink_arrival_times(s) for s in outputs},
        stats.cycles,
        stats.summary(),
        stats.fire_counts,
    )


def _reference(graph, inputs):
    machine = Machine(graph, inputs=inputs)
    machine.run()
    return _result(machine)


class TestCellTable:
    def test_rows_cover_the_graph(self):
        graph, _ = _program()
        table = CellTable(graph)
        assert set(table.rows) == set(graph.cells)

    def test_of_reuses_only_a_table_of_the_same_graph(self):
        graph, _ = _program()
        other, _ = _program()
        table = CellTable(graph)
        assert CellTable.of(graph, table) is table
        assert CellTable.of(other, table) is not table

    def test_shards_share_one_table(self):
        graph, inputs = _program()
        runner = ShardedRunner(
            graph, inputs,
            shard_config=ShardConfig(shards=2, processes=False),
        )
        first, second = runner.machines
        assert first._table is second._table

    def test_evaluator_reads_the_machines_table(self):
        graph, inputs = _program()
        machine = TurboMachine(graph, inputs=inputs)
        evaluator = StreamEvaluator(
            machine.graph, machine.inputs, table=machine._table
        )
        assert evaluator._rows is machine._table.rows


class TestPickleBoundary:
    def test_pickled_machine_carries_no_table(self):
        graph, inputs = _program()
        machine = Machine(graph, inputs=inputs)
        machine.run()
        data = pickle.dumps(machine)
        assert TABLE_MODULE not in data
        clone = pickle.loads(data)
        assert isinstance(clone._table, CellTable)
        assert clone._table.graph is clone.graph

    def test_snapshot_and_sections_carry_no_table(self, tmp_path):
        graph, inputs = _program()
        machine = Machine(
            graph, inputs=inputs,
            checkpoint=CheckpointConfig(tmp_path / "ck", interval=100),
        )
        machine.run(stop_at_checkpoint=200)
        path = save_snapshot(machine, tmp_path / "mid.snap")
        assert TABLE_MODULE not in path.read_bytes()
        sections = machine.snapshot_sections()
        assert "_table" not in sections["core"]
        for value in sections.values():
            assert TABLE_MODULE not in pickle.dumps(value)

    def test_worker_finish_state_carries_no_table(self):
        graph, inputs = _program()
        machine = ShardMachine(
            graph, shard_index=0, n_shards=1,
            owner={cid: 0 for cid in graph.cells}, inputs=inputs,
        )
        machine.begin()
        machine.run_window(10**6, 10**6)
        state = _finish_state(machine)
        assert "_table" not in state
        assert TABLE_MODULE not in pickle.dumps(state)

    def test_loaded_snapshot_rebuilds_table_and_finishes_identically(
        self, tmp_path
    ):
        graph, inputs = _program()
        want = _reference(graph, inputs)
        machine = Machine(
            graph, inputs=inputs,
            checkpoint=CheckpointConfig(tmp_path / "ck", interval=100),
        )
        machine.run(stop_at_checkpoint=300)
        path = save_snapshot(machine, tmp_path / "mid.snap")
        loaded = load_machine(path)
        assert isinstance(loaded._table, CellTable)
        assert loaded._table.graph is loaded.graph
        loaded.ckpt = None
        loaded.run()
        assert _result(loaded) == want

    def test_delta_chain_resume_finishes_identically(self, tmp_path):
        graph, inputs = _program()
        want = _reference(graph, inputs)
        cfg = CheckpointConfig(tmp_path, interval=60, retain=0,
                               delta_every=3)
        Machine(graph, inputs=inputs, checkpoint=cfg).run()
        deltas = sorted(tmp_path.glob("*.delta.snap"))
        assert deltas, "the run wrote no delta snapshot"
        loaded = load_machine(deltas[-1])
        assert isinstance(loaded._table, CellTable)
        loaded.ckpt = None
        loaded.run()
        assert _result(loaded) == want

    @pytest.mark.parametrize("name", ["fig2-v1.snap", "fig7-v1.snap"])
    def test_committed_fixtures_still_load(self, name):
        machine = load_machine(FIXTURES / name, allow_legacy=True)
        assert set(machine._table.rows) == set(machine.graph.cells)
        machine.run()
        assert machine.outputs()

    def test_allowlist_unchanged(self):
        assert _REPRO_ALLOWLIST == {
            "repro.checkpoint.manager": frozenset(
                {"CheckpointConfig", "CheckpointManager"}
            ),
            "repro.checkpoint.replay": frozenset({"EventTrace"}),
            "repro.faults.injector": frozenset(
                {"FaultInjector", "FaultStats"}
            ),
            "repro.faults.plan": frozenset(
                {"FaultPlan", "ShardFault", "UnitFault"}
            ),
            "repro.graph.cell": frozenset({"Arc", "Cell", "_NoTokenType"}),
            "repro.graph.graph": frozenset({"DataflowGraph"}),
            "repro.graph.opcodes": frozenset({"Op"}),
            "repro.machine.config": frozenset({"MachineConfig"}),
            "repro.machine.machine": frozenset(
                {"Machine", "_CellState", "_UnitState"}
            ),
            "repro.machine.sharded": frozenset({"ShardMachine"}),
            "repro.machine.packets": frozenset({"PacketCounters"}),
            "repro.machine.stats": frozenset(
                {"CheckpointStats", "ReliabilityStats"}
            ),
        }


class TestEventDispatch:
    def test_unknown_kind_is_a_simulation_error(self):
        graph, inputs = _program()
        machine = Machine(graph, inputs=inputs)
        machine._at(0, "bogus")
        with pytest.raises(SimulationError, match="unknown event kind"):
            machine.run()

    def test_unknown_kind_in_a_shard_window(self):
        graph, inputs = _program()
        machine = ShardMachine(
            graph, shard_index=0, n_shards=1,
            owner={cid: 0 for cid in graph.cells}, inputs=inputs,
        )
        machine.begin()
        machine.inject([(0, "bogus", ())])
        with pytest.raises(SimulationError, match="unknown event kind"):
            machine.run_window(10, 10**6)

    @pytest.mark.parametrize("cls", [Machine, ShardMachine, TurboMachine])
    def test_handlers_are_class_level_functions(self, cls):
        assert set(cls._HANDLERS) == cls._EVENT_KINDS
        for kind, fn in cls._HANDLERS.items():
            assert inspect.isfunction(fn)
            assert fn is getattr(cls, "_" + kind)

    def test_machine_is_freed_without_the_cycle_collector(self):
        graph, inputs = _program()
        gc.disable()
        try:
            machine = Machine(graph, inputs=inputs)
            machine.run()
            assert "_HANDLERS" not in vars(machine)
            ref = weakref.ref(machine)
            del machine
            assert ref() is None
        finally:
            gc.enable()
