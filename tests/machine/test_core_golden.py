"""Golden modeled numbers of the event core.

``fixtures/core_golden.json`` holds a digest of every modeled number
(cycles, firings, sink values and arrival times, packet counters,
per-unit ops and busy cycles, per-cell fire counts, reliability and
fault counters) for the paper figures and for the fault, no-recovery
and checkpoint paths of the machine.  It was generated once, before
the event core became table-driven, and is never regenerated: any
change to the core that moves one of these numbers is a bug.

The sharded case is not pinned (its timing is not the event
machine's); it is checked for determinism against itself and for
values against the event machine.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.checkpoint import CheckpointConfig
from repro.errors import DeadlockError
from repro.faults import FaultPlan, UnitFault
from repro.machine import Machine, MachineConfig, ShardConfig, ShardedRunner
from repro.workloads import figure_workload

FIXTURE = Path(__file__).parent / "fixtures" / "core_golden.json"

FIGS = ("fig2", "fig4", "fig5", "fig6", "fig7")
SIZES = (5, 60)
SEEDS = (0, 1)
CONFIGS = ("default", "unit_time")

#: keyed packet faults with recovery: the reliability layer's path
RELIABLE_PLAN = FaultPlan(
    seed=11,
    drop_result=0.06,
    dup_result=0.06,
    corrupt_result=0.03,
    drop_ack=0.05,
    dup_ack=0.05,
    derivation="keyed",
)

#: faults with nothing protecting against them: duplicates overrun,
#: corrupted values flow on, a slow FU stretches latencies
FAULTY_PLAN = FaultPlan(
    seed=5,
    dup_result=0.1,
    corrupt_result=0.05,
    dup_ack=0.05,
    unit_faults=(UnitFault("fu", 1, start=20, end=400, kind="slow",
                           factor=3.0),),
)


def _sha(obj) -> str:
    text = json.dumps(obj, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _config(name: str) -> MachineConfig:
    return MachineConfig.unit_time() if name == "unit_time" else MachineConfig()


def _program(fig: str, m: int, seed: int):
    wl = figure_workload(fig)
    cp = wl.compile(m=m)
    return cp.graph, cp.prepare_inputs(wl.make_inputs(cp, seed=seed))


def digest(machine: Machine, error: str = "") -> dict:
    """Every modeled number of one finished (or failed) run."""
    st = machine.stats()
    outputs = machine.outputs()
    pk = st.packets
    out = {
        "cycles": st.cycles,
        "total_firings": st.total_firings,
        "values": _sha(outputs),
        "sink_times": _sha(
            {s: machine.sink_arrival_times(s) for s in outputs}
        ),
        "packets": [pk.op_local, pk.op_fu, pk.op_am, pk.results, pk.acks],
        "units": _sha([st.pe_ops, st.fu_ops, st.am_ops,
                       st.pe_busy, st.fu_busy, st.am_busy]),
        "fire_counts": _sha(sorted(st.fire_counts.items())),
    }
    if st.reliability is not None:
        out["reliability"] = _sha(vars(st.reliability))
    if st.faults is not None:
        out["faults"] = _sha(vars(st.faults))
    if st.checkpoints is not None:
        out["snapshots"] = st.checkpoints.snapshots_written
    if error:
        out["error"] = error
    return out


def _run(machine: Machine) -> dict:
    try:
        machine.run()
    except DeadlockError as exc:
        return digest(machine, f"deadlock@{exc.step}")
    return digest(machine)


def figure_case(fig: str, m: int, seed: int, cfg: str) -> dict:
    graph, inputs = _program(fig, m, seed)
    return _run(Machine(graph, _config(cfg), inputs=inputs))


def reliable_case() -> dict:
    graph, inputs = _program("fig6", 24, 3)
    return _run(Machine(graph, inputs=inputs, fault_plan=RELIABLE_PLAN))


def faulty_case() -> dict:
    graph, inputs = _program("fig2", 24, 3)
    return _run(Machine(graph, inputs=inputs, fault_plan=FAULTY_PLAN,
                        recovery=False))


def checkpoint_case(directory) -> dict:
    graph, inputs = _program("fig7", 40, 2)
    cfg = CheckpointConfig(directory, interval=150, retain=0,
                           delta_every=2)
    return _run(Machine(graph, inputs=inputs, checkpoint=cfg))


def case_names() -> list[str]:
    names = [
        f"{fig}/m{m}/s{seed}/{cfg}"
        for fig in FIGS for m in SIZES for seed in SEEDS for cfg in CONFIGS
    ]
    return names + ["reliable", "faulty", "checkpoint"]


def compute(name: str, tmp_dir) -> dict:
    if name == "reliable":
        return reliable_case()
    if name == "faulty":
        return faulty_case()
    if name == "checkpoint":
        return checkpoint_case(tmp_dir)
    fig, m, seed, cfg = name.split("/")
    return figure_case(fig, int(m[1:]), int(seed[1:]), cfg)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(case_names())


@pytest.mark.parametrize("name", case_names())
def test_modeled_numbers_unchanged(name, golden, tmp_path):
    assert compute(name, tmp_path) == golden[name]


def test_fault_paths_exercised(golden):
    # the fixture is only worth something if the special paths ran
    assert "reliability" in golden["reliable"]
    assert "faults" in golden["faulty"]
    assert golden["checkpoint"]["snapshots"] > 1


def test_sharded_inprocess_deterministic_and_value_exact():
    graph, inputs = _program("fig7", 30, 1)

    def sharded():
        runner = ShardedRunner(
            graph, inputs,
            shard_config=ShardConfig(shards=2, processes=False),
        )
        runner.run()
        outputs = runner.outputs()
        times = {s: runner.sink_arrival_times(s) for s in outputs}
        return outputs, times, runner.stats().total_firings

    first = sharded()
    assert sharded() == first
    machine = Machine(graph, inputs=inputs)
    machine.run()
    assert first[0] == machine.outputs()
