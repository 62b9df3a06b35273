"""Fuzz the substitution claim: the event-driven machine with unit
latencies reproduces the unit-delay simulator's behaviour exactly, and
with realistic latencies it preserves values on random programs."""

import random

import pytest

import repro
from repro.compiler import compile_program
from repro.machine import MachineConfig
from repro.workloads import random_forall_program, random_recurrence_program


def _inputs_for(cp, seed):
    rng = random.Random(seed)
    return {
        name: [rng.uniform(-1.0, 1.0) for _ in range(spec.length)]
        for name, spec in cp.input_specs.items()
    }


class TestUnitTimeEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_foralls(self, seed):
        src = random_forall_program(random.Random(seed), depth=2)
        cp = compile_program(src, params={"m": 8})
        inputs = _inputs_for(cp, seed)
        sync_res = repro.run(cp.graph, inputs, backend="sync")
        res = repro.run(
            cp.graph, inputs, config=MachineConfig.unit_time()
        )
        outs, machine = res.outputs, res.engine
        assert outs["Y"] == sync_res.outputs["Y"]
        offsets = {
            m - s
            for s, m in zip(
                sync_res.sink_times["Y"],
                machine.sink_arrival_times("Y"),
            )
        }
        assert len(offsets) == 1

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("scheme", ["todd", "companion"])
    def test_random_recurrences(self, seed, scheme):
        src = random_recurrence_program(random.Random(50 + seed))
        cp = compile_program(src, params={"m": 7}, foriter_scheme=scheme)
        inputs = _inputs_for(cp, seed)
        sync_res = repro.run(cp.graph, inputs, backend="sync")
        outs = repro.run(
            cp.graph, inputs, config=MachineConfig.unit_time()
        ).outputs
        assert outs["X"] == sync_res.outputs["X"]


class TestRealisticLatencies:
    @pytest.mark.parametrize("seed", range(4))
    def test_values_invariant(self, seed):
        src = random_forall_program(random.Random(200 + seed), depth=2)
        cp = compile_program(src, params={"m": 8})
        inputs = _inputs_for(cp, seed)
        expect = repro.run(cp.graph, inputs, backend="sync").outputs["Y"]
        rng = random.Random(seed)
        config = MachineConfig(
            n_pes=rng.choice([1, 2, 5]),
            n_fus=rng.choice([1, 3]),
            rn_delay=rng.choice([0, 1, 4]),
            pe_issue_interval=rng.choice([0, 1, 2]),
        )
        outs = repro.run(cp.graph, inputs, config=config).outputs
        assert outs["Y"] == expect
