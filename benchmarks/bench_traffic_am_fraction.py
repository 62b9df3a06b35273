"""Experiment traffic -- the Section 2 array-memory traffic claim.

"The array memories are used only for data that must be held for a long
time interval ... In the case of application codes we have analyzed,
one eighth or less of the operation packets would be sent to the array
memories."

The weather-like time-step program (four pipe-structured blocks; state
read from AM at the start of a step, written back at the end) is run on
the event-driven machine model and the operation-packet breakdown
recorded.  The anti-pattern ablation stores *every* inter-block array
in AM instead of streaming it, pushing the fraction far above 1/8.
"""

import pytest

import repro
from repro.machine import MachineConfig
from repro.workloads import (
    am_backed,
    compile_weather_step,
    initial_weather_state,
    run_timesteps,
    weather_state_map,
)

from _common import bench_once, extra, record_rows

M = 48


@pytest.mark.benchmark(group="traffic")
def test_traffic_am_fraction_below_one_eighth(benchmark):
    cp = compile_weather_step(M)

    def run():
        _, stats = run_timesteps(
            cp,
            initial_weather_state(M),
            weather_state_map(),
            n_steps=2,
            config=MachineConfig(n_pes=8, n_fus=8, n_ams=2),
        )
        return stats

    stats = bench_once(benchmark, run)
    fractions = [s.packets.am_fraction for s in stats]
    extra(benchmark, am_fraction=max(fractions))
    assert all(f <= 1 / 8 for f in fractions)
    assert all(s.packets.op_am > 0 for s in stats)


def _memory_centric_fraction(cp) -> float:
    """The conventional style the paper argues against: run each block
    separately, every block reading its inputs from AM and storing its
    result array back to AM."""
    from repro.graph.opcodes import Op

    produced = {
        "U": (0, initial_weather_state(M)["U"])
    }
    op_am = op_total = 0
    for name in cp.artifacts:
        art = cp.artifacts[name]
        g = art.graph.copy()
        from repro.compiler.foriter import _mark_feedback

        _mark_feedback(g)
        for cell in g.cells.values():
            if cell.op is Op.SOURCE and "stream" in cell.params:
                cell.op = Op.AM_READ
            elif cell.op is Op.SINK:
                cell.op = Op.AM_WRITE
        inputs = {}
        for iname, spec in art.inputs.items():
            src_lo, values = produced[iname]
            start = spec.lo - src_lo
            inputs[iname] = values[start: start + spec.length]
        res = repro.run(g, inputs, config=MachineConfig())
        outs, stats = res.outputs, res.stats
        produced[name] = (art.out_lo, outs[name])
        op_am += stats.packets.op_am
        op_total += stats.packets.op_total
    return op_am / op_total


@pytest.mark.benchmark(group="traffic")
def test_traffic_streaming_vs_storing_everything(benchmark):
    """Ablation: memory-centric execution (every block's arrays round-
    trip through AM) vs the paper's streamed pipe."""
    cp = compile_weather_step(M)

    def measure():
        g1 = am_backed(cp)
        s1 = repro.run(
            g1, initial_weather_state(M), config=MachineConfig()
        ).stats
        return {
            "streamed (paper)": s1.packets.am_fraction,
            "memory-centric": _memory_centric_fraction(cp),
        }

    rows = bench_once(benchmark, measure, rounds=1)
    extra(benchmark, **{k.replace(" ", "_"): v for k, v in rows.items()})
    assert rows["streamed (paper)"] <= 1 / 8
    assert rows["memory-centric"] > rows["streamed (paper)"] * 2
    record_rows(
        "traffic",
        "configuration  AM fraction of op packets  paper bound",
        [
            (k, f"{v:.3f}", "<= 0.125" if "paper" in k else "(ablation)")
            for k, v in rows.items()
        ],
        note="Sec. 2: arrays flow as streams; AM holds only long-lived state",
    )
