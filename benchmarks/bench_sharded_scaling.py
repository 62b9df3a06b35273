"""Experiment sharded -- scaling of the sharded machine model.

Two workloads share one results table:

* ``fig7`` (Todd for-iter, m=48): the paper-figure workload, K in
  {1, 2, 4} with real worker processes -- exercises the warm pool,
  the shared-memory ring transport and the cut sequencing end to end.
* ``chains10k`` (250 independent source->chain->sink pipelines of
  depth 40, >= 10^4 cells): the scaling gate.  K=4 in-process shards
  must deliver MORE output elements per wall-clock second than K=1
  while staying bit-identical (outputs and modeled sink times).

The win on ``chains10k`` is a genuine per-event work reduction, not
parallelism: each shard owns a quarter of the cells, so its dispatch
queues, event heap and touched working set are a quarter the size.
The gate therefore runs the shards in-process (``processes=False``),
which isolates that reduction on the single-core CI runner; real
worker processes add IPC cost that only pays for itself on multicore
hosts.  The paper constrains none of these wall-clock numbers.
"""

import time

import pytest

import repro
from repro.machine import Machine, MachineConfig, ShardConfig
from repro.workloads import figure_workload, parallel_chain_graph

from _common import bench_once, extra, record_rows

SHARD_COUNTS = [1, 2, 4]
M = 48
#: tokens per source stream on the scaling-gate graph; deep pipelines
#: keep many cells in flight, which is what makes K=1's single
#: dispatch queue expensive
CHAIN_M = 32

_rows: dict[tuple[str, int], tuple] = {}


def _record() -> None:
    record_rows(
        "sharded_scaling",
        "workload  K  elements  cycles  seconds  elements_per_sec",
        [_rows[key] for key in sorted(_rows)],
        note=f"fig7 m={M} runs K>1 on real worker processes (warm "
             f"pool + shm rings); chains10k (>=10^4 cells, m={CHAIN_M}) "
             f"runs in-process shards and gates K=4 el/s > K=1 el/s "
             f"on the per-shard work reduction alone; every sharded "
             f"run is bit-identical (outputs and sink times) to K=1",
    )


def _workload():
    wl = figure_workload("fig7")
    cp = wl.compile(m=M)
    return cp.graph, cp.prepare_inputs(wl.make_inputs(cp))


def _reference(graph, streams):
    machine = Machine(graph, MachineConfig.unit_time(), inputs=streams)
    machine.run()
    return machine.outputs()


def _timed_sharded(graph, streams, k):
    start = time.perf_counter()
    result = repro.run(
        graph, streams, backend="sharded",
        config=MachineConfig.unit_time(),
        shard_config=ShardConfig(shards=k, processes=(k > 1)),
    )
    elapsed = time.perf_counter() - start
    elements = sum(len(v) for v in result.outputs.values())
    return result.outputs, result.stats, elements, elapsed


@pytest.mark.benchmark(group="sharded")
@pytest.mark.parametrize("k", SHARD_COUNTS)
def test_sharded_scaling(benchmark, k):
    graph, streams = _workload()
    reference = _reference(graph, streams)
    outputs, stats, elements, elapsed = bench_once(
        benchmark, _timed_sharded, graph, streams, k, rounds=2
    )
    assert outputs == reference, f"K={k} diverged from single-process"
    eps = elements / elapsed
    extra(benchmark, shards=k, elements_per_sec=round(eps, 1),
          cycles=stats.cycles)
    _rows[("fig7", k)] = ("fig7", k, elements, stats.cycles,
                          f"{elapsed:.3f}", f"{eps:.1f}")
    _record()


def _timed_chain(graph, k):
    start = time.perf_counter()
    result = repro.run(
        graph, backend="sharded", config=MachineConfig.unit_time(),
        shard_config=ShardConfig(shards=k, processes=False),
    )
    elapsed = time.perf_counter() - start
    elements = sum(len(v) for v in result.outputs.values())
    return (result.outputs, result.sink_times, result.stats, elements,
            elapsed)


@pytest.mark.benchmark(group="sharded")
def test_ten_k_cell_scaling_gate(benchmark):
    graph = parallel_chain_graph(m=CHAIN_M)
    assert len(graph.cells) >= 10_000

    def protocol():
        results = {}
        best = {}
        for k in SHARD_COUNTS:
            outputs, sinks, stats, elements, elapsed = _timed_chain(
                graph, k
            )
            results[k] = (outputs, sinks, stats, elements)
            best[k] = elapsed
        # a second timing round for the gated pair damps scheduler
        # noise; the gate compares each side's best
        for k in (1, 4):
            best[k] = min(best[k], _timed_chain(graph, k)[4])
        return results, best

    results, best = bench_once(benchmark, protocol, rounds=1)
    out1, sinks1, _, elements = results[1]
    for k in (2, 4):
        assert results[k][0] == out1, f"K={k} outputs diverged"
        assert results[k][1] == sinks1, f"K={k} sink times diverged"
    eps = {k: results[k][3] / best[k] for k in best}
    extra(benchmark, cells=len(graph.cells),
          **{f"k{k}_elements_per_sec": round(v, 1)
             for k, v in eps.items()})
    for k in SHARD_COUNTS:
        stats = results[k][2]
        _rows[("chains10k", k)] = (
            "chains10k", k, elements, stats.cycles,
            f"{best[k]:.3f}", f"{eps[k]:.1f}",
        )
    _record()
    assert eps[4] > eps[1], (
        f"sharding must pay off: K=4 {eps[4]:.1f} el/s vs "
        f"K=1 {eps[1]:.1f} el/s on {len(graph.cells)} cells"
    )
