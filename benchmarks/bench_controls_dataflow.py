"""Experiment controls -- control sequences as dataflow code (Todd).

The paper: boolean control sequences "can be generated by
straightforward arrangements of data flow instructions" [15].  With
``controls='dataflow'`` the compiler expands every pattern table into a
self-clocked counter + comparator subgraph; Example 1 then contains
*only* ordinary machine instructions.  Rows: cell cost and throughput
of both control representations.
"""

import pytest

from repro.compiler import compile_program
from repro.graph import Op
from repro.workloads import EXAMPLE1_SOURCE

from _common import bench_once, constant_inputs, extra, record_rows, steady_ii

M = 240


def _measure(mode: str):
    cp = compile_program(EXAMPLE1_SOURCE, params={"m": M}, controls=mode)
    tables = [
        c for c in cp.graph.cells_by_op(Op.SOURCE) if "values" in c.params
    ]
    res = cp.run(constant_inputs(cp))
    return cp.cell_count, len(tables), steady_ii(res.run.sink_times["A"])


@pytest.mark.benchmark(group="controls")
@pytest.mark.parametrize("mode", ["patterns", "dataflow"])
def test_controls_mode(benchmark, mode):
    cells, tables, ii = bench_once(benchmark, _measure, mode)
    extra(benchmark, cells=cells, pattern_tables=tables,
          initiation_interval=ii)
    assert ii == pytest.approx(2.0, abs=0.05)
    if mode == "dataflow":
        assert tables == 0  # fully table-free machine code


@pytest.mark.benchmark(group="controls")
def test_controls_summary(benchmark):
    def both():
        return {m: _measure(m) for m in ("patterns", "dataflow")}

    data = bench_once(benchmark, both, rounds=1)
    record_rows(
        "controls",
        "mode  cells  pattern_tables  II",
        [
            (m, data[m][0], data[m][1], round(data[m][2], 3))
            for m in ("patterns", "dataflow")
        ],
        note="Todd counters cost extra cells but leave zero compile-time "
        "tables; throughput is unchanged (counters self-pace at rate 1/2)",
    )
