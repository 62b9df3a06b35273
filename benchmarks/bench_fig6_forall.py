"""Experiment fig6 -- the primitive forall mapping (paper Figure 6,
Theorem 2), plus the Section 6 scheme comparison ablation.

Example 1's forall (boundary-guarded smoothing) compiles to a single
pipelined body (the *pipeline scheme*): constant cell count, full rate.
The *parallel scheme* replicates the body per element: cell count grows
linearly and the serializing merge chain caps throughput at the same
one-element-per-two-steps, so the pipeline scheme dominates for stream
workloads -- which is the paper's reason for choosing it.
"""

import pytest

from repro.compiler import compile_program
from repro.workloads import EXAMPLE1_SOURCE

from _common import bench_once, constant_inputs, extra, record_rows, steady_ii

M = 300


@pytest.mark.benchmark(group="fig6")
def test_fig6_pipeline_scheme_full_rate(benchmark):
    cp = compile_program(EXAMPLE1_SOURCE, params={"m": M})
    res = bench_once(benchmark, cp.run, constant_inputs(cp))
    ii = steady_ii(res.run.sink_times["A"])
    extra(benchmark, initiation_interval=ii, cells=cp.cell_count)
    assert ii == pytest.approx(2.0, abs=0.05)


@pytest.mark.benchmark(group="fig6")
def test_fig6_theorem2_holds_across_sizes(benchmark):
    def sweep():
        out = []
        for m in (50, 150, 400):
            cp = compile_program(EXAMPLE1_SOURCE, params={"m": m})
            res = cp.run(constant_inputs(cp))
            out.append((m, cp.cell_count,
                        steady_ii(res.run.sink_times["A"])))
        return out

    rows = bench_once(benchmark, sweep, rounds=1)
    for m, cells, ii in rows:
        assert ii == pytest.approx(2.0, abs=0.05), f"m={m}"
    assert len({cells for _m, cells, _ii in rows}) == 1  # O(1) code size
    record_rows(
        "fig6",
        "m  cells  II",
        [(m, c, round(ii, 3)) for m, c, ii in rows],
        note="Theorem 2: primitive forall fully pipelined; code size O(1) in m",
    )


@pytest.mark.benchmark(group="fig6-schemes")
def test_forall_scheme_comparison(benchmark):
    """Section 6 ablation: pipeline vs parallel scheme."""
    m = 24

    def measure(scheme):
        cp = compile_program(
            EXAMPLE1_SOURCE, params={"m": m}, forall_scheme=scheme
        )
        res = cp.run(constant_inputs(cp))
        return cp.cell_count, res.initiation_interval("A")

    def both():
        return {s: measure(s) for s in ("pipeline", "parallel")}

    data = bench_once(benchmark, both, rounds=1)
    (p_cells, p_ii) = data["pipeline"]
    (q_cells, q_ii) = data["parallel"]
    extra(benchmark, pipeline_cells=p_cells, parallel_cells=q_cells)
    assert q_cells > 4 * p_cells           # replication is expensive
    assert p_ii == pytest.approx(2.0, abs=0.2)
    record_rows(
        "fig6_schemes",
        "scheme  cells  II",
        [
            ("pipeline", p_cells, round(p_ii, 3)),
            ("parallel", q_cells, round(q_ii, 3)),
        ],
        note=f"m={m}; the parallel scheme 'is of limited interest' (Sec. 6)",
    )
