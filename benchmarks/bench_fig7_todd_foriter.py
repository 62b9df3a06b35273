"""Experiment fig7 -- Todd's for-iter translation (paper Figure 7).

The feedback link from the merge output back through the recurrence
body prevents full pipelining: with 3 stages in the loop, "the
initiation rate of the pipeline can not be higher than 1/3".
"""

import pytest

from repro.compiler import compile_program
from repro.workloads import EXAMPLE2_SOURCE

from _common import bench_once, constant_inputs, extra, record_rows, steady_ii


@pytest.mark.benchmark(group="fig7")
def test_fig7_todd_rate_is_one_third(benchmark):
    cp = compile_program(
        EXAMPLE2_SOURCE, params={"m": 300}, foriter_scheme="todd"
    )
    loop = cp.artifacts["X"].graph.meta["loop"]
    assert loop["length"] == 3 and loop["tokens"] == 1
    res = bench_once(benchmark, cp.run, constant_inputs(cp, 0.5))
    ii = steady_ii(res.run.sink_times["X"])
    extra(benchmark, initiation_interval=ii, loop_length=loop["length"])
    assert ii == pytest.approx(3.0, abs=0.05)


@pytest.mark.benchmark(group="fig7")
def test_fig7_rate_tracks_loop_depth(benchmark):
    """Deeper recurrence bodies slow Todd's scheme proportionally:
    II == loop length (1/L rate), measured on synthetic recurrences of
    increasing F depth."""

    def body(depth: int) -> str:
        # a chain of `depth` additions applied to the x term
        expr = "T[i-1]"
        for k in range(depth):
            expr = f"({expr} + A[i])"
        return f"""X : array[real] :=
  for i : integer := 1; T : array[real] := [0: 0.] do
    if i < m then
      iter T := T[i: {expr}]; i := i + 1 enditer
    else T[i: {expr}]
    endif
  endfor"""

    def sweep():
        rows = []
        for depth in (1, 2, 3, 5):
            cp = compile_program(
                body(depth), params={"m": 240}, foriter_scheme="todd"
            )
            res = cp.run(constant_inputs(cp, 0.25))
            loop = cp.artifacts["X"].graph.meta["loop"]
            rows.append(
                (depth, loop["length"],
                 steady_ii(res.run.sink_times["X"]))
            )
        return rows

    rows = bench_once(benchmark, sweep, rounds=1)
    for depth, length, ii in rows:
        assert length == depth + 1  # F stages + the merge
        assert ii == pytest.approx(float(length), abs=0.05)
    record_rows(
        "fig7",
        "F_depth  loop_length  II",
        [(d, l, round(ii, 3)) for d, l, ii in rows],
        note="Todd's scheme: initiation interval equals the cycle length",
    )
