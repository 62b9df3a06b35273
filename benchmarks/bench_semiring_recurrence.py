"""Experiment semiring -- companion functions beyond the ring.

The paper cites Kogge's general recurrence class [11][12]; the
companion construction needs only a semiring.  A max-plus envelope
recurrence  x_i = max(x_{i-1} - D[i], A[i])  gets the companion
G(p, q) = (p1 + q1, max(p1 + q0, p0)) and the same even 4-stage loop:

  scheme      algebra   loop        II
  todd        --        3 / 1 tok   3.0
  companion   max-plus  4 / 2 tok   2.0
"""

import pytest

from repro.compiler import compile_program
from repro.compiler.recurrence import MAXPLUS, extract_recurrence
from repro.val import classify_foriter, parse_program

from _common import bench_once, extra, record_rows, steady_ii

M = 240

ENVELOPE = """
E : array[real] :=
  for i : integer := 1; T : array[real] := [0: 0.] do
    if i < m then
      iter T := T[i: max(T[i-1] - D[i], A[i])]; i := i + 1 enditer
    else T[i: max(T[i-1] - D[i], A[i])]
    endif
  endfor
"""


def _measure(scheme: str):
    cp = compile_program(ENVELOPE, params={"m": M}, foriter_scheme=scheme)
    res = cp.run({"A": [0.5] * M, "D": [0.1] * M})
    loop = cp.artifacts["E"].graph.meta["loop"]
    return loop, steady_ii(res.run.sink_times["E"])


@pytest.mark.benchmark(group="semiring")
def test_semiring_maxplus_detected(benchmark):
    node = parse_program(ENVELOPE).blocks[0].expr

    def detect():
        info = classify_foriter(node, {"A", "D"}, {"m": M})
        return extract_recurrence(info, {"m": M})

    form = bench_once(benchmark, detect)
    assert form.algebra is MAXPLUS


@pytest.mark.benchmark(group="semiring")
@pytest.mark.parametrize("scheme,expected", [("todd", 3.0), ("companion", 2.0)])
def test_semiring_rates(benchmark, scheme, expected):
    loop, ii = bench_once(benchmark, _measure, scheme)
    extra(benchmark, initiation_interval=ii, loop_length=loop["length"])
    assert ii == pytest.approx(expected, abs=0.05)


@pytest.mark.benchmark(group="semiring")
def test_semiring_summary(benchmark):
    def both():
        return {s: _measure(s) for s in ("todd", "companion")}

    data = bench_once(benchmark, both, rounds=1)
    record_rows(
        "semiring",
        "scheme  algebra  loop  II",
        [
            ("todd", "--", f"{data['todd'][0]['length']}/1",
             round(data["todd"][1], 3)),
            ("companion", "max-plus",
             f"{data['companion'][0]['length']}/2",
             round(data["companion"][1], 3)),
        ],
        note="the companion construction generalizes to tropical semirings "
        "(running-extremum recurrences) with the same maximum-rate loop",
    )
