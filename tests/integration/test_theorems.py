"""The paper's four theorems, as executable statements.

Each test states one theorem and checks it the way the paper means it:
construct the machine code, verify the construction succeeded, and
measure full pipelining (initiation interval 2 instruction times per
array element) on the unit-delay model of the static architecture.
"""

import random

import pytest

import repro
from repro.compiler import (
    ArraySpec,
    ExprBuilder,
    ROOT,
    balance_graph,
    compile_program,
    verify_balanced,
)
from repro.val import parse_expression
from repro.workloads import SOURCES

from tests.util import compile_and_compare


def _steady(res, stream):
    times = res.run.sink_times[stream]
    skip = max(1, len(times) // 4)
    window = times[skip:-skip] if len(times) > 2 * skip + 2 else times[skip:]
    return (window[-1] - window[0]) / (len(window) - 1)


class TestTheorem1:
    """For any primitive expression, a fully pipelined data flow
    instruction graph can be constructed."""

    PRIMITIVE_EXPRESSIONS = [
        # rules 1-3, 5: scalar operator trees with let
        "let y : real := A[i] * A[i] in (y + 2.) * (y - 3.) endlet",
        # rule 4: array selection with offsets (Figure 4)
        "0.25 * (A[i-1] + 2. * A[i] + A[i+1])",
        # rule 6: conditionals, runtime (Figure 5) and static
        "if C[i] then -(A[i] + B[i]) else 5. * (A[i] * B[i] + 2.) endif",
        "if i < m / 2 then A[i] else B[i] endif",
        "max(A[i], min(B[i], 0.5))",
    ]

    @pytest.mark.parametrize("src", PRIMITIVE_EXPRESSIONS)
    def test_fully_pipelined_construction(self, src):
        from repro.graph import DataflowGraph, validate

        m = 150
        g = DataflowGraph("thm1")
        specs = {
            "A": ArraySpec("A", -1, m),
            "B": ArraySpec("B", -1, m),
            "C": ArraySpec("C", -1, m),
        }
        builder = ExprBuilder(g, "i", 0, m - 1, {"m": m}, specs)
        wire = builder.materialize(
            builder.compile(parse_expression(src), ROOT), ROOT
        )
        sink = g.add_sink("out", stream="out", limit=m)
        g.connect(wire.cell, sink, 0, tag=wire.tag)
        balance_graph(g)
        validate(g)
        assert verify_balanced(g)
        rng = random.Random(1)
        inputs = {
            "A": [rng.uniform(-1, 1) for _ in range(m + 2)],
            "B": [rng.uniform(-1, 1) for _ in range(m + 2)],
            "C": [rng.random() < 0.5 for _ in range(m + 2)],
        }
        res = repro.run(g, inputs, backend="sync")
        times = res.sink_times["out"]
        skip = len(times) // 4
        interior = [b - a for a, b in zip(times[skip:-skip], times[skip + 1:-skip + 1] if skip else times[skip + 1:])]
        assert sum(interior) / len(interior) == pytest.approx(2.0, abs=0.05)


class TestTheorem2:
    """For any primitive forall expression, a corresponding fully
    pipelined data flow instruction graph can be constructed."""

    @pytest.mark.parametrize("name", ["example1", "fig4", "fig2"])
    def test_forall_fully_pipelined(self, name):
        m = 150
        cp = compile_program(SOURCES[name], params={"m": m})
        inputs = {k: [1.0] * v.length for k, v in cp.input_specs.items()}
        res = cp.run(inputs)
        stream = next(iter(cp.output_specs))
        assert _steady(res, stream) == pytest.approx(2.0, abs=0.05)

    def test_and_semantics_hold(self):
        compile_and_compare(SOURCES["example1"], {"m": 13}, seed=42)


class TestTheorem3:
    """A simple for-iter expression can be mapped into a fully
    pipelined instruction graph (via its companion function), while the
    direct translation is limited by its feedback cycle."""

    @pytest.mark.parametrize("name", ["example2", "prefix_sum"])
    def test_companion_reaches_max_rate(self, name):
        m = 150
        cp = compile_program(
            SOURCES[name], params={"m": m}, foriter_scheme="companion"
        )
        inputs = {k: [0.5] * v.length for k, v in cp.input_specs.items()}
        res = cp.run(inputs)
        stream = next(iter(cp.output_specs))
        assert _steady(res, stream) == pytest.approx(2.0, abs=0.05)

    def test_todd_is_cycle_limited(self):
        m = 150
        cp = compile_program(
            SOURCES["example2"], params={"m": m}, foriter_scheme="todd"
        )
        res = cp.run({"A": [1.0] * m, "B": [0.5] * m})
        assert _steady(res, "X") == pytest.approx(3.0, abs=0.05)

    def test_and_semantics_hold(self):
        for scheme in ("todd", "companion"):
            compile_and_compare(
                SOURCES["example2"], {"m": 13}, seed=7, foriter_scheme=scheme
            )


class TestTheorem4:
    """For any pipe-structured program in which each forall expression
    is primitive and each for-iter expression is simple, a fully
    pipelined data flow instruction graph can be constructed."""

    @pytest.mark.parametrize("name", ["fig3", "diamond"])
    def test_linked_program_fully_pipelined(self, name):
        m = 150
        cp = compile_program(SOURCES[name], params={"m": m})
        inputs = {k: [1.0] * v.length for k, v in cp.input_specs.items()}
        res = cp.run(inputs)
        stream = next(iter(cp.output_specs))
        assert _steady(res, stream) == pytest.approx(2.0, abs=0.05)

    def test_and_semantics_hold(self):
        compile_and_compare(SOURCES["fig3"], {"m": 13}, seed=3)
        compile_and_compare(SOURCES["diamond"], {"m": 13}, seed=4)
