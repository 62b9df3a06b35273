"""Tests for the forall mapping schemes (Section 6, Theorem 2)."""

import random

import pytest

import repro
from repro.compiler import (
    ArraySpec,
    balance_graph,
    compile_forall_parallel,
    compile_forall_pipeline,
)
from repro.errors import CompileError
from repro.graph import Op, validate
from repro.val import parse_program, run_program
from repro.workloads.programs import SOURCES


def example1_artifacts(m, scheme="pipeline"):
    node = parse_program(SOURCES["example1"]).blocks[0].expr
    arrays = {
        "B": ArraySpec("B", 0, m + 1),
        "C": ArraySpec("C", 0, m + 1),
    }
    fn = compile_forall_pipeline if scheme == "pipeline" else compile_forall_parallel
    return fn("A", node, arrays, {"m": m})


def example1_reference(B, C, m):
    return run_program(
        parse_program(SOURCES["example1"]),
        inputs={"B": B, "C": C},
        params={"m": m},
    )["A"].to_list()


class TestPipelineScheme:
    def test_example1_semantics(self):
        m = 9
        rng = random.Random(0)
        B = [rng.uniform(-2, 2) for _ in range(m + 2)]
        C = [rng.uniform(-2, 2) for _ in range(m + 2)]
        art = example1_artifacts(m)
        validate(art.graph)
        balance_graph(art.graph)
        res = repro.run(art.graph, {"B": B, "C": C}, backend="sync")
        assert res.outputs["A"] == pytest.approx(example1_reference(B, C, m))

    def test_output_range_metadata(self):
        art = example1_artifacts(5)
        assert (art.out_lo, art.out_hi) == (0, 6)
        assert art.out_length == 7

    def test_fully_pipelined_interior(self):
        m = 120
        art = example1_artifacts(m)
        balance_graph(art.graph)
        res = repro.run(
            art.graph, {"B": [1.0] * (m + 2), "C": [1.0] * (m + 2)},
            backend="sync"
        )
        times = res.sink_times["A"]
        interior = [b - a for a, b in zip(times[10:-10], times[11:-9])]
        assert sum(interior) / len(interior) == pytest.approx(2.0, abs=0.01)

    def test_cell_count_is_independent_of_m(self):
        a1 = example1_artifacts(8)
        a2 = example1_artifacts(800)
        assert len(a1.graph) == len(a2.graph)

    def test_window_gates_present(self):
        """Figure 6's structure: one selection gate per used window."""
        art = example1_artifacts(6)
        gates = [c for c in art.graph.cells_by_op(Op.ID) if c.gated]
        # C at offsets -1, 0 (interior), +1, and 0 (boundary arm)
        assert len(gates) == 4
        assert len(art.graph.cells_by_op(Op.MERGE)) == 1

    def test_sink_limit_matches_length(self):
        art = example1_artifacts(6)
        sink = art.graph.cells[art.sink]
        assert sink.params["limit"] == 8


class TestParallelScheme:
    def test_example1_semantics(self):
        m = 4
        rng = random.Random(1)
        B = [rng.uniform(-2, 2) for _ in range(m + 2)]
        C = [rng.uniform(-2, 2) for _ in range(m + 2)]
        art = example1_artifacts(m, scheme="parallel")
        validate(art.graph)
        balance_graph(art.graph)
        res = repro.run(art.graph, {"B": B, "C": C}, backend="sync")
        assert res.outputs["A"] == pytest.approx(example1_reference(B, C, m))

    def test_cell_count_scales_with_m(self):
        a1 = example1_artifacts(3, scheme="parallel")
        a2 = example1_artifacts(6, scheme="parallel")
        assert len(a2.graph) > len(a1.graph) * 1.5

    def test_element_limit(self):
        node = parse_program(SOURCES["example1"]).blocks[0].expr
        arrays = {
            "B": ArraySpec("B", 0, 1001),
            "C": ArraySpec("C", 0, 1001),
        }
        with pytest.raises(CompileError, match="max_elements"):
            compile_forall_parallel("A", node, arrays, {"m": 1000})

    def test_output_order_is_by_index(self):
        """The merge chain serializes lowest index first."""
        m = 5
        node = parse_program(
            "Y : array[real] := forall i in [0, m - 1] construct "
            "A[i] * 1. endall"
        ).blocks[0].expr
        arrays = {"A": ArraySpec("A", 0, m - 1)}
        art = compile_forall_parallel("Y", node, arrays, {"m": m})
        balance_graph(art.graph)
        res = repro.run(art.graph, {"A": [3.0, 1.0, 4.0, 1.0, 5.0]},
                        backend="sync")
        assert res.outputs["Y"] == [3.0, 1.0, 4.0, 1.0, 5.0]


class TestSchemeEquivalence:
    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_both_schemes_agree(self, m):
        rng = random.Random(m)
        B = [rng.uniform(-2, 2) for _ in range(m + 2)]
        C = [rng.uniform(-2, 2) for _ in range(m + 2)]
        outs = []
        for scheme in ("pipeline", "parallel"):
            art = example1_artifacts(m, scheme=scheme)
            balance_graph(art.graph)
            res = repro.run(art.graph, {"B": B, "C": C}, backend="sync")
            outs.append(res.outputs["A"])
        assert outs[0] == pytest.approx(outs[1])
