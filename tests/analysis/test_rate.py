"""Tests of the static rate analysis, cross-validated against simulation."""

from fractions import Fraction

import pytest

import repro
from repro.analysis import analyze_rate, initiation_interval_bound, is_fully_pipelined
from repro.errors import AnalysisError
from repro.graph import DataflowGraph, Op
from repro.sim import SyncSimulator


def ring(n_cells: int, n_tokens: int) -> tuple[DataflowGraph, list[int]]:
    g = DataflowGraph("ring")
    ids = [g.add_cell(Op.ID, name=f"r{k}") for k in range(n_cells)]
    token_arcs = {n_cells - 1 - 2 * t for t in range(n_tokens)}
    for k in range(n_cells):
        nxt = (k + 1) % n_cells
        initial = {} if k not in token_arcs else {"initial": k}
        g.connect(ids[k], ids[nxt], 0, **initial)
    sink = g.add_sink("tap", stream="t")
    g.connect(ids[0], sink, 0)
    return g, ids


def chain(n_ids: int) -> DataflowGraph:
    g = DataflowGraph("chain")
    prev = g.add_source("src", stream="x")
    for k in range(n_ids):
        nxt = g.add_cell(Op.ID, name=f"id{k}")
        g.connect(prev, nxt, 0)
        prev = nxt
    sink = g.add_sink("out", stream="y")
    g.connect(prev, sink, 0)
    return g


class TestRateBounds:
    def test_chain_is_fully_pipelined(self):
        rep = analyze_rate(chain(5))
        assert rep.rate == Fraction(1, 2)
        assert rep.fully_pipelined
        assert rep.initiation_interval == 2

    @pytest.mark.parametrize(
        "cells,tokens,expected",
        [
            (3, 1, Fraction(1, 3)),
            (4, 1, Fraction(1, 4)),
            (4, 2, Fraction(1, 2)),
            (6, 3, Fraction(1, 2)),
            (6, 2, Fraction(1, 3)),
            (8, 2, Fraction(1, 4)),
            # odd loop, two tokens: reverse acknowledge cycle dominates
            (3, 2, Fraction(1, 3)),
            (5, 2, Fraction(2, 5)),
        ],
    )
    def test_ring_rates(self, cells, tokens, expected):
        g, _ = ring(cells, tokens)
        assert analyze_rate(g).rate == expected

    def test_unbalanced_diamond_is_one_third(self):
        g = DataflowGraph()
        s = g.add_source("src", stream="x")
        v = g.add_cell(Op.ID, name="v")
        x = g.add_cell(Op.ID, name="x")
        w = g.add_cell(Op.ADD, name="w")
        sink = g.add_sink("out", stream="y")
        g.connect(s, v, 0)
        g.connect(v, x, 0)
        g.connect(x, w, 0)
        g.connect(v, w, 1)
        g.connect(w, sink, 0)
        assert analyze_rate(g).rate == Fraction(1, 3)
        assert not is_fully_pipelined(g)

    def test_fifo_balanced_diamond_is_half(self):
        g = DataflowGraph()
        s = g.add_source("src", stream="x")
        v = g.add_cell(Op.ID, name="v")
        x = g.add_cell(Op.ID, name="x")
        w = g.add_cell(Op.ADD, name="w")
        f = g.add_fifo(1)
        sink = g.add_sink("out", stream="y")
        g.connect(s, v, 0)
        g.connect(v, x, 0)
        g.connect(x, w, 0)
        g.connect(v, f, 0)
        g.connect(f, w, 1)
        g.connect(w, sink, 0)
        assert is_fully_pipelined(g)

    def test_critical_cycle_identified(self):
        g, ids = ring(5, 1)
        rep = analyze_rate(g)
        assert rep.rate == Fraction(1, 5)
        assert set(rep.critical_cycle) <= set(ids)
        assert len(rep.critical_cycle) >= 2

    def test_empty_graph_rejected(self):
        with pytest.raises(AnalysisError):
            analyze_rate(DataflowGraph())

    def test_arcless_graph_rejected(self):
        g = DataflowGraph()
        g.add_source("a", stream="a")
        with pytest.raises(AnalysisError):
            analyze_rate(g)


class TestAnalysisMatchesSimulation:
    """The static bound must equal the measured steady-state rate."""

    @pytest.mark.parametrize("cells,tokens", [(3, 1), (4, 2), (5, 1), (6, 3), (3, 2)])
    def test_rings(self, cells, tokens):
        g, ids = ring(cells, tokens)
        bound = analyze_rate(g).rate
        sim = SyncSimulator(g)
        steps = 240
        for _ in range(steps):
            sim.step()
        measured = sim.stats.fire_counts[ids[0]] / steps
        assert measured == pytest.approx(float(bound), abs=0.03)

    def test_chain(self):
        g = chain(4)
        ii_bound = float(initiation_interval_bound(g))
        res = repro.run(g, {"x": list(range(40))}, backend="sync")
        assert res.initiation_interval() == pytest.approx(ii_bound, abs=0.05)

    def test_fig2_pipeline(self):
        g = DataflowGraph("fig2")
        a = g.add_source("a", stream="a")
        b = g.add_source("b", stream="b")
        c1 = g.add_cell(Op.MUL)
        c2 = g.add_cell(Op.ADD, consts={1: 2.0})
        c3 = g.add_cell(Op.SUB, consts={1: 3.0})
        c4 = g.add_cell(Op.MUL)
        sink = g.add_sink("out", stream="y")
        g.connect(a, c1, 0)
        g.connect(b, c1, 1)
        g.connect(c1, c2, 0)
        g.connect(c1, c3, 0)
        g.connect(c2, c4, 0)
        g.connect(c3, c4, 1)
        g.connect(c4, sink, 0)
        assert is_fully_pipelined(g)
        n = 40
        res = repro.run(g, {"a": [1.0] * n, "b": [1.0] * n}, backend="sync")
        assert res.initiation_interval() == pytest.approx(2.0)
