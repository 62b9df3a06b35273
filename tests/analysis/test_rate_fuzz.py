"""Fuzz: the static rate bound equals measured throughput on random
ungated graphs (where the marked-graph model is exact)."""

import random

import pytest

import repro
from repro.analysis import analyze_rate
from repro.compiler import balance_graph
from repro.graph import DataflowGraph, Op
from repro.sim import SyncSimulator
from repro.workloads import random_layered_graph


class TestRandomDagRates:
    @pytest.mark.parametrize("seed", range(6))
    def test_unbalanced_rate_matches_simulation(self, seed):
        g = random_layered_graph(random.Random(seed), n_layers=4, width=4)
        bound = float(analyze_rate(g).rate)
        res = repro.run(g, {"x": [1.0] * 80}, backend="sync")
        measured = 1.0 / res.initiation_interval()
        assert measured == pytest.approx(bound, abs=0.03)

    @pytest.mark.parametrize("seed", range(6))
    def test_balanced_rate_is_max(self, seed):
        g = random_layered_graph(random.Random(100 + seed), n_layers=4, width=4)
        balance_graph(g)
        rep = analyze_rate(g)
        assert rep.fully_pipelined
        res = repro.run(g, {"x": [1.0] * 80}, backend="sync")
        assert res.initiation_interval() == pytest.approx(2.0, abs=0.05)


class TestRandomRings:
    @pytest.mark.parametrize("seed", range(8))
    def test_ring_with_random_tokens(self, seed):
        rng = random.Random(seed)
        n = rng.randint(3, 9)
        k = rng.randint(1, n - 1)
        g = DataflowGraph()
        ids = [g.add_cell(Op.ID, name=f"r{j}") for j in range(n)]
        token_slots = rng.sample(range(n), k)
        for j in range(n):
            nxt = (j + 1) % n
            if j in token_slots:
                g.connect(ids[j], ids[nxt], 0, initial=j)
            else:
                g.connect(ids[j], ids[nxt], 0)
        sink = g.add_sink("tap", stream="t")
        g.connect(ids[0], sink, 0)
        bound = float(analyze_rate(g).rate)
        sim = SyncSimulator(g)
        steps = 400
        for _ in range(steps):
            sim.step()
        measured = sim.stats.fire_counts[ids[0]] / steps
        assert measured == pytest.approx(bound, abs=0.03)

    def test_two_coupled_rings(self):
        """Two rings sharing a cell: the slower one wins."""
        g = DataflowGraph()
        a = g.add_cell(Op.ID, name="a")
        b = g.add_cell(Op.ID, name="b")
        c = g.add_cell(Op.ADD, name="c")  # joins both rings
        d = g.add_cell(Op.ID, name="d")
        e = g.add_cell(Op.ID, name="e")
        # ring 1: c -> a -> c   (2 cells, 1 token -> 1/2)
        g.connect(c, a, 0)
        g.connect(a, c, 0, initial=1)
        # ring 2: c -> b -> d -> e -> c (4 cells, 1 token -> 1/4)
        g.connect(c, b, 0)
        g.connect(b, d, 0)
        g.connect(d, e, 0)
        g.connect(e, c, 1, initial=2)
        sink = g.add_sink("tap", stream="t")
        g.connect(c, sink, 0)
        rep = analyze_rate(g)
        assert float(rep.rate) == pytest.approx(1 / 4)
        sim = SyncSimulator(g)
        for _ in range(200):
            sim.step()
        assert sim.stats.fire_counts[c] / 200 == pytest.approx(1 / 4, abs=0.02)
