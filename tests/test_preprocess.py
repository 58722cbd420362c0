"""Tests for the paper's §5 preprocessing pipeline."""

import numpy as np
import pytest

from repro.graph import BipartiteGraph, degree_ascending_order, prepare, random_bipartite
from repro.graph.preprocess import PreparedGraph


class TestSideSelection:
    def test_swaps_when_v_larger(self):
        g = BipartiteGraph.from_edges(2, 5, [(0, 0), (1, 4), (0, 3)])
        p = prepare(g)
        assert p.swapped
        assert p.graph.n_u >= p.graph.n_v

    def test_keeps_when_u_larger(self, paper_graph):
        p = prepare(paper_graph)
        assert not p.swapped
        assert p.graph.n_u == 5

    def test_equal_sides_not_swapped(self):
        g = BipartiteGraph.from_edges(3, 3, [(0, 0), (1, 1), (2, 2)])
        assert not prepare(g).swapped


class TestOrdering:
    def test_degree_ascending(self, paper_graph):
        p = prepare(paper_graph)
        degs = p.graph.degrees_v
        assert all(degs[i] <= degs[i + 1] for i in range(len(degs) - 1))

    def test_none_order_keeps_labels(self, paper_graph):
        p = prepare(paper_graph, order="none")
        assert np.array_equal(p.v_original, np.arange(paper_graph.n_v))

    def test_unknown_order_rejected(self, paper_graph):
        with pytest.raises(ValueError):
            prepare(paper_graph, order="zigzag")

    def test_perm_is_permutation(self):
        g = random_bipartite(10, 8, 0.4, seed=1)
        perm = degree_ascending_order(g)
        assert sorted(perm.tolist()) == list(range(8))

    def test_deterministic_tiebreak(self):
        g = BipartiteGraph.from_edges(2, 3, [(0, 0), (0, 1), (0, 2)])
        assert degree_ascending_order(g).tolist() == [0, 1, 2]


class TestLabelMapping:
    def test_structure_preserved(self, paper_graph):
        p = prepare(paper_graph)
        # edge (u, new_v) exists iff (u, v_original[new_v]) existed
        for new_v in range(p.graph.n_v):
            old_v = int(p.v_original[new_v])
            got = sorted(p.graph.neighbors_v(new_v).tolist())
            want = sorted(paper_graph.neighbors_v(old_v).tolist())
            assert got == want

    def test_biclique_to_input_labels_unswapped(self, paper_graph):
        p = prepare(paper_graph)
        left = np.array([0, 1])
        right = np.array([2])
        l_in, r_in = p.biclique_to_input_labels(left, right)
        assert l_in.tolist() == [0, 1]
        assert r_in.tolist() == [int(p.v_original[2])]

    def test_biclique_to_input_labels_permuted_u(self, paper_graph):
        p = prepare(paper_graph)
        assert p.u_identity
        perm = np.arange(p.graph.n_u)[::-1].copy()
        q = PreparedGraph(
            graph=p.graph, swapped=False, v_original=p.v_original,
            u_original=perm,
        )
        assert not q.u_identity
        l_in, _ = q.biclique_to_input_labels(np.array([0, 1]), np.array([2]))
        assert l_in.tolist() == sorted(perm[[0, 1]].tolist())

    def test_biclique_to_input_labels_swapped(self):
        g = BipartiteGraph.from_edges(2, 4, [(0, v) for v in range(4)] + [(1, 0)])
        p = prepare(g)
        assert p.swapped
        l_in, r_in = p.biclique_to_input_labels(
            np.array([0]), np.array([0, 1])
        )
        # swapped: returned (input U side, input V side)
        assert len(l_in) == 2 and len(r_in) == 1

    def test_roundtrip_random_unswapped(self):
        g = random_bipartite(9, 6, 0.5, seed=3)
        p = prepare(g)
        assert not p.swapped
        for u in range(p.graph.n_u):
            for v in p.graph.neighbors_u(u):
                l_in, r_in = p.biclique_to_input_labels(
                    np.array([u]), np.array([int(v)])
                )
                assert g.has_edge(int(l_in[0]), int(r_in[0]))

    def test_roundtrip_random_swapped(self):
        g = random_bipartite(5, 8, 0.5, seed=4)
        p = prepare(g)
        assert p.swapped
        for u in range(p.graph.n_u):
            for v in p.graph.neighbors_u(u):
                l_in, r_in = p.biclique_to_input_labels(
                    np.array([u]), np.array([int(v)])
                )
                # l_in is on the input U side, r_in on the input V side
                assert g.has_edge(int(l_in[0]), int(r_in[0]))
