"""Tests for biclique value types and sinks."""

import io

import numpy as np
import pytest

from repro.core.bicliques import (
    Biclique,
    BicliqueCollector,
    BicliqueCounter,
    BicliqueWriter,
    Counters,
    EnumerationResult,
)


class TestBiclique:
    def test_make_sorts_and_dedupes(self):
        b = Biclique.make([3, 1, 1], [2, 0])
        assert b.left == (1, 3) and b.right == (0, 2)

    def test_hashable_equality(self):
        a = Biclique.make([1, 2], [3])
        b = Biclique.make([2, 1], [3])
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_sizes(self):
        b = Biclique.make([1, 2, 3], [4, 5])
        assert b.n_vertices == 5
        assert b.n_edges == 6

    def test_ordering_defined(self):
        assert sorted([Biclique.make([2], [1]), Biclique.make([1], [2])])

    @pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint32])
    def test_make_array_fast_path_matches_iterable_path(self, dtype):
        cases = [
            ([5, 1, 3], [9, 2]),  # unsorted
            ([4, 4, 1, 1, 7], [3, 3, 3]),  # duplicated
            ([0], []),  # empty side
        ]
        for left, right in cases:
            got = Biclique.make(
                np.array(left, dtype=dtype), np.array(right, dtype=dtype)
            )
            want = Biclique.make(list(left), list(right))
            assert got == want
            assert all(type(x) is int for x in got.left + got.right)

    def test_collector_array_fast_path_matches_make(self):
        c = BicliqueCollector()
        left = np.array([7, 2, 2, 5], dtype=np.int32)
        right = np.array([3, 1], dtype=np.int64)
        c(left, right)
        assert c.bicliques == [Biclique.make([7, 2, 2, 5], [3, 1])]
        assert c.bicliques[0].left == (2, 5, 7)

    def test_order_key_matches_generated_comparison(self):
        rng = np.random.default_rng(0)
        bs = [
            Biclique.make(
                rng.integers(0, 6, size=rng.integers(1, 4)),
                rng.integers(0, 6, size=rng.integers(1, 4)),
            )
            for _ in range(60)
        ]
        assert sorted(bs) == sorted(bs, key=lambda b: (b.left, b.right))


class TestSinks:
    def test_counter_tracks_maxima(self):
        c = BicliqueCounter()
        c(np.array([1, 2, 3]), np.array([4]))
        c(np.array([1]), np.array([4, 5]))
        assert c.count == 2
        assert c.max_left == 3 and c.max_right == 2

    def test_collector(self):
        col = BicliqueCollector()
        col(np.array([1]), np.array([2]))
        col(np.array([1]), np.array([2]))
        assert col.count == 2
        assert len(col.as_set()) == 1

    def test_writer_format(self):
        buf = io.StringIO()
        w = BicliqueWriter(buf)
        w(np.array([1, 2]), np.array([3]))
        assert buf.getvalue() == "1,2 | 3\n"
        assert w.count == 1


class TestCounters:
    def test_defaults_zero(self):
        c = Counters()
        assert c.checks == 0 and c.set_op_work == 0

    def test_charge_ragged_scalar_equivalence(self):
        a, b = Counters(), Counters()
        a.charge(40, 0)
        b.charge_ragged(np.array([40]))
        assert a.set_op_work == b.set_op_work
        assert a.simt_cycles == b.simt_cycles


class TestEnumerationResult:
    def test_count_alias(self):
        r = EnumerationResult(n_maximal=7)
        assert r.count == 7
        assert r.sim_time == 0.0
        assert r.extras == {}
