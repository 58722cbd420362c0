"""Tests for the two-level task-queue model."""

import heapq
import random

import pytest

from repro.gpusim import TwoLevelTaskQueue


class TestPushPop:
    def test_local_first(self):
        q = TwoLevelTaskQueue(2)
        q.push(0, 0.0, "a")
        got = q.pop_ready(0, 1.0)
        assert got == ("a", "local")

    def test_not_ready_before_avail(self):
        q = TwoLevelTaskQueue(1)
        q.push(0, 5.0, "later")
        assert q.pop_ready(0, 1.0) is None
        assert q.pop_ready(0, 5.0) == ("later", "local")

    def test_fifo_by_avail_time(self):
        q = TwoLevelTaskQueue(1)
        q.push(0, 3.0, "b")
        q.push(0, 1.0, "a")
        assert q.pop_ready(0, 10.0)[0] == "a"
        assert q.pop_ready(0, 10.0)[0] == "b"

    def test_spill_to_global_when_full(self):
        q = TwoLevelTaskQueue(1, local_capacity=2)
        assert q.push(0, 0.0, "a") == "local"
        assert q.push(0, 0.0, "b") == "local"
        assert q.push(0, 0.0, "c") == "global"
        assert q.stats.spills == 1

    def test_other_sm_reads_global(self):
        q = TwoLevelTaskQueue(2, local_capacity=0)
        q.push(0, 0.0, "x")  # forced global
        assert q.pop_ready(1, 1.0) == ("x", "global")

    def test_pop_earliest_waits(self):
        q = TwoLevelTaskQueue(1)
        q.push(0, 9.0, "future")
        payload, avail, level = q.pop_earliest(0)
        assert payload == "future" and avail == 9.0 and level == "local"

    def test_pop_earliest_steals_from_sibling(self):
        q = TwoLevelTaskQueue(2)
        q.push(0, 2.0, "sibling-task")
        got = q.pop_earliest(1)
        assert got is not None and got[0] == "sibling-task"

    def test_pop_earliest_empty(self):
        q = TwoLevelTaskQueue(2)
        assert q.pop_earliest(0) is None

    def test_len(self):
        q = TwoLevelTaskQueue(2, local_capacity=1)
        q.push(0, 0.0, 1)
        q.push(0, 0.0, 2)
        q.push(1, 0.0, 3)
        assert len(q) == 3

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            TwoLevelTaskQueue(1, local_capacity=-1)


class TestStats:
    def test_op_counts(self):
        q = TwoLevelTaskQueue(1, local_capacity=1)
        q.push(0, 0.0, "a")
        q.push(0, 0.0, "b")  # spills
        q.pop_ready(0, 1.0)
        q.pop_ready(0, 1.0)
        s = q.stats
        assert s.local_enqueues == 1 and s.global_enqueues == 1
        assert s.local_dequeues + s.global_dequeues == 2
        assert s.total_ops == 4

    def test_requeues_counted_separately_from_pushes(self):
        q = TwoLevelTaskQueue(1)
        q.push(0, 0.0, "fresh")
        q.requeue(1.0, "retry")
        s = q.stats
        # a recovery re-enqueue is not fresh work: it must not inflate
        # the enqueue counters the contention model is built on
        assert s.requeues == 1
        assert s.local_enqueues + s.global_enqueues == 1
        assert s.total_ops == 1  # requeues excluded

    def test_requeued_task_is_poppable(self):
        q = TwoLevelTaskQueue(2)
        q.requeue(2.0, "retry")
        assert q.pop_ready(0, 1.0) is None  # not before avail_time
        got = q.pop_ready(0, 2.0)
        assert got is not None and got[0] == "retry"

    def test_drain_sm_empties_local_queue(self):
        q = TwoLevelTaskQueue(2)
        q.push(0, 0.0, "a")
        q.push(0, 1.0, "b")
        q.push(1, 0.0, "other-sm")
        drained = q.drain_sm(0)
        assert sorted(drained) == ["a", "b"]
        assert q.pop_ready(0, 5.0) is None  # SM 0 now empty
        assert q.pop_ready(1, 5.0)[0] == "other-sm"  # SM 1 untouched

    def test_drain_all_returns_everything(self):
        q = TwoLevelTaskQueue(2, local_capacity=1)
        q.push(0, 0.0, "a")
        q.push(0, 0.0, "spilled")  # forced global
        q.push(1, 0.0, "b")
        drained = q.drain_all()
        assert sorted(drained) == ["a", "b", "spilled"]
        assert len(q) == 0


class _ScanningQueue(TwoLevelTaskQueue):
    """Reference ``pop_earliest`` that scans every SM-local queue on an
    idle pull, with no count to exit early."""

    def pop_earliest(self, sm):
        local = self._local[sm]
        if local and (not self._global or local[0][0] <= self._global[0][0]):
            avail, _, payload = heapq.heappop(local)
            self._n_local -= 1
            self.stats.local_dequeues += 1
            return payload, avail, "local"
        if self._global:
            avail, _, payload = heapq.heappop(self._global)
            self.stats.global_dequeues += 1
            return payload, avail, "global"
        candidates = [(q[0][0], i) for i, q in enumerate(self._local) if q]
        if not candidates:
            return None
        _, owner = min(candidates)
        avail, _, payload = heapq.heappop(self._local[owner])
        self._n_local -= 1
        self.stats.global_dequeues += 1
        self.stats.spills += 1
        return payload, avail, "global"


class TestPopEarliestEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_ops_match_scanning_reference(self, seed):
        rng = random.Random(seed)
        fast = TwoLevelTaskQueue(4, local_capacity=2)
        ref = _ScanningQueue(4, local_capacity=2)
        for step in range(400):
            op = rng.random()
            sm = rng.randrange(4)
            if op < 0.4:
                avail = float(rng.randrange(20))
                for q in (fast, ref):
                    q.push(sm, avail, step)
            elif op < 0.5:
                avail = float(rng.randrange(20))
                for q in (fast, ref):
                    q.requeue(avail, step)
            elif op < 0.6:
                now = float(rng.randrange(20))
                assert fast.pop_ready(sm, now) == ref.pop_ready(sm, now)
            elif op < 0.63:
                assert fast.drain_sm(sm) == ref.drain_sm(sm)
            elif op < 0.64:
                assert fast.drain_all() == ref.drain_all()
            else:
                assert fast.pop_earliest(sm) == ref.pop_earliest(sm)
            assert fast.stats == ref.stats
            assert len(fast) == len(ref)

    def test_idle_pull_on_empty_queues_moves_no_stats(self):
        q = TwoLevelTaskQueue(108)
        q.push(3, 1.0, "x")
        assert q.pop_earliest(3)[0] == "x"
        before = (q.stats.local_dequeues, q.stats.global_dequeues)
        assert q.pop_earliest(0) is None
        assert (q.stats.local_dequeues, q.stats.global_dequeues) == before
        assert len(q) == 0
