"""Cross-task batched execution of dense (bitset-backend) subtrees.

PR 1 made a *single* task word-parallel: one packed AND + popcount per
node expansion.  But the simulator's real wall-clock cost is Python
interpreter overhead, and every task still pays its own round of
``intersect``/``gamma``/maximality calls.  The GPU papers amortize
exactly this — GMBE (SC 2023) keeps many dense tasks in flight per SM,
cuMBE (arXiv:2401.05039) batches candidate pruning across warps — so
this module is the numpy analog: a pool of same-depth dense tasks
streams through :data:`LANES` lanes of rectangular ``uint64`` arrays,
one ``(lanes·S, W)`` bitwise-AND + popcount per round instead of one
Python-level call chain per task.  Like GMBE's persistent warps, a lane
whose task finishes takes the next pooled task at once, and each round
reports all of its maximal nodes in one bulk gather and sort.

The batched runner (:func:`run_batch`) is a bit-exact re-implementation
of :class:`repro.gmbe.node_buffer.NodeBuffer` driven by
:func:`repro.gmbe.host.run_task_with_node_buffer`: identical traversal
order, identical emissions (same arrays, same order per task), and
identical per-task :class:`~repro.core.bicliques.Counters` charges.
Cost charging stays *per logical task* — each member is charged with its
own true ``n_words``/scope size exactly as the sequential path would be
— so simulated-cycle figures, checkpoints, fault injection, and
telemetry phase attribution are unaffected by batching (DESIGN.md §10).

Primitives (:func:`batch_intersect`, :func:`batch_popcount`,
:func:`batch_subset_mask`, :func:`ragged_stack`/:func:`ragged_split`)
are exposed separately: the kernel's batched maximality check and the
tests build on them, and they are the natural substrate for a later
numba/cython backend.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .bicliques import Counters
from .bitset import (
    WORD_BITS,
    BitsetUniverse,
    from_sorted,
    popcount_words,
    unpack_rows,
)

__all__ = [
    "BatchMember",
    "BatchStats",
    "LANES",
    "batch_gamma_matches",
    "batch_intersect",
    "batch_popcount",
    "batch_subset_mask",
    "ragged_split",
    "ragged_stack",
    "run_batch",
]

#: Candidate-state sentinel for "still a candidate" — mirrors
#: :data:`repro.gmbe.node_buffer.INF_DEPTH` (states are ``int32``:
#: depths and their negations are tiny).
_INF = np.iinfo(np.int32).max
#: Padding state for slots beyond a member's real candidate count; acts
#: like a permanently excluded root-level candidate (never INF, never
#: matches any depth marker ≥ 1 or ≤ -2).
_PAD = -1
#: Padding for right-id tables; sorts after every real V id.
_RIGHT_PAD = np.iinfo(np.int32).max


# ----------------------------------------------------------------------
# Stacked-bitset primitives
# ----------------------------------------------------------------------
def batch_intersect(
    rows: np.ndarray, masks: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Word-wise ``rows & masks`` with broadcasting — the one bulk AND
    that replaces ``n_tasks`` per-task intersections."""
    return np.bitwise_and(rows, masks, out=out)


def batch_popcount(words: np.ndarray) -> np.ndarray:
    """Set-bit counts over the last (word) axis of a stacked array.

    ``(…, n_words) uint64 → (…,) int64`` — the batched form of
    :func:`repro.core.bitset.popcount`.
    """
    return popcount_words(words).sum(axis=-1, dtype=np.int64)


def batch_subset_mask(rows: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Per-row boolean: is ``rows[i]`` a subset of ``masks[i]``?

    ``masks`` broadcasts against ``rows`` over the leading axes.
    """
    sub = np.bitwise_and(rows, np.bitwise_not(masks))
    return ~np.any(sub != 0, axis=-1)


def ragged_stack(
    blocks: list[np.ndarray], n_words: int
) -> tuple[np.ndarray, np.ndarray]:
    """Gather per-task ``(r_i, w_i)`` row blocks into one ``(Σr, n_words)``
    matrix (rows zero-padded to the common word count).

    Returns ``(stacked, lengths)``; :func:`ragged_split` is the inverse
    scatter.
    """
    lengths = np.array([len(b) for b in blocks], dtype=np.int64)
    total = int(lengths.sum())
    stacked = np.zeros((total, n_words), dtype=np.uint64)
    at = 0
    for block in blocks:
        if len(block):
            stacked[at : at + len(block), : block.shape[1]] = block
            at += len(block)
    return stacked, lengths


def ragged_split(flat: np.ndarray, lengths: np.ndarray) -> list[np.ndarray]:
    """Scatter a stacked result back into per-task views (inverse of
    :func:`ragged_stack` along the row axis)."""
    return np.split(flat, np.cumsum(lengths)[:-1])


def batch_gamma_matches(
    universes: list[BitsetUniverse],
    lefts: list[np.ndarray],
    right_sizes: list[int],
    counters: list[Counters],
) -> list[bool]:
    """Batched ``|Γ(L)| == |R|`` over several tasks' packed scopes.

    One stacked AND + popcount over every task's scope rows replaces the
    per-task :func:`repro.core.expand.gamma_matches` calls made at split-
    child dequeue.  Each task is charged exactly as the sequential check
    would charge it (``charge_bitset(len(scope), n_words)``); every
    ``L`` must be nonempty (split children always are).
    """
    n_words = max(u.n_words for u in universes)
    stacked, lengths = ragged_stack([u.rows for u in universes], n_words)
    masks = np.zeros((len(universes), n_words), dtype=np.uint64)
    for i, (u, left) in enumerate(zip(universes, lefts)):
        masks[i, : u.n_words] = u.mask_of_left_subset(left)
    sizes = batch_popcount(masks)
    counts = batch_popcount(
        batch_intersect(stacked, np.repeat(masks, lengths, axis=0))
    )
    out: list[bool] = []
    for i, per_task in enumerate(ragged_split(counts, lengths)):
        counters[i].charge_bitset(len(universes[i].scope), universes[i].n_words)
        n_match = int(np.count_nonzero(per_task == sizes[i]))
        out.append(n_match == int(right_sizes[i]))
    return out


# ----------------------------------------------------------------------
# Lane-refilling batched DFS
# ----------------------------------------------------------------------
#: Lane width of :func:`run_batch`: at most this many members are in
#: flight at once, whatever the pool size.  Every per-member state array
#: is ``LANES × pool-max dims``, so memory tracks the lane width while a
#: larger pool only keeps the lanes full for longer.
LANES = 64


@dataclass
class BatchMember:
    """One dense task joining a batched run: the same fields
    :func:`repro.gmbe.host.run_task_with_node_buffer` consumes, plus the
    sink and counters the sequential path would have used."""

    universe: BitsetUniverse
    left: np.ndarray
    right: np.ndarray
    cands: np.ndarray
    counts: np.ndarray
    counters: Counters
    sink: Callable[[np.ndarray, np.ndarray], None]


@dataclass
class BatchStats:
    """Per-run batching statistics (telemetry feed; ``None`` when
    telemetry is off so the hot loop pays one ``is not None`` check)."""

    rounds: int = 0
    tasks_per_round: list[int] = field(default_factory=list)


def run_batch(
    members: list[BatchMember],
    *,
    prune: bool = True,
    stats: BatchStats | None = None,
) -> None:
    """Enumerate every member's subtree on a pool of :data:`LANES` lanes.

    Each round advances every occupied lane by one node.  A lane whose
    member finishes at its root is refilled with the next waiting member
    in the same round, so lanes stay full until the pool drains (the
    persistent-thread pull of GMBE §5).  Emissions (per task, in
    traversal order) and per-task ``Counters`` charges are bit-identical
    to running each member through
    :func:`repro.gmbe.host.run_task_with_node_buffer` alone; only the
    Python-level work is amortized across the lanes.
    """
    pool = [m for m in members if len(m.cands)]
    if not pool:
        return
    k = min(LANES, len(pool))
    w_max = max(m.universe.n_words for m in pool)
    s_max = max(len(m.universe.scope) for m in pool)
    c_max = max(len(m.cands) for m in pool)
    r_max = max(len(m.right) for m in pool)
    # Depth never exceeds min(|L|, |C|): every push strictly shrinks L
    # (traversed candidates are partial) and consumes one candidate.
    d_cap = max(min(len(m.left), len(m.cands)) for m in pool) + 1
    left_dtype = np.result_type(*{m.universe.left.dtype for m in pool})
    # Local neighborhood sizes never exceed |L| ≤ the universe's bits.
    nls_dtype = np.min_scalar_type(w_max * WORD_BITS)

    if w_max == 1:
        def word_count(words: np.ndarray) -> np.ndarray:
            return popcount_words(words[..., 0])
    else:
        def word_count(words: np.ndarray) -> np.ndarray:
            return popcount_words(words).sum(axis=-1, dtype=np.int64)

    # Per-lane state, padded rectangular.  Padding rows/slots are inert:
    # zero scope rows count 0 < |L'| (L' nonempty at every push), and
    # padded candidate slots carry the _PAD state, never INF.  Deeper
    # stack levels are always written by a push before a pop reads them,
    # so a refilled lane only resets what its new member reads first.
    scope_rows = np.zeros((k, s_max, w_max), dtype=np.uint64)
    #: each candidate's scope row, so candidate counts need no gather
    cand_bits = np.zeros((k, c_max, w_max), dtype=np.uint64)
    cand_vids = np.zeros((k, c_max), dtype=np.int32)
    cand_state = np.full((k, c_max), _PAD, dtype=np.int32)
    nls = np.zeros((k, c_max), dtype=nls_dtype)
    masks = np.zeros((k, d_cap + 1, w_max), dtype=np.uint64)
    nls_stack = np.zeros((k, d_cap + 1, c_max), dtype=nls_dtype)
    prune_stack = np.zeros((k, d_cap + 1, c_max), dtype=bool)
    trav_stack = np.zeros((k, d_cap + 1), dtype=np.intp)
    join_stack = np.zeros((k, d_cap + 1), dtype=np.int32)
    depth = np.zeros(k, dtype=np.int32)
    right_size = np.zeros(k, dtype=np.int32)
    #: lanes sitting on a non-maximal node; popped with next round's pops
    on_nonmax = np.zeros(k, dtype=bool)
    # Emission tables: bit position → global U id, and the member's
    # root R padded with a sentinel that sorts after every real id.
    left_table = np.zeros((k, w_max * WORD_BITS), dtype=left_dtype)
    root_right = np.full((k, r_max), _RIGHT_PAD, dtype=np.int32)
    #: pool index of each lane's member, and that member's sink
    lane_member = np.zeros(k, dtype=np.intp)
    lane_sink = [pool[0].sink] * k
    # Cost accounting is logged per round and charged once at the end:
    # (members, new depths, maximal flags, |C| at the push) per push
    # round, (members, pruned counts) per pop.
    push_log: list[tuple[np.ndarray, ...]] = []
    prune_log: list[tuple[np.ndarray, ...]] = []

    def load(lane: int, i: int) -> None:
        m = pool[i]
        u = m.universe
        s, w, c, r = len(u.scope), u.n_words, len(m.cands), len(m.right)
        scope_rows[lane] = 0
        scope_rows[lane, :s, :w] = u.rows
        cand_bits[lane, :c, :w] = u.rows[u.row_index(m.cands)]
        cand_vids[lane, :c] = m.cands
        cand_state[lane, :c] = _INF
        cand_state[lane, c:] = _PAD
        nls[lane, :c] = m.counts
        masks[lane, 0] = 0
        masks[lane, 0, :w] = from_sorted(u.left_positions(m.left), u.n_bits)
        left_table[lane, : len(u.left)] = u.left
        root_right[lane, :r] = m.right
        root_right[lane, r:] = _RIGHT_PAD
        right_size[lane] = r
        depth[lane] = 0
        lane_member[lane] = i
        lane_sink[lane] = m.sink

    def pop_rows(rows: np.ndarray) -> None:
        """Vectorized :meth:`NodeBuffer.pop` over lanes ``rows``."""
        d = depth[rows]
        cs = cand_state[rows]
        # Candidates that joined R here, and exclusions made while this
        # node was active, become candidates again.
        cs[(cs == d[:, None]) | (cs == -(d + 1)[:, None])] = _INF
        # nls reverts to the parent's values (full-row snapshot of the
        # pre-push state — equivalent to the sequential undo log).
        nls[rows] = nls_stack[rows, d]
        # Traversed vertex leaves C at the parent; pruned siblings too.
        cs[np.arange(len(rows)), trav_stack[rows, d]] = -d
        if prune:
            pending = prune_stack[rows, d] & (cs == _INF)
            np.copyto(cs, -d[:, None], where=pending)
            prune_log.append((lane_member[rows], pending.sum(axis=1)))
        cand_state[rows] = cs
        right_size[rows] -= join_stack[rows, d]
        depth[rows] = d - 1

    for lane in range(k):
        load(lane, lane)
    next_member = k
    active = np.ones(k, dtype=bool)
    while True:
        alive = np.nonzero(active)[0]
        if len(alive) == 0:
            break
        if stats is not None:
            stats.rounds += 1
            stats.tasks_per_round.append(len(alive))

        # Phase A — control flow: find each lane's next candidate
        # (Alg. 2 line #6).  Lanes without one pop a level (with last
        # round's non-maximal nodes) and look again; a lane still
        # without one pops again next round, which changes when its
        # work runs, never what it does.  A member that finishes at its
        # root retires, and its lane takes the next waiting member,
        # whose first candidate joins this round's push.
        is_inf = cand_state[alive] == _INF
        has = is_inf.any(axis=1) & ~on_nonmax[alive]
        on_nonmax[:] = False
        push_t = [alive[has]]
        push_i = [np.argmax(is_inf[has], axis=1)]
        rest = alive[~has]
        if len(rest):
            at_root = depth[rest] == 0
            up = rest[~at_root]
            if len(up):
                pop_rows(up)
                is_inf = cand_state[up] == _INF
                has = is_inf.any(axis=1)
                push_t.append(up[has])
                push_i.append(np.argmax(is_inf[has], axis=1))
            refilled = []
            for lane in rest[at_root].tolist():
                if next_member < len(pool):
                    load(lane, next_member)
                    next_member += 1
                    refilled.append(lane)
                else:
                    active[lane] = False
            if refilled:
                push_t.append(np.array(refilled, dtype=np.intp))
                push_i.append(np.zeros(len(refilled), dtype=np.intp))
        P = np.concatenate(push_t)
        if len(P) == 0:
            continue
        ci = np.concatenate(push_i)
        d = depth[P]
        nd = d + 1

        # Phase B — batched push (Alg. 2 lines #8–14): one stacked AND +
        # popcount over the candidates and one over the scope rows serve
        # every lane's node generation and maximality check this round.
        new_mask = masks[P, d] & cand_bits[P, ci]
        masks[P, nd] = new_mask
        n_left = word_count(new_mask)
        counts = word_count(cand_bits[P] & new_mask[:, None, :])

        cs = cand_state[P]
        cur = cs == _INF
        old_nls = nls[P]
        nls_stack[P, nd] = old_nls
        full = cur & (counts == n_left[:, None])
        if prune:
            unchanged = cur & (counts == old_nls)
            unchanged[np.arange(len(P)), ci] = False
            prune_stack[P, nd] = unchanged
        np.copyto(cs, nd[:, None], where=full)
        np.copyto(cs, -(nd + 1)[:, None], where=cur & (counts == 0))
        cand_state[P] = cs
        nls[P] = np.where(cur, counts, old_nls)
        trav_stack[P, nd] = ci
        joined = full.sum(axis=1)
        join_stack[P, nd] = joined
        right_size[P] += joined
        depth[P] = nd

        # Maximality: |Γ(L')| == |R'| over each lane's true scope rows
        # (padded rows count 0 < n_left, so they never match).
        n_match = (
            word_count(scope_rows[P] & new_mask[:, None, :])
            == n_left[:, None]
        ).sum(axis=1)
        maximal = n_match == right_size[P]
        push_log.append((lane_member[P], nd, maximal, cur.sum(axis=1)))

        # Phase C — report this round's maximal nodes in bulk: one
        # gather of left ids, one masked pick of joined right ids, one
        # row-wise sort; each member's sink then gets views.
        # Non-maximal nodes are never descended into: they are undone
        # by the next round's first pop (Alg. 2).
        on_nonmax[P] = ~maximal
        mx = np.nonzero(maximal)[0]
        if len(mx) == 0:
            continue
        rows = P[mx]
        hit_row, hit_pos = np.nonzero(unpack_rows(new_mask[mx]))
        left_flat = left_table[rows[hit_row], hit_pos]
        st = cand_state[rows]
        joined_vids = np.where(
            (st >= 1) & (st <= nd[mx][:, None]), cand_vids[rows], _RIGHT_PAD
        )
        right_all = np.concatenate((root_right[rows], joined_vids), axis=1)
        right_all.sort(axis=1)
        n_right = right_size[rows]
        right_flat = right_all[
            np.arange(right_all.shape[1]) < n_right[:, None]
        ]
        l_lo = r_lo = 0
        for lane, l_hi, r_hi in zip(
            rows.tolist(),
            np.cumsum(n_left[mx], dtype=np.int64).tolist(),
            np.cumsum(n_right, dtype=np.int64).tolist(),
        ):
            lane_sink[lane](left_flat[l_lo:l_hi], right_flat[r_lo:r_hi])
            l_lo, r_lo = l_hi, r_hi

    _charge(pool, push_log, prune_log)


def _charge(
    pool: list[BatchMember],
    push_log: list[tuple[np.ndarray, ...]],
    prune_log: list[tuple[np.ndarray, ...]],
) -> None:
    """Fold :func:`run_batch`'s logs into each member's ``Counters``.

    Every push charges what the sequential bitset path charges: the mask
    AND (1 row), the candidate counting pass (|C| rows) and the
    maximality scan (scope rows), each over the member's own words, plus
    the fused-op constant — identical totals to the sequential path's
    incremental adds.
    """
    n = len(pool)
    member, new_depth, maximal, n_cur = (
        np.concatenate(col) for col in zip(*push_log)
    )
    w = np.array([m.universe.n_words for m in pool], dtype=np.int64)
    s = np.array([len(m.universe.scope) for m in pool], dtype=np.int64)
    cur_words = n_cur * w[member]
    nodes = np.bincount(member, minlength=n)
    n_max = np.bincount(member, weights=maximal, minlength=n)
    work = nodes * w * (1 + s) + np.bincount(
        member, weights=cur_words, minlength=n
    ).astype(np.int64)
    simt = nodes * ((w + 31) // 32 + (s * w + 31) // 32 + 3) + np.bincount(
        member, weights=(cur_words + 31) // 32, minlength=n
    ).astype(np.int64)
    peak = np.zeros(n, dtype=np.int64)
    np.maximum.at(peak, member, new_depth)
    pruned = np.zeros(n, dtype=np.int64)
    if prune_log:
        pr_member, pr_count = (np.concatenate(col) for col in zip(*prune_log))
        pruned = np.bincount(pr_member, weights=pr_count, minlength=n)
    for m, n_nodes, n_maximal, n_work, n_simt, n_peak, n_pruned in zip(
        pool,
        nodes.tolist(),
        n_max.astype(np.int64).tolist(),
        work.tolist(),
        simt.tolist(),
        peak.tolist(),
        np.asarray(pruned, dtype=np.int64).tolist(),
    ):
        c = m.counters
        c.nodes_generated += n_nodes
        c.maximal += n_maximal
        c.non_maximal += n_nodes - n_maximal
        c.pruned += n_pruned
        c.set_op_work += n_work
        c.simt_cycles += n_simt
        c.peak_stack_depth = max(c.peak_stack_depth, n_peak)
