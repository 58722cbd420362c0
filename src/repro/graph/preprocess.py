"""Pre-processing pipeline from the paper (§5 *Pre-processing*).

The paper's host-side preparation before any enumeration:

1. **Side selection** — since U and V are symmetric, always make V the
   smaller side (``|U| ≥ |V|``), like ooMBEA.
2. **Vertex ordering** — sort all vertices in V by ascending degree
   (the default order of the enumeration tree's first level); adjacency
   lists are stored sorted by vertex id (a CSR invariant).

:func:`prepare` applies both and returns the relabeled graph plus the
mapping back to original V ids, so callers can report bicliques in the
input labeling if they need to.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bipartite import BipartiteGraph

__all__ = ["PreparedGraph", "prepare", "degree_ascending_order"]


def degree_ascending_order(graph: BipartiteGraph) -> np.ndarray:
    """Permutation ``perm`` with ``perm[old_v] = new_v`` sorting V by
    ascending degree (ties broken by original id for determinism)."""
    degrees = graph.degrees_v
    order = np.lexsort((np.arange(graph.n_v), degrees))
    perm = np.empty(graph.n_v, dtype=np.int64)
    perm[order] = np.arange(graph.n_v)
    return perm


@dataclass(frozen=True)
class PreparedGraph:
    """A preprocessed graph plus bookkeeping to undo the relabeling.

    Attributes
    ----------
    graph:
        The prepared graph: ``|U| ≥ |V|``, V sorted by ascending degree.
    swapped:
        True if the sides were exchanged relative to the input.
    v_original:
        ``v_original[new_v]`` is the id of that vertex in the *input*
        graph (on whichever side became V).
    u_original:
        Same for U (identity unless future orderings permute U).
    """

    graph: BipartiteGraph
    swapped: bool
    v_original: np.ndarray
    u_original: np.ndarray
    #: ``u_original`` is the identity, so U ids need no mapping
    u_identity: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "u_identity",
            np.array_equal(self.u_original, np.arange(len(self.u_original))),
        )

    def biclique_to_input_labels(
        self, left: np.ndarray, right: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Map a biclique ``(L ⊆ U, R ⊆ V)`` of the prepared graph back to
        the input labeling, returning ``(input_U_side, input_V_side)``.

        ``left`` is sorted, as every sink receives it; with identity U
        labels it is returned as is, without a gather or a sort."""
        if self.u_identity:
            l_orig = np.asarray(left, dtype=np.int64)
        else:
            l_orig = np.sort(self.u_original[np.asarray(left, dtype=np.int64)])
        r_orig = np.sort(self.v_original[np.asarray(right, dtype=np.int64)])
        if self.swapped:
            return r_orig, l_orig
        return l_orig, r_orig


def prepare(graph: BipartiteGraph, *, order: str = "degree") -> PreparedGraph:
    """Apply the paper's preprocessing and return a :class:`PreparedGraph`.

    Parameters
    ----------
    graph:
        Input bipartite graph.
    order:
        Ordering for V: ``"degree"`` (paper default, ascending degree),
        ``"degeneracy"`` (2-hop peeling, see
        :mod:`repro.graph.ordering`), or ``"none"`` (keep input order;
        used by ablations).
    """
    from .ordering import order_vertices

    swapped = graph.n_u < graph.n_v
    g = graph.swapped() if swapped else graph
    u_original = np.arange(g.n_u, dtype=np.int64)
    perm = order_vertices(g, order)
    v_original = np.empty(g.n_v, dtype=np.int64)
    v_original[perm] = np.arange(g.n_v)
    g2 = g.relabeled(v_perm=perm)
    return PreparedGraph(
        graph=g2, swapped=swapped, v_original=v_original, u_original=u_original
    )
