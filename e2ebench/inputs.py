"""Seeded workload inputs shaped like the Table 1 registry analogs.

Every graph comes from :mod:`repro.graph.generators` with the shape
parameters of the matching analog in :mod:`repro.datasets.registry`
(vertex/edge counts, Zipf exponents, community overlap, hub block).  The
registry pins one generator seed per analog; here the seed is derived
from the benchmark's ``--seed``, the workload name and the input's
position, so one ``--seed`` fixes every input of a run and nothing else
does.  The program under test only ever receives the generated graphs.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.graph.generators import (
    add_dense_block,
    block_overlap_bipartite,
    power_law_bipartite,
)

#: Shape parameters copied from ``repro.datasets.registry.DATASETS``.
#: ``pl``: (n_u, n_v, n_edges, exponent_u, exponent_v).
#: ``bo``: (n_u, n_v, communities, memberships_u, memberships_v,
#: intra_p, hub) with hub = (a, b, p) or None.
SHAPES: dict[str, tuple[str, tuple]] = {
    "Mti": ("pl", (1600, 760, 4200, 2.6, 2.4)),
    "WA": ("pl", (5200, 5100, 3600, 3.4, 3.4)),
    "TM": ("pl", (9000, 340, 15500, 3.0, 2.2)),
    "AM": ("pl", (3800, 1280, 10500, 2.7, 2.5)),
    "YG": ("bo", (950, 300, 30, 1.6, 1.3, 0.23, None)),
    "SO": ("bo", (2700, 480, 60, 1.6, 1.3, 0.205, (40, 20, 0.30))),
    "IM": ("bo", (3500, 1200, 110, 1.5, 1.3, 0.18, (50, 25, 0.30))),
    "EE": ("bo", (2300, 750, 55, 1.6, 1.4, 0.17, (80, 40, 0.32))),
}

#: Per workload: the (analog, scale) of every input, in submission order.
WORKLOAD_INPUTS: dict[str, list[tuple[str, float]]] = {
    # Deep, skewed trees: each EE analog carries a dense hub block.
    "skewed-hub": [("EE", 0.3)] * 9,
    # A catalog of small mixed shapes, each submitted cold then repeated.
    "service-mix": [
        ("Mti", 0.2), ("WA", 0.2), ("TM", 0.2), ("AM", 0.2),
        ("YG", 0.25), ("SO", 0.2), ("IM", 0.15), ("EE", 0.1),
    ],
    # The skewed-hub kernel work, routed through two process shards.
    "sharded-proc": [("EE", 0.3)] * 4,
}

#: The small input of each workload's warm-up call.
WARMUP_INPUT: dict[str, tuple[str, float]] = {
    "skewed-hub": ("EE", 0.1),
    "service-mix": ("Mti", 0.1),
    "sharded-proc": ("EE", 0.1),
}


def build(code: str, scale: float, seed: int):
    """One analog graph at ``scale``, generated from ``seed``.

    Mirrors the registry's builders, so ``build(code, s, seed)`` is the
    registry analog ``code`` at scale ``s`` with another seed.
    """
    kind, p = SHAPES[code]
    if kind == "pl":
        n_u, n_v, m, eu, ev = p
        return power_law_bipartite(
            max(8, int(n_u * scale)),
            max(4, int(n_v * scale)),
            max(8, int(m * scale)),
            exponent_u=eu,
            exponent_v=ev,
            seed=seed,
            name=code,
        )
    n_u, n_v, comms, mu, mv, intra_p, hub = p
    graph = block_overlap_bipartite(
        max(8, int(n_u * scale)),
        max(4, int(n_v * scale)),
        max(2, int(comms * scale)),
        memberships_u=mu,
        memberships_v=mv,
        intra_p=intra_p,
        seed=seed,
        name=code,
    )
    if hub is not None:
        a, b, hub_p = hub
        graph = add_dense_block(
            graph,
            max(4, int(a * scale)),
            max(2, int(b * scale)),
            hub_p,
            seed=seed + 1000,
        )
    return graph


def input_seeds(seed: int, workload: str, n: int) -> list[int]:
    """``n`` generator seeds derived from the run seed and the workload."""
    ss = np.random.SeedSequence([seed, zlib.crc32(workload.encode())])
    return [int(s) for s in ss.generate_state(n, dtype=np.uint32)]


def workload_graphs(workload: str, seed: int) -> list:
    """Every timed input of ``workload`` for ``seed``."""
    specs = WORKLOAD_INPUTS[workload]
    seeds = input_seeds(seed, workload, len(specs) + 1)
    return [build(code, scale, s) for (code, scale), s in zip(specs, seeds)]


def warmup_graph(workload: str, seed: int):
    """The warm-up input: same seed stream, one past the timed inputs."""
    code, scale = WARMUP_INPUT[workload]
    n = len(WORKLOAD_INPUTS[workload])
    return build(code, scale, input_seeds(seed, workload, n + 1)[n])
