"""Seeded synthetic dataset generators.

Substitutes for the paper's inputs (section 6): the NYC taxi trip dataset
(DataFrame), SPEC-2006 MCF graphs, and GPT-2 token batches.  Only the
statistical shape matters to the memory-system evaluation, so each
generator produces data with the same relevant distributions
(uniform/skewed integer keys, positive continuous values, power-law-ish
graph degrees) from a fixed seed.  Each generator imports numpy itself,
so importing ``repro`` does not load it.
"""

from __future__ import annotations


def graph_edges(num_edges: int, num_nodes: int, seed: int = 7, skew: float = 0.0):
    """(src, dst, weight) arrays; ``skew > 0`` biases endpoints toward
    low-numbered nodes (zipf-ish hotspots)."""
    import numpy as np

    rng = np.random.default_rng(seed)
    if skew > 0:
        raw = rng.zipf(1.0 + skew, size=(2, num_edges))
        src = (raw[0] - 1) % num_nodes
        dst = (raw[1] - 1) % num_nodes
    else:
        src = rng.integers(0, num_nodes, size=num_edges)
        dst = rng.integers(0, num_nodes, size=num_edges)
    weight = rng.uniform(0.5, 2.0, size=num_edges)
    return src.astype(np.int64), dst.astype(np.int64), weight


def taxi_table(num_rows: int, seed: int = 11):
    """Columns shaped like the NYC taxi dataset: hour-of-day, trip
    distance (log-normal), fare (distance-correlated), passengers."""
    import numpy as np

    rng = np.random.default_rng(seed)
    hour = rng.integers(0, 24, size=num_rows).astype(np.int64)
    distance = np.exp(rng.normal(0.8, 0.7, size=num_rows))
    fare = 2.5 + 2.0 * distance + rng.normal(0.0, 1.0, size=num_rows)
    fare = np.maximum(fare, 2.5)
    passengers = rng.integers(1, 7, size=num_rows).astype(np.int64)
    return hour, distance, fare, passengers


def mcf_network(num_nodes: int, num_arcs: int, seed: int = 13):
    """An MCF-flavored network: arcs with tail/head/cost, and a spanning
    predecessor tree over the nodes (for pointer chasing)."""
    import numpy as np

    rng = np.random.default_rng(seed)
    tail = rng.integers(0, num_nodes, size=num_arcs).astype(np.int64)
    head = rng.integers(0, num_nodes, size=num_arcs).astype(np.int64)
    cost = rng.uniform(1.0, 100.0, size=num_arcs)
    # predecessor tree: node i's parent is a uniformly random lower index
    pred = np.zeros(num_nodes, dtype=np.int64)
    for i in range(1, num_nodes):
        pred[i] = rng.integers(0, i)
    potential = rng.uniform(0.0, 50.0, size=num_nodes)
    return tail, head, cost, pred, potential


def random_indices(count: int, universe: int, seed: int = 17):
    import numpy as np

    rng = np.random.default_rng(seed)
    return rng.integers(0, universe, size=count).astype(np.int64)
