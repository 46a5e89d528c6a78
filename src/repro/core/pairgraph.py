"""Graph diagnostics for pair selections (observability analysis).

A pair selection induces a graph over reads: vertices are reads, edges
are pairs. The structure of that graph determines what the radical system
can know *before* any numerics run:

* reads in different **connected components** never share an equation, so
  their phase information combines only through the shared target — the
  multi-reference situation (:mod:`repro.core.multiref`);
* an axis is **excited** only if some edge has displacement along it
  (Sec. IV-B1's "diversity of displacement" principle made checkable);
* **bridges** mark fragile pairings: one corrupted read on a bridge cuts
  a whole region's contribution, where a well-meshed (high edge
  connectivity) pairing degrades gracefully.

Built on :mod:`networkx`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import networkx as nx
import numpy as np

Pair = Tuple[int, int]


@dataclass(frozen=True)
class PairingDiagnostics:
    """Structural analysis of a pair selection.

    Attributes:
        read_count / pair_count: sizes.
        component_count: connected components among reads that appear in
            at least one pair (isolated unused reads are not counted).
        unused_reads: reads appearing in no pair.
        axis_excitation: RMS pair displacement per axis; near-zero means
            the axis is unobservable from this pairing.
        bridge_count: number of bridge edges (single points of failure).
        edge_connectivity: minimum edges whose removal disconnects the
            pairing graph (0 when already disconnected).
    """

    read_count: int
    pair_count: int
    component_count: int
    unused_reads: Tuple[int, ...]
    axis_excitation: np.ndarray
    bridge_count: int
    edge_connectivity: int

    @property
    def is_single_component(self) -> bool:
        """Whether all paired reads share one phase datum requirement."""
        return self.component_count == 1

    def observable_axes(self, threshold: float = 1e-9) -> np.ndarray:
        """Boolean mask of axes the pairing excites."""
        return self.axis_excitation > threshold


def analyze_pairing(
    positions: np.ndarray,
    pairs: Sequence[Pair],
) -> PairingDiagnostics:
    """Analyze a pair selection's graph structure.

    Args:
        positions: read positions, shape ``(n, dim)``.
        pairs: the selected pairs.

    Raises:
        ValueError: on an empty pair list or out-of-range indices.
    """
    points = np.asarray(positions, dtype=float)
    if points.ndim != 2:
        raise ValueError(f"positions must be a matrix, got shape {points.shape}")
    n = points.shape[0]
    if len(pairs) == 0:
        raise ValueError("no pairs to analyze")
    index = np.asarray(pairs, dtype=int)
    if index.min() < 0 or index.max() >= n:
        raise ValueError("pair index out of range")

    graph = nx.Graph()
    graph.add_edges_from((int(i), int(j)) for i, j in index)

    displacement = points[index[:, 1]] - points[index[:, 0]]
    excitation = np.sqrt(np.mean(displacement**2, axis=0))

    used = set(graph.nodes)
    unused = tuple(sorted(set(range(n)) - used))
    components = nx.number_connected_components(graph)
    bridges = sum(1 for _ in nx.bridges(graph))
    connectivity = (
        nx.edge_connectivity(graph) if components == 1 and graph.number_of_nodes() > 1 else 0
    )
    return PairingDiagnostics(
        read_count=n,
        pair_count=len(pairs),
        component_count=components,
        unused_reads=unused,
        axis_excitation=excitation,
        bridge_count=bridges,
        edge_connectivity=connectivity,
    )


def component_runs(
    read_count: int, pairs: Sequence[Pair]
) -> List[np.ndarray]:
    """Group reads into connected components of the pairing graph.

    Useful to derive the ``run_ids`` of a ``lion-multiref`` request
    (:mod:`repro.core.multiref`) when a pairing has naturally split the
    reads.

    Raises:
        ValueError: on an empty pair list or out-of-range indices.
    """
    if len(pairs) == 0:
        raise ValueError("no pairs to analyze")
    index = np.asarray(pairs, dtype=int)
    if index.min() < 0 or index.max() >= read_count:
        raise ValueError("pair index out of range")
    graph = nx.Graph()
    graph.add_nodes_from(range(read_count))
    graph.add_edges_from((int(i), int(j)) for i, j in index)
    return [
        np.array(sorted(component), dtype=int)
        for component in nx.connected_components(graph)
    ]
