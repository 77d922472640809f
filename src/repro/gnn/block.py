"""Execution blocks: the unit a GNN layer computes on.

A :class:`Block` is a reindexed bipartite view of (a piece of) the graph:
``num_src`` input rows (the neighbor set, *including* the destinations
themselves so UPDATE functions can read ``h_v^{l-1}``), ``num_dst`` output
rows, and edges in local coordinates. The same layer code therefore runs
unchanged in three settings:

* monolithic full-graph training (one block covering the whole graph),
* HongTu chunked training (one block per subgraph chunk, neighbor rows
  gathered through the deduplicated communication framework),
* mini-batch training (one block per sampled layer frontier).

This mirrors the paper's "subgraph chunks are abstracted as blocks in the
computation engine" (§6).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np
from scipy import sparse

from repro.errors import GraphFormatError
from repro.graph.graph import Graph

__all__ = ["Block"]


@dataclass
class Block:
    """Local-coordinate bipartite computation graph.

    Attributes
    ----------
    edge_src:
        (E,) local row index (into the input representation matrix) of each
        edge's source.
    edge_dst:
        (E,) local output row (0..num_dst) of each edge's destination. Edges
        are destination-major sorted (checked: ``edge_dst`` is
        non-decreasing).
    num_dst, num_src:
        Output/input row counts.
    dst_pos:
        (num_dst,) for each destination, the input row holding that same
        vertex's representation (for UPDATE terms like GAT's ``W h_v``).
        Distinct destinations hold distinct rows (checked), so gradients
        scatter back with a plain indexed ``+=``.
    edge_weight:
        Optional (E,) constant per-edge weights (GCN normalization). These
        are *globally* computed constants, so chunked execution matches
        monolithic execution exactly.
    src_global, dst_global:
        Optional (num_src,), (num_dst,) global vertex ids of the local rows;
        used by trainers to address host-resident vertex data.
    """

    edge_src: np.ndarray
    edge_dst: np.ndarray
    num_dst: int
    num_src: int
    dst_pos: np.ndarray
    edge_weight: Optional[np.ndarray] = None
    src_global: Optional[np.ndarray] = None
    dst_global: Optional[np.ndarray] = None
    _operators: Dict[object, sparse.csr_matrix] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.edge_src = np.asarray(self.edge_src, dtype=np.int64)
        self.edge_dst = np.asarray(self.edge_dst, dtype=np.int64)
        self.dst_pos = np.asarray(self.dst_pos, dtype=np.int64)
        if len(self.edge_src) != len(self.edge_dst):
            raise GraphFormatError("edge_src and edge_dst must be parallel")
        if len(self.edge_src) and self.edge_src.max() >= self.num_src:
            raise GraphFormatError("edge_src out of range")
        if len(self.edge_dst) and self.edge_dst.max() >= self.num_dst:
            raise GraphFormatError("edge_dst out of range")
        if np.any(self.edge_dst[1:] < self.edge_dst[:-1]):
            raise GraphFormatError("edges must be destination-major sorted")
        if len(self.dst_pos) != self.num_dst:
            raise GraphFormatError("dst_pos must have num_dst entries")
        if self.num_dst and len(self.dst_pos) and self.dst_pos.max() >= self.num_src:
            raise GraphFormatError("dst_pos out of range")
        if len(np.unique(self.dst_pos)) != len(self.dst_pos):
            raise GraphFormatError("dst_pos must not repeat a row")
        if self.edge_weight is not None and len(self.edge_weight) != len(self.edge_src):
            raise GraphFormatError("edge_weight must be parallel to edges")

    @property
    def num_edges(self) -> int:
        return len(self.edge_src)

    @staticmethod
    def from_graph(graph: Graph, gcn_weights: bool = True) -> "Block":
        """Monolithic block covering the whole graph (one 'chunk')."""
        n = graph.num_vertices
        degrees = graph.in_degrees()
        edge_dst = np.repeat(np.arange(n, dtype=np.int64), degrees)
        edge_src = graph.in_csr.indices
        weights = graph.gcn_edge_weights() if gcn_weights else None
        identity = np.arange(n, dtype=np.int64)
        return Block(
            edge_src=edge_src,
            edge_dst=edge_dst,
            num_dst=n,
            num_src=n,
            dst_pos=identity,
            edge_weight=weights,
            src_global=identity,
            dst_global=identity,
        )

    def in_degrees(self) -> np.ndarray:
        """Per-destination in-degree within this block."""
        return np.bincount(self.edge_dst, minlength=self.num_dst)

    def sum_operator(self, dtype, weighted: bool = False) -> sparse.csr_matrix:
        """Cached ``num_dst × num_src`` CSR operator of the edge sum.

        Row ``v`` sums destination ``v``'s in-edges in edge order, scaled
        by ``edge_weight`` when ``weighted`` and the block has weights,
        else by ones in ``dtype`` (so unweighted sums keep the input's
        precision). ``op @ h`` and ``op.T @ g`` (scipy's CSC view over
        the same arrays) thus add in the same order as a per-edge
        ``np.add.at``, bit for bit. The operator shares ``edge_weight``;
        scipy keeps an int32 copy of the indices when they fit.
        """
        weighted = weighted and self.edge_weight is not None
        key = "weighted" if weighted else np.dtype(dtype)
        operator = self._operators.get(key)
        if operator is None:
            data = (self.edge_weight if weighted
                    else np.ones(self.num_edges, dtype=dtype))
            indptr = np.concatenate(([0], np.cumsum(self.in_degrees())))
            operator = sparse.csr_matrix(
                (data, self.edge_src, indptr),
                shape=(self.num_dst, self.num_src), copy=False,
            )
            self._operators[key] = operator
        return operator

    def __repr__(self) -> str:
        return (
            f"Block(src={self.num_src}, dst={self.num_dst}, "
            f"edges={self.num_edges})"
        )
