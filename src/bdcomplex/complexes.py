"""Bounded degree complexes, as the faces `build_complex` enumerates.

A complex is the record `build_complex` produces: its ground set (the edges
of the graph) and its nonempty faces, grouped by dimension in the order the
enumeration meets them, which is lexicographic within each layer.  The empty
face is always present implicitly, so the complex consisting of nothing but
the empty face has no layers at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import FaceCapExceededError
from .graph import Graph, validate_bounds

Face = tuple[int, ...]

DEFAULT_FACE_CAP = 5_000_000


@dataclass(frozen=True)
class SimplicialComplex:
    """Layered faces of a simplicial complex on the ground set 0..ground_set-1.

    `faces_by_dim[d]` lists the d-dimensional faces as increasing index
    tuples, lexicographically ordered.  Ground-set elements that appear in
    no face are allowed; they simply are not vertices of the complex.
    """

    ground_set: int
    faces_by_dim: tuple[tuple[Face, ...], ...]

    @property
    def dim(self) -> int:
        """Dimension of the complex; -1 when only the empty face is present."""
        return len(self.faces_by_dim) - 1

    def faces(self, d: int) -> tuple[Face, ...]:
        if 0 <= d < len(self.faces_by_dim):
            return self.faces_by_dim[d]
        return ()

    @property
    def num_faces(self) -> int:
        """Number of nonempty faces."""
        return sum(map(len, self.faces_by_dim))

    @property
    def face_set(self) -> frozenset[Face]:
        """All nonempty faces as one frozen set, built on each call."""
        return frozenset(f for layer in self.faces_by_dim for f in layer)


def build_complex(
    graph: Graph, bounds: Sequence[int], face_cap: int = DEFAULT_FACE_CAP
) -> SimplicialComplex:
    """Bounded degree complex of a graph.

    Faces are the edge subsets in which every vertex keeps its induced degree
    within its bound.  Enumeration extends subsets edge by edge in index
    order, carrying per-vertex budgets, so only valid faces are ever visited,
    and each face goes straight to its layer: the walk meets the faces in
    lexicographic order.  Raises FaceCapExceededError when more than
    `face_cap` faces would exist.
    """
    bounds = validate_bounds(graph, bounds)
    if face_cap <= 0:
        raise ValueError("face_cap must be positive")
    edges = graph.edges
    m = len(edges)
    budgets = list(bounds)
    layers: list[list[Face]] = []
    count = 0
    stack: list[int] = []
    i = 0
    # depth-first over index-ordered subsets, without recursion: take edge i
    # when both budgets allow, and at the end of the edges drop the last one
    # taken and go on after it
    while True:
        if i < m:
            u, v = edges[i]
            if budgets[u] > 0 and budgets[v] > 0:
                budgets[u] -= 1
                budgets[v] -= 1
                stack.append(i)
                if count == face_cap:
                    raise FaceCapExceededError(
                        f"more than {face_cap} faces in bounded degree complex"
                    )
                count += 1
                if len(stack) > len(layers):
                    layers.append([])
                layers[len(stack) - 1].append(tuple(stack))
            i += 1
            continue
        if not stack:
            break
        i = stack.pop()
        u, v = edges[i]
        budgets[u] += 1
        budgets[v] += 1
        i += 1
    return SimplicialComplex(m, tuple(map(tuple, layers)))


def reduced_euler(k: SimplicialComplex) -> int:
    """Alternating face-count sum including the empty face: sum (-1)^d f_d - 1."""
    total = -1
    for d, layer in enumerate(k.faces_by_dim):
        total += len(layer) if d % 2 == 0 else -len(layer)
    return total
