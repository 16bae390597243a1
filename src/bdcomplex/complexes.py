"""Explicit bounded degree complexes and elementary simplicial operations.

A complex is stored as its full face list grouped by dimension.  The empty
face is always present implicitly, so the complex consisting of nothing but
the empty face has an empty face list.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import DepthCapExceededError, FaceCapExceededError, NotAVertexError
from .graph import Graph, validate_bounds

Face = tuple[int, ...]

DEFAULT_FACE_CAP = 5_000_000
DEFAULT_DEPTH_CAP = 64


class SimplicialComplex:
    """Face-explicit simplicial complex on a fixed ground set.

    `faces_by_dim[d]` lists the d-dimensional faces as sorted index tuples,
    lexicographically ordered.  Ground-set elements that appear in no face
    are allowed; they simply are not vertices of the complex.
    """

    __slots__ = ("ground_set", "faces_by_dim", "_face_set")

    def __init__(self, ground_set: int, faces: Iterable[Sequence[int]], *, _validated: bool = False):
        by_dim: dict[int, set[Face]] = {}
        for face in faces:
            t = tuple(sorted(face))
            if t:
                by_dim.setdefault(len(t) - 1, set()).add(t)
        dims = max(by_dim) + 1 if by_dim else 0
        self.ground_set = ground_set
        self.faces_by_dim: tuple[tuple[Face, ...], ...] = tuple(
            tuple(sorted(by_dim.get(d, ()))) for d in range(dims)
        )
        self._face_set = frozenset(f for layer in self.faces_by_dim for f in layer)
        if not _validated:
            self._validate()

    def _validate(self):
        for layer in self.faces_by_dim:
            for face in layer:
                if len(set(face)) != len(face):
                    raise ValueError(f"repeated vertex in face {face}")
                if face and not (0 <= face[0] and face[-1] < self.ground_set):
                    raise ValueError(f"face {face} outside ground set")
                if len(face) > 1:
                    for i in range(len(face)):
                        sub = face[:i] + face[i + 1 :]
                        if sub not in self._face_set:
                            raise ValueError(
                                f"complex not downward closed: {face} present, {sub} missing"
                            )

    @classmethod
    def from_maximal_faces(cls, ground_set: int, facets: Iterable[Sequence[int]]) -> "SimplicialComplex":
        """Build the downward closure of the given facets."""
        faces: set[Face] = set()
        for facet in facets:
            t = tuple(sorted(facet))
            for size in range(1, len(t) + 1):
                faces.update(itertools.combinations(t, size))
        return cls(ground_set, faces, _validated=True)

    @property
    def dim(self) -> int:
        """Dimension of the complex; -1 when only the empty face is present."""
        return len(self.faces_by_dim) - 1

    def faces(self, d: int) -> tuple[Face, ...]:
        if 0 <= d < len(self.faces_by_dim):
            return self.faces_by_dim[d]
        return ()

    def f_vector(self) -> tuple[int, ...]:
        return tuple(len(layer) for layer in self.faces_by_dim)

    @property
    def num_faces(self) -> int:
        """Number of nonempty faces."""
        return len(self._face_set)

    @property
    def face_set(self) -> frozenset[Face]:
        """All nonempty faces as one frozen set."""
        return self._face_set

    def has_face(self, face: Sequence[int]) -> bool:
        t = tuple(sorted(face))
        return not t or t in self._face_set

    def vertices(self) -> tuple[int, ...]:
        return tuple(f[0] for f in self.faces(0))

    def maximal_faces(self) -> tuple[Face, ...]:
        out = []
        for d in range(self.dim, -1, -1):
            for face in self.faces(d):
                fs = set(face)
                if not any(fs < set(g) for g in out):
                    out.append(face)
        return tuple(sorted(out, key=lambda f: (len(f), f)))

    def dump(self) -> str:
        """One face per line, indices comma-separated, `-` for the empty face."""
        lines = ["-"]
        for layer in self.faces_by_dim:
            lines.extend(",".join(str(i) for i in face) for face in layer)
        return "\n".join(lines)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SimplicialComplex)
            and self.ground_set == other.ground_set
            and self._face_set == other._face_set
        )

    def __hash__(self):
        return hash((self.ground_set, self._face_set))

    def __repr__(self):
        return f"SimplicialComplex(ground_set={self.ground_set}, f={self.f_vector()})"


def build_complex(
    graph: Graph, bounds: Sequence[int], face_cap: int = DEFAULT_FACE_CAP
) -> SimplicialComplex:
    """Bounded degree complex of a graph.

    Faces are the edge subsets in which every vertex keeps its induced degree
    within its bound.  Enumeration extends subsets edge by edge in index
    order, carrying per-vertex budgets, so only valid faces are ever visited.
    Raises FaceCapExceededError when more than `face_cap` faces would exist.
    """
    bounds = validate_bounds(graph, bounds)
    if face_cap <= 0:
        raise ValueError("face_cap must be positive")
    edges = graph.edges
    m = len(edges)
    budgets = list(bounds)
    faces: list[Face] = []
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
                if len(faces) == face_cap:
                    raise FaceCapExceededError(
                        f"more than {face_cap} faces in bounded degree complex"
                    )
                faces.append(tuple(stack))
            i += 1
            continue
        if not stack:
            break
        i = stack.pop()
        u, v = edges[i]
        budgets[u] += 1
        budgets[v] += 1
        i += 1
    return SimplicialComplex(m, faces, _validated=True)


def link(k: SimplicialComplex, v: int) -> SimplicialComplex:
    """Faces disjoint from vertex v whose union with v lies in the complex."""
    if not k.has_face((v,)) or not (0 <= v < k.ground_set):
        raise NotAVertexError(f"{v} is not a vertex of the complex")
    faces = [
        tuple(x for x in face if x != v)
        for layer in k.faces_by_dim
        for face in layer
        if v in face
    ]
    return SimplicialComplex(k.ground_set, faces, _validated=True)


def deletion(k: SimplicialComplex, v: int) -> SimplicialComplex:
    """Faces that do not contain v."""
    faces = [
        face for layer in k.faces_by_dim for face in layer if v not in face
    ]
    return SimplicialComplex(k.ground_set, faces, _validated=True)


def reduced_euler(k: SimplicialComplex) -> int:
    """Alternating face-count sum including the empty face: sum (-1)^d f_d - 1."""
    total = -1
    for d, layer in enumerate(k.faces_by_dim):
        total += len(layer) if d % 2 == 0 else -len(layer)
    return total


@dataclass(frozen=True)
class GrapeWitness:
    """Certificate that a complex decomposes like a bunch of grapes.

    Either the complex has at most one vertex (both sub-witnesses are None),
    or `vertex` is a complex vertex and `apex` certifies that the link of
    `vertex` sits inside a cone with apex `apex` inside the face-deletion of
    `vertex`, with both parts recursively witnessed.
    """

    vertex: Optional[int]
    apex: Optional[int]
    link_witness: Optional["GrapeWitness"]
    deletion_witness: Optional["GrapeWitness"]

    @classmethod
    def leaf(cls) -> "GrapeWitness":
        return cls(None, None, None, None)


def grape_witness(
    k: SimplicialComplex, depth_cap: int = DEFAULT_DEPTH_CAP
) -> Optional[GrapeWitness]:
    """Search for a grape decomposition witness.

    Vertices and apexes are tried in index order and the first fully
    verified decomposition wins, so the result is deterministic.  Returns
    None when the bounded search finds no witness; that is not a proof that
    the complex is not a grape.  Raises DepthCapExceededError if recursion
    exceeds `depth_cap`.
    """
    if depth_cap < 0:
        raise DepthCapExceededError("grape witness search exceeded depth cap")
    verts = k.vertices()
    if len(verts) <= 1:
        return GrapeWitness.leaf()
    for a in verts:
        lk = link(k, a)
        dl = deletion(k, a)
        for b in dl.vertices():
            if b == a:
                continue
            if all(
                dl.has_face(tuple(sorted(set(face) | {b})))
                for layer in lk.faces_by_dim
                for face in layer
            ):
                lw = grape_witness(lk, depth_cap - 1)
                if lw is None:
                    continue
                dw = grape_witness(dl, depth_cap - 1)
                if dw is None:
                    continue
                return GrapeWitness(a, b, lw, dw)
    return None
