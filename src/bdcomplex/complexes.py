"""Bounded degree complexes, as the faces `build_complex` enumerates.

A complex is the record `build_complex` produces: its ground set (the edges
of the graph) and its nonempty faces, grouped by dimension in the order the
enumeration meets them, lexicographic within each layer, each face an edge
bitmask (bit i set when edge i is in it).  The empty face is always present
implicitly, so the complex consisting of nothing but the empty face has no
layers at all.

The homology oracle does not build the complex.  `edge_face_counts` counts
the faces on each edge by a dynamic program over the edges, and
`excised_cells` walks only the cells of the pair (K, st e) for the edge e
in the most faces: the same face walk as `build_complex`, with e left out
and a face kept only where an end of e has no budget left, turning back
where both ends of e have budget and no edge at either is left to take.
When K is the cone st(e), the counts show it and nothing is walked.  The
oracle calls the walk only where the critical cells of its matching tree
lie in adjacent dimensions (see `homology._critical_cells`), and the face
count runs there, inside `excised_cells`, unless the oracle ran it first
to refuse an over-cap complex (see `homology.graph_homology`).  Of the
walked cells, `homology.relative_homology` builds the boundary d only
where the dimensions d and d-1 both hold critical cells of the tree.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from .errors import FaceCapExceededError
from .graph import DegreeBounds, Graph, validate_bounds

Face = int  # an edge bitmask: bit i is set when edge i is in the face

DEFAULT_FACE_CAP = 5_000_000


class SimplicialComplex(NamedTuple):
    """Layered faces of a simplicial complex on the ground set 0..ground_set-1.

    `faces_by_dim[d]` lists the d-dimensional faces as bitmasks, in the
    lexicographic order of their index tuples.  Ground-set elements that
    appear in no face are allowed; they simply are not vertices of the complex.
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


def _walk(
    edges: Sequence[tuple[int, int]], budgets: list[int], face_cap: int, a: int, b: int
) -> SimplicialComplex:
    """Layers of the edge sets within `budgets` at which vertex a or b has no budget left.

    Depth-first over index-ordered subsets, without recursion: take edge i
    when both budgets allow, and at the end of the edges drop the last one
    taken and go on after it.  A face past the last edge at a or b that
    leaves both of them budget keeps it on every face above it, so the
    walk turns back there as at the end of the edges.  It meets the faces
    in lexicographic order, and each one that is kept goes straight to its
    layer as the bitmask of the edges taken.  `budgets` is restored on return.
    """
    m = len(edges)
    # one past the last edge at a or b; where a or b never has budget, no face is cut off
    stop = max((i + 1 for i, e in enumerate(edges) if a in e or b in e), default=0)
    layers: list[list[Face]] = []
    count = 0
    stack: list[int] = []
    mask = i = 0
    while True:
        if i == stop and budgets[a] and budgets[b]:
            i = m  # no edge at a or b is left to take: no face below is kept
        if i < m:
            u, v = edges[i]
            if budgets[u] > 0 and budgets[v] > 0:
                budgets[u] -= 1
                budgets[v] -= 1
                stack.append(i)
                mask += 1 << i
                if not (budgets[a] and budgets[b]):
                    if count == face_cap:
                        raise FaceCapExceededError(
                            f"more than {face_cap} faces in bounded degree complex"
                        )
                    count += 1
                    while len(stack) > len(layers):
                        layers.append([])
                    layers[len(stack) - 1].append(mask)
            i += 1
            continue
        if not stack:
            break
        i = stack.pop()
        mask -= 1 << i
        u, v = edges[i]
        budgets[u] += 1
        budgets[v] += 1
        i += 1
    return SimplicialComplex(m, tuple(map(tuple, layers)))


def _checked(graph: Graph, bounds: Sequence[int], face_cap: int) -> DegreeBounds:
    bounds = validate_bounds(graph, bounds)
    if face_cap <= 0:
        raise ValueError("face_cap must be positive")
    return bounds


def build_complex(
    graph: Graph, bounds: Sequence[int], face_cap: int = DEFAULT_FACE_CAP
) -> SimplicialComplex:
    """Bounded degree complex of a graph.

    Faces are the edge subsets in which every vertex keeps its induced degree
    within its bound.  Enumeration extends subsets edge by edge in index
    order, carrying per-vertex budgets, so only valid faces are ever visited.
    Raises FaceCapExceededError when more than `face_cap` faces would exist.
    """
    bounds = _checked(graph, bounds, face_cap)
    n = graph.num_vertices
    # vertex n stands in for both ends of an excised edge: it has no budget,
    # so every face is kept
    return _walk(graph.edges, [*bounds, 0], face_cap, n, n)


def edge_face_counts(
    graph: Graph, bounds: Sequence[int], face_cap: int = DEFAULT_FACE_CAP
) -> list[int]:
    """The number of faces that contain each edge, without building a face.

    Raises FaceCapExceededError, before any work on the later edges, when
    the complex has more than `face_cap` faces.
    """
    return _edge_counts(graph, _checked(graph, bounds, face_cap), face_cap)[0]


def _edge_counts(graph: Graph, bounds: DegreeBounds, face_cap: int) -> tuple[list[int], int]:
    """`edge_face_counts` on checked bounds, and |K|: a forward and a backward pass over the edges.

    A state is every vertex's remaining budget, capped at the number of its
    edges still to come, so that states with the same future merge; it is
    packed into one integer, a bit field per vertex.  A vertex whose bound
    is at least its degree never runs out and has no field.  F_i(s) counts
    the faces on the edges before i that end in state s and B_i(s) the ways
    to extend s over the edges from i on, so the faces that contain edge i
    number the sum over s of F_i(s) B_{i+1}(s with edge i taken).  The
    forward totals count the faces on the edges before i, and
    FaceCapExceededError is raised as soon as one passes `face_cap`, exactly
    when `build_complex` would raise; the last one is |K|, the empty face included.
    """
    left = graph.degrees()  # each vertex's edges from the current one on
    # per vertex: its field's offset and mask, the state change of taking one
    # of its edges, and 1 when it never runs out
    field = []
    state = width = 0
    for bound, degree in zip(bounds, left):
        if bound >= degree:
            field.append((0, 0, 0, 1))
        else:
            field.append((width, (1 << bound.bit_length()) - 1, 1 << width, 0))
            state |= bound << width
            width += bound.bit_length()
    layer = {state: 1}
    total = 1  # faces on the edges so far, the empty face included
    steps = []  # per edge: its states, and where skipping and taking it lead
    for u, v in graph.edges:
        left[u] -= 1
        left[v] -= 1
        (ou, mu, du, fu), (ov, mv, dv, fv) = field[u], field[v]
        lu, lv = left[u], left[v]
        nxt: dict[int, int] = {}
        moves = []
        for s, c in layer.items():
            bu = (s >> ou) & mu | fu
            bv = (s >> ov) & mv | fv
            skip = s
            if bu > lu:  # a budget is at most one more than the edges left
                skip -= du
            if bv > lv:
                skip -= dv
            nxt[skip] = nxt.get(skip, 0) + c
            take = -1
            if bu and bv:
                take = s - du - dv
                nxt[take] = nxt.get(take, 0) + c
                total += c
            moves.append((skip, take))
        if total - 1 > face_cap:
            raise FaceCapExceededError(f"more than {face_cap} faces in bounded degree complex")
        steps.append((layer, moves))
        layer = nxt
    counts = [0] * len(steps)
    ways = {0: 1}  # after the last edge every field is 0
    for i in range(len(steps) - 1, -1, -1):
        layer, moves = steps[i]
        before = {}
        through = 0
        for (s, c), (skip, take) in zip(layer.items(), moves):
            w = ways[skip]
            if take >= 0:
                w_take = ways[take]
                w += w_take
                through += c * w_take
            before[s] = w
        counts[i] = through
        ways = before
    return counts, total


def excised_cells(
    graph: Graph,
    bounds: Sequence[int],
    face_cap: int = DEFAULT_FACE_CAP,
    *,
    counts: Optional[tuple[list[int], int]] = None,
) -> Optional[SimplicialComplex]:
    """The cells of the pair (K, st e), K the complex and e the edge in the most faces.

    e is picked by `edge_face_counts` (the smallest edge on ties), which also
    refuses an over-cap complex before any face is built.  A cell is a face
    f whose union with e is not a face: f avoids e, and an end of e has no
    budget left at f (with budget at both ends, f + e is a face).  The walk
    of `build_complex` runs with e left out and keeps just those faces, so
    they come in the order of its layers; the record is not closed under
    taking faces.  None when K has no vertex, that is K = {empty face}, and
    no walk when K is the cone st(e), that is |K| = 2 max(counts).
    `counts`, when given, is what `_edge_counts` returned on these bounds
    and cap, and is not counted again.
    """
    bounds = _checked(graph, bounds, face_cap)
    counts, total = counts or _edge_counts(graph, bounds, face_cap)
    top = max(counts, default=0)
    if not top:
        return None
    if total == 2 * top:
        return SimplicialComplex(graph.num_edges, ())
    e = counts.index(top)
    a, b = graph.edges[e]
    n = graph.num_vertices
    edges = list(graph.edges)
    edges[e] = (n, n)  # never taken: vertex n has no budget
    return _walk(edges, [*bounds, 0], face_cap, a, b)


def reduced_euler(k: SimplicialComplex) -> int:
    """Alternating face-count sum including the empty face: sum (-1)^d f_d - 1."""
    total = -1
    for d, layer in enumerate(k.faces_by_dim):
        total += len(layer) if d % 2 == 0 else -len(layer)
    return total
