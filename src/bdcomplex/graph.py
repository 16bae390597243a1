"""Simple undirected graphs, family generators, and canonical forest codes.

Vertices are integers 0..num_vertices-1 and edges are kept in a fixed order:
edge i is a stable name that later doubles as vertex i of the bounded degree
complex.  Degree bounds are plain tuples of non-negative integers, one per
vertex.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import (
    DuplicateEdgeError,
    IndexOutOfRangeError,
    InvalidSizeError,
    LoopEdgeError,
    NotAForestError,
)

Edge = tuple[int, int]
DegreeBounds = tuple[int, ...]
CanonicalKey = bytes


class Record:
    """A value record: positional fields named by `_fields`, frozen once built.

    `Record(*values)` takes one value per field, else raises TypeError.
    Records are equal when of the same class with equal fields, hashed by
    their fields, printed as `Name(field=value, ...)`, and pickled as their
    class and values, so unpickling runs `__init__` again.  A subclass with
    a dict field sets `__hash__ = None`; one without a `__dict__` sets
    `__slots__ = _fields`.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(
                f"{type(self).__name__} takes {len(self._fields)} values, got {len(values)}"
            )
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._values()))
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values()


class Graph(Record):
    """A simple undirected graph with positional vertex and edge identity.

    A `Record`, so it can key a dict.
    """

    __slots__ = _fields = ("num_vertices", "edges")

    def __init__(self, num_vertices: int, edges: tuple[Edge, ...]):
        if num_vertices < 0:
            raise InvalidSizeError("num_vertices must be non-negative")
        normalized = []
        for u, v in edges:
            if u == v:
                raise LoopEdgeError(f"loop edge at vertex {u}")
            if not (0 <= u < num_vertices and 0 <= v < num_vertices):
                raise IndexOutOfRangeError(f"edge ({u},{v}) out of range")
            normalized.append((u, v) if u < v else (v, u))
        if len(set(normalized)) != len(normalized):
            raise DuplicateEdgeError("duplicate edge in edge list")
        super().__init__(num_vertices, tuple(normalized))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def degrees(self) -> list[int]:
        deg = [0] * self.num_vertices
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.num_vertices)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj


def make_graph(num_vertices: int, edges: Iterable[Sequence[int]]) -> Graph:
    """Validate and build a simple graph from vertex-index pairs."""
    return Graph(num_vertices, tuple((e[0], e[1]) for e in edges))


def validate_bounds(graph: Graph, bounds: Sequence[int]) -> DegreeBounds:
    """Check a per-vertex bound vector against `graph` and normalize to a tuple."""
    bounds = tuple(map(int, bounds))
    if len(bounds) != graph.num_vertices:
        raise ValueError(
            f"expected {graph.num_vertices} bounds, got {len(bounds)}"
        )
    if min(bounds, default=0) < 0:
        raise ValueError("degree bounds must be non-negative")
    return bounds


class CaterpillarSpec(Record):
    """Spine length, per-spine leaf counts, and per-spine degree bounds.

    Leaves always get bound 1; only the spine bounds are free parameters.
    A `Record`, hashed by value.
    """

    __slots__ = _fields = ("m", "lambda_spine")

    def __init__(self, m: Sequence[int], lambda_spine: Sequence[int]):
        m = tuple(int(x) for x in m)
        lambda_spine = tuple(int(x) for x in lambda_spine)
        if len(m) != len(lambda_spine) or not m:
            raise InvalidSizeError("m and lambda_spine must have equal length >= 1")
        if any(x < 0 for x in m) or any(x < 0 for x in lambda_spine):
            raise ValueError("leaf counts and bounds must be non-negative")
        super().__init__(m, lambda_spine)

    @property
    def n(self) -> int:
        return len(self.m)


def gen_path(n: int) -> Graph:
    """Path on n vertices: edges (0,1), (1,2), ..., (n-2,n-1)."""
    if n < 1:
        raise InvalidSizeError("a path needs at least one vertex")
    return Graph(n, tuple((i, i + 1) for i in range(n - 1)))


def gen_cycle(n: int) -> Graph:
    """Cycle on n vertices: path edges first, then the closing edge (0,n-1)."""
    if n < 3:
        raise InvalidSizeError("a cycle needs at least three vertices")
    return Graph(n, tuple((i, i + 1) for i in range(n - 1)) + ((0, n - 1),))


def gen_caterpillar(spec: CaterpillarSpec) -> tuple[Graph, DegreeBounds]:
    """Caterpillar graph plus its bound vector.

    Vertices: spine 0..n-1 first, then leaf blocks in spine order.  Edges:
    the n-1 spine edges first, then each spine vertex's leaf edges as a
    block.  Bounds: the spine bounds followed by 1 for every leaf.
    """
    n = spec.n
    edges = [(i, i + 1) for i in range(n - 1)]
    next_leaf = n
    for i, leaves in enumerate(spec.m):
        for _ in range(leaves):
            edges.append((i, next_leaf))
            next_leaf += 1
    bounds = spec.lambda_spine + (1,) * sum(spec.m)
    return Graph(next_leaf, tuple(edges)), bounds


def is_forest(graph: Graph) -> bool:
    """True iff the graph is acyclic: union-find with path halving, inlined."""
    parent = list(range(graph.num_vertices))
    for u, v in graph.edges:
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u == v:
            return False
        parent[u] = v
    return True


def disjoint_union(
    g1: Graph, b1: Sequence[int], g2: Graph, b2: Sequence[int]
) -> tuple[Graph, DegreeBounds]:
    """Disjoint union with g2's vertices and edges appended after g1's."""
    shift = g1.num_vertices
    edges = g1.edges + tuple((u + shift, v + shift) for u, v in g2.edges)
    return Graph(shift + g2.num_vertices, edges), tuple(b1) + tuple(b2)


class GraphComponent(NamedTuple):
    graph: Graph
    bounds: DegreeBounds
    vertex_map: tuple[int, ...]  # new vertex index -> original vertex index
    edge_map: tuple[int, ...]  # new edge index -> original edge index


def components(graph: Graph, bounds: Sequence[int]) -> list[GraphComponent]:
    """Connected components with restricted bounds and re-index maps.

    Isolated vertices are dropped: they carry no edges, so they do not
    contribute to the bounded degree complex.  Components are ordered by
    their smallest original vertex; edge order within a component follows
    the original edge order.
    """
    bounds = validate_bounds(graph, bounds)
    adj = graph.adjacency()
    seen = [False] * graph.num_vertices
    out: list[GraphComponent] = []
    for start in range(graph.num_vertices):
        if seen[start] or not adj[start]:
            seen[start] = True
            continue
        stack = [start]
        seen[start] = True
        vertices = []
        while stack:
            v = stack.pop()
            vertices.append(v)
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        vertices.sort()
        index = {v: i for i, v in enumerate(vertices)}
        vset = set(vertices)
        edge_ids = [i for i, (u, v) in enumerate(graph.edges) if u in vset]
        sub_edges = tuple(
            (index[graph.edges[i][0]], index[graph.edges[i][1]]) for i in edge_ids
        )
        out.append(
            GraphComponent(
                Graph(len(vertices), sub_edges),
                tuple(bounds[v] for v in vertices),
                tuple(vertices),
                tuple(edge_ids),
            )
        )
    return out


class ForestPlan(Record):
    """The walks of a forest that do not depend on its bounds, built once.

    `steps` is the post-order that `sphere_counts` folds: every vertex with
    its parent, children before parents, and a root with parent -1 closing
    its tree.  `trees` holds, per tree, the leaf-peeling sequence of
    (vertex, parent) pairs that `canonical_code` builds its codes along,
    ending with the one or two centers, whose parent is -1; it is made on
    first use, kept in the plan's `__dict__`, and not pickled.  One plan
    serves every bound vector of the forest.  A `Record`, hashed by value.
    """

    _fields = ("graph", "degrees", "steps")

    @cached_property
    def trees(self) -> tuple[tuple[Edge, ...], ...]:
        adj = self.graph.adjacency()
        out = []
        tree: list[int] = []
        for v, p in self.steps:
            tree.append(v)
            if p < 0:
                out.append(_peel(tree, adj))
                tree = []
        return tuple(out)

    def code(self, bounds: Sequence[int], clamp: bool = False) -> CanonicalKey:
        """The canonical code of the forest under `bounds` (see canonical_code).

        `bounds` must already be valid for the forest; with `clamp`, each is
        capped at its vertex degree as it is encoded (the complex is the same).
        """
        degrees = self.degrees
        kids: list[list[bytes]] = [[] for _ in range(len(degrees) + 1)]
        centers = kids[-1]  # parent -1: the codes of a tree's centers
        trees = []
        for peel in self.trees:
            for v, p in peel:
                b = bounds[v]
                if clamp and b > degrees[v]:
                    b = degrees[v]
                below = kids[v]
                if below:
                    below.sort()
                    kids[p].append(b"(%d:" % b + b"".join(below) + b")")
                else:
                    kids[p].append(b"(%d:)" % b)
            if len(centers) == 1:
                trees.append(centers[0])
            else:
                centers.sort()
                trees.append(b"=" + b"".join(centers))
            centers.clear()
        trees.sort()
        return b"|".join(trees)


def _peel(vertices: list[int], adj: list[list[int]]) -> tuple[Edge, ...]:
    """Leaf-peeling sequence of one tree, ending with its center(s).

    Leaves are peeled layer by layer; the last layer holds the one or two
    centers, which get parent -1.  A peeled vertex's one unpeeled neighbor
    is its parent.
    """
    deg = {v: len(adj[v]) for v in vertices}
    layer = [v for v in vertices if deg[v] <= 1]
    remaining = len(vertices)
    peel = []
    while remaining > 2:
        nxt = []
        for v in layer:
            remaining -= 1
            deg[v] = 0
            for w in adj[v]:
                if deg[w]:
                    peel.append((v, w))
                    deg[w] -= 1
                    if deg[w] == 1:
                        nxt.append(w)
        layer = nxt
    peel.extend((c, -1) for c in layer)
    return tuple(peel)


def forest_plan(graph: Graph, not_forest: str = "expected a forest") -> ForestPlan:
    """Build the plan of a forest; raises NotAForestError(not_forest) on a cycle.

    Each tree is walked breadth-first from its smallest vertex; reversed,
    that order puts children before parents.
    """
    plan = _forest_plan(graph, graph.adjacency())
    if plan is None:
        raise NotAForestError(not_forest)
    return plan


def _forest_plan(graph: Graph, adj: list[list[int]]) -> Optional[ForestPlan]:
    """`forest_plan` on the graph's adjacency lists `adj`; None on a cycle."""
    n = graph.num_vertices
    parent = [-1] * n
    seen = [False] * n
    orders = []
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        order = [root]
        for v in order:
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    parent[w] = v
                    order.append(w)
        orders.append(order)
    if graph.num_edges != n - len(orders):
        return None
    return ForestPlan(
        graph,
        tuple(map(len, adj)),
        tuple((v, parent[v]) for order in orders for v in reversed(order)),
    )


def is_cone(graph: Graph, bounds: Sequence[int], adj: Optional[list[list[int]]] = None) -> bool:
    """True iff some edge {u, v} has bounds[u] >= deg u and bounds[v] >= deg v.

    Then the complex is a cone on that edge, so contractible: adding the
    edge to a face raises the degrees of u and v to at most their degrees
    in the graph, so the union is a face too.  `adj`, the graph's
    adjacency lists, gives the degrees; they are built when it is None.
    """
    if adj is None:
        adj = graph.adjacency()
    free = [b >= len(a) for b, a in zip(bounds, adj)]
    for u, v in graph.edges:
        if free[u] and free[v]:
            return True
    return False


def canonical_code(graph: Graph, bounds: Sequence[int]) -> CanonicalKey:
    """Canonical byte code of a vertex-labeled forest.

    Two (forest, bounds) pairs get the same code exactly when there is a
    graph isomorphism between them that preserves the bounds.  Each tree is
    rooted at its center (the middle of a longest path), subtree codes are
    sorted bottom-up, and the bound of every vertex is woven into its code.
    Raises NotAForestError on cyclic input.
    """
    bounds = validate_bounds(graph, bounds)
    return forest_plan(graph, "canonical codes are defined for forests only").code(bounds)


def nonisomorphic_trees(num_vertices: int) -> list[Graph]:
    """All trees on `num_vertices` vertices, one per isomorphism class.

    Built by attaching a new leaf to every vertex of every smaller tree and
    deduplicating by canonical code (every tree arises this way because every
    tree with at least two vertices has a leaf).
    """
    if num_vertices < 1:
        raise InvalidSizeError("trees need at least one vertex")
    trees = [Graph(1, ())]
    for n in range(2, num_vertices + 1):
        seen: dict[bytes, Graph] = {}
        for tree in trees:
            for v in range(tree.num_vertices):
                grown = Graph(n, tree.edges + ((v, n - 1),))
                key = canonical_code(grown, (0,) * n)
                if key not in seen:
                    seen[key] = grown
        trees = [seen[k] for k in sorted(seen)]
    return trees


def nonisomorphic_forests(max_edges: int) -> list[Graph]:
    """All forests without isolated vertices and at most `max_edges` edges.

    One representative per isomorphism class, built as multisets of trees
    with at least one edge each.  The edgeless forest (no vertices at all)
    comes first.
    """
    trees_by_edges: dict[int, list[Graph]] = {
        e: nonisomorphic_trees(e + 1) for e in range(1, max_edges + 1)
    }
    pool: list[tuple[int, Graph]] = []
    for e in sorted(trees_by_edges):
        for t in trees_by_edges[e]:
            pool.append((e, t))

    out: list[Graph] = [Graph(0, ())]

    def extend(start: int, budget: int, acc: Graph):
        for i in range(start, len(pool)):
            e, tree = pool[i]
            if e > budget:
                break
            merged, _ = disjoint_union(acc, (0,) * acc.num_vertices, tree, (0,) * tree.num_vertices)
            out.append(merged)
            extend(i, budget - e, merged)

    extend(0, max_edges, Graph(0, ()))
    return out


def random_tree(rng, num_vertices: int) -> Graph:
    """Uniform random labeled tree via a random Pruefer sequence."""
    n = num_vertices
    if n < 1:
        raise InvalidSizeError("trees need at least one vertex")
    if n == 1:
        return Graph(1, ())
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for s in seq:
        degree[s] += 1
    edges = []
    for s in seq:
        leaf = min(v for v in range(n) if degree[v] == 1)
        edges.append((leaf, s))
        degree[leaf] -= 1
        degree[s] -= 1
    u, v = (x for x in range(n) if degree[x] == 1)
    edges.append((u, v))
    return Graph(n, tuple(edges))


def random_forest(rng, max_vertices: int) -> Graph:
    """Random forest: a random tree with each edge kept with probability 0.7.

    Vertices that end up isolated are removed so the result has no padding.
    """
    n = rng.randint(1, max_vertices)
    tree = random_tree(rng, n)
    edges = tuple(e for e in tree.edges if rng.random() < 0.7)
    used = sorted({v for e in edges for v in e})
    index = {v: i for i, v in enumerate(used)}
    return Graph(len(used), tuple((index[u], index[v]) for u, v in edges))
