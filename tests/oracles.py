"""Independent brute-force oracles and complex tooling used only by the tests.

Everything here deliberately avoids the code paths it is used to check:
faces come from raw subset enumeration, ranks from Fraction elimination,
Smith forms from a dense textbook reduction, reduced homology from every
boundary matrix reduced whole (no clearing), an excision's cells from the
link of the excised element in the whole complex and per-element face
counts from its layers, isomorphism from explicit bijection search, sphere
counts from the edge-by-edge recursion on whole forests, canonical codes
from the recursive center-rooted encoding, caterpillar sphere counts from
the sum over every spine-edge subset, and Euler characteristics from a
signed count of faces.

The complex tooling (a validating face-list builder, link, deletion and the
grape decomposition witness, among others) works on the package's
`SimplicialComplex` record but is needed by no route of the package, and
`graph_with_cycles` draws the graphs of the hypothesis tests on the oracle
(`graph_keeping_a_cycle` those whose cycle survives the free-vertex split).

The package holds every face as an edge bitmask (bit i set when element i
is in it).  This module works on increasing index tuples, and `face_mask`
and `face_tuple` convert between the two at its edges.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd
from typing import Iterable, Optional, Sequence

from hypothesis import strategies as st

from bdcomplex.complexes import SimplicialComplex
from bdcomplex.errors import BoundedDegreeError, NotAForestError
from bdcomplex.graph import (
    CaterpillarSpec,
    DegreeBounds,
    Graph,
    canonical_code,
    components,
    is_forest,
    make_graph,
    validate_bounds,
)
from bdcomplex.homology import HomologyProfile, IntegerMatrix, boundary_matrix, smith_normal_form
from bdcomplex.recursion import counts_normalize, join_convolve, simplify


class NotAVertexError(BoundedDegreeError, ValueError):
    """A ground-set element that is not a vertex of the complex was used as one."""


class DepthCapExceededError(BoundedDegreeError, RuntimeError):
    """The decomposition witness search hit its recursion depth cap."""


class InvalidStarError(BoundedDegreeError, ValueError):
    """A star profile was requested for a star with no edges."""


class WouldGoNegativeError(BoundedDegreeError, ValueError):
    """Decrementing degree bounds would push an endpoint below zero."""


# ---------------------------------------------------------------------------
# complexes: construction from face lists, inspection, link and deletion
# ---------------------------------------------------------------------------


Face = tuple[int, ...]


def face_mask(face: Sequence[int]) -> int:
    """The bitmask of a face given by its distinct elements."""
    return sum(1 << x for x in face)


def face_tuple(mask: int) -> Face:
    """The increasing index tuple of a face bitmask."""
    return tuple(x for x in range(mask.bit_length()) if mask >> x & 1)


def tuple_faces(k: SimplicialComplex) -> set[Face]:
    """All nonempty faces of `k` as index tuples."""
    return set(map(face_tuple, k.face_set))


def _layered(ground_set: int, faces: Iterable[Sequence[int]]) -> SimplicialComplex:
    """Sort each face, drop repeats and the empty face, and store each layer as bitmasks.

    A layer keeps the lexicographic order of its faces' index tuples.
    """
    by_dim: dict[int, set[Face]] = {}
    for face in faces:
        t = tuple(sorted(face))
        if t:
            by_dim.setdefault(len(t) - 1, set()).add(t)
    dims = max(by_dim) + 1 if by_dim else 0
    return SimplicialComplex(
        ground_set, tuple(tuple(map(face_mask, sorted(by_dim.get(d, ())))) for d in range(dims))
    )


def complex_from_faces(ground_set: int, faces: Iterable[Sequence[int]]) -> SimplicialComplex:
    """The complex with exactly these faces, in any order; ValueError unless valid.

    Valid means: no repeated vertex in a face, every vertex inside the
    ground set, and the faces closed under taking subsets.
    """
    face_set = {tuple(sorted(face)) for face in faces} - {()}
    for face in face_set:
        if len(set(face)) != len(face):
            raise ValueError(f"repeated vertex in face {face}")
        if not (0 <= face[0] and face[-1] < ground_set):
            raise ValueError(f"face {face} outside ground set")
        if len(face) > 1:
            for i in range(len(face)):
                sub = face[:i] + face[i + 1 :]
                if sub not in face_set:
                    raise ValueError(
                        f"complex not downward closed: {face} present, {sub} missing"
                    )
    return _layered(ground_set, face_set)


def from_maximal_faces(ground_set: int, facets: Iterable[Sequence[int]]) -> SimplicialComplex:
    """Build the downward closure of the given facets."""
    faces: set[Face] = set()
    for facet in facets:
        t = tuple(sorted(facet))
        for size in range(1, len(t) + 1):
            faces.update(itertools.combinations(t, size))
    return _layered(ground_set, faces)


def f_vector(k: SimplicialComplex) -> tuple[int, ...]:
    return tuple(len(layer) for layer in k.faces_by_dim)


def reduced_euler(k: SimplicialComplex) -> int:
    """Alternating face-count sum including the empty face: sum (-1)^d f_d - 1."""
    total = -1
    for d, layer in enumerate(k.faces_by_dim):
        total += len(layer) if d % 2 == 0 else -len(layer)
    return total


def has_face(k: SimplicialComplex, face: Sequence[int]) -> bool:
    """Membership by binary search in the face's (sorted) layer."""
    t = tuple(sorted(face))
    if not t:
        return True
    layer = k.faces(len(t) - 1)
    i = bisect_left(layer, t, key=face_tuple)
    return i < len(layer) and face_tuple(layer[i]) == t


def vertices(k: SimplicialComplex) -> tuple[int, ...]:
    return tuple(face_tuple(f)[0] for f in k.faces(0))


def maximal_faces(k: SimplicialComplex) -> tuple[Face, ...]:
    out = []
    for d in range(k.dim, -1, -1):
        for face in map(face_tuple, k.faces(d)):
            fs = set(face)
            if not any(fs < set(g) for g in out):
                out.append(face)
    return tuple(sorted(out, key=lambda f: (len(f), f)))


def dump(k: SimplicialComplex) -> str:
    """One face per line, indices comma-separated, `-` for the empty face."""
    lines = ["-"]
    for layer in k.faces_by_dim:
        lines.extend(",".join(str(i) for i in face_tuple(face)) for face in layer)
    return "\n".join(lines)


def link(k: SimplicialComplex, v: int) -> SimplicialComplex:
    """Faces disjoint from vertex v whose union with v lies in the complex."""
    if not has_face(k, (v,)) or not (0 <= v < k.ground_set):
        raise NotAVertexError(f"{v} is not a vertex of the complex")
    bit = 1 << v
    return _layered(
        k.ground_set,
        (face_tuple(face ^ bit) for layer in k.faces_by_dim for face in layer if face & bit),
    )


def deletion(k: SimplicialComplex, v: int) -> SimplicialComplex:
    """Faces that do not contain v."""
    bit = 1 << v
    return _layered(
        k.ground_set,
        (face_tuple(face) for layer in k.faces_by_dim for face in layer if not face & bit),
    )


DEFAULT_DEPTH_CAP = 64


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
    verts = vertices(k)
    if len(verts) <= 1:
        return GrapeWitness.leaf()
    for a in verts:
        lk = link(k, a)
        dl = deletion(k, a)
        for b in vertices(dl):
            if b == a:
                continue
            if all(
                has_face(dl, face_tuple(face | 1 << b))
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


# ---------------------------------------------------------------------------
# dense matrices, graph edits, bound edits and graph draws
# ---------------------------------------------------------------------------


def matrix_from_dense(dense: Sequence[Sequence[int]]) -> IntegerMatrix:
    rows = len(dense)
    cols = len(dense[0]) if rows else 0
    entries = {
        (i, j): int(v)
        for i, row in enumerate(dense)
        for j, v in enumerate(row)
        if v != 0
    }
    return IntegerMatrix(rows, cols, entries)


def matrix_to_dense(m: IntegerMatrix) -> list[list[int]]:
    out = [[0] * m.cols for _ in range(m.rows)]
    for (i, j), v in m.entries.items():
        out[i][j] = v
    return out


def remove_edge(graph: Graph, index: int) -> Graph:
    """Same vertex set with edge `index` dropped; later edges shift down."""
    return Graph(graph.num_vertices, graph.edges[:index] + graph.edges[index + 1 :])


def decrement_bounds(bounds: Sequence[int], edge: tuple[int, int]) -> DegreeBounds:
    """Lower both endpoint bounds of `edge` by one."""
    u, v = edge
    if bounds[u] < 1 or bounds[v] < 1:
        raise WouldGoNegativeError(f"cannot decrement zero bound on edge ({u},{v})")
    out = list(bounds)
    out[u] -= 1
    out[v] -= 1
    return tuple(out)


def graph_with_cycles(data) -> tuple[Graph, DegreeBounds]:
    """Hypothesis draw: a cycle on some of 3..7 vertices, up to six chords, and bounds 0..3."""
    n = data.draw(st.integers(3, 7))
    cycle = data.draw(st.integers(3, n))
    ring = {tuple(sorted((i, (i + 1) % cycle))) for i in range(cycle)}
    chords = data.draw(st.sets(st.sampled_from(list(itertools.combinations(range(n), 2))), max_size=6))
    bounds = tuple(data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    return make_graph(n, sorted(ring | chords)), bounds


def graph_keeping_a_cycle(data) -> tuple[Graph, DegreeBounds]:
    """Hypothesis draw like `graph_with_cycles`, whose cycle `cycle_reduce` keeps whole.

    Vertices off the cycle draw bounds 0..3.  A cycle vertex draws a bound
    in 1..(live degree - 1), where its live edges are those whose other end
    has a bound >= 1: it neither cuts nor splits the cycle.
    """
    n = data.draw(st.integers(3, 7))
    cycle = data.draw(st.integers(3, n))
    ring = {tuple(sorted((i, (i + 1) % cycle))) for i in range(cycle)}
    chords = data.draw(st.sets(st.sampled_from(list(itertools.combinations(range(n), 2))), max_size=6))
    graph = make_graph(n, sorted(ring | chords))
    off = n - cycle
    bounds = [1] * cycle + data.draw(st.lists(st.integers(0, 3), min_size=off, max_size=off))
    live = [0] * n
    for u, v in graph.edges:
        if bounds[u] and bounds[v]:
            live[u] += 1
            live[v] += 1
    for v in range(cycle):
        bounds[v] = data.draw(st.integers(1, live[v] - 1))
    return graph, tuple(bounds)


# ---------------------------------------------------------------------------
# brute-force oracles
# ---------------------------------------------------------------------------


def brute_force_faces(graph: Graph, bounds) -> set[tuple[int, ...]]:
    """All valid edge subsets by checking every subset's degree vector."""
    faces = set()
    m = graph.num_edges
    for r in range(m + 1):
        for combo in itertools.combinations(range(m), r):
            deg = [0] * graph.num_vertices
            for i in combo:
                u, v = graph.edges[i]
                deg[u] += 1
                deg[v] += 1
            if all(d <= b for d, b in zip(deg, bounds)):
                faces.add(combo)
    return faces


def reference_layers(graph: Graph, bounds) -> list[list[Face]]:
    """The nonempty faces by dimension, each layer in lexicographic order, from `brute_force_faces`."""
    layers: list[list[Face]] = []
    for face in sorted(brute_force_faces(graph, bounds) - {()}):
        while len(layers) < len(face):
            layers.append([])
        layers[len(face) - 1].append(face)
    return layers


def brute_force_isomorphic(g1: Graph, b1, g2: Graph, b2) -> bool:
    """Label-preserving isomorphism by explicit bijection search."""
    if g1.num_vertices != g2.num_vertices or g1.num_edges != g2.num_edges:
        return False
    profile1 = sorted(zip(g1.degrees(), b1))
    profile2 = sorted(zip(g2.degrees(), b2))
    if profile1 != profile2:
        return False
    edges2 = set(g2.edges)
    for perm in itertools.permutations(range(g2.num_vertices)):
        if any(b1[v] != b2[perm[v]] for v in range(g1.num_vertices)):
            continue
        if all(
            (min(perm[u], perm[v]), max(perm[u], perm[v])) in edges2
            for u, v in g1.edges
        ):
            return True
    return False


def fraction_rank(dense) -> int:
    """Rank over the rationals by Gaussian elimination on Fractions."""
    rows = [[Fraction(x) for x in row] for row in dense]
    rank = 0
    cols = len(rows[0]) if rows else 0
    pivot_row = 0
    for c in range(cols):
        pr = next((r for r in range(pivot_row, len(rows)) if rows[r][c]), None)
        if pr is None:
            continue
        rows[pivot_row], rows[pr] = rows[pr], rows[pivot_row]
        pivot = rows[pivot_row][c]
        for r in range(len(rows)):
            if r != pivot_row and rows[r][c]:
                factor = rows[r][c] / pivot
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[pivot_row])]
        pivot_row += 1
        rank += 1
        if pivot_row == len(rows):
            break
    return rank


def dense_boundary(k, d) -> list[list[int]]:
    """Dense boundary matrix built directly from the face lists."""
    cols = [face_tuple(f) for f in k.faces(d)]
    if d == 0:
        return [[1] * len(cols)] if cols else [[]]
    rows = [face_tuple(f) for f in k.faces(d - 1)]
    index = {f: i for i, f in enumerate(rows)}
    out = [[0] * len(cols) for _ in rows]
    for j, face in enumerate(cols):
        for pos in range(len(face)):
            sub = face[:pos] + face[pos + 1 :]
            out[index[sub]][j] = 1 if pos % 2 == 0 else -1
    return out


def betti_via_fraction_rank(k) -> dict[int, int]:
    """Reduced Betti numbers from ranks over Q (no torsion information)."""
    top = k.dim
    ranks = {}
    for d in range(0, top + 1):
        dense = dense_boundary(k, d)
        ranks[d] = fraction_rank(dense) if dense and dense[0] else 0
    f = {-1: 1}
    for d in range(top + 1):
        f[d] = len(k.faces(d))
    betti = {}
    for d in range(-1, top + 1):
        b = f[d] - ranks.get(d, 0) - ranks.get(d + 1, 0)
        if b:
            betti[d] = b
    return betti


def naive_snf(dense) -> tuple[int, tuple[int, ...]]:
    """Textbook dense Smith normal form over Python integers."""
    a = [list(map(int, row)) for row in dense]
    n = len(a)
    m = len(a[0]) if n else 0
    t = 0
    factors = []
    while True:
        pivot = None
        best = None
        for i in range(t, n):
            for j in range(t, m):
                if a[i][j] and (best is None or abs(a[i][j]) < best):
                    best = abs(a[i][j])
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        a[t], a[pi] = a[pi], a[t]
        for row in a:
            row[t], row[pj] = row[pj], row[t]
        while True:
            p = a[t][t]
            dirty = False
            for i in range(t + 1, n):
                if a[i][t]:
                    q = a[i][t] // p
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(t + 1, m):
                if a[t][j]:
                    q = a[t][j] // p
                    for row in a:
                        row[j] -= q * row[t]
                    if a[t][j]:
                        for row in a:
                            row[t], row[j] = row[j], row[t]
                        dirty = True
                        break
            if not dirty:
                break
        factors.append(abs(a[t][t]))
        t += 1
        if t == n or t == m:
            break
    # restore the divisibility chain
    changed = True
    while changed:
        changed = False
        for i in range(len(factors)):
            for j in range(i + 1, len(factors)):
                if factors[j] % factors[i]:
                    g = gcd(factors[i], factors[j])
                    factors[i], factors[j] = g, factors[i] * factors[j] // g
                    changed = True
    factors.sort()
    return len(factors), tuple(factors)


def reference_reduced_homology(k) -> HomologyProfile:
    """Reduced integral homology with each boundary matrix reduced whole.

    One `smith_normal_form` per dimension, bottom up, and no column is
    cleared: the reference for the clearing in `reduced_homology`.
    """
    top = k.dim
    f = {-1: 1}
    for d in range(top + 1):
        f[d] = len(k.faces(d))
    ranks = {d: 0 for d in range(-1, top + 3)}
    torsion: dict[int, tuple[int, ...]] = {}
    for d in range(0, top + 1):
        rank, factors = smith_normal_form(boundary_matrix(k, d))
        ranks[d] = rank
        nontrivial = tuple(x for x in factors if x > 1)
        if nontrivial:
            torsion[d - 1] = nontrivial
    betti = {}
    for d in range(-1, top + 1):
        b = f[d] - ranks[d] - ranks[d + 1]
        if b:
            betti[d] = b
    return HomologyProfile(betti, torsion)


def reference_edge_face_counts(k: SimplicialComplex) -> list[int]:
    """The number of faces of `k` that contain each ground element, from its layers."""
    counts = [0] * k.ground_set
    for layer in k.faces_by_dim:
        for face in layer:
            for x in face_tuple(face):
                counts[x] += 1
    return counts


def reference_excise(k: SimplicialComplex) -> SimplicialComplex:
    """The cells of the pair (K, st e) by the link of e, one layer of K per layer.

    e is the ground element in the most faces, the smallest on ties.  A face
    is a cell when it avoids e and is not in lk(e).  Each layer of lk(e) is
    built from the layer above it, and at most two are held at once.  The
    reference for the graph-side cell walk, `excised_cells`.
    """
    counts = reference_edge_face_counts(k)
    e = counts.index(max(counts))
    layers = []
    link: set = set()  # the faces of lk(e) one dimension below the layer above
    for faces in reversed(k.faces_by_dim):
        below = set()
        kept = []
        for f in map(face_tuple, faces):
            if e in f:
                i = f.index(e)
                below.add(f[:i] + f[i + 1 :])
            elif f not in link:
                kept.append(f)
        layers.append(tuple(map(face_mask, kept)))
        link = below
    return SimplicialComplex(k.ground_set, tuple(reversed(layers)))


def reference_tree_matching(graph: Graph, bounds, faces: Iterable[Face]) -> dict[Face, Optional[Face]]:
    """The partner of every face under the matching of `_critical_cells`, None for a critical face.

    `faces` are the faces of the complex of (graph, bounds), the empty face
    included.  The tree's rules, restated on explicit sets of faces: a fiber
    is the faces that hold its fixed edges and no other edge outside its
    free ones.  Its live edges are the free edges whose ends both have
    budget left after the fixed ones.  No live edge: its one face is
    critical.  The first live edge whose ends both have budget for all
    their live edges pairs every face f without it with f + x.  Otherwise
    the live edge x = {u, v} of least slack, u its end with less to spare,
    pairs f + x with f wherever u and v both have budget at f.  Every other
    face goes to the fiber fixed by its edges at u where u is saturated,
    else by its edges at u and v.
    """
    edges = graph.edges
    partner: dict[Face, Optional[Face]] = {}

    def degree(f, w) -> int:
        return sum(w in edges[i] for i in f)

    def pair(f, g):
        assert f not in partner and g not in partner and g in members
        partner[f], partner[g] = g, f

    stack = [(set(faces), (), frozenset(range(len(edges))))]
    while stack:
        members, fixed, free = stack.pop()
        budget = [b - degree(fixed, w) for w, b in enumerate(bounds)]
        live = [i for i in sorted(free) if min(budget[w] for w in edges[i]) > 0]
        if not live:
            (f,) = members
            partner[f] = None
            continue
        spare = [b - sum(w in edges[i] for i in live) for w, b in enumerate(budget)]
        cone = [i for i in live if min(spare[w] for w in edges[i]) >= 0]
        if cone:
            for f in members:
                if cone[0] not in f:
                    pair(f, tuple(sorted(f + (cone[0],))))
            continue
        x = max(live, key=lambda i: (sum(spare[w] for w in edges[i]), -i))
        u, v = edges[x]
        if spare[v] < spare[u]:
            u, v = v, u
        children: dict = {}
        for f in members:
            if x in f:
                continue
            if degree(f, u) < bounds[u] and degree(f, v) < bounds[v]:
                pair(f, tuple(sorted(f + (x,))))
                continue
            ends = {u} if degree(f, u) == bounds[u] else {u, v}
            rest = free - {i for i in free if ends & set(edges[i])}
            key = (tuple(i for i in f if i not in rest), rest)
            children.setdefault(key, set()).add(f)
        stack.extend((group, fixed, rest) for (fixed, rest), group in children.items())
    return partner


def morse_graph_is_acyclic(partner: dict[Face, Optional[Face]]) -> bool:
    """Whether the modified Hasse diagram of a matching has no directed cycle.

    Each cover g < f of the faces points down, from f to g, unless f and g
    are partners; then it points up.  Kahn's algorithm removes the faces
    with nothing pointing in until none is left, or a cycle stops it.
    """
    arrows: dict[Face, list[Face]] = {f: [] for f in partner}
    into = dict.fromkeys(partner, 0)
    for f in partner:
        for j in range(len(f)):
            g = f[:j] + f[j + 1 :]
            head, tail = (f, g) if partner[g] == f else (g, f)
            arrows[tail].append(head)
            into[head] += 1
    ready = [f for f, n in into.items() if not n]
    seen = 0
    while ready:
        seen += 1
        for head in arrows[ready.pop()]:
            into[head] -= 1
            if not into[head]:
                ready.append(head)
    return seen == len(partner)


def pick_recursion_edge(graph: Graph):
    """Smallest-index edge with a leaf neighbor off the edge, or None.

    The edge {v,w} qualifies when some leaf u outside {v,w} is adjacent to v
    or to w.  On a simplified forest this is exactly the condition that makes
    removing the edge a valid recursion step; None means every component is a
    single edge (or there are no edges), i.e. a base case.
    """
    deg = graph.degrees()
    adj = graph.adjacency()
    for i, (v, w) in enumerate(graph.edges):
        for x in (v, w):
            if any(deg[u] == 1 and u != v and u != w for u in adj[x]):
                return i
    return None


def counts_shift(counts: dict[int, int], by: int = 1) -> dict[int, int]:
    """Suspension: every sphere dimension moves up by `by`."""
    return {d + by: c for d, c in counts.items()}


def counts_add(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out = dict(a)
    for d, c in b.items():
        out[d] = out.get(d, 0) + c
    return counts_normalize(out)


def reference_sphere_counts(graph: Graph, bounds, *, cache=None, edge_picker=None):
    """Sphere counts by the paper's recursion applied to whole forests.

    Each step simplifies, splits into components, and removes one edge with
    a leaf neighbor off the edge: counts(G) = counts(G - e) + shifted
    counts(G - e, both endpoint bounds lowered).  Results are memoized by
    canonical forest code in `cache` (a fresh dict when None); any mapping
    with `get` and item assignment works.  `edge_picker` overrides the edge
    choice, which must not change the result.
    """
    bounds = validate_bounds(graph, bounds)
    if not is_forest(graph):
        raise NotAForestError("sphere counts require a forest")
    memo = {} if cache is None else cache
    return dict(_reference_counts(graph, bounds, memo, edge_picker or pick_recursion_edge))


def _reference_counts(graph, bounds, cache, pick):
    graph, bounds = simplify(graph, bounds)
    if graph.num_edges == 0:
        return {-1: 1}
    key = canonical_code(graph, bounds)
    hit = cache.get(key)
    if hit is not None:
        return hit
    parts = components(graph, bounds)
    if len(parts) > 1:
        result = {-1: 1}
        for part in parts:
            result = join_convolve(result, _reference_counts(part.graph, part.bounds, cache, pick))
    elif graph.num_edges == 1:
        # a lone edge with both bounds >= 1: a cone, hence contractible
        result = {}
    else:
        e = pick(graph)
        if e is None:
            raise RuntimeError("no recursion edge on a component with >= 2 edges")
        endpoints = graph.edges[e]
        rest = remove_edge(graph, e)
        kept = _reference_counts(rest, bounds, cache, pick)
        used = _reference_counts(rest, decrement_bounds(bounds, endpoints), cache, pick)
        result = counts_add(kept, counts_shift(used, 1))
    cache[key] = result
    return result


def reference_canonical_code(graph: Graph, bounds) -> bytes:
    """Canonical forest code, recursing once per tree level.

    The encoding `canonical_code` must reproduce byte for byte: each tree is
    rooted at its center, a vertex's code is "(bound:" + its sorted children's
    codes + ")", a bicentral tree is "=" + its two sorted halves, and trees
    are sorted and joined with "|".
    """
    bounds = validate_bounds(graph, bounds)
    adj = graph.adjacency()

    def subtree_code(root: int, parent: int) -> bytes:
        kids = sorted(subtree_code(c, root) for c in adj[root] if c != parent)
        return b"(%d:" % bounds[root] + b"".join(kids) + b")"

    def tree_code(vertices: list[int]) -> bytes:
        if len(vertices) == 1:
            return subtree_code(vertices[0], -1)
        vset = set(vertices)
        deg = {v: sum(1 for w in adj[v] if w in vset) for v in vertices}
        remaining = set(vertices)
        layer = [v for v in vertices if deg[v] <= 1]
        while len(remaining) > 2:
            nxt = []
            for v in layer:
                remaining.discard(v)
                for w in adj[v]:
                    if w in remaining:
                        deg[w] -= 1
                        if deg[w] == 1:
                            nxt.append(w)
            layer = nxt
        centers = sorted(remaining)
        if len(centers) == 1:
            return subtree_code(centers[0], -1)
        c1, c2 = centers
        halves = sorted([subtree_code(c1, c2), subtree_code(c2, c1)])
        return b"=" + halves[0] + halves[1]

    trees = []
    seen = [False] * graph.num_vertices
    for start in range(graph.num_vertices):
        if seen[start]:
            continue
        stack, verts = [start], []
        seen[start] = True
        while stack:
            v = stack.pop()
            verts.append(v)
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        trees.append(tree_code(verts))
    trees.sort()
    return b"|".join(trees)


def reference_reduced_euler(graph: Graph, bounds) -> int:
    """Reduced Euler characteristic of the complex, by a tree DP over faces.

    The complex's faces are the edge sets F meeting every bound, and its
    reduced Euler characteristic is -sum_F (-1)^|F|.  Per vertex v, table[t]
    is that signed sum over the edge sets below v that use t edges at v.
    Iterative, so it handles deep trees; it never builds the complex.
    """
    bounds = validate_bounds(graph, bounds)
    adj = graph.adjacency()
    parent = [-1] * graph.num_vertices
    seen = [False] * graph.num_vertices
    total = 1
    for root in range(graph.num_vertices):
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
        table = {v: [1] + [0] * min(bounds[v], len(adj[v])) for v in order}
        for c in reversed(order[1:]):
            below = table.pop(c)
            free, usable = sum(below), sum(below[:-1])
            t_v = table[parent[c]]
            table[parent[c]] = [
                t_v[t] * free - (t_v[t - 1] * usable if t else 0) for t in range(len(t_v))
            ]
        total *= sum(table[root])
    return -total


@dataclass(frozen=True)
class SpineSubset:
    """A subset of the spine edges 0..n-2 of a length-n spine."""

    n: int
    members: frozenset[int]

    def __post_init__(self):
        if any(not 0 <= e < self.n - 1 for e in self.members):
            raise ValueError("spine edge index out of range")

    @property
    def size(self) -> int:
        return len(self.members)

    def vertex_degrees(self) -> tuple[int, ...]:
        """Degree of each spine vertex in the subgraph induced by the subset."""
        deg = [0] * self.n
        for e in self.members:
            deg[e] += 1
            deg[e + 1] += 1
        return tuple(deg)

    def suspension_flags(self) -> tuple[int, ...]:
        """1 at spine vertex i > 0 when the edge entering it from the left is chosen."""
        return tuple(
            1 if i > 0 and (i - 1) in self.members else 0 for i in range(self.n)
        )


def spine_subsets(n: int):
    """All subsets of the n-1 spine edges of a length-n spine."""
    for r in range(n):
        for combo in itertools.combinations(range(n - 1), r):
            yield SpineSubset(n, frozenset(combo))


def star_profile(k: int, r: int) -> dict[int, int]:
    """Homotopy type of the complex of a star with r leaves and center bound k.

    The faces are the leaf-edge subsets of size at most k, i.e. the
    (k-1)-skeleton of a simplex on r vertices: a wedge of C(r-1, k) spheres
    of dimension k-1 when k < r, a point when k >= r, and the bare empty
    face when k = 0.
    """
    if r < 1:
        raise InvalidStarError("a star needs at least one leaf")
    if k < 0:
        raise ValueError("the center bound must be non-negative")
    if k == 0:
        return {-1: 1}
    if k >= r:
        return {}
    return {k - 1: comb(r - 1, k)}


def reference_caterpillar_counts(spec: CaterpillarSpec) -> dict[int, int]:
    """The caterpillar closed form as its sum over all 2^(n-1) spine-edge subsets."""
    total = sum(spec.lambda_spine)
    counts: dict[int, int] = {}
    for subset in spine_subsets(spec.n):
        mult = 1
        for m_i, lam_i, t_i in zip(spec.m, spec.lambda_spine, subset.vertex_degrees()):
            b = lam_i - t_i
            mult *= comb(m_i - 1, b) if 0 <= b <= m_i - 1 else 0
            if mult == 0:
                break
        if mult:
            d = total - subset.size - 1
            counts[d] = counts.get(d, 0) + mult
    return counts
