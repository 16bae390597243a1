"""Sphere-count vectors of bounded degree complexes of forests.

The homotopy type of such a complex is a wedge of spheres (or contractible),
so it is fully described by a map from dimension to sphere multiplicity.
Vectors are plain dicts holding only nonzero counts: {} is contractible and
{-1: 1} is the complex consisting of the empty face alone.

The paper's recursion removes an edge e = {c, v} at which c has a leaf off
e: BD(G) ~ BD(G - e) v Sigma BD(G - e, bounds of c and v lowered by one).
`sphere_counts` applies that step bottom-up on each rooted tree, in one
iterative post-order pass, so every step stays local to one vertex.

By the time a vertex c is folded into its parent v, the subtree below c has
been cut down to a star: c with some live leaf children (leaves of bound
>= 1) and the detached rest, whose sphere counts are a join factor W.  A
vertex therefore carries a weighted sum of states (j, r) -> W, where j is
the number of child edges it has used and r the number of its live leaf
children.  Folding a child c in state (j_c, r_c), with k = bound(c) - j_c:

- k = 0: every edge at c is dead, and c contributes W alone;
- r_c = 0: c is now a leaf of v, live when k >= 1;
- otherwise c has a live leaf off {c, v}, and the paper's step on that edge
  splits the state.  Kept: the edge is deleted, c's star detaches, and W
  becomes W * star(k, r_c).  Used, only while v has bound left: c and v are
  lowered by one, giving Sigma(W * star(k - 1, r_c)) with one more edge used
  at v.

A root closes with its own star, star(bound - j, r).  Trees combine with
the join convolution.
"""

from __future__ import annotations

from math import comb
from typing import Optional, Sequence

from .errors import NotAForestError
from .graph import DegreeBounds, Graph, is_forest, validate_bounds

SphereCounts = dict[int, int]


def counts_normalize(counts: dict[int, int]) -> SphereCounts:
    return {d: c for d, c in counts.items() if c}


def counts_shift(counts: SphereCounts, by: int = 1) -> SphereCounts:
    """Suspension: every sphere dimension moves up by `by`."""
    return {d + by: c for d, c in counts.items()}


def counts_add(a: SphereCounts, b: SphereCounts) -> SphereCounts:
    out = dict(a)
    for d, c in b.items():
        out[d] = out.get(d, 0) + c
    return counts_normalize(out)


def join_convolve(a: SphereCounts, b: SphereCounts) -> SphereCounts:
    """Sphere counts of a join: dimensions add plus one, multiplicities multiply.

    The empty-complex vector {-1: 1} is the identity and a contractible
    (all-zero) factor makes the whole join contractible; both fall out of the
    convolution itself.
    """
    out: SphereCounts = {}
    for p, cp in a.items():
        for q, cq in b.items():
            d = p + q + 1
            out[d] = out.get(d, 0) + cp * cq
    return counts_normalize(out)


def simplify(graph: Graph, bounds: Sequence[int]) -> tuple[Graph, DegreeBounds]:
    """Drop edges at zero-bound vertices, then drop isolated vertices.

    The bounded degree complex is unchanged: an edge at a zero-bound vertex
    can never appear in a face, and a vertex without edges imposes nothing.
    """
    bounds = validate_bounds(graph, bounds)
    if not is_forest(graph):
        raise NotAForestError("simplify expects a forest")
    edges = tuple(
        (u, v) for u, v in graph.edges if bounds[u] > 0 and bounds[v] > 0
    )
    used = sorted({v for e in edges for v in e})
    index = {v: i for i, v in enumerate(used)}
    return (
        Graph(len(used), tuple((index[u], index[v]) for u, v in edges)),
        tuple(bounds[v] for v in used),
    )


def _join_star(w: SphereCounts, k: int, r: int, suspend: int = 0) -> SphereCounts:
    """join_convolve(w, star_profile(k, r)) suspended `suspend` times, for r >= 1.

    The star of r leaves and center bound k is the empty face for k = 0, a
    point for k >= r, and otherwise C(r-1, k) spheres of dimension k-1.
    """
    if k == 0:
        return counts_shift(w, suspend) if suspend else w
    if k >= r:
        return {}
    mult = comb(r - 1, k)
    return {d + k + suspend: c * mult for d, c in w.items()}


def _accumulate(states: dict, key: tuple[int, int], w: SphereCounts):
    if w:
        states[key] = counts_add(states.get(key, {}), w)


# a vertex before any child is folded in: no edge used, no leaf, weight {-1: 1}
_START = {(0, 0): {-1: 1}}


def _fold_child(parent: dict, child: dict, bound_v: int, bound_c: int) -> dict:
    """States of v after absorbing its processed child c (see module docstring)."""
    out: dict = {}
    for (j, r), w in parent.items():
        for (j_c, r_c), w_c in child.items():
            base = join_convolve(w, w_c)
            k = bound_c - j_c
            if k == 0:
                _accumulate(out, (j, r), base)
            elif r_c == 0:
                _accumulate(out, (j, r + 1), base)
            else:
                _accumulate(out, (j, r), _join_star(base, k, r_c))
                if bound_v > j:
                    _accumulate(out, (j + 1, r), _join_star(base, k - 1, r_c, 1))
    return out


def sphere_counts(
    graph: Graph,
    bounds: Sequence[int],
    *,
    cache: Optional[object] = None,
) -> SphereCounts:
    """Sphere multiplicities of the bounded degree complex of a forest.

    One iterative post-order pass over each tree, with no Python recursion
    and no memo.  `cache` is accepted for compatibility and unused.
    """
    bounds = validate_bounds(graph, bounds)
    if not is_forest(graph):
        raise NotAForestError("sphere counts require a forest")
    n = graph.num_vertices
    adj = graph.adjacency()
    parent = [-1] * n
    seen = [False] * n
    states: list[Optional[dict]] = [None] * n
    result: SphereCounts = {-1: 1}
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        order = [root]
        for v in order:  # breadth-first; reversed, children precede parents
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    parent[w] = v
                    order.append(w)
        for v in reversed(order):
            mine = _START if states[v] is None else states[v]
            states[v] = None
            p = parent[v]
            if p >= 0:
                states[p] = _fold_child(
                    _START if states[p] is None else states[p], mine, bounds[p], bounds[v]
                )
                continue
            tree: SphereCounts = {}
            for (j, r), w in mine.items():
                closed = _join_star(w, bounds[v] - j, r) if r else w
                tree = counts_add(tree, closed)
            result = join_convolve(result, tree)
    return result
