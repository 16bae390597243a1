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
the join convolution.  `caterpillar_counts` runs the same fold along a
caterpillar's spine straight from its shorthand: spine vertex i starts in
the state (0, m_i), its m_i leaves counted and never built.

Before any of that, `forest_counts` asks whether the complex is a cone.
If some edge e = {u, v} has bound(u) >= deg u and bound(v) >= deg v, then
e joins every face: adding it raises the degrees of u and v to at most
their degrees in the graph.  So the complex is a cone with apex e, and
contractible, and the forest answers {} with no plan and no fold (the
cone step of Jonsson, Simplicial Complexes of Graphs, LNM 1928).

The walk depends only on the forest: `forest_counts` builds the forest's
`ForestPlan` (see graph.py) and applies it with `plan_counts`.  A sweep
builds one plan per forest for its whole bound grid and folds every bound
vector, cones too, so that it checks the fold itself.  Every weight is a
positive count (products of positives, and C(r-1, k) >= 1 for k < r), so a
fold adds each contribution into its output state in place, with the star's
shift and multiplicity applied as it adds, and never normalizes.

The same positivity lets the pass stop early.  A vertex left with no state,
or a tree whose root closes with none, is an empty sum: no later fold or
leaf can bring a state back, that tree is contractible, and a join with a
contractible factor is contractible.  So `plan_counts` returns {} there and
folds nothing more.
"""

from __future__ import annotations

from math import comb
from typing import Optional, Sequence

from .errors import NotAForestError
from .graph import (
    CaterpillarSpec,
    DegreeBounds,
    ForestPlan,
    Graph,
    _forest_plan,
    is_cone,
    is_forest,
    validate_bounds,
)

SphereCounts = dict[int, int]


def counts_normalize(counts: dict[int, int]) -> SphereCounts:
    return {d: c for d, c in counts.items() if c}


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


# a vertex before any child is folded in: no edge used, no leaf, weight {-1: 1}
_START = {(0, 0): {-1: 1}}


def _fold_child(parent: dict, child: dict, bound_v: int, bound_c: int) -> dict:
    """States of v after absorbing its processed child c (see module docstring).

    Each child state becomes one or two moves (edges used at v, leaves
    added, dimension shift, multiplicity).  A move adds the join of a
    parent weight and the child weight, shifted and multiplied, straight
    into the output state: every weight is a positive count, so nothing
    cancels and nothing needs normalizing.
    """
    moves = []
    for (j_c, r_c), w_c in child.items():
        k = bound_c - j_c
        if k == 0:
            moves.append((0, 0, 1, 1, w_c))
        elif r_c == 0:
            moves.append((0, 1, 1, 1, w_c))
        else:
            # kept: W * star(k, r_c); used: Sigma(W * star(k - 1, r_c))
            if k < r_c:
                moves.append((0, 0, k + 1, comb(r_c - 1, k), w_c))
            if k == 1:
                moves.append((1, 0, 2, 1, w_c))
            elif k - 1 < r_c:
                moves.append((1, 0, k + 1, comb(r_c - 1, k - 1), w_c))
    out: dict = {}
    for (j, r), w in parent.items():
        for used, leaf, shift, mult, w_c in moves:
            if j + used > bound_v:
                continue
            key = (j + used, r + leaf)
            acc = out.get(key)
            if acc is None:
                acc = out[key] = {}
            for p, cp in w.items():
                for q, cq in w_c.items():
                    d = p + q + shift
                    acc[d] = acc.get(d, 0) + cp * cq * mult
    return out


def _close(root: dict, bound: int) -> SphereCounts:
    """Sphere counts of a tree whose root, of `bound`, is left in the states `root`.

    Each state (j, r) -> W closes with the root's star, star(bound - j, r).
    """
    tree: SphereCounts = {}
    for (j, r), w in root.items():
        k = bound - j
        shift, mult = 0, 1
        if r and k:
            if k >= r:
                continue
            shift, mult = k, comb(r - 1, k)
        for d, c in w.items():
            tree[d + shift] = tree.get(d + shift, 0) + c * mult
    return tree


def plan_counts(plan: ForestPlan, bounds: Sequence[int]) -> SphereCounts:
    """Sphere multiplicities of the forest of `plan` under valid `bounds`.

    One pass over the plan's post-order; a root closes its tree with its
    own star, and trees combine with the join convolution.  The pass returns
    {} at the first vertex or root left with no state: weights are positive
    counts, so that empty sum stays empty and makes the join contractible.
    """
    states: list[Optional[dict]] = [None] * len(plan.degrees)
    result: Optional[SphereCounts] = None
    for v, p in plan.steps:
        mine = states[v]
        states[v] = None
        if p >= 0:
            parent = _START if states[p] is None else states[p]
            if mine is not None:
                states[p] = _fold_child(parent, mine, bounds[p], bounds[v])
                if not states[p]:
                    return {}  # no state left: contractible (see the module docstring)
            elif bounds[v]:
                # a leaf child with bound >= 1 is one more live leaf at p
                states[p] = {(j, r + 1): w for (j, r), w in parent.items()}
            continue  # a leaf child with bound 0 leaves p as it is
        if mine is None:
            continue  # a lone vertex's {-1: 1} is the identity of the join
        tree = _close(mine, bounds[v])
        if not tree:
            return {}  # a contractible tree makes the whole join contractible
        result = tree if result is None else join_convolve(result, tree)
    return {-1: 1} if result is None else result


def caterpillar_counts(spec: CaterpillarSpec) -> SphereCounts:
    """Sphere multiplicities of a caterpillar, folded along its spine from `spec`.

    No leaf is built: spine vertex i starts with its m_i leaves, each of
    bound 1 and so live, in the state (0, m_i) -> {-1: 1}.  Each spine
    vertex is folded into the next, and the last one closes with its star.
    """
    state: Optional[dict] = None
    bound = 0
    for m, lam in zip(spec.m, spec.lambda_spine):
        start = {(0, m): {-1: 1}}
        state = start if state is None else _fold_child(start, state, lam, bound)
        if not state:
            return {}  # no state left: contractible (see the module docstring)
        bound = lam
    return _close(state, bound)


def forest_counts(graph: Graph, bounds: Sequence[int]) -> Optional[SphereCounts]:
    """Sphere multiplicities of a forest under valid `bounds`; None on a cycle.

    A cone (see `is_cone`) is contractible: {} with no plan and no fold,
    once `is_forest` has told a cone with a cycle apart.  Any other forest
    is planned on the adjacency lists the cone test read, and folded.
    """
    adj = graph.adjacency()
    if is_cone(graph, bounds, adj):
        return {} if is_forest(graph) else None
    plan = _forest_plan(graph, adj)
    return None if plan is None else plan_counts(plan, bounds)


def sphere_counts(
    graph: Graph,
    bounds: Sequence[int],
    *,
    cache: Optional[object] = None,
) -> SphereCounts:
    """Sphere multiplicities of the bounded degree complex of a forest.

    By `forest_counts`: {} for a cone, where an edge whose ends have bounds
    at least their degrees joins every face, since adding it keeps each
    degree within its bound; else the forest's plan applied, one iterative
    post-order pass over each tree, with no Python recursion and no memo.
    `cache` is accepted and unused: perfbench/spans.py hands one to every
    call it traces.
    """
    counts = forest_counts(graph, validate_bounds(graph, bounds))
    if counts is None:
        raise NotAForestError("sphere counts require a forest")
    return counts
