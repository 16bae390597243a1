"""The closed-form homotopy type of leafy caterpillars, and the
free-vertex split that cuts a graph with cycles into a graph with the same
faces, often a forest.

The caterpillar formula sums over subsets T of spine edges: each T
contributes spheres of dimension (total spine bound) - |T| - 1 with
multiplicity prod_i C(m_i - 1, lambda_i - T_i), where T_i is the degree of
spine vertex i in T.  Out-of-range binomials are zero, which silently kills
subsets that over-saturate a vertex or ask for more leaves than exist.  The
product factorises along the spine, so the sum over all 2^(n-1) subsets is
a left-to-right transfer over (edge into vertex i chosen, |T| so far).
"""

from __future__ import annotations

from math import comb
from typing import Optional, Sequence

from .errors import HypothesisViolatedError
from .graph import CaterpillarSpec, DegreeBounds, Graph, validate_bounds
from .recursion import SphereCounts


def _binom(a: int, b: int) -> int:
    return comb(a, b) if 0 <= b <= a else 0


def caterpillar_closed_form(spec: CaterpillarSpec) -> SphereCounts:
    """Sphere counts for a caterpillar in which every spine vertex has a leaf."""
    if any(m == 0 for m in spec.m):
        raise HypothesisViolatedError(
            "closed form needs every spine vertex adjacent to a leaf; "
            "use the forest recursion instead"
        )
    # transfer along the spine: (edge into vertex i chosen, |T| so far) -> sum
    # of the partial products over the chosen edges to the left of vertex i
    states = {(0, 0): 1}
    for i, (m_i, lam_i) in enumerate(zip(spec.m, spec.lambda_spine)):
        out_choices = (0, 1) if i < spec.n - 1 else (0,)
        nxt: dict[tuple[int, int], int] = {}
        for (e_in, size), w in states.items():
            for e_out in out_choices:
                mult = _binom(m_i - 1, lam_i - e_in - e_out)
                if mult:
                    key = (e_out, size + e_out)
                    nxt[key] = nxt.get(key, 0) + w * mult
        states = nxt
    # the last vertex has no edge out, so every state is (0, |T|)
    total = sum(spec.lambda_spine)
    return {total - size - 1: w for (_, size), w in sorted(states.items())}


def cycle_reduce(
    graph: Graph, bounds: Sequence[int]
) -> Optional[tuple[Graph, DegreeBounds, tuple[int, ...]]]:
    """A graph, often a forest, whose complex equals that of (graph, bounds).

    An edge at a vertex of bound 0 is in no face, so it is dropped.  A
    vertex whose bound is at least its number of live edges (edges whose
    other end has bound >= 1) constrains nothing, so it keeps its first live
    edge and each of its other live edges moves to a new vertex of bound 1.
    A cycle is cut at a 0 or split at a bound >= 2 into a path.  Returns
    (graph, bounds, kept), where new edge i is original edge kept[i] and
    the edge order is kept, or None when nothing changes.
    """
    bounds = validate_bounds(graph, bounds)
    kept = tuple(i for i, (u, v) in enumerate(graph.edges) if bounds[u] and bounds[v])
    live = [0] * graph.num_vertices
    for i in kept:
        for v in graph.edges[i]:
            live[v] += 1
    free = [2 <= d <= b for d, b in zip(live, bounds)]
    if len(kept) == graph.num_edges and not any(free):
        return None
    new_bounds = list(bounds)
    taken = [False] * graph.num_vertices
    edges = []
    for i in kept:
        ends = []
        for v in graph.edges[i]:
            if free[v] and taken[v]:
                v = len(new_bounds)
                new_bounds.append(1)
            else:
                taken[v] = True
            ends.append(v)
        edges.append(tuple(ends))
    return Graph(len(new_bounds), tuple(edges)), tuple(new_bounds), kept
