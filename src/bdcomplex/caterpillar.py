"""Closed-form homotopy types for stars and leafy caterpillars, and the
reduction of cycle instances to path instances.

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

from .errors import HypothesisViolatedError, InvalidSizeError, InvalidStarError
from .graph import CaterpillarSpec, DegreeBounds, Graph, gen_path
from .recursion import SphereCounts


def _binom(a: int, b: int) -> int:
    return comb(a, b) if 0 <= b <= a else 0


def star_profile(k: int, r: int) -> SphereCounts:
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
    return {k - 1: _binom(r - 1, k)}


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
    n: int, bounds: Sequence[int]
) -> Optional[tuple[Graph, DegreeBounds, tuple[Optional[int], ...]]]:
    """Path instance whose complex equals that of the cycle instance.

    The cycle is rotated so the first bound different from 1 sits at the last
    position.  A zero bound there disconnects the cycle into a shorter path;
    a bound of at least 2 makes the constraint at that vertex slack enough to
    split it into the two ends of a longer path.  Returns (path, path bounds,
    edge map), where the edge map sends cycle edge k (joining vertices k and
    k+1 mod n) to its path edge, or to None when the cut kills it.  Returns
    None when every bound is 1, where no such reduction exists.
    """
    bounds = tuple(int(b) for b in bounds)
    if n < 3 or len(bounds) != n:
        raise InvalidSizeError("cycle instances need n >= 3 matching bounds")
    if any(b < 0 for b in bounds):
        raise ValueError("degree bounds must be non-negative")
    pivot = next((i for i, b in enumerate(bounds) if b != 1), None)
    if pivot is None:
        return None
    rotated = bounds[pivot + 1 :] + bounds[: pivot + 1]
    last = rotated[n - 1]
    if last == 0:
        # path vertex j is cycle vertex pivot+1+j; the two edges at the pivot die
        shifted = ((k - pivot - 1) % n for k in range(n))
        edge_map = tuple(j if j <= n - 3 else None for j in shifted)
        return gen_path(n - 1), rotated[: n - 1], edge_map
    # path vertex j is cycle vertex pivot+j; the pivot is both ends 0 and n
    edge_map = tuple((k - pivot) % n for k in range(n))
    return gen_path(n + 1), (1,) + rotated[: n - 1] + (last - 1,), edge_map
