"""Reference results computed without importing bdcomplex.

Every check in the benchmark compares the package's output with one of
these, so they share no code with the package:

- `forest_euler_sum` / `cycle_euler_sum`: a rooted-tree DP for the signed
  face count sum over F of (-1)^|F|, F running over degree-bounded edge
  sets.  The reduced Euler characteristic of the complex is minus this sum.
- `ind_path_spheres` / `ind_cycle_spheres`: Kozlov's homotopy types of the
  independence complexes of paths and cycles, which are the complexes of
  all-ones paths (on their line graph) and all-ones cycles.
- `caterpillar_spheres`: the spine-subset sum of the caterpillar formula,
  written afresh with bitmasks.
- `homology_mod_primes`: Betti numbers from ranks of boundary matrices over
  GF(p) for a large prime p, plus the primes q in {2, 3} whose rank drops
  show q-torsion.  Faces are enumerated here, not taken from the package.
"""

from __future__ import annotations

from math import comb

LARGE_PRIME = 2_147_483_629  # below 2**31, so products fit in 62 bits


def signed_sum(spheres: dict[int, int]) -> int:
    """Reduced Euler characteristic of a wedge of spheres: sum (-1)^d c_d."""
    return sum(c if d % 2 == 0 else -c for d, c in spheres.items())


# ---------------------------------------------------------------------------
# Euler sums by dynamic programming
# ---------------------------------------------------------------------------


def forest_euler_sum(n: int, edges, bounds) -> int:
    """Sum of (-1)^|F| over edge sets F of a forest with deg_F(v) <= bounds[v].

    Each tree is rooted and visited in post-order without recursion.  The
    table of a vertex maps j, the number of chosen edges to its children,
    to the signed count of valid edge sets of its subtree.
    """
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * n
    total = 1
    for root in range(n):
        if seen[root]:
            continue
        order, parent = [], {root: -1}
        stack = [root]
        seen[root] = True
        while stack:
            v = stack.pop()
            order.append(v)
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    parent[w] = v
                    stack.append(w)
        table: dict[int, list[int]] = {}
        for v in reversed(order):
            cap = bounds[v]
            acc = [1] + [0] * cap
            for c in adj[v]:
                if parent.get(c) != v:
                    continue
                child = table.pop(c)
                skip = sum(child[: bounds[c] + 1])
                take = -sum(child[: bounds[c]])  # edge {v,c} uses one of c's slots
                nxt = [0] * (cap + 1)
                for j, a in enumerate(acc):
                    if a:
                        nxt[j] += a * skip
                        if j + 1 <= cap:
                            nxt[j + 1] += a * take
                acc = nxt
            table[v] = acc
        total *= sum(table.pop(root))
    return total


def cycle_euler_sum(bounds) -> int:
    """Euler sum for the cycle 0-1-...-(n-1)-0: split on the closing edge."""
    n = len(bounds)
    path = [(i, i + 1) for i in range(n - 1)]
    without = forest_euler_sum(n, path, bounds)
    if bounds[0] < 1 or bounds[n - 1] < 1:
        return without
    lowered = list(bounds)
    lowered[0] -= 1
    lowered[n - 1] -= 1
    return without - forest_euler_sum(n, path, lowered)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def ind_path_spheres(vertices: int) -> dict[int, int]:
    """Ind(L_m) for the path L_m on m vertices (Kozlov 1999).

    m = 3k-1 or m = 3k: S^(k-1); m = 3k+1: contractible.
    """
    k, r = divmod(vertices, 3)
    if r == 1:
        return {}
    return {k - 1: 1} if r == 0 else {k: 1}


def ind_cycle_spheres(n: int) -> dict[int, int]:
    """Ind(C_n), n >= 3 (Kozlov 1999).

    n = 3k: S^(k-1) v S^(k-1); n = 3k+1: S^(k-1); n = 3k+2: S^k.
    """
    k, r = divmod(n, 3)
    return {k - 1: 2} if r == 0 else {k - 1: 1} if r == 1 else {k: 1}


def all_ones_path_spheres(vertices: int) -> dict[int, int]:
    """BD of the path on `vertices` vertices with every bound 1.

    Its faces are the matchings of the path, i.e. the independent sets of
    the line graph, a path on vertices - 1 vertices.
    """
    return ind_path_spheres(vertices - 1)


def caterpillar_spheres(m, lam) -> dict[int, int]:
    """Spine-subset sum for a caterpillar whose spine vertices all carry leaves.

    A subset T of the spine edges contributes prod_i C(m_i - 1, lam_i - t_i)
    spheres of dimension sum(lam) - |T| - 1, with t_i the T-degree of spine
    vertex i and out-of-range binomials read as zero.
    """
    n = len(m)
    total = sum(lam)
    out: dict[int, int] = {}
    for mask in range(1 << max(n - 1, 0)):
        mult = 1
        for i in range(n):
            t = ((mask >> (i - 1)) & 1 if i > 0 else 0) + ((mask >> i) & 1 if i < n - 1 else 0)
            need = lam[i] - t
            mult *= comb(m[i] - 1, need) if 0 <= need <= m[i] - 1 else 0
            if not mult:
                break
        if mult:
            d = total - bin(mask).count("1") - 1
            out[d] = out.get(d, 0) + mult
    return {d: c for d, c in out.items() if c}


# ---------------------------------------------------------------------------
# homology from ranks over finite fields
# ---------------------------------------------------------------------------


def bounded_faces(edges, bounds) -> list[list[tuple[int, ...]]]:
    """Nonempty degree-bounded edge sets, grouped by size and sorted."""
    by_size: list[list[tuple[int, ...]]] = []
    budget = list(bounds)
    chosen: list[int] = []
    # explicit stack of (next edge to try) per depth
    stack = [0]
    while stack:
        i = stack[-1]
        if i >= len(edges):
            stack.pop()
            if chosen:
                e = chosen.pop()
                u, v = edges[e]
                budget[u] += 1
                budget[v] += 1
            continue
        stack[-1] = i + 1
        u, v = edges[i]
        if budget[u] and budget[v]:
            budget[u] -= 1
            budget[v] -= 1
            chosen.append(i)
            if len(by_size) < len(chosen):
                by_size.append([])
            by_size[len(chosen) - 1].append(tuple(chosen))
            stack.append(i + 1)
    for layer in by_size:
        layer.sort()
    return by_size


def _rank_mod(columns, p: int) -> int:
    """Rank over GF(p) of sparse columns given as {row: value} dicts."""
    pivots: dict[int, dict[int, int]] = {}
    rank = 0
    for col in columns:
        col = {r: v % p for r, v in col.items() if v % p}
        while col:
            low = max(col)
            piv = pivots.get(low)
            if piv is None:
                inv = pow(col[low], p - 2, p)
                pivots[low] = {r: v * inv % p for r, v in col.items()}
                rank += 1
                break
            f = col[low]
            for r, v in piv.items():
                x = (col.get(r, 0) - f * v) % p
                if x:
                    col[r] = x
                else:
                    col.pop(r, None)
    return rank


def homology_mod_primes(edges, bounds, torsion_primes=(2, 3)):
    """Reduced Betti numbers over Q and the primes that show torsion.

    Returns (betti, torsion) where betti maps dimension to its nonzero rank
    over GF(LARGE_PRIME) and torsion maps dimension d to the tuple of primes
    q with rank_q(boundary_{d+1}) < rank_p(boundary_{d+1}), i.e. with
    q-torsion in reduced H_d.
    """
    layers = bounded_faces(edges, bounds)
    sizes = {-1: 1, **{d: len(layer) for d, layer in enumerate(layers)}}
    columns: dict[int, list[dict[int, int]]] = {}
    for d, layer in enumerate(layers):
        if d == 0:
            columns[0] = [{0: 1} for _ in layer]
            continue
        index = {f: i for i, f in enumerate(layers[d - 1])}
        cols = []
        for face in layer:
            cols.append({index[face[:j] + face[j + 1 :]]: (-1) ** j for j in range(len(face))})
        columns[d] = cols
    rank = {d: _rank_mod(cols, LARGE_PRIME) for d, cols in columns.items()}
    betti = {}
    for d in range(-1, len(layers)):
        b = sizes[d] - rank.get(d, 0) - rank.get(d + 1, 0)
        if b:
            betti[d] = b
    torsion: dict[int, tuple[int, ...]] = {}
    for d, cols in columns.items():
        drops = tuple(q for q in torsion_primes if _rank_mod(cols, q) < rank[d])
        if drops:
            torsion[d - 1] = drops
    return betti, torsion
