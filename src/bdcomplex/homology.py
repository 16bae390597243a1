"""Exact integral simplicial homology via Smith normal form.

The chain complex is augmented: the empty face generates degree -1, so the
complex consisting of only the empty face has one reduced homology class in
degree -1.  All arithmetic is exact, on Python integers, and matrices stay
sparse throughout, stored as columns: `boundary_matrix` builds each column
straight from the set bits of the face's edge bitmask, and one sparse
elimination splits off every +-1 pivot by column operations, then reduces
the (usually tiny) rest on the same columns by row and column operations,
so memory follows the number of nonzeros, not rows x columns.

Every route's oracle is `graph_homology`, which never builds the complex
K of a graph.  `_critical_cells` counts the critical cells of an acyclic
matching on K, a tree of fibers that visits no face one by one and
answers the complex of the empty face and a cone at its root; where no
two adjacent dimensions both hold critical cells, the counts are the
Betti numbers.  Elsewhere it excises the edge e in the most faces: the
reduced homology of K is that of the pair (del e, lk e), whose cells are
the faces that avoid e and are not in lk(e), often a fifth to a half of
the faces, and `excised_cells` walks just those on the graph.  The face
count of `_edge_counts`, which refuses a K over the face cap, runs before
the tree only where the graph has at least as many edges as the cap has
bits (below that, K has at most 2^m <= cap faces), and otherwise only
inside `excised_cells`.  `relative_homology` takes the tree's counts one
dimension down and builds the boundary d only where the dimensions d and
d-1 both hold critical cells, from the top dimension down, clearing, that
is never building, the columns that the boundary above, when built,
shows to be redundant; the other ranks follow from the Betti numbers,
zero where a dimension has no critical cell and, at the top of each run
of dimensions that hold some, given by the run's Euler characteristic.
`reduced_homology` does the same excision on a complex given by its
faces, with the counts of element matchings on the cells.
"""

from __future__ import annotations

import heapq
import math
from functools import reduce
from itertools import chain, combinations
from operator import or_
from typing import Collection, Optional, Sequence

from .complexes import DEFAULT_FACE_CAP, SimplicialComplex, _checked, _edge_counts, excised_cells
from .graph import Graph, Record


class IntegerMatrix:
    """Sparse integer matrix in column form: `columns[j]` maps row i to a nonzero (i, j) entry.

    A column without nonzeros is absent.  `boundary_matrix` builds the
    columns directly, `IntegerMatrix(rows, cols, entries)` from (i, j)-keyed
    entries, dropping zeros; `entries` is that view, built on each read.
    """

    __slots__ = ("rows", "cols", "columns")

    def __init__(
        self, rows: int, cols: int, entries: Optional[dict] = None, *, columns: Optional[dict] = None
    ):
        if columns is None:
            columns = {}
            for (i, j), v in (entries or {}).items():
                if v:
                    columns.setdefault(j, {})[i] = v
        self.rows, self.cols, self.columns = rows, cols, columns

    @property
    def entries(self) -> dict[tuple[int, int], int]:
        return {(i, j): v for j, col in self.columns.items() for i, v in col.items()}

    @property
    def nnz(self) -> int:
        return sum(map(len, self.columns.values()))


def boundary_matrix(k: SimplicialComplex, d: int, *, skip: Collection[int] = ()) -> IntegerMatrix:
    """Boundary operator from d-faces to (d-1)-faces of the augmented complex.

    Rows are indexed by the (d-1)-faces in their stored order (the single
    empty face, mask 0, when d = 0), columns by the d-faces.  The column of
    a face carries (-1)^j at the face without its j-th smallest element,
    its j-th set bit.  A boundary face that is not a row is dropped, so when
    `k` holds the cells of a relative complex (see `relative_homology`) this
    is the relative boundary; on a simplicial complex every boundary face is
    a row.  The columns whose indices are in `skip` are left empty.
    """
    if d < 0:
        raise ValueError("boundary operators are indexed by d >= 0")
    col_faces = k.faces(d)
    row_faces = k.faces(d - 1) if d else (0,)
    row_index = {f: i for i, f in enumerate(row_faces)}.get
    columns: dict[int, dict[int, int]] = {}
    for j, face in enumerate(col_faces):
        if j not in skip:
            col, sign, rest = {}, 1, face
            while rest:
                low = rest & (rest - 1)  # rest without its lowest bit
                i = row_index(face ^ rest ^ low)
                if i is not None:  # a boundary face that is not a row is dropped
                    col[i] = sign
                sign, rest = -sign, low
            if col:
                columns[j] = col
    return IntegerMatrix(len(row_faces), len(col_faces), columns=columns)


def _eliminate(m: IntegerMatrix) -> tuple[list[int], list[int]]:
    """Sparse Smith elimination of the columns of `m`, in place: every +-1 pivot first.

    Low-valence pivoting after Dumas, Heckenbach, Saunders and Welker: the
    column with the fewest nonzeros comes off a lazy heap first, and within it
    the unit entry whose row has the fewest nonzeros (the lowest row on
    ties), which keeps fill-in low.  Column operations clear the rest of the
    pivot row, after which the pivot is alone in its row, so its row and
    column split off as one invariant factor 1.  No row operation comes
    before the last unit pivot, so their rows are rows of `m`.

    Once no column holds a unit, the same columns and row index finish the
    reduction, again sparsest column first: the pivot is the column's
    smallest entry (in the sparsest row, then the lowest, on ties).  Row
    operations clear the rest of its column and column operations the rest
    of its row; a remainder, always smaller, becomes the new pivot, until
    the pivot stands alone and its absolute value is one diagonal value.
    Returns the rows of the unit pivots, in pivot order, and the other
    diagonal values; `m` is left with no column.
    """
    cols = m.columns
    row_cols: list[set[int]] = [set() for _ in range(m.rows)]
    for j, col in cols.items():
        for i in col:
            row_cols[i].add(j)
    heap = [(len(col), j) for j, col in cols.items()]
    heapq.heapify(heap)
    pivot_rows: list[int] = []
    while heap:
        size, c = heapq.heappop(heap)
        col = cols.get(c)
        if col is None or len(col) != size:
            continue  # eliminated, or changed since and queued again
        r = low = -1
        for i, v in col.items():
            if v == 1 or v == -1:
                n = len(row_cols[i])
                if r < 0 or n < low or (n == low and i < r):
                    r, low = i, n
        if r < 0:
            continue  # no unit; queued again if a later column operation changes it
        s = col.pop(r)
        del cols[c]
        for i in col:
            row_cols[i].discard(c)
        for j in row_cols[r] - {c}:
            target = cols[j]
            f = target.pop(r) * s  # s * s == 1, so this clears target[r]
            for i, v in col.items():
                w = target.get(i, 0) - f * v
                if w:
                    target[i] = w
                    row_cols[i].add(j)
                else:
                    del target[i]
                    row_cols[i].discard(j)
            if target:
                heapq.heappush(heap, (len(target), j))
            else:
                del cols[j]
        pivot_rows.append(r)
    diagonal: list[int] = []
    heap = [(len(col), j) for j, col in cols.items()]
    heapq.heapify(heap)
    while heap:
        size, c = heapq.heappop(heap)
        col = cols.get(c)
        if col is None or len(col) != size:
            continue
        changed = set()  # the columns of every pivot row, each queued again once
        while True:
            r = min(col, key=lambda i: (abs(col[i]), len(row_cols[i]), i))
            p = col[r]
            changed |= row_cols[r]
            others = [(i, v // p) for i, v in col.items() if i != r]
            if others:  # row operations leave the remainders in the pivot's column
                row = [(j, cols[j][r]) for j in row_cols[r]]
                for i, f in others:
                    for j, x in row:
                        target = cols[j]
                        w = target.get(i, 0) - f * x
                        if w:
                            target[i] = w
                            row_cols[i].add(j)
                        else:
                            del target[i]
                            row_cols[i].discard(j)
                continue
            for j in row_cols[r] - {c}:  # column operations leave them in its row
                target = cols[j]
                target[r] %= p
                if not target[r]:
                    del target[r]
                    row_cols[r].discard(j)
                    if not target:
                        del cols[j]
            if len(row_cols[r]) == 1:
                break
            c = min(row_cols[r] - {c}, key=lambda j: abs(cols[j][r]))
            col = cols[c]
        diagonal.append(abs(p))
        del cols[c]
        row_cols[r].clear()
        for j in changed:
            if j in cols:
                heapq.heappush(heap, (len(cols[j]), j))
    return pivot_rows, diagonal


def _divisibility_fix(values: list[int]) -> tuple[int, ...]:
    """Turn a multiset of nonzero diagonal values into the invariant factor chain d1 | d2 | ...

    One pass over the sorted values: step (i, j), i < j, swaps f[i], f[j]
    for their gcd and lcm unless f[i] divides f[j], which keeps the group.
    After it f[i] | f[j], and later steps keep that: f[i] only falls to a
    divisor, f[j] only rises to a multiple, and a later f[i'] falls to the
    gcd of two values that f[i] divides.
    """
    f = sorted(abs(v) for v in values)
    for i in range(len(f)):
        for j in range(i + 1, len(f)):
            if f[j] % f[i]:
                g = math.gcd(f[i], f[j])
                f[i], f[j] = g, f[i] * f[j] // g
    return tuple(f)


def smith_normal_form(
    m: IntegerMatrix, *, unit_rows: Optional[list[int]] = None
) -> tuple[int, tuple[int, ...]]:
    """Rank and invariant factors d1 | d2 | ... | d_rank of an integer matrix.

    The elimination works on the columns of `m` themselves and leaves none:
    a matrix is not read again after this.  When `unit_rows` is a
    list, the row of every +-1 pivot of the unit elimination is appended to
    it, in pivot order.
    """
    pivot_rows, diagonal = _eliminate(m)
    if unit_rows is not None:
        unit_rows.extend(pivot_rows)
    units = len(pivot_rows)
    return units + len(diagonal), (1,) * units + _divisibility_fix(diagonal)


class HomologyProfile(Record):
    """Reduced Betti numbers and torsion, keyed by dimension.

    Only nonzero Betti numbers and nonempty torsion lists are stored.
    Dimension -1 is the class of the empty face: betti[-1] = 1 exactly when
    the complex has no vertices at all.  A `Record`; its dict fields make
    it unhashable.
    """

    __slots__ = _fields = ("betti", "torsion")
    __hash__ = None

    def __init__(
        self,
        betti: Optional[dict[int, int]] = None,
        torsion: Optional[dict[int, tuple[int, ...]]] = None,
    ):
        super().__init__({} if betti is None else betti, {} if torsion is None else torsion)

    @property
    def is_torsion_free(self) -> bool:
        return not self.torsion


def _element_matching(cells: SimplicialComplex) -> list[int]:
    """The number of critical cells per dimension of a run of element matchings on the cells.

    Jonsson's element matchings on the cells' bitmasks: for each x in index
    order that lies in some cell (the excised edge never does), an unpaired
    cell f without x pairs with f + x if that is unpaired too, until no two
    unpaired cells lie in adjacent dimensions.
    """
    layers = cells.faces_by_dim
    unmatched = [set(layer) for layer in layers] + [set()]
    steps = list(zip(unmatched, unmatched[1:]))
    rest = reduce(or_, chain.from_iterable(layers), 0)  # the elements in some cell
    while rest and any(low and high for low, high in steps):
        x = rest & -rest
        rest ^= x
        for low, high in steps:
            pairs = [f for f in low if not f & x and f | x in high]
            low.difference_update(pairs)
            high.difference_update(f | x for f in pairs)
    return [*map(len, unmatched)]


def relative_homology(
    cells: SimplicialComplex, crit: Optional[Sequence[int]] = None
) -> HomologyProfile:
    """Homology of a relative complex (K, L), given by its cells, with L acyclic.

    The cells are the faces of K not in L, and the empty face lies in L, so
    degree -1 has no cell and the boundary 0 is never built.  The relative
    boundary is the boundary of K with the faces of L dropped, as
    `boundary_matrix` builds it on the cells.  With L = st(e), a cone, the
    result is the reduced homology of K in every degree, torsion included:
    K is the union of del(e) and st(e), which meet in lk(e), so H~(K) =
    H(K, st e) = H(del e, lk e).

    `crit[d]` is the number of critical d-cells of an acyclic matching
    whose Morse complex (Forman, Adv. Math. 1998) has this homology: on
    these cells or on K, where the critical empty face is left out and
    every other count moves down one dimension.  By default it is the
    count of a run of element matchings on the cells (Jonsson, Simplicial
    Complexes of Graphs, LNM 1928, 2008).  The Morse complex has no
    boundary out of or into a dimension without critical cells, so it
    splits into runs of dimensions that all hold some.  Hence the rule: the
    boundary d is built and reduced only where crit[d] and crit[d-1] are
    both nonzero, from the top dimension down, and it is the only source
    of torsion in degree d-1.  Every other rank follows from the Betti
    numbers: b_d = 0 where crit[d] = 0, and the top dimension of a run
    takes b_d from the run's Euler characteristic, which the Morse complex
    keeps, so the alternating sums of crit and of b over a run agree.

    A boundary d is built without the columns of the rows of the +-1
    pivots of the boundary d+1 when that was built (clearing, after Chen
    and Kerber), and whole otherwise.  Those d-cells are unit-triangular
    against the boundary d+1 in pivot order, so each is, up to a boundary,
    an integer sum of the cells kept, and its column is an integer
    combination of the columns kept: rank and factors stay the same.  No
    face is counted here: on a graph the face count runs in `graph_homology`
    or `excised_cells`, before the cells are walked.
    """
    if crit is None:
        crit = _element_matching(cells)
    top = max(cells.dim, len(crit) - 1)
    crit = [*crit] + [0] * (top + 2 - len(crit))
    ranks: dict[int, int] = {}  # rank of each relative boundary d that is built
    torsion: dict[int, tuple[int, ...]] = {}
    cleared: Collection[int] = ()
    for d in range(top, 0, -1):
        if not (crit[d] and crit[d - 1]):
            cleared = ()
            continue
        unit_rows: list[int] = []
        ranks[d], factors = smith_normal_form(
            boundary_matrix(cells, d, skip=cleared), unit_rows=unit_rows
        )
        cleared = set(unit_rows)
        nontrivial = tuple(x for x in factors if x > 1)
        if nontrivial:
            torsion[d - 1] = nontrivial
    torsion = dict(sorted(torsion.items()))  # lowest dimension first, as reported
    betti = {}
    rank = 0  # of the boundary d; zero for d = 0
    excess = 0  # sum of (-1)^j (crit[j] - b_j) for j < d, zero over each whole run
    for d in range(top + 1):
        size = len(cells.faces(d))
        if d + 1 in ranks:
            b = size - rank - ranks[d + 1]
        elif crit[d]:  # the top of a run
            b = crit[d] + (-1) ** d * excess
        else:
            b = 0
        if b:
            betti[d] = b
        excess += (-1) ** d * (crit[d] - b)
        rank = ranks.get(d + 1, size - rank - b)
    return HomologyProfile(betti, torsion)


def _critical_cells(graph: Graph, bounds: Sequence[int]) -> list[int]:
    """Critical cells of a recursive-excision matching on K, counted by their number of edges.

    Index k counts the critical (k-1)-cells, the empty face at k = 0;
    trailing zeros are dropped.  The bounds must be valid for the graph.
    A depth-first walk, without recursion, over fibers A + BD(G', l'): the
    faces made of the fixed edges A and a face of the live edges G' within
    the budgets l' that A leaves.  An edge is live while both its ends have
    budget.  A fiber with no live edge is one critical cell, A.  A live
    edge whose ends both have budget for all their live edges makes the
    fiber a cone, with none.  Otherwise the live edge x = {u, v} of least
    slack (live degree less budget, summed over both ends; the lowest
    index on ties), u the end with less budget to spare (the first end on
    ties), pairs the faces that hold x down, and those at which u and v
    both have budget up with +x.  The rest, where u or v is saturated, fall
    into the fibers that fix every edge at u where u is saturated, else
    every edge at u and at v.  Each step is an element matching on the
    fibers of an order-preserving map, so by the Cluster Lemma the whole
    matching is acyclic (Jonsson, Simplicial Complexes of Graphs, LNM 1928,
    2008), as the matching trees of Bousquet-Melou, Linusson and Nevo (J.
    Algebraic Combin. 27, 2008) are.
    """
    edges = graph.edges
    star: list[list[int]] = [[] for _ in bounds]  # per vertex, its edges
    for i, (u, v) in enumerate(edges):
        star[u].append(i)
        star[v].append(i)
    inc = [sum(1 << i for i in s) for s in star]  # the same, as bitmasks
    live = (1 << len(edges)) - 1
    for w, m in zip(bounds, inc):
        if not w:
            live &= ~m
    crit = [0] * (len(edges) + 1)
    stack = [(0, live, list(bounds))]
    while stack:
        size, live, budget = stack.pop()
        if not live:
            crit[size] += 1
            continue
        spare = [b - (live & m).bit_count() for b, m in zip(budget, inc)]
        best, most, rest = -1, -math.inf, live
        while rest:
            i = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            u, v = edges[i]
            if spare[u] >= 0 and spare[v] >= 0:
                break  # a cone on edge i
            if spare[u] + spare[v] > most:
                best, most = i, spare[u] + spare[v]
        else:
            u, v = edges[best]
            if spare[v] < spare[u]:
                u, v = v, u
            at_u = [j for j in star[u] if j != best and live >> j & 1]
            at_v = [j for j in star[v] if j != best and live >> j & 1]
            bu, bv = budget[u], budget[v]
            free_u = live & ~inc[u]
            free_uv = free_u & ~inc[v]
            children = [(s, free_u) for s in combinations(at_u, bu)]
            children += [
                (s + t, free_uv)
                for k in range(bu)
                for s in combinations(at_u, k)
                for t in combinations(at_v, bv)
            ]
            for picks, child in children:
                b = budget[:]
                for j in picks:
                    for w in edges[j]:
                        b[w] -= 1
                        if not b[w]:
                            child &= ~inc[w]
                if min(b) >= 0:  # a common neighbour of u and v may lack budget for both
                    stack.append((size + len(picks), child, b))
    while crit and not crit[-1]:
        crit.pop()
    return crit


def graph_homology(
    graph: Graph, bounds: Sequence[int], face_cap: int = DEFAULT_FACE_CAP
) -> tuple[HomologyProfile, int]:
    """Reduced homology and reduced Euler characteristic of the complex of a graph.

    The oracle of every route; it never builds K.  `_critical_cells` counts
    the critical cells of an acyclic matching on K, and answers K = {empty
    face} and a cone at the root of its tree.  Where no two adjacent
    dimensions both hold some, the Morse complex has no boundary, so the
    counts are the Betti numbers, with no torsion, and no cell is walked.
    Elsewhere `relative_homology` takes the same counts, one dimension
    down, to pick the boundaries of the cells of (K, st e) to reduce, and
    `excised_cells` walks those cells.  On both paths the Euler
    characteristic is the alternating count of the critical cells, which a
    Morse matching keeps; it is independent of the Smith normal form.

    Raises FaceCapExceededError when K has more than `face_cap` faces.  A
    graph of m edges has at most 2^m faces, so the face count of
    `_edge_counts` runs first, to refuse, only where m >= the bit length of
    the cap; otherwise it runs only inside `excised_cells`, before a walk.
    """
    bounds = _checked(graph, bounds, face_cap)
    counts = None
    if graph.num_edges >= face_cap.bit_length():  # below, 2^m <= face_cap
        counts = _edge_counts(graph, bounds, face_cap)
    crit = _critical_cells(graph, bounds)
    euler = sum(c if k % 2 else -c for k, c in enumerate(crit))
    if any(map(min, zip(crit, crit[1:]))):  # critical cells in adjacent dimensions
        cells = excised_cells(graph, bounds, face_cap, counts=counts)
        return relative_homology(cells, crit[1:]), euler
    return HomologyProfile({k - 1: c for k, c in enumerate(crit) if c}), euler


def reduced_homology(k: SimplicialComplex) -> HomologyProfile:
    """Exact reduced integral homology of a complex given by its faces.

    The excision of `graph_homology` on a face list: for the element e in
    the most faces (the smallest on ties), the cells are the faces whose
    union with e is not a face, and `relative_homology` reduces them by the
    counts of its default, a run of element matchings on the cells.  No
    route calls it; it serves complexes that no graph gives, such as RP^2.
    """
    if k.dim < 0:
        return HomologyProfile({-1: 1}, {})
    faces = k.face_set
    stars = [sum(f >> x & 1 for f in faces) for x in range(k.ground_set)]
    e = 1 << stars.index(max(stars))
    cells = tuple(
        tuple(f for f in layer if not f & e and f | e not in faces) for layer in k.faces_by_dim
    )
    return relative_homology(SimplicialComplex(k.ground_set, cells))


def wedge_profile(h: HomologyProfile) -> Optional[dict[int, int]]:
    """Sphere multiplicities when homology is that of a wedge of spheres.

    Torsion-free homology pins the wedge: the count in dimension d is the
    d-th reduced Betti number (dimension -1 marks the empty complex, the
    all-zero profile a contractible one).  Any torsion means the complex is
    not homotopy equivalent to a wedge of spheres; that is reported as None.
    """
    if h.torsion:
        return None
    return dict(h.betti)
