"""Exact integral simplicial homology via Smith normal form.

The chain complex is augmented: the empty face generates degree -1, so the
complex consisting of only the empty face has one reduced homology class in
degree -1.  All arithmetic is exact, on Python integers, and matrices stay
sparse throughout, stored as columns: `boundary_matrix` builds each column
straight from the set bits of the face's edge bitmask, a low-valence pass
splits off every +-1 pivot by column operations, and a textbook Smith
elimination, which takes its pivots from a lazy heap, handles the (usually
tiny) remainder, so memory follows the number of nonzeros, not rows x columns.

Every route's oracle is `graph_homology`, which never builds the complex
K of a graph.  The face counts answer a cone.  Otherwise `_critical_cells`
counts the critical cells of an acyclic matching on K, a tree of fibers
that visits no face one by one; where no two adjacent dimensions both hold
critical cells, the counts are the Betti numbers.  Elsewhere it excises
the edge e in the most faces: the reduced homology of K is that of the
pair (del e, lk e), whose cells are the faces that avoid e and are not in
lk(e), often a fifth to a half of the faces, and `excised_cells` walks
just those on the graph.  `relative_homology` pairs cells off by element
matchings, and reduces only the boundaries that the pairs leave open,
from the top dimension down, clearing, that is never building, the
columns that the dimension above shows to be redundant.
`reduced_homology` does the same excision on a complex given by its faces.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from functools import reduce
from itertools import chain, combinations
from operator import or_
from typing import Collection, Optional, Sequence

from .complexes import DEFAULT_FACE_CAP, SimplicialComplex, _checked, _edge_counts, excised_cells
from .graph import Graph


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


def _eliminate_units(m: IntegerMatrix) -> tuple[list[int], dict[tuple[int, int], int]]:
    """Split off every +-1 pivot by sparse column elimination.

    Low-valence pivoting after Dumas, Heckenbach, Saunders and Welker: the
    column with the fewest nonzeros comes off a lazy heap first, and within it
    the unit entry whose row has the fewest nonzeros (the lowest row on
    ties), which keeps fill-in low.  Column operations clear the rest of the
    pivot row, after which the pivot is alone in its row, so its row and
    column split off as one invariant factor 1.  Works on a copy of the
    matrix's columns.  Returns the rows of the unit pivots, in pivot order,
    and the entries left once no column holds a unit.
    """
    cols = {j: dict(col) for j, col in m.columns.items()}
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
    return pivot_rows, IntegerMatrix(m.rows, m.cols, columns=cols).entries


def _exact_snf(entries: dict[tuple[int, int], int]):
    """Textbook sparse Smith elimination over arbitrary-precision integers.

    Pivot selection: smallest nonzero absolute value, ties broken by lowest
    row then lowest column, from a lazy min-heap of (|v|, row, column) that
    gets an item on every nonzero write; an item whose entry has since been
    rewritten or cleared is dropped when popped.  Returns (rank, list of
    diagonal values); the divisibility chain is restored by the caller.
    """
    rows: dict[int, dict[int, int]] = {}
    col_index: dict[int, set[int]] = {}
    heap = []

    def set_entry(i: int, j: int, v: int):
        if v:
            rows.setdefault(i, {})[j] = v
            col_index.setdefault(j, set()).add(i)
            heapq.heappush(heap, (abs(v), i, j))
        else:
            row = rows.get(i)
            if row and j in row:
                del row[j]
                if not row:
                    del rows[i]
                col_index[j].discard(i)
                if not col_index[j]:
                    del col_index[j]

    for (i, j), v in entries.items():
        set_entry(i, j, v)
    diagonal: list[int] = []
    while rows:
        size, r, c = heapq.heappop(heap)
        if abs(rows.get(r, {}).get(c, 0)) != size:
            continue  # stale: the entry was rewritten or cleared since
        while True:
            p = rows[r][c]
            i = next((i for i in col_index[c] if i != r), None)
            if i is not None:
                q = rows[i][c] // p
                for j, v in list(rows[r].items()):
                    set_entry(i, j, rows.get(i, {}).get(j, 0) - q * v)
                if rows.get(i, {}).get(c, 0):
                    r = i  # remainder became the new, smaller pivot
                continue
            j = next((j for j in rows[r] if j != c), None)
            if j is not None:
                q = rows[r][j] // p
                for i in list(col_index[c]):
                    set_entry(i, j, rows.get(i, {}).get(j, 0) - q * rows[i][c])
                if rows.get(r, {}).get(j, 0):
                    c = j
                continue
            break
        diagonal.append(abs(rows[r][c]))
        set_entry(r, c, 0)
    return len(diagonal), diagonal


def _divisibility_fix(values: list[int]) -> tuple[int, ...]:
    """Turn a diagonal multiset into the invariant factor chain d1 | d2 | ..."""
    f = sorted(abs(v) for v in values)
    changed = True
    while changed:
        changed = False
        for i in range(len(f)):
            for j in range(i + 1, len(f)):
                if f[j] % f[i]:
                    g = math.gcd(f[i], f[j])
                    f[i], f[j] = g, f[i] * f[j] // g
                    changed = True
        f.sort()
    return tuple(f)


def smith_normal_form(
    m: IntegerMatrix, *, unit_rows: Optional[list[int]] = None
) -> tuple[int, tuple[int, ...]]:
    """Rank and invariant factors d1 | d2 | ... | d_rank of an integer matrix.

    When `unit_rows` is a list, the row of every +-1 pivot of the unit
    elimination is appended to it, in pivot order.
    """
    pivot_rows, leftover = _eliminate_units(m)
    if unit_rows is not None:
        unit_rows.extend(pivot_rows)
    units = len(pivot_rows)
    rank, diagonal = _exact_snf(leftover)
    return units + rank, (1,) * units + _divisibility_fix(diagonal)


@dataclass(frozen=True)
class HomologyProfile:
    """Reduced Betti numbers and torsion, keyed by dimension.

    Only nonzero Betti numbers and nonempty torsion lists are stored.
    Dimension -1 is the class of the empty face: betti[-1] = 1 exactly when
    the complex has no vertices at all.
    """

    betti: dict[int, int] = field(default_factory=dict)
    torsion: dict[int, tuple[int, ...]] = field(default_factory=dict)

    @property
    def is_torsion_free(self) -> bool:
        return not self.torsion


def _element_matching(cells: SimplicialComplex) -> tuple[list[int], list[set[int]]]:
    """Per dimension d, the number of critical d-cells and the indices of the d-cells paired up.

    Jonsson's element matchings on the cells' bitmasks: for each x in index
    order that lies in some cell (the excised edge never does), an unpaired
    cell f without x pairs with f + x if that is unpaired too, until no two
    unpaired cells lie in adjacent dimensions.
    """
    layers = cells.faces_by_dim
    unmatched = [dict(zip(layer, range(len(layer)))) for layer in layers] + [{}]
    up: list[set[int]] = [set() for _ in unmatched]
    steps = list(zip(unmatched, unmatched[1:], up))
    rest = reduce(or_, chain.from_iterable(layers), 0)  # the elements in some cell
    while rest and any(low and high for low, high, _ in steps):
        x = rest & -rest
        rest ^= x
        for low, high, paired in steps:
            pairs = [f for f in low if not f & x and f | x in high]
            for f in pairs:
                del high[f | x]
            paired.update(map(low.pop, pairs))
    return [*map(len, unmatched)], up


def relative_homology(cells: SimplicialComplex) -> HomologyProfile:
    """Homology of a relative complex (K, L), given by its cells, with L acyclic.

    The cells are the faces of K not in L, and the empty face lies in L, so
    degree -1 has no cell and the boundary 0 is never built.  The relative
    boundary is the boundary of K with the faces of L dropped, as
    `boundary_matrix` builds it on the cells.  With L = st(e), a cone, the
    result is the reduced homology of K in every degree, torsion included:
    K is the union of del(e) and st(e), which meet in lk(e), so H~(K) =
    H(K, st e) = H(del e, lk e).

    A run of element matchings is acyclic (Jonsson, Simplicial Complexes of
    Graphs, LNM 1928, 2008) and pairs cells at +-1 entries, so a change of
    basis splits the chains into the Morse complex on the critical cells
    (Forman, Adv. Math. 1998) and one isomorphism Z -> Z per pair.  Where
    dimension d or d-1 has no critical cell, the boundary d thus has no
    torsion and a rank of p_d, its pairs of a (d-1)- and a d-cell.

    The other boundaries are reduced from the top down without the columns
    of a set U of d-cells (clearing, after Chen and Kerber): the rows of the
    +-1 pivots of the boundary d+1 if that was reduced, else the d-cells
    paired upward.  U is unit-triangular against the boundary d+1 (in pivot
    order, or in an order the acyclic matching gives), so each cell of U is,
    up to a boundary, an integer sum of cells outside U, and its column is
    an integer combination of the columns kept.
    """
    top = cells.dim
    crit, up = _element_matching(cells) if top > 0 else ((), ())  # top < 1 builds no boundary
    ranks = [0] * (top + 2)  # rank of the relative boundary d; zero for d = 0
    torsion: dict[int, tuple[int, ...]] = {}
    cleared: set[int] = set()
    for d in range(top, 0, -1):
        if not (crit[d] and crit[d - 1]):
            ranks[d], cleared = len(up[d - 1]), up[d - 1]
            continue
        unit_rows: list[int] = []
        rank, factors = smith_normal_form(boundary_matrix(cells, d, skip=cleared), unit_rows=unit_rows)
        cleared = set(unit_rows)
        ranks[d] = rank
        nontrivial = tuple(x for x in factors if x > 1)
        if nontrivial:
            torsion[d - 1] = nontrivial
    torsion = dict(sorted(torsion.items()))  # lowest dimension first, as reported
    betti = {d: b for d in range(top + 1) if (b := len(cells.faces(d)) - ranks[d] - ranks[d + 1])}
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

    The oracle of every route; it never builds K.  The face counts of
    `_edge_counts` refuse an over-cap K and answer the complex of the
    empty face and a cone.  Otherwise `_critical_cells` counts the critical
    cells of an acyclic matching on K.  Where no two adjacent dimensions
    both hold some, the Morse complex has no boundary, so the counts are
    the Betti numbers, with no torsion, and no cell is walked.  Elsewhere
    `relative_homology` reduces the cells of (K, st e) that `excised_cells`
    walks.  On both paths the Euler characteristic is the alternating count
    of the critical cells, which a Morse matching keeps; it is independent
    of the Smith normal form.  Raises FaceCapExceededError when K has more
    than `face_cap` faces.
    """
    bounds = _checked(graph, bounds, face_cap)
    counts, total = _edge_counts(graph, bounds, face_cap)
    top = max(counts, default=0)
    if not top:  # K has no vertex: the empty face is its one class
        return HomologyProfile({-1: 1}, {}), -1
    if total == 2 * top:  # K is the cone st(e)
        return HomologyProfile(), 0
    crit = _critical_cells(graph, bounds)
    euler = sum(c if k % 2 else -c for k, c in enumerate(crit))
    if any(map(min, zip(crit, crit[1:]))):  # critical cells in adjacent dimensions
        cells = excised_cells(graph, bounds, face_cap, counts=(counts, total))
        return relative_homology(cells), euler
    return HomologyProfile({k - 1: c for k, c in enumerate(crit) if c}), euler


def reduced_homology(k: SimplicialComplex) -> HomologyProfile:
    """Exact reduced integral homology of a complex given by its faces.

    The excision of `graph_homology` on a face list: for the element e in
    the most faces (the smallest on ties), the cells are the faces whose
    union with e is not a face, and `relative_homology` reduces them.  No
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
