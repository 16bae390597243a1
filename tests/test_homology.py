import itertools
import os
from collections import Counter
import random
import subprocess
import sys
import textwrap
import tracemalloc

import pytest
import bdcomplex
from bdcomplex import homology
from hypothesis import given, settings
from hypothesis import strategies as st

from bdcomplex.complexes import (
    DEFAULT_FACE_CAP,
    SimplicialComplex,
    build_complex,
    excised_cells,
)
from bdcomplex.errors import FaceCapExceededError
from bdcomplex.graph import (
    CaterpillarSpec,
    gen_caterpillar,
    gen_cycle,
    make_graph,
    random_forest,
)
from bdcomplex.homology import (
    HomologyProfile,
    IntegerMatrix,
    boundary_matrix,
    graph_homology,
    reduced_homology,
    smith_normal_form,
    wedge_profile,
)

from oracles import (
    betti_via_fraction_rank,
    complex_from_faces,
    face_tuple,
    from_maximal_faces,
    graph_with_cycles,
    matrix_from_dense,
    matrix_to_dense,
    morse_graph_is_acyclic,
    naive_snf,
    reduced_euler,
    reference_reduced_homology,
    reference_tree_matching,
    tuple_faces,
)

# six-vertex triangulation of the real projective plane: the canonical
# torsion example (homology Z/2 in dimension 1)
RP2_FACETS = [
    (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
    (1, 2, 4), (2, 4, 5), (2, 3, 5), (1, 3, 5), (1, 3, 4),
]


def random_complex(rng) -> SimplicialComplex:
    g = random_forest(rng, 7)
    b = tuple(rng.randint(0, 3) for _ in range(g.num_vertices))
    return build_complex(g, b)


class TestBoundaryMatrix:
    def test_augmentation_of_single_vertex(self):
        k = complex_from_faces(1, [(0,)])
        d0 = boundary_matrix(k, 0)
        assert (d0.rows, d0.cols) == (1, 1)
        assert d0.entries == {(0, 0): 1}

    def test_hollow_triangle_signs(self):
        k = from_maximal_faces(3, [(0, 1), (1, 2), (0, 2)])
        d1 = boundary_matrix(k, 1)
        # faces (0,1),(0,2),(1,2) in rows (0,),(1,),(2,)
        assert matrix_to_dense(d1) == [[-1, -1, 0], [1, 0, -1], [0, 1, 1]]

    def test_two_spine_triangle_column(self):
        g, b = gen_caterpillar(CaterpillarSpec((2, 1), (2, 1)))
        k = build_complex(g, b)
        d2 = boundary_matrix(k, 2)
        assert (d2.rows, d2.cols) == (5, 1)
        edges = {face_tuple(f): i for i, f in enumerate(k.faces(1))}
        col = {r: v for (r, _), v in d2.entries.items()}
        assert col == {
            edges[(2, 3)]: 1,
            edges[(1, 3)]: -1,
            edges[(1, 2)]: 1,
        }

    def test_boundary_of_boundary_is_zero(self):
        rng = random.Random(2)
        for _ in range(20):
            k = random_complex(rng)
            for d in range(1, k.dim + 1):
                a = boundary_matrix(k, d - 1) if d >= 1 else None
                bmat = boundary_matrix(k, d)
                prod: dict[tuple[int, int], int] = {}
                for (i, j), v in a.entries.items():
                    for (j2, l), w in bmat.entries.items():
                        if j == j2:
                            prod[(i, l)] = prod.get((i, l), 0) + v * w
                assert all(v == 0 for v in prod.values())

    def test_negative_dimension_rejected(self):
        with pytest.raises(ValueError):
            boundary_matrix(complex_from_faces(1, [(0,)]), -1)


class TestIntegerMatrix:
    def test_round_trip(self):
        dense = [[0, 2], [-3, 0]]
        m = matrix_from_dense(dense)
        assert matrix_to_dense(m) == dense and m.nnz == 2

    def test_zero_entries_dropped(self):
        m = IntegerMatrix(2, 2, {(0, 0): 0, (1, 1): 5})
        assert m.entries == {(1, 1): 5}


class TestSmithNormalForm:
    def test_diag_two_three(self):
        assert smith_normal_form(matrix_from_dense([[2, 0], [0, 3]])) == (2, (1, 6))

    def test_zero_matrix(self):
        assert smith_normal_form(matrix_from_dense([[0, 0], [0, 0]])) == (0, ())

    def test_rank_one_multiple(self):
        assert smith_normal_form(matrix_from_dense([[2, 4], [4, 8]])) == (1, (2,))

    def test_divisibility_chain_and_naive_agreement(self):
        rng = random.Random(6)
        for _ in range(250):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            scale = rng.choice([1, 1, 2, 6])
            dense = [
                [rng.randint(-4, 4) * scale for _ in range(cols)] for _ in range(rows)
            ]
            got = smith_normal_form(matrix_from_dense(dense))
            assert got == naive_snf(dense)
            rank, factors = got
            assert rank == len(factors)
            for a, b in zip(factors, factors[1:]):
                assert b % a == 0

    ENTRIES = {
        "mostly-units": st.sampled_from((-1, -1, 1, 1, 1, 0, 0, 2, -3)),
        "no-units": st.sampled_from((0, 2, -2, 3, -4, 6, 9, -10)),
        "huge": st.one_of(
            st.integers(-1, 1),
            st.integers(2**30 + 1, 2**70),
            st.integers(-(2**70), -(2**30) - 1),
        ),
    }

    @settings(max_examples=400, deadline=None, database=None, derandomize=True)
    @given(st.data())
    def test_matches_naive_snf_property(self, data):
        kind = data.draw(st.sampled_from(sorted(self.ENTRIES)))
        rows = data.draw(st.integers(1, 6))
        cols = data.draw(st.integers(1, 6))
        dense = data.draw(
            st.lists(
                st.lists(self.ENTRIES[kind], min_size=cols, max_size=cols),
                min_size=rows,
                max_size=rows,
            )
        )
        for i in data.draw(st.sets(st.integers(0, rows - 1))):
            dense[i] = [0] * cols
        for j in data.draw(st.sets(st.integers(0, cols - 1))):
            for row in dense:
                row[j] = 0
        rank, factors = smith_normal_form(matrix_from_dense(dense))
        assert (rank, factors) == naive_snf(dense)
        assert rank == len(factors) and all(b % a == 0 for a, b in zip(factors, factors[1:]))

    def test_on_boundary_matrices(self):
        rng = random.Random(8)
        for _ in range(15):
            k = random_complex(rng)
            for d in range(0, k.dim + 1):
                m = boundary_matrix(k, d)
                expected = naive_snf(matrix_to_dense(m))  # read before the reduction changes m
                assert smith_normal_form(m) == expected

    def test_columns_and_entries_eliminate_alike(self):
        # a boundary matrix built in column form and the same matrix rebuilt
        # from its (i, j) entries, row by row, go through one elimination
        k = caterpillar_3333()
        for d in range(k.dim + 1):
            m = boundary_matrix(k, d)
            rebuilt = IntegerMatrix(m.rows, m.cols, dict(sorted(m.entries.items())))
            assert rebuilt.nnz == m.nnz and rebuilt.entries == m.entries
            nnz = m.nnz
            pivots, rebuilt_pivots = [], []
            got = smith_normal_form(m, unit_rows=pivots)
            assert got == smith_normal_form(rebuilt, unit_rows=rebuilt_pivots)
            assert pivots == rebuilt_pivots and len(pivots) == got[0] > 0
            # reduced in place, a matrix is left reduced, and a fresh build gives the same
            assert smith_normal_form(boundary_matrix(k, d)) == got and m.nnz < nnz


class TestReducedHomology:
    def test_two_spine_example_is_circle(self):
        g, b = gen_caterpillar(CaterpillarSpec((2, 1), (2, 1)))
        h = reduced_homology(build_complex(g, b))
        assert h == HomologyProfile({1: 1}, {})

    def test_empty_complex(self):
        h = reduced_homology(complex_from_faces(0, []))
        assert h.betti == {-1: 1} and not h.torsion

    def test_two_isolated_points(self):
        h = reduced_homology(complex_from_faces(2, [(0,), (1,)]))
        assert h.betti == {0: 1} and not h.torsion

    def test_circle_complex(self):
        h = reduced_homology(build_complex(gen_cycle(3), (1, 1, 1)))
        # the three edges pairwise intersect, so only singletons are faces:
        # three points, i.e. two reduced classes in dimension 0
        assert h.betti == {0: 2}

    def test_projective_plane_torsion(self):
        k = from_maximal_faces(6, RP2_FACETS)
        h = reduced_homology(k)
        assert h.betti == {} and h.torsion == {1: (2,)}
        assert not h.is_torsion_free

    def test_matching_complex_of_k7(self):
        # classical: the 1-matching complex of the complete graph on 7
        # vertices has three-torsion in dimension 1 and free rank 20 above
        k7 = make_graph(7, list(itertools.combinations(range(7), 2)))
        h = reduced_homology(build_complex(k7, (1,) * 7))
        assert h.betti == {2: 20} and h.torsion == {1: (3,)}

    def test_matching_complex_of_k9(self):
        # a torsion group with several factors: (Z/3)^8 in dimension 2
        k9 = make_graph(9, list(itertools.combinations(range(9), 2)))
        h, euler = graph_homology(k9, (1,) * 9)
        assert h.betti == {2: 42, 3: 70} and h.torsion == {2: (3,) * 8}
        assert euler == 42 - 70

    def test_betti_minus_one_flag(self):
        rng = random.Random(10)
        for _ in range(20):
            k = random_complex(rng)
            h = reduced_homology(k)
            assert h.betti.get(-1, 0) in (0, 1)
            assert (h.betti.get(-1) == 1) == (k.num_faces == 0)

    def test_agrees_with_fraction_rank_betti(self):
        rng = random.Random(12)
        for _ in range(25):
            k = random_complex(rng)
            h = reduced_homology(k)
            assert h.betti == betti_via_fraction_rank(k)
            assert not h.torsion

    def test_euler_consistency(self):
        rng = random.Random(14)
        ks = [random_complex(rng) for _ in range(20)]
        ks.append(from_maximal_faces(6, RP2_FACETS))
        for k in ks:
            h = reduced_homology(k)
            euler = sum(
                b if d % 2 == 0 else -b for d, b in h.betti.items() if d >= 0
            ) - h.betti.get(-1, 0)
            total = -1
            for d in range(k.dim + 1):
                total += len(k.faces(d)) if d % 2 == 0 else -len(k.faces(d))
            assert euler == total


def caterpillar_3333():
    return build_complex(*gen_caterpillar(CaterpillarSpec((3,) * 4, (2,) * 4)))


def record_boundaries(monkeypatch):
    """Record each (matrix, d) the oracle builds, and each cell record it reads."""
    real = homology.boundary_matrix
    built, cells = [], []

    def recording(k, d, **kwargs):
        if not any(c is k for c in cells):
            cells.append(k)
        built.append((real(k, d, **kwargs), d))
        return built[-1][0]

    monkeypatch.setattr(homology, "boundary_matrix", recording)
    return built, cells


def record_cells(monkeypatch):
    """Record each cell record the oracle reduces, whether or not it builds a matrix."""
    real = homology.relative_homology
    cells = []

    def recording(k, crit=None):
        cells.append(k)
        return real(k, crit)

    monkeypatch.setattr(homology, "relative_homology", recording)
    return cells


class TestClearing:
    CASES = {
        "K7-matching": lambda: build_complex(
            make_graph(7, list(itertools.combinations(range(7), 2))), (1,) * 7
        ),
        "RP2": lambda: from_maximal_faces(6, RP2_FACETS),
        "caterpillar-m3333": caterpillar_3333,
        "C14-ones": lambda: build_complex(gen_cycle(14), (1,) * 14),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_matches_uncleared_reference(self, name):
        k = self.CASES[name]()
        assert reduced_homology(k) == reference_reduced_homology(k)

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(st.data())
    def test_matches_uncleared_reference_on_random_complexes(self, data):
        n = data.draw(st.integers(1, 8))
        facets = data.draw(
            st.lists(st.sets(st.integers(0, n - 1), min_size=1, max_size=5), max_size=10)
        )
        k = from_maximal_faces(n, facets)
        h = reduced_homology(k)
        assert h == reference_reduced_homology(k)
        assert list(h.torsion) == sorted(h.torsion)

    def test_cleared_columns_are_not_built(self, monkeypatch):
        k = caterpillar_3333()
        real = homology.boundary_matrix
        built, cells = record_boundaries(monkeypatch)
        reduced_homology(k)
        # the critical cells of the element matching lie in dimensions 4..7,
        # so the boundaries 4..1 are not built
        assert [d for _, d in built] == [7, 6, 5]
        full = sum(real(k, d).nnz for d in range(k.dim + 1))
        nnz = sum(m.nnz for m, _ in built)
        assert nnz < 0.6 * full
        assert nnz < 0.15 * full  # 1,993 of 26,700 nonzeros
        (rel,) = cells
        # the same cells' uncleared matrices have 4,137
        assert nnz < sum(real(rel, d).nnz for d in range(1, k.dim + 1))


def max_star(k) -> int:
    """Faces containing the element in the most faces, counted from the layers."""
    faces = [face_tuple(f) for layer in k.faces_by_dim for f in layer]
    return max(sum(x in f for f in faces) for x in range(k.ground_set))


class TestExcision:
    """The oracle reduces the pair (del e, lk e), e the element in the most faces."""

    CELLS = {
        "caterpillar-m3333": (caterpillar_3333, 1167),
        "C18-ones": (lambda: build_complex(gen_cycle(18), (1,) * 18), 2584),
        "cone-m33331": (
            lambda: build_complex(*gen_caterpillar(CaterpillarSpec((3, 3, 3, 3, 1), (2,) * 5))),
            0,
        ),
    }

    @pytest.mark.parametrize("name", sorted(CELLS))
    def test_cell_count(self, name, monkeypatch):
        make, expected = self.CELLS[name]
        k = make()
        cells = record_cells(monkeypatch)
        h = reduced_homology(k)
        (rel,) = cells
        # a face and its union with e pair off, the empty face with {e}
        assert rel.num_faces == k.num_faces + 1 - 2 * max_star(k) == expected
        if expected == 0:
            assert h == HomologyProfile({}, {})

    def test_point(self):
        assert reduced_homology(complex_from_faces(1, [(0,)])) == HomologyProfile({}, {})

    @pytest.mark.parametrize("v", range(6))
    def test_projective_plane_with_each_vertex_excised(self, v, monkeypatch):
        # every vertex lies in 11 faces and the tie goes to vertex 0, so
        # swapping the labels v and 0 excises the vertex v of RP2_FACETS
        swap = {0: v, v: 0}
        k = from_maximal_faces(6, [[swap.get(x, x) for x in f] for f in RP2_FACETS])
        _, cells = record_boundaries(monkeypatch)
        assert reduced_homology(k) == HomologyProfile({}, {1: (2,)})
        (rel,) = cells
        assert rel.num_faces > 0 and all(
            0 not in face_tuple(f) for layer in rel.faces_by_dim for f in layer
        )

    def test_octahedron_boundary(self):
        # every vertex ties
        facets = list(itertools.product((0, 1), (2, 3), (4, 5)))
        assert reduced_homology(from_maximal_faces(6, facets)) == HomologyProfile({2: 1}, {})

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(st.data())
    def test_matches_reference_on_graphs_with_cycles(self, data):
        n = data.draw(st.integers(3, 7))
        cycle = data.draw(st.integers(3, n))
        ring = {tuple(sorted((i, (i + 1) % cycle))) for i in range(cycle)}
        chords = data.draw(st.sets(st.sampled_from(list(itertools.combinations(range(n), 2))), max_size=6))
        g = make_graph(n, sorted(ring | chords))
        bounds = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        k = build_complex(g, bounds)
        assert reduced_homology(k) == reference_reduced_homology(k)


def draw_graph(data):
    """Hypothesis draw: a graph with cycles, or a forest with bounds 0..2."""
    if data.draw(st.booleans()):
        return graph_with_cycles(data)
    # mostly 1, so that fewer forests give a cone
    g = random_forest(random.Random(data.draw(st.integers(0, 2**16))), data.draw(st.integers(4, 12)))
    bound = st.sampled_from((1, 2, 1, 0))
    return g, tuple(data.draw(st.lists(bound, min_size=g.num_vertices, max_size=g.num_vertices)))


def record_walks(monkeypatch) -> list:
    """Record each call of the oracle's cell walk, `excised_cells`."""
    real = homology.excised_cells
    walks = []

    def recording(*args, **kwargs):
        walks.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(homology, "excised_cells", recording)
    return walks


class TestGraphOracle:
    """`graph_homology` end to end against the whole complex reduced without clearing."""

    def test_matches_reference_on_graphs(self, monkeypatch):
        walks = record_walks(monkeypatch)
        routes = Counter()

        @settings(max_examples=400, deadline=None, database=None, derandomize=True)
        @given(st.data())
        def check(data):
            g, b = draw_graph(data)
            k = build_complex(g, b)
            walks.clear()
            h = graph_homology(g, b)
            assert h == (reference_reduced_homology(k), reduced_euler(k))
            cells = excised_cells(g, b)
            if cells is None:
                routes["empty"] += 1
            elif cells.dim < 0:
                routes["cone"] += 1
            elif walks:
                routes["walk"] += 1
            else:
                # answered from the critical cells: the walk's reduction agrees
                assert h == (homology.relative_homology(cells), reduced_euler(cells) + 1)
                routes["counts"] += 1

        check()
        assert routes["counts"] and routes["walk"]

    # under 23 edges a graph has at most 2^22 faces, within the default cap
    UNCOUNTED = {
        "C14-ones": (gen_cycle(14), (1,) * 14, HomologyProfile({4: 1}, {}), 1),
        "cone-m33331": (*gen_caterpillar(CaterpillarSpec((3, 3, 3, 3, 1), (2,) * 5)), HomologyProfile(), 0),
        "K7-matching": (
            make_graph(7, list(itertools.combinations(range(7), 2))), (1,) * 7,
            HomologyProfile({2: 20}, {1: (3,)}), 20,
        ),
    }

    @pytest.mark.parametrize("name", sorted(UNCOUNTED))
    def test_faces_are_not_counted_where_the_cap_cannot_bind(self, name, monkeypatch):
        g, b, profile, euler = self.UNCOUNTED[name]
        assert g.num_edges < DEFAULT_FACE_CAP.bit_length() == 23

        def refuse(*args, **kwargs):
            raise AssertionError("faces counted before the matching tree")

        monkeypatch.setattr(homology, "_edge_counts", refuse)
        assert graph_homology(g, b) == (profile, euler)

    def test_faces_are_counted_first_where_the_cap_can_bind(self, monkeypatch):
        g = make_graph(8, list(itertools.combinations(range(8), 2)))
        real = homology._edge_counts
        calls = []

        def recording(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(homology, "_edge_counts", recording)
        assert graph_homology(g, (1,) * 8) == (HomologyProfile({2: 132}, {}), 132)
        assert g.num_edges == 28 and len(calls) == 1

    @pytest.mark.parametrize("n, cap", [(33, DEFAULT_FACE_CAP), (20, 1000)])
    def test_over_cap_cycles_are_still_refused(self, n, cap):
        # all-ones C33 has 7,881,195 faces and C20 15,126, the empty face left out
        with pytest.raises(FaceCapExceededError, match=f"^more than {cap} faces in bounded degree complex$"):
            graph_homology(gen_cycle(n), (1,) * n, cap)


def assert_tree_matching(g, b, k):
    """The tree's matching on the faces of `k` is an acyclic matching that leaves the counted cells."""
    faces = tuple_faces(k) | {()}
    partner = reference_tree_matching(g, b, faces)
    assert partner.keys() == faces
    for f, p in partner.items():
        if p is not None:
            assert len(set(f) ^ set(p)) == 1  # one edge away
            assert partner[p] == f
    assert morse_graph_is_acyclic(partner)
    unmatched = Counter(len(f) for f, p in partner.items() if p is None)
    crit = homology._critical_cells(g, b)
    assert [unmatched[n] for n in range(len(crit))] == crit
    assert sum(unmatched.values()) == sum(crit)


def complete_graph(n: int):
    return make_graph(n, list(itertools.combinations(range(n), 2)))


class TestMatchingTree:
    """The matching whose critical cells `_critical_cells` counts, built face by face."""

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(st.data())
    def test_is_an_acyclic_matching_leaving_the_counted_cells(self, data):
        g, b = graph_with_cycles(data)
        try:
            k = build_complex(g, b, face_cap=4000)
        except FaceCapExceededError:
            return
        assert_tree_matching(g, b, k)

    # larger than the draws reach: critical cells in adjacent dimensions
    # (K7, K_{4,4}, the graph of `test_cells_paired_upward_are_cleared`),
    # 1,857 faces (K6 at bound 2), and a cone
    FIXED = {
        "K7-ones": (complete_graph(7), (1,) * 7),
        "K6-twos": (complete_graph(6), (2,) * 6),
        "K44-ones": (make_graph(8, [(a, c) for a in range(4) for c in range(4, 8)]), (1,) * 8),
        "paired-up": (
            make_graph(7, [(0, 3), (0, 5), (0, 6), (1, 2), (1, 3), (2, 3), (2, 6), (3, 4), (4, 5), (5, 6)]),
            (3, 1, 4, 2, 3, 1, 1),
        ),
        "C12-bound2": (gen_cycle(12), tuple(1 if i % 3 == 0 else 2 for i in range(12))),
    }

    @pytest.mark.parametrize("name", sorted(FIXED))
    def test_fixed_graphs(self, name):
        g, b = self.FIXED[name]
        assert_tree_matching(g, b, build_complex(g, b))

    def test_cycle_check_sees_a_cyclic_matching(self):
        # the hollow triangle with each vertex paired to the edge after it: a
        # gradient path (0,1) > (1,) < (1,2) > (2,) < (0,2) > (0,) < (0,1)
        partner = {(): None, (0, 1, 2): None}
        for f, p in [((0,), (0, 1)), ((1,), (1, 2)), ((2,), (0, 2))]:
            partner[f], partner[p] = p, f
        assert not morse_graph_is_acyclic(partner)
        partner[(0,)], partner[(1,)], partner[(2,)] = (0, 2), (0, 1), (1, 2)
        partner[(0, 2)], partner[(0, 1)], partner[(1, 2)] = (0,), (1,), (2,)
        assert not morse_graph_is_acyclic(partner)
        partner = {(): (0,), (0,): (), (1,): (0, 1), (0, 1): (1,)}
        assert morse_graph_is_acyclic(partner)

    def test_all_ones_cycles_take_kozlovs_form_from_the_counts(self, monkeypatch):
        # Kozlov (JCTA 88, 1999): Ind(C_n), the complex of all-ones C_n, is
        # S^{k-1} v S^{k-1} for n = 3k, S^{k-1} for n = 3k+1 and S^k for n = 3k+2
        def refuse(*args, **kwargs):
            raise AssertionError("cells walked")

        monkeypatch.setattr(homology, "excised_cells", refuse)
        for n in range(3, 31):
            k, r = divmod(n, 3)
            d, spheres = [(k - 1, 2), (k - 1, 1), (k, 1)][r]
            assert graph_homology(gen_cycle(n), (1,) * n) == (
                HomologyProfile({d: spheres}, {}), (-1) ** d * spheres
            )


class TestElementMatching:
    """The oracle pairs cells off by element matchings before it builds a matrix."""

    CASES = {
        "C14-ones": (gen_cycle(14), (1,) * 14, HomologyProfile({4: 1}, {}), 1),
        "C18-ones": (gen_cycle(18), (1,) * 18, HomologyProfile({5: 2}, {}), -2),
        "K8-matching": (
            make_graph(8, list(itertools.combinations(range(8), 2))), (1,) * 8,
            HomologyProfile({2: 132}, {}), 132,
        ),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_critical_cells_in_one_dimension_build_no_matrix(self, name, monkeypatch):
        g, b, profile, euler = self.CASES[name]

        def refuse(*args, **kwargs):
            raise AssertionError("boundary matrix built")

        monkeypatch.setattr(homology, "boundary_matrix", refuse)
        assert graph_homology(g, b) == (profile, euler)

    def test_cells_paired_upward_are_cleared(self, monkeypatch):
        # critical cells in dimensions 2 and 3 only: the boundary 4 is not
        # built, so nothing clears the boundary 3, which is built whole
        g = make_graph(7, [(0, 3), (0, 5), (0, 6), (1, 2), (1, 3), (2, 3), (2, 6), (3, 4), (4, 5), (5, 6)])
        b = (3, 1, 4, 2, 3, 1, 1)
        real = homology.boundary_matrix
        built = []

        def recording(k, d, *, skip=()):
            built.append((d, len(skip)))
            return real(k, d, skip=skip)

        monkeypatch.setattr(homology, "boundary_matrix", recording)
        h, euler = graph_homology(g, b)
        assert built == [(3, 0)]
        k = build_complex(g, b)
        assert h == reference_reduced_homology(k) == HomologyProfile({2: 2, 3: 2}, {})
        assert euler == reduced_euler(k)

    # the complexes of the benchmark's `compute` workload, in its edge order:
    # the matching tree's critical cells by number of edges, the path that
    # answers, the element matchings' critical cells per dimension on the
    # walked cells, and the boundaries the oracle builds, where the tree's
    # counts lie in adjacent dimensions (on the counts the walk is not
    # run, and the element matchings' vector is the one it would find)
    WORK = {
        "caterpillar-m3333": (
            gen_caterpillar(CaterpillarSpec((3,) * 4, (2,) * 4)), [0, 0, 0, 0, 0, 4, 24, 12, 1], "walk",
            [0, 0, 0, 0, 12, 40, 20, 1, 0], [7, 6, 5],
        ),
        "caterpillar-m22222": (
            gen_caterpillar(CaterpillarSpec((2,) * 5, (2,) * 5)), [0, 0, 0, 0, 0, 0, 1, 2], "walk",
            [0, 0, 0, 0, 0, 2, 4, 1, 0, 0], [6],
        ),
        "C14-ones": (
            (gen_cycle(14), (1,) * 14), [0, 0, 0, 0, 0, 1], "counts", [0, 0, 0, 0, 1, 0, 0, 0], [],
        ),
        "C16-ones": (
            (gen_cycle(16), (1,) * 16), [0, 0, 0, 0, 0, 1], "counts", [0, 0, 0, 0, 1, 0, 0, 0, 0], [],
        ),
        "C18-ones": (
            (gen_cycle(18), (1,) * 18), [0, 0, 0, 0, 0, 0, 2], "counts", [0, 0, 0, 0, 0, 2, 0, 0, 0, 0], [],
        ),
        "K7-matching": (
            (make_graph(7, list(itertools.combinations(range(7), 2))), (1,) * 7), [0, 0, 10, 30], "walk",
            [0, 7, 27, 0], [2],
        ),
        "K8-matching": (
            (make_graph(8, list(itertools.combinations(range(8), 2))), (1,) * 8), [0, 0, 0, 132], "counts",
            [0, 0, 132, 0, 0], [],
        ),
    }

    @pytest.mark.parametrize("name", sorted(WORK))
    def test_compute_complexes_keep_their_work(self, name, monkeypatch):
        (g, b), tree, path, crit, dims = self.WORK[name]
        assert homology._critical_cells(g, b) == tree
        assert homology._element_matching(excised_cells(g, b)) == crit
        real = homology.boundary_matrix
        built = []

        def recording(k, d, **kwargs):
            built.append(d)
            return real(k, d, **kwargs)

        monkeypatch.setattr(homology, "boundary_matrix", recording)
        walks = record_walks(monkeypatch)
        graph_homology(g, b)
        assert ("walk" if walks else "counts") == path
        assert built == (dims if walks else [])

    def test_two_runs_of_critical_cells(self, monkeypatch):
        # RP^2 on the vertices 0-5 and the boundary of the 5-simplex on 5-10,
        # glued at the vertex 5: the element matchings leave critical cells
        # in the dimensions 1, 2 and 4, two runs, so the Betti number at the
        # top of the run 4 is found past the whole run 1-2
        facets = RP2_FACETS + list(itertools.combinations(range(5, 11), 5))
        k = from_maximal_faces(11, facets)
        cells = record_cells(monkeypatch)
        h = reduced_homology(k)
        (rel,) = cells
        assert homology._element_matching(rel) == [0, 1, 1, 0, 1, 0]
        assert h == reference_reduced_homology(k) == HomologyProfile({4: 1}, {1: (2,)})

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(st.data())
    def test_morse_inequalities(self, data):
        g, b = draw_graph(data)
        cells = excised_cells(g, b)
        if cells is None:
            return
        crit = homology._element_matching(cells)
        # the cells leave out the empty face, which reduced_euler counts
        assert sum((-1) ** d * c for d, c in enumerate(crit)) == reduced_euler(cells) + 1
        betti = homology.relative_homology(cells).betti
        assert all(betti.get(d, 0) <= c for d, c in enumerate(crit))


class TestWedgeProfile:
    def test_circle_profile(self):
        g, b = gen_caterpillar(CaterpillarSpec((2, 1), (2, 1)))
        assert wedge_profile(reduced_homology(build_complex(g, b))) == {1: 1}

    def test_contractible(self):
        assert wedge_profile(HomologyProfile({}, {})) == {}

    def test_torsion_is_not_wedge_consistent(self):
        k = from_maximal_faces(6, RP2_FACETS)
        assert wedge_profile(reduced_homology(k)) is None


class TestExactFallback:
    def test_large_entries_stay_exact(self):
        # entries far past machine-word range must still come out exact
        big = 3 ** 50
        m = matrix_from_dense([[big, 0], [0, big * 2]])
        rank, factors = smith_normal_form(m)
        assert rank == 2 and factors == (big, big * 2)

    def test_no_unit_entries(self):
        m = matrix_from_dense([[2, 4], [6, 10]])
        assert smith_normal_form(m) == naive_snf([[2, 4], [6, 10]])

    def test_doubled_boundary_matrix(self):
        # no unit entries, so all 8,262 nonzeros go to the exact phase
        m = boundary_matrix(caterpillar_3333(), 5)
        assert (m.rows, m.cols, m.nnz) == (1611, 1377, 8262)
        doubled = IntegerMatrix(m.rows, m.cols, {ij: 2 * v for ij, v in m.entries.items()})
        rank, factors = smith_normal_form(m)
        assert rank == 878
        assert smith_normal_form(doubled) == (878, tuple(2 * x for x in factors))

    def test_doubled_boundary_matrix_memory(self):
        # the elimination's own memory stays within a small multiple of its matrix
        m = boundary_matrix(caterpillar_3333(), 5)
        entries = {ij: 2 * v for ij, v in m.entries.items()}
        tracemalloc.start()
        try:
            doubled = IntegerMatrix(m.rows, m.cols, entries)
            size = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            smith_normal_form(doubled)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * size

    def test_pivot_row_left_by_a_remainder(self):
        # the pivot moves to smaller remainders, in other rows and columns,
        # and every entry it leaves behind must still be reduced
        dense = [[-5, 7, 0], [0, 4, 4], [0, 4, 0]]
        assert smith_normal_form(matrix_from_dense(dense)) == naive_snf(dense) == (3, (1, 4, 20))


class TestMemoryBound:
    def test_large_caterpillar_under_one_gigabyte(self):
        # a dense rows x columns int64 array for one boundary matrix of this
        # 47,238-face complex would take 1.26 GB on its own
        script = textwrap.dedent(
            """
            import resource
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
            from bdcomplex import (
                CaterpillarSpec, build_complex, caterpillar_closed_form,
                gen_caterpillar, reduced_homology, wedge_profile,
            )
            spec = CaterpillarSpec((3,) * 5, (2,) * 5)
            k = build_complex(*gen_caterpillar(spec))
            assert k.num_faces == 47238, k.num_faces
            assert wedge_profile(reduced_homology(k)) == caterpillar_closed_form(spec)
            """
        )
        src = os.path.dirname(os.path.dirname(bdcomplex.__file__))
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
