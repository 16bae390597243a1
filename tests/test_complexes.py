import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdcomplex.complexes import (
    SimplicialComplex,
    build_complex,
    edge_face_counts,
    excised_cells,
)
from bdcomplex.errors import FaceCapExceededError
from bdcomplex.graph import (
    CaterpillarSpec,
    Graph,
    disjoint_union,
    gen_caterpillar,
    gen_cycle,
    gen_path,
    nonisomorphic_forests,
    random_forest,
)
from bdcomplex.homology import HomologyProfile, graph_homology

from oracles import (
    DepthCapExceededError,
    NotAVertexError,
    brute_force_faces,
    complex_from_faces,
    deletion,
    dump,
    f_vector,
    from_maximal_faces,
    grape_witness,
    graph_with_cycles,
    has_face,
    link,
    maximal_faces,
    reduced_euler,
    reference_edge_face_counts,
    face_tuple,
    reference_excise,
    reference_layers,
    tuple_faces,
    vertices,
)


def two_spine_instance():
    return gen_caterpillar(CaterpillarSpec((2, 1), (2, 1)))


class TestBuildComplex:
    def test_two_spine_example(self):
        g, b = two_spine_instance()
        k = build_complex(g, b)
        assert maximal_faces(k) == ((0, 1), (0, 2), (1, 2, 3))
        assert f_vector(k) == (4, 5, 1)

    def test_zero_bounds_empty_complex(self):
        g = gen_path(4)
        k = build_complex(g, (0, 0, 0, 0))
        assert k.num_faces == 0 and k.dim == -1

    def test_single_edge_cone_point(self):
        k = build_complex(gen_path(2), (1, 1))
        assert tuple_faces(k) == {(0,)}

    def test_matches_brute_force(self):
        rng = random.Random(5)
        graphs = [gen_cycle(4), gen_cycle(5), Graph(4, ((0, 1), (1, 2), (2, 3), (0, 3), (0, 2)))]
        for _ in range(30):
            graphs.append(random_forest(rng, 7))
        for g in graphs:
            b = tuple(rng.randint(0, 3) for _ in range(g.num_vertices))
            k = build_complex(g, b)
            assert tuple_faces(k) | {()} == brute_force_faces(g, b)

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(st.data())
    def test_layers_come_sorted(self, data):
        # the record is the enumeration itself: equal to the sorted, validated
        # layers of the brute-force faces, on graphs with cycles too
        n = data.draw(st.integers(0, 6))
        pairs = list(itertools.combinations(range(n), 2))
        edges = data.draw(st.lists(st.sampled_from(pairs), max_size=8, unique=True)) if pairs else []
        g = Graph(n, tuple(edges))
        b = tuple(data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
        assert build_complex(g, b) == complex_from_faces(g.num_edges, brute_force_faces(g, b))

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(st.data())
    def test_masks_match_the_tuple_enumeration(self, data):
        # face for face and in order, on graphs with cycles
        g, b = graph_with_cycles(data)
        layers = build_complex(g, b).faces_by_dim
        assert all(type(f) is int for layer in layers for f in layer)
        assert [list(map(face_tuple, layer)) for layer in layers] == reference_layers(g, b)

    def test_face_cap(self):
        g, b = two_spine_instance()
        assert build_complex(g, b, face_cap=10).num_faces == 10
        with pytest.raises(FaceCapExceededError):
            build_complex(g, b, face_cap=9)

    def test_bad_bounds_length(self):
        with pytest.raises(ValueError):
            build_complex(gen_path(3), (1, 1))


class TestExcisedCells:
    """The face counts and cells of the oracle, taken on the graph, against the whole complex."""

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(st.data())
    def test_matches_the_whole_complex_on_graphs_with_cycles(self, data):
        g, b = graph_with_cycles(data)
        k = build_complex(g, b)
        assert edge_face_counts(g, b) == reference_edge_face_counts(k)
        cells = excised_cells(g, b)
        if k.dim < 0:
            assert cells is None
        else:
            ref = reference_excise(k)
            assert cells.ground_set == g.num_edges and cells.dim <= k.dim
            assert [cells.faces(d) for d in range(k.dim + 1)] == list(ref.faces_by_dim)
        size = k.num_faces
        if size:
            assert build_complex(g, b, face_cap=size) == k
            assert edge_face_counts(g, b, face_cap=size) == reference_edge_face_counts(k)
            assert excised_cells(g, b, face_cap=size) == cells
        if size > 1:
            for fn in (build_complex, edge_face_counts, excised_cells):
                with pytest.raises(FaceCapExceededError, match=f"more than {size - 1} faces"):
                    fn(g, b, face_cap=size - 1)

    def test_complex_without_a_vertex(self):
        assert edge_face_counts(Graph(0, ()), ()) == []
        assert excised_cells(Graph(0, ()), ()) is None
        # every edge has an end with bound 0
        triangle = gen_cycle(3)
        assert edge_face_counts(triangle, (0, 0, 2)) == [0, 0, 0]
        assert excised_cells(triangle, (0, 0, 2)) is None

    def test_cone_has_no_cells(self):
        g, b = gen_caterpillar(CaterpillarSpec((3, 3, 3, 3, 1), (2,) * 5))
        cells = excised_cells(g, b)
        assert cells is not None and cells.num_faces == 0

    def test_over_cap_cycle_is_refused_before_the_walk(self, monkeypatch):
        from bdcomplex import complexes

        def walk(*args):
            raise AssertionError("the cell walk was entered")

        monkeypatch.setattr(complexes, "_walk", walk)
        # all-ones C60 has Lucas(60), about 3.5e12, faces
        with pytest.raises(FaceCapExceededError, match="more than 200000 faces"):
            excised_cells(gen_cycle(60), (1,) * 60, face_cap=200_000)

    CONES = {
        "caterpillar-m33331": gen_caterpillar(CaterpillarSpec((3, 3, 3, 3, 1), (2,) * 5)),
        "C12-bound2": (gen_cycle(12), tuple(1 if i % 3 == 0 else 2 for i in range(12))),
        "C13-bound2": (gen_cycle(13), tuple(1 if i % 3 == 0 else 2 for i in range(13))),
    }

    @pytest.mark.parametrize("name", sorted(CONES))
    def test_cone_is_answered_from_the_counts(self, name, monkeypatch):
        from bdcomplex import complexes

        g, b = self.CONES[name]
        # K = st(e) for the edge e in the most faces: with the empty face,
        # |K| = 2 max(counts)
        assert 2 * max(edge_face_counts(g, b)) == build_complex(g, b).num_faces + 1

        def walk(*args):
            raise AssertionError("the cell walk was entered")

        monkeypatch.setattr(complexes, "_walk", walk)
        cells = excised_cells(g, b)
        assert cells == SimplicialComplex(g.num_edges, ()) and cells.num_faces == 0
        assert graph_homology(g, b) == (HomologyProfile({}, {}), 0)

    def test_tie_goes_to_the_smallest_edge(self):
        # every edge of an all-ones C5 is in three faces: e = 0 = (0, 1), and
        # the cells are the faces of del(0) that meet vertex 0 or 1
        g = gen_cycle(5)
        assert edge_face_counts(g, (1,) * 5) == [3] * 5
        cells = excised_cells(g, (1,) * 5)
        assert all(
            any(x in (0, 1) for i in face_tuple(f) for x in g.edges[i]) for f in cells.face_set
        )
        assert cells == reference_excise(build_complex(g, (1,) * 5))


class TestComplexType:
    def test_downward_closure_validated(self):
        with pytest.raises(ValueError):
            complex_from_faces(3, [(0, 1)])
        k = complex_from_faces(3, [(0,), (1,), (0, 1)])
        assert k.dim == 1

    def test_from_maximal_faces_round_trip(self):
        k = from_maximal_faces(4, [(0, 1, 2), (2, 3)])
        assert maximal_faces(k) == ((2, 3), (0, 1, 2))
        assert f_vector(k) == (4, 4, 1)

    def test_dump_format(self):
        k = complex_from_faces(3, [(0,), (2,), (0, 2)])
        assert dump(k) == "-\n0\n2\n0,2"

    def test_empty_complex_dump(self):
        assert dump(complex_from_faces(0, [])) == "-"

    def test_equality_is_by_faces(self):
        a = complex_from_faces(2, [(0,), (1,)])
        b = complex_from_faces(2, [(1,), (0,)])
        assert a == b and hash(a) == hash(b)
        assert a != complex_from_faces(3, [(0,), (1,)])


class TestLinkDeletion:
    def test_link_of_spine_edge(self):
        g, b = two_spine_instance()
        k = build_complex(g, b)
        lk = link(k, 0)
        assert tuple_faces(lk) == {(1,), (2,)}

    def test_link_of_cone_apex(self):
        base = from_maximal_faces(3, [(0, 1)])
        cone = from_maximal_faces(4, [(0, 1, 3)])
        assert link(cone, 3).face_set == base.face_set

    def test_link_in_zero_dimensional_complex(self):
        k = complex_from_faces(2, [(0,), (1,)])
        assert link(k, 0).num_faces == 0

    def test_link_requires_vertex(self):
        k = complex_from_faces(3, [(0,), (1,)])
        with pytest.raises(NotAVertexError):
            link(k, 2)

    def test_deletion_of_spine_edge(self):
        g, b = two_spine_instance()
        k = build_complex(g, b)
        expected = from_maximal_faces(4, [(1, 2, 3)])
        assert deletion(k, 0).face_set == expected.face_set

    def test_deletion_of_non_vertex_is_identity(self):
        k = complex_from_faces(3, [(0,), (1,)])
        assert deletion(k, 2) == k

    def test_deletion_of_only_vertex(self):
        k = complex_from_faces(1, [(0,)])
        assert deletion(k, 0).num_faces == 0

    def test_cone_union_decomposition(self):
        # the complex is the union of the cone over the link and the deletion,
        # and they intersect exactly in the link
        rng = random.Random(9)
        for _ in range(25):
            g = random_forest(rng, 7)
            if g.num_edges == 0:
                continue
            b = tuple(rng.randint(0, 2) for _ in range(g.num_vertices))
            k = build_complex(g, b)
            for a in vertices(k):
                lk, dl = link(k, a), deletion(k, a)
                cone_faces = set(lk.face_set) | {f | 1 << a for f in lk.face_set} | {1 << a}
                assert cone_faces | set(dl.face_set) == set(k.face_set)
                assert cone_faces & set(dl.face_set) == set(lk.face_set)


class TestEuler:
    def test_two_spine_value(self):
        g, b = two_spine_instance()
        assert reduced_euler(build_complex(g, b)) == -1

    def test_empty_complex(self):
        assert reduced_euler(complex_from_faces(0, [])) == -1

    def test_single_point(self):
        assert reduced_euler(complex_from_faces(1, [(0,)])) == 0


class TestJoinOfDisjointUnion:
    def test_union_complex_is_join(self):
        rng = random.Random(13)
        for _ in range(25):
            g1 = random_forest(rng, 5)
            g2 = random_forest(rng, 5)
            b1 = tuple(rng.randint(0, 2) for _ in range(g1.num_vertices))
            b2 = tuple(rng.randint(0, 2) for _ in range(g2.num_vertices))
            g, b = disjoint_union(g1, b1, g2, b2)
            k = build_complex(g, b)
            k1 = build_complex(g1, b1)
            k2 = build_complex(g2, b2)
            shift = g1.num_edges
            joined = set()
            for f1 in list(k1.face_set) + [0]:
                for f2 in list(k2.face_set) + [0]:
                    face = f1 | f2 << shift
                    if face:
                        joined.add(face)
            assert joined == set(k.face_set)


def complex_component_count(k):
    """Connected components of a complex through shared edges, by union-find."""
    verts = list(vertices(k))
    parent = {v: v for v in verts}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in map(face_tuple, k.faces(1)):
        parent[find(u)] = find(v)
    sizes: dict[int, int] = {}
    for v in verts:
        sizes[find(v)] = sizes.get(find(v), 0) + 1
    return sizes


class TestForestComplexShape:
    def test_at_most_one_fat_component(self):
        # complexes of forests never split into two components that both
        # have more than one vertex (that would force a 4-cycle in the graph)
        rng = random.Random(17)
        for forest in nonisomorphic_forests(7)[1:]:
            for _ in range(3):
                b = tuple(rng.randint(0, 3) for _ in range(forest.num_vertices))
                sizes = complex_component_count(build_complex(forest, b))
                assert sum(1 for s in sizes.values() if s > 1) <= 1


def assert_witness_valid(k, w):
    """Re-verify a decomposition witness straight from the definition."""
    if w.vertex is None:
        assert len(vertices(k)) <= 1
        return
    assert has_face(k, (w.vertex,))
    lk, dl = link(k, w.vertex), deletion(k, w.vertex)
    assert has_face(dl, (w.apex,)) and w.apex != w.vertex
    for face in lk.face_set:
        assert has_face(dl, tuple(sorted(set(face_tuple(face)) | {w.apex})))
    assert_witness_valid(lk, w.link_witness)
    assert_witness_valid(dl, w.deletion_witness)


class TestGrapeWitness:
    def test_two_spine_example(self):
        g, b = two_spine_instance()
        k = build_complex(g, b)
        w = grape_witness(k)
        assert w is not None
        assert w.vertex == 0 and w.apex == 1
        assert_witness_valid(k, w)

    def test_single_vertex_complex(self):
        w = grape_witness(complex_from_faces(1, [(0,)]))
        assert w is not None and w.vertex is None

    def test_empty_complex(self):
        assert grape_witness(complex_from_faces(0, [])) is not None

    def test_depth_cap(self):
        g, b = two_spine_instance()
        with pytest.raises(DepthCapExceededError):
            grape_witness(build_complex(g, b), depth_cap=0)

    def test_small_forest_complexes_are_grapes(self):
        rng = random.Random(19)
        for forest in nonisomorphic_forests(3)[1:]:
            for b in itertools.product(range(3), repeat=forest.num_vertices):
                k = build_complex(forest, b)
                w = grape_witness(k)
                assert w is not None
                assert_witness_valid(k, w)
        for _ in range(10):
            g = random_forest(rng, 6)
            b = tuple(rng.randint(0, 2) for _ in range(g.num_vertices))
            k = build_complex(g, b)
            w = grape_witness(k)
            assert w is not None
            assert_witness_valid(k, w)
