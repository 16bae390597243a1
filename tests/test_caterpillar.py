import itertools
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdcomplex.caterpillar import caterpillar_closed_form, cycle_reduce
from bdcomplex.complexes import build_complex
from bdcomplex.errors import (
    HypothesisViolatedError,
    InvalidSizeError,
    ParseError,
)
from bdcomplex.graph import (
    CaterpillarSpec,
    forest_plan,
    gen_caterpillar,
    gen_cycle,
    is_forest,
    make_graph,
)
from bdcomplex.harness import compute_instance, instance_json, parse_instance
from bdcomplex.homology import graph_homology, reduced_homology, wedge_profile
from bdcomplex.recursion import plan_counts, sphere_counts

from oracles import (
    InvalidStarError,
    SpineSubset,
    face_tuple,
    graph_keeping_a_cycle,
    graph_with_cycles,
    reference_caterpillar_counts,
    reference_reduced_homology,
    spine_subsets,
    star_profile,
    tuple_faces,
)


class TestStarProfile:
    def test_three_leaves_bound_one(self):
        assert star_profile(1, 3) == {0: 2}

    def test_slack_bound_is_contractible(self):
        assert star_profile(3, 2) == {}

    def test_zero_bound_is_empty_complex(self):
        assert star_profile(0, 5) == {-1: 1}

    def test_no_leaves_rejected(self):
        with pytest.raises(InvalidStarError):
            star_profile(1, 0)

    def test_matches_recursion(self):
        for r in range(1, 9):
            for k in range(0, 9):
                g, b = gen_caterpillar(CaterpillarSpec((r,), (k,)))
                assert star_profile(k, r) == sphere_counts(g, b), (k, r)


class TestSpineSubset:
    def test_degree_and_flag_identities(self):
        for n in range(1, 6):
            for subset in spine_subsets(n):
                degrees = subset.vertex_degrees()
                flags = subset.suspension_flags()
                assert all(t in (0, 1, 2) for t in degrees)
                assert sum(degrees) == 2 * subset.size
                assert sum(flags) == subset.size

    def test_subset_count(self):
        assert sum(1 for _ in spine_subsets(4)) == 8

    def test_out_of_range_member(self):
        with pytest.raises(ValueError):
            SpineSubset(2, frozenset({5}))


class TestClosedForm:
    def test_two_spine_example(self):
        assert caterpillar_closed_form(CaterpillarSpec((2, 1), (2, 1))) == {1: 1}

    def test_four_three_leaves(self):
        assert caterpillar_closed_form(CaterpillarSpec((4, 3), (1, 1))) == {0: 1, 1: 6}

    def test_single_leaf_is_contractible(self):
        assert caterpillar_closed_form(CaterpillarSpec((1,), (1,))) == {}

    def test_needs_leaves_everywhere(self):
        with pytest.raises(HypothesisViolatedError):
            caterpillar_closed_form(CaterpillarSpec((1, 0), (1, 1)))

    def test_zero_bounds_give_empty_complex(self):
        assert caterpillar_closed_form(CaterpillarSpec((2, 2), (0, 0))) == {-1: 1}

    def test_total_count_identity(self):
        # summing the counts re-partitions the double sum over spine subsets
        for spec in [
            CaterpillarSpec((2, 1, 3), (1, 2, 1)),
            CaterpillarSpec((3, 3), (2, 2)),
            CaterpillarSpec((1, 2), (3, 0)),
        ]:
            total = sum(caterpillar_closed_form(spec).values())
            expected = 0
            for subset in spine_subsets(spec.n):
                degrees = subset.vertex_degrees()
                term = 1
                for m_i, lam_i, t_i in zip(spec.m, spec.lambda_spine, degrees):
                    b = lam_i - t_i
                    term *= comb(m_i - 1, b) if 0 <= b <= m_i - 1 else 0
                expected += term
            assert total == expected

    def test_matches_spine_subset_sum_grid(self):
        checked = 0
        for n in range(1, 5):
            for m in itertools.product((1, 2, 3), repeat=n):
                for lam in itertools.product(range(4), repeat=n):
                    spec = CaterpillarSpec(m, lam)
                    assert caterpillar_closed_form(spec) == reference_caterpillar_counts(spec), spec
                    checked += 1
        assert checked == 22620

    def test_long_spine_matches_recursion(self):
        # 2^39 spine-edge subsets: only the transfer along the spine can do this
        m = tuple(1 + i % 3 for i in range(40))
        lam = tuple(1 + i % 3 for i in range(40))
        spec = CaterpillarSpec(m, lam)
        g, b = gen_caterpillar(spec)
        counts = caterpillar_closed_form(spec)
        assert len(counts) == 8 and counts == sphere_counts(g, b)

    def test_matches_recursion_small_grid(self):
        for n in range(1, 4):
            for m in itertools.product((1, 2, 3), repeat=n):
                for lam in itertools.product(range(4), repeat=n):
                    spec = CaterpillarSpec(m, lam)
                    g, b = gen_caterpillar(spec)
                    assert caterpillar_closed_form(spec) == sphere_counts(g, b), spec


def mapped_back(split_complex, kept):
    """Faces of the split graph's complex, as tuples of original edge indices."""
    return {tuple(sorted(kept[i] for i in face)) for face in map(face_tuple, split_complex.face_set)}


def live_edges(graph, bounds):
    live = [0] * graph.num_vertices
    for u, v in graph.edges:
        if bounds[u] and bounds[v]:
            live[u] += 1
            live[v] += 1
    return live


class TestCycleReduce:
    def test_slack_vertex_splits(self):
        reduced = cycle_reduce(gen_cycle(3), (1, 1, 2))
        assert reduced is not None
        split, bounds, kept = reduced
        # vertex 2 keeps its first edge (1, 2); (0, 2) moves to a new vertex 3
        assert split.edges == ((0, 1), (1, 2), (0, 3)) and bounds == (1, 1, 2, 1)
        assert kept == (0, 1, 2) and is_forest(split)
        assert sphere_counts(split, bounds) == {0: 1}

    def test_dead_vertex_cuts(self):
        reduced = cycle_reduce(gen_cycle(4), (1, 1, 1, 0))
        assert reduced is not None
        split, bounds, kept = reduced
        assert split.edges == ((0, 1), (1, 2)) and bounds == (1, 1, 1, 0)
        assert kept == (0, 1)

    def test_all_ones_not_reducible(self):
        assert cycle_reduce(gen_cycle(5), (1, 1, 1, 1, 1)) is None

    def test_too_small_rejected(self):
        # the split takes any graph; a cycle shorthand is refused below n = 3
        # where its graph is built
        with pytest.raises(InvalidSizeError):
            gen_cycle(2)
        for n, lam in ((2, [1, 1]), (3, [1, 1])):
            with pytest.raises(ParseError):
                parse_instance({"cycle": {"n": n, "lambda": lam}})

    def test_triangle_face_sets_match(self):
        bounds = (1, 1, 2)
        cyc = build_complex(gen_cycle(3), bounds)
        assert tuple_faces(cyc) == {(0,), (1,), (2,), (1, 2)}
        split, split_bounds, kept = cycle_reduce(gen_cycle(3), bounds)
        assert mapped_back(build_complex(split, split_bounds), kept) == tuple_faces(cyc)

    def test_face_sets_match_small_sweep(self):
        for n in (3, 4, 5):
            for rest in itertools.product(range(3), repeat=n - 1):
                for last in (0, 2):
                    bounds = rest + (last,)
                    reduced = cycle_reduce(gen_cycle(n), bounds)
                    assert reduced is not None
                    split, split_bounds, kept = reduced
                    assert is_forest(split)
                    cyc = build_complex(gen_cycle(n), bounds)
                    sk = build_complex(split, split_bounds)
                    assert mapped_back(sk, kept) == tuple_faces(cyc)
                    assert reduced_homology(cyc) == reduced_homology(sk)

    def test_friendship_graph_splits_into_paths(self):
        # ten triangles on a hub of bound 20: the hub is free, and each
        # triangle becomes a path on four vertices, whose complex is S^0
        edges = [e for i in range(10) for e in ((0, 2 * i + 1), (0, 2 * i + 2), (2 * i + 1, 2 * i + 2))]
        graph = make_graph(21, edges)
        split, bounds, kept = cycle_reduce(graph, (20,) + (1,) * 20)
        assert kept == tuple(range(30)) and split.num_vertices == 40 and is_forest(split)
        assert sphere_counts(split, bounds) == {9: 1}

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(st.data())
    def test_split_keeps_the_faces_of_graphs_with_cycles(self, data):
        graph, bounds = graph_with_cycles(data)
        reduced = cycle_reduce(graph, bounds)
        live = live_edges(graph, bounds)
        changes = any(bounds[u] == 0 or bounds[v] == 0 for u, v in graph.edges) or any(
            2 <= d <= b for d, b in zip(live, bounds)
        )
        assert (reduced is None) == (not changes)
        if reduced is None:
            return
        split, split_bounds, kept = reduced
        assert list(kept) == sorted(kept)
        assert mapped_back(build_complex(split, split_bounds), kept) == tuple_faces(
            build_complex(graph, bounds)
        )
        if is_forest(split):
            expected = wedge_profile(graph_homology(graph, bounds)[0])
            assert plan_counts(forest_plan(split), split_bounds) == expected

    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(st.data())
    def test_auto_answers_a_kept_cycle_by_homology(self, data):
        graph, bounds = graph_keeping_a_cycle(data)
        res = compute_instance(parse_instance(instance_json(graph, bounds)))
        original = build_complex(graph, bounds)
        assert res.method_used == "homology"
        assert res.homology == reference_reduced_homology(original)
        reduced = cycle_reduce(graph, bounds)
        if reduced is not None:
            split, split_bounds, kept = reduced
            assert not is_forest(split)
            assert mapped_back(build_complex(split, split_bounds), kept) == tuple_faces(original)
