import itertools
import random

import pytest

from bdcomplex.errors import (
    DuplicateEdgeError,
    IndexOutOfRangeError,
    InvalidSizeError,
    LoopEdgeError,
    NotAForestError,
)
from bdcomplex.graph import (
    CaterpillarSpec,
    Graph,
    canonical_code,
    components,
    disjoint_union,
    gen_caterpillar,
    gen_cycle,
    gen_path,
    is_forest,
    make_graph,
    nonisomorphic_forests,
    nonisomorphic_trees,
    random_forest,
    random_tree,
)

from oracles import brute_force_isomorphic, reference_canonical_code


class TestMakeGraph:
    def test_single_edge(self):
        g = make_graph(2, [(0, 1)])
        assert g.num_vertices == 2 and g.edges == ((0, 1),)

    def test_two_spine_two_one_leaves(self):
        g = make_graph(5, [(0, 1), (0, 2), (0, 3), (1, 4)])
        assert g.num_edges == 4
        assert g.degrees() == [3, 2, 1, 1, 1]

    def test_loop_rejected(self):
        with pytest.raises(LoopEdgeError):
            make_graph(2, [(0, 0)])

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateEdgeError):
            make_graph(3, [(0, 1), (1, 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(IndexOutOfRangeError):
            make_graph(2, [(0, 2)])

    def test_edge_pairs_normalized(self):
        g = make_graph(3, [(2, 0)])
        assert g.edges == ((0, 2),)


class TestGenerators:
    def test_path_degenerate(self):
        g = gen_path(1)
        assert g.num_vertices == 1 and g.num_edges == 0

    def test_path_four(self):
        assert gen_path(4).edges == ((0, 1), (1, 2), (2, 3))

    def test_path_two(self):
        assert gen_path(2).edges == ((0, 1),)

    def test_path_zero_rejected(self):
        with pytest.raises(InvalidSizeError):
            gen_path(0)

    def test_triangle(self):
        assert gen_cycle(3).edges == ((0, 1), (1, 2), (0, 2))

    def test_square(self):
        g = gen_cycle(4)
        assert g.edges == ((0, 1), (1, 2), (2, 3), (0, 3))
        assert not is_forest(g)

    def test_cycle_too_small(self):
        with pytest.raises(InvalidSizeError):
            gen_cycle(2)

    def test_caterpillar_two_spine(self):
        g, b = gen_caterpillar(CaterpillarSpec((2, 1), (2, 1)))
        assert g.num_vertices == 5
        assert g.edges == ((0, 1), (0, 2), (0, 3), (1, 4))
        assert b == (2, 1, 1, 1, 1)

    def test_caterpillar_star(self):
        g, b = gen_caterpillar(CaterpillarSpec((3,), (1,)))
        assert g.edges == ((0, 1), (0, 2), (0, 3))
        assert b == (1, 1, 1, 1)

    def test_caterpillar_bare_spine_is_path(self):
        g, b = gen_caterpillar(CaterpillarSpec((0, 0, 0), (1, 1, 1)))
        assert g.edges == gen_path(3).edges
        assert b == (1, 1, 1)

    def test_caterpillar_degrees(self):
        for m in itertools.product(range(4), repeat=3):
            g, _ = gen_caterpillar(CaterpillarSpec(m, (1, 1, 1)))
            deg = g.degrees()
            for v in range(3, g.num_vertices):
                assert deg[v] == 1
            for i in range(3):
                assert deg[i] <= m[i] + 2
            assert is_forest(g)

    def test_caterpillar_spec_validation(self):
        with pytest.raises(InvalidSizeError):
            CaterpillarSpec((), ())
        with pytest.raises(InvalidSizeError):
            CaterpillarSpec((1, 2), (1,))
        with pytest.raises(ValueError):
            CaterpillarSpec((1, -1), (1, 1))


class TestForestsAndComponents:
    def test_path_is_forest(self):
        assert is_forest(gen_path(5))

    def test_cycle_is_not(self):
        assert not is_forest(gen_cycle(4))

    def test_two_components(self):
        g, b = disjoint_union(gen_path(3), (1, 1, 1), gen_path(2), (2, 2))
        parts = components(g, b)
        assert len(parts) == 2
        assert parts[0].graph.edges == ((0, 1), (1, 2))
        assert parts[0].bounds == (1, 1, 1)
        assert parts[1].bounds == (2, 2)
        assert parts[1].vertex_map == (3, 4)
        assert parts[1].edge_map == (2,)

    def test_connected_graph_single_part(self):
        parts = components(gen_path(4), (1, 1, 1, 1))
        assert len(parts) == 1
        assert parts[0].vertex_map == (0, 1, 2, 3)

    def test_edgeless_graph_no_parts(self):
        assert components(Graph(4, ()), (1, 1, 1, 1)) == []

    def test_edges_and_nonisolated_vertices_preserved(self):
        rng = random.Random(7)
        for _ in range(40):
            g = random_forest(rng, 9)
            b = tuple(rng.randint(0, 3) for _ in range(g.num_vertices))
            parts = components(g, b)
            all_edges = sorted(
                i for part in parts for i in part.edge_map
            )
            assert all_edges == list(range(g.num_edges))
            all_vertices = sorted(v for part in parts for v in part.vertex_map)
            nonisolated = sorted({v for e in g.edges for v in e})
            assert all_vertices == nonisolated
            for part in parts:
                assert part.bounds == tuple(b[v] for v in part.vertex_map)


def _all_labeled_forests(k):
    for r in range(k):
        for combo in itertools.combinations(itertools.combinations(range(k), 2), r):
            g = Graph(k, combo)
            if is_forest(g):
                yield g
    if k == 0:
        yield Graph(0, ())


class TestCanonicalCode:
    def test_reversal_symmetric_bounds_equal(self):
        p = gen_path(3)
        rev = make_graph(3, [(2, 1), (1, 0)])
        assert canonical_code(p, (1, 2, 1)) == canonical_code(rev, (1, 2, 1))

    def test_different_bounds_distinct(self):
        p = gen_path(3)
        assert canonical_code(p, (1, 2, 1)) != canonical_code(p, (2, 1, 1))
        assert not brute_force_isomorphic(p, (1, 2, 1), p, (2, 1, 1))

    def test_cycle_rejected(self):
        with pytest.raises(NotAForestError):
            canonical_code(gen_cycle(3), (1, 1, 1))

    def test_random_relabelings_agree(self):
        rng = random.Random(11)
        for _ in range(60):
            tree = random_tree(rng, 8)
            bounds = tuple(rng.randint(0, 2) for _ in range(8))
            perm = list(range(8))
            rng.shuffle(perm)
            relabeled = Graph(8, tuple((perm[u], perm[v]) for u, v in tree.edges))
            rebounds = tuple(bounds[perm.index(v)] for v in range(8))
            assert canonical_code(tree, bounds) == canonical_code(relabeled, rebounds)
            assert brute_force_isomorphic(tree, bounds, relabeled, rebounds)

    def test_exhaustive_small_forests(self):
        # every pair of labeled forests on <= 5 vertices with bounds in
        # {0,1,2}: equal codes exactly when label-preserving isomorphic
        groups: dict[bytes, list] = {}
        for k in range(6):
            for g in _all_labeled_forests(k):
                for b in itertools.product(range(3), repeat=k):
                    groups.setdefault(canonical_code(g, b), []).append((g, b))
        # soundness: members of a group really are isomorphic
        for members in groups.values():
            rep_g, rep_b = members[0]
            for g, b in members[1:]:
                assert brute_force_isomorphic(rep_g, rep_b, g, b)
        # completeness: distinct groups with matching cheap invariants are
        # genuinely non-isomorphic
        buckets: dict[tuple, list] = {}
        for key, members in groups.items():
            g, b = members[0]
            invariant = (g.num_vertices, g.num_edges, tuple(sorted(zip(g.degrees(), b))))
            buckets.setdefault(invariant, []).append((g, b))
        for reps in buckets.values():
            for (g1, b1), (g2, b2) in itertools.combinations(reps, 2):
                assert not brute_force_isomorphic(g1, b1, g2, b2)

    def test_six_vertex_sample(self):
        rng = random.Random(23)
        forests = [g for g in _all_labeled_forests(6)]
        for _ in range(300):
            g1 = rng.choice(forests)
            b1 = tuple(rng.randint(0, 2) for _ in range(6))
            g2 = rng.choice(forests)
            b2 = tuple(rng.randint(0, 2) for _ in range(6))
            same_code = canonical_code(g1, b1) == canonical_code(g2, b2)
            assert same_code == brute_force_isomorphic(g1, b1, g2, b2)

    def test_matches_recursive_reference(self):
        count = 0
        for forest in nonisomorphic_forests(6):
            grid = [range(min(2, d) + 1) for d in forest.degrees()]
            for b in itertools.product(*grid):
                assert canonical_code(forest, b) == reference_canonical_code(forest, b)
                count += 1
        assert count == 44377

    def test_matches_reference_on_random_trees(self):
        rng = random.Random(11)
        for _ in range(200):
            g = random_tree(rng, rng.randint(1, 60))
            b = tuple(rng.randint(0, 3) for _ in range(g.num_vertices))
            assert canonical_code(g, b) == reference_canonical_code(g, b)

    def test_deep_path_does_not_recurse(self):
        code = canonical_code(gen_path(5000), (1,) * 5000)
        assert code.startswith(b"=") and code.count(b"(") == 5000


class TestEnumeration:
    def test_tree_counts_match_networkx(self):
        networkx = pytest.importorskip("networkx")
        for n in range(1, 9):
            ours = nonisomorphic_trees(n)
            if n >= 2:
                theirs = list(networkx.nonisomorphic_trees(n))
                assert len(ours) == len(theirs)
            codes = {canonical_code(t, (0,) * n) for t in ours}
            assert len(codes) == len(ours)

    def test_known_tree_counts(self):
        assert [len(nonisomorphic_trees(n)) for n in range(1, 9)] == [
            1, 1, 1, 2, 3, 6, 11, 23,
        ]

    def test_forest_counts(self):
        assert [len(nonisomorphic_forests(e)) for e in range(5)] == [1, 2, 4, 8, 16]

    def test_forests_pairwise_nonisomorphic(self):
        forests = nonisomorphic_forests(4)
        for f1, f2 in itertools.combinations(forests, 2):
            assert not brute_force_isomorphic(
                f1, (0,) * f1.num_vertices, f2, (0,) * f2.num_vertices
            )

    def test_forests_have_no_isolated_vertices(self):
        for f in nonisomorphic_forests(5):
            deg = f.degrees()
            assert all(d > 0 for d in deg)


class TestRandomGraphs:
    def test_random_tree_is_tree(self):
        rng = random.Random(3)
        for _ in range(50):
            n = rng.randint(1, 10)
            t = random_tree(rng, n)
            assert t.num_vertices == n and t.num_edges == n - 1
            assert is_forest(t)

    def test_random_forest_is_clean(self):
        rng = random.Random(4)
        for _ in range(50):
            f = random_forest(rng, 9)
            assert is_forest(f)
            assert all(d > 0 for d in f.degrees())
