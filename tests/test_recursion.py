import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdcomplex.complexes import build_complex
from bdcomplex.errors import NotAForestError
from bdcomplex.graph import (
    CaterpillarSpec,
    Graph,
    canonical_code,
    disjoint_union,
    gen_caterpillar,
    gen_cycle,
    gen_path,
    forest_plan,
    nonisomorphic_forests,
    random_forest,
)
from bdcomplex.harness import clamped_bound_grid
from bdcomplex.homology import reduced_homology, wedge_profile
from bdcomplex import recursion
from bdcomplex.recursion import (
    caterpillar_counts,
    forest_counts,
    join_convolve,
    plan_counts,
    simplify,
    sphere_counts,
)

from oracles import (
    WouldGoNegativeError,
    counts_add,
    counts_shift,
    decrement_bounds,
    pick_recursion_edge,
    reduced_euler,
    reference_reduced_euler,
    reference_sphere_counts,
)


class NoopCache:
    """A cache that remembers nothing, for memoization-transparency checks."""

    def get(self, key):
        return None

    def __setitem__(self, key, value):
        pass


def valid_recursion_edges(graph: Graph) -> list[int]:
    """All edges with a leaf neighbor off the edge, straight from the rule."""
    deg = graph.degrees()
    out = []
    for i, (v, w) in enumerate(graph.edges):
        leaves = [
            u
            for x in (v, w)
            for u in graph.adjacency()[x]
            if deg[u] == 1 and u not in (v, w)
        ]
        if leaves:
            out.append(i)
    return out


class TestDecrement:
    def test_middle_edge_of_path(self):
        assert decrement_bounds((1, 1, 1), (1, 2)) == (1, 0, 0)

    def test_single_edge(self):
        assert decrement_bounds((2, 2), (0, 1)) == (1, 1)

    def test_zero_bound_rejected(self):
        with pytest.raises(WouldGoNegativeError):
            decrement_bounds((0, 1), (0, 1))


class TestSimplify:
    def test_zero_bound_kills_both_edges(self):
        g, b = simplify(gen_path(3), (1, 0, 1))
        assert g.num_vertices == 0 and g.num_edges == 0

    def test_positive_bounds_unchanged(self):
        g, b = simplify(gen_path(3), (1, 1, 1))
        assert g.edges == gen_path(3).edges and b == (1, 1, 1)

    def test_star_with_dead_center(self):
        star, bounds = gen_caterpillar(CaterpillarSpec((3,), (0,)))
        g, b = simplify(star, bounds)
        assert g.num_edges == 0

    def test_partial_removal_reindexes(self):
        g, b = simplify(gen_path(4), (1, 1, 0, 1))
        assert g.num_vertices == 2 and g.edges == ((0, 1),)
        assert b == (1, 1)

    def test_forest_required(self):
        with pytest.raises(NotAForestError):
            simplify(gen_cycle(3), (1, 1, 1))


class TestPickRecursionEdge:
    def test_path_three(self):
        assert pick_recursion_edge(gen_path(3)) == 0

    def test_path_four_skips_first_edge(self):
        assert pick_recursion_edge(gen_path(4)) == 1

    def test_single_edge(self):
        assert pick_recursion_edge(gen_path(2)) is None

    def test_disjoint_edges(self):
        g, _ = disjoint_union(gen_path(2), (1, 1), gen_path(2), (1, 1))
        assert pick_recursion_edge(g) is None

    def test_matches_rule(self):
        rng = random.Random(21)
        for _ in range(40):
            g = random_forest(rng, 8)
            valid = valid_recursion_edges(g)
            assert pick_recursion_edge(g) == (min(valid) if valid else None)


class TestJoinConvolve:
    def test_dimensions_add_plus_one(self):
        assert join_convolve({0: 2}, {0: 1}) == {1: 2}

    def test_empty_complex_is_identity(self):
        assert join_convolve({-1: 1}, {3: 5}) == {3: 5}

    def test_contractible_absorbs(self):
        assert join_convolve({}, {2: 7, 0: 1}) == {}

    def test_bilinear(self):
        a, b = {0: 2, 1: 3}, {-1: 1, 2: 4}
        expected = {0: 2, 1: 3, 3: 8, 4: 12}
        assert join_convolve(a, b) == expected

    def test_helpers(self):
        assert counts_shift({-1: 1, 2: 3}) == {0: 1, 3: 3}
        assert counts_add({0: 1}, {0: 2, 1: 1}) == {0: 3, 1: 1}
        assert counts_add({0: 1}, {}) == {0: 1}


class TestSphereCounts:
    def test_path_three_is_two_points(self):
        assert sphere_counts(gen_path(3), (1, 1, 1)) == {0: 1}

    def test_dead_edge_gives_empty_complex(self):
        assert sphere_counts(gen_path(2), (0, 1)) == {-1: 1}

    def test_live_edge_is_contractible(self):
        assert sphere_counts(gen_path(2), (1, 1)) == {}

    def test_two_spine_example(self):
        g, b = gen_caterpillar(CaterpillarSpec((2, 1), (2, 1)))
        assert sphere_counts(g, b) == {1: 1}

    def test_empty_forest(self):
        assert sphere_counts(Graph(0, ()), ()) == {-1: 1}

    def test_forest_required(self):
        with pytest.raises(NotAForestError):
            sphere_counts(gen_cycle(4), (1, 1, 1, 1))

    def test_minus_one_count_iff_all_edges_die(self):
        rng = random.Random(25)
        for _ in range(60):
            g = random_forest(rng, 7)
            b = tuple(rng.randint(0, 2) for _ in range(g.num_vertices))
            counts = sphere_counts(g, b)
            simplified, _ = simplify(g, b)
            assert (counts.get(-1) == 1) == (simplified.num_edges == 0)
            if counts.get(-1) == 1:
                assert counts == {-1: 1}

    def test_memoization_transparency(self):
        rng = random.Random(27)
        for _ in range(25):
            g = random_forest(rng, 8)
            b = tuple(rng.randint(0, 3) for _ in range(g.num_vertices))
            shared: dict = {}
            assert (
                reference_sphere_counts(g, b, cache=shared)
                == reference_sphere_counts(g, b, cache=NoopCache())
                == reference_sphere_counts(g, b)
            )

    def test_edge_choice_independence(self):
        rng = random.Random(29)

        def biggest(graph):
            valid = valid_recursion_edges(graph)
            return max(valid) if valid else None

        for _ in range(25):
            g = random_forest(rng, 8)
            b = tuple(rng.randint(0, 3) for _ in range(g.num_vertices))
            seeded = random.Random(1234)

            def chancy(graph):
                valid = valid_recursion_edges(graph)
                return seeded.choice(valid) if valid else None

            reference = reference_sphere_counts(g, b, cache=NoopCache())
            assert reference_sphere_counts(g, b, cache=NoopCache(), edge_picker=biggest) == reference
            assert reference_sphere_counts(g, b, cache=NoopCache(), edge_picker=chancy) == reference

    def test_matches_reference_on_small_forests(self):
        count = 0
        for forest in nonisomorphic_forests(5):
            for b in clamped_bound_grid(forest, 3):
                assert sphere_counts(forest, b) == reference_sphere_counts(forest, b), (forest, b)
                count += 1
        assert count == 8165

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(st.data())
    def test_matches_reference_on_random_trees(self, data):
        n = data.draw(st.integers(1, 12))
        parents = [data.draw(st.integers(0, i - 1)) for i in range(1, n)]
        g = Graph(n, tuple((p, i) for i, p in enumerate(parents, start=1)))
        b = tuple(data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)))
        assert sphere_counts(g, b) == reference_sphere_counts(g, b)

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(st.data())
    def test_matches_homology_on_random_forests(self, data):
        n = data.draw(st.integers(1, 10))
        parents = [data.draw(st.integers(0, i - 1)) for i in range(1, n)]
        kept = data.draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
        g = Graph(n, tuple((p, i) for i, (p, keep) in enumerate(zip(parents, kept), start=1) if keep))
        b = tuple(data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)))
        assert sphere_counts(g, b) == wedge_profile(reduced_homology(build_complex(g, b)))

    def test_union_counts_convolve(self):
        rng = random.Random(31)
        for _ in range(30):
            g1 = random_forest(rng, 6)
            g2 = random_forest(rng, 6)
            b1 = tuple(rng.randint(0, 3) for _ in range(g1.num_vertices))
            b2 = tuple(rng.randint(0, 3) for _ in range(g2.num_vertices))
            g, b = disjoint_union(g1, b1, g2, b2)
            assert sphere_counts(g, b) == join_convolve(
                sphere_counts(g1, b1), sphere_counts(g2, b2)
            )

    def test_matches_homology_on_small_forests(self):
        for forest in nonisomorphic_forests(4)[1:]:
            for b in itertools.product(range(3), repeat=forest.num_vertices):
                counts = sphere_counts(forest, b)
                k = build_complex(forest, b)
                assert counts == wedge_profile(reduced_homology(k))
                signed = sum(
                    c if d % 2 == 0 else -c for d, c in counts.items() if d >= 0
                ) - counts.get(-1, 0)
                assert signed == reduced_euler(k)



class TestForestPlan:
    def test_one_plan_serves_the_whole_grid_in_any_order(self):
        rng = random.Random(5)
        for forest in nonisomorphic_forests(5):
            grid = list(clamped_bound_grid(forest, 3))
            fresh = {b: (sphere_counts(forest, b), canonical_code(forest, b)) for b in grid}
            plan = forest_plan(forest)
            rng.shuffle(grid)
            for b in grid:
                assert (plan_counts(plan, b), plan.code(b)) == fresh[b], (forest, b)

    def test_clamp_caps_at_degree(self):
        plan = forest_plan(gen_path(3))
        assert plan.code((3, 3, 0), clamp=True) == plan.code((1, 2, 0))
        assert plan.code((3, 3, 0)) != plan.code((1, 2, 0))

    def test_forest_required(self):
        with pytest.raises(NotAForestError):
            forest_plan(gen_cycle(4))


class TestEarlyStop:
    """`plan_counts` stops at the first vertex or tree root left with no state."""

    @staticmethod
    def counted_folds(monkeypatch, graph, bounds):
        folds = []
        fold = recursion._fold_child

        def counted(*args):
            folds.append(args)
            return fold(*args)

        monkeypatch.setattr(recursion, "_fold_child", counted)
        return plan_counts(forest_plan(graph), bounds), len(folds)

    def test_stops_at_the_first_empty_vertex(self, monkeypatch):
        # vertex 38 has bound 2, its degree, and leaf 39: edge {38, 39} is a
        # cone point of the complex, so folding 38 into 37 leaves no state
        bounds = (1,) * 38 + (2, 1)
        counts, folds = self.counted_folds(monkeypatch, gen_path(40), bounds)
        assert (counts, folds) == ({}, 1)
        assert reference_sphere_counts(gen_path(40), bounds) == {}

    def test_a_contractible_tree_skips_the_later_trees(self, monkeypatch):
        # the first tree, one edge with bounds (1, 1), closes with no state
        forest, bounds = disjoint_union(gen_path(2), (1, 1), gen_path(40), (1,) * 40)
        counts, folds = self.counted_folds(monkeypatch, forest, bounds)
        assert (counts, folds) == ({}, 0)
        assert reference_sphere_counts(forest, bounds) == {}


class TestSpineFold:
    """`caterpillar_counts` folds a caterpillar along its spine from its spec."""

    @pytest.mark.parametrize("spine", [1, 2, 3])
    def test_matches_the_forest_fold(self, spine):
        for m in itertools.product(range(4), repeat=spine):
            for lam in itertools.product(range(4), repeat=spine):
                spec = CaterpillarSpec(m, lam)
                assert caterpillar_counts(spec) == forest_counts(*gen_caterpillar(spec)), spec

    def test_a_spine_left_with_no_state_is_contractible(self, monkeypatch):
        # spine vertex 0 has bound 2, its degree, and one leaf: its leaf
        # edge is a cone point, so folding it into vertex 1 leaves no state
        folds = []
        fold = recursion._fold_child

        def counted(*args):
            folds.append(args)
            return fold(*args)

        monkeypatch.setattr(recursion, "_fold_child", counted)
        assert caterpillar_counts(CaterpillarSpec((1, 0, 0, 0), (2, 1, 1, 1))) == {}
        assert len(folds) == 1


def signed_sum(counts):
    return sum(c if d % 2 == 0 else -c for d, c in counts.items())


def kozlov_path(num_vertices: int):
    """Ind(P_m) for m = num_vertices: S^(k-1) for m = 3k-1 or 3k, else a point."""
    k, rest = divmod(num_vertices + 1, 3)
    return {} if rest == 2 else {k - 1: 1}


class TestDeepInputs:
    """Inputs far deeper than Python's recursion limit."""

    @pytest.mark.parametrize("n", [4999, 5000, 5001])
    def test_long_all_ones_path(self, n):
        # the complex of P_n with all bounds 1 is the matching complex, Ind(P_{n-1})
        assert sphere_counts(gen_path(n), (1,) * n) == kozlov_path(n - 1)

    @staticmethod
    def spider(legs: int, length: int) -> Graph:
        edges = []
        for leg in range(legs):
            first = 1 + leg * length
            edges.append((0, first))
            edges.extend((v, v + 1) for v in range(first, first + length - 1))
        return Graph(1 + legs * length, tuple(edges))

    def test_spider_with_dead_center(self):
        g = self.spider(5, 600)
        b = (0,) + (1,) * 3000
        # five detached 600-vertex paths, each Ind(P_599) = S^199, joined
        assert sphere_counts(g, b) == {999: 1}

    @settings(max_examples=50, deadline=None, database=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_large_random_trees_match_euler(self, seed):
        # A random core tree: core vertex i hangs off one of the `span` core
        # vertices before it, so a path at span 1 and a random recursive tree
        # once span >= n.  Then `leaves` leaves per core vertex, and shuffled
        # labels.  Core bounds are 0..4 and leaf bounds 1..4: with random leaf
        # bounds almost every such tree has a cone edge, and both sides read 0.
        rng = random.Random(seed)
        n = rng.randint(1000, 3000)
        span = rng.choice((1, 3, 30, n))
        leaves = rng.randint(0, 6)
        core = n // (leaves + 1)
        parent = [rng.randrange(max(0, i - span), i) for i in range(1, core)]
        parent += [i % core for i in range(n - core)]
        label = list(range(n))
        rng.shuffle(label)
        g = Graph(n, tuple((label[p], label[i]) for i, p in enumerate(parent, start=1)))
        b = [0] * n
        for i, v in enumerate(label):
            b[v] = rng.randint(0, 4) if i < core else rng.randint(1, 4)
        assert signed_sum(sphere_counts(g, b)) == reference_reduced_euler(g, b)

    def test_spider_matches_euler(self):
        g = self.spider(5, 600)
        for b in [(1,) * 3001, (2,) + (1,) * 3000, (3,) + (2, 1) * 1500]:
            assert signed_sum(sphere_counts(g, b)) == reference_reduced_euler(g, b)
