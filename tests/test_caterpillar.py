import itertools
from math import comb

import pytest

from bdcomplex.caterpillar import (
    caterpillar_closed_form,
    cycle_reduce,
    star_profile,
)
from bdcomplex.complexes import build_complex
from bdcomplex.errors import (
    HypothesisViolatedError,
    InvalidSizeError,
    InvalidStarError,
)
from bdcomplex.graph import CaterpillarSpec, gen_caterpillar, gen_cycle
from bdcomplex.homology import reduced_homology
from bdcomplex.recursion import sphere_counts

from oracles import (
    SpineSubset,
    face_tuple,
    reference_caterpillar_counts,
    spine_subsets,
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


def mapped_faces(k, mapping):
    out = set()
    for face in map(face_tuple, k.face_set):
        assert all(mapping[i] is not None for i in face)
        out.add(tuple(sorted(mapping[i] for i in face)))
    return out


class TestCycleReduce:
    def test_slack_vertex_splits(self):
        reduced = cycle_reduce(3, (1, 1, 2))
        assert reduced is not None
        path, bounds, _ = reduced
        assert path.num_vertices == 4 and bounds == (1, 1, 1, 1)
        assert sphere_counts(path, bounds) == {0: 1}

    def test_dead_vertex_cuts(self):
        reduced = cycle_reduce(4, (1, 1, 1, 0))
        assert reduced is not None
        path, bounds, _ = reduced
        assert path.num_vertices == 3 and bounds == (1, 1, 1)

    def test_all_ones_not_reducible(self):
        assert cycle_reduce(5, (1, 1, 1, 1, 1)) is None

    def test_rotation_picks_first_nonunit(self):
        # bound 2 at position 0 rotates to the end before splitting
        reduced = cycle_reduce(4, (2, 1, 1, 1))
        assert reduced is not None
        path, bounds, _ = reduced
        assert path.num_vertices == 5 and bounds == (1, 1, 1, 1, 1)

    def test_too_small_rejected(self):
        with pytest.raises(InvalidSizeError):
            cycle_reduce(2, (1, 1))
        with pytest.raises(InvalidSizeError):
            cycle_reduce(3, (1, 1))

    def test_triangle_face_sets_match(self):
        bounds = (1, 1, 2)
        cyc = build_complex(gen_cycle(3), bounds)
        assert tuple_faces(cyc) == {(0,), (1,), (2,), (1, 2)}
        path, path_bounds, mapping = cycle_reduce(3, bounds)
        assert mapping == (1, 2, 0)
        pk = build_complex(path, path_bounds)
        assert mapped_faces(cyc, mapping) == tuple_faces(pk)

    def test_face_sets_match_small_sweep(self):
        for n in (3, 4, 5):
            for rest in itertools.product(range(3), repeat=n - 1):
                for last in (0, 2):
                    bounds = rest + (last,)
                    reduced = cycle_reduce(n, bounds)
                    assert reduced is not None
                    path, path_bounds, mapping = reduced
                    cyc = build_complex(gen_cycle(n), bounds)
                    pk = build_complex(path, path_bounds)
                    killed = {i for i, j in enumerate(mapping) if j is None}
                    assert all(
                        not (set(face_tuple(face)) & killed) for face in cyc.face_set
                    )
                    assert mapped_faces(cyc, mapping) == tuple_faces(pk)
                    assert reduced_homology(cyc) == reduced_homology(pk)
