"""End-to-end acceptance criteria.

Each test checks one criterion exactly and appends a one-line PASS/FAIL
summary that the terminal hook in conftest prints after the run.  The heavy
sweeps are shared across criteria through module-scoped fixtures.
"""

import os
import random
import time
from math import comb

import pytest

from bdcomplex.caterpillar import caterpillar_closed_form
from bdcomplex.complexes import build_complex
from bdcomplex.graph import (
    CaterpillarSpec,
    canonical_code,
    disjoint_union,
    gen_caterpillar,
    nonisomorphic_forests,
    random_forest,
)
from bdcomplex.harness import (
    clamp_bounds,
    clamped_bound_grid,
    sweep_caterpillars,
    sweep_cycles,
    sweep_forests,
    sweep_matching_caterpillars,
)
from bdcomplex.homology import reduced_homology
from bdcomplex.recursion import join_convolve, sphere_counts

from oracles import grape_witness, maximal_faces

JOBS = min(8, os.cpu_count() or 1)
RESULTS: list[str] = []


def record(criterion: str, ok: bool, detail: str):
    RESULTS.append(f"{'PASS' if ok else 'FAIL'}  criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


@pytest.fixture(scope="module")
def forest_report():
    return sweep_forests(7, 3, jobs=JOBS, raw_samples=500, seed=0)


@pytest.fixture(scope="module")
def caterpillar_report():
    return sweep_caterpillars(4, 3, 3, jobs=JOBS)


@pytest.fixture(scope="module")
def cycle_report():
    return sweep_cycles(range(3, 8), 3, (0, 2, 3), jobs=JOBS)


def test_criterion_1_example_reproduction():
    t0 = time.perf_counter()
    spec = CaterpillarSpec((2, 1), (2, 1))
    graph, bounds = gen_caterpillar(spec)
    k = build_complex(graph, bounds)
    profile = reduced_homology(k)
    closed = caterpillar_closed_form(spec)
    recursed = sphere_counts(graph, bounds)
    elapsed = time.perf_counter() - t0
    ok = (
        maximal_faces(k) == ((0, 1), (0, 2), (1, 2, 3))
        and profile.betti == {1: 1}
        and not profile.torsion
        and closed == {1: 1}
        and recursed == {1: 1}
        and elapsed < 1.0
    )
    record("1 (two-spine example)", ok, f"maximal faces + S^1 everywhere, {elapsed:.3f}s")


def test_criterion_2_star_formula():
    t0 = time.perf_counter()
    checked = 0
    ok = True
    for r in range(1, 9):
        graph, _ = gen_caterpillar(CaterpillarSpec((r,), (0,)))
        for k in range(1, 9):
            bounds = (k,) + (1,) * r
            profile = reduced_homology(build_complex(graph, bounds))
            checked += 1
            if not profile.is_torsion_free:
                ok = False
            if k < r:
                ok = ok and profile.betti == {k - 1: comb(r - 1, k)}
            else:
                ok = ok and profile.betti == {}
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    record("2 (star skeleton formula)", ok, f"{checked} star instances, {elapsed:.1f}s")


def test_criterion_3_forest_oracle_agreement(forest_report):
    r = forest_report
    elapsed = r.elapsed_ms / 1000.0
    ok = (
        r.ok
        and r.instances == 311669  # all clamped bound vectors over 137 forests
        and r.classes == 77659
        and r.agreements == r.instances
        and not r.torsion_hits
        and r.raw_checked >= 500
        and elapsed < 600.0
    )
    record(
        "3 (forest oracle agreement)",
        ok,
        f"{r.instances} instances / {r.classes} classes over forests <= 7 edges, "
        f"bounds <= 3; {r.raw_checked} raw spot checks; jobs={JOBS}, {elapsed:.0f}s",
    )


def test_criterion_4_caterpillar_closed_form(caterpillar_report):
    r = caterpillar_report
    elapsed = r.elapsed_ms / 1000.0
    ok = (
        r.ok
        and r.instances == 22620  # sum over n<=4 of 3^n * 4^n
        and r.agreements == r.instances
        and elapsed < 300.0
    )
    record(
        "4 (caterpillar closed form)",
        ok,
        f"{r.instances} instances, closed form = recursion = homology; "
        f"jobs={JOBS}, {elapsed:.0f}s",
    )


def test_criterion_5_cycle_reduction(cycle_report):
    r = cycle_report
    elapsed = r.elapsed_ms / 1000.0
    ok = (
        r.ok
        and r.instances == 16368  # 3 * sum over n in 3..7 of 4^(n-1)
        and r.agreements == r.instances
        and elapsed < 120.0
    )
    record(
        "5 (cycle-to-path reduction)",
        ok,
        f"{r.instances} cycle instances, face sets equal + homology matches; "
        f"{elapsed:.0f}s",
    )


def test_criterion_6_matching_complexes_torsion_free():
    t0 = time.perf_counter()
    r = sweep_matching_caterpillars(3, 3, (1, 2, 3), jobs=JOBS)
    elapsed = time.perf_counter() - t0
    ok = (
        r.instances == r.agreements == 252
        and r.classes == 110
        and not r.torsion_hits
        and r.ok
    )
    record(
        "6 (matching complexes wedge-consistent)",
        ok,
        f"{r.instances} caterpillar matching instances in {r.classes} classes, "
        f"recursion = homology, zero torsion; {elapsed:.0f}s",
    )


def test_criterion_7_join_convolution():
    rng = random.Random(2024)
    checked = 0
    ok = True
    for _ in range(100):
        g1 = random_forest(rng, 6)
        g2 = random_forest(rng, 6)
        b1 = tuple(rng.randint(0, 3) for _ in range(g1.num_vertices))
        b2 = tuple(rng.randint(0, 3) for _ in range(g2.num_vertices))
        g, b = disjoint_union(g1, b1, g2, b2)
        lhs = sphere_counts(g, b)
        rhs = join_convolve(sphere_counts(g1, b1), sphere_counts(g2, b2))
        ok = ok and lhs == rhs
        checked += 1
    record("7 (join convolution)", ok, f"{checked} seeded random forest pairs")


def test_criterion_8_euler_consistency(forest_report, caterpillar_report, cycle_report):
    ok = (
        not forest_report.euler_failures
        and not caterpillar_report.euler_failures
        and not cycle_report.euler_failures
    )
    total = (
        forest_report.instances + caterpillar_report.instances + cycle_report.instances
    )
    record(
        "8 (Euler consistency)",
        ok,
        f"signed sphere sums match reduced Euler characteristics on {total} instances",
    )


def test_criterion_9_grape_witnesses():
    t0 = time.perf_counter()
    seen: set[bytes] = set()
    witnessed = 0
    ok = True
    for forest in nonisomorphic_forests(5):
        for bounds in clamped_bound_grid(forest, 2):
            key = canonical_code(forest, clamp_bounds(forest, bounds))
            if key in seen:
                continue
            seen.add(key)
            k = build_complex(forest, bounds)
            if grape_witness(k) is None:
                ok = False
            witnessed += 1
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 300.0
    record(
        "9 (grape witnesses)",
        ok,
        f"witnesses found for all {witnessed} complexes of forests <= 5 edges, "
        f"bounds <= 2; {elapsed:.0f}s",
    )
