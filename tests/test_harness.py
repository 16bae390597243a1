"""The sweep pipeline: pool_map, sweeps that must report what goes wrong, the
package names that the benchmark's tracer binds, and the records' value
semantics."""

import concurrent.futures.process
import importlib.util
import itertools
import multiprocessing
import pickle
import random
from functools import partial
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdcomplex import cli, dispatch, harness, recursion
from bdcomplex.complexes import DEFAULT_FACE_CAP, SimplicialComplex
from bdcomplex.dispatch import POOL_READ_AHEAD, TASK_SIZE, ComputeResult, Instance, pool_map
from bdcomplex.errors import MethodMismatchError
from bdcomplex.graph import (
    CaterpillarSpec,
    ForestPlan,
    Graph,
    Record,
    forest_plan,
    gen_caterpillar,
    gen_cycle,
    gen_path,
    is_cone,
    is_forest,
    make_graph,
    nonisomorphic_forests,
)
from bdcomplex.harness import (
    VerifyReport,
    sweep_caterpillars,
    sweep_cycles,
    sweep_forests,
    sweep_matching_caterpillars,
    sweep_random_forests,
)
from bdcomplex.homology import HomologyProfile, graph_homology, wedge_profile
from bdcomplex.recursion import plan_counts

from oracles import graph_keeping_a_cycle, graph_with_cycles


def _squares(task):
    return [x * x for x in task]


def _first_squared(task):
    if task[0] == 5:
        raise ValueError("task 5")
    return task[0] * task[0]


def _whole(x):
    """A shard that fills a pool task on its own: TASK_SIZE copies of `x`."""
    return [x] * TASK_SIZE


class TestPoolMap:
    def test_task_order_at_any_job_count(self):
        shards = [[x] * (x % 3) for x in range(200)]
        expected = [x * x for shard in shards for x in shard]
        for jobs in (0, 1, 2):
            assert list(chain.from_iterable(pool_map(_squares, shards, jobs))) == expected
        assert list(chain.from_iterable(pool_map(_squares, iter(shards), 2))) == expected

    def test_no_tasks(self):
        assert list(pool_map(_squares, [], 1)) == []
        assert list(pool_map(_squares, [], 2)) == []

    def test_caller_stopping_early_ends_the_pool(self, monkeypatch):
        monkeypatch.setattr(dispatch, "usable_cpus", lambda: 2)  # a pool on any host
        read = []

        def shards():
            for x in range(10_000):
                read.append(x)
                yield _whole(x)

        results = pool_map(_first_squared, shards(), 2)
        taken = [next(results) for _ in range(3)]
        results.close()
        assert taken == [0, 1, 4] and len(read) == 2 + POOL_READ_AHEAD * 2
        assert not multiprocessing.active_children()

    def test_a_failing_task_raises_after_the_results_before_it(self, monkeypatch):
        monkeypatch.setattr(dispatch, "usable_cpus", lambda: 2)
        taken = []
        with pytest.raises(ValueError, match="task 5"):
            for result in pool_map(_first_squared, map(_whole, range(40)), 2):
                taken.append(result)
        assert taken == [0, 1, 4, 9, 16]
        assert not multiprocessing.active_children()

    def recording_executor(self, monkeypatch):
        """A stand-in for ProcessPoolExecutor that starts no worker: it
        records its size, the tasks submitted, and how many were submitted
        at each wait for a result, which runs here."""
        started, submitted, waits = [], [], []

        class RecordingExecutor:
            def __init__(self, workers):
                started.append(workers)

            def submit(self, fn, task):
                submitted.append((fn, task))
                return self

            def result(self):
                waits.append(len(submitted))
                fn, task = submitted[len(waits) - 1]
                return fn(task)

            def shutdown(self, cancel_futures):
                pass

        monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor", RecordingExecutor)
        monkeypatch.setattr(dispatch, "usable_cpus", lambda: 2)
        return started, submitted, waits

    def test_workers_are_capped_at_the_usable_cpus(self, monkeypatch):
        started, _, waits = self.recording_executor(monkeypatch)
        results = pool_map(_first_squared, map(_whole, range(10_000)), 5000)
        assert next(results) == 0
        results.close()
        assert started == [2]
        assert waits == [POOL_READ_AHEAD * 2]

    def test_one_usable_cpu_runs_without_a_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started for one usable CPU")

        monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(dispatch, "usable_cpus", lambda: 1)
        shards = iter([[x] for x in range(40)])
        assert list(pool_map(_squares, shards, 2)) == [[x * x] for x in range(40)]

    def test_no_task_splits_a_shard(self, monkeypatch):
        rng = random.Random(0)
        shards = [[(i, j) for j in range(rng.choice((1, 2, 5, 40, 70)))] for i in range(300)]
        # in process, each shard is its own task
        assert list(pool_map(list, shards, 1)) == shards
        # with a pool, consecutive whole shards make each task, and a task
        # ends with the first shard that brings it to TASK_SIZE items
        _, submitted, _ = self.recording_executor(monkeypatch)
        assert list(chain.from_iterable(pool_map(list, shards, 2))) == list(chain(*shards))
        tasks = [task for _, task in submitted]
        assert list(chain(*tasks)) == list(chain(*shards))
        taken = iter(shards)
        for task in tasks:
            joined = []
            while len(joined) < len(task):
                last = next(taken)
                joined += last
            assert joined == task
            if task is not tasks[-1]:
                assert len(task) - len(last) < TASK_SIZE <= len(task)
        assert next(taken, None) is None


class TestSweepStreaming:
    """`_sweep` takes shards as their reports come back and holds no instance list."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_checks_keep_up_with_the_tasks_taken(self, monkeypatch, jobs):
        # every shard fills one task: TASK_SIZE copies of one cycle instance
        monkeypatch.setattr(dispatch, "usable_cpus", lambda: 2)  # a pool on any host
        instance = (gen_cycle(3), (2, 1, 1), None)
        taken = added = 0
        ahead = []

        def shards():
            nonlocal taken
            for _ in range(30):
                taken += 1
                yield [instance] * TASK_SIZE

        real = harness.VerifyReport.add

        def add(report, done):
            nonlocal added
            ahead.append(taken - added)  # tasks read and not yet added, this one included
            added += 1
            real(report, done)

        monkeypatch.setattr(harness.VerifyReport, "add", add)
        report = harness.VerifyReport("cycles", {})
        run = partial(harness._cycle_task, DEFAULT_FACE_CAP)
        harness._sweep(report, shards(), run, jobs)
        assert report.instances == 30 * TASK_SIZE and report.ok
        assert report.classes == added == 30
        assert 1 <= min(ahead) and max(ahead) <= POOL_READ_AHEAD * jobs

    def test_pool_workers_check_and_the_parent_adds(self, monkeypatch):
        real, checked = harness._check, []

        def check(*args):
            checked.append(args[2])  # into the list of the process that checks
            real(*args)

        monkeypatch.setattr(harness, "_check", check)
        # the all-ones cycles C3, C4 and C5 are not reducible: three errors
        serial = sweep_cycles([3, 4, 5], 2, (0, 1, 2))
        assert len(checked) == serial.instances == 351 and len(serial.errors) == 3
        checked.clear()
        monkeypatch.setattr(dispatch, "usable_cpus", lambda: 2)
        pooled = sweep_cycles([3, 4, 5], 2, (0, 1, 2), jobs=2)
        assert checked == []  # the forked workers made every check
        assert pooled.to_json() == serial.to_json()
        for name in ("mismatches", "torsion_hits", "euler_failures", "errors"):
            assert getattr(pooled, name) == getattr(serial, name)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_last_bound_listed_twice_is_one_class(self, jobs):
        report = sweep_cycles([3], 1, (0, 0), jobs=jobs)
        assert report.instances == 8 and report.classes == report.instances // 2
        assert report.ok


class TestSweepFailures:
    def test_matching_duplicates_of_a_torsion_class_are_reported(self, monkeypatch):
        real = harness.graph_homology

        def torsion_everywhere(graph, bounds, face_cap):
            profile, euler = real(graph, bounds, face_cap)
            return HomologyProfile(profile.betti, {**profile.torsion, 0: (2,)}), euler

        monkeypatch.setattr(harness, "graph_homology", torsion_everywhere)
        report = sweep_matching_caterpillars(2, 2, (1, 2))
        assert report.instances == 24 and report.classes < 24
        assert len(report.torsion_hits) == 24 and report.agreements == 0
        assert report.torsion_hits[0]["torsion"]["0"] == [2]
        assert report.to_json()["ok"] is False

    def test_cycle_edge_map_killing_a_face_edge_is_a_mismatch(self, monkeypatch):
        real = harness.cycle_reduce

        def kill_first_edge(graph, bounds):
            # the split's first edge is read back as its second: the first
            # kept edge of the cycle is lost
            split, split_bounds, kept = real(graph, bounds)
            return split, split_bounds, kept[1:2] + kept[1:]

        monkeypatch.setattr(harness, "cycle_reduce", kill_first_edge)
        report = sweep_cycles([3], 1, (2,))
        assert report.instances == report.classes == 4
        reasons = {m.get("reason") for m in report.mismatches}
        assert reasons & {"killed edge in face", "face sets differ"}
        assert report.ok is False and report.agreements < 4

    def _corrupt(self, monkeypatch, wrong_on):
        """plan_counts, which the sweep workers call per instance, answers wrongly where `wrong_on`."""
        real = harness.plan_counts
        corrupted = []

        def wrong(plan, bounds):
            counts = real(plan, bounds)
            if wrong_on(plan.graph, tuple(bounds)):
                corrupted.append((plan.graph.edges, tuple(bounds)))
                return {**counts, 0: counts.get(0, 0) + 1}
            return counts

        monkeypatch.setattr(harness, "plan_counts", wrong)
        return corrupted

    def _corrupt_single_edges(self, monkeypatch):
        """Wrong counts on a single edge with both bounds 1."""
        return self._corrupt(
            monkeypatch, lambda graph, bounds: graph.num_edges == 1 and bounds == (1, 1)
        )

    def _assert_reported(self, report, corrupted):
        assert corrupted
        wrong = [m for m in report.mismatches if m["instance"]["lambda"] == [1, 1]]
        assert wrong and all(m["computed"] == {0: 1} for m in wrong)
        assert report.ok is False and report.agreements < report.instances

    def test_forest_sweep_reports_a_wrong_count(self, monkeypatch):
        corrupted = self._corrupt_single_edges(monkeypatch)
        report = sweep_forests(2, 1, raw_samples=0)
        self._assert_reported(report, corrupted)

    def test_caterpillar_sweep_reports_a_wrong_count(self, monkeypatch):
        corrupted = self._corrupt_single_edges(monkeypatch)
        report = sweep_caterpillars(1, 1, 1)
        self._assert_reported(report, corrupted)
        assert any("closed_form" in m for m in report.mismatches)

    def test_caterpillar_sweep_reports_a_wrong_count_from_pool_workers(self, monkeypatch):
        corrupted = self._corrupt_single_edges(monkeypatch)
        pooled = sweep_caterpillars(1, 1, 1, jobs=2)
        assert not corrupted  # the forked workers made the corrupted calls
        serial = sweep_caterpillars(1, 1, 1)
        self._assert_reported(serial, corrupted)
        assert pooled.to_json() == serial.to_json()
        assert pooled.mismatches == serial.mismatches

    def test_mismatches_of_one_shard_keep_instance_order(self, monkeypatch):
        # a caterpillar's isomorphic copies are listed together, each class
        # where its first copy appears: m = (1,2) with (2,1), then (1,3)
        # with (3,1), then (2,2)
        self._corrupt(monkeypatch, lambda graph, bounds: graph.num_vertices in (5, 6))
        expected = [
            harness.instance_json(*gen_caterpillar(CaterpillarSpec(m, lam)))
            for m in ((1, 2), (2, 1), (1, 3), (3, 1), (2, 2))
            for lam in itertools.product(range(2), repeat=2)
        ]
        reports = [sweep_caterpillars(2, 3, 1, jobs=jobs) for jobs in (1, 2)]
        for report in reports:
            reported = [m["instance"] for m in report.mismatches if "oracle" in m]
            assert reported == expected
            assert [m["instance"] for m in report.mismatches if "closed_form" in m] == expected
        assert reports[0].mismatches == reports[1].mismatches
        assert reports[0].to_json() == reports[1].to_json()

    def test_matching_sweep_reports_a_wrong_count(self, monkeypatch):
        corrupted = self._corrupt_single_edges(monkeypatch)
        report = sweep_matching_caterpillars(1, 1, (1,))
        self._assert_reported(report, corrupted)

    def test_irreducible_cycle_is_an_error(self):
        triangle = harness.instance_json(gen_cycle(3), (1, 1, 1))
        reports = [sweep_cycles([3], 1, (1,), jobs=jobs) for jobs in (1, 2)]
        for report in reports:
            assert (report.instances, report.classes, report.agreements) == (4, 4, 3)
            assert report.errors == [{"instance": triangle, "reason": "not reducible"}]
            assert not (report.mismatches or report.torsion_hits or report.euler_failures)
            assert report.ok is False
        assert reports[0].to_json() == reports[1].to_json()

    def test_random_sweep_reports_a_wrong_count(self, monkeypatch):
        corrupted = self._corrupt_single_edges(monkeypatch)
        report = sweep_random_forests(30, 0, max_edges=1, max_bound=1)
        self._assert_reported(report, corrupted)


class TestBenchmarkBindings:
    """perfbench/spans.py rebinds package functions by name; they must exist."""

    def test_traced_run_records_spans_and_counters(self):
        path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
        spec = importlib.util.spec_from_file_location("perfbench_spans", path)
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        rec = spans.Recorder()
        original = harness.compute_instance
        uninstall = spans.install(rec)
        try:
            forest = harness.parse_instance(
                {"n": 4, "edges": [[0, 1], [1, 2], [2, 3]], "lambda": [1, 1, 1, 1]}
            )
            assert harness.compute_instance(forest).spheres == {0: 1}
            two_spine = harness.parse_instance({"caterpillar": {"m": [2, 1], "lambda": [2, 1]}})
            res = harness.compute_instance(two_spine, method="homology")
            assert res.homology.betti == {1: 1}
            cli.result_json(two_spine, res)
            # the two-spine circle is one relative 1-cell with an empty
            # boundary, and C5's cells pair off but for one 1-cell, so neither
            # builds a matrix; caterpillar m=(3, 3) keeps critical cells in
            # dimensions 2 and 3 and builds the boundary 3
            c5 = harness.parse_instance({"cycle": {"n": 5, "lambda": [1] * 5}})
            assert harness.compute_instance(c5, method="homology").homology.betti == {1: 1}
            m33 = harness.parse_instance({"caterpillar": {"m": [3, 3], "lambda": [2, 2]}})
            assert harness.compute_instance(m33, method="homology").homology.betti == {2: 4, 3: 1}
            # the oracle walks only the cells of the graph; the cycle check
            # still builds whole complexes, here of C3 with bounds (2, 1, 1)
            # and of the path it splits into
            assert harness._cycle_worker(gen_cycle(3), (2, 1, 1), DEFAULT_FACE_CAP)[2] == []
        finally:
            uninstall()
        assert harness.compute_instance is original
        for module, attr in spans.LAYERS.values():
            assert hasattr(importlib.import_module(module), attr), (module, attr)
        calls = {name: row["calls"] for name, row in rec.summary().items()}
        for name in ("harness.parse_instance", "harness.compute_instance"):
            assert calls[name] == 4, name
        for name in (
            "recursion.sphere_counts",
            "homology.boundary_matrix",
            "homology.smith_normal_form",
            "harness.pool_task.cycle",
            "cli.result_json",
        ):
            assert calls[name] >= 1, name
        assert calls["complexes.build_complex"] == 2
        assert rec.counters["faces"] == 4 + 4  # f-vectors (3, 1) and (3, 1)
        assert rec.counters["boundary_nnz"] > 0

    def test_traced_sweeps_record_their_pool_tasks(self):
        path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
        spec = importlib.util.spec_from_file_location("perfbench_spans", path)
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        rec = spans.Recorder()
        uninstall = spans.install(rec)
        try:
            # through the harness module, whose names the tracer rebinds
            reports = [
                harness.sweep_forests(2, 1, raw_samples=0),
                harness.sweep_caterpillars(1, 1, 1),
                harness.sweep_cycles([3], 1, (2,)),
                harness.sweep_matching_caterpillars(1, 1, (1,)),
            ]
        finally:
            uninstall()
        assert all(report.ok for report in reports)
        calls = {name: row["calls"] for name, row in rec.summary().items()}
        for name in ("forests", "caterpillars", "cycles", "matching"):
            assert calls[f"harness.sweep.{name}"] == 1, name
        assert calls["harness.pool_task.oracle"] + calls["harness.pool_task.matching"] > 0
        assert calls["harness.pool_task.cycle"] > 0


class TestComputeInstance:
    """The forest route builds one plan per instance, none for a cone, and applies it."""

    def _count_plans(self, monkeypatch):
        real = recursion._forest_plan
        plans = []

        def counting(graph, *args):
            plans.append(graph)
            return real(graph, *args)

        def refuse(*args, **kwargs):
            raise AssertionError("sphere_counts plans the forest again")

        monkeypatch.setattr(recursion, "_forest_plan", counting)
        # dispatch binds no sphere_counts today; the guard holds if it ever does
        monkeypatch.setattr(dispatch, "sphere_counts", refuse, raising=False)
        return plans

    def test_forest_is_planned_once(self, monkeypatch):
        plans = self._count_plans(monkeypatch)
        forest = harness.parse_instance({"n": 4, "edges": [[0, 1], [1, 2], [2, 3]], "lambda": [1, 1, 1, 1]})
        for method in ("auto", "recursion"):
            res = harness.compute_instance(forest, method)
            assert (res.method_used, res.spheres) == ("recursion", {0: 1})
        assert plans == [forest.graph] * 2

    def test_a_cycle_is_not_a_forest(self, monkeypatch):
        plans = self._count_plans(monkeypatch)
        cycle = harness.parse_instance({"cycle": {"n": 5, "lambda": [2, 1, 1, 1, 1]}})
        with pytest.raises(MethodMismatchError, match="recursion applies to forests only"):
            harness.compute_instance(cycle, "recursion")
        res = harness.compute_instance(cycle)
        assert res.method_used == "cycle-reduce"
        assert res.spheres == harness.compute_instance(cycle, "homology").spheres
        # the cycle is tried as a forest twice; the forest it splits into is planned once
        split = harness.cycle_reduce(cycle.graph, cycle.bounds)[0]
        assert plans == [cycle.graph] * 2 + [split]

    def test_a_cone_is_answered_with_no_plan(self, monkeypatch):
        plans = self._count_plans(monkeypatch)
        # edge {1, 2}: both ends have bounds at least their degrees
        forest = harness.parse_instance({"n": 4, "edges": [[0, 1], [1, 2], [2, 3]], "lambda": [1, 2, 2, 0]})
        for method in ("auto", "recursion"):
            res = harness.compute_instance(forest, method)
            assert (res.method_used, res.spheres, res.contractible) == ("recursion", {}, True)
        # a cone with a cycle is still no forest; the split keeps the cone edge
        cycle = harness.parse_instance({"cycle": {"n": 4, "lambda": [2, 2, 1, 1]}})
        with pytest.raises(MethodMismatchError, match="recursion applies to forests only"):
            harness.compute_instance(cycle, "recursion")
        res = harness.compute_instance(cycle)
        assert (res.method_used, res.spheres) == ("cycle-reduce", {})
        assert plans == []

    def test_small_forests_answer_as_their_fold(self):
        """Every forest of at most 5 edges and 3 trees, bounds 0..min(deg + 1, 3)."""
        count = cones = 0
        for forest in nonisomorphic_forests(5):
            if forest.num_vertices - forest.num_edges > 3:
                continue
            plan = forest_plan(forest)
            grid = [range(min(d + 1, 3) + 1) for d in forest.degrees()]
            for b in itertools.product(*grid):
                res = harness.compute_instance(Instance({}, given=(forest, b)))
                assert (res.method_used, res.spheres) == ("recursion", plan_counts(plan, b)), (forest, b)
                count += 1
                cones += is_cone(forest, b)
        assert (count, cones) == (71704, 52167)

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(st.data())
    def test_a_cone_with_cycles_keeps_its_route(self, data):
        if data.draw(st.booleans()):
            # some edge raised to a cone edge: its ends split, mostly to a forest
            graph, bounds = graph_with_cycles(data)
            u, v = data.draw(st.sampled_from(graph.edges))
            deg = graph.degrees()
            bounds = list(bounds)
            bounds[u], bounds[v] = max(bounds[u], deg[u]), max(bounds[v], deg[v])
        else:
            # a disjoint cone edge next to a cycle that the split keeps: the oracle
            graph, bounds = graph_keeping_a_cycle(data)
            n = graph.num_vertices
            graph = make_graph(n + 2, graph.edges + ((n, n + 1),))
            bounds = list(bounds) + [1, 1]
        assert is_cone(graph, bounds) and not is_forest(graph)
        reduced = harness.cycle_reduce(graph, bounds)
        route = "cycle-reduce" if reduced is not None and is_forest(reduced[0]) else "homology"
        res = harness.compute_instance(Instance({}, given=(graph, tuple(bounds))))
        profile, euler = graph_homology(graph, bounds)
        assert (res.method_used, res.spheres) == (route, wedge_profile(profile)) == (route, {})
        assert euler == 0


class TestRecords:
    """The records are values: equal and (where their fields allow) hashed by
    value, printed by field, frozen, and sent through the pool by pickle."""

    RECORDS = {
        "graph": (
            lambda: gen_path(3),
            "Graph(num_vertices=3, edges=((0, 1), (1, 2)))",
        ),
        "caterpillar-spec": (
            lambda: CaterpillarSpec([2, 1], (2, 1)),
            "CaterpillarSpec(m=(2, 1), lambda_spine=(2, 1))",
        ),
        "forest-plan": (
            lambda: forest_plan(gen_path(2)),
            "ForestPlan(graph=Graph(num_vertices=2, edges=((0, 1),)), degrees=(1, 1),"
            " steps=((1, 0), (0, -1)))",
        ),
        "complex": (
            lambda: SimplicialComplex(2, ((1, 2),)),
            "SimplicialComplex(ground_set=2, faces_by_dim=((1, 2),))",
        ),
        "homology": (
            lambda: HomologyProfile({1: 1}),
            "HomologyProfile(betti={1: 1}, torsion={})",
        ),
        "instance": (
            lambda: harness.parse_instance({"cycle": {"n": 3, "lambda": [1, 1, 1]}}),
            "Instance(source={'cycle': {'n': 3, 'lambda': [1, 1, 1]}}, cat_spec=None,"
            " given=(Graph(num_vertices=3, edges=((0, 1), (1, 2), (0, 2))), (1, 1, 1)))",
        ),
        "result": (
            lambda: ComputeResult("recursion", {0: 1}, False, None, True, {}),
            "ComputeResult(method_used='recursion', spheres={0: 1}, contractible=False,"
            " homology=None, wedge_consistent=True, timings_ms={})",
        ),
    }
    HASHABLE = {"graph", "caterpillar-spec", "forest-plan", "complex"}

    @pytest.mark.parametrize("name", RECORDS)
    def test_a_record_is_a_value(self, name):
        make, text = self.RECORDS[name]
        a, b = make(), make()
        assert a == b and a is not b and not a != b
        assert repr(a) == text
        if name in self.HASHABLE:
            assert hash(a) == hash(b) and {a: 1}[b] == 1
        else:
            with pytest.raises(TypeError):
                hash(a)
        field = text[text.index("(") + 1 : text.index("=")]  # the first field the repr names
        with pytest.raises(AttributeError):
            setattr(a, field, None)
        assert a == b
        assert pickle.loads(pickle.dumps(a)) == a

    def test_values_differ_by_field_and_class(self):
        assert gen_path(3) != gen_path(4) and gen_path(3) != gen_cycle(3)
        assert HomologyProfile({1: 1}) != HomologyProfile({1: 1}, {0: (2,)})
        assert CaterpillarSpec((1,), (1,)) != gen_path(1)

    def test_defaults_are_not_shared(self):
        assert HomologyProfile() == HomologyProfile({}, {})
        assert HomologyProfile().betti is not HomologyProfile().betti
        one, two = VerifyReport("forests", {}), VerifyReport("forests", {})
        for name in ("mismatches", "torsion_hits", "euler_failures", "errors"):
            assert getattr(one, name) is not getattr(two, name)

    def test_the_records_share_one_base(self):
        for cls in (Graph, CaterpillarSpec, ForestPlan, HomologyProfile, Instance):
            assert issubclass(cls, Record), cls
            for name in ("__eq__", "__hash__", "__repr__", "__setattr__", "__reduce__"):
                # an unhashable record sets __hash__ to None and writes no method
                assert vars(cls).get(name) is None, (cls, name)

    def test_wrong_number_of_values(self):
        class Pair(Record):
            __slots__ = _fields = ("a", "b")

        assert Pair(1, 2) == Pair(1, 2) and repr(Pair(1, 2)) == "Pair(a=1, b=2)"
        for values in ((), (1,), (1, 2, 3)):
            with pytest.raises(TypeError, match=f"Pair takes 2 values, got {len(values)}"):
                Pair(*values)
        plan = forest_plan(gen_path(2))
        with pytest.raises(TypeError):
            ForestPlan(plan.graph, plan.degrees)
        with pytest.raises(TypeError):
            ForestPlan(plan.graph, plan.degrees, plan.steps, ())

    def test_a_read_cache_is_not_pickled(self):
        plan = forest_plan(gen_caterpillar(CaterpillarSpec((2, 1), (2, 1)))[0])
        fresh = pickle.dumps(plan)
        assert plan.trees
        back = pickle.loads(pickle.dumps(plan))
        assert back == plan and back.graph == plan.graph and "trees" not in vars(back)
        assert pickle.dumps(plan) == fresh and back.trees == plan.trees

        instance = harness.parse_instance({"caterpillar": {"m": [2, 1], "lambda": [2, 1]}})
        fresh = pickle.dumps(instance)
        graph = instance.graph
        back = pickle.loads(pickle.dumps(instance))
        assert "_graph_bounds" not in vars(back)  # before reading it builds the graph again
        assert back == instance and back.graph == graph and pickle.dumps(instance) == fresh
