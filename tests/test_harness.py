"""The sweep pipeline: pool_map, sweeps that must report what goes wrong, the
package names that the benchmark's tracer binds, and the records' value
semantics."""

import importlib.util
import itertools
import multiprocessing
import pickle
import threading
import time
from functools import partial
from pathlib import Path

import pytest

from bdcomplex import cli, dispatch, harness
from bdcomplex.complexes import DEFAULT_FACE_CAP, SimplicialComplex
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
)
from bdcomplex.harness import (
    POOL_READ_AHEAD,
    ComputeResult,
    Instance,
    VerifyReport,
    pool_map,
    sweep_caterpillars,
    sweep_cycles,
    sweep_forests,
    sweep_matching_caterpillars,
    sweep_random_forests,
)
from bdcomplex.homology import HomologyProfile


def _square(x):
    return x * x


class TestPoolMap:
    def test_task_order_at_any_job_count(self):
        tasks = list(range(40))
        expected = [x * x for x in tasks]
        for jobs in (0, 1, 2):
            assert list(pool_map(_square, tasks, jobs)) == expected
        assert list(pool_map(_square, iter(tasks), 2)) == expected

    def test_no_tasks(self):
        assert list(pool_map(_square, [], 1)) == []
        assert list(pool_map(_square, [], 2)) == []

    def test_caller_stopping_early_ends_the_pool(self, monkeypatch):
        monkeypatch.setattr(dispatch, "usable_cpus", lambda: 2)  # a pool on any host
        read = []

        def tasks():
            for x in range(10_000):
                read.append(x)
                yield x

        ahead = POOL_READ_AHEAD * 2
        taken = []

        def take_three_and_stop():
            results = pool_map(_square, tasks(), 2)
            taken.extend(next(results) for _ in range(3))
            deadline = time.monotonic() + 30
            while len(read) < 3 + ahead and time.monotonic() < deadline:
                time.sleep(0.01)
            time.sleep(0.2)  # the pool's task thread now waits for a permit
            results.close()

        worker = threading.Thread(target=take_three_and_stop, daemon=True)
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        assert taken == [0, 1, 4] and len(read) == 3 + ahead

    def test_workers_are_capped_at_the_usable_cpus(self, monkeypatch):
        started, read_ahead = [], []

        class RecordingPool:
            """Starts no worker: records its size and how far `imap` may read."""

            def __init__(self, processes):
                started.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                pass

            def imap(self, fn, tasks):
                read = []
                reader = threading.Thread(target=read.extend, args=(tasks,), daemon=True)
                reader.start()
                reader.join(timeout=0.5)  # it now waits at the gate for a permit
                read_ahead.append(len(read))
                return iter(())

        monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
        monkeypatch.setattr(dispatch, "usable_cpus", lambda: 2)
        assert list(pool_map(_square, range(10_000), 5000)) == []
        assert started == [2]
        assert read_ahead == [POOL_READ_AHEAD * 2]

    def test_one_usable_cpu_runs_without_a_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started for one usable CPU")

        monkeypatch.setattr(multiprocessing, "Pool", no_pool)
        monkeypatch.setattr(dispatch, "usable_cpus", lambda: 1)
        tasks = iter(range(40))
        assert list(pool_map(_square, tasks, 2)) == [x * x for x in range(40)]


class TestSweepStreaming:
    """`_sweep` takes shards as it checks them and holds no instance list."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_checks_keep_up_with_the_tasks_taken(self, monkeypatch, jobs):
        # every shard fills one task: TASK_SIZE copies of one cycle instance
        instance = (gen_cycle(3), (2, 1, 1), None)
        taken = checked = 0
        ahead = []

        def shards():
            nonlocal taken
            for _ in range(30):
                taken += 1
                yield [instance] * harness.TASK_SIZE

        real = harness._check

        def check(report, graph, bounds, extra, result):
            nonlocal checked
            checked += 1
            begun = (checked - 1) // harness.TASK_SIZE + 1  # tasks whose checks have begun
            ahead.append(taken - begun)
            real(report, graph, bounds, extra, result)

        monkeypatch.setattr(harness, "_check", check)
        report = harness.VerifyReport("cycles", {})
        run = partial(harness._cycle_task, DEFAULT_FACE_CAP)
        harness._sweep(report, shards(), run, jobs)
        assert report.instances == checked == 30 * harness.TASK_SIZE and report.ok
        assert report.classes == 30
        assert 0 <= min(ahead) and max(ahead) <= POOL_READ_AHEAD * jobs

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
    """The forest route builds one plan per instance and applies it."""

    def _count_plans(self, monkeypatch):
        real = dispatch.forest_plan
        plans = []

        def counting(graph, *args):
            plans.append(graph)
            return real(graph, *args)

        def refuse(*args, **kwargs):
            raise AssertionError("sphere_counts plans the forest again")

        monkeypatch.setattr(dispatch, "forest_plan", counting)
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
        assert one.errors is not two.errors
        one.instances += 1
        assert one != two
        two.instances += 1
        assert one == two  # apart from `started`
        assert "started" not in repr(one)

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
