"""The sweep pipeline: pool_map, sweeps that must report what goes wrong, and
the package names that the benchmark's tracer binds."""

import importlib.util
import itertools
import threading
import time
from pathlib import Path

from bdcomplex import cli, harness
from bdcomplex.graph import CaterpillarSpec, gen_caterpillar
from bdcomplex.harness import (
    POOL_READ_AHEAD,
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

    def test_caller_stopping_early_ends_the_pool(self):
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


class TestSweepFailures:
    def test_matching_duplicates_of_a_torsion_class_are_reported(self, monkeypatch):
        real = harness.reduced_homology

        def torsion_everywhere(k):
            profile = real(k)
            return HomologyProfile(profile.betti, {**profile.torsion, 0: (2,)})

        monkeypatch.setattr(harness, "reduced_homology", torsion_everywhere)
        report = sweep_matching_caterpillars(2, 2, (1, 2))
        assert report.instances == 24 and report.classes < 24
        assert len(report.torsion_hits) == 24 and report.agreements == 0
        assert report.torsion_hits[0]["torsion"]["0"] == [2]
        assert report.to_json()["ok"] is False

    def test_cycle_edge_map_killing_a_face_edge_is_a_mismatch(self, monkeypatch):
        real = harness.cycle_reduce

        def kill_first_edge(n, bounds):
            path, path_bounds, edge_map = real(n, bounds)
            return path, path_bounds, (None,) + edge_map[1:]

        monkeypatch.setattr(harness, "cycle_reduce", kill_first_edge)
        report = sweep_cycles([3], 1, (2,))
        assert report.instances == report.classes == 4
        reasons = [m.get("reason") for m in report.mismatches]
        assert "killed edge in face" in reasons
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
        # m = (1,2) and (2,1) are one shard, as are (1,3) and (3,1); in
        # instance order (1,3) and (2,2) fall between (1,2) and (2,1)
        self._corrupt(monkeypatch, lambda graph, bounds: graph.num_vertices in (5, 6))
        expected = [
            harness.instance_json(*gen_caterpillar(CaterpillarSpec(m, lam)))
            for m in itertools.product(range(1, 4), repeat=2)
            if sum(m) in (3, 4)
            for lam in itertools.product(range(2), repeat=2)
        ]
        reports = [sweep_caterpillars(2, 3, 1, jobs=jobs) for jobs in (1, 2)]
        for report in reports:
            reported = [m["instance"] for m in report.mismatches if "oracle" in m]
            assert reported == expected
            assert [m["instance"] for m in report.mismatches if "closed_form" in m] == expected
        assert reports[0].mismatches == reports[1].mismatches
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
        finally:
            uninstall()
        assert harness.compute_instance is original
        calls = {name: row["calls"] for name, row in rec.summary().items()}
        for name in ("harness.parse_instance", "harness.compute_instance"):
            assert calls[name] == 2, name
        for name in (
            "recursion.sphere_counts",
            "complexes.build_complex",
            "homology.reduced_homology",
            "homology.boundary_matrix",
            "homology.smith_normal_form",
            "cli.result_json",
        ):
            assert calls[name] >= 1, name
        assert rec.counters["faces"] == 10  # f-vector (4, 5, 1)
        assert rec.counters["boundary_nnz"] > 0
