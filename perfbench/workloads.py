"""The workloads: set-up, timed rounds, reference checks and tracing.

Runs inside the workload process that run.py starts, with the package
importable from the checkout's src/.  A round is one pass over the
workload's fixed instance set; a run repeats whole rounds for its time
budget, so the share of failed operations is the same in every run.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import statistics
import subprocess
import sys
import time

import inputs
import refs
import spans

import bdcomplex
from bdcomplex import cli, harness

BUILD_DIR = ".bench_build"


def jobs() -> int:
    """Pool size of the pooled rounds: two workers, never more than the CPUs this process may use.

    The timed rounds of the end-to-end metrics run at jobs=1 (see `measure`);
    pooled rounds check that the pool gives the same output and, in the
    traced run, give the pool speed-up.
    """
    return min(2, len(os.sched_getaffinity(0)))


class Run:
    """Operation counts, check failures and notes of one workload process."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.notes: list[str] = []

    def check(self, ok: bool, what: str):
        if not ok and len(self.errors) < 20:
            self.errors.append(what)


def rounds(seconds: float, round_fn) -> list[float]:
    """Repeat whole rounds while the next one is expected to end in time."""
    times: list[float] = []
    t_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        round_fn()
        times.append(time.perf_counter() - t0)
        if time.perf_counter() - t_start + statistics.median(times) > seconds:
            return times


def percentile(values, q: int) -> float:
    """q-th percentile with linear interpolation between the samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# ---------------------------------------------------------------------------
# output checks against the independent references
# ---------------------------------------------------------------------------


def _spheres(result: dict):
    return {int(d): c for d, c in result["spheres"].items()} if "spheres" in result else None


def check_result(run: Run, case: inputs.Case, result: dict):
    """Compare one result, in CLI JSON form, with the case's reference."""
    kind, *ref = inputs.expected(case.ref)
    if case.route:
        run.check(result["method"] == case.route, f"{case.label}: route {result['method']} != {case.route}")
    spheres = _spheres(result)
    if kind == "spheres":
        run.check(spheres == ref[0], f"{case.label}: spheres {spheres} != reference {ref[0]}")
    elif kind == "euler":
        got = None if spheres is None else refs.signed_sum(spheres)
        run.check(got == ref[0], f"{case.label}: signed sphere sum {got} != Euler reference {ref[0]}")
    else:
        betti, torsion_primes = ref
        hom = result.get("homology")
        run.check(hom is not None, f"{case.label}: no homology block")
        if hom is None:
            return
        got_betti = {int(d): b for d, b in hom["betti"].items()}
        run.check(got_betti == betti, f"{case.label}: betti {got_betti} != mod-p reference {betti}")
        got_primes = {
            int(d): tuple(q for q in (2, 3) if any(f % q == 0 for f in fs))
            for d, fs in hom["torsion"].items()
        }
        got_primes = {d: qs for d, qs in got_primes.items() if qs}
        run.check(got_primes == torsion_primes,
                  f"{case.label}: torsion primes {got_primes} != rank drops {torsion_primes}")
        if not torsion_primes:
            run.check(spheres == betti, f"{case.label}: spheres {spheres} != betti {betti}")


# ---------------------------------------------------------------------------
# compute: compute_instance in process, one call at a time
# ---------------------------------------------------------------------------


def _result_json(res) -> dict:
    """The fields of the CLI's result object that the checks read."""
    out = {"method": res.method_used}
    if res.spheres is not None:
        out["spheres"] = {str(d): c for d, c in res.spheres.items()}
    if res.homology is not None:
        out["homology"] = {
            "betti": {str(d): b for d, b in res.homology.betti.items()},
            "torsion": {str(d): list(t) for d, t in res.homology.torsion.items()},
        }
    return out


class InstanceWorkload:
    """Times compute_instance one call at a time, with a fresh memo per call."""

    def __init__(self, cases):
        self.cases = cases
        self.instances = [harness.parse_instance(c.obj) for c in cases]
        self.times: list[list[float]] = [[] for _ in cases]
        self.results: list = [None] * len(cases)

    def round(self, run: Run, rec=None):
        for i, (case, inst) in enumerate(zip(self.cases, self.instances)):
            run.attempted += 1
            t0 = time.perf_counter()
            try:
                with rec.op() if rec else contextlib.nullcontext():
                    res = harness.compute_instance(inst, case.method)
            except Exception as exc:  # noqa: BLE001 - every failure is counted
                self.times[i].append(time.perf_counter() - t0)
                run.failed += 1
                name = type(exc).__name__
                run.check(name == case.expected_failure, f"{case.label}: unexpected {name}: {exc}")
                self.results[i] = name
                continue
            self.times[i].append(time.perf_counter() - t0)
            out = _result_json(res)
            if self.results[i] is None:
                self.results[i] = out
            else:
                run.check(out == self.results[i], f"{case.label}: result changed between rounds")

    def check(self, run: Run):
        for case, out in zip(self.cases, self.results):
            if isinstance(out, str):
                if out == case.expected_failure:
                    run.notes.append(f"expected failure: {case.label} raised {out} on every attempt")
                continue
            check_result(run, case, out)

    def instance_ms(self) -> list[float]:
        """One time per instance: its fastest over the rounds, in ms."""
        return [min(t) * 1000.0 for t in self.times if t]


# ---------------------------------------------------------------------------
# sweep-batch: the sweeps
# ---------------------------------------------------------------------------


def _count_forest_instances(max_edges: int, max_bound: int) -> int:
    """Forests without isolated vertices up to isomorphism, times bound vectors.

    Trees up to isomorphism come from Pruefer codes of labeled trees,
    deduplicated by an AHU code rooted at the center; a forest is a multiset
    of such trees.  Each forest contributes prod_v (min(max_bound, deg v)+1).
    """
    def code(n, edges):
        adj = [[] for _ in range(n)]
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        deg = [len(a) for a in adj]
        layer = [v for v in range(n) if deg[v] <= 1]
        left = n
        alive = set(range(n))
        while left > 2:
            nxt = []
            for v in layer:
                alive.discard(v)
                left -= 1
                for w in adj[v]:
                    if w in alive:
                        deg[w] -= 1
                        if deg[w] == 1:
                            nxt.append(w)
            layer = nxt

        def enc(v, parent):
            return "(" + "".join(sorted(enc(w, v) for w in adj[v] if w != parent)) + ")"

        return min(enc(c, -1) for c in alive) if len(alive) == 1 else "".join(
            sorted(enc(c, other) for c, other in (tuple(alive), tuple(alive)[::-1]))
        )

    weights: list[tuple[int, int]] = []  # (edges, product of bound choices)
    for n in range(2, max_edges + 2):
        seen = {}
        for seq in itertools.product(range(n), repeat=n - 2):
            degree = [1] * n
            for s in seq:
                degree[s] += 1
            edges = []
            for s in seq:
                leaf = min(v for v in range(n) if degree[v] == 1)
                edges.append((leaf, s))
                degree[leaf] -= 1
                degree[s] -= 1
            u, v = (x for x in range(n) if degree[x] == 1)
            edges.append((u, v))
            key = code(n, edges)
            if key not in seen:
                degs = [0] * n
                for a, b in edges:
                    degs[a] += 1
                    degs[b] += 1
                w = 1
                for d in degs:
                    w *= min(max_bound, d) + 1
                seen[key] = w
        weights += [(n - 1, w) for w in seen.values()]
    # multisets of trees: count[e] = sum over forests with e edges of weights
    count = [1] + [0] * max_edges
    for e, w in weights:
        # unbounded multiplicity of each tree type, so iterate upwards
        for total in range(e, max_edges + 1):
            count[total] += count[total - e] * w
    return sum(count)


CYCLE_NS = (3, 4, 5)


def sweep_plan(seed: int):
    """(name, function name, kwargs, instance counter) per sweep.

    The four sweeps of the acceptance suite, the forest, caterpillar and
    cycle sweeps one size smaller (see README.md), so that a run holds
    several rounds.  The counts are the benchmark's own, made
    from the sweep parameters: caterpillars have 2 leaf counts and 4 bounds
    per spine vertex, cycles 4 bounds on n-1 vertices and 3 last bounds,
    matching caterpillars 4 leaf counts per spine vertex and 3 values of k.
    """
    return [
        ("forests", "sweep_forests", {"max_edges": 5, "max_bound": 3, "seed": seed},
         lambda: _count_forest_instances(5, 3)),
        ("caterpillars", "sweep_caterpillars", {"max_spine": 3, "max_leaves": 2, "max_bound": 3},
         lambda: sum((2 * 4) ** n for n in range(1, 4))),
        ("cycles", "sweep_cycles", {"ns": list(CYCLE_NS), "max_bound": 3, "last_bounds": (0, 2, 3)},
         lambda: sum(4 ** (n - 1) * 3 for n in CYCLE_NS)),
        ("matching", "sweep_matching_caterpillars", {"max_spine": 3, "max_leaves": 3, "k_values": (1, 2, 3)},
         lambda: sum(4 ** n * 3 for n in range(1, 4))),
    ]


class SweepWorkload:
    def __init__(self, seed: int):
        self.plan = sweep_plan(seed)
        self.reports: dict[str, dict] = {}
        self.times: dict[str, list[float]] = {name: [] for name, *_ in self.plan}

    def round(self, run: Run, n_jobs: int, rec=None) -> None:
        for name, fn_name, kwargs, _ in self.plan:
            t0 = time.perf_counter()
            with rec.op() if rec else contextlib.nullcontext():
                report = getattr(harness, fn_name)(**kwargs, jobs=n_jobs)
            if n_jobs == 1:
                self.times[name].append(time.perf_counter() - t0)
            out = report.to_json()
            run.attempted += report.instances
            run.failed += report.instances - report.agreements
            previous = self.reports.setdefault(name, out)
            run.check(out == previous, f"sweep {name}: report changed between rounds or job counts")

    def check(self, run: Run):
        for name, _, _, counter in self.plan:
            count = counter()
            rep = self.reports[name]
            run.check(rep["ok"], f"sweep {name}: not ok: {json.dumps(rep)[:300]}")
            run.check(rep["instances"] == count, f"sweep {name}: {rep['instances']} instances, benchmark counts {count}")
            run.check(rep["agreements"] == count, f"sweep {name}: {rep['agreements']} agreements of {count}")
        run.notes.append("sweeps: " + ", ".join(f"{n}={self.reports[n]['instances']}" for n, *_ in self.plan))

    @property
    def instances(self) -> int:
        """Instances verified per round, as the sweeps reported them."""
        return sum(rep["instances"] for rep in self.reports.values())


# ---------------------------------------------------------------------------
# sweep-batch: the batch command
# ---------------------------------------------------------------------------


class BatchWorkload:
    def __init__(self, seed: int):
        os.makedirs(BUILD_DIR, exist_ok=True)
        self.path = os.path.join(BUILD_DIR, f"batch-seed{seed}.jsonl")
        with open(self.path, "w", encoding="utf-8") as fh:
            self.cases = inputs.write_batch(seed, fh)
        self.outputs: dict[str, str] = {}
        self.times: list[float] = []  # subprocess rounds at jobs=1

    def subprocess_round(self, run: Run, n_jobs: int) -> None:
        """One `bdcomplex batch` process over the whole file."""
        cmd = [sys.executable, "-m", "bdcomplex", "batch", self.path, "--jobs", str(n_jobs)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
        if n_jobs == 1:
            self.times.append(time.perf_counter() - t0)
        self._account(run, proc.stdout, f"subprocess --jobs {n_jobs}", proc.returncode)

    def inprocess_round(self, run: Run, rec=None) -> None:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), (rec.op() if rec else contextlib.nullcontext()):
            code = cli.main(["batch", self.path, "--jobs", "1"])
        self._account(run, buf.getvalue(), "in-process --jobs 1", code)

    def _account(self, run: Run, stdout: str, how: str, code: int):
        lines = stdout.splitlines()
        run.attempted += len(self.cases)
        errors = sum(1 for line in lines if '"error"' in line)
        missing = max(0, len(self.cases) - len(lines))
        run.failed += errors + missing
        run.check(code == 0, f"batch {how}: exit code {code}")
        self.outputs.setdefault(how, stdout)
        first = next(iter(self.outputs.values()))
        run.check(stdout == first, f"batch {how}: output differs from {next(iter(self.outputs))}")

    def check(self, run: Run):
        for n_jobs in (1, jobs()):
            got = self.outputs.get(f"subprocess --jobs {n_jobs}")
            run.check(got is not None, f"batch: no --jobs {n_jobs} output to compare")
        lines = next(iter(self.outputs.values())).splitlines()
        run.check(len(lines) == len(self.cases), f"batch: {len(lines)} output lines for {len(self.cases)} inputs")
        for case, line in zip(self.cases, lines):
            result = json.loads(line)
            run.check(result.get("instance") == case.obj, f"{case.label}: output out of order")
            if "error" in result:
                continue
            check_result(run, case, result)


class SweepBatchWorkload:
    """The four sweeps, then one `bdcomplex batch` process: one round."""

    def __init__(self, seed: int):
        self.sweeps = SweepWorkload(seed)
        self.batch = BatchWorkload(seed)

    def round(self, run: Run, n_jobs: int) -> None:
        self.sweeps.round(run, n_jobs)
        self.batch.subprocess_round(run, n_jobs)

    def check(self, run: Run):
        self.sweeps.check(run)
        self.batch.check(run)

    @property
    def instances(self) -> int:
        return self.sweeps.instances + len(self.batch.cases)


# ---------------------------------------------------------------------------
# per-layer metrics of a traced run
# ---------------------------------------------------------------------------


def layer_metrics(rec: spans.Recorder, traced_rounds: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per round, from the spans and counters of `rec`."""
    s = rec.summary()
    c = rec.counters
    per = 1.0 / traced_rounds

    def self_s(name):
        return s[name]["self_s"] * per

    lookups = c["memo_lookups"]
    sweeps = sum(s[n]["s"] for n in s if n.startswith("harness.sweep."))
    tasks = sum(s[n]["s"] for n in s if n.startswith("harness.pool_task."))
    return {
        "graph.canonical_code.calls": (s["graph.canonical_code"]["calls"] * per, "count"),
        "graph.canonical_code.self_s": (self_s("graph.canonical_code"), "s"),
        "graph.components.self_s": (self_s("graph.components"), "s"),
        "recursion.steps": (s["recursion.simplify"]["calls"] * per, "count"),
        "recursion.simplify.self_s": (self_s("recursion.simplify"), "s"),
        "recursion.memo_entries": (c["memo_entries"] * per, "count"),
        "recursion.memo_lookups": (lookups * per, "count"),
        "recursion.memo_hit_ratio": ((lookups - c["memo_entries"]) / lookups if lookups else 0.0, "ratio"),
        "recursion.sphere_counts.s": (s["recursion.sphere_counts"]["s"] * per, "s"),
        "caterpillar.closed_form.self_s": (self_s("caterpillar.closed_form"), "s"),
        "caterpillar.cycle_reduce.self_s": (self_s("caterpillar.cycle_reduce"), "s"),
        "complexes.build_complex.self_s": (self_s("complexes.build_complex"), "s"),
        "complexes.faces": (c["faces"] * per, "count"),
        "homology.boundary_matrix.self_s": (self_s("homology.boundary_matrix"), "s"),
        "homology.boundary_nnz": (c["boundary_nnz"] * per, "count"),
        "homology.smith_normal_form.calls": (s["homology.smith_normal_form"]["calls"] * per, "count"),
        "homology.smith_normal_form.self_s": (self_s("homology.smith_normal_form"), "s"),
        "homology.reduced_homology.s": (s["homology.reduced_homology"]["s"] * per, "s"),
        "homology.dense_cells": (c["dense_cells"] * per, "count"),
        "homology.dense_int64_mb_computed": (c["dense_cells"] * 8 / 1e6 * per, "MB"),
        "harness.compute_instance.s": (s["harness.compute_instance"]["s"] * per, "s"),
        "harness.parse_instance.self_s": (self_s("harness.parse_instance"), "s"),
        "harness.sweep.serial_s": ((sweeps - tasks) * per, "s"),
        "cli.result_json.self_s": (self_s("cli.result_json"), "s"),
        "cli.batch.self_s": (self_s("cli.batch"), "s"),
    }


def package_location_ok() -> bool:
    """The package must come from this checkout's src/, not from elsewhere."""
    src = os.path.realpath("src")
    return os.path.realpath(bdcomplex.__file__).startswith(src + os.sep)


# ---------------------------------------------------------------------------
# entry points for the workload process
# ---------------------------------------------------------------------------

def setup(name: str, seed: int):
    """Input generation: everything before the first timed operation."""
    if name == "compute":
        return InstanceWorkload(inputs.compute(seed))
    return SweepBatchWorkload(seed)


def measure(w, run: Run, seconds: float) -> dict[str, tuple[float, str]]:
    """Untraced timed rounds; the end-to-end metrics of this process.

    Every operation (an instance, a sweep, a batch process) counts with
    its fastest time over the rounds, and wall_s sums these over the
    operations.  Load from elsewhere on the machine only ever adds time, so
    the fastest time is the estimate it touches least (see README.md).
    The timed rounds keep one process busy (jobs=1): on a 2-CPU share two
    busy processes made the times spread three times as much.  One pooled
    round after them must give the same output.
    """
    if isinstance(w, InstanceWorkload):
        rounds(seconds, lambda: w.round(run))
        w.check(run)
        per_instance = w.instance_ms()
        return {
            "wall_s": (sum(per_instance) / 1000.0, "s"),
            "instance_p50_ms": (statistics.median(per_instance), "ms"),
            "instance_p90_ms": (percentile(per_instance, 90), "ms"),
        }
    rounds(seconds, lambda: w.round(run, 1))
    w.round(run, jobs())  # the pooled reports and output must be identical
    w.check(run)
    wall = sum(min(t) for t in w.sweeps.times.values()) + min(w.batch.times)
    # sweeps and batch lines are not timed one by one: report the mean
    per_instance_ms = wall * 1000.0 / w.instances
    return {
        "wall_s": (wall, "s"),
        "instance_p50_ms": (per_instance_ms, "ms"),
        "instance_p90_ms": (per_instance_ms, "ms"),
    }


def measure_traced(w, run: Run, seconds: float, span_file: str) -> dict[str, tuple[float, str]]:
    """Untraced and traced rounds in turn; the per-layer metrics.

    The traced round runs in this process at jobs=1, the batch command
    through `cli.main`.  Its untraced twin gives the tracing overhead; on
    sweep-batch, untraced rounds at jobs=1 and at the pool size give the
    pool speed-ups of the sweeps and of the batch process.
    """
    rec = spans.Recorder()
    plain: list[float] = []
    traced: list[float] = []
    sweep_pooled: list[float] = []
    sweep_serial: list[float] = []
    batch_pooled: list[float] = []
    batch_serial: list[float] = []

    def timed(into, fn):
        t0 = time.perf_counter()
        fn()
        into.append(time.perf_counter() - t0)

    def traced_round(fn):
        uninstall = spans.install(rec)
        try:
            timed(traced, fn)
        finally:
            uninstall()

    if isinstance(w, InstanceWorkload):
        def cycle():
            timed(plain, lambda: w.round(run))
            traced_round(lambda: w.round(run, rec))
    else:
        def in_process(rec=None):
            w.sweeps.round(run, 1, rec)
            w.batch.inprocess_round(run, rec)

        def cycle():
            timed(sweep_pooled, lambda: w.sweeps.round(run, jobs()))
            timed(sweep_serial, lambda: w.sweeps.round(run, 1))
            timed(batch_pooled, lambda: w.batch.subprocess_round(run, jobs()))
            timed(batch_serial, lambda: w.batch.subprocess_round(run, 1))
            timed(plain, in_process)
            traced_round(lambda: in_process(rec))

    rounds(seconds, cycle)
    w.check(run)
    os.makedirs(os.path.dirname(span_file), exist_ok=True)
    rec.write(span_file)
    metrics = layer_metrics(rec, len(traced))

    def speedup(serial, pooled):
        return statistics.median(serial) / statistics.median(pooled) if pooled else 0.0

    metrics["harness.pool_speedup"] = (speedup(sweep_serial, sweep_pooled), "ratio")
    metrics["cli.batch.pool_speedup"] = (speedup(batch_serial, batch_pooled), "ratio")
    metrics["trace.overhead"] = (statistics.median(traced) / statistics.median(plain) - 1.0, "ratio")
    run.notes.append(f"{len(traced)} traced round(s); spans written to {span_file}")
    return metrics
