"""Batch verification sweeps: every route checked against the homology oracle.

Only `bdcomplex verify` runs this module; the instance model, the method
dispatch and the pool helper live in `dispatch`.  Of those, the sweeps use
`instance_json` and `pool_map`, and `parse_instance` and `compute_instance`
are imported back for the benchmark, which reaches them as `harness.*`.

Every sweep runs one pipeline (`_sweep`) on the shards its generator
yields: lists of (graph, bounds, extra) instances that hold whole classes.
Two instances whose (forest, bounds) pairs are isomorphic after clamping
each bound at the vertex degree have equal complexes up to relabeling, so a
shard holds all the instances of the graphs of one isomorphism class of the
bare graph (or one cycle instance).  Consecutive shards go to a pool task
(through `pool_map`) until it holds `TASK_SIZE` instances.  The forest task
(`_forest_task`) builds each graph's `ForestPlan` once, names every
instance's class by the plan's canonical code of its clamped bounds, runs
the homology oracle once per class and the plan's forest recursion once per
instance; the cycle task (`_cycle_task`) checks, face for face, the forest
that `cycle_reduce` splits one cycle into.  A class's oracle is the
(profile, euler) pair of `graph_homology`, shared by its instances.  Each
task checks its own instances (`_check`), duplicates included, in the order
listed, and returns a report; the sweep adds the reports up in task order.
The clamping and relabeling equivalences themselves are covered by
dedicated tests and by seeded raw-instance spot checks in the forest sweep.
"""

from __future__ import annotations

import itertools
import random
import time
from collections import Counter
from functools import partial
from typing import Optional, Sequence

from .caterpillar import caterpillar_closed_form, cycle_reduce
from .complexes import DEFAULT_FACE_CAP, build_complex
# the sweeps use instance_json and pool_map; the benchmark reads the other
# two as `harness.*`
from .dispatch import compute_instance, instance_json, parse_instance, pool_map  # noqa: F401
from .graph import (
    CaterpillarSpec,
    DegreeBounds,
    Graph,
    canonical_code,
    forest_plan,
    gen_caterpillar,
    gen_cycle,
    nonisomorphic_forests,
    random_forest,
)
from .homology import graph_homology
from .recursion import SphereCounts, plan_counts, sphere_counts


class VerifyReport:
    """What a sweep found, counted as its instances are checked.

    A pool task checks its instances into a report of its own, and the
    sweep `add`s each one into its report, in task order.
    """

    __slots__ = (
        "kind", "params", "instances", "classes", "agreements", "mismatches", "torsion_hits",
        "euler_failures", "errors", "raw_checked", "elapsed_ms", "started",
    )

    def __init__(self, kind: str = "", params: Optional[dict] = None):
        self.kind = kind
        self.params = params
        self.instances = self.classes = self.agreements = self.raw_checked = 0
        self.mismatches: list = []
        self.torsion_hits: list = []
        self.euler_failures: list = []
        self.errors: list = []
        self.elapsed_ms = 0.0
        self.started = time.perf_counter()

    def add(self, other: VerifyReport) -> None:
        """Count in a task's report, after the instances already counted."""
        self.instances += other.instances
        self.classes += other.classes
        self.agreements += other.agreements
        self.mismatches += other.mismatches
        self.torsion_hits += other.torsion_hits
        self.euler_failures += other.euler_failures
        self.errors += other.errors

    def finish(self) -> VerifyReport:
        self.elapsed_ms = (time.perf_counter() - self.started) * 1000.0
        return self

    @property
    def ok(self) -> bool:
        return not (self.mismatches or self.torsion_hits or self.euler_failures or self.errors)

    def to_json(self, include_timings: bool = False) -> dict:
        out = {
            "sweep": self.kind,
            "params": self.params,
            "instances": self.instances,
            "classes": self.classes,
            "agreements": self.agreements,
            "mismatches": self.mismatches[:10],
            "torsion": self.torsion_hits[:10],
            "euler_failures": self.euler_failures[:10],
            "errors": self.errors[:10],
            "raw_checked": self.raw_checked,
            "ok": self.ok,
        }
        if include_timings:
            out["elapsed_ms"] = round(self.elapsed_ms, 3)
        return out


def signed_sphere_sum(counts: SphereCounts) -> int:
    """Alternating sum matching the reduced Euler characteristic of the complex."""
    return sum(c if d % 2 == 0 else -c for d, c in counts.items() if d >= 0) - counts.get(-1, 0)


def clamp_bounds(graph: Graph, bounds: Sequence[int]) -> DegreeBounds:
    """Cap each bound at the vertex degree; the complex is unchanged."""
    return tuple(min(b, d) for b, d in zip(bounds, graph.degrees()))


def clamped_bound_grid(graph: Graph, max_bound: int):
    """All bound vectors with entries in 0..min(max_bound, degree) per vertex."""
    return itertools.product(*[range(min(max_bound, d) + 1) for d in graph.degrees()])


def _forest_task(face_cap: int, shards) -> VerifyReport:
    """The report of `_check` on every instance of a task's shards.

    Each graph's plan is built once and names each instance's class by the
    canonical code of its clamped bounds.  The oracle runs once per class,
    on its first instance, and the plan's recursion once per instance, so
    an instance is checked on (its class's (profile, euler), its counts, no
    faults).
    """
    report = VerifyReport()
    plan = None
    for shard in shards:
        classes: dict = {}
        for graph, bounds, extra in shard:
            if plan is None or plan.graph is not graph:  # a graph's instances come in a row
                plan = forest_plan(graph)
            name = plan.code(bounds, clamp=True)
            oracle = classes.get(name)
            if oracle is None:
                oracle = classes[name] = _oracle_worker(graph, bounds, face_cap)
            _check(report, graph, bounds, extra, (oracle, plan_counts(plan, bounds), ()))
        report.classes += len(classes)
    return report


# instances per pool task, at least: 64 gives the benchmark's smallest sweep
# (252 matching instances) 4 tasks, 2 per worker, and criterion 5's 16,368
# cycle instances 256; forest and caterpillar shards are mostly larger.
TASK_SIZE = 64


def _sweep(report: VerifyReport, shards, run, jobs: int) -> VerifyReport:
    """Add up into `report` the reports of `run` on the tasks packed from `shards`, in task order.

    A shard is a list of (graph, bounds, extra) instances holding whole
    classes; `run(task)` checks every instance of the task's shards and
    returns its own report, so no instance stays behind here.
    """

    def tasks():
        task, size = [], 0
        for shard in shards:
            task.append(shard)
            size += len(shard)
            if size >= TASK_SIZE:
                yield task
                task, size = [], 0
        if task:
            yield task

    for done in pool_map(run, tasks(), jobs):
        report.add(done)
    return report.finish()


def _oracle_worker(graph: Graph, bounds: DegreeBounds, face_cap: int):
    """The (profile, euler) pair of `graph_homology`: a class's oracle."""
    return graph_homology(graph, bounds, face_cap)


# perfbench/spans.py binds this name for its `harness.pool_task.matching`
# span; it goes with the tracer's rebinding (ROADMAP item 1)
_matching_worker = _oracle_worker


def _record(graph: Graph, bounds, detail: dict) -> dict:
    return {"instance": instance_json(graph, bounds), **detail}


def _check(report: VerifyReport, graph: Graph, bounds: DegreeBounds, extra, result):
    """Compare one instance's counts against its class oracle and `extra`.

    `result` is ((profile, euler), counts, faults): the class's
    `graph_homology`, the instance's counts, and the reasons found while
    computing that the instance disagrees; or None for a cycle that nothing
    splits.  `extra` maps a route to its counts, or is None.
    """
    report.instances += 1
    if result is None:
        report.errors.append(_record(graph, bounds, {"reason": "not reducible"}))
        return
    (profile, euler), counts, faults = result
    ok = not faults
    for reason in faults:
        report.mismatches.append(_record(graph, bounds, {"reason": reason}))
    if profile.torsion:
        torsion = {str(d): list(t) for d, t in profile.torsion.items()}
        report.torsion_hits.append(_record(graph, bounds, {"torsion": torsion}))
        ok = False
    elif counts != profile.betti:  # torsion-free homology is the wedge's
        report.mismatches.append(
            _record(graph, bounds, {"computed": counts, "oracle": profile.betti})
        )
        ok = False
    for tag, other in (extra or {}).items():
        if other != counts:
            report.mismatches.append(
                _record(graph, bounds, {"computed": counts, tag: other})
            )
            ok = False
    if signed_sphere_sum(counts) != euler:
        report.euler_failures.append(
            _record(graph, bounds, {"signed_sum": signed_sphere_sum(counts), "euler": euler})
        )
        ok = False
    if ok:
        report.agreements += 1


def sweep_forests(
    max_edges: int,
    max_bound: int,
    *,
    jobs: int = 1,
    face_cap: int = DEFAULT_FACE_CAP,
    raw_samples: int = 200,
    seed: int = 0,
) -> VerifyReport:
    """Verify recursion = homology on every forest instance up to isomorphism.

    Covers all forests with at most `max_edges` edges (no isolated vertices)
    and every bound vector with entries in {0..max_bound}; vectors that clamp
    to the same canonical class share one oracle run.  `raw_samples` seeded
    unclamped vectors additionally check that clamping preserves the complex
    and the recursion output.
    """
    report = VerifyReport("forests", {"max_edges": max_edges, "max_bound": max_bound, "seed": seed})
    forests = nonisomorphic_forests(max_edges)

    def check_raw(forest: Graph, raw: DegreeBounds):
        clamped = clamp_bounds(forest, raw)
        report.raw_checked += 1
        if build_complex(forest, raw, face_cap) != build_complex(forest, clamped, face_cap):
            report.errors.append(_record(forest, raw, {"reason": "clamping changed the complex"}))
        if sphere_counts(forest, raw) != sphere_counts(forest, clamped):
            report.errors.append(_record(forest, raw, {"reason": "clamping changed the recursion"}))

    rng = random.Random(seed)
    nonempty = [f for f in forests if f.num_vertices]
    for forest in nonempty:
        # the fully unclamped corner of the raw grid, for every forest
        check_raw(forest, (max_bound,) * forest.num_vertices)
    for _ in range(raw_samples if nonempty else 0):
        forest = rng.choice(nonempty)
        check_raw(forest, tuple(rng.randint(0, max_bound) for _ in range(forest.num_vertices)))
    shards = (
        [(forest, bounds, None) for bounds in clamped_bound_grid(forest, max_bound)]
        for forest in forests
    )
    return _sweep(report, shards, partial(_forest_task, face_cap), jobs)


def _isomorphism_classes(pairs):
    """(graph, x) pairs grouped by the class of the bare graph, in order of first appearance.

    Equal graphs come in a row, on the first one's object, with one canonical code.
    """
    graphs: dict[Graph, list] = {}
    for graph, x in pairs:
        graphs.setdefault(graph, []).append(x)
    classes: dict[bytes, list] = {}
    for graph, xs in graphs.items():
        code = canonical_code(graph, (0,) * graph.num_vertices)
        classes.setdefault(code, []).extend((graph, x) for x in xs)
    return classes.values()


def _caterpillars(max_spine: int, leaf_counts: range):
    """(bare caterpillar, leaf counts m) of every spine of 1..max_spine vertices, by class.

    Classes span spine lengths where a leaf count may be 0: m=(1) and (0, 0)
    are one path.
    """
    return _isomorphism_classes(
        (gen_caterpillar(CaterpillarSpec(m, (0,) * n))[0], m)
        for n in range(1, max_spine + 1)
        for m in itertools.product(leaf_counts, repeat=n)
    )


def sweep_caterpillars(
    max_spine: int,
    max_leaves: int,
    max_bound: int,
    *,
    min_leaves: int = 1,
    jobs: int = 1,
    face_cap: int = DEFAULT_FACE_CAP,
) -> VerifyReport:
    """Verify closed form = recursion = homology over a caterpillar grid."""
    report = VerifyReport(
        "caterpillars",
        {"max_spine": max_spine, "max_leaves": max_leaves, "max_bound": max_bound,
         "min_leaves": min_leaves},
    )

    def instances(graph: Graph, m: tuple[int, ...]):
        leaves = (1,) * sum(m)
        for lam in itertools.product(range(max_bound + 1), repeat=len(m)):
            extra = None
            if min(m) >= 1:
                extra = {"closed_form": caterpillar_closed_form(CaterpillarSpec(m, lam))}
            yield graph, lam + leaves, extra

    shards = (
        [instance for graph, m in caterpillars for instance in instances(graph, m)]
        for caterpillars in _caterpillars(max_spine, range(min_leaves, max_leaves + 1))
    )
    return _sweep(report, shards, partial(_forest_task, face_cap), jobs)


def sweep_matching_caterpillars(
    max_spine: int,
    max_leaves: int,
    k_values: Sequence[int],
    *,
    jobs: int = 1,
    face_cap: int = DEFAULT_FACE_CAP,
) -> VerifyReport:
    """Verify recursion = homology on the matching complexes M_k of caterpillars.

    Every vertex, leaves included, gets the same bound k; torsion anywhere
    would contradict the wedge-of-spheres homotopy type.
    """
    report = VerifyReport(
        "matching",
        {"max_spine": max_spine, "max_leaves": max_leaves, "k_values": list(k_values)},
    )
    shards = (
        [(graph, (k,) * graph.num_vertices, None) for graph, _ in caterpillars for k in k_values]
        for caterpillars in _caterpillars(max_spine, range(max_leaves + 1))
    )
    return _sweep(report, shards, partial(_forest_task, face_cap), jobs)


def _cycle_worker(graph: Graph, bounds: DegreeBounds, face_cap: int):
    """(the cycle's graph_homology, its split's counts and faults), or None if nothing splits."""
    reduced = cycle_reduce(graph, bounds)
    if reduced is None:
        return None
    split, split_bounds, kept = reduced
    cyc_faces = build_complex(graph, bounds, face_cap).face_set
    split_faces = build_complex(split, split_bounds, face_cap).face_set
    faults = []
    killed = (1 << graph.num_edges) - 1 - sum(1 << i for i in kept)
    back = [1 << i for i in kept]
    if any(face & killed for face in cyc_faces):
        faults.append("killed edge in face")
    elif {sum(to for j, to in enumerate(back) if face >> j & 1) for face in split_faces} != cyc_faces:
        faults.append("face sets differ")
    cyc_h, euler = graph_homology(graph, bounds, face_cap)
    # equal face sets make one complex, so only a fault asks for the split's homology
    if faults and cyc_h != graph_homology(split, split_bounds, face_cap)[0]:
        faults.append("homology differs")
    return (cyc_h, euler), sphere_counts(split, split_bounds), faults


def _cycle_task(face_cap: int, shards) -> VerifyReport:
    """The report of a task's shards, each one cycle instance, repeated if listed twice."""
    report = VerifyReport()
    for shard in shards:
        graph, bounds, _ = shard[0]
        result = _cycle_worker(graph, bounds, face_cap)
        for instance in shard:
            _check(report, *instance, result)
        report.classes += 1
    return report


def sweep_cycles(
    ns: Sequence[int],
    max_bound: int,
    last_bounds: Sequence[int] = (0, 2, 3),
    *,
    jobs: int = 1,
    face_cap: int = DEFAULT_FACE_CAP,
) -> VerifyReport:
    """Verify the free-vertex split of cycles face-for-face plus homology.

    Instances: cycles C_n for n in `ns`, last bound ranging over
    `last_bounds`, all other bounds over {0..max_bound}.  `cycle_reduce`
    cuts each at its 0s and splits it at its bounds >= 2 into a forest; a
    face of the forest, mapped back through the kept edges, must be a face
    of the cycle, and the two face sets must be equal.  Each instance is its
    own class, since the split depends on where the bounds sit.
    """
    report = VerifyReport(
        "cycles",
        {"ns": list(ns), "max_bound": max_bound, "last_bounds": list(last_bounds)},
    )
    lasts = Counter(last_bounds).items()  # a last bound listed twice is one class
    shards = (
        [(graph, rest + (last,), None)] * times
        for graph in map(gen_cycle, ns)
        for rest in itertools.product(range(max_bound + 1), repeat=graph.num_vertices - 1)
        for last, times in lasts
    )
    return _sweep(report, shards, partial(_cycle_task, face_cap), jobs)


def sweep_random_forests(
    count: int,
    seed: int,
    max_edges: int = 9,
    max_bound: int = 3,
    *,
    jobs: int = 1,
    face_cap: int = DEFAULT_FACE_CAP,
) -> VerifyReport:
    """Verify recursion = homology on seeded random forest instances."""
    report = VerifyReport(
        "random-forests",
        {"count": count, "seed": seed, "max_edges": max_edges, "max_bound": max_bound},
    )
    rng = random.Random(seed)
    picked = []
    while len(picked) < count:
        forest = random_forest(rng, max_edges + 1)
        if forest.num_edges > max_edges:
            continue
        bounds = tuple(rng.randint(0, max_bound) for _ in range(forest.num_vertices))
        picked.append((forest, bounds))
    shards = (
        [(graph, bounds, None) for graph, bounds in forests]
        for forests in _isomorphism_classes(picked)
    )
    return _sweep(report, shards, partial(_forest_task, face_cap), jobs)
