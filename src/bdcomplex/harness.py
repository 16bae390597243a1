"""Instance model, method dispatch, and batch verification sweeps.

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
that `cycle_reduce` splits one cycle into.  As each task comes back the
parent checks its instances (`_check`), duplicates included, in the order
listed.  The clamping and relabeling equivalences themselves are covered by
dedicated tests and by seeded raw-instance spot checks in the forest sweep.
"""

from __future__ import annotations

import itertools
import os
import random
import threading
import time
from collections import Counter, deque
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Optional, Sequence

from .caterpillar import caterpillar_closed_form, cycle_reduce
from .complexes import DEFAULT_FACE_CAP, build_complex
from .errors import MethodMismatchError, NotAForestError, ParseError
from .graph import (
    CaterpillarSpec,
    DegreeBounds,
    Graph,
    canonical_code,
    forest_plan,
    gen_caterpillar,
    gen_cycle,
    is_forest,
    make_graph,
    nonisomorphic_forests,
    random_forest,
    validate_bounds,
)
from .homology import HomologyProfile, graph_homology, wedge_profile
from .recursion import SphereCounts, plan_counts, sphere_counts

METHODS = ("auto", "recursion", "closed-form", "homology")


@dataclass(frozen=True)
class Instance:
    """A parsed problem instance: its source form, a graph and its bounds.

    A caterpillar shorthand holds only its spec until a route first reads
    `graph` or `bounds`; the closed form never does.
    """

    source: dict
    cat_spec: Optional[CaterpillarSpec] = None
    given: Optional[tuple[Graph, DegreeBounds]] = None

    @cached_property
    def _graph_bounds(self) -> tuple[Graph, DegreeBounds]:
        return self.given if self.given is not None else gen_caterpillar(self.cat_spec)

    @property
    def graph(self) -> Graph:
        return self._graph_bounds[0]

    @property
    def bounds(self) -> DegreeBounds:
        return self._graph_bounds[1]


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _require_int_list(obj, what: str) -> list[int]:
    if not isinstance(obj, list) or not all(map(_is_int, obj)):
        raise ParseError(f"{what} must be a list of integers")
    return obj


def parse_instance(obj) -> Instance:
    """Build an Instance from one of the accepted JSON shapes.

    Graph form: {"n": int, "edges": [[u,v],...], "lambda": [int,...]}.
    Caterpillar shorthand: {"caterpillar": {"m": [...], "lambda": [...]}}.
    Cycle shorthand: {"cycle": {"n": int, "lambda": [...]}}.
    """
    if not isinstance(obj, dict):
        raise ParseError("instance must be a JSON object")
    if "caterpillar" in obj:
        body = obj["caterpillar"]
        if not isinstance(body, dict):
            raise ParseError("caterpillar shorthand must be an object")
        m = _require_int_list(body.get("m"), "caterpillar m")
        lam = _require_int_list(body.get("lambda"), "caterpillar lambda")
        try:
            spec = CaterpillarSpec(tuple(m), tuple(lam))
        except ValueError as exc:
            raise ParseError(str(exc)) from exc
        return Instance(obj, cat_spec=spec)
    if "cycle" in obj:
        body = obj["cycle"]
        if not isinstance(body, dict) or not _is_int(body.get("n")):
            raise ParseError("cycle shorthand needs an integer n")
        n = body["n"]
        lam = _require_int_list(body.get("lambda"), "cycle lambda")
        if n >= 3 and len(lam) != n:  # refused before a cycle of n vertices is built
            raise ParseError(f"expected {n} bounds, got {len(lam)}")
        try:
            graph = gen_cycle(n)
            bounds = validate_bounds(graph, lam)
        except ValueError as exc:
            raise ParseError(str(exc)) from exc
        return Instance(obj, given=(graph, bounds))
    if "n" in obj and "edges" in obj:
        if not _is_int(obj["n"]):
            raise ParseError("n must be an integer")
        edges = obj["edges"]
        if not isinstance(edges, list) or not all(
            isinstance(e, list) and len(e) == 2 and all(map(_is_int, e)) for e in edges
        ):
            raise ParseError("edges must be a list of [u, v] integer pairs")
        lam = _require_int_list(obj.get("lambda"), "lambda")
        try:
            graph = make_graph(obj["n"], edges)
            bounds = validate_bounds(graph, lam)
        except ValueError as exc:
            raise ParseError(str(exc)) from exc
        return Instance(obj, given=(graph, bounds))
    raise ParseError("instance matches no known schema")


def instance_json(graph: Graph, bounds: Sequence[int]) -> dict:
    """Explicit graph-form JSON for an instance (used for replay records)."""
    return {
        "n": graph.num_vertices,
        "edges": [[u, v] for u, v in graph.edges],
        "lambda": list(bounds),
    }


@dataclass
class ComputeResult:
    method_used: str
    spheres: Optional[SphereCounts]
    contractible: Optional[bool]
    homology: Optional[HomologyProfile]
    wedge_consistent: bool
    timings_ms: dict[str, float] = field(default_factory=dict)


def compute_instance(
    instance: Instance,
    method: str = "auto",
    face_cap: int = DEFAULT_FACE_CAP,
) -> ComputeResult:
    """Dispatch an instance to the requested computation method.

    `auto` prefers the closed form, then the forest recursion, then the
    recursion on the forest that `cycle_reduce` cuts a graph with cycles
    into, and falls back to the homology oracle.
    """
    if method not in METHODS:
        raise MethodMismatchError(f"unknown method {method!r}")
    timings: dict[str, float] = {}
    t0 = time.perf_counter()

    def done(tag: str, counts: Optional[SphereCounts], homology=None) -> ComputeResult:
        timings["compute"] = (time.perf_counter() - t0) * 1000.0
        if counts is None:
            return ComputeResult(tag, None, None, homology, False, timings)
        return ComputeResult(tag, counts, not counts, homology, True, timings)

    spec = instance.cat_spec
    if method in ("auto", "closed-form") and spec is not None and all(m >= 1 for m in spec.m):
        return done("closed-form", caterpillar_closed_form(spec))
    if method == "closed-form":
        raise MethodMismatchError("closed-form needs a caterpillar shorthand with every m_i >= 1")
    if method == "homology":
        profile, _ = graph_homology(instance.graph, instance.bounds, face_cap)
        return done("homology", wedge_profile(profile), profile)

    # recursion, or auto: one plan per instance, whose edge count is the forest test
    try:
        plan = forest_plan(instance.graph)
    except NotAForestError:
        if method == "recursion":
            raise MethodMismatchError("recursion applies to forests only") from None
    else:
        return done("recursion", plan_counts(plan, instance.bounds))
    reduced = cycle_reduce(instance.graph, instance.bounds)
    if reduced is not None and is_forest(reduced[0]):
        return done("cycle-reduce", plan_counts(forest_plan(reduced[0]), reduced[1]))
    profile, _ = graph_homology(instance.graph, instance.bounds, face_cap)
    return done("homology", wedge_profile(profile), profile)


# ---------------------------------------------------------------------------
# verification sweeps
# ---------------------------------------------------------------------------


@dataclass
class ClassOracle:
    """Homology-side facts shared by every instance in a canonical class."""

    wedge: Optional[SphereCounts]
    torsion: dict[int, tuple[int, ...]]
    euler: int


@dataclass
class VerifyReport:
    kind: str
    params: dict
    instances: int = 0
    classes: int = 0
    agreements: int = 0
    mismatches: list = field(default_factory=list)
    torsion_hits: list = field(default_factory=list)
    euler_failures: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    raw_checked: int = 0
    elapsed_ms: float = 0.0
    started: float = field(default_factory=time.perf_counter, repr=False, compare=False)

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


# tasks per worker that pool_map may read ahead of the results taken
POOL_READ_AHEAD = 4


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def pool_map(fn, tasks, jobs: int):
    """Yield `fn` over `tasks` in task order, from a process pool if jobs > 1.

    The pool has `jobs` workers, but no more than `usable_cpus()`.  `tasks`
    is read lazily: at jobs > 1 at most POOL_READ_AHEAD tasks per worker are
    taken from it beyond the results yielded so far.
    """
    if jobs <= 1:
        yield from map(fn, tasks)
        return
    from multiprocessing import Pool  # only here: keeps it out of every start-up

    workers = min(jobs, usable_cpus())
    # Pool.imap drains `tasks` from a thread of its own; the gate holds that
    # thread back, and `stop` lets it go when the caller stops early, since
    # the pool's exit waits for it.
    gate = threading.Semaphore(POOL_READ_AHEAD * workers - 1)
    stop = threading.Event()

    def admitted():
        for task in tasks:
            yield task
            gate.acquire()  # a permit to read the next task
            if stop.is_set():
                return

    with Pool(processes=workers) as pool:
        try:
            for result in pool.imap(fn, admitted()):
                gate.release()
                yield result
        finally:
            stop.set()
            gate.release()


def _forest_task(face_cap: int, shards) -> list:
    """(classes, per-instance results) of each shard of (graph, bounds) instances.

    Each graph's plan is built once and names each instance's class by the
    canonical code of its clamped bounds.  The oracle runs once per class,
    on its first instance, and the plan's recursion once per instance, so
    an instance's result is (its class's oracle, its counts, no faults).
    """
    plan = None
    done = []
    for shard in shards:
        classes: dict = {}
        out = []
        for graph, bounds in shard:
            if plan is None or plan.graph is not graph:  # a graph's instances come in a row
                plan = forest_plan(graph)
            name = plan.code(bounds, clamp=True)
            oracle = classes.get(name)
            if oracle is None:
                oracle = classes[name] = _oracle_worker(graph, bounds, face_cap)
            out.append((oracle, plan_counts(plan, bounds), ()))
        done.append((len(classes), out))
    return done


# instances per pool task, at least: 64 gives the benchmark's smallest sweep
# (252 matching instances) 4 tasks, 2 per worker, and criterion 5's 16,368
# cycle instances 256; forest and caterpillar shards are mostly larger.
TASK_SIZE = 64


def _sweep(report: VerifyReport, shards, run, jobs: int) -> VerifyReport:
    """Run `run` on the tasks packed from `shards`, and `_check` each instance as its task returns.

    A shard is a list of (graph, bounds, extra) instances holding whole
    classes; `run(task)` gives (classes, per-instance results) for each
    shard of the task, whose shards hold (graph, bounds) only.  `sent` holds
    the tasks that the pool has read until they are checked.
    """
    sent: deque = deque()

    def send(task):
        sent.append(task)
        return [[(graph, bounds) for graph, bounds, _ in shard] for shard in task]

    def tasks():
        task, size = [], 0
        for shard in shards:
            task.append(shard)
            size += len(shard)
            if size >= TASK_SIZE:
                yield send(task)
                task, size = [], 0
        if task:
            yield send(task)

    for results in pool_map(run, tasks(), jobs):
        for shard, (classes, out) in zip(sent.popleft(), results):
            report.classes += classes
            for (graph, bounds, extra), result in zip(shard, out):
                _check(report, graph, bounds, extra, result)
    return report.finish()


def _oracle_worker(graph: Graph, bounds: DegreeBounds, face_cap: int) -> ClassOracle:
    profile, euler = graph_homology(graph, bounds, face_cap)
    return ClassOracle(wedge_profile(profile), profile.torsion, euler)


# perfbench/spans.py binds this name for its `harness.pool_task.matching`
# span; it goes with the tracer's rebinding (ROADMAP item 1)
_matching_worker = _oracle_worker


def _record(graph: Graph, bounds, detail: dict) -> dict:
    return {"instance": instance_json(graph, bounds), **detail}


def _check(report: VerifyReport, graph: Graph, bounds: DegreeBounds, extra, result):
    """Compare one instance's counts against its class oracle and `extra`.

    `result` is (oracle, counts, faults), where faults are reasons found
    while computing that the instance disagrees, or None for a cycle that
    nothing splits.  `extra` maps a route to its counts, or is None.
    """
    report.instances += 1
    if result is None:
        report.errors.append(_record(graph, bounds, {"reason": "not reducible"}))
        return
    oracle, counts, faults = result
    ok = not faults
    for reason in faults:
        report.mismatches.append(_record(graph, bounds, {"reason": reason}))
    if oracle.torsion:
        torsion = {str(d): list(t) for d, t in oracle.torsion.items()}
        report.torsion_hits.append(_record(graph, bounds, {"torsion": torsion}))
        ok = False
    if oracle.wedge is not None and counts != oracle.wedge:
        report.mismatches.append(
            _record(graph, bounds, {"computed": counts, "oracle": oracle.wedge})
        )
        ok = False
    for tag, other in (extra or {}).items():
        if other != counts:
            report.mismatches.append(
                _record(graph, bounds, {"computed": counts, tag: other})
            )
            ok = False
    if signed_sphere_sum(counts) != oracle.euler:
        report.euler_failures.append(
            _record(graph, bounds, {"signed_sum": signed_sphere_sum(counts), "euler": oracle.euler})
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
    """(oracle of the cycle, split counts, faults of its split), or None if nothing splits."""
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
    oracle = ClassOracle(wedge_profile(cyc_h), cyc_h.torsion, euler)
    return oracle, sphere_counts(split, split_bounds), faults


def _cycle_task(face_cap: int, shards) -> list:
    """(1, results) per shard: one cycle instance, repeated if listed twice."""
    return [(1, [_cycle_worker(*shard[0], face_cap)] * len(shard)) for shard in shards]


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
