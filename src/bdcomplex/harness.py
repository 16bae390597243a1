"""Instance model, method dispatch, and batch verification sweeps.

Every sweep runs one pipeline (`_sweep`): it lists (graph, bounds, extra)
instances and splits them into shards, one per isomorphism class of the
bare graph: a forest of the forest sweep, a caterpillar together with its
reversal, a single cycle instance.  Two instances whose (forest, bounds)
pairs are isomorphic after clamping each bound at the vertex degree have
equal complexes up to relabeling, so a class of such instances never spans
two shards.  A pool task (`_shard_worker`, through `pool_map`) takes whole
shards: it builds each graph's `ForestPlan` once, names every instance's
class by the plan's canonical code of its clamped bounds, runs the sweep's
worker (the homology oracle) once per class and the plan's forest
recursion once per instance.  The parent then checks every instance,
duplicates included, against the result of its class, in the order the
instances were listed.  The clamping and relabeling equivalences themselves
are covered by dedicated tests and by seeded raw-instance spot checks in
the forest sweep.
"""

from __future__ import annotations

import itertools
import random
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Optional, Sequence

from .caterpillar import caterpillar_closed_form, cycle_reduce
from .complexes import DEFAULT_FACE_CAP, build_complex, reduced_euler
from .errors import MethodMismatchError, ParseError
from .graph import (
    CaterpillarSpec,
    DegreeBounds,
    ForestPlan,
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
from .homology import HomologyProfile, reduced_homology, wedge_profile
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


def _cycle_order(graph: Graph) -> Optional[list[int]]:
    """Vertices of a cycle graph in cyclic order, or None if not a cycle."""
    n = graph.num_vertices
    if n < 3 or graph.num_edges != n or any(d != 2 for d in graph.degrees()):
        return None
    adj = graph.adjacency()
    order = [0, adj[0][0]]
    while len(order) < n:
        a, b = adj[order[-1]]
        nxt = a if a != order[-2] else b
        if nxt == 0:
            return None  # disconnected union of cycles
        order.append(nxt)
    return order


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
    cycle-to-path reduction, and falls back to the homology oracle.
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

    if method == "closed-form":
        if instance.cat_spec is None or any(m == 0 for m in instance.cat_spec.m):
            raise MethodMismatchError(
                "closed-form needs a caterpillar shorthand with every m_i >= 1"
            )
        return done("closed-form", caterpillar_closed_form(instance.cat_spec))
    if method == "recursion":
        if not is_forest(instance.graph):
            raise MethodMismatchError("recursion applies to forests only")
        return done("recursion", sphere_counts(instance.graph, instance.bounds))
    if method == "homology":
        k = build_complex(instance.graph, instance.bounds, face_cap)
        profile = reduced_homology(k)
        return done("homology", wedge_profile(profile), profile)

    # auto
    if instance.cat_spec is not None and all(m >= 1 for m in instance.cat_spec.m):
        return done("closed-form", caterpillar_closed_form(instance.cat_spec))
    if is_forest(instance.graph):
        return done("recursion", sphere_counts(instance.graph, instance.bounds))
    order = _cycle_order(instance.graph)
    if order is not None:
        bounds = tuple(instance.bounds[v] for v in order)
        reduced = cycle_reduce(len(order), bounds)
        if reduced is not None:
            path, path_bounds, _ = reduced
            return done("cycle-reduce", sphere_counts(path, path_bounds))
    k = build_complex(instance.graph, instance.bounds, face_cap)
    profile = reduced_homology(k)
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


def pool_map(fn, tasks, jobs: int):
    """Yield `fn` over `tasks` in task order, from a pool of `jobs` processes if jobs > 1.

    `tasks` is read lazily: at jobs > 1 at most POOL_READ_AHEAD * jobs
    tasks are taken from it beyond the results yielded so far.
    """
    if jobs <= 1:
        yield from map(fn, tasks)
        return
    from multiprocessing import Pool  # only here: keeps it out of every start-up

    # Pool.imap drains `tasks` from a thread of its own; the gate holds that
    # thread back, and `stop` lets it go when the caller stops early, since
    # the pool's exit waits for it.
    gate = threading.Semaphore(POOL_READ_AHEAD * jobs - 1)
    stop = threading.Event()

    def admitted():
        for task in tasks:
            yield task
            gate.acquire()  # a permit to read the next task
            if stop.is_set():
                return

    with Pool(processes=jobs) as pool:
        try:
            for result in pool.imap(fn, admitted()):
                gate.release()
                yield result
        finally:
            stop.set()
            gate.release()


def _graph_shards():
    """shard(graph, bounds) naming the isomorphism class of the bare graph.

    The canonical code with all bounds 0 is computed once per distinct graph.
    """
    names: dict[Graph, bytes] = {}

    def shard(graph: Graph, _bounds) -> bytes:
        name = names.get(graph)
        if name is None:
            name = names[graph] = canonical_code(graph, (0,) * graph.num_vertices)
        return name

    return shard


def _clamped_code(plan: ForestPlan, bounds: DegreeBounds) -> bytes:
    return plan.code(plan.clamp(bounds))


def _shard_worker(worker, key, counts: bool, face_cap: int, shards) -> list:
    """(classes, per-member results) of each shard of (graph, bounds) members.

    With `key`, each graph's plan is built once and names each member's
    class by `key(plan, bounds)`; otherwise a whole shard is one class.
    `worker` runs once per class, on its first member as
    (graph, bounds, face_cap).  A member's result is its class's, paired
    with its own `plan_counts` when `counts` is set.
    """
    plans: dict = {}
    done = []
    for members in shards:
        classes: dict = {}
        out = []
        for graph, bounds in members:
            plan = None
            if key is not None or counts:
                plan = plans.get(graph)
                if plan is None:
                    plan = plans[graph] = forest_plan(graph)
            name = key(plan, bounds) if key is not None else None
            if name not in classes:
                classes[name] = worker((graph, bounds, face_cap))
            result = classes[name]
            out.append((result, plan_counts(plan, bounds)) if counts else result)
        done.append((len(classes), out))
    return done


# pool tasks per worker: consecutive shards are packed into tasks of about
# equal size, so that no worker is left with a long tail
TASKS_PER_JOB = 16


def _sweep(
    report: VerifyReport,
    instances,
    worker,
    check,
    jobs: int,
    face_cap: int,
    *,
    shard,
    key=_clamped_code,
    counts: bool = True,
) -> VerifyReport:
    """Run `_shard_worker` on every shard of `instances`, then `check` every instance.

    `instances` yields (graph, bounds, extra) triples and `shard(graph,
    bounds)` names an instance's shard.  A shard holds whole classes: every
    instance isomorphic to one of its members is in it.  `worker`, `key`
    and `counts` are handed to `_shard_worker`.  The parent then
    runs `check(report, graph, bounds, extra, result)` on every instance,
    representatives and duplicates alike, in the order `instances` gave.
    """
    instances = list(instances)
    shard_of: dict = {}
    shards: list[list] = []
    where = []  # the shard of each instance
    for graph, bounds, _ in instances:
        s = shard_of.setdefault(shard(graph, bounds), len(shard_of))
        if s == len(shards):
            shards.append([])
        shards[s].append((graph, bounds))
        where.append(s)
    size = max(1, len(instances) // (jobs * TASKS_PER_JOB))
    tasks: list[list] = []
    filled = size
    for members in shards:
        if filled >= size:
            tasks.append([])
            filled = 0
        tasks[-1].append(members)
        filled += len(members)
    run = partial(_shard_worker, worker, key, counts, face_cap)
    done = (result for results in pool_map(run, tasks, jobs) for result in results)
    # Shards are numbered in order of first appearance and come back in that
    # order, so each instance's shard is taken from the pool when first
    # needed, and a result is let go once its instance is checked.
    pending: list[deque] = []
    for (graph, bounds, extra), s in zip(instances, where):
        while len(pending) <= s:
            classes, out = next(done)
            report.classes += classes
            pending.append(deque(out))
        check(report, graph, bounds, extra, pending[s].popleft())
    next(done, None)  # every shard is taken: this ends the pool
    return report.finish()


def _oracle_worker(task) -> ClassOracle:
    graph, bounds, face_cap = task
    k = build_complex(graph, bounds, face_cap)
    profile = reduced_homology(k)
    return ClassOracle(wedge_profile(profile), profile.torsion, reduced_euler(k))


def _record(graph: Graph, bounds, detail: dict) -> dict:
    return {"instance": instance_json(graph, bounds), **detail}


def _torsion_record(graph: Graph, bounds, torsion: dict[int, tuple[int, ...]]) -> dict:
    return _record(graph, bounds, {"torsion": {str(d): list(t) for d, t in torsion.items()}})


def _check_instance(
    report: VerifyReport,
    graph: Graph,
    bounds: DegreeBounds,
    counts: SphereCounts,
    oracle: ClassOracle,
    extra_counts: Optional[dict[str, SphereCounts]] = None,
    faults: Sequence[str] = (),
):
    """Compare one instance's computed counts against its class oracle.

    `faults` are reasons, found while computing, that the instance disagrees.
    """
    report.instances += 1
    ok = not faults
    for reason in faults:
        report.mismatches.append(_record(graph, bounds, {"reason": reason}))
    if oracle.torsion:
        report.torsion_hits.append(_torsion_record(graph, bounds, oracle.torsion))
        ok = False
    if oracle.wedge is not None and counts != oracle.wedge:
        report.mismatches.append(
            _record(graph, bounds, {"computed": counts, "oracle": oracle.wedge})
        )
        ok = False
    for tag, other in (extra_counts or {}).items():
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


def _check_recursion(report, graph, bounds, extra_counts, result):
    oracle, counts = result
    _check_instance(report, graph, bounds, counts, oracle, extra_counts)


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
    instances = (
        (forest, bounds, None)
        for forest in forests
        for bounds in clamped_bound_grid(forest, max_bound)
    )
    # the forests are pairwise non-isomorphic and the grid is already clamped
    return _sweep(
        report, instances, _oracle_worker, _check_recursion, jobs, face_cap,
        shard=lambda forest, _bounds: forest, key=ForestPlan.code,
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

    def instances():
        for n in range(1, max_spine + 1):
            for m in itertools.product(range(min_leaves, max_leaves + 1), repeat=n):
                graph, _ = gen_caterpillar(CaterpillarSpec(m, (0,) * n))
                leaves = (1,) * sum(m)
                for lam in itertools.product(range(max_bound + 1), repeat=n):
                    extra = None
                    if min(m) >= 1:
                        extra = {"closed_form": caterpillar_closed_form(CaterpillarSpec(m, lam))}
                    yield graph, lam + leaves, extra

    return _sweep(
        report, instances(), _oracle_worker, _check_recursion, jobs, face_cap,
        shard=_graph_shards(),
    )


def _matching_worker(task) -> dict[int, tuple[int, ...]]:
    graph, bounds, face_cap = task
    return reduced_homology(build_complex(graph, bounds, face_cap)).torsion


def _check_torsion_free(report, graph, bounds, _extra, torsion):
    report.instances += 1
    if torsion:
        report.torsion_hits.append(_torsion_record(graph, bounds, torsion))
    else:
        report.agreements += 1


def sweep_matching_caterpillars(
    max_spine: int,
    max_leaves: int,
    k_values: Sequence[int],
    *,
    jobs: int = 1,
    face_cap: int = DEFAULT_FACE_CAP,
) -> VerifyReport:
    """Check that caterpillar matching complexes M_k have torsion-free homology.

    Every vertex, leaves included, gets the same bound k; torsion anywhere
    would contradict the wedge-of-spheres homotopy type.
    """
    report = VerifyReport(
        "matching",
        {"max_spine": max_spine, "max_leaves": max_leaves, "k_values": list(k_values)},
    )
    graphs = (
        gen_caterpillar(CaterpillarSpec(m, (0,) * n))[0]
        for n in range(1, max_spine + 1)
        for m in itertools.product(range(max_leaves + 1), repeat=n)
    )
    instances = ((graph, (k,) * graph.num_vertices, None) for graph in graphs for k in k_values)
    return _sweep(
        report, instances, _matching_worker, _check_torsion_free, jobs, face_cap,
        shard=_graph_shards(), counts=False,
    )


def _cycle_worker(task):
    """(oracle of the cycle, faults of its reduction, path counts), or None if irreducible."""
    graph, bounds, face_cap = task
    reduced = cycle_reduce(graph.num_vertices, bounds)
    if reduced is None:
        return None
    path, path_bounds, edge_map = reduced
    cyc = build_complex(graph, bounds, face_cap)
    pk = build_complex(path, path_bounds, face_cap)
    faults = []
    cyc_faces = cyc.face_set
    if any(edge_map[i] is None for face in cyc_faces for i in face):
        faults.append("killed edge in face")
    elif {tuple(sorted(edge_map[i] for i in face)) for face in cyc_faces} != pk.face_set:
        faults.append("face sets differ")
    cyc_h = reduced_homology(cyc)
    if cyc_h != reduced_homology(pk):
        faults.append("homology differs")
    oracle = ClassOracle(wedge_profile(cyc_h), cyc_h.torsion, reduced_euler(cyc))
    return oracle, faults, sphere_counts(path, path_bounds)


def _check_cycle(report, graph, bounds, _extra, result):
    if result is None:
        report.instances += 1
        report.errors.append(_record(graph, bounds, {"reason": "not reducible"}))
        return
    oracle, faults, counts = result
    _check_instance(report, graph, bounds, counts, oracle, faults=faults)


def sweep_cycles(
    ns: Sequence[int],
    max_bound: int,
    last_bounds: Sequence[int] = (0, 2, 3),
    *,
    jobs: int = 1,
    face_cap: int = DEFAULT_FACE_CAP,
) -> VerifyReport:
    """Verify the cycle-to-path reduction face-for-face plus homology.

    Instances: cycles C_n for n in `ns`, last bound ranging over
    `last_bounds`, all other bounds over {0..max_bound}.  Each instance is
    its own class, since the reduction depends on where the bounds sit.
    """
    report = VerifyReport(
        "cycles",
        {"ns": list(ns), "max_bound": max_bound, "last_bounds": list(last_bounds)},
    )
    instances = (
        (graph, rest + (last,), None)
        for graph in map(gen_cycle, ns)
        for rest in itertools.product(range(max_bound + 1), repeat=graph.num_vertices - 1)
        for last in last_bounds
    )
    return _sweep(
        report, instances, _cycle_worker, _check_cycle, jobs, face_cap,
        shard=lambda graph, bounds: (graph.num_vertices, bounds), key=None, counts=False,
    )


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
        picked.append((forest, bounds, None))
    return _sweep(
        report, picked, _oracle_worker, _check_recursion, jobs, face_cap,
        shard=_graph_shards(),
    )
