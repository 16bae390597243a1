"""Instance model, method dispatch, and batch verification sweeps.

Sweeps verify many instances against the homology oracle.  Two instances
whose (forest, bounds) pairs are isomorphic after clamping each bound at the
vertex degree have equal complexes up to relabeling, so the oracle runs once
per canonical class; the cheap routes (recursion, closed form) still run per
instance.  The clamping and relabeling equivalences themselves are covered
by dedicated tests and by seeded raw-instance spot checks inside the sweeps.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field
from multiprocessing import Pool
from typing import Optional, Sequence

from .caterpillar import caterpillar_closed_form, cycle_reduce, cycle_reduction_edge_map
from .complexes import DEFAULT_FACE_CAP, build_complex, reduced_euler
from .errors import MethodMismatchError, ParseError
from .graph import (
    CaterpillarSpec,
    DegreeBounds,
    Graph,
    canonical_code,
    gen_caterpillar,
    gen_cycle,
    is_forest,
    make_graph,
    nonisomorphic_forests,
    random_forest,
    validate_bounds,
)
from .homology import HomologyProfile, reduced_homology, wedge_profile
from .recursion import SphereCounts, sphere_counts

METHODS = ("auto", "recursion", "closed-form", "homology")


@dataclass(frozen=True)
class Instance:
    """A parsed problem instance: a graph, its bounds, and its source form."""

    kind: str  # "graph" | "caterpillar" | "cycle"
    graph: Graph
    bounds: DegreeBounds
    source: dict
    cat_spec: Optional[CaterpillarSpec] = None
    cycle_n: Optional[int] = None


def _require_int_list(obj, what: str) -> list[int]:
    if not isinstance(obj, list) or not all(
        isinstance(x, int) and not isinstance(x, bool) for x in obj
    ):
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
            graph, bounds = gen_caterpillar(spec)
        except ValueError as exc:
            raise ParseError(str(exc)) from exc
        return Instance("caterpillar", graph, bounds, obj, cat_spec=spec)
    if "cycle" in obj:
        body = obj["cycle"]
        if not isinstance(body, dict) or not isinstance(body.get("n"), int):
            raise ParseError("cycle shorthand needs an integer n")
        n = body["n"]
        lam = _require_int_list(body.get("lambda"), "cycle lambda")
        try:
            graph = gen_cycle(n)
            bounds = validate_bounds(graph, lam)
        except ValueError as exc:
            raise ParseError(str(exc)) from exc
        return Instance("cycle", graph, bounds, obj, cycle_n=n)
    if "n" in obj and "edges" in obj:
        if not isinstance(obj["n"], int):
            raise ParseError("n must be an integer")
        edges = obj["edges"]
        if not isinstance(edges, list) or not all(
            isinstance(e, list) and len(e) == 2 for e in edges
        ):
            raise ParseError("edges must be a list of [u, v] pairs")
        lam = _require_int_list(obj.get("lambda"), "lambda")
        try:
            graph = make_graph(obj["n"], edges)
            bounds = validate_bounds(graph, lam)
        except ValueError as exc:
            raise ParseError(str(exc)) from exc
        return Instance("graph", graph, bounds, obj)
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
            path, path_bounds = reduced
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
    num_faces: int


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


def _oracle_worker(task):
    (num_vertices, edges, bounds, face_cap) = task
    graph = Graph(num_vertices, edges)
    k = build_complex(graph, bounds, face_cap)
    profile = reduced_homology(k)
    return ClassOracle(
        wedge=wedge_profile(profile),
        torsion=profile.torsion,
        euler=reduced_euler(k),
        num_faces=k.num_faces,
    )


def _run_oracles(class_reps, jobs: int, face_cap: int) -> list[ClassOracle]:
    tasks = [
        (graph.num_vertices, graph.edges, bounds, face_cap)
        for graph, bounds in class_reps
    ]
    if jobs <= 1 or len(tasks) < 4:
        return [_oracle_worker(t) for t in tasks]
    with Pool(processes=jobs) as pool:
        return list(pool.imap(_oracle_worker, tasks, chunksize=max(1, len(tasks) // (jobs * 8))))


def _record(graph: Graph, bounds, detail: dict) -> dict:
    return {"instance": instance_json(graph, bounds), **detail}


def _check_instance(
    report: VerifyReport,
    graph: Graph,
    bounds: DegreeBounds,
    counts: SphereCounts,
    oracle: ClassOracle,
    extra_counts: Optional[dict[str, SphereCounts]] = None,
):
    """Compare one instance's computed counts against its class oracle."""
    report.instances += 1
    ok = True
    if oracle.torsion:
        report.torsion_hits.append(
            _record(graph, bounds, {"torsion": {str(d): list(t) for d, t in oracle.torsion.items()}})
        )
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
    t0 = time.perf_counter()
    report = VerifyReport("forests", {"max_edges": max_edges, "max_bound": max_bound, "seed": seed})
    forests = nonisomorphic_forests(max_edges)
    instances: list[tuple[int, DegreeBounds, bytes]] = []
    class_of: dict[bytes, int] = {}
    reps: list[tuple[Graph, DegreeBounds]] = []
    for fi, forest in enumerate(forests):
        for bounds in clamped_bound_grid(forest, max_bound):
            key = canonical_code(forest, bounds)
            if key not in class_of:
                class_of[key] = len(reps)
                reps.append((forest, bounds))
            instances.append((fi, bounds, key))
    oracles = _run_oracles(reps, jobs, face_cap)
    report.classes = len(reps)

    for fi, bounds, key in instances:
        forest = forests[fi]
        counts = sphere_counts(forest, bounds)
        _check_instance(report, forest, bounds, counts, oracles[class_of[key]])

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
    report.elapsed_ms = (time.perf_counter() - t0) * 1000.0
    return report


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
    t0 = time.perf_counter()
    report = VerifyReport(
        "caterpillars",
        {
            "max_spine": max_spine,
            "max_leaves": max_leaves,
            "max_bound": max_bound,
            "min_leaves": min_leaves,
        },
    )
    instances: list[tuple[CaterpillarSpec, Graph, DegreeBounds, bytes]] = []
    class_of: dict[bytes, int] = {}
    reps: list[tuple[Graph, DegreeBounds]] = []
    for n in range(1, max_spine + 1):
        for m in itertools.product(range(min_leaves, max_leaves + 1), repeat=n):
            for lam in itertools.product(range(max_bound + 1), repeat=n):
                spec = CaterpillarSpec(m, lam)
                graph, bounds = gen_caterpillar(spec)
                key = canonical_code(graph, clamp_bounds(graph, bounds))
                if key not in class_of:
                    class_of[key] = len(reps)
                    reps.append((graph, bounds))
                instances.append((spec, graph, bounds, key))
    oracles = _run_oracles(reps, jobs, face_cap)
    report.classes = len(reps)

    for spec, graph, bounds, key in instances:
        counts = sphere_counts(graph, bounds)
        extra = {}
        if all(m >= 1 for m in spec.m):
            extra["closed_form"] = caterpillar_closed_form(spec)
        _check_instance(report, graph, bounds, counts, oracles[class_of[key]], extra)
    report.elapsed_ms = (time.perf_counter() - t0) * 1000.0
    return report


def _matching_worker(task):
    (num_vertices, edges, k, face_cap) = task
    graph = Graph(num_vertices, edges)
    complex_ = build_complex(graph, (k,) * num_vertices, face_cap)
    profile = reduced_homology(complex_)
    return profile.torsion


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
    t0 = time.perf_counter()
    report = VerifyReport(
        "matching",
        {"max_spine": max_spine, "max_leaves": max_leaves, "k_values": list(k_values)},
    )
    seen: set[bytes] = set()
    tasks = []
    task_meta = []
    for n in range(1, max_spine + 1):
        for m in itertools.product(range(max_leaves + 1), repeat=n):
            graph, _ = gen_caterpillar(CaterpillarSpec(m, (0,) * n))
            for k in k_values:
                bounds = (k,) * graph.num_vertices
                key = canonical_code(graph, clamp_bounds(graph, bounds))
                report.instances += 1
                if key in seen:
                    report.agreements += 1
                    continue
                seen.add(key)
                tasks.append((graph.num_vertices, graph.edges, k, face_cap))
                task_meta.append((graph, bounds))
    report.classes = len(tasks)
    if jobs <= 1 or len(tasks) < 4:
        torsions = [_matching_worker(t) for t in tasks]
    else:
        with Pool(processes=jobs) as pool:
            torsions = list(pool.imap(_matching_worker, tasks, chunksize=8))
    for (graph, bounds), torsion in zip(task_meta, torsions):
        if torsion:
            report.torsion_hits.append(
                _record(graph, bounds, {"torsion": {str(d): list(t) for d, t in torsion.items()}})
            )
        else:
            report.agreements += 1
    report.elapsed_ms = (time.perf_counter() - t0) * 1000.0
    return report


def _cycle_worker(task):
    (n, bounds, face_cap) = task
    graph = gen_cycle(n)
    cyc = build_complex(graph, bounds, face_cap)
    reduced = cycle_reduce(n, bounds)
    detail: dict = {}
    if reduced is None:
        return {"reducible": False}
    path, path_bounds = reduced
    mapping = cycle_reduction_edge_map(n, bounds)
    mapped = set()
    for layer in cyc.faces_by_dim:
        for face in layer:
            if any(mapping[i] is None for i in face):
                return {"reducible": True, "faces_equal": False, "reason": "killed edge in face"}
            mapped.add(tuple(sorted(mapping[i] for i in face)))
    pk = build_complex(path, path_bounds, face_cap)
    faces_equal = mapped == set(pk.face_set)
    cyc_h = reduced_homology(cyc)
    path_h = reduced_homology(pk)
    counts = sphere_counts(path, path_bounds)
    detail.update(
        {
            "reducible": True,
            "faces_equal": faces_equal,
            "homology_equal": cyc_h == path_h,
            "torsion": cyc_h.torsion,
            "wedge": wedge_profile(cyc_h),
            "counts": counts,
            "euler": reduced_euler(cyc),
        }
    )
    return detail


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
    `last_bounds`, all other bounds over {0..max_bound}.
    """
    t0 = time.perf_counter()
    report = VerifyReport(
        "cycles",
        {"ns": list(ns), "max_bound": max_bound, "last_bounds": list(last_bounds)},
    )
    tasks = []
    for n in ns:
        for rest in itertools.product(range(max_bound + 1), repeat=n - 1):
            for last in last_bounds:
                tasks.append((n, rest + (last,), face_cap))
    report.classes = len(tasks)
    if jobs <= 1 or len(tasks) < 4:
        results = [_cycle_worker(t) for t in tasks]
    else:
        with Pool(processes=jobs) as pool:
            results = list(pool.imap(_cycle_worker, tasks, chunksize=64))
    for (n, bounds, _), detail in zip(tasks, results):
        report.instances += 1
        graph = gen_cycle(n)
        if not detail.get("reducible"):
            report.errors.append(_record(graph, bounds, {"reason": "not reducible"}))
            continue
        ok = True
        if not detail["faces_equal"]:
            report.mismatches.append(_record(graph, bounds, {"reason": "face sets differ"}))
            ok = False
        if not detail["homology_equal"]:
            report.mismatches.append(_record(graph, bounds, {"reason": "homology differs"}))
            ok = False
        if detail["torsion"]:
            report.torsion_hits.append(_record(graph, bounds, {"torsion": str(detail["torsion"])}))
            ok = False
        if detail["wedge"] is not None and detail["counts"] != detail["wedge"]:
            report.mismatches.append(
                _record(graph, bounds, {"computed": detail["counts"], "oracle": detail["wedge"]})
            )
            ok = False
        if signed_sphere_sum(detail["counts"]) != detail["euler"]:
            report.euler_failures.append(
                _record(graph, bounds, {"signed_sum": signed_sphere_sum(detail["counts"]), "euler": detail["euler"]})
            )
            ok = False
        if ok:
            report.agreements += 1
    report.elapsed_ms = (time.perf_counter() - t0) * 1000.0
    return report


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
    t0 = time.perf_counter()
    report = VerifyReport(
        "random-forests",
        {"count": count, "seed": seed, "max_edges": max_edges, "max_bound": max_bound},
    )
    rng = random.Random(seed)
    picked: list[tuple[Graph, DegreeBounds]] = []
    while len(picked) < count:
        forest = random_forest(rng, max_edges + 1)
        if forest.num_edges > max_edges:
            continue
        bounds = tuple(rng.randint(0, max_bound) for _ in range(forest.num_vertices))
        picked.append((forest, bounds))
    reps: list[tuple[Graph, DegreeBounds]] = []
    class_of: dict[bytes, int] = {}
    keys = []
    for graph, bounds in picked:
        key = canonical_code(graph, clamp_bounds(graph, bounds))
        keys.append(key)
        if key not in class_of:
            class_of[key] = len(reps)
            reps.append((graph, bounds))
    oracles = _run_oracles(reps, jobs, face_cap)
    report.classes = len(reps)
    for (graph, bounds), key in zip(picked, keys):
        counts = sphere_counts(graph, bounds)
        _check_instance(report, graph, bounds, counts, oracles[class_of[key]])
    report.elapsed_ms = (time.perf_counter() - t0) * 1000.0
    return report
