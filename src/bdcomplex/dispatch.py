"""Instance model, method dispatch, and the process-pool helper.

`parse_instance` turns one accepted JSON shape into an `Instance`, and
`compute_instance` sends it down one route: the caterpillar closed form,
the forest recursion, the recursion on the forest that `cycle_reduce` cuts
a graph with cycles into, or the homology oracle.  `pool_map` fans work out
to a process pool for `batch` and for the verification sweeps in `harness`.
`cli` takes these names from here and imports `harness` only for `verify`,
so `bdcomplex compute` and `bdcomplex batch` do not compile the sweeps at
start-up.
"""

from __future__ import annotations

import os
import time
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

from .caterpillar import caterpillar_closed_form, cycle_reduce
from .complexes import DEFAULT_FACE_CAP
from .errors import MethodMismatchError, NotAForestError, ParseError
from .graph import (
    CaterpillarSpec,
    DegreeBounds,
    Graph,
    Record,
    forest_plan,
    gen_caterpillar,
    gen_cycle,
    make_graph,
    validate_bounds,
)
from .homology import HomologyProfile, graph_homology, wedge_profile
from .recursion import SphereCounts, plan_counts

METHODS = ("auto", "recursion", "closed-form", "homology")


class Instance(Record):
    """A parsed problem instance: its source form, a graph and its bounds.

    A caterpillar shorthand holds only its spec until a route first reads
    `graph` or `bounds`; the closed form never does.  A `Record`; its dict
    source makes it unhashable, and the graph it builds is not pickled.
    """

    _fields = ("source", "cat_spec", "given")
    __hash__ = None

    def __init__(
        self,
        source: dict,
        cat_spec: Optional[CaterpillarSpec] = None,
        given: Optional[tuple[Graph, DegreeBounds]] = None,
    ):
        super().__init__(source, cat_spec, given)

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


class ComputeResult(NamedTuple):
    method_used: str
    spheres: Optional[SphereCounts]
    contractible: Optional[bool]
    homology: Optional[HomologyProfile]
    wedge_consistent: bool
    timings_ms: dict[str, float]


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
    if reduced is not None:
        try:
            plan = forest_plan(reduced[0])
        except NotAForestError:
            pass  # the split kept a cycle: the oracle answers
        else:
            return done("cycle-reduce", plan_counts(plan, reduced[1]))
    profile, _ = graph_homology(instance.graph, instance.bounds, face_cap)
    return done("homology", wedge_profile(profile), profile)


# tasks per worker that pool_map may read ahead of the results taken
POOL_READ_AHEAD = 4


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def pool_map(fn, tasks, jobs: int):
    """Yield `fn` over `tasks` in task order, from a pool of min(jobs, usable_cpus()) processes.

    Where that is at most 1, the tasks run in this process, with no pool.
    `tasks` is read lazily: with a pool, at most POOL_READ_AHEAD tasks per
    worker are taken from it beyond the results yielded so far.
    """
    workers = min(jobs, usable_cpus())
    if workers <= 1:
        yield from map(fn, tasks)
        return
    import threading  # only here, with the pool: keeps both out of every start-up
    from multiprocessing import Pool

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
