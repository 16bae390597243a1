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
from collections import deque
from functools import cached_property
from itertools import islice
from typing import NamedTuple, Optional, Sequence

from .caterpillar import caterpillar_closed_form, cycle_reduce
from .complexes import DEFAULT_FACE_CAP
from .errors import MethodMismatchError, ParseError
from .graph import (
    CaterpillarSpec,
    DegreeBounds,
    Graph,
    Record,
    gen_caterpillar,
    gen_cycle,
    make_graph,
    validate_bounds,
)
from .homology import HomologyProfile, graph_homology, wedge_profile
from .recursion import SphereCounts, caterpillar_counts, forest_counts

METHODS = ("auto", "recursion", "closed-form", "homology")


class Instance(Record):
    """A parsed problem instance: its source form, a graph and its bounds.

    A caterpillar shorthand holds only its spec until a route first reads
    `graph` or `bounds`; only the homology oracle does.  A `Record`; its dict
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
    into, and falls back to the homology oracle.  The recursion folds a
    caterpillar shorthand along its spine (`caterpillar_counts`), with no
    leaf built.  Other forests go through `forest_counts`: a forest with an
    edge whose ends have bounds at least their degrees is a cone, since that
    edge joins every face, and answers {} with no plan and no fold.
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

    # recursion, or auto: a caterpillar shorthand folds its spine and builds no
    # leaf; a cone answers {} with no plan, any other forest is folded
    if spec is not None:
        return done("recursion", caterpillar_counts(spec))
    counts = forest_counts(instance.graph, instance.bounds)
    if counts is not None:
        return done("recursion", counts)
    if method == "recursion":
        raise MethodMismatchError("recursion applies to forests only")
    reduced = cycle_reduce(instance.graph, instance.bounds)
    if reduced is not None:
        counts = forest_counts(reduced[0], reduced[1])
        if counts is not None:
            return done("cycle-reduce", counts)
        # else the split kept a cycle: the oracle answers
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
    `tasks` is read lazily, and only in the caller's thread: with a pool,
    POOL_READ_AHEAD tasks per worker go to the pool before the first result
    is waited for, and one more each time the caller comes back for the
    next result, so after r results taken, POOL_READ_AHEAD * workers + r - 1
    tasks have been read.  A task's exception is raised here, after the
    results before it; the pool ends with the loop, or when the caller
    stops early.
    """
    workers = min(jobs, usable_cpus())
    if workers <= 1:
        yield from map(fn, tasks)
        return
    from multiprocessing import Pool  # only here, with the pool: keeps it out of every start-up

    tasks = iter(tasks)
    with Pool(processes=workers) as pool:
        pending = deque(pool.apply_async(fn, (t,)) for t in islice(tasks, POOL_READ_AHEAD * workers))
        while pending:
            yield pending.popleft().get()
            for t in islice(tasks, 1):  # the caller came back for a result: read one more task
                pending.append(pool.apply_async(fn, (t,)))
