"""Instance model, method dispatch, and the process-pool helper.

`parse_instance` turns one accepted JSON shape into an `Instance`, and
`compute_instance` sends it down one route: the caterpillar closed form,
the forest recursion, the recursion on the forest that `cycle_reduce` cuts
a graph with cycles into, or the homology oracle.  It returns what that
route found and nothing more: no clock runs in it, and `cli` derives the
rest of a result object from the sphere counts.  `pool_map` cuts the work
of `batch` and of the sweeps in `harness` into tasks for a process pool.
`cli` takes these names from here and imports `harness` only for `verify`,
so `bdcomplex compute` and `bdcomplex batch` do not compile the sweeps at
start-up.
"""

from __future__ import annotations

import os
from collections import deque
from itertools import islice
from typing import NamedTuple, Optional, Sequence

from .caterpillar import caterpillar_closed_form, cycle_reduce
from .complexes import DEFAULT_FACE_CAP
from .errors import MethodMismatchError, ParseError, WorkerDiedError
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
    """A parsed problem instance: its source form, and either a caterpillar
    spec or the (graph, bounds) it was given.

    A caterpillar shorthand holds only its spec: `compute_instance` builds
    its leaves only for the homology oracle.  A `Record`; its dict source
    makes it unhashable.
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
    """What a route found: its tag, the wedge's sphere counts (None on
    torsion), and the homology profile if the oracle ran."""

    method_used: str
    spheres: Optional[SphereCounts]
    homology: Optional[HomologyProfile] = None


def _oracle(graph: Graph, bounds: DegreeBounds, face_cap: int) -> ComputeResult:
    profile, _ = graph_homology(graph, bounds, face_cap)
    return ComputeResult("homology", wedge_profile(profile), profile)


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
    leaf built; only `homology` builds a shorthand's graph.  Other forests
    go through `forest_counts`: a forest with an edge whose ends have bounds
    at least their degrees is a cone, since that edge joins every face, and
    answers {} with no plan and no fold.
    """
    if method not in METHODS:
        raise MethodMismatchError(f"unknown method {method!r}")
    spec = instance.cat_spec
    if method in ("auto", "closed-form") and spec is not None and all(m >= 1 for m in spec.m):
        return ComputeResult("closed-form", caterpillar_closed_form(spec))
    if method == "closed-form":
        raise MethodMismatchError("closed-form needs a caterpillar shorthand with every m_i >= 1")
    if method == "homology":
        return _oracle(*(instance.given or gen_caterpillar(spec)), face_cap)

    # recursion, or auto: a caterpillar shorthand folds its spine and builds no
    # leaf; a cone answers {} with no plan, any other forest is folded
    if spec is not None:
        return ComputeResult("recursion", caterpillar_counts(spec))
    graph, bounds = instance.given
    counts = forest_counts(graph, bounds)
    if counts is not None:
        return ComputeResult("recursion", counts)
    if method == "recursion":
        raise MethodMismatchError("recursion applies to forests only")
    reduced = cycle_reduce(graph, bounds)
    if reduced is not None:
        counts = forest_counts(reduced[0], reduced[1])
        if counts is not None:
            return ComputeResult("cycle-reduce", counts)
        # else the split kept a cycle: the oracle answers
    return _oracle(graph, bounds, face_cap)


# tasks per worker that pool_map may read ahead of the results taken
POOL_READ_AHEAD = 4

TASK_SIZE = 64  # items per pool task, at least: 4 tasks for the benchmark's 252 matching instances


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _tasks(shards):
    """Consecutive whole shards joined into tasks of at least TASK_SIZE items; the last may hold fewer."""
    task: list = []
    for shard in shards:
        task += shard
        if len(task) >= TASK_SIZE:
            yield task
            task = []
    if task:
        yield task


def pool_map(fn, shards, jobs: int):
    """Yield `fn` over tasks cut from `shards`, in order, from min(jobs, usable_cpus()) processes.

    A shard is a list of items that no task splits; `fn` takes a task's
    flat list of items.  Where at most one process is usable, each shard is
    a task, run in this process, so its result is yielded before the next
    shard is read.  With a pool, consecutive whole shards are joined into
    tasks of at least TASK_SIZE items, read lazily, and only in the caller's
    thread: POOL_READ_AHEAD tasks per worker go to the pool before the first
    result is waited for, and one more each time the caller comes back for
    the next result, so after r results taken, POOL_READ_AHEAD * workers +
    r - 1 tasks have been read.  A task's exception is raised here, after
    the results before it, and a worker that dies is a WorkerDiedError; the
    pool ends with the loop, or when the caller stops early, once the tasks
    already running are done.
    """
    workers = min(jobs, usable_cpus())
    if workers <= 1:
        yield from map(fn, shards)
        return
    # only here, with the pool: keeps multiprocessing out of every start-up
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    tasks = _tasks(shards)
    pool = ProcessPoolExecutor(workers)
    try:
        pending = deque(pool.submit(fn, t) for t in islice(tasks, POOL_READ_AHEAD * workers))
        while pending:
            yield pending.popleft().result()
            for t in islice(tasks, 1):  # the caller came back for a result: read one more task
                pending.append(pool.submit(fn, t))
    except BrokenProcessPool as exc:  # raised by `result`, and by `submit` once one was
        raise WorkerDiedError("a pool worker died before its task was done") from exc
    finally:
        pool.shutdown(cancel_futures=True)
