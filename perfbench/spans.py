"""Spans around the package's layer functions, recorded from outside.

`install()` replaces each traced function by a wrapper in every bdcomplex
module that binds it (for example `canonical_code` in graph, recursion and
harness), so calls made inside the package are seen too.  A wrapper records
one span (name, start, end, parent) in memory and a few counters read off
the call's arguments or result.  Nothing is written until `write()`.

Work that normally runs in a process pool has to be traced at jobs=1:
spans recorded in forked workers are lost.
"""

from __future__ import annotations

import sys
import time
from array import array

# span name -> (module, function).  The sweeps and the pool task functions
# are private to harness but are the only place where the fan-out is seen.
LAYERS = {
    "graph.canonical_code": ("bdcomplex.graph", "canonical_code"),
    "graph.components": ("bdcomplex.graph", "components"),
    "recursion.simplify": ("bdcomplex.recursion", "simplify"),
    "recursion.sphere_counts": ("bdcomplex.recursion", "sphere_counts"),
    "caterpillar.closed_form": ("bdcomplex.caterpillar", "caterpillar_closed_form"),
    "caterpillar.cycle_reduce": ("bdcomplex.caterpillar", "cycle_reduce"),
    "complexes.build_complex": ("bdcomplex.complexes", "build_complex"),
    "homology.boundary_matrix": ("bdcomplex.homology", "boundary_matrix"),
    "homology.smith_normal_form": ("bdcomplex.homology", "smith_normal_form"),
    "homology.reduced_homology": ("bdcomplex.homology", "reduced_homology"),
    "harness.parse_instance": ("bdcomplex.harness", "parse_instance"),
    "harness.compute_instance": ("bdcomplex.harness", "compute_instance"),
    "harness.sweep.forests": ("bdcomplex.harness", "sweep_forests"),
    "harness.sweep.caterpillars": ("bdcomplex.harness", "sweep_caterpillars"),
    "harness.sweep.cycles": ("bdcomplex.harness", "sweep_cycles"),
    "harness.sweep.matching": ("bdcomplex.harness", "sweep_matching_caterpillars"),
    "harness.pool_task.oracle": ("bdcomplex.harness", "_oracle_worker"),
    "harness.pool_task.matching": ("bdcomplex.harness", "_matching_worker"),
    "harness.pool_task.cycle": ("bdcomplex.harness", "_cycle_worker"),
    "cli.result_json": ("bdcomplex.cli", "result_json"),
    "cli.batch": ("bdcomplex.cli", "cmd_batch"),
}

COUNTERS = ("memo_lookups", "memo_entries", "faces", "boundary_nnz", "dense_cells")


class Recorder:
    """Spans in parallel arrays plus named counters."""

    def __init__(self):
        self.names = list(LAYERS) + ["bench.op"]
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack: list[int] = []
        self.counters = dict.fromkeys(COUNTERS, 0)

    def enter(self, name_id: int) -> int:
        sid = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def exit(self, sid: int):
        self.end[sid] = time.perf_counter()
        self.stack.pop()

    def mark(self):
        return len(self.start), len(self.stack), dict(self.counters)

    def rollback(self, mark):
        """Forget everything recorded since `mark` (an operation that raised).

        A RecursionError can strike inside a wrapper and leave spans open, so
        the spans and counters of a failed operation are not kept.
        """
        spans, depth, counters = mark
        for arr in (self.name, self.start, self.end, self.parent):
            del arr[spans:]
        del self.stack[depth:]
        self.counters = counters

    def op(self):
        """Context manager for one benchmark operation (the root span)."""
        return _Op(self)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        n = len(self.start)
        child = [0.0] * n
        for sid in range(n):
            p = self.parent[sid]
            if p >= 0:
                child[p] += self.end[sid] - self.start[sid]
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for sid in range(n):
            row = out[self.names[self.name[sid]]]
            dur = self.end[sid] - self.start[sid]
            row["calls"] += 1
            row["s"] += dur
            row["self_s"] += dur - child[sid]
        return out

    def write(self, path: str):
        """All spans as tab-separated name, start, end, parent (seconds)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart_s\tend_s\tparent\n")
            for sid in range(len(self.start)):
                fh.write(
                    f"{sid}\t{self.names[self.name[sid]]}\t{self.start[sid]:.9f}"
                    f"\t{self.end[sid]:.9f}\t{self.parent[sid]}\n"
                )


class _Op:
    def __init__(self, rec: Recorder):
        self.rec = rec

    def __enter__(self):
        self.mark = self.rec.mark()
        self.sid = self.rec.enter(len(self.rec.names) - 1)
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            self.rec.exit(self.sid)
        else:
            self.rec.rollback(self.mark)
        return False


def _wrap(rec: Recorder, name: str, fn, counter_hook=None):
    name_id = rec.names.index(name)
    enter, exit_ = rec.enter, rec.exit

    if counter_hook is None:
        def traced(*args, **kwargs):
            sid = enter(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(sid)
    else:
        def traced(*args, **kwargs):
            sid = enter(name_id)
            try:
                return counter_hook(rec.counters, fn, args, kwargs)
            finally:
                exit_(sid)

    traced.__wrapped__ = fn
    traced.__name__ = fn.__name__
    return traced


def _count_lookup(counters, fn, args, kwargs):
    counters["memo_lookups"] += 1
    return fn(*args, **kwargs)


def _count_memo(counters, fn, args, kwargs):
    # sphere_counts makes a fresh dict when cache is None; handing it one
    # explicitly changes nothing but lets the growth of the memo be read.
    cache = kwargs.pop("cache", None)
    if cache is None:
        cache = {}
    before = len(cache)
    try:
        return fn(*args, cache=cache, **kwargs)
    finally:
        counters["memo_entries"] += len(cache) - before


def _count_faces(counters, fn, args, kwargs):
    k = fn(*args, **kwargs)
    counters["faces"] += k.num_faces
    return k


def _count_nnz(counters, fn, args, kwargs):
    m = fn(*args, **kwargs)
    counters["boundary_nnz"] += m.nnz
    return m


def _count_dense(counters, fn, args, kwargs):
    m = args[0]
    if m.entries:  # the int64 phase allocates rows x cols for every nonempty matrix
        counters["dense_cells"] += m.rows * m.cols
    return fn(*args, **kwargs)


_HOOKS = {
    "recursion.sphere_counts": _count_memo,
    "complexes.build_complex": _count_faces,
    "homology.boundary_matrix": _count_nnz,
    "homology.smith_normal_form": _count_dense,
}


def install(rec: Recorder):
    """Rebind every traced function in every bdcomplex module; returns an undo."""
    modules = [m for name, m in sys.modules.items() if name == "bdcomplex" or name.startswith("bdcomplex.")]
    undo = []
    for name, (mod_name, attr) in LAYERS.items():
        original = getattr(sys.modules[mod_name], attr)
        plain = _wrap(rec, name, original, _HOOKS.get(name))
        for mod in modules:
            if getattr(mod, attr, None) is original:
                # memo lookups are the canonical codes the recursion asks for
                wrapper = plain
                if name == "graph.canonical_code" and mod.__name__ == "bdcomplex.recursion":
                    wrapper = _wrap(rec, name, original, _count_lookup)
                setattr(mod, attr, wrapper)
                undo.append((mod, attr, original))

    def uninstall():
        for mod, attr, original in undo:
            setattr(mod, attr, original)

    return uninstall
