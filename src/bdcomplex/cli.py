"""Command-line interface: compute, generate, batch, and verify.

Instances travel as JSON objects (one per line for batch mode); results are
emitted as JSON on stdout with deterministic key and dimension ordering.
Diagnostics go to stderr.  Exit codes: 0 on success, 1 when any instance
failed or any verification disagreed, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from functools import partial
from itertools import chain, islice
from typing import Optional

from .complexes import DEFAULT_FACE_CAP
from .errors import BoundedDegreeError, InvalidParamsError, InvalidSizeError, ParseError
from .graph import CaterpillarSpec, gen_path
from .harness import (
    METHODS,
    ComputeResult,
    Instance,
    compute_instance,
    instance_json,
    parse_instance,
    pool_map,
    sweep_caterpillars,
    sweep_cycles,
    sweep_forests,
    sweep_matching_caterpillars,
    sweep_random_forests,
)
from .homology import HomologyProfile
from .recursion import SphereCounts

# ---------------------------------------------------------------------------
# JSON rendering
# ---------------------------------------------------------------------------


def _counts_json(counts: SphereCounts) -> dict[str, int]:
    return {str(d): counts[d] for d in sorted(counts)}


def _homology_json(profile: HomologyProfile) -> dict:
    return {
        "betti": {str(d): profile.betti[d] for d in sorted(profile.betti)},
        "torsion": {str(d): list(profile.torsion[d]) for d in sorted(profile.torsion)},
    }


def result_json(instance: Instance, res: ComputeResult, timings: bool = False) -> dict:
    out: dict = {"instance": instance.source, "method": res.method_used}
    if res.wedge_consistent:
        out["contractible"] = res.contractible
        out["spheres"] = _counts_json(res.spheres)
    else:
        out["wedge_consistent"] = False
    if res.homology is not None:
        out["homology"] = _homology_json(res.homology)
    if timings:
        out["timing_ms"] = {k: round(v, 3) for k, v in res.timings_ms.items()}
    return out


def _result_table(obj: dict) -> str:
    if obj.get("wedge_consistent") is False:
        shape = "NOT a wedge of spheres (torsion)"
    elif obj.get("contractible"):
        shape = "contractible"
    else:
        spheres = obj.get("spheres", {})
        shape = " v ".join(
            f"{c}*S^{d}" if c > 1 else f"S^{d}"
            for d, c in sorted(spheres.items(), key=lambda kv: int(kv[0]))
        )
    return f"{obj['method']:<14} {shape}"


def _emit(obj: dict, output: str, stream=None):
    stream = stream or sys.stdout
    if output == "table":
        print(_result_table(obj) if "method" in obj else json.dumps(obj), file=stream)
    else:
        print(json.dumps(obj, separators=(",", ":")), file=stream)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _read_instance_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _parse_json_instance(text: str) -> Instance:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    return parse_instance(obj)


def _error_json(exc: Exception) -> dict:
    """The error object for a failed instance; unexpected faults also log a traceback."""
    if not isinstance(exc, BoundedDegreeError):
        import traceback  # only on this path: keeps it out of start-up

        traceback.print_exc(file=sys.stderr)
    return {"error": {"type": type(exc).__name__, "message": str(exc)}}


def cmd_compute(args) -> int:
    try:
        instance = _parse_json_instance(_read_instance_text(args.instance))
        res = compute_instance(instance, args.method, args.face_cap)
    except OSError:
        raise  # an unreadable instance file is a usage error: exit 2 in main
    except Exception as exc:  # noqa: BLE001 - any other failure is an error object
        _emit(_error_json(exc), args.output)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(result_json(instance, res, args.timings), args.output)
    return 0


BATCH_CHUNK = 32  # consecutive lines per pool task of `batch` at jobs > 1


def _batch_line(method: str, face_cap: int, task: tuple[int, bytes]) -> dict:
    """Result object for one input line, or an error object naming the line.

    Any exception becomes an error object, so one bad line (malformed input,
    bytes that are not UTF-8, an exhausted face cap, even a RecursionError or
    MemoryError) never costs the other lines their output.
    """
    lineno, line = task
    try:
        instance = _parse_json_instance(line.decode("utf-8"))
        res = compute_instance(instance, method, face_cap)
        return result_json(instance, res, False)
    except Exception as exc:  # noqa: BLE001 - one line's fault must not stop the batch
        return {**_error_json(exc), "line": lineno}


def _batch_chunk(method: str, face_cap: int, chunk: list[tuple[int, bytes]]) -> list[dict]:
    """`_batch_line` on each line of a pool task, in order."""
    return [_batch_line(method, face_cap, task) for task in chunk]


def cmd_batch(args) -> int:
    with open(args.file, "rb") if args.file != "-" else nullcontext(sys.stdin.buffer) as fh:
        # read lazily, one line at a time; each line is decoded on its own in _batch_line
        tasks = ((i, line) for i, line in enumerate(fh, start=1) if line.strip())
        if args.jobs > 1:
            # a pool task per line costs more in round trips than most lines take
            chunks = iter(lambda: list(islice(tasks, BATCH_CHUNK)), [])
            worker = partial(_batch_chunk, args.method, args.face_cap)
            results = chain.from_iterable(pool_map(worker, chunks, args.jobs))
        else:
            results = map(partial(_batch_line, args.method, args.face_cap), tasks)
        failed = False
        for obj in results:
            failed = failed or "error" in obj
            _emit(obj, args.output)
    return 1 if failed else 0


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",")] if text else []
    except ValueError as exc:
        raise InvalidParamsError(f"{what} must be comma-separated integers") from exc


def cmd_generate(args) -> int:
    try:
        if args.family == "caterpillar":
            m = _parse_int_list(args.m, "--m")
            lam = _parse_int_list(args.bounds, "--lambda")
            CaterpillarSpec(tuple(m), tuple(lam))  # validate
            obj = {"caterpillar": {"m": m, "lambda": lam}}
        elif args.family == "cycle":
            lam = _parse_int_list(args.bounds, "--lambda")
            if args.n < 3:
                raise InvalidSizeError("a cycle needs at least three vertices")
            if len(lam) != args.n:
                raise InvalidParamsError("cycle needs n bounds")
            obj = {"cycle": {"n": args.n, "lambda": lam}}
        else:  # path
            lam = _parse_int_list(args.bounds, "--lambda")
            if args.n >= 1 and len(lam) != args.n:  # refused before the path is built
                raise InvalidParamsError("path needs n bounds")
            obj = instance_json(gen_path(args.n), lam)
    except (BoundedDegreeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(obj, separators=(",", ":")))
    return 0


def cmd_verify(args) -> int:
    pool = {"jobs": args.jobs, "face_cap": args.face_cap}
    if args.family == "forests":
        report = sweep_forests(
            args.max_edges, args.max_bound, raw_samples=args.raw_samples, seed=args.seed, **pool
        )
    elif args.family == "caterpillars":
        report = sweep_caterpillars(
            args.max_spine, args.max_leaves, args.max_bound, min_leaves=args.min_leaves, **pool
        )
    elif args.family == "cycles":
        report = sweep_cycles(list(range(3, args.max_n + 1)), args.max_bound, args.last_bounds, **pool)
    elif args.family == "matching":
        report = sweep_matching_caterpillars(args.max_spine, args.max_leaves, args.k, **pool)
    else:  # random
        report = sweep_random_forests(args.count, args.seed, args.max_edges, args.max_bound, **pool)
    obj = report.to_json(include_timings=args.timings)
    if args.output == "table":
        for key, value in obj.items():
            print(f"{key}: {value}")
    else:
        print(json.dumps(obj, separators=(",", ":")))
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _int_at_least(low: int, text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < low:
        raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
    return value


# argparse types: a value out of range is a usage error (exit 2) naming the option
_positive_int = partial(_int_at_least, 1)
_non_negative_int = partial(_int_at_least, 0)


def _non_negative_list(text: str) -> list[int]:
    return [_non_negative_int(x) for x in text.split(",")] if text else []


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bdcomplex",
        description="Bounded degree complexes: homotopy types and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--face-cap", type=_positive_int, default=DEFAULT_FACE_CAP)
        p.add_argument("--output", choices=("json", "table"), default="json")
        p.add_argument("--timings", action="store_true", help="include timing fields")

    p = sub.add_parser("compute", help="compute one instance")
    p.add_argument("instance", nargs="?", default="-", help="instance JSON file or - for stdin")
    p.add_argument("--method", choices=METHODS, default="auto")
    common(p)
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("batch", help="compute a JSON-lines file of instances")
    p.add_argument("file", nargs="?", default="-")
    p.add_argument("--method", choices=METHODS, default="auto")
    p.add_argument("--jobs", type=_positive_int, default=1)
    common(p)
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser("generate", help="emit an instance JSON")
    fam = p.add_subparsers(dest="family", required=True)
    pc = fam.add_parser("caterpillar")
    pc.add_argument("--m", required=True, help="comma-separated leaf counts")
    pc.add_argument("--lambda", dest="bounds", required=True, help="comma-separated spine bounds")
    pp = fam.add_parser("path")
    pp.add_argument("--n", type=int, required=True)
    pp.add_argument("--lambda", dest="bounds", required=True)
    py = fam.add_parser("cycle")
    py.add_argument("--n", type=int, required=True)
    py.add_argument("--lambda", dest="bounds", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("verify", help="sweep a family and check all methods agree")
    fam = p.add_subparsers(dest="family", required=True)

    def verify_common(q):
        q.add_argument("--jobs", type=_positive_int, default=1)
        q.add_argument("--seed", type=int, default=0)
        common(q)

    q = fam.add_parser("forests")
    q.add_argument("--max-edges", type=_non_negative_int, default=5)
    q.add_argument("--max-bound", type=_non_negative_int, default=2)
    q.add_argument("--raw-samples", type=_non_negative_int, default=200)
    verify_common(q)
    q = fam.add_parser("caterpillars")
    q.add_argument("--max-spine", type=_non_negative_int, default=3)
    q.add_argument("--max-leaves", type=_non_negative_int, default=3)
    q.add_argument("--max-bound", type=_non_negative_int, default=3)
    q.add_argument("--min-leaves", type=_non_negative_int, default=1)
    verify_common(q)
    q = fam.add_parser("cycles")
    q.add_argument("--max-n", type=partial(_int_at_least, 3), default=7)
    q.add_argument("--max-bound", type=_non_negative_int, default=3)
    q.add_argument("--last-bounds", type=_non_negative_list, default="0,2,3")
    verify_common(q)
    q = fam.add_parser("matching")
    q.add_argument("--max-spine", type=_non_negative_int, default=3)
    q.add_argument("--max-leaves", type=_non_negative_int, default=3)
    q.add_argument("--k", type=_non_negative_list, default="1,2,3")
    verify_common(q)
    q = fam.add_parser("random")
    q.add_argument("--count", type=_non_negative_int, default=100)
    q.add_argument("--max-edges", type=_non_negative_int, default=9)
    q.add_argument("--max-bound", type=_non_negative_int, default=3)
    verify_common(q)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BoundedDegreeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
