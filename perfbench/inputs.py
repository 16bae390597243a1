"""Seeded inputs for every workload.

All inputs are plain instance JSON objects as the CLI accepts them, made
here from the seed without calling the package, so that a change to the
package's own generators cannot change what is measured.  Each case also
names the independent reference its result is checked against (see
refs.py):

- ("caterpillar", m, lam), ("path-ones", n), ("cycle-ones", n): the exact
  sphere-count vector is known from a closed form;
- ("forest-euler", n, edges, bounds), ("cycle-euler", bounds): only the
  signed sum of the sphere counts is known;
- ("homology", edges, bounds): Betti numbers and torsion primes from ranks
  over finite fields.

References are evaluated after the timed section (see `expected`), so they
add nothing to set-up time.

Rebuild the batch file of a seed with
`python3 perfbench/inputs.py batch --seed 7 > lines.jsonl`.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import random
import sys


import refs

# The one operation that fails today: the forest recursion recurses once per
# removed edge and exceeds Python's recursion limit on this path.
DEEP_PATH_VERTICES = 1500


@dataclasses.dataclass(frozen=True)
class Case:
    label: str
    obj: dict
    ref: tuple
    route: str = ""  # the method `auto` must report, when it is pinned
    expected_failure: str = ""  # exception name of a known, seed-free fault
    method: str = "auto"  # the method compute_instance is asked for


def _prufer_tree(rng: random.Random, n: int) -> list[tuple[int, int]]:
    if n == 2:
        return [(0, 1)]
    seq = [rng.randrange(n) for _ in range(n - 2)]
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
    return edges


def _relabel(rng: random.Random, n: int, edges, bounds):
    """Same graph and edge order under a random renaming of the vertices.

    The edge order is kept: the recursion picks edges and the oracle orders
    faces by edge index, so a shuffled edge list would change the work done.
    """
    perm = list(range(n))
    rng.shuffle(perm)
    new_edges = [[perm[u], perm[v]] for u, v in edges]
    new_bounds = [0] * n
    for v, b in enumerate(bounds):
        new_bounds[perm[v]] = b
    return new_edges, new_bounds


def _graph_obj(n: int, edges, bounds) -> dict:
    return {"n": n, "edges": [list(e) for e in edges], "lambda": list(bounds)}


def _tree_case(shape: random.Random, rng: random.Random, label: str, n: int) -> Case:
    """A random tree with bounds 1..3 from `shape`, labeled by `rng`."""
    edges = _prufer_tree(shape, n)
    bounds = [shape.randint(1, 3) for _ in range(n)]
    edges, bounds = _relabel(rng, n, edges, bounds)
    return Case(label, _graph_obj(n, edges, bounds), ("forest-euler", n, edges, bounds), "recursion")


def _caterpillar_graph(m, lam):
    spine = len(m)
    edges = [(i, i + 1) for i in range(spine - 1)]
    nxt = spine
    for i, leaves in enumerate(m):
        for _ in range(leaves):
            edges.append((i, nxt))
            nxt += 1
    return nxt, edges, list(lam) + [1] * sum(m)


def _explicit_caterpillar(rng: random.Random, label: str, m, lam, route: str = "") -> Case:
    n, edges, bounds = _caterpillar_graph(m, lam)
    edges, bounds = _relabel(rng, n, edges, bounds)
    return Case(label, _graph_obj(n, edges, bounds), ("caterpillar", m, lam), route)


def _spider_case(shape: random.Random, rng: random.Random, label: str) -> Case:
    legs = [shape.randint(1, 4) for _ in range(shape.randint(3, 5))]
    edges, nxt = [], 1
    for length in legs:
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt))
            prev, nxt = nxt, nxt + 1
    bounds = [shape.randint(1, 3) for _ in range(nxt)]
    edges, bounds = _relabel(rng, nxt, edges, bounds)
    return Case(label, _graph_obj(nxt, edges, bounds), ("forest-euler", nxt, edges, bounds), "recursion")


def _path_case(label: str, n: int, failure: str = "") -> Case:
    edges = [(i, i + 1) for i in range(n - 1)]
    return Case(label, _graph_obj(n, edges, [1] * n), ("path-ones", n), "recursion", failure)


def compute(seed: int) -> list[Case]:
    """The `compute` workload: forest instances, then large complexes."""
    return forest_recursion(seed) + oracle_large(seed)


def forest_recursion(seed: int) -> list[Case]:
    """Random trees, leafy caterpillars and spiders as graphs, all-ones paths.

    The trees, their bounds and the other shapes are one fixed set; the
    seed renames their vertices.  The cost of one random tree varies with
    its shape (the standard deviation is 40-70% of the mean at one size),
    so shapes drawn from the seed would make each seed a different amount
    of work.  Tree sizes are spread evenly over 16..25, 10 trees each.
    """
    shape = random.Random("forest-recursion")
    rng = random.Random(f"forest-recursion:{seed}")
    cases = [_tree_case(shape, rng, f"tree{i}-n{16 + i % 10}", 16 + i % 10) for i in range(100)]
    for i in range(8):
        spine = shape.randint(4, 6)
        m = [shape.randint(1, 3) for _ in range(spine)]
        lam = [shape.randint(1, 3) for _ in range(spine)]
        cases.append(_explicit_caterpillar(rng, f"caterpillar{i}", m, lam, "recursion"))
    cases += [_spider_case(shape, rng, f"spider{i}") for i in range(8)]
    cases += [_path_case(f"path{n}", n) for n in (150, 200, 250)]
    cases.append(_path_case(f"path{DEEP_PATH_VERTICES}", DEEP_PATH_VERTICES, "RecursionError"))
    return cases


def _matching_case(rng: random.Random, n: int) -> Case:
    edges = list(itertools.combinations(range(n), 2))
    edges, bounds = _relabel(rng, n, edges, [1] * n)
    return Case(f"K{n}-matching", _graph_obj(n, edges, bounds), ("homology", edges, bounds))


def _cycle_graph_case(rng: random.Random, label: str, bounds, ref) -> Case:
    n = len(bounds)
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges, new_bounds = _relabel(rng, n, edges, bounds)
    if ref is None:
        ref = ("homology", edges, new_bounds)
    return Case(label, _graph_obj(n, edges, new_bounds), ref)


ORACLE_CATERPILLARS = (
    ((3, 3, 3, 3, 1), (2, 2, 2, 2, 2)),  # 15,745 faces, the dense-memory case
    ((3, 3, 3, 3), (2, 2, 2, 2)),
    ((2, 2, 2, 2, 2), (2, 2, 2, 2, 2)),
)


def oracle_large(seed: int) -> list[Case]:
    """Ten complexes of 231-15,745 faces, given as graphs, for the oracle.

    The seed only renames vertices: the complexes and their face order stay
    the same, so every seed sets the same matrices.
    """
    rng = random.Random(f"oracle-large:{seed}")
    cases = [
        _explicit_caterpillar(rng, "caterpillar-m" + "".join(map(str, m)), m, lam)
        for m, lam in ORACLE_CATERPILLARS
    ]
    for n in (14, 16, 18):
        cases.append(_cycle_graph_case(rng, f"C{n}-ones", [1] * n, ("cycle-ones", n)))
    for n in (12, 13):
        # bound 2 everywhere but at every third vertex; an all-2 cycle is a simplex
        bounds = [1 if i % 3 == 0 else 2 for i in range(n)]
        cases.append(_cycle_graph_case(rng, f"C{n}-bound2", bounds, None))
    cases += [_matching_case(rng, n) for n in (7, 8)]
    return [dataclasses.replace(c, method="homology") for c in cases]


def batch_lines(seed: int) -> list[Case]:
    """A few hundred lines that mix all four routes of `auto`.

    As in `compute` the instances are one fixed set; the seed
    renames the vertices of the graphs, rotates and reflects the cycles and
    shuffles the lines.
    """
    shape = random.Random("batch-cli")
    rng = random.Random(f"batch-cli:{seed}")
    cases: list[Case] = []
    for i in range(80):
        spine = shape.randint(1, 5)
        m = [shape.randint(1, 4) for _ in range(spine)]
        lam = [shape.randint(0, 4) for _ in range(spine)]
        cases.append(Case(f"closed{i}", {"caterpillar": {"m": m, "lambda": lam}},
                          ("caterpillar", m, lam), "closed-form"))
    for i in range(20):
        spine = shape.randint(2, 5)
        m = [shape.randint(0, 3) for _ in range(spine)]
        m[shape.randrange(spine)] = 0  # a bare spine vertex rules out the closed form
        lam = [shape.randint(0, 3) for _ in range(spine)]
        n, edges, bounds = _caterpillar_graph(m, lam)
        cases.append(Case(f"bare-caterpillar{i}", {"caterpillar": {"m": m, "lambda": lam}},
                          ("forest-euler", n, edges, bounds), "recursion"))
    for i in range(144):
        cases.append(_tree_case(shape, rng, f"tree{i}", 16 + i % 12))
    for i in range(10):
        cases.append(_path_case(f"path{i}", 20 + 10 * i))
    for i in range(60):
        n = 20 + i % 31
        bounds = [shape.randint(0, 3) for _ in range(n)]
        if all(b == 1 for b in bounds):
            bounds[shape.randrange(n)] = 2
        turn = rng.randrange(n)
        bounds = bounds[turn:] + bounds[:turn]
        if rng.random() < 0.5:
            bounds.reverse()
        cases.append(Case(f"cycle{i}", {"cycle": {"n": n, "lambda": bounds}},
                          ("cycle-euler", bounds), "cycle-reduce"))
    for i in range(30):
        n = 6 + i % 8
        cases.append(Case(f"ones-cycle{i}", {"cycle": {"n": n, "lambda": [1] * n}},
                          ("cycle-ones", n), "homology"))
    rng.shuffle(cases)
    return cases


def expected(ref: tuple):
    """("spheres", counts), ("euler", signed sum) or ("homology", betti, torsion)."""
    kind, *args = ref
    if kind == "caterpillar":
        return "spheres", refs.caterpillar_spheres(*args)
    if kind == "path-ones":
        return "spheres", refs.all_ones_path_spheres(*args)
    if kind == "cycle-ones":
        return "spheres", refs.ind_cycle_spheres(*args)
    if kind == "forest-euler":
        return "euler", -refs.forest_euler_sum(*args)
    if kind == "cycle-euler":
        return "euler", -refs.cycle_euler_sum(*args)
    return ("homology",) + refs.homology_mod_primes(*args)


def write_batch(seed: int, stream) -> list[Case]:
    cases = batch_lines(seed)
    for case in cases:
        stream.write(json.dumps(case.obj, separators=(",", ":")) + "\n")
    return cases


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description="Write the seeded batch JSONL to stdout.")
    parser.add_argument("what", choices=("batch",))
    parser.add_argument("--seed", type=int, required=True)
    write_batch(parser.parse_args().seed, sys.stdout)
