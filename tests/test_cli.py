import io
import json
import os
import subprocess
import sys
import textwrap
from math import comb
from pathlib import Path

import pytest

import bdcomplex
from bdcomplex import cli, dispatch
from bdcomplex.cli import main
from bdcomplex.dispatch import POOL_READ_AHEAD, TASK_SIZE


def run(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def write_instance(tmp_path, obj, name="instance.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj) + "\n")
    return str(path)


TWO_SPINE = {"caterpillar": {"m": [2, 1], "lambda": [2, 1]}}
TOO_LONG_TO_PRINT = {"caterpillar": {"m": [20000], "lambda": [10000]}}
# 2,000 bytes of JSON nested deeper than the decoder's recursion limit
TOO_DEEP = "[" * 1000 + "]" * 1000
# an integer of 5,000 digits, more than CPython's JSON decoder reads
TOO_LONG_TO_READ = '{"n": 2, "edges": [[0, 1]], "lambda": [1, ' + "9" * 5000 + "]}"
# its closed form has one sphere, of a dimension with 4,301 digits: too long to print
_NINES = 10**4299 - 1
DIMENSION_TOO_LONG_TO_PRINT = {"caterpillar": {"m": [_NINES + 1] * 11, "lambda": [_NINES] * 11}}


def run_script(body: str, stdin: str = "", limit_mb: int = 256, timeout: float = 120):
    """Python code `body` in a fresh process whose address space is capped at `limit_mb`.

    A process still running after `timeout` seconds is killed, and
    `subprocess.TimeoutExpired` is raised with what it wrote so far.
    """
    script = textwrap.dedent(
        f"""
        import resource, sys
        resource.setrlimit(resource.RLIMIT_AS, ({limit_mb} << 20, {limit_mb} << 20))
        """
    ) + body
    src = os.path.dirname(os.path.dirname(bdcomplex.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-c", script],
        input=stdin,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def run_limited(argv, stdin: str = "", limit_mb: int = 256, timeout: float = 120):
    """`main(argv)` in a fresh process capped at `limit_mb` of address space."""
    body = f"from bdcomplex.cli import main\nsys.exit(main({argv!r}))\n"
    return run_script(body, stdin, limit_mb, timeout)


# graph-form instances whose n or endpoints are not integers, or are booleans
NON_INTEGER_GRAPHS = [
    {"n": 2, "edges": [[0, "a"]], "lambda": [1, 1]},
    {"n": 2, "edges": [[0, 1.0]], "lambda": [1, 1]},
    {"n": 2, "edges": [[0, True]], "lambda": [1, 1]},
    {"n": True, "edges": [], "lambda": [1]},
]


class TestGenerate:
    def test_caterpillar(self, capsys):
        code, out, _ = run(capsys, ["generate", "caterpillar", "--m", "2,1", "--lambda", "2,1"])
        assert code == 0
        assert json.loads(out) == TWO_SPINE

    def test_path(self, capsys):
        code, out, _ = run(capsys, ["generate", "path", "--n", "4", "--lambda", "1,1,1,1"])
        assert code == 0
        assert json.loads(out) == {
            "n": 4,
            "edges": [[0, 1], [1, 2], [2, 3]],
            "lambda": [1, 1, 1, 1],
        }

    def test_cycle(self, capsys):
        code, out, _ = run(capsys, ["generate", "cycle", "--n", "3", "--lambda", "1,1,2"])
        assert code == 0
        assert json.loads(out) == {"cycle": {"n": 3, "lambda": [1, 1, 2]}}

    def test_bad_params(self, capsys):
        code, _, err = run(capsys, ["generate", "path", "--n", "4", "--lambda", "1,1"])
        assert code == 2 and "error" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["cycle", "--n", "2", "--lambda", "1,1"], "a cycle needs at least three vertices"),
            (["cycle", "--n", "4", "--lambda", "1"], "cycle needs n bounds"),
            (["path", "--n", "0", "--lambda", "1"], "a path needs at least one vertex"),
            (["path", "--n", "3", "--lambda", "1"], "path needs n bounds"),
        ],
    )
    def test_size_and_length_messages(self, capsys, argv, message):
        code, out, err = run(capsys, ["generate", *argv])
        assert code == 2 and out == "" and err == f"error: {message}\n"

    @pytest.mark.parametrize("family", ["cycle", "path"])
    def test_short_lambda_refused_before_building_under_256_mb(self, family):
        # a four-million-vertex graph would take far more than 256 MB
        proc = run_limited(["generate", family, "--n", "4000000", "--lambda", "1"])
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == "" and proc.stderr == f"error: {family} needs n bounds\n"


class TestCompute:
    def test_auto_uses_closed_form(self, capsys, tmp_path):
        code, out, _ = run(capsys, ["compute", write_instance(tmp_path, TWO_SPINE)])
        assert code == 0
        obj = json.loads(out)
        assert obj["method"] == "closed-form"
        assert obj["spheres"] == {"1": 1}
        assert obj["contractible"] is False
        assert obj["instance"] == TWO_SPINE
        assert "homology" not in obj and "timing_ms" not in obj

    def test_homology_method_reports_profile(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, ["compute", write_instance(tmp_path, TWO_SPINE), "--method", "homology"]
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["method"] == "homology"
        assert obj["homology"] == {"betti": {"1": 1}, "torsion": {}}
        assert obj["spheres"] == {"1": 1}

    @pytest.mark.parametrize(
        "obj",
        [
            {"n": 0, "edges": [], "lambda": []},
            # every edge has an end with bound 0
            {"n": 3, "edges": [[0, 1], [1, 2], [0, 2]], "lambda": [0, 0, 2]},
        ],
    )
    def test_complex_without_a_vertex_through_the_oracle(self, capsys, tmp_path, obj):
        code, out, _ = run(capsys, ["compute", write_instance(tmp_path, obj), "--method", "homology"])
        assert code == 0
        result = json.loads(out)
        assert result["homology"] == {"betti": {"-1": 1}, "torsion": {}}
        assert result["spheres"] == {"-1": 1} and result["contractible"] is False

    @pytest.mark.parametrize("method", ["auto", "homology"])
    def test_over_cap_cone_is_contractible(self, capsys, tmp_path, method):
        # the 5 x 6 grid, every bound 2, over the cap, and a disjoint edge
        # with bounds (1, 1) that joins every face
        edges = [[v, w] for v in range(30) for w in (v + 1, v + 6) if w < 30 and (w == v + 6 or w % 6)]
        obj = {"n": 32, "edges": edges + [[30, 31]], "lambda": [2] * 30 + [1, 1]}
        code, out, _ = run(capsys, ["compute", write_instance(tmp_path, obj), "--method", method])
        assert code == 0
        assert json.loads(out) == {
            "instance": obj, "method": "homology", "contractible": True, "spheres": {},
            "homology": {"betti": {}, "torsion": {}},
        }

    def test_over_cap_cycle_is_an_error_object_before_the_cell_walk(self):
        # all-ones C60 has about 3.5e12 faces; the face counts refuse it
        # before a face is built, so the cell walk, made to fail here, is
        # never entered
        body = textwrap.dedent(
            """
            from bdcomplex import complexes
            from bdcomplex.cli import main

            def walk(*args):
                raise AssertionError("the cell walk was entered")

            complexes._walk = walk
            sys.exit(main(["compute", "-", "--face-cap", "200000"]))
            """
        )
        proc = run_script(body, json.dumps({"cycle": {"n": 60, "lambda": [1] * 60}}))
        assert proc.returncode == 1, proc.stderr
        assert json.loads(proc.stdout) == {
            "error": {
                "type": "FaceCapExceededError",
                "message": "more than 200000 faces in bounded degree complex",
            }
        }
        assert "Traceback" not in proc.stderr

    def test_contractible_instance(self, capsys, tmp_path):
        path = write_instance(
            tmp_path, {"n": 2, "edges": [[0, 1]], "lambda": [1, 1]}
        )
        code, out, _ = run(capsys, ["compute", path])
        assert code == 0
        obj = json.loads(out)
        assert obj["contractible"] is True and obj["spheres"] == {}

    def test_deep_path(self, capsys, tmp_path):
        n = 1500
        instance = {"n": n, "edges": [[i, i + 1] for i in range(n - 1)], "lambda": [1] * n}
        code, out, _ = run(capsys, ["compute", write_instance(tmp_path, instance)])
        assert code == 0
        obj = json.loads(out)
        # the matching complex of P_1500 is Ind(P_1499), a 499-sphere
        assert obj["method"] == "recursion" and obj["spheres"] == {"499": 1}

    def test_recursion_on_cycle_fails(self, capsys, tmp_path):
        path = write_instance(tmp_path, {"cycle": {"n": 4, "lambda": [1, 1, 1, 1]}})
        code, out, err = run(capsys, ["compute", path, "--method", "recursion"])
        assert code == 1
        assert json.loads(out)["error"]["type"] == "MethodMismatchError"

    def test_closed_form_on_plain_graph_fails(self, capsys, tmp_path):
        path = write_instance(
            tmp_path, {"n": 2, "edges": [[0, 1]], "lambda": [1, 1]}
        )
        code, out, _ = run(capsys, ["compute", path, "--method", "closed-form"])
        assert code == 1
        assert json.loads(out)["error"]["type"] == "MethodMismatchError"

    def test_auto_on_all_ones_cycle_uses_homology(self, capsys, tmp_path):
        path = write_instance(tmp_path, {"cycle": {"n": 5, "lambda": [1, 1, 1, 1, 1]}})
        code, out, _ = run(capsys, ["compute", path])
        assert code == 0
        obj = json.loads(out)
        assert obj["method"] == "homology"
        assert obj["spheres"] == {"1": 1}

    def test_all_ones_c27_through_the_oracle(self, capsys, tmp_path):
        # 196,418 cells of (K, st e) that the oracle no longer walks: the
        # matching tree leaves two critical 8-cells
        ones = [1] * 27
        path = write_instance(tmp_path, {"cycle": {"n": 27, "lambda": ones}})
        code, out, _ = run(capsys, ["compute", path, "--method", "homology"])
        assert code == 0
        assert out == (
            '{"instance":{"cycle":{"n":27,"lambda":' + json.dumps(ones).replace(" ", "") + "}},"
            '"method":"homology","contractible":false,"spheres":{"8":2},'
            '"homology":{"betti":{"8":2},"torsion":{}}}\n'
        )

    def test_auto_on_reducible_cycle(self, capsys, tmp_path):
        path = write_instance(tmp_path, {"cycle": {"n": 3, "lambda": [1, 1, 2]}})
        code, out, _ = run(capsys, ["compute", path])
        assert code == 0
        obj = json.loads(out)
        assert obj["method"] == "cycle-reduce"
        assert obj["spheres"] == {"0": 1}

    def test_explicit_cycle_graph_reduces(self, capsys, tmp_path):
        path = write_instance(
            tmp_path,
            {"n": 3, "edges": [[0, 1], [1, 2], [0, 2]], "lambda": [1, 1, 2]},
        )
        code, out, _ = run(capsys, ["compute", path])
        assert code == 0
        assert json.loads(out)["method"] == "cycle-reduce"

    def test_disconnected_non_forest_falls_back_to_homology(self, capsys, tmp_path):
        two_triangles = {
            "n": 6,
            "edges": [[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5]],
            "lambda": [1, 1, 1, 1, 1, 1],
        }
        code, out, _ = run(capsys, ["compute", write_instance(tmp_path, two_triangles)])
        assert code == 0
        obj = json.loads(out)
        assert obj["method"] == "homology"
        assert obj["spheres"] == {"1": 4}

    def test_friendship_graph_splits_where_the_oracle_refused(self, capsys, tmp_path):
        # ten triangles on a hub of bound 20: the oracle refuses it at the
        # face cap, while the free hub splits it into ten paths
        edges = [e for i in range(10) for e in ([0, 2 * i + 1], [0, 2 * i + 2], [2 * i + 1, 2 * i + 2])]
        f10 = {"n": 21, "edges": edges, "lambda": [20] + [1] * 20}
        path = write_instance(tmp_path, f10)
        code, out, _ = run(capsys, ["compute", path])
        assert code == 0
        assert out.endswith('"method":"cycle-reduce","contractible":false,"spheres":{"9":1}}\n')
        code, out, _ = run(capsys, ["compute", path, "--method", "homology"])
        assert code == 1
        assert json.loads(out)["error"]["type"] == "FaceCapExceededError"

    def test_free_hub_splits_as_the_oracle_answers(self, capsys, tmp_path):
        bowtie = {
            "n": 5,
            "edges": [[0, 1], [0, 2], [1, 2], [0, 3], [0, 4], [3, 4]],
            "lambda": [4, 1, 1, 1, 1],
        }
        path = write_instance(tmp_path, bowtie)
        objs = []
        for method in ("auto", "homology"):
            code, out, _ = run(capsys, ["compute", path, "--method", method])
            assert code == 0
            objs.append(json.loads(out))
        assert [o["method"] for o in objs] == ["cycle-reduce", "homology"]
        assert "homology" not in objs[0]
        assert objs[0]["spheres"] == objs[1]["spheres"] == {"1": 1}

    def test_torsion_reported_as_not_wedge_consistent(self, capsys, tmp_path):
        import itertools

        k7 = {
            "n": 7,
            "edges": [list(e) for e in itertools.combinations(range(7), 2)],
            "lambda": [1] * 7,
        }
        code, out, _ = run(capsys, ["compute", write_instance(tmp_path, k7)])
        assert code == 0
        obj = json.loads(out)
        assert obj["method"] == "homology"
        assert obj["wedge_consistent"] is False
        assert "spheres" not in obj and "contractible" not in obj
        assert obj["homology"]["torsion"] == {"1": [3]}

    def test_stdin(self, capsys, monkeypatch):
        # compute reads stdin as bytes, so stdin is a text wrapper over bytes
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(json.dumps(TWO_SPINE).encode())))
        code, out, _ = run(capsys, ["compute"])
        assert code == 0 and json.loads(out)["spheres"] == {"1": 1}

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        code, out, _ = run(capsys, ["compute", str(path)])
        assert code == 1
        assert json.loads(out)["error"]["type"] == "ParseError"

    @pytest.mark.parametrize("obj", NON_INTEGER_GRAPHS)
    def test_non_integer_graph_is_a_parse_error(self, capsys, tmp_path, obj):
        code, out, err = run(capsys, ["compute", write_instance(tmp_path, obj)])
        assert code == 1
        assert json.loads(out)["error"]["type"] == "ParseError"
        assert "Traceback" not in err

    @pytest.mark.parametrize("method", ["recursion", "homology"])
    def test_caterpillar_shorthand_equals_its_graph(self, capsys, tmp_path, method):
        shorthand = {"caterpillar": {"m": [2, 0, 3], "lambda": [2, 1, 2]}}
        graph = {
            "n": 8,
            "edges": [[0, 1], [1, 2], [0, 3], [0, 4], [2, 5], [2, 6], [2, 7]],
            "lambda": [2, 1, 2, 1, 1, 1, 1, 1],
        }
        outs = []
        for obj in (shorthand, graph):
            code, out, _ = run(capsys, ["compute", write_instance(tmp_path, obj), "--method", method])
            assert code == 0
            outs.append({k: v for k, v in json.loads(out).items() if k != "instance"})
        assert outs[0] == outs[1] and outs[0]["method"] == method

    def test_huge_caterpillar_shorthand_under_512_mb(self):
        # the closed form never reads the graph; building it for four million
        # leaves would take far more than 512 MB
        proc = run_limited(
            ["compute", "-"], '{"caterpillar":{"m":[4000000],"lambda":[2]}}', limit_mb=512
        )
        assert proc.returncode == 0, proc.stderr
        obj = json.loads(proc.stdout)
        assert obj["method"] == "closed-form"
        assert obj["spheres"] == {"1": comb(3999999, 2)}

    def test_caterpillar_with_a_bare_spine_vertex_under_256_mb(self):
        # the recursion folds the spine from the shorthand; building its
        # 10^8 leaves would take far more than 256 MB
        proc = run_limited(
            ["compute", "-"], '{"caterpillar":{"m":[0,100000000],"lambda":[1,2]}}', timeout=10
        )
        assert proc.returncode == 0, proc.stderr
        obj = json.loads(proc.stdout)
        assert obj["method"] == "recursion"
        assert obj["spheres"] == {"1": comb(10**8, 2)}

    def test_short_cycle_lambda_refused_under_256_mb(self):
        # the length of lambda is checked before a cycle of n vertices is built
        proc = run_limited(["compute", "-"], '{"cycle":{"n":4000000,"lambda":[1]}}')
        assert proc.returncode == 1, proc.stderr
        assert json.loads(proc.stdout) == {
            "error": {"type": "ParseError", "message": "expected 4000000 bounds, got 1"}
        }

    def test_importing_the_cli_leaves_multiprocessing_out(self, tmp_path):
        proc = run_script("import bdcomplex.cli\nprint('multiprocessing' in sys.modules)\n")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"
        # a batch loads neither the sweeps nor dataclasses (and its inspect)
        path3 = {"n": 3, "edges": [[0, 1], [1, 2]], "lambda": [1, 1, 1]}
        lines = [TWO_SPINE, {"cycle": {"n": 5, "lambda": [2, 1, 1, 1, 1]}}, path3]
        path = tmp_path / "three.jsonl"
        path.write_text("".join(json.dumps(obj) + "\n" for obj in lines))
        unloaded = ("dataclasses", "inspect", "bdcomplex.harness", "multiprocessing")
        body = textwrap.dedent(
            f"""
            from bdcomplex.cli import main
            code = main(["batch", {str(path)!r}])
            print(code, [name for name in {unloaded!r} if name in sys.modules])
            """
        )
        proc = run_script(body)
        assert proc.returncode == 0, proc.stderr
        *results, last = proc.stdout.splitlines()
        assert [json.loads(r)["instance"] for r in results] == lines
        assert last == "0 []"

    def test_any_failure_is_an_error_object(self, capsys, tmp_path, monkeypatch):
        def deep(instance, *args):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(cli, "compute_instance", deep)
        code, out, err = run(capsys, ["compute", write_instance(tmp_path, TWO_SPINE)])
        assert code == 1
        assert json.loads(out) == {
            "error": {"type": "RecursionError", "message": "maximum recursion depth exceeded"}
        }
        assert "Traceback" in err

    def test_json_nested_too_deep_is_a_parse_error(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text(TOO_DEEP)
        code, out, err = run(capsys, ["compute", str(path)])
        assert code == 1 and "Traceback" not in err
        assert json.loads(out)["error"]["type"] == "ParseError"

    def test_an_integer_too_long_to_read_is_a_parse_error(self, capsys, tmp_path):
        path = tmp_path / "long.json"
        path.write_text(TOO_LONG_TO_READ)
        code, out, err = run(capsys, ["compute", str(path)])
        assert code == 1 and "Traceback" not in err
        assert json.loads(out)["error"]["type"] == "ParseError"

    @pytest.mark.parametrize("output", ["json", "table"])
    def test_a_dimension_too_long_to_print_is_an_error_object(self, capsys, tmp_path, output):
        path = write_instance(tmp_path, DIMENSION_TOO_LONG_TO_PRINT)
        code, out, err = run(capsys, ["compute", path, "--output", output])
        assert code == 1 and "Traceback" not in err
        obj = json.loads(out)
        assert list(obj) == ["error"] and obj["error"]["type"] == "ResultTooLargeError"

    def test_undecodable_file_is_an_error_object(self, capsys, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"n": 1, "edges": [], "lambda": [1]}\xff')
        code, out, err = run(capsys, ["compute", str(path)])
        assert code == 1
        assert json.loads(out)["error"]["type"] == "ParseError"
        assert "Traceback" not in err

    @pytest.mark.parametrize("output", ["json", "table"])
    def test_a_result_too_long_to_print_is_an_error_object(self, capsys, tmp_path, output):
        # C(19999, 10000) has more digits than CPython turns into a string
        path = write_instance(tmp_path, TOO_LONG_TO_PRINT)
        code, out, err = run(capsys, ["compute", path, "--output", output])
        assert code == 1 and "Traceback" not in err
        obj = json.loads(out)
        assert list(obj) == ["error"] and obj["error"]["type"] == "ResultTooLargeError"

    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        code, _, err = run(capsys, ["compute", str(tmp_path / "absent.json")])
        assert code == 2 and "error" in err

    def test_byte_identical_runs(self, capsys, tmp_path):
        path = write_instance(tmp_path, TWO_SPINE)
        _, out1, _ = run(capsys, ["compute", path, "--method", "homology"])
        _, out2, _ = run(capsys, ["compute", path, "--method", "homology"])
        assert out1 == out2

    def test_timings_flag(self, capsys, tmp_path):
        path = write_instance(tmp_path, TWO_SPINE)
        code, out, _ = run(capsys, ["compute", path, "--timings"])
        assert code == 0 and "timing_ms" in json.loads(out)

    def test_table_output(self, capsys, tmp_path):
        path = write_instance(tmp_path, TWO_SPINE)
        code, out, _ = run(capsys, ["compute", path, "--output", "table"])
        assert code == 0
        assert "closed-form" in out and "S^1" in out


class TestBatch:
    def lines(self):
        return [
            json.dumps({"n": 4, "edges": [[0, 1], [1, 2], [2, 3]], "lambda": [1, 1, 1, 1]}),
            json.dumps(TWO_SPINE),
            json.dumps({"cycle": {"n": 4, "lambda": [2, 1, 1, 1]}}),
        ]

    def test_three_lines_in_order(self, capsys, tmp_path):
        path = tmp_path / "batch.jsonl"
        path.write_text("\n".join(self.lines()) + "\n")
        code, out, _ = run(capsys, ["batch", str(path)])
        assert code == 0
        objs = [json.loads(line) for line in out.splitlines()]
        assert [o["method"] for o in objs] == ["recursion", "closed-form", "cycle-reduce"]

    def test_malformed_middle_line(self, capsys, tmp_path):
        lines = self.lines()
        lines[1] = '{"bogus": true}'
        path = tmp_path / "batch.jsonl"
        path.write_text("\n".join(lines) + "\n")
        code, out, _ = run(capsys, ["batch", str(path)])
        assert code == 1
        objs = [json.loads(line) for line in out.splitlines()]
        assert "error" in objs[1] and objs[1]["line"] == 2
        assert objs[0]["method"] == "recursion" and objs[2]["method"] == "cycle-reduce"

    def test_any_failure_is_an_error_object(self, capsys, tmp_path, monkeypatch):
        real = cli.compute_instance

        def flaky(instance, *args):
            if "caterpillar" in instance.source:
                raise RecursionError("maximum recursion depth exceeded")
            return real(instance, *args)

        monkeypatch.setattr(cli, "compute_instance", flaky)
        path = tmp_path / "batch.jsonl"
        path.write_text("\n".join(self.lines()) + "\n")
        code, out, _ = run(capsys, ["batch", str(path), "--jobs", "1"])
        assert code == 1
        objs = [json.loads(line) for line in out.splitlines()]
        assert objs[1] == {
            "error": {"type": "RecursionError", "message": "maximum recursion depth exceeded"},
            "line": 2,
        }
        assert objs[0]["method"] == "recursion" and objs[2]["method"] == "cycle-reduce"

    def test_non_integer_graphs_are_parse_errors(self, capsys, tmp_path):
        lines = self.lines()[:1] + [json.dumps(obj) for obj in NON_INTEGER_GRAPHS]
        path = tmp_path / "batch.jsonl"
        path.write_text("\n".join(lines) + "\n")
        code, out, err = run(capsys, ["batch", str(path)])
        assert code == 1 and "Traceback" not in err
        objs = [json.loads(line) for line in out.splitlines()]
        assert objs[0]["method"] == "recursion"
        assert [(o["error"]["type"], o["line"]) for o in objs[1:]] == [
            ("ParseError", line) for line in range(2, 6)
        ]

    def test_empty_file(self, capsys, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        code, out, _ = run(capsys, ["batch", str(path)])
        assert code == 0 and out == ""

    def test_parallel_matches_serial(self, capsys, tmp_path):
        path = tmp_path / "batch.jsonl"
        path.write_text("\n".join(self.lines() * 3) + "\n")
        _, out1, _ = run(capsys, ["batch", str(path), "--jobs", "1"])
        _, out2, _ = run(capsys, ["batch", str(path), "--jobs", "2"])
        assert out1 == out2

    def test_stdin_batch(self, capsys, monkeypatch):
        # batch reads stdin as bytes, so stdin is a text wrapper over bytes
        data = ("\n".join(self.lines()) + "\n").encode()
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
        code, out, _ = run(capsys, ["batch"])
        assert code == 0 and len(out.splitlines()) == 3

    def test_undecodable_line_is_an_error_object(self, capsys, tmp_path):
        lines = [line.encode() for line in self.lines()]
        lines[1] = b'{"n": 1, "edges": [], "lambda": [1]}\xff'
        path = tmp_path / "bad.jsonl"
        path.write_bytes(b"\n".join(lines) + b"\n")
        for jobs in ("1", "2"):
            code, out, err = run(capsys, ["batch", str(path), "--jobs", jobs])
            assert code == 1
            objs = [json.loads(line) for line in out.splitlines()]
            assert objs[1]["error"]["type"] == "ParseError" and objs[1]["line"] == 2
            assert "Traceback" not in err
            assert objs[0]["method"] == "recursion" and objs[2]["method"] == "cycle-reduce"

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_a_result_too_long_to_print_is_an_error_object(self, capsys, tmp_path, jobs):
        lines = self.lines()
        lines[1] = json.dumps(TOO_LONG_TO_PRINT)
        path = tmp_path / "batch.jsonl"
        path.write_text("\n".join(lines) + "\n")
        code, out, err = run(capsys, ["batch", str(path), "--jobs", jobs])
        assert code == 1 and "Traceback" not in err
        objs = [json.loads(line) for line in out.splitlines()]
        assert objs[1]["error"]["type"] == "ResultTooLargeError" and objs[1]["line"] == 2
        assert objs[0]["method"] == "recursion" and objs[2]["method"] == "cycle-reduce"

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_json_nested_too_deep_is_a_parse_error(self, capsys, tmp_path, monkeypatch, jobs):
        monkeypatch.setattr(dispatch, "usable_cpus", lambda: 2)  # a pool at jobs 2 on any host
        lines = self.lines()
        lines[1] = TOO_DEEP
        path = tmp_path / "batch.jsonl"
        path.write_text("\n".join(lines) + "\n")
        code, out, err = run(capsys, ["batch", str(path), "--jobs", jobs])
        assert code == 1 and "Traceback" not in err
        objs = [json.loads(line) for line in out.splitlines()]
        assert objs[1]["error"]["type"] == "ParseError" and objs[1]["line"] == 2
        assert objs[0]["method"] == "recursion" and objs[2]["method"] == "cycle-reduce"

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize(
        "bad, error",
        [
            (TOO_LONG_TO_READ, "ParseError"),
            (json.dumps(DIMENSION_TOO_LONG_TO_PRINT), "ResultTooLargeError"),
        ],
        ids=["integer-too-long-to-read", "dimension-too-long-to-print"],
    )
    def test_a_number_too_long_is_an_error_object(self, capsys, tmp_path, monkeypatch, bad, error, jobs):
        monkeypatch.setattr(dispatch, "usable_cpus", lambda: 2)  # a pool at jobs 2 on any host
        lines = self.lines()
        lines[1] = bad
        path = tmp_path / "batch.jsonl"
        path.write_text("\n".join(lines) + "\n")
        code, out, err = run(capsys, ["batch", str(path), "--jobs", jobs])
        assert code == 1 and "Traceback" not in err
        objs = [json.loads(line) for line in out.splitlines()]
        assert objs[1]["error"]["type"] == error and objs[1]["line"] == 2
        assert objs[0]["method"] == "recursion" and objs[2]["method"] == "cycle-reduce"

    def test_timings_flag(self, capsys, tmp_path):
        path = tmp_path / "batch.jsonl"
        path.write_text("\n".join(self.lines()) + "\n")
        code, out, _ = run(capsys, ["batch", str(path), "--timings"])
        assert code == 0
        timed = [json.loads(line) for line in out.splitlines()]
        assert all("compute" in obj.pop("timing_ms") for obj in timed)
        _, plain, _ = run(capsys, ["batch", str(path)])
        assert timed == [json.loads(line) for line in plain.splitlines()]

    def test_a_dead_worker_ends_the_run_with_an_error(self, tmp_path):
        # the worker that answers line 200 exits at once, as one that the
        # OOM killer ends would
        lines = self.lines() * 100
        lines[199] = json.dumps({"n": 1, "edges": [], "lambda": [1], "die": True})
        path = tmp_path / "batch.jsonl"
        path.write_text("\n".join(lines) + "\n")
        body = textwrap.dedent(
            f"""
            import os
            from bdcomplex import cli, dispatch
            dispatch.usable_cpus = lambda: 2
            compute = cli.compute_instance

            def dying(instance, *args):
                if instance.source.get("die"):
                    os._exit(9)
                return compute(instance, *args)

            cli.compute_instance = dying
            sys.exit(cli.main(["batch", {str(path)!r}, "--jobs", "2"]))
            """
        )
        proc = run_script(body, limit_mb=1024, timeout=20)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        # the lines written before the worker died stay written, in order
        written = [json.loads(line)["instance"] for line in proc.stdout.splitlines()]
        assert written == [json.loads(line) for line in lines[: len(written)]]
        assert len(written) < 199

    def traced_batch(self, capsys, monkeypatch, lines, argv):
        """Run `batch` on stdin, logging each line read and each result written."""
        events = []

        class Lines(io.BytesIO):
            def __iter__(self):
                for line in self.getvalue().splitlines(keepends=True):
                    events.append("read")
                    yield line

        real_emit = cli._emit

        def emit(line):
            events.append("write")
            real_emit(line)

        monkeypatch.setattr(cli, "_emit", emit)
        data = ("\n".join(lines) + "\n").encode()
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(Lines(data)))
        code, out, _ = run(capsys, argv)
        return code, out, events

    def test_each_line_is_written_before_the_next_is_read(self, capsys, monkeypatch):
        code, out, events = self.traced_batch(capsys, monkeypatch, self.lines(), ["batch"])
        assert code == 0 and len(out.splitlines()) == 3
        assert events == ["read", "write"] * 3

    def test_two_jobs_read_a_bounded_number_of_lines_ahead(self, capsys, monkeypatch):
        lines = self.lines() * (POOL_READ_AHEAD + 1) * TASK_SIZE  # more than the pool reads ahead
        code, out, events = self.traced_batch(capsys, monkeypatch, lines, ["batch", "--jobs", "2"])
        assert code == 0
        # the batch pool takes TASK_SIZE one-line shards per task from two workers
        ahead = POOL_READ_AHEAD * 2 * TASK_SIZE
        assert len(lines) > ahead + TASK_SIZE
        reads = writes = 0
        for event in events:
            if event == "read":
                reads += 1
                assert reads <= writes + ahead, events
            else:
                writes += 1
        assert reads == writes == len(lines)
        _, serial, _ = self.traced_batch(capsys, monkeypatch, lines, ["batch"])
        assert out == serial


class TestVerifyCommand:
    def test_forest_sweep_ok(self, capsys):
        code, out, _ = run(
            capsys,
            ["verify", "forests", "--max-edges", "3", "--max-bound", "2",
             "--raw-samples", "20"],
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["ok"] is True and obj["mismatches"] == []
        assert "elapsed_ms" not in obj

    def test_reproducible_with_seed(self, capsys):
        argv = ["verify", "random", "--count", "20", "--seed", "42"]
        code1, out1, _ = run(capsys, argv)
        code2, out2, _ = run(capsys, argv)
        assert code1 == code2 == 0 and out1 == out2

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_an_error_in_a_task_ends_the_sweep(self, capsys, monkeypatch, jobs):
        # at jobs 2 the face cap is exceeded inside a pool worker
        monkeypatch.setattr(dispatch, "usable_cpus", lambda: 2)
        argv = ["verify", "cycles", "--max-n", "5", "--max-bound", "2", "--face-cap", "3"]
        code, _, err = run(capsys, argv + ["--jobs", jobs])
        assert code == 1
        assert err == "error: more than 3 faces in bounded degree complex\n"

    def test_a_dead_worker_ends_the_sweep_with_an_error(self):
        body = textwrap.dedent(
            """
            import os
            from bdcomplex import dispatch, harness
            from bdcomplex.cli import main
            dispatch.usable_cpus = lambda: 2
            worker = harness._cycle_worker

            def dying(graph, bounds, face_cap):
                if bounds == (1, 2, 1, 2, 0):
                    os._exit(9)
                return worker(graph, bounds, face_cap)

            harness._cycle_worker = dying
            sys.exit(main(["verify", "cycles", "--max-n", "5", "--jobs", "2"]))
            """
        )
        proc = run_script(body, limit_mb=1024, timeout=20)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert proc.stdout == ""

    def test_cycles_sweep(self, capsys):
        code, out, _ = run(
            capsys, ["verify", "cycles", "--max-n", "4", "--max-bound", "2"]
        )
        assert code == 0 and json.loads(out)["ok"] is True

    def test_matching_sweep(self, capsys):
        code, out, _ = run(
            capsys,
            ["verify", "matching", "--max-spine", "2", "--max-leaves", "2", "--k", "1,2"],
        )
        assert code == 0 and json.loads(out)["torsion"] == []

    def test_caterpillar_sweep_table(self, capsys):
        code, out, _ = run(
            capsys,
            ["verify", "caterpillars", "--max-spine", "2", "--max-leaves", "2",
             "--max-bound", "2", "--output", "table"],
        )
        assert code == 0 and "ok: True" in out

    def test_sweep_too_large_to_list_runs_in_bounded_memory(self):
        # 67M cycle instances do not fit in 600 MB as a list, so a sweep
        # that lists them first checks none; streamed, the checks begin at
        # once, and the sweep keeps running until it is killed
        argv = ["verify", "cycles", "--max-n", "13", "--max-bound", "3"]
        body = textwrap.dedent(
            f"""
            from bdcomplex import harness
            from bdcomplex.cli import main
            check, checked = harness._check, 0

            def counted(*args):
                global checked
                check(*args)
                checked += 1
                if checked == 1000:
                    print("checked", checked, flush=True)

            harness._check = counted
            sys.exit(main({argv!r}))
            """
        )
        with pytest.raises(subprocess.TimeoutExpired) as killed:
            run_script(body, limit_mb=600, timeout=5)
        assert b"checked 1000" in (killed.value.stdout or b"")
        assert b"MemoryError" not in (killed.value.stderr or b"")

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("family", ["forests", "caterpillars", "cycles", "matching", "random"])
    def test_default_sweeps_match_golden_output(self, capsys, family, jobs):
        """Default sweeps at seed 7 give these exact bytes at any job count."""
        golden = Path(__file__).parent / "data" / f"verify_{family}_seed7.json"
        code, out, _ = run(capsys, ["verify", family, "--seed", "7", "--jobs", jobs])
        assert code == 0
        assert out == golden.read_text(encoding="utf-8")

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_batch_matches_golden_output(self, capsys, jobs):
        """The 344 lines of `perfbench/inputs.py batch --seed 1` give these exact bytes."""
        data = Path(__file__).parent / "data"
        code, out, _ = run(capsys, ["batch", str(data / "batch_seed1.jsonl"), "--jobs", jobs])
        assert code == 0
        assert out == (data / "batch_seed1_out.jsonl").read_text(encoding="utf-8")

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_batch_table_matches_golden_output(self, capsys, jobs):
        """The same 344 lines as table rows.  Regenerate with
        `bdcomplex batch tests/data/batch_seed1.jsonl --output table > tests/data/batch_seed1_table.txt`."""
        data = Path(__file__).parent / "data"
        argv = ["batch", str(data / "batch_seed1.jsonl"), "--output", "table", "--jobs", jobs]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert out == (data / "batch_seed1_table.txt").read_text(encoding="utf-8")


class TestOptionRanges:
    @pytest.mark.parametrize(
        "argv, option",
        [
            (["compute", "--face-cap", "-5"], "--face-cap"),
            (["compute", "--method", "homology", "--face-cap", "0"], "--face-cap"),
            (["batch", "--face-cap", "0"], "--face-cap"),
            (["verify", "cycles", "--max-n", "3", "--face-cap", "0"], "--face-cap"),
            (["verify", "forests", "--max-bound", "-1"], "--max-bound"),
            (["verify", "caterpillars", "--max-bound", "-1"], "--max-bound"),
            (["verify", "cycles", "--max-bound", "-1"], "--max-bound"),
            (["verify", "random", "--max-bound", "-1"], "--max-bound"),
            (["verify", "cycles", "--last-bounds", "-1"], "--last-bounds"),
            (["verify", "matching", "--k", "-1"], "--k"),
            (["verify", "matching", "--k", "1,-2"], "--k"),
            (["verify", "forests", "--max-edges", "-1"], "--max-edges"),
            (["verify", "forests", "--raw-samples", "-1"], "--raw-samples"),
            (["verify", "caterpillars", "--max-spine", "-1"], "--max-spine"),
            (["verify", "caterpillars", "--max-leaves", "-1"], "--max-leaves"),
            (["verify", "caterpillars", "--min-leaves", "-1"], "--min-leaves"),
            (["verify", "cycles", "--max-n", "2"], "--max-n"),
            (["verify", "matching", "--max-spine", "-1"], "--max-spine"),
            (["verify", "matching", "--max-leaves", "-1"], "--max-leaves"),
            (["verify", "random", "--count", "-1"], "--count"),
            (["verify", "random", "--max-edges", "-1"], "--max-edges"),
            (["verify", "random", "--jobs", "0"], "--jobs"),
            (["verify", "forests", "--jobs", "-1"], "--jobs"),
            (["batch", "--jobs", "-1"], "--jobs"),
        ],
    )
    def test_out_of_range_is_a_usage_error(self, capsys, argv, option):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        assert f"error: argument {option}: must be at least" in err
        assert "Traceback" not in err

    def test_out_of_range_leaves_no_traceback_in_a_process(self):
        proc = run_limited(["verify", "forests", "--max-bound", "-1"])
        assert proc.returncode == 2 and proc.stdout == ""
        assert "argument --max-bound: must be at least 0, got -1" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_lowest_values_are_accepted(self, capsys):
        argv = ["verify", "cycles", "--max-n", "3", "--max-bound", "0", "--last-bounds", "0",
                "--face-cap", "1"]
        code, out, _ = run(capsys, argv)
        assert code == 0 and json.loads(out)["ok"] is True
        code, out, _ = run(capsys, ["verify", "matching", "--max-spine", "1", "--k", "0"])
        assert code == 0 and json.loads(out)["ok"] is True


class TestParser:
    """`main` builds the parsers of the subcommands its command line names
    only; help, usage errors and parsed values match the full build."""

    ARGVS = [
        [], ["-h"], ["--help"], ["frobnicate"], ["--bogus"], ["--bogus", "compute"],
        ["compute", "--help"], ["compute", "--bogus"], ["compute", "a", "b"],
        ["compute", "--method", "nope"], ["compute", "x.json", "--method", "homology", "--timings"],
        ["batch", "--help"], ["batch", "--jobs", "x"], ["batch", "-", "--jobs", "2", "--output", "table"],
        ["generate"], ["generate", "--help"], ["generate", "star"], ["generate", "path"],
        ["generate", "path", "--help"], ["generate", "caterpillar", "--help"],
        ["generate", "cycle", "--help"], ["generate", "path", "--n", "3", "--lambda", "1,1,1"],
        ["verify"], ["verify", "--help"], ["verify", "trees"], ["verify", "cycles", "--max-n", "4"],
        ["compute", "--help", "verify"], ["verify", "forests", "compute"],
    ] + [
        ["verify", family, *rest]
        for family in ("forests", "caterpillars", "cycles", "matching", "random")
        for rest in (["--help"], ["--jobs", "0"], ["--bogus"], [])
    ]

    @staticmethod
    def _outcome(parser, argv, capsys):
        try:
            values = vars(parser.parse_args(argv))
            code = None
        except SystemExit as exc:
            values, code = None, exc.code
        out, err = capsys.readouterr()
        return code, out, err, values

    @pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
    def test_named_build_reads_as_the_full_build(self, capsys, argv):
        full = self._outcome(cli.build_parser(), argv, capsys)
        assert self._outcome(cli.build_parser(argv), argv, capsys) == full
        assert full[1] or full[2] or full[3]  # the case shows something

    def test_unnamed_subcommands_get_no_arguments(self, capsys):
        parser = cli.build_parser(["compute"])
        with pytest.raises(SystemExit):
            parser.parse_args(["verify", "forests"])  # verify was built without its families
        assert "unrecognized arguments: forests" in capsys.readouterr().err
        assert vars(parser.parse_args(["compute"]))["method"] == "auto"
